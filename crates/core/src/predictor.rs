//! The end-to-end prediction facade (paper Figure 1).
//!
//! Source text flows through the front end, the instruction translation
//! module, the placement cost model, and the symbolic aggregation model;
//! memory costs are computed independently (§2.3) and added, and library
//! calls draw on the external cost table (§3.5).

use crate::aggregate::{aggregate, AggregateOptions};
use crate::incremental::CostTree;
use crate::library::LibraryCostTable;
use crate::memcost::{mem_cost, MemCost};
use crate::memory::{memory_cost, MemoryCost};
use crate::transcache::TranslationCache;
use presage_frontend::{parse, sema, FrontendError, Subroutine};
use presage_machine::MachineDesc;
use presage_symbolic::PerfExpr;
use presage_translate::{translate, ProgramIr, TranslateError};
use std::fmt;
use std::sync::Arc;

/// Predictor configuration.
#[derive(Clone, Debug, Default)]
pub struct PredictorOptions {
    /// Aggregation/placement options.
    pub aggregate: AggregateOptions,
    /// Include the §2.3 memory cost model in the total.
    pub include_memory: bool,
    /// Library routine cost table for `call` statements.
    pub library: Option<LibraryCostTable>,
}

/// Errors from prediction.
#[derive(Clone, Debug, PartialEq)]
pub enum PredictError {
    /// Lexing, parsing, or semantic analysis failed.
    Frontend(FrontendError),
    /// Instruction translation failed.
    Translate(TranslateError),
    /// The prediction pipeline panicked or hit an invariant violation.
    /// Batch workers catch per-job panics and report them here so one
    /// poisoned job cannot take down a server wave.
    Internal(String),
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::Frontend(e) => write!(f, "{e}"),
            PredictError::Translate(e) => write!(f, "{e}"),
            PredictError::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for PredictError {}

impl From<FrontendError> for PredictError {
    fn from(e: FrontendError) -> Self {
        PredictError::Frontend(e)
    }
}

impl From<TranslateError> for PredictError {
    fn from(e: TranslateError) -> Self {
        PredictError::Translate(e)
    }
}

/// A finished prediction for one subroutine.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Subroutine name.
    pub name: String,
    /// Instruction-stream cost (placement + aggregation).
    pub compute: PerfExpr,
    /// Legacy capacity-heuristic memory cost, when enabled via
    /// [`PredictorOptions::include_memory`].
    pub memory: Option<MemoryCost>,
    /// The §2.3 cache-line access model, present exactly when the machine
    /// declares a `cache` section (see [`crate::memcost`]).
    pub memcost: Option<MemCost>,
    /// `compute` plus memory stall cycles.
    pub total: PerfExpr,
    /// The translated program (for cost blocks, optimization, rendering).
    ///
    /// Shared, not copied: with a [`TranslationCache`] attached this is
    /// the cache entry's own `Arc`, so every prediction of the same
    /// `(program, machine)` points at one translation, and evicting the
    /// entry leaves this one alive. `Deref` makes `&p.ir` read as a
    /// `&ProgramIr`.
    pub ir: Arc<ProgramIr>,
}

impl fmt::Display for Prediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} cycles", self.name, self.total)
    }
}

/// The performance prediction engine for one target machine.
///
/// # Examples
///
/// ```
/// use presage_core::predictor::Predictor;
/// use presage_machine::machines;
///
/// let predictor = Predictor::new(machines::power_like());
/// let predictions = predictor
///     .predict_source(
///         "subroutine scale(a, s, n)
///            real a(n), s
///            integer i, n
///            do i = 1, n
///              a(i) = a(i) * s
///            end do
///          end",
///     )
///     .unwrap();
/// let p = &predictions[0];
/// assert_eq!(p.name, "scale");
/// // Cost is symbolic in the unknown bound n.
/// assert!(!p.total.is_concrete());
/// ```
#[derive(Debug)]
pub struct Predictor {
    machine: MachineDesc,
    options: PredictorOptions,
    /// Shared translation memo; `None` is the uncached reference path
    /// (sema + translate on every call), which the differential tests pin
    /// the cached path against.
    translation: Option<Arc<TranslationCache>>,
}

impl Predictor {
    /// A predictor with default options (no memory model, no library).
    pub fn new(machine: MachineDesc) -> Predictor {
        Predictor {
            machine,
            options: PredictorOptions::default(),
            translation: None,
        }
    }

    /// A predictor with explicit options.
    pub fn with_options(machine: MachineDesc, options: PredictorOptions) -> Predictor {
        Predictor {
            machine,
            options,
            translation: None,
        }
    }

    /// Attaches a shared [`TranslationCache`]: every subsequent
    /// source-level prediction keys its sema + translation work by
    /// canonical AST hash and reuses prior translations — across repeated
    /// calls, across subroutines sharing a shape, and (because the cache
    /// key includes the machine) across predictors for different targets
    /// sharing the same `Arc`.
    pub fn with_translation_cache(mut self, cache: Arc<TranslationCache>) -> Predictor {
        self.translation = Some(cache);
        self
    }

    /// The attached translation cache, if any.
    pub fn translation_cache(&self) -> Option<&Arc<TranslationCache>> {
        self.translation.as_ref()
    }

    /// The target machine.
    pub fn machine(&self) -> &MachineDesc {
        &self.machine
    }

    /// The active options.
    pub fn options(&self) -> &PredictorOptions {
        &self.options
    }

    /// Sema + translation for one subroutine, through the shared
    /// [`TranslationCache`] when one is attached and from scratch (the
    /// reference path) otherwise.
    fn translated(&self, sub: &Subroutine) -> Result<Arc<ProgramIr>, PredictError> {
        match &self.translation {
            Some(cache) => cache.translated(sub, &self.machine),
            None => {
                let symbols = sema::analyze(sub)?;
                Ok(Arc::new(translate(sub, &symbols, &self.machine)?))
            }
        }
    }

    /// Parses, checks, translates, and predicts every subroutine in `src`.
    ///
    /// # Errors
    ///
    /// Returns the first front-end or translation error.
    pub fn predict_source(&self, src: &str) -> Result<Vec<Prediction>, PredictError> {
        let program = parse(src)?;
        program
            .units
            .iter()
            .map(|sub| self.predict_subroutine(sub))
            .collect()
    }

    /// Predicts one parsed subroutine.
    ///
    /// # Errors
    ///
    /// Returns semantic or translation errors.
    pub fn predict_subroutine(&self, sub: &Subroutine) -> Result<Prediction, PredictError> {
        let ir = self.translated(sub)?;
        Ok(self.predict_shared(sub.name.clone(), ir))
    }

    /// Predicts one parsed subroutine, returning only the total cost
    /// expression.
    ///
    /// This is the prediction-engine hot path: unlike
    /// [`Predictor::predict_subroutine`] it assembles no [`Prediction`]
    /// (no IR retained, no expression clones), so it is what the
    /// transformation search and the `perfsuite` throughput benchmark
    /// call in their inner loops.
    ///
    /// # Errors
    ///
    /// Returns semantic or translation errors.
    pub fn predict_subroutine_cost(&self, sub: &Subroutine) -> Result<PerfExpr, PredictError> {
        let ir = self.translated(sub)?;
        Ok(self.predict_cost(&ir))
    }

    /// Admissible lower bound on [`Self::predict_subroutine_cost`]
    /// evaluated at `bindings` (unbound unknowns default to their range
    /// midpoints, matching [`PerfExpr::eval_with_defaults`]). Computed
    /// from per-block critical-path/port-pressure floors without running
    /// the placement — see [`crate::bounds`]. The searchers use it to
    /// prune candidates that provably cannot beat the incumbent.
    pub fn lower_bound_subroutine(
        &self,
        sub: &Subroutine,
        bindings: &std::collections::HashMap<presage_symbolic::Symbol, f64>,
    ) -> Result<f64, PredictError> {
        let ir = self.translated(sub)?;
        let mut lb = crate::bounds::subroutine_lower_bound(
            &ir,
            &self.machine,
            &self.options.aggregate,
            bindings,
        );
        // The memory-model terms are added to the prediction verbatim, so
        // charging their exact (memoized) values keeps the bound
        // admissible and tight on cache-extended machines.
        if let Some(cache) = &self.machine.cache {
            let mem = mem_cost(&ir, cache, &self.options.aggregate)
                .cycles
                .eval_with_defaults(bindings);
            if mem.is_finite() {
                lb += mem;
            }
        }
        if self.options.include_memory {
            let cache = self.machine.cache.unwrap_or_default();
            let mem = memory_cost(&ir, &cache, &self.options.aggregate)
                .cycles
                .eval_with_defaults(bindings);
            if mem.is_finite() {
                lb += mem;
            }
        }
        Ok(lb)
    }

    /// Total cost expression of an already-translated program: aggregation
    /// plus the memory model when enabled, without building a
    /// [`Prediction`].
    pub fn predict_cost(&self, ir: &ProgramIr) -> PerfExpr {
        let compute = aggregate(
            ir,
            &self.machine,
            self.options.library.as_ref(),
            &self.options.aggregate,
        );
        let mut total = compute;
        if let Some(cache) = &self.machine.cache {
            total += mem_cost(ir, cache, &self.options.aggregate).cycles;
        }
        if self.options.include_memory {
            let cache = self.machine.cache.unwrap_or_default();
            let mc = memory_cost(ir, &cache, &self.options.aggregate);
            total += mc.cycles;
        }
        total
    }

    /// Explains an already-translated program block by block: per-unit
    /// busy/saturation and resource-free critical-path length from the
    /// Tetris placement, with a [`crate::explain::Bottleneck`] verdict
    /// per block. When the machine declares a `cache` section the report
    /// also carries the memory-vs-compute attribution
    /// ([`crate::explain::MemoryExplain`]): stall cycles from the
    /// cache-line model against compute cycles, both evaluated at the
    /// default variable bindings. The searchers use the hottest block's
    /// verdict to order their moves (attack the saturated unit first),
    /// and a memory-bound verdict says to attack locality before the
    /// instruction mix.
    pub fn explain(&self, ir: &ProgramIr) -> crate::explain::ExplainReport {
        let mut report =
            crate::explain::explain_ir(ir, &self.machine, self.options.aggregate.place);
        if let Some(cache) = &self.machine.cache {
            let compute = aggregate(
                ir,
                &self.machine,
                self.options.library.as_ref(),
                &self.options.aggregate,
            );
            let mc = mem_cost(ir, cache, &self.options.aggregate);
            let defaults = std::collections::HashMap::new();
            report.memory = Some(crate::explain::MemoryExplain {
                compute_cycles: compute.eval_with_defaults(&defaults),
                memory_cycles: mc.cycles.eval_with_defaults(&defaults),
                lines: mc.lines.eval_with_defaults(&defaults),
                groups: mc.groups,
                exact: mc.exact,
            });
        }
        report
    }

    /// Explains one parsed subroutine — [`Predictor::explain`] behind
    /// the same translation (and translation cache) as
    /// [`Predictor::predict_subroutine_cost`].
    ///
    /// # Errors
    ///
    /// Returns semantic or translation errors.
    pub fn explain_subroutine(
        &self,
        sub: &Subroutine,
    ) -> Result<crate::explain::ExplainReport, PredictError> {
        let ir = self.translated(sub)?;
        Ok(self.explain(&ir))
    }

    /// Assembles a [`Prediction`] from a computed instruction-stream cost:
    /// attaches the cache-line model when the machine declares a cache,
    /// the legacy heuristic when `include_memory` is set, and totals them.
    fn assemble(&self, name: String, ir: Arc<ProgramIr>, compute: PerfExpr) -> Prediction {
        let memcost = self
            .machine
            .cache
            .as_ref()
            .map(|cache| mem_cost(&ir, cache, &self.options.aggregate));
        let memory = self.options.include_memory.then(|| {
            let cache = self.machine.cache.unwrap_or_default();
            memory_cost(&ir, &cache, &self.options.aggregate)
        });
        let mut total = compute.clone();
        if let Some(mc) = &memcost {
            total += mc.cycles.clone();
        }
        if let Some(mc) = &memory {
            total += mc.cycles.clone();
        }
        Prediction {
            name,
            compute,
            memory,
            memcost,
            total,
            ir,
        }
    }

    /// Predicts an already-translated program, taking ownership of it:
    /// the returned [`Prediction::ir`] is a fresh `Arc` around `ir`.
    /// Source-level predictions skip the move and share the translation
    /// cache's `Arc` instead.
    pub fn predict_ir(&self, name: String, ir: ProgramIr) -> Prediction {
        self.predict_shared(name, Arc::new(ir))
    }

    /// [`Predictor::predict_ir`] on a shared translation.
    fn predict_shared(&self, name: String, ir: Arc<ProgramIr>) -> Prediction {
        let compute = aggregate(
            &ir,
            &self.machine,
            self.options.library.as_ref(),
            &self.options.aggregate,
        );
        self.assemble(name, ir, compute)
    }

    /// Predicts every subroutine with *interprocedural* costing: each
    /// predicted subroutine's expression is entered into the library cost
    /// table (keyed by its name, parameterized by its unknowns), so later
    /// subroutines' `call` statements are charged the callee's symbolic
    /// cost rather than a flat unknown-call estimate.
    ///
    /// This is the paper's §3.5: "If source code is available, the
    /// performance expressions of the external library routines can be
    /// computed and stored in an external library cost table." Subroutines
    /// must appear before their callers (no recursion — mini-Fortran has
    /// none). Callee unknowns keep their formal names; actuals are not
    /// substituted (the general parameterized-table case).
    ///
    /// # Errors
    ///
    /// Returns the first front-end or translation error.
    pub fn predict_source_interprocedural(
        &self,
        src: &str,
    ) -> Result<Vec<Prediction>, PredictError> {
        let program = parse(src)?;
        let mut library = self.options.library.clone().unwrap_or_default();
        let mut out = Vec::new();
        for sub in &program.units {
            let ir = self.translated(sub)?;
            let compute = aggregate(&ir, &self.machine, Some(&library), &self.options.aggregate);
            let pred = self.assemble(sub.name.clone(), ir, compute);
            library.insert(sub.name.clone(), sub.params.clone(), pred.total.clone());
            out.push(pred);
        }
        Ok(out)
    }

    /// Predicts every `(machine, source)` job on `workers` scoped
    /// threads, sharing `cache` and the global polynomial arena across
    /// all of them — see [`crate::batch::predict_batch`]. Results are
    /// index-aligned with `jobs`; a failing job yields its own `Err`
    /// without disturbing the others.
    pub fn predict_batch(
        jobs: &[(&MachineDesc, &str)],
        options: &PredictorOptions,
        cache: &Arc<TranslationCache>,
        workers: usize,
    ) -> Vec<Result<Vec<Prediction>, PredictError>> {
        crate::batch::predict_batch(jobs, options, cache, workers)
    }

    /// [`Predictor::predict_batch`] plus per-worker telemetry (jobs run,
    /// chunks stolen from the work queue, two-level memo hit counts) —
    /// see [`crate::batch::predict_batch_report`].
    pub fn predict_batch_report(
        jobs: &[(&MachineDesc, &str)],
        options: &PredictorOptions,
        cache: &Arc<TranslationCache>,
        workers: usize,
    ) -> crate::batch::BatchReport {
        crate::batch::predict_batch_report(jobs, options, cache, workers)
    }

    /// Builds an incrementally updatable cost tree for a translated
    /// program (§3.3.1).
    pub fn cost_tree(&self, ir: &ProgramIr) -> CostTree {
        CostTree::build(
            ir,
            &self.machine,
            self.options.library.as_ref(),
            self.options.aggregate.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presage_machine::machines;
    use presage_symbolic::{CompareOutcome, Symbol};
    use std::collections::HashMap;

    const AXPY: &str = "subroutine axpy(y, x, a, n)
        real y(n), x(n), a
        integer i, n
        do i = 1, n
          y(i) = y(i) + a * x(i)
        end do
      end";

    #[test]
    fn predicts_each_subroutine() {
        let p = Predictor::new(machines::power_like());
        let src = format!("{AXPY}\nsubroutine zero(a)\nreal a(8)\na(1) = 0.0\nend");
        let preds = p.predict_source(&src).unwrap();
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].name, "axpy");
        assert_eq!(preds[1].name, "zero");
        assert!(preds[1].total.is_concrete());
    }

    #[test]
    fn memory_model_adds_cost() {
        let without = Predictor::new(machines::power_like());
        let opts = PredictorOptions {
            include_memory: true,
            ..PredictorOptions::default()
        };
        let with = Predictor::with_options(machines::power_like(), opts);
        let a = &without.predict_source(AXPY).unwrap()[0];
        let b = &with.predict_source(AXPY).unwrap()[0];
        assert!(b.memory.is_some());
        let cmp = a.total.compare(&b.total);
        assert_eq!(
            cmp.outcome,
            CompareOutcome::FirstCheaper,
            "memory adds cost"
        );
    }

    #[test]
    fn portability_same_source_two_machines() {
        // The paper's portability claim: retargeting = swapping tables.
        let power = Predictor::new(machines::power_like());
        let risc = Predictor::new(machines::risc1());
        let a = &power.predict_source(AXPY).unwrap()[0];
        let b = &risc.predict_source(AXPY).unwrap()[0];
        let n = Symbol::new("n");
        let mut at = HashMap::new();
        at.insert(n, 1000.0);
        let pa = a.total.poly().eval_f64(&at).unwrap();
        let pb = b.total.poly().eval_f64(&at).unwrap();
        assert!(
            pb > pa,
            "scalar machine slower than superscalar: {pa} vs {pb}"
        );
    }

    #[test]
    fn frontend_errors_propagate() {
        let p = Predictor::new(machines::power_like());
        match p.predict_source("subroutine s(\nend") {
            Err(PredictError::Frontend(_)) => {}
            other => panic!("expected frontend error, got {other:?}"),
        }
    }

    #[test]
    fn interprocedural_prediction_threads_callee_costs() {
        let p = Predictor::new(machines::power_like());
        let src = "subroutine inner(a, m)
             real a(m)
             integer i, m
             do i = 1, m
               a(i) = a(i) * 2.0
             end do
           end
           subroutine outer(a, m, k)
             real a(m)
             integer j, m, k
             do j = 1, k
               call inner(a, m)
             end do
           end";
        let preds = p.predict_source_interprocedural(src).unwrap();
        assert_eq!(preds.len(), 2);
        let outer = &preds[1];
        // outer's cost must contain a k·m term: k calls, each Θ(m).
        let poly = outer.total.poly();
        assert_eq!(poly.degree_in(&Symbol::new("k")), 1, "{}", outer.total);
        assert_eq!(poly.degree_in(&Symbol::new("m")), 1, "{}", outer.total);
        let km = poly.terms().any(|(mono, _)| {
            mono.exponent_of(&Symbol::new("k")) == 1 && mono.exponent_of(&Symbol::new("m")) == 1
        });
        assert!(km, "expected a k*m cross term: {}", outer.total);
    }

    #[test]
    fn interprocedural_without_callee_uses_flat_cost() {
        let p = Predictor::new(machines::power_like());
        let src = "subroutine s(x, k)\nreal x\ninteger k\ncall mystery(k)\nend";
        let preds = p.predict_source_interprocedural(src).unwrap();
        // No memory model, unknown callee: the flat default applies.
        assert!(preds[0].total.is_concrete());
    }

    #[test]
    fn library_calls_costed() {
        use presage_symbolic::{Poly, VarInfo};
        let mut lib = LibraryCostTable::new();
        let m = Symbol::new("m");
        lib.insert(
            "work",
            vec!["m".into()],
            PerfExpr::from_poly(
                Poly::var(m.clone()).scale(7),
                [(m, VarInfo::param(1.0, 1e6))],
            ),
        );
        let opts = PredictorOptions {
            library: Some(lib),
            ..PredictorOptions::default()
        };
        let p = Predictor::with_options(machines::power_like(), opts);
        let pred = &p
            .predict_source("subroutine s(x, k)\nreal x\ninteger k\ncall work(k)\nend")
            .unwrap()[0];
        assert!(
            pred.total.poly().contains_symbol(&Symbol::new("m")),
            "{pred}"
        );
    }
}
