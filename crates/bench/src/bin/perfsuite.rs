//! In-tree performance suite: throughput of the predictor itself.
//!
//! Tools in this lineage treat predictor throughput as a first-class
//! metric. `perfsuite` measures each hot path this repo optimizes —
//! batch prediction, end-to-end prediction, Tetris placement, the
//! translation cache, the symbolic engine, the event-driven reference
//! simulator, the A* session cache, the structural variant search, the
//! memory model and the prediction server — against the preserved seed
//! implementations, plus the footprint and correctness checks that ride
//! on the same workloads.
//!
//! Every bench records rows of one shape, `{layer, subject, metric,
//! value, unit}`, with booleans as 1/0. One declarative [`GATES`] table
//! names the row each floor or ceiling reads, its `at_least` / `at_most`
//! bound, and the fewest host cores on which it is armed (parallel
//! speedups mean nothing on fewer cores than workers). One evaluator
//! checks every gate, prints it, and decides the exit code. No external
//! dependencies: timing is `std::time::Instant`, output is the
//! hand-rolled JSON writer.
//!
//! Usage:
//!
//! ```text
//! perfsuite                 # every layer; writes BENCH_perfsuite.json
//! perfsuite --only <layer>  # one layer and its gates; writes no file
//! ```
//!
//! Exit status: 0 when every armed gate holds, 1 when a gate fails or a
//! bench aborts on unusable input, 2 on a usage error. The server soak's
//! bit-identity checks against the uncached oracle are hard failures
//! inside the bench, not gates: a wrong answer is a bug, not a missed
//! target.
//!
//! Prediction throughput is measured at the prediction-engine boundary
//! ([`Predictor::predict_cost`] over pre-translated IR, warmed caches)
//! against [`presage_core::refagg::reference_aggregate`] — the identical
//! aggregation walk over the seed symbolic engine with no scheduling
//! memo. Both sides share the front end and translation, so the ratio
//! isolates exactly what this repo's symbolic/scheduling layers changed,
//! the same way the placement rows isolate the placer.

use presage_bench::kernels::{self, figure7};
use presage_core::aggregate::AggregateOptions;
use presage_core::memcost::{mem_cost, mem_cost_fresh};
use presage_core::refagg::reference_aggregate;
use presage_core::reference::NaivePlacer;
use presage_core::tetris::{PlaceOptions, Placer, PreparedBlock};
use presage_core::TranslationCache;
use presage_core::{Predictor, PredictorOptions};
use presage_machine::json::Json;
use presage_machine::{machines, CacheParams, MachineDesc};
use presage_opt::{
    astar_search_cached, search_cached, PredictionCache, SearchConfig, SearchOptions,
    SearchStrategy,
};
use presage_symbolic::memo::MemoStats;
use presage_symbolic::Symbol;
use presage_translate::{BlockIr, ProgramIr};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag of [`REPORT_PATH`]; bump it when the row or gate shape
/// changes.
const SCHEMA: &str = "presage-perfsuite-v10";
/// Where a run of every layer writes its rows and gate verdicts.
const REPORT_PATH: &str = "BENCH_perfsuite.json";
/// Wall-clock budget of each timed throughput loop.
const BUDGET: Duration = Duration::from_millis(500);

/// One measurement. Booleans are recorded as 1/0.
struct Row {
    layer: &'static str,
    subject: String,
    metric: &'static str,
    value: f64,
    unit: &'static str,
}

/// The rows one layer's bench records.
struct Rows {
    layer: &'static str,
    rows: Vec<Row>,
}

impl Rows {
    fn put(&mut self, subject: &str, metric: &'static str, value: f64, unit: &'static str) {
        self.rows.push(Row {
            layer: self.layer,
            subject: subject.to_string(),
            metric,
            value,
            unit,
        });
    }

    /// Records a baseline rate, an optimized rate, and their ratio as
    /// `speedup`.
    fn put_speedup(
        &mut self,
        subject: &str,
        (base_metric, base): (&'static str, f64),
        (opt_metric, opt): (&'static str, f64),
        unit: &'static str,
    ) {
        self.put(subject, base_metric, base, unit);
        self.put(subject, opt_metric, opt, unit);
        self.put(subject, "speedup", opt / base, "x");
    }

    fn put_flag(&mut self, subject: &str, metric: &'static str, flag: bool) {
        self.put(subject, metric, if flag { 1.0 } else { 0.0 }, "bool");
    }
}

/// A named bench: `--only <name>` runs just this one.
#[derive(Debug)]
struct Layer {
    name: &'static str,
    run: fn(&mut Rows),
}

/// Every layer, in the order a full run measures them.
const LAYERS: &[Layer] = &[
    Layer {
        name: "batch",
        run: bench_batch,
    },
    Layer {
        name: "prediction",
        run: bench_prediction,
    },
    Layer {
        name: "placement",
        run: bench_placement,
    },
    Layer {
        name: "translation",
        run: bench_translation,
    },
    Layer {
        name: "symbolic",
        run: bench_symbolic,
    },
    Layer {
        name: "simulator",
        run: bench_simulator,
    },
    Layer {
        name: "astar",
        run: bench_astar,
    },
    Layer {
        name: "search",
        run: bench_search,
    },
    Layer {
        name: "memory",
        run: bench_memory,
    },
    Layer {
        name: "server",
        run: bench_server_soak,
    },
];

#[derive(Clone, Copy, Debug)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
}

impl Bound {
    /// NaN holds no bound.
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(b) => value >= b,
            Bound::AtMost(b) => value <= b,
        }
    }
}

/// A floor or ceiling on one row, armed on hosts with at least
/// `min_cores` cores.
#[derive(Debug)]
struct Gate {
    layer: &'static str,
    subject: &'static str,
    metric: &'static str,
    bound: Bound,
    min_cores: usize,
}

const fn at_least(
    layer: &'static str,
    subject: &'static str,
    metric: &'static str,
    b: f64,
) -> Gate {
    Gate {
        layer,
        subject,
        metric,
        bound: Bound::AtLeast(b),
        min_cores: 1,
    }
}

const fn at_most(layer: &'static str, subject: &'static str, metric: &'static str, b: f64) -> Gate {
    Gate {
        bound: Bound::AtMost(b),
        ..at_least(layer, subject, metric, b)
    }
}

/// Arena entries (symbols + monomials + polynomials) after a soak must
/// stay under this — far below the `POLY_ARENA_CAP` backstop, so growth
/// per distinct program is what is actually being bounded.
const SOAK_ARENA_CEILING: f64 = 400_000.0;
/// L2 memo entries after a soak; the per-shard caps bound this by
/// construction (~90k across all tables), so the ceiling catches any
/// future unbounded L2.
const SOAK_L2_CEILING: f64 = 100_000.0;
/// The wide8 e-graph throughput recorded before the bound-and-prune core
/// landed; the pruned engine with the block-summary cache must beat it
/// by 1.5×.
const SEARCH_WIDE8_BASELINE_VPS: f64 = 8963.0;

/// Every floor and ceiling the suite enforces.
const GATES: &[Gate] = &[
    at_least("placement", "wide8", "speedup", 3.0),
    at_least("prediction", "wide8", "speedup", 5.0),
    at_least("prediction", "risc1", "speedup", 8.0),
    // Warmed translation cache vs fresh sema + translation per call.
    at_least("translation", "wide8", "speedup", 1.5),
    // Shared prediction cache across a restructuring session.
    at_least("astar", "wide8", "speedup", 2.0),
    // Event-driven simulator vs the cycle-driven reference.
    at_least("simulator", "wide8", "speedup", 4.0),
    // Memoized §2.3 memory cost vs the naive per-nest recount, so adding
    // memory attribution doesn't tax the batch/server hot paths.
    at_least("memory", "wide8", "speedup", 2.0),
    // AST normalization must beat re-emit + re-parse per explored variant.
    at_least("search", "wide8", "speedup", 3.0),
    at_least(
        "search",
        "wide8",
        "egraph_variants_per_sec",
        SEARCH_WIDE8_BASELINE_VPS * 1.5,
    ),
    // Cold-session candidate evaluations with bound pruning on, as a
    // fraction of the unpruned count.
    at_most("search", "wide8", "pruned_ratio", 0.7),
    // Admissible pruning never moves the winner, and the pruned winner
    // never predicts worse than the unpruned A* oracle.
    at_least("search", "power-like", "winners_match", 1.0),
    at_least("search", "risc1", "winners_match", 1.0),
    at_least("search", "wide4", "winners_match", 1.0),
    at_least("search", "wide8", "winners_match", 1.0),
    at_least("search", "power-like", "dominates_astar", 1.0),
    at_least("search", "risc1", "dominates_astar", 1.0),
    at_least("search", "wide4", "dominates_astar", 1.0),
    at_least("search", "wide8", "dominates_astar", 1.0),
    // Scoped-thread fan-out cannot beat sequential on fewer cores than
    // workers, so the 8-worker floor arms only on 8-core hosts.
    Gate {
        min_cores: 8,
        ..at_least("batch", "scaling", "speedup_8w", 3.0)
    },
    // Throughput at each step of 1→4 workers must be non-decreasing up
    // to measurement noise. Arming this at 4 cores, not 8, closes the
    // hole that once let a 0.4× collapse land green.
    Gate {
        min_cores: 4,
        ..at_least("batch", "scaling", "worst_step_1_to_4w", 0.9)
    },
    at_most("batch", "soak", "arena_entries", SOAK_ARENA_CEILING),
    at_most("batch", "soak", "l2_entries", SOAK_L2_CEILING),
    // The server soak must reclaim across at least this many epochs to
    // count, and a long-lived server must not grow with the distinct
    // programs it has ever seen.
    at_least("server", "soak", "advances", 3.0),
    at_most("server", "soak", "arena_entries", SOAK_ARENA_CEILING),
    at_most("server", "soak", "l2_entries", SOAK_L2_CEILING),
];

/// One gate checked against a run's rows.
struct Verdict<'a> {
    gate: &'a Gate,
    /// `None` when no row matches the gate, which fails it.
    value: Option<f64>,
    armed: bool,
    ok: bool,
}

fn evaluate<'a>(gates: &[&'a Gate], rows: &[Row], host_cores: usize) -> Vec<Verdict<'a>> {
    gates
        .iter()
        .map(|&gate| {
            let value = rows
                .iter()
                .find(|r| {
                    r.layer == gate.layer && r.subject == gate.subject && r.metric == gate.metric
                })
                .map(|r| r.value);
            let armed = host_cores >= gate.min_cores;
            let ok = value.is_some_and(|v| !armed || gate.bound.holds(v));
            Verdict {
                gate,
                value,
                armed,
                ok,
            }
        })
        .collect()
}

impl Verdict<'_> {
    fn describe(&self, host_cores: usize) -> String {
        let g = self.gate;
        let name = format!("{}/{}/{}", g.layer, g.subject, g.metric);
        let Some(value) = self.value else {
            return format!("FAIL  no row `{name}`");
        };
        let bound = match g.bound {
            Bound::AtLeast(b) => format!(">= {b}"),
            Bound::AtMost(b) => format!("<= {b}"),
        };
        let status = match (self.armed, self.ok) {
            (false, _) => "off ",
            (true, true) => "ok  ",
            (true, false) => "FAIL",
        };
        let arming = if self.armed {
            String::new()
        } else {
            format!(", armed on >= {} cores; host has {host_cores}", g.min_cores)
        };
        format!("{status}  {name} = {} ({bound}{arming})", tidy(value))
    }
}

/// Rounds for display and the report: whole numbers from 100 up, three
/// decimals below. Gates compare the unrounded value.
fn tidy(v: f64) -> f64 {
    if v.abs() >= 100.0 {
        v.round()
    } else {
        (v * 1000.0).round() / 1000.0
    }
}

fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(tidy(v))
    } else {
        Json::Null
    }
}

fn row_json(r: &Row) -> Json {
    Json::Obj(vec![
        ("layer".into(), Json::Str(r.layer.into())),
        ("subject".into(), Json::Str(r.subject.clone())),
        ("metric".into(), Json::Str(r.metric.into())),
        ("value".into(), num(r.value)),
        ("unit".into(), Json::Str(r.unit.into())),
    ])
}

fn verdict_json(v: &Verdict) -> Json {
    let g = v.gate;
    let bound = match g.bound {
        Bound::AtLeast(b) => ("at_least".to_string(), Json::Num(b)),
        Bound::AtMost(b) => ("at_most".to_string(), Json::Num(b)),
    };
    Json::Obj(vec![
        ("layer".into(), Json::Str(g.layer.into())),
        ("subject".into(), Json::Str(g.subject.into())),
        ("metric".into(), Json::Str(g.metric.into())),
        bound,
        ("min_cores".into(), Json::Num(g.min_cores as f64)),
        ("value".into(), v.value.map_or(Json::Null, num)),
        ("armed".into(), Json::Bool(v.armed)),
        ("ok".into(), Json::Bool(v.ok)),
    ])
}

/// The report, one row or gate per line so the committed file diffs
/// cleanly from run to run.
fn report(host_cores: usize, rows: &[Row], verdicts: &[Verdict]) -> String {
    let lines = |items: Vec<Json>| {
        items
            .iter()
            .map(|j| format!("    {}", j.to_string_compact()))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"host_cores\": {host_cores},\n  \"rows\": [\n{}\n  ],\n  \"gates\": [\n{}\n  ]\n}}\n",
        lines(rows.iter().map(row_json).collect()),
        lines(verdicts.iter().map(verdict_json).collect()),
    )
}

fn layer_names() -> String {
    LAYERS.iter().map(|l| l.name).collect::<Vec<_>>().join(", ")
}

/// The layers to run, or the exit code and message for a usage error
/// (`--help` exits 0).
fn parse_args(args: &[String]) -> Result<&'static [Layer], (i32, String)> {
    let usage = || {
        format!(
            "usage: perfsuite [--only <layer>]; layers: {}",
            layer_names()
        )
    };
    match args {
        [] => Ok(LAYERS),
        [flag, name] if flag == "--only" => LAYERS
            .iter()
            .find(|l| l.name == name)
            .map(std::slice::from_ref)
            .ok_or_else(|| {
                (
                    2,
                    format!("unknown layer `{name}`; valid layers: {}", layer_names()),
                )
            }),
        [flag] if flag == "--help" || flag == "-h" => Err((0, usage())),
        _ => Err((2, usage())),
    }
}

fn print_rows(rows: &[Row]) {
    for group in rows.chunk_by(|a, b| a.subject == b.subject) {
        let cells: Vec<String> = group
            .iter()
            .map(|r| format!("{}={}", r.metric, tidy(r.value)))
            .collect();
        eprintln!("  {:>10}: {}", group[0].subject, cells.join(" "));
    }
}

fn run(args: &[String]) -> i32 {
    let layers = match parse_args(args) {
        Ok(layers) => layers,
        Err((code, msg)) => {
            eprintln!("{msg}");
            return code;
        }
    };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for machine in machines::all() {
        print_machine_warnings(&machine);
    }
    let mut rows = Vec::new();
    for layer in layers {
        eprintln!("perfsuite: {} ({host_cores} cores)", layer.name);
        let mut out = Rows {
            layer: layer.name,
            rows: Vec::new(),
        };
        (layer.run)(&mut out);
        print_rows(&out.rows);
        rows.extend(out.rows);
    }
    let gates: Vec<&Gate> = GATES
        .iter()
        .filter(|g| layers.iter().any(|l| l.name == g.layer))
        .collect();
    let verdicts = evaluate(&gates, &rows, host_cores);
    eprintln!("perfsuite: gates");
    for v in &verdicts {
        eprintln!("  {}", v.describe(host_cores));
    }
    if layers.len() == LAYERS.len() {
        if let Err(err) = std::fs::write(REPORT_PATH, report(host_cores, &rows, &verdicts)) {
            eprintln!("perfsuite: cannot write {REPORT_PATH}: {err}");
            return 1;
        }
        eprintln!("perfsuite: wrote {REPORT_PATH}");
    }
    let failed = verdicts.iter().filter(|v| !v.ok).count();
    if failed > 0 {
        eprintln!("perfsuite: {failed} of {} gates failed", verdicts.len());
        return 1;
    }
    eprintln!("perfsuite: all {} gates hold", verdicts.len());
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

/// Labeled bench abort: an unusable input (a kernel that stopped
/// parsing, a simulator that fails to converge, a soak response that
/// went missing or diverged from its oracle) fails the run with a
/// diagnosis naming the bench and the job, never a panic backtrace.
fn bail(msg: String) -> ! {
    eprintln!("perfsuite: FAIL: {msg}");
    std::process::exit(1);
}

/// The placement workload: every Figure 7 innermost block, re-dropped to
/// model loop-overlap probing (`overlap::steady_state`'s access pattern),
/// under the paper's bounded focus span.
const DROPS_PER_BLOCK: u32 = 16;
const FOCUS_SPAN: u32 = 64;

fn placement_blocks(machine: &MachineDesc) -> Vec<BlockIr> {
    figure7()
        .iter()
        .map(|k| kernels::innermost_block(k.source, machine))
        .collect()
}

/// Runs `work` repeatedly until [`BUDGET`] elapses, returning its
/// throughput: units of work done per second.
fn rate_of<F: FnMut() -> u64>(mut work: F) -> f64 {
    let start = Instant::now();
    let mut done = 0u64;
    loop {
        done += work();
        let elapsed = start.elapsed();
        if elapsed >= BUDGET {
            return done as f64 / elapsed.as_secs_f64();
        }
    }
}

fn placement_round(machine: &MachineDesc, blocks: &[BlockIr], naive: bool) -> u64 {
    let opts = PlaceOptions::with_focus_span(FOCUS_SPAN);
    let mut ops = 0u64;
    if naive {
        let mut p = NaivePlacer::new(machine, opts);
        for b in blocks {
            p.clear();
            for _ in 0..DROPS_PER_BLOCK {
                black_box(p.drop_block(b));
            }
            ops += p.ops_placed();
        }
    } else {
        let mut p = Placer::new(machine, opts);
        for b in blocks {
            // Dependence analysis is per block, not per drop — the
            // optimized overlap prober works exactly like this.
            let prepared = PreparedBlock::new(b);
            p.clear();
            for _ in 0..DROPS_PER_BLOCK {
                black_box(p.drop_prepared(&prepared));
            }
            ops += p.ops_placed();
        }
    }
    ops
}

fn bench_placement(out: &mut Rows) {
    for machine in machines::all() {
        let blocks = placement_blocks(&machine);
        // Warm up both paths once so first-touch allocation is off-clock.
        placement_round(&machine, &blocks, true);
        placement_round(&machine, &blocks, false);
        let naive = rate_of(|| placement_round(&machine, &blocks, true));
        let opt = rate_of(|| placement_round(&machine, &blocks, false));
        out.put_speedup(
            machine.name(),
            ("naive_ops_per_sec", naive),
            ("opt_ops_per_sec", opt),
            "ops/s",
        );
    }
}

fn prediction_irs(machine: &MachineDesc) -> Vec<ProgramIr> {
    figure7()
        .iter()
        .map(|k| kernels::translate_kernel(k.source, machine))
        .collect()
}

/// The restructuring workload of §3.2: the compiler re-predicts program
/// variants over and over, so throughput is predictions completed per
/// second over pre-translated IR — the optimized engine
/// ([`Predictor::predict_cost`], warmed scheduling memo and symbolic
/// caches, its steady state) against the seed aggregation walk
/// ([`reference_aggregate`], which has none of either, *its* steady
/// state).
fn bench_prediction(out: &mut Rows) {
    for machine in machines::all() {
        let predictor = Predictor::new(machine.clone());
        let opts = AggregateOptions::default();
        let irs = prediction_irs(&machine);
        // Warm both engines: first-touch allocation and cold caches are
        // off-clock on both sides.
        for ir in &irs {
            black_box(predictor.predict_cost(ir));
            black_box(reference_aggregate(ir, &machine, &opts));
        }
        let opt = rate_of(|| {
            for ir in &irs {
                black_box(predictor.predict_cost(ir));
            }
            irs.len() as u64
        });
        let refr = rate_of(|| {
            for ir in &irs {
                black_box(reference_aggregate(ir, &machine, &opts));
            }
            irs.len() as u64
        });
        out.put_speedup(
            machine.name(),
            ("ref_preds_per_sec", refr),
            ("opt_preds_per_sec", opt),
            "preds/s",
        );
    }
}

const BATCH_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Parallel batch prediction: [`Predictor::predict_batch_report`] over
/// the full `(machine, kernel)` cross product with one shared (sharded)
/// [`TranslationCache`], the sharded polynomial arena, and the sharded L2
/// memo tables, at several worker counts. Workers re-spawn per round
/// (scoped threads), so each round pays realistic per-thread warm-up —
/// thread-local L1 memos start empty every round and refill from the L2,
/// which is exactly the contention the sharded design absorbs. The memo
/// columns sum two-level telemetry over all rounds at a worker count;
/// `steals` counts work-stealing chunk claims beyond each worker's first.
/// The batch soak runs last, on the same process-wide tables.
fn bench_batch(out: &mut Rows) {
    let machines = machines::all();
    let ks = figure7();
    let jobs: Vec<(&MachineDesc, &str)> = machines
        .iter()
        .flat_map(|m| ks.iter().map(move |k| (m, k.source)))
        .collect();
    let opts = PredictorOptions::default();
    let cache = Arc::new(TranslationCache::new());
    // Warm the shared translation cache and L2 memos so every timed round
    // runs the warm steady state.
    black_box(Predictor::predict_batch(&jobs, &opts, &cache, 1));
    let mut rates = Vec::new();
    for workers in BATCH_WORKER_COUNTS {
        let mut memo = MemoStats::default();
        let mut steals = 0u64;
        let rate = rate_of(|| {
            let report = Predictor::predict_batch_report(&jobs, &opts, &cache, workers);
            black_box(&report.results);
            memo = memo.merged(&report.memo_totals());
            steals += report.total_steals();
            jobs.len() as u64
        });
        let subject = format!("{workers}w");
        out.put(&subject, "preds_per_sec", rate, "preds/s");
        out.put(&subject, "memo_l1_hits", memo.l1_hits as f64, "count");
        out.put(&subject, "memo_l2_hits", memo.l2_hits as f64, "count");
        out.put(&subject, "memo_misses", memo.misses as f64, "count");
        out.put(&subject, "steals", steals as f64, "count");
        rates.push((workers, rate));
    }
    out.put(
        "scaling",
        "speedup_8w",
        rates[rates.len() - 1].1 / rates[0].1,
        "x",
    );
    // Worst step ratio `rate(w_{k+1}) / rate(w_k)` over 1→4 workers.
    let worst_step = rates
        .windows(2)
        .filter(|w| w[1].0 <= 4)
        .map(|w| w[1].1 / w[0].1)
        .fold(f64::INFINITY, f64::min);
    out.put("scaling", "worst_step_1_to_4w", worst_step, "ratio");
    bench_batch_soak(out);
}

/// Distinct generated programs each soak drives through the predictor.
const SOAK_PROGRAMS: usize = 192;

/// A distinct triangular-nest kernel per index: distinct names, constants
/// and bound structure produce distinct translation shapes, intern
/// entries, and memo keys.
fn soak_program(k: usize) -> String {
    format!(
        "subroutine soak{k}(y, x, a, n)
           real y(n), x(n), a
           integer i, j, n
           do i = 1, n
             do j = i, n
               y(j) = y(j) + {c}.0 * x(j) + a * {d}.0
             end do
           end do
           do i = {lb}, n
             x(i) = x(i) * {c}.0
           end do
         end",
        c = k % 97 + 2,
        d = (k * 7) % 89 + 3,
        lb = k % 5 + 1,
    )
}

/// Records the process-wide interned arena and L2 memo footprint; the
/// soak ceilings gate `arena_entries` and `l2_entries`.
fn put_footprint(out: &mut Rows, subject: &str) {
    let arena = presage_symbolic::arena_stats();
    let total = arena.symbols + arena.monomials + arena.polynomials;
    out.put(subject, "arena_symbols", arena.symbols as f64, "count");
    out.put(subject, "arena_monomials", arena.monomials as f64, "count");
    out.put(
        subject,
        "arena_polynomials",
        arena.polynomials as f64,
        "count",
    );
    out.put(subject, "arena_entries", total as f64, "count");
    let l2 = presage_core::l2_memo_entries();
    out.put(subject, "l2_entries", l2 as f64, "count");
}

/// Soak check toward the prediction-as-a-service roadmap item: many
/// *distinct* generated programs through `predict_batch`, then the
/// process-wide interned arena and L2 memo footprint. Distinct shapes
/// stress the cap-clear and content-fallback paths under concurrency —
/// a leak here means a long-lived server grows without bound.
fn bench_batch_soak(out: &mut Rows) {
    let machines = machines::all();
    let programs: Vec<String> = (0..SOAK_PROGRAMS).map(soak_program).collect();
    let jobs: Vec<(&MachineDesc, &str)> = machines
        .iter()
        .flat_map(|m| programs.iter().map(move |p| (m, p.as_str())))
        .collect();
    let opts = PredictorOptions::default();
    let cache = Arc::new(TranslationCache::new());
    let report = Predictor::predict_batch_report(&jobs, &opts, &cache, 8);
    let failures = report.results.iter().filter(|r| r.is_err()).count();
    if failures != 0 {
        bail(format!(
            "batch soak: {failures} of {} generated soak jobs failed to predict",
            jobs.len()
        ));
    }
    out.put("soak", "programs", SOAK_PROGRAMS as f64, "count");
    out.put("soak", "jobs", jobs.len() as f64, "count");
    put_footprint(out, "soak");
}

/// Server-loop soak: the epoch-reclamation acceptance gate. Drives every
/// distinct generated program through [`presage_server::Server`] over the
/// real JSON-lines wire format, with epoch advances (and translation
/// generation eviction) between waves, then checks three things:
///
/// 1. **Bit-identity** (a hard failure here). Every response cost equals
///    a fresh, uncached predictor's answer for the same `(machine,
///    program)` — computed before the server ran, so reclamation
///    mid-stream cannot have bent a prediction. A post-run re-check on
///    recycled arena slots proves the oracle still agrees *after* the
///    last reclamation.
/// 2. **Epochs** (gated). The run must span enough epoch advances that
///    reclamation actually exercised the id-recycling paths rather than
///    idling.
/// 3. **Footprint** (gated). The interned arena and L2 memo entries after
///    the run obey the same ceilings as the batch soak.
fn bench_server_soak(out: &mut Rows) {
    use presage_server::{Server, ServerConfig};
    let machines = machines::all();
    let programs: Vec<String> = (0..SOAK_PROGRAMS).map(soak_program).collect();
    let n_jobs = SOAK_PROGRAMS * machines.len();

    // The uncached oracle, computed before the server touches anything:
    // fresh sema + translation + aggregation per job, no shared caches.
    let fresh_cost = |what: &str, pi: usize, src: &str, m: &MachineDesc| -> String {
        let preds = Predictor::new(m.clone())
            .predict_source(src)
            .unwrap_or_else(|e| bail(format!("{what}: program {pi} on {}: {e}", m.name())));
        match preds.first() {
            Some(p) => p.total.to_string(),
            None => bail(format!(
                "{what}: program {pi} on {}: no predictions",
                m.name()
            )),
        }
    };
    let oracle: Vec<Vec<String>> = programs
        .iter()
        .enumerate()
        .map(|(pi, src)| {
            machines
                .iter()
                .map(|m| fresh_cost("server soak oracle", pi, src, m))
                .collect()
        })
        .collect();

    // The request stream, in the daemon's wire format (one JSON object
    // per line; the writer escapes the embedded newlines).
    let mut input = String::new();
    for (pi, src) in programs.iter().enumerate() {
        for (mi, m) in machines.iter().enumerate() {
            let req = Json::Obj(vec![
                ("id".into(), Json::Num((pi * machines.len() + mi) as f64)),
                ("machine".into(), Json::Str(m.name().to_string())),
                ("source".into(), Json::Str(src.clone())),
            ]);
            input.push_str(&req.to_string_compact());
            input.push('\n');
        }
    }

    let mut server = Server::new(ServerConfig {
        workers: 8,
        wave_size: 64,
        advance_every: 1,
    });
    let mut sink: Vec<u8> = Vec::new();
    let stats = server
        .run(std::io::Cursor::new(input.into_bytes()), &mut sink)
        .unwrap_or_else(|e| bail(format!("server soak: in-memory server run failed: {e}")));

    // Every response must be ok and bit-identical to its oracle.
    let text = String::from_utf8(sink)
        .unwrap_or_else(|e| bail(format!("server soak: server emitted non-UTF-8 output: {e}")));
    let mut seen = 0usize;
    for line in text.lines() {
        let v = Json::parse(line)
            .unwrap_or_else(|e| bail(format!("server soak: unparseable response {line}: {e}")));
        if v.get("stats").is_some() {
            continue;
        }
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            bail(format!("server soak: job failed: {line}"));
        }
        let id = match v.get("id").and_then(Json::as_u64) {
            Some(id) => id as usize,
            None => bail(format!("server soak: response without an id: {line}")),
        };
        let cost = match v
            .get("predictions")
            .and_then(Json::as_arr)
            .and_then(|preds| preds.first())
            .and_then(|p| p.get("cost"))
            .and_then(Json::as_str)
        {
            Some(cost) => cost,
            None => bail(format!("server soak: ok response without a cost: {line}")),
        };
        let (pi, mi) = (id / machines.len(), id % machines.len());
        let expected = match oracle.get(pi).and_then(|row| row.get(mi)) {
            Some(e) => e,
            None => bail(format!(
                "server soak: response id {id} out of range: {line}"
            )),
        };
        if cost != expected {
            bail(format!(
                "server soak: prediction diverged from the uncached oracle \
                 (program {pi}, machine {mi}): got {cost}, expected {expected}"
            ));
        }
        seen += 1;
    }
    if seen != n_jobs {
        bail(format!(
            "server soak: expected one response per job ({n_jobs}), saw {seen}"
        ));
    }

    // Post-reclaim differential: arena slots from the early waves have
    // been recycled by now, so a fresh predictor agreeing with the
    // pre-run oracle proves reclamation never corrupted global state.
    for (pi, src) in programs.iter().enumerate().take(24) {
        for (mi, m) in machines.iter().enumerate() {
            let fresh = fresh_cost("server soak re-check", pi, src, m);
            if fresh != oracle[pi][mi] {
                bail(format!(
                    "server soak: post-reclaim divergence (program {pi}, machine {mi}): \
                     got {fresh}, expected {}",
                    oracle[pi][mi]
                ));
            }
        }
    }

    let s = "soak";
    out.put(s, "programs", SOAK_PROGRAMS as f64, "count");
    out.put(s, "jobs", n_jobs as f64, "count");
    out.put(s, "waves", stats.waves as f64, "count");
    out.put(s, "advances", stats.advances as f64, "count");
    out.put(
        s,
        "translation_hits",
        stats.translation_hits as f64,
        "count",
    );
    out.put(
        s,
        "translation_misses",
        stats.translation_misses as f64,
        "count",
    );
    out.put(
        s,
        "translations_evicted",
        stats.translations_evicted as f64,
        "count",
    );
    out.put(s, "memo_l1_hits", stats.memo.l1_hits as f64, "count");
    out.put(s, "memo_l2_hits", stats.memo.l2_hits as f64, "count");
    out.put(s, "memo_misses", stats.memo.misses as f64, "count");
    out.put(s, "reclaimed_polys", stats.polys_reclaimed as f64, "count");
    out.put(
        s,
        "reclaimed_blocks",
        stats.blocks_reclaimed as f64,
        "count",
    );
    out.put(
        s,
        "reclaimed_sched_entries",
        stats.sched_entries_cleared as f64,
        "count",
    );
    put_footprint(out, s);
}

/// Prints any non-fatal description warnings for a machine entering the
/// suite (e.g. a cache section whose declared TLB fields are parsed but
/// never charged), so benchmark numbers are not read against knobs that
/// silently do nothing.
fn print_machine_warnings(machine: &MachineDesc) {
    for w in machine.warnings() {
        eprintln!("perfsuite: warning: machine `{}`: {w}", machine.name());
    }
}

/// The cache geometry the memory gate runs: 64-byte lines (8 doubles),
/// 1 MiB, fully associative, a POWER1-flavoured 15-cycle line fill.
fn gate_cache() -> CacheParams {
    CacheParams {
        line_bytes: 64,
        size_bytes: 1 << 20,
        miss_penalty: 15,
        ways: 0,
        ..CacheParams::default()
    }
}

/// Memory-model micro-benchmark: the memoized [`mem_cost`] against the
/// naive per-nest recount [`mem_cost_fresh`] over the Figure 7 suite on
/// cache-extended machines. A restructuring session or a batch server
/// re-costs the same nests over and over, so the warmed steady state is
/// the design point; the fresh recount is what every prediction would
/// pay without the memo. The memory-vs-compute split follows.
fn bench_memory(out: &mut Rows) {
    let cache = gate_cache();
    let opts = AggregateOptions::default();
    for machine in machines::all() {
        let irs = prediction_irs(&machine);
        // Warm both paths: first-touch allocation off-clock, and the
        // memoized side's L1/L2 tables filled so the timed rounds hit.
        for ir in &irs {
            black_box(mem_cost(ir, &cache, &opts));
            black_box(mem_cost_fresh(ir, &cache, &opts));
        }
        let memo = rate_of(|| {
            for ir in &irs {
                black_box(mem_cost(ir, &cache, &opts));
            }
            irs.len() as u64
        });
        let fresh = rate_of(|| {
            for ir in &irs {
                black_box(mem_cost_fresh(ir, &cache, &opts));
            }
            irs.len() as u64
        });
        out.put_speedup(
            machine.name(),
            ("fresh_costs_per_sec", fresh),
            ("memo_costs_per_sec", memo),
            "costs/s",
        );
    }
    memory_split(out);
}

/// Classifies every Figure 7 kernel as memory- or compute-bound on the
/// cache-extended wide8 at n = 512 (Matmul's register block at the
/// origin) — the data behind the EXPERIMENTS.md E16 sweep table, one
/// subject per kernel. Wide issue makes compute cheap, so the streaming
/// kernels tip memory-bound while the divide/√-heavy ones stay
/// compute-bound. The crossover penalty (compute cycles ÷ distinct lines)
/// is the miss cost at which a kernel tips: the sweep axis.
fn memory_split(out: &mut Rows) {
    let mut machine = machines::wide8();
    machine.cache = Some(gate_cache());
    print_machine_warnings(&machine);
    let predictor = Predictor::new(machine);
    let point: HashMap<Symbol, f64> = [("n", 512.0), ("i", 1.0), ("j", 1.0)]
        .into_iter()
        .map(|(name, v)| (Symbol::new(name), v))
        .collect();
    for k in figure7() {
        let preds = predictor
            .predict_source(k.source)
            .unwrap_or_else(|e| bail(format!("memory bench: {} failed to predict: {e}", k.name)));
        let p = match preds.first() {
            Some(p) => p,
            None => bail(format!("memory bench: {}: no predictions", k.name)),
        };
        let mc = match &p.memcost {
            Some(mc) => mc,
            None => bail(format!(
                "memory bench: {}: cache-extended machine produced no memory cost",
                k.name
            )),
        };
        let compute = p.compute.eval_with_defaults(&point);
        let memory = mc.cycles.eval_with_defaults(&point);
        let lines = mc.lines.eval_with_defaults(&point);
        out.put(k.name, "compute_cycles", compute, "cycles");
        out.put(k.name, "memory_cycles", memory, "cycles");
        out.put(k.name, "lines", lines, "count");
        out.put(
            k.name,
            "crossover_penalty",
            compute / lines.max(1.0),
            "cycles",
        );
        out.put_flag(k.name, "memory_bound", memory > compute);
    }
}

/// Translation micro-benchmark: source-level prediction throughput
/// ([`Predictor::predict_source`] over the Figure 7 suite) with and
/// without a warmed [`TranslationCache`]. Both sides parse the source
/// each round — the cache keys on the canonical AST hash, so a hit skips
/// exactly sema + translation + interning, which is what this measures.
fn bench_translation(out: &mut Rows) {
    for machine in machines::all() {
        let uncached = Predictor::new(machine.clone());
        let cached = Predictor::new(machine.clone())
            .with_translation_cache(Arc::new(TranslationCache::new()));
        let sources: Vec<&str> = figure7().iter().map(|k| k.source).collect();
        let predict = |p: &Predictor, src: &str| {
            p.predict_source(src).unwrap_or_else(|e| {
                bail(format!(
                    "translation bench: Figure 7 kernel failed on {}: {e}",
                    machine.name()
                ))
            })
        };
        // Warm both predictors; the cached one's warm-up round populates
        // the translation cache, so the timed rounds are all hits.
        for src in &sources {
            black_box(predict(&uncached, src));
            black_box(predict(&cached, src));
        }
        let cold = rate_of(|| {
            for src in &sources {
                black_box(predict(&uncached, src));
            }
            sources.len() as u64
        });
        let warm = rate_of(|| {
            for src in &sources {
                black_box(predict(&cached, src));
            }
            sources.len() as u64
        });
        out.put_speedup(
            machine.name(),
            ("uncached_preds_per_sec", cold),
            ("cached_preds_per_sec", warm),
            "preds/s",
        );
    }
}

const SYM_VARIANTS: i64 = 64;

/// Builds the micro-benchmark workload and measures one engine's four
/// operation rates, in order: add, mul, substitute, summation.
macro_rules! sym_engine_rates {
    ($poly:ty, $sum_range:path) => {{
        let x = Symbol::new("x");
        let y = Symbol::new("y");
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        // (x + y + k)^2 — multivariate degree-2 inputs.
        let quads: Vec<$poly> = (0..SYM_VARIANTS)
            .map(|k| {
                let b = <$poly>::var(x.clone()) + <$poly>::var(y.clone()) + <$poly>::from(k);
                &b * &b
            })
            .collect();
        // x - k — small factors for products.
        let lins: Vec<$poly> = (0..SYM_VARIANTS)
            .map(|k| <$poly>::var(x.clone()) - <$poly>::from(k))
            .collect();
        // k·i² + i + 1 — summation bodies over the index i.
        let bodies: Vec<$poly> = (0..SYM_VARIANTS)
            .map(|k| {
                <$poly>::var(i.clone()).pow(2).scale(k) + <$poly>::var(i.clone()) + <$poly>::one()
            })
            .collect();
        let repl = <$poly>::var(n.clone()) + <$poly>::one();
        let ub = <$poly>::var(n.clone());
        let one = <$poly>::one();

        let add = |_: ()| {
            let mut acc = <$poly>::zero();
            for q in &quads {
                acc += q.clone();
            }
            black_box(&acc);
            quads.len() as u64
        };
        let mul = |_: ()| {
            for (q, l) in quads.iter().zip(&lins) {
                black_box(q * l);
            }
            quads.len() as u64
        };
        let subst =
            |_: ()| {
                for q in &quads {
                    black_box(q.subst(&x, &repl).unwrap_or_else(|e| {
                        bail(format!("symbolic bench: substitution failed: {e}"))
                    }));
                }
                quads.len() as u64
            };
        let sum = |_: ()| {
            for b in &bodies {
                black_box($sum_range(b, &i, &one, &ub).unwrap_or_else(|| {
                    bail("symbolic bench: degree <= 4 summation returned none".to_string())
                }));
            }
            bodies.len() as u64
        };

        // Warm each op once (first-touch allocation, cold memo tables).
        add(());
        mul(());
        subst(());
        sum(());
        let rate = |work: &dyn Fn(()) -> u64| rate_of(|| work(()));
        [rate(&add), rate(&mul), rate(&subst), rate(&sum)]
    }};
}

/// Symbolic-engine micro-benchmark: the four polynomial operations the
/// aggregator leans on, hash-consed engine vs the verbatim seed engine.
/// 64 distinct input variants per round, so steady-state memo behavior
/// (the optimized engine's design point) is what is measured.
fn bench_symbolic(out: &mut Rows) {
    let opt = sym_engine_rates!(
        presage_symbolic::Poly,
        presage_symbolic::summation::sum_range
    );
    let refr = sym_engine_rates!(
        presage_symbolic::reference::Poly,
        presage_symbolic::reference::summation::sum_range
    );
    for ((op, o), r) in ["add", "mul", "substitute", "summation"]
        .into_iter()
        .zip(opt)
        .zip(refr)
    {
        out.put_speedup(op, ("ref_ops_per_sec", r), ("opt_ops_per_sec", o), "ops/s");
    }
}

/// The restructuring session both search benches run: MATMUL, JACOBI and
/// F4 searched at several evaluation points, as a compiler would while
/// restructuring.
const SESSION_POINTS: [f64; 4] = [64.0, 128.0, 256.0, 512.0];

fn session_options(n: f64) -> SearchOptions {
    SearchOptions {
        max_expansions: 12,
        max_depth: 2,
        eval_point: HashMap::from([("n".to_string(), n)]),
        ..Default::default()
    }
}

/// Timed sessions run best-of-3: single-shot timings on a loaded box
/// jitter enough to flip an enforced floor, and the minimum is the
/// standard noise-robust estimator.
const SESSION_REPS: usize = 3;

/// MATMUL, JACOBI and F4 parsed for a restructuring session. A kernel
/// that stops parsing aborts the named bench with the diagnostic.
fn session_kernels(bench: &str) -> Vec<presage_frontend::Subroutine> {
    [kernels::MATMUL, kernels::JACOBI, kernels::F4]
        .iter()
        .map(|s| {
            let mut prog = presage_frontend::parse(s)
                .unwrap_or_else(|e| bail(format!("{bench}: session kernel failed to parse: {e}")));
            if prog.units.is_empty() {
                bail(format!("{bench}: session kernel parsed to no units"));
            }
            prog.units.remove(0)
        })
        .collect()
}

/// The A* session on wide8: seed behavior re-predicts every candidate
/// from scratch each time (fresh cache per search); the optimized path
/// shares one memo table across the session.
fn bench_astar(out: &mut Rows) {
    let predictor = Predictor::new(machines::wide8());
    let subs = session_kernels("A* bench");

    // Seed mode: every search pays full prediction (fresh cache).
    let mut uncached = Duration::MAX;
    for _ in 0..SESSION_REPS {
        let start = Instant::now();
        for sub in &subs {
            for n in SESSION_POINTS {
                let fresh = PredictionCache::new();
                black_box(astar_search_cached(
                    sub,
                    &predictor,
                    &session_options(n),
                    &fresh,
                ));
            }
        }
        uncached = uncached.min(start.elapsed());
    }

    // Optimized mode: one cache across the whole restructuring session
    // (a fresh session per rep; hit/miss counts are deterministic).
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut cached = Duration::MAX;
    for _ in 0..SESSION_REPS {
        let shared = PredictionCache::new();
        hits = 0;
        misses = 0;
        let start = Instant::now();
        for sub in &subs {
            for n in SESSION_POINTS {
                let r = astar_search_cached(sub, &predictor, &session_options(n), &shared);
                hits += r.cache_hits;
                misses += r.cache_misses;
                black_box(&r);
            }
        }
        cached = cached.min(start.elapsed());
    }

    let s = "wide8";
    out.put(s, "uncached_ms", uncached.as_secs_f64() * 1e3, "ms");
    out.put(s, "cached_ms", cached.as_secs_f64() * 1e3, "ms");
    out.put(
        s,
        "speedup",
        uncached.as_secs_f64() / cached.as_secs_f64(),
        "x",
    );
    out.put(s, "cache_hits", hits as f64, "count");
    out.put(s, "cache_misses", misses as f64, "count");
}

/// Variant-search micro-benchmark: the structural e-graph engine
/// (AST normalization + `fold128` keys, e-class merging) against the A*
/// baseline whose canonicalization re-emits and re-parses every variant.
/// Each engine runs the same restructuring session on one shared
/// prediction cache, warmed first, so the timed rounds isolate exactly
/// the per-variant overhead the e-graph removes: canonicalization plus
/// search bookkeeping, with predictions served from cache on both sides.
/// Throughput is variants *explored* per second (evaluated + merged +
/// rejected). The `found_at` rows report how many cost evaluations the
/// explain-driven move ordering needs before finding the winner.
///
/// Pruning is measured cold: `pruned_evaluated` / `unpruned_evaluated`
/// are candidate evaluations with the bound on and off, and
/// `predictions_avoided` the predictions the admissible bound skipped.
/// `winners_match` says the pruned and unpruned winners are identical on
/// every (kernel, eval point); `dominates_astar` that the pruned winner
/// never predicts worse than the unpruned A* oracle. `bound_tightness` is
/// the mean `lower bound / predicted cost` of the session kernels at
/// n = 256 (1.0 would be a perfect bound).
fn bench_search(out: &mut Rows) {
    let subs = session_kernels("variant-search bench");
    let config_at = |n: f64, heuristic: bool, prune: bool| SearchConfig {
        strategy: SearchStrategy::EGraph,
        options: session_options(n),
        node_budget: 256,
        heuristic,
        prune,
    };

    for machine in machines::all() {
        let name = machine.name().to_string();
        // A warmed translation cache on the shared predictor, as a
        // restructuring session would run: both engines translate the
        // same variants over and over (the heuristic's explain pass in
        // particular), so steady-state throughput is what matters.
        let predictor =
            Predictor::new(machine).with_translation_cache(Arc::new(TranslationCache::new()));

        // Baseline session: A* with textual (re-emit + re-parse)
        // canonicalization. Warm the shared cache once off-clock, then
        // time best-of-reps warm sessions.
        let astar_cache = PredictionCache::new();
        let astar_session = |cache: &PredictionCache| {
            let mut explored = 0u64;
            for sub in &subs {
                for n in SESSION_POINTS {
                    let r = astar_search_cached(sub, &predictor, &session_options(n), cache);
                    explored += (r.evaluated + r.merged_variants + r.rejected_variants) as u64;
                    black_box(&r);
                }
            }
            explored
        };
        astar_session(&astar_cache);
        let mut astar_secs = f64::MAX;
        let mut astar_explored = 0u64;
        for _ in 0..SESSION_REPS {
            let start = Instant::now();
            let explored = astar_session(&astar_cache);
            let secs = start.elapsed().as_secs_f64();
            if secs < astar_secs {
                astar_secs = secs;
                astar_explored = explored;
            }
        }

        // Structural session: same workload through the e-graph engine,
        // bound pruning on (the shipped default).
        let egraph_cache = PredictionCache::new();
        let egraph_session = |cache: &PredictionCache, heuristic: bool| {
            let mut explored = 0u64;
            let mut merged = 0u64;
            let mut expansions = 0u64;
            let mut found_at = 0u64;
            for sub in &subs {
                for n in SESSION_POINTS {
                    let r = search_cached(sub, &predictor, &config_at(n, heuristic, true), cache);
                    // A pruned candidate is a dispositioned variant like a
                    // merged or rejected one: the engine considered it and
                    // resolved it without a prediction, so it counts
                    // toward the session's processing rate.
                    explored +=
                        (r.evaluated + r.merged_variants + r.rejected_variants + r.pruned_variants)
                            as u64;
                    merged += r.merged_variants as u64;
                    expansions += r.expansions as u64;
                    found_at += r.best_found_at as u64;
                    black_box(&r);
                }
            }
            (explored, merged, expansions, found_at)
        };
        egraph_session(&egraph_cache, true);
        let mut egraph_secs = f64::MAX;
        let mut egraph_stats = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..SESSION_REPS {
            let start = Instant::now();
            let stats = egraph_session(&egraph_cache, true);
            let secs = start.elapsed().as_secs_f64();
            if secs < egraph_secs {
                egraph_secs = secs;
                egraph_stats = stats;
            }
        }
        // Heuristic-off pass (untimed): how many evaluations the winner
        // costs without explain-driven move ordering.
        let (_, _, _, found_at_off) = egraph_session(&PredictionCache::new(), false);

        // Pruning effectiveness, measured cold (fresh prediction cache
        // per search, so every avoided prediction is real work avoided,
        // not a cache hit): the same session with the bound on and off,
        // winner identity checked per (kernel, eval point), plus the
        // unpruned A* oracle for the dominance check.
        let mut pruned_evaluated = 0u64;
        let mut unpruned_evaluated = 0u64;
        let mut predictions_avoided = 0u64;
        let mut winners_match = true;
        let mut dominates_astar = true;
        for sub in &subs {
            for n in SESSION_POINTS {
                let rp = search_cached(
                    sub,
                    &predictor,
                    &config_at(n, true, true),
                    &PredictionCache::new(),
                );
                let ru = search_cached(
                    sub,
                    &predictor,
                    &config_at(n, true, false),
                    &PredictionCache::new(),
                );
                let ra = astar_search_cached(
                    sub,
                    &predictor,
                    &session_options(n),
                    &PredictionCache::new(),
                );
                pruned_evaluated += rp.evaluated as u64;
                unpruned_evaluated += ru.evaluated as u64;
                predictions_avoided += rp.pruned_variants as u64;
                if rp.best.to_string() != ru.best.to_string() {
                    winners_match = false;
                }
                if rp.best_cost > ra.best_cost + 1e-6 {
                    dominates_astar = false;
                }
            }
        }

        // Bound tightness: how much of the predicted cost the admissible
        // floor explains on the unmodified kernels at n = 256.
        let bindings: HashMap<Symbol, f64> = HashMap::from([(Symbol::new("n"), 256.0)]);
        let mut tightness_sum = 0.0;
        for sub in &subs {
            let lb = predictor
                .lower_bound_subroutine(sub, &bindings)
                .unwrap_or(0.0);
            let cost = predictor
                .predict_subroutine_cost(sub)
                .map(|e| e.eval_with_defaults(&bindings))
                .unwrap_or(f64::INFINITY);
            tightness_sum += if cost > 0.0 && cost.is_finite() {
                lb / cost
            } else {
                0.0
            };
        }

        let (egraph_explored, egraph_merged, egraph_expansions, found_at_on) = egraph_stats;
        out.put_speedup(
            &name,
            ("astar_variants_per_sec", astar_explored as f64 / astar_secs),
            (
                "egraph_variants_per_sec",
                egraph_explored as f64 / egraph_secs,
            ),
            "variants/s",
        );
        out.put(&name, "astar_explored", astar_explored as f64, "count");
        out.put(&name, "egraph_explored", egraph_explored as f64, "count");
        out.put(&name, "egraph_merged", egraph_merged as f64, "count");
        out.put(
            &name,
            "egraph_expansions",
            egraph_expansions as f64,
            "count",
        );
        out.put(&name, "found_at_heuristic_on", found_at_on as f64, "count");
        out.put(
            &name,
            "found_at_heuristic_off",
            found_at_off as f64,
            "count",
        );
        out.put(&name, "pruned_evaluated", pruned_evaluated as f64, "count");
        out.put(
            &name,
            "unpruned_evaluated",
            unpruned_evaluated as f64,
            "count",
        );
        out.put(
            &name,
            "pruned_ratio",
            pruned_evaluated as f64 / unpruned_evaluated.max(1) as f64,
            "ratio",
        );
        out.put(
            &name,
            "predictions_avoided",
            predictions_avoided as f64,
            "count",
        );
        out.put_flag(&name, "winners_match", winners_match);
        out.put_flag(&name, "dominates_astar", dominates_astar);
        out.put(
            &name,
            "bound_tightness",
            tightness_sum / subs.len() as f64,
            "ratio",
        );
    }
}

// 64 overlapped copies matches the deepest stream the unroll sweeps
// build (unroll factor 8 × 8 overlapped iterations); the big block gets
// a modest 4-way overlap, as a body that size would in the overlap table.
const LOOP_COPIES: usize = 64;
const BIG_BLOCK_COPIES: usize = 4;
const BIG_BLOCK_OPS: usize = 512;

/// A big mixed block in the efficiency table's mold — dependence chains,
/// shared inputs, and a sprinkling of unpipelined divides.
fn big_mixed_block() -> BlockIr {
    use presage_machine::BasicOp::*;
    use presage_translate::ValueDef;
    let mut b = BlockIr::new();
    let x = b.add_value(ValueDef::External("x".into()));
    let mut prev = x;
    for i in 0..BIG_BLOCK_OPS {
        let basic = match i % 7 {
            0 => FAdd,
            1 => FMul,
            2 => IAdd,
            3 => Fma,
            4 => LoadFloat,
            5 => FDiv,
            _ => IMul,
        };
        let args = if i % 3 == 0 {
            vec![prev, x]
        } else {
            vec![x, x]
        };
        prev = b.emit(basic, args);
    }
    b
}

/// Simulator micro-benchmark: the event-driven engine vs the retained
/// cycle-driven reference on the workloads where the bench tables spend
/// their simulator wall clock — the overlap/unroll tables' long
/// overlapped loop streams (every Figure 7 innermost block as a 64-copy
/// stream, the deepest shape `unroll_profile` probes) and the efficiency
/// table's big mixed block with unpipelined divides, 4-way overlapped.
/// Per-cycle scanning is quadratic in stream length; the event engine is
/// what keeps these tables cheap. Both engines share the micro expansion,
/// so the ratio isolates exactly the scheduling algorithm.
fn bench_simulator(out: &mut Rows) {
    use presage_sim::{reference, scheduler};
    let big = big_mixed_block();
    for machine in machines::all() {
        let blocks = placement_blocks(&machine);
        let sims_per_round = (blocks.len() + 1) as u64;
        let diverged = |engine: &str, e: presage_sim::SimError| -> ! {
            bail(format!(
                "simulator bench: {engine} engine failed to converge on {}: {e}",
                machine.name()
            ))
        };
        let event_round = || {
            for b in &blocks {
                let copies: Vec<&BlockIr> = std::iter::repeat_n(b, LOOP_COPIES).collect();
                black_box(
                    scheduler::simulate_blocks(&machine, copies.iter().copied())
                        .unwrap_or_else(|e| diverged("event-driven", e)),
                );
            }
            let big_copies: Vec<&BlockIr> = std::iter::repeat_n(&big, BIG_BLOCK_COPIES).collect();
            black_box(
                scheduler::simulate_blocks(&machine, big_copies.iter().copied())
                    .unwrap_or_else(|e| diverged("event-driven", e)),
            );
            sims_per_round
        };
        let ref_round = || {
            for b in &blocks {
                let copies: Vec<&BlockIr> = std::iter::repeat_n(b, LOOP_COPIES).collect();
                black_box(
                    reference::simulate_blocks(&machine, copies.iter().copied())
                        .unwrap_or_else(|e| diverged("cycle-driven", e)),
                );
            }
            let big_copies: Vec<&BlockIr> = std::iter::repeat_n(&big, BIG_BLOCK_COPIES).collect();
            black_box(
                reference::simulate_blocks(&machine, big_copies.iter().copied())
                    .unwrap_or_else(|e| diverged("cycle-driven", e)),
            );
            sims_per_round
        };
        // Warm both engines once so first-touch allocation is off-clock.
        event_round();
        ref_round();
        let event = rate_of(event_round);
        let refr = rate_of(ref_round);
        out.put_speedup(
            machine.name(),
            ("ref_sims_per_sec", refr),
            ("event_sims_per_sec", event),
            "sims/s",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(subject: &str, metric: &'static str, value: f64) -> Row {
        Row {
            layer: "l",
            subject: subject.to_string(),
            metric,
            value,
            unit: "x",
        }
    }

    const FLOOR: Gate = at_least("l", "s", "m", 3.0);
    const CEILING: Gate = at_most("l", "s", "m", 0.7);

    fn verdict(gate: &Gate, rows: &[Row], host_cores: usize) -> (bool, bool, String) {
        let v = evaluate(&[gate], rows, host_cores).remove(0);
        (v.armed, v.ok, v.describe(host_cores))
    }

    #[test]
    fn a_value_exactly_at_the_bound_passes() {
        assert!(verdict(&FLOOR, &[row("s", "m", 3.0)], 2).1);
        assert!(verdict(&CEILING, &[row("s", "m", 0.7)], 2).1);
    }

    #[test]
    fn a_value_just_past_the_bound_fails() {
        let (armed, ok, msg) = verdict(&FLOOR, &[row("s", "m", 2.999)], 2);
        assert!(armed && !ok);
        assert!(msg.starts_with("FAIL"), "{msg}");
        assert!(!verdict(&CEILING, &[row("s", "m", 0.701)], 2).1);
        assert!(!verdict(&FLOOR, &[row("s", "m", f64::NAN)], 2).1);
    }

    #[test]
    fn a_min_cores_gate_on_a_smaller_host_is_disarmed_and_passes() {
        let gate = Gate {
            min_cores: 8,
            ..FLOOR
        };
        let rows = [row("s", "m", 0.5)];
        let (armed, ok, msg) = verdict(&gate, &rows, 2);
        assert!(!armed && ok, "{msg}");
        assert!(msg.contains("armed on >= 8 cores; host has 2"), "{msg}");
        assert!(!verdict(&gate, &rows, 8).1);
    }

    #[test]
    fn a_missing_row_fails_by_name() {
        let rows = [row("other", "m", 9.0), row("s", "n", 9.0)];
        let (_, ok, msg) = verdict(&FLOOR, &rows, 2);
        assert!(!ok);
        assert_eq!(msg, "FAIL  no row `l/s/m`");
        let disarmed = Gate {
            min_cores: 64,
            ..FLOOR
        };
        assert!(!verdict(&disarmed, &rows, 2).1);
    }

    #[test]
    fn an_unknown_layer_exits_2_and_lists_the_valid_layers() {
        let args = ["--only".to_string(), "nosuch".to_string()];
        assert_eq!(run(&args), 2);
        let (code, msg) = parse_args(&args).unwrap_err();
        assert_eq!(code, 2);
        for layer in LAYERS {
            assert!(msg.contains(layer.name), "{msg}");
        }
        assert_eq!(parse_args(&[]).unwrap().len(), LAYERS.len());
        let one = parse_args(&["--only".to_string(), "server".to_string()]).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].name, "server");
    }

    #[test]
    fn every_gate_names_a_layer() {
        for g in GATES {
            assert!(LAYERS.iter().any(|l| l.name == g.layer), "{g:?}");
        }
    }

    #[test]
    fn the_committed_report_matches_the_writer() {
        let text = include_str!("../../../../BENCH_perfsuite.json");
        let doc = Json::parse(text).expect("committed report parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let records = doc.get("gates").and_then(Json::as_arr).expect("gates");
        for g in GATES {
            let record = records
                .iter()
                .find(|r| {
                    r.get("layer").and_then(Json::as_str) == Some(g.layer)
                        && r.get("subject").and_then(Json::as_str) == Some(g.subject)
                        && r.get("metric").and_then(Json::as_str) == Some(g.metric)
                })
                .unwrap_or_else(|| panic!("no gate record for {g:?}"));
            let bound = match g.bound {
                Bound::AtLeast(b) => record.get("at_least").and_then(Json::as_f64) == Some(b),
                Bound::AtMost(b) => record.get("at_most").and_then(Json::as_f64) == Some(b),
            };
            assert!(bound, "bound drifted for {g:?}: {record:?}");
            assert_eq!(
                record.get("min_cores").and_then(Json::as_u64),
                Some(g.min_cores as u64),
                "{g:?}"
            );
        }
    }
}
