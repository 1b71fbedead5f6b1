//! The seed symbolic aggregation path, preserved as a reference oracle.
//!
//! This module is the [`crate::aggregate`] walk re-expressed over
//! [`presage_symbolic::reference`] — the verbatim seed symbolic engine
//! (`BTreeMap`-backed polynomials, no interning, no memoization). Placement
//! and steady-state probing are *shared* with the optimized path, so the
//! only difference between [`reference_aggregate`] and
//! [`crate::aggregate::aggregate`] is the symbolic engine underneath. It
//! exists for two purposes, mirroring [`crate::reference::NaivePlacer`]:
//!
//! 1. the differential test suite proves the hash-consed engine produces
//!    canonically identical expressions on every kernel × machine;
//! 2. the `perfsuite` benchmark measures predictions/sec of the optimized
//!    engine against this baseline, so the symbolic-engine speedup claim
//!    is reproducible in-tree.
//!
//! Library-call costing is intentionally unsupported (the Figure 7 kernels
//! contain no `call` statements); callers compare against
//! `aggregate(ir, machine, None, opts)`. Do not "fix" or speed up this
//! module: its value is that it does not change.

use crate::aggregate::{append_block, approx_rational, AggregateOptions};
use crate::overlap::steady_state;
use crate::tetris::place_block;
use presage_frontend::{BinOp, Expr, Intrinsic, UnOp};
use presage_machine::MachineDesc;
use presage_symbolic::reference::{summation, PerfExpr, Poly};
use presage_symbolic::{Rational, Symbol, VarInfo};
use presage_translate::{BlockIr, IrNode, LoopIr, ProgramIr};

/// Aggregates a translated program through the seed symbolic engine.
///
/// Semantically identical to `aggregate(ir, machine, None, opts)` — same
/// placement, same steady-state probes, same trip-count and branch-split
/// rules — but every polynomial operation runs on the reference engine.
pub fn reference_aggregate(
    ir: &ProgramIr,
    machine: &MachineDesc,
    opts: &AggregateOptions,
) -> PerfExpr {
    let agg = RefAggregator { machine, opts };
    let mut ctx = Vec::new();
    agg.nodes(&ir.root, &mut ctx)
}

/// Enclosing-loop context for probability inference (reference engine).
struct RefLoopCtx {
    var: String,
    lb: Poly,
    count: Poly,
}

struct RefAggregator<'a> {
    machine: &'a MachineDesc,
    opts: &'a AggregateOptions,
}

impl RefAggregator<'_> {
    fn var_info(&self, name: &str) -> VarInfo {
        let (lo, hi) = self
            .opts
            .var_ranges
            .get(name)
            .copied()
            .unwrap_or(self.opts.default_range);
        VarInfo::loop_bound(lo, hi)
    }

    fn wrap(&self, poly: Poly) -> PerfExpr {
        let infos: Vec<(Symbol, VarInfo)> = poly
            .symbols()
            .into_iter()
            .map(|s| {
                let info = self.var_info(s.name());
                (s, info)
            })
            .collect();
        PerfExpr::from_poly(poly, infos)
    }

    fn nodes(&self, nodes: &[IrNode], ctx: &mut Vec<RefLoopCtx>) -> PerfExpr {
        let mut total = PerfExpr::zero();
        for n in nodes {
            total += self.node(n, ctx);
        }
        total
    }

    fn node(&self, node: &IrNode, ctx: &mut Vec<RefLoopCtx>) -> PerfExpr {
        match node {
            IrNode::Block(b) => self.block_cost(b),
            IrNode::Loop(l) => self.loop_cost(l, ctx),
            IrNode::If(i) => self.if_cost(i, ctx),
        }
    }

    fn block_cost(&self, block: &BlockIr) -> PerfExpr {
        if block.is_empty() {
            return PerfExpr::zero();
        }
        let cb = place_block(self.machine, block, self.opts.place);
        PerfExpr::cycles(cb.completion as i64)
    }

    fn loop_cost(&self, l: &LoopIr, ctx: &mut Vec<RefLoopCtx>) -> PerfExpr {
        let one_time = self.block_cost(&l.preheader) + self.block_cost(&l.postheader);

        let (count_poly, lb_poly) = self.trip_count(l);

        ctx.push(RefLoopCtx {
            var: l.var.clone(),
            lb: lb_poly,
            count: count_poly.clone(),
        });
        let per_iter: PerfExpr = match &l.body[..] {
            [IrNode::Block(b)] if self.opts.steady_probes >= 2 => {
                let mut merged = b.clone();
                append_block(&mut merged, &l.control);
                let ss = steady_state(
                    self.machine,
                    &merged,
                    self.opts.place,
                    self.opts.steady_probes,
                );
                PerfExpr::cycles_rational(approx_rational(ss.per_iteration))
            }
            _ => {
                let body = self.nodes(&l.body, ctx);
                let control_cost = place_block(self.machine, &l.control, self.opts.place);
                body + PerfExpr::cycles(control_cost.span() as i64)
            }
        };
        let frame = ctx.pop().expect("frame pushed above");
        one_time + self.iterate(per_iter, &l.var, &frame)
    }

    fn iterate(&self, per_iter: PerfExpr, var: &str, frame: &RefLoopCtx) -> PerfExpr {
        let var_sym = Symbol::new(var);
        if per_iter.poly().contains_symbol(&var_sym) {
            let ub = &(&frame.lb + &frame.count) - &Poly::one();
            if let Some(summed) = summation::sum_range(per_iter.poly(), &var_sym, &frame.lb, &ub) {
                return self.wrap(summed);
            }
            let mid = (&frame.lb + &ub).scale(Rational::new(1, 2));
            if let Ok(avg) = per_iter.poly().subst(&var_sym, &mid) {
                return self.wrap(&avg * &frame.count);
            }
        }
        per_iter.repeat(&self.wrap(frame.count.clone()))
    }

    fn trip_count(&self, l: &LoopIr) -> (Poly, Poly) {
        let step_const = l.step.as_ref().map(|s| s.as_int()).unwrap_or(Some(1));
        let Some(s) = step_const.filter(|s| *s != 0) else {
            return (
                Poly::var(Symbol::new(format!("trip${}", l.var))),
                Poly::one(),
            );
        };
        let lbs = ref_bound_candidates(&l.lb, Intrinsic::Max);
        let ubs = ref_bound_candidates(&l.ub, Intrinsic::Min);
        let mut best: Option<Poly> = None;
        for lbp in &lbs {
            for ubp in &ubs {
                let count = (ubp - lbp).scale(Rational::new(1, s as i128)) + Poly::one();
                best = Some(match best {
                    None => count,
                    Some(prev) => match (prev.constant_value(), count.constant_value()) {
                        (Some(a), Some(b)) => {
                            if b < a {
                                count
                            } else {
                                Poly::constant(a)
                            }
                        }
                        (None, Some(_)) => count,
                        _ => prev,
                    },
                });
            }
        }
        match best {
            Some(count) => {
                let lb = lbs.first().cloned().unwrap_or_else(Poly::one);
                (count, lb)
            }
            None => (
                Poly::var(Symbol::new(format!("trip${}", l.var))),
                Poly::one(),
            ),
        }
    }

    fn if_cost(&self, i: &presage_translate::IfIr, ctx: &mut Vec<RefLoopCtx>) -> PerfExpr {
        let cond = self.block_cost(&i.cond_block);
        let then_cost = self.nodes(&i.then_nodes, ctx);
        let else_cost = self.nodes(&i.else_nodes, ctx);
        let (pt, pe) = self.branch_split(&i.cond, &then_cost, &else_cost, ctx);
        cond + pt.mul(&then_cost) + pe.mul(&else_cost)
    }

    fn branch_split(
        &self,
        cond: &Expr,
        then_cost: &PerfExpr,
        else_cost: &PerfExpr,
        ctx: &[RefLoopCtx],
    ) -> (PerfExpr, PerfExpr) {
        let half = PerfExpr::cycles_rational(Rational::new(1, 2));
        if self.opts.branch_tolerance > 0.0 {
            if let (Some(t), Some(e)) = (then_cost.concrete_cycles(), else_cost.concrete_cycles()) {
                let (tf, ef) = (t.to_f64(), e.to_f64());
                let scale = tf.abs().max(ef.abs());
                if scale == 0.0 || (tf - ef).abs() / scale <= self.opts.branch_tolerance {
                    return (half.clone(), half);
                }
            }
        }
        if self.opts.infer_loop_index_probs {
            if let Some(p) = self.loop_index_probability(cond, ctx) {
                let pe = self.wrap(&Poly::one() - &p);
                return (self.wrap(p), pe);
            }
        }
        let p = PerfExpr::var(Symbol::new(format!("p${cond}")), VarInfo::branch_prob());
        let q = PerfExpr::cycles(1) - p.clone();
        (p, q)
    }

    fn loop_index_probability(&self, cond: &Expr, ctx: &[RefLoopCtx]) -> Option<Poly> {
        let Expr::Binary { op, lhs, rhs } = cond else {
            return None;
        };
        if !op.is_relational() {
            return None;
        }
        let (var, bound, op) = match (lhs.as_var(), rhs.as_var()) {
            (Some(v), _) if ctx.iter().any(|c| c.var == v) => (v, rhs.as_ref(), *op),
            (_, Some(v)) if ctx.iter().any(|c| c.var == v) => (v, lhs.as_ref(), ref_flip(*op)),
            _ => return None,
        };
        let loop_ctx = ctx.iter().rev().find(|c| c.var == var)?;
        let bound_poly = ref_int_expr_to_poly(bound)?;
        if bound_poly.contains_symbol(&Symbol::new(var)) {
            return None;
        }

        let n = &loop_ctx.count;
        let k_minus_lb = &bound_poly - &loop_ctx.lb;
        let trues: Poly = match op {
            BinOp::Le => &k_minus_lb + &Poly::one(),
            BinOp::Lt => k_minus_lb,
            BinOp::Ge => n - &k_minus_lb,
            BinOp::Gt => &(n - &k_minus_lb) - &Poly::one(),
            BinOp::Eq => Poly::one(),
            BinOp::Ne => n - &Poly::one(),
            _ => return None,
        };
        let (c, m) = n.single_term()?;
        let inv_n = Poly::term(c.recip(), m.pow(-1));
        Some(&trues * &inv_n)
    }
}

fn ref_flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn ref_bound_candidates(e: &Expr, selector: Intrinsic) -> Vec<Poly> {
    if let Expr::Intrinsic { func, args } = e {
        if *func == selector {
            return args.iter().filter_map(ref_int_expr_to_poly).collect();
        }
    }
    ref_int_expr_to_poly(e).into_iter().collect()
}

fn ref_int_expr_to_poly(e: &Expr) -> Option<Poly> {
    match e {
        Expr::IntLit(n) => Some(Poly::from(*n)),
        Expr::Var(name) => Some(Poly::var(Symbol::new(name))),
        Expr::Unary {
            op: UnOp::Neg,
            operand,
        } => Some(-ref_int_expr_to_poly(operand)?),
        Expr::Binary { op, lhs, rhs } => {
            let l = ref_int_expr_to_poly(lhs)?;
            let r = ref_int_expr_to_poly(rhs)?;
            match op {
                BinOp::Add => Some(&l + &r),
                BinOp::Sub => Some(&l - &r),
                BinOp::Mul => Some(&l * &r),
                BinOp::Div => {
                    let c = r.constant_value()?;
                    if c.is_zero() {
                        None
                    } else {
                        Some(l.scale(c.recip()))
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate;
    use presage_frontend::{parse, sema};
    use presage_machine::machines;
    use presage_translate::translate;

    fn both(src: &str) -> (PerfExpr, presage_symbolic::PerfExpr) {
        let m = machines::power_like();
        let prog = parse(src).expect("parse");
        let symbols = sema::analyze(&prog.units[0]).expect("sema");
        let ir = translate(&prog.units[0], &symbols, &m).expect("translate");
        let opts = AggregateOptions::default();
        (
            reference_aggregate(&ir, &m, &opts),
            aggregate(&ir, &m, None, &opts),
        )
    }

    #[track_caller]
    fn assert_identical(src: &str) {
        let (reference, optimized) = both(src);
        assert_eq!(
            reference.to_string(),
            optimized.to_string(),
            "canonical text differs"
        );
        assert_eq!(
            reference.poly().to_string(),
            optimized.poly().to_string(),
            "polynomial differs"
        );
        let ref_vars: Vec<_> = reference
            .vars()
            .iter()
            .map(|(s, i)| (s.clone(), *i))
            .collect();
        let opt_vars: Vec<_> = optimized
            .vars()
            .iter()
            .map(|(s, i)| (s.clone(), *i))
            .collect();
        assert_eq!(ref_vars, opt_vars, "tracked unknowns differ");
    }

    #[test]
    fn straight_line_matches_optimized() {
        assert_identical("subroutine s(a)\nreal a(4)\na(1) = 1.0\na(2) = 2.0\nend");
    }

    #[test]
    fn symbolic_loop_matches_optimized() {
        assert_identical(
            "subroutine s(a, n)\nreal a(n)\ninteger i, n\ndo i = 1, n\na(i) = a(i) + 1.0\nend do\nend",
        );
    }

    #[test]
    fn triangular_nest_matches_optimized() {
        assert_identical(
            "subroutine s(a, n)\nreal a(n,n)\ninteger i, j, n\ndo i = 1, n\ndo j = i, n\na(i,j) = 0.0\nend do\nend do\nend",
        );
    }

    #[test]
    fn loop_index_branch_matches_optimized() {
        assert_identical(
            "subroutine s(a, n, k)
               real a(n)
               integer i, n, k
               do i = 1, n
                 if (i .le. k) then
                   a(i) = a(i) * 2.0 + 1.0
                 else
                   a(i) = 0.0
                 end if
               end do
             end",
        );
    }

    #[test]
    fn roundtrip_through_conversions() {
        let (reference, optimized) = both(
            "subroutine s(a, n)\nreal a(n)\ninteger i, n\ndo i = 1, n\na(i) = a(i) + 1.0\nend do\nend",
        );
        let converted = reference.poly().to_optimized();
        assert_eq!(&converted, optimized.poly());
        let back = Poly::from_optimized(optimized.poly());
        assert_eq!(&back, reference.poly());
    }
}
