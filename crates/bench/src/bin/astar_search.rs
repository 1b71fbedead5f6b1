//! E11 — transformation-sequence search (paper §3.2): the A* search
//! against exhaustive enumeration on a small space, verifying it finds the
//! optimum while expanding fewer states.
//!
//! Run with `cargo run --release -p presage-bench --bin astar_search`.

use presage_core::predictor::Predictor;
use presage_machine::machines;
use presage_opt::search::{astar_search, SearchOptions};
use presage_opt::transforms::Transform;
use presage_opt::whatif::{cost_of, loop_paths, transformed};
use presage_symbolic::Symbol;
use std::collections::HashMap;

const KERNEL: &str = "subroutine sweep(a, b, n)
   real a(n,n), b(n,n)
   integer i, j, n
   do i = 1, n
     do j = 1, n
       a(i,j) = b(i,j) * 2.0 + 1.0
     end do
   end do
   do i = 1, n
     do j = 1, n
       b(i,j) = a(i,j) * 0.5
     end do
   end do
 end";

fn eval(predictor: &Predictor, sub: &presage_frontend::Subroutine, n: f64) -> f64 {
    let expr = cost_of(sub, predictor).expect("predicts");
    let mut b = HashMap::new();
    b.insert(Symbol::new("n"), n);
    expr.eval_with_defaults(&b)
}

/// Exhaustive depth-2 enumeration over the same move set.
fn exhaustive(predictor: &Predictor, sub: &presage_frontend::Subroutine, n: f64) -> (f64, usize) {
    let moves = |s: &presage_frontend::Subroutine| {
        let mut out = Vec::new();
        for p in loop_paths(s) {
            for t in [
                Transform::Unroll(2),
                Transform::Unroll(4),
                Transform::Tile(32),
                Transform::Interchange,
                Transform::Fuse,
                Transform::Distribute,
            ] {
                out.push((p.clone(), t));
            }
        }
        out
    };
    let mut best = eval(predictor, sub, n);
    let mut evaluated = 0;
    for (p1, t1) in moves(sub) {
        let Ok(v1) = transformed(sub, &p1, &t1) else {
            continue;
        };
        evaluated += 1;
        best = best.min(eval(predictor, &v1, n));
        for (p2, t2) in moves(&v1) {
            let Ok(v2) = transformed(&v1, &p2, &t2) else {
                continue;
            };
            evaluated += 1;
            best = best.min(eval(predictor, &v2, n));
        }
    }
    (best, evaluated)
}

fn main() {
    let sub = presage_frontend::parse(KERNEL)
        .expect("valid")
        .units
        .remove(0);
    let predictor = Predictor::new(machines::power_like());
    let n = 1000.0;

    let mut opts = SearchOptions {
        max_depth: 2,
        max_expansions: 120,
        ..SearchOptions::default()
    };
    opts.eval_point.insert("n".into(), n);
    let astar = astar_search(&sub, &predictor, &opts);

    let (exhaustive_best, exhaustive_evals) = exhaustive(&predictor, &sub, n);

    println!("search space: depth ≤ 2 over unroll/tile/interchange/fuse/distribute");
    println!("original cost             : {:>12.0}", astar.original_cost);
    println!(
        "A* best ({} evals)       : {:>12.0}  (speedup {:.2}×)",
        astar.evaluated,
        astar.best_cost,
        astar.speedup()
    );
    println!(
        "exhaustive best ({} evals): {:>12.0}",
        exhaustive_evals, exhaustive_best
    );
    let gap = (astar.best_cost - exhaustive_best) / exhaustive_best * 100.0;
    println!("gap to optimum            : {gap:>11.1}%");
    println!("\nA* sequence:");
    for s in &astar.sequence {
        println!("  {} at {:?} -> {:.0}", s.transform, s.path, s.cost);
    }
}
