//! The expression-depth limit at the parse boundary: an expression
//! exactly at `MAX_EXPR_DEPTH` still predicts on a batch worker thread
//! (a default 2 MiB stack) in every build. The parser's unit tests pin
//! the rejection of deeper ones.

use presage::core::predictor::{Predictor, PredictorOptions};
use presage::core::transcache::TranslationCache;
use presage::frontend::MAX_EXPR_DEPTH;
use presage::machine::{machines, MachineDesc};
use std::sync::Arc;

/// `y = <expr>` in a subroutine that declares `x` and `y`.
fn assign(expr: &str) -> String {
    format!("subroutine s(x, y)\nreal x, y\ny = {expr}\nend")
}

/// Nested parentheses, prefix minus, and a left-deep chain, at depth `d`.
fn shapes(d: usize) -> [(&'static str, String); 3] {
    let n = d - 1;
    [
        ("parens", format!("{}x{}", "(".repeat(n), ")".repeat(n))),
        ("prefix minus", format!("{}x", "-".repeat(n))),
        ("left-deep chain", format!("x{}", "+x".repeat(n))),
    ]
}

#[test]
fn an_expression_at_the_limit_predicts_on_batch_workers() {
    let machines: [MachineDesc; 2] = [machines::power_like(), machines::wide8()];
    let sources: Vec<(&str, String)> = shapes(MAX_EXPR_DEPTH as usize)
        .into_iter()
        .map(|(shape, e)| (shape, assign(&e)))
        .collect();
    let jobs: Vec<(&MachineDesc, &str)> = sources
        .iter()
        .flat_map(|(_, src)| machines.iter().map(move |m| (m, src.as_str())))
        .collect();
    let cache = Arc::new(TranslationCache::new());
    let results = Predictor::predict_batch(&jobs, &PredictorOptions::default(), &cache, 2);
    for ((machine, src), result) in jobs.iter().zip(&results) {
        let shape = sources.iter().find(|(_, s)| s == src).unwrap().0;
        let served = &result.as_ref().unwrap_or_else(|e| panic!("{shape}: {e}"))[0];
        let oracle = &Predictor::new((*machine).clone())
            .predict_source(src)
            .unwrap()[0];
        assert_eq!(served.total, oracle.total, "{shape} on {}", machine.name());
    }
    // Parentheses cost nothing: the nest predicts as `y = x`.
    let plain = Predictor::new(machines::wide8())
        .predict_source(&assign("x"))
        .unwrap();
    let nested = &results[1].as_ref().unwrap()[0];
    assert_eq!(nested.total, plain[0].total);
}
