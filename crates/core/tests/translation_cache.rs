//! Differential proof for the translation cache: the cached path must be
//! observationally identical to the uncached reference path — the same
//! `ProgramIr` and the same symbolic `PerfExpr`s — on every machine
//! description in the suite. The uncached `Predictor` (no
//! `with_translation_cache`) is the oracle: it re-runs sema + translation
//! on every call, exactly as the seed implementation did.

use presage_core::{Predictor, TranslationCache};
use presage_frontend::{parse, sema};
use presage_machine::machines;
use presage_translate::translate;
use std::sync::Arc;

const KERNELS: &[&str] = &[
    // daxpy: the paper's running example.
    "subroutine daxpy(y, x, a, n)
       real y(n), x(n), a
       integer i, n
       do i = 1, n
         y(i) = y(i) + a * x(i)
       end do
     end",
    // matmul: a depth-3 nest with an inner reduction.
    "subroutine mm(a, b, c, n)
       real a(n,n), b(n,n), c(n,n)
       integer i, j, k, n
       do i = 1, n
         do j = 1, n
           do k = 1, n
             c(i,j) = c(i,j) + a(i,k) * b(k,j)
           end do
         end do
       end do
     end",
    // jacobi-like stencil: conditional-free but multi-reference.
    "subroutine relax(a, b, n)
       real a(n), b(n)
       integer i, n
       do i = 2, n - 1
         b(i) = (a(i - 1) + a(i + 1)) * 0.5
       end do
     end",
];

/// The tentpole's correctness contract: on all four machines, the cached
/// predictor's output — both the translated IR and the symbolic cost —
/// is bit-for-bit the uncached oracle's, on cold and warm lookups alike.
#[test]
fn cached_path_matches_uncached_oracle_on_all_machines() {
    let cache = Arc::new(TranslationCache::new());
    let mut checked_machines = 0;
    for machine in machines::all() {
        let oracle = Predictor::new(machine.clone());
        let cached = Predictor::new(machine.clone()).with_translation_cache(cache.clone());
        for src in KERNELS {
            let want = oracle.predict_source(src).expect("oracle predicts");
            let cold = cached
                .predict_source(src)
                .expect("cold cached path predicts");
            let warm = cached
                .predict_source(src)
                .expect("warm cached path predicts");
            for (w, (c, h)) in want.iter().zip(cold.iter().zip(&warm)) {
                assert_eq!(w.ir, c.ir, "cold IR diverges on {}", machine.name());
                assert_eq!(w.ir, h.ir, "warm IR diverges on {}", machine.name());
                assert_eq!(w.total, c.total, "cold cost diverges on {}", machine.name());
                assert_eq!(w.total, h.total, "warm cost diverges on {}", machine.name());
                assert_eq!(w.compute, c.compute);
                assert_eq!(w.compute, h.compute);
            }
            // The raw translation pipeline agrees with the cache-served IR
            // as well (the Predictor is not masking a divergence).
            let sub = &parse(src).unwrap().units[0];
            let symbols = sema::analyze(sub).unwrap();
            let fresh = translate(sub, &symbols, &machine).unwrap();
            let served = cache.translated(sub, &machine).unwrap();
            assert_eq!(
                &fresh,
                served.as_ref(),
                "raw IR diverges on {}",
                machine.name()
            );
        }
        checked_machines += 1;
    }
    assert_eq!(
        checked_machines, 4,
        "the differential proof must cover all four machines"
    );
}

#[test]
fn warmed_cache_serves_every_repeat_from_the_table() {
    let cache = Arc::new(TranslationCache::new());
    let predictor = Predictor::new(machines::wide8()).with_translation_cache(cache.clone());
    for src in KERNELS {
        predictor.predict_source(src).unwrap();
    }
    let misses_after_warmup = cache.misses();
    assert_eq!(misses_after_warmup, KERNELS.len() as u64);
    assert_eq!(cache.hits(), 0);
    for _ in 0..3 {
        for src in KERNELS {
            predictor.predict_source(src).unwrap();
        }
    }
    assert_eq!(
        cache.misses(),
        misses_after_warmup,
        "warm rounds must not re-translate"
    );
    assert_eq!(cache.hits(), 3 * KERNELS.len() as u64);
}

#[test]
fn one_cache_is_sound_across_machines() {
    // One shared table serves all four machines at once: entries never
    // alias (the machine name is part of the key) and nothing is evicted,
    // so warming each machine once serves every later lookup.
    let cache = Arc::new(TranslationCache::new());
    let predictors: Vec<Predictor> = machines::all()
        .into_iter()
        .map(|m| Predictor::new(m).with_translation_cache(cache.clone()))
        .collect();
    for p in &predictors {
        for src in KERNELS {
            p.predict_source(src).unwrap();
        }
    }
    assert_eq!(
        cache.len(),
        4 * KERNELS.len(),
        "per-machine entries must not alias"
    );
    assert_eq!(cache.misses(), (4 * KERNELS.len()) as u64);
    let results: Vec<_> = predictors
        .iter()
        .map(|p| p.predict_source(KERNELS[0]).unwrap().remove(0))
        .collect();
    assert_eq!(
        cache.misses(),
        (4 * KERNELS.len()) as u64,
        "second pass is all hits"
    );
    // Translation genuinely depends on the machine: at least the scalar
    // risc1 and the 8-wide FMA machine must disagree.
    assert_ne!(
        results[1].ir, results[3].ir,
        "risc1 and wide8 translations should differ"
    );
}

/// A warm prediction holds the cache entry's translation, not a copy:
/// two predictions of the same `(source, machine)` and the entry itself
/// are one allocation.
#[test]
fn warm_predictions_share_the_cached_ir() {
    let cache = Arc::new(TranslationCache::new());
    for machine in machines::all() {
        let predictor = Predictor::new(machine.clone()).with_translation_cache(cache.clone());
        for src in KERNELS {
            let first = predictor.predict_source(src).unwrap().remove(0);
            let second = predictor.predict_source(src).unwrap().remove(0);
            let sub = &parse(src).unwrap().units[0];
            let entry = cache.translated(sub, &machine).unwrap();
            assert!(Arc::ptr_eq(&first.ir, &second.ir), "{}", machine.name());
            assert!(Arc::ptr_eq(&first.ir, &entry), "{}", machine.name());
        }
    }
    // The interprocedural path shares the same entries.
    let predictor = Predictor::new(machines::wide8()).with_translation_cache(cache.clone());
    let inter = predictor
        .predict_source_interprocedural(KERNELS[0])
        .unwrap()
        .remove(0);
    let warm = predictor.predict_source(KERNELS[0]).unwrap().remove(0);
    assert!(Arc::ptr_eq(&inter.ir, &warm.ir));
}
