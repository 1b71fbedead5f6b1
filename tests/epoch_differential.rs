//! Differential oracle for epoch-based arena reclamation: a long-lived
//! prediction session that advances the reclamation epoch between job
//! waves must produce predictions **bit-identical** to a fresh, uncached
//! predictor — before any reclamation, while it is happening, and after
//! arena slots have been recycled.
//!
//! This is the id-stability acceptance test for the epoch layer: if a
//! reclaimed polynomial or block id ever leaked through a memo table into
//! a later wave, some prediction here would diverge from its oracle.

use presage::core::predictor::{Prediction, Predictor, PredictorOptions};
use presage::core::transcache::TranslationCache;
use presage::machine::{machines, MachineDesc};
use presage::symbolic::epoch;
use std::sync::Arc;

/// A distinct kernel per index (distinct names, constants, and bounds so
/// every program has its own translation and memo footprint).
fn program(k: usize) -> String {
    format!(
        "subroutine epo{k}(y, x, a, n)
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
        c = k % 53 + 2,
        d = (k * 11) % 43 + 3,
        lb = k % 4 + 1,
    )
}

#[test]
fn predictions_stay_bit_identical_across_reclaiming_epochs() {
    const WAVES: usize = 4;
    const PER_WAVE: usize = 12;
    let machines = [machines::power_like(), machines::risc1()];
    let programs: Vec<String> = (0..WAVES * PER_WAVE).map(program).collect();

    // The uncached oracle: fresh sema + translation + aggregation per
    // call, no shared translation cache.
    let oracle: Vec<Vec<String>> = programs
        .iter()
        .map(|src| {
            machines
                .iter()
                .map(|m| {
                    Predictor::new(m.clone()).predict_source(src).unwrap()[0]
                        .total
                        .to_string()
                })
                .collect()
        })
        .collect();

    // The epoch-advancing session: one shared cache, waves of batch
    // jobs, an advance + generation eviction between waves — the server
    // loop in miniature.
    let opts = PredictorOptions::default();
    let cache = Arc::new(TranslationCache::new());
    let mut advances = 0u64;
    let mut reclaimed = 0usize;
    let mut evicted = 0usize;
    let mut orphaned = 0usize;
    // The previous wave's predictions, held across the advance that may
    // evict their translations from the cache.
    let mut held: Vec<(usize, usize, Prediction)> = Vec::new();
    for wave in 0..WAVES {
        let slice = &programs[wave * PER_WAVE..(wave + 1) * PER_WAVE];
        let jobs: Vec<(&MachineDesc, &str)> = slice
            .iter()
            .flat_map(|p| machines.iter().map(move |m| (m, p.as_str())))
            .collect();
        let results = Predictor::predict_batch(&jobs, &opts, &cache, 4);
        for (j, result) in results.iter().enumerate() {
            let (prog_idx, machine_idx) =
                (wave * PER_WAVE + j / machines.len(), j % machines.len());
            let served = &result.as_ref().expect("soak programs are well-formed")[0];
            assert_eq!(
                served.total.to_string(),
                oracle[prog_idx][machine_idx],
                "wave {wave}, program {prog_idx}, machine {machine_idx} diverged after {advances} advances"
            );
        }
        let report = epoch::advance();
        advances += 1;
        reclaimed += report.total_reclaimed();
        evicted += cache.evict_older_than(report.retire_before);
        // An evicted translation lives on in the predictions holding it:
        // it still equals a fresh translation and still costs the same.
        for (prog_idx, machine_idx, p) in &held {
            // Evicted, so this prediction is the translation's last owner.
            orphaned += usize::from(Arc::strong_count(&p.ir) == 1);
            let fresh = &Predictor::new(machines[*machine_idx].clone())
                .predict_source(&programs[*prog_idx])
                .unwrap()[0];
            assert_eq!(*p.ir, *fresh.ir, "held IR of program {prog_idx} diverged");
            let again = Predictor::new(machines[*machine_idx].clone()).predict_cost(&p.ir);
            assert_eq!(
                again.to_string(),
                oracle[*prog_idx][*machine_idx],
                "held IR of program {prog_idx} re-costs differently after {advances} advances"
            );
        }
        held = results
            .into_iter()
            .enumerate()
            .map(|(j, r)| {
                let p = r.unwrap().remove(0);
                (wave * PER_WAVE + j / machines.len(), j % machines.len(), p)
            })
            .collect();
    }
    assert!(
        advances >= 3,
        "the differential must span at least 3 epochs"
    );
    assert!(evicted > 0, "no translation was evicted");
    assert!(orphaned > 0, "no held prediction outlived its cache entry");
    assert!(
        reclaimed > 0,
        "no reclamation happened — the differential proved nothing"
    );

    // And the oracle still agrees *after* the last reclamation, on
    // recycled arena slots.
    for (prog_idx, src) in programs.iter().enumerate().take(PER_WAVE) {
        for (machine_idx, m) in machines.iter().enumerate() {
            let fresh = Predictor::new(m.clone()).predict_source(src).unwrap()[0]
                .total
                .to_string();
            assert_eq!(
                fresh, oracle[prog_idx][machine_idx],
                "post-reclaim divergence"
            );
        }
    }
}
