//! Batched + parallel source-level prediction across `(machine, program)`
//! jobs.
//!
//! The restructuring workload predicts many independent programs — every
//! kernel of a suite on every candidate machine — and each job is a pure
//! function of its `(machine, source)` pair. This module fans a job list
//! out over scoped threads with a **work-stealing chunked queue**: an
//! atomic cursor over fixed-size job chunks that every worker claims from
//! until the list is drained. Skewed job costs (one giant kernel next to
//! twenty trivial ones) therefore never idle workers the way static
//! partitioning did — a worker that finishes its chunk steals the next
//! one instead of going home early. Results come back in job order
//! regardless of worker count or claim interleaving, so callers stay
//! deterministic, and `workers <= 1` degenerates to the sequential loop
//! on the calling thread with no thread overhead.
//!
//! All workers share one sharded [`TranslationCache`] (repeated shapes
//! translate once across the whole batch), the process-global sharded
//! polynomial arena (`presage_symbolic::intern` — lock-free id reads,
//! per-shard interning locks), and the sharded L2 memo tables behind the
//! thread-local algebra/scheduling memos, so freshly spawned workers
//! inherit warm results instead of recomputing them per thread.
//! [`predict_batch_report`] returns per-worker telemetry — jobs run,
//! chunks stolen, and two-level memo hit counts — alongside the results.

use crate::predictor::{PredictError, Prediction, Predictor, PredictorOptions};
use crate::transcache::TranslationCache;
use presage_machine::MachineDesc;
use presage_symbolic::memo::{self, MemoStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A sensible worker count for prediction fan-out: the machine's
/// available parallelism, or 1 when it cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One worker's share of a batch: how much work it claimed from the
/// stealing queue and how its two-level memo lookups resolved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchWorkerStats {
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Chunks this worker claimed from the shared queue.
    pub chunks: u64,
    /// Chunks claimed beyond the worker's first — work it took from the
    /// common pool after finishing earlier claims (0 for a worker that
    /// never got a chunk or ran exactly one).
    pub steals: u64,
    /// The worker's memo telemetry (L1/L2 hits and misses), drained from
    /// the thread-local counters when the worker finished.
    pub memo: MemoStats,
}

/// Results plus per-worker telemetry from [`predict_batch_report`].
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job outcomes, index-aligned with the submitted job list.
    pub results: Vec<Result<Vec<Prediction>, PredictError>>,
    /// One entry per spawned worker (a single entry for sequential runs).
    pub workers: Vec<BatchWorkerStats>,
}

impl BatchReport {
    /// Memo telemetry summed over all workers.
    pub fn memo_totals(&self) -> MemoStats {
        self.workers
            .iter()
            .fold(MemoStats::default(), |acc, w| acc.merged(&w.memo))
    }

    /// Total chunks claimed beyond each worker's first.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }
}

/// Chunk size for the stealing queue: small enough that skewed job costs
/// rebalance (several claims per worker), large enough that the atomic
/// cursor is not contended per job.
fn chunk_size(jobs: usize, workers: usize) -> usize {
    jobs.div_ceil(workers * 4).max(1)
}

/// Runs `job` over `jobs` with a work-stealing chunk queue, preserving
/// job order in the returned results.
fn fan_out<J: Sync, R: Send>(
    jobs: &[J],
    workers: usize,
    job: impl Fn(&J) -> R + Sync,
) -> (Vec<R>, Vec<BatchWorkerStats>) {
    // Inline only when the caller asked for one worker: a lone job handed
    // to a multi-worker batch still runs on a worker thread, so its
    // allocations land in a worker's malloc arena rather than the
    // caller's (a server's dispatcher would otherwise grow its own arena
    // with every one-job wave).
    if workers <= 1 || jobs.is_empty() {
        // Drain whatever the calling thread accumulated before this batch
        // so the report covers exactly this batch's lookups.
        memo::take_thread_stats();
        let results: Vec<R> = jobs.iter().map(&job).collect();
        let stats = BatchWorkerStats {
            jobs: jobs.len() as u64,
            chunks: jobs.len().min(1) as u64,
            steals: 0,
            memo: memo::take_thread_stats(),
        };
        return (results, vec![stats]);
    }
    let workers = workers.min(jobs.len());
    let chunk = chunk_size(jobs.len(), workers);
    let cursor = AtomicUsize::new(0);
    let job = &job;
    let cursor = &cursor;
    let mut collected: Vec<(Vec<(usize, R)>, BatchWorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut got: Vec<(usize, R)> = Vec::new();
                    let mut chunks = 0u64;
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= jobs.len() {
                            break;
                        }
                        chunks += 1;
                        let end = (start + chunk).min(jobs.len());
                        for (i, j) in jobs[start..end].iter().enumerate() {
                            got.push((start + i, job(j)));
                        }
                    }
                    let stats = BatchWorkerStats {
                        jobs: got.len() as u64,
                        chunks,
                        steals: chunks.saturating_sub(1),
                        memo: memo::take_thread_stats(),
                    };
                    (got, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Prediction jobs catch their own panics (see
                // `predict_batch_report`), so a worker-level panic means
                // the fan-out infrastructure itself is broken — propagate
                // it instead of silently dropping that worker's claims.
                h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
            })
            .collect()
    });
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(jobs.len(), || None);
    let mut stats = Vec::with_capacity(collected.len());
    for (got, s) in collected.drain(..) {
        stats.push(s);
        for (i, r) in got {
            debug_assert!(out[i].is_none(), "job {i} claimed twice");
            out[i] = Some(r);
        }
    }
    let results = out
        .into_iter()
        .map(|r| r.expect("every job index is claimed exactly once"))
        .collect();
    (results, stats)
}

/// Predicts every `(machine, source)` job on `workers` scoped threads,
/// sharing `cache` (and the global polynomial arena) across all of them.
///
/// Each job parses, checks, translates, and predicts every subroutine in
/// its source, exactly as [`Predictor::predict_source`] does with `cache`
/// attached; the result vector is index-aligned with `jobs`, and a
/// failing job yields its own `Err` without disturbing the others.
pub fn predict_batch(
    jobs: &[(&MachineDesc, &str)],
    options: &PredictorOptions,
    cache: &Arc<TranslationCache>,
    workers: usize,
) -> Vec<Result<Vec<Prediction>, PredictError>> {
    predict_batch_report(jobs, options, cache, workers).results
}

/// [`predict_batch`] plus per-worker telemetry: jobs run, chunks claimed
/// and stolen from the shared queue, and two-level memo hit counts.
pub fn predict_batch_report(
    jobs: &[(&MachineDesc, &str)],
    options: &PredictorOptions,
    cache: &Arc<TranslationCache>,
    workers: usize,
) -> BatchReport {
    let (results, worker_stats) = fan_out(jobs, workers, |(machine, source)| {
        // Pin for the whole job so translation and aggregation observe
        // one epoch interval: an `epoch::advance` racing the batch (the
        // server advances between waves, not during them) waits this job
        // out before reclaiming anything it might still be stamping.
        let _epoch = presage_symbolic::epoch::pin();
        // One panicking job must not take down the worker (and with it
        // every other job in the wave): catch it and report it as this
        // job's own typed error. Shared state is sharded-lock based and
        // poison-recovering, so crossing the unwind boundary is benign.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let predictor = Predictor::with_options((*machine).clone(), options.clone())
                .with_translation_cache(Arc::clone(cache));
            predictor.predict_source(source)
        }))
        .unwrap_or_else(|payload| Err(PredictError::Internal(panic_message(&payload))))
    });
    BatchReport {
        results,
        workers: worker_stats,
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "prediction worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presage_machine::machines;

    const KERNELS: [&str; 3] = [
        "subroutine axpy(y, x, a, n)
           real y(n), x(n), a
           integer i, n
           do i = 1, n
             y(i) = y(i) + a * x(i)
           end do
         end",
        "subroutine tri(a, n)
           real a(n)
           integer i, j, n
           do i = 1, n
             do j = i, n
               a(j) = a(j) * 2.0
             end do
           end do
         end",
        "subroutine broken(\nend",
    ];

    #[test]
    fn batch_matches_sequential_any_worker_count() {
        let ms = machines::all();
        let jobs: Vec<(&MachineDesc, &str)> = ms
            .iter()
            .flat_map(|m| KERNELS.iter().map(move |k| (m, *k)))
            .collect();
        let opts = PredictorOptions::default();
        let cache = Arc::new(TranslationCache::new());
        let sequential = predict_batch(&jobs, &opts, &cache, 1);
        for workers in [2, 4, 17] {
            let cache = Arc::new(TranslationCache::new());
            let parallel = predict_batch(&jobs, &opts, &cache, workers);
            assert_eq!(parallel.len(), sequential.len());
            for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
                match (p, s) {
                    (Ok(pv), Ok(sv)) => {
                        assert_eq!(pv.len(), sv.len(), "job {i}, workers={workers}");
                        for (a, b) in pv.iter().zip(sv) {
                            assert_eq!(a.total, b.total, "job {i}, workers={workers}");
                        }
                    }
                    (Err(_), Err(_)) => {}
                    other => panic!("job {i} diverged (workers={workers}): {other:?}"),
                }
            }
        }
    }

    #[test]
    fn workers_share_one_translation_cache() {
        let ms = machines::all();
        // The same kernel in every job: one miss per machine, everything
        // else served from the shared table regardless of which worker
        // translated it first.
        let jobs: Vec<(&MachineDesc, &str)> = ms
            .iter()
            .flat_map(|m| std::iter::repeat_n((m, KERNELS[0]), 6))
            .collect();
        let opts = PredictorOptions::default();
        let cache = Arc::new(TranslationCache::new());
        let workers = 4;
        let results = predict_batch(&jobs, &opts, &cache, workers);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(cache.len(), ms.len(), "one entry per (machine, program)");
        // Workers racing on the same first-touch may each translate it, so
        // every worker misses at most once per machine.
        assert!(cache.misses() >= ms.len() as u64);
        assert_eq!(cache.hits() + cache.misses(), jobs.len() as u64);
        assert!(cache.hits() >= (jobs.len() - workers * ms.len()) as u64);
    }

    #[test]
    fn empty_job_list() {
        let cache = Arc::new(TranslationCache::new());
        assert!(predict_batch(&[], &PredictorOptions::default(), &cache, 8).is_empty());
    }

    #[test]
    fn report_accounts_for_every_job() {
        let ms = machines::all();
        let jobs: Vec<(&MachineDesc, &str)> = ms
            .iter()
            .flat_map(|m| KERNELS.iter().map(move |k| (m, *k)))
            .collect();
        let opts = PredictorOptions::default();
        for workers in [1usize, 3, 8] {
            let cache = Arc::new(TranslationCache::new());
            let report = predict_batch_report(&jobs, &opts, &cache, workers);
            assert_eq!(report.results.len(), jobs.len());
            assert_eq!(report.workers.len(), workers.min(jobs.len()));
            let run: u64 = report.workers.iter().map(|w| w.jobs).sum();
            assert_eq!(run, jobs.len() as u64, "workers={workers}");
            let chunks: u64 = report.workers.iter().map(|w| w.chunks).sum();
            assert!(chunks >= 1);
            // Memo activity happened somewhere (prediction uses the
            // two-level memos for placement and algebra).
            assert!(report.memo_totals().lookups() > 0, "workers={workers}");
        }
    }

    #[test]
    fn stealing_covers_skewed_chunks() {
        // More chunks than workers: at least one worker must claim a
        // second chunk, and every index still comes back exactly once.
        let (results, stats) = fan_out(&(0..97).collect::<Vec<i32>>(), 3, |&x| x * 2);
        assert_eq!(results, (0..97).map(|x| x * 2).collect::<Vec<i32>>());
        assert_eq!(stats.iter().map(|w| w.jobs).sum::<u64>(), 97);
        assert!(stats.iter().map(|w| w.steals).sum::<u64>() > 0);
    }
}
