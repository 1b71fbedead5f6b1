//! `predict_cold` and `predict_warm`: one caller thread driving
//! `Predictor::predict_source` on five machines that share one
//! `TranslationCache`.

use crate::gen::{self, stream};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{five_machines, Config, Reservoir, Rounds};
use presage_bench::kernels::translate_kernel;
use presage_core::aggregate::AggregateOptions;
use presage_core::memcost::{mem_cost, mem_cost_fresh};
use presage_core::refagg::reference_aggregate;
use presage_core::tetris::{place_block, PlaceOptions};
use presage_core::{PredictError, Prediction, Predictor, TranslationCache};
use presage_frontend::parse;
use presage_machine::json::Json;
use presage_machine::{machines, MachineDesc};
use presage_symbolic::epoch;
use presage_symbolic::memo::{take_thread_stats, MemoStats};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Routines between epoch advances in `predict_cold`, as the server
/// advances once per 64-job wave.
const CHUNK: u64 = 64;
/// Distinct routines in `predict_cold`'s set-up warm pass.
const COLD_WARMUP: u64 = 256;
/// Routines in `predict_warm`'s working set.
const WORKING_SET: u64 = 64;
/// Jobs whose outputs are checked against the oracles.
const SAMPLE: usize = 512;
/// Routines whose innermost blocks give `block_err_pct` (× 4 machines).
const BLOCK_ROUTINES: u64 = 128;

struct Session {
    cache: Arc<TranslationCache>,
    predictors: Vec<Predictor>,
}

impl Session {
    fn new(machines: &[MachineDesc]) -> Session {
        let cache = Arc::new(TranslationCache::new());
        let predictors = machines
            .iter()
            .map(|m| Predictor::new(m.clone()).with_translation_cache(Arc::clone(&cache)))
            .collect();
        Session { cache, predictors }
    }

    /// One epoch advance plus translation eviction, as the daemon runs
    /// between waves. Returns polynomials reclaimed and entries evicted.
    fn advance(&self) -> (u64, u64) {
        let report = epoch::advance();
        let polys = report
            .reclaimed
            .iter()
            .filter(|r| r.name == "poly")
            .map(|r| r.reclaimed as u64)
            .sum();
        let evicted = self.cache.evict_older_than(report.retire_before) as u64;
        (polys, evicted)
    }
}

struct Sample {
    source: String,
    machine: usize,
    prediction: Prediction,
}

/// What the traced rounds add up.
#[derive(Default)]
struct Split {
    untraced_jobs: u64,
    untraced_busy: Duration,
    traced_jobs: u64,
    traced_busy: Duration,
    parsed_bytes: u64,
    hits: u64,
    misses: u64,
    memo: MemoStats,
}

/// `parse`, `TranslationCache::translated`, `memcost::mem_cost` and
/// `predict_ir` in the order `predict_source` makes them, each in its own
/// span. The memory model is costed just before `predict_ir`, so the
/// call inside it is a memo hit and its time lands in `memcost`.
fn traced_job(
    p: &Predictor,
    cache: &TranslationCache,
    src: &str,
    tr: &mut Tracer,
    req: u64,
) -> (Duration, Result<Vec<Prediction>, PredictError>) {
    let job = tr.open("predict", req, None);
    let span = tr.open("frontend.parse", req, Some(&job));
    let parsed = parse(src);
    tr.close(span);
    let result = parsed.map_err(PredictError::from).and_then(|program| {
        let mut out = Vec::with_capacity(program.units.len());
        for sub in &program.units {
            let span = tr.open("translate", req, Some(&job));
            let ir = cache.translated(sub, p.machine());
            tr.close(span);
            let ir = ir?;
            if let Some(c) = &p.machine().cache {
                let span = tr.open("memcost", req, Some(&job));
                black_box(mem_cost(&ir, c, &p.options().aggregate));
                tr.close(span);
            }
            let span = tr.open("aggregate", req, Some(&job));
            out.push(p.predict_ir(sub.name.clone(), (*ir).clone()));
            tr.close(span);
        }
        Ok(out)
    });
    (tr.close(job), result)
}

/// One set-up: the predictors, then the warm pass over `sources`, with an
/// advance every [`CHUNK`] routines when cold.
fn set_up(machines: &[MachineDesc], sources: &[String], warm: bool, out: &mut Outcome) -> Session {
    let s = Session::new(machines);
    for (k, src) in sources.iter().enumerate() {
        for p in &s.predictors {
            out.attempted += 1;
            if black_box(p.predict_source(src)).is_err() {
                out.failed += 1;
            }
        }
        if !warm && (k as u64 + 1).is_multiple_of(CHUNK) {
            s.advance();
        }
    }
    s
}

pub fn run(cfg: &Config, warm: bool) -> Result<Outcome, String> {
    let machines = five_machines()?;
    let mut out = Outcome::default();
    let seed = cfg.seed;
    let routines = |s_stream: u64, from: u64, n: u64| -> Vec<String> {
        (from..from + n)
            .map(|i| gen::routine(seed, s_stream, i))
            .collect()
    };
    let working_set = routines(stream::WARM, 0, WORKING_SET);

    let mut tracer = Tracer::new();
    let mut split = Split::default();
    let mut reservoir = Reservoir::new(SAMPLE, seed);
    let mut order = gen::Rng::new(seed ^ 0x5eed);
    let (mut advances, mut advance_busy) = (0u64, Duration::ZERO);
    let (mut reclaimed_polys, mut evicted) = (0u64, 0u64);
    let n_machines = machines.len();
    let mut chunk: Vec<String> = Vec::new();
    let mut next = 0u64;
    let mut req = 0u64;
    let mut rounds = Rounds::new(cfg.seconds);
    'window: loop {
        // Each round sets up its own session: the predictors and a warm
        // pass over the working set (warm) or over routines of its own
        // (cold).
        let round = rounds.index();
        let setup_sources = if warm {
            working_set.clone()
        } else {
            routines(stream::COLD_SETUP, round as u64 * COLD_WARMUP, COLD_WARMUP)
        };
        let session = rounds.set_up(|| set_up(&machines, &setup_sources, warm, &mut out));
        let traced = cfg.trace && round % 2 == 1;
        while rounds.index() == round {
            // A chunk: 64 fresh routines on every machine (cold), or 64 jobs
            // drawn from the working set (warm), as (machine, source) index
            // pairs. Inputs are made before the chunk's clock starts.
            let jobs: Vec<(usize, usize)> = if warm {
                (0..CHUNK)
                    .map(|_| {
                        let i = order.below(WORKING_SET * n_machines as u64) as usize;
                        (i % n_machines, i / n_machines)
                    })
                    .collect()
            } else {
                chunk = (next..next + CHUNK)
                    .map(|i| gen::routine(seed, stream::COLD, i))
                    .collect();
                next += CHUNK;
                (0..chunk.len())
                    .flat_map(|k| (0..n_machines).map(move |m| (m, k)))
                    .collect()
            };
            let sources = if warm { &working_set } else { &chunk };
            if traced {
                take_thread_stats();
            }
            let (hits, misses) = (session.cache.hits(), session.cache.misses());
            let mut busy = Duration::ZERO;
            for &(mi, k) in &jobs {
                let src = &sources[k];
                let p = &session.predictors[mi];
                req += 1;
                let (took, result) = if traced {
                    split.parsed_bytes += src.len() as u64;
                    traced_job(p, &session.cache, src, &mut tracer, req)
                } else {
                    let start = Instant::now();
                    let r = p.predict_source(src);
                    (start.elapsed(), r)
                };
                busy += took;
                rounds.sample(took.as_secs_f64() * 1e6);
                out.attempted += 1;
                match result {
                    Ok(mut preds) if !preds.is_empty() => reservoir.offer(|| Sample {
                        source: src.clone(),
                        machine: mi,
                        prediction: preds.swap_remove(0),
                    }),
                    Ok(_) => {
                        out.failed += 1;
                        out.mismatch(format!(
                            "no prediction for a routine on {}",
                            machines[mi].name()
                        ));
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.mismatch(format!("{} failed: {e}", machines[mi].name()));
                    }
                }
            }
            if !warm {
                let start = Instant::now();
                let (polys, ev) = session.advance();
                let end = Instant::now();
                if traced {
                    tracer.interval("epoch.advance", req, start, end);
                }
                let took = end - start;
                busy += took;
                advances += 1;
                advance_busy += took;
                reclaimed_polys += polys;
                evicted += ev;
            }
            if traced {
                split.traced_jobs += jobs.len() as u64;
                split.traced_busy += busy;
                split.hits += session.cache.hits() - hits;
                split.misses += session.cache.misses() - misses;
                split.memo = split.memo.merged(&take_thread_stats());
            } else {
                split.untraced_jobs += jobs.len() as u64;
                split.untraced_busy += busy;
            }
            rounds.add(jobs.len() as u64, busy);
            if !rounds.tick() {
                break 'window;
            }
        }
    }
    let rss = report::peak_rss_mb()?;
    let arena = presage_symbolic::arena_stats();
    let arena_entries = (arena.symbols + arena.monomials + arena.polynomials) as f64;
    let l2_entries = presage_core::l2_memo_entries() as f64;

    // Output checks, untimed.
    let samples = reservoir.into_items();
    check_samples(&samples, &machines, &mut out);
    out.detail("checked_jobs", Json::Num(samples.len() as f64));
    if !warm {
        match block_error_pct(seed) {
            Ok((pct, blocks)) => {
                out.detail("block_err_pct", report::num(pct));
                out.detail("block_err_blocks", Json::Num(blocks as f64));
            }
            Err(e) => out.mismatch(e),
        }
    }

    out.detail("jobs", Json::Num(rounds.taken() as f64));
    let measured = rounds.finish();
    out.detail("rounds", measured.detail(90.0));
    if !cfg.trace {
        out.e2e = report::e2e_metrics(&measured, 90.0, rss);
        return Ok(out);
    }

    // Per-layer split of the traced rounds against the untraced ones.
    let per_job = |d: Duration, n: u64| d.as_secs_f64() / n.max(1) as f64;
    let untraced = per_job(split.untraced_busy, split.untraced_jobs);
    let traced_total = split.traced_busy.as_secs_f64();
    let secs = |name: &str| tracer.total(name).0.as_secs_f64();
    let mean_us = |name: &str| {
        let (d, n) = tracer.total(name);
        d.as_secs_f64() * 1e6 / n.max(1) as f64
    };
    let share = |name: &str| secs(name) / traced_total.max(f64::MIN_POSITIVE);
    let layers = [
        "frontend.parse",
        "translate",
        "memcost",
        "aggregate",
        "epoch.advance",
    ];
    let covered: f64 = layers.iter().map(|l| secs(l)).sum();
    let count = |name: &str| tracer.total(name).1 as usize;
    out.layer(
        "frontend.parse_us",
        mean_us("frontend.parse"),
        count("frontend.parse"),
    );
    out.layer(
        "frontend.parse_share",
        share("frontend.parse"),
        count("frontend.parse"),
    );
    out.layer(
        "frontend.bytes_per_s",
        split.parsed_bytes as f64 / secs("frontend.parse").max(f64::MIN_POSITIVE),
        count("frontend.parse"),
    );
    out.layer("translate.us", mean_us("translate"), count("translate"));
    out.layer("translate.share", share("translate"), count("translate"));
    let lookups = split.hits + split.misses;
    out.layer(
        "transcache.hit_ratio",
        split.hits as f64 / lookups.max(1) as f64,
        lookups as usize,
    );
    out.layer("transcache.evicted", evicted as f64, advances as usize);
    out.layer("aggregate.us", mean_us("aggregate"), count("aggregate"));
    out.layer("aggregate.share", share("aggregate"), count("aggregate"));
    out.layer("memcost.us", mean_us("memcost"), count("memcost"));
    out.layer("memcost.share", share("memcost"), count("memcost"));
    memo_layers(&mut out, &split.memo);
    out.layer("memo.l2_entries", l2_entries, 1);
    out.layer(
        "epoch.advance_us",
        advance_busy.as_secs_f64() * 1e6 / advances.max(1) as f64,
        advances as usize,
    );
    out.layer(
        "epoch.reclaimed_polys",
        reclaimed_polys as f64,
        advances as usize,
    );
    out.layer("arena.entries", arena_entries, 1);
    let traced_jobs = split.traced_jobs as usize;
    out.layer(
        "trace.coverage",
        covered / (untraced * split.traced_jobs as f64).max(f64::MIN_POSITIVE),
        traced_jobs,
    );
    out.layer(
        "trace.other_share",
        1.0 - covered / traced_total.max(f64::MIN_POSITIVE),
        traced_jobs,
    );
    out.layer(
        "trace.overhead_frac",
        per_job(split.traced_busy, split.traced_jobs) / untraced.max(f64::MIN_POSITIVE) - 1.0,
        traced_jobs,
    );
    let name = if warm { "predict_warm" } else { "predict_cold" };
    if let Err(e) = tracer.dump(&cfg.trace_dir, name) {
        eprintln!(
            "benchmark: cannot write spans to {}: {e}",
            cfg.trace_dir.display()
        );
    }
    Ok(out)
}

/// Memo hit ratios from drained thread counters.
pub fn memo_layers(out: &mut Outcome, memo: &MemoStats) {
    let total = (memo.l1_hits + memo.l2_hits + memo.misses).max(1) as f64;
    let n = total as usize;
    out.layer("memo.l1_hit_ratio", memo.l1_hits as f64 / total, n);
    out.layer("memo.l2_hit_ratio", memo.l2_hits as f64 / total, n);
    out.layer("memo.miss_ratio", memo.misses as f64 / total, n);
}

/// Every sampled job against the oracles: the total against a predictor
/// with no translation cache, the compute cost against the seed symbolic
/// engine, and (cache machines) the memory cost against the uncached
/// line count.
fn check_samples(samples: &[Sample], machines: &[MachineDesc], out: &mut Outcome) {
    let opts = AggregateOptions::default();
    for s in samples {
        let m = &machines[s.machine];
        let p = &s.prediction;
        match Predictor::new(m.clone()).predict_source(&s.source) {
            Ok(preds)
                if preds.first().map(|o| o.total.to_string()) == Some(p.total.to_string()) => {}
            Ok(preds) => out.mismatch(format!(
                "{} on {}: total {} but the uncached predictor says {:?}",
                p.name,
                m.name(),
                p.total,
                preds.first().map(|o| o.total.to_string())
            )),
            Err(e) => out.mismatch(format!(
                "{} on {}: uncached predictor failed: {e}",
                p.name,
                m.name()
            )),
        }
        let reference = reference_aggregate(&p.ir, m, &opts);
        if reference.to_string() != p.compute.to_string() {
            out.mismatch(format!(
                "{} on {}: compute {} but the seed engine says {reference}",
                p.name,
                m.name(),
                p.compute
            ));
        }
        if let Some(cache) = &m.cache {
            let fresh = mem_cost_fresh(&p.ir, cache, &opts).cycles.to_string();
            if p.memcost.as_ref().map(|mc| mc.cycles.to_string()) != Some(fresh.clone()) {
                out.mismatch(format!(
                    "{} on {}: memory cycles differ from the uncached count {fresh}",
                    p.name,
                    m.name()
                ));
            }
        }
    }
}

/// Mean |Tetris placement − simulator makespan| / makespan over the
/// innermost blocks of the first [`BLOCK_ROUTINES`] timed routines on the
/// four built-in machines, in percent: the paper's Figure 7 precision
/// over this seed's routines. Independent of run length.
fn block_error_pct(seed: u64) -> Result<(f64, usize), String> {
    let (mut sum, mut blocks) = (0.0, 0usize);
    for i in 0..BLOCK_ROUTINES {
        let src = gen::routine(seed, stream::COLD, i);
        for m in machines::all() {
            let ir = translate_kernel(&src, &m);
            let Some(block) = ir.innermost_block() else {
                continue;
            };
            let placed = place_block(&m, block, PlaceOptions::default()).completion;
            let sim = presage_sim::simulate_block(&m, block)
                .map_err(|e| format!("simulator failed on routine {i}, {}: {e}", m.name()))?
                .makespan;
            if sim > 0 {
                sum += (placed as f64 - sim as f64).abs() / sim as f64;
                blocks += 1;
            }
        }
    }
    Ok((sum / blocks.max(1) as f64 * 100.0, blocks))
}
