//! `search_session`: the shipped e-graph variant search, one caller
//! thread, over the session kernels and generated routines.
//!
//! The session is a fixed list of routines searched pass after pass; each
//! pass is one round and sets up its own predictors. Between routines the
//! session advances the epoch and evicts old translations, as the daemon
//! does between waves, so a routine searched again in a later pass finds
//! no translation or memo left from the pass before and every pass does
//! the same work.

use crate::gen::{self, stream};
use crate::predict::memo_layers;
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{Config, Rounds};
use presage_bench::kernels;
use presage_core::{Predictor, TranslationCache};
use presage_frontend::{parse, Subroutine};
use presage_machine::json::Json;
use presage_machine::{machines, MachineDesc};
use presage_opt::{search_cached, PredictionCache, SearchConfig, SearchResult};
use presage_symbolic::epoch;
use presage_symbolic::memo::{take_thread_stats, MemoStats};
use presage_symbolic::Symbol;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Evaluation points searched for every (routine, machine).
const POINTS: [f64; 2] = [64.0, 512.0];
/// Generated routines per pass, per searched shape.
const PER_SHAPE: u64 = 2;
/// Generator shapes searched. The triangular nest (shape 3) is left out:
/// tiling it yields a negative predicted cost, which the unpruned search
/// then picks as its winner, so pruned and unpruned winners disagree.
const SEARCH_SHAPES: [u64; 7] = [0, 1, 2, 4, 5, 6, 7];
/// Searches re-run with pruning off to check the pruned winner.
const PRUNE_CHECKS: usize = 8;

/// `SearchConfig::default()` (e-graph, heuristic and pruning on) at depth
/// 2 with 12 expansions, evaluated at `n`.
fn config(n: f64, prune: bool) -> SearchConfig {
    let mut c = SearchConfig::default();
    c.options.max_depth = 2;
    c.options.max_expansions = 12;
    c.options.eval_point = HashMap::from([("n".to_string(), n)]);
    c.prune = prune;
    c
}

/// One pass: MATMUL, JACOBI and F4, then [`PER_SHAPE`] generated routines
/// of each searched shape.
fn session_sources(seed: u64) -> Vec<String> {
    let mut sources: Vec<String> = [kernels::MATMUL, kernels::JACOBI, kernels::F4]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for k in 0..PER_SHAPE {
        for shape in SEARCH_SHAPES {
            sources.push(gen::routine(seed, stream::SEARCH, k * gen::SHAPES + shape));
        }
    }
    sources
}

fn parse_one(src: &str) -> Result<Subroutine, String> {
    parse(src)
        .map_err(|e| format!("session routine does not parse: {e}"))?
        .units
        .into_iter()
        .next()
        .ok_or_else(|| "session routine has no subroutine".to_string())
}

fn predictors(machines: &[MachineDesc]) -> Vec<Predictor> {
    machines
        .iter()
        .map(|m| {
            Predictor::new(m.clone()).with_translation_cache(Arc::new(TranslationCache::new()))
        })
        .collect()
}

/// A first-pass search, kept for the output checks.
struct Record {
    item: usize,
    machine: usize,
    n: f64,
    result: SearchResult,
    /// The winner's listing.
    listing: String,
}

/// `SearchResult` counters summed over every search, for the per-layer
/// split. Later passes keep only these, so memory does not grow with the
/// number of passes.
#[derive(Default)]
struct Totals {
    searches: u64,
    explored: u64,
    evaluated: u64,
    pruned: u64,
    merged: u64,
    rejected: u64,
    expansions: u64,
    found_at: u64,
    hits: u64,
    misses: u64,
}

impl Totals {
    fn add(&mut self, r: &SearchResult) {
        self.searches += 1;
        self.explored += explored(r);
        self.evaluated += r.evaluated as u64;
        self.pruned += r.pruned_variants as u64;
        self.merged += r.merged_variants as u64;
        self.rejected += r.rejected_variants as u64;
        self.expansions += r.expansions as u64;
        self.found_at += r.best_found_at as u64;
        self.hits += r.cache_hits;
        self.misses += r.cache_misses;
    }
}

#[derive(Default)]
struct Split {
    untraced_searches: u64,
    untraced_busy: Duration,
    traced_searches: u64,
    traced_busy: Duration,
    traced_explored: u64,
    parsed_bytes: u64,
    hits: u64,
    lookups: u64,
    memo: MemoStats,
}

fn explored(r: &SearchResult) -> u64 {
    (r.evaluated + r.merged_variants + r.rejected_variants + r.pruned_variants) as u64
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let machines = [machines::power_like(), machines::wide8()];
    let sources = session_sources(cfg.seed);
    let per_pass = sources.len() * machines.len() * POINTS.len();
    let mut out = Outcome::default();

    let warmup = parse_one(kernels::RB)?;
    let mut tracer = Tracer::new();
    let mut split = Split::default();
    let mut subs = Vec::new();
    let mut first: Vec<Record> = Vec::new();
    let mut totals = Totals::default();
    let mut rounds = Rounds::new(cfg.seconds);
    loop {
        // Each pass sets up its own session: predictors with their
        // translation caches, plus one search of a kernel the session does
        // not search.
        let session = rounds.set_up(|| {
            let ps = predictors(&machines);
            std::hint::black_box(search_cached(
                &warmup,
                &ps[0],
                &config(POINTS[0], true),
                &PredictionCache::new(),
            ));
            ps
        });
        let traced = cfg.trace && rounds.index() % 2 == 1;
        let mut busy = Duration::ZERO;
        for (item, src) in sources.iter().enumerate() {
            let start = Instant::now();
            let sub = parse_one(src);
            let end = Instant::now();
            let sub = sub?;
            busy += end - start;
            rounds.add(0, end - start);
            if traced {
                tracer.interval("frontend.parse", item as u64, start, end);
                split.parsed_bytes += src.len() as u64;
            }
            for (mi, p) in session.iter().enumerate() {
                // One prediction cache per (routine, machine), shared by
                // its evaluation points, as a restructurer asking about one
                // routine would keep.
                let pcache = PredictionCache::new();
                let cache = p
                    .translation_cache()
                    .ok_or("session predictor without a cache")?;
                for &n in &POINTS {
                    let (hits, misses) = (cache.hits(), cache.misses());
                    if traced {
                        take_thread_stats();
                    }
                    let start = Instant::now();
                    let result = search_cached(&sub, p, &config(n, true), &pcache);
                    let end = Instant::now();
                    let took = end - start;
                    busy += took;
                    let k = totals.searches as usize;
                    if traced {
                        tracer.interval("search", k as u64, start, end);
                        split.traced_searches += 1;
                        split.traced_explored += explored(&result);
                        split.hits += cache.hits() - hits;
                        split.lookups += cache.hits() + cache.misses() - hits - misses;
                        split.memo = split.memo.merged(&take_thread_stats());
                    } else {
                        split.untraced_searches += 1;
                    }
                    out.attempted += 1;
                    rounds.add(1, took);
                    rounds.sample(took.as_secs_f64() * 1e6);
                    totals.add(&result);
                    if let Some(again) = first.get(k % per_pass) {
                        if result.best_cost != again.result.best_cost
                            || result.best.to_string() != again.listing
                        {
                            out.mismatch(format!(
                                "routine {item} on {} at n={n}: pass {} found another winner than pass 1",
                                machines[mi].name(),
                                k / per_pass + 1
                            ));
                        }
                    } else {
                        first.push(Record {
                            item,
                            machine: mi,
                            n,
                            listing: result.best.to_string(),
                            result,
                        });
                    }
                }
            }
            if subs.len() < sources.len() {
                subs.push(sub);
            }
            // Between routines, one epoch advance plus translation
            // eviction, as the daemon runs between waves. Without it every
            // searched variant's translation stays cached (about 37 KB
            // each, 770 MB after six seconds).
            let start = Instant::now();
            let report = epoch::advance();
            for p in &session {
                if let Some(cache) = p.translation_cache() {
                    cache.evict_older_than(report.retire_before);
                }
            }
            let end = Instant::now();
            busy += end - start;
            rounds.add(0, end - start);
            if traced {
                tracer.interval("epoch.advance", item as u64, start, end);
            }
        }
        if traced {
            split.traced_busy += busy;
        } else {
            split.untraced_busy += busy;
        }
        if !rounds.end_round() {
            break;
        }
    }
    let rss = report::peak_rss_mb()?;
    let arena = presage_symbolic::arena_stats();
    let arena_entries = (arena.symbols + arena.monomials + arena.polynomials) as f64;
    let l2_entries = presage_core::l2_memo_entries() as f64;

    check(&first, &subs, &machines, cfg.seed, &mut out);
    let log_sum: f64 = first.iter().map(|r| r.result.speedup().ln()).sum();
    out.detail(
        "search_speedup_geomean",
        report::num((log_sum / first.len().max(1) as f64).exp()),
    );
    out.detail("searches", Json::Num(totals.searches as f64));
    let measured = rounds.finish();
    out.detail("rounds", measured.detail(90.0));
    if !cfg.trace {
        out.e2e = report::e2e_metrics(&measured, 90.0, rss);
        return Ok(out);
    }

    let t = &totals;
    let n = t.searches as usize;
    let mean = |v: u64| v as f64 / t.searches.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    out.layer("search.explored", mean(t.explored), n);
    out.layer("search.evaluated", mean(t.evaluated), n);
    out.layer("search.pruned_ratio", ratio(t.pruned, t.evaluated), n);
    out.layer("search.merged", mean(t.merged), n);
    out.layer("search.rejected", mean(t.rejected), n);
    out.layer("search.expansions", mean(t.expansions), n);
    out.layer("search.found_at", mean(t.found_at), n);
    out.layer("search.pred_cache_hit_ratio", ratio(t.hits, t.misses), n);
    let (search_time, searches) = tracer.total("search");
    out.layer(
        "search.us_per_explored",
        search_time.as_secs_f64() * 1e6 / split.traced_explored.max(1) as f64,
        searches as usize,
    );
    let (parse_time, parses) = tracer.total("frontend.parse");
    let traced_total = split.traced_busy.as_secs_f64().max(f64::MIN_POSITIVE);
    out.layer(
        "frontend.parse_us",
        parse_time.as_secs_f64() * 1e6 / parses.max(1) as f64,
        parses as usize,
    );
    out.layer(
        "frontend.parse_share",
        parse_time.as_secs_f64() / traced_total,
        parses as usize,
    );
    out.layer(
        "frontend.bytes_per_s",
        split.parsed_bytes as f64 / parse_time.as_secs_f64().max(f64::MIN_POSITIVE),
        parses as usize,
    );
    out.layer(
        "transcache.hit_ratio",
        split.hits as f64 / split.lookups.max(1) as f64,
        split.lookups as usize,
    );
    memo_layers(&mut out, &split.memo);
    out.layer("memo.l2_entries", l2_entries, 1);
    out.layer("arena.entries", arena_entries, 1);
    let (advance_time, advances) = tracer.total("epoch.advance");
    out.layer(
        "epoch.advance_us",
        advance_time.as_secs_f64() * 1e6 / advances.max(1) as f64,
        advances as usize,
    );
    let per = |d: Duration, k: u64| d.as_secs_f64() / k.max(1) as f64;
    let untraced = per(split.untraced_busy, split.untraced_searches).max(f64::MIN_POSITIVE);
    let covered = (parse_time + search_time + advance_time).as_secs_f64();
    let traced_n = split.traced_searches as usize;
    out.layer(
        "trace.coverage",
        covered / (untraced * split.traced_searches as f64).max(f64::MIN_POSITIVE),
        traced_n,
    );
    out.layer("trace.other_share", 1.0 - covered / traced_total, traced_n);
    out.layer(
        "trace.overhead_frac",
        per(split.traced_busy, split.traced_searches) / untraced - 1.0,
        traced_n,
    );
    if let Err(e) = tracer.dump(&cfg.trace_dir, "search_session") {
        eprintln!(
            "benchmark: cannot write spans to {}: {e}",
            cfg.trace_dir.display()
        );
    }
    Ok(out)
}

/// The first pass's winners, re-predicted by a fresh uncached predictor,
/// must cost exactly `best_cost` and be no worse than the original (later
/// passes are checked against them as they run); on a seeded sample, the
/// pruned winner must equal the unpruned one.
fn check(
    first: &[Record],
    subs: &[Subroutine],
    machines: &[MachineDesc],
    seed: u64,
    out: &mut Outcome,
) {
    for r in first {
        let m = &machines[r.machine];
        let at = HashMap::from([(Symbol::new("n"), r.n)]);
        match Predictor::new(m.clone()).predict_subroutine_cost(&r.result.best) {
            Ok(cost) if cost.eval_with_defaults(&at) == r.result.best_cost => {}
            Ok(cost) => out.mismatch(format!(
                "routine {} on {} at n={}: best_cost {} but re-predicted {}",
                r.item,
                m.name(),
                r.n,
                r.result.best_cost,
                cost.eval_with_defaults(&at)
            )),
            Err(e) => out.mismatch(format!("routine {}: winner does not predict: {e}", r.item)),
        }
        if r.result.best_cost > r.result.original_cost {
            out.mismatch(format!(
                "routine {} on {} at n={}: winner is worse than the original",
                r.item,
                m.name(),
                r.n
            ));
        }
    }
    let mut rng = gen::Rng::new(seed ^ 0x9a7e);
    let checks = first.len().min(PRUNE_CHECKS);
    for _ in 0..checks {
        let r = &first[rng.below(first.len() as u64) as usize];
        let p = Predictor::new(machines[r.machine].clone());
        let unpruned = search_cached(
            &subs[r.item],
            &p,
            &config(r.n, false),
            &PredictionCache::new(),
        );
        if unpruned.best.to_string() != r.listing {
            out.mismatch(format!(
                "routine {} on {} at n={}: pruned winner (cost {}) differs from the unpruned one (cost {})",
                r.item,
                machines[r.machine].name(),
                r.n,
                r.result.best_cost,
                unpruned.best_cost
            ));
        }
    }
    out.detail("prune_checks", Json::Num(checks as f64));
}
