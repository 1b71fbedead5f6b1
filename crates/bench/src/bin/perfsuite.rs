//! In-tree performance suite: throughput of the predictor itself.
//!
//! Tools in this lineage treat predictor throughput as a first-class
//! metric; `perfsuite` measures the six hot paths this repo optimizes —
//! Tetris placement, end-to-end prediction throughput, the symbolic
//! engine, the translation cache, the A* transformation search, and the
//! event-driven reference simulator — against the preserved seed
//! implementations, and writes the numbers to `BENCH_placement.json`. No
//! external dependencies: timing is `std::time::Instant`, output is the
//! hand-rolled JSON writer.
//!
//! Usage:
//!
//! ```text
//! perfsuite [--smoke] [--batch-only] [--search-only] [--server-only] [--memory-only] [--out PATH]
//! ```
//!
//! `--smoke` runs a fast sanity pass (no timing thresholds, tiny
//! workloads) for CI; the full run enforces the targets (≥3× placement
//! ops/sec on wide8, ≥5× predictions/sec on wide8 and ≥8× on risc1,
//! ≥1.5× source-level predictions/sec on wide8 with a warmed translation
//! cache, ≥2× A* wall-time, ≥3× variants/sec for the structural e-graph
//! engine over the textual A* baseline on wide8, ≥4× event-driven
//! simulator sims/sec vs the cycle-driven reference on wide8, and two
//! batch-scaling floors: on hosts with ≥4 cores `predict_batch`
//! throughput must be monotonically non-decreasing from 1→4 workers, and
//! on hosts with ≥8 cores the 8-worker speedup must be ≥3× the single
//! worker) and exits nonzero when missed. The soak footprint ceilings
//! (interned arena + L2 memo entries after a batch of distinct generated
//! programs) are deterministic and enforced in every mode. `--batch-only`
//! runs just the batch-scaling rows and the soak check — the CI scaling
//! gate — without touching the output file. `--search-only` runs just the
//! variant-search rows and writes `BENCH_search.json` — the CI gate for
//! the structural search engine. `--server-only` runs the server-loop
//! soak — ≥192 distinct programs through `presage_server::Server` with
//! epoch advances between waves, every response checked bit-identical
//! against a fresh uncached predictor, and the arena + L2 footprint
//! ceilings enforced after reclamation — and writes `BENCH_server.json`.
//! `--memory-only` runs just the §2.3 memory-model rows — memoized
//! `mem_cost` throughput ≥2× the naive per-nest recount on wide8, plus
//! the memory-vs-compute split per Figure 7 kernel — and writes
//! `BENCH_memory.json`.
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

struct Config {
    smoke: bool,
    batch_only: bool,
    search_only: bool,
    server_only: bool,
    memory_only: bool,
    out: String,
    search_out: String,
    server_out: String,
    memory_out: String,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        batch_only: false,
        search_only: false,
        server_only: false,
        memory_only: false,
        out: "BENCH_placement.json".to_string(),
        search_out: "BENCH_search.json".to_string(),
        server_out: "BENCH_server.json".to_string(),
        memory_out: "BENCH_memory.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => cfg.smoke = true,
            "--batch-only" => cfg.batch_only = true,
            "--search-only" => cfg.search_only = true,
            "--server-only" => cfg.server_only = true,
            "--memory-only" => cfg.memory_only = true,
            "--out" => match args.next() {
                Some(path) => cfg.out = path,
                None => {
                    eprintln!("--out takes a path; see --help");
                    std::process::exit(2);
                }
            },
            "--search-out" => match args.next() {
                Some(path) => cfg.search_out = path,
                None => {
                    eprintln!("--search-out takes a path; see --help");
                    std::process::exit(2);
                }
            },
            "--server-out" => match args.next() {
                Some(path) => cfg.server_out = path,
                None => {
                    eprintln!("--server-out takes a path; see --help");
                    std::process::exit(2);
                }
            },
            "--memory-out" => match args.next() {
                Some(path) => cfg.memory_out = path,
                None => {
                    eprintln!("--memory-out takes a path; see --help");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: perfsuite [--smoke] [--batch-only] [--search-only] [--server-only] [--memory-only] [--out PATH] [--search-out PATH] [--server-out PATH] [--memory-out PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; see --help");
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// Labeled bench abort: an unusable input (a kernel that stopped
/// parsing, a simulator that fails to converge, a soak response that
/// went missing) fails the perf gate with a diagnosis naming the bench
/// and the job, never a panic backtrace.
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

/// Runs `work` repeatedly until `budget` elapses, returning the measured
/// throughput denominator: (units of work done, elapsed seconds).
fn time_until<F: FnMut() -> u64>(budget: Duration, mut work: F) -> (u64, f64) {
    let start = Instant::now();
    let mut done = 0u64;
    loop {
        done += work();
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return (done, elapsed.as_secs_f64());
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

struct PlacementRow {
    machine: String,
    naive_ops_per_sec: f64,
    opt_ops_per_sec: f64,
    speedup: f64,
}

fn bench_placement(budget: Duration) -> Vec<PlacementRow> {
    let mut rows = Vec::new();
    for machine in machines::all() {
        let blocks = placement_blocks(&machine);
        // Warm up both paths once so first-touch allocation is off-clock.
        placement_round(&machine, &blocks, true);
        placement_round(&machine, &blocks, false);
        let (naive_ops, naive_s) = time_until(budget, || placement_round(&machine, &blocks, true));
        let (opt_ops, opt_s) = time_until(budget, || placement_round(&machine, &blocks, false));
        let naive_rate = naive_ops as f64 / naive_s;
        let opt_rate = opt_ops as f64 / opt_s;
        rows.push(PlacementRow {
            machine: machine.name().to_string(),
            naive_ops_per_sec: naive_rate,
            opt_ops_per_sec: opt_rate,
            speedup: opt_rate / naive_rate,
        });
    }
    rows
}

/// The restructuring workload of §3.2: the compiler re-predicts program
/// variants over and over, so throughput is predictions completed per
/// second over pre-translated IR — the optimized engine
/// ([`Predictor::predict_cost`], warmed scheduling memo and symbolic
/// caches, its steady state) against the seed aggregation walk
/// ([`reference_aggregate`], which has none of either, *its* steady
/// state).
struct PredictionRow {
    machine: String,
    ref_preds_per_sec: f64,
    opt_preds_per_sec: f64,
    speedup: f64,
}

fn prediction_irs(machine: &MachineDesc) -> Vec<ProgramIr> {
    figure7()
        .iter()
        .map(|k| kernels::translate_kernel(k.source, machine))
        .collect()
}

fn bench_prediction(budget: Duration) -> Vec<PredictionRow> {
    let mut rows = Vec::new();
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
        let (opt_n, opt_s) = time_until(budget, || {
            for ir in &irs {
                black_box(predictor.predict_cost(ir));
            }
            irs.len() as u64
        });
        let (ref_n, ref_s) = time_until(budget, || {
            for ir in &irs {
                black_box(reference_aggregate(ir, &machine, &opts));
            }
            irs.len() as u64
        });
        let ref_rate = ref_n as f64 / ref_s;
        let opt_rate = opt_n as f64 / opt_s;
        rows.push(PredictionRow {
            machine: machine.name().to_string(),
            ref_preds_per_sec: ref_rate,
            opt_preds_per_sec: opt_rate,
            speedup: opt_rate / ref_rate,
        });
    }
    rows
}

/// Parallel batch prediction: [`Predictor::predict_batch_report`] over
/// the full `(machine, kernel)` cross product with one shared (sharded)
/// [`TranslationCache`], the sharded polynomial arena, and the sharded L2
/// memo tables, at several worker counts. Workers re-spawn per round
/// (scoped threads), so each round pays realistic per-thread warm-up —
/// thread-local L1 memos start empty every round and refill from the L2,
/// which is exactly the contention the sharded design absorbs.
struct BatchRow {
    workers: usize,
    preds_per_sec: f64,
    /// Two-level memo telemetry summed over all rounds at this count.
    l1_hits: u64,
    l2_hits: u64,
    misses: u64,
    /// Work-stealing chunk claims beyond each worker's first.
    steals: u64,
}

const BATCH_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_batch(budget: Duration) -> Vec<BatchRow> {
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
    let mut rows = Vec::new();
    for workers in BATCH_WORKER_COUNTS {
        let mut memo = MemoStats::default();
        let mut steals = 0u64;
        let (n, s) = time_until(budget, || {
            let report = Predictor::predict_batch_report(&jobs, &opts, &cache, workers);
            black_box(&report.results);
            memo = memo.merged(&report.memo_totals());
            steals += report.total_steals();
            jobs.len() as u64
        });
        rows.push(BatchRow {
            workers,
            preds_per_sec: n as f64 / s,
            l1_hits: memo.l1_hits,
            l2_hits: memo.l2_hits,
            misses: memo.misses,
            steals,
        });
    }
    rows
}

/// Soak check toward the prediction-as-a-service roadmap item: many
/// *distinct* generated programs through `predict_batch`, then assert the
/// process-wide interned arena and L2 memo footprint stay under fixed
/// ceilings. Distinct shapes stress the cap-clear and content-fallback
/// paths under concurrency — a leak here means a long-lived server grows
/// without bound.
struct SoakResult {
    programs: usize,
    jobs: usize,
    arena_symbols: usize,
    arena_monomials: usize,
    arena_polynomials: usize,
    l2_entries: usize,
    ok: bool,
}

/// Arena entries (symbols + monomials + polynomials) after the soak must
/// stay under this — far below the `POLY_ARENA_CAP` backstop, so growth
/// per distinct program is what is actually being bounded.
const SOAK_ARENA_CEILING: usize = 400_000;
/// L2 memo entries after the soak; the per-shard caps bound this by
/// construction (~90k across all tables), so the ceiling catches any
/// future unbounded L2.
const SOAK_L2_CEILING: usize = 100_000;

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

fn bench_soak(smoke: bool) -> SoakResult {
    let n_programs = if smoke { 48 } else { 192 };
    let machines = machines::all();
    let programs: Vec<String> = (0..n_programs).map(soak_program).collect();
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
    let arena = presage_symbolic::arena_stats();
    let l2_entries = presage_core::l2_memo_entries();
    let arena_total = arena.symbols + arena.monomials + arena.polynomials;
    SoakResult {
        programs: n_programs,
        jobs: jobs.len(),
        arena_symbols: arena.symbols,
        arena_monomials: arena.monomials,
        arena_polynomials: arena.polynomials,
        l2_entries,
        ok: arena_total <= SOAK_ARENA_CEILING && l2_entries <= SOAK_L2_CEILING,
    }
}

/// Server-loop soak: the epoch-reclamation acceptance gate. Drives every
/// distinct generated program through [`presage_server::Server`] over the
/// real JSON-lines wire format, with epoch advances (and translation
/// generation eviction) between waves, then checks three things:
///
/// 1. **Bit-identity.** Every response cost equals a fresh, uncached
///    predictor's answer for the same `(machine, program)` — computed
///    before the server ran, so reclamation mid-stream cannot have bent
///    a prediction. A post-run re-check on recycled arena slots proves
///    the oracle still agrees *after* the last reclamation.
/// 2. **Epochs.** The run must span at least [`SERVER_SOAK_MIN_ADVANCES`]
///    epoch advances, so reclamation actually exercised the id-recycling
///    paths rather than idling.
/// 3. **Footprint.** The interned arena and L2 memo entries after the
///    run obey the same ceilings as the batch soak — a long-lived server
///    must not grow with the distinct-program count it has ever seen.
struct ServerSoakResult {
    programs: usize,
    jobs: usize,
    waves: u64,
    advances: u64,
    latency_p50_us: u64,
    latency_p99_us: u64,
    translation_hits: u64,
    translation_misses: u64,
    translations_evicted: u64,
    memo: MemoStats,
    polys_reclaimed: u64,
    blocks_reclaimed: u64,
    sched_entries_cleared: u64,
    arena_symbols: usize,
    arena_monomials: usize,
    arena_polynomials: usize,
    l2_entries: usize,
    ok: bool,
}

/// The soak must reclaim across at least this many epochs to count.
const SERVER_SOAK_MIN_ADVANCES: u64 = 3;

fn bench_server_soak(smoke: bool) -> ServerSoakResult {
    use presage_server::{Server, ServerConfig};
    let n_programs = if smoke { 48 } else { 192 };
    let machines = machines::all();
    let programs: Vec<String> = (0..n_programs).map(soak_program).collect();
    let n_jobs = n_programs * machines.len();

    // The uncached oracle, computed before the server touches anything:
    // fresh sema + translation + aggregation per job, no shared caches.
    let oracle: Vec<Vec<String>> = programs
        .iter()
        .enumerate()
        .map(|(pi, src)| {
            machines
                .iter()
                .map(|m| {
                    let preds = Predictor::new(m.clone())
                        .predict_source(src)
                        .unwrap_or_else(|e| {
                            bail(format!(
                                "server soak oracle: program {pi} on {}: {e}",
                                m.name()
                            ))
                        });
                    match preds.first() {
                        Some(p) => p.total.to_string(),
                        None => bail(format!(
                            "server soak oracle: program {pi} on {}: no predictions",
                            m.name()
                        )),
                    }
                })
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
    let mut out: Vec<u8> = Vec::new();
    let stats = server
        .run(std::io::Cursor::new(input.into_bytes()), &mut out)
        .unwrap_or_else(|e| bail(format!("server soak: in-memory server run failed: {e}")));

    // Every response must be ok and bit-identical to its oracle.
    let text = String::from_utf8(out)
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
    for (pi, src) in programs.iter().enumerate().take(n_programs.min(24)) {
        for (mi, m) in machines.iter().enumerate() {
            let preds = Predictor::new(m.clone())
                .predict_source(src)
                .unwrap_or_else(|e| {
                    bail(format!(
                        "server soak re-check: program {pi} on {}: {e}",
                        m.name()
                    ))
                });
            let fresh = match preds.first() {
                Some(p) => p.total.to_string(),
                None => bail(format!(
                    "server soak re-check: program {pi} on {}: no predictions",
                    m.name()
                )),
            };
            if fresh != oracle[pi][mi] {
                bail(format!(
                    "server soak: post-reclaim divergence (program {pi}, machine {mi}): \
                     got {fresh}, expected {}",
                    oracle[pi][mi]
                ));
            }
        }
    }

    let arena = presage_symbolic::arena_stats();
    let l2_entries = presage_core::l2_memo_entries();
    let arena_total = arena.symbols + arena.monomials + arena.polynomials;
    ServerSoakResult {
        programs: n_programs,
        jobs: n_jobs,
        waves: stats.waves,
        advances: stats.advances,
        latency_p50_us: stats.latency.p50_us,
        latency_p99_us: stats.latency.p99_us,
        translation_hits: stats.translation_hits,
        translation_misses: stats.translation_misses,
        translations_evicted: stats.translations_evicted,
        memo: stats.memo,
        polys_reclaimed: stats.polys_reclaimed,
        blocks_reclaimed: stats.blocks_reclaimed,
        sched_entries_cleared: stats.sched_entries_cleared,
        arena_symbols: arena.symbols,
        arena_monomials: arena.monomials,
        arena_polynomials: arena.polynomials,
        l2_entries,
        ok: stats.advances >= SERVER_SOAK_MIN_ADVANCES
            && arena_total <= SOAK_ARENA_CEILING
            && l2_entries <= SOAK_L2_CEILING,
    }
}

/// Runs the server-loop soak, writes `BENCH_server.json`, and returns
/// whether the epoch/footprint gate held. Bit-identity violations panic
/// inside [`bench_server_soak`] — a wrong answer is a bug, not a missed
/// target.
fn run_server_bench(cfg: &Config) -> bool {
    eprintln!(
        "perfsuite: server soak ({} mode, JSON-lines loop, epoch advance per 64 jobs)",
        if cfg.smoke { "smoke" } else { "full" }
    );
    let soak = bench_server_soak(cfg.smoke);
    eprintln!(
        "  {} programs × {} jobs over {} waves, {} advances: p50 {}us p99 {}us",
        soak.programs,
        soak.jobs,
        soak.waves,
        soak.advances,
        soak.latency_p50_us,
        soak.latency_p99_us
    );
    eprintln!(
        "  reclaimed {} polys, {} blocks, {} sched entries; evicted {} translations ({} hits / {} misses)",
        soak.polys_reclaimed,
        soak.blocks_reclaimed,
        soak.sched_entries_cleared,
        soak.translations_evicted,
        soak.translation_hits,
        soak.translation_misses
    );
    eprintln!(
        "  footprint after reclaim: arena {} syms + {} monos + {} polys, L2 memos {} entries  ({})",
        soak.arena_symbols,
        soak.arena_monomials,
        soak.arena_polynomials,
        soak.l2_entries,
        if soak.ok {
            "within ceilings"
        } else {
            "OVER CEILING / TOO FEW EPOCHS"
        }
    );
    let report = Json::Obj(vec![
        ("schema".into(), Json::Str("presage-server-bench-v1".into())),
        (
            "mode".into(),
            Json::Str(if cfg.smoke { "smoke" } else { "full" }.into()),
        ),
        ("programs".into(), Json::Num(soak.programs as f64)),
        ("jobs".into(), Json::Num(soak.jobs as f64)),
        ("waves".into(), Json::Num(soak.waves as f64)),
        ("advances".into(), Json::Num(soak.advances as f64)),
        (
            "latency_us".into(),
            Json::Obj(vec![
                ("p50".into(), Json::Num(soak.latency_p50_us as f64)),
                ("p99".into(), Json::Num(soak.latency_p99_us as f64)),
            ]),
        ),
        (
            "translation".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(soak.translation_hits as f64)),
                ("misses".into(), Json::Num(soak.translation_misses as f64)),
                (
                    "evicted".into(),
                    Json::Num(soak.translations_evicted as f64),
                ),
            ]),
        ),
        (
            "memo".into(),
            Json::Obj(vec![
                ("l1_hits".into(), Json::Num(soak.memo.l1_hits as f64)),
                ("l2_hits".into(), Json::Num(soak.memo.l2_hits as f64)),
                ("misses".into(), Json::Num(soak.memo.misses as f64)),
            ]),
        ),
        (
            "reclaimed".into(),
            Json::Obj(vec![
                ("polys".into(), Json::Num(soak.polys_reclaimed as f64)),
                ("blocks".into(), Json::Num(soak.blocks_reclaimed as f64)),
                (
                    "sched_entries".into(),
                    Json::Num(soak.sched_entries_cleared as f64),
                ),
            ]),
        ),
        (
            "footprint".into(),
            Json::Obj(vec![
                ("arena_symbols".into(), Json::Num(soak.arena_symbols as f64)),
                (
                    "arena_monomials".into(),
                    Json::Num(soak.arena_monomials as f64),
                ),
                (
                    "arena_polynomials".into(),
                    Json::Num(soak.arena_polynomials as f64),
                ),
                ("l2_entries".into(), Json::Num(soak.l2_entries as f64)),
                ("arena_ceiling".into(), Json::Num(SOAK_ARENA_CEILING as f64)),
                ("l2_ceiling".into(), Json::Num(SOAK_L2_CEILING as f64)),
            ]),
        ),
        (
            "min_advances".into(),
            Json::Num(SERVER_SOAK_MIN_ADVANCES as f64),
        ),
        ("ok".into(), Json::Bool(soak.ok)),
    ]);
    if let Err(err) = std::fs::write(&cfg.server_out, report.to_string_pretty() + "\n") {
        eprintln!("perfsuite: cannot write {}: {err}", cfg.server_out);
        std::process::exit(1);
    }
    eprintln!("perfsuite: wrote {}", cfg.server_out);
    if !soak.ok {
        eprintln!(
            "FAIL: server soak gate (advances {} >= {SERVER_SOAK_MIN_ADVANCES}, arena {} <= {SOAK_ARENA_CEILING}, L2 {} <= {SOAK_L2_CEILING})",
            soak.advances,
            soak.arena_symbols + soak.arena_monomials + soak.arena_polynomials,
            soak.l2_entries
        );
        return false;
    }
    eprintln!(
        "perfsuite: server soak gate met ({} advances, bit-identical to the uncached oracle)",
        soak.advances
    );
    true
}

/// Memory-model micro-benchmark: the memoized [`mem_cost`] against the
/// naive per-nest recount [`mem_cost_fresh`] over the Figure 7 suite on
/// cache-extended machines. A restructuring session or a batch server
/// re-costs the same nests over and over, so the warmed steady state is
/// the design point; the fresh recount is what every prediction would
/// pay without the memo.
struct MemoryRow {
    machine: String,
    fresh_costs_per_sec: f64,
    memo_costs_per_sec: f64,
    speedup: f64,
}

/// One kernel's memory-vs-compute split on the cache-extended wide8 —
/// the data behind the EXPERIMENTS.md E16 sweep table. The crossover
/// penalty (compute cycles ÷ distinct lines) is the miss cost at which
/// the kernel tips from compute- to memory-bound: the sweep axis.
struct MemoryScenarioRow {
    kernel: String,
    compute_cycles: f64,
    memory_cycles: f64,
    lines: f64,
    crossover_penalty: f64,
    memory_bound: bool,
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

fn bench_memory(budget: Duration) -> Vec<MemoryRow> {
    let cache = gate_cache();
    let opts = AggregateOptions::default();
    let mut rows = Vec::new();
    for machine in machines::all() {
        let irs = prediction_irs(&machine);
        // Warm both paths: first-touch allocation off-clock, and the
        // memoized side's L1/L2 tables filled so the timed rounds hit.
        for ir in &irs {
            black_box(mem_cost(ir, &cache, &opts));
            black_box(mem_cost_fresh(ir, &cache, &opts));
        }
        let (memo_n, memo_s) = time_until(budget, || {
            for ir in &irs {
                black_box(mem_cost(ir, &cache, &opts));
            }
            irs.len() as u64
        });
        let (fresh_n, fresh_s) = time_until(budget, || {
            for ir in &irs {
                black_box(mem_cost_fresh(ir, &cache, &opts));
            }
            irs.len() as u64
        });
        let fresh_rate = fresh_n as f64 / fresh_s;
        let memo_rate = memo_n as f64 / memo_s;
        rows.push(MemoryRow {
            machine: machine.name().to_string(),
            fresh_costs_per_sec: fresh_rate,
            memo_costs_per_sec: memo_rate,
            speedup: memo_rate / fresh_rate,
        });
    }
    rows
}

/// Classifies every Figure 7 kernel as memory- or compute-bound on the
/// cache-extended wide8 at n = 512 (Matmul's register block at the
/// origin). Wide issue makes compute cheap, so the streaming kernels tip
/// memory-bound while the divide/√-heavy ones stay compute-bound.
fn memory_scenarios() -> Vec<MemoryScenarioRow> {
    let mut machine = machines::wide8();
    machine.cache = Some(gate_cache());
    print_machine_warnings(&machine);
    let predictor = Predictor::new(machine);
    let point: HashMap<Symbol, f64> = [("n", 512.0), ("i", 1.0), ("j", 1.0)]
        .into_iter()
        .map(|(name, v)| (Symbol::new(name), v))
        .collect();
    figure7()
        .iter()
        .map(|k| {
            let preds = predictor.predict_source(k.source).unwrap_or_else(|e| {
                bail(format!("memory bench: {} failed to predict: {e}", k.name))
            });
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
            let compute_cycles = p.compute.eval_with_defaults(&point);
            let memory_cycles = mc.cycles.eval_with_defaults(&point);
            let lines = mc.lines.eval_with_defaults(&point);
            MemoryScenarioRow {
                kernel: k.name.to_string(),
                compute_cycles,
                memory_cycles,
                lines,
                crossover_penalty: compute_cycles / lines.max(1.0),
                memory_bound: memory_cycles > compute_cycles,
            }
        })
        .collect()
}

/// Runs the memory-model rows, writes `BENCH_memory.json`, and returns
/// whether the wide8 floor held (always true in smoke mode).
fn run_memory_bench(cfg: &Config, budget: Duration) -> bool {
    eprintln!(
        "perfsuite: memory model ({} mode, memoized mem_cost vs naive recount, Figure 7 suite)",
        if cfg.smoke { "smoke" } else { "full" }
    );
    let rows = bench_memory(budget);
    for row in &rows {
        eprintln!(
            "  {:>10}: fresh {:>9.0} costs/s, memoized {:>9.0} costs/s  ({:.2}x)",
            row.machine, row.fresh_costs_per_sec, row.memo_costs_per_sec, row.speedup
        );
    }
    let scenarios = memory_scenarios();
    eprintln!("perfsuite: memory-vs-compute split (cache-extended wide8, n = 512)");
    for s in &scenarios {
        eprintln!(
            "  {:>8}: compute {:>12.0} cycles, memory {:>12.0} cycles over {:>8.0} lines, crossover at {:>6.1}-cycle misses  ({})",
            s.kernel,
            s.compute_cycles,
            s.memory_cycles,
            s.lines,
            s.crossover_penalty,
            if s.memory_bound {
                "memory-bound"
            } else {
                "compute-bound"
            }
        );
    }
    let report = Json::Obj(vec![
        ("schema".into(), Json::Str("presage-memory-bench-v1".into())),
        (
            "mode".into(),
            Json::Str(if cfg.smoke { "smoke" } else { "full" }.into()),
        ),
        (
            "memory".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("machine".into(), Json::Str(r.machine.clone())),
                            (
                                "fresh_costs_per_sec".into(),
                                Json::Num(r.fresh_costs_per_sec.round()),
                            ),
                            (
                                "memo_costs_per_sec".into(),
                                Json::Num(r.memo_costs_per_sec.round()),
                            ),
                            ("speedup".into(), Json::Num(round2(r.speedup))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "scenarios".into(),
            Json::Arr(
                scenarios
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("kernel".into(), Json::Str(s.kernel.clone())),
                            ("compute_cycles".into(), Json::Num(s.compute_cycles.round())),
                            ("memory_cycles".into(), Json::Num(s.memory_cycles.round())),
                            ("lines".into(), Json::Num(s.lines.round())),
                            (
                                "crossover_penalty".into(),
                                Json::Num(round2(s.crossover_penalty)),
                            ),
                            ("memory_bound".into(), Json::Bool(s.memory_bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "targets".into(),
            Json::Obj(vec![(
                "memory_wide8_min".into(),
                Json::Num(MEMORY_WIDE8_MIN),
            )]),
        ),
    ]);
    if let Err(err) = std::fs::write(&cfg.memory_out, report.to_string_pretty() + "\n") {
        eprintln!("perfsuite: cannot write {}: {err}", cfg.memory_out);
        std::process::exit(1);
    }
    eprintln!("perfsuite: wrote {}", cfg.memory_out);
    if cfg.smoke {
        return true;
    }
    let wide8 = rows
        .iter()
        .find(|r| r.machine == "wide8")
        .map(|r| r.speedup)
        .unwrap_or(0.0);
    if wide8 < MEMORY_WIDE8_MIN {
        eprintln!(
            "FAIL: memoized memory-model speedup on wide8 is {wide8:.2}x (target {MEMORY_WIDE8_MIN}x)"
        );
        return false;
    }
    eprintln!("perfsuite: memory target met (wide8 {wide8:.2}x >= {MEMORY_WIDE8_MIN}x)");
    true
}

/// Translation micro-benchmark: source-level prediction throughput
/// ([`Predictor::predict_source`] over the Figure 7 suite) with and
/// without a warmed [`TranslationCache`]. Both sides parse the source
/// each round — the cache keys on the canonical AST hash, so a hit skips
/// exactly sema + translation + interning, which is what this measures.
struct TranslationRow {
    machine: String,
    uncached_preds_per_sec: f64,
    cached_preds_per_sec: f64,
    speedup: f64,
}

fn bench_translation(budget: Duration) -> Vec<TranslationRow> {
    let mut rows = Vec::new();
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
        let (cold_n, cold_s) = time_until(budget, || {
            for src in &sources {
                black_box(predict(&uncached, src));
            }
            sources.len() as u64
        });
        let (warm_n, warm_s) = time_until(budget, || {
            for src in &sources {
                black_box(predict(&cached, src));
            }
            sources.len() as u64
        });
        let cold_rate = cold_n as f64 / cold_s;
        let warm_rate = warm_n as f64 / warm_s;
        rows.push(TranslationRow {
            machine: machine.name().to_string(),
            uncached_preds_per_sec: cold_rate,
            cached_preds_per_sec: warm_rate,
            speedup: warm_rate / cold_rate,
        });
    }
    rows
}

/// Symbolic-engine micro-benchmark: the four polynomial operations the
/// aggregator leans on, hash-consed engine vs the verbatim seed engine.
/// 64 distinct input variants per round, so steady-state memo behavior
/// (the optimized engine's design point) is what is measured.
struct SymbolicRow {
    op: &'static str,
    ref_ops_per_sec: f64,
    opt_ops_per_sec: f64,
    speedup: f64,
}

const SYM_VARIANTS: i64 = 64;

/// Builds the micro-benchmark workload and measures one engine's four
/// operation rates, in order: add, mul, substitute, summation.
macro_rules! sym_engine_rates {
    ($poly:ty, $sum_range:path, $budget:expr) => {{
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
        let rate = |work: &dyn Fn(()) -> u64| {
            let (ops, secs) = time_until($budget, || work(()));
            ops as f64 / secs
        };
        [rate(&add), rate(&mul), rate(&subst), rate(&sum)]
    }};
}

fn bench_symbolic(budget: Duration) -> Vec<SymbolicRow> {
    let opt = sym_engine_rates!(
        presage_symbolic::Poly,
        presage_symbolic::summation::sum_range,
        budget
    );
    let refr = sym_engine_rates!(
        presage_symbolic::reference::Poly,
        presage_symbolic::reference::summation::sum_range,
        budget
    );
    ["add", "mul", "substitute", "summation"]
        .into_iter()
        .zip(opt)
        .zip(refr)
        .map(|((op, o), r)| SymbolicRow {
            op,
            ref_ops_per_sec: r,
            opt_ops_per_sec: o,
            speedup: o / r,
        })
        .collect()
}

/// The restructuring workload of §3.2: the same programs searched at
/// several evaluation points, as a compiler would while restructuring.
/// Seed behavior re-predicts every candidate from scratch each time
/// (fresh cache per search); the optimized path shares one memo table.
struct AstarResult {
    uncached_ms: f64,
    cached_ms: f64,
    speedup: f64,
    cache_hits: u64,
    cache_misses: u64,
}

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

fn bench_astar(smoke: bool) -> AstarResult {
    let predictor = Predictor::new(machines::wide8());
    let subs = session_kernels("A* bench");
    let eval_points: &[f64] = if smoke {
        &[64.0, 256.0]
    } else {
        &[64.0, 128.0, 256.0, 512.0]
    };
    let max_expansions = if smoke { 4 } else { 12 };
    let opts_at = |n: f64| SearchOptions {
        max_expansions,
        max_depth: 2,
        eval_point: HashMap::from([("n".to_string(), n)]),
        ..Default::default()
    };

    // Both modes run as best-of-3 sessions: single-shot timings on a
    // loaded box jitter enough to flip the enforced floor, and the
    // minimum is the standard noise-robust estimator.
    const REPS: usize = 3;

    // Seed mode: every search pays full prediction (fresh cache).
    let mut uncached = Duration::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        for sub in &subs {
            for &n in eval_points {
                let fresh = PredictionCache::new();
                black_box(astar_search_cached(sub, &predictor, &opts_at(n), &fresh));
            }
        }
        uncached = uncached.min(start.elapsed());
    }

    // Optimized mode: one cache across the whole restructuring session
    // (a fresh session per rep; hit/miss counts are deterministic).
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut cached = Duration::MAX;
    for _ in 0..REPS {
        let shared = PredictionCache::new();
        hits = 0;
        misses = 0;
        let start = Instant::now();
        for sub in &subs {
            for &n in eval_points {
                let r = astar_search_cached(sub, &predictor, &opts_at(n), &shared);
                hits += r.cache_hits;
                misses += r.cache_misses;
                black_box(&r);
            }
        }
        cached = cached.min(start.elapsed());
    }

    AstarResult {
        uncached_ms: uncached.as_secs_f64() * 1e3,
        cached_ms: cached.as_secs_f64() * 1e3,
        speedup: uncached.as_secs_f64() / cached.as_secs_f64(),
        cache_hits: hits,
        cache_misses: misses,
    }
}

/// Variant-search micro-benchmark: the structural e-graph engine
/// (AST normalization + `fold128` keys, e-class merging) against the A*
/// baseline whose canonicalization re-emits and re-parses every variant.
/// Each engine runs the same restructuring session — MATMUL, JACOBI and
/// F4 searched at several evaluation points on one shared prediction
/// cache — warmed first, so the timed rounds isolate exactly the
/// per-variant overhead the e-graph removes: canonicalization plus
/// search bookkeeping, with predictions served from cache on both sides.
/// Throughput is variants *explored* per second (evaluated + merged +
/// rejected). The heuristic columns report how many cost evaluations the
/// explain-driven move ordering needs before finding the winner.
struct SearchRow {
    machine: String,
    astar_variants_per_sec: f64,
    egraph_variants_per_sec: f64,
    speedup: f64,
    astar_explored: u64,
    egraph_explored: u64,
    egraph_merged: u64,
    egraph_expansions: u64,
    found_at_heuristic_on: u64,
    found_at_heuristic_off: u64,
    /// Candidate evaluations over the cold session with bound pruning on.
    pruned_evaluated: u64,
    /// Same cold session with pruning off — the denominator of the
    /// expansions-to-winner reduction gate.
    unpruned_evaluated: u64,
    /// Predictions the admissible bound skipped outright (cold, pruned).
    predictions_avoided: u64,
    /// Pruned and unpruned winners bit-identical on every (kernel, eval
    /// point) — the winner-invariance admissibility guarantees.
    winners_match: bool,
    /// Pruned winner never predicts worse than the unpruned A* oracle.
    dominates_astar: bool,
    /// Mean `lower bound / predicted cost` of the session kernels at
    /// n = 256: how much of the true cost the bound explains (1.0 would
    /// be a perfect bound).
    bound_tightness: f64,
}

fn bench_search(smoke: bool) -> Vec<SearchRow> {
    let subs = session_kernels("variant-search bench");
    let eval_points: &[f64] = if smoke {
        &[64.0, 256.0]
    } else {
        &[64.0, 128.0, 256.0, 512.0]
    };
    let max_expansions = if smoke { 4 } else { 12 };
    let opts_at = |n: f64| SearchOptions {
        max_expansions,
        max_depth: 2,
        eval_point: HashMap::from([("n".to_string(), n)]),
        ..Default::default()
    };
    let config_at = |n: f64, heuristic: bool, prune: bool| SearchConfig {
        strategy: SearchStrategy::EGraph,
        options: opts_at(n),
        node_budget: 256,
        heuristic,
        prune,
    };
    const REPS: usize = 3;

    let mut rows = Vec::new();
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
        // time best-of-REPS warm sessions.
        let astar_cache = PredictionCache::new();
        let astar_session = |cache: &PredictionCache| {
            let mut explored = 0u64;
            for sub in &subs {
                for &n in eval_points {
                    let r = astar_search_cached(sub, &predictor, &opts_at(n), cache);
                    explored += (r.evaluated + r.merged_variants + r.rejected_variants) as u64;
                    black_box(&r);
                }
            }
            explored
        };
        astar_session(&astar_cache);
        let mut astar_secs = f64::MAX;
        let mut astar_explored = 0u64;
        for _ in 0..REPS {
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
                for &n in eval_points {
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
        for _ in 0..REPS {
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
            for &n in eval_points {
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
                let ra = astar_search_cached(sub, &predictor, &opts_at(n), &PredictionCache::new());
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
        let bound_tightness = tightness_sum / subs.len() as f64;

        let astar_rate = astar_explored as f64 / astar_secs;
        let egraph_rate = egraph_stats.0 as f64 / egraph_secs;
        rows.push(SearchRow {
            machine: name,
            astar_variants_per_sec: astar_rate,
            egraph_variants_per_sec: egraph_rate,
            speedup: egraph_rate / astar_rate,
            astar_explored,
            egraph_explored: egraph_stats.0,
            egraph_merged: egraph_stats.1,
            egraph_expansions: egraph_stats.2,
            found_at_heuristic_on: egraph_stats.3,
            found_at_heuristic_off: found_at_off,
            pruned_evaluated,
            unpruned_evaluated,
            predictions_avoided,
            winners_match,
            dominates_astar,
            bound_tightness,
        });
    }
    rows
}

/// Simulator micro-benchmark: the event-driven engine vs the retained
/// cycle-driven reference on the workloads where the bench tables spend
/// their simulator wall clock — the overlap/unroll tables' long
/// overlapped loop streams (every Figure 7 innermost block as a 64-copy
/// stream, the deepest shape `unroll_profile` probes) and the efficiency
/// table's big mixed block with unpipelined divides, 4-way overlapped. Per-cycle scanning is
/// quadratic in stream length; the event engine is what keeps these
/// tables cheap. Both engines share the micro expansion, so the ratio
/// isolates exactly the scheduling algorithm.
struct SimulatorRow {
    machine: String,
    ref_sims_per_sec: f64,
    event_sims_per_sec: f64,
    speedup: f64,
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

fn bench_simulator(budget: Duration) -> Vec<SimulatorRow> {
    use presage_sim::{reference, scheduler};
    let mut rows = Vec::new();
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
        let (event_n, event_s) = time_until(budget, event_round);
        let (ref_n, ref_s) = time_until(budget, ref_round);
        let ref_rate = ref_n as f64 / ref_s;
        let event_rate = event_n as f64 / event_s;
        rows.push(SimulatorRow {
            machine: machine.name().to_string(),
            ref_sims_per_sec: ref_rate,
            event_sims_per_sec: event_rate,
            speedup: event_rate / ref_rate,
        });
    }
    rows
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

const PLACEMENT_WIDE8_MIN: f64 = 3.0;
const PREDICTION_WIDE8_MIN: f64 = 5.0;
const PREDICTION_RISC1_MIN: f64 = 8.0;
const TRANSLATION_WIDE8_MIN: f64 = 1.5;
const ASTAR_MIN: f64 = 2.0;
/// Structural e-graph engine variants/sec over the textual-A* baseline
/// on wide8, warmed prediction caches on both sides — the tentpole
/// floor: AST normalization must beat re-emit + re-parse by at least
/// this much per explored variant.
const SEARCH_WIDE8_MIN: f64 = 3.0;
/// The wide8 e-graph throughput recorded in BENCH_search.json before the
/// bound-and-prune core landed (PR 7 baseline): the pruned engine with
/// the block-summary cache must beat it by [`SEARCH_WIDE8_VPS_GAIN_MIN`].
const SEARCH_WIDE8_BASELINE_VPS: f64 = 8963.0;
/// Required variants-evaluated-per-second gain over the PR 7 baseline.
const SEARCH_WIDE8_VPS_GAIN_MIN: f64 = 1.5;
/// Cold-session candidate evaluations with bound pruning on must be at
/// most this fraction of the unpruned count on wide8.
const SEARCH_PRUNED_RATIO_MAX: f64 = 0.7;
const SIM_WIDE8_MIN: f64 = 4.0;
/// Warmed (memoized) memory-model cost throughput over the naive
/// per-nest recount on wide8 — the floor the §2.3 cache model must hold
/// so adding memory attribution doesn't tax the batch/server hot paths.
const MEMORY_WIDE8_MIN: f64 = 2.0;
/// 8-worker batch prediction vs single-worker, enforced only on hosts
/// with at least [`BATCH_MIN_CORES`] cores — scoped-thread fan-out cannot
/// beat sequential on a single-core box, and the ratio is meaningless
/// below the worker count it gates.
const BATCH_8W_MIN: f64 = 3.0;
const BATCH_MIN_CORES: usize = 8;
/// The 1→4-worker monotonicity floor arms on any host with at least this
/// many cores — the hole that let a 0.4× collapse land green was arming
/// the only batch floor at ≥8 cores, which no CI host had.
const BATCH_MONOTONE_MIN_CORES: usize = 4;
/// Throughput at each step of 1→4 workers must be at least this fraction
/// of the previous step: non-decreasing up to measurement noise.
const BATCH_MONOTONE_TOLERANCE: f64 = 0.9;

/// Worst step ratio `rate(w_{k+1}) / rate(w_k)` over the 1→4-worker rows.
fn batch_monotone_ratio(rows: &[BatchRow]) -> f64 {
    rows.windows(2)
        .filter(|w| w[1].workers <= 4)
        .map(|w| w[1].preds_per_sec / w[0].preds_per_sec)
        .fold(f64::INFINITY, f64::min)
}

/// Runs the variant-search rows, writes `BENCH_search.json`, and returns
/// whether the wide8 floor held (always true in smoke mode).
fn run_search_bench(cfg: &Config) -> bool {
    eprintln!(
        "perfsuite: variant search ({} mode, e-graph vs textual A*, warmed caches)",
        if cfg.smoke { "smoke" } else { "full" }
    );
    let rows = bench_search(cfg.smoke);
    for row in &rows {
        eprintln!(
            "  {:>10}: A* {:>8.0} variants/s, e-graph {:>8.0} variants/s  ({:.2}x)  merged {:>3}, winner at {:>3} evals (heuristic) vs {:>3} (none)",
            row.machine,
            row.astar_variants_per_sec,
            row.egraph_variants_per_sec,
            row.speedup,
            row.egraph_merged,
            row.found_at_heuristic_on,
            row.found_at_heuristic_off
        );
        eprintln!(
            "  {:>10}  pruning: {} evals vs {} unpruned ({:.2}x), {} predictions avoided, bound tightness {:.3}, winners {}, A* dominance {}",
            "",
            row.pruned_evaluated,
            row.unpruned_evaluated,
            row.pruned_evaluated as f64 / row.unpruned_evaluated.max(1) as f64,
            row.predictions_avoided,
            row.bound_tightness,
            if row.winners_match { "identical" } else { "DIVERGED" },
            if row.dominates_astar { "holds" } else { "VIOLATED" },
        );
    }
    let report = Json::Obj(vec![
        ("schema".into(), Json::Str("presage-search-bench-v2".into())),
        (
            "mode".into(),
            Json::Str(if cfg.smoke { "smoke" } else { "full" }.into()),
        ),
        (
            "search".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("machine".into(), Json::Str(r.machine.clone())),
                            (
                                "astar_variants_per_sec".into(),
                                Json::Num(r.astar_variants_per_sec.round()),
                            ),
                            (
                                "egraph_variants_per_sec".into(),
                                Json::Num(r.egraph_variants_per_sec.round()),
                            ),
                            ("speedup".into(), Json::Num(round2(r.speedup))),
                            ("astar_explored".into(), Json::Num(r.astar_explored as f64)),
                            (
                                "egraph_explored".into(),
                                Json::Num(r.egraph_explored as f64),
                            ),
                            ("egraph_merged".into(), Json::Num(r.egraph_merged as f64)),
                            (
                                "egraph_expansions".into(),
                                Json::Num(r.egraph_expansions as f64),
                            ),
                            (
                                "found_at_heuristic_on".into(),
                                Json::Num(r.found_at_heuristic_on as f64),
                            ),
                            (
                                "found_at_heuristic_off".into(),
                                Json::Num(r.found_at_heuristic_off as f64),
                            ),
                            (
                                "pruned_evaluated".into(),
                                Json::Num(r.pruned_evaluated as f64),
                            ),
                            (
                                "unpruned_evaluated".into(),
                                Json::Num(r.unpruned_evaluated as f64),
                            ),
                            (
                                "predictions_avoided".into(),
                                Json::Num(r.predictions_avoided as f64),
                            ),
                            ("winners_match".into(), Json::Bool(r.winners_match)),
                            ("dominates_astar".into(), Json::Bool(r.dominates_astar)),
                            (
                                "bound_tightness".into(),
                                Json::Num((r.bound_tightness * 1000.0).round() / 1000.0),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "targets".into(),
            Json::Obj(vec![
                ("search_wide8_min".into(), Json::Num(SEARCH_WIDE8_MIN)),
                (
                    "search_wide8_baseline_vps".into(),
                    Json::Num(SEARCH_WIDE8_BASELINE_VPS),
                ),
                (
                    "search_wide8_vps_gain_min".into(),
                    Json::Num(SEARCH_WIDE8_VPS_GAIN_MIN),
                ),
                (
                    "search_pruned_ratio_max".into(),
                    Json::Num(SEARCH_PRUNED_RATIO_MAX),
                ),
            ]),
        ),
    ]);
    if let Err(err) = std::fs::write(&cfg.search_out, report.to_string_pretty() + "\n") {
        eprintln!("perfsuite: cannot write {}: {err}", cfg.search_out);
        std::process::exit(1);
    }
    eprintln!("perfsuite: wrote {}", cfg.search_out);
    if cfg.smoke {
        return true;
    }
    let Some(wide8) = rows.iter().find(|r| r.machine == "wide8") else {
        eprintln!("FAIL: no wide8 row in the search bench");
        return false;
    };
    let mut ok = true;
    if wide8.speedup < SEARCH_WIDE8_MIN {
        eprintln!(
            "FAIL: e-graph search speedup on wide8 is {:.2}x (target {SEARCH_WIDE8_MIN}x)",
            wide8.speedup
        );
        ok = false;
    }
    let vps_floor = SEARCH_WIDE8_BASELINE_VPS * SEARCH_WIDE8_VPS_GAIN_MIN;
    if wide8.egraph_variants_per_sec < vps_floor {
        eprintln!(
            "FAIL: wide8 e-graph throughput {:.0} variants/s is below {:.0} ({}x the PR 7 baseline {:.0})",
            wide8.egraph_variants_per_sec, vps_floor, SEARCH_WIDE8_VPS_GAIN_MIN, SEARCH_WIDE8_BASELINE_VPS
        );
        ok = false;
    }
    if !wide8.winners_match {
        eprintln!("FAIL: wide8 pruned-search winner diverged from the unpruned winner");
        ok = false;
    }
    if !wide8.dominates_astar {
        eprintln!("FAIL: wide8 pruned-search winner predicts worse than the A* oracle");
        ok = false;
    }
    let ratio = wide8.pruned_evaluated as f64 / wide8.unpruned_evaluated.max(1) as f64;
    if ratio > SEARCH_PRUNED_RATIO_MAX {
        eprintln!(
            "FAIL: wide8 pruned session evaluated {:.2}x of the unpruned count (max {SEARCH_PRUNED_RATIO_MAX}x)",
            ratio
        );
        ok = false;
    }
    if ok {
        eprintln!(
            "perfsuite: search targets met (wide8 {:.2}x >= {SEARCH_WIDE8_MIN}x, {:.0} variants/s >= {:.0}, pruned ratio {:.2} <= {SEARCH_PRUNED_RATIO_MAX}, winners identical, A* dominance holds)",
            wide8.speedup, wide8.egraph_variants_per_sec, vps_floor, ratio
        );
    }
    ok
}

fn main() {
    let cfg = parse_args();
    let budget = if cfg.smoke {
        Duration::from_millis(30)
    } else {
        Duration::from_millis(500)
    };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for machine in machines::all() {
        print_machine_warnings(&machine);
    }

    if cfg.search_only {
        if !run_search_bench(&cfg) {
            std::process::exit(1);
        }
        return;
    }
    if cfg.server_only {
        if !run_server_bench(&cfg) {
            std::process::exit(1);
        }
        return;
    }
    if cfg.memory_only {
        if !run_memory_bench(&cfg, budget) {
            std::process::exit(1);
        }
        return;
    }
    let batch_floor_armed = host_cores >= BATCH_MIN_CORES;
    let batch_monotone_armed = host_cores >= BATCH_MONOTONE_MIN_CORES;

    eprintln!(
        "perfsuite: batch prediction ({} mode, {host_cores} cores, predict_batch, machines × Figure 7)",
        if cfg.smoke { "smoke" } else { "full" }
    );
    let batch = bench_batch(budget);
    for row in &batch {
        eprintln!(
            "  {:>2} workers: {:>9.0} preds/s  (L1 {:>9}, L2 {:>7}, miss {:>6}, steals {:>5})",
            row.workers, row.preds_per_sec, row.l1_hits, row.l2_hits, row.misses, row.steals
        );
    }
    let batch_speedup_8w = batch[batch.len() - 1].preds_per_sec / batch[0].preds_per_sec;
    let batch_monotone = batch_monotone_ratio(&batch);
    eprintln!(
        "  8w/1w speedup {:.2}x ({}); worst 1→4w step ratio {:.2} ({})",
        batch_speedup_8w,
        if batch_floor_armed {
            "floor armed"
        } else {
            "informational: host has <8 cores"
        },
        batch_monotone,
        if batch_monotone_armed {
            "monotone floor armed"
        } else {
            "informational: host has <4 cores"
        }
    );

    eprintln!("perfsuite: soak (distinct generated programs, footprint ceilings)");
    let soak = bench_soak(cfg.smoke);
    eprintln!(
        "  {} programs × {} jobs: arena {} syms + {} monos + {} polys, L2 memos {} entries  ({})",
        soak.programs,
        soak.jobs,
        soak.arena_symbols,
        soak.arena_monomials,
        soak.arena_polynomials,
        soak.l2_entries,
        if soak.ok {
            "within ceilings"
        } else {
            "OVER CEILING"
        }
    );

    let mut batch_failed = false;
    if !soak.ok {
        eprintln!(
            "FAIL: soak footprint over ceiling (arena {} > {SOAK_ARENA_CEILING} or L2 {} > {SOAK_L2_CEILING})",
            soak.arena_symbols + soak.arena_monomials + soak.arena_polynomials,
            soak.l2_entries
        );
        batch_failed = true;
    }
    if !cfg.smoke {
        if batch_floor_armed && batch_speedup_8w < BATCH_8W_MIN {
            eprintln!(
                "FAIL: predict_batch 8-worker speedup is {batch_speedup_8w:.2}x (target {BATCH_8W_MIN}x)"
            );
            batch_failed = true;
        }
        if batch_monotone_armed && batch_monotone < BATCH_MONOTONE_TOLERANCE {
            eprintln!(
                "FAIL: predict_batch throughput drops from 1→4 workers (worst step ratio {batch_monotone:.2}, floor {BATCH_MONOTONE_TOLERANCE})"
            );
            batch_failed = true;
        }
    }
    if cfg.batch_only {
        if batch_failed {
            std::process::exit(1);
        }
        eprintln!("perfsuite: batch-only checks passed");
        return;
    }

    eprintln!("perfsuite: end-to-end prediction (Figure 7 suite)");
    let prediction = bench_prediction(budget);
    for row in &prediction {
        eprintln!(
            "  {:>10}: reference {:>9.0} preds/s, optimized {:>9.0} preds/s  ({:.2}x)",
            row.machine, row.ref_preds_per_sec, row.opt_preds_per_sec, row.speedup
        );
    }

    eprintln!("perfsuite: placement");
    let placement = bench_placement(budget);
    for row in &placement {
        eprintln!(
            "  {:>10}: naive {:>12.0} ops/s, optimized {:>12.0} ops/s  ({:.2}x)",
            row.machine, row.naive_ops_per_sec, row.opt_ops_per_sec, row.speedup
        );
    }

    eprintln!("perfsuite: translation cache (predict_source, Figure 7 suite)");
    let translation = bench_translation(budget);
    for row in &translation {
        eprintln!(
            "  {:>10}: uncached {:>9.0} preds/s, warmed cache {:>9.0} preds/s  ({:.2}x)",
            row.machine, row.uncached_preds_per_sec, row.cached_preds_per_sec, row.speedup
        );
    }

    eprintln!("perfsuite: symbolic engine micro-benchmark");
    let symbolic = bench_symbolic(budget);
    for row in &symbolic {
        eprintln!(
            "  {:>10}: reference {:>9.0} ops/s, optimized {:>9.0} ops/s  ({:.2}x)",
            row.op, row.ref_ops_per_sec, row.opt_ops_per_sec, row.speedup
        );
    }

    eprintln!("perfsuite: simulator (event-driven vs cycle-driven, Figure 7 suite)");
    let simulator = bench_simulator(budget);
    for row in &simulator {
        eprintln!(
            "  {:>10}: reference {:>9.0} sims/s, event-driven {:>9.0} sims/s  ({:.2}x)",
            row.machine, row.ref_sims_per_sec, row.event_sims_per_sec, row.speedup
        );
    }

    eprintln!("perfsuite: A* restructuring session");
    let astar = bench_astar(cfg.smoke);
    eprintln!(
        "  uncached {:.1} ms, shared-cache {:.1} ms  ({:.2}x), {} hits / {} misses",
        astar.uncached_ms, astar.cached_ms, astar.speedup, astar.cache_hits, astar.cache_misses
    );

    let search_ok = run_search_bench(&cfg);
    let memory_ok = run_memory_bench(&cfg, budget);

    let wide8_speedup = placement
        .iter()
        .find(|r| r.machine == "wide8")
        .map(|r| r.speedup)
        .unwrap_or(0.0);
    let wide8_prediction = prediction
        .iter()
        .find(|r| r.machine == "wide8")
        .map(|r| r.speedup)
        .unwrap_or(0.0);
    let risc1_prediction = prediction
        .iter()
        .find(|r| r.machine == "risc1")
        .map(|r| r.speedup)
        .unwrap_or(0.0);
    let wide8_translation = translation
        .iter()
        .find(|r| r.machine == "wide8")
        .map(|r| r.speedup)
        .unwrap_or(0.0);
    let wide8_simulator = simulator
        .iter()
        .find(|r| r.machine == "wide8")
        .map(|r| r.speedup)
        .unwrap_or(0.0);

    let report = Json::Obj(vec![
        ("schema".into(), Json::Str("presage-perfsuite-v8".into())),
        (
            "mode".into(),
            Json::Str(if cfg.smoke { "smoke" } else { "full" }.into()),
        ),
        ("host_cores".into(), Json::Num(host_cores as f64)),
        (
            "placement".into(),
            Json::Arr(
                placement
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("machine".into(), Json::Str(r.machine.clone())),
                            (
                                "naive_ops_per_sec".into(),
                                Json::Num(r.naive_ops_per_sec.round()),
                            ),
                            (
                                "opt_ops_per_sec".into(),
                                Json::Num(r.opt_ops_per_sec.round()),
                            ),
                            ("speedup".into(), Json::Num(round2(r.speedup))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "prediction".into(),
            Json::Arr(
                prediction
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("machine".into(), Json::Str(r.machine.clone())),
                            (
                                "ref_preds_per_sec".into(),
                                Json::Num(r.ref_preds_per_sec.round()),
                            ),
                            (
                                "opt_preds_per_sec".into(),
                                Json::Num(r.opt_preds_per_sec.round()),
                            ),
                            ("speedup".into(), Json::Num(round2(r.speedup))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "batch".into(),
            Json::Arr(
                batch
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("workers".into(), Json::Num(r.workers as f64)),
                            ("preds_per_sec".into(), Json::Num(r.preds_per_sec.round())),
                            ("memo_l1_hits".into(), Json::Num(r.l1_hits as f64)),
                            ("memo_l2_hits".into(), Json::Num(r.l2_hits as f64)),
                            ("memo_misses".into(), Json::Num(r.misses as f64)),
                            ("steals".into(), Json::Num(r.steals as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "batch_speedup_8w".into(),
            Json::Num(round2(batch_speedup_8w)),
        ),
        ("batch_floor_armed".into(), Json::Bool(batch_floor_armed)),
        (
            "batch_monotone_ratio_1_to_4w".into(),
            Json::Num(round2(batch_monotone)),
        ),
        (
            "batch_monotone_armed".into(),
            Json::Bool(batch_monotone_armed),
        ),
        (
            "soak".into(),
            Json::Obj(vec![
                ("programs".into(), Json::Num(soak.programs as f64)),
                ("jobs".into(), Json::Num(soak.jobs as f64)),
                ("arena_symbols".into(), Json::Num(soak.arena_symbols as f64)),
                (
                    "arena_monomials".into(),
                    Json::Num(soak.arena_monomials as f64),
                ),
                (
                    "arena_polynomials".into(),
                    Json::Num(soak.arena_polynomials as f64),
                ),
                ("l2_entries".into(), Json::Num(soak.l2_entries as f64)),
                ("arena_ceiling".into(), Json::Num(SOAK_ARENA_CEILING as f64)),
                ("l2_ceiling".into(), Json::Num(SOAK_L2_CEILING as f64)),
                ("ok".into(), Json::Bool(soak.ok)),
            ]),
        ),
        (
            "translation".into(),
            Json::Arr(
                translation
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("machine".into(), Json::Str(r.machine.clone())),
                            (
                                "uncached_preds_per_sec".into(),
                                Json::Num(r.uncached_preds_per_sec.round()),
                            ),
                            (
                                "cached_preds_per_sec".into(),
                                Json::Num(r.cached_preds_per_sec.round()),
                            ),
                            ("speedup".into(), Json::Num(round2(r.speedup))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "symbolic".into(),
            Json::Arr(
                symbolic
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("op".into(), Json::Str(r.op.into())),
                            (
                                "ref_ops_per_sec".into(),
                                Json::Num(r.ref_ops_per_sec.round()),
                            ),
                            (
                                "opt_ops_per_sec".into(),
                                Json::Num(r.opt_ops_per_sec.round()),
                            ),
                            ("speedup".into(), Json::Num(round2(r.speedup))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "simulator".into(),
            Json::Arr(
                simulator
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("machine".into(), Json::Str(r.machine.clone())),
                            (
                                "ref_sims_per_sec".into(),
                                Json::Num(r.ref_sims_per_sec.round()),
                            ),
                            (
                                "event_sims_per_sec".into(),
                                Json::Num(r.event_sims_per_sec.round()),
                            ),
                            ("speedup".into(), Json::Num(round2(r.speedup))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "astar".into(),
            Json::Obj(vec![
                ("uncached_ms".into(), Json::Num(round2(astar.uncached_ms))),
                ("cached_ms".into(), Json::Num(round2(astar.cached_ms))),
                ("speedup".into(), Json::Num(round2(astar.speedup))),
                ("cache_hits".into(), Json::Num(astar.cache_hits as f64)),
                ("cache_misses".into(), Json::Num(astar.cache_misses as f64)),
            ]),
        ),
        (
            "targets".into(),
            Json::Obj(vec![
                ("placement_wide8_min".into(), Json::Num(PLACEMENT_WIDE8_MIN)),
                (
                    "prediction_wide8_min".into(),
                    Json::Num(PREDICTION_WIDE8_MIN),
                ),
                (
                    "prediction_risc1_min".into(),
                    Json::Num(PREDICTION_RISC1_MIN),
                ),
                (
                    "translation_wide8_min".into(),
                    Json::Num(TRANSLATION_WIDE8_MIN),
                ),
                ("astar_min".into(), Json::Num(ASTAR_MIN)),
                ("search_wide8_min".into(), Json::Num(SEARCH_WIDE8_MIN)),
                ("simulator_wide8_min".into(), Json::Num(SIM_WIDE8_MIN)),
                ("memory_wide8_min".into(), Json::Num(MEMORY_WIDE8_MIN)),
                ("batch_8w_min".into(), Json::Num(BATCH_8W_MIN)),
                ("batch_min_cores".into(), Json::Num(BATCH_MIN_CORES as f64)),
                (
                    "batch_monotone_min_cores".into(),
                    Json::Num(BATCH_MONOTONE_MIN_CORES as f64),
                ),
                (
                    "batch_monotone_tolerance".into(),
                    Json::Num(BATCH_MONOTONE_TOLERANCE),
                ),
            ]),
        ),
    ]);
    if let Err(err) = std::fs::write(&cfg.out, report.to_string_pretty() + "\n") {
        eprintln!("perfsuite: cannot write {}: {err}", cfg.out);
        std::process::exit(1);
    }
    eprintln!("perfsuite: wrote {}", cfg.out);

    if cfg.smoke && batch_failed {
        // Timing floors are off in smoke mode, but the soak footprint
        // ceiling is deterministic and always enforced.
        std::process::exit(1);
    }
    if !cfg.smoke {
        let mut failed = batch_failed;
        if wide8_speedup < PLACEMENT_WIDE8_MIN {
            eprintln!(
                "FAIL: placement speedup on wide8 is {wide8_speedup:.2}x (target {PLACEMENT_WIDE8_MIN}x)"
            );
            failed = true;
        }
        if wide8_prediction < PREDICTION_WIDE8_MIN {
            eprintln!(
                "FAIL: prediction speedup on wide8 is {wide8_prediction:.2}x (target {PREDICTION_WIDE8_MIN}x)"
            );
            failed = true;
        }
        if risc1_prediction < PREDICTION_RISC1_MIN {
            eprintln!(
                "FAIL: prediction speedup on risc1 is {risc1_prediction:.2}x (target {PREDICTION_RISC1_MIN}x)"
            );
            failed = true;
        }
        if wide8_translation < TRANSLATION_WIDE8_MIN {
            eprintln!(
                "FAIL: warmed-cache predict_source speedup on wide8 is {wide8_translation:.2}x (target {TRANSLATION_WIDE8_MIN}x)"
            );
            failed = true;
        }
        if astar.speedup < ASTAR_MIN {
            eprintln!(
                "FAIL: A* session speedup is {:.2}x (target {ASTAR_MIN}x)",
                astar.speedup
            );
            failed = true;
        }
        if !search_ok {
            failed = true;
        }
        if !memory_ok {
            failed = true;
        }
        if wide8_simulator < SIM_WIDE8_MIN {
            eprintln!(
                "FAIL: event-driven simulator speedup on wide8 is {wide8_simulator:.2}x (target {SIM_WIDE8_MIN}x)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "perfsuite: targets met (placement wide8 {wide8_speedup:.2}x >= {PLACEMENT_WIDE8_MIN}x, prediction wide8 {wide8_prediction:.2}x >= {PREDICTION_WIDE8_MIN}x, prediction risc1 {risc1_prediction:.2}x >= {PREDICTION_RISC1_MIN}x, translation wide8 {wide8_translation:.2}x >= {TRANSLATION_WIDE8_MIN}x, A* {:.2}x >= {ASTAR_MIN}x, simulator wide8 {wide8_simulator:.2}x >= {SIM_WIDE8_MIN}x, batch 8w {batch_speedup_8w:.2}x{})",
            astar.speedup,
            if batch_floor_armed {
                format!(" >= {BATCH_8W_MIN}x")
            } else {
                " [floor not armed: <8 cores]".to_string()
            }
        );
    }
}
