//! The end-to-end benchmark: source text in, answer out, on four
//! workloads, with a per-layer split measured from outside the program.
//!
//! # The command
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload predict_cold --seed 1994 --seconds 20 --trace 0
//! ```
//!
//! runs one workload in its own process (so the process-wide arenas and
//! memos start empty and `peak_rss_mb` is that workload's), checks its
//! outputs against the oracles, prints every metric with its unit and
//! sample count, then a `{"detail": …}` line and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. It exits nonzero on
//! any oracle mismatch. `--trace 1` is the separate traced run: it prints
//! the per-layer metrics instead and writes the spans it kept to
//! `--trace-dir` (default `.bench_trace/<workload>.jsonl`).
//!
//! `benchmark run [--seed N] [--seconds S] [--trace 0|1] [--out F]` runs
//! every workload that way, each in a child process, and writes them with
//! the seed, git commit, `rustc -V` and host cores to `F`.
//! `benchmark compare --parent A1.json … --change B1.json …` compares such
//! files by the bounds in BENCHMARK.json (see [`compare`]).
//!
//! Inputs come from a seeded routine generator ([`gen`]) plus the session
//! kernels MATMUL, JACOBI and F4. The benchmark calls only public
//! functions of presage-frontend, -core, -symbolic, -opt and -server;
//! presage-sim and the seed reference engines serve only as untimed
//! oracles. One caller thread (or one generator thread plus the server's
//! `available_parallelism` workers) makes the load.
//!
//! # Workloads
//!
//! | workload | loop | what it runs | why |
//! |---|---|---|---|
//! | `predict_cold` | closed, 1 caller | distinct generated routines on 5 machines (the 4 built-ins and `wide8-cache`) through `predict_source` with one shared `TranslationCache`; an epoch advance and translation eviction every 64 routines, as the daemon does | every job misses every cache: translation, placement, aggregation and the memory model (on 1/5 of jobs) do the work |
//! | `predict_warm` | closed, 1 caller | the same predictors re-predicting a 64-routine working set in seeded random order, no advance | a restructurer re-asking about unchanged routines: parse and cache lookups dominate, translation sits idle |
//! | `search_session` | closed, 1 caller | `SearchConfig::default()` (e-graph, heuristic, pruning) at depth 2 with 12 expansions, on power-like and wide8, at n = 64 and 512, one `PredictionCache` per (routine, machine); one pass searches MATMUL, JACOBI, F4 and 14 generated routines, and passes repeat; an epoch advance and translation eviction after each routine | transforms, structural hashing, bounds and the prediction cache dominate; each routine is parsed once per pass |
//! | `server_stream` | open | `Server::run` with `ServerConfig::default()` and `wide8-cache` registered, fed by one generator thread: 250 req/s for half the run, then back-to-back bursts of 1024, as many as 11,000 req/s fill the other half with; 70% re-submissions of a pair sent in the last 256 requests, 30% new routines, 0.5% bad requests of three kinds | wire parsing, wave batching, batch workers, epoch reclamation and response writing; at 250 req/s a request mostly waits for its 64-job wave to fill |
//!
//! `search_session` leaves out the generator's triangular nests: tiling
//! one yields a negative predicted cost, which the unpruned search picks,
//! so its winner check would fail on a model defect rather than on the
//! search. Without the advance between routines, the session's
//! translation caches keep every searched variant (770 MB in six
//! seconds).
//!
//! # Metrics
//!
//! End to end (every workload): `setup_s` (a set-up: the predictors or a
//! server, plus a warm pass over 256 cold routines, the working set, one
//! search or one 64-request wave), `ops_per_s` (predictions, searches
//! or, for the server, burst requests per second), `latency_p50_us`,
//! `latency_tail_us` and `peak_rss_mb` (`VmHWM`).
//!
//! The timed window is split into rounds that do the same kind of work:
//! 1/24 of the window for the predict workloads, passes for the search,
//! bursts for the server. Each round starts with its own set-up from a
//! settled process, off the window's clock. `setup_s` and `ops_per_s` are
//! the medians over the fastest quarter of the rounds, and the latencies
//! are taken over those rounds' operations (see [`Measured::select`] for
//! why); the server takes every burst. The tail is p90 for the
//! closed-loop workloads, where p99 repeated across runs only to 13%, and
//! p99 for the server, whose latencies are set by arrivals and wave
//! filling; the server's latencies are those of the low phase, from each
//! request's due time, all kept.
//!
//! Per layer (traced run; each should move the end-to-end metric named,
//! on the workload named — see [`report::LAYERS`]):
//!
//! | layer metric | measured from outside as | moves |
//! |---|---|---|
//! | `frontend.*` | span around `presage_frontend::parse` | `ops_per_s`, `latency_p50_us` on predict_warm |
//! | `translate.*` | span around `TranslationCache::translated` | `ops_per_s` on predict_cold |
//! | `transcache.*` | cache hit/miss/evict counts (server: its stats line) | `latency_p50_us` on predict_warm, `peak_rss_mb` on server_stream |
//! | `aggregate.*` | span around `Predictor::predict_ir` | `ops_per_s` on both predict workloads |
//! | `memcost.*` | span around `memcost::mem_cost`, called just before `predict_ir` | `ops_per_s` on predict_cold |
//! | `memo.*` | drained `memo::take_thread_stats()`, `l2_memo_entries()` | `ops_per_s` on the predict workloads, `latency_p50_us` on search_session |
//! | `epoch.*`, `arena.entries` | span around `advance()` + eviction, reclaim reports, `arena_stats()` | `latency_tail_us`, `peak_rss_mb` on predict_cold and server_stream |
//! | `search.*` | `SearchResult` counters per call, span time per explored variant | `latency_p50_us`, `ops_per_s` on search_session |
//! | `server.*` | per-line read stamps and per-line write stamps around `Server::run` | `latency_p50_us` (queue wait), `ops_per_s` (service, write, advance, wave size) on server_stream |
//! | `trace.*` | layer spans over the untraced wall, the remainder, traced over untraced wall − 1 | sanity: the split adds up |
//!
//! A layer the workload does not enter from the benchmark's side reads 0.
//! Spans inside the program (placement vs. symbolic algebra inside
//! `aggregate`, transform/hash/bound inside search) are beyond what can
//! be measured from outside.

mod compare;
mod gen;
mod predict;
mod report;
mod search;
mod server;
mod stats;
mod trace;

use gen::Rng;
use presage_machine::json::Json;
use presage_machine::{machines, CacheParams, MachineDesc};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// The workloads, in BENCHMARK.json order.
const WORKLOADS: [&str; 4] = [
    "predict_cold",
    "predict_warm",
    "search_session",
    "server_stream",
];
/// Time slices per timed window.
const ROUNDS: usize = 24;
/// Latency samples a round keeps: a uniform sample of its operations once
/// it has more, so the benchmark's own memory, and with it `peak_rss_mb`,
/// does not grow with the program's speed.
const SAMPLES_PER_ROUND: usize = 4096;
const DEFAULT_SEED: u64 = 1994;
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
       benchmark run [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark compare --parent A.json... --change B.json... [--spec BENCHMARK.json]
workloads: predict_cold predict_warm search_session server_stream";

pub struct Config {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            trace_dir: PathBuf::from(".bench_trace"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => cfg.workload = value.clone(),
                "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--trace-dir" => cfg.trace_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(cfg.seconds > 0.0 && cfg.seconds <= 3600.0) {
            return Err(format!("--seconds {} out of range", cfg.seconds));
        }
        Ok(cfg)
    }
}

/// The four built-in machines plus `wide8-cache`: wide8 with a 1 MiB
/// fully associative cache of 64-byte lines and a 15-cycle line fill
/// (perfsuite's memory-gate geometry), renamed so it can sit beside
/// wide8 in one server and one translation cache.
pub fn five_machines() -> Result<Vec<MachineDesc>, String> {
    let mut wide8 = machines::wide8();
    wide8.cache = Some(CacheParams {
        line_bytes: 64,
        size_bytes: 1 << 20,
        miss_penalty: 15,
        ways: 0,
        ..CacheParams::default()
    });
    let mut json = Json::parse(&wide8.to_json())?;
    if let Json::Obj(fields) = &mut json {
        for (key, value) in fields.iter_mut() {
            if key == "name" {
                *value = Json::Str("wide8-cache".into());
            }
        }
    }
    let cached = MachineDesc::from_json(&json.to_string_compact())
        .map_err(|e| format!("wide8-cache: {e}"))?;
    let mut all = machines::all();
    all.push(cached);
    Ok(all)
}

/// Retires what earlier rounds left in the process-wide arenas and memo
/// tables, so each set-up starts from the same state.
pub fn settle() {
    presage_symbolic::epoch::advance();
    presage_symbolic::epoch::advance();
}

/// Runs a set-up from a settled process and times it (settling is not
/// timed). Returns what it built and its time in seconds.
pub fn timed_setup<T>(set_up: impl FnOnce() -> T) -> (T, f64) {
    settle();
    let start = Instant::now();
    let built = set_up();
    (built, start.elapsed().as_secs_f64())
}

/// The timed window as a sequence of rounds: time slices ([`Rounds::tick`])
/// or units of work the caller ends ([`Rounds::end_round`]). Each round
/// starts with its own set-up ([`Rounds::set_up`]). A round's rate is its
/// operations over the time spent in them, and each latency sample
/// belongs to the round it was taken in.
pub struct Rounds {
    end: Instant,
    round_len: Duration,
    round_end: Instant,
    closed: usize,
    ops: u64,
    busy: Duration,
    setup_s: f64,
    samples: Reservoir<f64>,
    taken: u64,
    done: Vec<Round>,
}

/// One closed round.
pub struct Round {
    pub rate: f64,
    pub setup_s: f64,
    /// At most [`SAMPLES_PER_ROUND`] of its latency samples.
    pub latency_us: Vec<f64>,
}

/// What a run's selected rounds measured (the fastest quarter, or every
/// burst for the server), and what every round measured, for comparison.
pub struct Measured {
    pub rounds: usize,
    pub selected: usize,
    /// Median set-up time and rate of the selected rounds.
    pub setup_s: f64,
    pub rate: f64,
    /// The selected rounds' latency samples, ascending.
    pub latency_us: Vec<f64>,
    pub all_setup_s: f64,
    pub all_rate: f64,
    pub all_latency_us: Vec<f64>,
}

impl Rounds {
    pub fn new(seconds: f64) -> Rounds {
        let now = Instant::now();
        let round_len = Duration::from_secs_f64(seconds / ROUNDS as f64);
        Rounds {
            end: now + Duration::from_secs_f64(seconds),
            round_len,
            round_end: now + round_len,
            closed: 0,
            ops: 0,
            busy: Duration::ZERO,
            setup_s: 0.0,
            samples: Reservoir::new(SAMPLES_PER_ROUND, 0),
            taken: 0,
            done: Vec::new(),
        }
    }

    /// The current round's number.
    pub fn index(&self) -> usize {
        self.closed
    }

    /// The current round's set-up, timed by [`timed_setup`]. The window's
    /// clock stops while it runs, so set-ups take no time from the timed
    /// work.
    pub fn set_up<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let (built, took) = timed_setup(set_up);
        let paused = start.elapsed();
        self.end += paused;
        self.round_end += paused;
        self.setup_s = took;
        built
    }

    pub fn add(&mut self, ops: u64, busy: Duration) {
        self.ops += ops;
        self.busy += busy;
    }

    pub fn sample(&mut self, latency_us: f64) {
        self.taken += 1;
        self.samples.offer(|| latency_us);
    }

    fn close(&mut self) {
        self.closed += 1;
        let next = Reservoir::new(SAMPLES_PER_ROUND, self.closed as u64);
        let samples = std::mem::replace(&mut self.samples, next).into_items();
        if self.ops > 0 {
            self.done.push(Round {
                rate: self.ops as f64 / self.busy.as_secs_f64().max(f64::MIN_POSITIVE),
                setup_s: self.setup_s,
                latency_us: samples,
            });
        }
        self.ops = 0;
        self.busy = Duration::ZERO;
    }

    /// Closes the time slice if it is over; false once the window is.
    pub fn tick(&mut self) -> bool {
        let now = Instant::now();
        if now >= self.round_end {
            self.close();
            while self.round_end <= now {
                self.round_end += self.round_len;
            }
        }
        now < self.end
    }

    /// Closes the current round; false once the window is over.
    pub fn end_round(&mut self) -> bool {
        self.close();
        Instant::now() < self.end
    }

    /// Latency samples offered, kept or not.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    pub fn finish(self) -> Measured {
        Measured::select(&self.done)
    }
}

impl Measured {
    /// The fastest quarter of `rounds`. On a shared host, neighbours slow this process for
    /// seconds at a time (up to 45% on the 2-core host this was built on,
    /// with CPU time equal to wall time and no run-queue wait); when every
    /// round does the same kind of work, the fastest rounds estimate the
    /// undisturbed speed, and a slower program slows them too. A round's
    /// set-up runs just before its timed work, so the same selection keeps
    /// slowed set-ups out of `setup_s`. baseline.json puts the run-to-run
    /// spread over every round beside the spread over the selected ones.
    pub fn select(rounds: &[Round]) -> Measured {
        let rates: Vec<f64> = rounds.iter().map(|r| r.rate).collect();
        Measured::over(rounds, &stats::fastest_quarter(&rates))
    }

    /// The rounds `pick` of `rounds`.
    pub fn over(rounds: &[Round], pick: &[usize]) -> Measured {
        let every: Vec<usize> = (0..rounds.len()).collect();
        let median_of = |ids: &[usize], f: fn(&Round) -> f64| {
            stats::median(&ids.iter().map(|&i| f(&rounds[i])).collect::<Vec<_>>())
        };
        let latencies = |ids: &[usize]| {
            let mut v: Vec<f64> = ids
                .iter()
                .flat_map(|&i| rounds[i].latency_us.iter().copied())
                .collect();
            stats::sort(&mut v);
            v
        };
        Measured {
            rounds: rounds.len(),
            selected: pick.len(),
            setup_s: median_of(pick, |r| r.setup_s),
            rate: median_of(pick, |r| r.rate),
            latency_us: latencies(pick),
            all_setup_s: median_of(&every, |r| r.setup_s),
            all_rate: median_of(&every, |r| r.rate),
            all_latency_us: latencies(&every),
        }
    }

    /// The selected rounds' numbers beside every round's, with `tail` the
    /// percentile reported as `latency_tail_us`.
    pub fn detail(&self, tail: f64) -> Json {
        let part = |setup_s: f64, rate: f64, lat: &[f64]| {
            Json::Obj(vec![
                ("setup_s".into(), report::num(setup_s)),
                ("ops_per_s".into(), report::num(rate)),
                (
                    "latency_p50_us".into(),
                    report::num(stats::percentile(lat, 50.0)),
                ),
                (
                    "latency_tail_us".into(),
                    report::num(stats::percentile(lat, tail)),
                ),
                ("latency_samples".into(), Json::Num(lat.len() as f64)),
            ])
        };
        Json::Obj(vec![
            ("rounds".into(), Json::Num(self.rounds as f64)),
            ("selected".into(), Json::Num(self.selected as f64)),
            (
                "selected_rounds".into(),
                part(self.setup_s, self.rate, &self.latency_us),
            ),
            (
                "all_rounds".into(),
                part(self.all_setup_s, self.all_rate, &self.all_latency_us),
            ),
        ])
    }
}

/// A uniform seeded sample of at most `cap` items from a stream.
pub struct Reservoir<T> {
    cap: usize,
    seen: u64,
    items: Vec<T>,
    rng: Rng,
}

impl<T> Reservoir<T> {
    pub fn new(cap: usize, seed: u64) -> Reservoir<T> {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::new(),
            rng: Rng::new(seed ^ 0x7e5e_7e5e),
        }
    }

    /// Offers the next stream item; `make` runs only if it is kept.
    pub fn offer(&mut self, make: impl FnOnce() -> T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(make());
        } else {
            let slot = self.rng.below(self.seen) as usize;
            if slot < self.cap {
                self.items[slot] = make();
            }
        }
    }

    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One workload, in this process: the benchmark contract's entry point.
fn run_one(args: &[String]) -> i32 {
    let cfg = match Config::parse(args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    let result = match cfg.workload.as_str() {
        "predict_cold" => predict::run(&cfg, false),
        "predict_warm" => predict::run(&cfg, true),
        "search_session" => search::run(&cfg),
        "server_stream" => server::run(&cfg),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", cfg.workload);
            return 1;
        }
    };
    if outcome.attempted == 0 {
        outcome.mismatch("no operation was attempted".into());
    }
    let metrics = outcome.reported(cfg.trace);
    println!(
        "benchmark: {} seed={} seconds={} trace={} cores={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host_cores()
    );
    for m in &metrics {
        let moves = report::LAYERS
            .iter()
            .find(|l| l.name == m.name)
            .map(|l| format!("  ({} is better; moves {} on {})", l.better, l.moves, l.on))
            .unwrap_or_default();
        println!(
            "  {:<28} {:>18.6} {:<6} n={}{moves}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for msg in &outcome.mismatches {
        println!("  MISMATCH: {msg}");
    }
    println!(
        "  attempted={} failed={} oracle mismatches={}",
        outcome.attempted, outcome.failed, outcome.mismatch_count
    );
    let mut detail = vec![
        ("workload".to_string(), Json::Str(cfg.workload.clone())),
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        ("seconds".to_string(), Json::Num(cfg.seconds)),
        ("host_cores".to_string(), Json::Num(host_cores() as f64)),
        (
            "mismatches".to_string(),
            Json::Num(outcome.mismatch_count as f64),
        ),
        (
            "samples".to_string(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.to_string(), Json::Num(m.samples as f64)))
                    .collect(),
            ),
        ),
    ];
    detail.append(&mut outcome.detail);
    println!(
        "{}",
        Json::Obj(vec![("detail".into(), Json::Obj(detail))]).to_string_compact()
    );
    println!(
        "{}",
        report::result_line(&outcome, &metrics).to_string_compact()
    );
    if outcome.correct() {
        0
    } else {
        1
    }
}

/// Output of a command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, each in a child process.
fn run_all(args: &[String]) -> i32 {
    let mut out_path = None;
    let mut child_args = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--out", Some(path)) => out_path = Some(path.clone()),
            (f @ ("--seed" | "--seconds" | "--trace" | "--trace-dir"), Some(v)) => {
                child_args.push(f.to_string());
                child_args.push(v.clone());
            }
            _ => {
                eprintln!("benchmark run: bad arguments\n{USAGE}");
                return 2;
            }
        }
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark run: cannot find this executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    let mut results = Vec::new();
    let mut seed = DEFAULT_SEED as f64;
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w])
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("benchmark run: cannot start {w}: {e}");
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let mut lines = stdout.lines().rev();
        let result = lines.next().and_then(|l| Json::parse(l).ok());
        let detail = lines
            .next()
            .and_then(|l| Json::parse(l).ok())
            .and_then(|d| d.get("detail").cloned());
        if !output.status.success() || result.is_none() {
            code = 1;
        }
        if let Some(s) = detail
            .as_ref()
            .and_then(|d| d.get("seed"))
            .and_then(Json::as_f64)
        {
            seed = s;
        }
        let mut entry = vec![
            ("name".to_string(), Json::Str(w.into())),
            (
                "exit_code".to_string(),
                Json::Num(output.status.code().unwrap_or(-1) as f64),
            ),
        ];
        if let Some(Json::Obj(fields)) = result {
            entry.extend(fields);
        }
        entry.push(("detail".to_string(), detail.unwrap_or(Json::Null)));
        results.push(Json::Obj(entry));
    }
    let meta = Json::Obj(vec![
        ("seed".into(), Json::Num(seed)),
        (
            "git_commit".into(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), Json::Str(command_line("rustc", &["-V"]))),
        ("host_cores".into(), Json::Num(host_cores() as f64)),
        (
            "args".into(),
            Json::Arr(child_args.into_iter().map(Json::Str).collect()),
        ),
    ]);
    let report = Json::Obj(vec![
        ("meta".into(), meta),
        ("workloads".into(), Json::Arr(results)),
    ]);
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, report.to_string_pretty() + "\n") {
            eprintln!("benchmark run: cannot write {path}: {e}");
            return 1;
        }
        println!("benchmark run: wrote {path}");
    }
    code
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => run_one(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen::stream;
    use presage_core::Predictor;

    #[test]
    fn generator_is_deterministic_per_seed_and_varies_across_seeds() {
        for i in 0..64 {
            assert_eq!(
                gen::routine(1994, stream::COLD, i),
                gen::routine(1994, stream::COLD, i)
            );
        }
        let differing = (0..64)
            .filter(|&i| gen::routine(1994, stream::COLD, i) != gen::routine(7, stream::COLD, i))
            .count();
        assert_eq!(differing, 64, "another seed gives other routines");
        assert_ne!(
            gen::routine(1994, stream::COLD, 3),
            gen::routine(1994, stream::WARM, 3),
            "streams are disjoint"
        );
    }

    #[test]
    fn generated_routines_predict_on_every_machine() {
        let machines = five_machines().expect("wide8-cache builds");
        assert_eq!(machines.len(), 5);
        let predictors: Vec<Predictor> = machines.into_iter().map(Predictor::new).collect();
        for seed in [1994, 7, 0xdead_beef] {
            for i in 0..500 {
                let src = gen::routine(seed, stream::COLD, i);
                for p in &predictors {
                    match p.predict_source(&src) {
                        Ok(preds) => assert_eq!(preds.len(), 1, "{src}"),
                        Err(e) => panic!(
                            "seed {seed} routine {i} on {}: {e}\n{src}",
                            p.machine().name()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(stats::tail_percentile(40), Some(75.0));
        assert_eq!(stats::tail_percentile(39), None);
        assert_eq!(stats::tail_percentile(100), Some(90.0));
        assert_eq!(stats::tail_percentile(200), Some(95.0));
        assert_eq!(stats::tail_percentile(1000), Some(99.0));
        assert_eq!(stats::tail_percentile(10_000), Some(99.9));
        for n in [40, 57, 150, 999, 1000, 4321, 9999] {
            let p = stats::tail_percentile(n).expect("enough samples");
            assert!(stats::beyond(n, p) >= 10, "n={n} p={p}");
        }
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(stats::percentile(&sorted, 50.0), 50.0);
        assert_eq!(stats::percentile(&sorted, 99.0), 99.0);
        assert_eq!(stats::quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(stats::quartiles(&sorted[..10]), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn reservoir_keeps_a_bounded_seeded_sample() {
        let sample = |seed| {
            let mut r = Reservoir::new(8, seed);
            for i in 0..1000 {
                r.offer(|| i);
            }
            r.into_items()
        };
        assert_eq!(sample(1).len(), 8);
        assert_eq!(sample(1), sample(1));
        assert!(
            sample(1).iter().any(|&i| i >= 8),
            "later items replace early ones"
        );
    }

    #[test]
    fn benchmark_json_matches_this_binary() {
        let spec = Json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = spec
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| spec.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let field = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();
        let valid = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);

        let e2e = list("end_to_end");
        assert!(!e2e.is_empty() && e2e.len() <= 16);
        let round = Round {
            rate: 1.0,
            setup_s: 1.0,
            latency_us: vec![1.0],
        };
        let measured = Measured::select(&[round]);
        let reported = report::e2e_metrics(&measured, 90.0, 1.0);
        assert_eq!(e2e.len(), reported.len());
        for (m, r) in e2e.iter().zip(&reported) {
            assert_eq!(
                (field(m, "name"), field(m, "unit")),
                (r.name.into(), r.unit.into())
            );
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!((0.0..=0.25).contains(&bound), "{}", r.name);
        }
        let setup = e2e
            .iter()
            .find(|m| field(m, "name") == "setup_s")
            .expect("setup_s");
        assert_eq!(
            (field(setup, "unit"), field(setup, "better")),
            ("s".into(), "lower".into())
        );
        let largest = e2e
            .iter()
            .filter_map(|m| m.get("bound")?.as_f64())
            .fold(0.0, f64::max);
        assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));

        let per_layer = list("per_layer");
        assert!(!per_layer.is_empty() && per_layer.len() <= 128);
        assert_eq!(per_layer.len(), report::LAYERS.len());
        let e2e_names: Vec<String> = e2e.iter().map(|m| field(m, "name")).collect();
        for (m, l) in per_layer.iter().zip(&report::LAYERS) {
            assert_eq!(
                (field(m, "name"), field(m, "unit"), field(m, "better")),
                (l.name.into(), l.unit.into(), l.better.into())
            );
            assert!(
                e2e_names.iter().any(|n| n == l.moves),
                "{} moves {}",
                l.name,
                l.moves
            );
            assert!(
                l.on == "*" || WORKLOADS.contains(&l.on),
                "{} on {}",
                l.name,
                l.on
            );
        }

        let mut names: Vec<String> = workloads.iter().chain(&e2e_names).cloned().collect();
        names.extend(per_layer.iter().map(|m| field(m, "name")));
        let count = names.len();
        assert!(names.iter().all(|n| valid(n)), "{names:?}");
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "every name is used once");
    }
}
