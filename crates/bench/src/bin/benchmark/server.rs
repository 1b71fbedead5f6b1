//! `server_stream`: an in-process `Server::run` under
//! `ServerConfig::default()`, fed one JSON-lines stream by one generator
//! thread.
//!
//! The stream has two phases. *low* is an open loop at [`LOW_RATE`]
//! requests/s, each request timed from the moment it was due, so a
//! request that waits for its wave to fill is charged the wait. *sat*
//! writes a fixed number of bursts of [`BURST`] requests back to back and
//! awaits each burst's last response before the next: the server's
//! capacity.
//!
//! The generator checks each phase's and each burst's responses while the
//! server is idle between them, and keeps only what the oracle needs (one
//! hash of the served cost per distinct routine and machine), so the
//! benchmark's own memory stays small and `peak_rss_mb` is mostly the
//! server's.
//!
//! Each burst is a round and starts with its own set-up: once the server
//! has asked for the burst's first line, the generator builds a second
//! server and has it serve one wave, which is what a fresh daemon does
//! before it answers anyone. The untraced run only: the set-up's epoch
//! advances would take reclaims from the served stream's counters.

use crate::gen::{self, stream, Rng};
use crate::predict::memo_layers;
use crate::report::{self, Outcome};
use crate::stats;
use crate::{five_machines, timed_setup, Config, Measured, Round};
use presage_core::Predictor;
use presage_machine::json::Json;
use presage_machine::MachineDesc;
use presage_server::{Server, ServerConfig, ServerStats};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Offered load of the low phase, requests/s.
const LOW_RATE: f64 = 250.0;
/// Share of the run spent in the low phase; the rest is bursts.
const LOW_SHARE: f64 = 0.5;
/// Requests per saturation burst: a multiple of every power-of-two wave
/// size up to 1024, so no burst leaves a partial wave waiting.
const BURST: usize = 1024;
/// The rate, requests/s, that sizes the saturation phase: about the
/// server's capacity on the 2-core host this benchmark was written on. The
/// burst count follows from `--seconds` and this rate, so a run does the
/// same work however fast the server is, and `peak_rss_mb` (the server
/// keeps one latency per request) does not move with its speed.
const SAT_SIZING_RATE: f64 = 11_000.0;
const MIN_BURSTS: usize = 8;
/// Share of requests that re-submit a (routine, machine) pair sent in
/// the last [`RECENT`] requests; the rest are new routines.
const RESUBMIT_PCT: u64 = 70;
const RECENT: usize = 256;
/// Malformed, unknown-machine and uncompilable requests, per mille.
const BAD_PER_MILLE: u64 = 5;
/// How long the generator waits for a phase's responses before it gives
/// up, closes the stream and reports the run as failed.
const WAIT_LIMIT: Duration = Duration::from_secs(60);
/// A phase whose p99 generator lateness exceeds this is not a valid
/// latency measurement.
const LATENESS_LIMIT_US: f64 = 1000.0;
/// The interactive latency limit the run reports each phase against.
const LATENCY_LIMIT_MS: f64 = 50.0;

/// What a request's response must say.
#[derive(Clone, Copy)]
enum Expect {
    Cost { routine: u64, machine: usize },
    Error(&'static str),
}

fn request_line(id: u64, machine: &str, source: &str) -> String {
    Json::Obj(vec![
        ("id".into(), Json::Num(id as f64)),
        ("machine".into(), Json::Str(machine.into())),
        ("source".into(), Json::Str(source.into())),
    ])
    .to_string_compact()
}

/// The request mix: re-submissions of recent pairs, new routines spread
/// uniformly over the machines, and a few bad requests of each kind.
struct Mix {
    rng: Rng,
    seed: u64,
    names: Vec<String>,
    recent: VecDeque<(u64, usize)>,
    next_routine: u64,
    bad: u64,
    sent: u64,
}

impl Mix {
    fn next(&mut self) -> (String, Expect) {
        let id = self.sent;
        self.sent += 1;
        if self.rng.below(1000) < BAD_PER_MILLE {
            self.bad += 1;
            return match self.bad % 3 {
                0 => (
                    format!("{{\"id\":{id},\"machine\":\"wide8\",\"source\":\"subroutine"),
                    Expect::Error("parse"),
                ),
                1 => (
                    request_line(id, "vax11", "subroutine s(a)\nreal a\nend"),
                    Expect::Error("machine"),
                ),
                _ => (
                    request_line(id, &self.names[0], "subroutine broken(a\n end"),
                    Expect::Error("frontend"),
                ),
            };
        }
        let pair = if !self.recent.is_empty() && self.rng.chance(RESUBMIT_PCT) {
            self.recent[self.rng.below(self.recent.len() as u64) as usize]
        } else {
            self.next_routine += 1;
            (
                self.next_routine - 1,
                self.rng.below(self.names.len() as u64) as usize,
            )
        };
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(pair);
        let src = gen::routine(self.seed, stream::SERVER, pair.0);
        (
            request_line(id, &self.names[pair.1], &src),
            Expect::Cost {
                routine: pair.0,
                machine: pair.1,
            },
        )
    }
}

/// The server's output not yet checked, with the time each line was
/// completed, how many lines it has written in all, and the count the
/// generator waits for.
#[derive(Default)]
struct Output {
    bytes: Vec<u8>,
    stamps: Vec<Instant>,
    lines: usize,
    wanted: Option<usize>,
}

/// Lines the server has asked the reader for, and the count the generator
/// waits for.
#[derive(Default)]
struct Reads {
    count: usize,
    wanted: Option<usize>,
}

/// What the server thread and the generator share. The server's side
/// wakes the generator only once the count it waits for is reached, so a
/// burst does not cost the server a wake-up per line.
#[derive(Default)]
struct Shared {
    out: Mutex<Output>,
    out_cv: Condvar,
    reads: Mutex<Reads>,
    read_cv: Condvar,
}

/// Waits up to [`WAIT_LIMIT`] for `done` to hold; `None` on timeout.
fn wait_for<'a, T>(
    lock: &'a Mutex<T>,
    cv: &Condvar,
    done: impl Fn(&T) -> bool,
) -> Option<MutexGuard<'a, T>> {
    let deadline = Instant::now() + WAIT_LIMIT;
    let mut guard = lock.lock().expect("benchmark lock poisoned");
    while !done(&guard) {
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        guard = cv
            .wait_timeout(guard, deadline - now)
            .expect("benchmark lock poisoned")
            .0;
    }
    Some(guard)
}

impl Shared {
    /// Waits until the server has written `target` lines, then takes what
    /// it wrote since the last take. `None` on timeout.
    fn take(&self, target: usize) -> Option<Output> {
        self.out.lock().expect("benchmark lock poisoned").wanted = Some(target);
        let mut out = wait_for(&self.out, &self.out_cv, |o| o.lines >= target)?;
        out.wanted = None;
        Some(Output {
            bytes: std::mem::take(&mut out.bytes),
            stamps: std::mem::take(&mut out.stamps),
            lines: out.lines,
            wanted: None,
        })
    }

    /// Waits until the server has asked for line `line` (counted from 0),
    /// which it does only once every earlier line is answered and the
    /// epoch advanced: from then on it is idle. False on timeout.
    fn wait_idle(&self, line: usize) -> bool {
        self.reads.lock().expect("benchmark lock poisoned").wanted = Some(line + 1);
        let Some(mut reads) = wait_for(&self.reads, &self.read_cv, |r| r.count > line) else {
            return false;
        };
        reads.wanted = None;
        true
    }
}

/// The server's output.
struct StampWriter {
    shared: Arc<Shared>,
}

impl Write for StampWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let lines = data.iter().filter(|&&b| b == b'\n').count();
        let mut out = self.shared.out.lock().expect("benchmark lock poisoned");
        if lines > 0 {
            let now = Instant::now();
            out.stamps.extend(std::iter::repeat_n(now, lines));
            out.lines += lines;
        }
        out.bytes.extend_from_slice(data);
        let wake = lines > 0 && out.wanted.is_some_and(|w| out.lines >= w);
        drop(out);
        if wake {
            self.shared.out_cv.notify_all();
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The server's input: one line per refill. When tracing, each refill is
/// stamped when the server asks for it and when it gets it.
struct ChannelReader {
    rx: Receiver<String>,
    shared: Arc<Shared>,
    buf: Vec<u8>,
    pos: usize,
    tracing: bool,
    calls: Vec<Instant>,
    returns: Vec<Instant>,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            if self.tracing {
                self.calls.push(Instant::now());
            }
            self.buf.clear();
            self.pos = 0;
            let mut reads = self.shared.reads.lock().expect("benchmark lock poisoned");
            reads.count += 1;
            let wake = reads.wanted.is_some_and(|w| reads.count >= w);
            drop(reads);
            if wake {
                self.shared.read_cv.notify_all();
            }
            if let Ok(line) = self.rx.recv() {
                self.buf.extend_from_slice(line.as_bytes());
                self.buf.push(b'\n');
            }
            if self.tracing {
                self.returns.push(Instant::now());
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

fn cost_hash(cost: &str) -> u64 {
    let mut h = DefaultHasher::new();
    cost.hash(&mut h);
    h.finish()
}

/// What the generator sent and what came back.
#[derive(Default)]
struct Report {
    sent: u64,
    low_us: Vec<f64>,
    lateness_us: Vec<f64>,
    /// Each burst's rate and set-up time.
    bursts: Vec<Round>,
    /// Jobs the set-up waves ran, and how many failed.
    setup_jobs: u64,
    setup_failed: u64,
    /// Burst latencies, from each burst's start.
    sat_us: Vec<f64>,
    send_ms: Vec<f64>,
    expected_errors: u64,
    /// Hash of the cost served for each (routine, machine).
    costs: HashMap<(u64, usize), u64>,
    failed: u64,
    mismatches: Vec<String>,
    /// Every response stamp, kept only when tracing.
    stamps: Vec<Instant>,
}

impl Report {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(msg);
        }
    }

    /// Checks the responses to requests `first..` against `expects`.
    fn check(&mut self, first: u64, expects: &[Expect], out: &Output) {
        let text = String::from_utf8_lossy(&out.bytes);
        let mut lines = text.lines();
        for (k, expect) in expects.iter().enumerate() {
            let id = first + k as u64;
            let Some(line) = lines.next() else {
                self.fail(format!("request {id}: no response"));
                continue;
            };
            let Ok(v) = Json::parse(line) else {
                self.fail(format!("request {id}: unparseable response {line}"));
                continue;
            };
            let ok = v.get("ok").and_then(Json::as_bool);
            match *expect {
                Expect::Cost { routine, machine } => {
                    let cost = v
                        .get("predictions")
                        .and_then(Json::as_arr)
                        .and_then(|p| p.first())
                        .and_then(|p| p.get("cost"))
                        .and_then(Json::as_str);
                    match (ok, cost, v.get("id").and_then(Json::as_u64)) {
                        (Some(true), Some(cost), Some(got)) if got == id => {
                            let h = cost_hash(cost);
                            if *self.costs.entry((routine, machine)).or_insert(h) != h {
                                self.fail(format!(
                                    "request {id}: another cost than before for the same routine"
                                ));
                            }
                        }
                        _ => self.fail(format!("request {id}: unexpected response {line}")),
                    }
                }
                Expect::Error(kind) => {
                    if ok == Some(false) && v.get("kind").and_then(Json::as_str) == Some(kind) {
                        self.expected_errors += 1;
                    } else {
                        self.fail(format!(
                            "request {id}: expected a `{kind}` error, got {line}"
                        ));
                    }
                }
            }
        }
    }
}

/// A set-up: a fresh server, after it has served the given wave.
fn set_up(cached: &MachineDesc, wave: &str) -> Result<(Server, ServerStats), String> {
    let mut s = Server::new(ServerConfig::default()).with_machine(cached.clone());
    let stats = s
        .run(wave.as_bytes(), &mut std::io::sink())
        .map_err(|e| format!("set-up wave failed: {e}"))?;
    Ok((s, stats))
}

/// Sends the stream, awaits and checks each phase's responses, and closes
/// the stream when done (dropping `tx`). `setup` holds the machine to
/// register and the wave that burst `k`'s set-up serves; without it the
/// bursts have no set-up.
fn generate(
    tx: Sender<String>,
    mut mix: Mix,
    shared: &Shared,
    n_low: usize,
    n_bursts: usize,
    tracing: bool,
    setup: Option<(&MachineDesc, &(dyn Fn(u64) -> String + Sync))>,
) -> Report {
    let mut report = Report::default();
    let keep = |report: &mut Report, out: &Output| {
        if tracing {
            report.stamps.extend_from_slice(&out.stamps);
        }
    };
    // The server reads until the stream ends, which is when `tx` drops,
    // so a send cannot fail while this thread runs.
    let send = |line: String| {
        let _ = tx.send(line);
    };

    let t0 = Instant::now() + Duration::from_millis(5);
    let mut expects = Vec::with_capacity(n_low);
    let mut due = Vec::with_capacity(n_low);
    for k in 0..n_low {
        let (line, expect) = mix.next();
        let at = t0 + Duration::from_secs_f64(k as f64 / LOW_RATE);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        report
            .lateness_us
            .push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e6);
        send(line);
        expects.push(expect);
        due.push(at);
    }
    report.sent = n_low as u64;
    let Some(out) = shared.take(n_low) else {
        report.fail("no response to the low phase".into());
        return report;
    };
    report.check(0, &expects, &out);
    report.low_us = due
        .iter()
        .zip(&out.stamps)
        .map(|(d, s)| s.saturating_duration_since(*d).as_secs_f64() * 1e6)
        .collect();
    keep(&mut report, &out);

    for burst in 1..=n_bursts {
        let (lines, expects): (Vec<String>, Vec<Expect>) = (0..BURST).map(|_| mix.next()).unzip();
        let mut setup_s = 0.0;
        if let Some((cached, setup_wave)) = setup {
            if !shared.wait_idle(report.sent as usize) {
                report.fail("the server never asked for a saturation burst".into());
                break;
            }
            let wave = setup_wave(burst as u64);
            let (built, took) = timed_setup(|| set_up(cached, &wave));
            match built {
                Ok((_, stats)) => {
                    report.setup_jobs += stats.jobs;
                    report.setup_failed += stats.failed;
                }
                Err(e) => {
                    report.fail(e);
                    break;
                }
            }
            setup_s = took;
        }
        let first = report.sent;
        let start = Instant::now();
        for line in lines {
            send(line);
        }
        report.sent += BURST as u64;
        report.send_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let Some(out) = shared.take(report.sent as usize) else {
            report.fail("no response to a saturation burst".into());
            break;
        };
        report.check(first, &expects, &out);
        if let Some(end) = out.stamps.get(BURST - 1) {
            report.bursts.push(Round {
                rate: BURST as f64 / end.saturating_duration_since(start).as_secs_f64(),
                setup_s,
                latency_us: Vec::new(),
            });
        }
        report.sat_us.extend(
            out.stamps
                .iter()
                .map(|s| s.saturating_duration_since(start).as_secs_f64() * 1e6),
        );
        keep(&mut report, &out);
    }
    report
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let machines = five_machines()?;
    let names: Vec<String> = machines.iter().map(|m| m.name().to_string()).collect();
    let cached = machines
        .iter()
        .find(|m| m.cache.is_some())
        .ok_or("no cache machine")?
        .clone();
    let mut out = Outcome::default();

    // The served stream's server, set up as every burst's set-up is.
    let setup_wave = |k: u64| {
        let mut text = String::new();
        for i in 0..64u64 {
            let src = gen::routine(cfg.seed, stream::SERVER_SETUP, k * 64 + i);
            text.push_str(&request_line(i, &names[i as usize % names.len()], &src));
            text.push('\n');
        }
        text
    };
    let (mut server, stats) = set_up(&cached, &setup_wave(0))?;
    out.attempted += stats.jobs;
    out.failed += stats.failed;

    let n_low = ((LOW_RATE * cfg.seconds * LOW_SHARE / 64.0).floor() as usize).max(1) * 64;
    let n_bursts = ((cfg.seconds * (1.0 - LOW_SHARE) * SAT_SIZING_RATE / BURST as f64).round()
        as usize)
        .max(MIN_BURSTS);
    let mix = Mix {
        rng: Rng::new(cfg.seed ^ 0x5e4e),
        seed: cfg.seed,
        names: names.clone(),
        recent: VecDeque::new(),
        next_routine: 0,
        bad: 0,
        sent: 0,
    };
    let shared = Arc::new(Shared::default());
    let (tx, rx) = channel();
    let mut reader = ChannelReader {
        rx,
        shared: Arc::clone(&shared),
        buf: Vec::new(),
        pos: 0,
        tracing: cfg.trace,
        calls: Vec::new(),
        returns: Vec::new(),
    };
    let mut writer = StampWriter {
        shared: Arc::clone(&shared),
    };
    let wave_of: &(dyn Fn(u64) -> String + Sync) = &setup_wave;
    let setup = (!cfg.trace).then_some((&cached, wave_of));
    let (report, served, run_wall) = std::thread::scope(|s| {
        let generator =
            s.spawn(move || generate(tx, mix, &shared, n_low, n_bursts, cfg.trace, setup));
        let start = Instant::now();
        let served = server.run(&mut reader, &mut writer);
        let wall = start.elapsed();
        (generator.join(), served, wall)
    });
    let report = report.map_err(|_| "generator thread panicked".to_string())?;
    let served = served.map_err(|e| format!("server run failed: {e}"))?;
    let rss = report::peak_rss_mb()?;
    let arena = presage_symbolic::arena_stats();
    let arena_entries = (arena.symbols + arena.monomials + arena.polynomials) as f64;
    let l2_entries = presage_core::l2_memo_entries() as f64;
    let n = report.sent as usize;
    out.attempted += report.sent + report.setup_jobs;
    out.failed += report.failed + report.setup_failed;
    for msg in &report.mismatches {
        out.mismatch(msg.clone());
    }
    out.mismatch_count += report.failed.saturating_sub(report.mismatches.len() as u64);
    if served.jobs != report.sent {
        out.mismatch(format!(
            "{} requests sent but {} read",
            report.sent, served.jobs
        ));
    }
    out.detail("expected_errors", Json::Num(report.expected_errors as f64));
    check_costs(cfg.seed, &machines, &report.costs, &mut out);

    let mut low_us = report.low_us;
    stats::sort(&mut low_us);
    let mut sat_us = report.sat_us;
    stats::sort(&mut sat_us);
    let mut lateness = report.lateness_us;
    stats::sort(&mut lateness);
    let mut send_ms = report.send_ms;
    stats::sort(&mut send_ms);
    let low_valid = stats::percentile(&lateness, 99.0) <= LATENESS_LIMIT_US;
    if !low_valid {
        eprintln!(
            "benchmark: server_stream low phase invalid: generator p99 lateness above {LATENESS_LIMIT_US} us"
        );
    }
    let low_p99_ms = stats::percentile(&low_us, 99.0) / 1e3;
    let sat_p99_ms = stats::percentile(&sat_us, 99.0) / 1e3;
    out.detail(
        "low",
        Json::Obj(vec![
            ("requests".into(), Json::Num(n_low as f64)),
            ("rate".into(), Json::Num(LOW_RATE)),
            ("latency_us".into(), report::summary(&low_us)),
            ("lateness_us".into(), report::summary(&lateness)),
            ("valid".into(), Json::Bool(low_valid)),
            ("p99_limit_ms".into(), Json::Num(LATENCY_LIMIT_MS)),
            (
                "meets_limit".into(),
                Json::Bool(low_p99_ms <= LATENCY_LIMIT_MS),
            ),
        ]),
    );
    out.detail(
        "sat",
        Json::Obj(vec![
            ("bursts".into(), Json::Num(report.bursts.len() as f64)),
            ("burst_requests".into(), Json::Num(BURST as f64)),
            ("latency_us".into(), report::summary(&sat_us)),
            ("send_ms".into(), report::summary(&send_ms)),
            (
                "meets_limit".into(),
                Json::Bool(sat_p99_ms <= LATENCY_LIMIT_MS),
            ),
        ]),
    );
    println!(
        "benchmark: server_stream: latency limit p99 <= {LATENCY_LIMIT_MS} ms: low phase {:.1} ms ({}), sat bursts {:.1} ms ({})",
        low_p99_ms,
        if low_p99_ms <= LATENCY_LIMIT_MS { "met" } else { "missed" },
        sat_p99_ms,
        if sat_p99_ms <= LATENCY_LIMIT_MS { "met" } else { "missed" },
    );

    // Capacity and set-up are medians over every burst. Unlike the
    // closed-loop workloads' rounds, bursts are too short and their request
    // mixes too unlike for the fastest quarter to estimate the undisturbed
    // speed: over ten seeds that selection spread `ops_per_s` as wide as
    // every burst's median did, or wider (see baseline.json). The low
    // phase's latencies are all kept, since arrival times and wave filling,
    // not CPU speed, set them.
    let every: Vec<usize> = (0..report.bursts.len()).collect();
    let mut measured = Measured::over(&report.bursts, &every);
    measured.latency_us = low_us.clone();
    measured.all_latency_us = low_us;
    out.detail("rounds", measured.detail(99.0));
    if !cfg.trace {
        out.e2e = report::e2e_metrics(&measured, 99.0, rss);
        return Ok(out);
    }

    // Per-layer split, reconstructed from the reader's and writer's stamps.
    let stamps = &report.stamps;
    if reader.returns.len() != n + 1 || stamps.len() < n {
        out.mismatch("server read or wrote an unexpected number of lines".to_string());
        return Ok(out);
    }
    let w = waves(&reader.calls, &reader.returns, &stamps[..n], n_low);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let waves_n = w.jobs.len();
    out.layer(
        "server.queue_wait_ms",
        stats::median(&w.queue_us) / 1e3,
        w.queue_us.len(),
    );
    out.layer("server.service_ms", mean(&w.service_us) / 1e3, waves_n);
    out.layer("server.write_ms", mean(&w.write_us) / 1e3, waves_n);
    out.layer(
        "server.advance_ms",
        mean(&w.advance_us) / 1e3,
        w.advance_us.len(),
    );
    out.layer("server.wave_jobs", mean(&w.jobs), waves_n);
    let lookups = served.translation_hits + served.translation_misses;
    out.layer(
        "transcache.hit_ratio",
        served.translation_hits as f64 / lookups.max(1) as f64,
        lookups as usize,
    );
    out.layer(
        "transcache.evicted",
        served.translations_evicted as f64,
        served.advances as usize,
    );
    memo_layers(&mut out, &served.memo);
    out.layer(
        "epoch.reclaimed_polys",
        served.polys_reclaimed as f64,
        served.advances as usize,
    );
    out.layer("arena.entries", arena_entries, 1);
    out.layer("memo.l2_entries", l2_entries, 1);
    // The reads, the gaps between them (wire parsing, or a wave's
    // service, write and advance) and the final wave tile the server
    // thread's time inside `run`; what is left is its start and the
    // stats line.
    let covered = w.covered_us / 1e6 / run_wall.as_secs_f64().max(f64::MIN_POSITIVE);
    out.layer("trace.coverage", covered, n);
    out.layer("trace.other_share", 1.0 - covered, n);
    out.layer(
        "trace.overhead_frac",
        stamp_cost() * reader.calls.len() as f64 / run_wall.as_secs_f64().max(f64::MIN_POSITIVE),
        reader.calls.len(),
    );
    Ok(out)
}

/// The server's waves, reconstructed from outside (all times in µs).
#[derive(Default)]
struct Waves {
    jobs: Vec<f64>,
    /// Dispatch (return of the wave's last line) → first response.
    service_us: Vec<f64>,
    /// First → last response of the wave.
    write_us: Vec<f64>,
    /// Last response → the server's next read (the epoch advance).
    advance_us: Vec<f64>,
    /// Line returned → its wave's dispatch, over the low phase.
    queue_us: Vec<f64>,
    /// Reads plus the gaps between them plus the final wave.
    covered_us: f64,
}

/// The server reads one line per refill and writes responses in request
/// order, so the wave holding line `k` was dispatched right after it
/// exactly when response `k` is written before the next refill. The
/// last entry of `calls`/`returns` is the read that saw the end of the
/// stream, which dispatches whatever is queued.
fn waves(calls: &[Instant], returns: &[Instant], stamps: &[Instant], n_low: usize) -> Waves {
    let us = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e6;
    let n = stamps.len();
    let mut w = Waves::default();
    let mut wave_start = 0;
    for k in 0..=n {
        w.covered_us += us(calls[k], returns[k]);
        let next = calls.get(k + 1).copied();
        if let Some(next) = next {
            w.covered_us += us(returns[k], next);
        }
        let ends_wave = k < n && next.is_some_and(|c| stamps[k] < c);
        let at_eof = k == n && wave_start < n;
        if !(ends_wave || at_eof) {
            continue;
        }
        let last = k.min(n - 1);
        let (first_out, last_out) = (stamps[wave_start], stamps[last]);
        w.jobs.push((last + 1 - wave_start) as f64);
        w.service_us.push(us(returns[k], first_out));
        w.write_us.push(us(first_out, last_out));
        match next {
            Some(next) => w.advance_us.push(us(last_out, next)),
            None => w.covered_us += us(returns[k], last_out),
        }
        for r in wave_start..=last {
            if r < n_low {
                w.queue_us.push(us(returns[r], returns[k]));
            }
        }
        wave_start = last + 1;
    }
    w
}

/// Seconds the reader spends stamping one refill: two `Instant::now`
/// calls and two pushes, timed over a calibration loop. The traced run
/// stamps every refill and has no untraced twin on the same stream, so
/// this cost times the refills is its overhead.
fn stamp_cost() -> f64 {
    const N: usize = 100_000;
    let mut v = Vec::with_capacity(2 * N);
    let start = Instant::now();
    for _ in 0..N {
        v.push(Instant::now());
        v.push(Instant::now());
    }
    let took = start.elapsed().as_secs_f64();
    std::hint::black_box(&v);
    took / N as f64
}

/// Every served cost against a fresh uncached predictor, once per
/// distinct (routine, machine), on two threads.
fn check_costs(
    seed: u64,
    machines: &[MachineDesc],
    costs: &HashMap<(u64, usize), u64>,
    out: &mut Outcome,
) {
    let pairs: Vec<(&(u64, usize), &u64)> = costs.iter().collect();
    let half = pairs.len().div_ceil(2).max(1);
    let check = |chunk: &[(&(u64, usize), &u64)]| -> Vec<String> {
        let mut bad = Vec::new();
        for (&(routine, machine), &served) in chunk {
            let m = &machines[machine];
            let src = gen::routine(seed, stream::SERVER, routine);
            let oracle = Predictor::new(m.clone())
                .predict_source(&src)
                .ok()
                .and_then(|p| p.first().map(|p| p.total.to_string()));
            if oracle.as_deref().map(cost_hash) != Some(served) {
                bad.push(format!(
                    "routine {routine} on {}: the served cost differs from the oracle's {oracle:?}",
                    m.name()
                ));
            }
        }
        bad
    };
    let results: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(half)
            .map(|c| s.spawn(move || check(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec!["oracle thread panicked".to_string()])
            })
            .collect()
    });
    for msg in results.into_iter().flatten() {
        out.failed += 1;
        out.mismatch(msg);
    }
    out.detail("oracle_pairs", Json::Num(pairs.len() as f64));
}
