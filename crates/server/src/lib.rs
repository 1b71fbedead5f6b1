//! A JSON-lines prediction daemon over the batch prediction engine.
//!
//! The paper's workload is a restructurer calling the predictor
//! "repeatedly during restructuring" (§3.2). This crate packages that
//! workload as a long-lived process: clients stream `(machine, source)`
//! jobs as JSON objects, one per line, and receive one response line per
//! job — the symbolic cost expression of every subroutine, or a typed
//! error. Jobs are grouped into *waves* and multiplexed onto
//! [`Predictor::predict_batch`]'s work-stealing workers, so a wave of
//! restructuring candidates shares the translation cache, the global
//! polynomial arena, and the two-level memo tables.
//!
//! # Dispatch
//!
//! A reader thread stamps each request line as it arrives and queues it
//! on a channel bounded at [`ServerConfig::wave_size`] lines, so a fast
//! client is held back rather than buffered. The dispatcher never waits
//! for a wave to fill: it blocks for one line, takes whatever else is
//! already queued (up to the wave cap), and serves that. A client that
//! sends one request and waits is answered at once; under load, lines
//! queue while a wave is served, so the next wave is full again and
//! batching comes back by itself.
//!
//! What makes a *long-lived* server possible at all is the epoch
//! reclamation underneath (`presage_symbolic::epoch`): between waves the
//! server advances the epoch, once per `advance_every × wave_size`
//! served jobs (counted across all of a server's streams and clones),
//! which reclaims retired polynomial arena
//! slots and translation-arena blocks and wipes the id-keyed memo
//! tables, then evicts translation-cache entries whose generation fell
//! behind. Footprint is therefore bounded by the working set of a few
//! recent waves, not by the total number of distinct programs ever seen
//! — the unbounded-growth bug the epoch layer exists to fix.
//!
//! # Protocol
//!
//! Request (one line):
//!
//! ```json
//! {"id": 7, "machine": "power-like", "source": "subroutine s(...)..."}
//! ```
//!
//! - `machine` — a built-in machine name ([`machines::by_name`]) or one
//!   registered with [`Server::with_machine`];
//! - `source` — mini-Fortran source text (may contain `\n` escapes);
//! - `id` — optional, echoed verbatim in the response.
//!
//! Response (one line per request, in request order):
//!
//! ```json
//! {"id":7,"ok":true,"us":412,"predictions":[{"name":"s","cost":"4 + 11*n","concrete":false}]}
//! {"id":8,"ok":false,"kind":"machine","error":"unknown machine `vax`"}
//! ```
//!
//! When the job's machine declares a `cache` section, each prediction
//! additionally carries `"compute"` (the instruction-stream cost alone)
//! and a `"memory"` object — `{"cycles": ..., "lines": ..., "exact":
//! bool}` from the §2.3 cache-line access model — and `"cost"` is their
//! total. Perfect-cache machines (no `cache` section) are bit-identical
//! to the pre-cache protocol.
//!
//! After EOF the server writes one final `{"stats": ...}` line with
//! latency and queue-wait percentiles, the dispatcher's service / write /
//! advance time, the mean wave size and cache/memo/arena telemetry, then
//! returns the same [`ServerStats`] to the caller.

use presage_core::batch::default_workers;
use presage_core::predictor::{PredictError, Predictor, PredictorOptions};
use presage_core::transcache::TranslationCache;
use presage_machine::json::Json;
use presage_machine::{machines, MachineDesc, MachineWarning};
use presage_symbolic::memo::MemoStats;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads per wave (see
    /// [`presage_core::batch::predict_batch`]); 1 runs waves inline on
    /// the dispatcher.
    pub workers: usize,
    /// The cap on jobs per wave, not a fill target: a wave is whatever
    /// has queued when the dispatcher turns to the input, up to this many
    /// jobs. It also bounds the lines read ahead of the dispatcher, whose
    /// queue is allocated up front, so values are clamped to
    /// `1..=65536`.
    pub wave_size: usize,
    /// Advance the reclamation epoch once at least `advance_every ×
    /// wave_size` jobs have been served since the last advance — every
    /// `advance_every` waves when waves are full, without an advance per
    /// request when they are not (0 disables — footprint then grows with
    /// the distinct-program count, which is only safe for short-lived
    /// runs). Jobs are counted across every stream served by a
    /// [`Server`] and its clones, so many short connections advance on
    /// the same schedule as one long one.
    pub advance_every: usize,
}

impl ServerConfig {
    /// [`ServerConfig::wave_size`], clamped to what the read-ahead queue
    /// may allocate.
    fn wave_cap(&self) -> usize {
        self.wave_size.clamp(1, 1 << 16)
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: default_workers(),
            wave_size: 64,
            advance_every: 1,
        }
    }
}

/// One parsed request.
#[derive(Clone, Debug)]
struct Job {
    /// Echoed back verbatim ([`Json::Null`] when absent).
    id: Json,
    machine: String,
    source: String,
}

/// Why a request failed before (or during) prediction. The tag appears
/// as the `kind` member of error responses so clients can distinguish
/// their bugs (`parse`, `machine`) from program errors (`frontend`,
/// `translate`) and server bugs (`internal`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ErrorKind {
    Parse,
    Machine,
    Frontend,
    Translate,
    Internal,
}

impl ErrorKind {
    fn tag(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Machine => "machine",
            ErrorKind::Frontend => "frontend",
            ErrorKind::Translate => "translate",
            ErrorKind::Internal => "internal",
        }
    }

    fn of(err: &PredictError) -> ErrorKind {
        match err {
            PredictError::Frontend(_) => ErrorKind::Frontend,
            PredictError::Translate(_) => ErrorKind::Translate,
            PredictError::Internal(_) => ErrorKind::Internal,
        }
    }
}

/// Percentiles of a per-request duration, in microseconds. The
/// percentiles are a [`Histogram`] bucket's lower bound, within 1/64 of
/// the true value; `max_us` is exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst request.
    pub max_us: u64,
}

/// A [`Histogram`] keeps this many bits of each value after its leading
/// one, so a bucket is at most 1/64 of its values wide.
const SUB_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// A fixed-size histogram of microsecond durations: exact below
/// [`SUB_BUCKETS`] µs, then [`SUB_BUCKETS`] buckets per power of two, so a
/// long-lived stream's telemetry takes constant memory however many
/// requests it serves.
struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u32,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; SUB_BUCKETS * (u32::BITS - SUB_BITS + 1) as usize],
            total: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Octave 0 holds the values below [`SUB_BUCKETS`], one per bucket;
    /// octave `k > 0` holds `[2^(k+5), 2^(k+6))`, split by the
    /// [`SUB_BITS`] bits after the value's leading one.
    fn bucket(us: u32) -> usize {
        let octave = (u32::BITS - us.leading_zeros()).saturating_sub(SUB_BITS);
        octave as usize * SUB_BUCKETS + (us >> octave.saturating_sub(1)) as usize % SUB_BUCKETS
    }

    /// The smallest value that lands in `bucket`.
    fn lower_bound(bucket: usize) -> u64 {
        let (octave, offset) = (bucket / SUB_BUCKETS, (bucket % SUB_BUCKETS) as u64);
        if octave == 0 {
            offset
        } else {
            (SUB_BUCKETS as u64 + offset) << (octave - 1)
        }
    }

    fn record(&mut self, us: u32) {
        self.counts[Histogram::bucket(us)] += 1;
        self.total += 1;
        self.max = self.max.max(us);
    }

    fn summary(&self) -> LatencySummary {
        let pick = |p: u64| {
            if self.total == 0 {
                return 0;
            }
            let rank = (self.total - 1) * p / 100;
            let mut seen = 0;
            for (bucket, &count) in self.counts.iter().enumerate() {
                seen += count;
                if seen > rank {
                    return Histogram::lower_bound(bucket);
                }
            }
            self.max.into()
        };
        LatencySummary {
            p50_us: pick(50),
            p90_us: pick(90),
            p99_us: pick(99),
            max_us: self.max.into(),
        }
    }
}

impl LatencySummary {
    fn to_json(self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        Json::Obj(vec![
            ("p50".into(), num(self.p50_us)),
            ("p90".into(), num(self.p90_us)),
            ("p99".into(), num(self.p99_us)),
            ("max".into(), num(self.max_us)),
        ])
    }
}

/// End-of-stream telemetry, also emitted as the final `{"stats": ...}`
/// response line.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Request lines consumed (including malformed ones).
    pub jobs: u64,
    /// Requests answered `ok:true`.
    pub ok: u64,
    /// Requests answered `ok:false`.
    pub failed: u64,
    /// Waves dispatched.
    pub waves: u64,
    /// Mean jobs per wave: near [`ServerConfig::wave_size`] under load,
    /// near 1 when requests arrive one at a time.
    pub mean_wave_jobs: f64,
    /// Epoch advances performed between waves.
    pub advances: u64,
    /// Per-request latency percentiles, from the moment a request's line
    /// was read to the moment its response line was formatted. Only
    /// requests that reached the predictor are counted.
    pub latency: LatencySummary,
    /// Per-request queue wait, from the moment a line was read to the
    /// moment its wave was dispatched; every request line is counted.
    pub queue_wait: LatencySummary,
    /// Dispatcher time spent parsing requests, resolving machines and
    /// predicting, summed over waves.
    pub service_us: u64,
    /// Dispatcher time spent formatting and writing responses.
    pub write_us: u64,
    /// Dispatcher time spent advancing the epoch and evicting
    /// translations.
    pub advance_us: u64,
    /// Translation-cache hits over the whole run.
    pub translation_hits: u64,
    /// Translation-cache misses over the whole run.
    pub translation_misses: u64,
    /// Translation-cache entries evicted by generation between waves.
    pub translations_evicted: u64,
    /// Two-level memo telemetry summed over every wave's workers.
    pub memo: MemoStats,
    /// Polynomial-arena slots reclaimed by this server's advances.
    pub polys_reclaimed: u64,
    /// Translation-arena blocks reclaimed by this server's advances.
    pub blocks_reclaimed: u64,
    /// Scheduling-L2 entries wiped by this server's advances.
    pub sched_entries_cleared: u64,
    /// Block-bound-L2 entries wiped by this server's advances.
    pub bound_entries_cleared: u64,
    /// Non-fatal issues with registered machine descriptions, as
    /// `(machine name, warning)` — e.g. a cache section whose declared
    /// TLB fields are parsed but never charged.
    pub machine_warnings: Vec<(String, MachineWarning)>,
}

impl ServerStats {
    /// The stats line payload.
    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        Json::Obj(vec![(
            "stats".into(),
            Json::Obj(vec![
                ("jobs".into(), num(self.jobs)),
                ("ok".into(), num(self.ok)),
                ("failed".into(), num(self.failed)),
                ("waves".into(), num(self.waves)),
                ("mean_wave_jobs".into(), Json::Num(self.mean_wave_jobs)),
                ("advances".into(), num(self.advances)),
                ("latency_us".into(), self.latency.to_json()),
                ("queue_wait_us".into(), self.queue_wait.to_json()),
                ("service_us".into(), num(self.service_us)),
                ("write_us".into(), num(self.write_us)),
                ("advance_us".into(), num(self.advance_us)),
                (
                    "translation".into(),
                    Json::Obj(vec![
                        ("hits".into(), num(self.translation_hits)),
                        ("misses".into(), num(self.translation_misses)),
                        ("evicted".into(), num(self.translations_evicted)),
                    ]),
                ),
                (
                    "memo".into(),
                    Json::Obj(vec![
                        ("l1_hits".into(), num(self.memo.l1_hits)),
                        ("l2_hits".into(), num(self.memo.l2_hits)),
                        ("misses".into(), num(self.memo.misses)),
                    ]),
                ),
                (
                    "reclaimed".into(),
                    Json::Obj(vec![
                        ("polys".into(), num(self.polys_reclaimed)),
                        ("blocks".into(), num(self.blocks_reclaimed)),
                        ("sched_entries".into(), num(self.sched_entries_cleared)),
                        ("bound_entries".into(), num(self.bound_entries_cleared)),
                    ]),
                ),
                (
                    "machine_warnings".into(),
                    Json::Arr(
                        self.machine_warnings
                            .iter()
                            .map(|(name, w)| {
                                Json::Obj(vec![
                                    ("machine".into(), Json::Str(name.clone())),
                                    ("warning".into(), Json::Str(w.to_string())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        )])
    }
}

/// One request of the wave being dispatched.
struct Pending {
    enqueued: Instant,
    parsed: Result<Job, String>,
}

/// The prediction daemon: owns the shared translation cache, the machine
/// registry, and the prediction options; [`Server::run`] drives one
/// request stream through it. Run several streams through one `Server`,
/// or through clones of it on concurrent threads, to share caches across
/// connections: clones share the translation cache and the count of jobs
/// toward the next epoch advance, and every server shares the
/// process-wide arena and epoch timeline. A wave in flight pins its
/// epoch, so another stream's advance cannot reclaim under it.
#[derive(Clone, Debug)]
pub struct Server {
    config: ServerConfig,
    options: PredictorOptions,
    cache: Arc<TranslationCache>,
    machines: HashMap<String, MachineDesc>,
    /// Jobs served since the last epoch advance, by this server and its
    /// clones.
    since_advance: Arc<AtomicU64>,
}

impl Default for Server {
    fn default() -> Server {
        Server::new(ServerConfig::default())
    }
}

impl Server {
    /// A server with default prediction options and the built-in machine
    /// registry.
    pub fn new(config: ServerConfig) -> Server {
        Server {
            config,
            options: PredictorOptions::default(),
            cache: Arc::new(TranslationCache::new()),
            machines: HashMap::new(),
            since_advance: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Overrides the prediction options (memory model, library table,
    /// aggregation knobs).
    pub fn with_options(mut self, options: PredictorOptions) -> Server {
        self.options = options;
        self
    }

    /// Registers a machine beyond the built-ins; requests resolve
    /// `machine` names here first.
    pub fn with_machine(mut self, machine: MachineDesc) -> Server {
        self.machines.insert(machine.name().to_string(), machine);
        self
    }

    /// The shared translation cache (telemetry / tests).
    pub fn translation_cache(&self) -> &Arc<TranslationCache> {
        &self.cache
    }

    /// Serves one request stream to completion: reads JSON-lines jobs
    /// from `input` until EOF, writes one response line per job plus a
    /// final stats line to `output`, and returns the run's telemetry.
    ///
    /// A scoped reader thread owns `input`; the calling thread dispatches.
    /// Each wave is whatever has queued by the time the dispatcher would
    /// otherwise wait for input, capped at [`ServerConfig::wave_size`]: a
    /// lone request is answered at once, while a burst still fills whole
    /// waves because lines queue up while the previous wave is served.
    ///
    /// # Errors
    ///
    /// Only I/O errors on `input`/`output` abort the run; per-job
    /// failures of any kind become `ok:false` response lines. Lines read
    /// before an `input` error are still answered. An `output` error
    /// stops the dispatcher at once but is returned only when the reader
    /// stops too: at the next request line or at the end of `input`.
    pub fn run<R: BufRead + Send, W: Write>(
        &mut self,
        input: R,
        output: &mut W,
    ) -> std::io::Result<ServerStats> {
        let mut stats = ServerStats::default();
        // Surface description issues for every registered machine up
        // front (built-ins resolved lazily per request are warning-free
        // by construction).
        let mut named: Vec<&String> = self.machines.keys().collect();
        named.sort();
        for name in named {
            for w in self.machines[name].warnings() {
                stats.machine_warnings.push((name.clone(), w));
            }
        }
        // The bound on queued lines is the wave cap: a reader that gets
        // ahead of the dispatcher blocks instead of buffering the stream.
        let (tx, rx) = sync_channel(self.config.wave_cap());
        let mut log = RunLog::default();
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || read_lines(input, tx));
            // `serve` owns the receiver, so on an output error it is
            // dropped before the join. That releases a reader blocked in
            // `send`; a reader blocked reading input notices only at its
            // next line or at EOF, and the join waits for it.
            let served = self.serve(rx, output, &mut stats, &mut log);
            let read = reader
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("request reader panicked")));
            served.and(read)
        })?;
        log.finish(&mut stats);
        stats.translation_hits = self.cache.hits();
        stats.translation_misses = self.cache.misses();
        writeln!(output, "{}", stats.to_json().to_string_compact())?;
        output.flush()?;
        Ok(stats)
    }

    /// The dispatcher: blocks for one queued line, drains what else is
    /// already queued up to the wave cap, and serves that wave, until the
    /// reader hangs up.
    fn serve<W: Write>(
        &mut self,
        rx: Receiver<(Instant, String)>,
        output: &mut W,
        stats: &mut ServerStats,
        log: &mut RunLog,
    ) -> std::io::Result<()> {
        let cap = self.config.wave_cap();
        let mut lines = Vec::with_capacity(cap);
        let mut wave = Vec::with_capacity(cap);
        while let Ok(first) = rx.recv() {
            lines.push(first);
            lines.extend(rx.try_iter().take(cap - 1));
            let dispatched = Instant::now();
            for (enqueued, line) in lines.drain(..) {
                log.queue_wait.record(micros(dispatched - enqueued));
                wave.push(Pending {
                    enqueued,
                    parsed: parse_job(&line),
                });
            }
            self.dispatch(&mut wave, dispatched, output, stats, log)?;
        }
        Ok(())
    }

    /// Runs one wave, taken off the queue at `dispatched`: resolves
    /// machines, fans the well-formed jobs out over the batch workers,
    /// writes responses in request order, then advances the reclamation
    /// epoch when the schedule says so.
    fn dispatch<W: Write>(
        &mut self,
        wave: &mut Vec<Pending>,
        dispatched: Instant,
        output: &mut W,
        stats: &mut ServerStats,
        log: &mut RunLog,
    ) -> std::io::Result<()> {
        // Resolve built-in machine names first (needs `&mut self.machines`,
        // so it cannot overlap the batch borrow below).
        for p in wave.iter() {
            if let Ok(job) = &p.parsed {
                if !self.machines.contains_key(&job.machine) {
                    if let Some(m) = machines::by_name(&job.machine) {
                        self.machines.insert(job.machine.clone(), m);
                    }
                }
            }
        }
        let mut batch: Vec<(&MachineDesc, &str)> = Vec::new();
        let mut slots: Vec<Option<usize>> = Vec::with_capacity(wave.len());
        for p in wave.iter() {
            slots.push(match &p.parsed {
                Ok(job) => self.machines.get(&job.machine).map(|m| {
                    batch.push((m, &job.source));
                    batch.len() - 1
                }),
                Err(_) => None,
            });
        }
        let report = Predictor::predict_batch_report(
            &batch,
            &self.options,
            &self.cache,
            self.config.workers,
        );
        stats.memo = stats.memo.merged(&report.memo_totals());
        let served = Instant::now();
        log.service += served - dispatched;
        let mut results: Vec<Option<_>> = report.results.into_iter().map(Some).collect();
        for (p, slot) in wave.iter().zip(&slots) {
            let response = match (&p.parsed, slot) {
                (Err(msg), _) => error_json(&Json::Null, ErrorKind::Parse, msg),
                (Ok(job), None) => error_json(
                    &job.id,
                    ErrorKind::Machine,
                    &format!("unknown machine `{}`", job.machine),
                ),
                (Ok(job), Some(i)) => {
                    let result = results[*i].take().expect("each batch slot consumed once");
                    let us = micros(p.enqueued.elapsed());
                    log.latency.record(us);
                    match result {
                        Ok(predictions) => ok_json(&job.id, us.into(), &predictions),
                        Err(e) => error_json(&job.id, ErrorKind::of(&e), &e.to_string()),
                    }
                }
            };
            if response.get("ok").and_then(Json::as_bool) == Some(true) {
                stats.ok += 1;
            } else {
                stats.failed += 1;
            }
            writeln!(output, "{}", response.to_string_compact())?;
        }
        output.flush()?;
        let written = Instant::now();
        log.write += written - served;
        let jobs = wave.len() as u64;
        stats.jobs += jobs;
        stats.waves += 1;
        wave.clear();
        // Counting jobs rather than waves keeps the full-wave schedule
        // (one advance per `advance_every` full waves) without an advance
        // per request when low load makes every wave a single job. The
        // count is shared with every clone, so the one wave that crosses
        // the threshold resets it and advances, whichever stream it is on.
        let every = self
            .config
            .advance_every
            .saturating_mul(self.config.wave_cap()) as u64;
        let crossed = |n: u64| n.saturating_add(jobs) >= every;
        let before = self
            .since_advance
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(if crossed(n) { 0 } else { n + jobs })
            })
            .unwrap_or_else(|n| n);
        if every > 0 && crossed(before) {
            let report = presage_symbolic::epoch::advance();
            stats.advances += 1;
            for entry in &report.reclaimed {
                match entry.name {
                    "poly" => stats.polys_reclaimed += entry.reclaimed as u64,
                    "blockir" => stats.blocks_reclaimed += entry.reclaimed as u64,
                    "sched-l2" => stats.sched_entries_cleared += entry.reclaimed as u64,
                    "blockcost-l2" => stats.bound_entries_cleared += entry.reclaimed as u64,
                    _ => {}
                }
            }
            stats.translations_evicted += self.cache.evict_older_than(report.retire_before) as u64;
            log.advance += written.elapsed();
        }
        Ok(())
    }
}

/// The reader thread: forwards every non-blank line of `input`, stamped
/// with the moment it was read, until EOF or until the dispatcher hangs up.
fn read_lines<R: BufRead>(input: R, tx: SyncSender<(Instant, String)>) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if tx.send((Instant::now(), line)).is_err() {
            break;
        }
    }
    Ok(())
}

/// A duration in whole microseconds, saturating at `u32::MAX` (71 min).
fn micros(d: Duration) -> u32 {
    d.as_micros().min(u32::MAX as u128) as u32
}

/// What one run accumulates on the dispatcher before it becomes
/// [`ServerStats`]; its size does not grow with the request count.
#[derive(Default)]
struct RunLog {
    latency: Histogram,
    queue_wait: Histogram,
    service: Duration,
    write: Duration,
    advance: Duration,
}

impl RunLog {
    fn finish(self, stats: &mut ServerStats) {
        stats.latency = self.latency.summary();
        stats.queue_wait = self.queue_wait.summary();
        stats.service_us = self.service.as_micros() as u64;
        stats.write_us = self.write.as_micros() as u64;
        stats.advance_us = self.advance.as_micros() as u64;
        stats.mean_wave_jobs = stats.jobs as f64 / stats.waves.max(1) as f64;
    }
}

/// Parses one request line.
fn parse_job(line: &str) -> Result<Job, String> {
    let v = Json::parse(line)?;
    if v.as_obj().is_none() {
        return Err("request must be a JSON object".into());
    }
    let field = |name: &str| -> Result<String, String> {
        v.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing or non-string `{name}`"))
    };
    Ok(Job {
        id: v.get("id").cloned().unwrap_or(Json::Null),
        machine: field("machine")?,
        source: field("source")?,
    })
}

/// A success response line. `cost` is always the total; when the
/// machine declares a `cache` section each prediction additionally
/// carries the memory-vs-compute split (`compute` plus a `memory`
/// object with stall cycles, distinct-line count, and exactness), so
/// restructuring clients can tell a locality problem from an
/// instruction-mix problem without re-deriving the model.
fn ok_json(id: &Json, us: u64, predictions: &[presage_core::predictor::Prediction]) -> Json {
    let preds = predictions
        .iter()
        .map(|p| {
            let mut fields = vec![
                ("name".into(), Json::Str(p.name.clone())),
                ("cost".into(), Json::Str(p.total.to_string())),
                ("concrete".into(), Json::Bool(p.total.is_concrete())),
            ];
            if let Some(mc) = &p.memcost {
                fields.push(("compute".into(), Json::Str(p.compute.to_string())));
                fields.push((
                    "memory".into(),
                    Json::Obj(vec![
                        ("cycles".into(), Json::Str(mc.cycles.to_string())),
                        ("lines".into(), Json::Str(mc.lines.to_string())),
                        ("exact".into(), Json::Bool(mc.exact)),
                    ]),
                ));
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Json::Bool(true)),
        ("us".into(), Json::Num(us as f64)),
        ("predictions".into(), Json::Arr(preds)),
    ])
}

/// A failure response line.
fn error_json(id: &Json, kind: ErrorKind, message: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Json::Bool(false)),
        ("kind".into(), Json::Str(kind.tag().into())),
        ("error".into(), Json::Str(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const AXPY: &str = "subroutine axpy(y, x, a, n)\\nreal y(n), x(n), a\\ninteger i, n\\ndo i = 1, n\\ny(i) = y(i) + a * x(i)\\nend do\\nend";

    fn serve(input: &str, config: ServerConfig) -> (Vec<Json>, ServerStats) {
        let mut server = Server::new(config);
        let mut out = Vec::new();
        let stats = server.run(input.as_bytes(), &mut out).unwrap();
        let lines = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        (lines, stats)
    }

    #[test]
    fn serves_predictions_in_request_order() {
        let input = format!(
            "{{\"id\": 1, \"machine\": \"power-like\", \"source\": \"{AXPY}\"}}\n{{\"id\": 2, \"machine\": \"risc1\", \"source\": \"{AXPY}\"}}\n"
        );
        let (lines, stats) = serve(&input, ServerConfig::default());
        assert_eq!(lines.len(), 3, "two responses plus the stats line");
        for (i, line) in lines[..2].iter().enumerate() {
            assert_eq!(line.get("id").and_then(Json::as_u64), Some(i as u64 + 1));
            assert_eq!(line.get("ok").and_then(Json::as_bool), Some(true));
            let preds = line.get("predictions").unwrap().as_arr().unwrap();
            assert_eq!(preds[0].get("name").and_then(Json::as_str), Some("axpy"));
            assert_eq!(
                preds[0].get("concrete").and_then(Json::as_bool),
                Some(false)
            );
        }
        assert!(lines[2].get("stats").is_some());
        assert_eq!((stats.jobs, stats.ok, stats.failed), (2, 2, 0));
    }

    #[test]
    fn response_cost_matches_direct_prediction() {
        let input = format!("{{\"machine\": \"power-like\", \"source\": \"{AXPY}\"}}\n");
        let (lines, _) = serve(&input, ServerConfig::default());
        let served = lines[0].get("predictions").unwrap().as_arr().unwrap()[0]
            .get("cost")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let direct = Predictor::new(machines::power_like())
            .predict_source(&AXPY.replace("\\n", "\n"))
            .unwrap()[0]
            .total
            .to_string();
        assert_eq!(served, direct);
    }

    #[test]
    fn malformed_and_unknown_jobs_fail_without_poisoning_the_wave() {
        // One wave: garbage JSON, valid JSON with garbage source, unknown
        // machine, then a good job — the good job must still be served.
        let input = format!(
            "this is not json\n{{\"id\": \"bad\", \"machine\": \"power-like\", \"source\": \"subroutine s(\\nend\"}}\n{{\"id\": 3, \"machine\": \"vax\", \"source\": \"{AXPY}\"}}\n{{\"id\": 4, \"machine\": \"power-like\", \"source\": \"{AXPY}\"}}\n"
        );
        let (lines, stats) = serve(&input, ServerConfig::default());
        let kind = |i: usize| {
            lines[i]
                .get("kind")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert_eq!(lines[0].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(kind(0).as_deref(), Some("parse"));
        assert_eq!(kind(1).as_deref(), Some("frontend"));
        assert_eq!(kind(2).as_deref(), Some("machine"));
        assert!(lines[2]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("vax"));
        assert_eq!(lines[3].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!((stats.ok, stats.failed), (1, 3));
    }

    #[test]
    fn too_deep_expressions_fail_alone() {
        // 10^5 nested parentheses, prefix minuses and a 10^5-term chain:
        // each a `frontend` error naming the depth limit, never a stack
        // overflow, and the good job queued behind them is still served.
        let n = 100_000;
        let deep = [
            format!("{}x{}", "(".repeat(n), ")".repeat(n)),
            format!("{}x", "-".repeat(n)),
            format!("x{}", "+x".repeat(n)),
        ];
        let mut input = String::new();
        for e in &deep {
            input.push_str(&format!(
                "{{\"machine\": \"power-like\", \"source\": \"subroutine s(x, y)\\nreal x, y\\ny = {e}\\nend\"}}\n"
            ));
        }
        input.push_str(&format!(
            "{{\"machine\": \"power-like\", \"source\": \"{AXPY}\"}}\n"
        ));
        let (lines, stats) = serve(&input, ServerConfig::default());
        for line in &lines[..3] {
            assert_eq!(line.get("kind").and_then(Json::as_str), Some("frontend"));
            let error = line.get("error").and_then(Json::as_str).unwrap();
            let limit = format!("limit of {} levels", presage_frontend::MAX_EXPR_DEPTH);
            assert!(error.contains(&limit), "{error}");
        }
        assert_eq!(lines[3].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!((stats.ok, stats.failed), (1, 3));
    }

    #[test]
    fn missing_fields_are_parse_errors() {
        let (lines, _) = serve(
            "{\"machine\": \"power-like\"}\n{\"source\": \"x\"}\n",
            ServerConfig::default(),
        );
        for line in &lines[..2] {
            assert_eq!(line.get("kind").and_then(Json::as_str), Some("parse"));
        }
    }

    /// Output that records how many lines each flush completed: the
    /// dispatcher flushes once per wave, and once more for the stats line.
    #[derive(Default)]
    struct FlushLog {
        bytes: Vec<u8>,
        pending: usize,
        flushed: Vec<usize>,
    }

    impl Write for FlushLog {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.pending += data.iter().filter(|&&b| b == b'\n').count();
            self.bytes.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            if self.pending > 0 {
                self.flushed.push(std::mem::take(&mut self.pending));
            }
            Ok(())
        }
    }

    #[test]
    fn waves_advance_epochs_and_keep_serving() {
        // Six jobs under a wave cap of two with advance_every=1: however
        // the dispatcher splits them, no wave exceeds the cap, the epoch
        // advances at least once and at most once per two jobs, and every
        // job still comes back right and in order.
        let mut input = String::new();
        for i in 0..6 {
            let src = format!(
                "subroutine w{i}(a, n)\\nreal a(n)\\ninteger i, n\\ndo i = 1, n\\na(i) = a(i) + {i}.0\\nend do\\nend"
            );
            input.push_str(&format!(
                "{{\"id\": {i}, \"machine\": \"power-like\", \"source\": \"{src}\"}}\n"
            ));
        }
        let config = ServerConfig {
            workers: 2,
            wave_size: 2,
            advance_every: 1,
        };
        let mut out = FlushLog::default();
        let stats = Server::new(config.clone())
            .run(input.as_bytes(), &mut out)
            .unwrap();
        let (stats_flush, waves) = out.flushed.split_last().unwrap();
        assert_eq!(*stats_flush, 1, "the stats line is flushed on its own");
        assert_eq!(waves.len() as u64, stats.waves);
        assert!(
            waves.iter().all(|&w| (1..=config.wave_size).contains(&w)),
            "{waves:?}"
        );
        assert_eq!(waves.iter().sum::<usize>(), 6);
        let per_advance = (config.advance_every * config.wave_size) as u64;
        assert!(
            (1..=stats.jobs / per_advance).contains(&stats.advances),
            "{} advances over {} jobs",
            stats.advances,
            stats.jobs
        );
        assert_eq!(stats.ok, 6);
        let text = String::from_utf8(out.bytes).unwrap();
        for (i, line) in text.lines().take(6).enumerate() {
            let line = Json::parse(line).unwrap();
            assert_eq!(line.get("id").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(
                line.get("ok").and_then(Json::as_bool),
                Some(true),
                "{line:?}"
            );
        }
    }

    /// Output that hands every written chunk to the test thread.
    struct ChannelWriter(std::sync::mpsc::Sender<Vec<u8>>);

    impl Write for ChannelWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(data.to_vec());
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn lone_request_is_answered_while_the_stream_stays_open() {
        // A client that sends one request and waits must get its answer
        // without closing the stream or filling a wave.
        let (input, mut client) = std::io::pipe().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            Server::default().run(std::io::BufReader::new(input), &mut ChannelWriter(tx))
        });
        writeln!(
            client,
            "{{\"id\": 1, \"machine\": \"power-like\", \"source\": \"{AXPY}\"}}"
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while !got.contains(&b'\n') {
            let left = deadline.saturating_duration_since(Instant::now());
            got.extend(
                rx.recv_timeout(left)
                    .expect("no response while the stream is open"),
            );
        }
        let first = String::from_utf8(got).unwrap();
        let response = Json::parse(first.lines().next().unwrap()).unwrap();
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        drop(client);
        let stats = server.join().unwrap().unwrap();
        assert_eq!((stats.jobs, stats.ok, stats.waves), (1, 1, 1));
        assert_eq!(stats.mean_wave_jobs, 1.0);
        assert!(stats.queue_wait.p50_us <= stats.queue_wait.max_us);
    }

    #[test]
    fn short_streams_on_clones_share_the_advance_schedule() {
        // A restructurer that connects, asks once and disconnects must
        // still drive reclamation: the job count toward the next advance
        // spans every stream of a server and its clones.
        let config = ServerConfig {
            workers: 1,
            wave_size: 2,
            advance_every: 1,
        };
        let server = Server::new(config);
        let input = format!("{{\"machine\": \"power-like\", \"source\": \"{AXPY}\"}}\n");
        let advances: u64 = (0..5)
            .map(|_| {
                let stats = server
                    .clone()
                    .run(input.as_bytes(), &mut std::io::sink())
                    .unwrap();
                assert_eq!(stats.ok, 1);
                stats.advances
            })
            .sum();
        assert_eq!(advances, 2, "one advance per two one-job streams");
    }

    /// Output that fails every write.
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn output_error_returns_once_the_reader_stops() {
        // The dispatcher fails on its first response; the run returns that
        // error as soon as the reader notices, at the next line, even
        // though the input stays open.
        let (input, mut client) = std::io::pipe().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = Server::default().run(std::io::BufReader::new(input), &mut BrokenPipe);
            let _ = done_tx.send(result.map(|_| ()).map_err(|e| e.kind()));
        });
        let line = format!("{{\"machine\": \"power-like\", \"source\": \"{AXPY}\"}}");
        writeln!(client, "{line}").unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let result = loop {
            // Writes after the reader has gone may fail; keep the pipe open.
            let _ = writeln!(client, "{line}");
            match done_rx.recv_timeout(Duration::from_millis(20)) {
                Ok(result) => break result,
                Err(_) => assert!(Instant::now() < deadline, "run never returned"),
            }
        };
        assert_eq!(result, Err(std::io::ErrorKind::BrokenPipe));
        drop(client);
    }

    #[test]
    fn stats_line_carries_the_stage_split() {
        let input = format!("{{\"machine\": \"power-like\", \"source\": \"{AXPY}\"}}\n");
        let (lines, stats) = serve(&input, ServerConfig::default());
        let line = lines.last().unwrap().get("stats").unwrap();
        for key in ["service_us", "write_us", "advance_us", "mean_wave_jobs"] {
            assert!(line.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
        let wait = line.get("queue_wait_us").unwrap();
        assert!(wait.get("p50").and_then(Json::as_u64).is_some());
        assert!(wait.get("p99").and_then(Json::as_u64).is_some());
        assert!(stats.service_us > 0, "a prediction takes time");
    }

    #[test]
    fn cache_machines_report_the_memory_split() {
        use presage_machine::CacheParams;
        // Register a cached variant over the built-in name: the registry
        // wins resolution, so every job in the wave sees the cache.
        let mut cached = machines::power_like();
        cached.cache = Some(CacheParams::default());
        let mut server = Server::new(ServerConfig::default()).with_machine(cached);
        let input = format!(
            "{{\"id\": 1, \"machine\": \"power-like\", \"source\": \"{AXPY}\"}}\n{{\"id\": 2, \"machine\": \"power-like\", \"source\": \"{AXPY}\"}}\n"
        );
        let mut out = Vec::new();
        server.run(input.as_bytes(), &mut out).unwrap();
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        for line in &lines[..2] {
            let pred = &line.get("predictions").unwrap().as_arr().unwrap()[0];
            let mem = pred.get("memory").expect("cache section => memory split");
            assert!(mem.get("cycles").and_then(Json::as_str).is_some());
            assert!(mem.get("lines").and_then(Json::as_str).is_some());
            assert_eq!(mem.get("exact").and_then(Json::as_bool), Some(true));
            assert!(pred.get("compute").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn perfect_cache_responses_omit_the_memory_split() {
        let input = format!("{{\"machine\": \"power-like\", \"source\": \"{AXPY}\"}}\n");
        let (lines, _) = serve(&input, ServerConfig::default());
        let pred = &lines[0].get("predictions").unwrap().as_arr().unwrap()[0];
        assert!(pred.get("memory").is_none());
        assert!(pred.get("compute").is_none());
    }

    #[test]
    fn custom_machine_registration() {
        use presage_machine::{MachineBuilder, UnitClass, UnitCost};
        let mut b = MachineBuilder::new("toy-server");
        b.unit(UnitClass::Alu, 1);
        let add = b.atomic("add", vec![UnitCost::new(UnitClass::Alu, 1, 0)]);
        b.map_all_to(add);
        let mut server = Server::new(ServerConfig::default()).with_machine(b.build().unwrap());
        let input = format!("{{\"machine\": \"toy-server\", \"source\": \"{AXPY}\"}}\n");
        let mut out = Vec::new();
        let stats = server.run(input.as_bytes(), &mut out).unwrap();
        assert_eq!((stats.ok, stats.failed), (1, 0));
    }

    #[test]
    fn declared_tlb_fields_surface_in_stats() {
        use presage_machine::CacheParams;
        let mut loud = machines::power_like();
        loud.cache = Some(CacheParams {
            tlb_declared: true,
            ..CacheParams::default()
        });
        let mut server = Server::new(ServerConfig::default()).with_machine(loud);
        let input = format!("{{\"machine\": \"power-like\", \"source\": \"{AXPY}\"}}\n");
        let mut out = Vec::new();
        let stats = server.run(input.as_bytes(), &mut out).unwrap();
        assert_eq!(
            stats.machine_warnings,
            vec![("power-like".to_string(), MachineWarning::TlbUncharged)]
        );
        let last = String::from_utf8(out).unwrap();
        let stats_line = Json::parse(last.lines().last().unwrap()).unwrap();
        let warnings = stats_line
            .get("stats")
            .and_then(|s| s.get("machine_warnings"))
            .and_then(Json::as_arr)
            .expect("stats line carries machine_warnings");
        assert_eq!(warnings.len(), 1);
        assert_eq!(
            warnings[0].get("machine").and_then(Json::as_str),
            Some("power-like")
        );
        assert!(warnings[0]
            .get("warning")
            .and_then(Json::as_str)
            .unwrap()
            .contains("TLB"));
    }

    #[test]
    fn histogram_percentiles_are_within_a_sixty_fourth() {
        let mut h = Histogram::default();
        for bucket in 0..h.counts.len() {
            let low = Histogram::lower_bound(bucket);
            assert_eq!(Histogram::bucket(low as u32), bucket, "bucket {bucket}");
        }
        assert_eq!(Histogram::bucket(u32::MAX), h.counts.len() - 1);
        for us in [0, 1, 63, 64, 127, 128, 129, 1000, 65_535, u32::MAX] {
            let low = Histogram::lower_bound(Histogram::bucket(us));
            assert!(
                low <= us as u64 && us as u64 - low <= us as u64 / 64,
                "{us} -> {low}"
            );
        }
        for us in 1..=10_000 {
            h.record(us);
        }
        let s = h.summary();
        for (got, exact) in [(s.p50_us, 5_000), (s.p90_us, 9_000), (s.p99_us, 9_900)] {
            assert!(
                got <= exact && exact - got <= exact / 64,
                "{got} vs {exact}"
            );
        }
        assert_eq!(s.max_us, 10_000);
        assert_eq!(Histogram::default().summary(), LatencySummary::default());
    }

    #[test]
    fn huge_wave_settings_are_clamped() {
        // The read-ahead queue is allocated up front and the advance
        // threshold is a product: neither may abort on operator input.
        let config = ServerConfig {
            workers: 1,
            wave_size: usize::MAX,
            advance_every: usize::MAX,
        };
        let input = format!("{{\"machine\": \"power-like\", \"source\": \"{AXPY}\"}}\n");
        let (_, stats) = serve(&input, config);
        assert_eq!((stats.ok, stats.advances), (1, 0));
    }

    #[test]
    fn empty_stream_emits_only_stats() {
        let (lines, stats) = serve("\n  \n", ServerConfig::default());
        assert_eq!(lines.len(), 1);
        assert!(lines[0].get("stats").is_some());
        assert_eq!(stats.jobs, 0);
    }
}
