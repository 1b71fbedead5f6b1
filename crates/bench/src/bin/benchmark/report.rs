//! Metric names, the layer → end-to-end map, and the result line.

use crate::stats;
use crate::Measured;
use presage_machine::json::Json;
use std::collections::BTreeMap;

/// One measured value.
#[derive(Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// A per-layer metric: its unit, and the end-to-end metric it should move
/// on which workload (`*` = every workload).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// Every per-layer metric, in BENCHMARK.json order. A traced run prints
/// each one; a layer the workload never enters from the benchmark's side
/// reads 0.
#[rustfmt::skip]
pub const LAYERS: [Layer; 35] = [
    layer("frontend.parse_us", "us", "lower", "latency_p50_us", "predict_warm"),
    layer("frontend.parse_share", "ratio", "lower", "ops_per_s", "predict_warm"),
    layer("frontend.bytes_per_s", "B/s", "higher", "ops_per_s", "predict_warm"),
    layer("translate.us", "us", "lower", "ops_per_s", "predict_cold"),
    layer("translate.share", "ratio", "lower", "ops_per_s", "predict_cold"),
    layer("transcache.hit_ratio", "ratio", "higher", "latency_p50_us", "predict_warm"),
    layer("transcache.evicted", "count", "lower", "peak_rss_mb", "server_stream"),
    layer("aggregate.us", "us", "lower", "ops_per_s", "predict_cold"),
    layer("aggregate.share", "ratio", "lower", "ops_per_s", "predict_warm"),
    layer("memcost.us", "us", "lower", "ops_per_s", "predict_cold"),
    layer("memcost.share", "ratio", "lower", "ops_per_s", "predict_cold"),
    layer("memo.l1_hit_ratio", "ratio", "higher", "ops_per_s", "predict_warm"),
    layer("memo.l2_hit_ratio", "ratio", "higher", "ops_per_s", "predict_cold"),
    layer("memo.miss_ratio", "ratio", "lower", "latency_p50_us", "search_session"),
    layer("memo.l2_entries", "count", "lower", "peak_rss_mb", "predict_cold"),
    layer("epoch.advance_us", "us", "lower", "latency_tail_us", "predict_cold"),
    layer("epoch.reclaimed_polys", "count", "higher", "peak_rss_mb", "server_stream"),
    layer("arena.entries", "count", "lower", "peak_rss_mb", "predict_cold"),
    layer("search.explored", "count", "lower", "latency_p50_us", "search_session"),
    layer("search.evaluated", "count", "lower", "latency_p50_us", "search_session"),
    layer("search.pruned_ratio", "ratio", "higher", "latency_p50_us", "search_session"),
    layer("search.merged", "count", "higher", "latency_p50_us", "search_session"),
    layer("search.rejected", "count", "lower", "latency_p50_us", "search_session"),
    layer("search.expansions", "count", "lower", "latency_tail_us", "search_session"),
    layer("search.found_at", "count", "lower", "latency_p50_us", "search_session"),
    layer("search.pred_cache_hit_ratio", "ratio", "higher", "ops_per_s", "search_session"),
    layer("search.us_per_explored", "us", "lower", "ops_per_s", "search_session"),
    layer("server.queue_wait_ms", "ms", "lower", "latency_p50_us", "server_stream"),
    layer("server.service_ms", "ms", "lower", "ops_per_s", "server_stream"),
    layer("server.write_ms", "ms", "lower", "ops_per_s", "server_stream"),
    layer("server.advance_ms", "ms", "lower", "latency_tail_us", "server_stream"),
    layer("server.wave_jobs", "count", "higher", "ops_per_s", "server_stream"),
    layer("trace.coverage", "ratio", "higher", "ops_per_s", "*"),
    layer("trace.other_share", "ratio", "lower", "ops_per_s", "*"),
    layer("trace.overhead_frac", "ratio", "lower", "ops_per_s", "*"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches: the first few messages, and how many in all.
    pub mismatches: Vec<String>,
    pub mismatch_count: u64,
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer values by name with sample counts (traced run).
    pub layers: BTreeMap<&'static str, (f64, usize)>,
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn mismatch(&mut self, msg: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(msg);
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            LAYERS.iter().any(|l| l.name == name),
            "unknown layer {name}"
        );
        self.layers.insert(name, (value, samples));
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.mismatch_count == 0
    }

    /// The metrics the run reports: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub fn reported(&self, traced: bool) -> Vec<Metric> {
        if !traced {
            return self.e2e.clone();
        }
        LAYERS
            .iter()
            .map(|l| {
                let (value, samples) = self.layers.get(l.name).copied().unwrap_or((0.0, 0));
                Metric {
                    name: l.name,
                    unit: l.unit,
                    value,
                    samples,
                }
            })
            .collect()
    }
}

/// The end-to-end metrics every workload reports: `tail` is the
/// percentile reported as `latency_tail_us`.
pub fn e2e_metrics(measured: &Measured, tail: f64, rss_mb: f64) -> Vec<Metric> {
    let lat = &measured.latency_us;
    if stats::beyond(lat.len(), tail) < 10 {
        eprintln!(
            "benchmark: only {} latency samples: p{tail} has fewer than 10 beyond it",
            lat.len()
        );
    }
    vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: measured.setup_s,
            samples: measured.selected,
        },
        Metric {
            name: "ops_per_s",
            unit: "1/s",
            value: measured.rate,
            samples: measured.selected,
        },
        Metric {
            name: "latency_p50_us",
            unit: "us",
            value: stats::percentile(lat, 50.0),
            samples: lat.len(),
        },
        Metric {
            name: "latency_tail_us",
            unit: "us",
            value: stats::percentile(lat, tail),
            samples: lat.len(),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: rss_mb,
            samples: 1,
        },
    ]
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The result line the benchmark ends with.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// A JSON number from a finite `f64` (non-finite values become 0, which
/// the reader sees as "not measured").
pub fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

/// A sorted sample's median and its highest reportable percentile, for
/// detail lines.
pub fn summary(sorted: &[f64]) -> Json {
    let mut fields = vec![
        ("n".into(), Json::Num(sorted.len() as f64)),
        ("p50".into(), num(stats::percentile(sorted, 50.0))),
    ];
    if let Some(p) = stats::tail_percentile(sorted.len()) {
        fields.push((format!("p{p}"), num(stats::percentile(sorted, p))));
    }
    Json::Obj(fields)
}
