//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is `{name, start, end, parent, request id}`. Totals per name are
//! kept for every span; the spans themselves are kept in memory up to
//! [`KEEP`] and written as JSON lines when the run ends, so a long traced
//! run neither grows without bound nor writes while it measures.

use presage_machine::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans kept for the JSON-lines dump.
const KEEP: usize = 25_000;

struct Span {
    id: u64,
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<u64>,
    req: u64,
}

/// An open span; close it with [`Tracer::close`].
pub struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    parent: Option<u64>,
    req: u64,
}

pub struct Tracer {
    t0: Instant,
    next_id: u64,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, (Duration, u64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<&Open>) -> Open {
        self.next_id += 1;
        Open {
            id: self.next_id,
            name,
            start: Instant::now(),
            parent: parent.map(|p| p.id),
            req,
        }
    }

    /// Closes `span` and returns its duration.
    pub fn close(&mut self, span: Open) -> Duration {
        let end = Instant::now();
        self.record(span, end)
    }

    fn record(&mut self, span: Open, end: Instant) -> Duration {
        let took = end.saturating_duration_since(span.start);
        let total = self.totals.entry(span.name).or_default();
        total.0 += took;
        total.1 += 1;
        if self.spans.len() < KEEP {
            self.spans.push(Span {
                id: span.id,
                name: span.name,
                start: span.start.saturating_duration_since(self.t0),
                end: end.saturating_duration_since(self.t0),
                parent: span.parent,
                req: span.req,
            });
        }
        took
    }

    /// A span from `start` to `end`, both observed elsewhere.
    pub fn interval(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        self.next_id += 1;
        let span = Open {
            id: self.next_id,
            name,
            start,
            parent: None,
            req,
        };
        self.record(span, end);
    }

    /// Total time and count of every span named `name`.
    pub fn total(&self, name: &str) -> (Duration, u64) {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes the kept spans to `dir/<workload>.jsonl`.
    pub fn dump(&self, dir: &Path, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let file = std::fs::File::create(dir.join(format!("{workload}.jsonl")))?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(s.id as f64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_us".into(), Json::Num(s.start.as_secs_f64() * 1e6)),
                ("end_us".into(), Json::Num(s.end.as_secs_f64() * 1e6)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("req".into(), Json::Num(s.req as f64)),
            ]);
            writeln!(out, "{}", line.to_string_compact())?;
        }
        out.flush()
    }
}
