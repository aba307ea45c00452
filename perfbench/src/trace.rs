//! In-memory spans and per-function counters for the traced run, written
//! out once when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::report::Json;

/// One timed interval: a workload, an operation, or a layer walk.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Calls into one library function and the time spent in them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter {
    pub calls: u64,
    pub busy_ns: f64,
}

/// Span and counter store. Nothing is written until [`Tracer::write`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<String, Counter>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; its id is its index plus one.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<u64>) -> u64 {
        let start_ns = self.now_ns();
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close span `id` and return it.
    pub fn close(&mut self, id: u64) -> &Span {
        let end_ns = self.now_ns();
        let span = &mut self.spans[(id - 1) as usize];
        span.end_ns = end_ns;
        span
    }

    /// Add `calls` calls taking `busy_ns` in total to counter `name`.
    pub fn count(&mut self, name: &str, calls: u64, busy_ns: f64) {
        let c = self.counters.entry(name.to_string()).or_default();
        c.calls += calls;
        c.busy_ns += busy_ns;
    }

    /// Write every span and counter as JSON lines after `header`, to
    /// `path` (parent directories created).
    pub fn write(&self, path: &Path, header: &Json) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            let parent = s.parent.map_or(Json::Num(f64::NAN), Json::Int);
            let line = Json::obj([
                ("span", Json::Int(s.id)),
                ("parent", parent),
                ("name", Json::str(s.name.as_str())),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
            ]);
            writeln!(out, "{line}")?;
        }
        for (name, c) in &self.counters {
            let line = Json::obj([
                ("counter", Json::str(name.as_str())),
                ("calls", Json::Int(c.calls)),
                ("busy_ns", Json::Num(c.busy_ns)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
