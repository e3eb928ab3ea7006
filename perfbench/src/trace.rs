//! In-memory span recorder for traced runs.
//!
//! A span covers one public call made from the benchmark's own code. Spans are kept
//! in memory and written out once, when the run ends; a disabled tracer records
//! nothing and only forwards the call.

use serde::Serialize;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer was created; `run` is the
/// closed-loop operation the call belongs to.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts operation `run`; its spans are recorded only when `enabled`.
    pub fn start_run(&mut self, run: u64, enabled: bool) {
        self.run = run;
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Calls `f`, recording it as a span named `name` under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().map(|&open| self.spans[open].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: idx as u64,
            parent,
            run: self.run,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every recorded span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }
}
