//! Spans and counters recorded from outside the product: the benchmark
//! wraps each public call an op makes in a span, keeps every span in
//! memory and writes them out as JSON lines once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder plus per-layer counters.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
    /// Time spent in [`Tracer::offline`] during the current op; it is
    /// subtracted from the traced op's wall time.
    offline_ns: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            offline_ns: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts op `op`; later spans belong to it.
    pub fn begin_op(&mut self, op: usize) {
        self.op = op;
        self.offline_ns = 0;
    }

    /// Milliseconds the current op spent in [`Tracer::offline`].
    pub fn offline_ms(&self) -> f64 {
        self.offline_ns as f64 / 1e6
    }

    /// Runs `f` inside a span named `name` (a child of the innermost
    /// open span).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        let out = f();
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Runs `f` outside the op: a side measurement (a reference run, a
    /// second execution path) whose time is not part of the traced op.
    /// Returns `f`'s result and its wall milliseconds.
    pub fn offline<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.offline_ns += ns;
        (out, ns as f64 / 1e6)
    }

    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the durations of op `op`'s top-level spans, in ms.
    pub fn op_spans_ms(&self, op: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.parent.is_none())
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    }

    /// Self time per span name, in ms summed over every op: a span's
    /// duration minus the part its children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.ns().saturating_sub(c) as f64 / 1e6;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}
