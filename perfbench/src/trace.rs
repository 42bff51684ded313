//! The benchmark's own spans: one per call into a layer, recorded from
//! outside the program. Every timing the benchmark reports is read off
//! these spans, traced run or not; a traced run additionally arms the
//! program's telemetry registry and writes the spans out when it ends.

use crate::meter::process_cpu_s;
use std::time::Instant;

/// Name of the span around the benchmark's own output checks, which is
/// recorded but is not part of the wall.
pub const CHECK_SPAN: &str = "check";

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `synthgen.worldgen`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same run, if any.
    pub parent: Option<usize>,
    /// Process CPU seconds used while the span was open (all threads).
    pub cpu_s: f64,
    /// Identifier shared by every span of one workload iteration.
    pub run: u64,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records the spans of one workload iteration.
pub struct Tracer {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose spans carry run id `run`, timed from `origin`.
    pub fn new(origin: Instant, run: u64) -> Self {
        Tracer {
            origin,
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Times `f` as span `name`, nested under the innermost open span.
    /// `f` gets the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let cpu0 = process_cpu_s();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cpu_s: 0.0,
            run: self.run,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let span = &mut self.spans[index];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.cpu_s = process_cpu_s() - cpu0;
        out
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span must close");
        self.spans
    }
}

/// Read-only queries over one iteration's spans.
pub struct Spans<'a>(pub &'a [Span]);

impl Spans<'_> {
    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Summed CPU seconds of every span called `name`.
    pub fn cpu(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.cpu_s)
            .sum()
    }

    /// Durations of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Top-level layer calls: every span without a parent except the
    /// benchmark's own output checks.
    fn layer_calls(&self) -> impl Iterator<Item = &Span> {
        self.0
            .iter()
            .filter(|s| s.parent.is_none() && s.name != CHECK_SPAN)
    }

    /// Wall time from the first layer call's start to the last layer
    /// call's end: the program's work, without the checks that follow.
    pub fn wall(&self) -> f64 {
        let start = self.layer_calls().map(|s| s.start_ns).min();
        let end = self.layer_calls().map(|s| s.end_ns).max();
        match (start, end) {
            (Some(a), Some(b)) => (b - a) as f64 * 1e-9,
            _ => 0.0,
        }
    }

    /// Summed duration of the top-level layer calls (they never overlap).
    pub fn top_level(&self) -> f64 {
        self.layer_calls().map(Span::secs).sum()
    }

    /// Self time of every span name: duration minus the part its direct
    /// children cover, summed per name, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child = vec![0.0; self.0.len()];
        for s in self.0 {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.0.iter().zip(child) {
            let own = s.secs() - c;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }
}

/// One span as a JSON line.
pub fn span_json(workload: &str, span: &Span) -> String {
    serde_json::json!({
        "workload": workload,
        "run": span.run,
        "name": span.name,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "parent": span.parent,
        "cpu_s": span.cpu_s,
    })
    .to_string()
}
