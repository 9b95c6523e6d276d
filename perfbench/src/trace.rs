//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end (ns since the tracer started), the span
//! that caused it and the id of the operation it belongs to. Spans stay in memory
//! and are written out once, when the run ends. A replayed layer call runs after
//! its parent operation rather than inside it, so a span's self time is its
//! duration minus its children's durations, not minus the interval they cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    op: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>, op: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        (out, id)
    }

    fn duration_ms(span: &Span) -> f64 {
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// Duration (ms) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::duration_ms)
            .collect()
    }

    /// Self time (ms) of every span named `name`: its duration minus the
    /// durations of its direct children.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += Self::duration_ms(s);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| Self::duration_ms(s) - child_ms[i])
            .collect()
    }

    /// Sum of the durations (ms) of the spans named `name` within each operation,
    /// keyed by operation id.
    pub fn per_op_totals(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += Self::duration_ms(s);
        }
        out
    }

    /// All spans as JSON lines, one per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let parent = t.begin("p", None, 7);
        let child = t.begin("c", Some(parent), 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(parent);
        let own = t.self_times("p")[0];
        assert!(own >= 0.0 && own < t.durations("p")[0]);
        assert_eq!(
            t.per_op_totals("c").keys().copied().collect::<Vec<_>>(),
            [7]
        );
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let ((), _) = t.span("x", None, 0, || ());
        assert!(t.durations("x").is_empty());
    }
}
