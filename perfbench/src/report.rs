//! Sample statistics, the correctness gate and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed loop of a workload, driven one operation at a time.
pub trait Loop {
    /// Runs one operation; false once an operation failed.
    fn op(&mut self, tr: &mut crate::trace::Tracer, gate: &mut Gate) -> bool;

    /// Checks the loop's outputs and reports its metrics.
    fn finish(self: Box<Self>, tr: &crate::trace::Tracer, gate: &mut Gate, out: &mut Metrics);
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50)
}

/// Nearest-rank percentile `p` of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], p: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// A `StatsRegistry::snapshot()`, for exact count deltas.
#[derive(Debug, Clone)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    pub fn take(stats: &sim_clock::StatsRegistry) -> Self {
        Counters(stats.snapshot().into_iter().collect())
    }

    /// How much counter `name` grew since `before`.
    pub fn since(&self, before: &Counters, name: &str) -> u64 {
        let get = |c: &Counters| c.0.get(name).copied().unwrap_or(0);
        get(self) - get(before)
    }
}

/// Operations attempted and failed, plus every correctness mismatch seen.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Gate {
    /// Counts one call into the program; an `Err` counts as failed and yields `None`.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 8 {
                    eprintln!("perfbench: {what} failed: {e}");
                }
                None
            }
        }
    }

    /// Records a mismatch unless `ok` holds.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: correctness check failed: {msg}");
            self.mismatches.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Whether a lower or a higher value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    /// Samples the value summarises (1 for a ratio or a count).
    pub samples: usize,
}

/// Metrics by name, printed sorted.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn put(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: Better,
        samples: usize,
    ) {
        self.0.insert(
            name.into(),
            Metric {
                value,
                unit,
                better,
                samples,
            },
        );
    }

    /// A time in milliseconds: lower is better.
    pub fn ms(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.put(name, value, "ms", Better::Lower, samples);
    }

    /// An exact count, or a ratio of counts; one sample.
    pub fn count(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.put(name, value, unit, Better::Lower, 1);
    }

    /// Prints one human-readable line per metric.
    pub fn print_table(&self) {
        for (name, m) in &self.0 {
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            println!(
                "metric {name:<40} {:>16.6} {:<6} better={better:<6} samples={}",
                m.value, m.unit, m.samples
            );
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed` and
/// `metrics`. A value that is not finite cannot be written as JSON; it is written
/// as 0 and the caller marks the run incorrect.
pub fn result_line(gate: &Gate, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.correct(),
        gate.attempted,
        gate.failed
    );
    for (i, (name, m)) in metrics.0.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut gate = Gate::default();
        gate.op::<(), String>("x", Ok(()));
        let mut m = Metrics::default();
        m.ms("a_ms", 1.5, 3);
        assert_eq!(
            result_line(&gate, &m),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
