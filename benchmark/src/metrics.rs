//! The metric vocabulary. `BENCHMARK.json` declares the same names; a
//! unit test keeps the two from drifting apart.

use crate::stats::Samples;

/// End-to-end metrics, measured with tracing off: `(name, unit)`. The
/// `_vs_sbfs` ones divide by the speed of the serial reference measured
/// alternately in the same run, which cancels the host's drift.
pub const END_TO_END: [(&str, &str); 5] = [
    ("speedup_vs_sbfs", "x"),
    ("latency_p50_vs_sbfs", "x"),
    ("latency_p95_vs_sbfs", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The same run's raw timings, printed and kept in the results file but
/// not bounded: on a shared host they drift with the machine's speed.
pub const RAW: [(&str, &str); 4] = [
    ("teps", "edges/s"),
    ("qps", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
];

/// Per-layer metrics, measured by the traced pass: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("graph.build_s", "s"),
    ("graph.transpose_s", "s"),
    ("graph.csr_mb", "MB"),
    ("runtime.spawn_ms", "ms"),
    ("driver.setup_extract_ms", "ms"),
    ("driver.levels", "count"),
    ("barrier.wait_ms", "ms"),
    ("barrier.wait_us_p99", "us"),
    ("topdown.ms", "ms"),
    ("work.scan_ratio", "ratio"),
    ("dup.ratio", "ratio"),
    ("bottomup.ms", "ms"),
    ("hybrid.switches", "count"),
    ("compact.levels", "count"),
    ("compact.ms", "ms"),
    ("dispatch.segments", "count"),
    ("dispatch.retry_ratio", "ratio"),
    ("dispatch.stale_ratio", "ratio"),
    ("dispatch.fetch_us_p99", "us"),
    ("steal.attempts", "count"),
    ("steal.success_ratio", "ratio"),
    ("steal.us_p99", "us"),
    ("batch.occupancy", "count"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.traversal_ms_p50", "ms"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("ref.serial_teps", "edges/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
];

/// One reported number with what is known about its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit from the same table.
    pub unit: &'static str,
    /// The value reported.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
    /// First and third quartiles of those samples.
    pub quartiles: (f64, f64),
    /// The percentile a tail value was read at (after the support rule).
    pub percentile: Option<f64>,
}

/// Collects one table's metrics; [`Sheet::finish`] checks every name
/// was set exactly once, so a workload cannot silently omit one.
#[derive(Debug)]
pub struct Sheet {
    table: &'static [(&'static str, &'static str)],
    slots: Vec<Option<Metric>>,
}

impl Sheet {
    /// An empty sheet for `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Sheet {
            table,
            slots: vec![None; table.len()],
        }
    }

    fn put(
        &mut self,
        name: &str,
        value: f64,
        samples: usize,
        quartiles: (f64, f64),
        percentile: Option<f64>,
    ) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in this table"));
        assert!(self.slots[i].is_none(), "metric {name:?} set twice");
        let (name, unit) = self.table[i];
        self.slots[i] = Some(Metric {
            name,
            unit,
            value,
            samples,
            quartiles,
            percentile,
        });
    }

    /// A single measurement.
    pub fn value(&mut self, name: &str, value: f64) {
        self.put(name, value, 1, (value, value), None);
    }

    /// A summary value (mean, ratio, count) over `samples` observations.
    pub fn over(&mut self, name: &str, value: f64, samples: usize) {
        self.put(name, value, samples, (value, value), None);
    }

    /// The median of `s`.
    pub fn median(&mut self, name: &str, s: &Samples) {
        self.put(name, s.median(), s.len(), s.quartiles(), Some(0.5));
    }

    /// Percentile `q` of `s`, which must have enough samples for it (the
    /// timed loops run at least `Spec::min_samples` queries).
    pub fn percentile(&mut self, name: &str, s: &Samples, q: f64) {
        let v = s
            .percentile(q)
            .unwrap_or_else(|| panic!("{name}: {} samples cannot support p{q}", s.len()));
        self.put(name, v, s.len(), s.quartiles(), Some(q));
    }

    /// A tail read at `percentile` (already through the support rule).
    pub fn tail(&mut self, name: &str, (value, percentile): (f64, f64), samples: usize) {
        self.put(name, value, samples, (value, value), Some(percentile));
    }

    /// Every metric, in table order; panics if one was never set.
    pub fn finish(self) -> Vec<Metric> {
        self.slots
            .into_iter()
            .zip(self.table)
            .map(|(m, (name, _))| m.unwrap_or_else(|| panic!("metric {name:?} never set")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheet_demands_every_metric_once() {
        let mut s = Sheet::new(&END_TO_END);
        for (name, _) in END_TO_END {
            s.value(name, 1.0);
        }
        let out = s.finish();
        assert_eq!(
            out.iter().map(|m| m.name).collect::<Vec<_>>(),
            END_TO_END.map(|(n, _)| n)
        );
        let missing = std::panic::catch_unwind(|| Sheet::new(&END_TO_END).finish());
        assert!(missing.is_err());
        let twice = std::panic::catch_unwind(|| {
            let mut s = Sheet::new(&END_TO_END);
            s.value("setup_s", 1.0);
            s.value("setup_s", 2.0);
        });
        assert!(twice.is_err());
        let foreign = std::panic::catch_unwind(|| Sheet::new(&END_TO_END).value("teps", 1.0));
        assert!(foreign.is_err(), "a RAW name is not an end-to-end metric");
    }
}
