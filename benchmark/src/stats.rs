//! Sample statistics: the percentile rule, quartiles, harmonic TEPS and
//! failure accounting.

use obfs_util::LogHistogram;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may fall back to, highest first.
const LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// The highest percentile not above `q` that `n` samples support, if any.
pub fn highest_supported(n: usize, q: f64) -> Option<f64> {
    LADDER
        .into_iter()
        .filter(|&p| p <= q)
        .find(|&p| supports(n, p))
}

/// Nearest-rank percentile of an ascending slice; `None` when the
/// samples do not support it (see [`supports`]).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    supports(sorted.len(), q).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// Nearest-rank percentile without the support rule (quartiles of a
/// results record, never printed as a tail). 0 when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(sorted.len(), q) - 1]
    }
}

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sort `values` into a sample set.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Median (0 when empty).
    pub fn median(&self) -> f64 {
        quantile(&self.0, 0.5)
    }

    /// First and third quartiles.
    pub fn quartiles(&self) -> (f64, f64) {
        (quantile(&self.0, 0.25), quantile(&self.0, 0.75))
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// Percentile `q` under the support rule.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        percentile(&self.0, q)
    }

    /// The tail at `q`, or at the highest percentile below it that the
    /// samples support: `(value, percentile used)`; the median of what
    /// there is (or 0 when empty) when none is supported.
    pub fn tail(&self, q: f64) -> (f64, f64) {
        match highest_supported(self.len(), q) {
            Some(p) => (quantile(&self.0, p), p),
            None => (self.median(), 0.5),
        }
    }
}

/// The tail of a histogram under the same rule as [`Samples::tail`].
pub fn hist_tail(h: &LogHistogram, q: f64) -> (f64, f64) {
    let n = h.count() as usize;
    match highest_supported(n, q) {
        Some(p) => (h.percentile(p) as f64, p),
        None => (h.percentile(0.5) as f64, 0.5),
    }
}

/// Harmonic mean of per-call rates `work_i / seconds_i`, the Graph500
/// TEPS average: `n / Σ (seconds_i / work_i)`. 0 when empty.
pub fn harmonic_rate(calls: &[(u64, f64)]) -> f64 {
    let inv: f64 = calls
        .iter()
        .map(|&(work, secs)| secs / work.max(1) as f64)
        .sum();
    if calls.is_empty() || inv <= 0.0 {
        0.0
    } else {
        calls.len() as f64 / inv
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Outcome accounting for every query a workload attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Queries attempted (submitted or called).
    pub attempted: u64,
    /// Refused at admission.
    pub shed: u64,
    /// Ended with a pool failure.
    pub failed: u64,
    /// Ended cancelled.
    pub cancelled: u64,
    /// Ended past their deadline.
    pub deadline_exceeded: u64,
    /// Answered, but the levels differ from the serial oracle.
    pub wrong: u64,
}

impl Tally {
    /// Every attempt that did not yield a correct answer.
    pub fn failures(&self) -> u64 {
        self.shed + self.failed + self.cancelled + self.deadline_exceeded + self.wrong
    }

    /// `failures / attempted` (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failures() as f64, self.attempted as f64)
    }

    /// Field-wise accumulate.
    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.shed += o.shed;
        self.failed += o.failed;
        self.cancelled += o.cancelled;
        self.deadline_exceeded += o.deadline_exceeded;
        self.wrong += o.wrong;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p95 of 200 leaves exactly 10 beyond; 199 leaves 9.
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
        assert_eq!(ramp(200).percentile(0.95), Some(190.0));
        assert_eq!(
            ramp(199).percentile(0.95),
            None,
            "refuses p95 with too few samples"
        );
        assert_eq!(
            ramp(999).percentile(0.99),
            None,
            "refuses p99 with too few samples"
        );
    }

    #[test]
    fn highest_supported_percentile_walks_down_the_ladder() {
        assert_eq!(highest_supported(10_000, 0.999), Some(0.999));
        assert_eq!(highest_supported(1_000, 0.999), Some(0.99));
        assert_eq!(highest_supported(500, 0.99), Some(0.95));
        assert_eq!(highest_supported(100, 0.99), Some(0.9));
        assert_eq!(highest_supported(30, 0.99), Some(0.5));
        assert_eq!(highest_supported(5, 0.99), None);
        let (v, p) = ramp(500).tail(0.99);
        assert_eq!(
            (v, p),
            (475.0, 0.95),
            "falls back and says which percentile it used"
        );
        let (v, p) = ramp(3).tail(0.99);
        assert_eq!((v, p), (2.0, 0.5));
    }

    #[test]
    fn quartiles_and_median() {
        let s = ramp(8);
        assert_eq!(s.median(), 4.0);
        assert_eq!(s.quartiles(), (2.0, 6.0));
        assert_eq!(s.mean(), 4.5);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn histogram_tail_follows_the_rule() {
        let mut h = LogHistogram::new();
        for v in 1..=2000u64 {
            h.record(v % 7);
        }
        assert_eq!(hist_tail(&h, 0.99), (6.0, 0.99));
        assert_eq!(hist_tail(&LogHistogram::new(), 0.99), (0.0, 0.5));
    }

    #[test]
    fn harmonic_teps_weights_slow_calls() {
        // 100 edges in 1 s and 100 edges in 3 s: harmonic mean of 100
        // and 33.3 is 2 / (1/100 + 3/100) = 50, not the arithmetic 66.7.
        let h = harmonic_rate(&[(100, 1.0), (100, 3.0)]);
        assert!((h - 50.0).abs() < 1e-9, "{h}");
        assert_eq!(harmonic_rate(&[]), 0.0);
        // Equal calls: harmonic mean equals the common rate.
        let e = harmonic_rate(&[(1_000_000, 0.5); 7]);
        assert!((e - 2_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn fail_frac_counts_every_kind_of_miss() {
        let t = Tally {
            attempted: 100,
            shed: 1,
            failed: 2,
            cancelled: 3,
            deadline_exceeded: 4,
            wrong: 5,
        };
        assert_eq!(t.failures(), 15);
        assert!((t.fail_frac() - 0.15).abs() < 1e-12);
        assert_eq!(Tally::default().fail_frac(), 0.0);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&Tally {
            attempted: 100,
            ..Default::default()
        });
        assert_eq!((sum.attempted, sum.failures()), (200, 15));
        assert!((sum.fail_frac() - 0.075).abs() < 1e-12);
    }
}
