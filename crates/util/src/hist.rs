//! Log-linear (HDR-style) latency histogram, std-only.
//!
//! The recorder side of the post-mortem profiler: workers record
//! microsecond latencies (segment fetches, steal attempts, barrier
//! waits) and small counts (sanity-check retries per fetch) with plain
//! stores into thread-owned histograms — the same memory-model argument
//! as the flight rings in `obfs-sync::flight`: each histogram is written
//! by exactly one thread and only read after that thread has passed a
//! barrier, so no atomics are needed.
//!
//! Layout: values below [`LogHistogram::SUB_BUCKETS`] get exact unit
//! buckets; above that, each power-of-two octave is split into
//! `SUB_BUCKETS` equal sub-buckets, so relative error is bounded by
//! `1/SUB_BUCKETS` everywhere. Values at or above 2^40 land in a single
//! saturation bucket (2^40 µs ≈ 13 days — nothing we time gets there).

use crate::json::Json;

/// Number of value bits above which values saturate into the overflow
/// bucket.
const MAX_BITS: u32 = 40;

/// Log-linear histogram of `u64` values with bounded relative error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Sub-buckets per power-of-two octave (3 bits of precision:
    /// relative bucket width is at most 1/8).
    pub const SUB_BUCKETS: u64 = 8;
    const PRECISION_BITS: u32 = 3;
    /// Regular (non-overflow) bucket count for the fixed layout.
    const REGULAR: usize = ((MAX_BITS - Self::PRECISION_BITS) as usize + 1) * 8;
    /// First value that saturates into the overflow bucket.
    pub const SATURATION: u64 = 1 << MAX_BITS;

    /// An empty histogram (fixed ~2.4 KiB of buckets).
    pub fn new() -> Self {
        Self { buckets: vec![0; Self::REGULAR + 1], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Bucket index for a value (the overflow bucket for saturating
    /// values). Exposed so tests and the chaos assertions can reason
    /// about exactly which bucket a latency must land in.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < Self::SUB_BUCKETS {
            v as usize
        } else if v >= Self::SATURATION {
            Self::REGULAR
        } else {
            let msb = 63 - v.leading_zeros();
            let shift = msb - Self::PRECISION_BITS;
            (((msb - Self::PRECISION_BITS + 1) as usize) << Self::PRECISION_BITS)
                + ((v >> shift) & (Self::SUB_BUCKETS - 1)) as usize
        }
    }

    /// Half-open value range `[lo, hi)` covered by bucket `i`; the
    /// overflow bucket reports `[SATURATION, u64::MAX)`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i < Self::SUB_BUCKETS as usize {
            (i as u64, i as u64 + 1)
        } else if i >= Self::REGULAR {
            (Self::SATURATION, u64::MAX)
        } else {
            let g = (i >> Self::PRECISION_BITS) as u32; // octave group, >= 1
            let sub = (i as u64) & (Self::SUB_BUCKETS - 1);
            let lo = (Self::SUB_BUCKETS + sub) << (g - 1);
            (lo, lo + (1 << (g - 1)))
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one (bucket-wise add; exact).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact, tracked outside the buckets).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Observations that saturated into the overflow bucket.
    pub fn saturated(&self) -> u64 {
        self.buckets[Self::REGULAR]
    }

    /// Value at or below which at least `q` (0..=1) of observations
    /// fall, reported as the containing bucket's inclusive upper edge
    /// clamped to the exact recorded max. 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if i >= Self::REGULAR {
                    // Overflow bucket: the exact tracked max is the only
                    // honest upper edge.
                    return self.max;
                }
                let (_, hi) = Self::bucket_bounds(i);
                return (hi - 1).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lo, hi, count)` with `[lo, hi)` value
    /// ranges, in ascending value order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| {
            let (lo, hi) = Self::bucket_bounds(i);
            (lo, hi, c)
        })
    }

    /// Deterministic JSON form: summary scalars plus the sparse bucket
    /// list (`[lo, count]` pairs in ascending order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as f64)),
            ("min".into(), Json::Num(self.min() as f64)),
            ("max".into(), Json::Num(self.max as f64)),
            ("mean".into(), Json::Num(self.mean())),
            ("p50".into(), Json::Num(self.percentile(0.50) as f64)),
            ("p90".into(), Json::Num(self.percentile(0.90) as f64)),
            ("p99".into(), Json::Num(self.percentile(0.99) as f64)),
            ("saturated".into(), Json::Num(self.saturated() as f64)),
            (
                "buckets".into(),
                Json::Arr(
                    self.iter_nonzero()
                        .map(|(lo, _, c)| {
                            Json::Arr(vec![Json::Num(lo as f64), Json::Num(c as f64)])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_below_sub_bucket_count() {
        for v in 0..LogHistogram::SUB_BUCKETS {
            assert_eq!(LogHistogram::bucket_index(v), v as usize);
            assert_eq!(LogHistogram::bucket_bounds(v as usize), (v, v + 1));
        }
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        // Deterministic value sweep: powers of two, their neighbours,
        // and a multiplicative ramp across the whole trackable range.
        let mut values = vec![0u64, 1, 7, 8, 9, 15, 16, 17];
        for k in 3..MAX_BITS {
            let p = 1u64 << k;
            values.extend([p - 1, p, p + 1, p + p / 3]);
        }
        values.extend([LogHistogram::SATURATION - 1, LogHistogram::SATURATION, u64::MAX]);
        for v in values {
            let i = LogHistogram::bucket_index(v);
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            assert!(
                lo <= v && (v < hi || (i == LogHistogram::bucket_index(u64::MAX) && v == u64::MAX)),
                "value {v} not in bucket {i} = [{lo},{hi})"
            );
        }
    }

    #[test]
    fn buckets_partition_the_trackable_range() {
        // Consecutive buckets tile the value space with no gaps or
        // overlaps up to the saturation point.
        let last = LogHistogram::bucket_index(LogHistogram::SATURATION - 1);
        let mut expect_lo = 0u64;
        for i in 0..=last {
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            assert_eq!(lo, expect_lo, "gap/overlap before bucket {i}");
            assert!(hi > lo);
            expect_lo = hi;
        }
        assert_eq!(expect_lo, LogHistogram::SATURATION);
    }

    #[test]
    fn relative_error_bounded() {
        for v in [100u64, 999, 12_345, 1 << 20, (1 << 30) + 12_321] {
            let (lo, hi) = LogHistogram::bucket_bounds(LogHistogram::bucket_index(v));
            let width = (hi - lo) as f64;
            assert!(width / lo as f64 <= 1.0 / 8.0 + 1e-9, "bucket too wide at {v}");
        }
    }

    #[test]
    fn record_tracks_exact_summary_scalars() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), 0);
        for v in [3u64, 1000, 17, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), (3.0 + 1000.0 + 17.0 + 3.0) / 4.0);
        assert_eq!(h.percentile(0.5), 3);
        // p100 is clamped to the exact max even though the containing
        // bucket's upper edge is coarser.
        assert_eq!(h.percentile(1.0), 1000);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 5, 900, 1 << 22]);
        let b = mk(&[0, 5, 5, u64::MAX]);
        let c = mk(&[123_456, 7]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ba_c = ba.clone();
        ba_c.merge(&c);

        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c, ba_c);
        assert_eq!(ab_c.count(), 10);
    }

    #[test]
    fn saturation_counts_overflow_values() {
        let mut h = LogHistogram::new();
        h.record(LogHistogram::SATURATION - 1);
        assert_eq!(h.saturated(), 0);
        h.record(LogHistogram::SATURATION);
        h.record(u64::MAX);
        assert_eq!(h.saturated(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        // The saturated observations are still in the distribution.
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_n(42, 5);
        a.record_n(7, 0); // no-op
        for _ in 0..5 {
            b.record(42);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn json_form_is_deterministic_and_sparse() {
        let mut h = LogHistogram::new();
        h.record_n(4, 3);
        h.record(100);
        let j = h.to_json();
        assert_eq!(j.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(j.get("buckets").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(h.to_json().render(), j.render());
    }

    #[test]
    fn percentiles_walk_cumulative_counts() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        let p90 = h.percentile(0.9);
        let p99 = h.percentile(0.99);
        // Bucket upper edges over-approximate by at most 1/8 relative.
        assert!((50..=57).contains(&p50), "p50 = {p50}");
        assert!((90..=104).contains(&p90), "p90 = {p90}");
        assert!((99..=112).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p90 && p90 <= p99);
    }
}
