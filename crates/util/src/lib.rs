//! Shared utilities for the `obfs` workspace.
//!
//! Everything here is deliberately dependency-free so the whole workspace
//! stays reproducible: the PRNGs are seedable and deterministic, the
//! numeric helpers are the handful of integer routines the graph
//! generators and the BFS dispatchers share, and [`par`] holds the prefix
//! sums, block splits and stable scatter that the graph builder and the
//! frontier compaction share.

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod par;
pub mod prng;
pub mod stats;

pub use hist::LogHistogram;
pub use json::Json;
pub use prng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{OnlineStats, Summary};

/// Integer ceiling division `ceil(a / b)` for `b > 0`.
///
/// ```
/// assert_eq!(obfs_util::div_ceil(7, 3), 3);
/// assert_eq!(obfs_util::div_ceil(6, 3), 2);
/// assert_eq!(obfs_util::div_ceil(0, 3), 0);
/// ```
#[inline]
pub const fn div_ceil(a: usize, b: usize) -> usize {
    if a == 0 {
        0
    } else {
        1 + (a - 1) / b
    }
}

/// `ceil(log2(n))` for `n >= 1`; returns 0 for `n <= 1`.
///
/// Used for the `c * p * log(p)` retry bounds in the work-stealing
/// algorithms (balls-and-bins argument, paper §IV-A3 / §IV-B1).
///
/// ```
/// assert_eq!(obfs_util::ceil_log2(1), 0);
/// assert_eq!(obfs_util::ceil_log2(2), 1);
/// assert_eq!(obfs_util::ceil_log2(3), 2);
/// assert_eq!(obfs_util::ceil_log2(32), 5);
/// assert_eq!(obfs_util::ceil_log2(33), 6);
/// ```
#[inline]
pub const fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Number of retry attempts `c * k * ceil(log2(k))`, clamped to at least
/// `min`, as used by the decentralized queue-pool search and the
/// work-stealing victim search. `k = 1` yields `min`.
#[inline]
pub fn retry_budget(c: usize, k: usize, min: usize) -> usize {
    let tries = c * k * (ceil_log2(k).max(1) as usize);
    tries.max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_ceil_edge_cases() {
        assert_eq!(div_ceil(0, 1), 0);
        assert_eq!(div_ceil(1, 1), 1);
        assert_eq!(div_ceil(1, 100), 1);
        assert_eq!(div_ceil(100, 1), 100);
        assert_eq!(div_ceil(usize::MAX, usize::MAX), 1);
    }

    #[test]
    fn ceil_log2_powers_and_neighbours() {
        for k in 1..20u32 {
            let n = 1usize << k;
            assert_eq!(ceil_log2(n), k, "exact power 2^{k}");
            assert_eq!(ceil_log2(n + 1), k + 1, "just above 2^{k}");
            assert_eq!(ceil_log2(n - 1), if k == 1 { 0 } else { k }, "just below 2^{k}");
        }
    }

    #[test]
    fn retry_budget_monotone_in_k() {
        let mut prev = 0;
        for k in 1..100 {
            let b = retry_budget(2, k, 4);
            assert!(b >= prev, "retry budget must not shrink as k grows");
            assert!(b >= 4);
            prev = b;
        }
    }

    #[test]
    fn retry_budget_respects_min() {
        assert_eq!(retry_budget(1, 1, 8), 8);
        assert_eq!(retry_budget(0, 64, 3), 3);
    }
}
