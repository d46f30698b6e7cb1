//! Runtime kernel dispatch: probe at startup, pick the fastest bitmap
//! scan backend, and report which one ran.
//!
//! Modeled on the `fast_chacha` pattern (SNIPPETS.md): the library ships
//! more than one implementation of its hot inner loop, detects the
//! fastest available one at startup, and every report says which backend
//! actually ran. Here the hot loop is the bitmap scan shared by the
//! bottom-up kernel and the prefix-sum frontier compaction
//! ([`crate::scan`]): a word-at-a-time walk (skip zero words, iterate
//! set bits by `trailing_zeros`) versus a branchy per-bit scalar
//! fallback. Both produce identical results in identical order — the
//! probe only ever changes speed, never answers — so recording the
//! choice in [`crate::RunStats::kernel_backend`] and the schema-v4
//! `BENCH_*.json` reports keeps benchmark numbers attributable.
//!
//! The probe runs once per process (cached), on a synthetic
//! mixed-density bitmap with a fixed seed, so every run of one process
//! — and every level of one recording — reports the same identity.

use crate::frontier::FrontierBitmap;
use crate::scan;
use std::sync::OnceLock;

/// The bitmap scan implementations the probe chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanBackend {
    /// Word-at-a-time: skip all-zero words, walk set bits with
    /// `trailing_zeros` (the usual winner).
    #[default]
    Wordwise,
    /// Branchy per-bit scalar walk (the portable fallback, and the
    /// ablation baseline).
    Scalar,
}

impl ScanBackend {
    /// Stable label used by the bench JSON schema and the CLI.
    pub fn label(&self) -> &'static str {
        match self {
            ScanBackend::Wordwise => "wordwise",
            ScanBackend::Scalar => "scalar",
        }
    }

    /// Parse a [`ScanBackend::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "wordwise" => Some(ScanBackend::Wordwise),
            "scalar" => Some(ScanBackend::Scalar),
            _ => None,
        }
    }

    /// Flight-recorder payload code (`b` of a `COMPACT` event).
    pub fn code(&self) -> u64 {
        match self {
            ScanBackend::Wordwise => 0,
            ScanBackend::Scalar => 1,
        }
    }
}

impl std::fmt::Display for ScanBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a run selects its scan backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Probe once per process and use the fastest backend.
    #[default]
    Auto,
    /// Pin a backend (tests, ablations, reproducing a recorded run).
    Forced(ScanBackend),
}

impl KernelChoice {
    /// The backend this choice resolves to ([`probe`] for `Auto`).
    pub fn resolve(&self) -> ScanBackend {
        match self {
            KernelChoice::Auto => probe(),
            KernelChoice::Forced(b) => *b,
        }
    }
}

/// Time one backend over the probe bitmap: a popcount pass plus an
/// enumeration pass, the two operations the hot paths issue.
fn time_backend(backend: ScanBackend, bm: &FrontierBitmap, reps: u32) -> std::time::Duration {
    let words = bm.word_count();
    let mut best = std::time::Duration::MAX;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let mut acc = 0u64;
        acc += scan::popcount_words(backend, bm, 0, words);
        scan::for_each_set(backend, bm, 0, words, |v| acc ^= v as u64);
        let dt = t.elapsed();
        std::hint::black_box(acc);
        best = best.min(dt);
    }
    best
}

/// The probe's decision from the two best-of timings: `Scalar` only when
/// it takes less than 90% of `Wordwise`'s time. Both backends give the
/// same answers, and a sub-10% difference is within the timing noise of
/// a shared host, so a near-tie goes to `Wordwise` instead of flipping
/// from one process to the next.
fn pick_backend(wordwise: std::time::Duration, scalar: std::time::Duration) -> ScanBackend {
    if scalar.as_nanos() * 10 < wordwise.as_nanos() * 9 {
        ScanBackend::Scalar
    } else {
        ScanBackend::Wordwise
    }
}

/// Probe both backends on a synthetic mixed-density bitmap and return
/// the faster one (see [`pick_backend`] for the margin). Cached per
/// process, so every run in one process (and every level of one
/// recording) reports the same identity.
pub fn probe() -> ScanBackend {
    static CHOSEN: OnceLock<ScanBackend> = OnceLock::new();
    *CHOSEN.get_or_init(|| {
        // 4096 words = 128Ki vertices: big enough to time, small enough
        // to stay in cache. Fixed seed — the probe input never varies.
        let bm = FrontierBitmap::new(4096 * crate::frontier::BITMAP_WORD_BITS);
        let mut rng = obfs_util::Xoshiro256StarStar::for_stream(0xD15_7A7C4, 0);
        for wi in 0..bm.word_count() {
            // Mixed density: runs of empty words (the wordwise skip
            // case), sparse words, and dense words — the profile of real
            // frontiers across a traversal.
            let w = match wi % 4 {
                0 => 0,
                1 => (rng.next_u64() & rng.next_u64() & rng.next_u64()) as u32,
                _ => rng.next_u64() as u32,
            };
            bm.set_word(wi, w);
        }
        let ww = time_backend(ScanBackend::Wordwise, &bm, 5);
        let sc = time_backend(ScanBackend::Scalar, &bm, 5);
        pick_backend(ww, sc)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for b in [ScanBackend::Wordwise, ScanBackend::Scalar] {
            assert_eq!(ScanBackend::from_label(b.label()), Some(b));
            assert_eq!(format!("{b}"), b.label());
        }
        assert_eq!(ScanBackend::from_label("simd9000"), None);
        assert_ne!(ScanBackend::Wordwise.code(), ScanBackend::Scalar.code());
    }

    #[test]
    fn scalar_needs_a_ten_percent_margin() {
        use std::time::Duration;
        let us = Duration::from_micros;
        assert_eq!(pick_backend(us(100), us(100)), ScanBackend::Wordwise, "tie");
        assert_eq!(pick_backend(us(100), us(95)), ScanBackend::Wordwise, "5% is noise");
        assert_eq!(pick_backend(us(100), us(90)), ScanBackend::Wordwise, "exactly 10%");
        assert_eq!(pick_backend(us(100), us(89)), ScanBackend::Scalar, "11% wins");
        assert_eq!(pick_backend(us(89), us(100)), ScanBackend::Wordwise);
    }

    #[test]
    fn probe_is_stable_within_a_process() {
        let first = probe();
        for _ in 0..10 {
            assert_eq!(probe(), first, "probe must cache its choice");
        }
        assert_eq!(KernelChoice::Auto.resolve(), first);
        assert_eq!(
            KernelChoice::Forced(ScanBackend::Scalar).resolve(),
            ScanBackend::Scalar
        );
    }
}
