//! Deterministic, seedable pseudo-random number generators.
//!
//! The workspace does not use the `rand` crate: every experiment in the
//! paper reproduction must be replayable from a single `u64` seed, and the
//! two tiny generators here (SplitMix64 for seeding/stateless hashing,
//! xoshiro256** for bulk streams) are the standard pairing for that job.
//! Both match the reference implementations by Blackman & Vigna.

/// SplitMix64: a tiny, fast, full-period 64-bit generator.
///
/// Primarily used to expand a single user seed into the larger state of
/// [`Xoshiro256StarStar`], and as a cheap stateless mix function
/// ([`SplitMix64::mix`]) for per-thread seed derivation.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Every seed is valid.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Self::finalize(self.state)
    }

    /// Stateless mix: maps `x` to a well-distributed 64-bit value.
    /// `mix(a) != mix(b)` whenever `a != b` (it is a bijection).
    #[inline]
    pub fn mix(x: u64) -> u64 {
        Self::finalize(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    #[inline]
    fn finalize(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the general-purpose generator used for all workload
/// generation and victim selection in the workspace.
///
/// Period 2^256 - 1; passes BigCrush. Seeded via SplitMix64 so that any
/// `u64` seed (including 0) produces a valid, well-mixed state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Create a generator from a single seed, expanding it with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Derive an independent stream for worker `index` from a base seed.
    /// Streams for different indices are decorrelated by double-mixing.
    pub fn for_stream(seed: u64, index: u64) -> Self {
        Self::new(
            SplitMix64::mix(seed) ^ SplitMix64::mix(index.wrapping_mul(0xA24B_AED4_963E_E407)),
        )
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        step(&mut self.s);
        result
    }

    /// Jump ahead: the state after `k` calls of [`Self::next_u64`], in
    /// O(log k) time. The state update is linear over GF(2), so `k` steps
    /// are the `k`-th power of one 256×256 bit matrix, applied here one
    /// set bit of `k` at a time while the matrix is squared (about 31
    /// squarings for `k < 2^31`, a few milliseconds). Lets several
    /// threads each generate their own slice of one stream.
    pub fn advance(&mut self, mut k: u64) {
        if k == 0 {
            return;
        }
        // Column j of the step matrix is the step applied to basis state j.
        let mut power: Vec<[u64; 4]> = (0..256)
            .map(|j| {
                let mut e = [0u64; 4];
                e[j / 64] = 1 << (j % 64);
                step(&mut e);
                e
            })
            .collect();
        loop {
            if k & 1 == 1 {
                self.s = apply(&power, self.s);
            }
            k >>= 1;
            if k == 0 {
                return;
            }
            power = power.iter().map(|&col| apply(&power, col)).collect();
        }
    }

    /// Next 32 uniformly distributed bits (upper half of `next_u64`).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, bound)` using Lemire's multiply-shift rejection
    /// method (unbiased). `bound` must be non-zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        // Lemire 2019: unbiased bounded generation with one multiply in the
        // common case.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// xoshiro256**'s state update, one step.
#[inline]
fn step(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// The bit matrix with columns `matrix` (256 of them) times the state
/// vector `s`, over GF(2): the XOR of the columns whose bit is set in `s`.
fn apply(matrix: &[[u64; 4]], s: [u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (w, &word) in s.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let col = &matrix[w * 64 + bits.trailing_zeros() as usize];
            for (o, c) in out.iter_mut().zip(col) {
                *o ^= c;
            }
            bits &= bits - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c reference implementation.
        let mut sm = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(got[0], 6457827717110365317);
        assert_eq!(got[1], 3203168211198807973);
        assert_eq!(got[2], 9817491932198370423);
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut g = Xoshiro256StarStar::new(42);
            (0..16).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = Xoshiro256StarStar::new(42);
            (0..16).map(|_| g.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut g = Xoshiro256StarStar::new(43);
            (0..16).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b, "same seed must give same stream");
        assert_ne!(a, c, "different seeds must give different streams");
    }

    #[test]
    fn below_is_in_range_and_hits_all_values() {
        let mut g = Xoshiro256StarStar::new(7);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = g.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear in 10k draws");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = Xoshiro256StarStar::new(99);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn streams_are_decorrelated() {
        let mut g0 = Xoshiro256StarStar::for_stream(42, 0);
        let mut g1 = Xoshiro256StarStar::for_stream(42, 1);
        let a: Vec<u64> = (0..8).map(|_| g0.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| g1.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn advance_equals_stepping() {
        for k in [0u64, 1, 63, 64, 65, 12345] {
            let mut jumped = Xoshiro256StarStar::new(77);
            jumped.advance(k);
            let mut stepped = Xoshiro256StarStar::new(77);
            (0..k).for_each(|_| {
                stepped.next_u64();
            });
            assert_eq!(jumped, stepped, "advance({k})");
        }
    }

    #[test]
    fn advances_compose() {
        for (a, b) in [(0u64, 5u64), (64, 65), (12345, 1 << 40), (u64::MAX / 3, 99)] {
            let mut twice = Xoshiro256StarStar::new(3);
            twice.advance(a);
            twice.advance(b);
            let mut once = Xoshiro256StarStar::new(3);
            once.advance(a + b);
            assert_eq!(twice, once, "advance({a}) then advance({b})");
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut g = Xoshiro256StarStar::new(3);
        assert!((0..100).all(|_| !g.chance(0.0)));
        assert!((0..100).all(|_| g.chance(1.0)));
    }
}
