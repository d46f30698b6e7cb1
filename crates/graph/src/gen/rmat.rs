//! Recursive-matrix (RMAT / Graph500 Kronecker) generator.

use crate::{CsrGraph, GraphBuilder, VertexId};
use obfs_util::Xoshiro256StarStar;

/// RMAT quadrant probabilities. The paper uses the Graph500 generator with
/// `a = 0.45, b = 0.15, c = 0.15` (so `d = 0.25`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Top-left quadrant probability.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Per-level probability perturbation (Graph500 "noise"), keeps the
    /// degree distribution from being perfectly self-similar. 0 disables.
    pub noise: f64,
}

impl Default for RmatParams {
    /// The paper's parameters (footnote 5): a=.45, b=.15, c=.15.
    fn default() -> Self {
        Self { a: 0.45, b: 0.15, c: 0.15, noise: 0.1 }
    }
}

impl RmatParams {
    /// The bottom-right probability `1 - a - b - c`.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    fn validate(&self) {
        assert!(self.a > 0.0 && self.b >= 0.0 && self.c >= 0.0, "probabilities must be >= 0");
        assert!(
            self.a + self.b + self.c < 1.0 + 1e-12,
            "a + b + c must be < 1 (d = 1-a-b-c must be positive)"
        );
        assert!((0.0..=0.5).contains(&self.noise), "noise must be in [0, 0.5]");
    }
}

/// Generate a directed RMAT graph with `2^scale` vertices and (about)
/// `edge_factor * 2^scale` directed edges before dedup/self-loop removal.
///
/// Duplicates and self-loops — which RMAT produces in bulk for skewed
/// parameters — are removed by the builder, so the final edge count is
/// slightly below `edge_factor << scale` (exactly as with the Graph500
/// reference generator).
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> CsrGraph {
    params.validate();
    assert!(scale < 31, "scale {scale} would overflow u32 vertex ids");
    let n = 1usize << scale;
    let m = edge_factor * n;
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut b = GraphBuilder::new(n);
    b.reserve(m);
    for _ in 0..m {
        let (u, v) = rmat_edge(scale, &params, &mut rng);
        b.add_edge(u, v);
    }
    b.build()
}

/// Sample one (source, target) pair by recursive quadrant descent.
fn rmat_edge(scale: u32, p: &RmatParams, rng: &mut Xoshiro256StarStar) -> (VertexId, VertexId) {
    let mut u = 0u32;
    let mut v = 0u32;
    let (mut a, mut b, mut c) = (p.a, p.b, p.c);
    for level in 0..scale {
        let d = 1.0 - a - b - c;
        let r = rng.next_f64();
        let bit = 1u32 << (scale - 1 - level);
        if r < a {
            // top-left: no bits set
        } else if r < a + b {
            v |= bit;
        } else if r < a + b + c {
            u |= bit;
        } else {
            debug_assert!(d >= 0.0);
            u |= bit;
            v |= bit;
        }
        if p.noise > 0.0 {
            // Multiplicative noise per level, renormalized (Graph500 style).
            let na = a * (1.0 - p.noise + 2.0 * p.noise * rng.next_f64());
            let nb = b * (1.0 - p.noise + 2.0 * p.noise * rng.next_f64());
            let nc = c * (1.0 - p.noise + 2.0 * p.noise * rng.next_f64());
            let nd = d * (1.0 - p.noise + 2.0 * p.noise * rng.next_f64());
            let s = na + nb + nc + nd;
            a = na / s;
            b = nb / s;
            c = nc / s;
        }
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_paper() {
        let p = RmatParams::default();
        assert_eq!((p.a, p.b, p.c), (0.45, 0.15, 0.15));
        assert!((p.d() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sizes_are_plausible() {
        let g = rmat(10, 8, RmatParams::default(), 1);
        assert_eq!(g.num_vertices(), 1024);
        // Dedup + self-loop removal trims some edges but most survive.
        assert!(g.num_edges() > 4 * 1024, "too few edges: {}", g.num_edges());
        assert!(g.num_edges() <= 8 * 1024);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = rmat(8, 4, RmatParams::default(), 7);
        let b = rmat(8, 4, RmatParams::default(), 7);
        let c = rmat(8, 4, RmatParams::default(), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn skewed_params_make_hubs() {
        // With Graph500 skew the max degree should far exceed the mean.
        let g = rmat(12, 16, RmatParams::default(), 3);
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        let (dmax, _) = g.max_degree();
        assert!(dmax as f64 > 5.0 * mean, "expected hub formation: dmax={dmax}, mean={mean:.1}");
    }

    #[test]
    fn uniform_params_do_not_make_hubs() {
        let p = RmatParams { a: 0.25, b: 0.25, c: 0.25, noise: 0.0 };
        let g = rmat(12, 16, p, 3);
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        let (dmax, _) = g.max_degree();
        assert!(
            (dmax as f64) < 4.0 * mean,
            "uniform RMAT is Erdős–Rényi-like: dmax={dmax}, mean={mean:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "must be < 1")]
    fn rejects_bad_probabilities() {
        let p = RmatParams { a: 0.6, b: 0.3, c: 0.3, noise: 0.0 };
        let _ = rmat(4, 2, p, 0);
    }

    #[test]
    fn no_self_loops_after_build() {
        let g = rmat(9, 8, RmatParams::default(), 5);
        for (u, v) in g.edges() {
            assert_ne!(u, v);
        }
    }
}
