//! Recursive-matrix (RMAT / Graph500 Kronecker) generator.

use crate::{sort, CsrGraph, GraphBuilder, VertexId};
use obfs_util::{par, Xoshiro256StarStar};

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
///
/// The edges come from one xoshiro256** stream seeded with `seed`, made
/// on every core: each thread jumps ahead to its first edge's position in
/// the stream ([`Xoshiro256StarStar::advance`]), so the graph is the same
/// at any thread count.
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> CsrGraph {
    params.validate();
    assert!(scale < 31, "scale {scale} would overflow u32 vertex ids");
    let n = 1usize << scale;
    let m = edge_factor * n;
    let edges = rmat_edges(scale, m, &params, seed, par::threads_for(m, sort::GRAIN));
    GraphBuilder::with_edges(n, edges).build()
}

/// The first `m` edges of the stream from `seed`, on `threads` threads:
/// one preallocated list, filled in contiguous per-thread chunks.
pub(crate) fn rmat_edges(
    scale: u32,
    m: usize,
    params: &RmatParams,
    seed: u64,
    threads: usize,
) -> Vec<(VertexId, VertexId)> {
    // Every edge takes exactly this many draws: one per level, plus four
    // noise draws per level when noise is on.
    let draws = u64::from(if params.noise > 0.0 { 5 * scale } else { scale });
    let mut edges = vec![(0, 0); m];
    let per = obfs_util::div_ceil(m, threads.max(1)).max(1);
    par::map(edges.chunks_mut(per).collect(), |t, chunk: &mut [(VertexId, VertexId)]| {
        let mut rng = Xoshiro256StarStar::new(seed);
        rng.advance(
            ((t * per) as u64).checked_mul(draws).expect("RMAT stream position overflows u64"),
        );
        for e in chunk {
            *e = rmat_edge(scale, params, &mut rng);
        }
    });
    edges
}

/// Sample one (source, target) pair by recursive quadrant descent.
fn rmat_edge(scale: u32, p: &RmatParams, rng: &mut Xoshiro256StarStar) -> (VertexId, VertexId) {
    let mut u = 0u32;
    let mut v = 0u32;
    let (mut a, mut b, mut c) = (p.a, p.b, p.c);
    for level in 0..scale {
        let d = 1.0 - a - b - c;
        let r = rng.next_f64();
        let shift = scale - 1 - level;
        // The quadrant by comparisons instead of a branch chain: top-left
        // below a, top-right below a+b, bottom-left below (a+b)+c, else
        // bottom-right — the same sums, so the same quadrants.
        let (ab, abc) = (a + b, a + b + c);
        u |= u32::from(r >= ab) << shift;
        v |= u32::from((r >= a && r < ab) || r >= abc) << shift;
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
    fn edges_do_not_depend_on_threads() {
        for (scale, params) in
            [(9, RmatParams::default()), (8, RmatParams { a: 0.57, b: 0.19, c: 0.19, noise: 0.0 })]
        {
            let serial = rmat_edges(scale, 8 << scale, &params, 5, 1);
            for threads in [2, 3, 7] {
                assert_eq!(rmat_edges(scale, 8 << scale, &params, 5, threads), serial);
            }
        }
        // Fewer edges than threads: the empty chunks draw nothing.
        let p = RmatParams::default();
        assert_eq!(rmat_edges(3, 2, &p, 5, 7), rmat_edges(3, 2, &p, 5, 1));
        assert!(rmat_edges(3, 0, &p, 5, 7).is_empty());
    }

    #[test]
    fn no_self_loops_after_build() {
        let g = rmat(9, 8, RmatParams::default(), 5);
        for (u, v) in g.edges() {
            assert_ne!(u, v);
        }
    }
}
