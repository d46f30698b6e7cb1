//! Watts–Strogatz small-world graphs.
//!
//! A ring lattice (each vertex tied to its `k` nearest neighbours on each
//! side) whose arcs are rewired to uniformly random targets with
//! probability `beta`. `beta = 0` is the pure lattice (diameter ~ n/2k);
//! small `beta` collapses the diameter to polylogarithmic while keeping
//! degrees narrow — the regime of the paper's circuit-style graphs
//! (sparse, near-regular, long-but-not-lattice shortest paths).

use crate::{CsrGraph, GraphBuilder, VertexId};
use obfs_util::Xoshiro256StarStar;

/// Watts–Strogatz graph on `n` vertices: ring lattice with `k` arcs per
/// side, each arc rewired with probability `beta ∈ [0, 1]` to a uniform
/// random non-self target. Symmetrized and deduplicated.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> CsrGraph {
    assert!(n >= 3, "need at least a triangle-sized ring");
    assert!(k >= 1 && 2 * k < n, "need 1 <= k < n/2 lattice arcs per side");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut b = GraphBuilder::new(n).symmetrize(true);
    b.reserve(2 * n * k);
    for u in 0..n {
        for d in 1..=k {
            let lattice_target = ((u + d) % n) as VertexId;
            let v = if rng.chance(beta) {
                // Rewire to a uniform non-self target (self-loops are
                // dropped by the builder anyway; skip them here to keep
                // the edge count exact).
                loop {
                    let t = rng.below_usize(n) as VertexId;
                    if t != u as VertexId {
                        break t;
                    }
                }
            } else {
                lattice_target
            };
            b.add_edge(u as VertexId, v);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::pseudo_diameter;

    #[test]
    fn beta_zero_is_the_ring_lattice() {
        let g = watts_strogatz(20, 2, 0.0, 1);
        // 2 arcs per side, symmetric: every vertex has degree 4.
        for v in 0..20u32 {
            assert_eq!(g.degree(v), 4, "vertex {v}");
        }
        assert_eq!(g.num_edges(), 80);
        // Neighbours are ring-adjacent.
        assert_eq!(g.neighbors(0), &[1, 2, 18, 19]);
    }

    #[test]
    fn rewiring_shrinks_the_diameter() {
        let lattice = watts_strogatz(2000, 2, 0.0, 7);
        let small_world = watts_strogatz(2000, 2, 0.05, 7);
        let d0 = pseudo_diameter(&lattice, 0, 3);
        let d1 = pseudo_diameter(&small_world, 0, 3);
        assert!(d0 >= 400, "lattice diameter ~ n/2k, got {d0}");
        assert!(d1 < d0 / 4, "5% rewiring must collapse the diameter: {d0} -> {d1}");
    }

    #[test]
    fn degrees_stay_narrow_under_rewiring() {
        let g = watts_strogatz(3000, 3, 0.1, 3);
        let (dmax, _) = g.max_degree();
        // Rewiring adds in-degree noise but no scale-free hubs.
        assert!(dmax < 20, "unexpected hub: max degree {dmax}");
    }

    #[test]
    fn deterministic_and_symmetric() {
        let a = watts_strogatz(200, 2, 0.3, 9);
        assert_eq!(a, watts_strogatz(200, 2, 0.3, 9));
        assert_ne!(a, watts_strogatz(200, 2, 0.3, 10));
        assert!(a.is_symmetric());
    }

    #[test]
    fn beta_one_is_random_but_connected_enough() {
        let g = watts_strogatz(500, 3, 1.0, 4);
        // Expected degree stays ~2k even fully rewired.
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!((4.0..=6.0).contains(&mean), "mean degree {mean}");
    }

    #[test]
    #[should_panic(expected = "n/2")]
    fn rejects_oversized_k() {
        let _ = watts_strogatz(10, 5, 0.0, 0);
    }
}
