//! Random graph models: Erdős–Rényi G(n, m) and Chung-Lu power law.

use crate::{CsrGraph, GraphBuilder, VertexId};
use obfs_util::Xoshiro256StarStar;

/// Directed Erdős–Rényi G(n, m): `m` edges sampled uniformly (duplicates
/// and self-loops removed, so the final count can be slightly below `m`).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 1, "need at least one vertex");
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut b = GraphBuilder::new(n);
    b.reserve(m);
    for _ in 0..m {
        let u = rng.below_usize(n) as VertexId;
        let v = rng.below_usize(n) as VertexId;
        b.add_edge(u, v);
    }
    b.build()
}

/// Sample a power-law degree sequence with exponent `gamma > 1`, minimum
/// degree `dmin`, maximum degree `dmax`, via inverse-CDF sampling of the
/// discrete Pareto distribution.
pub fn power_law_degrees(n: usize, gamma: f64, dmin: usize, dmax: usize, seed: u64) -> Vec<usize> {
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    assert!(dmin >= 1 && dmax >= dmin, "need 1 <= dmin <= dmax");
    let mut rng = Xoshiro256StarStar::new(seed);
    let alpha = 1.0 - gamma;
    let lo = (dmin as f64).powf(alpha);
    let hi = ((dmax + 1) as f64).powf(alpha);
    (0..n)
        .map(|_| {
            let u = rng.next_f64();
            // Inverse CDF of the continuous Pareto truncated to
            // [dmin, dmax+1), floored to an integer degree.
            let x = (lo + u * (hi - lo)).powf(1.0 / alpha);
            (x as usize).clamp(dmin, dmax)
        })
        .collect()
}

/// Chung-Lu model: edge (u, v) appears with probability ~ w_u * w_v / W,
/// realized by weighted endpoint sampling of `m ≈ sum(w)/2 * 2` edges.
///
/// Produces a scale-free directed graph whose degree distribution follows
/// the weight sequence — our stand-in for the Wikipedia-style web graphs
/// in the paper (γ between 2 and 3, hotspot hubs).
pub fn chung_lu(n: usize, weights: &[usize], seed: u64) -> CsrGraph {
    assert_eq!(n, weights.len(), "one weight per vertex");
    assert!(n >= 1);
    let total: u64 = weights.iter().map(|&w| w as u64).sum();
    assert!(total > 0, "at least one positive weight required");
    let mut rng = Xoshiro256StarStar::new(seed);

    // Alias-free weighted sampling via the cumulative table + binary
    // search: O(log n) per endpoint, fine for generation-time work.
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0u64;
    for &w in weights {
        acc += w as u64;
        cumulative.push(acc);
    }
    let sample = |rng: &mut Xoshiro256StarStar| -> VertexId {
        let x = rng.below(total) + 1;
        cumulative.partition_point(|&c| c < x) as VertexId
    };

    let m = (total / 2) as usize; // expected edges ≈ half the weight mass
    let mut b = GraphBuilder::new(n);
    b.reserve(m);
    for _ in 0..m {
        b.add_edge(sample(&mut rng), sample(&mut rng));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_size_and_determinism() {
        let g = erdos_renyi(500, 3000, 1);
        assert_eq!(g.num_vertices(), 500);
        assert!(g.num_edges() > 2500 && g.num_edges() <= 3000);
        assert_eq!(g, erdos_renyi(500, 3000, 1));
        assert_ne!(g, erdos_renyi(500, 3000, 2));
    }

    #[test]
    fn er_degrees_are_concentrated() {
        let g = erdos_renyi(2000, 20_000, 9);
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        let (dmax, _) = g.max_degree();
        assert!((dmax as f64) < 5.0 * mean, "ER should have no hubs");
    }

    #[test]
    fn power_law_degrees_in_range_and_skewed() {
        let d = power_law_degrees(10_000, 2.3, 2, 1000, 4);
        assert!(d.iter().all(|&x| (2..=1000).contains(&x)));
        let mean = d.iter().sum::<usize>() as f64 / d.len() as f64;
        let max = *d.iter().max().unwrap();
        assert!(mean < 20.0, "mean {mean} too high for gamma=2.3, dmin=2");
        assert!(max > 100, "max degree {max} too small — distribution not heavy-tailed");
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn power_law_rejects_gamma_leq_1() {
        let _ = power_law_degrees(10, 1.0, 1, 5, 0);
    }

    #[test]
    fn chung_lu_respects_weights() {
        // Vertex 0 has 100x the weight of the others: it must end up with
        // far more incident edges than an average vertex.
        let n = 1000;
        let mut w = vec![4usize; n];
        w[0] = 400;
        let g = chung_lu(n, &w, 7);
        let t = g.transpose();
        let inout0 = g.degree(0) + t.degree(0);
        let mean: f64 = 2.0 * g.num_edges() as f64 / n as f64;
        assert!(inout0 as f64 > 10.0 * mean, "hub vertex degree {inout0} vs mean {mean:.1}");
    }

    #[test]
    fn chung_lu_deterministic() {
        let w = vec![3usize; 200];
        assert_eq!(chung_lu(200, &w, 5), chung_lu(200, &w, 5));
    }
}
