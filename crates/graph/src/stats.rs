//! Graph statistics: the measurements behind the paper's Table IV.
//!
//! Includes a self-contained serial BFS (this crate sits below
//! `obfs-core`, so it cannot use the parallel algorithms) used for
//! reachability and pseudo-diameter sweeps.

use crate::{CsrGraph, VertexId};
use obfs_util::Xoshiro256StarStar;
use std::collections::VecDeque;

/// Level of unvisited vertices in [`bfs_levels`] output.
pub const UNREACHED: u32 = u32::MAX;

/// Plain serial BFS from `src`; returns per-vertex levels (`UNREACHED`
/// for vertices not reachable from `src`).
pub fn bfs_levels(g: &CsrGraph, src: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    assert!((src as usize) < n, "source out of range");
    let mut level = vec![UNREACHED; n];
    let mut q = VecDeque::new();
    level[src as usize] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let next = level[u as usize] + 1;
        for &v in g.neighbors(u) {
            if level[v as usize] == UNREACHED {
                level[v as usize] = next;
                q.push_back(v);
            }
        }
    }
    level
}

/// The deepest BFS level reached from `src` (0 if nothing else reachable),
/// plus the number of reached vertices.
pub fn eccentricity(g: &CsrGraph, src: VertexId) -> (u32, usize) {
    let levels = bfs_levels(g, src);
    let mut depth = 0;
    let mut reached = 0usize;
    for &l in &levels {
        if l != UNREACHED {
            reached += 1;
            depth = depth.max(l);
        }
    }
    (depth, reached)
}

/// BFS pseudo-diameter: repeated eccentricity sweeps from the deepest
/// vertex found so far (the standard double-sweep heuristic, `rounds`
/// iterations). This mirrors "the maximum diameter explored by the BFS"
/// reported in the paper's Table IV.
pub fn pseudo_diameter(g: &CsrGraph, src: VertexId, rounds: usize) -> u32 {
    let mut best = 0u32;
    let mut from = src;
    for _ in 0..rounds.max(1) {
        let levels = bfs_levels(g, from);
        let mut far = from;
        let mut depth = 0u32;
        for (v, &l) in levels.iter().enumerate() {
            if l != UNREACHED && l > depth {
                depth = l;
                far = v as VertexId;
            }
        }
        if depth <= best {
            break;
        }
        best = depth;
        from = far;
    }
    best
}

/// Degree histogram: `hist[d]` = number of vertices with out-degree `d`.
pub fn degree_histogram(g: &CsrGraph) -> Vec<usize> {
    let (dmax, _) = g.max_degree();
    let mut hist = vec![0usize; dmax + 1];
    for v in 0..g.num_vertices() as VertexId {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// Maximum-likelihood power-law exponent estimate (Clauset et al.) over
/// vertices with degree >= `dmin`. Returns `None` if fewer than 10 such
/// vertices exist.
pub fn power_law_exponent(g: &CsrGraph, dmin: usize) -> Option<f64> {
    assert!(dmin >= 1);
    let mut count = 0usize;
    let mut log_sum = 0.0f64;
    for v in 0..g.num_vertices() as VertexId {
        let d = g.degree(v);
        if d >= dmin {
            count += 1;
            // Continuous MLE with the standard -1/2 discreteness correction.
            log_sum += (d as f64 / (dmin as f64 - 0.5)).ln();
        }
    }
    if count < 10 {
        return None;
    }
    Some(1.0 + count as f64 / log_sum)
}

/// A random source vertex with non-zero out-degree (the paper samples
/// 1000 such sources per graph). Returns `None` if the graph has no edges.
pub fn random_nonzero_source(g: &CsrGraph, rng: &mut Xoshiro256StarStar) -> Option<VertexId> {
    if g.num_edges() == 0 {
        return None;
    }
    loop {
        let v = rng.below_usize(g.num_vertices()) as VertexId;
        if g.degree(v) > 0 {
            return Some(v);
        }
    }
}

/// Sample `k` sources with non-zero out-degree (with replacement).
pub fn sample_sources(g: &CsrGraph, k: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..k).map(|_| random_nonzero_source(g, &mut rng).expect("graph has no edges")).collect()
}

/// Summary row for Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Vertex count.
    pub n: usize,
    /// Directed edge count.
    pub m: u64,
    /// Mean out-degree.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Double-sweep BFS pseudo-diameter.
    pub pseudo_diameter: u32,
    /// Vertices reachable from the first non-isolated vertex.
    pub reached_from_0: usize,
    /// MLE power-law exponent over degrees >= 4, if estimable.
    pub power_law_gamma: Option<f64>,
}

/// Compute the full summary (one serial BFS sweep set; O(m) per sweep).
pub fn summarize(g: &CsrGraph) -> GraphSummary {
    let n = g.num_vertices();
    let m = g.num_edges();
    let (max_degree, _) = g.max_degree();
    let src = (0..n as VertexId).find(|&v| g.degree(v) > 0).unwrap_or(0);
    let (_, reached) = eccentricity(g, src);
    GraphSummary {
        n,
        m,
        avg_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
        max_degree,
        pseudo_diameter: pseudo_diameter(g, src, 4),
        reached_from_0: reached,
        power_law_gamma: power_law_exponent(g, 4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn bfs_levels_on_path() {
        let g = gen::path(5);
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_levels(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let l = bfs_levels(&g, 0);
        assert_eq!(l[0], 0);
        assert_eq!(l[1], 1);
        assert_eq!(l[2], UNREACHED);
        assert_eq!(l[3], UNREACHED);
    }

    #[test]
    fn directed_edges_are_one_way() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        assert_eq!(bfs_levels(&g, 1), vec![UNREACHED, 0]);
    }

    #[test]
    fn eccentricity_and_diameter_on_cycle() {
        let g = gen::cycle(10);
        let (ecc, reached) = eccentricity(&g, 0);
        assert_eq!(ecc, 5);
        assert_eq!(reached, 10);
        assert_eq!(pseudo_diameter(&g, 0, 4), 5);
    }

    #[test]
    fn pseudo_diameter_finds_path_ends() {
        let g = gen::path(50);
        // Starting from the middle, the double sweep must find the true
        // diameter 49.
        assert_eq!(pseudo_diameter(&g, 25, 3), 49);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = gen::barabasi_albert(300, 2, 1);
        let h = degree_histogram(&g);
        assert_eq!(h.iter().sum::<usize>(), 300);
    }

    #[test]
    fn power_law_estimate_close_for_synthetic() {
        let w = gen::power_law_degrees(30_000, 2.5, 4, 500, 9);
        let n = w.len();
        let g = gen::chung_lu(n, &w, 10);
        let gamma = power_law_exponent(&g, 8).expect("enough tail vertices");
        assert!(
            (1.8..=3.2).contains(&gamma),
            "estimated gamma {gamma:.2} implausible for target 2.5"
        );
    }

    #[test]
    fn power_law_none_for_tiny() {
        let g = gen::path(5);
        assert_eq!(power_law_exponent(&g, 10), None);
    }

    #[test]
    fn sources_have_outgoing_edges() {
        let g = gen::star(50);
        for s in sample_sources(&g, 20, 3) {
            assert!(g.degree(s) > 0);
        }
    }

    #[test]
    fn summarize_consistency() {
        let g = gen::torus3d(5, 5, 5);
        let s = summarize(&g);
        assert_eq!(s.n, 125);
        assert_eq!(s.m, 750);
        assert_eq!(s.max_degree, 6);
        assert!((s.avg_degree - 6.0).abs() < 1e-9);
        assert_eq!(s.reached_from_0, 125);
        // Torus 5x5x5 diameter = 2+2+2 = 6
        assert_eq!(s.pseudo_diameter, 6);
    }
}
