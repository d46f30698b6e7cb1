//! Unweighted shortest paths on top of the parallel BFS.

use obfs_core::{run_bfs, Algorithm, BfsOptions, UNVISITED};
use obfs_graph::{CsrGraph, GraphBuilder, VertexId, INVALID_VERTEX};

/// A concrete shortest path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortestPath {
    /// Vertices from source to destination inclusive.
    pub vertices: Vec<VertexId>,
}

impl ShortestPath {
    /// Number of edges on the path.
    pub fn hops(&self) -> usize {
        self.vertices.len().saturating_sub(1)
    }
}

/// Shortest path from `src` to `dst` (unweighted), or `None` if
/// unreachable. Runs the configured parallel BFS once and walks the
/// parent chain.
pub fn shortest_path(
    graph: &CsrGraph,
    src: VertexId,
    dst: VertexId,
    algo: Algorithm,
    opts: &BfsOptions,
) -> Option<ShortestPath> {
    let opts = BfsOptions { record_parents: true, ..opts.clone() };
    let r = run_bfs(algo, graph, src, &opts);
    if r.levels[dst as usize] == UNVISITED {
        return None;
    }
    let parents = r.parents.as_ref().expect("record_parents was set");
    let mut vertices = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parents[cur as usize];
        debug_assert_ne!(cur, INVALID_VERTEX);
        vertices.push(cur);
    }
    vertices.reverse();
    debug_assert_eq!(vertices.len() as u32, r.levels[dst as usize] + 1);
    Some(ShortestPath { vertices })
}

/// Whether `dst` is reachable from `src` (st-connectivity, one of the
/// paper's §I building-block problems).
pub fn st_connected(
    graph: &CsrGraph,
    src: VertexId,
    dst: VertexId,
    algo: Algorithm,
    opts: &BfsOptions,
) -> bool {
    run_bfs(algo, graph, src, opts).levels[dst as usize] != UNVISITED
}

/// Multi-source BFS distances: `dist[v]` = hops to the nearest seed
/// ([`UNVISITED`] if unreachable from every seed).
///
/// Implemented with the standard virtual-super-source construction (a
/// fresh vertex with an edge to every seed), so the parallel BFS runs
/// unmodified; the super source's extra hop is subtracted afterwards.
pub fn multi_source_distances(
    graph: &CsrGraph,
    seeds: &[VertexId],
    algo: Algorithm,
    opts: &BfsOptions,
) -> Vec<u32> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let n = graph.num_vertices();
    let super_src = n as VertexId;
    let mut b = GraphBuilder::new(n + 1).dedup(false).allow_self_loops(true);
    b.reserve(graph.num_edges() as usize + seeds.len());
    b.extend(graph.edges());
    for &s in seeds {
        assert!((s as usize) < n, "seed {s} out of range");
        b.add_edge(super_src, s);
    }
    let aug = b.build();
    let r = run_bfs(algo, &aug, super_src, opts);
    (0..n)
        .map(|v| {
            let l = r.levels[v];
            if l == UNVISITED {
                UNVISITED
            } else {
                l - 1
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_graph::gen;

    fn opts() -> BfsOptions {
        BfsOptions { threads: 4, ..Default::default() }
    }

    #[test]
    fn path_on_grid_has_manhattan_length() {
        let g = gen::grid2d(10, 10);
        let p = shortest_path(&g, 0, 99, Algorithm::Bfswl, &opts()).unwrap();
        assert_eq!(p.hops(), 18); // (9 + 9)
                                  // Consecutive vertices must be adjacent.
        for w in p.vertices.windows(2) {
            assert!(g.neighbors(w[0]).contains(&w[1]));
        }
    }

    #[test]
    fn unreachable_returns_none() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        assert!(shortest_path(&g, 0, 3, Algorithm::Bfscl, &opts()).is_none());
        assert!(!st_connected(&g, 0, 3, Algorithm::Bfscl, &opts()));
        assert!(st_connected(&g, 0, 1, Algorithm::Bfscl, &opts()));
    }

    #[test]
    fn trivial_path_src_equals_dst() {
        let g = gen::cycle(5);
        let p = shortest_path(&g, 2, 2, Algorithm::Bfswsl, &opts()).unwrap();
        assert_eq!(p.vertices, vec![2]);
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn directed_respects_edge_orientation() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(st_connected(&g, 0, 2, Algorithm::Bfscl, &opts()));
        assert!(!st_connected(&g, 2, 0, Algorithm::Bfscl, &opts()));
    }

    #[test]
    fn multi_source_matches_min_of_single_sources() {
        let g = gen::erdos_renyi(300, 1500, 5);
        let seeds = [3u32, 77, 200];
        let multi = multi_source_distances(&g, &seeds, Algorithm::Bfscl, &opts());
        let singles: Vec<Vec<u32>> =
            seeds.iter().map(|&s| run_bfs(Algorithm::Serial, &g, s, &opts()).levels).collect();
        for v in 0..300 {
            let expect = singles.iter().map(|l| l[v]).min().unwrap();
            assert_eq!(multi[v], expect, "vertex {v}");
        }
    }

    #[test]
    fn multi_source_single_seed_is_plain_bfs() {
        let g = gen::binary_tree(127);
        let multi = multi_source_distances(&g, &[0], Algorithm::Bfswl, &opts());
        let single = run_bfs(Algorithm::Serial, &g, 0, &opts()).levels;
        assert_eq!(multi, single);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_rejected() {
        let g = gen::path(3);
        let _ = multi_source_distances(&g, &[], Algorithm::Bfscl, &opts());
    }
}
