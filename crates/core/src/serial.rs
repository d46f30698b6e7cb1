//! Serial reference BFS (`sbfs` in the paper's tables).

use crate::options::BfsOptions;
use crate::stats::{RunStats, ThreadStats};
use crate::{BfsResult, UNVISITED};
use obfs_graph::{CsrGraph, VertexId, INVALID_VERTEX};
use std::collections::VecDeque;

/// Standard FIFO-queue serial BFS. Ground truth for every parallel
/// variant and the `sbfs` baseline row of Table V.
pub fn serial_bfs(graph: &CsrGraph, src: VertexId) -> BfsResult {
    serial_bfs_with_opts(graph, src, &BfsOptions { record_parents: false, ..Default::default() })
}

/// Serial BFS honouring `record_parents`.
pub fn serial_bfs_with_opts(graph: &CsrGraph, src: VertexId, opts: &BfsOptions) -> BfsResult {
    let n = graph.num_vertices();
    assert!((src as usize) < n, "source {src} out of range for n={n}");
    let t0 = std::time::Instant::now();
    let mut levels = vec![UNVISITED; n];
    let mut parents = opts.record_parents.then(|| vec![INVALID_VERTEX; n]);
    let mut ts = ThreadStats::default();
    let mut q = VecDeque::with_capacity(1024);
    levels[src as usize] = 0;
    if let Some(p) = &mut parents {
        p[src as usize] = src;
    }
    q.push_back(src);
    let mut deepest = 0u32;
    while let Some(u) = q.pop_front() {
        let next = levels[u as usize] + 1;
        ts.vertices_explored += 1;
        let neigh = graph.neighbors(u);
        ts.edges_scanned += neigh.len() as u64;
        for &w in neigh {
            if levels[w as usize] == UNVISITED {
                levels[w as usize] = next;
                deepest = deepest.max(next);
                if let Some(p) = &mut parents {
                    p[w as usize] = u;
                }
                q.push_back(w);
                ts.vertices_discovered += 1;
            }
        }
    }
    let traversal_time = t0.elapsed();
    let mut stats = RunStats::from_threads(vec![ts], deepest + 1, traversal_time);
    stats.per_thread.clear(); // serial: per-thread breakdown is meaningless
    BfsResult { levels, parents, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_graph::gen;

    #[test]
    fn path_levels() {
        let g = gen::path(6);
        let r = serial_bfs(&g, 0);
        assert_eq!(r.levels, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.depth(), 5);
        assert_eq!(r.reached(), 6);
        assert_eq!(r.stats.levels, 6);
    }

    #[test]
    fn disconnected_vertices_unvisited() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (3, 4)]);
        let r = serial_bfs(&g, 0);
        assert_eq!(r.levels[3], UNVISITED);
        assert_eq!(r.levels[4], UNVISITED);
        assert_eq!(r.reached(), 2);
    }

    #[test]
    fn parents_form_valid_tree() {
        let g = gen::binary_tree(31);
        let opts = BfsOptions { record_parents: true, ..Default::default() };
        let r = serial_bfs_with_opts(&g, 0, &opts);
        let parents = r.parents.as_ref().unwrap();
        assert_eq!(parents[0], 0);
        #[allow(clippy::needless_range_loop)] // v is the vertex id under test
        for v in 1..31usize {
            let p = parents[v] as usize;
            assert_eq!(r.levels[v], r.levels[p] + 1, "parent level mismatch at {v}");
            assert!(g.neighbors(p as u32).contains(&(v as u32)), "parent edge missing");
        }
    }

    #[test]
    fn counters_consistent() {
        let g = gen::cycle(10);
        let r = serial_bfs(&g, 0);
        // Every reached vertex is explored exactly once serially.
        assert_eq!(r.stats.totals.vertices_explored as usize, r.reached());
        assert_eq!(r.stats.totals.vertices_discovered as usize, r.reached() - 1);
        assert_eq!(r.stats.totals.edges_scanned, 20);
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::from_edges(1, &[]);
        let r = serial_bfs(&g, 0);
        assert_eq!(r.levels, vec![0]);
        assert_eq!(r.stats.levels, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let g = gen::path(3);
        let _ = serial_bfs(&g, 9);
    }
}
