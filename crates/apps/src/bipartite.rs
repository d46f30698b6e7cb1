//! Bipartiteness testing via BFS level parity.

use obfs_core::{run_bfs, Algorithm, BfsOptions, BfsRunner, UNVISITED};
use obfs_graph::{CsrGraph, VertexId};

/// A 2-coloring certificate, or the odd-cycle edge that refutes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bipartition {
    /// `side[v]` ∈ {0, 1}; every edge crosses sides.
    Bipartite {
        /// `side[v]` ∈ {0, 1}.
        side: Vec<u8>,
    },
    /// An edge joining two same-parity vertices (both endpoints reached
    /// at the same BFS depth parity — an odd cycle exists through it).
    OddCycle {
        /// One endpoint of the violating edge.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
}

/// Test whether an undirected (symmetric) graph is bipartite. Colors come
/// from BFS level parity per component; any edge within one parity class
/// of the same component certifies an odd cycle.
pub fn bipartition(graph: &CsrGraph, algo: Algorithm, opts: &BfsOptions) -> Bipartition {
    let n = graph.num_vertices();
    let mut side = vec![2u8; n]; // 2 = unassigned
    if n == 0 {
        return Bipartite::bipartite(side);
    }
    let runner = (algo != Algorithm::Serial).then(|| BfsRunner::new(opts.threads));
    for v in 0..n as VertexId {
        if side[v as usize] != 2 {
            continue;
        }
        let r = match &runner {
            Some(run) => run.run(algo, graph, v, opts),
            None => run_bfs(Algorithm::Serial, graph, v, opts),
        };
        for (u, &l) in r.levels.iter().enumerate() {
            if l != UNVISITED && side[u] == 2 {
                side[u] = (l % 2) as u8;
            }
        }
    }
    // Verify every edge crosses; the first violation is the certificate.
    for (u, v) in graph.edges() {
        if u != v && side[u as usize] == side[v as usize] {
            return Bipartition::OddCycle { u, v };
        }
        if u == v {
            return Bipartition::OddCycle { u, v }; // self-loop: odd cycle of length 1
        }
    }
    Bipartite::bipartite(side)
}

/// Internal helper namespace (keeps the enum construction in one place).
struct Bipartite;

impl Bipartite {
    fn bipartite(mut side: Vec<u8>) -> Bipartition {
        // Unreached isolated vertices default to side 0.
        for s in &mut side {
            if *s == 2 {
                *s = 0;
            }
        }
        Bipartition::Bipartite { side }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_graph::{gen, GraphBuilder};

    fn opts() -> BfsOptions {
        BfsOptions { threads: 3, ..Default::default() }
    }

    #[test]
    fn even_cycle_is_bipartite() {
        let g = gen::cycle(10);
        match bipartition(&g, Algorithm::Bfscl, &opts()) {
            Bipartition::Bipartite { side } => {
                for (u, v) in g.edges() {
                    assert_ne!(side[u as usize], side[v as usize]);
                }
            }
            other => panic!("C10 must be bipartite, got {other:?}"),
        }
    }

    #[test]
    fn odd_cycle_is_not() {
        let g = gen::cycle(9);
        assert!(matches!(bipartition(&g, Algorithm::Bfswl, &opts()), Bipartition::OddCycle { .. }));
    }

    #[test]
    fn trees_and_grids_are_bipartite() {
        for g in [gen::binary_tree(127), gen::grid2d(7, 11), gen::star(20), gen::path(30)] {
            assert!(matches!(
                bipartition(&g, Algorithm::Bfswsl, &opts()),
                Bipartition::Bipartite { .. }
            ));
        }
    }

    #[test]
    fn triangle_plus_disjoint_edge() {
        let mut b = GraphBuilder::new(5).symmetrize(true);
        b.extend([(0, 1), (1, 2), (2, 0), (3, 4)]);
        let g = b.build();
        match bipartition(&g, Algorithm::Serial, &opts()) {
            Bipartition::OddCycle { u, v } => {
                assert!(u < 3 && v < 3, "certificate must point into the triangle");
            }
            other => panic!("triangle makes it non-bipartite, got {other:?}"),
        }
    }

    #[test]
    fn self_loop_is_an_odd_cycle() {
        let mut b = GraphBuilder::new(2).allow_self_loops(true).symmetrize(true);
        b.extend([(0, 0), (0, 1)]);
        let g = b.build();
        assert!(matches!(
            bipartition(&g, Algorithm::Serial, &opts()),
            Bipartition::OddCycle { .. }
        ));
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::from_edges(3, &[]);
        match bipartition(&g, Algorithm::Serial, &opts()) {
            Bipartition::Bipartite { side } => assert_eq!(side, vec![0, 0, 0]),
            other => panic!("edgeless graph is bipartite, got {other:?}"),
        }
    }
}
