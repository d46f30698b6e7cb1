//! Edge-list accumulation and normalization into [`CsrGraph`].

use crate::{sort, CsrGraph, VertexId};

/// Accumulates edges, applies normalization passes, and finalizes to CSR.
///
/// The generators emit raw edge streams (RMAT in particular produces many
/// duplicates and self-loops); the builder centralizes the clean-up so
/// every generator and loader produces graphs with the same guarantees.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
    allow_self_loops: bool,
    dedup: bool,
    symmetrize: bool,
}

impl GraphBuilder {
    /// Builder for a graph on `n` vertices. Defaults: self-loops removed,
    /// duplicates removed, directed (no symmetrization).
    pub fn new(n: usize) -> Self {
        assert!(n <= VertexId::MAX as usize, "vertex count exceeds u32 id space");
        Self { n, edges: Vec::new(), allow_self_loops: false, dedup: true, symmetrize: false }
    }

    /// Keep self-loops instead of dropping them.
    pub fn allow_self_loops(mut self, yes: bool) -> Self {
        self.allow_self_loops = yes;
        self
    }

    /// Keep duplicate edges instead of deduplicating.
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Add the reverse of every edge (makes the graph undirected).
    pub fn symmetrize(mut self, yes: bool) -> Self {
        self.symmetrize = yes;
        self
    }

    /// A builder on `n` vertices that takes `edges` as its raw edge list,
    /// without a copy.
    pub(crate) fn with_edges(n: usize, edges: Vec<(VertexId, VertexId)>) -> Self {
        Self { edges, ..Self::new(n) }
    }

    /// Pre-allocate for `m` edges.
    pub fn reserve(&mut self, m: usize) {
        self.edges.reserve(m);
    }

    /// Add one directed edge. Panics on out-of-range endpoints.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        debug_assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.edges.push((u, v));
    }

    /// Add many edges.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) {
        self.edges.extend(edges);
    }

    /// Number of raw (pre-normalization) edges added so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Apply the configured passes and produce the CSR graph with sorted
    /// adjacency lists: one parallel counting sort by source (dropping
    /// self-loops and adding reverses on the way), then each list sorted
    /// and deduped in place. The graph does not depend on the thread
    /// count, which follows from the input.
    pub fn build(self) -> CsrGraph {
        let threads = sort::sort_threads(self.n, self.edges.len());
        self.build_with(threads)
    }

    /// [`Self::build`] on exactly `threads` threads.
    pub(crate) fn build_with(self, threads: usize) -> CsrGraph {
        let Self { n, edges, allow_self_loops, dedup, symmetrize } = self;
        let input = sort::EdgeList { edges: &edges, n, self_loops: allow_self_loops, symmetrize };
        let (mut offsets, mut targets) = sort::counting_sort(n, &input, threads);
        drop(edges);
        sort::sort_lists(&mut offsets, &mut targets, dedup, threads);
        CsrGraph::from_sorted(offsets, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal_by_default() {
        let mut b = GraphBuilder::new(3);
        b.extend([(0, 1), (0, 1), (1, 1), (1, 2)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[2]);
    }

    #[test]
    fn keep_self_loops_and_duplicates_when_asked() {
        let mut b = GraphBuilder::new(2).allow_self_loops(true).dedup(false);
        b.extend([(0, 0), (0, 1), (0, 1)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[0, 1, 1]);
    }

    #[test]
    fn symmetrize_adds_reverse_edges() {
        let mut b = GraphBuilder::new(3).symmetrize(true);
        b.extend([(0, 1), (1, 2)]);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn symmetrize_dedups_bidirectional_input() {
        let mut b = GraphBuilder::new(2).symmetrize(true);
        b.extend([(0, 1), (1, 0)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 2, "0<->1 must appear once per direction");
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let mut b = GraphBuilder::new(5).dedup(false);
        b.extend([(0, 4), (0, 1), (0, 3), (0, 2)]);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert!(g.is_sorted());
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn raw_edge_count_tracks_additions() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.raw_edge_count(), 0);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        assert_eq!(b.raw_edge_count(), 2);
    }
}
