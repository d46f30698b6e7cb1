//! Compressed-sparse-row graph storage.

use crate::{sort, VertexId};

/// A directed graph in CSR form.
///
/// `offsets` has `n + 1` entries; the out-neighbours of vertex `v` are
/// `targets[offsets[v] .. offsets[v + 1]]`. Both arrays are immutable after
/// construction, which is what lets every BFS worker traverse the structure
/// concurrently without synchronization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Box<[u64]>,
    targets: Box<[VertexId]>,
}

impl CsrGraph {
    /// Build from raw CSR arrays. Panics if the arrays are inconsistent;
    /// see [`CsrGraph::try_from_raw`] for the fallible form.
    pub fn from_raw(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        Self::try_from_raw(offsets, targets).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from raw CSR arrays, or say why they are inconsistent:
    /// `offsets` must hold `n + 1` non-decreasing entries from 0 to
    /// `targets.len()`, `n` must fit the `u32` id space, and every target
    /// must be below `n`.
    pub fn try_from_raw(offsets: Vec<u64>, targets: Vec<VertexId>) -> Result<Self, String> {
        let Some((&first, &last)) = offsets.first().zip(offsets.last()) else {
            return Err("offsets must have n+1 entries".into());
        };
        if first != 0 {
            return Err(format!("offsets must start at 0, got {first}"));
        }
        if last != targets.len() as u64 {
            return Err(format!("last offset {last} must equal the edge count {}", targets.len()));
        }
        if let Some(i) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!(
                "offsets must be non-decreasing (offset {} > offset {})",
                i,
                i + 1
            ));
        }
        let n = offsets.len() - 1;
        if n > VertexId::MAX as usize {
            return Err(format!("vertex count {n} exceeds u32 id space"));
        }
        if let Some(&t) = targets.iter().find(|&&t| (t as usize) >= n) {
            return Err(format!("edge target {t} out of range for n={n}"));
        }
        Ok(Self { offsets: offsets.into_boxed_slice(), targets: targets.into_boxed_slice() })
    }

    /// Build from an edge list by counting sort (O(n + m), stable: each
    /// source's targets keep their input order). Runs on every core for
    /// a large input; the graph does not depend on how many.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::from_edges_with(n, edges, sort::sort_threads(n, edges.len()))
    }

    /// [`Self::from_edges`] on exactly `threads` threads.
    pub(crate) fn from_edges_with(
        n: usize,
        edges: &[(VertexId, VertexId)],
        threads: usize,
    ) -> Self {
        assert!(n <= VertexId::MAX as usize, "vertex count exceeds u32 id space");
        let input = sort::EdgeList { edges, n, self_loops: true, symmetrize: false };
        let (offsets, targets) = sort::counting_sort(n, &input, threads);
        Self::from_sorted(offsets, targets)
    }

    /// Wrap CSR arrays that a counting sort produced (consistent by
    /// construction, so unchecked).
    pub(crate) fn from_sorted(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        Self { offsets: offsets.into_boxed_slice(), targets: targets.into_boxed_slice() }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Out-neighbours of `v` as a slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The raw target array (shared read-only by all BFS workers).
    #[inline]
    pub fn targets_raw(&self) -> &[VertexId] {
        &self.targets
    }

    /// The raw offset array.
    #[inline]
    pub fn offsets_raw(&self) -> &[u64] {
        &self.offsets
    }

    /// Iterate `(source, target)` over every directed edge.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// The transpose graph (all edges reversed), each in-list in
    /// ascending source order. O(n + m), on every core for a large graph.
    pub fn transpose(&self) -> CsrGraph {
        self.transpose_with(sort::sort_threads(self.num_vertices(), self.targets.len()))
    }

    /// [`Self::transpose`] on exactly `threads` threads.
    pub(crate) fn transpose_with(&self, threads: usize) -> CsrGraph {
        let (offsets, targets) =
            sort::counting_sort(self.num_vertices(), &sort::Reversed(self), threads);
        Self::from_sorted(offsets, targets)
    }

    /// Maximum out-degree and one vertex attaining it; `(0, 0)` when empty.
    pub fn max_degree(&self) -> (usize, VertexId) {
        let mut best = 0usize;
        let mut arg = 0 as VertexId;
        for v in 0..self.num_vertices() as VertexId {
            let d = self.degree(v);
            if d > best {
                best = d;
                arg = v;
            }
        }
        (best, arg)
    }

    /// Whether each adjacency list is sorted ascending (builder output is).
    pub fn is_sorted(&self) -> bool {
        (0..self.num_vertices() as VertexId)
            .all(|v| self.neighbors(v).windows(2).all(|w| w[0] <= w[1]))
    }

    /// Whether the graph equals its transpose (every edge has its
    /// reverse, with matching multiplicity). The undirected-graph
    /// analyses in `obfs-apps` require this.
    pub fn is_symmetric(&self) -> bool {
        // Compare sorted adjacency of the graph and its transpose.
        let t = self.transpose();
        (0..self.num_vertices() as VertexId).all(|v| {
            let mut a = self.neighbors(v).to_vec();
            let mut b = t.neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            a == b
        })
    }

    /// A symmetrized copy: every edge plus its reverse, deduplicated,
    /// self-loops removed.
    pub fn symmetrized(&self) -> CsrGraph {
        let mut b = crate::GraphBuilder::new(self.num_vertices()).symmetrize(true);
        b.reserve(self.targets.len());
        b.extend(self.edges());
        b.build()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn from_edges_basic() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[3]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn counting_sort_is_stable() {
        // Duplicate edges must be preserved in input order per source.
        let g = CsrGraph::from_edges(3, &[(0, 2), (0, 1), (0, 2)]);
        assert_eq!(g.neighbors(0), &[2, 1, 2]);
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::from_edges(3, &[]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.neighbors(1), &[] as &[VertexId]);
        let g0 = CsrGraph::from_edges(0, &[]);
        assert_eq!(g0.num_vertices(), 0);
    }

    #[test]
    fn transpose_involution() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn transpose_preserves_edge_count() {
        let edges = [(0, 1), (1, 0), (2, 2), (2, 0), (1, 2)];
        let g = CsrGraph::from_edges(3, &edges);
        assert_eq!(g.transpose().num_edges(), g.num_edges());
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let edges = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
        let g = CsrGraph::from_edges(4, &edges);
        let got: Vec<_> = g.edges().collect();
        assert_eq!(got, edges);
    }

    #[test]
    fn max_degree_finds_hub() {
        let g = CsrGraph::from_edges(5, &[(2, 0), (2, 1), (2, 3), (2, 4), (0, 1)]);
        assert_eq!(g.max_degree(), (4, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_raw_rejects_decreasing_offsets() {
        let _ = CsrGraph::from_raw(vec![0, 2, 1, 3], vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "edge count")]
    fn from_raw_rejects_bad_total() {
        let _ = CsrGraph::from_raw(vec![0, 1], vec![0, 0]);
    }

    #[test]
    fn try_from_raw_reports_each_inconsistency() {
        let err = |o: Vec<u64>, t: Vec<VertexId>| CsrGraph::try_from_raw(o, t).unwrap_err();
        assert!(err(vec![], vec![]).contains("n+1 entries"));
        assert!(err(vec![1, 1], vec![0]).contains("start at 0"));
        assert!(err(vec![0, 2, 1, 3], vec![0, 1, 2]).contains("non-decreasing"));
        assert!(err(vec![0, 1], vec![0, 0]).contains("edge count"));
        assert!(err(vec![0, 1, 1], vec![2]).contains("out of range"));
        assert!(CsrGraph::try_from_raw(vec![0, 1, 1], vec![1]).is_ok());
    }

    #[test]
    fn from_raw_accepts_valid() {
        let g = CsrGraph::from_raw(vec![0, 2, 2, 3], vec![1, 2, 0]);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn symmetry_check_and_symmetrize() {
        let asym = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!asym.is_symmetric());
        let sym = asym.symmetrized();
        assert!(sym.is_symmetric());
        assert_eq!(sym.neighbors(1), &[0, 2]);
        // Already-symmetric graphs are fixed points (after dedup).
        assert_eq!(sym.symmetrized(), sym);
        // Empty graph is trivially symmetric.
        assert!(CsrGraph::from_edges(2, &[]).is_symmetric());
    }

    #[test]
    fn self_loops_allowed_in_csr() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1), (1, 1)]);
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.neighbors(1), &[1]);
    }
}
