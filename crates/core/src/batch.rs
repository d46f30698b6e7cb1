//! Batched bit-parallel multi-source BFS.
//!
//! One traversal answers up to [`MAX_BATCH`] = 64 source queries at once:
//! every vertex carries a `u64` *membership word* (`visited_by[v]`, bit
//! `q` set once query `q` has claimed `v`) plus a row of `k` per-query
//! level slots. The frontier of a level is the **union** of the per-query
//! frontiers, so dense traffic amortizes one pass over the CSR arrays
//! across the whole batch instead of queueing 64 passes.
//!
//! # Memory-model argument (the paper's §IV, verbatim on words)
//!
//! All batch state is written with plain racy stores, exactly like the
//! single-source `level[]` array:
//!
//! * **Per-query level slots** (`levels[v*k + q]`) are claimed with a
//!   check-then-store. Within one level every claimant writes the *same
//!   value* (`level + 1`), so racing duplicate claims are idempotent —
//!   the identical benign race as the paper's level writes. Slots for a
//!   popped frontier vertex are only read after the level barrier that
//!   published them, so frontier-bit derivation never sees a torn or
//!   in-flight row.
//! * **Membership words** (`visited_by[v]`) are OR-updated with
//!   `load; store(old | bits)` — no `fetch_or`. A racing OR can *lose*
//!   bits, so the word is treated strictly as an **under-approximation**
//!   used to skip work: every bit a worker acts on is revalidated
//!   against the per-query level slot before claiming. A lost OR merely
//!   means a later worker re-checks and re-claims the same (vertex,
//!   query) with the same value. At every level barrier the invariant
//!   `visited_by[v] ⊆ {q : levels[v*k+q] != UNVISITED}` holds, because a
//!   worker ORs a bit only after (in its program order) the bit's level
//!   slot was claimed by someone, and barriers quiesce store buffers.
//! * **Push dedup** (`pushed_at[v]`) stores the level at which `v` was
//!   last enqueued. A worker pushes `v` for level `l+1` only when it
//!   reads `pushed_at[v] != l+1` — stale reads cause bounded duplicate
//!   pushes (at most one per worker per level, so per-worker pushes stay
//!   within the `n`-slot queue capacity), never lost work: claims by
//!   late workers ride the earlier push, because frontier bits are
//!   re-derived from the level rows at pop time. Because the sentinel is
//!   the *level value* rather than a flag, nothing ever needs resetting —
//!   which is what keeps bottom-up levels and the watchdog's serial
//!   sweep correct without extra bookkeeping.
//!
//! The existing segment-fetch, work-steal, watchdog and cancellation
//! machinery is reused unchanged: batch mode only swaps the per-vertex
//! discovery kernel behind [`crate::state::RunState::explore_vertex`].

use crate::stats::RunStats;
use crate::{BfsResult, UNVISITED};
use obfs_graph::{CsrGraph, VertexId};
use obfs_sync::{RacyBuf, RacyBuf64};

/// Maximum number of sources per batched run (bits in the membership word).
pub const MAX_BATCH: usize = 64;

/// Shared batch-mode state hanging off [`crate::state::RunState`].
pub struct BatchState {
    /// Batch size (1..=64).
    pub k: usize,
    /// The query sources, in result order. Duplicates allowed.
    pub sources: Vec<VertexId>,
    /// `k` low bits set: the full-batch membership mask.
    pub mask: u64,
    /// Per-query level slots, row-major by vertex: `levels[v*k + q]`.
    /// Claimed with idempotent racy stores (same value within a level).
    pub levels: RacyBuf,
    /// Per-query parents, same layout (arbitrary concurrent write; any
    /// surviving value is a valid one-level-shallower BFS parent).
    pub parents: Option<RacyBuf>,
    /// Membership words: bit `q` set once query `q` claimed the vertex.
    /// Racy OR-updates; strictly an under-approximation (see module docs).
    pub visited_by: RacyBuf64,
    /// Level at which the vertex was last pushed to an output queue
    /// (`UNVISITED` = never). The batch push-dedup word.
    pub pushed_at: RacyBuf,
    /// Bottom-up frontier words, rebuilt per bottom-up level: bit `q` set
    /// iff the vertex is on query `q`'s current frontier. Single-writer
    /// per word (vertex-partitioned), allocated only for hybrid runs.
    pub front_by: Option<RacyBuf64>,
}

impl BatchState {
    /// Allocate batch state for `sources` over an `n`-vertex graph.
    pub fn new(n: usize, sources: &[VertexId], record_parents: bool, hybrid: bool) -> Self {
        let k = sources.len();
        assert!(
            (1..=MAX_BATCH).contains(&k),
            "batch size must be 1..={MAX_BATCH}, got {k}"
        );
        for &s in sources {
            assert!((s as usize) < n, "batch source {s} out of range (n = {n})");
        }
        let mask = if k == MAX_BATCH { u64::MAX } else { (1u64 << k) - 1 };
        Self {
            k,
            sources: sources.to_vec(),
            mask,
            levels: RacyBuf::new(n * k),
            parents: record_parents.then(|| RacyBuf::new(n * k)),
            visited_by: RacyBuf64::new(n),
            pushed_at: RacyBuf::new(n),
            front_by: hybrid.then(|| RacyBuf64::new(n)),
        }
    }
}

/// One query's slice of a [`BatchResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchQueryResult {
    /// The query's source vertex.
    pub source: VertexId,
    /// `levels[v]` = BFS distance from `source`, or [`UNVISITED`].
    pub levels: Vec<u32>,
    /// BFS-tree parents when requested ([`obfs_graph::INVALID_VERTEX`] =
    /// none).
    pub parents: Option<Vec<VertexId>>,
}

impl BatchQueryResult {
    /// Number of vertices this query reached.
    pub fn reached(&self) -> usize {
        self.levels.iter().filter(|&&l| l != UNVISITED).count()
    }

    /// View this query as a standalone [`BfsResult`] (cloning the label
    /// arrays and the shared run stats), so the single-source validators
    /// — `check_levels`, `check_self_consistent`, `check_partial` — apply
    /// per query.
    pub fn as_bfs_result(&self, stats: &RunStats) -> BfsResult {
        BfsResult {
            levels: self.levels.clone(),
            parents: self.parents.clone(),
            stats: stats.clone(),
        }
    }

    /// Like [`BatchQueryResult::as_bfs_result`] but consuming: moves the
    /// label arrays instead of cloning them (the serving layer hands
    /// each coalesced query exactly one response, so the copy would be
    /// pure overhead at n × k scale).
    pub fn into_bfs_result(self, stats: &RunStats) -> BfsResult {
        BfsResult { levels: self.levels, parents: self.parents, stats: stats.clone() }
    }
}

/// Result of one batched multi-source run.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-query results, in the order the sources were given.
    pub queries: Vec<BatchQueryResult>,
    /// Stats of the one shared traversal (levels = union-frontier levels
    /// executed; on cancellation the per-query partial-state contract of
    /// `check_partial` holds for every query individually).
    pub stats: RunStats,
}

impl BatchResult {
    /// Batch size.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the batch is empty (never produced by `run_batch`).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

// lint:region control:batch-extract
/// Extract per-query results from a finished run's batch state.
pub(crate) fn extract_results(b: &BatchState, n: usize) -> Vec<BatchQueryResult> {
    // Row-major gather: one sequential pass over the packed label
    // arrays, scattering each vertex row into the k per-query columns.
    // The k destination cursors all advance sequentially, so the
    // transpose costs k + 1 streaming accesses — doing it column-wise
    // instead (k strided passes over the whole n×k array) is what the
    // naive per-query `collect` loop amounts to, and it dominated the
    // whole batched traversal on graphs past the cache sizes.
    let k = b.k;
    let mut levels: Vec<Vec<u32>> = (0..k).map(|_| Vec::with_capacity(n)).collect();
    let mut parents: Option<Vec<Vec<VertexId>>> =
        b.parents.as_ref().map(|_| (0..k).map(|_| Vec::with_capacity(n)).collect());
    for v in 0..n {
        let base = v * k;
        for (q, col) in levels.iter_mut().enumerate() {
            col.push(b.levels.get(base + q));
        }
        if let (Some(cols), Some(p)) = (parents.as_mut(), b.parents.as_ref()) {
            for (q, col) in cols.iter_mut().enumerate() {
                col.push(p.get(base + q));
            }
        }
    }
    let mut parents = parents.map(Vec::into_iter);
    levels
        .into_iter()
        .enumerate()
        .map(|(q, lv)| BatchQueryResult {
            source: b.sources[q],
            levels: lv,
            parents: parents.as_mut().map(|it| it.next().expect("k parent columns")),
        })
        .collect()
}
// lint:endregion

/// Run the batch serially: one [`crate::serial_bfs_with_opts`] pass per
/// query, stats merged. The ground-truth shape for the differential
/// matrix, and the `Algorithm::Serial` batch entry.
pub(crate) fn serial_batch(
    graph: &CsrGraph,
    sources: &[VertexId],
    opts: &crate::BfsOptions,
) -> BatchResult {
    let k = sources.len();
    assert!(
        (1..=MAX_BATCH).contains(&k),
        "batch size must be 1..={MAX_BATCH}, got {k}"
    );
    let mut queries = Vec::with_capacity(k);
    let mut stats: Option<RunStats> = None;
    for &s in sources {
        let r = crate::serial::serial_bfs_with_opts(graph, s, opts);
        queries.push(BatchQueryResult { source: s, levels: r.levels, parents: r.parents });
        stats = Some(match stats.take() {
            None => r.stats,
            Some(mut acc) => {
                acc.levels = acc.levels.max(r.stats.levels);
                acc.traversal_time += r.stats.traversal_time;
                acc.totals.merge(&r.stats.totals);
                acc
            }
        });
    }
    BatchResult { queries, stats: stats.expect("batch is non-empty") }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_covers_exactly_k_bits() {
        let b = BatchState::new(8, &[0, 1, 2], false, false);
        assert_eq!(b.mask, 0b111);
        assert_eq!(b.levels.len(), 24);
        assert!(b.parents.is_none());
        let full: Vec<VertexId> = (0..64).map(|i| i % 8).collect();
        let b = BatchState::new(8, &full, true, true);
        assert_eq!(b.mask, u64::MAX);
        assert!(b.front_by.is_some());
        assert_eq!(b.parents.as_ref().unwrap().len(), 8 * 64);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn oversized_batch_rejected() {
        let src: Vec<VertexId> = vec![0; 65];
        let _ = BatchState::new(4, &src, false, false);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_rejected() {
        let _ = BatchState::new(4, &[9], false, false);
    }
}
