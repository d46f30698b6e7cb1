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
//! * **Membership words** (`visited_by[v]`) are OR-updated by top-down
//!   levels with `load; store(old | bits)` — no `fetch_or`. A racing OR
//!   can *lose* bits, so through top-down levels the word is treated
//!   strictly as an **under-approximation** used to skip work: every bit
//!   a top-down worker acts on is revalidated against the per-query level
//!   slot before claiming. A lost OR merely means a later worker
//!   re-checks and re-claims the same (vertex, query) with the same
//!   value. At every level barrier the invariant
//!   `visited_by[v] ⊆ {q : levels[v*k+q] != UNVISITED}` holds, because a
//!   worker ORs a bit only after (in its program order) the bit's level
//!   slot was claimed by someone, and barriers quiesce store buffers.
//! * **Bottom-up levels** (hybrid runs) partition the vertices
//!   statically, so each vertex's level row, membership word and
//!   frontier words have exactly one writer. The refill before the first
//!   bottom-up level after a top-down or degraded one re-derives every
//!   membership word exactly from its level row, and a bottom-up level
//!   keeps it exact: a missing bit is then an unclaimed slot, and a
//!   bottom-up claim is a plain single-writer store with no revalidation.
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
//! machinery is reused unchanged. Batch mode swaps in its own kernels:
//! the per-vertex discovery behind
//! [`crate::state::RunState::explore_vertex`] for top-down levels, and
//! a bottom-up kernel and refill over per-vertex words.

use crate::perthread::PerThread;
use crate::stats::RunStats;
use crate::{BfsResult, UNVISITED};
use obfs_graph::{CsrGraph, VertexId};
use obfs_runtime::{LevelPool, PoolError};
use obfs_sync::{RacyBuf, RacyBuf64};
use std::mem::MaybeUninit;

/// Maximum number of sources per batched run (bits in the membership word).
pub const MAX_BATCH: usize = 64;

/// Shared batch-mode state hanging off [`crate::state::RunState`].
///
/// A pool keeps it between batched runs (`crate::state::RunBuffers`):
/// when it fits the next batch (`BatchState::fits`), `set_sources` arms
/// it for that batch's sources. `init_chunk` clears every slot a run
/// reads and a bottom-up level's `front_by` words are written before it
/// starts, so recycled arrays need no reset.
pub struct BatchState {
    /// Batch size (1..=64).
    pub k: usize,
    /// The query sources, in result order. Duplicates allowed.
    pub sources: Vec<VertexId>,
    /// `k` low bits set: the full-batch membership mask.
    pub mask: u64,
    /// Per-query level slots, row-major by vertex: `levels[v*k + q]`.
    /// Claimed with idempotent racy stores (same value within a level).
    /// Recycled arrays may hold more than `n × k` slots; a run uses the
    /// first `n × k`.
    pub levels: RacyBuf,
    /// Per-query parents, same layout (arbitrary concurrent write; any
    /// surviving value is a valid one-level-shallower BFS parent).
    pub parents: Option<RacyBuf>,
    /// Membership words: bit `q` set once query `q` claimed the vertex.
    /// Racy OR-updates make it an under-approximation through top-down
    /// levels; the bottom-up refill re-derives it exactly from the level
    /// row, and bottom-up levels keep it exact (see module docs).
    pub visited_by: RacyBuf64,
    /// Level at which the vertex was last pushed to an output queue
    /// (`UNVISITED` = never). The batch push-dedup word.
    pub pushed_at: RacyBuf,
    /// Bottom-up frontier words by level parity: bit `q` of
    /// `front_by[l & 1][v]` is set iff `v` is on query `q`'s level-`l`
    /// frontier. Bottom-up level `l` reads `front_by[l & 1]` and writes
    /// `front_by[(l + 1) & 1]`; a bottom-up level after a top-down or
    /// degraded one rebuilds its words from the level rows first.
    /// Single-writer per word (vertex-partitioned), allocated only for
    /// hybrid runs.
    pub front_by: Option<[RacyBuf64; 2]>,
}

impl BatchState {
    /// Allocate batch state for `sources` over an `n`-vertex graph.
    pub fn new(n: usize, sources: &[VertexId], record_parents: bool, hybrid: bool) -> Self {
        let k = sources.len();
        let mut b = Self {
            k: 0,
            sources: Vec::new(),
            mask: 0,
            levels: RacyBuf::new(n * k),
            parents: record_parents.then(|| RacyBuf::new(n * k)),
            visited_by: RacyBuf64::new(n),
            pushed_at: RacyBuf::new(n),
            front_by: hybrid.then(|| [RacyBuf64::new(n), RacyBuf64::new(n)]),
        };
        b.set_sources(sources);
        b
    }

    /// Whether a batch of `k` queries over `n` vertices can run on these
    /// arrays: the same vertex count, parents and hybrid words exactly
    /// when asked for, and at least `n × k` level slots.
    pub(crate) fn fits(&self, n: usize, k: usize, record_parents: bool, hybrid: bool) -> bool {
        self.visited_by.len() == n
            && self.levels.len() >= n * k
            && self.parents.is_some() == record_parents
            && self.front_by.is_some() == hybrid
    }

    /// Arm the arrays for a batch over `sources` (1..=64 of them,
    /// duplicates allowed): set `k`, `sources` and `mask`.
    pub(crate) fn set_sources(&mut self, sources: &[VertexId]) {
        let n = self.visited_by.len();
        let k = sources.len();
        check_batch_size(k);
        assert!(self.levels.len() >= n * k, "batch arrays hold fewer than {k} queries");
        for &s in sources {
            assert!((s as usize) < n, "batch source {s} out of range (n = {n})");
        }
        self.k = k;
        self.mask = if k == MAX_BATCH { u64::MAX } else { (1u64 << k) - 1 };
        self.sources.clear();
        self.sources.extend_from_slice(sources);
    }
}

fn check_batch_size(k: usize) {
    assert!((1..=MAX_BATCH).contains(&k), "batch size must be 1..={MAX_BATCH}, got {k}");
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
    /// label arrays instead of cloning them (the serving layer wraps each
    /// column once and shares it among the queries on that source, so a
    /// copy would be pure overhead at n × k scale).
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

/// Vertices per gather tile. A tile's row-major block of
/// `GATHER_TILE × k` slots (16 KiB at k = 64) stays in L1 while the
/// tile's run of each of the k columns is written.
const GATHER_TILE: usize = 64;

// lint:region control:batch-extract
/// Gather a finished run's row-major n×k level (and parent) matrix into
/// k per-query columns, as one phase on `pool`.
///
/// A transpose column by column would make k strided passes over the
/// whole matrix. Instead each worker owns one range of whole tiles of
/// vertices and, tile by tile, copies the tile's rows into its run of
/// each column, so every column slot is written exactly once, by one
/// worker, straight into the column's uninitialized capacity: no zero
/// fill, and nothing runs on the calling thread. Installs no worker
/// hook. An `Err` (a worker panicked) drops the unfinished columns.
pub(crate) fn gather_on_pool(
    b: &BatchState,
    n: usize,
    pool: &LevelPool,
) -> Result<Vec<BatchQueryResult>, PoolError> {
    let k = b.k;
    let threads = pool.threads();
    let per = obfs_util::div_ceil(obfs_util::div_ceil(n, threads), GATHER_TILE) * GATHER_TILE;
    let columns = || (0..k).map(|_| Vec::with_capacity(n)).collect::<Vec<_>>();
    let mut levels: Vec<Vec<u32>> = columns();
    let mut parents: Option<Vec<Vec<VertexId>>> = b.parents.as_ref().map(|_| columns());
    // Worker t's share: its vertex range of the k level columns, then
    // of the k parent columns (empty when its range starts past n).
    let mut shares = PerThread::new(threads, |_| Vec::new());
    for col in levels.iter_mut().chain(parents.iter_mut().flatten()) {
        for (share, part) in shares.iter_mut().zip(col.spare_capacity_mut()[..n].chunks_mut(per)) {
            share.push(part);
        }
    }
    pool.run(|ctx| {
        let tid = ctx.tid();
        // SAFETY: own slot only; no other worker touches share `tid`.
        let share = unsafe { shares.get_mut(tid) };
        let split = k.min(share.len());
        let (level_cols, parent_cols) = share.split_at_mut(split);
        copy_tiles(&b.levels, k, tid * per, level_cols);
        if let Some(p) = &b.parents {
            copy_tiles(p, k, tid * per, parent_cols);
        }
    })?;
    drop(shares);
    for col in levels.iter_mut().chain(parents.iter_mut().flatten()) {
        // SAFETY: the shares tile `0..n` of every column, and the phase
        // returned Ok, so every worker wrote each slot of its share.
        unsafe { col.set_len(n) };
    }
    let mut parents = parents.map(Vec::into_iter);
    Ok(levels
        .into_iter()
        .zip(&b.sources)
        .map(|(lv, &source)| BatchQueryResult {
            source,
            levels: lv,
            parents: parents.as_mut().map(|it| it.next().expect("k parent columns")),
        })
        .collect())
}

/// Copy rows `lo..lo + len` of the row-major `k`-wide matrix `src` into
/// `cols` (column `q` of row `lo + i` into `cols[q][i]`), one tile of
/// rows at a time.
fn copy_tiles(src: &RacyBuf, k: usize, lo: usize, cols: &mut [&mut [MaybeUninit<u32>]]) {
    let len = cols.first().map_or(0, |c| c.len());
    for t in (0..len).step_by(GATHER_TILE) {
        let end = (t + GATHER_TILE).min(len);
        let block = src.row((lo + t) * k, (end - t) * k);
        for (q, col) in cols.iter_mut().enumerate() {
            for (out, slot) in col[t..end].iter_mut().zip(block[q..].iter().step_by(k)) {
                out.write(slot.load());
            }
        }
    }
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
    check_batch_size(k);
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

    /// The pool gather equals a per-slot read of the row-major arrays,
    /// also from recycled arrays sized for a larger batch: `n` a multiple
    /// of neither the tile nor the thread count (and smaller than both),
    /// k ∈ {1, 7, 64}, 1 and 3 workers, parents on and off.
    #[test]
    fn pool_gather_equals_per_slot_reads() {
        for threads in [1, 3] {
            let pool = LevelPool::new(threads);
            for n in [1, 2, 200, 1000] {
                for k in [1, 7, 64] {
                    for record_parents in [false, true] {
                        let sources: Vec<VertexId> = (0..k).map(|q| (q * 5 % n) as u32).collect();
                        let mut b = BatchState::new(n, &[0; MAX_BATCH], record_parents, false);
                        b.set_sources(&sources);
                        for i in 0..n * MAX_BATCH {
                            b.levels.set(i, (i as u32).wrapping_mul(2_654_435_761));
                            if let Some(p) = &b.parents {
                                p.set(i, !(i as u32));
                            }
                        }
                        let got = gather_on_pool(&b, n, &pool).unwrap();
                        let tag = format!("threads {threads} n {n} k {k} parents {record_parents}");
                        assert_eq!(got.len(), k, "{tag}");
                        for (q, col) in got.iter().enumerate() {
                            assert_eq!(col.source, sources[q], "{tag}");
                            let want: Vec<u32> = (0..n).map(|v| b.levels.get(v * k + q)).collect();
                            assert_eq!(col.levels, want, "{tag} query {q} levels");
                            let want = b.parents.as_ref().map(|p| {
                                (0..n).map(|v| p.get(v * k + q)).collect::<Vec<VertexId>>()
                            });
                            assert_eq!(col.parents, want, "{tag} query {q} parents");
                        }
                    }
                }
            }
        }
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

    #[test]
    #[should_panic(expected = "fewer than 2 queries")]
    fn arming_more_queries_than_the_arrays_hold_rejected() {
        let mut b = BatchState::new(4, &[0], false, false);
        assert!(!b.fits(4, 2, false, false));
        b.set_sources(&[0, 1]);
    }
}
