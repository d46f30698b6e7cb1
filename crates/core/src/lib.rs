//! The paper's parallel BFS algorithms.
//!
//! Two families, each in a locked and a lock-free (optimistic) variant:
//!
//! | Acronym  | Algorithm | Module |
//! |----------|-----------|--------|
//! | `sbfs`   | serial reference BFS | [`serial`] |
//! | `BFSC`   | centralized segment dispatch, global lock | [`centralized`] |
//! | `BFSCL`  | centralized, optimistic lock-free | [`centralized`] |
//! | `BFSDL`  | decentralized (j queue pools), lock-free | [`decentralized`] |
//! | `BFSW`   | randomized work-stealing, per-victim locks | [`worksteal`] |
//! | `BFSWL`  | work-stealing, optimistic lock-free | [`worksteal`] |
//! | `BFSWS`  | two-phase scale-free work-stealing, locks | [`scalefree`] |
//! | `BFSWSL` | two-phase scale-free, lock-free | [`scalefree`] |
//! | `EdgeCL` | §IV-D extension: edge-balanced optimistic dispatch | [`ext`] |
//!
//! All parallel variants share the level-synchronous driver in [`driver`]:
//! per-thread input/output queue arrays (`Qin[p]` / `Qout[p]`), a shared
//! `level[]` array written with benign races, queue swap at each level
//! barrier. The lock-free variants manipulate the shared queue cursors
//! with plain racy loads/stores ([`obfs_sync::racy`]) and recover from the
//! resulting invalid / overlapping / stale segments exactly as §IV of the
//! paper describes: sanity-check and retry for invalid segments, and a
//! zero-on-read sentinel protocol that turns overlap into bounded
//! duplicate work.
//!
//! The driver has two entry points on a caller's worker pool:
//! [`driver::try_run_on_pool`] for one source and
//! [`driver::try_run_batch_on_pool`] for a batch of them. Both return a
//! worker panic as `Err`. [`run_bfs`], [`run_batch`] and [`BfsRunner`]
//! wrap them for callers that want a panic instead.

#![warn(missing_docs)]

pub mod batch;
pub mod centralized;
pub mod decentralized;
pub mod driver;
pub mod ext;
pub mod flight;
pub mod frontier;
pub mod model;
pub mod options;
pub mod perthread;
pub mod scalefree;
pub mod scan;
pub mod serial;
pub mod state;
pub mod stats;
pub mod validate;
pub mod worker;
pub mod worksteal;

pub use batch::{BatchQueryResult, BatchResult, MAX_BATCH};
pub use flight::FlightRecording;
pub use options::{
    Algorithm, BfsOptions, CompactionPolicy, DedupMode, Direction, ForcedDirection, HybridPolicy,
    KernelChoice, ScanBackend, SegmentPolicy, WatchdogPolicy,
};
pub use stats::{LevelStats, Outcome, RunHists, RunStats, StealCounters, ThreadStats, WorkerHists};
pub use worker::Worker;

// Re-exported so engine-layer callers name the cancellation vocabulary
// through one crate.
pub use obfs_sync::{CancelCause, CancelToken, Clock, ManualClock};

use obfs_graph::CsrGraph;
use obfs_graph::VertexId;
use obfs_runtime::{LevelPool, PoolError};

/// Level value for vertices not reached from the source.
pub const UNVISITED: u32 = u32::MAX;

/// Result of one BFS run.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `levels[v]` = BFS distance from the source, [`UNVISITED`] if
    /// unreachable.
    pub levels: Vec<u32>,
    /// Parent of each vertex in some BFS tree (only when
    /// [`BfsOptions::record_parents`] is set); the source is its own
    /// parent, unreachable vertices get [`obfs_graph::INVALID_VERTEX`].
    pub parents: Option<Vec<VertexId>>,
    /// Aggregated counters and timings.
    pub stats: RunStats,
}

impl BfsResult {
    /// Number of vertices reached (including the source).
    pub fn reached(&self) -> usize {
        self.levels.iter().filter(|&&l| l != UNVISITED).count()
    }

    /// Deepest level reached.
    pub fn depth(&self) -> u32 {
        self.levels.iter().copied().filter(|&l| l != UNVISITED).max().unwrap_or(0)
    }
}

/// Run `algo` from `src`, creating a fresh worker pool of
/// `opts.threads` workers. For repeated runs (benchmarks) use
/// [`BfsRunner`] to amortize pool creation. Panics if a worker panics;
/// [`driver::try_run_on_pool`] returns the failure instead.
pub fn run_bfs(algo: Algorithm, graph: &CsrGraph, src: VertexId, opts: &BfsOptions) -> BfsResult {
    if algo == Algorithm::Serial {
        return serial::serial_bfs_with_opts(graph, src, opts);
    }
    BfsRunner::new(opts.threads).run(algo, graph, src, opts)
}

/// Run `algo` from every source in `sources` (1..=[`MAX_BATCH`]) in one
/// batched bit-parallel traversal; result `q` answers `sources[q]`.
/// Panics on a worker failure; see [`driver::try_run_batch_on_pool`].
/// Incompatible with [`DedupMode::OwnerArray`] (asserted).
pub fn run_batch(
    algo: Algorithm,
    graph: &CsrGraph,
    sources: &[VertexId],
    opts: &BfsOptions,
) -> BatchResult {
    if algo == Algorithm::Serial {
        return batch::serial_batch(graph, sources, opts);
    }
    BfsRunner::new(opts.threads).run_batch(algo, graph, None, sources, opts)
}

/// Unwrap a driver result, panicking on a worker failure.
fn expect_pool<T>(r: Result<T, PoolError>) -> T {
    r.unwrap_or_else(|e| panic!("BFS worker pool failed: {e}"))
}

/// A reusable runner owning a worker pool. Its methods panic on a worker
/// failure; the [`driver`] entry points on a caller's pool return it.
pub struct BfsRunner {
    pool: LevelPool,
}

impl BfsRunner {
    /// Create a runner with `threads` persistent workers.
    pub fn new(threads: usize) -> Self {
        Self { pool: LevelPool::new(threads) }
    }

    /// Number of workers in the owned pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Run `algo`; `opts.threads` must equal the pool size (asserted).
    pub fn run(
        &self,
        algo: Algorithm,
        graph: &CsrGraph,
        src: VertexId,
        opts: &BfsOptions,
    ) -> BfsResult {
        self.run_with_transpose(algo, graph, None, src, opts)
    }

    /// As [`BfsRunner::run`], but probing hybrid bottom-up levels
    /// through a caller-provided in-edge graph (must be
    /// `graph.transpose()`, or the graph itself for symmetric graphs) so
    /// repeated runs amortize the transpose. Ignored unless
    /// [`BfsOptions::hybrid`] is set.
    pub fn run_with_transpose<'g>(
        &self,
        algo: Algorithm,
        graph: &'g CsrGraph,
        transpose: Option<&'g CsrGraph>,
        src: VertexId,
        opts: &BfsOptions,
    ) -> BfsResult {
        expect_pool(driver::try_run_on_pool(algo, graph, src, opts, &self.pool, transpose))
    }

    /// As [`run_batch`], on the owned pool: one batched traversal
    /// answering every source in `sources` (1..=[`MAX_BATCH`]). Hybrid
    /// bottom-up levels probe `transpose` as in
    /// [`BfsRunner::run_with_transpose`]; `None` builds it per call.
    pub fn run_batch<'g>(
        &self,
        algo: Algorithm,
        graph: &'g CsrGraph,
        transpose: Option<&'g CsrGraph>,
        sources: &[VertexId],
        opts: &BfsOptions,
    ) -> BatchResult {
        expect_pool(driver::try_run_batch_on_pool(
            algo, graph, sources, opts, &self.pool, transpose,
        ))
    }
}
