//! Shared run state and the discovery fast path common to every parallel
//! BFS variant.

// lint:protocol racy — optimistic discovery: plain loads may be stale, so
// every claim below must revalidate or carry a single-writer waiver.

use crate::batch::BatchState;
use crate::frontier::{
    decode, FrontierBitmap, FrontierQueue, QueueSet, SegmentDesc, BITMAP_WORD_BITS, EMPTY_SLOT,
};
use crate::options::{BfsOptions, DedupMode, Direction};
use crate::perthread::PerThread;
use crate::stats::{LevelStats, ThreadStats};
use crate::UNVISITED;
use obfs_graph::{CsrGraph, VertexId, INVALID_VERTEX};
use obfs_runtime::LevelPool;
use obfs_sync::{CachePadded, CancelCause, RacyBuf, RacyUsize, SpinLock};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// A cell written only inside barrier serial sections (exactly one thread,
/// all others parked at the barrier) and read only between barriers.
///
/// The barrier's release/acquire edges order the accesses, so the data
/// race the type system fears cannot occur — but that protocol cannot be
/// expressed in safe Rust, hence the unsafe accessors.
pub struct SerialCell<T>(UnsafeCell<T>);

// SAFETY: see type-level docs; the barrier protocol serializes access.
unsafe impl<T: Send> Sync for SerialCell<T> {}

impl<T> SerialCell<T> {
    /// Wrap a value.
    pub fn new(v: T) -> Self {
        Self(UnsafeCell::new(v))
    }

    /// # Safety
    /// Call only from a barrier serial section (no concurrent access).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self) -> &mut T {
        &mut *self.0.get()
    }

    /// # Safety
    /// Call only while no serial section can be mutating the cell.
    pub unsafe fn get(&self) -> &T {
        &*self.0.get()
    }

    /// Consume into the inner value (requires ownership, so no
    /// concurrent access can exist).
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

/// The run's level log: one [`LevelStats`] per executed level, appended
/// by the barrier leader on every run. `RunStats`' direction, compaction
/// and degradation figures are read off it after the run.
#[derive(Debug)]
pub(crate) struct LevelLog {
    /// Closed levels, in order.
    pub(crate) entries: Vec<LevelStats>,
    /// Start instant of the level in progress.
    pub(crate) mark: std::time::Instant,
    /// Frontier size entering the level in progress.
    pub(crate) frontier_in: usize,
    /// Merged cumulative counters at the previous level boundary; the
    /// per-level delta is the difference against this snapshot.
    pub(crate) prev_totals: ThreadStats,
}

/// The leader's decisions for the upcoming level, written in the barrier
/// serial section that ends the previous level (or seeds level 0) and
/// read by every worker between barriers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelPlan {
    /// The run ends at this boundary: the frontier is empty or the run
    /// was cancelled, so no further level executes.
    pub(crate) stop: bool,
    /// Direction of the level; always top-down without
    /// [`BfsOptions::hybrid`].
    pub(crate) direction: Direction,
    /// Whether the (top-down) level consumes a prefix-sum-compacted
    /// frontier; always `false` without [`BfsOptions::compaction`].
    pub(crate) compacted: bool,
}

/// The in-edge graph a hybrid run probes during bottom-up levels: either
/// borrowed from the caller (benchmarks amortize the transpose across
/// runs) or built once per run before the timed traversal starts.
pub enum TransposeRef<'g> {
    /// Caller-provided transpose (`graph.transpose()`, or the graph
    /// itself for symmetric graphs).
    Borrowed(&'g CsrGraph),
    /// Transpose computed for this run (the caller gave none).
    Owned(Box<CsrGraph>),
}

impl TransposeRef<'_> {
    /// The in-edge graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        match self {
            TransposeRef::Borrowed(g) => g,
            TransposeRef::Owned(g) => g,
        }
    }
}

/// Leader-side bookkeeping for the hybrid α/β switch heuristic, written
/// only in barrier serial sections.
#[derive(Debug)]
pub struct HybridCtl {
    /// Edge volume not yet claimed by any discovered frontier (`mu`).
    /// `frontier_edges` counts every push, duplicates included, so `mu`
    /// is an under-estimate that can saturate at 0 before the traversal
    /// ends (RMAT-20 tails do). `mf > mu/α` then fires on any frontier;
    /// [`crate::HybridPolicy::decide`] still needs a growing frontier of
    /// at least `n/β` edges to go bottom-up, so a zero `mu` cannot make
    /// a shrinking tail thrash.
    pub unexplored_edges: u64,
    /// Edge volume of the frontier the level just finished consumed
    /// (`prev_mf` of [`crate::HybridPolicy::decide`]): 0 before level 0,
    /// the seed degree sum after it.
    pub prev_mf: u64,
}

/// Everything the hybrid mode adds to a run: the in-edge graph, the
/// frontier bitmap for bottom-up levels, and the leader's heuristic
/// state. Present iff [`BfsOptions::hybrid`] is set.
pub struct HybridState<'g> {
    /// In-edge graph probed by the bottom-up kernel.
    pub transpose: TransposeRef<'g>,
    /// Frontier-membership bitmap, rebuilt per bottom-up level.
    pub bitmap: FrontierBitmap,
    /// Visited-vertex bitmap rebuilt alongside `bitmap`: bit `v` set iff
    /// `level[v] != UNVISITED` (out-of-range tail bits are pre-set so a
    /// wordwise candidate scan of `!word` is automatically masked). Only
    /// the word-at-a-time bottom-up kernel reads it.
    pub visited: FrontierBitmap,
    /// Heuristic bookkeeping (leader-only).
    pub ctl: SerialCell<HybridCtl>,
}

/// Everything the prefix-sum compaction mode adds to a run (see
/// [`crate::scan`]). Present iff [`BfsOptions::compaction`] is set;
/// never armed for batched runs.
pub struct CompactState {
    /// Frontier-membership bitmap rebuilt per compacted level from the
    /// `level[]` array (word-partitioned by chunk: single writer).
    pub bitmap: FrontierBitmap,
    /// Per-chunk popcounts ([`crate::scan::COMPACT_CHUNK_WORDS`] bitmap
    /// words per chunk); each chunk's owner is its only writer.
    pub chunk_counts: RacyBuf,
    /// Per-thread block totals (sum of the thread's chunk counts),
    /// published at the fill barrier; own-slot single-writer.
    pub block_totals: RacyBuf,
    /// The materialized frontier array: vertices of the level, ascending
    /// within each chunk, chunks in order. Each worker writes only the
    /// disjoint range `[block_prefix(tid), block_prefix(tid) + total)`.
    pub frontier: RacyBuf,
}

/// Cursor state of the lock-based centralized dispatcher (BFSC): the
/// `⟨q, f⟩` pair of the paper, protected by one global lock.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralCursor {
    /// Current queue index.
    pub q: usize,
    /// Front offset within that queue.
    pub f: usize,
}

/// Everything the workers share during one BFS run.
pub struct RunState<'g> {
    /// The (immutable) graph being traversed.
    pub graph: &'g CsrGraph,
    /// `level[v]`; written with benign races (same value within a level).
    pub levels: RacyBuf,
    /// Optional BFS-tree parents (arbitrary concurrent write).
    pub parents: Option<RacyBuf>,
    /// §IV-D owner array: queue id + 1 of the queue a vertex was pushed
    /// to (arbitrary concurrent write), 0 = unset.
    pub owner: Option<RacyBuf>,
    /// The two queue sets; `queues[parity]` is Qin, `queues[parity^1]` Qout.
    pub queues: [QueueSet; 2],
    /// Work-stealing per-thread segment descriptors.
    pub descs: Vec<CachePadded<SegmentDesc>>,
    /// Per-victim locks for the lock-based work-stealing variants.
    pub desc_locks: Vec<CachePadded<SpinLock<()>>>,
    /// Global lock + cursor for BFSC.
    pub central_lock: SpinLock<CentralCursor>,
    /// Global racy queue pointer for BFSCL, and one per pool for BFSDL
    /// (BFSCL uses `pool_cursors[0]`).
    pub pool_cursors: Vec<CachePadded<RacyUsize>>,
    /// Racy global edge cursor (EdgeCL dispatch and the phase-2-steal
    /// hub exploration).
    pub edge_cursor: CachePadded<RacyUsize>,
    /// Per-thread hub lists for the scale-free variants.
    pub hubs: PerThread<Vec<VertexId>>,
    /// Leader-built flattened work lists (hub phase / EdgeCL): vertices
    /// and the exclusive prefix sums of their degrees.
    pub flat_vertices: SerialCell<Vec<VertexId>>,
    /// Exclusive degree prefix sums over `flat_vertices` (one extra
    /// trailing total).
    pub flat_prefix: SerialCell<Vec<u64>>,
    /// The leader's level log.
    pub(crate) log: SerialCell<LevelLog>,
    /// The leader's plan for the upcoming/current level.
    pub(crate) plan: SerialCell<LevelPlan>,
    /// Direction-optimizing hybrid state; `None` unless
    /// [`BfsOptions::hybrid`] is set.
    pub hyb: Option<HybridState<'g>>,
    /// Prefix-sum compaction state; `None` unless
    /// [`BfsOptions::compaction`] is set (and always `None` for batched
    /// runs).
    pub compact: Option<CompactState>,
    /// The scan-kernel backend this run resolved ([`BfsOptions::kernel`];
    /// probed once per process for the default `Auto`).
    pub scan_backend: crate::dispatch::ScanBackend,
    /// Batched multi-source state; `Some` only for runs entered through
    /// the batch driver. When set, the single-source `levels` / `parents`
    /// / `owner` arrays above are empty and every discovery flows through
    /// the bit-parallel kernel in [`RunState::try_discover_batch`].
    pub batch: Option<BatchState>,
    /// Batch mode only: the single-source arrays of a recycled
    /// [`RunBuffers`] set, held unused so the set returns whole.
    idle: Option<LabelBuffers>,
    /// Cached `opts.hybrid.is_some()` so the `frontier_edges` accounting
    /// in [`RunState::try_discover`] is one predictable branch (and the
    /// paper's top-down hot path pays nothing when hybrid is off).
    count_frontier_edges: bool,
    /// Watchdog/cancel trip flag. Deliberately a *real* atomic: the
    /// watchdog is control plane, not part of the paper's
    /// optimistically-racy state, so it must stay reliable even under
    /// fault injection. Also latched when the run's cancel token fires,
    /// so peers stop on the cached flag instead of re-polling the token.
    pub wd_abort: AtomicBool,
    /// Deadline of the level in progress in [`obfs_sync::Clock`] ticks
    /// (leader-written in each barrier serial section when a watchdog
    /// deadline is configured).
    pub wd_deadline: SerialCell<Option<u64>>,
    /// Run-abort decision: the barrier leader publishes the cancel cause
    /// here in the level-end serial section; workers read it after the
    /// barrier and exit the level loop together (keeping the barrier
    /// counts aligned — a worker must never decide to leave on its own
    /// view of the token).
    pub run_abort: SerialCell<Option<CancelCause>>,
    /// Cached `opts.watchdog.is_some() || opts.cancel.is_some()` so the
    /// hot-path poll is one branch.
    abort_armed: bool,
    /// Worker count (`opts.threads`, validated).
    pub threads: usize,
    /// Resolved hub-degree threshold for the scale-free variants.
    pub hub_threshold: usize,
    /// The full option set of this run.
    pub opts: BfsOptions,
}

/// Every n-sized array one run needs: both queue sets plus the
/// single-source label arrays (`level[]`, parents, owner, the hybrid
/// frontier/visited bitmaps and the compaction buffers).
///
/// A [`RunState`] is always built from one ([`RunState::from_buffers`])
/// and hands it back when the run is over ([`RunState::into_buffers`]),
/// so the driver can recycle the arrays across runs on one pool instead
/// of allocating and first-touching them on every call
/// ([`RunBuffers::take`] / [`RunBuffers::park`]).
///
/// Parked invariant: every queue slot is [`EMPTY_SLOT`] and every queue
/// cursor is 0. The label arrays need no invariant: `init_chunk` clears
/// `level[]`/parents/owner at the start of every run, and the bitmaps and
/// compaction arrays are rebuilt before each level that reads them.
pub(crate) struct RunBuffers {
    n: usize,
    queues: [QueueSet; 2],
    /// `None` in a set first built for a batched run, which never reads
    /// single-source labels.
    labels: Option<LabelBuffers>,
}

/// The arrays only single-source runs use.
struct LabelBuffers {
    levels: RacyBuf,
    parents: Option<RacyBuf>,
    owner: Option<RacyBuf>,
    /// Hybrid frontier and visited bitmaps.
    hybrid: Option<[FrontierBitmap; 2]>,
    compact: Option<CompactBuffers>,
}

/// The arrays of [`CompactState`].
struct CompactBuffers {
    bitmap: FrontierBitmap,
    chunk_counts: RacyBuf,
    block_totals: RacyBuf,
    frontier: RacyBuf,
}

impl LabelBuffers {
    fn new(n: usize, opts: &BfsOptions) -> Self {
        Self {
            levels: RacyBuf::new(n),
            parents: opts.record_parents.then(|| RacyBuf::new(n)),
            owner: (opts.dedup == DedupMode::OwnerArray).then(|| RacyBuf::new(n)),
            hybrid: opts.hybrid.map(|_| [FrontierBitmap::new(n), FrontierBitmap::new(n)]),
            compact: opts.compaction.map(|_| {
                let bitmap = FrontierBitmap::new(n);
                let chunks =
                    obfs_util::div_ceil(bitmap.word_count(), crate::scan::COMPACT_CHUNK_WORDS);
                CompactBuffers {
                    bitmap,
                    chunk_counts: RacyBuf::new(chunks),
                    block_totals: RacyBuf::new(opts.threads),
                    frontier: RacyBuf::new(n),
                }
            }),
        }
    }

    /// Whether these are exactly the arrays `opts` needs (same vertex
    /// count assumed).
    fn fits(&self, opts: &BfsOptions) -> bool {
        self.parents.is_some() == opts.record_parents
            && self.owner.is_some() == (opts.dedup == DedupMode::OwnerArray)
            && self.hybrid.is_some() == opts.hybrid.is_some()
            && self.compact.is_some() == opts.compaction.is_some()
    }
}

impl RunBuffers {
    /// Fresh buffers for a run of `opts.threads` workers over `n`
    /// vertices; `single` adds the single-source label arrays `opts`
    /// asks for (a batched run keeps its labels in
    /// [`crate::batch::BatchState`] instead).
    pub(crate) fn new(n: usize, opts: &BfsOptions, single: bool) -> Self {
        assert!(n >= 1, "BFS needs at least one vertex");
        assert!(n < UNVISITED as usize, "graph too large for u32 level encoding");
        let p = opts.threads;
        assert!(p >= 1, "need at least one thread");
        Self {
            n,
            queues: [QueueSet::new(p, n), QueueSet::new(p, n)],
            labels: single.then(|| LabelBuffers::new(n, opts)),
        }
    }

    /// Buffers for a run on `pool`: the set its last run parked when the
    /// shape matches, fresh arrays otherwise. The queues are reused when
    /// the vertex and thread counts match. A single-source run also
    /// reuses the label arrays when they are exactly the ones `opts`
    /// needs and reallocates them otherwise; a batched run leaves them
    /// in the set untouched, so it goes back to the pool whole.
    pub(crate) fn take(pool: &LevelPool, n: usize, opts: &BfsOptions, single: bool) -> Self {
        match pool.take_parked::<Self>() {
            Some(mut b) if b.n == n && b.queues[0].len() == opts.threads => {
                if single && !b.labels.as_ref().is_some_and(|l| l.fits(opts)) {
                    // Free the old arrays before allocating their successors.
                    b.labels = None;
                    b.labels = Some(LabelBuffers::new(n, opts));
                }
                b
            }
            stale => {
                drop(stale);
                Self::new(n, opts, single)
            }
        }
    }

    /// Restore the parked invariant — clearing only the used range of
    /// each queue — and leave the buffers in `pool` for its next run.
    pub(crate) fn park(self, pool: &LevelPool) {
        for qs in &self.queues {
            qs.reset();
        }
        pool.park(self);
    }
}

impl<'g> RunState<'g> {
    /// Allocate fresh shared state for one single-source run (the driver
    /// recycles a pool's arrays instead; tests and the model replay drive
    /// kernels on this directly). When [`BfsOptions::hybrid`] is set the
    /// in-edge graph is computed here.
    pub fn new(graph: &'g CsrGraph, opts: &BfsOptions) -> Self {
        let bufs = RunBuffers::new(graph.num_vertices(), opts, true);
        Self::from_buffers(graph, opts, None, bufs, None)
    }

    /// The one construction path: every n-sized array comes from `bufs`
    /// (fresh or recycled), everything else is built per run.
    ///
    /// With `sources` (1..=64 of them, duplicates allowed) the state is
    /// for a batched run over them: the bit-parallel [`BatchState`] holds
    /// the labels, only the queues of `bufs` are used, and any
    /// single-source arrays in the set sit idle until
    /// [`RunState::into_buffers`]. The owner-array dedup is incompatible
    /// with batching (a vertex legitimately re-enters the frontier once
    /// per query) and is rejected. Without `sources`, `bufs` must carry
    /// exactly the label arrays `opts` needs.
    ///
    /// Bottom-up levels probe `transpose` (`graph.transpose()`, or
    /// `graph` itself when symmetric); a hybrid run given none computes
    /// it here.
    pub(crate) fn from_buffers(
        graph: &'g CsrGraph,
        opts: &BfsOptions,
        transpose: Option<&'g CsrGraph>,
        bufs: RunBuffers,
        sources: Option<&[obfs_graph::VertexId]>,
    ) -> Self {
        let n = graph.num_vertices();
        let p = opts.threads;
        let RunBuffers { n: buf_n, queues, labels } = bufs;
        assert_eq!(buf_n, n, "run buffers sized for another graph");
        assert_eq!(queues[0].len(), p, "run buffers sized for another thread count");
        if let Some(t) = &opts.topology {
            assert_eq!(
                t.threads(),
                p,
                "BfsOptions::topology describes {} workers but threads = {p}",
                t.threads()
            );
        }
        let pools = opts.pools.clamp(1, p);
        // A batched run never touches the single-source arrays: it gets
        // zero-length stand-ins (so any missed call site is an immediate
        // bounds panic rather than silent corruption) and holds the real
        // ones idle until `into_buffers`.
        let (batch, labels, idle) = match sources {
            Some(src) => {
                assert!(
                    opts.dedup == DedupMode::None,
                    "owner-array dedup is incompatible with batched multi-source BFS"
                );
                let b = BatchState::new(n, src, opts.record_parents, opts.hybrid.is_some());
                let stand_in = LabelBuffers {
                    levels: RacyBuf::new(0),
                    parents: None,
                    owner: None,
                    // Batched bottom-up levels read `front_by` words.
                    hybrid: opts.hybrid.map(|_| [FrontierBitmap::new(0), FrontierBitmap::new(0)]),
                    // Compaction reads the single-source `level[]` array;
                    // batched discovery is already bit-parallel, so the
                    // option is documented as ignored here.
                    compact: None,
                };
                (Some(b), stand_in, labels)
            }
            None => {
                let l = labels.expect("single-source run needs label buffers");
                assert!(l.fits(opts), "run buffers do not match these options");
                (None, l, None)
            }
        };
        let LabelBuffers { levels, parents, owner, hybrid, compact } = labels;
        let hyb = opts.hybrid.map(|_| {
            if let Some(t) = transpose {
                assert_eq!(
                    t.num_vertices(),
                    n,
                    "transpose vertex count must match the graph"
                );
            }
            let [bitmap, visited] = hybrid.expect("hybrid bitmaps for a hybrid run");
            HybridState {
                transpose: match transpose {
                    Some(t) => TransposeRef::Borrowed(t),
                    None => TransposeRef::Owned(Box::new(graph.transpose())),
                },
                bitmap,
                visited,
                ctl: SerialCell::new(HybridCtl { unexplored_edges: graph.num_edges(), prev_mf: 0 }),
            }
        });
        let compact = compact.map(|c| CompactState {
            bitmap: c.bitmap,
            chunk_counts: c.chunk_counts,
            block_totals: c.block_totals,
            frontier: c.frontier,
        });
        Self {
            graph,
            levels,
            parents,
            owner,
            queues,
            descs: (0..p).map(|_| CachePadded::new(SegmentDesc::new())).collect(),
            desc_locks: (0..p).map(|_| CachePadded::new(SpinLock::new(()))).collect(),
            central_lock: SpinLock::new(CentralCursor::default()),
            pool_cursors: (0..pools).map(|_| CachePadded::new(RacyUsize::new(0))).collect(),
            edge_cursor: CachePadded::new(RacyUsize::new(0)),
            hubs: PerThread::new(p, |_| Vec::new()),
            flat_vertices: SerialCell::new(Vec::new()),
            flat_prefix: SerialCell::new(Vec::new()),
            log: SerialCell::new(LevelLog {
                entries: Vec::new(),
                mark: std::time::Instant::now(),
                frontier_in: 0,
                prev_totals: ThreadStats::default(),
            }),
            plan: SerialCell::new(LevelPlan {
                stop: false,
                direction: Direction::TopDown,
                compacted: false,
            }),
            hyb,
            compact,
            scan_backend: opts.kernel.resolve(),
            batch,
            idle,
            count_frontier_edges: opts.hybrid.is_some(),
            wd_abort: AtomicBool::new(false),
            wd_deadline: SerialCell::new(None),
            run_abort: SerialCell::new(None),
            abort_armed: opts.watchdog.is_some() || opts.cancel.is_some(),
            threads: p,
            hub_threshold: opts.resolved_hub_threshold(graph),
            opts: opts.clone(),
        }
    }

    /// End the run and hand back its n-sized arrays (queues as the run
    /// left them; [`RunBuffers::park`] restores the parked invariant).
    pub(crate) fn into_buffers(self) -> RunBuffers {
        let labels = if self.batch.is_some() {
            self.idle
        } else {
            Some(LabelBuffers {
                levels: self.levels,
                parents: self.parents,
                owner: self.owner,
                hybrid: self.hyb.map(|h| [h.bitmap, h.visited]),
                compact: self.compact.map(|c| CompactBuffers {
                    bitmap: c.bitmap,
                    chunk_counts: c.chunk_counts,
                    block_totals: c.block_totals,
                    frontier: c.frontier,
                }),
            })
        };
        RunBuffers { n: self.graph.num_vertices(), queues: self.queues, labels }
    }

    /// This level's input queue set.
    #[inline]
    pub fn qin(&self, parity: usize) -> &QueueSet {
        &self.queues[parity & 1]
    }

    /// This level's output queue set.
    #[inline]
    pub fn qout(&self, parity: usize) -> &QueueSet {
        &self.queues[(parity & 1) ^ 1]
    }

    /// Number of decentralized pools (1 for the centralized variants).
    #[inline]
    pub fn pools(&self) -> usize {
        self.pool_cursors.len()
    }

    /// Queue-index range `[start, end)` covered by pool `j` (BFSDL splits
    /// the `p` queues into `pools` contiguous groups).
    pub fn pool_range(&self, j: usize) -> (usize, usize) {
        let per = obfs_util::div_ceil(self.threads, self.pools());
        let start = (j * per).min(self.threads);
        let end = ((j + 1) * per).min(self.threads);
        (start, end)
    }

    /// Parallel init chunk for thread `tid`: clear levels / parents /
    /// owner for its share of the vertex range.
    pub fn init_chunk(&self, tid: usize) {
        let n = self.graph.num_vertices();
        let per = obfs_util::div_ceil(n, self.threads);
        let lo = (tid * per).min(n);
        let hi = ((tid + 1) * per).min(n);
        if let Some(b) = &self.batch {
            for v in lo..hi {
                for q in 0..b.k {
                    b.levels.set(v * b.k + q, UNVISITED);
                }
                if let Some(p) = &b.parents {
                    for q in 0..b.k {
                        p.set(v * b.k + q, INVALID_VERTEX);
                    }
                }
                b.visited_by.set(v, 0);
                b.pushed_at.set(v, UNVISITED);
            }
            return;
        }
        for v in lo..hi {
            self.levels.set(v, UNVISITED);
        }
        if let Some(p) = &self.parents {
            for v in lo..hi {
                p.set(v, INVALID_VERTEX);
            }
        }
        if let Some(o) = &self.owner {
            for v in lo..hi {
                o.set(v, 0);
            }
        }
    }

    // lint:region hot-path:discover
    /// The discovery fast path: if `w` looks unvisited, claim it (racy
    /// write — duplicates across threads are possible and benign), record
    /// parent/owner, and push it to `out`.
    #[inline]
    #[allow(clippy::too_many_arguments)] // hot path: flat args beat a param struct here
    pub fn try_discover(
        &self,
        w: VertexId,
        parent: VertexId,
        next_level: u32,
        out_queue_id: usize,
        out: &FrontierQueue,
        out_rear: &mut usize,
        ts: &mut ThreadStats,
    ) {
        if self.levels.get(w as usize) == UNVISITED {
            self.levels.set(w as usize, next_level);
            if let Some(p) = &self.parents {
                p.set(w as usize, parent);
            }
            if let Some(o) = &self.owner {
                // Arbitrary concurrent write: last store wins; pops will
                // honor whichever queue id survives.
                o.set(w as usize, out_queue_id as u32 + 1);
            }
            out.push(out_rear, w);
            ts.vertices_discovered += 1;
            if self.count_frontier_edges {
                ts.frontier_edges += self.graph.degree(w) as u64;
            }
        }
    }
    // lint:endregion

    // lint:region hot-path:discover-batch
    /// Batch mode: derive the membership bits of frontier vertex `v` at
    /// `level` — bit `q` set iff query `q`'s BFS reaches `v` at exactly
    /// this depth. Reads only per-query level slots published by the
    /// barrier that ended level `level - 1` (claims made *during* the
    /// current level carry `level + 1` and are excluded), so the result
    /// is race-free and identical for every worker that pops `v`.
    #[inline]
    pub fn frontier_bits(&self, v: VertexId, level: u32) -> u64 {
        let b = self.batch.as_ref().expect("batch state not armed");
        let row = b.levels.row(v as usize * b.k, b.k);
        let mut bits = 0u64;
        for (q, slot) in row.iter().enumerate() {
            bits |= u64::from(slot.load() == level) << q;
        }
        bits
    }

    /// The batch-mode discovery fast path: `fbits` are the popped
    /// parent's frontier bits ([`RunState::frontier_bits`]). Skips `w`
    /// with one membership-word load in the common all-seen case, claims
    /// each surviving (query, vertex) level slot with an idempotent racy
    /// store, ORs the membership word back with a plain store, and pushes
    /// `w` at most once per level per worker (see the
    /// [`crate::batch`] module docs for why every race here is benign).
    #[inline]
    #[allow(clippy::too_many_arguments)] // hot path: flat args beat a param struct here
    pub fn try_discover_batch(
        &self,
        w: VertexId,
        parent: VertexId,
        fbits: u64,
        next_level: u32,
        out: &FrontierQueue,
        out_rear: &mut usize,
        ts: &mut ThreadStats,
    ) {
        let b = self.batch.as_ref().expect("batch state not armed");
        let vis = b.visited_by.get(w as usize);
        // `& b.mask` makes the bound `q < k` below locally evident even
        // for a caller-corrupted `fbits`.
        let news = fbits & b.mask & !vis;
        if news == 0 {
            return;
        }
        let base = w as usize * b.k;
        let row = b.levels.row(base, b.k);
        let mut claimed = 0u64;
        let mut rem = news;
        while rem != 0 {
            let q = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            // SAFETY: `rem ⊆ news ⊆ b.mask`, whose set bits are all
            // below `k == row.len()`, so `q` is in bounds.
            let slot = unsafe { row.get_unchecked(q) };
            // Revalidate against the level slot: the membership word is
            // only an under-approximation (racy ORs lose bits).
            if slot.load() == UNVISITED {
                slot.store(next_level);
                if let Some(p) = &b.parents {
                    p.set(base + q, parent);
                }
                claimed |= 1 << q;
            }
        }
        // OR back `news`, not just `claimed`: a bit that failed the slot
        // check was claimed by another worker whose store is (at latest)
        // barrier-published, so recording it only skips redundant work.
        b.visited_by.set(w as usize, vis | news);
        if claimed != 0 {
            ts.vertices_discovered += claimed.count_ones() as u64;
            if b.pushed_at.get(w as usize) != next_level {
                b.pushed_at.set(w as usize, next_level);
                out.push(out_rear, w);
                if self.count_frontier_edges {
                    ts.frontier_edges += self.graph.degree(w) as u64;
                }
            }
        }
    }
    // lint:endregion

    /// Pop-side checks shared by all variants. Returns `false` if the
    /// vertex should be skipped (duplicate under owner-array dedup).
    #[inline]
    pub fn pop_admit(&self, v: VertexId, from_queue: usize, ts: &mut ThreadStats) -> bool {
        if let Some(o) = &self.owner {
            if o.get(v as usize) != from_queue as u32 + 1 {
                ts.dedup_skips += 1;
                return false;
            }
        }
        true
    }

    // lint:region hot-path:explore
    /// Scan `v`'s full adjacency list, discovering into `out`.
    #[inline]
    pub fn explore_vertex(
        &self,
        v: VertexId,
        level: u32,
        out_queue_id: usize,
        out: &FrontierQueue,
        out_rear: &mut usize,
        ts: &mut ThreadStats,
    ) {
        let next = level + 1;
        let neigh = self.graph.neighbors(v);
        if self.batch.is_some() {
            // A replayed duplicate pop re-derives the same frontier bits,
            // so re-exploration (e.g. the watchdog sweep) stays idempotent.
            let fbits = self.frontier_bits(v, level);
            if fbits == 0 {
                return;
            }
            ts.edges_scanned += neigh.len() as u64;
            for &w in neigh {
                self.try_discover_batch(w, v, fbits, next, out, out_rear, ts);
            }
            return;
        }
        ts.edges_scanned += neigh.len() as u64;
        for &w in neigh {
            self.try_discover(w, v, next, out_queue_id, out, out_rear, ts);
        }
    }
    // lint:endregion

    /// Leader-only (barrier serial section): reset the watchdog for the
    /// upcoming level.
    ///
    /// # Safety
    /// Call only from a barrier serial section.
    pub unsafe fn watchdog_arm(&self) {
        if !self.abort_armed {
            return;
        }
        self.wd_abort.store(false, Ordering::Relaxed);
        *self.wd_deadline.get_mut() = self
            .opts
            .watchdog
            .and_then(|w| w.level_deadline)
            .map(|d| self.opts.clock.deadline_after(d));
    }

    /// Leader-only poll of the run's cancel token (any-context safe, but
    /// the *decision* it feeds must be made in a serial section so all
    /// workers exit the level loop on the same iteration).
    pub fn cancel_cause(&self) -> Option<CancelCause> {
        self.opts.cancel.as_ref().and_then(|t| t.check())
    }

    // lint:region hot-path:watchdog-poll
    /// Worker-side poll: true once this level has been declared degraded
    /// or the run cancelled (watchdog deadline passed, a worker exhausted
    /// a retry budget, or the cancel token fired). The caller stops
    /// dispatching new work and falls through to the level-end barrier,
    /// where the leader either sweeps the level (watchdog) or publishes
    /// the run abort (cancellation).
    #[inline]
    pub fn watchdog_tripped(&self) -> bool {
        if !self.abort_armed {
            return false;
        }
        if self.wd_abort.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(tok) = &self.opts.cancel {
            if tok.check().is_some() {
                // racy-ok: control-plane latch — every writer stores `true`
                self.wd_abort.store(true, Ordering::Relaxed);
                return true;
            }
        }
        // SAFETY: written only in barrier serial sections; the level in
        // progress only reads it.
        if let Some(dl) = unsafe { *self.wd_deadline.get() } {
            if self.opts.clock.now_ns() >= dl {
                // racy-ok: control-plane latch — every writer stores `true`
                self.wd_abort.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Worker-side retry accounting: bumps the caller's per-dispatch-loop
    /// retry counter and returns true when the level should be abandoned
    /// (budget exhausted, deadline passed, or already tripped elsewhere).
    #[inline]
    pub fn watchdog_retry(&self, retries: &mut u64) -> bool {
        if !self.abort_armed {
            return false;
        }
        *retries += 1;
        if let Some(max) = self.opts.watchdog.and_then(|w| w.max_fetch_retries) {
            if *retries >= max {
                // racy-ok: control-plane latch — every writer stores `true`
                self.wd_abort.store(true, Ordering::Relaxed);
                return true;
            }
        }
        self.watchdog_tripped()
    }
    // lint:endregion

    /// Leader-only serial sweep finishing a degraded level: re-explore
    /// every flattened work-list vertex (hub phase / EdgeCL) and every
    /// surviving input-queue slot. Level writes are same-valued within a
    /// level and [`RunState::try_discover`] skips visited vertices, so
    /// the sweep is idempotent with whatever the parallel phase already
    /// did — correct no matter where each variant was interrupted.
    ///
    /// Counts edge scans and discoveries but not pops: swept entries were
    /// never dispatched, and the per-variant pop counters stay meaningful.
    ///
    /// # Safety
    /// Call only from a barrier serial section.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn serial_finish_level(
        &self,
        parity: usize,
        level: u32,
        tid: usize,
        out: &FrontierQueue,
        out_rear: &mut usize,
        ts: &mut ThreadStats,
    ) {
        for &h in self.flat_vertices.get().iter() {
            self.explore_vertex(h, level, tid, out, out_rear, ts);
        }
        let qin = self.qin(parity);
        for k in 0..self.threads {
            let q = qin.queue(k);
            for i in 0..q.rear().min(q.capacity()) {
                let s = q.slot(i);
                if s == EMPTY_SLOT {
                    continue;
                }
                self.explore_vertex(decode(s), level, tid, out, out_rear, ts);
            }
        }
    }

    /// Record whether popping `v` at `level` is a duplicate exploration
    /// (its level was already set by this or another thread this level).
    /// Call after the pop, before exploring.
    #[inline]
    pub fn note_pop(&self, v: VertexId, level: u32, ts: &mut ThreadStats) {
        ts.vertices_explored += 1;
        if let Some(b) = &self.batch {
            // Batch mode has no single level word to compare against; a
            // pushed_at mismatch is the analogous signal that this slot
            // is a duplicate push or a stale segment replay.
            if b.pushed_at.get(v as usize) != level {
                ts.duplicate_explorations += 1;
            }
            return;
        }
        // A slot holding v at level d implies level[v] == d was set when it
        // was pushed; observing anything else means another queue also
        // carried v (duplicate push) or a stale segment replay.
        if self.levels.get(v as usize) != level {
            ts.duplicate_explorations += 1;
        }
    }

    /// Rebuild thread `tid`'s share of the frontier bitmap from the
    /// `level[]` array: bit `v` is set iff `level[v] == level`.
    ///
    /// The bitmap is partitioned by *word*, so each worker is the only
    /// writer of its words — no races at all. Call between the barrier
    /// that published this level's `level[]` stores and the barrier that
    /// starts the bottom-up probes.
    pub fn fill_bitmap_chunk(&self, level: u32, tid: usize) {
        let hyb = self.hyb.as_ref().expect("hybrid state not armed");
        if let Some(b) = &self.batch {
            // Batch mode: rebuild per-vertex frontier *words* instead of
            // the single-source bitmap. One whole u64 per vertex, so the
            // vertex partition itself makes each word single-writer.
            let fb = b.front_by.as_ref().expect("hybrid batch state not armed");
            let n = self.graph.num_vertices();
            let per = obfs_util::div_ceil(n, self.threads);
            let lo = (tid * per).min(n);
            let hi = ((tid + 1) * per).min(n);
            for v in lo..hi {
                // visited_by is an under-approximation, but at a level
                // barrier it can only *miss* claimed bits — a vertex with
                // any claimed slot has a nonzero word (every OR writes a
                // nonzero value), so zero words are exactly never-claimed
                // vertices and the k slot loads can be skipped.
                let w = if b.visited_by.get(v) == 0 {
                    0
                } else {
                    self.frontier_bits(v as VertexId, level)
                };
                fb.set(v, w);
            }
            return;
        }
        let words = hyb.bitmap.word_count();
        let per = obfs_util::div_ceil(words, self.threads);
        let wlo = (tid * per).min(words);
        let whi = ((tid + 1) * per).min(words);
        let n = self.graph.num_vertices();
        for wi in wlo..whi {
            let base = wi * BITMAP_WORD_BITS;
            let lim = BITMAP_WORD_BITS.min(n - base.min(n));
            let mut bits: u32 = 0;
            // Out-of-range tail bits start *set* in the visited word, so
            // the wordwise kernel's candidate scan (`!visited`) never
            // yields a vertex >= n.
            let mut vis: u32 = if lim == BITMAP_WORD_BITS { 0 } else { !0u32 << lim };
            for b in 0..lim {
                let l = self.levels.get(base + b);
                if l == level {
                    bits |= 1 << b;
                }
                if l != UNVISITED {
                    vis |= 1 << b;
                }
            }
            hyb.bitmap.set_word(wi, bits);
            hyb.visited.set_word(wi, vis);
        }
    }

    // lint:region hot-path:compact
    /// Compaction pass 1 (fill / reduce) for thread `tid`: rebuild this
    /// worker's chunk-aligned share of the compaction bitmap from the
    /// `level[]` stores the last barrier published, record one popcount
    /// per chunk, and publish the block total. Word-partitioned by whole
    /// chunks, so every bitmap word, chunk count and total slot has
    /// exactly one writer; call between the barrier that published
    /// `level[]` and the barrier that starts the materialize pass.
    pub fn compact_fill_chunk(&self, level: u32, tid: usize) {
        let cs = self.compact.as_ref().expect("compaction state not armed");
        let words = cs.bitmap.word_count();
        let chunks = obfs_util::div_ceil(words, crate::scan::COMPACT_CHUNK_WORDS);
        let (clo, chi) = crate::scan::block_range(chunks, self.threads, tid);
        let n = self.graph.num_vertices();
        let mut total = 0u64;
        for c in clo..chi {
            let wlo = c * crate::scan::COMPACT_CHUNK_WORDS;
            let whi = ((c + 1) * crate::scan::COMPACT_CHUNK_WORDS).min(words);
            for wi in wlo..whi {
                let base = wi * BITMAP_WORD_BITS;
                let mut bits: u32 = 0;
                for b in 0..BITMAP_WORD_BITS.min(n - base.min(n)) {
                    if self.levels.get(base + b) == level {
                        bits |= 1 << b;
                    }
                }
                cs.bitmap.set_word(wi, bits);
            }
            let cnt = crate::scan::popcount_words(self.scan_backend, &cs.bitmap, wlo, whi);
            // racy-ok: single-writer — this chunk belongs to `tid` alone
            cs.chunk_counts.set(c, cnt as u32);
            total += cnt;
        }
        // racy-ok: single-writer — own block-total slot
        cs.block_totals.set(tid, total as u32);
    }

    /// Compaction passes 2+3 (scan / downsweep) for thread `tid`: compute
    /// the exclusive prefix of the published block totals (replicated
    /// O(p) work — no serial section), then emit this worker's chunks'
    /// set bits into its disjoint range of the frontier array, advancing
    /// by the per-chunk popcounts of pass 1. Call after the barrier that
    /// published the pass-1 counts; the output is ascending within each
    /// chunk with chunks in index order, so the array is a stable
    /// permutation-free listing of the level's vertices.
    pub fn compact_materialize(&self, tid: usize) {
        let cs = self.compact.as_ref().expect("compaction state not armed");
        let words = cs.bitmap.word_count();
        let chunks = obfs_util::div_ceil(words, crate::scan::COMPACT_CHUNK_WORDS);
        let (clo, chi) = crate::scan::block_range(chunks, self.threads, tid);
        let totals: Vec<u64> =
            (0..self.threads).map(|k| u64::from(cs.block_totals.get(k))).collect();
        let mut off = crate::scan::block_prefix(&totals, tid) as usize;
        for c in clo..chi {
            let wlo = c * crate::scan::COMPACT_CHUNK_WORDS;
            let whi = ((c + 1) * crate::scan::COMPACT_CHUNK_WORDS).min(words);
            let start = off;
            crate::scan::for_each_set(self.scan_backend, &cs.bitmap, wlo, whi, |v| {
                // racy-ok: single-writer — disjoint per-thread output range
                cs.frontier.set(off, v as u32);
                off += 1;
            });
            debug_assert_eq!(
                (off - start) as u32,
                cs.chunk_counts.get(c),
                "chunk emit must match its pass-1 popcount"
            );
        }
        debug_assert_eq!(off as u64, crate::scan::block_prefix(&totals, tid) + totals[tid]);
    }

    /// Consume a compacted level for thread `tid`: a perfectly balanced
    /// static partition of the materialized frontier array, exploring
    /// through the ordinary discovery path (discoveries land in this
    /// worker's own output queue, so queue state after a compacted level
    /// is exactly what segment dispatch would have produced). No
    /// `pop_admit` check: the array lists each frontier vertex exactly
    /// once, so there are no duplicates to dedup. Call after the barrier
    /// that published the materialize pass.
    pub fn compact_consume(
        &self,
        level: u32,
        tid: usize,
        out: &FrontierQueue,
        out_rear: &mut usize,
        ts: &mut ThreadStats,
    ) {
        let cs = self.compact.as_ref().expect("compaction state not armed");
        let total: u64 = (0..self.threads).map(|k| u64::from(cs.block_totals.get(k))).sum();
        let (lo, hi) = crate::scan::block_range(total as usize, self.threads, tid);
        for i in lo..hi {
            if i & 0xFF == 0 && self.watchdog_tripped() {
                // Abandon the partition; the input queues were never
                // consumed, so the leader sweep re-explores everything —
                // idempotent with whatever this pass already did.
                return;
            }
            let v = cs.frontier.get(i);
            self.note_pop(v, level, ts);
            self.explore_vertex(v, level, tid, out, out_rear, ts);
        }
    }
    // lint:endregion

    // lint:region hot-path:bottom-up
    /// One bottom-up level for thread `tid`: scan this worker's
    /// word-aligned share of the vertex range, and for every unvisited
    /// vertex probe its in-edges until a parent on the current frontier
    /// (bitmap bit set) is found.
    ///
    /// The vertex partition is word-aligned and static, so each vertex —
    /// and each `level[]`/`parents[]`/queue slot it writes — has exactly
    /// one writer: the kernel needs no atomics *and* has no races to be
    /// optimistic about. Discoveries go through the same plain stores as
    /// [`RunState::try_discover`] and land in this worker's own output
    /// queue, so queue state after a bottom-up level is exactly what a
    /// top-down level would need (switch-back and the watchdog sweep work
    /// unchanged).
    pub fn bottom_up_level(
        &self,
        level: u32,
        tid: usize,
        out: &FrontierQueue,
        out_rear: &mut usize,
        ts: &mut ThreadStats,
    ) {
        let hyb = self.hyb.as_ref().expect("hybrid state not armed");
        if self.batch.is_some() {
            self.bottom_up_level_batch(level, tid, out, out_rear, ts);
            return;
        }
        let tg = hyb.transpose.graph();
        let n = self.graph.num_vertices();
        let words = hyb.bitmap.word_count();
        let per = obfs_util::div_ceil(words, self.threads);
        let wlo = (tid * per).min(words);
        let whi = ((tid + 1) * per).min(words);
        let next = level + 1;
        match self.scan_backend {
            crate::dispatch::ScanBackend::Wordwise => {
                // Candidate scan over the visited bitmap's complement:
                // fully-visited words are skipped outright, and the
                // pre-set out-of-range tail bits mask the last word.
                for wi in wlo..whi {
                    if wi & 0x7 == 0 && self.watchdog_tripped() {
                        // Abandon the scan; the leader sweep re-explores
                        // the (never-consumed) input queues top-down,
                        // which is idempotent with everything done so far.
                        return;
                    }
                    let cand = !hyb.visited.word(wi);
                    if cand == 0 {
                        continue;
                    }
                    crate::scan::for_each_set_in_word(cand, wi * BITMAP_WORD_BITS, |v| {
                        self.bottom_up_probe(hyb, tg, v, next, tid, out, out_rear, ts);
                    });
                }
            }
            crate::dispatch::ScanBackend::Scalar => {
                // Per-vertex walk checking `level[]` directly. Both
                // checks see the same set: within a bottom-up level each
                // worker writes only vertices of its own range, and only
                // when it probes them — so the level-start snapshot in
                // `visited` and this live read always agree.
                let lo = wlo * BITMAP_WORD_BITS;
                let hi = (whi * BITMAP_WORD_BITS).min(n);
                for v in lo..hi {
                    if v & 0xFF == 0 && self.watchdog_tripped() {
                        // Abandon the scan (see the wordwise arm).
                        return;
                    }
                    if self.levels.get(v) != UNVISITED {
                        continue;
                    }
                    self.bottom_up_probe(hyb, tg, v, next, tid, out, out_rear, ts);
                }
            }
        }
    }

    /// Probe one unvisited vertex's in-edges for a parent on the current
    /// frontier bitmap — the inner step shared by both bottom-up scan
    /// kernels (so backend choice can never change what gets discovered).
    #[inline]
    #[allow(clippy::too_many_arguments)] // hot path: flat args beat a param struct here
    fn bottom_up_probe(
        &self,
        hyb: &HybridState<'_>,
        tg: &CsrGraph,
        v: usize,
        next: u32,
        tid: usize,
        out: &FrontierQueue,
        out_rear: &mut usize,
        ts: &mut ThreadStats,
    ) {
        let mut probes = 0u64;
        for &u in tg.neighbors(v as VertexId) {
            probes += 1;
            if hyb.bitmap.test(u as usize) {
                // racy-ok: single-writer — `v` is in this worker's static word-aligned range
                self.levels.set(v, next);
                if let Some(p) = &self.parents {
                    // racy-ok: single-writer — same static vertex partition
                    p.set(v, u);
                }
                if let Some(o) = &self.owner {
                    // racy-ok: single-writer — same static vertex partition
                    o.set(v, tid as u32 + 1);
                }
                out.push(out_rear, v as VertexId);
                ts.vertices_discovered += 1;
                if self.count_frontier_edges {
                    ts.frontier_edges += self.graph.degree(v as VertexId) as u64;
                }
                break;
            }
        }
        ts.edges_scanned += probes;
    }

    /// Batch-mode bottom-up level: for every vertex in this worker's
    /// static chunk, probe in-edges for parents on *any* missing query's
    /// frontier, accumulating found bits until all missing queries are
    /// satisfied or the in-edge list is exhausted (no early break on the
    /// first hit — different queries may need different parents).
    ///
    /// The vertex partition makes this worker the only writer of the
    /// vertex's level row, membership word and queue slot, so like the
    /// single-source kernel it has no races at all; `visited_by` reads
    /// are exact here (barrier-published, single writer since).
    fn bottom_up_level_batch(
        &self,
        level: u32,
        tid: usize,
        out: &FrontierQueue,
        out_rear: &mut usize,
        ts: &mut ThreadStats,
    ) {
        let hyb = self.hyb.as_ref().expect("hybrid state not armed");
        let b = self.batch.as_ref().expect("batch state not armed");
        let fb = b.front_by.as_ref().expect("hybrid batch state not armed");
        let tg = hyb.transpose.graph();
        let n = self.graph.num_vertices();
        let per = obfs_util::div_ceil(n, self.threads);
        let lo = (tid * per).min(n);
        let hi = ((tid + 1) * per).min(n);
        let next = level + 1;
        for v in lo..hi {
            if v & 0xFF == 0 && self.watchdog_tripped() {
                // Abandon the scan; the leader sweep re-explores the
                // (never-consumed) input queues top-down, which is
                // idempotent with everything done so far.
                return;
            }
            let vis = b.visited_by.get(v);
            let miss = b.mask & !vis;
            if miss == 0 {
                continue;
            }
            let base = v * b.k;
            let mut found = 0u64;
            let mut probes = 0u64;
            for &u in tg.neighbors(v as VertexId) {
                probes += 1;
                let mut hits = fb.get(u as usize) & miss & !found;
                while hits != 0 {
                    let q = hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    // visited_by may under-approximate: a bit claimed in
                    // an earlier level can be missing from `vis`, so the
                    // slot check is still required before claiming.
                    if b.levels.get(base + q) == UNVISITED {
                        b.levels.set(base + q, next);
                        if let Some(p) = &b.parents {
                            p.set(base + q, u);
                        }
                        found |= 1 << q;
                    }
                }
                if (miss & !found) == 0 {
                    break;
                }
            }
            ts.edges_scanned += probes;
            if found != 0 {
                b.visited_by.set(v, vis | found);
                b.pushed_at.set(v, next);
                out.push(out_rear, v as VertexId);
                ts.vertices_discovered += found.count_ones() as u64;
                if self.count_frontier_edges {
                    ts.frontier_edges += self.graph.degree(v as VertexId) as u64;
                }
            }
        }
    }
    // lint:endregion
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_graph::gen;

    fn opts(threads: usize) -> BfsOptions {
        BfsOptions { threads, ..Default::default() }
    }

    #[test]
    fn init_chunks_cover_everything() {
        let g = gen::path(103);
        let st = RunState::new(&g, &opts(4));
        for t in 0..4 {
            st.init_chunk(t);
        }
        for v in 0..103 {
            assert_eq!(st.levels.get(v), UNVISITED);
        }
    }

    #[test]
    fn pool_ranges_partition_threads() {
        let g = gen::path(10);
        let o = BfsOptions { threads: 7, pools: 3, ..Default::default() };
        let st = RunState::new(&g, &o);
        assert_eq!(st.pools(), 3);
        let mut covered = [false; 7];
        for j in 0..3 {
            let (s, e) = st.pool_range(j);
            #[allow(clippy::needless_range_loop)] // q is the queue id under test
            for q in s..e {
                assert!(!covered[q], "queue {q} in two pools");
                covered[q] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "pools must cover all queues");
    }

    #[test]
    fn pools_clamped_to_threads() {
        let g = gen::path(10);
        let o = BfsOptions { threads: 2, pools: 100, ..Default::default() };
        let st = RunState::new(&g, &o);
        assert_eq!(st.pools(), 2);
    }

    #[test]
    fn try_discover_sets_level_once_per_thread_view() {
        let g = gen::star(10);
        let st = RunState::new(&g, &opts(1));
        st.init_chunk(0);
        let out = st.qout(0).queue(0);
        let mut rear = 0;
        let mut ts = ThreadStats::default();
        st.try_discover(3, 0, 1, 0, out, &mut rear, &mut ts);
        st.try_discover(3, 0, 1, 0, out, &mut rear, &mut ts);
        assert_eq!(st.levels.get(3), 1);
        assert_eq!(rear, 1, "second discover must be a no-op");
        assert_eq!(ts.vertices_discovered, 1);
    }

    #[test]
    fn owner_dedup_admits_only_recorded_queue() {
        let g = gen::star(10);
        let o = BfsOptions { threads: 2, dedup: DedupMode::OwnerArray, ..Default::default() };
        let st = RunState::new(&g, &o);
        st.init_chunk(0);
        st.init_chunk(1);
        let out = st.qout(0).queue(1);
        let mut rear = 0;
        let mut ts = ThreadStats::default();
        st.try_discover(5, 0, 1, 1, out, &mut rear, &mut ts);
        assert!(st.pop_admit(5, 1, &mut ts));
        assert!(!st.pop_admit(5, 0, &mut ts));
        assert_eq!(ts.dedup_skips, 1);
    }

    #[test]
    fn explore_vertex_discovers_all_neighbors() {
        let g = gen::complete(5);
        let st = RunState::new(&g, &opts(1));
        st.init_chunk(0);
        st.levels.set(0, 0);
        let out = st.qout(0).queue(0);
        let mut rear = 0;
        let mut ts = ThreadStats::default();
        st.explore_vertex(0, 0, 0, out, &mut rear, &mut ts);
        assert_eq!(rear, 4);
        assert_eq!(ts.edges_scanned, 4);
        for v in 1..5 {
            assert_eq!(st.levels.get(v), 1);
        }
    }

    #[test]
    fn note_pop_flags_duplicates() {
        let g = gen::path(3);
        let st = RunState::new(&g, &opts(1));
        st.init_chunk(0);
        st.levels.set(1, 1);
        let mut ts = ThreadStats::default();
        st.note_pop(1, 1, &mut ts);
        assert_eq!(ts.duplicate_explorations, 0);
        st.note_pop(1, 2, &mut ts);
        assert_eq!(ts.duplicate_explorations, 1);
        assert_eq!(ts.vertices_explored, 2);
    }

    /// A finished run parks its buffers clean — every queue slot empty
    /// and every cursor 0, although compacted levels never clear their
    /// input slots, so the last level's input queues end the run full —
    /// and the next run of the same shape reuses those very arrays.
    #[test]
    fn runs_park_clean_buffers_and_reuse_them() {
        use crate::driver::try_run_on_pool;
        use crate::options::{Algorithm, CompactionPolicy};
        let g = gen::erdos_renyi(500, 4000, 3);
        let pool = LevelPool::new(3);
        let o = BfsOptions {
            threads: 3,
            compaction: Some(CompactionPolicy::forced_on()),
            record_parents: true,
            ..Default::default()
        };
        let serial = crate::serial::serial_bfs(&g, 0).levels;
        let r = try_run_on_pool(Algorithm::Bfscl, &g, 0, &o, &pool, None).unwrap();
        assert_eq!(r.levels, serial);
        assert_eq!(r.stats.compacted_levels, r.stats.levels, "every level compacted");
        let bufs = pool.take_parked::<RunBuffers>().expect("a finished run parks its buffers");
        for qs in &bufs.queues {
            for k in 0..qs.len() {
                let q = qs.queue(k);
                assert_eq!((q.front(), q.rear()), (0, 0), "queue {k} cursors");
                assert!((0..=q.capacity()).all(|i| q.slot(i) == EMPTY_SLOT), "queue {k} slots");
            }
        }
        let levels_at = |b: &RunBuffers| b.labels.as_ref().unwrap().levels.row(0, 1).as_ptr();
        let before = levels_at(&bufs);
        pool.park(bufs);
        let r = try_run_on_pool(Algorithm::Bfscl, &g, 0, &o, &pool, None).unwrap();
        assert_eq!(r.levels, serial);
        let bufs = pool.take_parked::<RunBuffers>().unwrap();
        assert_eq!(levels_at(&bufs), before, "the same shape reuses the arrays");
    }

    #[test]
    fn batch_state_leaves_single_source_arrays_idle() {
        let g = gen::path(40);
        let o = BfsOptions { threads: 2, record_parents: true, ..Default::default() };
        let bufs = RunBuffers::new(40, &o, true);
        let st = RunState::from_buffers(&g, &o, None, bufs, Some(&[0, 5]));
        assert!(st.levels.is_empty() && st.parents.is_none() && st.compact.is_none());
        let bufs = st.into_buffers();
        let labels = bufs.labels.expect("the idle label arrays come back");
        assert_eq!(labels.levels.len(), 40);
        assert!(labels.parents.is_some());
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn empty_graph_rejected() {
        let g = CsrGraph::from_edges(0, &[]);
        let _ = RunState::new(&g, &opts(1));
    }
}
