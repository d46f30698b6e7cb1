//! Baseline2: Hong, Oguntebi & Olukotun (PACT'11) multicore BFS.
//!
//! The paper compares against the four multicore CPU implementations of
//! Hong et al. — level-synchronous BFS built on atomic read-modify-write
//! instructions. We reproduce the variant family:
//!
//! * [`HongVariant::ReadArray`] — no queues: every level scans the whole
//!   vertex range, exploring vertices whose level equals the current
//!   depth (static partition, "read-based method").
//! * [`HongVariant::Queue`] — one shared output queue; the tail index is
//!   advanced with atomic fetch-add, visited claims with CAS on the level
//!   array.
//! * [`HongVariant::QueueBitmap`] — shared queue + packed visited bitmap
//!   maintained with atomic `fetch_or` (the "queue + bitmap" method).
//! * [`HongVariant::LocalQueueReadBitmap`] — per-thread local output
//!   queues, read-based frontier identification, CAS bitmap (the paper's
//!   strongest CPU variant, "Local queue + read + bitmap").
//!
//! These are the *atomic-instruction school* the optimistic algorithms
//! are measured against; they intentionally use `fetch_add` / `fetch_or`
//! / `compare_exchange`.

use obfs_core::stats::{RunStats, ThreadStats};
use obfs_core::{BfsResult, UNVISITED};
use obfs_graph::{CsrGraph, VertexId};
use obfs_runtime::LevelPool;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// The four multicore variants of Baseline2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HongVariant {
    /// Scan all vertices per level; no queues.
    ReadArray,
    /// One shared queue, fetch-add tail, CAS level claims.
    Queue,
    /// Shared queue plus a fetch-or visited bitmap.
    QueueBitmap,
    /// Per-thread queues, read-based scan, CAS bitmap (their best).
    LocalQueueReadBitmap,
    /// The paper's actual headline method: per level, "an appropriate
    /// version of BFS algorithm is chosen ... based on the number of
    /// vertices in the current level and the next level queues" — here,
    /// the queue method for small frontiers and the read-based scan once
    /// the frontier exceeds a fixed fraction of the vertex count.
    Hybrid,
}

impl HongVariant {
    /// All variants in the paper's comparison order (hybrid last).
    pub const ALL: [HongVariant; 5] = [
        HongVariant::ReadArray,
        HongVariant::Queue,
        HongVariant::QueueBitmap,
        HongVariant::LocalQueueReadBitmap,
        HongVariant::Hybrid,
    ];

    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            HongVariant::ReadArray => "Hong[read]",
            HongVariant::Queue => "Hong[queue]",
            HongVariant::QueueBitmap => "Hong[queue+bitmap]",
            HongVariant::LocalQueueReadBitmap => "Hong[localq+read+bitmap]",
            HongVariant::Hybrid => "Hong[hybrid]",
        }
    }
}

impl std::fmt::Display for HongVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Atomic visited bitmap (one bit per vertex, `fetch_or` claims).
struct Bitmap {
    words: Vec<AtomicU64>,
}

impl Bitmap {
    fn new(n: usize) -> Self {
        Self { words: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Atomically claim bit `v`; true if this call set it.
    #[inline]
    fn claim(&self, v: usize) -> bool {
        let mask = 1u64 << (v % 64);
        self.words[v / 64].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    #[inline]
    fn test(&self, v: usize) -> bool {
        self.words[v / 64].load(Ordering::Relaxed) & (1 << (v % 64)) != 0
    }
}

/// Run one of the Baseline2 variants from `src` on a fresh pool.
pub fn hong_bfs(
    variant: HongVariant,
    graph: &CsrGraph,
    src: VertexId,
    threads: usize,
) -> BfsResult {
    let pool = LevelPool::new(threads);
    hong_bfs_on_pool(variant, graph, src, &pool)
}

/// Run one of the Baseline2 variants on an existing pool.
pub fn hong_bfs_on_pool(
    variant: HongVariant,
    graph: &CsrGraph,
    src: VertexId,
    pool: &LevelPool,
) -> BfsResult {
    let n = graph.num_vertices();
    assert!((src as usize) < n, "source {src} out of range for n={n}");
    let threads = pool.threads();
    match variant {
        HongVariant::ReadArray => read_array(graph, src, pool, threads),
        HongVariant::Queue => shared_queue(graph, src, pool, threads, false),
        HongVariant::QueueBitmap => shared_queue(graph, src, pool, threads, true),
        HongVariant::LocalQueueReadBitmap => local_queue_read_bitmap(graph, src, pool, threads),
        HongVariant::Hybrid => hybrid(graph, src, pool, threads),
    }
    .finish(n)
}

/// Internal accumulator shared by the variant drivers.
struct HongRun<'a> {
    levels: Vec<AtomicU32>,
    stats: Vec<ThreadStats>,
    depth: u32,
    t0: std::time::Instant,
    _graph: &'a CsrGraph,
}

impl HongRun<'_> {
    fn finish(self, n: usize) -> BfsResult {
        let traversal_time = self.t0.elapsed();
        let levels: Vec<u32> = (0..n).map(|v| self.levels[v].load(Ordering::Relaxed)).collect();
        BfsResult {
            levels,
            parents: None,
            stats: RunStats::from_threads(self.stats, self.depth + 1, traversal_time),
        }
    }
}

fn init_levels(n: usize, src: VertexId) -> Vec<AtomicU32> {
    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNVISITED)).collect();
    levels[src as usize].store(0, Ordering::Relaxed);
    levels
}

/// Read-based method: scan all vertices per level, no queues.
fn read_array<'a>(
    graph: &'a CsrGraph,
    src: VertexId,
    pool: &LevelPool,
    threads: usize,
) -> HongRun<'a> {
    let n = graph.num_vertices();
    let t0 = std::time::Instant::now();
    let levels = init_levels(n, src);
    let stats: Vec<_> = (0..threads).map(|_| AtomicStats::default()).collect();
    let found_next = AtomicBool::new(false);
    let depth = AtomicU32::new(0);
    pool.run(|ctx| {
        let tid = ctx.tid();
        let per = n.div_ceil(threads);
        let (lo, hi) = ((tid * per).min(n), ((tid + 1) * per).min(n));
        let mut d = 0u32;
        loop {
            let mut found = false;
            for v in lo..hi {
                if levels[v].load(Ordering::Relaxed) != d {
                    continue;
                }
                stats[tid].explored.fetch_add(1, Ordering::Relaxed);
                let neigh = graph.neighbors(v as VertexId);
                stats[tid].edges.fetch_add(neigh.len() as u64, Ordering::Relaxed);
                for &w in neigh {
                    // CAS claims exactly one discoverer per vertex.
                    if levels[w as usize]
                        .compare_exchange(UNVISITED, d + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        stats[tid].discovered.fetch_add(1, Ordering::Relaxed);
                        found = true;
                    }
                }
            }
            if found {
                found_next.store(true, Ordering::Relaxed);
            }
            let leader = ctx.barrier().wait();
            if leader {
                depth.store(d, Ordering::Relaxed);
            }
            ctx.barrier().wait_then(|| {});
            // Re-read after full synchronization.
            // ord: Acquire pairs with the workers' Release of `found_next`.
            let any = found_next.load(Ordering::Acquire);
            // ord: Release re-arms the cleared flag for the next level's Acquire re-read.
            ctx.barrier().wait_then(|| found_next.store(false, Ordering::Release));
            if !any {
                break;
            }
            d += 1;
        }
    })
    .unwrap_or_else(|e| panic!("worker pool failed: {e}"));
    HongRun {
        levels,
        stats: stats.iter().map(AtomicStats::snapshot).collect(),
        depth: depth.load(Ordering::Relaxed),
        t0,
        _graph: graph,
    }
}

/// Shared-queue method: one global frontier array per side, tail advanced
/// with fetch-add; optional visited bitmap.
fn shared_queue<'a>(
    graph: &'a CsrGraph,
    src: VertexId,
    pool: &LevelPool,
    threads: usize,
    use_bitmap: bool,
) -> HongRun<'a> {
    let n = graph.num_vertices();
    let t0 = std::time::Instant::now();
    let levels = init_levels(n, src);
    let bitmap = use_bitmap.then(|| Bitmap::new(n));
    if let Some(b) = &bitmap {
        b.claim(src as usize);
    }
    let stats: Vec<_> = (0..threads).map(|_| AtomicStats::default()).collect();
    let qa: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let qb: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    qa[0].store(src, Ordering::Relaxed);
    let in_size = AtomicUsize::new(1);
    let out_tail = AtomicUsize::new(0);
    let head = AtomicUsize::new(0);
    let depth = AtomicU32::new(0);
    pool.run(|ctx| {
        let tid = ctx.tid();
        let mut d = 0u32;
        let mut parity = 0usize;
        loop {
            let (qin, qout) = if parity == 0 { (&qa, &qb) } else { (&qb, &qa) };
            // ord: Acquire pairs with the leader's Release of `in_size` — makes the prior level's queue writes visible
            let size = in_size.load(Ordering::Acquire);
            loop {
                // Chunked atomic head advance (fetch_add — the RMW the
                // optimistic algorithms avoid).
                let chunk = 64.min(size);
                let start = head.fetch_add(chunk, Ordering::Relaxed);
                if start >= size {
                    break;
                }
                let end = (start + chunk).min(size);
                for slot in &qin[start..end] {
                    let v = slot.load(Ordering::Relaxed);
                    stats[tid].explored.fetch_add(1, Ordering::Relaxed);
                    let neigh = graph.neighbors(v);
                    stats[tid].edges.fetch_add(neigh.len() as u64, Ordering::Relaxed);
                    for &w in neigh {
                        let fresh = match &bitmap {
                            Some(b) => b.claim(w as usize),
                            None => levels[w as usize]
                                .compare_exchange(
                                    UNVISITED,
                                    d + 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok(),
                        };
                        if fresh {
                            if bitmap.is_some() {
                                levels[w as usize].store(d + 1, Ordering::Relaxed);
                            }
                            let slot = out_tail.fetch_add(1, Ordering::Relaxed);
                            qout[slot].store(w, Ordering::Relaxed);
                            stats[tid].discovered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            let mut next = 0usize;
            ctx.barrier().wait_then(|| {
                // ord: AcqRel — acquires every worker's tail bump, releases the zeroed tail for the next level
                next = out_tail.swap(0, Ordering::AcqRel);
                // ord: Release publishes the new frontier size to the workers' Acquire loads
                in_size.store(next, Ordering::Release);
                head.store(0, Ordering::Relaxed);
                depth.store(d, Ordering::Relaxed);
            });
            // ord: Acquire pairs with the leader's Release of `in_size` above
            if in_size.load(Ordering::Acquire) == 0 {
                break;
            }
            parity ^= 1;
            d += 1;
        }
    })
    .unwrap_or_else(|e| panic!("worker pool failed: {e}"));
    HongRun {
        levels,
        stats: stats.iter().map(AtomicStats::snapshot).collect(),
        depth: depth.load(Ordering::Relaxed),
        t0,
        _graph: graph,
    }
}

/// "Local queue + read + bitmap": per-thread output queues, read-based
/// frontier scan of the previous level's queues, CAS bitmap.
fn local_queue_read_bitmap<'a>(
    graph: &'a CsrGraph,
    src: VertexId,
    pool: &LevelPool,
    threads: usize,
) -> HongRun<'a> {
    let n = graph.num_vertices();
    let t0 = std::time::Instant::now();
    let levels = init_levels(n, src);
    let bitmap = Bitmap::new(n);
    bitmap.claim(src as usize);
    let stats: Vec<_> = (0..threads).map(|_| AtomicStats::default()).collect();
    // Per-thread queues, double-buffered.
    let make = || -> Vec<Vec<AtomicU32>> {
        (0..threads).map(|_| (0..n).map(|_| AtomicU32::new(0)).collect()).collect()
    };
    let qa = make();
    let qb = make();
    let sizes_a: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    let sizes_b: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    qa[(src as usize) % threads][0].store(src, Ordering::Relaxed);
    sizes_a[(src as usize) % threads].store(1, Ordering::Relaxed);
    let total = AtomicUsize::new(1);
    let depth = AtomicU32::new(0);
    pool.run(|ctx| {
        let tid = ctx.tid();
        let mut d = 0u32;
        let mut parity = 0usize;
        loop {
            let (qin, qout, sin, sout) = if parity == 0 {
                (&qa, &qb, &sizes_a, &sizes_b)
            } else {
                (&qb, &qa, &sizes_b, &sizes_a)
            };
            // Read-based: every thread reads ALL input queues but only
            // the indices it owns (static interleave), so no head atomics.
            let mut out = 0usize;
            for k in 0..threads {
                // ord: Acquire pairs with producer `k`'s Release of its size — orders its queue writes before our reads
                let size = sin[k].load(Ordering::Acquire);
                let mut i = tid;
                while i < size {
                    let v = qin[k][i].load(Ordering::Relaxed);
                    stats[tid].explored.fetch_add(1, Ordering::Relaxed);
                    let neigh = graph.neighbors(v);
                    stats[tid].edges.fetch_add(neigh.len() as u64, Ordering::Relaxed);
                    for &w in neigh {
                        if !bitmap.test(w as usize) && bitmap.claim(w as usize) {
                            levels[w as usize].store(d + 1, Ordering::Relaxed);
                            qout[tid][out].store(w, Ordering::Relaxed);
                            out += 1;
                            stats[tid].discovered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    i += threads;
                }
            }
            // ord: Release publishes this thread's queue writes under its size
            sout[tid].store(out, Ordering::Release);
            ctx.barrier().wait_then(|| {
                // ord: Acquire folds in every producer's Release-published count
                let sum: usize = sout.iter().map(|s| s.load(Ordering::Acquire)).sum();
                // ord: Release publishes the level total to the workers' Acquire loads
                total.store(sum, Ordering::Release);
                for s in sin {
                    // ord: Release — the cleared size is next level's producer baseline
                    s.store(0, Ordering::Release);
                }
                depth.store(d, Ordering::Relaxed);
            });
            // ord: Acquire pairs with the leader's Release of `total` above
            if total.load(Ordering::Acquire) == 0 {
                break;
            }
            parity ^= 1;
            d += 1;
        }
    })
    .unwrap_or_else(|e| panic!("worker pool failed: {e}"));
    HongRun {
        levels,
        stats: stats.iter().map(AtomicStats::snapshot).collect(),
        depth: depth.load(Ordering::Relaxed),
        t0,
        _graph: graph,
    }
}

/// Hybrid method: per level, pick the queue engine (small frontiers —
/// exact work, cache-friendly) or the read-based scan (huge frontiers —
/// no queue-tail contention, sequential memory order). The switch point
/// is `frontier > n / SCAN_DIVISOR`, mirroring the level-size test the
/// PACT'11 paper describes.
fn hybrid<'a>(graph: &'a CsrGraph, src: VertexId, pool: &LevelPool, threads: usize) -> HongRun<'a> {
    /// Frontier fraction above which the read-based scan engine runs.
    const SCAN_DIVISOR: usize = 16;
    let n = graph.num_vertices();
    let t0 = std::time::Instant::now();
    let levels = init_levels(n, src);
    let bitmap = Bitmap::new(n);
    bitmap.claim(src as usize);
    let stats: Vec<_> = (0..threads).map(|_| AtomicStats::default()).collect();
    // Queue engine storage (double-buffered shared queues).
    let qa: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let qb: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    qa[0].store(src, Ordering::Relaxed);
    let in_size = AtomicUsize::new(1);
    let out_tail = AtomicUsize::new(0);
    let head = AtomicUsize::new(0);
    let depth = AtomicU32::new(0);
    // When the scan engine ran, the next level's frontier only exists in
    // `levels`; the queue engine then needs a rebuild pass.
    let frontier_in_queues = AtomicUsize::new(1); // 1 = qin holds the frontier

    pool.run(|ctx| {
        let tid = ctx.tid();
        let per = n.div_ceil(threads);
        let (lo, hi) = ((tid * per).min(n), ((tid + 1) * per).min(n));
        let mut d = 0u32;
        let mut parity = 0usize;
        loop {
            // ord: Acquire pairs with the leader's Release of `in_size` — makes the prior level's queue writes visible
            let frontier = in_size.load(Ordering::Acquire);
            let scan_level = frontier > n / SCAN_DIVISOR;
            let (qin, qout) = if parity == 0 { (&qa, &qb) } else { (&qb, &qa) };
            if scan_level {
                // Read-based engine over this thread's vertex range.
                for v in lo..hi {
                    if levels[v].load(Ordering::Relaxed) != d {
                        continue;
                    }
                    stats[tid].explored.fetch_add(1, Ordering::Relaxed);
                    let neigh = graph.neighbors(v as VertexId);
                    stats[tid].edges.fetch_add(neigh.len() as u64, Ordering::Relaxed);
                    for &w in neigh {
                        if !bitmap.test(w as usize) && bitmap.claim(w as usize) {
                            levels[w as usize].store(d + 1, Ordering::Relaxed);
                            let slot = out_tail.fetch_add(1, Ordering::Relaxed);
                            qout[slot].store(w, Ordering::Relaxed);
                            stats[tid].discovered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            } else {
                // Queue engine. If the previous level ran the scan engine,
                // qin already holds its discoveries (both engines push to
                // qout), so no rebuild is needed — the flag documents the
                // invariant.
                debug_assert_eq!(frontier_in_queues.load(Ordering::Relaxed), 1);
                let size = frontier;
                loop {
                    let chunk = 64.min(size.max(1));
                    let start = head.fetch_add(chunk, Ordering::Relaxed);
                    if start >= size {
                        break;
                    }
                    let end = (start + chunk).min(size);
                    for slot in &qin[start..end] {
                        let v = slot.load(Ordering::Relaxed);
                        stats[tid].explored.fetch_add(1, Ordering::Relaxed);
                        let neigh = graph.neighbors(v);
                        stats[tid].edges.fetch_add(neigh.len() as u64, Ordering::Relaxed);
                        for &w in neigh {
                            if !bitmap.test(w as usize) && bitmap.claim(w as usize) {
                                levels[w as usize].store(d + 1, Ordering::Relaxed);
                                let slot = out_tail.fetch_add(1, Ordering::Relaxed);
                                qout[slot].store(w, Ordering::Relaxed);
                                stats[tid].discovered.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
            ctx.barrier().wait_then(|| {
                // ord: AcqRel — acquires every worker's tail bump, releases the zeroed tail for the next level
                let next = out_tail.swap(0, Ordering::AcqRel);
                // ord: Release publishes the new frontier size to the workers' Acquire loads
                in_size.store(next, Ordering::Release);
                head.store(0, Ordering::Relaxed);
                depth.store(d, Ordering::Relaxed);
                frontier_in_queues.store(1, Ordering::Relaxed);
            });
            // ord: Acquire pairs with the leader's Release of `in_size` above
            if in_size.load(Ordering::Acquire) == 0 {
                break;
            }
            parity ^= 1;
            d += 1;
        }
    })
    .unwrap_or_else(|e| panic!("worker pool failed: {e}"));
    HongRun {
        levels,
        stats: stats.iter().map(AtomicStats::snapshot).collect(),
        depth: depth.load(Ordering::Relaxed),
        t0,
        _graph: graph,
    }
}

/// Shared-memory stats accumulators (the baselines may hit them from any
/// worker; contention is irrelevant for correctness-focused counters).
#[derive(Default)]
struct AtomicStats {
    explored: AtomicU64,
    edges: AtomicU64,
    discovered: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ThreadStats {
        ThreadStats {
            vertices_explored: self.explored.load(Ordering::Relaxed),
            edges_scanned: self.edges.load(Ordering::Relaxed),
            vertices_discovered: self.discovered.load(Ordering::Relaxed),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_core::serial::serial_bfs;
    use obfs_graph::gen;

    fn check(variant: HongVariant, g: &CsrGraph, src: u32, threads: usize) {
        let r = hong_bfs(variant, g, src, threads);
        let ser = serial_bfs(g, src);
        assert_eq!(r.levels, ser.levels, "{variant} (p={threads}, src={src})");
    }

    #[test]
    fn all_variants_match_serial_on_random_graph() {
        let g = gen::erdos_renyi(700, 5000, 3);
        for v in HongVariant::ALL {
            check(v, &g, 0, 4);
        }
    }

    #[test]
    fn all_variants_on_path_and_star() {
        for v in HongVariant::ALL {
            check(v, &gen::path(150), 0, 3);
            check(v, &gen::star(300), 1, 3);
        }
    }

    #[test]
    fn all_variants_single_thread() {
        for v in HongVariant::ALL {
            check(v, &gen::cycle(60), 2, 1);
        }
    }

    #[test]
    fn queue_variants_on_dense_graph() {
        // Dense graphs maximize duplicate-discovery races on the queue
        // tail and the bitmap.
        let g = gen::complete(80);
        check(HongVariant::Queue, &g, 0, 6);
        check(HongVariant::QueueBitmap, &g, 0, 6);
        check(HongVariant::LocalQueueReadBitmap, &g, 0, 6);
    }

    #[test]
    fn disconnected_graph() {
        let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (5, 6)]);
        for v in HongVariant::ALL {
            let r = hong_bfs(v, &g, 0, 2);
            assert_eq!(r.levels[2], 2, "{v}");
            assert_eq!(r.levels[5], UNVISITED, "{v}");
        }
    }

    #[test]
    fn exactly_one_discovery_per_vertex() {
        // CAS/bitmap claims mean no duplicate discoveries, unlike the
        // optimistic algorithms.
        let g = gen::erdos_renyi(500, 4000, 9);
        for v in HongVariant::ALL {
            let r = hong_bfs(v, &g, 0, 4);
            assert_eq!(
                r.stats.totals.vertices_discovered as usize,
                r.reached() - 1,
                "{v}: discoveries must equal reached-1"
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            HongVariant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), HongVariant::ALL.len());
    }

    #[test]
    fn hybrid_switches_engines_and_stays_correct() {
        // Binary tree: frontier doubles each level and crosses n/16, so
        // both engines run within one traversal.
        check(HongVariant::Hybrid, &gen::binary_tree(4095), 0, 4);
        // Dense graph: level 1 is nearly everything (scan engine).
        check(HongVariant::Hybrid, &gen::complete(120), 0, 4);
        // Deep path: frontier of 1, queue engine only.
        check(HongVariant::Hybrid, &gen::path(300), 0, 3);
    }
}
