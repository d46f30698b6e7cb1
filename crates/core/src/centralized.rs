//! Centralized-queue BFS: BFSC (global lock) and BFSCL (optimistic
//! lock-free), paper §IV-A.1 and §IV-A.2.
//!
//! Both dispatch *segments* of the queue array to threads. BFSC guards
//! the global cursor `⟨q, f⟩` with one lock. BFSCL keeps a global racy
//! queue pointer `q` and per-queue racy `front` cursors and updates them
//! with plain loads/stores; conflicting updates can move cursors
//! backwards, which only re-opens already-consumed (zeroed) segments.
//!
//! ## Why racy dispatch loses no vertices (the no-gap invariant)
//!
//! The segment length is a *pure function* of the observed front: two
//! threads that read the same `f` compute the same segment `[f, g(f))`
//! where `g(f) = f + s(r - f)`. Hence every value ever stored into
//! `front` lies on the deterministic orbit `f₀, g(f₀), g(g(f₀)), …`, and
//! segments either coincide exactly or are disjoint — partial overlap is
//! impossible. Within one segment, every slot is zeroed by exactly the
//! walker that read it live, and that walker explores it; co-walkers of
//! the same segment abort at the first slot they find already zeroed.
//! Therefore every slot is explored at least once, duplicates are
//! bounded by segment replays, and a 0 can never hide live work behind
//! it — exactly the argument sketched in the paper.
//!
//! **Do not make the segment length depend on anything but `(f, r, p)`**;
//! a time- or thread-dependent length breaks the orbit property and can
//! drop vertices.

// lint:protocol racy — the lock-free dispatcher publishes cursors with
// plain stores; the zero-on-read sentinel walk absorbs every stale view.

use crate::driver::{take_slot, LevelEnv, Strategy};
use crate::frontier::{decode, QueueSet, EMPTY_SLOT};
use crate::state::RunState;
use crate::stats::ThreadStats;
use obfs_runtime::WorkerCtx;
use obfs_util::Xoshiro256StarStar;

/// BFSC — centralized dispatch with a global lock.
pub struct CentralLocked;

impl Strategy for CentralLocked {
    fn serial_prepare(&self, env: &LevelEnv<'_, '_>) {
        let mut cur = env.st.central_lock.lock();
        cur.q = 0;
        cur.f = 0;
    }

    // lint:region baseline:central-locked
    fn consume(
        &self,
        env: &LevelEnv<'_, '_>,
        _ctx: &WorkerCtx<'_>,
        tid: usize,
        out_rear: &mut usize,
        _rng: &mut Xoshiro256StarStar,
        ts: &mut ThreadStats,
    ) {
        let st = env.st;
        let qin = st.qin(env.parity);
        let p = st.threads;
        let out = st.qout(env.parity).queue(tid);
        loop {
            if st.watchdog_tripped() {
                return; // leader sweep finishes the level
            }
            let fetch_timer = obfs_sync::metrics::timer();
            // --- critical section: advance ⟨q, f⟩ and cut a segment ---
            let (k, f0, end) = {
                let mut cur = st.central_lock.lock();
                ts.lock_acquisitions += 1;
                while cur.q < p && cur.f >= qin.queue(cur.q).rear() {
                    cur.q += 1;
                    cur.f = 0;
                }
                if cur.q >= p {
                    return; // level exhausted
                }
                let r = qin.queue(cur.q).rear();
                let s = st.opts.segment.segment_len(r - cur.f, p);
                let (k, f0) = (cur.q, cur.f);
                let end = (f0 + s).min(r);
                cur.f = end;
                (k, f0, end)
            };
            ts.segment_fetched(fetch_timer, None, env.level, k as u64, (end - f0) as u64);
            let queue = qin.queue(k);
            for i in f0..end {
                // Locked dispatch hands out disjoint ranges of live slots;
                // no clearing, no sentinel checks needed.
                let v = decode(queue.slot(i));
                if !st.pop_admit(v, k, ts) {
                    continue;
                }
                st.note_pop(v, env.level, ts);
                st.explore_vertex(v, env.level, tid, out, out_rear, ts);
            }
        }
    }
    // lint:endregion
}

/// BFSCL — centralized dispatch, optimistic lock-free.
pub struct CentralLockfree;

impl Strategy for CentralLockfree {
    fn serial_prepare(&self, env: &LevelEnv<'_, '_>) {
        env.st.pool_cursors[0].store(0);
    }

    fn consume(
        &self,
        env: &LevelEnv<'_, '_>,
        _ctx: &WorkerCtx<'_>,
        tid: usize,
        out_rear: &mut usize,
        _rng: &mut Xoshiro256StarStar,
        ts: &mut ThreadStats,
    ) {
        let st = env.st;
        let qin = st.qin(env.parity);
        let out = st.qout(env.parity).queue(tid);
        consume_pool_lockfree(st, qin, 0, (0, st.threads), env.level, tid, out_rear, out, ts);
    }
}

// lint:region hot-path:central-fetch
/// Shared lock-free pool consumer: drains queues `[range.0, range.1)`
/// using the racy cursor `st.pool_cursors[pool]`. Used by BFSCL (one pool
/// over all queues) and BFSDL (several pools).
///
/// Returns when the pool appears exhausted from this thread's view.
#[allow(clippy::too_many_arguments)]
pub(crate) fn consume_pool_lockfree(
    st: &RunState<'_>,
    qin: &QueueSet,
    pool: usize,
    range: (usize, usize),
    level: u32,
    out_queue_id: usize,
    out_rear: &mut usize,
    out: &crate::frontier::FrontierQueue,
    ts: &mut ThreadStats,
) {
    let cursor = &st.pool_cursors[pool];
    let (start, end_q) = range;
    let mut wd_retries = 0u64;
    loop {
        if st.watchdog_tripped() {
            return; // leader sweep finishes the level
        }
        let fetch_timer = obfs_sync::metrics::timer();
        let mut retry_burst = 0u64;
        // --- optimistic fetch (paper §IV-A.2) ---
        let mut k = cursor.load().clamp(start, end_q);
        let (k, f0, s) = loop {
            // Scan for the leftmost queue with unconsumed entries.
            let queue = loop {
                if k >= end_q {
                    return; // pool exhausted (from our view)
                }
                let q = qin.queue(k);
                if q.front() < q.rear() {
                    break q;
                }
                k += 1;
            };
            // Re-read the front (another thread may have raced us here).
            let f = queue.front();
            let r = queue.rear();
            if f >= r {
                ts.fetch_retried(level, k, false);
                retry_burst += 1;
                if st.watchdog_retry(&mut wd_retries) {
                    return; // retry budget exhausted: degrade the level
                }
                continue;
            }
            // Segment length must be the pure function of (f, r, p) — see
            // the module-level no-gap invariant.
            let s = st.opts.segment.segment_len(r - f, st.threads);
            // Publish: advance the shared pointers with plain stores.
            // Racing threads may drag them backwards; that only re-opens
            // zeroed segments.
            // racy-ok: optimistic cursor publish — stale views re-open only zeroed segments
            cursor.store(k);
            queue.set_front(f + s);
            break (k, f, s);
        };
        ts.segment_fetched(fetch_timer, Some(retry_burst), level, k as u64, s as u64);
        // --- walk the segment under the zero-on-read protocol ---
        let queue = qin.queue(k);
        let live_end = queue.rear(); // for stale accounting only
        for i in f0..f0 + s {
            match take_slot(queue, i) {
                Some(v) => {
                    if !st.pop_admit(v, k, ts) {
                        continue;
                    }
                    st.note_pop(v, level, ts);
                    st.explore_vertex(v, level, out_queue_id, out, out_rear, ts);
                }
                None => {
                    if i < live_end {
                        // Cleared mid-queue: segment replayed or co-walked.
                        ts.stale_abort(level, k, i);
                    }
                    break;
                }
            }
        }
        debug_assert_ne!(EMPTY_SLOT, 1);
    }
}
// lint:endregion

#[cfg(test)]
mod tests {
    use crate::options::{Algorithm, BfsOptions, SegmentPolicy};
    use crate::serial::serial_bfs;
    use crate::{run_bfs, UNVISITED};
    use obfs_graph::gen;

    fn check(algo: Algorithm, g: &obfs_graph::CsrGraph, src: u32, opts: &BfsOptions) {
        let par = run_bfs(algo, g, src, opts);
        let ser = serial_bfs(g, src);
        assert_eq!(par.levels, ser.levels, "{algo} disagrees with serial (src={src})");
    }

    #[test]
    fn bfsc_matches_serial_on_varied_graphs() {
        let opts = BfsOptions { threads: 4, ..Default::default() };
        check(Algorithm::Bfsc, &gen::path(200), 0, &opts);
        check(Algorithm::Bfsc, &gen::star(100), 3, &opts);
        check(Algorithm::Bfsc, &gen::erdos_renyi(500, 2500, 1), 0, &opts);
        check(Algorithm::Bfsc, &gen::binary_tree(127), 0, &opts);
    }

    #[test]
    fn bfscl_matches_serial_on_varied_graphs() {
        let opts = BfsOptions { threads: 4, ..Default::default() };
        check(Algorithm::Bfscl, &gen::path(200), 7, &opts);
        check(Algorithm::Bfscl, &gen::complete(60), 0, &opts);
        check(Algorithm::Bfscl, &gen::erdos_renyi(500, 2500, 2), 9, &opts);
        check(Algorithm::Bfscl, &gen::barabasi_albert(400, 3, 5), 0, &opts);
    }

    #[test]
    fn bfscl_tiny_segments_force_contention() {
        // Segment length 1 maximizes cursor races.
        let opts = BfsOptions {
            threads: 8,
            segment: SegmentPolicy::Fixed(1),
            ..Default::default()
        };
        for seed in 0..5 {
            let g = gen::erdos_renyi(300, 1800, seed);
            check(Algorithm::Bfscl, &g, (seed % 300) as u32, &opts);
        }
    }

    #[test]
    fn bfsc_single_thread_equals_serial() {
        let opts = BfsOptions { threads: 1, ..Default::default() };
        let g = gen::cycle(50);
        check(Algorithm::Bfsc, &g, 10, &opts);
        check(Algorithm::Bfscl, &g, 10, &opts);
    }

    #[test]
    fn disconnected_graph_handled() {
        let g = obfs_graph::CsrGraph::from_edges(10, &[(0, 1), (1, 2), (5, 6)]);
        let opts = BfsOptions { threads: 3, ..Default::default() };
        let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
        assert_eq!(r.levels[2], 2);
        assert_eq!(r.levels[5], UNVISITED);
        assert_eq!(r.reached(), 3);
    }

    /// Chaos-deferred cursor stores make workers observe mixed `⟨f, r⟩`
    /// views of the centralized dispatcher; the `f' >= r'` sanity check
    /// must absorb every one as a counted retry while the traversal
    /// stays exact — the centralized counterpart of the work-steal
    /// snapshot adversary.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_stale_cursors_hit_fetch_sanity_check() {
        let mut retries = 0u64;
        for seed in 0..6u64 {
            let g = gen::erdos_renyi(300, 2100, seed);
            let opts = BfsOptions {
                threads: 4,
                segment: SegmentPolicy::Fixed(1),
                chaos: Some(obfs_sync::ChaosConfig::aggressive(seed)),
                ..Default::default()
            };
            let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
            let ser = serial_bfs(&g, 0);
            assert_eq!(r.levels, ser.levels, "seed {seed}");
            retries += r.stats.totals.fetch_retries;
        }
        assert!(retries > 0, "stale cursors never reached the sanity check");
    }

    #[test]
    fn stats_are_sane() {
        let g = gen::erdos_renyi(400, 3200, 3);
        let opts = BfsOptions { threads: 4, ..Default::default() };
        let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
        let reached = r.reached() as u64;
        assert!(r.stats.totals.vertices_explored >= reached - 1);
        assert!(r.stats.totals.segments_fetched > 0);
        assert_eq!(r.stats.per_thread.len(), 4);
        // Locked variant must report lock traffic, lock-free must not.
        let rl = run_bfs(Algorithm::Bfsc, &g, 0, &opts);
        assert!(rl.stats.totals.lock_acquisitions > 0);
        assert_eq!(r.stats.totals.lock_acquisitions, 0);
    }
}
