//! Work-stealing BFS: BFSW / BFSWL (paper §IV-B.1, §IV-B.2) and the
//! two-phase scale-free variants BFSWS / BFSWSL (§IV-B.3, §IV-B.4).
//!
//! Thread `t` starts each level owning the whole of `Qin[t]` as one
//! segment `(q=t, f=0, r=rear)`. When a thread runs dry it picks random
//! victims (up to `c·p·log p` attempts) and steals the right half of the
//! victim's remaining segment.
//!
//! * **Locked** (BFSW): the victim's segment descriptor is protected by a
//!   per-thread lock; the owner also pops under its own lock, so segments
//!   are handed out exactly once.
//! * **Lock-free** (BFSWL): the thief snapshots `(q, f, r)` with plain
//!   loads, sanity-checks `f' < r' ≤ Qin[q'].rear`, then writes its own
//!   descriptor and the victim's `r` with plain stores. Races can produce
//!   stale or overlapping segments; the zero-on-read sentinel protocol
//!   turns those into bounded duplicate work, and the owner never checks
//!   its own `r` while walking — it stops only at a cleared slot — so a
//!   corrupted `r` can never hide live vertices.
//!
//! The scale-free variants split each level into two phases: phase 1
//! explores low-degree vertices with stealing and diverts hubs
//! (degree > threshold) into per-thread hub lists; after a barrier,
//! phase 2 explores the hubs' adjacency lists split evenly across all
//! threads (or, with [`crate::BfsOptions::phase2_steal`], via optimistic
//! edge-segment dispatch — the alternative the paper found usually
//! slower).

// lint:protocol racy — descriptor snapshots and segment publishes are
// plain stores; thieves and owners reconcile through the zero-on-read
// sentinel, so claims below must revalidate or carry a waiver.

use crate::driver::{take_slot, LevelEnv, Strategy};
use crate::frontier::{decode, EMPTY_SLOT};
use crate::state::RunState;
use crate::stats::StealFail;
use crate::worker::Worker;
use obfs_graph::VertexId;
use obfs_runtime::WorkerCtx;
use obfs_util::Xoshiro256StarStar;

/// Minimum victim segment length worth stealing: a steal of a shorter
/// segment fails as "segment too small" (a Table VI bucket).
const STEAL_MIN: usize = 4;

/// Strategy covering all four work-stealing variants.
pub struct WorkStealing {
    /// Use per-victim locks (BFSW/BFSWS) instead of optimistic stealing.
    pub locked: bool,
    /// Enable the two-phase hub handling (BFSWS/BFSWSL).
    pub scale_free: bool,
}

impl Strategy for WorkStealing {
    fn level_start(&self, env: &LevelEnv<'_, '_>, tid: usize) {
        // Claim my own queue as a single segment. The barrier after
        // level_start publishes these before anyone can steal.
        let rear = env.st.qin(env.parity).queue(tid).rear();
        env.st.descs[tid].set(tid, 0, rear);
    }

    fn consume(&self, env: &LevelEnv<'_, '_>, ctx: &WorkerCtx<'_>, wk: &mut Worker<'_>) {
        // ---- phase 1: vertex exploration with stealing ----
        let mut seg = OwnedSegment { q: wk.tid, f: 0, r: env.st.descs[wk.tid].r.load() };
        loop {
            if self.locked {
                self.walk_locked(env, &mut seg, wk);
            } else {
                self.walk_sentinel(env, &mut seg, wk);
            }
            if env.st.watchdog_tripped() {
                break; // leader sweep finishes the level
            }
            match self.steal(env, wk) {
                Some(stolen) => seg = stolen,
                None => break, // budget exhausted: quit this level
            }
        }
        // ---- phase 2 (scale-free only): hub adjacency splitting ----
        if self.scale_free {
            let st = env.st;
            wk.wait(ctx.barrier(), |_| {
                // SAFETY: barrier serial section — exclusive access.
                unsafe {
                    let flat = st.flat_vertices.get_mut();
                    let prefix = st.flat_prefix.get_mut();
                    flat.clear();
                    prefix.clear();
                    let mut acc = 0u64;
                    for t in 0..st.threads {
                        for &h in st.hubs.get(t).iter() {
                            flat.push(h);
                            prefix.push(acc);
                            acc += st.graph.degree(h) as u64;
                        }
                    }
                    prefix.push(acc);
                    st.edge_cursor.store(0);
                }
            });
            // SAFETY: own slot only.
            unsafe { st.hubs.get_mut(wk.tid) }.clear();
            if st.opts.phase2_steal {
                self.hub_phase_stealing(env, wk);
            } else {
                self.hub_phase_static(env, wk);
            }
            // All threads finish hub work before the driver's level-end
            // barrier counts the next frontier (that barrier follows).
        }
    }
}

/// The thread-local view of the segment being walked.
pub(crate) struct OwnedSegment {
    pub(crate) q: usize,
    pub(crate) f: usize,
    /// Kept for symmetry with the shared descriptor, but deliberately
    /// never consulted while walking: the paper's owners stop only at a
    /// cleared slot, never at their own rear (which thieves may corrupt).
    #[allow(dead_code)]
    pub(crate) r: usize,
}

impl WorkStealing {
    // lint:region hot-path:walk-sentinel
    /// Lock-free owner walk: consume by sentinel, publishing `f` after
    /// every pop, never checking `r`.
    pub(crate) fn walk_sentinel(
        &self,
        env: &LevelEnv<'_, '_>,
        seg: &mut OwnedSegment,
        wk: &mut Worker<'_>,
    ) {
        let st = env.st;
        let queue = st.qin(env.parity).queue(seg.q);
        let desc = &st.descs[wk.tid];
        loop {
            match take_slot(queue, seg.f) {
                Some(v) => {
                    seg.f += 1;
                    // racy-ok: single-writer — the owner alone advances its `f`
                    desc.f.store(seg.f);
                    self.process_pop(st, v, env.level, seg.q, wk);
                }
                None => {
                    if seg.f < queue.rear() {
                        wk.stale_abort(env.level, seg.q, seg.f);
                    }
                    return;
                }
            }
        }
    }
    // lint:endregion

    // lint:region baseline:walk-locked
    /// Locked owner walk: pop indices under the owner's lock so thieves
    /// and owner see a consistent `(f, r)`.
    fn walk_locked(&self, env: &LevelEnv<'_, '_>, seg: &mut OwnedSegment, wk: &mut Worker<'_>) {
        let st = env.st;
        let qin = st.qin(env.parity);
        let desc = &st.descs[wk.tid];
        loop {
            let (q, idx) = {
                let _g = st.desc_locks[wk.tid].lock();
                wk.stats.lock_acquisitions += 1;
                let f = desc.f.load();
                let r = desc.r.load();
                if f >= r {
                    return;
                }
                // racy-ok: under the owner's own descriptor lock
                desc.f.store(f + 1);
                (desc.q.load(), f)
            };
            seg.q = q;
            let v = decode(qin.queue(q).slot(idx));
            self.process_pop(st, v, env.level, q, wk);
        }
    }
    // lint:endregion

    /// Shared pop handling: dedup admit, duplicate accounting, hub
    /// diversion, exploration.
    #[inline]
    fn process_pop(
        &self,
        st: &RunState<'_>,
        v: VertexId,
        level: u32,
        from_queue: usize,
        wk: &mut Worker<'_>,
    ) {
        if !st.pop_admit(v, from_queue, wk) {
            return;
        }
        st.note_pop(v, level, wk);
        if self.scale_free && st.graph.degree(v) > st.hub_threshold {
            // SAFETY: own slot only.
            unsafe { st.hubs.get_mut(wk.tid) }.push(v);
            return;
        }
        st.explore_vertex(v, level, wk);
    }

    /// Try to steal until success or budget exhaustion.
    fn steal(&self, env: &LevelEnv<'_, '_>, wk: &mut Worker<'_>) -> Option<OwnedSegment> {
        let st = env.st;
        let p = st.threads;
        if p <= 1 {
            return None;
        }
        let budget = st.opts.retry_budget(p);
        let mut wd_retries = 0u64;
        for _ in 0..budget {
            if st.watchdog_retry(&mut wd_retries) {
                return None; // degraded: stop searching for work
            }
            let attempt_timer = wk.timer();
            let victim = match &st.opts.topology {
                Some(t) => t.numa_victim(wk.tid, 0.75, &mut wk.rng)?,
                None => uniform_victim(wk.tid, p, &mut wk.rng),
            };
            let stolen = if self.locked {
                self.try_steal_locked(env, victim, wk)
            } else {
                self.try_steal_optimistic(env, wk.tid, victim)
            };
            match stolen {
                Ok(seg) => {
                    wk.steal_succeeded(attempt_timer, env.level, victim, seg.r - seg.f);
                    return Some(seg);
                }
                Err(why) => wk.steal_failed(attempt_timer, env.level, victim, why),
            }
        }
        None
    }

    // lint:region baseline:steal-locked
    /// BFSW steal: lock the victim, cut its right half exactly.
    fn try_steal_locked(
        &self,
        env: &LevelEnv<'_, '_>,
        victim: usize,
        wk: &mut Worker<'_>,
    ) -> Result<OwnedSegment, StealFail> {
        let st = env.st;
        let vd = &st.descs[victim];
        let (q, mid, r) = {
            let Some(_g) = st.desc_locks[victim].try_lock() else {
                return Err(StealFail::Locked);
            };
            wk.stats.lock_acquisitions += 1;
            let f = vd.f.load();
            let r = vd.r.load();
            if f >= r {
                return Err(StealFail::Idle);
            }
            if r - f < STEAL_MIN {
                return Err(StealFail::TooSmall);
            }
            let mid = f + (r - f) / 2;
            // racy-ok: under the victim's descriptor lock
            vd.r.store(mid);
            (vd.q.load(), mid, r)
        };
        // Publish my new segment under my own lock (thieves may be
        // reading my descriptor). Never hold two locks at once.
        {
            let _g = st.desc_locks[wk.tid].lock();
            wk.stats.lock_acquisitions += 1;
            // racy-ok: under this thread's own descriptor lock
            st.descs[wk.tid].set(q, mid, r);
        }
        Ok(OwnedSegment { q, f: mid, r })
    }
    // lint:endregion

    // lint:region hot-path:steal-snapshot
    /// BFSWL steal: snapshot, sanity-check, publish with plain stores
    /// (paper §IV-B.2).
    pub(crate) fn try_steal_optimistic(
        &self,
        env: &LevelEnv<'_, '_>,
        tid: usize,
        victim: usize,
    ) -> Result<OwnedSegment, StealFail> {
        let st = env.st;
        let qin = st.qin(env.parity);
        let (q, f, r) = st.descs[victim].snapshot();
        if f >= r {
            return Err(StealFail::Idle);
        }
        // Sanity check: f < r (above) and r within the victim queue's
        // immutable level rear. A mixed snapshot (victim moved queues
        // between our three loads) fails here and we retry elsewhere.
        if q >= st.threads || r > qin.queue(q).rear() {
            return Err(StealFail::Invalid);
        }
        if r - f < STEAL_MIN {
            return Err(StealFail::TooSmall);
        }
        let mid = f + (r - f) / 2;
        // Publish: my descriptor first, then shrink the victim. Plain
        // stores — overlapping thieves produce duplicate segments, which
        // the sentinel walk bounds.
        // racy-ok: optimistic publish after the snapshot sanity checks above
        st.descs[tid].set(q, mid, r);
        // racy-ok: optimistic rear shrink — overlap is bounded duplicate work
        st.descs[victim].r.store(mid);
        if qin.queue(q).slot(mid) == EMPTY_SLOT {
            // Already consumed: the snapshot was stale.
            return Err(StealFail::Stale);
        }
        Ok(OwnedSegment { q, f: mid, r })
    }
    // lint:endregion

    /// Phase 2, static split: thread `tid` explores the `tid`-th chunk of
    /// every hub's adjacency list (paper §IV-B.3 first variant).
    fn hub_phase_static(&self, env: &LevelEnv<'_, '_>, wk: &mut Worker<'_>) {
        let st = env.st;
        let (tid, p) = (wk.tid, st.threads);
        // SAFETY: read-only between the build barrier and the level-end
        // barrier.
        let flat = unsafe { st.flat_vertices.get() };
        for &h in flat {
            let neigh = st.graph.neighbors(h);
            let len = neigh.len();
            st.explore_edges(h, &neigh[len * tid / p..len * (tid + 1) / p], env.level, wk);
        }
    }

    /// Phase 2, stealing split: optimistic dispatch over the concatenated
    /// hub edge array via the shared racy edge cursor (the paper's second
    /// §IV-B.3 variant, generalized to edge segments).
    fn hub_phase_stealing(&self, env: &LevelEnv<'_, '_>, wk: &mut Worker<'_>) {
        let st = env.st;
        // SAFETY: read-only between barriers.
        let flat = unsafe { st.flat_vertices.get() };
        // SAFETY: read-only between barriers, as above.
        let prefix = unsafe { st.flat_prefix.get() };
        crate::ext::consume_edge_ranges(st, flat, prefix, env.level, wk);
    }
}

/// Uniform random victim != `tid` among `p` threads (`p >= 2`).
#[inline]
pub(crate) fn uniform_victim(tid: usize, p: usize, rng: &mut Xoshiro256StarStar) -> usize {
    let mut v = rng.below_usize(p - 1);
    if v >= tid {
        v += 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{Algorithm, BfsOptions};
    use crate::run_bfs;
    use crate::serial::serial_bfs;
    use obfs_graph::gen;

    /// Drive the optimistic steal sanity checks directly with adversarial
    /// descriptor states — the unit-level encoding of DESIGN.md §7.3.
    mod adversarial_steal {
        use super::*;
        use crate::state::RunState;
        use crate::stats::StealFail;

        fn env_with_frontier(n: usize) -> (obfs_graph::CsrGraph, BfsOptions) {
            let g = gen::path(n);
            let o = BfsOptions { threads: 4, ..Default::default() };
            (g, o)
        }

        fn fill_queue(st: &RunState<'_>, q: usize, count: usize) {
            let queue = st.qin(0).queue(q);
            let mut rear = 0;
            for v in 0..count as u32 {
                queue.push(&mut rear, v);
            }
        }

        fn strategy() -> WorkStealing {
            WorkStealing { locked: false, scale_free: false }
        }

        /// Tally a steal that must fail the way the dispatcher does, so
        /// each case checks the Table VI bucket its reason lands in.
        fn tally(wk: &mut Worker<'_>, got: Result<OwnedSegment, StealFail>) {
            match got {
                Ok(seg) => panic!("steal must fail, took {:?}", (seg.q, seg.f, seg.r)),
                Err(why) => wk.steal_failed(None, 0, 1, why),
            }
        }

        #[test]
        fn invalid_rear_beyond_queue_is_rejected() {
            let (g, o) = env_with_frontier(64);
            let st = RunState::new(&g, &o);
            fill_queue(&st, 1, 10);
            // Victim claims a segment whose rear exceeds the queue's
            // immutable level rear (a mixed snapshot).
            st.descs[1].set(1, 2, 50);
            let env = LevelEnv { st: &st, parity: 0, level: 0 };
            let mut wk = Worker::new(&st.opts, 0, st.qout(0).queue(0), std::time::Instant::now());
            tally(&mut wk, strategy().try_steal_optimistic(&env, 0, 1));
            assert_eq!(wk.stats.steal.invalid, 1);
            assert_eq!(wk.stats.steal.failed(), 1);
        }

        #[test]
        fn idle_victim_is_classified_idle() {
            let (g, o) = env_with_frontier(64);
            let st = RunState::new(&g, &o);
            fill_queue(&st, 1, 10);
            st.descs[1].set(1, 10, 10); // exhausted
            let env = LevelEnv { st: &st, parity: 0, level: 0 };
            let mut wk = Worker::new(&st.opts, 0, st.qout(0).queue(0), std::time::Instant::now());
            tally(&mut wk, strategy().try_steal_optimistic(&env, 0, 1));
            assert_eq!(wk.stats.steal.victim_idle, 1);
            // f > r (descriptor dragged backwards) is also idle, not UB.
            st.descs[1].set(1, 9, 4);
            tally(&mut wk, strategy().try_steal_optimistic(&env, 0, 1));
            assert_eq!(wk.stats.steal.victim_idle, 2);
            assert_eq!(wk.stats.steal.failed(), 2);
        }

        #[test]
        fn too_small_segment_is_rejected() {
            let (g, o) = env_with_frontier(64);
            let st = RunState::new(&g, &o);
            fill_queue(&st, 2, 10);
            st.descs[2].set(2, 8, 9); // one element < STEAL_MIN
            let env = LevelEnv { st: &st, parity: 0, level: 0 };
            let mut wk = Worker::new(&st.opts, 0, st.qout(0).queue(0), std::time::Instant::now());
            tally(&mut wk, strategy().try_steal_optimistic(&env, 0, 2));
            assert_eq!(wk.stats.steal.too_small, 1);
            assert_eq!(wk.stats.steal.failed(), 1);
        }

        #[test]
        fn stale_segment_detected_by_cleared_slot() {
            let (g, o) = env_with_frontier(64);
            let st = RunState::new(&g, &o);
            fill_queue(&st, 1, 10);
            // Simulate another thief having consumed the right half.
            for i in 5..10 {
                st.qin(0).queue(1).clear_slot(i);
            }
            st.descs[1].set(1, 0, 10);
            let env = LevelEnv { st: &st, parity: 0, level: 0 };
            let mut wk = Worker::new(&st.opts, 0, st.qout(0).queue(0), std::time::Instant::now());
            tally(&mut wk, strategy().try_steal_optimistic(&env, 0, 1));
            assert_eq!(wk.stats.steal.stale, 1);
            assert_eq!(wk.stats.steal.failed(), 1);
            // The victim's rear was still shrunk (as in the real race).
            assert_eq!(st.descs[1].r.load(), 5);
        }

        #[test]
        fn valid_steal_takes_right_half_and_updates_both_descriptors() {
            let (g, o) = env_with_frontier(64);
            let st = RunState::new(&g, &o);
            fill_queue(&st, 3, 12);
            st.descs[3].set(3, 2, 12);
            let env = LevelEnv { st: &st, parity: 0, level: 0 };
            let seg = strategy().try_steal_optimistic(&env, 0, 3).expect("valid steal");
            assert_eq!((seg.q, seg.f, seg.r), (3, 7, 12));
            assert_eq!(st.descs[3].snapshot(), (3, 2, 7), "victim keeps the left half");
            assert_eq!(st.descs[0].snapshot(), (3, 7, 12), "thief published its segment");
        }

        /// The chaos backend's encoding of the same adversary: a plan
        /// that skews *every* tagged index read fabricates the `r'` the
        /// thief snapshots (including `usize::MAX / 4`-scale probes).
        /// Every attempt must land in a sanity-failure bucket — no
        /// panic, no out-of-bounds slot read, no accepted steal.
        #[cfg(feature = "chaos")]
        #[test]
        fn chaos_skewed_snapshot_is_rejected_by_sanity_check() {
            let (g, o) = env_with_frontier(64);
            let st = RunState::new(&g, &o);
            fill_queue(&st, 1, 32);
            st.descs[1].set(1, 0, 32); // perfectly valid victim state
            let cfg = obfs_sync::ChaosConfig {
                skew_chance: 1.0,
                skew_max: 1 << 30,
                ..obfs_sync::ChaosConfig::skew_only(7)
            };
            let plan = obfs_sync::chaos::install(&cfg, 0, None, None);
            let env = LevelEnv { st: &st, parity: 0, level: 0 };
            let mut wk = Worker::new(&st.opts, 0, st.qout(0).queue(0), std::time::Instant::now());
            for _ in 0..64 {
                // A fabricated snapshot must never be stolen.
                tally(&mut wk, strategy().try_steal_optimistic(&env, 0, 1));
            }
            let injected = obfs_sync::chaos::faults_injected();
            plan.finish();
            assert!(injected >= 64, "every snapshot should have been skewed");
            assert_eq!(wk.stats.steal.success, 0);
            assert!(wk.stats.steal.invalid > 0, "no skew ever hit `f' < r' <= rear`");
            assert!(wk.stats.steal.is_consistent());
        }

        #[test]
        fn locked_steal_fails_cleanly_on_held_lock() {
            let (g, o) = env_with_frontier(64);
            let st = RunState::new(&g, &o);
            fill_queue(&st, 1, 10);
            st.descs[1].set(1, 0, 10);
            let env = LevelEnv { st: &st, parity: 0, level: 0 };
            let strat = WorkStealing { locked: true, scale_free: false };
            let _held = st.desc_locks[1].lock();
            let mut wk = Worker::new(&st.opts, 0, st.qout(0).queue(0), std::time::Instant::now());
            let got = strat.try_steal_locked(&env, 1, &mut wk);
            tally(&mut wk, got);
            assert_eq!(wk.stats.steal.victim_locked, 1);
            assert_eq!(wk.stats.steal.failed(), 1);
            assert_eq!(st.descs[1].snapshot(), (1, 0, 10), "victim untouched");
        }
    }

    fn opts(threads: usize) -> BfsOptions {
        BfsOptions { threads, ..Default::default() }
    }

    fn check(algo: Algorithm, g: &obfs_graph::CsrGraph, src: u32, o: &BfsOptions) {
        let par = run_bfs(algo, g, src, o);
        let ser = serial_bfs(g, src);
        assert_eq!(par.levels, ser.levels, "{algo} vs serial (src={src})");
    }

    #[test]
    fn bfsw_matches_serial() {
        let o = opts(4);
        check(Algorithm::Bfsw, &gen::path(300), 0, &o);
        check(Algorithm::Bfsw, &gen::erdos_renyi(600, 4000, 1), 3, &o);
        check(Algorithm::Bfsw, &gen::binary_tree(255), 0, &o);
    }

    #[test]
    fn bfswl_matches_serial() {
        let o = opts(4);
        check(Algorithm::Bfswl, &gen::path(300), 5, &o);
        check(Algorithm::Bfswl, &gen::erdos_renyi(600, 4000, 2), 0, &o);
        check(Algorithm::Bfswl, &gen::complete(50), 1, &o);
    }

    #[test]
    fn scale_free_variants_match_serial_on_hub_graphs() {
        // Star: one extreme hub. Threshold forces the hub path.
        let o = BfsOptions { threads: 4, hub_threshold: Some(10), ..Default::default() };
        check(Algorithm::Bfsws, &gen::star(500), 0, &o);
        check(Algorithm::Bfswsl, &gen::star(500), 0, &o);
        // Start from a leaf so the hub is discovered, queued, then split.
        check(Algorithm::Bfsws, &gen::star(500), 7, &o);
        check(Algorithm::Bfswsl, &gen::star(500), 7, &o);
        // Power-law graph with many hubs.
        let g = gen::barabasi_albert(800, 3, 9);
        check(Algorithm::Bfsws, &g, 0, &o);
        check(Algorithm::Bfswsl, &g, 0, &o);
    }

    #[test]
    fn phase2_stealing_variant_matches_serial() {
        let o = BfsOptions {
            threads: 4,
            hub_threshold: Some(8),
            phase2_steal: true,
            ..Default::default()
        };
        check(Algorithm::Bfswsl, &gen::star(400), 2, &o);
        check(Algorithm::Bfswsl, &gen::barabasi_albert(600, 3, 4), 0, &o);
        check(Algorithm::Bfsws, &gen::barabasi_albert(600, 3, 4), 0, &o);
    }

    #[test]
    fn single_thread_work_stealing() {
        let o = opts(1);
        check(Algorithm::Bfsw, &gen::cycle(80), 0, &o);
        check(Algorithm::Bfswl, &gen::cycle(80), 0, &o);
        check(Algorithm::Bfswsl, &gen::star(100), 0, &o);
    }

    #[test]
    fn steal_counters_consistent() {
        let g = gen::erdos_renyi(2000, 16_000, 5);
        for algo in [Algorithm::Bfsw, Algorithm::Bfswl] {
            let r = run_bfs(algo, &g, 0, &opts(8));
            let s = r.stats.totals.steal;
            assert!(s.is_consistent(), "{algo}: {s:?}");
            if algo == Algorithm::Bfswl {
                assert_eq!(s.victim_locked, 0, "lock-free cannot fail on locks");
            }
        }
    }

    #[test]
    #[should_panic(expected = "describes 8 workers but threads = 4")]
    fn mismatched_topology_is_rejected_not_ub() {
        // A topology describing more workers than the run has would let
        // victim selection index out of the descriptor array; the options
        // validation must refuse it up front with a clear message.
        let o = BfsOptions {
            threads: 4,
            topology: Some(obfs_runtime::Topology::blocked(8, 2)),
            ..Default::default()
        };
        let g = gen::path(10);
        let _ = run_bfs(Algorithm::Bfswl, &g, 0, &o);
    }

    #[test]
    fn numa_topology_still_correct() {
        let o = BfsOptions {
            threads: 8,
            topology: Some(obfs_runtime::Topology::blocked(8, 2)),
            ..Default::default()
        };
        check(Algorithm::Bfswl, &gen::erdos_renyi(1000, 8000, 8), 0, &o);
        check(Algorithm::Bfsw, &gen::erdos_renyi(1000, 8000, 8), 0, &o);
    }

    #[test]
    fn wide_frontier_forces_steals() {
        // Binary tree rooted at 0: frontier doubles; queue 0 gets all of
        // it initially (single-source level 0), so steals must happen.
        let g = gen::binary_tree(4095);
        let r = run_bfs(Algorithm::Bfswl, &g, 0, &opts(8));
        let ser = serial_bfs(&g, 0);
        assert_eq!(r.levels, ser.levels);
        assert!(
            r.stats.totals.steal.attempts > 0,
            "8 threads on one seeded queue must attempt steals"
        );
    }
}
