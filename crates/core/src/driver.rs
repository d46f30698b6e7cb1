//! The level-synchronous driver shared by every parallel BFS variant.
//!
//! Two entry points run an [`Algorithm`] on a caller's pool:
//! [`try_run_on_pool`] for one source and [`try_run_batch_on_pool`] for
//! up to [`crate::MAX_BATCH`] sources in one traversal. Both look the
//! algorithm's [`Strategy`] up in one table (one indirect call per level
//! per worker, never per vertex) and share one level loop; `run_bfs`,
//! `run_batch` and `BfsRunner` wrap them and panic on a pool failure.
//!
//! Per level, every worker:
//! 1. runs the strategy's `level_start` hook (reset its segment
//!    descriptor, pick a pool, ...), then waits at the barrier;
//! 2. consumes Qin according to the leader's plan for the level
//!    (bottom-up, compacted, or the strategy's dispatcher), pushing
//!    discoveries into its private output queue `Qout[tid]`;
//! 3. snapshots its counters and waits at the barrier; the last arriver
//!    (leader) runs the serial section: appends the level to the run's
//!    level log, sums the new frontier size, and plans the next level
//!    (direction, compaction);
//! 4. if the plan says stop the run ends; otherwise each worker resets
//!    its old input queue (which becomes its next output queue), the
//!    parity flips, and the leader lets the strategy build any
//!    leader-side work lists for the next level.
//!
//! The barrier at step 1 makes the descriptors and resets of step 4
//! visible before anyone consumes; the barrier at step 3 publishes all
//! level-`d` writes (including the benign-racy `level[]` stores) before
//! level `d+1` begins — that is the synchronization point that bounds the
//! paper's races to within a single level.

use crate::frontier::decode;
use crate::options::{Algorithm, BfsOptions, Direction};
use crate::perthread::PerThread;
use crate::state::{LevelPlan, RunBuffers, RunState};
use crate::stats::{LevelStats, Outcome, RunStats, ThreadStats};
use crate::worksteal::WorkStealing;
use crate::{BfsResult, UNVISITED};
use obfs_graph::{CsrGraph, VertexId};
use obfs_runtime::{LevelPool, PoolError, WorkerCtx};
use obfs_sync::worker::{WorkerDump, WorkerHooks};
use obfs_sync::{flight, CancelCause};
use obfs_util::Xoshiro256StarStar;

/// Per-thread, per-level working context handed to strategies.
pub struct LevelEnv<'r, 'g> {
    /// The shared run state.
    pub st: &'r RunState<'g>,
    /// Current queue parity: `st.qin(parity)` is this level's input.
    pub parity: usize,
    /// Current BFS level (depth of the vertices being consumed).
    pub level: u32,
}

/// One BFS algorithm's per-level behaviour. The driver owns everything
/// else (init, barriers, swap, termination, stats).
pub trait Strategy: Sync {
    /// Per-thread hook before the level's consumption barrier. Typical
    /// use: reset this thread's segment descriptor from its input queue.
    fn level_start(&self, _env: &LevelEnv<'_, '_>, _tid: usize) {}

    /// Leader-only hook, run inside the barrier serial section right
    /// before a level begins (after queues were reset and parity
    /// flipped). `env` describes the *upcoming* level.
    fn serial_prepare(&self, _env: &LevelEnv<'_, '_>) {}

    /// Consume the level. May use `ctx.barrier()` for internal phases as
    /// long as every thread performs the same number of waits.
    fn consume(
        &self,
        env: &LevelEnv<'_, '_>,
        ctx: &WorkerCtx<'_>,
        tid: usize,
        out_rear: &mut usize,
        rng: &mut Xoshiro256StarStar,
        ts: &mut ThreadStats,
    );
}

/// The strategy behind each parallel algorithm; `None` for serial BFS,
/// which never enters the level loop.
fn strategy(algo: Algorithm) -> Option<&'static dyn Strategy> {
    Some(match algo {
        Algorithm::Serial => return None,
        Algorithm::Bfsc => &crate::centralized::CentralLocked,
        Algorithm::Bfscl => &crate::centralized::CentralLockfree,
        Algorithm::Bfsdl => &crate::decentralized::Decentralized,
        Algorithm::Bfsw => &WorkStealing { locked: true, scale_free: false },
        Algorithm::Bfswl => &WorkStealing { locked: false, scale_free: false },
        Algorithm::Bfsws => &WorkStealing { locked: true, scale_free: true },
        Algorithm::Bfswsl => &WorkStealing { locked: false, scale_free: true },
        Algorithm::EdgeCl => &crate::ext::EdgePartitioned,
    })
}

/// Run `algo` from `src` on `pool`; `opts.threads` must equal the pool
/// width. Hybrid bottom-up levels probe `transpose`, which must be
/// `graph.transpose()` (or the graph itself for symmetric graphs;
/// benchmarks amortize it across runs). It is ignored unless
/// [`BfsOptions::hybrid`] is set; a hybrid run given none builds one
/// before the traversal timer starts. A worker panic comes back as `Err`
/// (the pool is then poisoned), which is what the query engine needs to
/// retry on a rebuilt pool.
pub fn try_run_on_pool<'g>(
    algo: Algorithm,
    graph: &'g CsrGraph,
    src: VertexId,
    opts: &BfsOptions,
    pool: &LevelPool,
    transpose: Option<&'g CsrGraph>,
) -> Result<BfsResult, PoolError> {
    let Some(strategy) = strategy(algo) else {
        return Ok(crate::serial::serial_bfs_with_opts(graph, src, opts));
    };
    assert_eq!(opts.threads, pool.threads(), "BfsOptions::threads must match the pool size");
    let n = graph.num_vertices();
    assert!((src as usize) < n, "source {src} out of range for n={n}");
    let bufs = RunBuffers::take(pool, n, opts, true);
    let st = RunState::from_buffers(graph, opts, transpose, bufs, None);
    // A pool failure drops the buffers with `st`: a half-run level loop
    // leaves the queues in no known state.
    let stats = drive_shared(strategy, &st, src, pool)?;
    let levels: Vec<u32> = (0..n).map(|v| st.levels.get(v)).collect();
    let parents = st
        .parents
        .as_ref()
        .map(|p| (0..n).map(|v| p.get(v)).collect::<Vec<VertexId>>());
    debug_assert!(levels[src as usize] == 0);
    debug_assert!(parents.as_ref().is_none_or(|p| p[src as usize] == src));
    // An aborted run may have partially consumed its last level L,
    // labeling some vertices L+1 == stats.levels before quiescing.
    let max_label = stats.levels + u32::from(stats.partial);
    debug_assert!(
        levels.iter().all(|&l| l == UNVISITED || l < max_label),
        "level exceeds executed level count"
    );
    st.into_buffers().park(pool);
    Ok(BfsResult { levels, parents, stats })
}

/// Batch counterpart of [`try_run_on_pool`]: one traversal over the
/// union frontier answers every source in `sources` (1..=64, see
/// [`crate::batch`]). `Algorithm::Serial` degrades to a loop of serial
/// runs; for every parallel variant the level loop, dispatchers,
/// watchdog and cancellation run unchanged — only the seed section and
/// the per-vertex discovery kernel differ.
pub fn try_run_batch_on_pool<'g>(
    algo: Algorithm,
    graph: &'g CsrGraph,
    sources: &[VertexId],
    opts: &BfsOptions,
    pool: &LevelPool,
    transpose: Option<&'g CsrGraph>,
) -> Result<crate::batch::BatchResult, PoolError> {
    let Some(strategy) = strategy(algo) else {
        return Ok(crate::batch::serial_batch(graph, sources, opts));
    };
    assert_eq!(opts.threads, pool.threads(), "BfsOptions::threads must match the pool size");
    let n = graph.num_vertices();
    let bufs = RunBuffers::take(pool, n, opts, false);
    let st = RunState::from_buffers(graph, opts, transpose, bufs, Some(sources));
    let stats = drive_shared(strategy, &st, 0, pool)?;
    let b = st.batch.as_ref().expect("batch state armed by from_buffers");
    let queries = crate::batch::extract_results(b, n);
    st.into_buffers().park(pool);
    for qr in &queries {
        debug_assert_eq!(qr.levels[qr.source as usize], 0);
        debug_assert!(qr
            .parents
            .as_ref()
            .is_none_or(|p| p[qr.source as usize] == qr.source));
    }
    Ok(crate::batch::BatchResult { queries, stats })
}

/// The shared driver body: seeds the frontier (single-source or batched,
/// depending on how `st` was constructed), runs the level loop on the
/// pool, and assembles [`RunStats`]. Label extraction is the caller's
/// job (`src` is ignored for batch-mode state).
fn drive_shared(
    strategy: &dyn Strategy,
    st: &RunState<'_>,
    src: VertexId,
    pool: &LevelPool,
) -> Result<RunStats, PoolError> {
    let threads = st.threads;
    let live = PerThread::new(threads, |_| ThreadStats::default());
    // Per-level counter snapshots: each worker copies its cumulative
    // ThreadStats here right before the level-end barrier so the leader
    // can merge a consistent cross-thread view without aliasing the
    // workers' live `&mut` stats.
    let snaps = PerThread::new(threads, |_| ThreadStats::default());
    // What each worker's hooks recorded (flight ring, histograms),
    // filled by the worker on exit.
    let dumps = PerThread::new(threads, |_| WorkerDump::default());

    let t0 = std::time::Instant::now();
    pool.run(|ctx| {
        let tid = ctx.tid();
        // SAFETY: each worker touches only its own slot while the region
        // is active.
        let ts = unsafe { live.get_mut(tid) };
        let mut rng = Xoshiro256StarStar::for_stream(st.opts.seed, tid as u64);
        // The run's thread-local hooks, removed by `finish` below or by
        // the guard's drop if this worker unwinds. The fault plan gets one
        // PRNG stream per worker and the run's token, so a worker wedged
        // in an injected stall still sees cancellation; the flight ring
        // shares the epoch `t0` so all workers' timelines line up. (Chaos
        // and flight are no-ops unless built with their features.)
        let hooks = WorkerHooks::install(
            st.opts.chaos.as_ref(),
            tid as u64,
            st.opts.cancel.as_ref(),
            st.opts.flight_recorder.map(|cap| (cap, t0)),
            st.opts.collect_histograms,
        );
        flight::record(flight::kind::WORKER_BEGIN, 0, tid as u64, 0);

        st.init_chunk(tid);
        ctx.barrier().wait_then(|| {
            // Seed the frontier: each source goes into the queue it hashes
            // to, so the work-stealing variants start at a "random" owner.
            let (seeded, seed_edges) = match &st.batch {
                Some(b) => {
                    // Batch seeds: claim level-0 slots per query, merge
                    // duplicate sources, push each distinct vertex once
                    // (pushed_at doubles as the in-section dedup).
                    let mut rears = vec![0usize; st.threads];
                    let mut seeded = 0usize;
                    let mut seed_edges = 0u64;
                    for (q, &s) in b.sources.iter().enumerate() {
                        let v = s as usize;
                        b.levels.set(v * b.k + q, 0);
                        if let Some(p) = &b.parents {
                            p.set(v * b.k + q, s);
                        }
                        b.visited_by.set(v, b.visited_by.get(v) | (1 << q));
                        if b.pushed_at.get(v) != 0 {
                            b.pushed_at.set(v, 0);
                            let qi = v % st.threads;
                            st.qin(0).queue(qi).push(&mut rears[qi], s);
                            seeded += 1;
                            seed_edges += st.graph.degree(s) as u64;
                        }
                    }
                    flight::record(flight::kind::BATCH, 0, b.k as u64, seeded as u64);
                    (seeded, seed_edges)
                }
                None => {
                    let q0 = (src as usize) % st.threads;
                    st.levels.set(src as usize, 0);
                    if let Some(p) = &st.parents {
                        p.set(src as usize, src);
                    }
                    if let Some(o) = &st.owner {
                        o.set(src as usize, q0 as u32 + 1);
                    }
                    let queue = st.qin(0).queue(q0);
                    let mut rear = 0usize;
                    queue.push(&mut rear, src);
                    (1, st.graph.degree(src) as u64)
                }
            };
            // SAFETY: barrier serial section.
            unsafe { plan_level(st, 0, seeded, seed_edges, true) };
            strategy.serial_prepare(&LevelEnv { st, parity: 0, level: 0 });
            // SAFETY: barrier serial section.
            unsafe { st.watchdog_arm() };
        });

        let mut parity = 0usize;
        let mut level = 0u32;
        let mut out_rear = 0usize;
        loop {
            // SAFETY: written only in the previous barrier's serial
            // section; read only between barriers.
            let plan = unsafe { *st.plan.get() };
            if plan.direction == Direction::BottomUp {
                // Rebuild this worker's share of the frontier bitmap from
                // the level[] stores the last barrier published (under
                // chaos, that barrier also flushed every deferred store —
                // including the leader's degraded-sweep writes).
                st.fill_bitmap_chunk(level, tid);
            } else if plan.compacted {
                // Compaction pass 1 (see crate::scan): rebuild the
                // compaction bitmap and per-chunk popcounts from the same
                // published level[] stores; the level-start barrier below
                // publishes them for the materialize pass.
                st.compact_fill_chunk(level, tid);
            }
            let env = LevelEnv { st, parity, level };
            strategy.level_start(&env, tid);
            ctx.barrier().wait();
            flight::record(
                flight::kind::LEVEL_START,
                level,
                st.qin(parity).queue(tid).rear() as u64,
                0,
            );
            if plan.direction == Direction::BottomUp {
                // All threads take this branch (they read the same cell),
                // so strategies with internal barriers stay aligned.
                st.bottom_up_level(
                    level,
                    tid,
                    st.qout(parity).queue(tid),
                    &mut out_rear,
                    ts,
                );
            } else if plan.compacted {
                // Compaction passes 2+3 + consume. Every thread reads the
                // same plan, so all of them cross this internal barrier
                // together (it publishes the materialized frontier array
                // before the static-partition consume).
                st.compact_materialize(tid);
                ctx.barrier().wait();
                st.compact_consume(
                    level,
                    tid,
                    st.qout(parity).queue(tid),
                    &mut out_rear,
                    ts,
                );
            } else {
                strategy.consume(&env, &ctx, tid, &mut out_rear, &mut rng, ts);
            }
            flight::record(flight::kind::LEVEL_END, level, 0, 0);
            if st.opts.chaos.is_some() {
                // Keep injected_faults cumulative at level granularity so
                // the per-level deltas stay conservative. (Nothing between
                // here and the barrier injects: quiesce only flushes.)
                ts.injected_faults = obfs_sync::chaos::faults_injected();
            }
            // SAFETY: own slot only; the borrow ends before the barrier,
            // where the leader reads every slot.
            unsafe { *snaps.get_mut(tid) = *ts };
            ctx.barrier().wait_then(|| {
                // The run-abort decision is made HERE, once, by the
                // leader: workers must agree on which iteration exits the
                // level loop or the barrier counts diverge. A cancelled
                // run is not swept — its partially-consumed input queue
                // is exactly what the partial-state contract hands back.
                let cause = st.cancel_cause();
                if let Some(c) = cause {
                    // SAFETY: barrier serial section.
                    unsafe { *st.run_abort.get_mut() = Some(c) };
                    flight::record(
                        flight::kind::CANCEL,
                        level,
                        match c {
                            CancelCause::Cancelled => flight::kind::CANCEL_EXPLICIT,
                            CancelCause::DeadlineExceeded => flight::kind::CANCEL_DEADLINE,
                        },
                        0,
                    );
                }
                let degraded = cause.is_none() && st.watchdog_tripped();
                if degraded {
                    // Degraded level: finish it serially before counting
                    // the next frontier. SAFETY: barrier serial section.
                    unsafe {
                        st.serial_finish_level(
                            parity,
                            level,
                            tid,
                            st.qout(parity).queue(tid),
                            &mut out_rear,
                            ts,
                        );
                    }
                    flight::record(flight::kind::DEGRADED, level, 0, 0);
                }
                let produced = st.qout(parity).total_entries();
                if st.opts.chaos.is_some() {
                    // The sweep and the count above may have injected;
                    // re-snapshot the leader's count so this level's delta
                    // includes it.
                    ts.injected_faults = obfs_sync::chaos::faults_injected();
                }
                // SAFETY: barrier serial section; every peer published its
                // snapshot before arriving, and the leader refreshes its
                // own (the sweep above may have added to its counters).
                unsafe {
                    *snaps.get_mut(tid) = *ts;
                    let mf = close_level(st, &snaps, level, plan, produced, degraded);
                    plan_level(st, level + 1, produced, mf, cause.is_none() && produced > 0);
                }
            });
            // SAFETY: written only in the serial section of the barrier
            // every worker just crossed; read-only until the next one.
            if unsafe { st.plan.get() }.stop {
                // Frontier exhausted, or a leader-published abort: all
                // workers observe it on the same iteration and quiesce
                // together.
                break;
            }
            // My old input queue becomes my next output queue.
            st.qin(parity).queue(tid).reset();
            out_rear = 0;
            parity ^= 1;
            level += 1;
            ctx.barrier().wait_then(|| {
                strategy.serial_prepare(&LevelEnv { st, parity, level });
                // SAFETY: barrier serial section.
                unsafe { st.watchdog_arm() };
            });
        }
        flight::record(flight::kind::WORKER_END, 0, tid as u64, 0);
        // This worker's faults stay those of its last level snapshot:
        // the handful of racy ops after the final level barrier would
        // otherwise break the sum(level deltas) == totals invariant.
        let dump = hooks.finish();
        // SAFETY: own slot only.
        unsafe { *dumps.get_mut(tid) = dump };
    })?;
    let traversal_time = t0.elapsed();

    // SAFETY: workers are done (pool.run returned); no serial section can
    // be touching the cells.
    let (log, abort_cause) = unsafe { (st.log.get_mut(), *st.run_abort.get()) };
    let levels = std::mem::take(&mut log.entries);
    let mut stats = RunStats::from_threads(live.into_values(), levels.len() as u32, traversal_time);
    debug_assert_eq!(log.prev_totals, stats.totals, "level deltas must sum to the run totals");
    stats.partial = abort_cause.is_some();
    stats.degraded_levels = levels.iter().filter(|l| l.degraded).count() as u32;
    stats.compacted_levels = levels.iter().filter(|l| l.compacted).count() as u32;
    stats.outcome = match abort_cause {
        Some(CancelCause::Cancelled) => Outcome::Cancelled,
        Some(CancelCause::DeadlineExceeded) => Outcome::DeadlineExceeded,
        None if stats.degraded_levels > 0 => Outcome::Degraded,
        None => Outcome::Complete,
    };
    if st.hyb.is_some() {
        stats.directions = levels.iter().map(|l| l.direction).collect();
        stats.direction_switches =
            stats.directions.windows(2).filter(|w| w[0] != w[1]).count() as u32;
    }
    // Every parallel run resolves a backend (serial BFS never reaches
    // this driver, so its reports honestly say `None`).
    stats.kernel_backend = Some(st.scan_backend);
    if st.opts.collect_level_stats {
        stats.level_stats = levels;
    }
    let (rings, hists): (Vec<_>, Vec<_>) =
        dumps.into_values().into_iter().map(|d| (d.ring, d.hists)).unzip();
    if rings.iter().any(Option::is_some) {
        // Only present when the recorder actually captured something —
        // i.e. requested AND built with the `trace` feature — so callers
        // can distinguish "feature off" from "empty trace".
        stats.flight = Some(crate::flight::FlightRecording {
            workers: rings.into_iter().map(Option::unwrap_or_default).collect(),
        });
    }
    if st.opts.collect_histograms {
        stats.hists = Some(crate::stats::RunHists {
            workers: hists.into_iter().map(|h| *h.unwrap_or_default()).collect(),
        });
    }
    Ok(stats)
}

/// Leader-only, at the end of level `level`: append the level to the
/// run's log (every worker's counters merged from `snaps`, diffed
/// against the previous boundary) and publish its edge delta and the
/// level count to the run's telemetry. Returns the edge volume of the
/// next frontier (`mf`), the hybrid rule's input.
///
/// # Safety
/// Call only from a barrier serial section, after every worker has
/// published its snapshot in `snaps`.
unsafe fn close_level(
    st: &RunState<'_>,
    snaps: &PerThread<ThreadStats>,
    level: u32,
    plan: LevelPlan,
    produced: usize,
    degraded: bool,
) -> u64 {
    let log = st.log.get_mut();
    let mut sum = ThreadStats::default();
    for k in 0..st.threads {
        sum.merge(snaps.get(k));
    }
    let counters = sum.diff(&log.prev_totals);
    log.prev_totals = sum;
    log.entries.push(LevelStats {
        level,
        frontier: log.frontier_in,
        discovered: produced,
        duration: log.mark.elapsed(),
        degraded,
        direction: plan.direction,
        compacted: plan.compacted,
        counters,
    });
    if let Some(t) = &st.opts.telemetry {
        t.levels.inc();
        t.edges.add(counters.edges_scanned);
    }
    counters.frontier_edges
}

/// Leader-only: plan level `level`, whose frontier holds `frontier` queue
/// entries with edge volume `mf`, and write the plan to the plan cell —
/// the one place level 0 (from the seed section) and every later level
/// get their direction and compaction decided. `go_on` is false when no
/// level follows (empty frontier or a cancelled run): the plan then only
/// says stop. Publishes the decisions: the `DIR_SWITCH` and `COMPACT`
/// flight events and the run telemetry's level, frontier and direction
/// gauges.
///
/// # Safety
/// Call only from a barrier serial section.
unsafe fn plan_level(st: &RunState<'_>, level: u32, frontier: usize, mf: u64, go_on: bool) {
    let n = st.graph.num_vertices() as u64;
    let prev = *st.plan.get();
    let mut plan = LevelPlan { stop: !go_on, direction: prev.direction, compacted: false };
    if go_on {
        if let (Some(hyb), Some(pol)) = (&st.hyb, st.opts.hybrid) {
            let ctl = hyb.ctl.get_mut();
            if level > 0 {
                // Beamer's bookkeeping order: retire the frontier's edges
                // from mu first, then decide. (Level 0's seeds were never
                // discovered, so mu = m for its decision.)
                ctl.unexplored_edges -= mf.min(ctl.unexplored_edges);
            }
            let nf = frontier as u64;
            plan.direction =
                pol.decide(prev.direction, nf, mf, ctl.prev_mf, ctl.unexplored_edges, n);
            ctl.prev_mf = mf;
            if level > 0 && plan.direction != prev.direction {
                let code = |d: Direction| match d {
                    Direction::TopDown => flight::kind::DIR_TOP_DOWN,
                    Direction::BottomUp => flight::kind::DIR_BOTTOM_UP,
                };
                flight::record(
                    flight::kind::DIR_SWITCH,
                    level,
                    code(plan.direction),
                    code(prev.direction),
                );
            }
        }
        if let (Some(_), Some(pol)) = (&st.compact, st.opts.compaction) {
            // Compact only a top-down level of a run that continues, so
            // every level planned compacted runs compacted.
            plan.compacted =
                plan.direction == Direction::TopDown && pol.decide(frontier as u64, n);
            if plan.compacted {
                if let Some(t) = &st.opts.telemetry {
                    t.compacted_levels.inc();
                }
                flight::record(
                    flight::kind::COMPACT,
                    level,
                    frontier as u64,
                    st.scan_backend.code(),
                );
            }
        }
    }
    *st.plan.get_mut() = plan;
    let log = st.log.get_mut();
    log.frontier_in = frontier;
    log.mark = std::time::Instant::now();
    if let Some(t) = &st.opts.telemetry {
        // A mid-run scrape sees the frontier size and direction of the
        // level about to start.
        if level == 0 {
            t.traversals.inc();
        }
        t.level.set(i64::from(level));
        t.frontier.set(frontier as i64);
        t.direction.set(i64::from(plan.direction == Direction::BottomUp));
    }
}

// lint:region hot-path:take-slot
/// Walk helper used by the lock-free consumers: read slot `i` of `queue`,
/// returning `None` if it holds the sentinel, clearing it otherwise.
/// (Separated out so the optimistic variants share one implementation of
/// the zero-on-read protocol.)
#[inline]
pub(crate) fn take_slot(
    queue: &crate::frontier::FrontierQueue,
    i: usize,
) -> Option<VertexId> {
    if i >= queue.capacity() {
        return None;
    }
    let s = queue.slot(i);
    if s == crate::frontier::EMPTY_SLOT {
        return None;
    }
    queue.clear_slot(i);
    Some(decode(s))
}
// lint:endregion

#[cfg(test)]
mod tests {
    use crate::options::{Algorithm, BfsOptions};
    use crate::run_bfs;
    use crate::stats::Outcome;
    use obfs_graph::gen;
    use obfs_sync::{CancelToken, Clock};

    #[test]
    fn pre_cancelled_token_yields_cancelled_partial_result() {
        let g = gen::binary_tree(1023);
        let serial = crate::serial::serial_bfs(&g, 0);
        for algo in [Algorithm::Bfscl, Algorithm::Bfswl, Algorithm::Bfswsl, Algorithm::EdgeCl] {
            let clock = Clock::wall();
            let tok = CancelToken::new(&clock);
            tok.cancel(); // before the run even starts
            let opts = BfsOptions {
                threads: 3,
                record_parents: true,
                clock: clock.clone(),
                cancel: Some(tok),
                ..Default::default()
            };
            let r = run_bfs(algo, &g, 0, &opts);
            assert_eq!(r.stats.outcome, Outcome::Cancelled, "{algo}");
            assert!(r.stats.partial, "{algo}");
            // The leader publishes the abort at the first level-end
            // barrier: exactly one level runs.
            assert_eq!(r.stats.levels, 1, "{algo}: quiesce within one level");
            crate::validate::check_partial(&g, 0, &r, &serial.levels)
                .unwrap_or_else(|e| panic!("{algo}: partial state broken: {e}"));
        }
    }

    #[test]
    fn expired_deadline_on_frozen_clock_is_deterministic() {
        let g = gen::erdos_renyi(400, 2800, 3);
        let serial = crate::serial::serial_bfs(&g, 0);
        let (clock, hand) = Clock::manual();
        hand.set_ns(1_000);
        let tok = CancelToken::with_deadline_at(&clock, 500); // already past
        let opts = BfsOptions {
            threads: 4,
            record_parents: true,
            clock,
            cancel: Some(tok),
            ..Default::default()
        };
        let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
        assert_eq!(r.stats.outcome, Outcome::DeadlineExceeded);
        assert!(r.stats.partial);
        assert_eq!(r.stats.levels, 1);
        crate::validate::check_partial(&g, 0, &r, &serial.levels).unwrap();
    }

    #[test]
    fn unexpired_deadline_on_frozen_clock_completes() {
        let g = gen::erdos_renyi(400, 2800, 3);
        let (clock, _hand) = Clock::manual(); // frozen at 0: deadline never passes
        let tok = CancelToken::with_deadline_at(&clock, 1);
        let opts =
            BfsOptions { threads: 4, clock, cancel: Some(tok), ..Default::default() };
        let r = run_bfs(Algorithm::Bfswsl, &g, 0, &opts);
        assert_eq!(r.stats.outcome, Outcome::Complete);
        assert!(!r.stats.partial);
        assert_eq!(r.levels, crate::serial::serial_bfs(&g, 0).levels);
    }

    #[test]
    fn watchdog_deadline_reads_the_injected_clock() {
        // Satellite proof: the watchdog and cancellation share one Clock.
        // A frozen manual clock can never trip a nonzero watchdog
        // deadline; a zero deadline trips every level — both without a
        // single wall-clock read.
        let g = gen::binary_tree(255);
        let (clock, _hand) = Clock::manual();
        let base = BfsOptions { threads: 3, clock, ..Default::default() };
        let relaxed = BfsOptions {
            watchdog: Some(crate::options::WatchdogPolicy::deadline(
                std::time::Duration::from_millis(1),
            )),
            ..base.clone()
        };
        let r = run_bfs(Algorithm::Bfscl, &g, 0, &relaxed);
        assert_eq!(r.stats.degraded_levels, 0, "frozen clock cannot trip");
        assert_eq!(r.stats.outcome, Outcome::Complete);
        let strict = BfsOptions {
            watchdog: Some(crate::options::WatchdogPolicy::deadline(
                std::time::Duration::ZERO,
            )),
            ..base
        };
        let r = run_bfs(Algorithm::Bfscl, &g, 0, &strict);
        assert_eq!(r.stats.degraded_levels, r.stats.levels, "every level degrades");
        assert_eq!(r.stats.outcome, Outcome::Degraded);
        assert!(!r.stats.partial, "degraded is a full traversal");
        assert_eq!(r.levels, crate::serial::serial_bfs(&g, 0).levels);
    }

    #[test]
    fn cancelled_hybrid_run_keeps_direction_bookkeeping_aligned() {
        let g = gen::erdos_renyi(600, 9000, 17);
        let clock = Clock::wall();
        let tok = CancelToken::new(&clock);
        tok.cancel();
        let opts = BfsOptions {
            threads: 4,
            hybrid: Some(crate::options::HybridPolicy::default()),
            collect_level_stats: true,
            clock,
            cancel: Some(tok),
            ..Default::default()
        };
        let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
        assert_eq!(r.stats.outcome, Outcome::Cancelled);
        assert_eq!(r.stats.directions.len() as u32, r.stats.levels);
        assert_eq!(r.stats.level_stats.len() as u32, r.stats.levels);
    }

    #[test]
    fn level_stats_match_frontier_profile() {
        let g = gen::binary_tree(127); // frontiers 1,2,4,...,64
        let opts = BfsOptions {
            threads: 3,
            collect_level_stats: true,
            ..Default::default()
        };
        for algo in [Algorithm::Bfsc, Algorithm::Bfscl] {
            let r = run_bfs(algo, &g, 0, &opts);
            let tr = &r.stats.level_stats;
            assert_eq!(tr.len() as u32, r.stats.levels, "{algo}");
            assert_eq!(r.stats.levels, 7, "{algo}");
            for (d, e) in tr.iter().enumerate() {
                assert_eq!(e.level, d as u32, "{algo}");
                assert!(!e.degraded, "{algo}: no watchdog configured");
                // An optimistic dispatcher may replay a segment and push
                // a child twice, so only the lower bound holds for BFS_CL.
                assert!(e.frontier >= 1 << d, "{algo} level {d} frontier");
            }
            if algo != Algorithm::Bfsc {
                continue;
            }
            // Single-parent tree under locked (disjoint-segment)
            // dispatch: every vertex is explored once, so no duplicate
            // pushes are possible and the frontier sizes are exact
            // powers of two.
            for (d, e) in tr.iter().enumerate() {
                assert_eq!(e.frontier, 1 << d, "level {d} frontier");
                if d + 1 < tr.len() {
                    assert_eq!(e.discovered, 1 << (d + 1));
                } else {
                    assert_eq!(e.discovered, 0, "last level discovers nothing");
                }
            }
            // Consumed totals match: sum of frontiers = reached vertices.
            let consumed: usize = tr.iter().map(|e| e.frontier).sum();
            assert_eq!(consumed, 127);
        }
    }

    #[test]
    fn level_stats_off_by_default() {
        let g = gen::path(10);
        let r = run_bfs(Algorithm::Bfswl, &g, 0, &BfsOptions::default());
        assert!(r.stats.level_stats.is_empty());
        assert!(r.stats.flight.is_none());
    }

    #[test]
    fn level_stats_work_for_all_parallel_algorithms() {
        let g = gen::erdos_renyi(300, 2100, 4);
        let opts = BfsOptions {
            threads: 4,
            collect_level_stats: true,
            ..Default::default()
        };
        for algo in Algorithm::ALL.into_iter().filter(|a| *a != Algorithm::Serial) {
            let r = run_bfs(algo, &g, 0, &opts);
            assert_eq!(r.stats.level_stats.len() as u32, r.stats.levels, "{algo}");
            assert!(r.stats.level_stats.iter().all(|e| e.frontier > 0), "{algo}");
        }
    }

    /// The per-level counter deltas must sum back to the merged totals —
    /// the conservation invariant the bench schema leans on.
    #[test]
    fn level_stats_counters_conserve_totals() {
        let g = gen::erdos_renyi(400, 3000, 9);
        for algo in Algorithm::ALL.into_iter().filter(|a| *a != Algorithm::Serial) {
            let opts = BfsOptions {
                threads: 4,
                collect_level_stats: true,
                ..Default::default()
            };
            let r = run_bfs(algo, &g, 0, &opts);
            let mut sum = crate::stats::ThreadStats::default();
            for e in &r.stats.level_stats {
                assert!(e.counters.steal.is_consistent(), "{algo} level {}", e.level);
                sum.merge(&e.counters);
            }
            assert_eq!(sum, r.stats.totals, "{algo}: level deltas must sum to totals");
            let degraded: u32 = r.stats.level_stats.iter().map(|e| u32::from(e.degraded)).sum();
            assert_eq!(degraded, r.stats.degraded_levels, "{algo}");
        }
    }

    #[test]
    fn histograms_off_by_default() {
        let g = gen::erdos_renyi(200, 1400, 2);
        let r = run_bfs(Algorithm::Bfscl, &g, 0, &BfsOptions { threads: 3, ..Default::default() });
        assert!(r.stats.hists.is_none());
    }

    #[test]
    fn histograms_collected_for_all_parallel_algorithms() {
        let g = gen::erdos_renyi(500, 3500, 5);
        for algo in Algorithm::ALL.into_iter().filter(|a| *a != Algorithm::Serial) {
            let opts = BfsOptions {
                threads: 4,
                collect_histograms: true,
                ..Default::default()
            };
            let r = run_bfs(algo, &g, 0, &opts);
            let hists = r.stats.hists.as_ref().unwrap_or_else(|| panic!("{algo}: no hists"));
            assert_eq!(hists.workers.len(), 4, "{algo}: one dump per worker");
            let merged = hists.merged();
            // Every parallel variant crosses the level barrier at least
            // once per level on every worker.
            assert!(
                merged.barrier_wait_us.count() >= r.stats.levels as u64 * 4,
                "{algo}: barrier episodes {} < levels {} x 4",
                merged.barrier_wait_us.count(),
                r.stats.levels
            );
            // The merged count is exactly the sum over workers (merge
            // loses nothing).
            let per_worker: u64 = hists.workers.iter().map(|w| w.barrier_wait_us.count()).sum();
            assert_eq!(merged.barrier_wait_us.count(), per_worker, "{algo}");
        }
    }

    /// Dispatcher-specific histogram coverage: centralized variants time
    /// every segment fetch; work-stealing variants time steal attempts;
    /// optimistic fetches record a retry-burst sample per success.
    #[test]
    fn histograms_cover_the_right_paths_per_dispatcher() {
        let g = gen::erdos_renyi(500, 3500, 6);
        let opts = BfsOptions { threads: 4, collect_histograms: true, ..Default::default() };

        let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
        let m = r.stats.hists.as_ref().unwrap().merged();
        assert_eq!(m.segment_fetch_us.count(), r.stats.totals.segments_fetched);
        assert_eq!(m.fetch_retry_burst.count(), r.stats.totals.segments_fetched);
        // Burst histogram records the retry count per fetch: its sum is
        // bounded by the retry total (each retry appears in one burst).
        assert!(m.steal_us.is_empty(), "BFS_CL never steals");

        let r = run_bfs(Algorithm::Bfswl, &g, 0, &opts);
        let m = r.stats.hists.as_ref().unwrap().merged();
        assert_eq!(m.steal_us.count(), r.stats.totals.steal.attempts);

        // Locked centralized variant: fetches timed, but no sanity-check
        // retries exist, so the burst histogram stays honest-empty.
        let r = run_bfs(Algorithm::Bfsc, &g, 0, &opts);
        let m = r.stats.hists.as_ref().unwrap().merged();
        assert_eq!(m.segment_fetch_us.count(), r.stats.totals.segments_fetched);
        assert!(m.fetch_retry_burst.is_empty(), "locked fetches never retry");
    }

    /// Chaos-injected delays sit inside the racy cursor operations of
    /// the fetch path, so the segment-fetch latency histogram must shift
    /// right when chaos delays are dialed up: the collector sees the
    /// same latencies the traversal actually suffered.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_delays_land_in_higher_latency_buckets() {
        let g = gen::erdos_renyi(250, 1700, 11);
        let base = BfsOptions {
            threads: 4,
            collect_histograms: true,
            segment: crate::options::SegmentPolicy::Fixed(8),
            ..Default::default()
        };
        let clean = run_bfs(Algorithm::Bfscl, &g, 0, &base);
        let clean_m = clean.stats.hists.as_ref().unwrap().merged();

        // Delay-only plan, dialed far past any honest fetch latency.
        let chaos_cfg = obfs_sync::ChaosConfig {
            seed: 7,
            defer_chance: 0.0,
            stale_window: 0,
            delay_chance: 0.15,
            delay_spins: 60_000,
            skew_chance: 0.0,
            skew_max: 0,
            ..Default::default()
        };
        let noisy = run_bfs(
            Algorithm::Bfscl,
            &g,
            0,
            &BfsOptions { chaos: Some(chaos_cfg), ..base.clone() },
        );
        assert!(noisy.stats.totals.injected_faults > 0, "chaos plan never fired");
        let noisy_m = noisy.stats.hists.as_ref().unwrap().merged();
        assert!(noisy_m.segment_fetch_us.count() > 0);
        assert!(
            noisy_m.segment_fetch_us.max() > clean_m.segment_fetch_us.max(),
            "delayed fetches must reach higher buckets: chaos max {} vs clean max {}",
            noisy_m.segment_fetch_us.max(),
            clean_m.segment_fetch_us.max()
        );
        // And the traversal stayed exact under the same delays.
        assert_eq!(noisy.levels, crate::serial::serial_bfs(&g, 0).levels);
    }

    /// Wrap path: a deliberately tiny flight ring must overwrite oldest
    /// events, report them via `FlightRecording::dropped`, and the
    /// derived profile must surface the wrap.
    #[cfg(feature = "trace")]
    #[test]
    fn flight_ring_wrap_is_counted_and_profiled() {
        let g = gen::erdos_renyi(500, 3500, 4);
        let opts = BfsOptions {
            threads: 3,
            flight_recorder: Some(8), // far too small on purpose
            ..Default::default()
        };
        let r = run_bfs(Algorithm::Bfswl, &g, 0, &opts);
        let rec = r.stats.flight.as_ref().expect("trace feature is on");
        assert!(rec.dropped() > 0, "an 8-event ring must wrap on this run");
        assert!(rec.workers.iter().all(|w| w.events.len() <= 8));
        let profile = crate::flight::analysis::Profile::from_recording(rec);
        assert_eq!(profile.total_dropped, rec.dropped());
        assert!(profile.render_table().contains("suffix window"));
        // The exported trace round-trips the dropped counts too.
        let reparsed =
            crate::flight::parse_chrome_trace(&crate::flight::to_chrome_trace(rec)).unwrap();
        assert_eq!(&reparsed, rec);
    }
}
