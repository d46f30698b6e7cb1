//! BFSDL — decentralized lock-free BFS (paper §IV-A.3).
//!
//! The `p` per-thread queues are grouped into `j ∈ [1, p]` pools, each
//! with its own racy dispatch cursor. A thread picks a random pool at the
//! start of every level and drains it with the same optimistic segment
//! dispatch as BFSCL. When its pool runs dry it probes random pools up to
//! `c·j·log j` times (the balls-and-bins bound: w.h.p. every pool is
//! probed at least once) before giving up for the level.
//!
//! `j = 1` degenerates to BFSCL; `j = p` is fully distributed.

use crate::centralized::consume_pool_lockfree;
use crate::driver::{LevelEnv, Strategy};
use crate::worker::Worker;
use obfs_runtime::WorkerCtx;

/// BFSDL strategy (pool count from [`crate::BfsOptions::pools`]).
pub struct Decentralized;

impl Strategy for Decentralized {
    fn serial_prepare(&self, env: &LevelEnv<'_, '_>) {
        for j in 0..env.st.pools() {
            let (start, _) = env.st.pool_range(j);
            env.st.pool_cursors[j].store(start);
        }
    }

    fn consume(&self, env: &LevelEnv<'_, '_>, _ctx: &WorkerCtx<'_>, wk: &mut Worker<'_>) {
        let st = env.st;
        let qin = st.qin(env.parity);
        // Each thread starts at a random pool each level (paper §IV-A.3);
        // with a topology, a random pool *on its own socket* (§IV-C).
        let mut pool = match &st.opts.topology {
            Some(topo) => {
                let local = local_pools(env, topo, wk.tid);
                local[wk.rng.below_usize(local.len())]
            }
            None => wk.rng.below_usize(st.pools()),
        };
        loop {
            consume_pool_lockfree(st, qin, pool, st.pool_range(pool), env.level, wk);
            if st.watchdog_tripped() {
                return; // leader sweep finishes the level
            }
            // Our pool looks dry; probe random pools for leftover work.
            match find_nonempty_pool(env, pool, wk) {
                Some(next) => pool = next,
                None => return,
            }
        }
    }
}

/// Pools whose queue range contains at least one queue owned by a
/// worker on `tid`'s socket (always non-empty: `tid`'s own pool
/// qualifies).
fn local_pools(env: &LevelEnv<'_, '_>, topo: &obfs_runtime::Topology, tid: usize) -> Vec<usize> {
    let st = env.st;
    let mut out: Vec<usize> = (0..st.pools())
        .filter(|&j| {
            let (s, e) = st.pool_range(j);
            (s..e).any(|q| q < topo.threads() && topo.same_socket(tid, q))
        })
        .collect();
    if out.is_empty() {
        out.extend(0..st.pools());
    }
    out
}

/// Probe up to `c·j·log j` random pools for one with a queue that still
/// has unconsumed entries. Pure reads — no cursor updates — so failed
/// probes cost nothing to other threads. With a topology, the first half
/// of the budget is spent on same-socket pools (the §IV-C priority
/// scheme: local pools first, remote as fallback).
fn find_nonempty_pool(
    env: &LevelEnv<'_, '_>,
    current: usize,
    wk: &mut Worker<'_>,
) -> Option<usize> {
    let st = env.st;
    let pools = st.pools();
    if pools <= 1 {
        return None;
    }
    let budget = st.opts.retry_budget(pools);
    let mut wd_retries = 0u64;
    if let Some(topo) = &st.opts.topology {
        let local = local_pools(env, topo, wk.tid);
        for _ in 0..budget / 2 {
            let j = local[wk.rng.below_usize(local.len())];
            if j != current && pool_has_work(env, j) {
                return Some(j);
            }
            wk.fetch_retried(env.level, j, true);
            if st.watchdog_retry(&mut wd_retries) {
                return None; // degraded: stop probing
            }
        }
    }
    for _ in 0..budget {
        let j = wk.rng.below_usize(pools);
        if j == current {
            continue;
        }
        if pool_has_work(env, j) {
            return Some(j);
        }
        wk.fetch_retried(env.level, j, true);
        if st.watchdog_retry(&mut wd_retries) {
            return None; // degraded: stop probing
        }
    }
    // The paper's balls-and-bins argument only covers every pool "w.h.p.",
    // which is weak for small j (with j = 2 a thread misses the other
    // pool in all `c·j·log j` coin flips with probability ~6%; if every
    // thread misses in the same level, live work would be abandoned and
    // the BFS would terminate early — found by the soak suite). A final
    // deterministic sweep over all pools makes termination-with-empty-
    // frontier a guarantee instead of a probability, at O(j) cost once
    // per give-up.
    (0..pools).find(|&j| j != current && pool_has_work(env, j))
}

/// Racy check whether any queue in pool `j` still has unconsumed entries.
fn pool_has_work(env: &LevelEnv<'_, '_>, j: usize) -> bool {
    let st = env.st;
    let qin = st.qin(env.parity);
    let (s, e) = st.pool_range(j);
    (s..e).any(|k| qin.queue(k).front() < qin.queue(k).rear())
}

#[cfg(test)]
mod tests {
    use crate::options::{Algorithm, BfsOptions};
    use crate::run_bfs;
    use crate::serial::serial_bfs;
    use obfs_graph::gen;

    fn opts(threads: usize, pools: usize) -> BfsOptions {
        BfsOptions { threads, pools, ..Default::default() }
    }

    #[test]
    fn matches_serial_across_pool_counts() {
        let g = gen::erdos_renyi(600, 4000, 7);
        let ser = serial_bfs(&g, 11);
        for pools in [1, 2, 3, 4, 8] {
            let r = run_bfs(Algorithm::Bfsdl, &g, 11, &opts(4, pools));
            assert_eq!(r.levels, ser.levels, "pools={pools}");
        }
    }

    #[test]
    fn fully_distributed_pools() {
        // j = p: every queue is its own pool.
        let g = gen::barabasi_albert(500, 2, 3);
        let ser = serial_bfs(&g, 0);
        let r = run_bfs(Algorithm::Bfsdl, &g, 0, &opts(6, 6));
        assert_eq!(r.levels, ser.levels);
    }

    #[test]
    fn deep_graph_many_levels() {
        let g = gen::path(400);
        let ser = serial_bfs(&g, 0);
        let r = run_bfs(Algorithm::Bfsdl, &g, 0, &opts(4, 2));
        assert_eq!(r.levels, ser.levels);
        assert_eq!(r.stats.levels, 400);
    }

    #[test]
    fn single_thread_single_pool() {
        let g = gen::cycle(64);
        let ser = serial_bfs(&g, 5);
        let r = run_bfs(Algorithm::Bfsdl, &g, 5, &opts(1, 1));
        assert_eq!(r.levels, ser.levels);
    }

    #[test]
    fn numa_topology_pool_preference_is_correct() {
        let g = gen::erdos_renyi(800, 6400, 13);
        let ser = serial_bfs(&g, 0);
        let o = BfsOptions {
            threads: 8,
            pools: 4,
            topology: Some(obfs_runtime::Topology::blocked(8, 2)),
            ..Default::default()
        };
        let r = run_bfs(Algorithm::Bfsdl, &g, 0, &o);
        assert_eq!(r.levels, ser.levels);
    }

    /// Regression: with j=2 pools and few threads on a deep graph, the
    /// randomized pool probes can all miss the one pool that still has
    /// work; without the deterministic final sweep the BFS terminated
    /// early (soak seed 6). Many levels + many repetitions make the
    /// probabilistic failure near-certain if the sweep regresses.
    #[test]
    fn never_abandons_work_when_probes_miss() {
        let g = gen::grid2d(40, 40); // ~80 levels of tiny frontiers
        let ser = serial_bfs(&g, 316);
        for seed in 0..30 {
            let o = BfsOptions {
                threads: 2,
                pools: 2,
                seed,
                segment: crate::options::SegmentPolicy::Fixed(3),
                ..Default::default()
            };
            let r = run_bfs(Algorithm::Bfsdl, &g, 316, &o);
            assert_eq!(r.levels, ser.levels, "abandoned work at seed {seed}");
        }
    }

    #[test]
    fn pool_count_exceeding_threads_is_clamped() {
        let g = gen::star(100);
        let ser = serial_bfs(&g, 0);
        let r = run_bfs(Algorithm::Bfsdl, &g, 0, &opts(3, 99));
        assert_eq!(r.levels, ser.levels);
    }
}
