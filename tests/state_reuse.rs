//! Run-state reuse differential test.
//!
//! The driver recycles every n-sized array of a run (both queue sets, the
//! level/parent/owner arrays, the hybrid bitmaps, the compaction buffers)
//! through its pool: a finished run parks them, and the next run of the
//! same shape on that pool starts from them instead of fresh allocations.
//! Anything one run leaves behind that a later run reads would show up
//! here as a wrong level. So one `BfsRunner`, and then one `Engine`, serve
//! long mixed sequences — every parallel algorithm, sources, hybrid and
//! compaction on and off, parents, owner-array dedup, a change of graph
//! size, batched runs, pre-cancelled partial runs and (under `chaos`) an
//! injected worker panic — and every complete answer must equal serial
//! BFS while every partial one must honor `check_partial`.
//!
//! ```sh
//! cargo test --test state_reuse --features chaos,trace
//! ```

use obfs::prelude::*;
use obfs_core::validate::{check_partial, check_self_consistent};
use obfs_core::{BfsRunner, CancelToken, Clock, Outcome};
use obfs_engine::{Engine, EngineConfig, Query, QueryStatus};
use std::sync::Arc;

const PARALLEL: [Algorithm; 8] = [
    Algorithm::Bfsc,
    Algorithm::Bfscl,
    Algorithm::Bfsdl,
    Algorithm::Bfsw,
    Algorithm::Bfswl,
    Algorithm::Bfsws,
    Algorithm::Bfswsl,
    Algorithm::EdgeCl,
];

const THREADS: usize = 3;

/// Option shapes the sequence cycles through; consecutive entries differ
/// in at least one recycled array, so both reuse and re-keying happen.
fn shapes() -> Vec<BfsOptions> {
    let base = BfsOptions { threads: THREADS, ..Default::default() };
    let hybrid = Some(HybridPolicy::default());
    let mut v = vec![
        base.clone(),
        base.clone(),
        BfsOptions { hybrid, ..base.clone() },
        BfsOptions {
            hybrid: Some(HybridPolicy::forced(ForcedDirection::AlwaysBottomUp)),
            record_parents: true,
            ..base.clone()
        },
        BfsOptions { compaction: Some(CompactionPolicy::forced_on()), ..base.clone() },
        BfsOptions { record_parents: true, ..base.clone() },
        BfsOptions { dedup: DedupMode::OwnerArray, ..base.clone() },
        BfsOptions {
            hybrid,
            compaction: Some(CompactionPolicy::forced_on()),
            record_parents: true,
            dedup: DedupMode::OwnerArray,
            ..base.clone()
        },
    ];
    if cfg!(feature = "chaos") {
        // Deferred stores and stale loads against recycled buffers.
        v.push(BfsOptions { chaos: Some(ChaosConfig::aggressive(5)), ..base });
    }
    v
}

fn check_complete(g: &CsrGraph, src: u32, r: &BfsResult, tag: &str) {
    assert!(r.stats.outcome.is_complete(), "{tag}: outcome {:?}", r.stats.outcome);
    assert_eq!(r.levels, serial_bfs(g, src).levels, "{tag}: levels diverge from serial");
    if r.parents.is_some() {
        check_self_consistent(g, src, r).unwrap_or_else(|e| panic!("{tag}: bad parents: {e}"));
    }
}

fn pre_cancelled(opts: &BfsOptions) -> BfsOptions {
    let clock = Clock::wall();
    let tok = CancelToken::new(&clock);
    tok.cancel();
    BfsOptions { clock, cancel: Some(tok), ..opts.clone() }
}

#[test]
fn runner_sequence_matches_serial() {
    let runner = BfsRunner::new(THREADS);
    let small = gen::erdos_renyi(600, 4_800, 11);
    let large = gen::erdos_renyi(1_500, 9_000, 12);
    let shapes = shapes();
    let mut step = 0usize;
    // Small, then large (every array re-keyed), then small again.
    for (gi, g) in [&small, &large, &small].into_iter().enumerate() {
        let n = g.num_vertices();
        for (ai, algo) in PARALLEL.into_iter().enumerate() {
            for opts in &shapes {
                step += 1;
                let src = ((step * 37) % n) as u32;
                let tag = format!("graph {gi} {algo} step {step}");
                check_complete(g, src, &runner.run(algo, g, src, opts), &tag);
            }
            // A batched run takes the queues from the parked set and must
            // hand the rest back untouched for the next single-source run.
            let sources: Vec<u32> = (0..5).map(|q| ((ai * 53 + q * 97) % n) as u32).collect();
            let batch_opts = BfsOptions {
                hybrid: (ai % 2 == 0).then(HybridPolicy::default),
                record_parents: ai % 3 == 0,
                ..shapes[0].clone()
            };
            let b = runner.run_batch(algo, g, &sources, &batch_opts);
            for (q, qr) in b.queries.iter().enumerate() {
                let tag = format!("graph {gi} {algo} batch query {q}");
                check_complete(g, sources[q], &qr.as_bfs_result(&b.stats), &tag);
            }
            // A pre-cancelled run parks dirty queues; the complete run of
            // the same shape right after must start from clean ones.
            let opts = &shapes[ai % shapes.len()];
            let src = ((ai * 131) % n) as u32;
            let r = runner.run(algo, g, src, &pre_cancelled(opts));
            assert_eq!(r.stats.outcome, Outcome::Cancelled, "graph {gi} {algo}");
            check_partial(g, src, &r, &serial_bfs(g, src).levels)
                .unwrap_or_else(|e| panic!("graph {gi} {algo}: partial state broken: {e}"));
            let tag = format!("graph {gi} {algo} after cancel");
            check_complete(g, src, &runner.run(algo, g, src, opts), &tag);
        }
    }
}

/// An injected worker panic poisons the pool mid-run; the run's buffers
/// are dropped with it, the manager's rebuilt pool starts with an empty
/// slot, and the next run — and the one after, which reuses — is exact.
#[cfg(feature = "chaos")]
#[test]
fn worker_panic_then_rebuilt_pool_runs_clean() {
    use obfs_core::driver::try_run_on_pool;
    let g = gen::erdos_renyi(800, 6_400, 13);
    let mut pm = obfs_runtime::PoolManager::new(THREADS);
    let opts = BfsOptions {
        hybrid: Some(HybridPolicy::default()),
        record_parents: true,
        ..shapes()[0].clone()
    };
    for algo in PARALLEL {
        let r = try_run_on_pool(algo, &g, 1, &opts, pm.pool(), None).unwrap();
        check_complete(&g, 1, &r, &format!("{algo} before panic"));
        let doomed = BfsOptions { chaos: Some(ChaosConfig::panic_at(3, 40)), ..opts.clone() };
        assert!(try_run_on_pool(algo, &g, 2, &doomed, pm.pool(), None).is_err(), "{algo}");
        for src in [3, 4] {
            let r = try_run_on_pool(algo, &g, src, &opts, pm.pool(), None).unwrap();
            check_complete(&g, src, &r, &format!("{algo} after rebuild, src {src}"));
        }
    }
    assert_eq!(pm.rebuilds(), PARALLEL.len() as u64);
}

#[test]
fn engine_sequence_matches_serial() {
    let g = Arc::new(gen::erdos_renyi(900, 7_200, 14));
    let n = g.num_vertices();
    let cfg = EngineConfig {
        threads: 2,
        capacity: 64,
        max_batch: 8,
        max_retries: 0,
        ..Default::default()
    };
    let e = Engine::new(Arc::clone(&g), cfg);
    let expect_complete = |resp: obfs_engine::QueryResponse, src: u32, tag: &str| {
        assert_eq!(resp.status, QueryStatus::Complete, "{tag}");
        check_complete(&g, src, resp.result.as_ref().expect("complete carries a result"), tag);
    };
    for (ai, algo) in PARALLEL.into_iter().enumerate() {
        // Sequential solo queries: each reuses the previous one's buffers
        // (or re-keys them when `record_parents` flips).
        for i in 0..4 {
            let src = ((ai * 71 + i * 13) % n) as u32;
            let mut q = Query::new(algo, src);
            q.record_parents = i % 2 == 1;
            expect_complete(e.submit(q).unwrap().wait(), src, &format!("{algo} solo {i}"));
        }
        // A burst that the scheduler may coalesce into one batched run.
        let burst: Vec<_> = (0..6)
            .map(|i| {
                let src = ((ai * 29 + i * 149) % n) as u32;
                (src, e.submit(Query::new(algo, src)).unwrap())
            })
            .collect();
        for (i, (src, h)) in burst.into_iter().enumerate() {
            expect_complete(h.wait(), src, &format!("{algo} burst {i}"));
        }
        // Cancelled right after submit: either resolved before running
        // or a partial run that must honor the partial-state contract.
        let src = ((ai * 89) % n) as u32;
        let h = e.submit(Query::new(algo, src).with_deadline(std::time::Duration::from_secs(60)))
            .unwrap();
        h.cancel();
        let resp = h.wait();
        if let Some(r) = &resp.result {
            check_partial(&g, src, r, &serial_bfs(&g, src).levels)
                .unwrap_or_else(|e| panic!("{algo}: partial state broken: {e}"));
        }
        let resp = e.submit(Query::new(algo, src)).unwrap().wait();
        expect_complete(resp, src, &format!("{algo} after cancel"));
    }
    #[cfg(feature = "chaos")]
    {
        let mut doomed = Query::new(Algorithm::Bfscl, 0);
        doomed.chaos = Some(ChaosConfig::panic_at(11, 40));
        let resp = e.submit(doomed).unwrap().wait();
        assert!(matches!(resp.status, QueryStatus::Failed(_)), "{:?}", resp.status);
        for src in [0, 5] {
            let resp = e.submit(Query::new(Algorithm::Bfscl, src)).unwrap().wait();
            expect_complete(resp, src, "after panic");
        }
        assert!(e.stats().pool_rebuilds >= 1, "the poisoned pool must have been replaced");
    }
}
