//! Run-state reuse differential test.
//!
//! The driver recycles every n-sized array of a run (both queue sets, the
//! level/parent/owner arrays, the hybrid bitmaps, the compaction buffers,
//! the batch level/parent slots and per-vertex words) through its pool: a
//! finished run parks them, and the next run of the same shape on that
//! pool starts from them instead of fresh allocations. Anything one run
//! leaves behind that a later run reads would show up here as a wrong
//! level. So one `BfsRunner`, and then one `Engine`, serve long mixed
//! sequences — every parallel algorithm, sources, hybrid and compaction
//! on and off, parents, owner-array dedup, a change of graph size,
//! batches that grow and shrink with duplicate sources, pre-cancelled
//! partial runs and (under `chaos`) an injected worker panic — and every
//! complete answer must equal serial BFS while every partial one must
//! honor `check_partial`.
//!
//! ```sh
//! cargo test --test state_reuse --features chaos
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
    let (small_t, large_t) = (small.transpose(), large.transpose());
    let shapes = shapes();
    let mut step = 0usize;
    // Small, then large (every array re-keyed), then small again.
    let graphs = [(&small, &small_t), (&large, &large_t), (&small, &small_t)];
    for (gi, (g, gt)) in graphs.into_iter().enumerate() {
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
            let b = runner.run_batch(algo, g, Some(gt), &sources, &batch_opts);
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

/// Sources for a `k`-query batch with duplicates: every third query
/// repeats the one before it.
fn batch_sources(k: usize, salt: usize, n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = Vec::with_capacity(k);
    for q in 0..k {
        let src = match v.last() {
            Some(&prev) if q % 3 == 2 => prev,
            _ => ((salt * 131 + q * 97) % n) as u32,
        };
        v.push(src);
    }
    v
}

fn check_batch(g: &CsrGraph, sources: &[u32], b: &BatchResult, tag: &str) {
    assert_eq!(b.queries.len(), sources.len(), "{tag}");
    for (q, qr) in b.queries.iter().enumerate() {
        assert_eq!(qr.source, sources[q], "{tag} query {q}");
        check_complete(g, sources[q], &qr.as_bfs_result(&b.stats), &format!("{tag} query {q}"));
    }
}

/// The batch arrays are parked and reused too: one runner serves batches
/// that grow and shrink (5 → 64 → 3 sources, each with duplicates),
/// flip parents and hybrid between consecutive batches, and alternate
/// with single-source runs; a pre-cancelled batch then leaves partial
/// columns, and the complete batch of the same shape after it is exact.
#[test]
fn runner_batch_sequence_matches_serial() {
    let runner = BfsRunner::new(THREADS);
    let g = gen::erdos_renyi(1_000, 8_000, 15);
    let gt = g.transpose();
    let n = g.num_vertices();
    let shapes = shapes();
    let base = BfsOptions { threads: THREADS, ..Default::default() };
    // (batch size, parents, hybrid) of consecutive batches.
    let plan = [
        (5, false, false),
        (64, true, false),
        (3, true, true),
        (64, false, true),
        (5, true, false),
    ];
    for (ai, algo) in PARALLEL.into_iter().enumerate() {
        for (i, &(k, record_parents, hybrid)) in plan.iter().enumerate() {
            let sources = batch_sources(k, ai * 7 + i, n);
            let opts = BfsOptions {
                record_parents,
                hybrid: hybrid.then(HybridPolicy::default),
                // Deferred stores and stale loads against recycled slots.
                chaos: (cfg!(feature = "chaos") && i % 2 == 1).then(|| ChaosConfig::aggressive(9)),
                ..base.clone()
            };
            let tag = format!("{algo} batch {i} (k {k})");
            check_batch(
                &g,
                &sources,
                &runner.run_batch(algo, &g, Some(&gt), &sources, &opts),
                &tag,
            );
            // A single-source run between batches leaves the batch arrays
            // parked and brings the label arrays back.
            let src = ((ai * 53 + i * 29) % n) as u32;
            let tag = format!("{algo} solo after batch {i}");
            let r = runner.run(algo, &g, src, &shapes[(ai + i) % shapes.len()]);
            check_complete(&g, src, &r, &tag);
        }
        let sources = batch_sources(64, ai, n);
        let opts = BfsOptions {
            record_parents: true,
            hybrid: Some(HybridPolicy::default()),
            ..base.clone()
        };
        let b = runner.run_batch(algo, &g, Some(&gt), &sources, &pre_cancelled(&opts));
        assert_eq!(b.stats.outcome, Outcome::Cancelled, "{algo}");
        for (q, qr) in b.queries.iter().enumerate() {
            let r = qr.as_bfs_result(&b.stats);
            check_partial(&g, sources[q], &r, &serial_bfs(&g, sources[q]).levels)
                .unwrap_or_else(|e| panic!("{algo} query {q}: partial state broken: {e}"));
        }
        let tag = format!("{algo} batch after cancel");
        check_batch(&g, &sources, &runner.run_batch(algo, &g, Some(&gt), &sources, &opts), &tag);
    }
}

/// An injected worker panic fails one run mid-level; the run's buffers
/// are dropped with it and the pool's slot is emptied, and the next run
/// on the same pool — and the one after, which reuses — is exact.
#[cfg(feature = "chaos")]
#[test]
fn worker_panic_then_the_same_pool_runs_clean() {
    use obfs_core::driver::try_run_on_pool;
    let g = gen::erdos_renyi(800, 6_400, 13);
    let pool = obfs_runtime::LevelPool::new(THREADS);
    let opts = BfsOptions {
        hybrid: Some(HybridPolicy::default()),
        record_parents: true,
        ..shapes()[0].clone()
    };
    for algo in PARALLEL {
        let r = try_run_on_pool(algo, &g, 1, &opts, &pool, None).unwrap();
        check_complete(&g, 1, &r, &format!("{algo} before panic"));
        let doomed = BfsOptions { chaos: Some(ChaosConfig::panic_at(3, 40)), ..opts.clone() };
        assert!(try_run_on_pool(algo, &g, 2, &doomed, &pool, None).is_err(), "{algo}");
        for src in [3, 4] {
            let r = try_run_on_pool(algo, &g, src, &opts, &pool, None).unwrap();
            check_complete(&g, src, &r, &format!("{algo} after panic, src {src}"));
        }
    }
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
        let h = e
            .submit(Query::new(algo, src).with_deadline(std::time::Duration::from_secs(60)))
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
    }
}

/// The engine coalesces bursts into batched runs on one pool: bursts of
/// 5, 64 and 3 queries with duplicate sources, parents flipped between
/// bursts, and a solo query plus a cancelled one between them. Every
/// complete answer equals serial BFS and every partial one honors
/// `check_partial`.
#[test]
fn engine_batch_sequence_matches_serial() {
    let g = Arc::new(gen::erdos_renyi(1_000, 8_000, 16));
    let n = g.num_vertices();
    let cfg = EngineConfig {
        threads: 2,
        capacity: 128,
        max_batch: 64,
        max_retries: 0,
        ..Default::default()
    };
    let e = Engine::new(Arc::clone(&g), cfg);
    let expect_complete = |resp: obfs_engine::QueryResponse, src: u32, tag: &str| {
        assert_eq!(resp.status, QueryStatus::Complete, "{tag}");
        check_complete(&g, src, resp.result.as_ref().expect("complete carries a result"), tag);
    };
    let bursts = [(5, false), (64, true), (3, false), (64, false), (5, true), (3, true)];
    let minute = std::time::Duration::from_secs(60);
    for (round, (k, record_parents)) in bursts.into_iter().enumerate() {
        let handles: Vec<_> = batch_sources(k, round, n)
            .into_iter()
            .map(|src| {
                let q = Query { record_parents, ..Query::new(Algorithm::Bfscl, src) };
                (src, e.submit(q).unwrap())
            })
            .collect();
        for (i, (src, h)) in handles.into_iter().enumerate() {
            expect_complete(h.wait(), src, &format!("burst {round} query {i}"));
        }
        // A deadlined query never coalesces: it runs solo on the pool the
        // batches use.
        let src = ((round * 211) % n) as u32;
        let solo = Query::new(Algorithm::Bfscl, src).with_deadline(minute);
        expect_complete(e.submit(solo).unwrap().wait(), src, &format!("solo after burst {round}"));
        let h = e.submit(Query::new(Algorithm::Bfscl, src).with_deadline(minute)).unwrap();
        h.cancel();
        if let Some(r) = &h.wait().result {
            check_partial(&g, src, r, &serial_bfs(&g, src).levels)
                .unwrap_or_else(|e| panic!("cancel after burst {round}: partial state: {e}"));
        }
    }
    assert!(e.stats().batched_runs >= 1, "bursts of up to 64 queries never coalesced");
}
