//! End-to-end acceptance tests for the resilient query engine
//! (DESIGN.md §10): cooperative cancellation that breaks injected
//! worker stalls, deterministic deadlines on a manual clock with a
//! consistent partial-state contract, bounded admission that sheds
//! overload instead of queueing it, pool auto-rebuild after worker
//! panics, and a persistent-engine soak proving sequential queries
//! leak no thread-local state.
//!
//! The stall/panic tests need the `chaos` feature:
//!
//! ```sh
//! cargo test --test engine --features chaos,trace
//! ```

use obfs_core::serial::serial_bfs;
use obfs_core::{Algorithm, BfsOptions, CancelToken, Clock, Outcome};
use obfs_engine::{Engine, EngineConfig, Query, QueryStatus, SubmitError};
use obfs_graph::gen;
use std::sync::Arc;
use std::time::Duration;

fn test_graph(seed: u64) -> obfs_graph::CsrGraph {
    gen::erdos_renyi(2_000, 16_000, seed)
}

/// A deadline that already passed on a frozen manual clock aborts the
/// run deterministically: the result is tagged `DeadlineExceeded` +
/// partial, and the partial state honors the contract — every labeled
/// vertex carries its exact BFS distance and every level the run
/// consumed is completely labeled.
#[test]
fn expired_deadline_yields_consistent_partial_state() {
    let g = test_graph(3);
    let reference = serial_bfs(&g, 0);
    let (clock, hand) = Clock::manual();
    hand.set_ns(5_000_000);
    for algo in [Algorithm::Bfscl, Algorithm::Bfswl, Algorithm::Bfswsl, Algorithm::EdgeCl] {
        let token = CancelToken::with_deadline_at(&clock, 5_000_000); // now
        let opts = BfsOptions {
            threads: 3,
            clock: clock.clone(),
            cancel: Some(token),
            ..Default::default()
        };
        let r = obfs_core::run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.stats.outcome, Outcome::DeadlineExceeded, "{algo}");
        assert!(r.stats.partial, "{algo}: aborted run must be tagged partial");
        obfs_core::validate::check_partial(&g, 0, &r, &reference.levels)
            .unwrap_or_else(|e| panic!("{algo}: partial-state contract broken: {e}"));
    }
}

/// Same contract through the engine: a query whose deadline expired
/// while queued resolves at pop time without ever touching the pool.
#[test]
fn queued_query_past_deadline_never_runs() {
    let (clock, hand) = Clock::manual();
    hand.set_ns(1_000_000);
    let e = Engine::new(
        Arc::new(test_graph(4)),
        EngineConfig { threads: 2, clock, ..Default::default() },
    );
    let resp =
        e.submit(Query::new(Algorithm::Bfscl, 0).with_deadline(Duration::ZERO)).unwrap().wait();
    assert_eq!(resp.status, QueryStatus::DeadlineExceeded);
    assert!(resp.result.is_none(), "expired before running: no result");
    assert_eq!(e.stats().deadline_exceeded, 1);
}

/// A source outside the graph is refused at the door, before it takes a
/// query id, and the engine keeps answering. (Admitted, it would reach
/// the driver's range assert on the scheduler thread, and every later
/// query would wait forever.)
#[test]
fn out_of_range_source_is_refused_and_the_engine_keeps_answering() {
    let g = gen::erdos_renyi(500, 3_000, 5);
    let reference = serial_bfs(&g, 7);
    let e = Engine::new(Arc::new(g), EngineConfig { threads: 2, ..Default::default() });
    match e.submit(Query::new(Algorithm::Bfscl, 500)) {
        Err(SubmitError::SourceOutOfRange) => {}
        Err(other) => panic!("expected SourceOutOfRange, got {other}"),
        Ok(_) => panic!("source 500 of a 500-vertex graph was admitted"),
    }
    let stats = e.stats();
    assert_eq!((stats.submitted, stats.shed), (0, 0), "a refused source is not counted");
    let resp = e.submit(Query::new(Algorithm::Bfscl, 7)).unwrap().wait();
    assert_eq!(resp.status, QueryStatus::Complete);
    assert_eq!(resp.result.expect("a complete run has a result").levels, reference.levels);
    assert_eq!(e.in_flight(), 0);
}

/// Cancellation must break a worker that is *stalled inside a dispatch
/// quantum*, not just one that reaches the next level barrier: the
/// injected stall spins `u32::MAX` times — effectively forever — and
/// only the cancel probe can release it. If cancellation did not reach
/// stalled workers, this test would hang rather than fail.
#[cfg(feature = "chaos")]
#[test]
fn cancellation_breaks_an_injected_worker_stall() {
    use obfs_sync::ChaosConfig;
    let g = test_graph(5);
    let reference = serial_bfs(&g, 0);
    let clock = Clock::wall();
    let token = CancelToken::new(&clock);
    let opts = BfsOptions {
        threads: 4,
        clock,
        cancel: Some(token.clone()),
        chaos: Some(ChaosConfig::stall(7, 25, u32::MAX)),
        ..Default::default()
    };
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        })
    };
    let r = obfs_core::run_bfs(Algorithm::Bfscl, &g, 0, &opts);
    canceller.join().unwrap();
    // The run returned at all: the stall was broken. The workers then
    // quiesce at the next barrier, so the abort is leader-published and
    // the partial state is consistent.
    assert_eq!(r.stats.outcome, Outcome::Cancelled);
    assert!(r.stats.partial);
    obfs_core::validate::check_partial(&g, 0, &r, &reference.levels).unwrap();
}

/// Bounded admission under a stall-blocked pool: with capacity 1 held
/// by a query stalled mid-run, the next submit is shed immediately
/// (never queued), and cancelling the blocker frees the slot.
#[cfg(feature = "chaos")]
#[test]
fn overload_is_shed_while_a_stalled_query_holds_the_slot() {
    use obfs_sync::ChaosConfig;
    let e = Engine::new(
        Arc::new(test_graph(6)),
        EngineConfig { threads: 2, capacity: 1, ..Default::default() },
    );
    let mut blocker = Query::new(Algorithm::Bfscl, 0);
    blocker.chaos = Some(ChaosConfig::stall(9, 25, u32::MAX));
    let h1 = e.submit(blocker).unwrap();
    // The slot is taken from submit on, so this is deterministic.
    match e.submit(Query::new(Algorithm::Bfscl, 0)) {
        Err(SubmitError::Overloaded) => {}
        Err(other) => panic!("expected Overloaded, got {other}"),
        Ok(_) => panic!("capacity-1 engine with a held slot must shed"),
    }
    assert_eq!(e.stats().shed, 1);
    h1.cancel();
    let resp = h1.wait();
    assert_eq!(resp.status, QueryStatus::Cancelled);
    // Slot freed: the engine accepts and completes a clean query.
    let resp = e.submit(Query::new(Algorithm::Bfswsl, 1)).unwrap().wait();
    assert_eq!(resp.status, QueryStatus::Complete);
}

/// A worker panic mid-query poisons the pool; the scheduler's
/// `PoolManager` must rebuild it so the *next* query succeeds, and the
/// rebuild must be surfaced in `EngineStats::pool_rebuilds`.
#[cfg(feature = "chaos")]
#[test]
fn worker_panic_is_followed_by_a_successful_query_on_a_rebuilt_pool() {
    use obfs_sync::ChaosConfig;
    let e = Engine::new(
        Arc::new(test_graph(7)),
        EngineConfig { threads: 3, max_retries: 0, ..Default::default() },
    );
    let mut doomed = Query::new(Algorithm::Bfscl, 0);
    doomed.chaos = Some(ChaosConfig::panic_at(11, 40));
    let resp = e.submit(doomed).unwrap().wait();
    assert!(
        matches!(resp.status, QueryStatus::Failed(ref m) if m.contains("panic")),
        "{:?}",
        resp.status
    );
    let resp = e.submit(Query::new(Algorithm::Bfscl, 0)).unwrap().wait();
    assert_eq!(resp.status, QueryStatus::Complete, "engine must recover after a panic");
    let st = e.stats();
    assert_eq!((st.failed, st.completed), (1, 1));
    assert!(st.pool_rebuilds >= 1, "the poisoned pool must have been replaced");
}

/// Thread-local state (chaos plans, flight rings, metrics sinks) must
/// be provably uninstalled between queries sharing one pool: after a
/// mix of complete and cancelled runs — with every feature-gated
/// collector armed — a bare closure on the same workers sees no
/// leftover TLS installations.
#[test]
fn tls_state_is_uninstalled_between_queries_on_a_shared_pool() {
    let g = test_graph(8);
    let pool = obfs_runtime::LevelPool::new(3);
    let clock = Clock::wall();
    for round in 0..4u64 {
        let token = CancelToken::new(&clock);
        #[allow(unused_mut)]
        let mut opts = BfsOptions {
            threads: 3,
            clock: clock.clone(),
            cancel: Some(token.clone()),
            collect_histograms: true,
            ..Default::default()
        };
        #[cfg(feature = "chaos")]
        {
            // A bounded stall: exercises the token poll, then finishes.
            opts.chaos = Some(obfs_sync::ChaosConfig::stall(round, 30, 200));
        }
        #[cfg(feature = "trace")]
        {
            opts.flight_recorder = Some(obfs_core::flight::DEFAULT_FLIGHT_CAPACITY);
        }
        if round % 2 == 1 {
            token.cancel(); // pre-cancelled: quiesces after one level
        }
        let r = obfs_core::driver::try_run_on_pool(Algorithm::Bfswsl, &g, 0, &opts, &pool, None)
            .expect("a healthy pool completes the run");
        if round % 2 == 1 {
            assert_eq!(r.stats.outcome, Outcome::Cancelled);
        }
        pool.run(|_| {
            assert!(!obfs_sync::chaos::is_active(), "chaos plan leaked");
            assert!(!obfs_sync::flight::is_active(), "flight ring leaked");
            assert!(!obfs_sync::metrics::is_active(), "metrics sink leaked");
        })
        .unwrap();
    }
}

/// One soak round on a persistent engine: a burst of mixed-algorithm
/// queries, one of them cancelled mid-flight, all verified against the
/// serial reference (full or partial, per status).
fn soak_round(e: &Engine, reference: &[u32], seed: u64) {
    let algos =
        [Algorithm::Bfscl, Algorithm::Bfswl, Algorithm::Bfswsl, Algorithm::EdgeCl];
    let mut handles = Vec::new();
    for (i, algo) in algos.iter().enumerate() {
        let h = e.submit(Query::new(*algo, 0)).expect("soak stays under capacity");
        if (seed as usize + i).is_multiple_of(4) {
            h.cancel();
        }
        handles.push(h);
    }
    for h in handles {
        let resp = h.wait();
        match resp.status {
            QueryStatus::Complete | QueryStatus::Degraded => {
                let r = resp.result.unwrap();
                assert_eq!(r.levels, reference, "complete run must match serial");
            }
            QueryStatus::Cancelled => {
                // Cancelled before running → no result; mid-run → the
                // partial state must honor the contract.
                if let Some(r) = &resp.result {
                    let g = e.graph();
                    obfs_core::validate::check_partial(g, 0, r, reference).unwrap();
                }
            }
            other => panic!("unexpected status in soak: {other:?}"),
        }
    }
}

/// Fast slice that always runs: keeps the engine soak harness tested.
#[test]
fn engine_soak_smoke() {
    let g = test_graph(9);
    let reference = serial_bfs(&g, 0).levels;
    let e = Engine::new(
        Arc::new(g),
        EngineConfig { threads: 3, capacity: 8, ..Default::default() },
    );
    for seed in 0..3 {
        soak_round(&e, &reference, seed);
    }
    let st = e.stats();
    assert_eq!(
        st.completed + st.degraded + st.cancelled + st.deadline_exceeded + st.failed,
        st.submitted,
        "every admitted query must reach exactly one terminal status: {st:?}"
    );
    assert_eq!(e.in_flight(), 0);
}

/// The real soak: many sequential rounds against ONE engine (60 by
/// default; override with `OBFS_SOAK_ROUNDS`). Proves the persistent
/// pool neither leaks TLS state nor drifts: round N behaves like round
/// zero.
#[test]
#[ignore = "long-running; use cargo test --release --test engine -- --ignored"]
fn engine_soak_full() {
    let rounds: u64 = std::env::var("OBFS_SOAK_ROUNDS")
        .ok()
        .map(|v| v.parse().expect("OBFS_SOAK_ROUNDS must be an integer"))
        .unwrap_or(60);
    let g = test_graph(10);
    let reference = serial_bfs(&g, 0).levels;
    let e = Engine::new(
        Arc::new(g),
        EngineConfig { threads: 4, capacity: 8, ..Default::default() },
    );
    for seed in 0..rounds {
        soak_round(&e, &reference, seed);
        if seed % 10 == 0 {
            eprintln!("engine soak round {seed}/{rounds}");
        }
    }
    let st = e.stats();
    assert_eq!(
        st.completed + st.degraded + st.cancelled + st.deadline_exceeded + st.failed,
        st.submitted
    );
    assert_eq!(e.in_flight(), 0);
}

/// The per-query partial-state contract on a batched run: a deadline
/// that expires mid-traversal aborts the *shared* level loop at one
/// barrier, and every query's column must then independently satisfy
/// `check_partial` — labeled vertices carry exact distances, and every
/// union-frontier level the run consumed is completely labeled for every
/// member query.
#[test]
fn expired_deadline_batch_yields_consistent_per_query_partial_state() {
    let g = test_graph(13);
    let sources: Vec<u32> = (0..17).map(|q| q * 83 + 1).collect();
    let (clock, hand) = Clock::manual();
    hand.set_ns(5_000_000);
    for algo in [Algorithm::Bfscl, Algorithm::Bfswl, Algorithm::Bfswsl, Algorithm::EdgeCl] {
        let token = CancelToken::with_deadline_at(&clock, 5_000_000); // now
        let opts = BfsOptions {
            threads: 3,
            clock: clock.clone(),
            cancel: Some(token),
            ..Default::default()
        };
        let b = obfs_core::run_batch(algo, &g, &sources, &opts);
        assert_eq!(b.stats.outcome, Outcome::DeadlineExceeded, "{algo}");
        assert!(b.stats.partial, "{algo}: aborted batch must be tagged partial");
        for (q, qr) in b.queries.iter().enumerate() {
            let reference = serial_bfs(&g, sources[q]);
            let r = qr.as_bfs_result(&b.stats);
            obfs_core::validate::check_partial(&g, sources[q], &r, &reference.levels)
                .unwrap_or_else(|e| {
                    panic!("{algo} query {q}: per-query partial contract broken: {e}")
                });
        }
    }
}

/// Cancellation reaches a worker stalled inside a batched dispatch
/// quantum, and after the leader publishes the abort every query's
/// partial column is still contract-clean.
#[cfg(feature = "chaos")]
#[test]
fn cancellation_breaks_a_stalled_batch_run() {
    use obfs_sync::ChaosConfig;
    let g = test_graph(14);
    let sources: Vec<u32> = (0..64).map(|q| q * 31 + 1).collect();
    let clock = Clock::wall();
    let token = CancelToken::new(&clock);
    let opts = BfsOptions {
        threads: 4,
        clock,
        cancel: Some(token.clone()),
        chaos: Some(ChaosConfig::stall(15, 25, u32::MAX)),
        ..Default::default()
    };
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        })
    };
    let b = obfs_core::run_batch(Algorithm::Bfscl, &g, &sources, &opts);
    canceller.join().unwrap();
    assert_eq!(b.stats.outcome, Outcome::Cancelled);
    assert!(b.stats.partial);
    for (q, qr) in b.queries.iter().enumerate() {
        let reference = serial_bfs(&g, sources[q]);
        let r = qr.as_bfs_result(&b.stats);
        obfs_core::validate::check_partial(&g, sources[q], &r, &reference.levels)
            .unwrap_or_else(|e| panic!("query {q}: partial contract broken: {e}"));
    }
}
