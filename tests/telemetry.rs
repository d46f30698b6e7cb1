//! End-to-end acceptance tests for the live-telemetry layer
//! (DESIGN.md §13): the engine's always-on metrics registry must
//! conserve against both `EngineStats` and a client counting its own
//! responses, the per-query span log must reconstruct every submitted
//! query's lifecycle exactly (including queries answered by coalesced
//! batches and queries shed at the door), the registry's latency
//! histograms must agree with an external clock-side histogram, and a
//! run without an installed telemetry handle must leave a registry
//! untouched.
//!
//! Everything here is feature-free: the span log and registry are
//! always on. `trace` builds additionally check the `SPAN` flight
//! mirrors in the scheduler's recorder ring.

use obfs_core::{Algorithm, BfsOptions, CompactionPolicy, HybridPolicy};
use obfs_engine::{Engine, EngineConfig, Query, QueryStatus, SubmitError};
use obfs_graph::gen;
use obfs_telemetry::span::{self, stage};
use std::collections::BTreeMap;
use std::sync::Arc;

fn test_graph(seed: u64) -> obfs_graph::CsrGraph {
    gen::erdos_renyi(2_000, 16_000, seed)
}

/// Drive a mixed workload and return what the client itself saw:
/// terminal-status counts by key, plus the ids of shed submits.
struct ClientView {
    terminals: BTreeMap<&'static str, u64>,
    responses: Vec<(u64, QueryStatus)>,
    shed: u64,
    lat_us: obfs_util::LogHistogram,
}

fn drive(engine: &Engine, queries: usize, burst: usize) -> ClientView {
    let mut view = ClientView {
        terminals: BTreeMap::new(),
        responses: Vec::new(),
        shed: 0,
        lat_us: obfs_util::LogHistogram::new(),
    };
    let mut submitted = 0usize;
    let mut src = 0u32;
    while submitted < queries {
        let want = burst.min(queries - submitted);
        let mut handles = Vec::with_capacity(want);
        for _ in 0..want {
            src = (src + 37) % 2_000;
            match engine.submit(Query::new(Algorithm::Bfswsl, src)) {
                Ok(h) => handles.push(h),
                Err(SubmitError::Overloaded) => view.shed += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
            submitted += 1;
        }
        for h in handles {
            let resp = h.wait();
            view.lat_us.record(resp.total_ns / 1_000);
            let key = match resp.status {
                QueryStatus::Complete => "completed",
                QueryStatus::Degraded => "degraded",
                QueryStatus::Cancelled => "cancelled",
                QueryStatus::DeadlineExceeded => "deadline_exceeded",
                QueryStatus::Failed(_) => "failed",
            };
            *view.terminals.entry(key).or_insert(0) += 1;
            view.responses.push((resp.id, resp.status));
        }
    }
    view
}

/// Conservation across all three ledgers: the registry's counters,
/// the `EngineStats` read-through view, and the client's own response
/// counts must agree exactly at quiescence — plus the registry's
/// latency percentiles must sit within one log-histogram bucket of a
/// histogram the client built from the same responses.
#[test]
fn registry_enginestats_and_client_counts_conserve() {
    let engine = Engine::new(
        Arc::new(test_graph(11)),
        EngineConfig { threads: 2, capacity: 4, ..Default::default() },
    );
    // Burst 8 over capacity 4: roughly half of each burst is shed.
    let view = drive(&engine, 48, 8);
    let st = engine.stats();
    let snap = engine.telemetry().registry().snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or_else(|| panic!("{name} missing"));

    // Ledger 1 ≡ ledger 2: registry vs EngineStats, key by key.
    assert_eq!(c("obfs_engine_queries_submitted_total"), st.submitted);
    assert_eq!(c("obfs_engine_queries_shed_total"), st.shed);
    assert_eq!(c("obfs_engine_queries_completed_total"), st.completed);
    assert_eq!(c("obfs_engine_queries_degraded_total"), st.degraded);
    assert_eq!(c("obfs_engine_queries_cancelled_total"), st.cancelled);
    assert_eq!(c("obfs_engine_queries_deadline_exceeded_total"), st.deadline_exceeded);
    assert_eq!(c("obfs_engine_queries_failed_total"), st.failed);
    assert_eq!(c("obfs_engine_retries_total"), st.retries);
    assert_eq!(c("obfs_engine_batched_runs_total"), st.batched_runs);
    assert_eq!(c("obfs_engine_queries_coalesced_total"), st.queries_coalesced);

    // Ledger 2 ≡ ledger 3: EngineStats vs the client's counts.
    let t = |k: &str| view.terminals.get(k).copied().unwrap_or(0);
    assert_eq!(st.shed, view.shed);
    assert_eq!(st.completed, t("completed"));
    assert_eq!(st.degraded, t("degraded"));
    assert_eq!(st.cancelled, t("cancelled"));
    assert_eq!(st.deadline_exceeded, t("deadline_exceeded"));
    assert_eq!(st.failed, t("failed"));
    assert_eq!(st.submitted, view.responses.len() as u64);
    assert_eq!(st.submitted + st.shed, 48, "every attempt admitted or shed");

    // At quiescence every admitted query reached exactly one terminal.
    let terminal_sum =
        st.completed + st.degraded + st.cancelled + st.deadline_exceeded + st.failed;
    assert_eq!(terminal_sum, st.submitted);
    let in_flight = snap.gauge("obfs_engine_in_flight").expect("in_flight gauge");
    assert_eq!(in_flight, 0, "quiescent engine has nothing in flight");

    // Latency agreement: both histograms saw the same total_ns stream,
    // so their percentiles differ by at most one bucket (1/8 relative).
    let (p50, p99) = match snap.get("obfs_engine_total_us") {
        Some(obfs_telemetry::registry::MetricValue::Summary { total, .. }) => {
            (total.percentile(0.50), total.percentile(0.99))
        }
        other => panic!("obfs_engine_total_us missing: {other:?}"),
    };
    for (mine, reg) in
        [(view.lat_us.percentile(0.50), p50), (view.lat_us.percentile(0.99), p99)]
    {
        let (a, b) = (mine as f64, reg as f64);
        assert!(
            (a - b).abs() <= a.max(b) / 8.0 + 1.0,
            "percentiles disagree beyond one bucket: client {mine}us vs registry {reg}us"
        );
    }

    // The driver-level run telemetry flowed through the same registry.
    let traversals = c("obfs_run_traversals_total");
    assert!(traversals >= 1, "at least one traversal ran");
    assert!(
        traversals <= st.submitted,
        "coalescing can only shrink the traversal count below the query count"
    );
    assert!(c("obfs_run_levels_total") >= traversals, "every traversal ran >= 1 level");
    assert!(c("obfs_run_edges_scanned_total") > 0, "workers flushed edge counts");

    // The exposition endpoint's text form parses and carries the same
    // counter values (std scraper validation without a socket).
    let text = snap.render_text();
    let parsed = obfs_telemetry::parse_exposition(&text).expect("well-formed exposition");
    let sample = |n: &str| {
        obfs_telemetry::sample(&parsed, n).unwrap_or_else(|| panic!("{n} missing")) as u64
    };
    assert_eq!(sample("obfs_engine_queries_submitted_total"), st.submitted);
    assert_eq!(sample("obfs_engine_queries_shed_total"), st.shed);
    assert_eq!(sample("obfs_run_traversals_total"), traversals);
}

/// The span log must reconstruct every query's lifecycle exactly:
/// every submit attempt (admitted or shed) appears exactly once, every
/// admitted query's transitions obey the lifecycle state machine and
/// end in the terminal the client observed, coalesced members point at
/// a live leader, and the coalesced count agrees with `EngineStats`.
#[test]
fn span_log_reconstructs_every_query_lifecycle() {
    let engine = Engine::new(
        Arc::new(test_graph(12)),
        // One worker thread and a deep queue: queries pile up behind
        // the running traversal, which is exactly what makes the
        // scheduler coalesce them into batches.
        EngineConfig { threads: 1, capacity: 16, max_batch: 8, ..Default::default() },
    );
    let view = drive(&engine, 64, 16);
    let st = engine.stats();
    let tele = Arc::clone(engine.telemetry());
    drop(engine); // lifecycles must survive engine shutdown

    let dump = tele.spans();
    assert_eq!(dump.dropped, 0, "default capacity must hold this workload");
    let lifecycles = span::validate(&dump.events)
        .unwrap_or_else(|e| panic!("span grammar violated: {e}"));

    // Every submit attempt consumed an id and left a lifecycle: the
    // admitted ones, and the shed ones (terminal SHED).
    assert_eq!(lifecycles.len() as u64, st.submitted + st.shed);
    let shed_count =
        lifecycles.values().filter(|l| l.terminal == stage::SHED).count() as u64;
    assert_eq!(shed_count, st.shed);

    // Each client-observed response maps to the identical terminal.
    for (id, status) in &view.responses {
        let lc = lifecycles
            .get(id)
            .unwrap_or_else(|| panic!("query {id} missing from the span log"));
        let want = match status {
            QueryStatus::Complete => stage::COMPLETE,
            QueryStatus::Degraded => stage::DEGRADED,
            QueryStatus::Cancelled => stage::CANCELLED,
            QueryStatus::DeadlineExceeded => stage::DEADLINE_EXCEEDED,
            QueryStatus::Failed(_) => stage::FAILED,
        };
        assert_eq!(
            lc.terminal,
            want,
            "query {id}: span log says {} but the client saw {status:?}",
            stage::name(lc.terminal)
        );
    }

    // Coalesced members reconstruct exactly: their count matches the
    // engine's ledger, and each one's leader ran a batch whose size
    // covers its members.
    let members: Vec<_> =
        lifecycles.values().filter(|l| l.coalesced_into.is_some()).collect();
    assert!(st.batched_runs > 0, "the 1-thread deep-queue workload must coalesce");
    let mut by_leader: BTreeMap<u64, u64> = BTreeMap::new();
    for m in &members {
        *by_leader.entry(m.coalesced_into.unwrap()).or_insert(0) += 1;
    }
    // queries_coalesced counts members plus their leaders.
    let coalesced_total = members.len() as u64 + by_leader.len() as u64;
    assert_eq!(coalesced_total, st.queries_coalesced);
    for (leader, member_count) in &by_leader {
        let lc = &lifecycles[leader];
        let k = lc.batch_size.expect("a batch leader records its batch size");
        assert_eq!(
            k,
            member_count + 1,
            "leader {leader}: RUN_START batch size must cover leader + members"
        );
    }

    // `trace` builds: the scheduler ring mirrors every span transition
    // as a SPAN flight event with an identical (id, stage) stream.
    #[cfg(feature = "trace")]
    {
        let ring = tele.scheduler_trace().expect("scheduler parks its ring on shutdown");
        let mirrored: Vec<(u64, u64)> = ring
            .events
            .iter()
            .filter(|e| e.kind == obfs_sync::flight::kind::SPAN)
            .map(|e| (e.a, span::decode_flight(e.b).0))
            .collect();
        let recorded: Vec<(u64, u64)> =
            dump.events.iter().map(|e| (e.id, e.stage)).collect();
        // The ring holds only the scheduler thread's transitions
        // (SUBMITTED/SHED mirrors land in the submitting thread, which
        // has no ring), and it is bounded — so the mirrors must form an
        // ordered subsequence of the authoritative span log.
        assert!(!mirrored.is_empty(), "SPAN events must land in the scheduler ring");
        let mut rest = recorded.iter();
        for m in &mirrored {
            assert!(
                rest.any(|r| r == m),
                "SPAN mirror {:?}/{} missing from (or out of order with) the span log",
                m.0,
                stage::name(m.1)
            );
        }
        // And the scheduler-side stages are all there: every pop and
        // every terminal the ring retained.
        assert!(mirrored.iter().any(|(_, s)| *s == stage::POPPED));
        assert!(mirrored.iter().any(|(_, s)| span::stage::is_terminal(*s)));
    }
}

/// Zero cost when off: a traversal whose options carry no telemetry
/// handle must leave an unrelated registry completely untouched.
#[test]
fn run_without_telemetry_leaves_a_registry_untouched() {
    let (clock, _hand) = obfs_core::Clock::manual();
    let reg = obfs_telemetry::MetricsRegistry::new(clock);
    let run = obfs_telemetry::RunTelemetry::register(&reg);

    let g = test_graph(13);
    let opts = BfsOptions { threads: 2, ..Default::default() };
    assert!(opts.telemetry.is_none(), "telemetry is opt-in");
    let r = obfs_core::run_bfs(Algorithm::Bfswsl, &g, 0, &opts);
    assert!(r.stats.totals.edges_scanned > 0);

    assert_eq!(run.traversals.value(), 0);
    assert_eq!(run.edges.value(), 0);
    assert_eq!(run.level.value(), 0);

    // And with a handle installed, the same traversal shows up.
    let opts = BfsOptions { threads: 2, telemetry: Some(Arc::clone(&run)), ..Default::default() };
    let r2 = obfs_core::run_bfs(Algorithm::Bfswsl, &g, 0, &opts);
    assert_eq!(run.traversals.value(), 1);
    assert_eq!(
        run.edges.value(),
        r2.stats.totals.edges_scanned,
        "per-level worker flushes must sum to the run's exact edge total"
    );
    assert_eq!(run.levels.value(), u64::from(r2.stats.levels));
}

/// With level stats off, the per-level figures of `RunStats` and the
/// run's telemetry counters still agree, for every parallel algorithm:
/// the leader derives both from the level log it records on every run.
/// Dense RMAT with the default hybrid rule and forced-on compaction
/// makes direction switches and compacted levels both nonzero, so the
/// agreement is never vacuous.
#[test]
fn level_fields_and_run_telemetry_agree_without_level_stats() {
    let g = gen::rmat(10, 16, gen::RmatParams::default(), 3);
    let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
    let reference = obfs_core::serial::serial_bfs(&g, src);
    for algo in Algorithm::ALL.into_iter().filter(|&a| a != Algorithm::Serial) {
        let (clock, _hand) = obfs_core::Clock::manual();
        let reg = obfs_telemetry::MetricsRegistry::new(clock);
        let run = obfs_telemetry::RunTelemetry::register(&reg);
        let opts = BfsOptions {
            threads: 4,
            hybrid: Some(HybridPolicy::default()),
            compaction: Some(CompactionPolicy::forced_on()),
            collect_level_stats: false,
            telemetry: Some(Arc::clone(&run)),
            ..Default::default()
        };
        let r = obfs_core::run_bfs(algo, &g, src, &opts);
        assert_eq!(r.levels, reference.levels, "{algo}");
        let s = &r.stats;
        assert!(s.level_stats.is_empty(), "{algo}: the level log was not asked for");
        assert_eq!(s.directions.len() as u32, s.levels, "{algo}");
        let changes = s.directions.windows(2).filter(|w| w[0] != w[1]).count() as u32;
        assert_eq!(s.direction_switches, changes, "{algo}");
        assert_eq!(run.levels.value(), u64::from(s.levels), "{algo}");
        assert_eq!(run.edges.value(), s.totals.edges_scanned, "{algo}");
        assert_eq!(run.compacted_levels.value(), u64::from(s.compacted_levels), "{algo}");
        assert!(s.direction_switches > 0, "{algo}: dense RMAT never switched direction");
        assert!(s.compacted_levels > 0, "{algo}: forced-on compaction never ran");
    }
}
