//! Flight-recorder integration tests.
//!
//! The recorder must (1) capture the worker lifecycle with exact event
//! counts, (2) stay off unless requested, and (3) — together with the
//! `chaos` feature — show injected faults and watchdog degradations as
//! events that agree with the aggregate counters and the per-level
//! series, so the three observability surfaces (RunStats, LevelStats,
//! flight events) can never silently diverge.

use obfs::core::flight::{kind, to_chrome_trace};
use obfs::prelude::*;

/// Every worker's ring must hold its lifecycle: one WORKER_BEGIN/END
/// pair, one LEVEL_START/END pair per executed level, monotone
/// timestamps, and no unknown kind codes — while the traversal itself
/// stays correct.
#[test]
fn recorder_captures_worker_lifecycle_exactly() {
    let g = gen::erdos_renyi(700, 4900, 19);
    let reference = serial_bfs(&g, 0);
    let threads = 4usize;
    let opts = BfsOptions { threads, flight_recorder: Some(1 << 14), ..Default::default() };
    for algo in [Algorithm::Bfscl, Algorithm::Bfswsl, Algorithm::EdgeCl] {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo}");
        let rec = r.stats.flight.as_ref().unwrap_or_else(|| panic!("{algo}: no recording"));
        assert_eq!(rec.workers.len(), threads, "{algo}: one ring per worker");
        assert_eq!(rec.dropped(), 0, "{algo}: ring wrapped on a small graph");
        assert_eq!(rec.count(kind::WORKER_BEGIN), threads, "{algo}");
        assert_eq!(rec.count(kind::WORKER_END), threads, "{algo}");
        let levels_run = r.stats.levels as usize;
        assert_eq!(rec.count(kind::LEVEL_START), threads * levels_run, "{algo}");
        assert_eq!(rec.count(kind::LEVEL_END), threads * levels_run, "{algo}");
        assert_eq!(rec.count(kind::DEGRADED), 0, "{algo}: no watchdog armed");
        for (tid, w) in rec.workers.iter().enumerate() {
            assert!(!w.events.is_empty(), "{algo}: worker {tid} recorded nothing");
            assert!(
                w.events.windows(2).all(|p| p[0].ts_us <= p[1].ts_us),
                "{algo}: worker {tid} timestamps not monotone"
            );
            for e in &w.events {
                assert_ne!(kind::name(e.kind), "unknown", "{algo}: kind {}", e.kind);
            }
        }
        // The exporter must accept whatever a real run produced.
        let trace = to_chrome_trace(rec);
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(trace.contains("\"name\":\"worker\""));
    }
}

/// Steal-heavy variants must leave steal events in the rings, and the
/// event counts must agree with the merged `StealCounters`.
#[test]
fn steal_events_match_steal_counters() {
    let g = gen::barabasi_albert(900, 4, 31);
    let opts = BfsOptions { threads: 4, flight_recorder: Some(1 << 15), ..Default::default() };
    for algo in [Algorithm::Bfsws, Algorithm::Bfswsl] {
        let r = run_bfs(algo, &g, 0, &opts);
        let rec = r.stats.flight.as_ref().unwrap();
        assert_eq!(rec.dropped(), 0, "{algo}: ring too small for exact counts");
        let steal = &r.stats.totals.steal;
        assert_eq!(
            rec.count(kind::STEAL_SUCCESS) as u64,
            steal.success,
            "{algo}: success events != success counter"
        );
        assert_eq!(
            rec.count(kind::STEAL_FAIL) as u64,
            steal.failed(),
            "{algo}: fail events != failed() counter"
        );
    }
}

/// Hybrid direction switches are leader-recorded events: the DIR_SWITCH
/// count must equal the number of adjacent direction changes in the
/// recorded per-level series (= `RunStats::direction_switches`), the
/// payloads must carry valid direction codes consistent with the series,
/// and the events must survive the chrome exporter.
#[test]
fn direction_switch_events_match_recorded_directions() {
    // Dense low-diameter RMAT: the heuristic provably switches at least
    // once (asserted below), so the test can't pass vacuously.
    let g = gen::rmat(10, 16, gen::RmatParams::default(), 3);
    let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
    let reference = serial_bfs(&g, src);
    let opts = BfsOptions {
        threads: 4,
        hybrid: Some(HybridPolicy::default()),
        flight_recorder: Some(1 << 15),
        ..Default::default()
    };
    for algo in [Algorithm::Bfscl, Algorithm::Bfswsl] {
        let r = run_bfs(algo, &g, src, &opts);
        assert_eq!(r.levels, reference.levels, "{algo}");
        let switches: u32 = r.stats.directions.windows(2).map(|w| u32::from(w[0] != w[1])).sum();
        assert!(switches > 0, "{algo}: dense RMAT never switched direction");
        assert_eq!(switches, r.stats.direction_switches, "{algo}");
        let rec = r.stats.flight.as_ref().unwrap();
        assert_eq!(rec.dropped(), 0, "{algo}: ring too small for exact counts");
        assert_eq!(
            rec.count(kind::DIR_SWITCH) as u32,
            r.stats.direction_switches,
            "{algo}: one leader-recorded event per direction change"
        );
        // Each event's payload: `level` names the level that runs in the
        // new direction, `a`/`b` are (new, old) codes matching the series.
        let code = |d: Direction| match d {
            Direction::TopDown => kind::DIR_TOP_DOWN,
            Direction::BottomUp => kind::DIR_BOTTOM_UP,
        };
        for w in &rec.workers {
            for e in w.events.iter().filter(|e| e.kind == kind::DIR_SWITCH) {
                let lvl = e.level as usize;
                assert!(lvl > 0 && lvl < r.stats.directions.len(), "{algo}: level {lvl}");
                assert_eq!(e.a, code(r.stats.directions[lvl]), "{algo}: new-dir payload");
                assert_eq!(e.b, code(r.stats.directions[lvl - 1]), "{algo}: old-dir payload");
                assert_ne!(e.a, e.b, "{algo}: switch event without a change");
            }
        }
        let trace = to_chrome_trace(rec);
        assert!(
            trace.contains("direction-switch"),
            "{algo}: DIR_SWITCH events must survive the exporter"
        );
    }
}

/// Hybrid runs that never leave top-down (forced override) record no
/// DIR_SWITCH events — the taxonomy stays quiet instead of noisy.
#[test]
fn no_switch_events_without_a_switch() {
    let g = gen::erdos_renyi(500, 3000, 11);
    let opts = BfsOptions {
        threads: 4,
        hybrid: Some(HybridPolicy::forced(ForcedDirection::AlwaysTopDown)),
        flight_recorder: Some(1 << 14),
        ..Default::default()
    };
    let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
    let rec = r.stats.flight.as_ref().unwrap();
    assert_eq!(rec.count(kind::DIR_SWITCH), 0);
    assert_eq!(r.stats.direction_switches, 0);
}

/// Prefix-sum compaction is a leader decision, so it must leave exactly
/// one COMPACT event per compacted level: the event count equals
/// `RunStats::compacted_levels` (and the per-level `compacted` flags),
/// each payload carries the predicted frontier size (`a > 0`), and the
/// events survive the chrome exporter under their taxonomy name.
#[test]
fn compact_events_match_compacted_level_count() {
    let g = gen::erdos_renyi(700, 4900, 29);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions {
        threads: 4,
        compaction: Some(CompactionPolicy::forced_on()),
        flight_recorder: Some(1 << 15),
        collect_level_stats: true,
        ..Default::default()
    };
    for algo in [Algorithm::Bfscl, Algorithm::Bfswsl] {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo}");
        assert!(r.stats.compacted_levels > 0, "{algo}: forced-on never compacted");
        let rec = r.stats.flight.as_ref().unwrap();
        assert_eq!(rec.dropped(), 0, "{algo}: ring too small for exact counts");
        assert_eq!(
            rec.count(kind::COMPACT) as u32,
            r.stats.compacted_levels,
            "{algo}: one leader-recorded COMPACT event per compacted level"
        );
        let flagged = r.stats.level_stats.iter().filter(|e| e.compacted).count() as u32;
        assert_eq!(flagged, r.stats.compacted_levels, "{algo}: series flags disagree");
        for w in &rec.workers {
            for e in w.events.iter().filter(|e| e.kind == kind::COMPACT) {
                assert!(e.a > 0, "{algo}: compacted an empty frontier");
            }
        }
        let trace = to_chrome_trace(rec);
        assert!(
            trace.contains("\"name\":\"compact\""),
            "{algo}: COMPACT events must survive the exporter"
        );
    }
}

/// Every COMPACT event's `(level, a)` payload — which level ran
/// compacted, over how many frontier vertices — survives the
/// chrome-trace round trip of its recording unchanged.
#[test]
fn compact_events_survive_chrome_trace_round_trip() {
    use obfs::core::flight::parse_chrome_trace;
    let g = gen::erdos_renyi(600, 4200, 37);
    let opts = BfsOptions {
        threads: 4,
        compaction: Some(CompactionPolicy::forced_on()),
        flight_recorder: Some(1 << 15),
        ..Default::default()
    };
    let compacts = |rec: &obfs::core::flight::FlightRecording| -> Vec<(u32, u64)> {
        rec.workers
            .iter()
            .flat_map(|w| w.events.iter())
            .filter(|e| e.kind == kind::COMPACT)
            .map(|e| (e.level, e.a))
            .collect()
    };
    let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
    let rec = r.stats.flight.as_ref().unwrap();
    let original = compacts(rec);
    assert_eq!(original.len() as u32, r.stats.compacted_levels);
    assert!(!original.is_empty(), "forced-on run recorded no COMPACT events");
    let replayed = parse_chrome_trace(&to_chrome_trace(rec)).expect("round trip");
    assert_eq!(compacts(&replayed), original, "replay changed a COMPACT payload");
}

/// Without the option the recorder must not run, even on trace builds.
#[test]
fn no_recording_unless_requested() {
    let g = gen::grid2d(20, 20);
    let opts = BfsOptions { threads: 3, ..Default::default() };
    let r = run_bfs(Algorithm::Bfswl, &g, 0, &opts);
    assert!(r.stats.flight.is_none());
}

/// Serial BFS never spawns workers, so it never records.
#[test]
fn serial_never_records() {
    let g = gen::path(200);
    let opts = BfsOptions { threads: 1, flight_recorder: Some(1024), ..Default::default() };
    let r = run_bfs(Algorithm::Serial, &g, 0, &opts);
    assert!(r.stats.flight.is_none());
}

/// Chaos × trace interaction: faults and degradations must be visible in
/// all three observability surfaces at once, and the surfaces must agree.
#[cfg(feature = "chaos")]
mod chaos_interaction {
    use super::*;

    /// Injected faults appear as FAULT events, and the per-level series'
    /// `injected_faults` deltas sum to the run total.
    #[test]
    fn faults_are_events_and_series_conserves_them() {
        let g = gen::erdos_renyi(600, 4200, 5);
        let reference = serial_bfs(&g, 0);
        let opts = BfsOptions {
            threads: 4,
            chaos: Some(ChaosConfig::store_buffer(0xFA17)),
            flight_recorder: Some(1 << 15),
            collect_level_stats: true,
            ..Default::default()
        };
        let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels);
        let total = r.stats.totals.injected_faults;
        assert!(total > 0, "plan installed but no faults injected");
        let rec = r.stats.flight.as_ref().unwrap();
        assert!(rec.count(kind::FAULT) > 0, "faults injected but no FAULT events");
        let series_sum: u64 = r.stats.level_stats.iter().map(|l| l.counters.injected_faults).sum();
        assert_eq!(series_sum, total, "per-level fault deltas must sum to the total");
        // Fault events carry a valid cause code.
        for w in &rec.workers {
            for e in w.events.iter().filter(|e| e.kind == kind::FAULT) {
                assert!(
                    (kind::FAULT_DELAY..=kind::FAULT_SKEW).contains(&e.a),
                    "bad fault cause {}",
                    e.a
                );
            }
        }
    }

    /// A zero deadline degrades every level; the DEGRADED events, the
    /// series' degraded flags, and `RunStats::degraded_levels` must all
    /// report the same count.
    #[test]
    fn degraded_levels_agree_across_surfaces() {
        let g = gen::erdos_renyi(500, 3500, 9);
        let reference = serial_bfs(&g, 0);
        let opts = BfsOptions {
            threads: 4,
            watchdog: Some(WatchdogPolicy::deadline(std::time::Duration::ZERO)),
            flight_recorder: Some(1 << 15),
            collect_level_stats: true,
            ..Default::default()
        };
        let r = run_bfs(Algorithm::Bfswsl, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels);
        assert_eq!(r.stats.degraded_levels, r.stats.levels);
        let rec = r.stats.flight.as_ref().unwrap();
        assert_eq!(
            rec.count(kind::DEGRADED) as u32,
            r.stats.degraded_levels,
            "one leader-recorded DEGRADED event per degraded level"
        );
        let flagged = r.stats.level_stats.iter().filter(|l| l.degraded).count() as u32;
        assert_eq!(flagged, r.stats.degraded_levels, "series flags disagree");
    }
}
