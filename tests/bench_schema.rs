//! Golden-schema tests for the machine-readable benchmark pipeline:
//! the hand-rolled JSON round-trips, live reports built from real runs
//! satisfy the conservation invariants, every committed `BENCH_*.json`
//! artifact stays parseable and valid, and the chrome://tracing exporter
//! keeps its shape. `obfs_bench::json::validate_report` is the single source
//! of truth shared with the CI smoke check.

use obfs::prelude::*;
use obfs_bench::harness::pick_sources;
use obfs_bench::json::{self, Json};
use obfs_bench::{measure_with_series, BenchArgs, BenchReport, Contender, ContenderPool, Workload};
use obfs_core::flight::{kind, FlightEvent, FlightRecording, RingDump};

fn small_args() -> BenchArgs {
    BenchArgs {
        divisor: 4096,
        threads: 4,
        sources: 2,
        seed: 7,
        ..BenchArgs::default()
    }
}

/// Build a report exactly the way the bench bins do, from real runs, and
/// check it satisfies the schema it will be validated against in CI:
/// required keys present, steal buckets sum to attempts, per-level series
/// counters sum to the collection run's merged totals.
#[test]
fn live_report_round_trips_and_conserves_counters() {
    let args = small_args();
    let g = gen::erdos_renyi(800, 6400, args.seed);
    let sources = pick_sources(&g, args.sources, args.seed);
    let w = Workload::new("er", g, &sources);
    let opts = BfsOptions { threads: args.threads, ..BfsOptions::default() };
    let mut pool = ContenderPool::new(args.threads);
    let mut report = BenchReport::new("schema-test", &args);
    for algo in [Algorithm::Bfscl, Algorithm::Bfswl, Algorithm::Bfswsl] {
        let m = measure_with_series(&mut pool, Contender::Ours(algo), &w, &opts);
        let series = m.series.as_ref().expect("parallel run must produce a series");
        assert!(!series.levels.is_empty());
        report.add(&m);
    }
    let text = report.render();
    let doc = Json::parse(&text).expect("emitted report must parse");
    json::validate_report(&doc).expect("emitted report must validate");
    // Byte-stable round trip: parse → render → parse gives the same tree.
    assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
}

/// A serial contender carries no per-level series, but its result entry
/// must still validate (series is optional in the schema).
#[test]
fn serial_contender_omits_series_but_validates() {
    let args = small_args();
    let g = gen::binary_tree(511);
    let sources = pick_sources(&g, 1, args.seed);
    let w = Workload::new("tree", g, &sources);
    let opts = BfsOptions { threads: args.threads, ..BfsOptions::default() };
    let mut pool = ContenderPool::new(args.threads);
    let m = measure_with_series(&mut pool, Contender::Ours(Algorithm::Serial), &w, &opts);
    assert!(m.series.is_none(), "serial runs produce no level stats");
    let mut report = BenchReport::new("schema-test-serial", &args);
    report.add(&m);
    json::validate_report(&Json::parse(&report.render()).unwrap()).unwrap();
}

/// Every `BENCH_<name>.json` in the repository root, plus the CI
/// baseline under `results/`, must stay parseable and internally
/// consistent, and name its own bench; regenerate with
/// `scripts/bench.sh` if the schema changes.
#[test]
fn committed_bench_artifact_validates() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(root).expect("read the repository root") {
        let name = entry.expect("read a directory entry").file_name();
        let name = name.to_string_lossy();
        if let Some(bench) = name.strip_prefix("BENCH_").and_then(|n| n.strip_suffix(".json")) {
            checked.push((root.join(&*name), bench.to_string()));
        }
    }
    checked.push((root.join("results/BENCH_table6_ci.json"), "table6".to_string()));
    let names: Vec<&str> = checked.iter().map(|(_, b)| b.as_str()).collect();
    for required in ["table6", "graph500", "serve"] {
        assert!(names.contains(&required), "missing committed BENCH_{required}.json");
    }
    for (path, bench) in &checked {
        let shown = path.display();
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("missing committed artifact {shown}: {e}"));
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{shown} must parse: {e}"));
        json::validate_report(&doc).unwrap_or_else(|e| panic!("{shown} must validate: {e}"));
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some(bench.as_str()), "{shown}");
    }
}

/// The chrome://tracing exporter is feature-independent (the event types
/// are always compiled); check its shape on a synthetic recording.
#[test]
fn chrome_trace_exporter_shape() {
    let rec = FlightRecording {
        workers: vec![
            RingDump {
                events: vec![
                    FlightEvent { ts_us: 0, kind: kind::WORKER_BEGIN, level: 0, a: 0, b: 0 },
                    FlightEvent { ts_us: 1, kind: kind::LEVEL_START, level: 0, a: 1, b: 0 },
                    FlightEvent { ts_us: 5, kind: kind::SEGMENT_FETCH, level: 0, a: 0, b: 8 },
                    FlightEvent { ts_us: 9, kind: kind::LEVEL_END, level: 0, a: 0, b: 0 },
                    FlightEvent { ts_us: 12, kind: kind::WORKER_END, level: 0, a: 0, b: 0 },
                ],
                dropped: 0,
            },
            RingDump {
                events: vec![FlightEvent {
                    ts_us: 3,
                    kind: kind::STEAL_SUCCESS,
                    level: 0,
                    a: 0,
                    b: 4,
                }],
                dropped: 2,
            },
        ],
    };
    assert_eq!(rec.total_events(), 6);
    assert_eq!(rec.total_dropped(), 2);
    assert_eq!(rec.count(kind::SEGMENT_FETCH), 1);
    let text = obfs_core::flight::to_chrome_trace(&rec);
    let doc = Json::parse(&text).expect("chrome trace must be valid JSON");
    assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    // 6 recorded events + 1 process_name + per-worker thread_name and
    // ring-dropped counter (2 workers).
    assert_eq!(events.len(), 11);
    // Paired kinds become B/E span events, the rest instants; metadata
    // ('M') labels the process and each worker thread, and a counter
    // ('C') per worker carries the ring-overflow count.
    let phases: Vec<&str> =
        events.iter().map(|e| e.get("ph").and_then(Json::as_str).unwrap()).collect();
    assert_eq!(phases.iter().filter(|p| **p == "B").count(), 2);
    assert_eq!(phases.iter().filter(|p| **p == "E").count(), 2);
    assert_eq!(phases.iter().filter(|p| **p == "i").count(), 2);
    assert_eq!(phases.iter().filter(|p| **p == "M").count(), 3);
    assert_eq!(phases.iter().filter(|p| **p == "C").count(), 2);
    // Worker index becomes the tid (the process_name record has none).
    let tids: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("tid").and_then(Json::as_u64))
        .collect();
    assert!(tids.contains(&0) && tids.contains(&1));
    // The exporter round-trips exactly through the bundled parser.
    let back = obfs_core::flight::parse_chrome_trace(&text).expect("parse own export");
    assert_eq!(back, rec);
}
