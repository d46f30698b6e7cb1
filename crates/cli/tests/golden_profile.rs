//! Golden test for the post-mortem profiler: a real recorded trace is
//! committed under `results/`, and `obfs analyze --json` on it must
//! reproduce the committed profile byte-for-byte — forever, on any
//! machine. This is the replayability contract: analysis is a pure
//! function of the trace file, so a run recorded once can be
//! re-profiled offline with identical output.
//!
//! The inputs were produced with:
//!
//! ```text
//! obfs gen --model er --n 2000 --edge-factor 8 --seed 7 --out g.bin
//! obfs bfs --in g.bin --algo BFS_WSL --threads 4 --src 0 \
//!     --trace results/trace_bfswsl_t4.json
//! obfs analyze results/trace_bfswsl_t4.json --json \
//!     > results/profile_bfswsl_t4.json
//! ```
//!
//! The analyzer only *reads* traces: recording is not involved.

use obfs_cli::dispatch;
use std::path::PathBuf;

fn results_path(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn committed_trace_profiles_to_committed_golden_json() {
    let trace = results_path("trace_bfswsl_t4.json");
    let golden = std::fs::read_to_string(results_path("profile_bfswsl_t4.json"))
        .expect("golden profile missing from results/");

    let got = dispatch(&["analyze".into(), trace.clone(), "--json".into()])
        .expect("analyze failed on the committed trace");
    assert_eq!(
        got, golden,
        "profile drifted from the committed golden — if the profiler \
         changed intentionally, regenerate results/profile_bfswsl_t4.json"
    );

    // Determinism double-check: a second pass is byte-identical too.
    let again = dispatch(&["analyze".into(), trace, "--json".into()]).unwrap();
    assert_eq!(got, again);
}

#[test]
fn committed_trace_renders_human_table() {
    let trace = results_path("trace_bfswsl_t4.json");
    let table = dispatch(&["analyze".into(), trace.clone()]).unwrap();
    assert!(table.contains("per-worker utilization"), "{table}");
    assert!(table.contains("per-level activity"), "{table}");
    assert!(table.contains("steal-fail distance to next barrier"), "{table}");
    let again = dispatch(&["analyze".into(), trace]).unwrap();
    assert_eq!(table, again, "human table must be deterministic too");
}
