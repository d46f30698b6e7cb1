//! Differential test matrix for batched bit-parallel multi-source BFS.
//!
//! The batched kernel answers up to 64 sources in one traversal by
//! carrying a `u64` membership word per vertex. This matrix pins it to
//! the ground truth: for every (graph, algorithm, thread count, batch
//! size) cell, each query's level array must be **bitwise identical** to
//! an independent single-source serial run from the same source, and the
//! recorded parent tree must be exact-level self-consistent. Any lost
//! membership bit, cross-query bleed, or push-dedup hole shows up as a
//! level mismatch here.

use obfs::prelude::*;
use obfs_core::validate::check_self_consistent;
use obfs_core::{BfsRunner, UNVISITED};

/// Parallel algorithms under test (all of them; Serial is the oracle and
/// also has its own batch entry, exercised in `serial_batch_entry`).
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

/// Deterministic source list: k spread-out vertices, including repeats
/// when `dup` is set (duplicate sources must yield identical columns).
fn pick_sources(n: usize, k: usize, stride: usize, dup: bool) -> Vec<u32> {
    (0..k)
        .map(|q| {
            let q = if dup { q / 2 } else { q }; // pairs of duplicates
            ((q * stride + 1) % n) as u32
        })
        .collect()
}

/// Check one batched run against per-source serial oracles.
fn check_batch(
    g: &CsrGraph,
    batch: &BatchResult,
    sources: &[u32],
    tag: &str,
) {
    assert_eq!(batch.queries.len(), sources.len(), "{tag}: wrong batch size");
    for (q, qr) in batch.queries.iter().enumerate() {
        assert_eq!(qr.source, sources[q], "{tag}: query {q} source mismatch");
        let oracle = serial_bfs(g, sources[q]);
        assert_eq!(
            qr.levels, oracle.levels,
            "{tag}: query {q} (src {}) levels diverge from serial",
            sources[q]
        );
        if qr.parents.is_some() {
            let r = qr.as_bfs_result(&batch.stats);
            check_self_consistent(g, sources[q], &r)
                .unwrap_or_else(|e| panic!("{tag}: query {q} invalid parent tree: {e}"));
        }
    }
}

fn families() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("path", gen::path(400)),
        ("star", gen::star(300)),
        ("erdos-renyi", gen::erdos_renyi(1200, 9000, 41)),
        ("barabasi-albert", gen::barabasi_albert(800, 3, 43)),
        ("grid2d", gen::grid2d(25, 31)),
        (
            "disconnected",
            CsrGraph::from_edges(
                500,
                &[(0, 1), (1, 2), (2, 3), (100, 101), (101, 102), (300, 301)],
            ),
        ),
    ]
}

/// The core matrix: graphs × all parallel algorithms × threads
/// {1, 2, 4, 8} × batch sizes {1, 2, 17, 64}.
#[test]
fn batched_matches_independent_serial_runs() {
    for (name, g) in families() {
        let n = g.num_vertices();
        for &threads in &[1usize, 2, 4, 8] {
            let runner = BfsRunner::new(threads);
            let opts = BfsOptions { threads, record_parents: true, ..BfsOptions::default() };
            for &k in &[1usize, 2, 17, 64] {
                let sources = pick_sources(n, k, n / k + 3, false);
                for &algo in &PARALLEL {
                    let b = runner.run_batch(algo, &g, &sources, &opts);
                    check_batch(&g, &b, &sources, &format!("{name}/{algo}/p{threads}/k{k}"));
                }
            }
        }
    }
}

/// Duplicate sources in one batch: every copy must produce an identical
/// column (first-claim races between twin queries are still per-slot).
#[test]
fn duplicate_sources_yield_identical_columns() {
    let g = gen::erdos_renyi(900, 6300, 47);
    let opts = BfsOptions { threads: 4, record_parents: true, ..BfsOptions::default() };
    let runner = BfsRunner::new(4);
    for &k in &[2usize, 17, 64] {
        let sources = pick_sources(g.num_vertices(), k, 89, true);
        for &algo in &PARALLEL {
            let b = runner.run_batch(algo, &g, &sources, &opts);
            check_batch(&g, &b, &sources, &format!("dup/{algo}/k{k}"));
            for pair in b.queries.chunks(2) {
                if pair.len() == 2 && pair[0].source == pair[1].source {
                    assert_eq!(
                        pair[0].levels, pair[1].levels,
                        "{algo}/k{k}: twin queries disagree"
                    );
                }
            }
        }
    }
}

/// Hybrid direction-switching batch runs: bottom-up levels rebuild the
/// frontier words (`front_by`) and claim via in-edge probes; results must
/// still match serial, including when the direction is forced.
#[test]
fn hybrid_batches_match_serial() {
    let g = gen::barabasi_albert(1000, 4, 53); // dense core → real switches
    let sources = pick_sources(g.num_vertices(), 17, 59, false);
    for &threads in &[1usize, 4] {
        let runner = BfsRunner::new(threads);
        for policy in [
            HybridPolicy::default(),
            HybridPolicy::forced(ForcedDirection::AlwaysBottomUp),
            HybridPolicy::forced(ForcedDirection::AlwaysTopDown),
        ] {
            let opts = BfsOptions {
                threads,
                record_parents: true,
                hybrid: Some(policy),
                ..BfsOptions::default()
            };
            for algo in [Algorithm::Bfscl, Algorithm::Bfswl, Algorithm::Bfswsl] {
                let b = runner.run_batch(algo, &g, &sources, &opts);
                check_batch(&g, &b, &sources, &format!("hybrid/{algo}/p{threads}"));
            }
        }
    }
}

/// The `Algorithm::Serial` batch entry (a loop of serial runs) is the
/// shape the engine falls back to; it must agree with the oracle too and
/// merge stats across queries.
#[test]
fn serial_batch_entry() {
    let g = gen::grid2d(20, 20);
    let sources = pick_sources(g.num_vertices(), 5, 71, false);
    let opts = BfsOptions { record_parents: true, ..BfsOptions::default() };
    let b = run_batch(Algorithm::Serial, &g, &sources, &opts);
    check_batch(&g, &b, &sources, "serial-batch");
    assert!(b.stats.totals.vertices_explored >= g.num_vertices() as u64);
}

/// Sources sitting in different components: membership words must not
/// bleed reachability across components (query q's column stays
/// UNVISITED outside its own component).
#[test]
fn disconnected_components_stay_isolated() {
    let g = CsrGraph::from_edges(
        600,
        &[(0, 1), (1, 2), (2, 3), (3, 4), (200, 201), (201, 202), (400, 401)],
    );
    let sources = vec![0u32, 200, 400, 599]; // 599 is fully isolated
    let opts = BfsOptions { threads: 4, record_parents: true, ..BfsOptions::default() };
    for &algo in &PARALLEL {
        let b = run_batch(algo, &g, &sources, &opts);
        check_batch(&g, &b, &sources, &format!("components/{algo}"));
        // Explicit cross-bleed probes.
        assert_eq!(b.queries[0].levels[200], UNVISITED, "{algo}: bleed 0→200");
        assert_eq!(b.queries[1].levels[0], UNVISITED, "{algo}: bleed 200→0");
        assert_eq!(b.queries[3].reached(), 1, "{algo}: isolated source reached >1");
    }
}

/// Option grid riding along: segment policies and phase-2 stealing must
/// not perturb batched results (owner-array dedup is excluded — it is
/// incompatible with batching by design and asserted in `RunState::from_buffers`).
#[test]
fn batch_option_grid() {
    let g = gen::barabasi_albert(700, 3, 61);
    let sources = pick_sources(g.num_vertices(), 17, 37, false);
    let runner = BfsRunner::new(4);
    for segment in [SegmentPolicy::Fixed(8), SegmentPolicy::Adaptive { div: 8, max: 1024 }] {
        for phase2_steal in [false, true] {
            let opts = BfsOptions {
                threads: 4,
                segment,
                phase2_steal,
                hub_threshold: Some(8),
                record_parents: true,
                ..BfsOptions::default()
            };
            for algo in [Algorithm::Bfscl, Algorithm::Bfswsl, Algorithm::EdgeCl] {
                let b = runner.run_batch(algo, &g, &sources, &opts);
                check_batch(
                    &g,
                    &b,
                    &sources,
                    &format!("grid/{algo}/{segment:?}/p2s={phase2_steal}"),
                );
            }
        }
    }
}

/// Owner-array dedup is rejected for batches (the owner word is
/// per-vertex, not per-query; silently accepting it would drop queries).
#[test]
#[should_panic(expected = "incompatible with batched")]
fn owner_array_dedup_rejected() {
    let g = gen::path(50);
    let opts = BfsOptions { threads: 2, dedup: DedupMode::OwnerArray, ..BfsOptions::default() };
    let _ = run_batch(Algorithm::Bfswl, &g, &[0, 5], &opts);
}
