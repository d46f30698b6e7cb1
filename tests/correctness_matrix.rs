//! The correctness matrix: every algorithm (ours + both baselines) ×
//! graph family × thread count must produce exactly the serial BFS level
//! assignment. This is the load-bearing test for the paper's central
//! claim that optimistic (racy) queue handling never corrupts the result.

use obfs::prelude::*;
use obfs_baselines::hong::{hong_bfs, HongVariant};
use obfs_baselines::pbfs::pbfs;
use obfs_core::serial::serial_bfs;

fn families() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("path", gen::path(500)),
        ("cycle", gen::cycle(333)),
        ("star", gen::star(400)),
        ("binary-tree", gen::binary_tree(1023)),
        ("complete", gen::complete(64)),
        ("erdos-renyi", gen::erdos_renyi(1000, 8000, 11)),
        ("barabasi-albert", gen::barabasi_albert(900, 3, 5)),
        ("grid2d", gen::grid2d(30, 33)),
        ("torus3d", gen::torus3d(9, 9, 9)),
        ("rmat", gen::rmat(10, 8, gen::RmatParams::default(), 3)),
        (
            "disconnected",
            CsrGraph::from_edges(300, &[(0, 1), (1, 2), (2, 0), (100, 101), (200, 201)]),
        ),
    ]
}

#[test]
fn all_our_algorithms_match_serial_everywhere() {
    let parallel: Vec<Algorithm> =
        Algorithm::ALL.into_iter().filter(|a| *a != Algorithm::Serial).collect();
    for (name, g) in families() {
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap_or(0);
        let reference = serial_bfs(&g, src);
        for &threads in &[1usize, 2, 4, 7] {
            let opts = BfsOptions { threads, ..BfsOptions::default() };
            for &algo in &parallel {
                let r = run_bfs(algo, &g, src, &opts);
                assert_eq!(
                    r.levels, reference.levels,
                    "{algo} wrong on {name} with {threads} threads"
                );
            }
        }
    }
}

#[test]
fn baselines_match_serial_everywhere() {
    for (name, g) in families() {
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap_or(0);
        let reference = serial_bfs(&g, src);
        for &threads in &[1usize, 4] {
            let r = pbfs(&g, src, threads);
            assert_eq!(r.levels, reference.levels, "pbfs wrong on {name} (p={threads})");
            for v in HongVariant::ALL {
                let r = hong_bfs(v, &g, src, threads);
                assert_eq!(r.levels, reference.levels, "{v} wrong on {name} (p={threads})");
            }
        }
    }
}

#[test]
fn all_algorithms_from_many_sources() {
    let g = gen::erdos_renyi(800, 5600, 17);
    let opts = BfsOptions { threads: 4, ..BfsOptions::default() };
    for src in [0u32, 7, 99, 400, 799] {
        let reference = serial_bfs(&g, src);
        for algo in Algorithm::ALL {
            let r = run_bfs(algo, &g, src, &opts);
            assert_eq!(r.levels, reference.levels, "{algo} wrong from source {src}");
        }
    }
}

#[test]
fn option_grid_does_not_break_correctness() {
    let g = gen::barabasi_albert(700, 3, 23);
    // Rotate the source through the grid instead of pinning vertex 0:
    // option bugs that only bite from a hub, a leaf, or the last vertex
    // would all pass a src=0-only sweep.
    let sources = [0u32, 3, 377, 699];
    let references: Vec<_> = sources.iter().map(|&s| serial_bfs(&g, s)).collect();
    let segments = [
        SegmentPolicy::Fixed(1),
        SegmentPolicy::Fixed(64),
        SegmentPolicy::Adaptive { div: 2, max: 4096 },
        SegmentPolicy::Adaptive { div: 16, max: 8 },
    ];
    let dedups = [DedupMode::None, DedupMode::OwnerArray];
    let mut combo = 0usize;
    for segment in segments {
        for dedup in dedups {
            for phase2_steal in [false, true] {
                let src = sources[combo % sources.len()];
                let reference = &references[combo % sources.len()];
                combo += 1;
                let opts = BfsOptions {
                    threads: 4,
                    segment,
                    dedup,
                    phase2_steal,
                    hub_threshold: Some(8),
                    record_parents: true,
                    ..BfsOptions::default()
                };
                for algo in
                    [Algorithm::Bfscl, Algorithm::Bfsdl, Algorithm::Bfswl, Algorithm::Bfswsl]
                {
                    let r = run_bfs(algo, &g, src, &opts);
                    assert_eq!(
                        r.levels, reference.levels,
                        "{algo} wrong from {src} with {segment:?}/{dedup:?}/p2steal={phase2_steal}"
                    );
                    obfs::core::validate::check_self_consistent(&g, src, &r)
                        .unwrap_or_else(|e| panic!("{algo}: invalid tree: {e}"));
                }
            }
        }
    }
}

/// Sources inside secondary components and isolated vertices: the
/// degree>0 source pick used elsewhere always lands in the first
/// component, so a traversal that "accidentally" bleeds across
/// components (or mishandles an immediately-empty frontier) would never
/// be caught there. Every algorithm must reproduce serial levels —
/// reaching exactly the source's own component — from each such source.
#[test]
fn sources_in_secondary_components_match_serial() {
    let g =
        CsrGraph::from_edges(300, &[(0, 1), (1, 2), (2, 0), (100, 101), (101, 102), (200, 201)]);
    // Component reps (100, 200), interior (101), and isolated (50, 299).
    for src in [100u32, 101, 200, 50, 299] {
        let reference = serial_bfs(&g, src);
        let reached = reference.reached();
        for &threads in &[1usize, 4] {
            let opts = BfsOptions { threads, record_parents: true, ..BfsOptions::default() };
            for algo in Algorithm::ALL {
                let r = run_bfs(algo, &g, src, &opts);
                assert_eq!(
                    r.levels, reference.levels,
                    "{algo} wrong from secondary-component source {src} (p={threads})"
                );
                assert_eq!(r.reached(), reached, "{algo} bled across components from {src}");
                obfs::core::validate::check_self_consistent(&g, src, &r)
                    .unwrap_or_else(|e| panic!("{algo} from {src}: invalid tree: {e}"));
            }
        }
    }
}

/// Deterministic option matrix: every parallel algorithm × thread count
/// {1, 2, 4, 8} × watchdog {off, armed-generous} × segment policy, all
/// with fixed seeds so a failure reproduces bit-for-bit from the assert
/// message. Runners are cached per thread count so the sweep reuses
/// pools instead of respawning workers for each of the ~500 runs.
#[test]
fn deterministic_matrix_sweep() {
    let graphs =
        [("erdos-renyi", gen::erdos_renyi(600, 4200, 29)), ("grid2d", gen::grid2d(24, 25))];
    let parallel: Vec<Algorithm> =
        Algorithm::ALL.into_iter().filter(|a| *a != Algorithm::Serial).collect();
    let segments = [SegmentPolicy::Fixed(8), SegmentPolicy::default()];
    let mut runners: Vec<(usize, obfs::core::BfsRunner)> = Vec::new();
    for (name, g) in &graphs {
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let reference = serial_bfs(g, src);
        for &threads in &[1usize, 2, 4, 8] {
            let runner = match runners.iter().position(|(t, _)| *t == threads) {
                Some(i) => &runners[i].1,
                None => {
                    runners.push((threads, obfs::core::BfsRunner::new(threads)));
                    &runners.last().unwrap().1
                }
            };
            for watchdog_on in [false, true] {
                for segment in segments {
                    let opts = BfsOptions {
                        threads,
                        segment,
                        // A generous deadline arms the watchdog machinery
                        // (the per-level deadline checks run) without
                        // actually degrading any level.
                        watchdog: watchdog_on
                            .then(|| WatchdogPolicy::deadline(std::time::Duration::from_secs(60))),
                        record_parents: true,
                        seed: 0xC0FFEE ^ (threads as u64) << 8,
                        ..BfsOptions::default()
                    };
                    for &algo in &parallel {
                        let r = runner.run(algo, g, src, &opts);
                        assert_eq!(
                            r.levels, reference.levels,
                            "{algo} wrong on {name}: threads={threads} \
                             watchdog={watchdog_on} segment={segment:?}"
                        );
                        obfs::core::validate::check_self_consistent(g, src, &r).unwrap_or_else(
                            |e| {
                                panic!(
                                    "{algo} invalid tree on {name}: threads={threads} \
                                     watchdog={watchdog_on} segment={segment:?}: {e}"
                                )
                            },
                        );
                        assert_eq!(
                            r.stats.degraded_levels, 0,
                            "{algo} on {name}: generous watchdog must never trip"
                        );
                    }
                }
            }
        }
    }
}

/// Hybrid-aware matrix: hybrid {off, heuristic, forced-top-down,
/// forced-bottom-up} × threads {1, 2, 4, 8} × every parallel algorithm,
/// with exact level *and* parent agreement against serial BFS. Forced
/// overrides pin every level into one kernel so both code paths get the
/// full graph-family sweep, not just the levels the heuristic happens to
/// pick.
#[test]
fn hybrid_matrix_matches_serial_everywhere() {
    let graphs = [
        ("erdos-renyi", gen::erdos_renyi(700, 5600, 19)),
        ("barabasi-albert", gen::barabasi_albert(800, 3, 37)),
        ("complete", gen::complete(96)),
        (
            "disconnected",
            CsrGraph::from_edges(300, &[(0, 1), (1, 2), (2, 0), (100, 101), (200, 201)]),
        ),
    ];
    let parallel: Vec<Algorithm> =
        Algorithm::ALL.into_iter().filter(|a| *a != Algorithm::Serial).collect();
    let modes: [(&str, Option<HybridPolicy>); 4] = [
        ("off", None),
        ("heuristic", Some(HybridPolicy::default())),
        ("forced-td", Some(HybridPolicy::forced(ForcedDirection::AlwaysTopDown))),
        ("forced-bu", Some(HybridPolicy::forced(ForcedDirection::AlwaysBottomUp))),
    ];
    let mut runners: Vec<(usize, obfs::core::BfsRunner)> = Vec::new();
    for (name, g) in &graphs {
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let reference = serial_bfs(g, src);
        let transpose = g.transpose();
        for &threads in &[1usize, 2, 4, 8] {
            let runner = match runners.iter().position(|(t, _)| *t == threads) {
                Some(i) => &runners[i].1,
                None => {
                    runners.push((threads, obfs::core::BfsRunner::new(threads)));
                    &runners.last().unwrap().1
                }
            };
            for (mode, hybrid) in &modes {
                let opts = BfsOptions {
                    threads,
                    hybrid: *hybrid,
                    record_parents: true,
                    seed: 0xC0FFEE ^ (threads as u64) << 8,
                    ..BfsOptions::default()
                };
                for &algo in &parallel {
                    let r = runner.run_with_transpose(algo, g, Some(&transpose), src, &opts);
                    assert_eq!(
                        r.levels, reference.levels,
                        "{algo} wrong on {name}: threads={threads} hybrid={mode}"
                    );
                    obfs::core::validate::check_self_consistent(g, src, &r).unwrap_or_else(|e| {
                        panic!(
                            "{algo} invalid tree on {name}: threads={threads} \
                                 hybrid={mode}: {e}"
                        )
                    });
                    if hybrid.is_some() {
                        assert_eq!(
                            r.stats.directions.len() as u32,
                            r.stats.levels,
                            "{algo} on {name}: direction per level (hybrid={mode})"
                        );
                    } else {
                        assert!(r.stats.directions.is_empty(), "{algo} on {name}");
                    }
                }
            }
        }
    }
}

/// Compaction-aware matrix: compaction {off, auto-density, forced-on} ×
/// threads {1, 2, 4, 8} × every parallel algorithm, with exact level and
/// parent-tree agreement against serial BFS. Forced-on compacts *every*
/// non-empty top-down level, so the prefix-sum materialize/consume path
/// gets the full graph-family sweep rather than only the dense levels
/// the density rule happens to pick; the forced-on rows must also report
/// at least one compacted level on any multi-level graph, proving the
/// mode was actually exercised.
#[test]
fn compaction_matrix_matches_serial_everywhere() {
    let graphs = [
        ("erdos-renyi", gen::erdos_renyi(700, 5600, 23)),
        ("barabasi-albert", gen::barabasi_albert(800, 3, 41)),
        ("grid2d", gen::grid2d(24, 25)),
        (
            "disconnected",
            CsrGraph::from_edges(300, &[(0, 1), (1, 2), (2, 0), (100, 101), (200, 201)]),
        ),
    ];
    let parallel: Vec<Algorithm> =
        Algorithm::ALL.into_iter().filter(|a| *a != Algorithm::Serial).collect();
    let modes: [(&str, Option<CompactionPolicy>); 3] = [
        ("off", None),
        ("auto", Some(CompactionPolicy::default())),
        ("forced-on", Some(CompactionPolicy::forced_on())),
    ];
    let mut runners: Vec<(usize, obfs::core::BfsRunner)> = Vec::new();
    for (name, g) in &graphs {
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let reference = serial_bfs(g, src);
        let multi_level = reference.levels.iter().any(|&l| l != u32::MAX && l > 0);
        for &threads in &[1usize, 2, 4, 8] {
            let runner = match runners.iter().position(|(t, _)| *t == threads) {
                Some(i) => &runners[i].1,
                None => {
                    runners.push((threads, obfs::core::BfsRunner::new(threads)));
                    &runners.last().unwrap().1
                }
            };
            for (mode, compaction) in &modes {
                let opts = BfsOptions {
                    threads,
                    compaction: *compaction,
                    record_parents: true,
                    seed: 0xC0FFEE ^ (threads as u64) << 8,
                    ..BfsOptions::default()
                };
                for &algo in &parallel {
                    let r = runner.run(algo, g, src, &opts);
                    assert_eq!(
                        r.levels, reference.levels,
                        "{algo} wrong on {name}: threads={threads} compaction={mode}"
                    );
                    obfs::core::validate::check_self_consistent(g, src, &r).unwrap_or_else(|e| {
                        panic!(
                            "{algo} invalid tree on {name}: threads={threads} \
                                 compaction={mode}: {e}"
                        )
                    });
                    match *mode {
                        "off" => assert_eq!(
                            r.stats.compacted_levels, 0,
                            "{algo} on {name}: compacted with compaction disabled"
                        ),
                        "forced-on" if multi_level => {
                            assert!(
                                r.stats.compacted_levels > 0,
                                "{algo} on {name}: forced-on never compacted \
                                 (threads={threads})"
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

#[test]
fn single_vertex_and_isolated_source() {
    let single = CsrGraph::from_edges(1, &[]);
    let isolated = CsrGraph::from_edges(5, &[(1, 2), (2, 3)]);
    let opts = BfsOptions { threads: 3, ..BfsOptions::default() };
    for algo in Algorithm::ALL {
        let r = run_bfs(algo, &single, 0, &opts);
        assert_eq!(r.levels, vec![0], "{algo} on the 1-vertex graph");
        // Source 0 has no out-edges at all.
        let r = run_bfs(algo, &isolated, 0, &opts);
        assert_eq!(r.reached(), 1, "{algo} from an isolated source");
        assert_eq!(r.levels[0], 0);
    }
}

#[test]
fn self_loops_and_parallel_edge_graphs() {
    // Built without dedup: parallel edges and self-loops survive.
    let mut b = GraphBuilder::new(6).dedup(false).allow_self_loops(true);
    b.extend([(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    let g = b.build();
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions { threads: 4, ..BfsOptions::default() };
    for algo in Algorithm::ALL {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo} with self-loops/multi-edges");
    }
}
