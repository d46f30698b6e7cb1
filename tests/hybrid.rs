//! Direction-optimizing hybrid tests: α/β switch points on crafted
//! frontier shapes, queue↔bitmap round-trips, and agreement between the
//! recorded per-level directions and an offline replay of the heuristic.

use obfs::prelude::*;
use obfs_core::frontier::{level_words, BITMAP_WORD_BITS};
use obfs_core::serial::serial_bfs;
use obfs_core::state::RunState;
use obfs_core::validate::check_self_consistent;
use obfs_core::UNVISITED;

fn hybrid_opts(threads: usize) -> BfsOptions {
    BfsOptions {
        threads,
        hybrid: Some(HybridPolicy::default()),
        collect_level_stats: true,
        record_parents: true,
        ..BfsOptions::default()
    }
}

/// Offline replay of the driver's heuristic from the recorded per-level
/// series. Exact, not approximate: the leader decided from the very
/// `frontier_edges` deltas and `discovered` counts that land in
/// [`obfs_core::LevelStats`].
fn replay_directions(
    g: &CsrGraph,
    src: u32,
    pol: &HybridPolicy,
    stats: &obfs_core::RunStats,
) -> Vec<Direction> {
    let n = g.num_vertices() as u64;
    let mut mu = g.num_edges();
    let mut prev_mf = g.degree(src) as u64;
    let mut dirs = vec![pol.decide(Direction::TopDown, 1, prev_mf, 0, mu, n)];
    for e in &stats.level_stats {
        let mf = e.counters.frontier_edges;
        mu -= mf.min(mu);
        if e.discovered > 0 {
            dirs.push(pol.decide(e.direction, e.discovered as u64, mf, prev_mf, mu, n));
        }
        prev_mf = mf;
    }
    dirs
}

/// Run hybrid BFS and check the exact level/parent agreement plus the
/// direction bookkeeping invariants every run must satisfy.
fn check_hybrid(g: &CsrGraph, src: u32, opts: &BfsOptions) -> obfs::prelude::BfsResult {
    let reference = serial_bfs(g, src);
    let r = run_bfs(Algorithm::Bfscl, g, src, opts);
    assert_eq!(r.levels, reference.levels, "hybrid BFSCL levels diverge from serial");
    check_self_consistent(g, src, &r).expect("hybrid BFS tree must validate");
    assert_eq!(r.stats.directions.len() as u32, r.stats.levels, "one direction per executed level");
    let switches: u32 = r.stats.directions.windows(2).map(|w| u32::from(w[0] != w[1])).sum();
    assert_eq!(switches, r.stats.direction_switches, "switch count mismatch");
    for (e, &d) in r.stats.level_stats.iter().zip(&r.stats.directions) {
        assert_eq!(e.direction, d, "LevelStats.direction disagrees with RunStats.directions");
    }
    r
}

#[test]
fn star_from_leaf_switches_bottom_up_at_the_hub_level() {
    // Level 0 is one leaf (mf = 1, so top-down); exploring it discovers
    // the hub, whose degree dominates the remaining edge volume — α must
    // fire and level 1 runs bottom-up.
    let g = gen::star(400);
    let src = 1; // a leaf; vertex 0 is the hub
    let r = check_hybrid(&g, src, &hybrid_opts(1));
    assert_eq!(r.stats.directions[0], Direction::TopDown, "leaf frontier stays top-down");
    assert_eq!(r.stats.directions[1], Direction::BottomUp, "hub frontier must flip");
    assert!(r.stats.direction_switches >= 1);
    let pol = HybridPolicy::default();
    assert_eq!(replay_directions(&g, src, &pol, &r.stats), r.stats.directions);
}

#[test]
fn star_from_hub_starts_bottom_up() {
    // The source *is* the hub: mf = degree(hub) = n-1 > m/α already at
    // level 0, so the very first level runs bottom-up (and discovers
    // every leaf through its single in-edge).
    let g = gen::star(400);
    let r = check_hybrid(&g, 0, &hybrid_opts(1));
    assert_eq!(r.stats.directions[0], Direction::BottomUp);
    assert_eq!(r.reached(), 400);
}

#[test]
fn path_stays_top_down_until_exhaustion() {
    // One-vertex frontiers: mf never grows and stays far below the n/β
    // floor, so no level runs bottom-up — not even in the tail, where
    // mu/α collapses to 0 and the α test alone would fire.
    let g = gen::path(500);
    let r = check_hybrid(&g, 0, &hybrid_opts(1));
    assert!(
        r.stats.directions.iter().all(|&d| d == Direction::TopDown),
        "path levels must all be top-down: {:?}",
        &r.stats.directions
    );
    assert_eq!(r.stats.direction_switches, 0);
    let pol = HybridPolicy::default();
    assert_eq!(replay_directions(&g, 0, &pol, &r.stats), r.stats.directions);
}

#[test]
fn dense_clique_runs_bottom_up() {
    // Complete graph: after level 0 the next frontier owns every
    // remaining edge, so α fires immediately.
    let g = gen::complete(300);
    let r = check_hybrid(&g, 0, &hybrid_opts(1));
    assert!(
        r.stats.directions.contains(&Direction::BottomUp),
        "expected a bottom-up level on K300, got {:?}",
        r.stats.directions
    );
    let pol = HybridPolicy::default();
    assert_eq!(replay_directions(&g, 0, &pol, &r.stats), r.stats.directions);
}

#[test]
fn recorded_directions_match_offline_replay_multithreaded() {
    // Multi-thread runs are scheduling-dependent, but the recorded series
    // is exactly what the leader decided from — the replay must agree
    // bit-for-bit on every run.
    for (g, src) in [
        (gen::erdos_renyi(2000, 40_000, 7), 0u32),
        (gen::barabasi_albert(1500, 4, 13), 3),
        (gen::rmat(11, 8, gen::RmatParams::default(), 5), 0),
    ] {
        let src = (src..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        for threads in [2usize, 4, 8] {
            let r = check_hybrid(&g, src, &hybrid_opts(threads));
            let pol = HybridPolicy::default();
            assert_eq!(
                replay_directions(&g, src, &pol, &r.stats),
                r.stats.directions,
                "replay diverges at {threads} threads"
            );
        }
    }
}

#[test]
fn custom_alpha_beta_change_the_switch_points() {
    let g = gen::erdos_renyi(1200, 30_000, 3);
    let first_bu = |r: &obfs::prelude::BfsResult| {
        r.stats.directions.iter().position(|&d| d == Direction::BottomUp)
    };
    // Large α shrinks the mu/α threshold and β = u64::MAX drops the n/β
    // floor to 0: flips at the first chance (any growing frontier with
    // outgoing edges fires the rule).
    let eager = BfsOptions {
        hybrid: Some(HybridPolicy::with_constants(1_000_000, u64::MAX)),
        ..hybrid_opts(2)
    };
    let re = check_hybrid(&g, 0, &eager);
    let eager_at = first_bu(&re).expect("α=10^6 must go bottom-up");
    // β = u64::MAX keeps nf >= n/β trivially true: once bottom-up,
    // never switch back.
    assert!(
        re.stats.directions[eager_at..].iter().all(|&d| d == Direction::BottomUp),
        "huge β must pin bottom-up: {:?}",
        re.stats.directions
    );
    // α = 1 demands mf > mu — the most conservative setting can only
    // flip later (or never).
    let lazy = BfsOptions { hybrid: Some(HybridPolicy::with_constants(1, 24)), ..hybrid_opts(2) };
    let rl = check_hybrid(&g, 0, &lazy);
    assert!(
        first_bu(&rl).is_none_or(|at| at >= eager_at),
        "α=1 flipped earlier ({:?}) than α=10^6 ({eager_at})",
        first_bu(&rl)
    );
    // β = 1 raises the bottom-up floor to n: top-down may only leave on
    // a frontier of at least n out-edges, however eager α is.
    let floored =
        BfsOptions { hybrid: Some(HybridPolicy::with_constants(1_000_000, 1)), ..hybrid_opts(2) };
    let rf = check_hybrid(&g, 0, &floored);
    let n = g.num_vertices() as u64;
    let dirs = &rf.stats.directions;
    for (i, &d) in dirs.iter().enumerate() {
        if d == Direction::BottomUp && (i == 0 || dirs[i - 1] == Direction::TopDown) {
            let mf = match i {
                0 => g.degree(0) as u64,
                _ => rf.stats.level_stats[i - 1].counters.frontier_edges,
            };
            assert!(mf >= n, "β=1 went bottom-up at level {i} on mf={mf} < n={n}: {dirs:?}");
        }
    }
    // A dense ER frontier still clears the floor, just later.
    assert!(
        first_bu(&rf).is_some_and(|at| at > eager_at),
        "the n floor must delay the switch past α=10^6's ({eager_at}): {dirs:?}"
    );
}

#[test]
fn circuit_tail_does_not_thrash() {
    // The Freescale stand-in is deep (hundreds of levels) with frontiers
    // far below n/β. In its shrinking tail mu collapses until mu/α fires
    // on every frontier; the growing condition and the n/β floor must
    // keep those levels top-down instead of bouncing each one through an
    // O(n) bottom-up level.
    let g = gen::suite::PaperGraph::Freescale.generate(64, 1);
    let pol = HybridPolicy::default();
    let step = g.num_vertices() / 4;
    for src in (0..4).map(|k| (k * step) as u32) {
        let reference = serial_bfs(&g, src);
        for threads in [2usize, 4] {
            for algo in [Algorithm::Bfswsl, Algorithm::Bfscl] {
                let r = run_bfs(algo, &g, src, &hybrid_opts(threads));
                assert_eq!(r.levels, reference.levels, "{algo} p={threads} src={src}");
                assert!(
                    r.stats.direction_switches <= 2,
                    "{algo} p={threads} src={src}: {} switches",
                    r.stats.direction_switches
                );
                assert_eq!(replay_directions(&g, src, &pol, &r.stats), r.stats.directions);
            }
        }
    }
}

#[test]
fn bitmap_round_trips_the_queue_frontier() {
    // Fill level[] with a known frontier, rebuild the bitmap chunk by
    // chunk (as each worker would), and check the exact membership both
    // ways — the queue→bitmap conversion the driver relies on.
    let g = gen::erdos_renyi(777, 4000, 21);
    let opts = hybrid_opts(4);
    let st = RunState::new(&g, &opts);
    for t in 0..4 {
        st.init_chunk(t);
    }
    let frontier: Vec<usize> = (0..777).filter(|v| v % 7 == 3 || v % 31 == 0).collect();
    for &v in &frontier {
        st.levels.set(v, 5);
    }
    st.levels.set(13, 3); // wrong level: must stay out of the bitmap
    for t in 0..4 {
        st.fill_bitmap_chunk(5, t);
    }
    // Level 5 reads the odd-parity bitmap of the pair.
    let bm = &st.hyb.as_ref().unwrap().fronts[1];
    assert_eq!(bm.snapshot_ones(), frontier);
    for v in 0..777 {
        assert_eq!(bm.test(v), st.levels.get(v) == 5, "bit {v}");
    }
    // Refill the same bitmap at another odd level: stale bits must be
    // rebuilt, not OR-ed.
    for t in 0..4 {
        st.fill_bitmap_chunk(3, t);
    }
    assert_eq!(bm.snapshot_ones(), vec![13]);
}

/// The one refill helper equals the per-bit definition on random
/// `level[]` contents: frontier bit iff the slot holds the level,
/// visited bit iff it is labelled, and past the last vertex of a partial
/// word no frontier bit and every visited bit.
#[test]
fn refill_words_match_the_per_bit_definition() {
    let mut rng = Xoshiro256StarStar::new(29);
    for n in [1usize, 31, 32, 33, 777, 1024] {
        let levels = obfs::sync::RacyBuf::new(n);
        for _ in 0..8 {
            for v in 0..n {
                // Mostly a few small levels, a quarter unvisited.
                let l = if rng.chance(0.25) { UNVISITED } else { rng.below(4) as u32 };
                levels.set(v, l);
            }
            let level = rng.below(4) as u32;
            for wi in 0..n.div_ceil(BITMAP_WORD_BITS) {
                let (front, visited) = level_words(&levels, wi, level);
                for b in 0..BITMAP_WORD_BITS {
                    let v = wi * BITMAP_WORD_BITS + b;
                    let (want_front, want_visited) = if v < n {
                        (levels.get(v) == level, levels.get(v) != UNVISITED)
                    } else {
                        (false, true)
                    };
                    assert_eq!(
                        front >> b & 1 == 1,
                        want_front,
                        "n {n} level {level} front bit {v}"
                    );
                    assert_eq!(visited >> b & 1 == 1, want_visited, "n {n} visited bit {v}");
                }
            }
        }
    }
}

/// The handoff between bottom-up levels: after one bottom-up level, the
/// next frontier bitmap and the visited bitmap hold, word for word, what
/// a refill at `level + 1` would build, and the labels are serial BFS's
/// through `level + 1`. Each chain starts from serial BFS's labels up to
/// some depth and one refill, as after a top-down level, then runs
/// bottom-up to the end without another; each level runs every worker's
/// range in turn, as the level's workers would.
#[test]
fn bottom_up_level_writes_what_a_refill_would_build() {
    let graphs = [
        ("star", gen::star(300)),
        ("grid2d", gen::grid2d(17, 19)),
        ("erdos-renyi", gen::erdos_renyi(700, 5000, 5)),
        ("rmat", gen::suite::rmat_like(1000, 8, 3)),
    ];
    for (name, g) in &graphs {
        let n = g.num_vertices();
        let src = (0..n as u32).find(|&v| g.degree(v) > 0).unwrap();
        let serial = serial_bfs(g, src).levels;
        let serial = &serial;
        let upto = |d: u32| serial.iter().map(move |&l| if l <= d { l } else { UNVISITED });
        let depth = serial.iter().copied().filter(|&l| l != UNVISITED).max().unwrap();
        for threads in [1usize, 2, 3] {
            let opts = hybrid_opts(threads);
            let st = RunState::new(g, &opts);
            let hyb = st.hyb.as_ref().unwrap();
            for start in 0..=depth {
                for (v, l) in upto(start).enumerate() {
                    st.levels.set(v, l);
                }
                for t in 0..threads {
                    st.fill_bitmap_chunk(start, t);
                }
                for level in start..=depth {
                    let tag = format!("{name} p={threads} from {start}, level {level}");
                    for t in 0..threads {
                        let mut wk = obfs_core::Worker::new(
                            &opts,
                            t,
                            st.qout(0).queue(t),
                            std::time::Instant::now(),
                        );
                        st.bottom_up_level(level, &mut wk);
                    }
                    assert!(
                        upto(level + 1).enumerate().all(|(v, l)| st.levels.get(v) == l),
                        "{tag}"
                    );
                    let next = &hyb.fronts[(level as usize + 1) & 1];
                    for wi in 0..hyb.visited.word_count() {
                        let (front, visited) = level_words(&st.levels, wi, level + 1);
                        assert_eq!(next.word(wi), front, "{tag}: frontier word {wi}");
                        assert_eq!(hyb.visited.word(wi), visited, "{tag}: visited word {wi}");
                    }
                }
            }
        }
    }
}

#[test]
fn bottom_up_level_produces_real_queue_state() {
    // After a bottom-up level the output queues must hold exactly the
    // discovered vertices (no duplicates — the static partition has one
    // writer per vertex), so a following top-down level starts from real
    // queue state.
    let g = gen::star(64);
    let opts = hybrid_opts(1);
    let st = RunState::new(&g, &opts);
    st.init_chunk(0);
    st.levels.set(0, 0); // hub is the frontier
    st.fill_bitmap_chunk(0, 0);
    let mut wk = obfs_core::Worker::new(&opts, 0, st.qout(0).queue(0), std::time::Instant::now());
    st.bottom_up_level(0, &mut wk);
    assert_eq!(wk.out_rear, 63, "every leaf discovered exactly once");
    assert_eq!(wk.stats.vertices_discovered, 63);
    for v in 1..64 {
        assert_eq!(st.levels.get(v), 1);
    }
}

#[test]
fn forced_directions_match_serial_across_threads() {
    let graphs = [
        ("erdos-renyi", gen::erdos_renyi(900, 7000, 31)),
        ("grid2d", gen::grid2d(20, 21)),
        ("barabasi-albert", gen::barabasi_albert(800, 3, 9)),
    ];
    for (name, g) in &graphs {
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let reference = serial_bfs(g, src);
        for threads in [1usize, 2, 4, 8] {
            for force in [ForcedDirection::AlwaysTopDown, ForcedDirection::AlwaysBottomUp] {
                let opts = BfsOptions {
                    hybrid: Some(HybridPolicy::forced(force)),
                    ..hybrid_opts(threads)
                };
                let r = run_bfs(Algorithm::Bfswsl, g, src, &opts);
                assert_eq!(
                    r.levels, reference.levels,
                    "forced {force:?} wrong on {name} (p={threads})"
                );
                let want = match force {
                    ForcedDirection::AlwaysTopDown => Direction::TopDown,
                    ForcedDirection::AlwaysBottomUp => Direction::BottomUp,
                };
                assert!(r.stats.directions.iter().all(|&d| d == want), "{name} p={threads}");
                assert_eq!(r.stats.direction_switches, 0);
            }
        }
    }
}

#[test]
fn bottom_up_uses_real_in_edges_on_directed_graphs() {
    // 0 -> 1 -> 2 plus 3 -> 2: bottom-up must probe in-edges (via the
    // transpose), not out-edges, or 2 would never find parent 1.
    let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (3, 2)]);
    let opts = BfsOptions {
        hybrid: Some(HybridPolicy::forced(ForcedDirection::AlwaysBottomUp)),
        ..hybrid_opts(2)
    };
    let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
    assert_eq!(r.levels, vec![0, 1, 2, obfs_core::UNVISITED]);
}

#[test]
fn caller_provided_transpose_matches_owned_transpose() {
    let g = gen::rmat(10, 10, gen::RmatParams::default(), 17);
    let t = g.transpose();
    let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
    let reference = serial_bfs(&g, src);
    let opts = hybrid_opts(4);
    let runner = obfs_core::BfsRunner::new(4);
    let borrowed = runner.run_with_transpose(Algorithm::Bfswsl, &g, Some(&t), src, &opts);
    let owned = runner.run_with_transpose(Algorithm::Bfswsl, &g, None, src, &opts);
    assert_eq!(borrowed.levels, reference.levels);
    assert_eq!(owned.levels, reference.levels);
    assert_eq!(borrowed.stats.directions, owned.stats.directions);
}

#[test]
fn hybrid_conserves_level_counters_and_frontier_edges() {
    // The conservation invariant must keep holding with the new counter:
    // per-level frontier_edges deltas sum to the run total, and without
    // hybrid the counter stays zero.
    let g = gen::erdos_renyi(1000, 20_000, 41);
    let r = check_hybrid(&g, 0, &hybrid_opts(4));
    let sum: u64 = r.stats.level_stats.iter().map(|e| e.counters.frontier_edges).sum();
    assert_eq!(sum, r.stats.totals.frontier_edges);
    assert!(r.stats.totals.frontier_edges > 0);
    let plain =
        run_bfs(Algorithm::Bfscl, &g, 0, &BfsOptions { threads: 4, ..BfsOptions::default() });
    assert_eq!(plain.stats.totals.frontier_edges, 0, "counter must be free when hybrid is off");
    assert!(plain.stats.directions.is_empty());
}

#[test]
fn hybrid_works_for_every_parallel_algorithm() {
    let g = gen::erdos_renyi(600, 9000, 2);
    let reference = serial_bfs(&g, 0);
    for algo in Algorithm::ALL.into_iter().filter(|a| *a != Algorithm::Serial) {
        let r = run_bfs(algo, &g, 0, &hybrid_opts(4));
        assert_eq!(r.levels, reference.levels, "{algo} hybrid");
        assert_eq!(r.stats.directions.len() as u32, r.stats.levels, "{algo}");
    }
}

/// Compaction composes with the direction switch: forced-on compaction
/// over the hybrid heuristic must stay exact, compact *only* top-down
/// levels (a bottom-up level has no queue dispatch to replace), and keep
/// the per-level `compacted` flags conserved against the run total.
#[test]
fn compaction_composes_with_hybrid_direction_switching() {
    let graphs = [
        ("erdos-renyi", gen::erdos_renyi(900, 14_000, 27)),
        ("rmat", gen::rmat(10, 12, gen::RmatParams::default(), 7)),
    ];
    for (name, g) in &graphs {
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let reference = serial_bfs(g, src);
        for threads in [1usize, 2, 4] {
            let opts = BfsOptions {
                compaction: Some(CompactionPolicy::forced_on()),
                ..hybrid_opts(threads)
            };
            for algo in [Algorithm::Bfscl, Algorithm::Bfswsl] {
                let r = run_bfs(algo, g, src, &opts);
                assert_eq!(
                    r.levels, reference.levels,
                    "{algo} wrong on {name} (p={threads}, hybrid+compaction)"
                );
                check_self_consistent(g, src, &r)
                    .unwrap_or_else(|e| panic!("{algo} on {name}: invalid tree: {e}"));
                for e in &r.stats.level_stats {
                    assert!(
                        !e.compacted || e.direction == Direction::TopDown,
                        "{algo} on {name}: compacted a bottom-up level"
                    );
                }
                let flagged = r.stats.level_stats.iter().filter(|e| e.compacted).count() as u32;
                assert_eq!(
                    flagged, r.stats.compacted_levels,
                    "{algo} on {name}: per-level flags disagree with the run total"
                );
                assert!(
                    r.stats.compacted_levels > 0,
                    "{algo} on {name}: forced-on hybrid run never compacted (p={threads})"
                );
            }
        }
    }
}
