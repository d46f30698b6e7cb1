//! Stress and adversarial-schedule tests: oversubscription, repeated
//! runs, tiny segments (maximal race rates), deep graphs (many level
//! barriers), and hot hubs. These are the tests that would catch a
//! lost-vertex bug in the optimistic protocols if one existed.

use obfs::prelude::*;
use obfs_core::serial::serial_bfs;

/// Heavy oversubscription: 16 threads on (typically) far fewer cores —
/// forced preemption right in the middle of racy updates.
#[test]
fn oversubscribed_threads() {
    let g = gen::erdos_renyi(3000, 24_000, 3);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions { threads: 16, ..BfsOptions::default() };
    for algo in [Algorithm::Bfscl, Algorithm::Bfsdl, Algorithm::Bfswl, Algorithm::Bfswsl] {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo} under oversubscription");
    }
}

/// Segment length 1 maximizes dispatcher contention: every vertex is its
/// own racy fetch.
#[test]
fn maximal_contention_segments() {
    let g = gen::barabasi_albert(2000, 4, 9);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions { threads: 8, segment: SegmentPolicy::Fixed(1), ..BfsOptions::default() };
    for algo in [Algorithm::Bfscl, Algorithm::Bfsdl, Algorithm::EdgeCl] {
        for rep in 0..5 {
            let r = run_bfs(algo, &g, 0, &opts);
            assert_eq!(r.levels, reference.levels, "{algo} rep {rep}");
        }
    }
}

/// Many repetitions of the racy work-stealing variant: each run takes a
/// different interleaving; all must agree.
#[test]
fn repeated_runs_always_agree() {
    let g = gen::rmat(11, 8, gen::RmatParams::default(), 5);
    let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
    let reference = serial_bfs(&g, src);
    let runner = obfs::core::BfsRunner::new(6);
    for seed in 0..20u64 {
        let opts = BfsOptions { threads: 6, seed, ..BfsOptions::default() };
        let r = runner.run(Algorithm::Bfswsl, &g, src, &opts);
        assert_eq!(r.levels, reference.levels, "seed {seed}");
    }
}

/// A 2000-level path: stresses the level barrier machinery (6000+
/// barrier rounds) and empty-frontier handling.
#[test]
fn very_deep_graph() {
    let g = gen::path(2000);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions { threads: 4, ..BfsOptions::default() };
    for algo in [Algorithm::Bfscl, Algorithm::Bfswl] {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo} on the deep path");
        assert_eq!(r.stats.levels, 2000, "{algo} level count");
    }
}

/// One extreme hub with 20k leaves: the scale-free hub split must cover
/// every leaf exactly, and all threads hammer the same adjacency list.
#[test]
fn extreme_hub() {
    let g = gen::star(20_000);
    let reference = serial_bfs(&g, 17); // from a leaf: leaf -> hub -> all
    let opts = BfsOptions { threads: 8, hub_threshold: Some(100), ..BfsOptions::default() };
    for algo in [Algorithm::Bfsws, Algorithm::Bfswsl] {
        let r = run_bfs(algo, &g, 17, &opts);
        assert_eq!(r.levels, reference.levels, "{algo}");
        assert_eq!(r.reached(), 20_000);
    }
}

/// Dense graph = maximal duplicate pressure (every vertex has ~n
/// parents racing to discover it).
#[test]
fn dense_duplicate_pressure() {
    let g = gen::complete(300);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions { threads: 8, ..BfsOptions::default() };
    for algo in Algorithm::ALL {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo} on K300");
    }
    // With owner-array dedup the duplicate explorations must vanish for
    // the centralized lock-free variant.
    let opts_dedup =
        BfsOptions { threads: 8, dedup: DedupMode::OwnerArray, ..BfsOptions::default() };
    let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts_dedup);
    assert_eq!(r.levels, reference.levels);
}

/// Paper-graph stand-ins at test scale: the full pipeline (suite
/// generator -> parallel BFS -> validation).
#[test]
fn paper_suite_end_to_end() {
    use obfs_graph::gen::suite::ALL;
    let opts = BfsOptions { threads: 4, ..BfsOptions::default() };
    for kind in ALL {
        let g = kind.generate(2048, 7);
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let reference = serial_bfs(&g, src);
        for algo in [Algorithm::Bfscl, Algorithm::Bfswsl] {
            let r = run_bfs(algo, &g, src, &opts);
            assert_eq!(r.levels, reference.levels, "{algo} on {}", kind.name());
        }
    }
}

/// The steal budget must not leave work behind: more threads than
/// queues-with-work plus immediate steal exhaustion.
#[test]
fn many_threads_tiny_graph() {
    let g = gen::path(10);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions { threads: 12, ..BfsOptions::default() };
    for algo in Algorithm::ALL {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo} with 12 threads on 10 vertices");
    }
}

/// Decentralized pools under stress: every pool configuration on a
/// hub-heavy graph.
#[test]
fn decentralized_pool_grid() {
    let g = gen::barabasi_albert(1500, 3, 31);
    let reference = serial_bfs(&g, 0);
    for pools in 1..=8 {
        let opts = BfsOptions { threads: 8, pools, ..BfsOptions::default() };
        let r = run_bfs(Algorithm::Bfsdl, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "pools={pools}");
    }
}
