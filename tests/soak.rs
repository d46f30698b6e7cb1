//! Long-running soak tests for the optimistic protocols. Ignored by
//! default; run with
//!
//! ```sh
//! cargo test --release --test soak -- --ignored
//! ```
//!
//! These drive hundreds of randomized (graph, algorithm, option, seed)
//! combinations to shake out low-probability race outcomes that the fast
//! suites would only hit occasionally. A short smoke slice runs in the
//! normal suite so the harness itself stays exercised.

use obfs::prelude::*;
use obfs_core::serial::serial_bfs;
use obfs_util::Xoshiro256StarStar;

/// One randomized round: pick a graph family, options and sources from
/// `seed`; check every parallel algorithm against serial.
fn round(seed: u64, runner_cache: &mut Vec<(usize, obfs::core::BfsRunner)>) {
    let mut rng = Xoshiro256StarStar::new(seed);
    let g = match rng.below(5) {
        0 => gen::erdos_renyi(200 + rng.below_usize(2000), 4000, seed),
        1 => gen::barabasi_albert(200 + rng.below_usize(1500), 1 + rng.below_usize(4), seed),
        2 => gen::rmat(
            9 + rng.below(3) as u32,
            4 + rng.below_usize(8),
            gen::RmatParams::default(),
            seed,
        ),
        3 => gen::grid2d(5 + rng.below_usize(40), 5 + rng.below_usize(40)),
        _ => gen::suite::circuit_like(500 + rng.below_usize(3000), 5.0, seed),
    };
    let threads = 1 + rng.below_usize(8);
    let src = (rng.below_usize(g.num_vertices())) as u32;
    let reference = serial_bfs(&g, src);
    let opts = BfsOptions {
        threads,
        segment: if rng.chance(0.3) {
            SegmentPolicy::Fixed(1 + rng.below_usize(64))
        } else {
            SegmentPolicy::default()
        },
        pools: 1 + rng.below_usize(threads),
        hub_threshold: rng.chance(0.5).then(|| rng.below_usize(256)),
        dedup: if rng.chance(0.3) { DedupMode::OwnerArray } else { DedupMode::None },
        phase2_steal: rng.chance(0.3),
        record_parents: rng.chance(0.3),
        seed,
        ..BfsOptions::default()
    };
    let runner = match runner_cache.iter().position(|(t, _)| *t == threads) {
        Some(i) => &runner_cache[i].1,
        None => {
            runner_cache.push((threads, obfs::core::BfsRunner::new(threads)));
            &runner_cache.last().unwrap().1
        }
    };
    for algo in Algorithm::ALL {
        let r = runner.run(algo, &g, src, &opts);
        assert_eq!(
            r.levels, reference.levels,
            "{algo} diverged (seed={seed}, threads={threads}, src={src}, opts={opts:?})"
        );
        if opts.record_parents {
            obfs::core::validate::check_self_consistent(&g, src, &r)
                .unwrap_or_else(|e| panic!("{algo} bad tree (seed={seed}): {e}"));
        }
    }
}

/// Fast slice that always runs: keeps the soak harness itself tested.
#[test]
fn soak_smoke() {
    let mut cache = Vec::new();
    for seed in 0..3 {
        round(seed, &mut cache);
    }
}

/// The real soak: hundreds of randomized rounds (300 by default;
/// override with `OBFS_SOAK_ROUNDS`, which the scheduled CI job uses).
#[test]
#[ignore = "long-running; use cargo test --release --test soak -- --ignored"]
fn soak_full() {
    let rounds: u64 = std::env::var("OBFS_SOAK_ROUNDS")
        .ok()
        .map(|v| v.parse().expect("OBFS_SOAK_ROUNDS must be an integer"))
        .unwrap_or(300);
    let mut cache = Vec::new();
    for seed in 0..rounds {
        round(seed, &mut cache);
        if seed % 50 == 0 {
            eprintln!("soak round {seed}/{rounds}");
        }
    }
}
