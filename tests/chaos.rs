//! Chaos-mode integration tests (`--features chaos`).
//!
//! Every test installs a *deterministic* fault plan ([`ChaosConfig`])
//! through [`BfsOptions::chaos`] and checks two things at once:
//!
//! 1. **Correctness under adversity** — whatever the plan perturbs
//!    (store-buffer staleness, delay windows, skewed index reads), every
//!    algorithm's level array must still equal the serial reference, and
//!    recorded parent trees must validate.
//! 2. **The recovery machinery actually fires** — the paper's sanity
//!    checks and sentinel protocol are only tested if the injected faults
//!    reach them, so each test asserts the corresponding counters
//!    (`fetch_retries`, `stale_slot_aborts`, `steal.invalid`,
//!    `injected_faults`, `degraded_levels`) are non-zero.
//!
//! Fault plans are seeded per worker, so failures reproduce; counters
//! that depend on thread interleavings are accumulated across several
//! seeds before asserting non-zero.
#![cfg(feature = "chaos")]

use obfs::core::validate;
use obfs::prelude::*;
use std::time::Duration;

/// All eight parallel algorithms (everything but `sbfs`).
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

/// The optimistic (lock-free) subset whose recovery paths chaos targets.
const LOCKFREE: [Algorithm; 5] =
    [Algorithm::Bfscl, Algorithm::Bfsdl, Algorithm::Bfswl, Algorithm::Bfswsl, Algorithm::EdgeCl];

/// Store-buffer staleness on every racy cell: all algorithms stay
/// correct, their parent trees validate, and the plan demonstrably
/// injected faults into every run.
#[test]
fn store_buffer_chaos_all_algorithms_stay_correct() {
    for seed in [1u64, 0xDEAD] {
        let g = gen::erdos_renyi(600, 4200, seed);
        let reference = serial_bfs(&g, 0);
        let opts = BfsOptions {
            threads: 4,
            record_parents: true,
            chaos: Some(ChaosConfig::store_buffer(0xB1F5 ^ seed)),
            ..Default::default()
        };
        for algo in PARALLEL {
            let r = run_bfs(algo, &g, 0, &opts);
            assert_eq!(r.levels, reference.levels, "{algo} seed={seed}");
            assert!(
                validate::check_self_consistent(&g, 0, &r).is_ok(),
                "{algo} seed={seed}: invalid BFS tree under chaos"
            );
            assert!(
                r.stats.totals.injected_faults > 0,
                "{algo} seed={seed}: plan installed but no faults injected"
            );
        }
    }
}

/// Scale-free graphs exercise the hub two-phase path under chaos.
#[test]
fn store_buffer_chaos_on_scale_free_graphs() {
    let g = gen::barabasi_albert(800, 4, 13);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions {
        threads: 4,
        hub_threshold: Some(16),
        chaos: Some(ChaosConfig::store_buffer(77)),
        ..Default::default()
    };
    for algo in [Algorithm::Bfsws, Algorithm::Bfswsl] {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo}");
        assert!(r.stats.totals.injected_faults > 0, "{algo}");
    }
}

/// Aggressive chaos with single-slot segments drives the centralized /
/// decentralized dispatchers through their recovery paths: raced fetches
/// (`f' >= r'` sanity failures → `fetch_retries`) and replayed segments
/// aborted at a cleared slot (`stale_slot_aborts`).
#[test]
fn chaos_drives_centralized_sanity_recovery() {
    let mut fetch_retries = 0u64;
    let mut stale_aborts = 0u64;
    for seed in 0..6u64 {
        let g = gen::erdos_renyi(400, 2800, seed);
        let reference = serial_bfs(&g, 0);
        let opts = BfsOptions {
            threads: 4,
            segment: SegmentPolicy::Fixed(1),
            chaos: Some(ChaosConfig::aggressive(seed)),
            ..Default::default()
        };
        for algo in [Algorithm::Bfscl, Algorithm::Bfsdl] {
            let r = run_bfs(algo, &g, 0, &opts);
            assert_eq!(r.levels, reference.levels, "{algo} seed={seed}");
            assert!(r.stats.totals.injected_faults > 0, "{algo} seed={seed}");
            fetch_retries += r.stats.totals.fetch_retries;
            stale_aborts += r.stats.totals.stale_slot_aborts;
        }
    }
    assert!(fetch_retries > 0, "chaos never produced an invalid fetch");
    assert!(stale_aborts > 0, "chaos never produced a stale-slot abort");
}

/// Index skew fabricates adversarial `rear` values at the one point the
/// work-steal sanity check guards ([`SegmentDesc::snapshot`]): thieves
/// must reject them (`steal.invalid`), never index out of bounds, and
/// the traversal must stay correct.
#[test]
fn skew_drives_invalid_segment_rejections_in_stealing() {
    let mut invalid = 0u64;
    let mut attempts = 0u64;
    for seed in 0..6u64 {
        let g = gen::erdos_renyi(500, 3000, seed);
        let reference = serial_bfs(&g, 0);
        let opts = BfsOptions {
            threads: 4,
            chaos: Some(ChaosConfig::skew_only(0x5EED + seed)),
            ..Default::default()
        };
        for algo in [Algorithm::Bfswl, Algorithm::Bfswsl] {
            let r = run_bfs(algo, &g, 0, &opts);
            assert_eq!(r.levels, reference.levels, "{algo} seed={seed}");
            assert!(
                r.stats.totals.steal.is_consistent(),
                "{algo} seed={seed}: steal counters inconsistent"
            );
            invalid += r.stats.totals.steal.invalid;
            attempts += r.stats.totals.steal.attempts;
        }
    }
    assert!(attempts > 0, "no steals were ever attempted");
    assert!(invalid > 0, "skewed rear values never hit the sanity check");
}

/// Worst-case skew: *every* snapshot is fabricated, including
/// `usize::MAX / 4`-scale out-of-range probes. The sanity check must
/// absorb all of it — no panic, no out-of-bounds read, correct levels —
/// with owners alone draining the frontier.
#[test]
fn total_skew_never_reads_out_of_bounds() {
    let cfg = ChaosConfig { skew_chance: 1.0, skew_max: 1 << 30, ..ChaosConfig::skew_only(99) };
    let g = gen::barabasi_albert(600, 3, 21);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions { threads: 4, chaos: Some(cfg), ..Default::default() };
    for algo in [Algorithm::Bfswl, Algorithm::Bfswsl] {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo}");
        let s = r.stats.totals.steal;
        // Every fabricated segment must land in a failure bucket.
        assert!(s.is_consistent(), "{algo}");
        assert_eq!(s.success, 0, "{algo}: a fully-fabricated snapshot was stolen");
    }
}

/// A zero wall-clock budget trips the watchdog on every level: the
/// leader's serial sweep must finish each level, count it as degraded,
/// and still produce the exact serial levels — for all algorithms.
#[test]
fn watchdog_zero_deadline_degrades_every_level_correctly() {
    let g = gen::erdos_renyi(500, 3500, 7);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions {
        threads: 4,
        watchdog: Some(WatchdogPolicy::deadline(Duration::ZERO)),
        ..Default::default()
    };
    for algo in PARALLEL {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo}");
        assert_eq!(
            r.stats.degraded_levels, r.stats.levels,
            "{algo}: zero deadline must degrade every level"
        );
    }
}

/// A generous deadline never trips: no degradation, chaos or not.
#[test]
fn watchdog_generous_deadline_never_trips() {
    let g = gen::erdos_renyi(400, 2400, 3);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions {
        threads: 4,
        chaos: Some(ChaosConfig::store_buffer(5)),
        watchdog: Some(WatchdogPolicy::deadline(Duration::from_secs(3600))),
        ..Default::default()
    };
    for algo in LOCKFREE {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo}");
        assert_eq!(r.stats.degraded_levels, 0, "{algo}: generous deadline tripped");
    }
}

/// The retry-budget arm of the watchdog: with chaos forcing raced
/// fetches and a budget of one, some level must degrade — and degraded
/// levels must still be correct.
#[test]
fn watchdog_retry_budget_trips_under_chaos() {
    let mut degraded = 0u64;
    for seed in 0..8u64 {
        let g = gen::erdos_renyi(300, 2100, seed);
        let reference = serial_bfs(&g, 0);
        let opts = BfsOptions {
            threads: 4,
            segment: SegmentPolicy::Fixed(1),
            chaos: Some(ChaosConfig::aggressive(seed)),
            watchdog: Some(WatchdogPolicy { max_fetch_retries: Some(1), ..Default::default() }),
            ..Default::default()
        };
        let r = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "seed {seed}");
        degraded += u64::from(r.stats.degraded_levels);
    }
    assert!(degraded > 0, "retry budget of 1 never tripped under aggressive chaos");
}

/// With one worker the interleaving is fixed, so the per-thread fault
/// plan makes the whole run — including the injected-fault count —
/// bit-for-bit reproducible.
#[test]
fn single_thread_fault_injection_is_deterministic() {
    let g = gen::barabasi_albert(400, 3, 11);
    let opts =
        BfsOptions { threads: 1, chaos: Some(ChaosConfig::store_buffer(42)), ..Default::default() };
    let a = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
    let b = run_bfs(Algorithm::Bfscl, &g, 0, &opts);
    assert!(a.stats.totals.injected_faults > 0, "no faults injected");
    assert_eq!(
        a.stats.totals.injected_faults, b.stats.totals.injected_faults,
        "same seed, same thread count, different fault counts"
    );
    assert_eq!(a.levels, b.levels);
}

/// Hybrid direction switching under store-buffer chaos: the bitmap fill
/// reads `level[]` *after* the level barrier flushed every deferred
/// store, so seeded fault plans must leave hybrid BFSCL/BFSWSL exact —
/// across heuristic and forced direction choices — while demonstrably
/// injecting faults.
#[test]
fn hybrid_store_buffer_chaos_stays_exact_across_switches() {
    let forces = [
        ("heuristic", HybridPolicy::default()),
        ("forced-bu", HybridPolicy::forced(ForcedDirection::AlwaysBottomUp)),
    ];
    for seed in [2u64, 0xBEEF] {
        // Dense enough that the heuristic really switches mid-run.
        let g = gen::rmat(10, 16, gen::RmatParams::default(), seed);
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let reference = serial_bfs(&g, src);
        for (mode, pol) in &forces {
            let opts = BfsOptions {
                threads: 4,
                record_parents: true,
                hybrid: Some(*pol),
                chaos: Some(ChaosConfig::store_buffer(0xD1CE ^ seed)),
                ..Default::default()
            };
            for algo in [Algorithm::Bfscl, Algorithm::Bfswsl] {
                let r = run_bfs(algo, &g, src, &opts);
                assert_eq!(r.levels, reference.levels, "{algo} {mode} seed={seed}");
                assert!(
                    validate::check_self_consistent(&g, src, &r).is_ok(),
                    "{algo} {mode} seed={seed}: invalid tree under chaos"
                );
                assert!(r.stats.totals.injected_faults > 0, "{algo} {mode} seed={seed}");
                assert_eq!(
                    r.stats.directions.len() as u32,
                    r.stats.levels,
                    "{algo} {mode} seed={seed}"
                );
                if *mode == "heuristic" {
                    assert!(
                        r.stats.directions.contains(&Direction::BottomUp),
                        "{algo} seed={seed}: dense RMAT should go bottom-up"
                    );
                }
            }
        }
    }
}

/// The watchdog's serial sweep re-explores the (never-consumed) input
/// queues top-down, which is idempotent with whatever a bottom-up level
/// already discovered — so a zero deadline must degrade every level of a
/// hybrid run and still produce exact results, with the recovery
/// counters firing as usual.
#[test]
fn hybrid_watchdog_degrades_bottom_up_levels_correctly() {
    let g = gen::rmat(9, 16, gen::RmatParams::default(), 23);
    let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
    let reference = serial_bfs(&g, src);
    for force in [None, Some(ForcedDirection::AlwaysBottomUp)] {
        let pol = match force {
            None => HybridPolicy::default(),
            Some(f) => HybridPolicy::forced(f),
        };
        let opts = BfsOptions {
            threads: 4,
            hybrid: Some(pol),
            watchdog: Some(WatchdogPolicy::deadline(Duration::ZERO)),
            ..Default::default()
        };
        for algo in [Algorithm::Bfscl, Algorithm::Bfswsl] {
            let r = run_bfs(algo, &g, src, &opts);
            assert_eq!(r.levels, reference.levels, "{algo} force={force:?}");
            assert_eq!(
                r.stats.degraded_levels, r.stats.levels,
                "{algo} force={force:?}: zero deadline must degrade every level"
            );
        }
    }
}

/// Aggressive chaos + hybrid + retry-budget watchdog: recovery counters
/// (fetch retries, degraded levels, injected faults) still fire with the
/// direction machinery in the loop, and results stay exact.
#[test]
fn hybrid_chaos_recovery_counters_still_fire() {
    let mut degraded = 0u64;
    let mut injected = 0u64;
    for seed in 0..6u64 {
        let g = gen::erdos_renyi(400, 6000, seed);
        let reference = serial_bfs(&g, 0);
        let opts = BfsOptions {
            threads: 4,
            segment: SegmentPolicy::Fixed(1),
            hybrid: Some(HybridPolicy::default()),
            chaos: Some(ChaosConfig::aggressive(seed)),
            watchdog: Some(WatchdogPolicy { max_fetch_retries: Some(1), ..Default::default() }),
            ..Default::default()
        };
        for algo in [Algorithm::Bfscl, Algorithm::Bfswsl] {
            let r = run_bfs(algo, &g, 0, &opts);
            assert_eq!(r.levels, reference.levels, "{algo} seed={seed}");
            degraded += u64::from(r.stats.degraded_levels);
            injected += r.stats.totals.injected_faults;
        }
    }
    assert!(injected > 0, "aggressive plans never injected into hybrid runs");
    assert!(degraded > 0, "retry budget of 1 never tripped under hybrid chaos");
}

/// Prefix-sum compaction under store-buffer chaos: the compaction bitmap
/// is rebuilt from `level[]` *before* the extra barrier and consumed by a
/// static partition after it, so seeded staleness on the racy cells must
/// leave forced-on compacted runs exact — while the counters prove both
/// the compactor and the fault plan actually ran.
#[test]
fn compaction_store_buffer_chaos_stays_exact() {
    for seed in [4u64, 0xFACE] {
        let g = gen::erdos_renyi(600, 4800, seed);
        let reference = serial_bfs(&g, 0);
        let opts = BfsOptions {
            threads: 4,
            record_parents: true,
            compaction: Some(CompactionPolicy::forced_on()),
            chaos: Some(ChaosConfig::store_buffer(0xC0A7 ^ seed)),
            ..Default::default()
        };
        for algo in PARALLEL {
            let r = run_bfs(algo, &g, 0, &opts);
            assert_eq!(r.levels, reference.levels, "{algo} seed={seed}");
            assert!(
                validate::check_self_consistent(&g, 0, &r).is_ok(),
                "{algo} seed={seed}: invalid tree under compacted chaos"
            );
            assert!(r.stats.compacted_levels > 0, "{algo} seed={seed}: never compacted");
            assert!(r.stats.totals.injected_faults > 0, "{algo} seed={seed}");
        }
    }
}

/// The watchdog's serial sweep re-explores the (never-consumed) input
/// queues — compaction leaves those queues intact by design, so a zero
/// deadline must degrade every level of a compaction-enabled run and
/// still produce exact levels.
#[test]
fn compaction_watchdog_degradation_stays_exact() {
    let g = gen::erdos_renyi(500, 3500, 31);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions {
        threads: 4,
        compaction: Some(CompactionPolicy::forced_on()),
        watchdog: Some(WatchdogPolicy::deadline(Duration::ZERO)),
        ..Default::default()
    };
    for algo in [Algorithm::Bfscl, Algorithm::Bfswsl] {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo}");
        assert_eq!(
            r.stats.degraded_levels, r.stats.levels,
            "{algo}: zero deadline must degrade every compacted level"
        );
    }
}

/// Without a plan installed the chaos-enabled build must behave exactly
/// like the plain build: zero injected faults, zero degradation.
#[test]
fn no_plan_means_no_faults() {
    let g = gen::erdos_renyi(300, 1800, 9);
    let reference = serial_bfs(&g, 0);
    let opts = BfsOptions { threads: 4, ..Default::default() };
    for algo in LOCKFREE {
        let r = run_bfs(algo, &g, 0, &opts);
        assert_eq!(r.levels, reference.levels, "{algo}");
        assert_eq!(r.stats.totals.injected_faults, 0, "{algo}");
        assert_eq!(r.stats.degraded_levels, 0, "{algo}");
    }
}

/// Store-buffer staleness on the batch kernel's racy cells — membership
/// words (`u64`), per-query level slots, and the push-dedup word all go
/// through the chaos hooks. Every query's levels must stay exactly
/// serial, and the plan must demonstrably inject.
#[test]
fn batch_store_buffer_chaos_stays_exact() {
    for seed in [3u64, 0xBEEF] {
        let g = gen::erdos_renyi(500, 3500, seed);
        let sources: Vec<u32> = (0..17).map(|q| (q * 29 + 1) % 500).collect();
        let opts = BfsOptions {
            threads: 4,
            record_parents: true,
            chaos: Some(ChaosConfig::store_buffer(0xBA7C ^ seed)),
            ..Default::default()
        };
        for algo in PARALLEL {
            let b = run_batch(algo, &g, &sources, &opts);
            for (q, qr) in b.queries.iter().enumerate() {
                let reference = serial_bfs(&g, sources[q]);
                assert_eq!(
                    qr.levels, reference.levels,
                    "{algo} seed={seed} query {q}: batch diverged under chaos"
                );
                let r = qr.as_bfs_result(&b.stats);
                assert!(
                    validate::check_self_consistent(&g, sources[q], &r).is_ok(),
                    "{algo} seed={seed} query {q}: invalid tree under chaos"
                );
            }
            assert!(
                b.stats.totals.injected_faults > 0,
                "{algo} seed={seed}: plan installed but no faults injected"
            );
        }
    }
}

/// Batch runs through the watchdog's serial sweep: a zero deadline
/// degrades every level, the sweep re-derives frontier words from the
/// barrier-published level rows, and each query stays exact.
#[test]
fn batch_watchdog_degradation_stays_exact() {
    let g = gen::erdos_renyi(400, 2800, 21);
    let sources: Vec<u32> = (0..33).map(|q| (q * 11 + 2) % 400).collect();
    let opts = BfsOptions {
        threads: 4,
        watchdog: Some(WatchdogPolicy::deadline(Duration::ZERO)),
        ..Default::default()
    };
    for algo in PARALLEL {
        let b = run_batch(algo, &g, &sources, &opts);
        assert_eq!(
            b.stats.degraded_levels, b.stats.levels,
            "{algo}: zero deadline must degrade every batched level"
        );
        for (q, qr) in b.queries.iter().enumerate() {
            let reference = serial_bfs(&g, sources[q]);
            assert_eq!(qr.levels, reference.levels, "{algo} query {q} after sweep");
        }
    }
}

/// Aggressive chaos + single-slot segments + retry budget of one on a
/// full 64-wide batch: recovery counters still fire and nothing bleeds
/// between queries.
#[test]
fn batch_chaos_recovery_counters_still_fire() {
    let mut injected = 0u64;
    let mut recovered = 0u64;
    for seed in 0..4u64 {
        let g = gen::erdos_renyi(300, 2100, seed + 100);
        let sources: Vec<u32> = (0..64).map(|q| (q * 7 + 1) % 300).collect();
        let opts = BfsOptions {
            threads: 4,
            segment: SegmentPolicy::Fixed(1),
            chaos: Some(ChaosConfig::aggressive(seed)),
            watchdog: Some(WatchdogPolicy { max_fetch_retries: Some(1), ..Default::default() }),
            ..Default::default()
        };
        let b = run_batch(Algorithm::Bfscl, &g, &sources, &opts);
        for (q, qr) in b.queries.iter().enumerate() {
            let reference = serial_bfs(&g, sources[q]);
            assert_eq!(qr.levels, reference.levels, "seed {seed} query {q}");
        }
        injected += b.stats.totals.injected_faults;
        recovered += b.stats.totals.fetch_retries
            + b.stats.totals.stale_slot_aborts
            + u64::from(b.stats.degraded_levels);
    }
    assert!(injected > 0, "aggressive plans never injected into batch runs");
    assert!(recovered > 0, "no recovery machinery fired across batch chaos seeds");
}
