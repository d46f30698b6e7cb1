//! Regenerates **Table VI**: statistics of successful and failed steal
//! attempts for BFSWS vs BFSWSL on the Wikipedia graph, extended with
//! the recovery/degradation counters (fetch retries, stale-slot aborts,
//! injected faults, degraded levels).
//!
//! The paper runs each program 5 times from 100 sources; scale with
//! `--sources` (per repetition) as needed. `--chaos-seed` installs a
//! store-buffer fault plan (active in `--features chaos` builds) and
//! `--watchdog-ms` arms the per-level watchdog, so the recovery columns
//! can be driven on demand. `--hybrid` appends direction-optimizing rows
//! (BFS_CL+hyb, BFS_WSL+hyb) so the steal/recovery columns can be
//! compared across top-down-only and hybrid execution.

use obfs_bench::env::HostInfo;
use obfs_bench::harness::pick_sources;
use obfs_bench::table::{count, pct, Table};
use obfs_bench::{measure_with_series, BenchArgs, BenchReport, Contender, ContenderPool, Workload};
use obfs_core::{Algorithm, BfsOptions, WatchdogPolicy};
use obfs_graph::gen::suite::PaperGraph;
use obfs_sync::ChaosConfig;
use std::time::Duration;

const REPS: usize = 5;

fn main() {
    let args =
        BenchArgs::parse(&["--graph", "--hybrid", "--json", "--chaos-seed", "--watchdog-ms"]);
    println!("{}", HostInfo::detect().render(args.threads));
    let graph_kind = args.only_graph.unwrap_or(PaperGraph::Wikipedia);
    let graph = graph_kind.generate(args.divisor, args.seed);
    println!(
        "== Table VI: steal outcomes on {} ({} reps x {} sources, p={}) ==\n",
        graph_kind.name(),
        REPS,
        args.sources,
        args.threads
    );
    // Every repetition draws its own sources; all REPS x sources runs
    // of a program accumulate into its one row.
    let sources: Vec<_> = (0..REPS)
        .flat_map(|rep| pick_sources(&graph, args.sources, args.seed ^ (rep as u64) << 8))
        .collect();
    let w = Workload::new(graph_kind.name(), graph, &sources);

    let mut pool = ContenderPool::new(args.threads);
    let opts = BfsOptions {
        threads: args.threads,
        chaos: args.chaos_seed.map(ChaosConfig::store_buffer),
        watchdog: args
            .watchdog_ms
            .map(|ms| WatchdogPolicy::deadline(Duration::from_millis(ms))),
        ..Default::default()
    };

    let mut report = args.json.then(|| BenchReport::new("table6", &args));
    let mut t = Table::new(&[
        "program",
        "time(ms)",
        "attempts",
        "locked",
        "idle",
        "too-small",
        "stale",
        "invalid",
        "failed",
        "success",
        "fetch-retry",
        "slot-abort",
        "injected",
        "degraded",
    ]);
    let mut rows =
        vec![Contender::Ours(Algorithm::Bfsws), Contender::Ours(Algorithm::Bfswsl)];
    if args.hybrid {
        rows.extend(Contender::hybrid_roster());
    }
    for c in rows {
        let locked_applies = matches!(c, Contender::Ours(Algorithm::Bfsws));
        let lockfree_steals = matches!(
            c,
            Contender::Ours(Algorithm::Bfswsl) | Contender::OursHybrid(Algorithm::Bfswsl)
        );
        // The series comes from one extra untimed collection run.
        let m = measure_with_series(&mut pool, c, &w, &opts);
        let total = m.totals.steal;
        assert!(total.is_consistent(), "{c}: steal counters inconsistent: {total:?}");
        let a = total.attempts;
        t.row(vec![
            c.name(),
            // Time per repetition: all sources of one rep, back to back.
            format!("{:.1}", m.time_ms().mean * args.sources as f64),
            format!("{} (100.00%)", count(a)),
            fmt_cell(total.victim_locked, a, locked_applies),
            fmt_cell(total.victim_idle, a, true),
            fmt_cell(total.too_small, a, true),
            fmt_cell(total.stale, a, lockfree_steals),
            fmt_cell(total.invalid, a, lockfree_steals),
            format!("{} ({})", count(total.failed()), pct(total.failed(), a)),
            format!("{} ({})", count(total.success), pct(total.success, a)),
            count(m.totals.fetch_retries),
            count(m.totals.stale_slot_aborts),
            count(m.totals.injected_faults),
            count(m.degraded_levels),
        ]);
        if let Some(report) = &mut report {
            report.add(&m);
        }
    }
    println!("{}", t.render());
    if let Some(report) = report {
        report.finish();
    }
    println!(
        "Paper expectations (shape): BFSWS fails on 'victim locked' (N/A for BFSWSL); \
         BFSWSL instead shows stale/invalid failures at a far smaller rate; success \
         percentage slightly higher for the lock-free version; most failures are idle \
         victims at level ends (large MAX_STEAL)."
    );
}

fn fmt_cell(v: u64, total: u64, applicable: bool) -> String {
    if !applicable && v == 0 {
        "N/A".to_string()
    } else {
        format!("{} ({})", count(v), pct(v, total))
    }
}
