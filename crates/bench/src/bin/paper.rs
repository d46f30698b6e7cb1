//! Regenerates the paper's evaluation: `paper MODE [flags]`, where MODE
//! is `table4`, `table5`, `table6`, `fig2`, `fig3`, `ablations` or
//! `levels`; each mode's function below says what it prints. A mode
//! refuses the optional shared flags it does not honor (`MODES` lists
//! the ones each honors, and `paper --help` prints them); a missing or
//! unknown mode, like any bad flag, is an `error:` line and exit code 2.

use obfs_baselines::hong::HongVariant;
use obfs_bench::args::fail;
use obfs_bench::env::HostInfo;
use obfs_bench::harness::{measure, measure_with_series};
use obfs_bench::table::{count, ms, pct, teps, Table};
use obfs_bench::{BenchArgs, BenchReport, Contender, ContenderPool, Workload};
use obfs_core::{run_bfs, Algorithm, BfsOptions, DedupMode, SegmentPolicy, WatchdogPolicy};
use obfs_graph::gen::suite::{PaperGraph, ALL};
use obfs_graph::stats::{sample_sources, summarize};
use obfs_sync::ChaosConfig;
use std::time::Duration;

/// Each mode's name, the optional shared flags it honors, and its body.
type Mode = (&'static str, &'static [&'static str], fn(&BenchArgs));

const MODES: [Mode; 7] = [
    ("table4", &["--graph"], table4),
    ("table5", &["--graph"], table5),
    ("table6", &["--graph", "--hybrid", "--json", "--chaos-seed", "--watchdog-ms"], table6),
    ("fig2", &["--graph"], fig2),
    ("fig3", &["--graph", "--json"], fig3),
    ("ablations", &[], ablations),
    ("levels", &["--graph"], levels),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help());
        return;
    }
    let args = BenchArgs::parse_from(argv).unwrap_or_else(|e| fail(e));
    let usage = || {
        let names: Vec<&str> = MODES.iter().map(|m| m.0).collect();
        format!("usage: paper MODE [flags], MODE one of {}", names.join(" "))
    };
    let (name, honors, run) = match args.files.as_slice() {
        [mode] => *MODES
            .iter()
            .find(|m| m.0 == mode)
            .unwrap_or_else(|| fail(format!("unknown mode {mode:?}; {}", usage()))),
        [] => fail(format!("missing mode; {}", usage())),
        [_, extra, ..] => fail(format!("unexpected argument {extra:?}; {}", usage())),
    };
    args.refuse_unhonored(honors).unwrap_or_else(|e| fail(e));
    // Table IV times no traversal, so its header names one worker.
    println!("{}", HostInfo::detect().render(if name == "table4" { 1 } else { args.threads }));
    run(&args);
}

/// `paper --help`: every mode with the optional shared flags it honors.
fn help() -> String {
    let mut s =
        String::from("usage: paper MODE [flags]\n\nMODE and the optional flags it honors:\n");
    for (name, honors, _) in MODES {
        let honors = if honors.is_empty() { "(none)".to_string() } else { honors.join(" ") };
        s += &format!("  {name:<10} {honors}\n");
    }
    s += "\nflags for every mode: --divisor <k> --threads <p> --sources <s> --seed <x>\n\
          optional flags: --graph <name> --hybrid --json --chaos-seed <x> --watchdog-ms <ms>\n";
    s
}

/// The one graph a single-graph mode runs on: `--graph`, or wikipedia.
fn one_graph(args: &BenchArgs) -> PaperGraph {
    args.only_graph.unwrap_or(PaperGraph::Wikipedia)
}

/// The paper suite, or only the `--graph` member of it.
fn suite(args: &BenchArgs) -> impl Iterator<Item = PaperGraph> + '_ {
    ALL.into_iter().filter(|g| args.only_graph.is_none_or(|o| o == *g))
}

/// `kind` at `n = paper_n / divisor`, with `--sources` sources drawn
/// with `seed`.
fn workload(args: &BenchArgs, kind: PaperGraph, divisor: u64, seed: u64) -> Workload {
    let graph = kind.generate(divisor, args.seed);
    let sources = sample_sources(&graph, args.sources, seed);
    Workload::new(kind.name(), graph, &sources)
}

/// Table IV: properties of the evaluation graphs (stand-ins), side by
/// side with the paper's reported numbers.
fn table4(args: &BenchArgs) {
    println!("== Table IV: graph properties (stand-ins at n = paper_n / {}) ==\n", args.divisor);
    let mut t = Table::new(&[
        "graph",
        "n",
        "m",
        "avg-deg",
        "max-deg",
        "bfs-diam",
        "gamma",
        "paper n",
        "paper m",
        "paper diam",
    ]);
    for g in suite(args) {
        let s = summarize(&g.generate(args.divisor, args.seed));
        let (pn, pm, pdiam) = g.paper_properties();
        t.row(vec![
            g.name().to_string(),
            count(s.n as u64),
            count(s.m),
            format!("{:.1}", s.avg_degree),
            count(s.max_degree as u64),
            s.pseudo_diameter.to_string(),
            s.power_law_gamma.map_or("-".to_string(), |g| format!("{g:.2}")),
            count(pn),
            count(pm),
            pdiam.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Diameter classes to compare with the paper: cage* tens-of-levels, freescale \
         hundreds, wikipedia/kkt/rmat ~5-15. Absolute diameters shrink with the divisor."
    );
}

/// Table V: average per-source running time (ms) of every algorithm on
/// every evaluation graph. `--threads 12` is the Lonestar analogue
/// (Table V(a)), `--threads 32` the Trestles one (Table V(b)).
fn table5(args: &BenchArgs) {
    println!(
        "== Table V: mean running time (ms) over {} sources, divisor {} ==\n",
        args.sources, args.divisor
    );
    let workloads: Vec<Workload> = suite(args)
        .enumerate()
        .map(|(col, g)| workload(args, g, args.divisor, args.seed ^ col as u64))
        .collect();
    let mut header = vec!["algorithm"];
    header.extend(workloads.iter().map(|w| w.name.as_str()));
    let mut t = Table::new(&header);

    let mut pool = ContenderPool::new(args.threads);
    let opts = BfsOptions { threads: args.threads, ..Default::default() };
    // Best-per-column tracking (the paper colors the winner per graph).
    let mut best: Vec<(f64, String)> = vec![(f64::INFINITY, String::new()); workloads.len()];
    for c in Contender::roster() {
        let mut row = vec![c.name()];
        for (col, w) in workloads.iter().enumerate() {
            let mean = measure(&mut pool, c, w, &opts).time_ms().mean;
            if mean < best[col].0 {
                best[col] = (mean, c.name());
            }
            row.push(ms(mean));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!("Fastest per graph:");
    for (w, (mean, name)) in workloads.iter().zip(&best) {
        println!("  {:<12} {name} ({} ms)", w.name, ms(*mean));
    }
    println!(
        "\nPaper expectations (shape): each lock-free variant beats its locked \
         counterpart; centralized best at low p, work-stealing at high p; \
         Baseline2[bitmap] competitive only on the dense rmat-1B."
    );
}

/// Table VI: successful and failed steal attempts of BFS_WS vs BFS_WSL,
/// extended with the recovery counters (fetch retries, stale-slot
/// aborts, injected faults, degraded levels). The paper runs each
/// program 5 times from 100 sources; `--sources` sets the sources per
/// repetition. `--chaos-seed` installs a store-buffer fault plan (active
/// in `--features chaos` builds) and `--watchdog-ms` arms the per-level
/// watchdog, so the recovery columns can be driven on demand;
/// `--hybrid` appends the direction-optimizing rows.
fn table6(args: &BenchArgs) {
    const REPS: usize = 5;
    let kind = one_graph(args);
    let graph = kind.generate(args.divisor, args.seed);
    println!(
        "== Table VI: steal outcomes on {} ({} reps x {} sources, p={}) ==\n",
        kind.name(),
        REPS,
        args.sources,
        args.threads
    );
    // Every repetition draws its own sources; all REPS x sources runs
    // of a program accumulate into its one row.
    let sources: Vec<_> = (0..REPS)
        .flat_map(|rep| sample_sources(&graph, args.sources, args.seed ^ (rep as u64) << 8))
        .collect();
    let w = Workload::new(kind.name(), graph, &sources);

    let mut pool = ContenderPool::new(args.threads);
    let opts = BfsOptions {
        threads: args.threads,
        chaos: args.chaos_seed.map(ChaosConfig::store_buffer),
        watchdog: args.watchdog_ms.map(|ms| WatchdogPolicy::deadline(Duration::from_millis(ms))),
        ..Default::default()
    };
    let mut report = args.json.then(|| BenchReport::new("table6", args));
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
    let mut rows = vec![Contender::Ours(Algorithm::Bfsws), Contender::Ours(Algorithm::Bfswsl)];
    if args.hybrid {
        rows.extend(Contender::hybrid_roster());
    }
    let cell = |v: u64, total: u64, applicable: bool| {
        if !applicable && v == 0 {
            "N/A".to_string()
        } else {
            format!("{} ({})", count(v), pct(v, total))
        }
    };
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
            cell(total.victim_locked, a, locked_applies),
            cell(total.victim_idle, a, true),
            cell(total.too_small, a, true),
            cell(total.stale, a, lockfree_steals),
            cell(total.invalid, a, lockfree_steals),
            cell(total.failed(), a, true),
            cell(total.success, a, true),
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

/// Figure 2: running time of the lock-free algorithms, and speedup over
/// serial BFS, as the worker count sweeps up to `--threads` (paper: 12
/// on Lonestar for Fig. 2(a), 32 on Trestles for Fig. 2(b)).
fn fig2(args: &BenchArgs) {
    let kind = one_graph(args);
    println!(
        "== Figure 2: lock-free scalability on {} (divisor {}, {} sources/point) ==\n",
        kind.name(),
        args.divisor,
        args.sources
    );
    let algos = [Algorithm::Bfscl, Algorithm::Bfsdl, Algorithm::Bfswsl];
    let w = workload(args, kind, args.divisor, args.seed);

    let serial_opts = BfsOptions { threads: 1, ..Default::default() };
    let serial = Contender::Ours(Algorithm::Serial);
    let base = measure(&mut ContenderPool::new(1), serial, &w, &serial_opts).time_ms().mean;
    println!("serial reference: {} ms\n", ms(base));

    let mut header = vec!["threads".to_string()];
    for a in algos {
        header.push(format!("{a} ms"));
        header.push(format!("{a} spd"));
    }
    let mut t = Table::new(&header);
    for p in [1usize, 2, 4, 6, 8, 12, 16, 20, 24, 32].into_iter().filter(|&p| p <= args.threads) {
        let mut pool = ContenderPool::new(p);
        // BFSDL keeps one pool (j = 1), as the paper ran it.
        let opts = BfsOptions { threads: p, ..Default::default() };
        let mut row = vec![p.to_string()];
        for a in algos {
            let mean = measure(&mut pool, Contender::Ours(a), &w, &opts).time_ms().mean;
            row.push(ms(mean));
            row.push(format!("{:.2}x", base / mean));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "Paper expectations (shape): centralized variants flatten/regress past ~20 \
         threads; the scale-free work-stealing variant keeps scaling to 32. On a \
         machine with fewer physical cores than the sweep, points beyond the core \
         count measure oversubscription overhead instead of speedup."
    );
}

/// Figure 3: traversed edges per second on the real-world graphs
/// (`--graph` plots one paper graph instead of the five), comparing
/// Baseline1, Baseline2, our best locked and our best lock-free
/// variants.
fn fig3(args: &BenchArgs) {
    println!(
        "== Figure 3: TEPS on real-world graphs (divisor {}, {} sources, p={}) ==\n",
        args.divisor, args.sources, args.threads
    );
    let kinds = match args.only_graph {
        Some(g) => vec![g],
        None => vec![
            PaperGraph::Cage15,
            PaperGraph::Cage14,
            PaperGraph::Freescale,
            PaperGraph::Wikipedia,
            PaperGraph::KktPower,
        ],
    };
    let contenders = [
        Contender::Baseline1,
        Contender::Baseline2(HongVariant::LocalQueueReadBitmap),
        Contender::Ours(Algorithm::Bfsws), // best locked (scale-free WS)
        Contender::Ours(Algorithm::Bfswsl), // best lock-free
        Contender::Ours(Algorithm::Bfscl),
    ];
    let mut pool = ContenderPool::new(args.threads);
    let opts = BfsOptions { threads: args.threads, ..Default::default() };

    let mut header = vec!["graph".to_string()];
    header.extend(contenders.iter().map(Contender::name));
    let mut t = Table::new(&header);
    let mut report = args.json.then(|| BenchReport::new("fig3", args));
    for kind in kinds {
        let w = workload(args, kind, args.divisor, args.seed);
        let mut row = vec![kind.name().to_string()];
        for c in contenders {
            let m = match &mut report {
                Some(report) => {
                    let m = measure_with_series(&mut pool, c, &w, &opts);
                    report.add(&m);
                    m
                }
                None => measure(&mut pool, c, &w, &opts),
            };
            row.push(teps(m.teps()));
        }
        t.row(row);
    }
    println!("{}", t.render());
    if let Some(report) = report {
        report.finish();
    }
    println!(
        "Paper expectations (shape): our best implementation reaches the highest TEPS \
         on every real-world graph; the lock-free scale-free variant leads on \
         wikipedia (hub-dominated); the margins narrow on the near-regular cage \
         meshes."
    );
}

/// Sweeps of the design choices DESIGN.md calls out: the centralized
/// dispatcher's segment policy, BFSDL's pool count, §IV-D owner-array
/// dedup on a dense graph, the scale-free phase 2, the hub threshold and
/// the NUMA victim/pool policy.
fn ablations(args: &BenchArgs) {
    let wiki = workload(args, PaperGraph::Wikipedia, args.divisor, args.seed);
    let dense = workload(args, PaperGraph::Rmat1B, args.divisor * 4, args.seed);
    let mut pool = ContenderPool::new(args.threads);
    let base = BfsOptions { threads: args.threads, ..Default::default() };

    println!("== Ablation 1: segment policy (BFS_CL, wikipedia) ==\n");
    let mut t = Table::new(&["policy", "time(ms)", "segments", "retries", "dup-overhead"]);
    for (name, segment) in [
        ("fixed(1)", SegmentPolicy::Fixed(1)),
        ("fixed(16)", SegmentPolicy::Fixed(16)),
        ("fixed(256)", SegmentPolicy::Fixed(256)),
        ("adaptive(div=2)", SegmentPolicy::Adaptive { div: 2, max: 4096 }),
        ("adaptive(div=8)", SegmentPolicy::Adaptive { div: 8, max: 4096 }),
    ] {
        let opts = BfsOptions { segment, ..base.clone() };
        let m = measure(&mut pool, Contender::Ours(Algorithm::Bfscl), &wiki, &opts);
        t.row(vec![
            name.to_string(),
            ms(m.time_ms().mean),
            m.totals.segments_fetched.to_string(),
            m.totals.fetch_retries.to_string(),
            format!("{:.4}", m.duplicate_overhead()),
        ]);
    }
    println!("{}", t.render());

    println!("== Ablation 2: pool count j (BFS_DL, wikipedia) ==\n");
    let mut t = Table::new(&["pools", "time(ms)"]);
    let mut j = 1;
    while j <= args.threads {
        let opts = BfsOptions { pools: j, ..base.clone() };
        let m = measure(&mut pool, Contender::Ours(Algorithm::Bfsdl), &wiki, &opts);
        t.row(vec![j.to_string(), ms(m.time_ms().mean)]);
        j *= 2;
    }
    println!("{}", t.render());

    println!("== Ablation 3: owner-array dedup (dense rmat, BFS_CL & BFS_WSL) ==\n");
    let mut t = Table::new(&["algorithm", "dedup", "time(ms)", "dup-overhead", "skips"]);
    for algo in [Algorithm::Bfscl, Algorithm::Bfswsl] {
        for dedup in [DedupMode::None, DedupMode::OwnerArray] {
            let opts = BfsOptions { dedup, ..base.clone() };
            let m = measure(&mut pool, Contender::Ours(algo), &dense, &opts);
            t.row(vec![
                algo.name().to_string(),
                format!("{dedup:?}"),
                ms(m.time_ms().mean),
                format!("{:.4}", m.duplicate_overhead()),
                m.totals.dedup_skips.to_string(),
            ]);
        }
    }
    println!("{}", t.render());

    println!("== Ablation 4: scale-free phase 2 (BFS_WSL, wikipedia) ==\n");
    let mut t = Table::new(&["phase2", "time(ms)"]);
    for (name, steal) in [("static-chunks", false), ("edge-stealing", true)] {
        let opts = BfsOptions { phase2_steal: steal, ..base.clone() };
        let m = measure(&mut pool, Contender::Ours(Algorithm::Bfswsl), &wiki, &opts);
        t.row(vec![name.to_string(), ms(m.time_ms().mean)]);
    }
    println!("{}", t.render());
    println!("(Paper §IV-B.3: the stealing phase-2 variant usually performed worse.)\n");

    println!("== Ablation 5: hub threshold (BFS_WSL, wikipedia) ==\n");
    let mut t = Table::new(&["threshold", "time(ms)"]);
    for thr in [16usize, 64, 256, 1024, usize::MAX] {
        let opts = BfsOptions { hub_threshold: Some(thr), ..base.clone() };
        let m = measure(&mut pool, Contender::Ours(Algorithm::Bfswsl), &wiki, &opts);
        let label = if thr == usize::MAX { "inf (no hubs)".to_string() } else { thr.to_string() };
        t.row(vec![label, ms(m.time_ms().mean)]);
    }
    println!("{}", t.render());

    println!("== Ablation 6: NUMA policy (2-socket layout, wikipedia) ==\n");
    let mut t = Table::new(&["algorithm", "policy", "time(ms)", "steal-success%"]);
    for algo in [Algorithm::Bfswl, Algorithm::Bfsdl] {
        for (name, topology) in [
            ("uniform", None),
            ("2-socket", Some(obfs_runtime::Topology::blocked(args.threads, 2))),
        ] {
            let opts = BfsOptions { topology, pools: 2, ..base.clone() };
            let m = measure(&mut pool, Contender::Ours(algo), &wiki, &opts);
            let steal = m.totals.steal;
            let success = if steal.attempts == 0 {
                "-".to_string()
            } else {
                format!("{:.2}", 100.0 * steal.success as f64 / steal.attempts as f64)
            };
            t.row(vec![algo.name().to_string(), name.to_string(), ms(m.time_ms().mean), success]);
        }
    }
    println!("{}", t.render());
}

/// Per-level profile: frontier size, discoveries and wall time per level
/// of one BFS_WSL traversal on the one graph, then the level structure
/// of BFS_CL across the suite — the data behind the "freescale pays the
/// barrier tax" observation in EXPERIMENTS.md.
fn levels(args: &BenchArgs) {
    let kind = one_graph(args);
    let graph = kind.generate(args.divisor, args.seed);
    let src = sample_sources(&graph, 1, args.seed)[0];
    let opts =
        BfsOptions { threads: args.threads, collect_level_stats: true, ..Default::default() };
    println!("== Per-level profile: BFS_WSL on {} from source {src} ==\n", kind.name());
    let r = run_bfs(Algorithm::Bfswsl, &graph, src, &opts);
    let mut t = Table::new(&["level", "frontier", "discovered", "time(us)", "us/vertex"]);
    for e in &r.stats.level_stats {
        let us = e.duration.as_secs_f64() * 1e6;
        t.row(vec![
            e.level.to_string(),
            e.frontier.to_string(),
            e.discovered.to_string(),
            format!("{us:.1}"),
            format!("{:.2}", us / e.frontier.max(1) as f64),
        ]);
    }
    println!("{}", t.render());

    println!("== Level-structure summary across the paper suite (BFS_CL) ==\n");
    let mut t =
        Table::new(&["graph", "levels", "max-frontier", "mean us/level", "barrier-bound levels*"]);
    for kind in suite(args) {
        let g = kind.generate(args.divisor, args.seed);
        let s = sample_sources(&g, 1, args.seed)[0];
        let r = run_bfs(Algorithm::Bfscl, &g, s, &opts);
        let tr = &r.stats.level_stats;
        let Some(max_frontier) = tr.iter().map(|e| e.frontier).max() else { continue };
        let mean_us =
            tr.iter().map(|e| e.duration.as_secs_f64()).sum::<f64>() * 1e6 / tr.len() as f64;
        // A level is "barrier-bound" when its frontier is smaller than the
        // worker count: there is not even one vertex per thread, so its
        // cost is pure synchronization.
        let tiny = tr.iter().filter(|e| e.frontier < args.threads).count();
        t.row(vec![
            kind.name().to_string(),
            tr.len().to_string(),
            max_frontier.to_string(),
            format!("{mean_us:.1}"),
            format!("{tiny} ({:.0}%)", 100.0 * tiny as f64 / tr.len() as f64),
        ]);
    }
    println!("{}", t.render());
    println!(
        "* levels with frontier < p: the synchronization-dominated levels that make\n\
         high-diameter graphs (freescale) slow for every level-synchronous code."
    );
}
