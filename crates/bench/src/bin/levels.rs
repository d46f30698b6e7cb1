//! Per-level profile: where a traversal's time goes, level by level —
//! the companion analysis to Figure 2 (and the data behind the
//! "freescale pays the barrier tax" observation in EXPERIMENTS.md).
//!
//! Prints frontier size, discoveries and wall time per BFS level for a
//! chosen algorithm (default `BFS_WSL`) on a chosen graph (default
//! `wikipedia`), plus the level-time distribution across the whole
//! paper suite.

use obfs_bench::env::HostInfo;
use obfs_bench::table::Table;
use obfs_bench::BenchArgs;
use obfs_core::{run_bfs, Algorithm, BfsOptions};
use obfs_graph::gen::suite::{PaperGraph, ALL};
use obfs_graph::stats::sample_sources;

fn main() {
    let args = BenchArgs::parse();
    println!("{}", HostInfo::detect().render(args.threads));
    let graph_kind = args.only_graph.unwrap_or(PaperGraph::Wikipedia);
    let graph = graph_kind.generate(args.divisor, args.seed);
    let src = sample_sources(&graph, 1, args.seed)[0];
    let opts = BfsOptions {
        threads: args.threads,
        collect_level_stats: true,
        ..Default::default()
    };

    println!(
        "== Per-level profile: BFS_WSL on {} from source {src} ==\n",
        graph_kind.name()
    );
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
    let mut t = Table::new(&[
        "graph",
        "levels",
        "max-frontier",
        "mean us/level",
        "barrier-bound levels*",
    ]);
    for kind in ALL.into_iter().filter(|g| args.only_graph.is_none_or(|o| o == *g)) {
        let g = kind.generate(args.divisor, args.seed);
        let s = sample_sources(&g, 1, args.seed)[0];
        let r = run_bfs(Algorithm::Bfscl, &g, s, &opts);
        let tr = &r.stats.level_stats;
        if tr.is_empty() {
            continue;
        }
        let max_frontier = tr.iter().map(|e| e.frontier).max().unwrap();
        let mean_us = tr.iter().map(|e| e.duration.as_secs_f64()).sum::<f64>() * 1e6
            / tr.len() as f64;
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
