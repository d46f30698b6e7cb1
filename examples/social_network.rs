//! Social-network analysis: the "degrees of separation" workload from
//! the paper's motivation. Builds a Barabási–Albert network, measures
//! separation from several seed users with every BFS algorithm, and
//! shows why hub handling matters on scale-free graphs.
//!
//! ```sh
//! cargo run --release --example social_network
//! ```

use obfs::prelude::*;
use obfs_graph::stats;

fn main() {
    // Preferential-attachment network: 200k users, each new user follows
    // 4 existing ones; early users become celebrities (hubs).
    let n = 200_000;
    let graph = gen::barabasi_albert(n, 4, 7);
    let summary = stats::summarize(&graph);
    println!(
        "network: {} users, {} follow edges, biggest hub has {} connections",
        summary.n, summary.m, summary.max_degree
    );
    if let Some(gamma) = summary.power_law_gamma {
        println!("degree distribution power-law exponent ≈ {gamma:.2} (BA model: ≈3)");
    }

    let threads = 8;
    let runner = obfs::core::BfsRunner::new(threads);
    let opts = BfsOptions { threads, ..BfsOptions::default() };
    let sources = stats::sample_sources(&graph, 3, 99);

    println!("\nper-algorithm traversal of {} sources:", sources.len());
    for algo in [Algorithm::Serial, Algorithm::Bfscl, Algorithm::Bfswl, Algorithm::Bfswsl] {
        let mut total_ms = 0.0;
        let mut max_sep = 0;
        for &src in &sources {
            let r = runner.run(algo, &graph, src, &opts);
            total_ms += r.stats.traversal_time.as_secs_f64() * 1e3;
            max_sep = max_sep.max(r.depth());
        }
        println!("  {:<8} {:>8.2} ms total, max separation {}", algo.name(), total_ms, max_sep);
    }

    // Degrees-of-separation distribution from one user.
    let src = sources[0];
    let r = runner.run(Algorithm::Bfswsl, &graph, src, &opts);
    let mut by_level = vec![0usize; r.depth() as usize + 1];
    for &l in &r.levels {
        if l != obfs::core::UNVISITED {
            by_level[l as usize] += 1;
        }
    }
    println!("\ndegrees of separation from user {src}:");
    let mut cumulative = 0usize;
    for (d, c) in by_level.iter().enumerate() {
        cumulative += c;
        println!(
            "  within {d} hops: {:>7} users ({:.1}%)",
            cumulative,
            100.0 * cumulative as f64 / n as f64
        );
    }

    // Hub diversion telemetry: the scale-free variant classifies
    // high-degree users into the phase-2 hub path.
    let hub_threshold = opts.resolved_hub_threshold(&graph);
    let hubs = (0..n as u32).filter(|&v| graph.degree(v) > hub_threshold).count();
    println!(
        "\nscale-free handling: {hubs} users exceed the hub threshold ({hub_threshold}); \
         their follow lists are split across all {threads} workers in phase 2"
    );
}
