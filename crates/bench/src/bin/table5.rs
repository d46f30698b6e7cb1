//! Regenerates **Table V**: average per-source running time (ms) of every
//! algorithm on every evaluation graph.
//!
//! Run with `--threads 12` for the Lonestar analogue (Table V(a)) and
//! `--threads 32` for the Trestles analogue (Table V(b)).

use obfs_bench::env::HostInfo;
use obfs_bench::harness::{measure, pick_sources};
use obfs_bench::table::{ms, Table};
use obfs_bench::{BenchArgs, Contender, ContenderPool, Workload};
use obfs_core::BfsOptions;
use obfs_graph::gen::suite::ALL;

fn main() {
    let args = BenchArgs::parse();
    println!("{}", HostInfo::detect().render(args.threads));
    println!(
        "== Table V: mean running time (ms) over {} sources, divisor {} ==\n",
        args.sources, args.divisor
    );

    let workloads: Vec<Workload> = ALL
        .into_iter()
        .filter(|g| args.only_graph.is_none_or(|o| o == *g))
        .enumerate()
        .map(|(col, g)| {
            let graph = g.generate(args.divisor, args.seed);
            let sources = pick_sources(&graph, args.sources, args.seed ^ col as u64);
            Workload::new(g.name(), graph, &sources)
        })
        .collect();

    let mut header = vec!["algorithm"];
    for w in &workloads {
        header.push(&w.name);
    }
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
    for (col, w) in workloads.iter().enumerate() {
        println!("  {:<12} {} ({} ms)", w.name, best[col].1, ms(best[col].0));
    }
    println!(
        "\nPaper expectations (shape): each lock-free variant beats its locked \
         counterpart; centralized best at low p, work-stealing at high p; \
         Baseline2[bitmap] competitive only on the dense rmat-1B."
    );
}
