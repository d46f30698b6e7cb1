//! Regenerates **Figure 2**: scalability of the lock-free algorithms on
//! the Wikipedia graph — running time (and speedup over serial BFS) as a
//! function of the worker count.
//!
//! `--threads` sets the sweep's maximum (paper: 12 on Lonestar for
//! Fig. 2(a), 32 on Trestles for Fig. 2(b)).

use obfs_bench::env::HostInfo;
use obfs_bench::harness::{measure, pick_sources};
use obfs_bench::table::{ms, Table};
use obfs_bench::{BenchArgs, Contender, ContenderPool, Workload};
use obfs_core::{Algorithm, BfsOptions};
use obfs_graph::gen::suite::PaperGraph;

fn main() {
    let args = BenchArgs::parse(&["--graph"]);
    println!("{}", HostInfo::detect().render(args.threads));
    let graph_kind = args.only_graph.unwrap_or(PaperGraph::Wikipedia);
    let graph = graph_kind.generate(args.divisor, args.seed);
    println!(
        "== Figure 2: lock-free scalability on {} (divisor {}, {} sources/point) ==\n",
        graph_kind.name(),
        args.divisor,
        args.sources
    );

    // The lock-free family the figure plots.
    let algos = [Algorithm::Bfscl, Algorithm::Bfsdl, Algorithm::Bfswsl];
    let sweep: Vec<usize> = [1usize, 2, 4, 6, 8, 12, 16, 20, 24, 32]
        .into_iter()
        .filter(|&p| p <= args.threads)
        .collect();
    let sources = pick_sources(&graph, args.sources, args.seed);
    let w = Workload::new(graph_kind.name(), graph, &sources);

    // Serial reference for speedup.
    let mut serial_pool = ContenderPool::new(1);
    let serial_opts = BfsOptions { threads: 1, ..Default::default() };
    let base =
        measure(&mut serial_pool, Contender::Ours(Algorithm::Serial), &w, &serial_opts)
            .time_ms()
            .mean;
    println!("serial reference: {} ms\n", ms(base));

    let mut header = vec!["threads".to_string()];
    for a in algos {
        header.push(format!("{a} ms"));
        header.push(format!("{a} spd"));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);

    for &p in &sweep {
        let mut pool = ContenderPool::new(p);
        // BFSDL with multiple pools once threads allow (paper ran j=1;
        // we keep j=1 for fidelity).
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
