//! Regenerates **Figure 3**: performance in traversed edges per second
//! (TEPS) on the real-world graphs, comparing Baseline1, Baseline2, our
//! best locked variant and our best lock-free variant. `--graph` plots
//! one paper graph instead of the five.

use obfs_baselines::hong::HongVariant;
use obfs_bench::env::HostInfo;
use obfs_bench::harness::{measure, measure_with_series, pick_sources};
use obfs_bench::table::{teps, Table};
use obfs_bench::{BenchArgs, BenchReport, Contender, ContenderPool, Workload};
use obfs_core::{Algorithm, BfsOptions};
use obfs_graph::gen::suite::PaperGraph;

fn main() {
    let args = BenchArgs::parse();
    println!("{}", HostInfo::detect().render(args.threads));
    println!(
        "== Figure 3: TEPS on real-world graphs (divisor {}, {} sources, p={}) ==\n",
        args.divisor, args.sources, args.threads
    );

    // The five real-world graphs of the figure.
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
        Contender::Ours(Algorithm::Bfsws),  // best locked (scale-free WS)
        Contender::Ours(Algorithm::Bfswsl), // best lock-free
        Contender::Ours(Algorithm::Bfscl),
    ];

    let mut pool = ContenderPool::new(args.threads);
    let opts = BfsOptions { threads: args.threads, ..Default::default() };

    let mut header = vec!["graph".to_string()];
    for c in contenders {
        header.push(c.name());
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);

    let mut report = args.json.then(|| BenchReport::new("fig3", &args));
    for kind in kinds {
        let graph = kind.generate(args.divisor, args.seed);
        let sources = pick_sources(&graph, args.sources, args.seed);
        let w = Workload::new(kind.name(), graph, &sources);
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
