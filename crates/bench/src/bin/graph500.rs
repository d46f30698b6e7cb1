//! Graph500-style BFS kernel driver.
//!
//! ```text
//! graph500 [GRAPH.mtx ...] [--divisor k] [--threads p] [--sources s]
//!          [--seed x] [--json]
//! ```
//!
//! The paper motivates BFS partly through the Graph500 supercomputer
//! ranking (§I, refs. \[3\]\[4\]). This binary runs the Graph500 search
//! kernel shape: 64 (configurable via `--sources`) random search keys
//! per graph, harmonic-mean TEPS per contender — including the
//! direction-optimizing Beamer baseline, which is not part of the
//! paper's own tables but is the modern Graph500 reference point.
//!
//! Without arguments it runs on an RMAT graph whose scale follows
//! `--divisor` and writes `BENCH_graph500.json`. Matrix Market files
//! given as arguments (e.g. the SuiteSparse downloads fetched by
//! `scripts/realgraph.sh`) replace the RMAT graph, one graph per file,
//! and the report goes to `BENCH_realgraph.json`.

use obfs_baselines::hong::HongVariant;
use obfs_bench::args::fail;
use obfs_bench::env::HostInfo;
use obfs_bench::harness::pick_sources;
use obfs_bench::table::{teps, Table};
use obfs_bench::{measure, BenchArgs, BenchReport, Contender, ContenderPool, Workload};
use obfs_core::{Algorithm, BfsOptions};
use obfs_graph::gen::{rmat, RmatParams};
use obfs_graph::{io, CsrGraph};

fn load_mtx(path: &str) -> Result<CsrGraph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    io::read_matrix_market(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

/// Graph label: file stem without extension.
fn stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

fn main() {
    let args = BenchArgs::parse_with_files();
    println!("{}", HostInfo::detect().render(args.threads));
    let graphs: Vec<(String, CsrGraph)> = if args.files.is_empty() {
        // Interpret --divisor as the Graph500 "scale" reduction: scale 26
        // is the toy class; we default to what fits the box.
        let scale = match args.divisor {
            1 => 20u32, // full local run
            d => (20u32).saturating_sub(d.ilog2()).max(12),
        };
        let edge_factor = 16; // Graph500 constant
        println!(
            "== Graph500-style kernel: RMAT scale {scale} (2^{scale} vertices, \
             edge factor {edge_factor}), {} search keys, p={} ==\n",
            args.sources, args.threads
        );
        vec![(format!("rmat{scale}"), rmat(scale, edge_factor, RmatParams::default(), args.seed))]
    } else {
        println!(
            "== Graph500-style kernel: {} graph file(s), {} search keys each, p={} ==\n",
            args.files.len(),
            args.sources,
            args.threads
        );
        args.files.iter().map(|p| (stem(p), load_mtx(p).unwrap_or_else(|e| fail(e)))).collect()
    };

    let mut pool = ContenderPool::new(args.threads);
    let opts = BfsOptions { threads: args.threads, ..Default::default() };
    // The hybrid and compaction rows always run here: dense low-diameter
    // RMAT is exactly the regime direction optimization and prefix-sum
    // frontier compaction target, so this binary is where the top-down
    // vs hybrid vs compacted crossover is measured.
    let mut contenders: Vec<Contender> = vec![
        Contender::Ours(Algorithm::Serial),
        Contender::Ours(Algorithm::Bfscl),
        Contender::Ours(Algorithm::Bfswsl),
        Contender::OursCompact(Algorithm::Bfscl),
        Contender::OursCompact(Algorithm::Bfswsl),
    ];
    contenders.extend(Contender::hybrid_roster());
    contenders.push(Contender::Baseline1);
    contenders.push(Contender::Baseline2(HongVariant::LocalQueueReadBitmap));
    contenders.push(Contender::Beamer);

    let name = if args.files.is_empty() { "graph500" } else { "realgraph" };
    let mut report = args.json.then(|| BenchReport::new(name, &args));
    for (graph_name, graph) in graphs {
        println!(
            "graph {graph_name}: n={} m={} (after dedup/self-loop removal)\n",
            graph.num_vertices(),
            graph.num_edges()
        );
        let sources = pick_sources(&graph, args.sources, args.seed ^ 0x9500);
        let w = Workload::new(graph_name, graph, &sources);
        let mut t = Table::new(&["contender", "harmonic-TEPS", "mean ms/key"]);
        for &c in &contenders {
            let m = measure(&mut pool, c, &w, &opts);
            t.row(vec![c.name(), teps(m.teps()), format!("{:.3}", m.time_ms().mean)]);
            if let Some(report) = &mut report {
                report.add(&m);
            }
        }
        println!("{}", t.render());
    }
    if let Some(report) = report {
        report.finish();
    }
    println!(
        "TEPS follows Graph500: the input edges of the traversed component over \
         traversal time, identical for every contender (so algorithms that scan fewer \
         edges, like bottom-up levels, are credited, not penalized)."
    );
    if args.files.is_empty() {
        println!(
            "Note: dense low-diameter RMAT is the regime where the paper concedes the \
             bitmap-based Baseline2 (and modern direction-optimization, which skips most \
             edge scans in its bottom-up levels) wins over duplicate-tolerant optimistic \
             traversal."
        );
    }
}
