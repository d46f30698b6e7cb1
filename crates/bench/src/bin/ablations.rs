//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! 1. segment-size policy for the optimistic centralized dispatcher;
//! 2. pool count `j` for BFSDL (1 = centralized ... p = distributed);
//! 3. §IV-D owner-array duplicate suppression on a dense graph;
//! 4. scale-free phase-2: static chunks vs optimistic edge stealing;
//! 5. hub threshold sensitivity for BFSWSL.

use obfs_bench::env::HostInfo;
use obfs_bench::harness::{measure, pick_sources};
use obfs_bench::table::{ms, Table};
use obfs_bench::{BenchArgs, Contender, ContenderPool, Workload};
use obfs_core::{Algorithm, BfsOptions, DedupMode, SegmentPolicy};
use obfs_graph::gen::suite::PaperGraph;
use obfs_graph::CsrGraph;

fn main() {
    let args = BenchArgs::parse(&[]);
    println!("{}", HostInfo::detect().render(args.threads));
    let workload = |name: &str, graph: CsrGraph| {
        let sources = pick_sources(&graph, args.sources, args.seed);
        Workload::new(name, graph, &sources)
    };
    let wiki = workload("wikipedia", PaperGraph::Wikipedia.generate(args.divisor, args.seed));
    let dense = workload("rmat-dense", PaperGraph::Rmat1B.generate(args.divisor * 4, args.seed));
    let mut pool = ContenderPool::new(args.threads);
    let base = BfsOptions { threads: args.threads, ..Default::default() };

    // 1. Segment policy sweep (BFSCL, wikipedia).
    println!("== Ablation 1: segment policy (BFS_CL, wikipedia) ==\n");
    let mut t = Table::new(&["policy", "time(ms)", "segments", "retries", "dup-overhead"]);
    let policies: Vec<(String, SegmentPolicy)> = vec![
        ("fixed(1)".into(), SegmentPolicy::Fixed(1)),
        ("fixed(16)".into(), SegmentPolicy::Fixed(16)),
        ("fixed(256)".into(), SegmentPolicy::Fixed(256)),
        ("adaptive(div=2)".into(), SegmentPolicy::Adaptive { div: 2, max: 4096 }),
        ("adaptive(div=8)".into(), SegmentPolicy::Adaptive { div: 8, max: 4096 }),
    ];
    for (name, segment) in policies {
        let opts = BfsOptions { segment, ..base.clone() };
        let m = measure(&mut pool, Contender::Ours(Algorithm::Bfscl), &wiki, &opts);
        t.row(vec![
            name,
            ms(m.time_ms().mean),
            m.totals.segments_fetched.to_string(),
            m.totals.fetch_retries.to_string(),
            format!("{:.4}", m.duplicate_overhead()),
        ]);
    }
    println!("{}", t.render());

    // 2. Pool count sweep (BFSDL).
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

    // 3. Owner-array dedup on the dense graph (§IV-D).
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

    // 4. Phase-2 strategy for the scale-free variant.
    println!("== Ablation 4: scale-free phase 2 (BFS_WSL, wikipedia) ==\n");
    let mut t = Table::new(&["phase2", "time(ms)"]);
    for (name, steal) in [("static-chunks", false), ("edge-stealing", true)] {
        let opts = BfsOptions { phase2_steal: steal, ..base.clone() };
        let m = measure(&mut pool, Contender::Ours(Algorithm::Bfswsl), &wiki, &opts);
        t.row(vec![name.to_string(), ms(m.time_ms().mean)]);
    }
    println!("{}", t.render());
    println!("(Paper §IV-B.3: the stealing phase-2 variant usually performed worse.)\n");

    // 5. Hub threshold sensitivity.
    println!("== Ablation 5: hub threshold (BFS_WSL, wikipedia) ==\n");
    let mut t = Table::new(&["threshold", "time(ms)"]);
    for thr in [16usize, 64, 256, 1024, usize::MAX] {
        let opts = BfsOptions { hub_threshold: Some(thr), ..base.clone() };
        let m = measure(&mut pool, Contender::Ours(Algorithm::Bfswsl), &wiki, &opts);
        let label =
            if thr == usize::MAX { "inf (no hubs)".to_string() } else { thr.to_string() };
        t.row(vec![label, ms(m.time_ms().mean)]);
    }
    println!("{}", t.render());

    // 6. NUMA-aware victim/pool selection (paper SIV-C) vs uniform.
    println!("== Ablation 6: NUMA policy (2-socket layout, wikipedia) ==\n");
    let mut t = Table::new(&["algorithm", "policy", "time(ms)", "steal-success%"]);
    for algo in [Algorithm::Bfswl, Algorithm::Bfsdl] {
        for (name, topo) in [
            ("uniform", None),
            ("2-socket", Some(obfs_runtime::Topology::blocked(args.threads, 2))),
        ] {
            let opts = BfsOptions { topology: topo, pools: 2, ..base.clone() };
            let m = measure(&mut pool, Contender::Ours(algo), &wiki, &opts);
            let steal = m.totals.steal;
            let sr = if steal.attempts == 0 {
                "-".to_string()
            } else {
                format!("{:.2}", 100.0 * steal.success as f64 / steal.attempts as f64)
            };
            t.row(vec![algo.name().to_string(), name.to_string(), ms(m.time_ms().mean), sr]);
        }
    }
    println!("{}", t.render());
}
