//! Regenerates **Table IV**: properties of the evaluation graphs
//! (stand-ins), side by side with the paper's reported numbers.

use obfs_bench::env::HostInfo;
use obfs_bench::table::{count, Table};
use obfs_bench::BenchArgs;
use obfs_graph::gen::suite::ALL;
use obfs_graph::stats::summarize;

fn main() {
    let args = BenchArgs::parse(&["--graph"]);
    println!("{}", HostInfo::detect().render(1));
    println!(
        "== Table IV: graph properties (stand-ins at n = paper_n / {}) ==\n",
        args.divisor
    );
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
    for g in ALL.into_iter().filter(|g| args.only_graph.is_none_or(|o| o == *g)) {
        let graph = g.generate(args.divisor, args.seed);
        let s = summarize(&graph);
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
