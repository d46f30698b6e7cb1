//! Quickstart: generate a graph, run the paper's headline algorithm
//! (BFSWSL — lock-free, scale-free work-stealing), and verify the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use obfs::prelude::*;

fn main() {
    // A scale-free graph like the web/social graphs the paper targets:
    // 100k vertices, power-law degrees.
    let graph = gen::suite::scale_free_like(100_000, 12.0, 2.3, 42);
    println!(
        "graph: {} vertices, {} directed edges, max degree {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree().0
    );

    let opts = BfsOptions { threads: 8, record_parents: true, ..BfsOptions::default() };
    let src = 0;

    // The optimistic lock-free BFS: no locks, no atomic RMW instructions
    // anywhere in its queue handling.
    let result = run_bfs(Algorithm::Bfswsl, &graph, src, &opts);
    println!(
        "BFS_WSL: reached {} vertices in {} levels ({:.2} ms, {} threads)",
        result.reached(),
        result.stats.levels,
        result.stats.traversal_time.as_secs_f64() * 1e3,
        opts.threads
    );
    println!(
        "optimistic overhead: {} explorations for {} reached vertices \
         ({} duplicate pops detected)",
        result.stats.totals.vertices_explored,
        result.reached(),
        result.stats.totals.duplicate_explorations,
    );

    // Validate against the serial reference.
    let serial = serial_bfs(&graph, src);
    obfs::core::validate::check_levels(&result, &serial.levels).expect("levels must match");
    obfs::core::validate::check_self_consistent(&graph, src, &result)
        .expect("BFS tree must be valid");
    println!("validated: identical levels to serial BFS, parents form a valid BFS tree");

    // Level histogram — the frontier profile that drives load balancing.
    let mut hist = vec![0usize; result.depth() as usize + 1];
    for &l in &result.levels {
        if l != obfs::core::UNVISITED {
            hist[l as usize] += 1;
        }
    }
    println!("\nfrontier sizes per level:");
    for (d, n) in hist.iter().enumerate() {
        println!("  level {d:>2}: {n:>8}  {}", "#".repeat((n / 2000).min(60)));
    }
}
