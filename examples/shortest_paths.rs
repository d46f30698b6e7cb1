//! BFS as a building block: unweighted shortest paths and connected
//! components on a mesh-like graph (the cage-style workload), using the
//! parallel BFS's parent array to reconstruct actual routes.
//!
//! ```sh
//! cargo run --release --example shortest_paths
//! ```

use obfs::prelude::*;
use obfs_graph::INVALID_VERTEX;

fn main() {
    // A 3-D torus with local chords — the mesh shape of the paper's cage
    // matrices (DNA electrophoresis).
    let graph = gen::suite::cage_like(64_000, 12.0, 5);
    println!("mesh: {} vertices, {} edges", graph.num_vertices(), graph.num_edges());

    let opts = BfsOptions { threads: 8, record_parents: true, ..BfsOptions::default() };

    // --- shortest path between two far-apart vertices ---
    let src: u32 = 0;
    let result = run_bfs(Algorithm::Bfscl, &graph, src, &opts);
    obfs::core::validate::check_self_consistent(&graph, src, &result).expect("valid BFS tree");
    let parents = result.parents.as_ref().unwrap();

    // Pick the deepest reachable vertex as the destination.
    let (dst, dist) = result
        .levels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l != obfs::core::UNVISITED)
        .max_by_key(|(_, &l)| l)
        .map(|(v, &l)| (v as u32, l))
        .unwrap();
    println!("\nshortest path {src} -> {dst}: {dist} hops");

    // Walk the parent chain back to the source.
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parents[cur as usize];
        assert_ne!(cur, INVALID_VERTEX, "broken parent chain");
        path.push(cur);
    }
    path.reverse();
    assert_eq!(path.len() as u32, dist + 1);
    // Verify every hop is a real edge.
    for w in path.windows(2) {
        assert!(
            graph.neighbors(w[0]).contains(&w[1]),
            "path hop {} -> {} is not an edge",
            w[0],
            w[1]
        );
    }
    let shown = path.len().min(12);
    println!(
        "route (first {shown} of {} vertices): {:?}{}",
        path.len(),
        &path[..shown],
        if path.len() > shown { " ..." } else { "" }
    );

    // --- connected components via repeated BFS ---
    println!("\nconnected components (BFS sweep):");
    let n = graph.num_vertices();
    let mut component = vec![u32::MAX; n];
    let mut next_component = 0u32;
    let mut sizes = Vec::new();
    for v in 0..n as u32 {
        if component[v as usize] != u32::MAX {
            continue;
        }
        let r = run_bfs(Algorithm::Bfswl, &graph, v, &opts);
        let mut size = 0usize;
        for (u, &l) in r.levels.iter().enumerate() {
            if l != obfs::core::UNVISITED && component[u] == u32::MAX {
                component[u] = next_component;
                size += 1;
            }
        }
        sizes.push(size);
        next_component += 1;
        if next_component > 10 {
            println!("  (stopping after 10 components)");
            break;
        }
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!("  {} component(s); sizes: {:?}", sizes.len(), &sizes[..sizes.len().min(5)]);
    assert_eq!(sizes.iter().sum::<usize>(), component.iter().filter(|&&c| c != u32::MAX).count());
}
