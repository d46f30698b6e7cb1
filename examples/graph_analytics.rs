//! One pass through the application layer: everything the paper's §I
//! says BFS is a building block for, executed on one scale-free graph —
//! components, shortest paths, bipartiteness, clustering, betweenness
//! centrality, and a max-flow instance derived from the graph.
//!
//! ```sh
//! cargo run --release --example graph_analytics
//! ```

use obfs::apps;
use obfs::prelude::*;

fn main() {
    let graph = gen::suite::scale_free_like(50_000, 10.0, 2.3, 77);
    // Symmetrize for the undirected analyses.
    let mut b = GraphBuilder::new(graph.num_vertices()).symmetrize(true);
    b.extend(graph.edges());
    let graph = b.build();
    println!(
        "graph: {} vertices, {} edges (symmetrized scale-free)",
        graph.num_vertices(),
        graph.num_edges()
    );
    let opts = BfsOptions { threads: 8, ..BfsOptions::default() };

    // --- connected components ---
    let c = apps::connected_components(&graph, Algorithm::Bfscl, &opts);
    let mut sizes = c.sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "\ncomponents: {} total; giant = {} vertices ({:.1}%)",
        c.count,
        c.giant_size(),
        100.0 * c.giant_size() as f64 / graph.num_vertices() as f64
    );

    // --- shortest path between two random giant-component members ---
    let members: Vec<u32> =
        (0..graph.num_vertices() as u32).filter(|&v| c.label[v as usize] == 0).collect();
    let (a, z) = (members[0], members[members.len() - 1]);
    match apps::shortest_path(&graph, a, z, Algorithm::Bfswsl, &opts) {
        Some(p) => println!("shortest path {a} -> {z}: {} hops", p.hops()),
        None => println!("{a} and {z} are disconnected (unexpected)"),
    }

    // --- bipartiteness ---
    match apps::bipartition(&graph, Algorithm::Bfscl, &opts) {
        apps::Bipartition::Bipartite { .. } => {
            println!("bipartite: yes (no odd cycles)")
        }
        apps::Bipartition::OddCycle { u, v } => {
            println!("bipartite: no — odd cycle through edge ({u}, {v})")
        }
    }

    // --- BFS-ball clustering (the ref. [8] primitive) ---
    let clustering = apps::bfs_ball_clustering(&graph, 2);
    let csizes = clustering.sizes();
    println!(
        "clustering (radius 2): {} clusters, largest {}, mean size {:.1}",
        clustering.count(),
        csizes.iter().max().unwrap(),
        graph.num_vertices() as f64 / clustering.count() as f64
    );

    // --- sampled betweenness centrality ---
    let bc = apps::betweenness_centrality(&graph, 24, 3);
    let mut ranked: Vec<(u32, f64)> = bc.iter().enumerate().map(|(v, &x)| (v as u32, x)).collect();
    ranked.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap());
    println!("\ntop-5 betweenness (24 pivots):");
    for &(v, score) in ranked.iter().take(5) {
        println!("  v{v:<7} bc≈{score:>12.0}  degree {}", graph.degree(v));
    }

    // --- max flow between the two biggest hubs ---
    let (hub1, _) = graph.max_degree();
    let hub1 = {
        let _ = hub1;
        ranked[0].0
    };
    let hub2 = ranked[1].0;
    let mut net = apps::FlowNetwork::new(graph.num_vertices());
    for (u, v) in graph.edges() {
        net.add_edge(u, v, 1);
    }
    let mut net2 = net.clone();
    let flow = apps::max_flow(&mut net2, hub1, hub2);
    println!(
        "\nmax flow (unit capacities) between hubs v{hub1} and v{hub2}: {flow} \
         (= number of edge-disjoint paths)"
    );
    assert!(flow >= 1, "hubs in the giant component must be connected");
}
