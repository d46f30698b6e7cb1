//! Integration of the application layer (`obfs-apps`) and all baselines
//! on the paper-graph stand-ins: the "downstream user" path through the
//! whole stack.

use obfs::apps;
use obfs::baselines::beamer::beamer_bfs;
use obfs::prelude::*;
use obfs_core::serial::serial_bfs;
use obfs_core::UNVISITED;

#[test]
fn beamer_matches_serial_on_paper_suite() {
    for kind in obfs_graph::gen::suite::ALL {
        let g = kind.generate(2048, 3);
        let t = g.transpose();
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let r = beamer_bfs(&g, &t, src, 4);
        let ser = serial_bfs(&g, src);
        assert_eq!(r.bfs.levels, ser.levels, "beamer wrong on {}", kind.name());
        assert_eq!(r.directions.len() as u32, r.bfs.stats.levels, "{}", kind.name());
    }
}

#[test]
fn shortest_paths_agree_across_algorithms() {
    let g = gen::suite::cage_like(8000, 10.0, 5);
    let opts = BfsOptions { threads: 4, ..BfsOptions::default() };
    let dst = (g.num_vertices() - 1) as u32;
    let lengths: Vec<Option<usize>> = [Algorithm::Serial, Algorithm::Bfscl, Algorithm::Bfswsl]
        .into_iter()
        .map(|a| apps::shortest_path(&g, 0, dst, a, &opts).map(|p| p.hops()))
        .collect();
    assert_eq!(lengths[0], lengths[1]);
    assert_eq!(lengths[0], lengths[2]);
    if let Some(h) = lengths[0] {
        assert!(h > 0);
    }
}

#[test]
fn components_on_multi_island_suite_graph() {
    // Two disjoint wikipedia-like blobs.
    let blob = gen::suite::scale_free_like(3000, 8.0, 2.3, 4);
    let n = blob.num_vertices();
    let mut b = GraphBuilder::new(2 * n);
    b.extend(blob.edges());
    b.extend(blob.edges().map(|(u, v)| (u + n as u32, v + n as u32)));
    let g = b.build();
    let opts = BfsOptions { threads: 4, ..BfsOptions::default() };
    let c = apps::connected_components(&g, Algorithm::Bfswl, &opts);
    // Scale-free blobs may have tiny satellite pieces, but no component
    // may span the two halves. One row suffices: labels are
    // per-component constants.
    for w in n..2 * n {
        if c.same_component(0, w as u32) {
            panic!("component spans the disjoint halves (0, {w})");
        }
    }
    assert!(c.count >= 2);
}

#[test]
fn bipartite_grid_vs_odd_wikipedia() {
    let grid = gen::grid2d(40, 41);
    let opts = BfsOptions { threads: 3, ..BfsOptions::default() };
    assert!(matches!(
        apps::bipartition(&grid, Algorithm::Bfscl, &opts),
        apps::Bipartition::Bipartite { .. }
    ));
    // Scale-free graphs virtually always contain triangles.
    let wiki = gen::suite::scale_free_like(4000, 10.0, 2.3, 9);
    let mut sym = GraphBuilder::new(wiki.num_vertices()).symmetrize(true);
    sym.extend(wiki.edges());
    let wiki = sym.build();
    assert!(matches!(
        apps::bipartition(&wiki, Algorithm::Bfscl, &opts),
        apps::Bipartition::OddCycle { .. }
    ));
}

#[test]
fn clustering_covers_suite_graph() {
    let g = gen::suite::kkt_like(5000, 4.0, 2);
    let c = apps::bfs_ball_clustering(&g, 3);
    assert_eq!(c.cluster.len(), g.num_vertices());
    assert_eq!(c.sizes().iter().sum::<usize>(), g.num_vertices());
    assert!(c.count() >= 1);
}

#[test]
fn betweenness_hub_detection_on_scale_free() {
    let g = gen::barabasi_albert(2000, 3, 11);
    let bc = apps::betweenness_centrality(&g, 32, 5);
    // The highest-BC vertex must be among the highest-degree vertices.
    let argmax_bc =
        bc.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0 as u32;
    let mut by_degree: Vec<u32> = (0..2000).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    assert!(
        by_degree[..20].contains(&argmax_bc),
        "top-BC vertex {argmax_bc} (deg {}) not among top-20 degrees",
        g.degree(argmax_bc)
    );
}

#[test]
fn maxflow_on_layered_random_network() {
    // Source -> layer A -> layer B -> sink with unit capacities: max flow
    // is bounded by the min edge cut; verify against a hand-computable
    // topology.
    let mut net = apps::FlowNetwork::new(10);
    let (s, t) = (0u32, 9u32);
    for a in 1..=4u32 {
        net.add_edge(s, a, 1);
    }
    for a in 1..=4u32 {
        for b in 5..=8u32 {
            net.add_edge(a, b, 1);
        }
    }
    for b in 5..=8u32 {
        net.add_edge(b, t, 1);
    }
    assert_eq!(apps::max_flow(&mut net, s, t), 4);
}

#[test]
fn multi_source_distance_field_on_mesh() {
    // Multi-source BFS (virtual super-source) on a torus: the distance
    // field from k seeds equals the pointwise min of k single-source
    // fields.
    let g = gen::torus3d(8, 8, 8);
    let opts = BfsOptions { threads: 4, ..BfsOptions::default() };
    let seeds = [0u32, 100, 400];
    let field = apps::multi_source_distances(&g, &seeds, Algorithm::Bfswsl, &opts);
    for (v, &d) in field.iter().enumerate() {
        let expect = seeds.iter().map(|&s| serial_bfs(&g, s).levels[v]).min().unwrap();
        assert_eq!(d, expect, "vertex {v}");
        assert_ne!(d, UNVISITED, "torus is connected");
    }
}
