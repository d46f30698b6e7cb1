//! Scale-free BFS variants (BFSWS / BFSWSL).
//!
//! The implementation lives in [`crate::worksteal::WorkStealing`] with
//! `scale_free: true` — phase 1 (low-degree exploration with stealing)
//! shares all of its machinery with BFSW/BFSWL, and keeping the two-phase
//! logic in one strategy avoids duplicating the steal protocol. This
//! module re-exports the strategy and documents the hub handling:
//!
//! * Phase 1 diverts vertices with degree above
//!   [`crate::BfsOptions::hub_threshold`] into per-thread hub lists
//!   instead of exploring them.
//! * At the phase barrier the leader flattens the hub lists (with degree
//!   prefix sums).
//! * Phase 2 explores each hub's adjacency list split into `p` chunks,
//!   one per thread — or, with [`crate::BfsOptions::phase2_steal`],
//!   via optimistic edge-range dispatch (the variant the paper found
//!   usually slower; kept for the ablation benches).

pub use crate::worksteal::WorkStealing;

#[cfg(test)]
mod tests {
    use crate::options::{Algorithm, BfsOptions};
    use crate::run_bfs;
    use crate::serial::serial_bfs;
    use obfs_graph::gen;

    /// The hub threshold boundary: degree == threshold stays in phase 1,
    /// degree > threshold goes to phase 2.
    #[test]
    fn threshold_boundary_exact() {
        // complete(9): every vertex has degree 8.
        let g = gen::complete(9);
        let ser = serial_bfs(&g, 0);
        for thr in [7, 8, 9] {
            let o = BfsOptions { threads: 3, hub_threshold: Some(thr), ..Default::default() };
            let r = run_bfs(Algorithm::Bfswsl, &g, 0, &o);
            assert_eq!(r.levels, ser.levels, "threshold {thr}");
        }
    }

    /// All vertices hubs: the entire traversal flows through phase 2.
    #[test]
    fn everything_is_a_hub() {
        let g = gen::erdos_renyi(300, 3000, 2);
        let ser = serial_bfs(&g, 0);
        let o = BfsOptions { threads: 4, hub_threshold: Some(0), ..Default::default() };
        for algo in [Algorithm::Bfsws, Algorithm::Bfswsl] {
            let r = run_bfs(algo, &g, 0, &o);
            assert_eq!(r.levels, ser.levels, "{algo}");
        }
    }

    /// No vertex is a hub: scale-free variants degenerate to plain
    /// work-stealing.
    #[test]
    fn nothing_is_a_hub() {
        let g = gen::erdos_renyi(300, 1500, 4);
        let ser = serial_bfs(&g, 7);
        let o = BfsOptions { threads: 4, hub_threshold: Some(usize::MAX), ..Default::default() };
        let r = run_bfs(Algorithm::Bfswsl, &g, 7, &o);
        assert_eq!(r.levels, ser.levels);
    }

    /// Chains of hubs: hub neighbours that are themselves hubs must be
    /// re-classified at the next level, not explored inline.
    #[test]
    fn hub_chains() {
        // Two stars joined at their hubs.
        let mut b = obfs_graph::GraphBuilder::new(202).symmetrize(true);
        for leaf in 2..102u32 {
            b.add_edge(0, leaf);
        }
        for leaf in 102..202u32 {
            b.add_edge(1, leaf);
        }
        b.add_edge(0, 1);
        let g = b.build();
        let ser = serial_bfs(&g, 5); // a leaf of hub 0
        let o = BfsOptions { threads: 4, hub_threshold: Some(10), ..Default::default() };
        for algo in [Algorithm::Bfsws, Algorithm::Bfswsl] {
            let r = run_bfs(algo, &g, 5, &o);
            assert_eq!(r.levels, ser.levels, "{algo}");
        }
    }
}
