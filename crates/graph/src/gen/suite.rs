//! Stand-ins for the paper's evaluation graphs (Table IV).
//!
//! The original evaluation uses five Florida-Sparse-Matrix-Collection
//! graphs plus two Graph500 RMAT graphs. The matrices are not shipped
//! here, so each one is replaced by a deterministic synthetic generator
//! matched on the properties the BFS algorithms are sensitive to:
//! density (m/n), degree distribution (regular vs. heavy-tailed), and
//! BFS-diameter class (units vs. tens vs. hundreds of levels).
//!
//! Every stand-in takes a `divisor` that shrinks the vertex count
//! (`n = paper_n / divisor`) so the whole Table V grid fits a laptop-class
//! budget; densities are preserved under scaling. The original matrices
//! can still be used directly through [`crate::io::matrix_market`].

use crate::gen::{chung_lu, erdos_renyi, power_law_degrees, rmat, torus3d, RmatParams};
use crate::{CsrGraph, GraphBuilder, VertexId};
use obfs_util::Xoshiro256StarStar;

/// The seven evaluation graphs of the paper, in Table IV order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperGraph {
    /// cage15: DNA electrophoresis; near-regular mesh, n=5.2M, m=99.2M,
    /// BFS diameter 53.
    Cage15,
    /// cage14: smaller electrophoresis mesh, n=1.5M, m=27.1M, diameter 42.
    /// (Table IV prints 15.1M vertices; the actual cage14 matrix has 1.5M —
    /// we follow the real matrix so density stays mesh-like.)
    Cage14,
    /// freescale: circuit, extremely sparse, n=3.4M, m=18.9M(sym),
    /// diameter 141.
    Freescale,
    /// wikipedia-2007: scale-free web graph, n=3.6M, m=45M, diameter 14.
    Wikipedia,
    /// kkt_power: optimization (KKT) matrix, n=2M, m=8.1M, diameter 11.
    KktPower,
    /// RMAT, 10M vertices / 100M edges, diameter 12.
    Rmat100M,
    /// RMAT, 10M vertices / 1B edges (dense), diameter 5.
    Rmat1B,
}

/// All seven graphs in the order of the paper's tables.
pub const ALL: [PaperGraph; 7] = [
    PaperGraph::Cage15,
    PaperGraph::Cage14,
    PaperGraph::Freescale,
    PaperGraph::Wikipedia,
    PaperGraph::KktPower,
    PaperGraph::Rmat100M,
    PaperGraph::Rmat1B,
];

impl PaperGraph {
    /// Display name used in the regenerated tables.
    pub fn name(&self) -> &'static str {
        match self {
            PaperGraph::Cage15 => "cage15",
            PaperGraph::Cage14 => "cage14",
            PaperGraph::Freescale => "freescale",
            PaperGraph::Wikipedia => "wikipedia",
            PaperGraph::KktPower => "kkt-power",
            PaperGraph::Rmat100M => "rmat-100M",
            PaperGraph::Rmat1B => "rmat-1B",
        }
    }

    /// Parse a display name back into the enum.
    pub fn from_name(s: &str) -> Option<Self> {
        ALL.into_iter().find(|g| g.name() == s)
    }

    /// `(n, m, bfs_diameter)` as reported in the paper's Table IV.
    pub fn paper_properties(&self) -> (u64, u64, u32) {
        match self {
            PaperGraph::Cage15 => (5_200_000, 99_200_000, 53),
            PaperGraph::Cage14 => (1_500_000, 27_100_000, 42),
            PaperGraph::Freescale => (3_400_000, 18_900_000, 141),
            PaperGraph::Wikipedia => (3_600_000, 45_000_000, 14),
            PaperGraph::KktPower => (2_000_000, 8_100_000, 11),
            PaperGraph::Rmat100M => (10_000_000, 100_000_000, 12),
            PaperGraph::Rmat1B => (10_000_000, 1_000_000_000, 5),
        }
    }

    /// Whether the paper treats this graph as scale-free (hub-dominated).
    pub fn is_scale_free(&self) -> bool {
        matches!(self, PaperGraph::Wikipedia | PaperGraph::Rmat100M | PaperGraph::Rmat1B)
    }

    /// Generate the stand-in at `n = paper_n / divisor` (density
    /// preserved). `divisor` must be >= 1.
    pub fn generate(&self, divisor: u64, seed: u64) -> CsrGraph {
        assert!(divisor >= 1);
        let (paper_n, paper_m, _) = self.paper_properties();
        let n = (paper_n / divisor).max(64) as usize;
        let density = paper_m as f64 / paper_n as f64;
        match self {
            PaperGraph::Cage15 | PaperGraph::Cage14 => cage_like(n, density, seed),
            PaperGraph::Freescale => circuit_like(n, density, seed),
            PaperGraph::Wikipedia => scale_free_like(n, density, 2.3, seed),
            PaperGraph::KktPower => kkt_like(n, density, seed),
            PaperGraph::Rmat100M => rmat_like(n, 10, seed),
            PaperGraph::Rmat1B => rmat_like(n, 100, seed),
        }
    }
}

/// Mesh-like stand-in for the cage matrices: a 3-D torus (6-regular,
/// mesh diameter) thickened with short-range random chords until the
/// target density is met. Degrees stay narrow; diameter stays in the
/// "tens of levels" class.
pub fn cage_like(n: usize, density: f64, seed: u64) -> CsrGraph {
    let dim = (n as f64).cbrt().round().max(2.0) as usize;
    let torus = torus3d(dim, dim, dim);
    let actual_n = torus.num_vertices();
    let mut b = GraphBuilder::new(actual_n).symmetrize(true);
    for (u, v) in torus.edges() {
        if u < v {
            b.add_edge(u, v); // symmetrize restores both directions
        }
    }
    // Top up with window chords: local enough to keep the mesh character,
    // long enough to pull the BFS diameter toward the paper's class.
    let window = (actual_n / 50).max(8);
    let have = torus.num_edges() as f64;
    let want = density * actual_n as f64;
    let extra = (((want - have) / 2.0).max(0.0)) as usize;
    let mut rng = Xoshiro256StarStar::new(seed);
    for _ in 0..extra {
        let u = rng.below_usize(actual_n);
        let delta = 1 + rng.below_usize(window);
        let v = (u + delta) % actual_n;
        b.add_edge(u as VertexId, v as VertexId);
    }
    b.build()
}

/// Circuit stand-in: a Watts–Strogatz-style ring lattice with a sparse
/// sprinkling of long "via" shortcuts — very sparse, narrow degrees, BFS
/// diameter in the hundreds of levels.
pub fn circuit_like(n: usize, density: f64, seed: u64) -> CsrGraph {
    let k = ((density / 2.0).round().max(1.0)) as usize; // ring arcs per side
    let lattice = crate::gen::watts_strogatz(n.max(3), k.min((n.max(3) - 1) / 2).max(1), 0.0, seed);
    let n = lattice.num_vertices();
    let mut b = GraphBuilder::new(n).symmetrize(true);
    b.extend(lattice.edges().filter(|&(u, v)| u < v)); // symmetrize restores both
                                                       // One shortcut per ~`spacing` ring vertices bounds the diameter at
                                                       // roughly `spacing` plus the shortcut-graph diameter: the hundreds-of-
                                                       // levels class, independent of n.
    let spacing = 160.min(n.max(2) - 1).max(1);
    let shortcuts = n / spacing;
    let mut rng = Xoshiro256StarStar::new(seed);
    for _ in 0..shortcuts {
        let u = rng.below_usize(n);
        let v = rng.below_usize(n);
        if u != v {
            b.add_edge(u as VertexId, v as VertexId);
        }
    }
    b.build()
}

/// Scale-free stand-in (wikipedia-like): Chung-Lu with a power-law weight
/// sequence of exponent `gamma`, rescaled so the directed edge count is
/// about `density * n`.
pub fn scale_free_like(n: usize, density: f64, gamma: f64, seed: u64) -> CsrGraph {
    // chung_lu emits total_weight / 2 edges, so aim the weight mean at
    // 2 * density. dmin follows from the truncated-Pareto mean formula.
    let target_mean = 2.0 * density;
    let dmin = ((target_mean * (gamma - 2.0) / (gamma - 1.0)).round().max(1.0)) as usize;
    let dmax = ((n as f64).sqrt() * 8.0) as usize;
    let weights = power_law_degrees(n, gamma, dmin, dmax.max(dmin + 1), seed ^ 0x5eed);
    chung_lu(n, &weights, seed)
}

/// kkt_power stand-in: sparse, mildly irregular, low diameter. An
/// Erdős–Rényi core at the target density with a small heavy-tailed
/// overlay (the KKT matrix has a block structure with a few dense rows).
pub fn kkt_like(n: usize, density: f64, seed: u64) -> CsrGraph {
    let core = erdos_renyi(n, (density * n as f64 * 0.85) as usize, seed);
    let mut b = GraphBuilder::new(n);
    b.extend(core.edges());
    let mut rng = Xoshiro256StarStar::new(seed ^ _kkt_seed_mix());
    // Overlay: ~0.1% of vertices act as mildly dense rows.
    let hubs = (n / 1000).max(1);
    let per_hub = ((density * n as f64 * 0.15) as usize / hubs).max(1);
    for _ in 0..hubs {
        let h = rng.below_usize(n) as VertexId;
        for _ in 0..per_hub {
            let v = rng.below_usize(n) as VertexId;
            if v != h {
                b.add_edge(h, v);
                b.add_edge(v, h);
            }
        }
    }
    b.build()
}

const fn _kkt_seed_mix() -> u64 {
    0x6b6b_7470 // "kktp"
}

/// RMAT stand-in at `n` vertices (rounded down to a power of two) and
/// `edge_factor * n` generated edges.
pub fn rmat_like(n: usize, edge_factor: usize, seed: u64) -> CsrGraph {
    let scale = (usize::BITS - 1 - n.leading_zeros()).max(6);
    rmat(scale, edge_factor, RmatParams::default(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIV: u64 = 512; // tiny graphs for unit tests

    #[test]
    fn names_roundtrip() {
        for g in ALL {
            assert_eq!(PaperGraph::from_name(g.name()), Some(g));
        }
        assert_eq!(PaperGraph::from_name("nope"), None);
    }

    #[test]
    fn all_standins_generate_and_are_nonempty() {
        for g in ALL {
            let graph = g.generate(DIV, 1);
            assert!(graph.num_vertices() >= 64, "{} too small", g.name());
            assert!(graph.num_edges() > 0, "{} has no edges", g.name());
        }
    }

    #[test]
    fn densities_track_paper() {
        for g in [PaperGraph::Freescale, PaperGraph::Wikipedia, PaperGraph::KktPower] {
            let (pn, pm, _) = g.paper_properties();
            let paper_density = pm as f64 / pn as f64;
            let graph = g.generate(64, 2);
            let density = graph.num_edges() as f64 / graph.num_vertices() as f64;
            assert!(
                density > 0.4 * paper_density && density < 2.5 * paper_density,
                "{}: density {density:.1} vs paper {paper_density:.1}",
                g.name()
            );
        }
    }

    #[test]
    fn wikipedia_standin_has_hubs_and_cage_does_not() {
        let wiki = PaperGraph::Wikipedia.generate(DIV, 3);
        let cage = PaperGraph::Cage14.generate(DIV, 3);
        let hubness = |g: &CsrGraph| {
            let mean = g.num_edges() as f64 / g.num_vertices() as f64;
            g.max_degree().0 as f64 / mean
        };
        assert!(hubness(&wiki) > 8.0, "wikipedia stand-in lacks hubs: {}", hubness(&wiki));
        assert!(hubness(&cage) < 4.0, "cage stand-in has hubs: {}", hubness(&cage));
    }

    #[test]
    fn deterministic_generation() {
        for g in [PaperGraph::Wikipedia, PaperGraph::Rmat100M] {
            assert_eq!(g.generate(DIV, 9), g.generate(DIV, 9));
        }
    }

    #[test]
    fn scale_free_flags() {
        assert!(PaperGraph::Wikipedia.is_scale_free());
        assert!(!PaperGraph::Cage15.is_scale_free());
    }
}
