//! Every generator and loader builds exactly the graph it built before
//! the parallel builder: FNV-1a digests of `offsets_raw` and
//! `targets_raw` are pinned for one graph of each kind, including the
//! repo benchmark's deep-sparse graph and the RMAT scale its serve
//! workloads use. A changed digest means a committed artifact, golden or
//! benchmark workload now runs on a different graph.

use obfs_graph::gen::suite::{PaperGraph, ALL};
use obfs_graph::gen::{self, RmatParams};
use obfs_graph::io::{read_edge_list, read_matrix_market};
use obfs_graph::CsrGraph;
use obfs_util::Xoshiro256StarStar;

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `(n, m, digest of offsets, digest of targets)`.
type Digest = (usize, u64, u64, u64);

fn digest(g: &CsrGraph) -> Digest {
    let offsets = fnv1a(g.offsets_raw().iter().flat_map(|o| o.to_le_bytes()));
    let targets = fnv1a(g.targets_raw().iter().flat_map(|t| t.to_le_bytes()));
    (g.num_vertices(), g.num_edges(), offsets, targets)
}

/// A text edge list with duplicates and self-loops (kept by the reader).
fn edge_list_text() -> String {
    let mut rng = Xoshiro256StarStar::new(11);
    let mut s = String::from("# pinned edge list\n");
    for _ in 0..3000 {
        let u = rng.below(500);
        let v = if rng.chance(0.05) { u } else { rng.below(500) };
        s.push_str(&format!("{u} {v}\n"));
    }
    s
}

/// A symmetric Matrix Market body with duplicates and diagonal entries
/// (mirrored, merged and dropped by the reader).
fn matrix_market_text() -> String {
    let mut rng = Xoshiro256StarStar::new(12);
    let entries: Vec<(u64, u64)> = (0..2500)
        .map(|_| {
            let i = 1 + rng.below(400);
            (i, 1 + rng.below(i))
        })
        .collect();
    let mut s =
        format!("%%MatrixMarket matrix coordinate pattern symmetric\n400 400 {}\n", entries.len());
    for (i, j) in entries {
        s.push_str(&format!("{i} {j}\n"));
    }
    s
}

fn graphs() -> Vec<(String, CsrGraph)> {
    let mut out = vec![
        ("rmat16".to_string(), gen::rmat(16, 16, RmatParams::default(), 1)),
        (
            "rmat12-noise-off".to_string(),
            gen::rmat(12, 8, RmatParams { a: 0.57, b: 0.19, c: 0.19, noise: 0.0 }, 2),
        ),
    ];
    for g in ALL {
        out.push((format!("{}/256", g.name()), g.generate(256, 1)));
    }
    out.push(("freescale/4".to_string(), PaperGraph::Freescale.generate(4, 1)));
    out.push(("er".to_string(), gen::erdos_renyi(5000, 40_000, 3)));
    out.push(("ba".to_string(), gen::barabasi_albert(3000, 4, 4)));
    out.push(("ws".to_string(), gen::watts_strogatz(3000, 6, 0.1, 5)));
    out.push(("grid".to_string(), gen::grid2d(60, 70)));
    out.push(("torus".to_string(), gen::torus3d(12, 13, 14)));
    out.push(("star".to_string(), gen::star(1000)));
    let weights = gen::power_law_degrees(4000, 2.3, 2, 200, 6);
    out.push(("chung-lu".to_string(), gen::chung_lu(4000, &weights, 6)));
    let t = gen::rmat(14, 8, RmatParams::default(), 7).transpose();
    out.push(("rmat14-transpose-sym".to_string(), t.symmetrized()));
    out.push(("rmat14-transpose".to_string(), t));
    out.push((
        "edge-list".to_string(),
        read_edge_list(edge_list_text().as_bytes(), None).expect("edge list parses"),
    ));
    out.push((
        "matrix-market".to_string(),
        read_matrix_market(matrix_market_text().as_bytes()).expect("matrix market parses"),
    ));
    out
}

/// Digests of the graphs above as the serial pair-sort builder made them.
const PINNED: [(&str, Digest); 21] = [
    ("rmat16", (65536, 1040418, 0xd3bdb2a5560fefb5, 0x23f90ab9f030433e)),
    ("rmat12-noise-off", (4096, 28742, 0xeeb77b57113dae41, 0xfdf4b53d6c9da3b0)),
    ("cage15/256", (19683, 372032, 0x72cb3a5eccf041f8, 0xb35b5594db9b1897)),
    ("cage14/256", (5832, 102396, 0xe76031816e44af9e, 0x9abdb075f9a63507)),
    ("freescale/256", (13281, 79852, 0xe1082a5e10c0ad92, 0xf9364a991dc1bc7f)),
    ("wikipedia/256", (14062, 139672, 0x55dd3b1fefebab8c, 0x05059c2a041a70b2)),
    ("kkt-power/256", (7812, 35942, 0xcbf5edcfe6ca83de, 0xc2690d98d49cb643)),
    ("rmat-100M/256", (32768, 324724, 0x9d43469d0b20a497, 0x76b830f1a3db15d1)),
    ("rmat-1B/256", (32768, 3156204, 0xf3e8198903ca8f78, 0x7e5cb8ecc377680f)),
    ("freescale/4", (850000, 5110624, 0xa60225d4e7014cb9, 0x6c03e865810991ca)),
    ("er", (5000, 39953, 0x8e7cbc98eb27dd4c, 0xc69d564b81a44eeb)),
    ("ba", (3000, 23980, 0x995799c16a72303e, 0x5f803e6858a25305)),
    ("ws", (3000, 35988, 0xa3c5e7affc6c2e61, 0xa6da7dd23626e56f)),
    ("grid", (4200, 16540, 0xbbeabdcf88173d0f, 0x8dc805897a531429)),
    ("torus", (2184, 13104, 0x388a483056ecbcab, 0x82ab83898c27dc75)),
    ("star", (1000, 1998, 0x764bee2f33e4eef9, 0x981614261f1225f5)),
    ("chung-lu", (4000, 12565, 0xc020200f5cbad6f3, 0xeb63573422d144a3)),
    ("rmat14-transpose-sym", (16384, 257848, 0x0c7be0d8032d78a9, 0x91d7b02895a5741b)),
    ("rmat14-transpose", (16384, 129499, 0xa6c8e9f13c2b7270, 0xb87058218004af68)),
    ("edge-list", (500, 3000, 0x5523d6a5db2e3039, 0x99262ca6fcf206e1)),
    ("matrix-market", (400, 4784, 0x061e191861dc4c59, 0x1a730e24f10d4bdb)),
];

#[test]
fn every_generator_and_loader_builds_the_pinned_graph() {
    let got: Vec<(String, Digest)> =
        graphs().iter().map(|(name, g)| (name.clone(), digest(g))).collect();
    assert_eq!(got.len(), PINNED.len());
    for ((name, d), (pname, pd)) in got.iter().zip(PINNED) {
        assert_eq!(name, pname);
        assert_eq!(
            *d, pd,
            "{name} no longer builds the pinned graph: got ({}, {}, {:#018x}, {:#018x})",
            d.0, d.1, d.2, d.3
        );
    }
}
