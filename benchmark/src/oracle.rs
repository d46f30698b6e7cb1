//! The serial reference: a frozen copy of the textbook FIFO BFS (the
//! program's `sbfs` at the time the benchmark was written). It is both
//! the oracle every answer is checked against and the speed yardstick
//! every timed metric is divided by. Being the benchmark's own code, no
//! change to the program can move either.
//!
//! Per source the oracle keeps only a 64-bit digest of the level array
//! and the traversed component's input-edge count, so checking an answer
//! costs no n-sized memory per source.

use obfs_graph::{CsrGraph, VertexId};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Level of a vertex the traversal did not reach.
const UNVISITED: u32 = u32::MAX;

/// Serial FIFO BFS from `src`: the level array and the edges scanned
/// (the input edges of the traversed component).
pub fn serial_bfs(graph: &CsrGraph, src: VertexId) -> (Vec<u32>, u64) {
    let mut levels = vec![UNVISITED; graph.num_vertices()];
    let mut queue = VecDeque::with_capacity(1024);
    let mut edges = 0u64;
    levels[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let next = levels[u as usize] + 1;
        let neigh = graph.neighbors(u);
        edges += neigh.len() as u64;
        for &w in neigh {
            if levels[w as usize] == UNVISITED {
                levels[w as usize] = next;
                queue.push_back(w);
            }
        }
    }
    (levels, edges)
}

/// 64-bit digest of a level array. Four independent lanes keep the loop
/// free of a serial dependency chain, so hashing a 1M-vertex answer
/// costs well under a millisecond.
pub fn digest(levels: &[u32]) -> u64 {
    const K: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0x85EB_CA77_C2B2_AE63,
    ];
    let mut lanes = K;
    let mut chunks = levels.chunks_exact(8);
    for c in &mut chunks {
        for (lane, (pair, k)) in lanes.iter_mut().zip(c.chunks_exact(2).zip(K)) {
            let w = u64::from(pair[0]) | u64::from(pair[1]) << 32;
            *lane = (*lane ^ w).wrapping_mul(k).rotate_left(29);
        }
    }
    let mut h = levels.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K[0]).rotate_left(31);
    }
    for &l in chunks.remainder() {
        h = (h ^ u64::from(l)).wrapping_mul(K[1]).rotate_left(27);
    }
    h ^ h >> 33
}

/// What the oracle keeps per source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// [`digest`] of the serial level array.
    pub digest: u64,
    /// Input edges of the traversed component: the Graph500 TEPS
    /// numerator, the same for every algorithm.
    pub input_edges: u64,
}

/// One timed reference run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefRun {
    /// Input edges traversed.
    pub input_edges: u64,
    /// Wall time of the serial run.
    pub secs: f64,
}

/// Serial answers for the sources seen so far, plus every timed run.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    by_source: BTreeMap<VertexId, Expected>,
    runs: Vec<RefRun>,
}

impl Oracle {
    /// Time one serial run from `src`, learning its answer on first sight.
    pub fn measure(&mut self, graph: &CsrGraph, src: VertexId) -> RefRun {
        let t = Instant::now();
        let (levels, input_edges) = serial_bfs(graph, src);
        let run = RefRun {
            input_edges,
            secs: t.elapsed().as_secs_f64(),
        };
        self.by_source.entry(src).or_insert_with(|| Expected {
            digest: digest(&levels),
            input_edges,
        });
        self.runs.push(run);
        run
    }

    /// Learn every source in `sources` not seen yet.
    pub fn cover(&mut self, graph: &CsrGraph, sources: &[VertexId]) {
        for &s in sources {
            if !self.by_source.contains_key(&s) {
                self.measure(graph, s);
            }
        }
    }

    /// The expected answer for `src` (a source the oracle has seen).
    pub fn expected(&self, src: VertexId) -> Expected {
        *self
            .by_source
            .get(&src)
            .expect("query source outside the oracle's source set")
    }

    /// Whether an answer with digest `d` is the serial answer for `src`.
    pub fn check(&self, src: VertexId, d: u64) -> bool {
        self.expected(src).digest == d
    }

    /// Harmonic-mean Graph500 TEPS of every serial run timed so far
    /// (the `sbfs` yardstick).
    pub fn serial_teps(&self) -> f64 {
        let calls: Vec<(u64, f64)> = self.runs.iter().map(|r| (r.input_edges, r.secs)).collect();
        crate::stats::harmonic_rate(&calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_graph::gen;

    #[test]
    fn digest_separates_nearby_answers() {
        let a: Vec<u32> = (0..1001).map(|i| i % 13).collect();
        let mut b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        for i in [0usize, 7, 8, 500, 1000] {
            b[i] ^= 1;
            assert_ne!(digest(&a), digest(&b), "flip at {i} not seen");
            b[i] ^= 1;
        }
        assert_ne!(
            digest(&a[..1000]),
            digest(&a),
            "length is part of the digest"
        );
        assert_ne!(
            digest(&[1, 0]),
            digest(&[0, 1]),
            "order is part of the digest"
        );
    }

    #[test]
    fn reference_matches_the_programs_serial_bfs() {
        let g = gen::erdos_renyi(400, 1500, 3);
        for src in [0, 17, 399] {
            let (levels, edges) = serial_bfs(&g, src);
            let program = obfs_core::serial::serial_bfs(&g, src);
            assert_eq!(levels, program.levels);
            assert_eq!(edges, program.stats.totals.edges_scanned);
        }
    }

    #[test]
    fn oracle_learns_once_and_times_every_run() {
        let g = gen::erdos_renyi(300, 1500, 3);
        let mut o = Oracle::default();
        let r = o.measure(&g, 9);
        o.measure(&g, 9);
        o.cover(&g, &[5, 9, 5]);
        let (right, edges) = serial_bfs(&g, 9);
        assert!(o.check(9, digest(&right)));
        assert!(
            !o.check(5, digest(&right)),
            "another source's answer is wrong"
        );
        assert_eq!((o.expected(9).input_edges, r.input_edges), (edges, edges));
        assert_eq!(o.runs.len(), 3, "two timed runs of 9, one of 5");
        assert!(o.serial_teps() > 0.0 && r.secs > 0.0);
    }
}
