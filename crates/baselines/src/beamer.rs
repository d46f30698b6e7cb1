//! Direction-optimizing BFS (Beamer, Asanović & Patterson, SC'12),
//! discussed in the paper's prior-work section (§II, ref. \[5\]).
//!
//! Hybrid of *top-down* (parent → child, classic frontier expansion,
//! atomic CAS claims) and *bottom-up* (child → parent: every unvisited
//! vertex checks whether any in-neighbour is in the current frontier —
//! no claims needed because vertices are statically partitioned). The
//! traversal switches to bottom-up when the frontier's out-edge volume
//! exceeds `1/alpha` of the unexplored edge volume and back to top-down
//! when the frontier shrinks below `n / beta` (Beamer's heuristic with
//! the published constants α=14, β=24).
//!
//! This is the published rule as the baseline's comparison point, and it
//! deliberately differs from the optimistic driver's
//! `obfs_core::HybridPolicy::decide`. That rule adds the growing and
//! shrinking conditions and an `n / beta` edge-volume floor, because on
//! deep graphs the bare α test fires in every shrinking tail level (the
//! unexplored volume collapses toward 0) and each such bottom-up level
//! pays an O(n) scan for a frontier of a few vertices.
//!
//! Like Baseline2 this uses atomic RMW instructions; it is included as
//! the modern direction-optimizing comparison point and as the stress
//! case for dense, low-diameter graphs (where the paper's own algorithms
//! pay the duplicate-exploration tax).

use obfs_core::stats::{RunStats, ThreadStats};
use obfs_core::{BfsResult, UNVISITED};
use obfs_graph::{CsrGraph, VertexId};
use obfs_runtime::LevelPool;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

pub use obfs_core::Direction;

/// Beamer's published switching constants.
pub const ALPHA: u64 = 14;
/// See [`ALPHA`]; β controls the switch back to top-down.
pub const BETA: u64 = 24;

/// Result of a direction-optimizing run: the BFS result plus the
/// per-level direction trace.
#[derive(Debug)]
pub struct BeamerResult {
    /// The traversal result.
    pub bfs: BfsResult,
    /// Direction used at each level.
    pub directions: Vec<Direction>,
}

/// Run direction-optimizing BFS. `transpose` must be the in-edge graph
/// (`graph.transpose()`); pass the graph itself for symmetric graphs.
pub fn beamer_bfs(
    graph: &CsrGraph,
    transpose: &CsrGraph,
    src: VertexId,
    threads: usize,
) -> BeamerResult {
    let pool = LevelPool::new(threads);
    beamer_bfs_on_pool(graph, transpose, src, &pool)
}

/// As [`beamer_bfs`] but reusing a worker pool.
pub fn beamer_bfs_on_pool(
    graph: &CsrGraph,
    transpose: &CsrGraph,
    src: VertexId,
    pool: &LevelPool,
) -> BeamerResult {
    let n = graph.num_vertices();
    assert!((src as usize) < n, "source {src} out of range for n={n}");
    assert_eq!(transpose.num_vertices(), n, "transpose vertex count mismatch");
    let threads = pool.threads();
    let t0 = std::time::Instant::now();

    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNVISITED)).collect();
    levels[src as usize].store(0, Ordering::Relaxed);
    let words = n.div_ceil(64);
    let current: Vec<AtomicU64> = (0..words).map(|_| AtomicU64::new(0)).collect();
    let next: Vec<AtomicU64> = (0..words).map(|_| AtomicU64::new(0)).collect();
    current[src as usize / 64].store(1 << (src % 64), Ordering::Relaxed);

    // Shared per-level aggregates, reduced at the barrier.
    let next_vertices: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let next_edges: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let stats: Vec<(AtomicU64, AtomicU64)> =
        (0..threads).map(|_| (AtomicU64::new(0), AtomicU64::new(0))).collect();

    // Level-loop control written by the barrier leader.
    let frontier_vertices = AtomicU64::new(1);
    let frontier_edges = AtomicU64::new(graph.degree(src) as u64);
    let unexplored_edges = AtomicU64::new(graph.num_edges());
    let bottom_up_flag = AtomicU64::new(0);
    let depth = AtomicU32::new(0);
    let dir_trace: std::sync::Mutex<Vec<Direction>> = std::sync::Mutex::new(Vec::new());

    pool.run(|ctx| {
        let tid = ctx.tid();
        let per = n.div_ceil(threads);
        let (lo, hi) = ((tid * per).min(n), ((tid + 1) * per).min(n));
        let mut d = 0u32;
        let mut cur_is_a = true; // which bitmap plays "current"
        loop {
            // Leader decides the direction for this level.
            ctx.barrier().wait_then(|| {
                let mf = frontier_edges.load(Ordering::Relaxed);
                let mu = unexplored_edges.load(Ordering::Relaxed);
                let nf = frontier_vertices.load(Ordering::Relaxed);
                let was_bottom_up = bottom_up_flag.load(Ordering::Relaxed) == 1;
                let go_bottom_up = if was_bottom_up {
                    nf >= (n as u64) / BETA // stay until the frontier shrinks
                } else {
                    mf > mu / ALPHA
                };
                bottom_up_flag.store(go_bottom_up as u64, Ordering::Relaxed);
                dir_trace.lock().unwrap().push(if go_bottom_up {
                    Direction::BottomUp
                } else {
                    Direction::TopDown
                });
            });
            let bottom_up = bottom_up_flag.load(Ordering::Relaxed) == 1;
            let (cur, nxt): (&[AtomicU64], &[AtomicU64]) =
                if cur_is_a { (&current, &next) } else { (&next, &current) };

            let mut my_vertices = 0u64;
            let mut my_edges = 0u64;
            let mut explored = 0u64;
            let mut scanned = 0u64;
            if bottom_up {
                // Child → parent: each thread owns vertex range [lo, hi);
                // no atomics needed for claims.
                for v in lo..hi {
                    if levels[v].load(Ordering::Relaxed) != UNVISITED {
                        continue;
                    }
                    for &u in transpose.neighbors(v as VertexId) {
                        scanned += 1;
                        if cur[u as usize / 64].load(Ordering::Relaxed) >> (u % 64) & 1 == 1 {
                            levels[v].store(d + 1, Ordering::Relaxed);
                            nxt[v / 64].fetch_or(1 << (v % 64), Ordering::Relaxed);
                            my_vertices += 1;
                            my_edges += graph.degree(v as VertexId) as u64;
                            break;
                        }
                    }
                }
            } else {
                // Parent → child over this thread's share of frontier
                // bitmap words.
                let wper = words.div_ceil(threads);
                let (wlo, whi) = ((tid * wper).min(words), ((tid + 1) * wper).min(words));
                // wi also names the vertices (wi * 64 + bit), so the
                // index loop is the clearer form here.
                #[allow(clippy::needless_range_loop)]
                for wi in wlo..whi {
                    let mut bits = cur[wi].load(Ordering::Relaxed);
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let v = (wi * 64 + b) as VertexId;
                        explored += 1;
                        let neigh = graph.neighbors(v);
                        scanned += neigh.len() as u64;
                        for &w in neigh {
                            if levels[w as usize]
                                .compare_exchange(
                                    UNVISITED,
                                    d + 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                            {
                                nxt[w as usize / 64].fetch_or(1 << (w % 64), Ordering::Relaxed);
                                my_vertices += 1;
                                my_edges += graph.degree(w) as u64;
                            }
                        }
                    }
                }
            }
            next_vertices[tid].store(my_vertices, Ordering::Relaxed);
            next_edges[tid].store(my_edges, Ordering::Relaxed);
            stats[tid].0.fetch_add(explored + my_vertices, Ordering::Relaxed);
            stats[tid].1.fetch_add(scanned, Ordering::Relaxed);

            ctx.barrier().wait_then(|| {
                let nf: u64 = next_vertices.iter().map(|x| x.load(Ordering::Relaxed)).sum();
                let mf: u64 = next_edges.iter().map(|x| x.load(Ordering::Relaxed)).sum();
                unexplored_edges
                    .fetch_sub(mf.min(unexplored_edges.load(Ordering::Relaxed)), Ordering::Relaxed);
                frontier_vertices.store(nf, Ordering::Relaxed);
                frontier_edges.store(mf, Ordering::Relaxed);
                depth.store(d, Ordering::Relaxed);
            });
            if frontier_vertices.load(Ordering::Relaxed) == 0 {
                break;
            }
            // Clear my share of the old frontier for reuse two levels on.
            let wper = words.div_ceil(threads);
            let (wlo, whi) = ((tid * wper).min(words), ((tid + 1) * wper).min(words));
            for w in &cur[wlo..whi] {
                w.store(0, Ordering::Relaxed);
            }
            ctx.barrier().wait();
            cur_is_a = !cur_is_a;
            d += 1;
        }
    })
    .unwrap_or_else(|e| panic!("worker pool failed: {e}"));

    let traversal_time = t0.elapsed();
    let out_levels: Vec<u32> = (0..n).map(|v| levels[v].load(Ordering::Relaxed)).collect();
    let per_thread: Vec<ThreadStats> = stats
        .iter()
        .map(|(e, s)| ThreadStats {
            vertices_explored: e.load(Ordering::Relaxed),
            edges_scanned: s.load(Ordering::Relaxed),
            ..Default::default()
        })
        .collect();
    let mut directions = dir_trace.into_inner().unwrap();
    directions.truncate(depth.load(Ordering::Relaxed) as usize + 1);
    BeamerResult {
        bfs: BfsResult {
            levels: out_levels,
            parents: None,
            stats: RunStats::from_threads(
                per_thread,
                depth.load(Ordering::Relaxed) + 1,
                traversal_time,
            ),
        },
        directions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_core::serial::serial_bfs;
    use obfs_graph::gen;

    fn check(g: &CsrGraph, src: u32, threads: usize) -> BeamerResult {
        let t = g.transpose();
        let r = beamer_bfs(g, &t, src, threads);
        let ser = serial_bfs(g, src);
        assert_eq!(r.bfs.levels, ser.levels, "beamer (p={threads}, src={src})");
        r
    }

    #[test]
    fn matches_serial_on_varied_graphs() {
        check(&gen::path(200), 0, 2);
        check(&gen::binary_tree(1023), 0, 4);
        check(&gen::erdos_renyi(800, 6000, 3), 0, 4);
        check(&gen::barabasi_albert(600, 3, 7), 2, 4);
    }

    #[test]
    fn directed_graphs_use_real_in_edges() {
        // Asymmetric: 0 -> 1 -> 2, plus 3 -> 2. Bottom-up must look at
        // in-edges, not out-edges.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (3, 2)]);
        let r = check(&g, 0, 2);
        assert_eq!(r.bfs.levels, vec![0, 1, 2, UNVISITED]);
    }

    #[test]
    fn dense_graph_switches_to_bottom_up() {
        // Complete graph: the first frontier expansion covers everything;
        // the heuristic must fire bottom-up at least once.
        let g = gen::complete(400);
        let r = check(&g, 0, 4);
        assert!(
            r.directions.contains(&Direction::BottomUp),
            "expected a bottom-up level on K400, got {:?}",
            r.directions
        );
    }

    #[test]
    fn sparse_path_stays_top_down_until_exhaustion() {
        // On a path the frontier is 1 vertex, so top-down must hold until
        // the unexplored edge volume collapses (mu/alpha rounds to ~0 in
        // the last few levels, where Beamer's rule legitimately flips).
        let g = gen::path(500);
        let r = check(&g, 0, 2);
        let levels = r.directions.len();
        let early = &r.directions[..levels * 9 / 10];
        assert!(
            early.iter().all(|&d| d == Direction::TopDown),
            "early path levels must be top-down"
        );
    }

    #[test]
    fn single_thread_and_single_vertex() {
        check(&gen::cycle(30), 3, 1);
        let g = CsrGraph::from_edges(1, &[]);
        let r = check(&g, 0, 2);
        assert_eq!(r.bfs.levels, vec![0]);
    }

    #[test]
    fn direction_trace_length_matches_levels() {
        let g = gen::binary_tree(255);
        let r = check(&g, 0, 3);
        assert_eq!(r.directions.len() as u32, r.bfs.stats.levels);
    }
}
