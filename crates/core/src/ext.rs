//! §IV-D extension: edge-balanced optimistic dispatch (`EdgeCL`).
//!
//! The paper's "further improvements" sketch a variant that divides the
//! *edges* of the frontier evenly instead of the vertices, keeping the
//! same lock- and RMW-free dynamic load balancing. This module implements
//! it: at each level the barrier leader flattens the frontier into a
//! vertex list with exclusive prefix sums of degrees; workers then grab
//! *edge ranges* from a single shared racy cursor with plain loads and
//! stores.
//!
//! The same no-gap orbit argument as the centralized dispatcher applies
//! (see [`crate::centralized`]): the range length is a pure function of
//! the observed cursor, so ranges either coincide or are disjoint —
//! overlaps are replays (duplicate edge scans, benign), never gaps.
//!
//! Note: `EdgeCL` ignores [`crate::DedupMode::OwnerArray`] — frontier
//! entries lose their queue identity when flattened.

// lint:protocol racy — the edge cursor is published with plain stores;
// overlapping ranges are replays (duplicate scans), never gaps.

use crate::driver::{LevelEnv, Strategy};
use crate::frontier::{decode, FrontierQueue, EMPTY_SLOT};
use crate::state::RunState;
use crate::stats::ThreadStats;
use obfs_graph::VertexId;
use obfs_runtime::WorkerCtx;
use obfs_util::Xoshiro256StarStar;

/// The `EdgeCL` strategy.
pub struct EdgePartitioned;

impl Strategy for EdgePartitioned {
    fn serial_prepare(&self, env: &LevelEnv<'_, '_>) {
        let st = env.st;
        let qin = st.qin(env.parity);
        // SAFETY: barrier serial section — exclusive access.
        unsafe {
            let flat = st.flat_vertices.get_mut();
            let prefix = st.flat_prefix.get_mut();
            flat.clear();
            prefix.clear();
            let mut acc = 0u64;
            for k in 0..st.threads {
                let q = qin.queue(k);
                for i in 0..q.rear() {
                    let s = q.slot(i);
                    if s == EMPTY_SLOT {
                        continue; // defensive; queues are intact here
                    }
                    let v = decode(s);
                    flat.push(v);
                    prefix.push(acc);
                    acc += st.graph.degree(v) as u64;
                }
            }
            prefix.push(acc);
            st.edge_cursor.store(0);
        }
    }

    fn consume(
        &self,
        env: &LevelEnv<'_, '_>,
        _ctx: &WorkerCtx<'_>,
        tid: usize,
        out_rear: &mut usize,
        _rng: &mut Xoshiro256StarStar,
        ts: &mut ThreadStats,
    ) {
        let st = env.st;
        let out = st.qout(env.parity).queue(tid);
        // SAFETY: read-only between barriers.
        let flat = unsafe { st.flat_vertices.get() };
        // SAFETY: read-only between barriers, as above.
        let prefix = unsafe { st.flat_prefix.get() };
        consume_edge_ranges(st, flat, prefix, env.level, tid, out, out_rear, ts);
    }
}

// lint:region hot-path:edge-dispatch
/// Optimistically dispatch edge ranges of the flattened work list
/// `(flat, prefix)` via `st.edge_cursor` (plain load/store; duplicates
/// benign). Shared with the scale-free phase-2 stealing variant.
#[allow(clippy::too_many_arguments)]
pub(crate) fn consume_edge_ranges(
    st: &RunState<'_>,
    flat: &[VertexId],
    prefix: &[u64],
    level: u32,
    tid: usize,
    out: &FrontierQueue,
    out_rear: &mut usize,
    ts: &mut ThreadStats,
) {
    debug_assert_eq!(prefix.len(), flat.len() + 1);
    let total = *prefix.last().unwrap_or(&0);
    if total == 0 {
        return;
    }
    let next = level + 1;
    loop {
        if st.watchdog_tripped() {
            return; // leader sweep finishes the level
        }
        let fetch_timer = obfs_sync::metrics::timer();
        let c = st.edge_cursor.load() as u64;
        if c >= total {
            return;
        }
        // Pure function of c — the no-gap orbit invariant.
        let es = st.opts.segment.segment_len((total - c) as usize, st.threads) as u64;
        let end = (c + es).min(total);
        // racy-ok: optimistic cursor publish — a dragged-back cursor only replays scanned edges
        st.edge_cursor.store(end as usize);
        ts.segment_fetched(fetch_timer, None, level, c, end - c);

        // Map edge range [c, end) onto (vertex, adjacency slice) pieces.
        let mut vi = prefix.partition_point(|&x| x <= c) - 1;
        let mut e = c;
        while e < end {
            debug_assert!(vi < flat.len());
            let v_start = prefix[vi];
            let v_end = prefix[vi + 1];
            if v_end <= e {
                vi += 1;
                continue; // zero-degree entries / range boundary
            }
            let h = flat[vi];
            let lo = (e - v_start) as usize;
            let hi = (end.min(v_end) - v_start) as usize;
            let neigh = st.graph.neighbors(h);
            ts.edges_scanned += (hi - lo) as u64;
            if lo == 0 {
                // Count each frontier entry once, at its first edge.
                st.note_pop(h, level, ts);
            }
            if st.batch.is_some() {
                // Frontier bits are level-barrier-published, so every
                // piece of h's adjacency derives the same word.
                let fbits = st.frontier_bits(h, level);
                if fbits != 0 {
                    for &w in &neigh[lo..hi] {
                        st.try_discover_batch(w, h, fbits, next, out, out_rear, ts);
                    }
                }
            } else {
                for &w in &neigh[lo..hi] {
                    st.try_discover(w, h, next, tid, out, out_rear, ts);
                }
            }
            e = v_start + hi as u64;
            vi += 1;
        }
    }
}
// lint:endregion

#[cfg(test)]
mod tests {
    use crate::options::{Algorithm, BfsOptions, SegmentPolicy};
    use crate::serial::serial_bfs;
    use crate::run_bfs;
    use obfs_graph::gen;

    fn check(g: &obfs_graph::CsrGraph, src: u32, o: &BfsOptions) {
        let par = run_bfs(Algorithm::EdgeCl, g, src, o);
        let ser = serial_bfs(g, src);
        assert_eq!(par.levels, ser.levels, "EdgeCL vs serial (src={src})");
    }

    #[test]
    fn matches_serial_on_varied_graphs() {
        let o = BfsOptions { threads: 4, ..Default::default() };
        check(&gen::path(200), 0, &o);
        check(&gen::star(300), 5, &o);
        check(&gen::erdos_renyi(600, 4000, 3), 0, &o);
        check(&gen::barabasi_albert(500, 3, 1), 2, &o);
    }

    #[test]
    fn hub_edges_are_split_not_serialized() {
        // A star's hub level is one vertex with 499 edges; edge dispatch
        // must still cover every edge.
        let o = BfsOptions {
            threads: 8,
            segment: SegmentPolicy::Fixed(16),
            ..Default::default()
        };
        check(&gen::star(500), 0, &o);
    }

    #[test]
    fn single_thread() {
        let o = BfsOptions { threads: 1, ..Default::default() };
        check(&gen::cycle(64), 3, &o);
    }

    #[test]
    fn vertices_with_zero_out_degree_in_frontier() {
        // 0 -> {1, 2}; 1 and 2 have no out-edges: frontier entries of
        // degree zero must not wedge the range walker.
        let g = obfs_graph::CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let o = BfsOptions { threads: 3, ..Default::default() };
        check(&g, 0, &o);
    }

    #[test]
    fn edge_accounting_plausible() {
        let g = gen::erdos_renyi(400, 3000, 9);
        let o = BfsOptions { threads: 4, ..Default::default() };
        let r = run_bfs(Algorithm::EdgeCl, &g, 0, &o);
        let ser = serial_bfs(&g, 0);
        // Parallel edge scans >= serial scans (duplicates only add).
        assert!(r.stats.totals.edges_scanned >= ser.stats.totals.edges_scanned);
    }
}
