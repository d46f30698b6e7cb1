//! The one parallel counting sort behind every CSR construction:
//! [`crate::GraphBuilder::build`], [`CsrGraph::from_edges`] and
//! [`CsrGraph::transpose`].
//!
//! Each of `threads` threads counts the keys of a contiguous part of the
//! input. One exclusive prefix pass over the counts gives the offsets and
//! each thread's slots, and each thread then replays its part into its
//! own slots ([`obfs_util::par::stable_scatter`]; every other thread
//! fills its slots from the top and so replays in reverse). Thread t's
//! entries for a vertex land after those of threads < t, and each
//! thread's in input order, so the result is the serial stable counting
//! sort's at every thread count: `from_edges` keeps input order per
//! source and `transpose` ascending source order. The builder then sorts
//! and dedups each list in place ([`sort_lists`]).
//!
//! The thread count follows from the input ([`sort_threads`]). Nothing
//! configures it, and no output depends on it.

use crate::{CsrGraph, VertexId};
use obfs_util::par;

/// Input entries (edges) per thread below which one more thread does not
/// pay for its spawn and its per-vertex tally.
pub(crate) const GRAIN: usize = 1 << 16;

/// Threads for a counting sort of `m` entries over `n` vertices: every
/// core, but at least [`GRAIN`] entries each and no more than `m / n`
/// threads, so the per-thread tallies (4 B per vertex, plus 4 B per
/// vertex for each boundary between pairs of threads) never outweigh an
/// input pair list (8 B per pair). A sparse input therefore costs one
/// tally, no more than the serial sort's one cursor array.
pub(crate) fn sort_threads(n: usize, m: usize) -> usize {
    par::threads_for(m, GRAIN).min((m / n.max(1)).max(1))
}

/// An input the counting sort reads in contiguous parts of its entries.
pub(crate) trait Pairs: Sync {
    /// Number of input entries.
    fn len(&self) -> usize;

    /// Call `f(key, item)` for every pair that entries `lo..hi` yield, in
    /// input order, or in exactly the reverse order when `rev`; the same
    /// pairs on every call.
    fn each(&self, lo: usize, hi: usize, rev: bool, f: impl FnMut(VertexId, VertexId));
}

/// An edge list keyed by source: out-of-range endpoints panic, self-loops
/// are dropped unless kept, and `symmetrize` also yields each reverse.
pub(crate) struct EdgeList<'a> {
    pub edges: &'a [(VertexId, VertexId)],
    pub n: usize,
    pub self_loops: bool,
    pub symmetrize: bool,
}

impl Pairs for EdgeList<'_> {
    fn len(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    fn each(&self, lo: usize, hi: usize, rev: bool, mut f: impl FnMut(VertexId, VertexId)) {
        let n = self.n;
        let mut yield_edge = |&(u, v): &(VertexId, VertexId)| {
            assert!((u as usize) < n && (v as usize) < n, "edge ({u},{v}) out of range for n={n}");
            if u == v && !self.self_loops {
                return;
            }
            if rev && self.symmetrize {
                f(v, u);
            }
            f(u, v);
            if !rev && self.symmetrize {
                f(v, u);
            }
        };
        let edges = &self.edges[lo..hi];
        if rev {
            edges.iter().rev().for_each(&mut yield_edge);
        } else {
            edges.iter().for_each(&mut yield_edge);
        }
    }
}

/// Every edge of a graph reversed: keyed by target, yielding the source.
pub(crate) struct Reversed<'a>(pub &'a CsrGraph);

impl Pairs for Reversed<'_> {
    fn len(&self) -> usize {
        self.0.targets_raw().len()
    }

    #[inline]
    fn each(&self, lo: usize, hi: usize, rev: bool, mut f: impl FnMut(VertexId, VertexId)) {
        if lo == hi {
            return;
        }
        let (offsets, targets) = (self.0.offsets_raw(), self.0.targets_raw());
        // The source of edge i: the last vertex whose list starts at or
        // before it.
        let source = |i: usize| offsets.partition_point(|&o| o as usize <= i) - 1;
        if rev {
            let mut u = source(hi - 1);
            for i in (lo..hi).rev() {
                while offsets[u] as usize > i {
                    u -= 1;
                }
                f(targets[i], u as VertexId);
            }
        } else {
            let mut u = source(lo);
            for (i, &v) in targets.iter().enumerate().take(hi).skip(lo) {
                while offsets[u + 1] as usize <= i {
                    u += 1;
                }
                f(v, u as VertexId);
            }
        }
    }
}

/// Counting-sort the pairs of `input` by key into CSR `(offsets,
/// targets)` over `n` vertices on `threads` threads, stably (see the
/// module docs).
pub(crate) fn counting_sort(
    n: usize,
    input: &impl Pairs,
    threads: usize,
) -> (Vec<u64>, Vec<VertexId>) {
    let threads = threads.max(1);
    let parts: Vec<(usize, usize)> =
        (0..threads).map(|t| par::block_range(input.len(), threads, t)).collect();
    let tallies = par::map(parts.clone(), |_, (lo, hi)| {
        let mut tally = vec![0u32; n];
        input.each(lo, hi, false, |k, _| tally[k as usize] += 1);
        tally
    });
    par::stable_scatter(tallies, |t, out| {
        let (lo, hi) = parts[t];
        input.each(lo, hi, out.descending(), |k, v| out.put(k as usize, v));
    })
}

/// Sort every adjacency list of `(offsets, targets)` ascending and, with
/// `dedup`, drop repeated targets and close the gaps. Each of `threads`
/// threads takes a block of whole lists holding about `m / threads`
/// targets and compacts it within its own range; the blocks then move
/// down in one pass.
pub(crate) fn sort_lists(
    offsets: &mut [u64],
    targets: &mut Vec<VertexId>,
    dedup: bool,
    threads: usize,
) {
    let threads = threads.max(1);
    let n = offsets.len() - 1;
    let m = targets.len();
    // Block t holds the lists of vertices cut[t]..cut[t + 1].
    let cut: Vec<usize> = (0..threads)
        .map(|t| {
            let first_edge = par::block_range(m, threads, t).0 as u64;
            offsets[..n].partition_point(|&o| o < first_edge)
        })
        .chain([n])
        .collect();
    let mut blocks = Vec::with_capacity(threads);
    let (mut ends, mut lists) = (&mut offsets[1..], &mut targets[..]);
    let mut base = 0;
    for w in cut.windows(2) {
        let (block_ends, rest) = std::mem::take(&mut ends).split_at_mut(w[1] - w[0]);
        let stop = block_ends.last().map_or(base, |&e| e as usize);
        let (block_lists, tail) = std::mem::take(&mut lists).split_at_mut(stop - base);
        blocks.push((base, block_ends, block_lists));
        (ends, lists, base) = (rest, tail, stop);
    }
    let bases: Vec<usize> = blocks.iter().map(|b| b.0).collect();
    // Each block sorts its lists and compacts them to its own start,
    // leaving each list's end relative to that start in `offsets`.
    let kept = par::map(blocks, |_, (base, ends, lists)| {
        let (mut start, mut w) = (0, 0);
        for end in ends.iter_mut() {
            let stop = *end as usize - base;
            lists[start..stop].sort_unstable();
            if dedup {
                let first = w;
                for r in start..stop {
                    let x = lists[r];
                    if w == first || lists[w - 1] != x {
                        lists[w] = x;
                        w += 1;
                    }
                }
            } else {
                w = stop;
            }
            *end = w as u64;
            start = stop;
        }
        w as u64
    });
    let starts = par::exclusive_scan(&kept);
    for (t, w) in cut.windows(2).enumerate() {
        let (from, to) = (bases[t], starts[t] as usize);
        if from != to {
            targets.copy_within(from..from + kept[t] as usize, to);
        }
        offsets[w[0] + 1..=w[1]].iter_mut().for_each(|o| *o += to as u64);
    }
    targets.truncate(starts[threads] as usize);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use obfs_util::Xoshiro256StarStar;

    const THREADS: [usize; 4] = [1, 2, 3, 7];

    fn random_edges(n: usize, m: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut rng = Xoshiro256StarStar::new(seed);
        // Skewed sources and a sprinkle of self-loops and repeats.
        (0..m)
            .map(|_| {
                let u = rng.below_usize(n).min(rng.below_usize(n)) as VertexId;
                let v = if rng.chance(0.1) { u } else { rng.below_usize(n) as VertexId };
                (u, v)
            })
            .collect()
    }

    /// Every (n, m) shape the thread split can trip on: no vertices, one
    /// vertex, fewer edges than threads, and ordinary graphs.
    fn inputs() -> Vec<(usize, Vec<(VertexId, VertexId)>)> {
        vec![
            (0, vec![]),
            (1, vec![]),
            (1, vec![(0, 0), (0, 0)]),
            (5, vec![(4, 1), (1, 4), (4, 1)]),
            (3, random_edges(3, 2, 1)),
            (64, random_edges(64, 500, 2)),
            (1000, random_edges(1000, 20_000, 3)),
        ]
    }

    #[test]
    fn from_edges_and_transpose_do_not_depend_on_threads() {
        for (n, edges) in inputs() {
            let serial = CsrGraph::from_edges_with(n, &edges, 1);
            let transpose = serial.transpose_with(1);
            for threads in THREADS {
                assert_eq!(CsrGraph::from_edges_with(n, &edges, threads), serial, "n={n}");
                assert_eq!(serial.transpose_with(threads), transpose, "n={n}");
            }
            assert_eq!(serial.num_edges(), edges.len() as u64);
        }
    }

    #[test]
    fn builder_does_not_depend_on_threads() {
        for (n, edges) in inputs() {
            for (loops, dedup, sym) in [
                (false, true, false),
                (true, true, false),
                (true, false, false),
                (false, false, false),
                (false, true, true),
                (true, false, true),
            ] {
                let build = |threads| {
                    let mut b = GraphBuilder::new(n).allow_self_loops(loops).dedup(dedup);
                    b = b.symmetrize(sym);
                    b.extend(edges.iter().copied());
                    b.build_with(threads)
                };
                let serial = build(1);
                assert!(serial.is_sorted());
                for threads in THREADS {
                    assert_eq!(build(threads), serial, "n={n} loops={loops} dedup={dedup}");
                }
            }
        }
    }

    #[test]
    fn thread_count_follows_the_input() {
        assert_eq!(sort_threads(0, 0), 1);
        assert_eq!(sort_threads(10, 100), 1, "below two grains nothing spawns");
        assert_eq!(sort_threads(1 << 30, 4 * GRAIN), 1, "sparse: one tally, as before");
        assert!(sort_threads(1 << 10, 1 << 24) >= 1);
    }
}
