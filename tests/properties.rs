//! Randomized property tests: seeded graphs, sources and tuning options
//! against the serial reference, plus structural invariants of the bag
//! and the frontier queues.
//!
//! The build is fully offline, so instead of an external property-test
//! framework these use the workspace's own deterministic PRNG
//! ([`obfs_util::Xoshiro256StarStar`]): each property runs a fixed number
//! of seeded random cases, and every failure message carries the case
//! index so a regression is reproducible by construction.

use obfs::prelude::*;
use obfs_baselines::Bag;
use obfs_core::serial::serial_bfs;
use obfs_util::Xoshiro256StarStar;

/// Number of random cases per property (mirrors the old proptest config).
const CASES: u64 = 48;

/// Random directed graph: `n ∈ [2, 120)`, up to `6n` arbitrary edges
/// (self-loops and duplicates allowed — the builder must cope).
fn arb_graph(rng: &mut Xoshiro256StarStar) -> (usize, Vec<(u32, u32)>) {
    let n = 2 + rng.below_usize(118);
    let m = rng.below_usize(n * 6);
    let edges = (0..m).map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32)).collect();
    (n, edges)
}

fn build(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n).dedup(false).allow_self_loops(true);
    b.extend(edges.iter().copied());
    b.build()
}

/// Every parallel algorithm equals serial BFS on arbitrary graphs,
/// sources, and thread counts.
#[test]
fn parallel_equals_serial() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::for_stream(0x9A11, case);
        let (n, edges) = arb_graph(&mut rng);
        let g = build(n, &edges);
        let src = rng.below(n as u64) as u32;
        let threads = 1 + rng.below_usize(5);
        let reference = serial_bfs(&g, src);
        let opts = BfsOptions { threads, ..BfsOptions::default() };
        for algo in Algorithm::ALL {
            let r = run_bfs(algo, &g, src, &opts);
            assert_eq!(r.levels, reference.levels, "case {case}: {algo} (p={threads})");
        }
    }
}

/// Parents always form a valid BFS tree, whichever tree the races picked.
#[test]
fn parents_always_valid() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::for_stream(0x9A12, case);
        let (n, edges) = arb_graph(&mut rng);
        let g = build(n, &edges);
        let threads = 1 + rng.below_usize(4);
        let opts = BfsOptions { threads, record_parents: true, ..BfsOptions::default() };
        for algo in [Algorithm::Bfscl, Algorithm::Bfswl, Algorithm::Bfswsl] {
            let r = run_bfs(algo, &g, 0, &opts);
            assert!(
                obfs::core::validate::check_self_consistent(&g, 0, &r).is_ok(),
                "case {case}: {algo} (p={threads})"
            );
        }
    }
}

/// Scale-free two-phase handling is correct for every hub threshold.
#[test]
fn any_hub_threshold_is_correct() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::for_stream(0x9A13, case);
        let (n, edges) = arb_graph(&mut rng);
        let g = build(n, &edges);
        let thr = rng.below_usize(32);
        let reference = serial_bfs(&g, 0);
        let opts = BfsOptions { threads: 4, hub_threshold: Some(thr), ..BfsOptions::default() };
        for algo in [Algorithm::Bfsws, Algorithm::Bfswsl] {
            let r = run_bfs(algo, &g, 0, &opts);
            assert_eq!(r.levels, reference.levels, "case {case}: {algo} thr={thr}");
        }
    }
}

/// Bag insert/union/split maintain the element multiset and the
/// binary-counter size law.
#[test]
fn bag_multiset_invariants() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::for_stream(0x9A14, case);
        let len = rng.below_usize(400);
        let xs: Vec<u32> = (0..len).map(|_| rng.below(10_000) as u32).collect();
        let cut = rng.below_usize(400).min(xs.len());
        let mut a = Bag::new();
        let mut b = Bag::new();
        for &x in &xs[..cut] {
            a.insert(x);
        }
        for &x in &xs[cut..] {
            b.insert(x);
        }
        assert_eq!(a.len(), cut, "case {case}");
        assert_eq!(b.len(), xs.len() - cut, "case {case}");
        a.union(b);
        assert_eq!(a.len(), xs.len(), "case {case}");
        let mut expect = xs.clone();
        expect.sort_unstable();
        assert_eq!(a.to_sorted_vec(), expect, "case {case}");
        // Split preserves the multiset and halves evenly.
        let other = a.split();
        assert!(a.len().abs_diff(other.len()) <= 1, "case {case}");
        let mut merged = a.to_sorted_vec();
        merged.extend(other.to_sorted_vec());
        merged.sort_unstable();
        assert_eq!(merged, expect, "case {case}");
    }
}

/// CSR construction is faithful: neighbors(v) is exactly the multiset of
/// targets of v's edges, and transpose twice is the identity.
#[test]
fn csr_faithful() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::for_stream(0x9A15, case);
        let (n, edges) = arb_graph(&mut rng);
        let g = build(n, &edges);
        assert_eq!(g.num_edges() as usize, edges.len(), "case {case}");
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in &edges {
            expected[u as usize].push(v);
        }
        for v in 0..n as u32 {
            let mut got = g.neighbors(v).to_vec();
            got.sort_unstable();
            expected[v as usize].sort_unstable();
            assert_eq!(got, expected[v as usize], "case {case}: vertex {v}");
        }
        assert_eq!(g.transpose().transpose(), g, "case {case}");
    }
}

/// Materializing a random bitmap through the compaction pipeline
/// (per-chunk popcounts → exclusive block prefix → per-chunk set-bit
/// emission into disjoint ranges) reproduces a per-bit enumeration of its
/// set bits exactly — same *set* of vertices and the same stable
/// per-chunk order — for every thread split.
#[test]
fn compacted_frontier_equals_queue_derived_frontier() {
    use obfs::core::frontier::{FrontierBitmap, BITMAP_WORD_BITS};
    use obfs::core::scan::{for_each_set, popcount_words, COMPACT_CHUNK_WORDS};
    use obfs::util::par::{block_prefix, block_range};
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::for_stream(0x9A18, case);
        // Up to ~6 chunks of bitmap so every case crosses chunk and
        // block boundaries somewhere; density varies wildly per word.
        let n = 1 + rng.below_usize(6 * COMPACT_CHUNK_WORDS * BITMAP_WORD_BITS);
        let bm = FrontierBitmap::new(n);
        let words = bm.word_count();
        // Queue-derived reference: the set bits of each word as written,
        // tested one bit at a time, ascending.
        let mut reference = Vec::new();
        for wi in 0..words {
            let w = match rng.below(4) {
                0 => 0,
                1 => !0u32,
                _ => (rng.next_u64() & rng.next_u64()) as u32,
            };
            // Mask out-of-range tail bits so "set bit" == "vertex".
            let base = wi * BITMAP_WORD_BITS;
            let lim = BITMAP_WORD_BITS.min(n - base.min(n));
            let w = if lim == BITMAP_WORD_BITS { w } else { w & !(!0u32 << lim) };
            bm.set_word(wi, w);
            reference.extend((0..BITMAP_WORD_BITS).filter(|b| w >> b & 1 == 1).map(|b| base + b));
        }
        let chunks = words.div_ceil(COMPACT_CHUNK_WORDS);
        for threads in [1usize, 2, 4, 8] {
            // Pass 1: per-chunk popcounts and per-block totals.
            let counts: Vec<u64> = (0..chunks)
                .map(|c| {
                    let wlo = c * COMPACT_CHUNK_WORDS;
                    let whi = (wlo + COMPACT_CHUNK_WORDS).min(words);
                    popcount_words(&bm, wlo, whi)
                })
                .collect();
            let totals: Vec<u64> = (0..threads)
                .map(|tid| {
                    let (lo, hi) = block_range(chunks, threads, tid);
                    counts[lo..hi].iter().sum()
                })
                .collect();
            // Passes 2+3: every worker emits its chunks into the
            // disjoint range the block prefix assigns it.
            let mut out = vec![usize::MAX; reference.len()];
            for tid in 0..threads {
                let (lo, hi) = block_range(chunks, threads, tid);
                let mut off = block_prefix(&totals, tid) as usize;
                for c in lo..hi {
                    let wlo = c * COMPACT_CHUNK_WORDS;
                    let whi = (wlo + COMPACT_CHUNK_WORDS).min(words);
                    for_each_set(&bm, wlo, whi, |v| {
                        out[off] = v;
                        off += 1;
                    });
                }
                assert_eq!(
                    off as u64,
                    block_prefix(&totals, tid) + totals[tid],
                    "case {case}: p={threads} tid={tid}"
                );
            }
            assert_eq!(out, reference, "case {case}: p={threads}");
        }
    }
}

/// Reached counts are monotone under edge addition (BFS sanity).
#[test]
fn reachability_monotone() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::for_stream(0x9A16, case);
        let (n, edges) = arb_graph(&mut rng);
        let g1 = build(n, &edges);
        let extra = 1 + rng.below_usize(9);
        let mut all = edges.clone();
        all.extend((0..extra).map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32)));
        let g2 = build(n, &all);
        let r1 = serial_bfs(&g1, 0);
        let r2 = serial_bfs(&g2, 0);
        assert!(r2.reached() >= r1.reached(), "case {case}");
        // and levels can only shrink
        for v in 0..n {
            assert!(r2.levels[v] <= r1.levels[v], "case {case}: vertex {v}");
        }
    }
}
