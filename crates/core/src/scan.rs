//! Prefix-sum frontier compaction primitives and the bitmap scan kernels.
//!
//! # The compaction pipeline
//!
//! Dense BFS levels pay real overhead in queue-segment dispatch: racy
//! cursor traffic, sanity-check retries, and duplicate explorations. For
//! a level the leader predicts dense, the driver instead materializes the
//! frontier as one contiguous array via a work-efficient **parallel
//! exclusive prefix sum** (Tithi/Fogel/Chowdhury, arXiv:2209.08764) and
//! consumes it with a perfectly balanced static partition:
//!
//! 1. **Fill / reduce** — each worker rebuilds its chunk-aligned share of
//!    a frontier bitmap from the `level[]` array (single writer per word,
//!    like `bottom_up_level`; through the hybrid refill's branch-free
//!    [`crate::frontier::level_words`]), records a popcount per
//!    [`COMPACT_CHUNK_WORDS`]-word chunk, and publishes its block total.
//! 2. **Scan** — after the barrier publishes the block totals, every
//!    worker independently computes the same exclusive prefix over the
//!    `p` totals ([`obfs_util::par::block_prefix`]; replicated O(p) work
//!    instead of a serial section — barrier-free within the pass). The
//!    prefix helpers live in [`obfs_util::par`], shared with the graph
//!    builder.
//! 3. **Downsweep / materialize** — each worker emits its chunks' set
//!    bits into the disjoint output range `[prefix, prefix + total)` the
//!    scan assigned it (single writer per output slot).
//!
//! Every pass is barrier-separated and single-writer within, so the
//! whole pipeline needs no locks and no atomic RMW — the same discipline
//! as the paper's optimistic dispatchers, minus even the benign races.
//!
//! # Scan kernel
//!
//! The bitmap walks (popcount, set-bit enumeration) shared with the
//! bottom-up level go a word at a time: all-zero words are skipped
//! outright and set bits are walked by `trailing_zeros`, in ascending
//! order.

use crate::frontier::{FrontierBitmap, BITMAP_WORD_BITS};

/// Bitmap words per compaction chunk (2048 vertices): fine enough that
/// per-chunk popcounts load-balance skewed frontiers, coarse enough that
/// a chunk spans whole cache lines of bitmap words.
pub const COMPACT_CHUNK_WORDS: usize = 64;

/// Count the set bits of `bm.words[wlo..whi]`.
pub fn popcount_words(bm: &FrontierBitmap, wlo: usize, whi: usize) -> u64 {
    (wlo..whi).map(|wi| u64::from(bm.word(wi).count_ones())).sum()
}

// lint:region hot-path:scan-emit
/// Call `f(v)` for every set bit of `bm.words[wlo..whi]`, ascending
/// (`v = word_index * BITMAP_WORD_BITS + bit`), skipping zero words
/// outright.
pub fn for_each_set(bm: &FrontierBitmap, wlo: usize, whi: usize, mut f: impl FnMut(usize)) {
    for wi in wlo..whi {
        let w = bm.word(wi);
        if w != 0 {
            for_each_set_in_word(w, wi * BITMAP_WORD_BITS, &mut f);
        }
    }
}

/// Call `f(base + bit)` for every set bit of the single word `w`,
/// ascending. The inner step of the bottom-up candidate scan and the
/// compaction emit, shared so both agree on order.
#[inline]
pub fn for_each_set_in_word(w: u32, base: usize, mut f: impl FnMut(usize)) {
    let mut w = w;
    while w != 0 {
        f(base + w.trailing_zeros() as usize);
        w &= w - 1;
    }
}
// lint:endregion

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_matches_a_per_bit_walk() {
        let bm = FrontierBitmap::new(200);
        bm.set_word(0, 0xDEAD_BEEF);
        bm.set_word(3, 0x8000_0001);
        bm.set_word(6, 0xFF); // bits 192..=199 only (len 200)
        let words = bm.word_count();
        // Independent reference: test every bit on its own.
        let reference: Vec<usize> = (0..bm.len()).filter(|&v| bm.test(v)).collect();
        assert_eq!(popcount_words(&bm, 0, words), reference.len() as u64);
        assert_eq!(popcount_words(&bm, 1, 3), 0, "zero words count nothing");
        let mut a = Vec::new();
        for_each_set(&bm, 0, words, |v| a.push(v));
        assert_eq!(a, reference, "same set bits, ascending");
        let mut c = Vec::new();
        for_each_set_in_word(0xDEAD_BEEF, 0, |v| c.push(v));
        assert_eq!(c, a.iter().copied().take_while(|&v| v < 32).collect::<Vec<_>>());
    }
}
