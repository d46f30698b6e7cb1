//! Frontier queues: the paper's "very simple array-based data structures".
//!
//! A [`FrontierQueue`] is a fixed-capacity array of racy `u32` slots plus
//! racy `front`/`rear` cursors. Vertices are stored **biased by one**
//! (`v + 1`) so that `0` can serve as the paper's sentinel: a `0` slot
//! means "past the end of the queue, or already consumed by some thread".
//! The array is sized `n + 1`, so the slot at index `rear` always exists
//! and always reads 0 — consumers that walk by sentinel never need a
//! bounds branch against `rear`.
//!
//! Ownership protocol per BFS level:
//! * As an **output** queue, a single thread pushes to it (no races).
//! * As an **input** queue, any thread may read/clear slots and update
//!   `front` racily — that is the optimistic part of the paper.
//! * `rear` is fixed while the queue is an input queue (set by its owner
//!   during the previous level and only reset at the swap barrier).

use crate::UNVISITED;
use obfs_graph::VertexId;
use obfs_sync::{CachePadded, RacyBuf, RacyUsize};

/// Sentinel stored in empty/consumed slots.
pub const EMPTY_SLOT: u32 = 0;

/// Encode a vertex for queue storage (`v + 1`).
#[inline]
pub fn encode(v: VertexId) -> u32 {
    debug_assert!(v != UNVISITED, "cannot encode the UNVISITED marker");
    v + 1
}

/// Decode a non-empty slot back to a vertex id.
#[inline]
pub fn decode(slot: u32) -> VertexId {
    debug_assert_ne!(slot, EMPTY_SLOT);
    slot - 1
}

/// One per-thread frontier queue.
pub struct FrontierQueue {
    slots: RacyBuf,
    front: CachePadded<RacyUsize>,
    rear: CachePadded<RacyUsize>,
}

impl FrontierQueue {
    /// Queue able to hold `capacity` vertices (allocates `capacity + 1`
    /// slots so index `rear` is always a readable sentinel).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: RacyBuf::new(capacity + 1),
            front: CachePadded::new(RacyUsize::new(0)),
            rear: CachePadded::new(RacyUsize::new(0)),
        }
    }

    /// Maximum number of vertices the queue can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len() - 1
    }

    /// Racy read of slot `i` (0 = empty/consumed).
    #[inline]
    pub fn slot(&self, i: usize) -> u32 {
        self.slots.get(i)
    }

    /// Racy clear of slot `i` (the zero-on-read protocol).
    #[inline]
    pub fn clear_slot(&self, i: usize) {
        self.slots.set(i, EMPTY_SLOT);
    }

    /// Racy cursor reads/writes.
    #[inline]
    pub fn front(&self) -> usize {
        self.front.load()
    }
    /// Racy store of the front cursor.
    #[inline]
    pub fn set_front(&self, v: usize) {
        self.front.store(v);
    }
    /// Racy load of the rear cursor.
    #[inline]
    pub fn rear(&self) -> usize {
        self.rear.load()
    }

    /// Owner-side push; `local_rear` is the owner's cached cursor (kept
    /// outside the queue so the hot loop does not reload shared memory).
    /// Publishes the new rear with a racy store.
    #[inline]
    pub fn push(&self, local_rear: &mut usize, v: VertexId) {
        debug_assert!(*local_rear < self.capacity(), "output queue overflow");
        self.slots.set(*local_rear, encode(v));
        *local_rear += 1;
        self.rear.store(*local_rear);
    }

    /// Reset to empty for reuse as an output queue: clears the previously
    /// used slot range and both cursors. Single-threaded per queue (each
    /// owner resets its own queue at the level barrier).
    pub fn reset(&self) {
        let used = self.rear.load().min(self.capacity());
        for i in 0..used {
            self.slots.set(i, EMPTY_SLOT);
        }
        self.front.store(0);
        self.rear.store(0);
    }

    /// Test/diagnostic helper: current live contents (decoded, in slot
    /// order, skipping cleared slots).
    pub fn snapshot_vertices(&self) -> Vec<VertexId> {
        (0..self.rear.load().min(self.capacity()))
            .filter_map(|i| {
                let s = self.slots.get(i);
                (s != EMPTY_SLOT).then(|| decode(s))
            })
            .collect()
    }
}

/// Bit-per-vertex frontier for the hybrid's bottom-up levels, stored in
/// racy `u32` words so it lives under the same optimistic memory model
/// (and chaos interception) as every other shared structure.
///
/// Ownership protocol per bottom-up level: the driver statically
/// partitions the word range across workers, and each worker **writes
/// only its own words**, whole (single writer per word, no
/// read-modify-write needed): it rebuilds them from the shared `level[]`
/// array ([`level_words`]) or stores the bits it discovered into the
/// next level's bitmap. A level barrier separates every write from the
/// probes that read it, so reads during the bottom-up scan race with
/// nothing.
pub struct FrontierBitmap {
    words: RacyBuf,
    len: usize,
}

/// Bits per bitmap word.
pub const BITMAP_WORD_BITS: usize = 32;

impl FrontierBitmap {
    /// Bitmap covering `len` vertices.
    pub fn new(len: usize) -> Self {
        Self { words: RacyBuf::new(len.div_ceil(BITMAP_WORD_BITS).max(1)), len }
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of `u32` words backing the bitmap.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Racy test of vertex `v`'s bit.
    #[inline]
    pub fn test(&self, v: usize) -> bool {
        debug_assert!(v < self.len);
        self.words.get(v / BITMAP_WORD_BITS) >> (v % BITMAP_WORD_BITS) & 1 == 1
    }

    /// Store a whole word (the single-writer fill path).
    #[inline]
    pub fn set_word(&self, wi: usize, bits: u32) {
        self.words.set(wi, bits);
    }

    /// Racy read of a whole word.
    #[inline]
    pub fn word(&self, wi: usize) -> u32 {
        self.words.get(wi)
    }

    /// Test/diagnostic helper: the set bits as vertex ids, ascending.
    pub fn snapshot_ones(&self) -> Vec<usize> {
        (0..self.len).filter(|&v| self.test(v)).collect()
    }
}

/// Word `wi` of the frontier and visited bitmaps of `levels` (one
/// `level[]` slot per vertex), as `(front, visited)`: bit `b` of `front`
/// is set iff slot `wi * BITMAP_WORD_BITS + b` holds `level`, and of
/// `visited` iff it is not [`UNVISITED`]. Bits past the last vertex are
/// clear in `front` and set in `visited`, so a candidate scan of
/// `!visited` never yields a vertex `>= n`.
///
/// Each bit is ORed in from a comparison, never behind an `if`: on a
/// dense level a per-bit branch mispredicts about as often as it is
/// taken. The one refill of the hybrid's bitmaps and of the compaction
/// bitmap.
#[inline]
pub fn level_words(levels: &RacyBuf, wi: usize, level: u32) -> (u32, u32) {
    let n = levels.len();
    let base = wi * BITMAP_WORD_BITS;
    let lim = BITMAP_WORD_BITS.min(n - base.min(n));
    let mut front = 0u32;
    let mut visited = if lim == BITMAP_WORD_BITS { 0 } else { !0u32 << lim };
    for (b, slot) in levels.row(base, lim).iter().enumerate() {
        let l = slot.load();
        front |= u32::from(l == level) << b;
        visited |= u32::from(l != UNVISITED) << b;
    }
    (front, visited)
}

/// The `Qin[p]` / `Qout[p]` array of queues.
pub struct QueueSet {
    queues: Vec<FrontierQueue>,
}

impl QueueSet {
    /// One queue per thread, each of the given capacity.
    pub fn new(threads: usize, capacity: usize) -> Self {
        Self { queues: (0..threads).map(|_| FrontierQueue::new(capacity)).collect() }
    }

    /// Number of queues (= worker count).
    #[inline]
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// True when the set holds no queues.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// The `i`-th queue.
    #[inline]
    pub fn queue(&self, i: usize) -> &FrontierQueue {
        &self.queues[i]
    }

    /// Reset every queue ([`FrontierQueue::reset`]: only the used slot
    /// range is cleared).
    pub fn reset(&self) {
        for q in &self.queues {
            q.reset();
        }
    }

    /// Sum of rears — the frontier size if no duplicates were pushed.
    pub fn total_entries(&self) -> usize {
        self.queues.iter().map(|q| q.rear()).sum()
    }
}

/// Shared per-thread segment descriptor for the work-stealing variants:
/// `(q, f, r)` — queue id, front, rear of the segment the thread is
/// working on. Thieves read all three and write `r` (lock-free) under the
/// optimistic protocol; the owner advances `f` as it consumes.
pub struct SegmentDesc {
    /// Queue id of the segment.
    pub q: RacyUsize,
    /// Front cursor (owner-advanced).
    pub f: RacyUsize,
    /// Rear bound (thief-shrunk).
    pub r: RacyUsize,
}

impl SegmentDesc {
    /// An all-zero (empty) descriptor.
    pub fn new() -> Self {
        Self { q: RacyUsize::new(0), f: RacyUsize::new(0), r: RacyUsize::new(0) }
    }

    /// Owner-side (re)initialization at level start.
    pub fn set(&self, q: usize, f: usize, r: usize) {
        self.q.store(q);
        self.f.store(f);
        self.r.store(r);
    }

    /// Racy snapshot `(q, f, r)` — the thief's first step. The three
    /// loads are not atomic as a group; the caller must sanity-check.
    ///
    /// This is the one place where the `chaos` backend may *fabricate*
    /// index values (not just replay stale ones): the caller's
    /// `f' < r' ≤ Qin[q'].rear` sanity check is exactly what the paper
    /// relies on to survive a torn snapshot, so an adversarially skewed
    /// `r` exercises it without breaking the no-gap invariant of the
    /// centralized dispatchers (which never see skew). No-op without the
    /// feature or an installed plan.
    pub fn snapshot(&self) -> (usize, usize, usize) {
        (self.q.load(), self.f.load(), obfs_sync::chaos::skew_index(self.r.load()))
    }
}

impl Default for SegmentDesc {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for v in [0u32, 1, 7, u32::MAX - 1] {
            assert_eq!(decode(encode(v)), v);
        }
        assert_ne!(encode(0), EMPTY_SLOT, "vertex 0 must not collide with the sentinel");
    }

    #[test]
    fn push_and_snapshot() {
        let q = FrontierQueue::new(8);
        let mut rear = 0usize;
        q.push(&mut rear, 5);
        q.push(&mut rear, 0);
        q.push(&mut rear, 7);
        assert_eq!(rear, 3);
        assert_eq!(q.rear(), 3);
        assert_eq!(q.snapshot_vertices(), vec![5, 0, 7]);
    }

    #[test]
    fn sentinel_beyond_rear() {
        let q = FrontierQueue::new(4);
        let mut rear = 0usize;
        q.push(&mut rear, 1);
        // The slot at index `rear` must read as the sentinel even when the
        // queue is full.
        assert_eq!(q.slot(rear), EMPTY_SLOT);
        q.push(&mut rear, 2);
        q.push(&mut rear, 3);
        q.push(&mut rear, 4);
        assert_eq!(rear, 4);
        assert_eq!(q.slot(4), EMPTY_SLOT);
    }

    #[test]
    fn clear_then_walk_stops() {
        let q = FrontierQueue::new(4);
        let mut rear = 0usize;
        for v in [10, 11, 12] {
            q.push(&mut rear, v);
        }
        q.clear_slot(1);
        // A consumer walking from 0 reads 10, then hits the cleared slot.
        assert_ne!(q.slot(0), EMPTY_SLOT);
        assert_eq!(q.slot(1), EMPTY_SLOT);
    }

    #[test]
    fn reset_clears_used_range_and_cursors() {
        let q = FrontierQueue::new(6);
        let mut rear = 0usize;
        for v in 0..5 {
            q.push(&mut rear, v);
        }
        q.set_front(3);
        q.reset();
        assert_eq!(q.front(), 0);
        assert_eq!(q.rear(), 0);
        for i in 0..=q.capacity() {
            assert_eq!(q.slot(i), EMPTY_SLOT, "slot {i} not cleared");
        }
    }

    #[test]
    fn queue_set_totals() {
        let qs = QueueSet::new(3, 10);
        assert_eq!(qs.len(), 3);
        assert_eq!(qs.total_entries(), 0);
        let mut r0 = 0;
        qs.queue(0).push(&mut r0, 4);
        let mut r2 = 0;
        qs.queue(2).push(&mut r2, 9);
        qs.queue(2).push(&mut r2, 1);
        assert_eq!(qs.total_entries(), 3);
    }

    #[test]
    fn bitmap_words_and_bits() {
        let b = FrontierBitmap::new(70);
        assert_eq!(b.len(), 70);
        assert_eq!(b.word_count(), 3);
        b.set_word(0, 1 << 5 | 1); // vertices 0 and 5
        b.set_word(2, 1 << 3); // vertex 67
        assert!(b.test(0) && b.test(5) && b.test(67));
        assert!(!b.test(1) && !b.test(64));
        assert_eq!(b.snapshot_ones(), vec![0, 5, 67]);
        b.set_word(0, 0);
        assert_eq!(b.snapshot_ones(), vec![67]);
    }

    #[test]
    fn bitmap_handles_tiny_and_exact_sizes() {
        let b = FrontierBitmap::new(1);
        assert_eq!(b.word_count(), 1);
        b.set_word(0, 1);
        assert!(b.test(0));
        let b = FrontierBitmap::new(64);
        assert_eq!(b.word_count(), 2);
    }

    #[test]
    fn segment_desc_roundtrip() {
        let d = SegmentDesc::new();
        d.set(2, 10, 20);
        assert_eq!(d.snapshot(), (2, 10, 20));
        d.r.store(15);
        assert_eq!(d.snapshot(), (2, 10, 15));
    }
}
