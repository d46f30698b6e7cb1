//! Racy shared cells: plain unsynchronized loads and stores.
//!
//! These types model the paper's unprotected shared queue indices. Every
//! cell is a relaxed atomic, whose loads and stores compile to plain
//! `mov`s: no lock prefix, no read-modify-write, no fence. There is
//! deliberately **no** `fetch_add`, `compare_exchange`, or any other RMW
//! in this module. A thread that wants "increment" must do
//! `load; store(x + s)` and live with the race — that *is* the algorithm.
//! The crate docs say why relaxed atomics are the paper's plain accesses.
//!
//! With `--features chaos` every load/store also goes through the
//! thread's [`crate::chaos`] fault plan (a cheap thread-local check when
//! no plan is installed; compiled out entirely without the feature).

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// A shared 64-bit cell accessed with plain (relaxed) loads/stores.
///
/// The storage type behind per-vertex query-membership words in the
/// batched multi-source BFS: a "visited-by" word is OR-updated with
/// `load; store(v | bits)` — deliberately no `fetch_or`, so racing
/// updates can lose bits. Racing consumers treat the word as an
/// under-approximation and revalidate against the per-query level
/// rows, the same optimistic discipline as the queue cursors; phases
/// with one writer per word re-derive it exactly and keep it so.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct RacyU64(AtomicU64);

impl RacyU64 {
    /// A cell holding `v`.
    #[inline]
    pub const fn new(v: u64) -> Self {
        Self(AtomicU64::new(v))
    }
    /// Plain racy load.
    #[inline]
    pub fn load(&self) -> u64 {
        #[cfg(feature = "chaos")]
        if let Some(v) = crate::chaos::hooks::load_u64(&self.0) {
            return v;
        }
        self.0.load(Relaxed)
    }
    /// Plain racy store.
    #[inline]
    pub fn store(&self, v: u64) {
        #[cfg(feature = "chaos")]
        if crate::chaos::hooks::store_u64(&self.0, v) {
            return;
        }
        self.0.store(v, Relaxed)
    }
}

/// A shared 32-bit cell accessed with plain (relaxed) loads/stores.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct RacyU32(AtomicU32);

impl RacyU32 {
    /// A cell holding `v`.
    #[inline]
    pub const fn new(v: u32) -> Self {
        Self(AtomicU32::new(v))
    }
    /// Plain racy load.
    #[inline]
    pub fn load(&self) -> u32 {
        #[cfg(feature = "chaos")]
        if let Some(v) = crate::chaos::hooks::load_u32(&self.0) {
            return v;
        }
        self.0.load(Relaxed)
    }
    /// Plain racy store.
    #[inline]
    pub fn store(&self, v: u32) {
        #[cfg(feature = "chaos")]
        if crate::chaos::hooks::store_u32(&self.0, v) {
            return;
        }
        self.0.store(v, Relaxed)
    }
}

/// A shared word-size cell accessed with plain (relaxed) loads/stores.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct RacyUsize(AtomicUsize);

impl RacyUsize {
    /// A cell holding `v`.
    #[inline]
    pub const fn new(v: usize) -> Self {
        Self(AtomicUsize::new(v))
    }
    /// Plain racy load.
    #[inline]
    pub fn load(&self) -> usize {
        #[cfg(feature = "chaos")]
        if let Some(v) = crate::chaos::hooks::load_usize(&self.0) {
            return v;
        }
        self.0.load(Relaxed)
    }
    /// Plain racy store.
    #[inline]
    pub fn store(&self, v: usize) {
        #[cfg(feature = "chaos")]
        if crate::chaos::hooks::store_usize(&self.0, v) {
            return;
        }
        self.0.store(v, Relaxed)
    }
}

// `RacyBuf::new` and `RacyBuf64::new` reuse zeroed integer allocations
// as cells, which needs each cell aligned like its integer; a target
// where they differ fails to build instead.
const _: () = assert!(
    std::mem::align_of::<RacyU32>() == std::mem::align_of::<u32>()
        && std::mem::align_of::<RacyU64>() == std::mem::align_of::<u64>()
);

/// A shared buffer of racy `u32` slots.
///
/// This is the storage type behind every BFS queue (`Qin[i]` / `Qout[i]`)
/// and behind the shared `level[]` array. Indexing is bounds-checked in
/// debug builds via the underlying slice access.
#[derive(Debug, Default)]
pub struct RacyBuf {
    slots: Box<[RacyU32]>,
}

impl RacyBuf {
    /// A zero-filled buffer of `len` slots, from zeroed memory: no pass
    /// writes the slots here, so their pages are first touched by
    /// whoever writes them next (a pool's parallel `init_chunk`).
    pub fn new(len: usize) -> Self {
        let zeros = vec![0u32; len].into_boxed_slice();
        // SAFETY: `RacyU32` is `repr(transparent)` over `AtomicU32`,
        // documented to have the size and bit validity of `u32`, and the
        // const assertion above checks the alignment; so the zeroed `[u32]`
        // allocation is a valid `[RacyU32]` of zero cells with the same
        // layout, and ownership passes from one box to the other.
        let slots = unsafe { Box::from_raw(Box::into_raw(zeros) as *mut [RacyU32]) };
        Self { slots }
    }

    /// A buffer filled with `value`.
    pub fn filled(len: usize, value: u32) -> Self {
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, || RacyU32::new(value));
        Self { slots: v.into_boxed_slice() }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when there are no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Plain racy load of slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.slots[i].load()
    }

    /// Plain racy store to slot `i`.
    #[inline]
    pub fn set(&self, i: usize, v: u32) {
        self.slots[i].store(v)
    }

    /// Borrow `len` consecutive slots starting at `start` (one bounds
    /// check for a whole row — the batched-BFS per-vertex level rows are
    /// scanned on every frontier pop, where per-slot indexing costs).
    #[inline]
    pub fn row(&self, start: usize, len: usize) -> &[RacyU32] {
        &self.slots[start..start + len]
    }

    /// Overwrite every slot with `value` (single-threaded reset path).
    pub fn fill(&self, value: u32) {
        for s in self.slots.iter() {
            s.store(value);
        }
    }

    /// Copy the buffer into a plain vector (test/diagnostic helper).
    pub fn snapshot(&self) -> Vec<u32> {
        self.slots.iter().map(|s| s.load()).collect()
    }
}

/// A shared buffer of racy `u64` slots.
///
/// The storage type behind batched-BFS per-vertex words: `visited_by[v]`
/// (which queries have claimed `v`) and the per-level bottom-up frontier
/// words. Same access discipline as [`RacyBuf`], one word per vertex.
#[derive(Debug, Default)]
pub struct RacyBuf64 {
    slots: Box<[RacyU64]>,
}

impl RacyBuf64 {
    /// A zero-filled buffer of `len` slots, from zeroed memory (see
    /// [`RacyBuf::new`]).
    pub fn new(len: usize) -> Self {
        let zeros = vec![0u64; len].into_boxed_slice();
        // SAFETY: `RacyU64` is `repr(transparent)` over `AtomicU64`, with
        // the size and bit validity of `u64`, and the const assertion above
        // `RacyBuf` checks the alignment (`AtomicU64` is 8-aligned even
        // where `u64` is not) — the same argument as `RacyBuf::new`.
        let slots = unsafe { Box::from_raw(Box::into_raw(zeros) as *mut [RacyU64]) };
        Self { slots }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when there are no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Plain racy load of slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.slots[i].load()
    }

    /// Plain racy store to slot `i`.
    #[inline]
    pub fn set(&self, i: usize, v: u64) {
        self.slots[i].store(v)
    }

    /// Overwrite every slot with `value` (single-threaded reset path).
    pub fn fill(&self, value: u64) {
        for s in self.slots.iter() {
            s.store(value);
        }
    }

    /// Copy the buffer into a plain vector (test/diagnostic helper).
    pub fn snapshot(&self) -> Vec<u64> {
        self.slots.iter().map(|s| s.load()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cell64_roundtrip() {
        let c = RacyU64::new(1 << 63);
        assert_eq!(c.load(), 1 << 63);
        c.store(u64::MAX);
        assert_eq!(c.load(), u64::MAX);
        let b = RacyBuf64::new(3);
        assert!(!b.is_empty());
        assert_eq!(b.len(), 3);
        b.set(1, 0xDEAD_BEEF_DEAD_BEEF);
        assert_eq!(b.get(1), 0xDEAD_BEEF_DEAD_BEEF);
        b.fill(7);
        assert_eq!(b.snapshot(), vec![7; 3]);
    }

    #[test]
    fn cell_roundtrip() {
        let c = RacyU32::new(7);
        assert_eq!(c.load(), 7);
        c.store(42);
        assert_eq!(c.load(), 42);
        let u = RacyUsize::new(1);
        u.store(usize::MAX);
        assert_eq!(u.load(), usize::MAX);
    }

    #[test]
    fn buf_basic_ops() {
        let b = RacyBuf::new(4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.snapshot(), vec![0; 4]);
        b.set(2, 9);
        assert_eq!(b.get(2), 9);
        b.fill(3);
        assert_eq!(b.snapshot(), vec![3; 4]);
        let f = RacyBuf::filled(3, 11);
        assert_eq!(f.snapshot(), vec![11; 3]);
    }

    /// A large buffer comes from zeroed memory rather than a fill pass;
    /// every slot must still read zero.
    #[test]
    fn large_new_buffers_read_zero() {
        let len = 1 << 22;
        let b = RacyBuf::new(len);
        assert_eq!(b.len(), len);
        assert!(b.snapshot().iter().all(|&x| x == 0));
        let b64 = RacyBuf64::new(len);
        assert_eq!(b64.len(), len);
        assert!(b64.snapshot().iter().all(|&x| x == 0));
        b64.set(len - 1, u64::MAX);
        assert_eq!(b64.get(len - 1), u64::MAX);
    }

    #[test]
    fn empty_buf() {
        let b = RacyBuf::new(0);
        assert!(b.is_empty());
        assert_eq!(b.snapshot(), Vec::<u32>::new());
    }

    /// Concurrent same-value stores (the benign-race pattern of the BFS
    /// `level[]` array): after all threads store the same value, the cell
    /// must hold it.
    #[test]
    fn concurrent_idempotent_stores() {
        let buf = Arc::new(RacyBuf::new(1024));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = Arc::clone(&buf);
            handles.push(std::thread::spawn(move || {
                for i in 0..b.len() {
                    b.set(i, (i as u32).wrapping_mul(2654435761));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..buf.len() {
            assert_eq!(buf.get(i), (i as u32).wrapping_mul(2654435761));
        }
    }

    /// A reader racing a writer observes only values that were written
    /// (no tearing, no out-of-thin-air values) — the property the
    /// optimistic dispatcher relies on when validating segments.
    #[test]
    fn no_tearing_under_race() {
        let cell = Arc::new(RacyU32::new(0xAAAA_AAAA));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let c = Arc::clone(&cell);
            let s = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut flip = false;
                while !s.load(std::sync::atomic::Ordering::Relaxed) {
                    c.store(if flip { 0xAAAA_AAAA } else { 0x5555_5555 });
                    flip = !flip;
                }
            })
        };
        for _ in 0..100_000 {
            let v = cell.load();
            assert!(v == 0xAAAA_AAAA || v == 0x5555_5555, "torn read: {v:#x}");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
    }
}
