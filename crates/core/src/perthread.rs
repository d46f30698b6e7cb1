//! Per-thread mutable slots without synchronization.
//!
//! BFS workers accumulate private state (counters, hub lists, local
//! cursors) that only the owning thread touches during a run and that the
//! coordinator reads after all workers have finished. [`PerThread`]
//! expresses that discipline: interior mutability indexed by thread id,
//! cache-padded to avoid false sharing.

use obfs_sync::CachePadded;
use std::cell::UnsafeCell;

/// `threads` independently owned `T` slots.
pub struct PerThread<T> {
    slots: Box<[CachePadded<UnsafeCell<T>>]>,
}

// SAFETY: slots are only accessed mutably through `get_mut(tid)` whose
// contract requires exclusive use per tid; the type is as thread-safe as
// sending `T` itself.
unsafe impl<T: Send> Sync for PerThread<T> {}
// SAFETY: moving the container moves the owned `T`s — same bound.
unsafe impl<T: Send> Send for PerThread<T> {}

impl<T> PerThread<T> {
    /// One slot per thread, built with `init(tid)`.
    pub fn new(threads: usize, mut init: impl FnMut(usize) -> T) -> Self {
        let slots = (0..threads)
            .map(|t| CachePadded::new(UnsafeCell::new(init(t))))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self { slots }
    }

    /// Number of slots (= worker count).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Mutable access to thread `tid`'s slot.
    ///
    /// # Safety
    /// Only thread `tid` may call this while a parallel region is active,
    /// and it must not create two live references to the same slot.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn get_mut(&self, tid: usize) -> &mut T {
        &mut *self.slots[tid].get()
    }

    /// Shared read of thread `tid`'s slot.
    ///
    /// # Safety
    /// No `&mut` to the same slot may be live (i.e. call only outside
    /// parallel regions, or for a tid that is quiescent).
    #[inline]
    pub unsafe fn get(&self, tid: usize) -> &T {
        &*self.slots[tid].get()
    }

    /// Exclusive iteration once all workers are done (requires `&mut`,
    /// so the borrow checker enforces quiescence).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        // SAFETY: `&mut self` proves no worker holds a slot reference.
        self.slots.iter_mut().map(|c| unsafe { &mut *c.get() })
    }

    /// Consume into the inner values.
    pub fn into_values(self) -> Vec<T> {
        self.slots.into_vec().into_iter().map(|c| c.into_inner().into_inner()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn init_per_slot() {
        let pt = PerThread::new(4, |t| t * 10);
        assert_eq!(pt.len(), 4);
        for t in 0..4 {
            // SAFETY: single-threaded test, no concurrent writers.
            assert_eq!(unsafe { *pt.get(t) }, t * 10);
        }
    }

    #[test]
    fn concurrent_disjoint_mutation() {
        let pt = Arc::new(PerThread::new(8, |_| 0u64));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let pt = Arc::clone(&pt);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        // SAFETY: each thread touches only its own slot.
                        unsafe {
                            *pt.get_mut(t) += 1;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let pt = Arc::try_unwrap(pt).ok().unwrap();
        for v in pt.into_values() {
            assert_eq!(v, 10_000);
        }
    }

    #[test]
    fn iter_mut_sees_all() {
        let mut pt = PerThread::new(3, |t| t as u32);
        for v in pt.iter_mut() {
            *v += 100;
        }
        assert_eq!(pt.into_values(), vec![100, 101, 102]);
    }
}
