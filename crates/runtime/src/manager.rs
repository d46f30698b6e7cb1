//! Pool lifecycle management: automatic rebuild after worker panics.
//!
//! A [`crate::LevelPool`] is deliberately single-use after a worker
//! panic — a half-executed level loop leaves algorithm state
//! unrecoverable, so the pool poisons itself and every later
//! [`crate::LevelPool::run`] fails fast. That is the right contract for
//! one traversal, but a long-lived query engine must survive a
//! poisoned pool: [`PoolManager`] wraps a pool and transparently
//! replaces it the next time one is requested, counting each
//! replacement so the engine can surface `pool_rebuilds` in its stats.
//!
//! The manager is deliberately lock-free *by ownership*: it is designed
//! to be owned by a single scheduler thread (`&mut self` everywhere),
//! so it needs no internal synchronization at all.

use crate::pool::LevelPool;

/// Owns a [`LevelPool`] and rebuilds it automatically once poisoned.
pub struct PoolManager {
    threads: usize,
    pool: LevelPool,
    rebuilds: u64,
}

impl PoolManager {
    /// Build a manager owning a fresh pool of `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self { threads, pool: LevelPool::new(threads), rebuilds: 0 }
    }

    /// The worker count every managed pool is built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A usable pool: the current one if healthy, otherwise a fresh
    /// replacement (the poisoned pool is dropped, which joins its
    /// surviving workers). Rebuilding is counted in
    /// [`PoolManager::rebuilds`].
    pub fn pool(&mut self) -> &LevelPool {
        if self.pool.is_poisoned() {
            self.pool = LevelPool::new(self.threads);
            self.rebuilds += 1;
        }
        &self.pool
    }

    /// How many times a poisoned pool has been replaced.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolError;

    #[test]
    fn healthy_pool_is_reused_without_rebuilds() {
        let mut pm = PoolManager::new(3);
        assert_eq!(pm.threads(), 3);
        for _ in 0..5 {
            pm.pool().run(|_| {}).unwrap();
        }
        assert_eq!(pm.rebuilds(), 0);
    }

    #[test]
    fn poisoned_pool_is_rebuilt_on_next_request() {
        let mut pm = PoolManager::new(4);
        let err = pm
            .pool()
            .run(|ctx| {
                if ctx.tid() == 1 {
                    panic!("injected");
                }
                ctx.barrier().wait();
            })
            .expect_err("panic must surface");
        assert!(matches!(err, PoolError::WorkerPanicked { tid: 1, .. }));
        // The next request transparently hands out a working pool.
        pm.pool().run(|ctx| assert_eq!(ctx.threads(), 4)).unwrap();
        assert_eq!(pm.rebuilds(), 1);
        // A healthy pool is never replaced again.
        pm.pool().run(|_| {}).unwrap();
        assert_eq!(pm.rebuilds(), 1);
    }

    #[test]
    fn rebuilt_pool_starts_with_an_empty_slot() {
        let mut pm = PoolManager::new(2);
        pm.pool().park(5u32);
        let _ = pm.pool().run(|_| panic!("boom"));
        assert_eq!(pm.pool().take_parked::<u32>(), None);
        assert_eq!(pm.rebuilds(), 1);
    }

    #[test]
    fn each_poisoning_counts_once() {
        let mut pm = PoolManager::new(2);
        for round in 1..=3u64 {
            let _ = pm.pool().run(|_| panic!("boom"));
            pm.pool().run(|_| {}).unwrap();
            assert_eq!(pm.rebuilds(), round);
        }
    }
}
