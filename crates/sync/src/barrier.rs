//! A reusable sense-reversing spin barrier for level-synchronous BFS.
//!
//! Parallel BFS is level-synchronized: all workers must finish level `d`
//! before any worker starts level `d+1` (paper §II). `std::sync::Barrier`
//! would work but parks threads through a mutex/condvar; BFS levels on
//! large graphs arrive every few hundred microseconds, so a spin barrier
//! with bounded spinning (then yielding, since this environment
//! oversubscribes cores) is the appropriate substrate.
//!
//! The barrier also carries a serial-section hook: exactly one thread (the
//! last to arrive) runs a closure before the others are released — this is
//! where the BFS swaps `Qin`/`Qout` between levels.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Message carried by the panic a poisoned barrier raises in waiters.
pub const POISON_MSG: &str = "SpinBarrier poisoned: a participant panicked";

/// Reusable sense-reversing barrier for a fixed set of `n` participants.
#[derive(Debug)]
pub struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    sense: AtomicBool,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    /// Barrier for `parties >= 1` threads.
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one participant");
        Self {
            parties,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Number of participating threads.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Poison the barrier: every current and future waiter panics with
    /// [`POISON_MSG`] instead of spinning forever on a participant that
    /// will never arrive. Used by the worker pool when a job panics; the
    /// barrier stays poisoned until [`SpinBarrier::reset`].
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Re-arm the barrier after a poisoned round: no one has arrived and
    /// it is no longer poisoned. `sense` is left as it is, because each
    /// waiter derives its round from the current `sense`.
    ///
    /// Legal only while no thread is inside [`SpinBarrier::wait_then`]:
    /// the worker pool calls it once every worker has returned from the
    /// failed job. A poisoned round may have stopped anywhere (before
    /// some parties arrived, or with all of them arrived and the leader's
    /// serial section unwinding before it flipped `sense`), and either
    /// way the next round starts from zero arrivals.
    pub fn reset(&self) {
        self.arrived.store(0, Ordering::Relaxed);
        self.poisoned.store(false, Ordering::Release);
    }

    /// Wait for all parties. Returns `true` on exactly one thread per
    /// round (the last arriver), mirroring
    /// `std::sync::Barrier::wait().is_leader()`.
    pub fn wait(&self) -> bool {
        self.wait_then(|| {})
    }

    /// Wait for all parties; the last arriver runs `serial` before
    /// releasing the rest. Returns `true` on that thread only.
    ///
    /// The release store on `sense` publishes all memory written by every
    /// participant before the barrier (and by `serial`) to every
    /// participant after it — this is the synchronization point that makes
    /// the intra-level benign races safe across levels.
    ///
    /// # Panics
    ///
    /// Panics with [`POISON_MSG`] if the barrier is (or becomes) poisoned,
    /// so that a panicking participant cannot strand its peers here.
    pub fn wait_then(&self, serial: impl FnOnce()) -> bool {
        // Fault injection: a simulated store buffer must drain before the
        // barrier publishes this thread's writes (no-op without the
        // `chaos` feature or an installed plan).
        crate::chaos::quiesce();
        if self.poisoned.load(Ordering::Acquire) {
            panic!("{POISON_MSG}");
        }
        let my_sense = !self.sense.load(Ordering::Relaxed);
        // AcqRel so that arrivals form a total order and the leader
        // observes every pre-barrier write.
        let pos = self.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if pos == self.parties {
            serial();
            // Publish the leader's serial-section racy stores too.
            crate::chaos::quiesce();
            self.arrived.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != my_sense {
                if self.poisoned.load(Ordering::Acquire) {
                    panic!("{POISON_MSG}");
                }
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                    spins = 0;
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_party_is_always_leader() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    /// Every party of `barrier` runs 200 rounds of two waits. Each thread
    /// increments a per-round counter; after the barrier the counter must
    /// equal the party count, and every wait must have exactly one leader.
    fn rounds_are_separated_on(barrier: &Arc<SpinBarrier>) {
        const ROUNDS: usize = 200;
        let p = barrier.parties();
        let counters: Arc<Vec<AtomicU64>> =
            Arc::new((0..ROUNDS).map(|_| AtomicU64::new(0)).collect());
        let leaders = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..p)
            .map(|_| {
                let (barrier, counters) = (Arc::clone(barrier), Arc::clone(&counters));
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    for (r, c) in counters.iter().enumerate() {
                        c.fetch_add(1, Ordering::Relaxed);
                        let first = barrier.wait();
                        assert_eq!(
                            c.load(Ordering::Relaxed),
                            p as u64,
                            "round {r} not fully synchronized"
                        );
                        let second = barrier.wait();
                        leaders.fetch_add(u64::from(first) + u64::from(second), Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::Relaxed), 2 * ROUNDS as u64, "one leader per wait");
    }

    #[test]
    fn rounds_are_separated() {
        rounds_are_separated_on(&Arc::new(SpinBarrier::new(4)));
    }

    #[test]
    fn serial_section_runs_once_between_rounds() {
        const P: usize = 3;
        const ROUNDS: usize = 50;
        let barrier = Arc::new(SpinBarrier::new(P));
        let serial_runs = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..P)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let serial_runs = Arc::clone(&serial_runs);
                std::thread::spawn(move || {
                    for r in 0..ROUNDS {
                        barrier.wait_then(|| {
                            serial_runs.fetch_add(1, Ordering::Relaxed);
                        });
                        // Every thread must observe the serial effect of
                        // the round it just completed.
                        assert!(serial_runs.load(Ordering::Relaxed) >= (r + 1) as u64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(serial_runs.load(Ordering::Relaxed), ROUNDS as u64);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_parties_panics() {
        let _ = SpinBarrier::new(0);
    }

    /// A poisoned barrier releases already-spinning waiters (by panic)
    /// instead of stranding them — the deadlock the worker pool used to
    /// exhibit when a job panicked.
    #[test]
    fn poison_releases_spinning_waiters() {
        let barrier = Arc::new(SpinBarrier::new(2));
        let waiter = {
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || b.wait())
        };
        // Give the waiter time to start spinning, then poison instead of
        // arriving (simulating a peer that panicked before the barrier).
        std::thread::sleep(std::time::Duration::from_millis(20));
        barrier.poison();
        let err = waiter.join().expect_err("waiter must panic out of a poisoned barrier");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("poisoned"), "unexpected panic payload: {msg:?}");
    }

    /// A reset barrier works again after either way a round can be
    /// poisoned: with some parties still to arrive, and with every party
    /// arrived but the leader's serial section panicking before it
    /// released the round.
    #[test]
    fn reset_rearms_a_poisoned_barrier() {
        const P: usize = 4;
        let barrier = Arc::new(SpinBarrier::new(P));
        // Three of four arrive; the fourth "panics" instead.
        let waiters: Vec<_> = (0..P - 1)
            .map(|_| {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || b.wait())
            })
            .collect();
        while barrier.arrived.load(Ordering::Acquire) < P - 1 {
            std::thread::yield_now();
        }
        barrier.poison();
        for w in waiters {
            assert!(w.join().is_err(), "a waiter must panic out of the poisoned round");
        }
        barrier.reset();
        rounds_are_separated_on(&barrier);
        // Every party arrives; the leader's serial section panics.
        let arrivals: Vec<_> = (0..P)
            .map(|_| {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let leader_panic =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            b.wait_then(|| panic!("leader failure"))
                        }));
                    if leader_panic.is_err() {
                        b.poison();
                    }
                    leader_panic.is_err()
                })
            })
            .collect();
        let panicked = arrivals.into_iter().map(|h| h.join().unwrap()).filter(|&p| p).count();
        assert_eq!(panicked, P, "the leader panics and its peers unwind out of the round");
        barrier.reset();
        rounds_are_separated_on(&barrier);
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn wait_on_poisoned_barrier_panics_immediately() {
        let b = SpinBarrier::new(1);
        b.poison();
        b.wait();
    }
}
