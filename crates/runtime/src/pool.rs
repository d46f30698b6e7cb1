//! Persistent level-synchronous worker pool.
//!
//! A [`LevelPool`] owns `p` OS threads for its whole lifetime. Each call to
//! [`LevelPool::run`] hands every worker the same closure (called with a
//! [`WorkerCtx`] carrying the worker id and a shared [`SpinBarrier`]) and
//! blocks until all workers return. BFS algorithms implement their level
//! loop *inside* the closure, using `ctx.barrier()` between levels — this
//! matches the paper's structure where worker threads live across all BFS
//! levels and only synchronize at level boundaries.
//!
//! Between `run` calls the workers sleep on a condvar (no idle spinning),
//! so pools can be kept alive across an entire benchmark suite.
//!
//! # Panic safety
//!
//! A panic costs one run, not the pool, as in
//! [`crate::forkjoin::ForkJoinPool`]. Every worker invocation runs under
//! `catch_unwind`; the first panic poisons the pool's barrier (releasing
//! any spinning peers, which unwind in turn and are also caught) and
//! [`LevelPool::run`] returns [`PoolError::WorkerPanicked`] instead of
//! deadlocking. Once every worker is back, `run` re-arms the barrier
//! ([`SpinBarrier::reset`]), so the next job runs on the same `p` threads.
//! What the failed job left behind is the caller's: a half-executed level
//! loop leaves its algorithm state in no known condition, so the BFS
//! driver drops the run's buffers on error. Thread-local state a closure
//! installs is the closure's to remove, on unwind too (the BFS driver's
//! chaos plan comes off when its `obfs_sync::chaos::PlanGuard` drops).
//!
//! # Parked state
//!
//! A pool also owns one type-erased slot ([`LevelPool::park`] /
//! [`LevelPool::take_parked`]) where a caller can leave state between
//! runs — the BFS driver parks its n-sized run buffers there, so
//! repeated traversals on one pool stop allocating them. The slot is
//! touched once before and once after a run, never by the workers. A run
//! in which a worker panicked empties it, so state from around a failed
//! run never outlives it; the next `park` fills it again.

use obfs_sync::SpinBarrier;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Why a [`LevelPool::run`] call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A worker closure panicked during this run; `message` is the
    /// stringified payload of the first panic observed.
    WorkerPanicked {
        /// Worker id whose closure panicked first.
        tid: usize,
        /// Stringified panic payload.
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked { tid, message } => {
                write!(f, "worker {tid} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Type-erased pointer to the caller's closure. Valid only while the
/// `run` call that published it is still blocked waiting for workers.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn for<'a> Fn(WorkerCtx<'a>) + Sync));

// SAFETY: the pointee is `Sync` (asserted at creation in `run`) and the
// pointer is only dereferenced while the publishing `run` call keeps the
// referent alive.
unsafe impl Send for JobPtr {}

struct State {
    job: Option<JobPtr>,
    /// Bumped once per `run` call; workers use it to detect fresh work.
    generation: u64,
    /// Workers still executing the current job.
    active: usize,
    shutdown: bool,
    /// First worker panic of the current run (tid, stringified payload).
    panic: Option<(usize, String)>,
    /// Caller state left between runs (see [`LevelPool::park`]).
    parked: Option<Box<dyn Any + Send>>,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    work_done: Condvar,
    barrier: SpinBarrier,
    threads: usize,
}

impl Shared {
    /// Lock the state, recovering from std mutex poisoning (our own
    /// invariants never depend on it: the lock is only held for short
    /// non-panicking critical sections).
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Per-invocation context handed to the worker closure.
pub struct WorkerCtx<'a> {
    tid: usize,
    shared: &'a Shared,
}

impl WorkerCtx<'_> {
    /// This worker's id in `[0, threads)`.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Total number of workers in the pool.
    #[inline]
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// The pool-wide reusable barrier (all workers participate).
    #[inline]
    pub fn barrier(&self) -> &SpinBarrier {
        &self.shared.barrier
    }
}

/// A persistent pool of `p` worker threads for level-synchronous
/// algorithms.
pub struct LevelPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl LevelPool {
    /// Spawn a pool with `threads >= 1` workers.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                generation: 0,
                active: 0,
                shutdown: false,
                panic: None,
                parked: None,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            barrier: SpinBarrier::new(threads),
            threads,
        });
        let handles = (0..threads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("obfs-worker-{tid}"))
                    .spawn(move || worker_loop(tid, &shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Run `f` once on every worker (as `f(ctx)` with distinct
    /// `ctx.tid()`), blocking until all invocations return.
    ///
    /// If any worker closure panics, the pool's barrier is poisoned so
    /// peers cannot be stranded, every worker unwinds and is caught, and
    /// this returns [`PoolError::WorkerPanicked`] carrying the first
    /// panic's payload. The parked slot is emptied and the barrier
    /// re-armed, so the next call runs on the same workers.
    pub fn run<F>(&self, f: F) -> Result<(), PoolError>
    where
        F: Fn(WorkerCtx<'_>) + Sync,
    {
        let local: &(dyn for<'a> Fn(WorkerCtx<'a>) + Sync) = &f;
        // Erase the closure's lifetime. SAFETY: we block below until every
        // worker has finished running `f`, so the referent outlives all
        // uses; `F: Sync` makes concurrent invocation sound.
        let job = JobPtr(unsafe {
            std::mem::transmute::<
                &(dyn for<'a> Fn(WorkerCtx<'a>) + Sync),
                *const (dyn for<'a> Fn(WorkerCtx<'a>) + Sync),
            >(local)
        });
        let mut st = self.shared.lock_state();
        debug_assert!(st.active == 0 && st.job.is_none(), "run() is not reentrant");
        st.job = Some(job);
        st.generation += 1;
        st.active = self.shared.threads;
        self.shared.work_ready.notify_all();
        while st.active != 0 {
            st = self.shared.work_done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        match st.panic.take() {
            Some((tid, message)) => {
                st.parked = None;
                // No worker is inside the barrier (`active` is 0), so the
                // poisoned round can be re-armed for the next run.
                self.shared.barrier.reset();
                Err(PoolError::WorkerPanicked { tid, message })
            }
            None => Ok(()),
        }
    }

    /// Leave `value` in the pool's one slot until the next
    /// [`LevelPool::take_parked`], replacing whatever was parked before.
    pub fn park<T: Any + Send>(&self, value: T) {
        let mut st = self.shared.lock_state();
        let old = st.parked.replace(Box::new(value));
        drop(st);
        // Free the replaced value outside the state lock.
        drop(old);
    }

    /// Take the parked value if it is a `T`. `None` when the slot is
    /// empty or holds another type (which then stays parked).
    pub fn take_parked<T: Any + Send>(&self) -> Option<T> {
        let mut st = self.shared.lock_state();
        if !st.parked.as_ref().is_some_and(|b| b.is::<T>()) {
            return None;
        }
        st.parked.take().and_then(|b| b.downcast::<T>().ok()).map(|b| *b)
    }
}

impl Drop for LevelPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Stringify a caught panic payload.
fn payload_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload.downcast_ref::<String>().cloned().unwrap_or_else(|| "<non-string panic>".into())
    }
}

fn worker_loop(tid: usize, shared: &Shared) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut st = shared.lock_state();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen_generation {
                    seen_generation = st.generation;
                    break st.job.expect("generation bumped without a job");
                }
                st = shared.work_ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: the publishing `run` call blocks until we decrement
        // `active` below, keeping the closure alive.
        let f = unsafe { &*job.0 };
        let outcome = catch_unwind(AssertUnwindSafe(|| f(WorkerCtx { tid, shared })));
        if let Err(payload) = outcome {
            let message = payload_msg(payload.as_ref());
            {
                let mut st = shared.lock_state();
                // Keep the first panic. It is the originating one: a
                // worker records before it poisons the barrier, and the
                // cascade it induces in peers comes after.
                if st.panic.is_none() {
                    st.panic = Some((tid, message));
                }
            }
            // Release peers spinning at the barrier; they unwind with
            // `POISON_MSG` and land in this same handler.
            shared.barrier.poison();
        }
        let mut st = shared.lock_state();
        st.active -= 1;
        if st.active == 0 {
            shared.work_done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn every_worker_runs_once_with_distinct_tid() {
        let pool = LevelPool::new(4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        pool.run(|ctx| {
            assert_eq!(ctx.threads(), 4);
            hits[ctx.tid()].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn sequential_runs_reuse_workers() {
        let pool = LevelPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn run_borrows_stack_data() {
        let pool = LevelPool::new(2);
        let data = [1u64, 2, 3, 4];
        let sum = AtomicUsize::new(0);
        pool.run(|ctx| {
            // Workers read stack-borrowed data from the caller's frame.
            let mine: u64 = data.iter().skip(ctx.tid()).step_by(2).sum();
            sum.fetch_add(mine as usize, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn barrier_synchronizes_levels() {
        // Classic level test: all workers must see every other worker's
        // level-d write after the barrier.
        let pool = LevelPool::new(4);
        let levels = 20;
        let board: Vec<AtomicUsize> = (0..levels).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|ctx| {
            for (l, slot) in board.iter().enumerate() {
                slot.fetch_add(1, Ordering::Relaxed);
                ctx.barrier().wait();
                assert_eq!(slot.load(Ordering::Relaxed), 4, "level {l} desynchronized");
                ctx.barrier().wait();
            }
        })
        .unwrap();
    }

    #[test]
    fn single_worker_pool() {
        let pool = LevelPool::new(1);
        pool.run(|ctx| {
            assert_eq!(ctx.tid(), 0);
            ctx.barrier().wait(); // must not deadlock
        })
        .unwrap();
        pool.run(|_| {}).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = LevelPool::new(0);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = LevelPool::new(8);
        pool.run(|_| {}).unwrap();
        drop(pool); // must not hang
    }

    #[test]
    fn many_threads_oversubscribed() {
        // More workers than cores: the pool must still make progress.
        let pool = LevelPool::new(32);
        let counter = AtomicUsize::new(0);
        pool.run(|ctx| {
            counter.fetch_add(ctx.tid() + 1, Ordering::Relaxed);
            ctx.barrier().wait();
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 32 * 33 / 2);
    }

    /// Each worker's OS thread id, by tid.
    fn worker_ids(pool: &LevelPool) -> Vec<ThreadId> {
        let ids = Mutex::new(vec![None; pool.threads()]);
        pool.run(|ctx| ids.lock().unwrap()[ctx.tid()] = Some(std::thread::current().id())).unwrap();
        ids.into_inner().unwrap().into_iter().map(|id| id.expect("every worker ran")).collect()
    }

    /// Run `job`, which must panic, on a fresh pool of `p` workers, and
    /// return the error. Then the same pool, on the same OS threads,
    /// must run 50 barrier rounds, each with one leader and with every
    /// worker's pre-barrier write visible to all of them after it.
    fn panic_then_recover<F>(p: usize, job: F) -> PoolError
    where
        F: Fn(WorkerCtx<'_>) + Sync,
    {
        const ROUNDS: usize = 50;
        let pool = LevelPool::new(p);
        let before = worker_ids(&pool);
        let err = pool.run(job).expect_err("a worker panic must surface as PoolError");
        let board: Vec<AtomicUsize> = (0..ROUNDS).map(|_| AtomicUsize::new(0)).collect();
        let leaders = AtomicUsize::new(0);
        pool.run(|ctx| {
            for (r, slot) in board.iter().enumerate() {
                slot.fetch_add(1, Ordering::Relaxed);
                if ctx.barrier().wait() {
                    leaders.fetch_add(1, Ordering::Relaxed);
                }
                assert_eq!(slot.load(Ordering::Relaxed), p, "round {r} desynchronized");
            }
        })
        .expect("the pool runs the next job after a panic");
        assert_eq!(leaders.load(Ordering::Relaxed), ROUNDS, "one leader per round");
        assert_eq!(worker_ids(&pool), before, "the same threads run the next job");
        err
    }

    /// A panic in one worker while its peers spin at the barrier must
    /// surface as an error, not strand them (`cargo test` would time
    /// out if it hung).
    #[test]
    fn panic_while_peers_spin_at_the_barrier_recovers() {
        let PoolError::WorkerPanicked { tid, message } = panic_then_recover(4, |ctx| {
            if ctx.tid() == 2 {
                panic!("injected worker failure");
            }
            ctx.barrier().wait();
        });
        assert_eq!(tid, 2);
        assert!(message.contains("injected worker failure"), "got: {message:?}");
    }

    /// Every party has arrived and the leader's serial section panics
    /// before it releases the round.
    #[test]
    fn panic_in_the_leaders_serial_section_recovers() {
        let PoolError::WorkerPanicked { message, .. } = panic_then_recover(4, |ctx| {
            ctx.barrier().wait_then(|| panic!("leader failure"));
        });
        assert!(message.contains("leader failure"), "got: {message:?}");
    }

    /// Panics on every worker at once (no barrier involved) drain
    /// cleanly and report one of them.
    #[test]
    fn panic_on_every_worker_recovers() {
        let PoolError::WorkerPanicked { message, .. } = panic_then_recover(8, |_| panic!("boom"));
        assert!(message.contains("boom"), "got: {message:?}");
    }

    /// A panic after completed barrier rounds.
    #[test]
    fn panic_after_two_barrier_rounds_recovers() {
        let PoolError::WorkerPanicked { tid, message } = panic_then_recover(4, |ctx| {
            ctx.barrier().wait();
            ctx.barrier().wait();
            if ctx.tid() == 0 {
                panic!("late failure");
            }
            ctx.barrier().wait();
        });
        assert_eq!(tid, 0);
        assert!(message.contains("late failure"), "got: {message:?}");
    }

    #[test]
    fn parked_value_round_trips_by_type() {
        let pool = LevelPool::new(2);
        assert_eq!(pool.take_parked::<Vec<u32>>(), None, "a new pool starts empty");
        pool.park(vec![1u32, 2, 3]);
        assert_eq!(pool.take_parked::<String>(), None, "wrong type gives None");
        assert_eq!(pool.take_parked::<Vec<u32>>(), Some(vec![1, 2, 3]), "wrong-type take kept it");
        assert_eq!(pool.take_parked::<Vec<u32>>(), None, "take empties the slot");
        pool.park(1u64);
        pool.park(2u64);
        pool.run(|_| {}).unwrap();
        assert_eq!(pool.take_parked::<u64>(), Some(2), "park replaces; runs keep the slot");
    }

    #[test]
    fn failed_run_empties_the_parked_slot() {
        let pool = LevelPool::new(2);
        pool.park(7u64);
        let _ = pool.run(|_| panic!("boom"));
        assert_eq!(pool.take_parked::<u64>(), None, "a failed run drops the slot");
        pool.park(8u64);
        pool.run(|_| {}).unwrap();
        assert_eq!(pool.take_parked::<u64>(), Some(8), "park works after a failed run");
    }
}
