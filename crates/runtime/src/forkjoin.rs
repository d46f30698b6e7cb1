//! A work-stealing fork-join task pool (the cilk++ stand-in for the
//! Leiserson–Schardl baseline).
//!
//! Tasks are `FnOnce(&TaskCtx)` closures that may spawn further tasks.
//! Scheduling is child-stealing over per-worker deques: each worker
//! pushes spawned tasks onto its own deque, pops LIFO locally, and steals
//! FIFO from peers when idle — the same policy family as cilk's
//! scheduler. The deques are mutex-guarded `VecDeque`s rather than
//! lock-free Chase–Lev deques: the baseline spawns coarse pennant-walk
//! tasks, so deque operations are nowhere near the contention levels that
//! would justify hand-rolling lock-free deques (and the workspace builds
//! with no external dependencies). A [`ForkJoinPool::scope`] call blocks
//! until *every* transitively spawned task has completed (tracked with a
//! single outstanding-task counter), so borrowed data in task closures is
//! sound; the caller's thread participates in execution while it waits.
//!
//! There is intentionally no join-with-result primitive: the baseline BFS
//! only needs "spawn and forget within a level, sync at the level
//! boundary", which is exactly `scope`.
//!
//! # Panic safety
//!
//! Every task runs under `catch_unwind`. A panicking task cannot wedge
//! the outstanding-task counter (it is decremented on the unwind path
//! too), so `scope` always terminates; the first panic's payload is then
//! re-raised on the calling thread when the scope completes, matching
//! `std::thread::scope` semantics.
//!
//! # Memory ordering
//!
//! The control plane uses the Arc-style split: `pending` increments are
//! `Relaxed` (the counter only gates termination), the decrement in
//! `run_task` is `AcqRel`, and the scope caller's exit load is
//! `Acquire` — observing 0 therefore happens-after every task body.
//! Everything else (`shutdown`, the idle-sleep heuristics) is `Relaxed`
//! because the mutex/condvar and `join()` provide the real
//! synchronization; the lint's ordering audit holds this file to
//! exactly that story.

use obfs_util::Xoshiro256StarStar;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

type Task = Box<dyn FnOnce(&TaskCtx<'_>) + Send>;

/// A mutex-guarded double-ended task queue: LIFO for the owner, FIFO for
/// thieves (classic child-stealing discipline).
struct Deque(Mutex<VecDeque<Task>>);

impl Deque {
    fn new() -> Self {
        Self(Mutex::new(VecDeque::new()))
    }

    fn push(&self, t: Task) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push_back(t);
    }

    /// Owner side: newest first (depth-first descent keeps the working
    /// set warm).
    fn pop(&self) -> Option<Task> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).pop_back()
    }

    /// Thief side: oldest first (steals the biggest remaining subtrees).
    fn steal(&self) -> Option<Task> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).pop_front()
    }
}

struct Shared {
    /// Scope roots land here; any participant may pick them up.
    injector: Deque,
    /// One deque per participant; slot 0 belongs to the scope caller.
    deques: Vec<Deque>,
    /// Tasks spawned but not yet finished (across the whole scope).
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// First task panic observed in the current scope.
    panic: Mutex<Option<String>>,
    /// Sleep/wake for idle workers between scopes.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    threads: usize,
}

/// Handed to every task; used to spawn subtasks and query identity.
pub struct TaskCtx<'p> {
    shared: &'p Shared,
    worker_id: usize,
}

impl TaskCtx<'_> {
    /// Worker executing this task, in `[0, threads)`; the scope caller's
    /// own thread executes with id 0. Ids are stable per OS thread for
    /// the lifetime of the pool.
    #[inline]
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// Total workers participating in scopes (pool threads + caller).
    #[inline]
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Spawn a subtask into this worker's deque.
    ///
    /// The `'static` bound is a lie we keep private: `ForkJoinPool::scope`
    /// erases the caller's scope lifetime after proving the scope outlives
    /// all tasks. Public users go through `scope`, which restores the
    /// correct borrowing rules via the `'scope` closure bound.
    pub fn spawn(&self, task: impl FnOnce(&TaskCtx<'_>) + Send + 'static) {
        // Relaxed: increments only gate termination. A spawner is itself
        // an unfinished task, so its own pending decrement (AcqRel, in
        // `run_task`) is later in the counter's modification order than
        // this increment — a waiter can never observe 0 early.
        self.shared.pending.fetch_add(1, Ordering::Relaxed);
        self.shared.deques[self.worker_id].push(Box::new(task));
        self.shared.idle_cv.notify_one();
    }
}

/// A persistent work-stealing pool.
pub struct ForkJoinPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ForkJoinPool {
    /// Pool where scopes execute on `threads >= 1` OS threads total
    /// (`threads - 1` background workers plus the calling thread).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            injector: Deque::new(),
            deques: (0..threads).map(|_| Deque::new()).collect(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            threads,
        });
        let handles = (1..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("obfs-fj-{id}"))
                    .spawn(move || background_loop(id, &shared))
                    .expect("failed to spawn fork-join worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Total OS threads that execute scopes (workers + caller).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Run `root` and every task it transitively spawns; return when all
    /// are done. The calling thread participates in execution.
    ///
    /// # Panics
    ///
    /// If any task panicked, the scope still runs to completion (the
    /// counter drains) and then re-raises the first panic's message on
    /// the calling thread.
    pub fn scope<'env, F>(&'env mut self, root: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'env,
    {
        // SAFETY: `scope` does not return until `pending` drops to zero,
        // i.e. every spawned closure has run to completion, so extending
        // the closure lifetimes to 'static never lets one outlive its
        // borrows. `&mut self` prevents overlapping scopes on one pool.
        let root: Task = unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce(&TaskCtx<'_>) + Send + 'env>,
                Box<dyn FnOnce(&TaskCtx<'_>) + Send + 'static>,
            >(Box::new(root))
        };
        // Relaxed: same argument as `TaskCtx::spawn` — the caller's own
        // exit load below is program-ordered after this increment.
        self.shared.pending.fetch_add(1, Ordering::Relaxed);
        self.shared.injector.push(root);
        self.shared.idle_cv.notify_all();

        // The caller works too (essential when the pool has 1 thread).
        let ctx = TaskCtx { shared: &self.shared, worker_id: 0 };
        let mut rng = Xoshiro256StarStar::new(0xF0F0);
        // Observing 0 happens-after every task body's effects, so the
        // caller may read anything its tasks wrote once the loop exits.
        // ord: Acquire pairs with the AcqRel decrement in `run_task`
        while self.shared.pending.load(Ordering::Acquire) != 0 {
            if let Some(task) = find_task(&self.shared, 0, &mut rng) {
                run_task(task, &ctx, &self.shared);
            } else {
                std::thread::yield_now();
            }
        }
        let panicked = self.shared.panic.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(message) = panicked {
            panic!("fork-join task panicked: {message}");
        }
    }
}

impl Drop for ForkJoinPool {
    fn drop(&mut self) {
        // Relaxed: a pure termination flag — workers re-poll it every
        // loop and `join()` below is the actual synchronization point.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.idle_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Execute one task under `catch_unwind`, recording the first panic and
/// always decrementing the outstanding counter so scopes terminate.
fn run_task(task: Task, ctx: &TaskCtx<'_>, shared: &Shared) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(ctx))) {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            payload.downcast_ref::<String>().cloned().unwrap_or_else(|| "<non-string panic>".into())
        };
        let mut slot = shared.panic.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(message);
    }
    // The release half publishes this task's effects to whoever
    // observes the count hit 0 (the scope caller's Acquire load); the
    // acquire half chains earlier decrements so the final decrementer
    // also happens-after every other task.
    // ord: AcqRel — release publishes the task body, acquire chains prior decrements
    shared.pending.fetch_sub(1, Ordering::AcqRel);
}

/// Pop local, then steal from the injector, then from random peers.
fn find_task(shared: &Shared, id: usize, rng: &mut Xoshiro256StarStar) -> Option<Task> {
    if let Some(t) = shared.deques[id].pop() {
        return Some(t);
    }
    if let Some(t) = shared.injector.steal() {
        return Some(t);
    }
    // Random victim order, one full round.
    let p = shared.deques.len();
    let start = rng.below_usize(p);
    for k in 0..p {
        let victim = (start + k) % p;
        if victim == id {
            continue;
        }
        if let Some(t) = shared.deques[victim].steal() {
            return Some(t);
        }
    }
    None
}

fn background_loop(id: usize, shared: &Shared) {
    let ctx = TaskCtx { shared, worker_id: id };
    let mut rng = Xoshiro256StarStar::for_stream(0xBEE5, id as u64);
    let mut idle_rounds = 0u32;
    loop {
        // Relaxed: termination flag, re-polled each round (see Drop).
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if let Some(task) = find_task(shared, id, &mut rng) {
            idle_rounds = 0;
            run_task(task, &ctx, shared);
        // Relaxed: a sleep heuristic, not a protocol edge — a stale
        // non-zero just spins once more, and a stale zero at worst naps
        // through one 50ms wait_timeout round before re-polling.
        } else if shared.pending.load(Ordering::Relaxed) == 0 {
            // Nothing anywhere: sleep until a scope starts.
            let guard = shared.idle_lock.lock().unwrap_or_else(PoisonError::into_inner);
            if shared.pending.load(Ordering::Relaxed) == 0
                && !shared.shutdown.load(Ordering::Relaxed)
            {
                let _ = shared
                    .idle_cv
                    .wait_timeout(guard, std::time::Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
            }
        } else {
            // Work exists but is in-flight elsewhere; back off briefly.
            idle_rounds += 1;
            if idle_rounds < 16 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn root_task_runs() {
        let mut pool = ForkJoinPool::new(2);
        let flag = AtomicBool::new(false);
        pool.scope(|_| {
            flag.store(true, Ordering::Relaxed);
        });
        assert!(flag.load(Ordering::Relaxed));
    }

    #[test]
    fn recursive_fanout_counts_exactly() {
        // Binary recursion to depth 10: 2^10 leaves.
        let mut pool = ForkJoinPool::new(4);
        let leaves = Arc::new(AtomicU64::new(0));
        fn fan(ctx: &TaskCtx<'_>, depth: u32, leaves: Arc<AtomicU64>) {
            if depth == 0 {
                leaves.fetch_add(1, Ordering::Relaxed);
            } else {
                let l = Arc::clone(&leaves);
                let r = Arc::clone(&leaves);
                ctx.spawn(move |c| fan(c, depth - 1, l));
                ctx.spawn(move |c| fan(c, depth - 1, r));
            }
        }
        let l = Arc::clone(&leaves);
        pool.scope(move |ctx| fan(ctx, 10, l));
        assert_eq!(leaves.load(Ordering::Relaxed), 1024);
    }

    #[test]
    fn scope_blocks_until_all_tasks_done() {
        let mut pool = ForkJoinPool::new(3);
        // Tasks increment a stack counter through the scope borrow.
        let counter = AtomicUsize::new(0);
        pool.scope(|ctx| {
            // SAFETY: `scope` joins every task before returning, so the
            // 'static view never outlives the stack borrow.
            let c: &'static AtomicUsize = unsafe { std::mem::transmute(&counter) };
            for _ in 0..256 {
                ctx.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn single_thread_pool_is_sequentially_complete() {
        let mut pool = ForkJoinPool::new(1);
        let sum = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sum);
        pool.scope(move |ctx| {
            for i in 1..=100u64 {
                let s = Arc::clone(&s);
                ctx.spawn(move |_| {
                    s.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn sequential_scopes_on_same_pool() {
        let mut pool = ForkJoinPool::new(2);
        let total = Arc::new(AtomicU64::new(0));
        for _ in 0..20 {
            let t = Arc::clone(&total);
            pool.scope(move |ctx| {
                for _ in 0..10 {
                    let t = Arc::clone(&t);
                    ctx.spawn(move |_| {
                        t.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn worker_ids_in_range() {
        let mut pool = ForkJoinPool::new(4);
        let seen = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&seen);
        pool.scope(move |ctx| {
            assert!(ctx.worker_id() < ctx.threads());
            for _ in 0..64 {
                let s = Arc::clone(&s);
                ctx.spawn(move |c| {
                    assert!(c.worker_id() < c.threads());
                    s.fetch_or(1 << c.worker_id(), Ordering::Relaxed);
                });
            }
        });
        assert_ne!(seen.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drop_terminates_workers() {
        let pool = ForkJoinPool::new(4);
        drop(pool); // must not hang
    }

    /// Irregular task DAG: chains of spawns of varying depth, like a
    /// pennant walk over a skewed tree.
    #[test]
    fn irregular_chains_complete() {
        let mut pool = ForkJoinPool::new(3);
        let done = Arc::new(AtomicU64::new(0));
        fn chain(ctx: &TaskCtx<'_>, depth: u32, done: Arc<AtomicU64>) {
            if depth == 0 {
                done.fetch_add(1, Ordering::Relaxed);
            } else {
                ctx.spawn(move |c| chain(c, depth - 1, done));
            }
        }
        let d = Arc::clone(&done);
        pool.scope(move |ctx| {
            for i in 0..50u32 {
                let d = Arc::clone(&d);
                ctx.spawn(move |c| chain(c, i % 17, d));
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 50);
    }

    /// Tasks that allocate and drop owned data (checks nothing leaks or
    /// double-frees through the type-erased task path).
    #[test]
    fn owned_payloads_dropped_exactly_once() {
        struct Probe(Arc<AtomicU64>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let mut pool = ForkJoinPool::new(2);
        let d = Arc::clone(&drops);
        pool.scope(move |ctx| {
            for _ in 0..100 {
                let probe = Probe(Arc::clone(&d));
                ctx.spawn(move |_| {
                    let _keep = &probe;
                });
            }
        });
        assert_eq!(drops.load(Ordering::Relaxed), 100);
    }

    /// Heavy oversubscription: more pool threads than cores with a deep
    /// recursive fanout.
    #[test]
    fn oversubscribed_deep_fanout() {
        let mut pool = ForkJoinPool::new(12);
        let leaves = Arc::new(AtomicU64::new(0));
        fn fan(ctx: &TaskCtx<'_>, depth: u32, leaves: Arc<AtomicU64>) {
            if depth == 0 {
                leaves.fetch_add(1, Ordering::Relaxed);
            } else {
                for _ in 0..2 {
                    let l = Arc::clone(&leaves);
                    ctx.spawn(move |c| fan(c, depth - 1, l));
                }
            }
        }
        let l = Arc::clone(&leaves);
        pool.scope(move |ctx| fan(ctx, 8, l));
        assert_eq!(leaves.load(Ordering::Relaxed), 256);
    }

    /// A panicking task must not wedge the scope: remaining tasks finish,
    /// the counter drains, and the panic resurfaces on the caller.
    #[test]
    fn panicking_task_resurfaces_without_hanging() {
        let mut pool = ForkJoinPool::new(3);
        let survivors = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&survivors);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(move |ctx| {
                for i in 0..32u32 {
                    let s = Arc::clone(&s);
                    ctx.spawn(move |_| {
                        if i == 7 {
                            panic!("task blew up");
                        }
                        s.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let err = result.expect_err("scope must re-raise the task panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("task blew up"), "got: {msg:?}");
        assert_eq!(survivors.load(Ordering::Relaxed), 31, "non-panicking tasks must all run");
        // Pool remains usable for subsequent scopes.
        let again = Arc::new(AtomicU64::new(0));
        let a = Arc::clone(&again);
        pool.scope(move |ctx| {
            for _ in 0..8 {
                let a = Arc::clone(&a);
                ctx.spawn(move |_| {
                    a.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(again.load(Ordering::Relaxed), 8);
    }
}
