//! Execution substrate replacing the paper's cilk++ runtime.
//!
//! * [`LevelPool`] — a persistent pool of `p` workers that repeatedly run
//!   the same closure (one invocation per worker, identified by thread
//!   id). This is all the paper's own algorithms need: they do their own
//!   load balancing on top of `p` long-lived workers plus a level barrier.
//! * [`forkjoin::ForkJoinPool`] — a work-stealing task pool (per-worker
//!   deques, child stealing) used by the Leiserson–Schardl bag-based
//!   baseline, which *does* rely on a dynamic task scheduler.
//! * [`topology::Topology`] — a socket layout description driving the
//!   NUMA-aware victim-selection policy of paper §IV-C.
//!
//! Both pools survive a panic in a job. [`LevelPool::run`] returns it as
//! a [`PoolError`] and `ForkJoinPool::scope` re-raises it on the caller;
//! either way the next job runs on the same workers.

#![warn(missing_docs)]

pub mod forkjoin;
pub mod pool;
pub mod topology;

pub use forkjoin::{ForkJoinPool, TaskCtx};
pub use pool::{LevelPool, PoolError, WorkerCtx};
pub use topology::Topology;
