//! Synchronization substrate for the optimistic BFS reproduction.
//!
//! The paper's central primitive is a shared integer that many threads read
//! and write **without locks and without atomic read-modify-write
//! instructions**. This crate provides that primitive ([`racy`]), the spin
//! lock used by the paper's lock-based comparison variants ([`spinlock`]),
//! the sense-reversing barrier used for BFS level synchronization
//! ([`barrier`]), cache-line padding ([`padded`]), the chaos fault plan
//! ([`chaos`]), the one thread-local hook a BFS worker may carry, and the
//! flight-recorder ring ([`flight`]) a worker's record owns.
//!
//! # Racy cells are relaxed atomics
//!
//! The original C++ code performs plain, unguarded loads and stores on
//! shared `int` queue indices. Here they are `AtomicU32::{load,store}`
//! with `Ordering::Relaxed`. On every mainstream ISA these compile to
//! the *same machine instructions* as plain loads/stores — no `lock`
//! prefix, no fence, no RMW — while remaining defined behaviour in the
//! Rust memory model. This is the faithful reproduction of "no locks and
//! no atomic instructions" as the paper means it (the paper's "atomic
//! instructions" are `lock cmpxchg` / `lock xadd` style RMW ops).
//!
//! Every consumer goes through the [`racy::RacyU32`] /
//! [`racy::RacyUsize`] API, which is also where the `chaos` feature
//! hooks its fault plan into each load and store.

#![warn(missing_docs)]

pub mod barrier;
pub mod cancel;
pub mod chaos;
pub mod clock;
pub mod flight;
pub mod model;
pub mod padded;
pub mod racy;
pub mod spinlock;

pub use barrier::SpinBarrier;
pub use cancel::{CancelCause, CancelToken};
pub use chaos::ChaosConfig;
pub use clock::{Clock, ManualClock};
pub use padded::CachePadded;
pub use racy::{RacyBuf, RacyBuf64, RacyU32, RacyU64, RacyUsize};
pub use spinlock::{SpinLock, SpinLockGuard};
