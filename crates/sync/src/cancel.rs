//! Cooperative cancellation with optional deadlines.
//!
//! A [`CancelToken`] is the control-plane handle a caller keeps while a
//! traversal runs: `cancel()` asks the run to stop, an optional
//! deadline makes it stop by itself, and the workers poll [`check`] at
//! the same dispatch granularity as the watchdog (per segment fetch /
//! steal attempt / bottom-up chunk — never per edge).
//!
//! # Memory model: why a plain-store flag is enough
//!
//! The cancelled flag is a single `AtomicBool` written with a relaxed
//! *store* and read with relaxed *loads* — no read-modify-write, no
//! fences, the same instruction shape as the paper's racy queue
//! cursors. The argument mirrors the watchdog abort flag
//! (`obfs-core`'s `wd_abort`): the flag only ever goes `false → true`,
//! every consumer treats a stale `false` as "keep working a little
//! longer" (bounded by one dispatch quantum plus one level barrier,
//! where release/acquire edges make the store visible), and a stale
//! `true` is impossible to mis-handle because the run-abort decision
//! itself is made once, by the barrier leader in a serial section, and
//! published to the workers through the barrier like every other
//! leader decision. Cancellation therefore needs *no* new
//! synchronization beyond what the level-synchronous protocol already
//! has.
//!
//! Deadlines are absolute [`Clock`] ticks fixed at token creation, so
//! the polling path compares two integers; with a manual clock the
//! deadline branch is fully deterministic in tests.
//!
//! [`check`]: CancelToken::check

use crate::clock::Clock;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Why a run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's deadline passed.
    DeadlineExceeded,
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Absolute deadline in `clock` ticks; `None` = no deadline.
    deadline_ns: Option<u64>,
    clock: Clock,
}

/// A cloneable cancellation handle; clones observe the same flag and
/// deadline. Zero polling cost to runs that carry no token.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline on `clock` (cancel-only).
    pub fn new(clock: &Clock) -> Self {
        Self::build(clock, None)
    }

    /// A token whose deadline is `d` from now on `clock`.
    pub fn with_deadline(clock: &Clock, d: Duration) -> Self {
        Self::build(clock, Some(clock.deadline_after(d)))
    }

    /// A token with an absolute deadline in `clock` ticks (what the
    /// engine uses so retries keep the original deadline).
    pub fn with_deadline_at(clock: &Clock, deadline_ns: u64) -> Self {
        Self::build(clock, Some(deadline_ns))
    }

    fn build(clock: &Clock, deadline_ns: Option<u64>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline_ns,
                clock: clock.clone(),
            }),
        }
    }

    /// Request cancellation (idempotent; a plain relaxed store).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) has been observed (deadline not
    /// consulted).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Relaxed)
    }

    /// The absolute deadline in clock ticks, if the token has one.
    pub fn deadline_ns(&self) -> Option<u64> {
        self.inner.deadline_ns
    }

    /// The clock the deadline is measured against.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Poll the token: `None` keeps running; `Some(cause)` asks the run
    /// to quiesce. An explicit cancel wins over a passed deadline so
    /// the reported cause is stable once observed.
    #[inline]
    pub fn check(&self) -> Option<CancelCause> {
        if self.inner.cancelled.load(Relaxed) {
            return Some(CancelCause::Cancelled);
        }
        match self.inner.deadline_ns {
            Some(d) if self.inner.clock.now_ns() >= d => Some(CancelCause::DeadlineExceeded),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_is_sticky_and_shared_across_clones() {
        let clock = Clock::wall();
        let t = CancelToken::new(&clock);
        assert_eq!(t.check(), None);
        assert!(!t.is_cancelled());
        let t2 = t.clone();
        t.cancel();
        assert_eq!(t.check(), Some(CancelCause::Cancelled));
        assert_eq!(t2.check(), Some(CancelCause::Cancelled));
        assert!(t2.is_cancelled());
        t.cancel(); // idempotent
        assert_eq!(t.check(), Some(CancelCause::Cancelled));
    }

    #[test]
    fn deadline_fires_deterministically_on_a_manual_clock() {
        let (clock, hand) = Clock::manual();
        let t = CancelToken::with_deadline(&clock, Duration::from_millis(10));
        assert_eq!(t.deadline_ns(), Some(10_000_000));
        assert_eq!(t.check(), None, "frozen clock: deadline cannot pass");
        hand.advance(Duration::from_millis(9));
        assert_eq!(t.check(), None);
        hand.advance(Duration::from_millis(1));
        assert_eq!(t.check(), Some(CancelCause::DeadlineExceeded));
        assert!(!t.is_cancelled(), "deadline does not set the cancel flag");
    }

    #[test]
    fn explicit_cancel_wins_over_passed_deadline() {
        let (clock, hand) = Clock::manual();
        let t = CancelToken::with_deadline_at(&clock, 5);
        t.cancel();
        hand.set_ns(100);
        assert_eq!(t.check(), Some(CancelCause::Cancelled));
    }

    #[test]
    fn zero_deadline_fires_immediately() {
        let clock = Clock::wall();
        let t = CancelToken::with_deadline(&clock, Duration::ZERO);
        assert_eq!(t.check(), Some(CancelCause::DeadlineExceeded));
    }
}
