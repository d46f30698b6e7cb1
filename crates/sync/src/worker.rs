//! One teardown seam for a BFS worker's thread-local hooks.
//!
//! A traversal may ask each worker for up to two hooks: a chaos fault
//! plan ([`crate::chaos`]) and a flight-recorder ring
//! ([`crate::flight`]). Both stay thread-local because the code that
//! records into them — the racy cells and [`crate::SpinBarrier`] — has
//! no handle to the worker it runs on. [`WorkerHooks`] installs the ones
//! a run asks for and is the one place they come off again:
//! [`WorkerHooks::finish`] removes both and returns the flight ring
//! (a run reads its fault counts from [`crate::chaos::faults_injected`]
//! at level ends), and dropping an unfinished guard — a worker unwinding
//! from a panic — removes them too. So a later run on the same OS thread
//! always starts clean, and the worker pool's panic handler needs to know
//! nothing about hooks.
//!
//! The guard adds no synchronization: every hook stays thread-owned,
//! and the returned ring crosses threads only through the caller's
//! per-thread slot and the pool join, as the rings always have.

use crate::cancel::CancelToken;
use crate::chaos::{self, ChaosConfig};
use crate::flight::{self, RingDump};
use std::marker::PhantomData;
use std::time::Instant;

/// The current thread's installed worker hooks; see the module docs.
/// Not `Send`: the hooks live in this thread's thread-locals.
#[must_use = "dropping the guard uninstalls the hooks at once"]
pub struct WorkerHooks {
    _thread_bound: PhantomData<*const ()>,
}

impl WorkerHooks {
    /// Install the hooks a run asks for on the current thread:
    /// - `chaos`: a fault plan on PRNG stream `stream`, whose injected
    ///   stalls end early once `cancel` fires;
    /// - `flight`: a ring of `capacity` events timed from the run's
    ///   shared `epoch`.
    ///
    /// Each install replaces a hook of the same kind already on the
    /// thread.
    pub fn install(
        chaos: Option<&ChaosConfig>,
        stream: u64,
        cancel: Option<&CancelToken>,
        flight: Option<(usize, Instant)>,
    ) -> Self {
        // Built first, so a panic between installs still tears down.
        let guard = WorkerHooks { _thread_bound: PhantomData };
        if let Some(cfg) = chaos {
            chaos::install(cfg, stream, cancel);
        }
        if let Some((capacity, epoch)) = flight {
            flight::install(capacity, epoch);
        }
        guard
    }

    /// Remove both hooks (flushing the chaos plan's deferred stores)
    /// and return the drained flight ring (`None` without a recorder or
    /// without the `trace` feature).
    pub fn finish(self) -> Option<RingDump> {
        std::mem::forget(self);
        uninstall_all()
    }
}

impl Drop for WorkerHooks {
    fn drop(&mut self) {
        drop(uninstall_all());
    }
}

fn uninstall_all() -> Option<RingDump> {
    chaos::uninstall();
    flight::uninstall()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::racy::RacyU32;

    fn all_inactive() -> bool {
        !chaos::is_active() && !flight::is_active()
    }

    /// Every hook a run can ask for: store deferral and a ring.
    fn install_all() -> WorkerHooks {
        let cfg = ChaosConfig {
            defer_chance: 1.0,
            stale_window: 1000,
            delay_chance: 0.0,
            ..Default::default()
        };
        WorkerHooks::install(Some(&cfg), 0, None, Some((64, Instant::now())))
    }

    #[test]
    fn finish_returns_each_record_and_uninstalls() {
        let hooks = install_all();
        let cell = RacyU32::new(0);
        cell.store(1);
        flight::record(flight::kind::LEVEL_START, 0, 0, 0);
        assert_eq!(chaos::faults_injected() > 0, cfg!(feature = "chaos"));
        let ring = hooks.finish();
        assert!(all_inactive(), "finish must remove every hook");
        assert_eq!(cell.load(), 1, "finish must flush deferred stores");
        // With `chaos` the deferral is recorded too, as a FAULT event.
        let ring = ring.map(|r| r.events.into_iter().map(|e| e.kind).collect::<Vec<_>>());
        let expected = if cfg!(feature = "chaos") {
            vec![flight::kind::FAULT, flight::kind::LEVEL_START]
        } else {
            vec![flight::kind::LEVEL_START]
        };
        assert_eq!(ring, cfg!(feature = "trace").then_some(expected));
    }

    #[test]
    fn unwinding_uninstalls_every_hook() {
        let result = std::panic::catch_unwind(|| {
            let _hooks = install_all();
            assert_eq!(chaos::is_active(), cfg!(feature = "chaos"));
            assert_eq!(flight::is_active(), cfg!(feature = "trace"));
            panic!("injected failure with every hook installed");
        });
        assert!(result.is_err());
        assert!(all_inactive(), "the guard's drop must remove every hook on unwind");
    }
}
