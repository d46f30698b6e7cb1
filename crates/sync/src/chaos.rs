//! Deterministic fault injection for the racy cells (`--features chaos`).
//!
//! The paper's recovery machinery — invalid-segment retry, the zero-slot
//! abort, stale-steal re-probing — only runs when racy interleavings
//! actually happen, and on a lightly loaded machine they almost never do.
//! This module manufactures them on demand, deterministically, so the
//! recovery paths can be exercised by ordinary tests.
//!
//! # Fault model
//!
//! A thread with an installed [`FaultPlan`] perturbs its own racy
//! operations in three seed-reproducible ways:
//!
//! * **Store-buffer staleness**: a racy store is deferred into a
//!   thread-local simulated store buffer for a bounded number of
//!   subsequent racy operations before being flushed to memory. The
//!   owning thread still observes its own program order (store-to-load
//!   forwarding), but *other* threads keep reading the previous value —
//!   exactly the TSO-visibility race the paper's §IV argument is about.
//!   Buffers are flushed ("quiesced") at every [`SpinBarrier`] arrival
//!   and around every spin-lock critical section, so the injected races
//!   stay bounded within a BFS level, mirroring real hardware where
//!   store buffers drain at fences.
//! * **Delay windows**: short spin/yield pauses injected before racy
//!   operations, widening race windows.
//! * **Index skew**: explicitly tagged read sites (currently the
//!   work-steal descriptor snapshot) receive arbitrarily perturbed index
//!   values. This is only sound where the algorithm validates indices
//!   before use — the `f' < r' <= Qin[q'].rear` sanity check — which is
//!   precisely what the skew is meant to exercise.
//!
//! Deferred stores only ever replay values that were actually written, so
//! the injected behaviour stays inside the paper's fault model (no
//! out-of-thin-air values, no tearing).
//!
//! # Zero cost when off
//!
//! Without the `chaos` cargo feature every function in this module is an
//! `#[inline]` no-op and the racy cell fast paths compile exactly as
//! before. [`ChaosConfig`] itself is always compiled so higher layers
//! (e.g. `BfsOptions`) keep a feature-independent shape.
//!
//! # One thread-local hook
//!
//! The plan is the one per-worker hook that stays thread-local: the racy
//! loads and stores it perturbs run below the BFS driver and hold no
//! handle to the worker they run on. [`install`] returns a [`PlanGuard`]
//! that is the one place the plan comes off again: [`PlanGuard::finish`]
//! removes it, and dropping an unfinished guard — a worker unwinding
//! from a panic — removes it too, so a later run on the same OS thread
//! always starts clean. When the run asked for a flight recording, the
//! plan keeps its `FAULT` events in a ring of its own
//! ([`crate::flight::FlightRing`], same capacity and epoch as the
//! worker's), which `finish` hands back for the driver to merge into the
//! worker's ring.
//!
//! # Pointer-validity contract
//!
//! A deferred store holds a raw pointer to its target cell until the next
//! flush. Callers that install a plan must therefore quiesce (or
//! uninstall) before the racy cells the thread wrote can be freed. The
//! BFS driver satisfies this structurally: every level ends at a barrier
//! (which quiesces) and its [`PlanGuard`] uninstalls the plan before the
//! worker closure returns or unwinds, while the queues outlive the whole
//! traversal.
//!
//! [`SpinBarrier`]: crate::SpinBarrier
//! [`FaultPlan`]: self

use crate::cancel::CancelToken;
use crate::flight::RingDump;
use std::marker::PhantomData;
use std::time::Instant;

/// Tuning knobs for a deterministic fault plan. Plain data, always
/// compiled; only takes effect when the `chaos` feature is enabled and a
/// plan is installed on the thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Master seed. Each thread derives an independent stream from
    /// `(seed, stream)` so plans are reproducible per worker.
    pub seed: u64,
    /// Probability in `[0, 1]` that a racy store is deferred into the
    /// simulated store buffer.
    pub defer_chance: f64,
    /// Maximum number of subsequent racy operations a deferred store
    /// stays invisible to other threads (its TTL is drawn from
    /// `1..=stale_window`).
    pub stale_window: u32,
    /// Probability in `[0, 1]` of an injected delay before a racy
    /// operation.
    pub delay_chance: f64,
    /// Maximum spin iterations per injected delay (larger draws also
    /// yield to the scheduler).
    pub delay_spins: u32,
    /// Probability in `[0, 1]` that a tagged index-read site returns a
    /// skewed value.
    pub skew_chance: f64,
    /// Maximum absolute additive skew; skew may also return a huge
    /// out-of-range index to probe bounds checks.
    pub skew_max: usize,
    /// Inject one long stall when the thread's racy-operation counter
    /// reaches this value (`None` = never). The stall sits *inside* a
    /// dispatch quantum and spins for [`stall_spins`] iterations — but
    /// polls the cancellation token the plan was [`install`]ed with
    /// every iteration, so a stalled worker still quiesces promptly when
    /// its run is cancelled or deadline-expired. This is how
    /// cancellation-under-stall is made testable.
    ///
    /// [`stall_spins`]: ChaosConfig::stall_spins
    pub stall_after: Option<u64>,
    /// Spin budget of an injected stall. Use a huge value to model a
    /// stuck worker that only its run's cancellation token can release.
    pub stall_spins: u32,
    /// Panic the thread when its racy-operation counter reaches this
    /// value (`None` = never) — deterministic worker-death injection
    /// for pool-recovery and engine-retry tests.
    pub panic_after: Option<u64>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            defer_chance: 0.10,
            stale_window: 16,
            delay_chance: 0.02,
            delay_spins: 64,
            skew_chance: 0.0,
            skew_max: 0,
            stall_after: None,
            stall_spins: 0,
            panic_after: None,
        }
    }
}

impl ChaosConfig {
    /// A plan that only defers stores (pure store-buffer staleness).
    pub fn store_buffer(seed: u64) -> Self {
        Self { seed, defer_chance: 0.25, stale_window: 24, delay_chance: 0.0, ..Self::default() }
    }

    /// A plan that only skews tagged index reads (for sanity-check
    /// coverage of the work-steal snapshot path).
    pub fn skew_only(seed: u64) -> Self {
        Self {
            seed,
            defer_chance: 0.0,
            delay_chance: 0.0,
            skew_chance: 0.5,
            skew_max: 1 << 20,
            ..Self::default()
        }
    }

    /// Everything at once, dialed high (stalls and panics stay off:
    /// aggressive plans must still terminate on their own).
    pub fn aggressive(seed: u64) -> Self {
        Self {
            seed,
            defer_chance: 0.30,
            stale_window: 32,
            delay_chance: 0.05,
            delay_spins: 128,
            skew_chance: 0.25,
            skew_max: 1 << 20,
            ..Self::default()
        }
    }

    /// A plan whose only fault is one stall of `spins` iterations at
    /// the `after`-th racy operation (per thread). With a huge `spins`
    /// this models a stuck worker that only its run's cancellation
    /// token releases.
    pub fn stall(seed: u64, after: u64, spins: u32) -> Self {
        Self {
            seed,
            defer_chance: 0.0,
            delay_chance: 0.0,
            stall_after: Some(after),
            stall_spins: spins,
            ..Self::default()
        }
    }

    /// A plan whose only fault is a worker panic at the `after`-th racy
    /// operation (per thread).
    pub fn panic_at(seed: u64, after: u64) -> Self {
        Self {
            seed,
            defer_chance: 0.0,
            delay_chance: 0.0,
            panic_after: Some(after),
            ..Self::default()
        }
    }
}

/// A deterministic value-feeding script for the current thread's racy
/// *loads*, used by the model-checker differential harness to replay an
/// exact interleaving against the real dispatchers.
///
/// Where a [`ChaosConfig`] plan perturbs operations *randomly*, a script
/// dictates them *positionally*: the `k`-th racy `usize` load the thread
/// performs observes `usize_loads[k]` (and likewise for `u32` loads,
/// independently numbered). A `Some(v)` entry feeds `v` — the value the
/// corresponding load observed in the model schedule — while a `None`
/// entry (or running off the end of the script) lets the load read real
/// memory. Stores always go straight to real memory, so the dispatcher's
/// own writes stay visible to it and to later unscripted loads.
///
/// Feeding only replays values another thread could have legitimately
/// exposed under the store-buffer model, so a scripted run stays inside
/// the same fault model as a chaos plan; the point is that it pins the
/// *one* interleaving a model counterexample describes instead of
/// sampling. Plain data, always compiled; only takes effect with the
/// `chaos` feature.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosScript {
    /// Positional feeds for racy `usize` loads (queue fronts/rears,
    /// cursors, steal-descriptor words).
    pub usize_loads: Vec<Option<usize>>,
    /// Positional feeds for racy `u32` loads (queue slots, level words).
    pub u32_loads: Vec<Option<u32>>,
}

/// Consumption accounting returned by [`uninstall_script`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScriptReport {
    /// `Some` entries actually fed to `usize` loads.
    pub fed_usize: usize,
    /// `Some` entries actually fed to `u32` loads.
    pub fed_u32: usize,
    /// Script entries (either class) never reached by the run.
    pub leftover: usize,
}

#[cfg(feature = "chaos")]
mod active {
    use super::{CancelToken, ChaosConfig, Instant};
    use crate::flight::{kind, FlightRing, RingDump};
    use obfs_util::Xoshiro256StarStar;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};

    /// Cap on simultaneously deferred stores per thread; past this,
    /// stores go straight to memory.
    const MAX_PENDING: usize = 64;

    enum Target {
        U32(*const AtomicU32, u32),
        U64(*const AtomicU64, u64),
        Usize(*const AtomicUsize, usize),
    }

    impl Target {
        fn addr(&self) -> usize {
            match *self {
                Target::U32(p, _) => p as usize,
                Target::U64(p, _) => p as usize,
                Target::Usize(p, _) => p as usize,
            }
        }

        /// Perform the real store.
        ///
        /// # Safety
        /// Caller upholds the module's pointer-validity contract: the
        /// target cell outlives the thread-local plan holding this entry.
        unsafe fn flush(&self) {
            match *self {
                Target::U32(p, v) => (*p).store(v, Relaxed),
                Target::U64(p, v) => (*p).store(v, Relaxed),
                Target::Usize(p, v) => (*p).store(v, Relaxed),
            }
        }
    }

    struct Pending {
        target: Target,
        ttl: u32,
    }

    pub(super) struct Plan {
        rng: Xoshiro256StarStar,
        cfg: ChaosConfig,
        pending: VecDeque<Pending>,
        injected: u64,
        /// Racy operations seen so far (the `stall_after`/`panic_after`
        /// trigger counter).
        ops: u64,
        /// The run's token: an injected stall's only early exit.
        cancel: Option<CancelToken>,
        /// The `FAULT` events, when the run asked for a recording.
        flight: Option<FlightRing>,
    }

    impl Plan {
        /// Count one injected fault of `cause` (a `kind::FAULT_*` code)
        /// and record it as a `FAULT` event.
        fn fault(&mut self, cause: u64, magnitude: u64) {
            self.injected += 1;
            if let Some(ring) = &mut self.flight {
                ring.record(kind::FAULT, 0, cause, magnitude);
            }
        }
    }

    pub(super) struct Script {
        usize_loads: VecDeque<Option<usize>>,
        u32_loads: VecDeque<Option<u32>>,
        fed_usize: usize,
        fed_u32: usize,
    }

    thread_local! {
        static PLAN: RefCell<Option<Plan>> = const { RefCell::new(None) };
        static SCRIPT: RefCell<Option<Script>> = const { RefCell::new(None) };
    }

    pub(super) fn install_script(s: &super::ChaosScript) {
        SCRIPT.with(|slot| {
            *slot.borrow_mut() = Some(Script {
                usize_loads: s.usize_loads.iter().copied().collect(),
                u32_loads: s.u32_loads.iter().copied().collect(),
                fed_usize: 0,
                fed_u32: 0,
            });
        });
    }

    pub(super) fn uninstall_script() -> super::ScriptReport {
        SCRIPT.with(|slot| match slot.borrow_mut().take() {
            Some(s) => super::ScriptReport {
                fed_usize: s.fed_usize,
                fed_u32: s.fed_u32,
                leftover: s.usize_loads.len() + s.u32_loads.len(),
            },
            None => super::ScriptReport::default(),
        })
    }

    /// Consume the next scripted `u32`-load entry, if one feeds a value.
    fn script_feed_u32() -> Option<u32> {
        SCRIPT.with(|slot| {
            let mut s = slot.borrow_mut();
            let s = s.as_mut()?;
            match s.u32_loads.pop_front() {
                Some(Some(v)) => {
                    s.fed_u32 += 1;
                    Some(v)
                }
                _ => None,
            }
        })
    }

    /// Consume the next scripted `usize`-load entry, if one feeds a value.
    fn script_feed_usize() -> Option<usize> {
        SCRIPT.with(|slot| {
            let mut s = slot.borrow_mut();
            let s = s.as_mut()?;
            match s.usize_loads.pop_front() {
                Some(Some(v)) => {
                    s.fed_usize += 1;
                    Some(v)
                }
                _ => None,
            }
        })
    }

    pub(super) fn install(
        cfg: &ChaosConfig,
        stream: u64,
        cancel: Option<&CancelToken>,
        flight: Option<(usize, Instant)>,
    ) {
        PLAN.with(|p| {
            *p.borrow_mut() = Some(Plan {
                rng: Xoshiro256StarStar::for_stream(cfg.seed, stream),
                cfg: *cfg,
                pending: VecDeque::new(),
                injected: 0,
                ops: 0,
                cancel: cancel.cloned(),
                flight: flight.map(|(capacity, epoch)| FlightRing::new(capacity, epoch)),
            });
        });
    }

    pub(super) fn uninstall() -> Option<RingDump> {
        let mut plan = PLAN.with(|p| p.borrow_mut().take())?;
        flush_all(&mut plan);
        plan.flight.map(FlightRing::into_dump)
    }

    pub(super) fn is_active() -> bool {
        PLAN.with(|p| p.borrow().is_some())
    }

    pub(super) fn faults_injected() -> u64 {
        PLAN.with(|p| p.borrow().as_ref().map_or(0, |plan| plan.injected))
    }

    pub(super) fn quiesce() {
        PLAN.with(|p| {
            if let Some(plan) = p.borrow_mut().as_mut() {
                flush_all(plan);
            }
        });
    }

    fn flush_all(plan: &mut Plan) {
        for pend in plan.pending.drain(..) {
            // SAFETY: module contract — cells outlive the window between
            // installs/quiesces.
            unsafe { pend.target.flush() };
        }
    }

    /// Age the buffer by one racy operation, flushing expired entries in
    /// FIFO order, and maybe inject a delay window, a one-shot stall,
    /// or a scripted panic.
    fn step(plan: &mut Plan) {
        plan.ops += 1;
        if plan.cfg.panic_after == Some(plan.ops) {
            plan.injected += 1;
            // Unwinding releases the RefCell borrow; the plan's guard
            // then uninstalls (and flushes) it.
            panic!("chaos: injected worker panic at racy op {}", plan.ops);
        }
        if plan.cfg.stall_after == Some(plan.ops) {
            let spins = plan.cfg.stall_spins.max(1);
            plan.fault(kind::FAULT_STALL, u64::from(spins));
            for i in 0..spins {
                // The token is the stall's only early exit: a stalled
                // worker stays cooperative with cancellation.
                if plan.cancel.as_ref().is_some_and(|t| t.check().is_some()) {
                    break;
                }
                if i % 64 == 63 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        for pend in plan.pending.iter_mut() {
            pend.ttl = pend.ttl.saturating_sub(1);
        }
        while plan.pending.front().is_some_and(|p| p.ttl == 0) {
            let pend = plan.pending.pop_front().unwrap();
            // SAFETY: module contract.
            unsafe { pend.target.flush() };
        }
        if plan.cfg.delay_chance > 0.0 && plan.rng.chance(plan.cfg.delay_chance) {
            let spins = 1 + plan.rng.next_u32() % plan.cfg.delay_spins.max(1);
            plan.fault(kind::FAULT_DELAY, u64::from(spins));
            for i in 0..spins {
                if i % 32 == 31 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Drop pending stores to `addr`: they are being overwritten in the
    /// owner's program order, so no other thread may legally require the
    /// intermediate value.
    fn forget_addr(plan: &mut Plan, addr: usize) {
        plan.pending.retain(|p| p.target.addr() != addr);
    }

    fn maybe_defer(plan: &mut Plan, target: Target) -> bool {
        if plan.pending.len() < MAX_PENDING
            && plan.cfg.defer_chance > 0.0
            && plan.rng.chance(plan.cfg.defer_chance)
        {
            let ttl = 1 + plan.rng.next_u32() % plan.cfg.stale_window.max(1);
            plan.fault(kind::FAULT_DEFER, u64::from(ttl));
            forget_addr(plan, target.addr());
            plan.pending.push_back(Pending { target, ttl });
            true
        } else {
            forget_addr(plan, target.addr());
            false
        }
    }

    /// Hooks called from the racy-cell fast paths. Each returns quickly
    /// when no plan is installed.
    pub(crate) mod hooks {
        use super::*;

        #[inline]
        pub(crate) fn load_u32(cell: &AtomicU32) -> Option<u32> {
            if let Some(v) = super::script_feed_u32() {
                return Some(v);
            }
            PLAN.with(|p| {
                let mut plan = p.borrow_mut();
                let plan = plan.as_mut()?;
                step(plan);
                let addr = cell as *const AtomicU32 as usize;
                // Store-to-load forwarding: the owner sees its own newest
                // deferred store (at most one per address survives).
                plan.pending.iter().rev().find(|pend| pend.target.addr() == addr).map(|pend| {
                    match pend.target {
                        Target::U32(_, v) => v,
                        Target::U64(_, v) => v as u32,
                        Target::Usize(_, v) => v as u32,
                    }
                })
            })
        }

        #[inline]
        pub(crate) fn store_u32(cell: &AtomicU32, v: u32) -> bool {
            PLAN.with(|p| {
                let mut plan = p.borrow_mut();
                let Some(plan) = plan.as_mut() else { return false };
                step(plan);
                maybe_defer(plan, Target::U32(cell, v))
            })
        }

        #[inline]
        pub(crate) fn load_u64(cell: &AtomicU64) -> Option<u64> {
            PLAN.with(|p| {
                let mut plan = p.borrow_mut();
                let plan = plan.as_mut()?;
                step(plan);
                let addr = cell as *const AtomicU64 as usize;
                plan.pending.iter().rev().find(|pend| pend.target.addr() == addr).map(|pend| {
                    match pend.target {
                        Target::U32(_, v) => u64::from(v),
                        Target::U64(_, v) => v,
                        Target::Usize(_, v) => v as u64,
                    }
                })
            })
        }

        #[inline]
        pub(crate) fn store_u64(cell: &AtomicU64, v: u64) -> bool {
            PLAN.with(|p| {
                let mut plan = p.borrow_mut();
                let Some(plan) = plan.as_mut() else { return false };
                step(plan);
                maybe_defer(plan, Target::U64(cell, v))
            })
        }

        #[inline]
        pub(crate) fn load_usize(cell: &AtomicUsize) -> Option<usize> {
            if let Some(v) = super::script_feed_usize() {
                return Some(v);
            }
            PLAN.with(|p| {
                let mut plan = p.borrow_mut();
                let plan = plan.as_mut()?;
                step(plan);
                let addr = cell as *const AtomicUsize as usize;
                plan.pending.iter().rev().find(|pend| pend.target.addr() == addr).map(|pend| {
                    match pend.target {
                        Target::U32(_, v) => v as usize,
                        Target::U64(_, v) => v as usize,
                        Target::Usize(_, v) => v,
                    }
                })
            })
        }

        #[inline]
        pub(crate) fn store_usize(cell: &AtomicUsize, v: usize) -> bool {
            PLAN.with(|p| {
                let mut plan = p.borrow_mut();
                let Some(plan) = plan.as_mut() else { return false };
                step(plan);
                maybe_defer(plan, Target::Usize(cell, v))
            })
        }
    }

    pub(super) fn skew_index(i: usize) -> usize {
        PLAN.with(|p| {
            let mut plan = p.borrow_mut();
            let Some(plan) = plan.as_mut() else { return i };
            if plan.cfg.skew_chance <= 0.0 || !plan.rng.chance(plan.cfg.skew_chance) {
                return i;
            }
            let delta = 1 + plan.rng.below_usize(plan.cfg.skew_max.max(1));
            plan.fault(kind::FAULT_SKEW, delta as u64);
            match plan.rng.next_u32() % 3 {
                0 => i.saturating_add(delta),
                1 => i.saturating_sub(delta),
                // Out-of-range probe: far beyond any queue capacity but
                // small enough that index arithmetic cannot wrap.
                _ => (usize::MAX / 4).saturating_add(i),
            }
        })
    }
}

#[cfg(feature = "chaos")]
pub(crate) use active::hooks;

/// Install a fault plan on the current thread, replacing any plan
/// already there, and return the guard that removes it. `stream` selects
/// an independent PRNG stream (pass the worker id); an injected stall
/// polls `cancel` (the run's token, if any) to end early; `flight`, the
/// capacity and epoch of the run's flight rings, gives the plan a ring
/// for its `FAULT` events. No-op without the `chaos` feature.
#[inline]
pub fn install(
    cfg: &ChaosConfig,
    stream: u64,
    cancel: Option<&CancelToken>,
    flight: Option<(usize, Instant)>,
) -> PlanGuard {
    // Built first, so a panic while installing still tears down.
    let guard = PlanGuard { _thread_bound: PhantomData };
    #[cfg(feature = "chaos")]
    active::install(cfg, stream, cancel, flight);
    #[cfg(not(feature = "chaos"))]
    {
        let _ = (cfg, stream, cancel, flight);
    }
    guard
}

/// The current thread's installed fault plan; see the module docs. Not
/// `Send`: the plan lives in this thread's thread-local.
#[must_use = "dropping the guard uninstalls the plan at once"]
pub struct PlanGuard {
    _thread_bound: PhantomData<*const ()>,
}

impl PlanGuard {
    /// Flush the plan's deferred stores, remove it, and return its
    /// `FAULT` ring (`None` when the run asked for no recording, and
    /// always without the `chaos` feature).
    pub fn finish(self) -> Option<RingDump> {
        std::mem::forget(self);
        uninstall()
    }
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        drop(uninstall());
    }
}

fn uninstall() -> Option<RingDump> {
    #[cfg(feature = "chaos")]
    {
        active::uninstall()
    }
    #[cfg(not(feature = "chaos"))]
    {
        None
    }
}

/// Whether the current thread has an installed fault plan.
#[inline]
pub fn is_active() -> bool {
    #[cfg(feature = "chaos")]
    {
        active::is_active()
    }
    #[cfg(not(feature = "chaos"))]
    {
        false
    }
}

/// Faults injected so far by the current thread's plan.
#[inline]
pub fn faults_injected() -> u64 {
    #[cfg(feature = "chaos")]
    {
        active::faults_injected()
    }
    #[cfg(not(feature = "chaos"))]
    {
        0
    }
}

/// Flush the simulated store buffer, making every deferred store visible.
/// Called automatically at barrier arrivals and spin-lock boundaries; a
/// no-op without the `chaos` feature or an installed plan.
#[inline]
pub fn quiesce() {
    #[cfg(feature = "chaos")]
    active::quiesce();
}

/// Install a positional value-feeding [`ChaosScript`] on the current
/// thread (see its docs). Independent of any [`ChaosConfig`] plan; a
/// scripted feed takes precedence over plan-driven staleness for the
/// load it covers. No-op without the `chaos` feature.
#[inline]
pub fn install_script(script: &ChaosScript) {
    #[cfg(feature = "chaos")]
    active::install_script(script);
    #[cfg(not(feature = "chaos"))]
    {
        let _ = script;
    }
}

/// Remove the current thread's script, reporting what it fed. No-op
/// returning an empty report without the `chaos` feature.
#[inline]
pub fn uninstall_script() -> ScriptReport {
    #[cfg(feature = "chaos")]
    {
        active::uninstall_script()
    }
    #[cfg(not(feature = "chaos"))]
    {
        ScriptReport::default()
    }
}

/// Possibly perturb an index value read at a tagged adversarial site.
/// Identity without the `chaos` feature or an installed plan. Only call
/// this where the consumer validates the index before trusting it.
#[inline]
pub fn skew_index(i: usize) -> usize {
    #[cfg(feature = "chaos")]
    {
        active::skew_index(i)
    }
    #[cfg(not(feature = "chaos"))]
    {
        i
    }
}

#[cfg(all(test, feature = "chaos"))]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::racy::{RacyU32, RacyUsize};

    /// Remove `plan`, returning the faults it injected.
    fn finish(plan: PlanGuard) -> u64 {
        let injected = faults_injected();
        plan.finish();
        injected
    }

    fn with_plan(cfg: ChaosConfig, f: impl FnOnce()) -> u64 {
        let plan = install(&cfg, 0, None, None);
        f();
        finish(plan)
    }

    #[test]
    fn inactive_thread_is_transparent() {
        assert!(!is_active());
        let c = RacyU32::new(1);
        c.store(2);
        assert_eq!(c.load(), 2);
        assert_eq!(skew_index(17), 17);
        assert_eq!(faults_injected(), 0);
    }

    /// The owner always sees its own stores (store-to-load forwarding),
    /// even while they sit in the simulated buffer.
    #[test]
    fn forwarding_preserves_program_order() {
        let cfg = ChaosConfig { defer_chance: 1.0, stale_window: 1000, ..Default::default() };
        let injected = with_plan(cfg, || {
            let c = RacyU32::new(0);
            let u = RacyUsize::new(0);
            for i in 1..100u32 {
                c.store(i);
                u.store(i as usize * 3);
                assert_eq!(c.load(), i, "owner must read its own newest store");
                assert_eq!(u.load(), i as usize * 3);
            }
        });
        assert!(injected > 0, "defer_chance=1.0 must inject");
    }

    /// The 64-bit membership-word cells get the same forwarding and
    /// quiesce treatment as the 32-bit cells.
    #[test]
    fn u64_cells_forward_and_flush() {
        use crate::racy::RacyU64;
        let c = RacyU64::new(0);
        let cfg = ChaosConfig { defer_chance: 1.0, stale_window: 1000, ..Default::default() };
        let plan = install(&cfg, 0, None, None);
        c.store(1 << 40);
        assert_eq!(c.load(), 1 << 40, "owner must forward its own deferred u64 store");
        // SAFETY: RacyU64 is repr(transparent) over one u64-sized word.
        let raw = unsafe { &*(&c as *const RacyU64 as *const std::sync::atomic::AtomicU64) };
        assert_eq!(raw.load(std::sync::atomic::Ordering::Relaxed), 0, "store must be deferred");
        quiesce();
        assert_eq!(raw.load(std::sync::atomic::Ordering::Relaxed), 1 << 40, "quiesce must flush");
        plan.finish();
    }

    /// Deferred stores become visible after quiesce (the barrier hook).
    #[test]
    fn quiesce_flushes_deferred_stores() {
        let c = RacyU32::new(7);
        let cfg = ChaosConfig { defer_chance: 1.0, stale_window: 1000, ..Default::default() };
        let plan = install(&cfg, 0, None, None);
        c.store(99);
        // Bypass the plan: raw view of memory as another thread would
        // see it. The store is still buffered.
        // SAFETY: RacyU32 is repr(transparent) over one u32-sized word.
        let raw = unsafe { &*(&c as *const RacyU32 as *const std::sync::atomic::AtomicU32) };
        assert_eq!(raw.load(std::sync::atomic::Ordering::Relaxed), 7, "store must be deferred");
        quiesce();
        assert_eq!(raw.load(std::sync::atomic::Ordering::Relaxed), 99, "quiesce must flush");
        plan.finish();
    }

    /// TTL expiry flushes without an explicit quiesce, in FIFO order.
    #[test]
    fn ttl_expiry_flushes_fifo() {
        let a = RacyU32::new(0);
        let cfg = ChaosConfig { defer_chance: 1.0, stale_window: 1, ..Default::default() };
        let plan = install(&cfg, 0, None, None);
        a.store(5);
        // SAFETY: RacyU32 is repr(transparent) over one u32-sized word.
        let raw = unsafe { &*(&a as *const RacyU32 as *const std::sync::atomic::AtomicU32) };
        // Each subsequent racy op ages the buffer by one; ttl is in
        // {1}, so the next op must flush it.
        let other = RacyU32::new(0);
        let _ = other.load();
        assert_eq!(raw.load(std::sync::atomic::Ordering::Relaxed), 5);
        plan.finish();
    }

    /// A later store to the same cell supersedes the deferred one: the
    /// stale value can never overwrite the newer value.
    #[test]
    fn newer_store_supersedes_deferred() {
        let c = RacyU32::new(0);
        let cfg = ChaosConfig { defer_chance: 0.5, stale_window: 4, ..Default::default() };
        let plan = install(&cfg, 0, None, None);
        for i in 1..1000u32 {
            c.store(i);
        }
        plan.finish();
        assert_eq!(c.load(), 999, "final value must be the program-order-last store");
    }

    #[test]
    fn skew_perturbs_and_counts() {
        let cfg = ChaosConfig::skew_only(42);
        let plan = install(&cfg, 0, None, None);
        let mut changed = 0;
        for _ in 0..200 {
            if skew_index(1000) != 1000 {
                changed += 1;
            }
        }
        let injected = finish(plan);
        assert!(changed > 0, "skew_chance=0.5 must perturb some reads");
        assert_eq!(injected, changed, "every perturbation must be counted");
    }

    /// Scripted feeds hit loads positionally per class, stores and
    /// unscripted loads read real memory, and the report accounts for
    /// what was consumed.
    #[test]
    fn script_feeds_loads_positionally() {
        let c = RacyU32::new(10);
        let u = RacyUsize::new(20);
        install_script(&ChaosScript {
            usize_loads: vec![Some(77), None],
            u32_loads: vec![None, Some(55)],
        });
        assert_eq!(u.load(), 77, "1st usize load is fed");
        assert_eq!(c.load(), 10, "1st u32 load passes through");
        assert_eq!(c.load(), 55, "2nd u32 load is fed");
        c.store(11);
        assert_eq!(c.load(), 11, "exhausted script: real memory, stores landed");
        assert_eq!(u.load(), 20, "2nd usize entry is None: real memory");
        let report = uninstall_script();
        assert_eq!(report, ScriptReport { fed_usize: 1, fed_u32: 1, leftover: 0 });
    }

    /// A script takes precedence over an installed plan for the loads it
    /// covers, and uninstalling the script leaves the plan untouched.
    #[test]
    fn script_overrides_plan_for_covered_loads() {
        let cfg = ChaosConfig { defer_chance: 1.0, stale_window: 1000, ..Default::default() };
        let plan = install(&cfg, 0, None, None);
        let c = RacyU32::new(3);
        c.store(9); // deferred by the plan; forwarding would return 9
        install_script(&ChaosScript { u32_loads: vec![Some(42)], ..Default::default() });
        assert_eq!(c.load(), 42, "scripted feed wins over plan forwarding");
        assert_eq!(c.load(), 9, "after the script: plan forwarding again");
        let report = uninstall_script();
        assert_eq!(report.fed_u32, 1);
        plan.finish();
        assert_eq!(c.load(), 9, "finish flushed the deferred store");
    }

    /// A bounded stall fires exactly once, at the configured op, and is
    /// counted as an injected fault.
    #[test]
    fn stall_fires_once_at_the_configured_op() {
        let cfg = ChaosConfig::stall(1, 3, 50);
        let injected = with_plan(cfg, || {
            let c = RacyU32::new(0);
            for i in 0..10u32 {
                c.store(i);
            }
        });
        assert_eq!(injected, 1, "exactly one stall");
    }

    /// A huge stall breaks promptly once the plan's cancellation token
    /// fires — the cancellation-under-stall mechanism.
    #[test]
    fn cancelled_token_releases_a_stuck_stall() {
        let token = CancelToken::new(&Clock::wall());
        token.cancel(); // pre-fired: the stall must exit on entry
        let plan = install(&ChaosConfig::stall(1, 1, u32::MAX), 0, Some(&token), None);
        let t0 = std::time::Instant::now();
        RacyU32::new(0).store(1);
        assert_eq!(finish(plan), 1);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "a fired token must break the stall immediately"
        );
    }

    /// A live token leaves a bounded stall to run its spin budget.
    #[test]
    fn live_token_does_not_break_the_stall() {
        let token = CancelToken::new(&Clock::wall());
        let plan = install(&ChaosConfig::stall(1, 1, 100), 0, Some(&token), None);
        RacyU32::new(0).store(1);
        assert_eq!(finish(plan), 1);
    }

    /// Panic injection fires deterministically at the configured op and
    /// unwinds cleanly through the hook.
    #[test]
    fn panic_at_fires_deterministically() {
        let result = std::panic::catch_unwind(|| {
            let _plan = install(&ChaosConfig::panic_at(1, 2), 0, None, None);
            let c = RacyU32::new(0);
            c.store(1); // op 1
            c.store(2); // op 2: panics
        });
        let err = result.expect_err("op 2 must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected worker panic"), "{msg}");
        assert!(!is_active());
    }

    /// `finish` removes the plan, flushes its deferred stores and hands
    /// back its FAULT ring when a recording was asked for.
    #[test]
    fn finish_returns_the_fault_ring_and_uninstalls() {
        let cfg = ChaosConfig {
            defer_chance: 1.0,
            stale_window: 1000,
            delay_chance: 0.0,
            ..Default::default()
        };
        let cell = RacyU32::new(0);
        let plan = install(&cfg, 0, None, Some((64, Instant::now())));
        cell.store(1);
        cell.store(2);
        let ring = plan.finish().expect("a recording was asked for");
        assert!(!is_active(), "finish must remove the plan");
        assert_eq!(cell.load(), 2, "finish must flush deferred stores");
        let got: Vec<_> = ring.events.iter().map(|e| (e.kind, e.a)).collect();
        let defer = (crate::flight::kind::FAULT, crate::flight::kind::FAULT_DEFER);
        assert_eq!(got, [defer, defer]);
        assert_eq!(install(&cfg, 0, None, None).finish(), None, "no recording, no ring");
    }

    /// A worker unwinding with its plan installed drops the guard, which
    /// flushes and removes the plan, so a later run on the same thread
    /// starts clean.
    #[test]
    fn guard_uninstalls_on_unwind() {
        let cfg = ChaosConfig { defer_chance: 1.0, stale_window: 1000, ..Default::default() };
        let cell = RacyU32::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _plan = install(&cfg, 0, None, Some((64, Instant::now())));
            cell.store(7);
            assert!(is_active());
            panic!("injected failure with the plan installed");
        }));
        assert!(result.is_err());
        assert!(!is_active(), "the guard's drop must remove the plan on unwind");
        assert_eq!(cell.load(), 7, "the guard's drop must flush deferred stores");
    }

    #[test]
    fn plans_are_seed_reproducible() {
        let cfg = ChaosConfig::aggressive(7);
        let run = || {
            let plan = install(&cfg, 3, None, None);
            let c = RacyU32::new(0);
            let mut trace = Vec::new();
            for i in 0..500u32 {
                c.store(i);
                trace.push(c.load());
                trace.push(skew_index(i as usize) as u32);
            }
            (trace, finish(plan))
        };
        assert_eq!(run(), run(), "same seed + stream must reproduce the same fault plan");
    }
}
