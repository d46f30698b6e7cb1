//! Flight recorder: per-worker event ring buffers (`--features trace`).
//!
//! The optimistic dispatchers make scheduling decisions (segment fetches,
//! steals, aborts) thousands of times per level; understanding *where* a
//! traversal spends its time requires seeing those decisions on a
//! timeline, not just in aggregate counters. This module records them
//! into a fixed-capacity per-thread ring buffer that costs nothing when
//! the `trace` cargo feature is off and almost nothing when it is on.
//!
//! # Memory model: why plain stores are enough
//!
//! Each recorder is **thread-local and exclusively owned**: a worker
//! writes events only into its own ring, and the ring is read only by
//! [`uninstall`] *on the same thread*. There is no cross-thread access to
//! a live ring at all, so recording needs no atomics, no locks, and no
//! fences on the hot path — a plain store into owned memory. Cross-thread
//! publication happens only after the fact: the worker moves its finished
//! [`RingDump`] into a per-thread slot before the pool joins, and the
//! pool join (a lock/condvar handshake) provides the happens-before edge
//! for whoever aggregates the dumps. This is the same ownership
//! discipline as `ThreadStats` in `obfs-core`, applied to a time series.
//!
//! # Bounded memory
//!
//! The ring has a fixed capacity chosen at [`install`] time; when it is
//! full the oldest events are overwritten and counted in
//! [`RingDump::dropped`]. A traversal can therefore never allocate
//! unboundedly no matter how long it runs — the recorder keeps the most
//! recent window, which is what post-mortem debugging wants anyway.
//!
//! # Zero cost when off
//!
//! Without the `trace` cargo feature every function in this module is an
//! `#[inline]` no-op, mirroring the [`chaos`](crate::chaos) module: the
//! event types stay compiled (so higher layers keep a feature-independent
//! shape) but no thread-local exists and [`record`] compiles to nothing.

use std::time::Instant;

/// Event kind codes (the taxonomy is documented per constant; DESIGN.md
/// has the narrative version).
pub mod kind {
    /// A worker began consuming a BFS level (`a` = its own queue rear).
    pub const LEVEL_START: u16 = 1;
    /// A worker finished consuming a BFS level.
    pub const LEVEL_END: u16 = 2;
    /// A segment was fetched from a dispatcher (`a` = queue or edge
    /// cursor, `b` = segment length).
    pub const SEGMENT_FETCH: u16 = 3;
    /// A dispatcher fetch raced and was retried (`a` = queue/pool index).
    pub const FETCH_RETRY: u16 = 4;
    /// A steal succeeded (`a` = victim, `b` = stolen segment length).
    pub const STEAL_SUCCESS: u16 = 5;
    /// A steal failed (`a` = victim, `b` = outcome code, see
    /// [`steal_outcome`](self)).
    pub const STEAL_FAIL: u16 = 6;
    /// A segment walk aborted at a cleared (stale) slot (`a` = queue,
    /// `b` = slot index).
    pub const STALE_ABORT: u16 = 7;
    /// A worker arrived at the level barrier.
    pub const BARRIER_ENTER: u16 = 8;
    /// A worker was released from the level barrier (`a` = 1 if it was
    /// the leader that ran the serial section).
    pub const BARRIER_EXIT: u16 = 9;
    /// The chaos backend injected a fault (`a` = cause code, see the
    /// `FAULT_*` constants; `b` = cause-specific magnitude).
    pub const FAULT: u16 = 10;
    /// The watchdog degraded this level (leader-recorded).
    pub const DEGRADED: u16 = 11;
    /// A worker's BFS closure started (`a` = tid).
    pub const WORKER_BEGIN: u16 = 12;
    /// A worker's BFS closure finished (`a` = tid).
    pub const WORKER_END: u16 = 13;
    /// The hybrid driver switched traversal direction for the *next*
    /// level (leader-recorded; `level` = the level that will run in the
    /// new direction, `a` = new direction, `b` = old direction, both as
    /// [`DIR_TOP_DOWN`] / [`DIR_BOTTOM_UP`] codes).
    pub const DIR_SWITCH: u16 = 14;
    /// The run was aborted cooperatively (leader-recorded; `level` = the
    /// last level that ran, `a` = cause as [`CANCEL_EXPLICIT`] /
    /// [`CANCEL_DEADLINE`]).
    pub const CANCEL: u16 = 15;
    /// A batched multi-source run was seeded (leader-recorded at level
    /// 0; `a` = batch size k, `b` = distinct seed vertices pushed).
    pub const BATCH: u16 = 16;
    /// The driver will materialize the *next* level's frontier by
    /// parallel prefix-sum compaction instead of queue-segment dispatch
    /// (leader-recorded; `level` = the level that will run compacted,
    /// `a` = that frontier's vertex count, `b` = 0).
    pub const COMPACT: u16 = 17;

    /// `FAULT` cause: injected delay window (`b` = spin count).
    pub const FAULT_DELAY: u64 = 1;
    /// `FAULT` cause: store deferred into the simulated buffer (`b` = ttl).
    pub const FAULT_DEFER: u64 = 2;
    /// `FAULT` cause: skewed index read (`b` = delta applied).
    pub const FAULT_SKEW: u64 = 3;
    /// `FAULT` cause: injected worker stall (`b` = spin budget).
    pub const FAULT_STALL: u64 = 4;

    /// `CANCEL` cause: [`CancelToken::cancel`] was called.
    ///
    /// [`CancelToken::cancel`]: crate::cancel::CancelToken::cancel
    pub const CANCEL_EXPLICIT: u64 = 1;
    /// `CANCEL` cause: the token's deadline passed.
    pub const CANCEL_DEADLINE: u64 = 2;

    /// `STEAL_FAIL` outcome: victim's lock was held.
    pub const STEAL_LOCKED: u64 = 1;
    /// `STEAL_FAIL` outcome: victim had no work.
    pub const STEAL_IDLE: u64 = 2;
    /// `STEAL_FAIL` outcome: remaining segment below the steal minimum.
    pub const STEAL_TOO_SMALL: u64 = 3;
    /// `STEAL_FAIL` outcome: segment already consumed (stale snapshot).
    pub const STEAL_STALE: u64 = 4;
    /// `STEAL_FAIL` outcome: snapshot failed the sanity check.
    pub const STEAL_INVALID: u64 = 5;

    /// `DIR_SWITCH` payload: top-down direction.
    pub const DIR_TOP_DOWN: u64 = 0;
    /// `DIR_SWITCH` payload: bottom-up direction.
    pub const DIR_BOTTOM_UP: u64 = 1;

    /// Human-readable name of a kind code (used by the trace exporter).
    pub fn name(k: u16) -> &'static str {
        match k {
            LEVEL_START => "level-start",
            LEVEL_END => "level-end",
            SEGMENT_FETCH => "segment-fetch",
            FETCH_RETRY => "fetch-retry",
            STEAL_SUCCESS => "steal-success",
            STEAL_FAIL => "steal-fail",
            STALE_ABORT => "stale-abort",
            BARRIER_ENTER => "barrier-enter",
            BARRIER_EXIT => "barrier-exit",
            FAULT => "fault",
            DEGRADED => "degraded",
            WORKER_BEGIN => "worker-begin",
            WORKER_END => "worker-end",
            DIR_SWITCH => "direction-switch",
            CANCEL => "cancel",
            BATCH => "batch",
            COMPACT => "compact",
            _ => "unknown",
        }
    }
}

/// One recorded event. 32 bytes, `Copy`, written with a plain store into
/// the thread-owned ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the run epoch passed to [`install`] (shared by
    /// all workers of a run, so timelines line up across threads).
    pub ts_us: u64,
    /// Event kind ([`kind`]).
    pub kind: u16,
    /// BFS level the event belongs to (0 where not applicable).
    pub level: u32,
    /// Kind-specific payload (see the [`kind`] constants).
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

/// A drained ring: the surviving events in chronological order plus the
/// count of older events the ring overwrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingDump {
    /// Events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
}

#[cfg(feature = "trace")]
mod active {
    use super::{FlightEvent, RingDump};
    use std::cell::RefCell;
    use std::time::Instant;

    struct Recorder {
        epoch: Instant,
        buf: Vec<FlightEvent>,
        /// Next write position once the buffer reached capacity.
        head: usize,
        /// Whether the ring has wrapped at least once.
        wrapped: bool,
        dropped: u64,
        capacity: usize,
    }

    thread_local! {
        static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    }

    pub(super) fn install(capacity: usize, epoch: Instant) {
        let capacity = capacity.max(1);
        REC.with(|r| {
            *r.borrow_mut() = Some(Recorder {
                epoch,
                buf: Vec::with_capacity(capacity),
                head: 0,
                wrapped: false,
                dropped: 0,
                capacity,
            });
        });
    }

    pub(super) fn uninstall() -> Option<RingDump> {
        REC.with(|r| r.borrow_mut().take()).map(|rec| {
            let mut events = Vec::with_capacity(rec.buf.len());
            if rec.wrapped {
                events.extend_from_slice(&rec.buf[rec.head..]);
                events.extend_from_slice(&rec.buf[..rec.head]);
            } else {
                events.extend_from_slice(&rec.buf);
            }
            RingDump { events, dropped: rec.dropped }
        })
    }

    pub(super) fn is_active() -> bool {
        REC.with(|r| r.borrow().is_some())
    }

    #[inline]
    pub(super) fn record(kind: u16, level: u32, a: u64, b: u64) {
        REC.with(|r| {
            let mut rec = r.borrow_mut();
            let Some(rec) = rec.as_mut() else { return };
            let ev =
                FlightEvent { ts_us: rec.epoch.elapsed().as_micros() as u64, kind, level, a, b };
            if rec.buf.len() < rec.capacity {
                rec.buf.push(ev);
            } else {
                // Plain store into thread-owned memory (see module docs).
                rec.buf[rec.head] = ev;
                rec.head = (rec.head + 1) % rec.capacity;
                rec.wrapped = true;
                rec.dropped += 1;
            }
        });
    }
}

/// Install a flight recorder on the current thread with room for
/// `capacity` events; `epoch` is the shared run start instant timestamps
/// are measured from. Replaces any previous recorder. No-op without the
/// `trace` feature.
#[inline]
pub fn install(capacity: usize, epoch: Instant) {
    #[cfg(feature = "trace")]
    active::install(capacity, epoch);
    #[cfg(not(feature = "trace"))]
    {
        let _ = (capacity, epoch);
    }
}

/// Remove the current thread's recorder and return its drained ring.
/// Returns `None` when no recorder was installed (always, without the
/// `trace` feature).
#[inline]
pub fn uninstall() -> Option<RingDump> {
    #[cfg(feature = "trace")]
    {
        active::uninstall()
    }
    #[cfg(not(feature = "trace"))]
    {
        None
    }
}

/// Whether the current thread has an installed recorder.
#[inline]
pub fn is_active() -> bool {
    #[cfg(feature = "trace")]
    {
        active::is_active()
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Record one event on the current thread's recorder, if any. Compiles
/// to nothing without the `trace` feature.
#[inline]
pub fn record(kind: u16, level: u32, a: u64, b: u64) {
    #[cfg(feature = "trace")]
    active::record(kind, level, a, b);
    #[cfg(not(feature = "trace"))]
    {
        let _ = (kind, level, a, b);
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    #[test]
    fn inactive_thread_records_nothing() {
        assert!(!is_active());
        record(kind::SEGMENT_FETCH, 0, 1, 2);
        assert!(uninstall().is_none());
    }

    #[test]
    fn events_come_back_in_order() {
        install(64, Instant::now());
        assert!(is_active());
        for i in 0..10u64 {
            record(kind::SEGMENT_FETCH, 3, i, i * 2);
        }
        let dump = uninstall().expect("recorder was installed");
        assert_eq!(dump.events.len(), 10);
        assert_eq!(dump.dropped, 0);
        for (i, e) in dump.events.iter().enumerate() {
            assert_eq!(e.a, i as u64);
            assert_eq!(e.level, 3);
        }
        // Timestamps are monotone (non-decreasing at us resolution).
        assert!(dump.events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert!(!is_active(), "uninstall must remove the recorder");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        install(4, Instant::now());
        for i in 0..10u64 {
            record(kind::FETCH_RETRY, 0, i, 0);
        }
        let dump = uninstall().unwrap();
        assert_eq!(dump.events.len(), 4, "capacity bounds the ring");
        assert_eq!(dump.dropped, 6);
        let kept: Vec<u64> = dump.events.iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "most recent events survive, in order");
    }

    #[test]
    fn reinstall_replaces_previous_ring() {
        install(8, Instant::now());
        record(kind::LEVEL_START, 0, 0, 0);
        install(8, Instant::now());
        record(kind::LEVEL_END, 1, 0, 0);
        let dump = uninstall().unwrap();
        assert_eq!(dump.events.len(), 1);
        assert_eq!(dump.events[0].kind, kind::LEVEL_END);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        install(0, Instant::now());
        record(kind::LEVEL_START, 0, 0, 0);
        record(kind::LEVEL_END, 0, 0, 0);
        let dump = uninstall().unwrap();
        assert_eq!(dump.events.len(), 1);
        assert_eq!(dump.dropped, 1);
    }
}
