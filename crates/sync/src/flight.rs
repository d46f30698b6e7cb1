//! Flight recorder: fixed-capacity event rings for scheduling events.
//!
//! The optimistic dispatchers make scheduling decisions (segment fetches,
//! steals, aborts) thousands of times per level; understanding *where* a
//! traversal spends its time requires seeing those decisions on a
//! timeline, not just in aggregate counters. A [`FlightRing`] records
//! them; a run asks for one per worker through
//! `BfsOptions::flight_recorder`, and a run that asks for none holds no
//! ring and records nothing.
//!
//! # Memory model: why plain stores are enough
//!
//! A ring is a plain value with one owner. A BFS worker's ring lives in
//! its `obfs_core::Worker` record, and the chaos plan's fault ring (see
//! [`crate::chaos`]) in the plan on the same thread; each is written
//! only by the thread that owns it. Recording therefore needs no
//! atomics, no locks and no fences — a plain store into owned memory.
//! Cross-thread publication happens only after the fact: the finished
//! [`RingDump`] crosses threads through the driver's per-thread slot,
//! and the pool join (a lock/condvar handshake) provides the
//! happens-before edge for whoever aggregates the dumps. This is the
//! same ownership discipline as `ThreadStats` in `obfs-core`, applied to
//! a time series.
//!
//! # Bounded memory
//!
//! A ring has a fixed capacity chosen at [`FlightRing::new`]; when it is
//! full the oldest events are overwritten and counted in
//! [`RingDump::dropped`]. A traversal can therefore never allocate
//! unboundedly no matter how long it runs — the recorder keeps the most
//! recent window, which is what post-mortem debugging wants anyway.
//! [`RingDump::merge`] folds two rings of one capacity into the window
//! a single ring would have kept of both streams.

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
/// its owner's ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the epoch passed to [`FlightRing::new`] (shared
    /// by every ring of a run, so timelines line up across threads).
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

/// One owner's event ring: the newest `capacity` events, timed from a
/// run's shared epoch. See the module docs.
#[derive(Debug)]
pub struct FlightRing {
    epoch: Instant,
    buf: Vec<FlightEvent>,
    /// Next write position once the buffer reached capacity.
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl FlightRing {
    /// A ring with room for `capacity` events (0 is clamped to 1), timed
    /// from `epoch`, the run start every ring of the run shares so their
    /// timelines line up.
    pub fn new(capacity: usize, epoch: Instant) -> Self {
        let capacity = capacity.max(1);
        Self { epoch, buf: Vec::with_capacity(capacity), head: 0, dropped: 0, capacity }
    }

    /// Events the ring holds before it starts overwriting.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one event, timed now.
    #[inline]
    pub fn record(&mut self, kind: u16, level: u32, a: u64, b: u64) {
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        self.push(FlightEvent { ts_us, kind, level, a, b });
    }

    /// Append `ev` as the newest event, overwriting the oldest once the
    /// ring is full.
    fn push(&mut self, ev: FlightEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// The surviving events, oldest first, and the overwritten count.
    pub fn into_dump(mut self) -> RingDump {
        self.buf.rotate_left(self.head);
        RingDump { events: self.buf, dropped: self.dropped }
    }
}

impl RingDump {
    /// Fold in `other`, the dump of a second ring of the same
    /// `capacity` on the same epoch: the result holds the newest
    /// `capacity` events of both, ordered by timestamp (ties keep this
    /// dump's event first), and counts every other event as dropped.
    ///
    /// That is exactly the dump one ring of `capacity` would hold had it
    /// recorded both streams: an event among the newest `capacity` of
    /// the combined stream has fewer than `capacity` newer events in its
    /// own stream, so its own ring still held it.
    pub fn merge(mut self, other: RingDump, capacity: usize) -> RingDump {
        self.events.extend(other.events);
        self.events.sort_by_key(|e| e.ts_us);
        let cut = self.events.len().saturating_sub(capacity.max(1));
        self.events.drain(..cut);
        RingDump { events: self.events, dropped: self.dropped + other.dropped + cut as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_us: u64, a: u64) -> FlightEvent {
        FlightEvent { ts_us, kind: kind::SEGMENT_FETCH, level: 0, a, b: 0 }
    }

    #[test]
    fn events_come_back_in_order() {
        let mut ring = FlightRing::new(64, Instant::now());
        for i in 0..10u64 {
            ring.record(kind::SEGMENT_FETCH, 3, i, i * 2);
        }
        let dump = ring.into_dump();
        assert_eq!(dump.events.len(), 10);
        assert_eq!(dump.dropped, 0);
        for (i, e) in dump.events.iter().enumerate() {
            assert_eq!((e.a, e.b, e.level), (i as u64, i as u64 * 2, 3));
        }
        // Timestamps are monotone (non-decreasing at us resolution).
        assert!(dump.events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = FlightRing::new(4, Instant::now());
        for i in 0..10u64 {
            ring.record(kind::FETCH_RETRY, 0, i, 0);
        }
        let dump = ring.into_dump();
        assert_eq!(dump.events.len(), 4, "capacity bounds the ring");
        assert_eq!(dump.dropped, 6);
        let kept: Vec<u64> = dump.events.iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "most recent events survive, in order");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut ring = FlightRing::new(0, Instant::now());
        assert_eq!(ring.capacity(), 1);
        ring.record(kind::LEVEL_START, 0, 0, 0);
        ring.record(kind::LEVEL_END, 0, 0, 0);
        let dump = ring.into_dump();
        assert_eq!(dump.events.len(), 1);
        assert_eq!(dump.events[0].kind, kind::LEVEL_END);
        assert_eq!(dump.dropped, 1);
    }

    /// A worker ring and a fault ring of capacity c, each fed its share
    /// of one stream, merge into the dump one ring of capacity c fed the
    /// whole stream holds: the same events and the same `dropped`.
    #[test]
    fn merged_rings_equal_one_shared_ring() {
        let mut rng = obfs_util::Xoshiro256StarStar::new(0x7269_6E67);
        for c in [1usize, 4, 64] {
            for len in [0, 1, c - 1, c, c + 1, 3 * c + 2, 200] {
                let epoch = Instant::now();
                let (mut worker, mut faults, mut shared) = (
                    FlightRing::new(c, epoch),
                    FlightRing::new(c, epoch),
                    FlightRing::new(c, epoch),
                );
                let mut ts = 0u64;
                for i in 0..len as u64 {
                    ts += 1 + rng.next_u64() % 5; // distinct, increasing
                    let e = ev(ts, i);
                    shared.push(e);
                    if rng.next_u64().is_multiple_of(3) {
                        faults.push(e);
                    } else {
                        worker.push(e);
                    }
                }
                let merged = worker.into_dump().merge(faults.into_dump(), c);
                assert_eq!(merged, shared.into_dump(), "capacity {c}, {len} events");
            }
        }
    }
}
