//! Per-query lifecycle spans for the serve engine.
//!
//! Every query the engine touches walks a small state machine:
//!
//! ```text
//!   SUBMITTED ──► POPPED ────────────► RUN_START ─► RETRY* ─► terminal
//!       │             │  (solo/leader)     ▲
//!       │             └────────────► terminal (resolved at pop time)
//!       │
//!       ├───────► COALESCED(leader) ─► RUN_START ──────────► terminal
//!       │             │  (batch member)
//!       │             └────────────► terminal (resolved at pop time)
//!       │
//!   SHED (terminal: rejected at the admission gate)
//! ```
//!
//! where *terminal* is one of `COMPLETE`, `DEGRADED`, `CANCELLED`,
//! `DEADLINE_EXCEEDED`, `FAILED`. The engine records each transition in
//! an always-on bounded [`SpanLog`], the one record of query lifecycles
//! in every build: a coalesced query's `COALESCED` span names its batch
//! leader, whose own timeline carries the shared `RUN_START`.
//!
//! [`validate`] replays a span stream against the state machine and is
//! what the acceptance test uses to prove the engine emitted a complete,
//! legal lifecycle for *every* query, batched or not.

use obfs_sync::Clock;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Span stage codes.
pub mod stage {
    /// Admitted past the capacity gate (`info` = source vertex).
    pub const SUBMITTED: u64 = 1;
    /// Rejected at the admission gate; terminal (`info` = jobs in
    /// flight at the time).
    pub const SHED: u64 = 2;
    /// Dequeued by the scheduler in EDF order (`info` = queue depth
    /// left behind).
    pub const POPPED: u64 = 3;
    /// Extracted from the queue into another query's batch (`info` =
    /// leader query id).
    pub const COALESCED: u64 = 4;
    /// Handed to the pool (`info` = batch size, 1 for a solo run).
    pub const RUN_START: u64 = 5;
    /// The run failed transiently and is being retried (`info` = next
    /// attempt number, recorded on the solo query or the batch leader).
    pub const RETRY: u64 = 6;
    /// Terminal: completed exactly.
    pub const COMPLETE: u64 = 7;
    /// Terminal: completed under watchdog degradation (`info` = retries).
    pub const DEGRADED: u64 = 8;
    /// Terminal: cancelled by its token (`info` = retries).
    pub const CANCELLED: u64 = 9;
    /// Terminal: deadline passed (`info` = retries).
    pub const DEADLINE_EXCEEDED: u64 = 10;
    /// Terminal: retries exhausted or worker panic (`info` = retries).
    pub const FAILED: u64 = 11;

    /// Human-readable stage name.
    pub fn name(s: u64) -> &'static str {
        match s {
            SUBMITTED => "submitted",
            SHED => "shed",
            POPPED => "popped",
            COALESCED => "coalesced",
            RUN_START => "run-start",
            RETRY => "retry",
            COMPLETE => "complete",
            DEGRADED => "degraded",
            CANCELLED => "cancelled",
            DEADLINE_EXCEEDED => "deadline-exceeded",
            FAILED => "failed",
            _ => "unknown",
        }
    }

    /// Whether `s` ends a lifecycle.
    pub fn is_terminal(s: u64) -> bool {
        matches!(s, SHED | COMPLETE | DEGRADED | CANCELLED | DEADLINE_EXCEEDED | FAILED)
    }
}

/// One recorded transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Engine-clock timestamp.
    pub ts_ns: u64,
    /// Query id.
    pub id: u64,
    /// Stage code ([`stage`]).
    pub stage: u64,
    /// Stage-specific payload.
    pub info: u64,
}

/// A drained or copied span log: events oldest-first plus the count of
/// events the bounded ring overwrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanDump {
    /// Events, oldest first.
    pub events: Vec<SpanEvent>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
}

struct SpanBuf {
    buf: Vec<SpanEvent>,
    head: usize,
    wrapped: bool,
    dropped: u64,
}

/// A bounded, shared, always-on span ring. Unlike the flight recorder
/// this is written from two threads (the submitting client and the
/// scheduler), so it takes a `Mutex` — transitions happen at query
/// granularity, far off any per-edge hot path, and the lock is never
/// held across a clock read or an allocation beyond the ring itself.
pub struct SpanLog {
    clock: Clock,
    capacity: usize,
    inner: Mutex<SpanBuf>,
}

impl SpanLog {
    /// A ring with room for `capacity` transitions (clamped to >= 1).
    pub fn new(clock: Clock, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanLog {
            clock,
            capacity,
            inner: Mutex::new(SpanBuf { buf: Vec::new(), head: 0, wrapped: false, dropped: 0 }),
        }
    }

    /// Record a transition for query `id`.
    pub fn record(&self, id: u64, stage: u64, info: u64) {
        let ts_ns = self.clock.now_ns();
        let ev = SpanEvent { ts_ns, id, stage, info };
        let mut b = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if b.buf.len() < self.capacity {
            b.buf.push(ev);
        } else {
            let head = b.head;
            b.buf[head] = ev;
            b.head = (head + 1) % self.capacity;
            b.wrapped = true;
            b.dropped += 1;
        }
    }

    /// A copy of the current contents, oldest first (non-draining, so a
    /// mid-run scrape never disturbs the record).
    pub fn snapshot(&self) -> SpanDump {
        let b = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut events = Vec::with_capacity(b.buf.len());
        if b.wrapped {
            events.extend_from_slice(&b.buf[b.head..]);
            events.extend_from_slice(&b.buf[..b.head]);
        } else {
            events.extend_from_slice(&b.buf);
        }
        SpanDump { events, dropped: b.dropped }
    }
}

impl std::fmt::Debug for SpanLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        f.debug_struct("SpanLog")
            .field("events", &b.buf.len())
            .field("dropped", &b.dropped)
            .finish()
    }
}

/// A validated per-query lifecycle.
#[derive(Debug, Clone)]
pub struct Lifecycle {
    /// This query's transitions, in order.
    pub events: Vec<SpanEvent>,
    /// The terminal stage code.
    pub terminal: u64,
    /// `Some(leader)` when the query ran as a member of `leader`'s
    /// coalesced batch.
    pub coalesced_into: Option<u64>,
    /// The `info` of the `RUN_START` transition (batch size), if the
    /// query reached the pool.
    pub batch_size: Option<u64>,
}

/// Group a span stream by query id (order-preserving within an id).
pub fn lifecycles(events: &[SpanEvent]) -> BTreeMap<u64, Vec<SpanEvent>> {
    let mut map: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for &e in events {
        map.entry(e.id).or_default().push(e);
    }
    map
}

/// Replay a span stream against the lifecycle state machine. Every
/// query id must walk a legal path ending in exactly one terminal
/// stage, timestamps must be non-decreasing within an id, and every
/// `COALESCED` transition must name a leader id that exists and reached
/// the pool. Returns the validated lifecycles keyed by id.
pub fn validate(events: &[SpanEvent]) -> Result<BTreeMap<u64, Lifecycle>, String> {
    let grouped = lifecycles(events);
    let mut out = BTreeMap::new();
    for (&id, evs) in &grouped {
        out.insert(id, validate_one(id, evs)?);
    }
    // Cross-query check: members point at real leaders that ran.
    let keys: Vec<u64> = out.keys().copied().collect();
    for id in keys {
        let Some(leader) = out[&id].coalesced_into else { continue };
        let lc = out
            .get(&leader)
            .ok_or_else(|| format!("query {id}: coalesced into unknown leader {leader}"))?;
        if lc.coalesced_into.is_some() {
            return Err(format!("query {id}: leader {leader} is itself a batch member"));
        }
        if lc.batch_size.is_none() {
            return Err(format!("query {id}: leader {leader} never reached RUN_START"));
        }
    }
    Ok(out)
}

fn validate_one(id: u64, evs: &[SpanEvent]) -> Result<Lifecycle, String> {
    #[derive(PartialEq)]
    enum S {
        Start,
        Admitted,
        Dispatched,
        Running,
        Done,
    }
    let mut s = S::Start;
    let mut coalesced_into = None;
    let mut batch_size = None;
    let mut terminal = 0;
    let mut last_ts = 0u64;
    for e in evs {
        if e.ts_ns < last_ts {
            return Err(format!("query {id}: timestamps regress at {}", stage::name(e.stage)));
        }
        last_ts = e.ts_ns;
        s = match (s, e.stage) {
            (S::Start, stage::SUBMITTED) => S::Admitted,
            (S::Start, stage::SHED) => {
                terminal = stage::SHED;
                S::Done
            }
            (S::Admitted, stage::POPPED) => S::Dispatched,
            (S::Admitted, stage::COALESCED) => {
                coalesced_into = Some(e.info);
                S::Dispatched
            }
            (S::Dispatched, stage::RUN_START) => {
                batch_size = Some(e.info);
                S::Running
            }
            // Resolved at pop time without touching the pool: only the
            // token-driven terminals are legal here.
            (S::Dispatched, t @ (stage::CANCELLED | stage::DEADLINE_EXCEEDED)) => {
                terminal = t;
                S::Done
            }
            (S::Running, stage::RETRY) => S::Running,
            (S::Running, t) if stage::is_terminal(t) && t != stage::SHED => {
                terminal = t;
                S::Done
            }
            (_, st) => {
                return Err(format!(
                    "query {id}: illegal transition to {} in {:?}",
                    stage::name(st),
                    evs.iter().map(|e| stage::name(e.stage)).collect::<Vec<_>>()
                ));
            }
        };
    }
    if s != S::Done {
        return Err(format!(
            "query {id}: lifecycle never reached a terminal stage: {:?}",
            evs.iter().map(|e| stage::name(e.stage)).collect::<Vec<_>>()
        ));
    }
    Ok(Lifecycle { events: evs.to_vec(), terminal, coalesced_into, batch_size })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, st: u64, info: u64) -> SpanEvent {
        SpanEvent { ts_ns: 0, id, stage: st, info }
    }

    #[test]
    fn span_log_bounds_and_orders() {
        let (clock, hand) = Clock::manual();
        let log = SpanLog::new(clock, 4);
        for i in 0..6u64 {
            hand.set_ns(i * 10);
            log.record(i, stage::SUBMITTED, 0);
        }
        let d = log.snapshot();
        assert_eq!(d.events.len(), 4);
        assert_eq!(d.dropped, 2);
        let ids: Vec<u64> = d.events.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 3, 4, 5], "most recent transitions survive, in order");
        // Snapshot is non-draining.
        assert_eq!(log.snapshot().events.len(), 4);
    }

    #[test]
    fn legal_lifecycles_validate() {
        let events = vec![
            // Solo query with one retry.
            ev(1, stage::SUBMITTED, 0),
            ev(1, stage::POPPED, 0),
            ev(1, stage::RUN_START, 1),
            ev(1, stage::RETRY, 1),
            ev(1, stage::COMPLETE, 1),
            // Shed at the gate.
            ev(2, stage::SHED, 4),
            // Batch leader + member.
            ev(3, stage::SUBMITTED, 0),
            ev(4, stage::SUBMITTED, 0),
            ev(3, stage::POPPED, 1),
            ev(4, stage::COALESCED, 3),
            ev(3, stage::RUN_START, 2),
            ev(4, stage::RUN_START, 2),
            ev(3, stage::COMPLETE, 0),
            ev(4, stage::COMPLETE, 0),
            // Resolved at pop time.
            ev(5, stage::SUBMITTED, 0),
            ev(5, stage::POPPED, 0),
            ev(5, stage::DEADLINE_EXCEEDED, 0),
        ];
        let lcs = validate(&events).unwrap();
        assert_eq!(lcs.len(), 5);
        assert_eq!(lcs[&1].terminal, stage::COMPLETE);
        assert_eq!(lcs[&2].terminal, stage::SHED);
        assert_eq!(lcs[&4].coalesced_into, Some(3));
        assert_eq!(lcs[&3].batch_size, Some(2));
        assert_eq!(lcs[&5].terminal, stage::DEADLINE_EXCEEDED);
    }

    #[test]
    fn illegal_lifecycles_are_rejected() {
        // Terminal without RUN_START by a non-token cause.
        let bad =
            vec![ev(1, stage::SUBMITTED, 0), ev(1, stage::POPPED, 0), ev(1, stage::COMPLETE, 0)];
        assert!(validate(&bad).is_err());
        // Never reaches a terminal.
        let bad = vec![ev(1, stage::SUBMITTED, 0), ev(1, stage::POPPED, 0)];
        assert!(validate(&bad).unwrap_err().contains("never reached"));
        // Member pointing at a leader that never ran.
        let bad = vec![
            ev(1, stage::SUBMITTED, 0),
            ev(1, stage::POPPED, 0),
            ev(1, stage::CANCELLED, 0),
            ev(2, stage::SUBMITTED, 0),
            ev(2, stage::COALESCED, 1),
            ev(2, stage::RUN_START, 2),
            ev(2, stage::COMPLETE, 0),
        ];
        assert!(validate(&bad).unwrap_err().contains("never reached RUN_START"));
        // Member pointing at a nonexistent leader.
        let bad = vec![
            ev(2, stage::SUBMITTED, 0),
            ev(2, stage::COALESCED, 99),
            ev(2, stage::RUN_START, 2),
            ev(2, stage::COMPLETE, 0),
        ];
        assert!(validate(&bad).unwrap_err().contains("unknown leader"));
        // Double terminal.
        let bad = vec![ev(1, stage::SHED, 0), ev(1, stage::SUBMITTED, 0)];
        assert!(validate(&bad).is_err());
    }
}
