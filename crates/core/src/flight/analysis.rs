//! Post-mortem trace profiler: turn a [`FlightRecording`] into a
//! deterministic [`Profile`].
//!
//! The flight recorder answers "what happened"; this module answers
//! "where did the time go". Given the drained rings of one run — live
//! from the driver or re-read from an exported trace file via
//! [`super::parse_chrome_trace`] — it derives:
//!
//! * **Per-worker utilization**: each worker's recorded span is split
//!   into *work*, *steal-search*, and *barrier-wait* time by classifying
//!   the gap between consecutive events by the event that terminates it
//!   (a gap ending in `BARRIER_EXIT` was spent waiting at the barrier, a
//!   gap ending in a steal event was spent probing victims, everything
//!   else is attributed to useful work). This is exact for barrier time
//!   (enter/exit bracket the wait) and a per-event-granularity
//!   approximation for the rest — at segment granularity, not per edge,
//!   which matches the recorder's taxonomy.
//! * **Per-level rates**: fetches, sanity-check retries, stale aborts,
//!   steals, faults, and degraded sweeps per BFS level, with the level's
//!   wall span (first `LEVEL_START` to last `LEVEL_END` across workers).
//! * **Steal-pressure timeline**: every failed steal's distance to the
//!   *next* barrier entry on the same worker, bucketed in a
//!   [`LogHistogram`] — failures piling up just before the barrier are
//!   the end-of-level tail the paper's work-stealing variants target.
//! * **Duplicate-exploration attribution**: stale aborts grouped by the
//!   queue they hit (`STALE_ABORT`'s `a` payload), i.e. *which
//!   dispatcher queues* the optimistic protocol re-walked.
//!
//! Everything here is a pure function of the recording: same recording
//! in, byte-identical [`Profile::to_json`] out. That is what makes
//! `obfs-cli analyze` replayable — a trace captured on one machine can
//! be re-profiled anywhere, forever, with identical output.

use super::{kind, FlightRecording};
use obfs_util::json::Json;
use obfs_util::LogHistogram;
use std::collections::BTreeMap;

/// Time breakdown and event counts for one worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerProfile {
    /// Thread id (index into [`FlightRecording::workers`]).
    pub tid: usize,
    /// Surviving events in this worker's ring.
    pub events: usize,
    /// Events the ring overwrote (recording is a suffix window if > 0).
    pub dropped: u64,
    /// Recorded span: first to last event timestamp, microseconds.
    pub total_us: u64,
    /// Gap time attributed to useful work (segment consumption).
    pub work_us: u64,
    /// Gap time attributed to steal search (gaps ending in a steal
    /// success or failure).
    pub steal_us: u64,
    /// Gap time attributed to barrier waiting (gaps ending in
    /// `BARRIER_EXIT`; for the barrier leader this includes the serial
    /// section it runs while the others spin).
    pub barrier_us: u64,
    /// Segments fetched.
    pub segments: u64,
    /// Successful steals.
    pub steal_success: u64,
    /// Failed steal attempts.
    pub steal_fail: u64,
    /// Stale-slot walk aborts.
    pub stale_aborts: u64,
}

impl WorkerProfile {
    /// `work_us / total_us` in percent (0 when nothing was recorded).
    pub fn utilization_pct(&self) -> f64 {
        pct(self.work_us, self.total_us)
    }
}

/// Aggregated per-level activity across all workers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelProfile {
    /// BFS level.
    pub level: u32,
    /// Wall span of the level: first `LEVEL_START` to last `LEVEL_END`
    /// across workers (0 if either end is missing from the window).
    pub duration_us: u64,
    /// Segments fetched.
    pub fetches: u64,
    /// Sanity-check fetch retries (optimistic dispatchers only).
    pub retries: u64,
    /// Stale-slot walk aborts.
    pub stale_aborts: u64,
    /// Successful steals.
    pub steal_success: u64,
    /// Failed steal attempts.
    pub steal_fail: u64,
    /// Chaos faults injected.
    pub faults: u64,
    /// 1 if the watchdog degraded this level to the serial sweep.
    pub degraded: u64,
}

impl LevelProfile {
    /// Retries per fetch — the optimistic protocol's contention rate.
    pub fn retry_rate(&self) -> f64 {
        if self.fetches == 0 {
            0.0
        } else {
            self.retries as f64 / self.fetches as f64
        }
    }
}

/// The derived profile: a pure, deterministic function of a
/// [`FlightRecording`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// One entry per worker, in thread-id order.
    pub workers: Vec<WorkerProfile>,
    /// One entry per BFS level seen in the window, ascending.
    pub levels: Vec<LevelProfile>,
    /// Distance (µs) from each failed steal to the next barrier entry
    /// on the same worker — the "how close to the end of the level do
    /// steals start failing" timeline.
    pub steal_fail_distance_us: LogHistogram,
    /// Stale aborts grouped by the queue they hit, ascending queue id:
    /// which dispatcher queues the optimistic protocol re-walked.
    pub stale_by_queue: Vec<(u64, u64)>,
    /// Total surviving events.
    pub total_events: u64,
    /// Total overwritten events across all rings.
    pub total_dropped: u64,
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

impl Profile {
    /// Derive the profile. Pure function: identical recordings produce
    /// identical profiles (and identical [`Profile::to_json`] bytes).
    pub fn from_recording(rec: &FlightRecording) -> Profile {
        let mut workers = Vec::with_capacity(rec.workers.len());
        let mut levels: BTreeMap<u32, LevelProfile> = BTreeMap::new();
        let mut spans: BTreeMap<u32, (Option<u64>, Option<u64>)> = BTreeMap::new();
        let mut steal_fail_distance_us = LogHistogram::new();
        let mut stale_by_queue: BTreeMap<u64, u64> = BTreeMap::new();

        for (tid, dump) in rec.workers.iter().enumerate() {
            let mut w = WorkerProfile {
                tid,
                events: dump.events.len(),
                dropped: dump.dropped,
                ..WorkerProfile::default()
            };
            let evs = &dump.events;
            if let (Some(first), Some(last)) = (evs.first(), evs.last()) {
                w.total_us = last.ts_us.saturating_sub(first.ts_us);
            }
            for (i, e) in evs.iter().enumerate() {
                // Utilization: attribute the gap since the previous
                // event to whatever this event terminates.
                if i > 0 {
                    let gap = e.ts_us.saturating_sub(evs[i - 1].ts_us);
                    match e.kind {
                        kind::BARRIER_EXIT => w.barrier_us += gap,
                        kind::STEAL_SUCCESS | kind::STEAL_FAIL => w.steal_us += gap,
                        _ => w.work_us += gap,
                    }
                }
                match e.kind {
                    kind::SEGMENT_FETCH => w.segments += 1,
                    kind::STEAL_SUCCESS => w.steal_success += 1,
                    kind::STEAL_FAIL => {
                        w.steal_fail += 1;
                        // Distance to the next barrier entry on this
                        // worker, if the window still contains one.
                        if let Some(enter) =
                            evs[i + 1..].iter().find(|n| n.kind == kind::BARRIER_ENTER)
                        {
                            steal_fail_distance_us.record(enter.ts_us.saturating_sub(e.ts_us));
                        }
                    }
                    kind::STALE_ABORT => {
                        w.stale_aborts += 1;
                        *stale_by_queue.entry(e.a).or_insert(0) += 1;
                    }
                    _ => {}
                }
                // Per-level aggregates.
                let lv = levels
                    .entry(e.level)
                    .or_insert_with(|| LevelProfile { level: e.level, ..LevelProfile::default() });
                match e.kind {
                    kind::SEGMENT_FETCH => lv.fetches += 1,
                    kind::FETCH_RETRY => lv.retries += 1,
                    kind::STALE_ABORT => lv.stale_aborts += 1,
                    kind::STEAL_SUCCESS => lv.steal_success += 1,
                    kind::STEAL_FAIL => lv.steal_fail += 1,
                    kind::FAULT => lv.faults += 1,
                    kind::DEGRADED => lv.degraded = 1,
                    kind::LEVEL_START => {
                        let s = spans.entry(e.level).or_insert((None, None));
                        s.0 = Some(s.0.map_or(e.ts_us, |t: u64| t.min(e.ts_us)));
                    }
                    kind::LEVEL_END => {
                        let s = spans.entry(e.level).or_insert((None, None));
                        s.1 = Some(s.1.map_or(e.ts_us, |t: u64| t.max(e.ts_us)));
                    }
                    _ => {}
                }
            }
            workers.push(w);
        }

        for (level, (start, end)) in &spans {
            if let (Some(s), Some(e)) = (start, end) {
                if let Some(lv) = levels.get_mut(level) {
                    lv.duration_us = e.saturating_sub(*s);
                }
            }
        }
        // Drop the synthetic level-0 bucket that only holds
        // worker-begin/end bookkeeping events (level 0 with no
        // activity at all).
        let levels: Vec<LevelProfile> = levels
            .into_values()
            .filter(|l| {
                l.duration_us != 0
                    || l.fetches
                        + l.retries
                        + l.stale_aborts
                        + l.steal_success
                        + l.steal_fail
                        + l.faults
                        + l.degraded
                        != 0
            })
            .collect();

        Profile {
            total_events: workers.iter().map(|w| w.events as u64).sum(),
            total_dropped: workers.iter().map(|w| w.dropped).sum(),
            workers,
            levels,
            steal_fail_distance_us,
            stale_by_queue: stale_by_queue.into_iter().collect(),
        }
    }

    /// Deterministic JSON form (render with [`Json::render`]).
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        let workers = self
            .workers
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    ("tid".into(), n(w.tid as u64)),
                    ("events".into(), n(w.events as u64)),
                    ("dropped".into(), n(w.dropped)),
                    ("total_us".into(), n(w.total_us)),
                    ("work_us".into(), n(w.work_us)),
                    ("steal_us".into(), n(w.steal_us)),
                    ("barrier_us".into(), n(w.barrier_us)),
                    ("segments".into(), n(w.segments)),
                    ("steal_success".into(), n(w.steal_success)),
                    ("steal_fail".into(), n(w.steal_fail)),
                    ("stale_aborts".into(), n(w.stale_aborts)),
                ])
            })
            .collect();
        let levels = self
            .levels
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    ("level".into(), n(l.level as u64)),
                    ("duration_us".into(), n(l.duration_us)),
                    ("fetches".into(), n(l.fetches)),
                    ("retries".into(), n(l.retries)),
                    ("stale_aborts".into(), n(l.stale_aborts)),
                    ("steal_success".into(), n(l.steal_success)),
                    ("steal_fail".into(), n(l.steal_fail)),
                    ("faults".into(), n(l.faults)),
                    ("degraded".into(), n(l.degraded)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("obfs-profile-v1".into())),
            ("total_events".into(), n(self.total_events)),
            ("total_dropped".into(), n(self.total_dropped)),
            ("workers".into(), Json::Arr(workers)),
            ("levels".into(), Json::Arr(levels)),
            ("steal_fail_distance_us".into(), self.steal_fail_distance_us.to_json()),
            (
                "stale_by_queue".into(),
                Json::Arr(
                    self.stale_by_queue.iter().map(|&(q, c)| Json::Arr(vec![n(q), n(c)])).collect(),
                ),
            ),
        ])
    }

    /// Human-readable fixed-width report.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if self.total_events == 0 {
            out.push_str("empty recording (no events)\n");
            return out;
        }
        writeln!(
            out,
            "events: {}   dropped: {}{}",
            self.total_events,
            self.total_dropped,
            if self.total_dropped > 0 {
                "   (ring wrapped: profile covers a suffix window of the run)"
            } else {
                ""
            }
        )
        .unwrap();

        out.push_str("\nper-worker utilization\n");
        writeln!(
            out,
            "{:>4} {:>8} {:>8} {:>10} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7} {:>7}",
            "tid",
            "events",
            "dropped",
            "span_us",
            "work%",
            "steal%",
            "barr%",
            "segs",
            "steal+",
            "steal-",
            "stale"
        )
        .unwrap();
        for w in &self.workers {
            writeln!(
                out,
                "{:>4} {:>8} {:>8} {:>10} {:>6.1}% {:>6.1}% {:>6.1}% {:>8} {:>7} {:>7} {:>7}",
                w.tid,
                w.events,
                w.dropped,
                w.total_us,
                pct(w.work_us, w.total_us),
                pct(w.steal_us, w.total_us),
                pct(w.barrier_us, w.total_us),
                w.segments,
                w.steal_success,
                w.steal_fail,
                w.stale_aborts
            )
            .unwrap();
        }

        if !self.levels.is_empty() {
            out.push_str("\nper-level activity\n");
            writeln!(
                out,
                "{:>5} {:>10} {:>8} {:>8} {:>9} {:>7} {:>7} {:>7} {:>6} {:>4}",
                "level",
                "span_us",
                "fetches",
                "retries",
                "retry/f",
                "stale",
                "steal+",
                "steal-",
                "fault",
                "deg"
            )
            .unwrap();
            for l in &self.levels {
                writeln!(
                    out,
                    "{:>5} {:>10} {:>8} {:>8} {:>9.3} {:>7} {:>7} {:>7} {:>6} {:>4}",
                    l.level,
                    l.duration_us,
                    l.fetches,
                    l.retries,
                    l.retry_rate(),
                    l.stale_aborts,
                    l.steal_success,
                    l.steal_fail,
                    l.faults,
                    if l.degraded != 0 { "yes" } else { "" }
                )
                .unwrap();
            }
        }

        if !self.steal_fail_distance_us.is_empty() {
            let h = &self.steal_fail_distance_us;
            out.push_str("\nsteal-fail distance to next barrier (us)\n");
            writeln!(
                out,
                "  n={}  p50={}  p90={}  p99={}  max={}",
                h.count(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.max()
            )
            .unwrap();
        }

        if !self.stale_by_queue.is_empty() {
            out.push_str("\nstale aborts by queue (duplicate-exploration attribution)\n");
            for &(q, c) in &self.stale_by_queue {
                writeln!(out, "  queue {:>4}: {}", q, c).unwrap();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightEvent, RingDump};

    fn ev(ts_us: u64, kind: u16, level: u32, a: u64, b: u64) -> FlightEvent {
        FlightEvent { ts_us, kind, level, a, b }
    }

    /// One worker doing work, stealing, waiting; a second worker whose
    /// ring wrapped.
    fn rec() -> FlightRecording {
        FlightRecording {
            workers: vec![
                RingDump {
                    events: vec![
                        ev(0, kind::WORKER_BEGIN, 0, 0, 0),
                        ev(10, kind::LEVEL_START, 1, 0, 0),
                        ev(40, kind::SEGMENT_FETCH, 1, 0, 8), // 30us work
                        ev(60, kind::STEAL_FAIL, 1, 1, 2),    // 20us steal
                        ev(70, kind::STEAL_SUCCESS, 1, 1, 4), // 10us steal
                        ev(75, kind::STALE_ABORT, 1, 3, 9),   // 5us work
                        ev(80, kind::LEVEL_END, 1, 0, 0),
                        ev(85, kind::BARRIER_ENTER, 1, 0, 0),
                        ev(100, kind::BARRIER_EXIT, 1, 0, 0), // 15us barrier
                        ev(110, kind::WORKER_END, 0, 0, 0),
                    ],
                    dropped: 0,
                },
                RingDump {
                    events: vec![
                        ev(12, kind::LEVEL_START, 1, 0, 0),
                        ev(50, kind::FETCH_RETRY, 1, 0, 0),
                        ev(90, kind::LEVEL_END, 1, 0, 0),
                    ],
                    dropped: 5,
                },
            ],
        }
    }

    #[test]
    fn utilization_gap_classification() {
        let p = Profile::from_recording(&rec());
        let w = &p.workers[0];
        assert_eq!(w.total_us, 110);
        assert_eq!(w.steal_us, 30, "gaps ending in steal events");
        assert_eq!(w.barrier_us, 15, "gap ending in barrier-exit");
        assert_eq!(w.work_us, w.total_us - w.steal_us - w.barrier_us);
        assert_eq!(w.segments, 1);
        assert_eq!(w.steal_success, 1);
        assert_eq!(w.steal_fail, 1);
        assert_eq!(w.stale_aborts, 1);
        assert!(w.utilization_pct() > 0.0 && w.utilization_pct() < 100.0);
    }

    #[test]
    fn level_aggregates_span_workers() {
        let p = Profile::from_recording(&rec());
        assert_eq!(p.levels.len(), 1);
        let l = &p.levels[0];
        assert_eq!(l.level, 1);
        // min LEVEL_START (10) to max LEVEL_END (90).
        assert_eq!(l.duration_us, 80);
        assert_eq!(l.fetches, 1);
        assert_eq!(l.retries, 1);
        assert_eq!(l.stale_aborts, 1);
        assert_eq!(l.steal_success, 1);
        assert_eq!(l.steal_fail, 1);
        assert_eq!(l.degraded, 0);
        assert!((l.retry_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn steal_fail_distance_is_measured_to_next_barrier_enter() {
        let p = Profile::from_recording(&rec());
        // Fail at 60, next BARRIER_ENTER on the same worker at 85.
        assert_eq!(p.steal_fail_distance_us.count(), 1);
        assert_eq!(p.steal_fail_distance_us.max(), 25);
    }

    #[test]
    fn stale_attribution_and_dropped_totals() {
        let p = Profile::from_recording(&rec());
        assert_eq!(p.stale_by_queue, vec![(3, 1)]);
        assert_eq!(p.total_dropped, 5);
        assert_eq!(p.workers[1].dropped, 5);
        assert_eq!(p.total_events, 13);
    }

    #[test]
    fn profile_is_deterministic() {
        let a = Profile::from_recording(&rec());
        let b = Profile::from_recording(&rec());
        assert_eq!(a, b);
        assert_eq!(a.to_json().render(), b.to_json().render());
        assert_eq!(a.render_table(), b.render_table());
    }

    #[test]
    fn empty_recording_profiles_empty() {
        let p = Profile::from_recording(&FlightRecording::default());
        assert_eq!(p.total_events, 0);
        assert!(p.workers.is_empty());
        assert!(p.levels.is_empty());
        assert!(p.render_table().contains("empty recording"));
    }

    #[test]
    fn json_has_stable_shape() {
        let j = Profile::from_recording(&rec()).to_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some("obfs-profile-v1"));
        assert_eq!(j.get("total_dropped").and_then(Json::as_u64), Some(5));
        let workers = j.get("workers").and_then(Json::as_arr).unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[1].get("dropped").and_then(Json::as_u64), Some(5));
        let levels = j.get("levels").and_then(Json::as_arr).unwrap();
        assert_eq!(levels[0].get("retries").and_then(Json::as_u64), Some(1));
        // Round-trips through the parser (shape, not just bytes).
        let rendered = j.render();
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn table_mentions_wrap_when_events_dropped() {
        let p = Profile::from_recording(&rec());
        let t = p.render_table();
        assert!(t.contains("suffix window"), "{t}");
        assert!(t.contains("per-worker utilization"));
        assert!(t.contains("per-level activity"));
    }
}
