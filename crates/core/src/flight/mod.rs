//! Run-level flight-recorder aggregation, chrome://tracing export, and
//! post-mortem analysis.
//!
//! The ring type itself lives in [`obfs_sync::flight`]; every worker's
//! `Worker` record owns one while a run asks for a recording. This
//! module holds what the driver assembles out of them after a run
//! ([`FlightRecording`]), a hand-rolled exporter to the Chrome Trace
//! Event JSON format (which both `chrome://tracing` and Perfetto load
//! directly), the inverse parser ([`parse_chrome_trace`]) that
//! reconstructs a recording from an exported file exactly, and the
//! [`analysis`] engine that turns a recording into a deterministic
//! [`analysis::Profile`]. The exporter/parser pair is dependency-free
//! on purpose: the workspace builds offline.
//!
//! # Lossless export
//!
//! Every non-metadata event carries its raw `{k, level, a, b}` payload
//! in `args` (the kind code `k` included), and every worker emits
//! `thread_name` metadata plus a `ring-dropped` counter sample — so
//! `parse_chrome_trace(&to_chrome_trace(r)) == r` holds exactly, and a
//! recorded run can be re-profiled offline from nothing but the trace
//! file.

pub mod analysis;

pub use obfs_sync::flight::{kind, FlightEvent, RingDump};

use obfs_util::json::Json;

/// Default ring capacity (events per worker) used by the CLI's `--trace`
/// flag. 16Ki events × 32 B = 512 KiB per worker — enough to hold every
/// level/barrier/steal event of a medium traversal without wrapping.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 16 * 1024;

/// The drained event rings of one run, one entry per worker (index =
/// thread id).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightRecording {
    /// Per-worker dumps, oldest event first within each worker.
    pub workers: Vec<RingDump>,
}

impl FlightRecording {
    /// Total surviving events across all workers.
    pub fn total_events(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Events overwritten by full rings, summed across all workers.
    /// Nonzero means the recording is a *suffix window* of the run and
    /// derived totals (event counts, utilization) undercount the early
    /// part — [`analysis::Profile`] surfaces this per worker.
    pub fn dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// Number of surviving events of one [`kind`] across all workers.
    pub fn count(&self, kind: u16) -> usize {
        self.workers.iter().map(|w| w.events.iter().filter(|e| e.kind == kind).count()).sum()
    }
}

/// Name of the per-worker dropped-events counter track in the exported
/// trace (also the parser's key for reconstructing [`RingDump::dropped`]).
const DROPPED_COUNTER: &str = "ring-dropped";

/// Render a recording as Chrome Trace Event JSON (the
/// `{"traceEvents": [...]}` object form). Paired events (level spans,
/// barrier waits, worker lifetimes) become `B`/`E` duration events so
/// the viewer draws them as bars; everything else becomes an instant
/// event. Emits `process_name`/`thread_name` metadata so workers are
/// labeled in chrome://tracing, a `ring-dropped` counter per worker,
/// and the full `{k, level, a, b}` payload on every event — enough for
/// [`parse_chrome_trace`] to reconstruct the recording exactly.
pub fn to_chrome_trace(rec: &FlightRecording) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(256 + rec.total_events() * 112);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"obfs\"}}");
    for (tid, worker) in rec.workers.iter().enumerate() {
        write!(
            out,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"worker {tid}\"}}}}"
        )
        .unwrap();
        write!(
            out,
            ",{{\"name\":\"{DROPPED_COUNTER}\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\
             \"tid\":{tid},\"args\":{{\"dropped\":{}}}}}",
            worker.dropped
        )
        .unwrap();
        for e in &worker.events {
            out.push(',');
            push_event(&mut out, tid, e);
        }
    }
    out.push_str("]}");
    out
}

fn push_event(out: &mut String, tid: usize, e: &FlightEvent) {
    use std::fmt::Write;
    let (name, ph): (String, char) = match e.kind {
        kind::LEVEL_START => (format!("level {}", e.level), 'B'),
        kind::LEVEL_END => (format!("level {}", e.level), 'E'),
        kind::BARRIER_ENTER => ("barrier".to_string(), 'B'),
        kind::BARRIER_EXIT => ("barrier".to_string(), 'E'),
        kind::WORKER_BEGIN => ("worker".to_string(), 'B'),
        kind::WORKER_END => ("worker".to_string(), 'E'),
        k => (kind::name(k).to_string(), 'i'),
    };
    write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{}",
        name, ph, e.ts_us, tid
    )
    .unwrap();
    if ph == 'i' {
        out.push_str(",\"s\":\"t\"");
    }
    // Raw payload on every event (kind code included) so the trace file
    // is a lossless serialization of the recording; viewers show it as
    // drill-down args and ignore keys they don't know.
    write!(
        out,
        ",\"args\":{{\"k\":{},\"level\":{},\"a\":{},\"b\":{}}}}}",
        e.kind, e.level, e.a, e.b
    )
    .unwrap();
}

/// Reconstruct a [`FlightRecording`] from Chrome Trace Event JSON
/// written by [`to_chrome_trace`]. Inverse of the exporter:
/// `parse_chrome_trace(&to_chrome_trace(rec)) == rec` exactly. Events
/// missing the `args.k` payload (a trace from some other tool) are an
/// error — this parser exists to re-profile our own recordings offline.
pub fn parse_chrome_trace(text: &str) -> Result<FlightRecording, String> {
    let doc = Json::parse(text)?;
    let events =
        doc.get("traceEvents").and_then(Json::as_arr).ok_or("trace: missing traceEvents array")?;
    let mut workers: Vec<RingDump> = Vec::new();
    fn ensure(workers: &mut Vec<RingDump>, tid: usize) {
        if workers.len() <= tid {
            workers.resize(tid + 1, RingDump::default());
        }
    }
    for (i, ev) in events.iter().enumerate() {
        let at = || format!("traceEvents[{i}]");
        let ph = ev.get("ph").and_then(Json::as_str).ok_or_else(|| format!("{}: no ph", at()))?;
        match ph {
            "M" => {
                // thread_name metadata sizes the worker list, so
                // trailing idle workers survive the round-trip.
                if ev.get("name").and_then(Json::as_str) == Some("thread_name") {
                    if let Some(tid) = ev.get("tid").and_then(Json::as_u64) {
                        ensure(&mut workers, tid as usize);
                    }
                }
            }
            "C" => {
                if ev.get("name").and_then(Json::as_str) != Some(DROPPED_COUNTER) {
                    continue; // foreign counter track: ignore
                }
                let tid = ev
                    .get("tid")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{}: counter without tid", at()))?
                    as usize;
                let dropped = ev
                    .get("args")
                    .and_then(|a| a.get("dropped"))
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{}: {DROPPED_COUNTER} without args.dropped", at()))?;
                ensure(&mut workers, tid);
                workers[tid].dropped = dropped;
            }
            _ => {
                let tid = ev
                    .get("tid")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{}: event without tid", at()))?
                    as usize;
                let ts_us = ev
                    .get("ts")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{}: event without integer ts", at()))?;
                let args = ev
                    .get("args")
                    .ok_or_else(|| format!("{}: event without args (not an obfs trace?)", at()))?;
                let field = |key: &str| {
                    args.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("{}: args.{key} missing or not an integer", at()))
                };
                let k = field("k")?;
                if k > u16::MAX as u64 {
                    return Err(format!("{}: kind code {k} out of range", at()));
                }
                let level = field("level")?;
                if level > u32::MAX as u64 {
                    return Err(format!("{}: level {level} out of range", at()));
                }
                ensure(&mut workers, tid);
                workers[tid].events.push(FlightEvent {
                    ts_us,
                    kind: k as u16,
                    level: level as u32,
                    a: field("a")?,
                    b: field("b")?,
                });
            }
        }
    }
    Ok(FlightRecording { workers })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_us: u64, kind: u16, level: u32, a: u64, b: u64) -> FlightEvent {
        FlightEvent { ts_us, kind, level, a, b }
    }

    #[test]
    fn counts_span_workers() {
        let rec = FlightRecording {
            workers: vec![
                RingDump {
                    events: vec![ev(0, kind::SEGMENT_FETCH, 0, 0, 4), ev(1, kind::FAULT, 0, 1, 2)],
                    dropped: 3,
                },
                RingDump { events: vec![ev(2, kind::SEGMENT_FETCH, 1, 0, 8)], dropped: 0 },
            ],
        };
        assert_eq!(rec.total_events(), 3);
        assert_eq!(rec.dropped(), 3);
        assert_eq!(rec.count(kind::SEGMENT_FETCH), 2);
        assert_eq!(rec.count(kind::FAULT), 1);
        assert_eq!(rec.count(kind::STEAL_SUCCESS), 0);
    }

    fn sample_recording() -> FlightRecording {
        FlightRecording {
            workers: vec![
                RingDump {
                    events: vec![
                        ev(10, kind::WORKER_BEGIN, 0, 0, 0),
                        ev(11, kind::LEVEL_START, 2, 5, 0),
                        ev(12, kind::STEAL_SUCCESS, 2, 1, 16),
                        ev(13, kind::LEVEL_END, 2, 0, 0),
                        ev(14, kind::WORKER_END, 0, 0, 0),
                    ],
                    dropped: 0,
                },
                RingDump { events: vec![ev(12, kind::FETCH_RETRY, 2, 3, 0)], dropped: 7 },
                // Idle worker: no events, nothing dropped.
                RingDump::default(),
            ],
        }
    }

    #[test]
    fn chrome_export_shape() {
        let json = to_chrome_trace(&sample_recording());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"level 2\",\"ph\":\"B\""));
        assert!(json.contains("\"name\":\"level 2\",\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"steal-success\",\"ph\":\"i\""));
        assert!(json.contains(&format!(
            "\"args\":{{\"k\":{},\"level\":2,\"a\":1,\"b\":16}}",
            kind::STEAL_SUCCESS
        )));
        // Balanced braces/brackets (cheap well-formedness proxy; the
        // JSON parser does the real round-trip below).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_export_labels_workers() {
        let json = to_chrome_trace(&sample_recording());
        assert!(json.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"obfs\"}}"
        ));
        for tid in 0..3 {
            assert!(json.contains(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"worker {tid}\"}}}}"
            )));
        }
        assert!(json.contains("\"name\":\"ring-dropped\",\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"dropped\":7}"));
    }

    #[test]
    fn export_parse_round_trip_is_exact() {
        let rec = sample_recording();
        let parsed = parse_chrome_trace(&to_chrome_trace(&rec)).unwrap();
        assert_eq!(parsed, rec);
        // Twice through is still a fixed point.
        assert_eq!(to_chrome_trace(&parsed), to_chrome_trace(&rec));
    }

    #[test]
    fn empty_recording_round_trips() {
        let json = to_chrome_trace(&FlightRecording::default());
        assert!(json.contains("process_name"));
        assert_eq!(parse_chrome_trace(&json).unwrap(), FlightRecording::default());
    }

    #[test]
    fn parser_rejects_foreign_traces() {
        // Well-formed chrome trace, but without our args payload.
        let foreign = r#"{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":0,"tid":0}]}"#;
        let err = parse_chrome_trace(foreign).unwrap_err();
        assert!(err.contains("args"), "{err}");
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").unwrap_err().contains("traceEvents"));
    }
}
