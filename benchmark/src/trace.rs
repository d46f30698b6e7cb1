//! In-memory spans, written once at the end as a Chrome trace-event file
//! (open it in `chrome://tracing` or Perfetto).

use obfs_util::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the file.
    pub id: u64,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<u64>,
    /// Layer boundary name (`workload`, `setup`, `query`, ...).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Display lane: spans on one lane never overlap unless nested.
    pub lane: u64,
    /// Extra attributes (ids, counters, per-level records).
    pub args: Vec<(String, Json)>,
}

/// Collects spans in memory; nothing is written until [`Tracer::write`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// `at` in ns since the epoch.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserve a span id (for spans whose end is not known yet).
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Record a span from `start` to `end` under a reserved `id`.
    pub fn record_as(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = self.ns(start);
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            dur_ns: self.ns(end) - start_ns,
            lane: 0,
            args: Vec::new(),
        });
    }

    /// Record a span from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, parent, name, start, end);
        id
    }

    /// Record a fully specified span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Attach attributes to an already recorded span.
    pub fn annotate(&mut self, id: u64, args: Vec<(String, Json)>) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.args.extend(args);
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The Chrome trace-event document: one complete (`"ph":"X"`) event
    /// per span, microsecond timestamps, `id`/`parent` in `args`.
    pub fn to_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![
                    ("id".to_string(), Json::Num(s.id as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ];
                args.extend(s.args.iter().cloned());
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cat".into(), Json::Str("benchmark".into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(s.dur_ns as f64 / 1e3)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(s.lane as f64)),
                    ("args".into(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }

    /// Write [`Tracer::to_json`] to `path`, creating parent directories.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json().render())
    }
}

/// A served query's span triple, placed from the engine's own clock
/// readings: the query runs `total_ns` from its submit instant, split
/// exactly into `queue_wait` (`wait_ns`) then `service` (the rest).
#[allow(clippy::too_many_arguments)]
pub fn serve_query_spans(
    tracer: &mut Tracer,
    parent: u64,
    query_id: u64,
    submitted: Instant,
    lane: u64,
    wait_ns: u64,
    total_ns: u64,
    args: Vec<(String, Json)>,
) -> [u64; 3] {
    let start_ns = tracer.ns(submitted);
    let wait_ns = wait_ns.min(total_ns);
    let q = tracer.reserve();
    let mut query_args = vec![("query".to_string(), Json::Num(query_id as f64))];
    query_args.extend(args);
    tracer.push(Span {
        id: q,
        parent: Some(parent),
        name: "query",
        start_ns,
        dur_ns: total_ns,
        lane,
        args: query_args,
    });
    let mut ids = [q, 0, 0];
    for (slot, (name, from, dur)) in [
        ("queue_wait", start_ns, wait_ns),
        ("service", start_ns + wait_ns, total_ns - wait_ns),
    ]
    .into_iter()
    .enumerate()
    {
        let id = tracer.reserve();
        let args = vec![("query".to_string(), Json::Num(query_id as f64))];
        tracer.push(Span {
            id,
            parent: Some(q),
            name,
            start_ns: from,
            dur_ns: dur,
            lane,
            args,
        });
        ids[slot + 1] = id;
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn serve_spans_conserve_total_exactly() {
        let mut t = Tracer::new();
        let root = t.record(
            None,
            "workload",
            t.epoch,
            t.epoch + Duration::from_millis(50),
        );
        let submitted = t.epoch + Duration::from_micros(1234);
        for (wait, total) in [
            (0u64, 0u64),
            (1, 1),
            (12_345, 987_654_321),
            (7, 8),
            (999, 1000),
        ] {
            let [q, w, s] = serve_query_spans(&mut t, root, 42, submitted, 3, wait, total, vec![]);
            let span = |id| t.spans().iter().find(|x| x.id == id).unwrap().clone();
            let (q, w, s) = (span(q), span(w), span(s));
            assert_eq!(w.dur_ns + s.dur_ns, q.dur_ns, "wait + service == total");
            assert_eq!((w.start_ns, s.start_ns), (q.start_ns, q.start_ns + wait));
            assert_eq!(
                s.start_ns + s.dur_ns,
                q.start_ns + q.dur_ns,
                "service ends with the query"
            );
            assert_eq!(
                (w.parent, s.parent, q.parent),
                (Some(q.id), Some(q.id), Some(root))
            );
        }
    }

    #[test]
    fn chrome_document_carries_ids_and_parents() {
        let mut t = Tracer::new();
        let a = t.record(
            None,
            "workload",
            t.epoch,
            t.epoch + Duration::from_micros(10),
        );
        let b = t.record(
            Some(a),
            "setup",
            t.epoch,
            t.epoch + Duration::from_micros(4),
        );
        t.annotate(b, vec![("rep".into(), Json::Num(0.0))]);
        let doc = Json::parse(&t.to_json().render()).unwrap();
        let ev = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].get("name").unwrap().as_str(), Some("setup"));
        assert_eq!(ev[1].get("dur").unwrap().as_f64(), Some(4.0));
        let args = ev[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(a));
        assert_eq!(args.get("rep").unwrap().as_u64(), Some(0));
        assert_eq!(ev[0].get("args").unwrap().get("parent"), Some(&Json::Null));
    }
}
