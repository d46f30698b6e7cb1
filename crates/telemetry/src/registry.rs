//! The metrics registry: named counters, gauges, and windowed
//! histograms with deterministic snapshot/exposition forms.
//!
//! # Hot-path cost and memory model
//!
//! [`Counter`] is a fixed array of cache-padded `AtomicU64` shards; an
//! update is one relaxed `fetch_add` into the shard assigned to the
//! calling thread, so concurrent writers do not share a cache line in
//! the common case (more threads than shards degrade gracefully to a
//! shared shard — still correct, relaxed RMWs never lose increments).
//! [`Gauge`] is a single relaxed `AtomicI64`: gauges are leader- or
//! scheduler-written, never contended. [`Histogram`] takes a `Mutex`
//! per record — it is meant for *query*-granularity events (admission
//! latencies, batch occupancy), never per-edge work; the per-edge path
//! stays on the thread-owned `obfs-sync::metrics` histograms, and the BFS
//! driver publishes only per-level aggregates here (see [`crate::worker`]).
//!
//! Readers (scrapes) see each counter atomically but no consistent cut
//! across counters: a snapshot taken mid-update can observe, say, a
//! terminal-status increment before the matching gauge decrement.
//! Conservation invariants therefore hold at quiescence (all responses
//! delivered), which is exactly when the bench validator checks them;
//! live scrapes only rely on per-counter monotonicity.
//!
//! # Two-window decay
//!
//! Each histogram keeps three `LogHistogram`s: `live` (the current
//! window), `prev` (the window before it), and `total` (never reset).
//! Every record/read first rotates: once the window length `W` elapses,
//! `live` moves to `prev` and restarts; after two idle windows both are
//! cleared. The *windowed* view is `prev + live`, so a live p99 always
//! reflects between `W` and `2W` seconds of history — stale samples age
//! out without ever zeroing the visible view at a rotation edge.
//! `total` backs Prometheus `_sum`/`_count` (cumulative, as the format
//! expects) and whole-run percentiles.

use obfs_sync::{CachePadded, Clock};
use obfs_util::{Json, LogHistogram};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Counter shard count. 16 padded shards cover every pool size the
/// drivers use; beyond that threads share shards (correct, just closer).
const SHARDS: usize = 16;

/// Default histogram decay window.
pub const DEFAULT_WINDOW: Duration = Duration::from_secs(10);

/// The shard a thread's counter increments land in: assigned round-robin
/// on first use, then cached in a thread-local `Cell` (no atomics on the
/// fast path after the first increment).
fn shard_index() -> usize {
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut i = s.get();
        if i == usize::MAX {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            i = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(i);
        }
        i
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking scraper must not wedge the writers (same recovery
    // idiom as the engine's state lock).
    m.lock().unwrap_or_else(|p| p.into_inner())
}

struct CounterCore {
    shards: [CachePadded<AtomicU64>; SHARDS],
}

/// A monotone counter. Cloning hands out another handle to the same
/// underlying shards.
#[derive(Clone)]
pub struct Counter(Arc<CounterCore>);

impl Counter {
    fn new() -> Self {
        Counter(Arc::new(CounterCore {
            shards: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
        }))
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (relaxed RMW into this thread's shard).
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.shards[shard_index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sum of all shards (relaxed loads; monotone but not a cut).
    pub fn value(&self) -> u64 {
        self.0.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// A last-write-wins instantaneous value (queue depth, current level).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value (relaxed store).
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the value (relaxed RMW).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value (relaxed load).
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

struct WindowState {
    live: LogHistogram,
    prev: LogHistogram,
    total: LogHistogram,
    /// Start of the `live` window on the registry clock.
    epoch_ns: u64,
}

impl WindowState {
    /// Advance the window machinery to `now_ns`. At most one generation
    /// survives a rotation (`live` → `prev`); two or more elapsed
    /// windows clear both, re-anchoring the epoch on the window grid so
    /// rotation points are deterministic under a manual clock.
    fn rotate(&mut self, now_ns: u64, window_ns: u64) {
        if window_ns == 0 {
            return; // decay disabled: windowed view == total view
        }
        let behind = now_ns.saturating_sub(self.epoch_ns) / window_ns;
        match behind {
            0 => {}
            1 => {
                self.prev = std::mem::replace(&mut self.live, LogHistogram::new());
                self.epoch_ns += window_ns;
            }
            _ => {
                self.prev = LogHistogram::new();
                self.live = LogHistogram::new();
                self.epoch_ns = now_ns - (now_ns - self.epoch_ns) % window_ns;
            }
        }
    }
}

struct HistCore {
    clock: Clock,
    window_ns: u64,
    state: Mutex<WindowState>,
}

/// A windowed log-scale histogram (see module docs for the two-window
/// decay scheme). Record at query/level granularity, not per edge.
#[derive(Clone)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    fn new(clock: Clock, window: Duration) -> Self {
        let epoch_ns = clock.now_ns();
        Histogram(Arc::new(HistCore {
            clock,
            window_ns: window.as_nanos().min(u64::MAX as u128) as u64,
            state: Mutex::new(WindowState {
                live: LogHistogram::new(),
                prev: LogHistogram::new(),
                total: LogHistogram::new(),
                epoch_ns,
            }),
        }))
    }

    /// Record one sample into the live window and the cumulative total.
    pub fn record(&self, v: u64) {
        let now = self.0.clock.now_ns();
        let mut st = lock(&self.0.state);
        st.rotate(now, self.0.window_ns);
        st.live.record(v);
        st.total.record(v);
    }

    /// The decayed view: everything recorded in the last one-to-two
    /// windows. This is what live quantiles are computed from.
    pub fn windowed(&self) -> LogHistogram {
        let now = self.0.clock.now_ns();
        let mut st = lock(&self.0.state);
        st.rotate(now, self.0.window_ns);
        if self.0.window_ns == 0 {
            return st.total.clone();
        }
        let mut view = st.prev.clone();
        view.merge(&st.live);
        view
    }

    /// The cumulative (never-reset) histogram.
    pub fn total(&self) -> LogHistogram {
        lock(&self.0.state).total.clone()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Histogram").field(&self.total().count()).finish()
    }
}

enum Family {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Family {
    fn kind(&self) -> &'static str {
        match self {
            Family::Counter(_) => "counter",
            Family::Gauge(_) => "gauge",
            Family::Histogram(_) => "summary",
        }
    }
}

struct Entry {
    help: String,
    family: Family,
}

/// A named collection of metrics with deterministic iteration order
/// (sorted by name) and Prometheus-text / JSON snapshot forms.
///
/// Registration hands out cheap cloneable handles; the registry mutex
/// guards only the name table, never a hot-path update.
pub struct MetricsRegistry {
    clock: Clock,
    window: Duration,
    metrics: Mutex<BTreeMap<String, Entry>>,
}

impl MetricsRegistry {
    /// A registry on `clock` with the default 10 s histogram window.
    pub fn new(clock: Clock) -> Arc<Self> {
        Self::with_window(clock, DEFAULT_WINDOW)
    }

    /// A registry with an explicit histogram decay window. A zero
    /// window disables decay (windowed view == cumulative view).
    pub fn with_window(clock: Clock, window: Duration) -> Arc<Self> {
        Arc::new(MetricsRegistry { clock, window, metrics: Mutex::new(BTreeMap::new()) })
    }

    /// The clock snapshots and histogram rotation run on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    fn register(&self, name: &str, help: &str, make: impl FnOnce() -> Family) -> Family {
        let mut m = lock(&self.metrics);
        let entry = m
            .entry(name.to_string())
            .or_insert_with(|| Entry { help: help.to_string(), family: make() });
        match &entry.family {
            Family::Counter(c) => Family::Counter(c.clone()),
            Family::Gauge(g) => Family::Gauge(g.clone()),
            Family::Histogram(h) => Family::Histogram(h.clone()),
        }
    }

    /// Get-or-register a counter. Panics if `name` is already a
    /// different metric kind (a programming error, not a runtime state).
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register(name, help, || Family::Counter(Counter::new())) {
            Family::Counter(c) => c,
            f => panic!("metric {name:?} already registered as {}", f.kind()),
        }
    }

    /// Get-or-register a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, || Family::Gauge(Gauge(Arc::new(AtomicI64::new(0))))) {
            Family::Gauge(g) => g,
            f => panic!("metric {name:?} already registered as {}", f.kind()),
        }
    }

    /// Get-or-register a windowed histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let make = || Family::Histogram(Histogram::new(self.clock.clone(), self.window));
        match self.register(name, help, make) {
            Family::Histogram(h) => h,
            f => panic!("metric {name:?} already registered as {}", f.kind()),
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let m = lock(&self.metrics);
        let metrics = m
            .iter()
            .map(|(name, e)| {
                let value = match &e.family {
                    Family::Counter(c) => MetricValue::Counter(c.value()),
                    Family::Gauge(g) => MetricValue::Gauge(g.value()),
                    Family::Histogram(h) => {
                        MetricValue::Summary { window: h.windowed(), total: h.total() }
                    }
                };
                MetricSnapshot { name: name.clone(), help: e.help.clone(), value }
            })
            .collect();
        Snapshot { metrics }
    }

    /// Prometheus text exposition of a fresh snapshot.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }

    /// JSON form of a fresh snapshot.
    pub fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = lock(&self.metrics).len();
        f.debug_struct("MetricsRegistry").field("metrics", &n).finish()
    }
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Registered name (`obfs_engine_queries_submitted_total`, ...).
    pub name: String,
    /// Registered help text.
    pub help: String,
    /// The captured value.
    pub value: MetricValue,
}

/// A captured metric value.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotone counter total.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(i64),
    /// Histogram views: the decayed window and the cumulative total.
    Summary {
        /// Last one-to-two decay windows (live quantiles).
        window: LogHistogram,
        /// Never-reset total (`_sum`/`_count`, whole-run quantiles).
        total: LogHistogram,
    },
}

/// A deterministic point-in-time view of a registry, sorted by name.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All metrics, sorted by name.
    pub metrics: Vec<MetricSnapshot>,
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

impl Snapshot {
    /// Find a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name).map(|m| &m.value)
    }

    /// A counter's value, if `name` is a registered counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// A gauge's value, if `name` is a registered gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Prometheus text exposition format, version 0.0.4: `# HELP` /
    /// `# TYPE` per family, counters and gauges as single samples,
    /// histograms as summaries (windowed quantiles, cumulative
    /// `_sum`/`_count`). Byte-deterministic for a given snapshot.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let kind = match &m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Summary { .. } => "summary",
            };
            out.push_str(&format!("# HELP {} {}\n", m.name, escape_help(&m.help)));
            out.push_str(&format!("# TYPE {} {}\n", m.name, kind));
            match &m.value {
                MetricValue::Counter(v) => out.push_str(&format!("{} {v}\n", m.name)),
                MetricValue::Gauge(v) => out.push_str(&format!("{} {v}\n", m.name)),
                MetricValue::Summary { window, total } => {
                    for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                        out.push_str(&format!(
                            "{}{{quantile=\"{label}\"}} {}\n",
                            m.name,
                            window.percentile(q)
                        ));
                    }
                    let sum = (total.mean() * total.count() as f64).round() as u64;
                    out.push_str(&format!("{}_sum {sum}\n", m.name));
                    out.push_str(&format!("{}_count {}\n", m.name, total.count()));
                }
            }
        }
        out
    }

    /// JSON snapshot: `{"metrics": [{name, type, help, ...}, ...]}` in
    /// name order, histograms carrying both views in full
    /// (`LogHistogram::to_json` sparse-bucket form).
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut obj = vec![
                    ("name".into(), Json::Str(m.name.clone())),
                    ("help".into(), Json::Str(m.help.clone())),
                ];
                match &m.value {
                    MetricValue::Counter(v) => {
                        obj.push(("type".into(), Json::Str("counter".into())));
                        obj.push(("value".into(), Json::Num(*v as f64)));
                    }
                    MetricValue::Gauge(v) => {
                        obj.push(("type".into(), Json::Str("gauge".into())));
                        obj.push(("value".into(), Json::Num(*v as f64)));
                    }
                    MetricValue::Summary { window, total } => {
                        obj.push(("type".into(), Json::Str("summary".into())));
                        obj.push(("window".into(), window.to_json()));
                        obj.push(("total".into(), total.to_json()));
                    }
                }
                Json::Obj(obj)
            })
            .collect();
        Json::Obj(vec![("metrics".into(), Json::Arr(metrics))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counter_sums_across_threads() {
        let (clock, _hand) = Clock::manual();
        let reg = MetricsRegistry::new(clock);
        let c = reg.counter("c_total", "test counter");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 80_000, "relaxed RMWs never lose increments");
    }

    #[test]
    fn reregistration_returns_the_same_metric() {
        let (clock, _hand) = Clock::manual();
        let reg = MetricsRegistry::new(clock);
        let a = reg.counter("x_total", "first");
        let b = reg.counter("x_total", "second help ignored");
        a.add(3);
        assert_eq!(b.value(), 3);
        assert_eq!(reg.snapshot().metrics[0].help, "first");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let (clock, _hand) = Clock::manual();
        let reg = MetricsRegistry::new(clock);
        let _ = reg.counter("x", "as counter");
        let _ = reg.gauge("x", "as gauge");
    }

    #[test]
    fn window_rotation_ages_out_old_samples() {
        let (clock, hand) = Clock::manual();
        let reg = MetricsRegistry::with_window(clock, Duration::from_secs(1));
        let h = reg.histogram("lat", "latency");
        h.record(100);
        // Still inside the first window: visible.
        assert_eq!(h.windowed().count(), 1);
        // One window later the sample moved to `prev` but stays in view.
        hand.advance(Duration::from_millis(1_100));
        h.record(200);
        assert_eq!(h.windowed().count(), 2, "prev + live are both in view");
        // Two more idle windows: only the total retains the history.
        hand.advance(Duration::from_millis(2_500));
        assert_eq!(h.windowed().count(), 0, "stale windows age out");
        assert_eq!(h.total().count(), 2, "cumulative view never resets");
    }

    #[test]
    fn zero_window_disables_decay() {
        let (clock, hand) = Clock::manual();
        let reg = MetricsRegistry::with_window(clock, Duration::ZERO);
        let h = reg.histogram("lat", "latency");
        h.record(7);
        hand.advance(Duration::from_secs(3600));
        assert_eq!(h.windowed().count(), 1);
    }

    #[test]
    fn exposition_is_byte_stable_under_a_manual_clock() {
        let (clock, _hand) = Clock::manual();
        let reg = MetricsRegistry::with_window(clock, Duration::from_secs(10));
        reg.counter("obfs_demo_queries_total", "Queries processed.").add(5);
        reg.gauge("obfs_demo_queue_depth", "Jobs waiting.").set(-2);
        let h = reg.histogram("obfs_demo_wait_us", "Queue wait (us).");
        for v in [10, 20, 40, 80] {
            h.record(v);
        }
        let golden = "\
# HELP obfs_demo_queries_total Queries processed.
# TYPE obfs_demo_queries_total counter
obfs_demo_queries_total 5
# HELP obfs_demo_queue_depth Jobs waiting.
# TYPE obfs_demo_queue_depth gauge
obfs_demo_queue_depth -2
# HELP obfs_demo_wait_us Queue wait (us).
# TYPE obfs_demo_wait_us summary
obfs_demo_wait_us{quantile=\"0.5\"} 21
obfs_demo_wait_us{quantile=\"0.9\"} 80
obfs_demo_wait_us{quantile=\"0.99\"} 80
obfs_demo_wait_us_sum 150
obfs_demo_wait_us_count 4
";
        assert_eq!(reg.render_text(), golden);
        // And the same snapshot parses with the exposition parser.
        let parsed = crate::parse_exposition(&reg.render_text()).unwrap();
        assert_eq!(crate::sample(&parsed, "obfs_demo_queries_total"), Some(5.0));
        assert_eq!(crate::sample(&parsed, "obfs_demo_wait_us_count"), Some(4.0));
    }

    #[test]
    fn json_snapshot_has_both_histogram_views() {
        let (clock, _hand) = Clock::manual();
        let reg = MetricsRegistry::new(clock);
        reg.counter("c_total", "c").inc();
        reg.histogram("h", "h").record(42);
        let j = reg.to_json();
        let arr = j.get("metrics").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        let h = &arr[1];
        assert_eq!(h.get("type").and_then(Json::as_str), Some("summary"));
        assert!(h.get("window").is_some() && h.get("total").is_some());
        // Round-trips through the hand-rolled parser.
        let text = j.render();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }
}
