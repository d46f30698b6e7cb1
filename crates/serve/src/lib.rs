//! Resilient multi-query BFS engine (`obfs-engine`).
//!
//! The paper's algorithms run one traversal and exit; a service-shaped
//! deployment needs queries that can be **cancelled**, **deadlined**,
//! **shed** under overload, and **retried** when a worker panic poisons
//! the pool. This crate is that layer — admission control and scheduling
//! only, no sockets (a future wire protocol plugs into [`Engine`]).
//!
//! Architecture (DESIGN.md §10):
//!
//! * [`Engine::submit`] is the admission gate: a bounded in-flight count
//!   (queued + running) with reject-beyond-capacity semantics
//!   ([`SubmitError::Overloaded`]) — load is shed at the door, never
//!   queued unboundedly. A source outside the graph is refused there too
//!   ([`SubmitError::SourceOutOfRange`]), before it takes a query id.
//! * One **scheduler thread** owns a [`obfs_runtime::PoolManager`] and
//!   drains the queue earliest-deadline-first. Pool ownership never
//!   crosses threads, so the scheduler needs no locking around the pool
//!   and a panic-poisoned pool is rebuilt transparently (counted in
//!   [`EngineStats::pool_rebuilds`]).
//! * Every query gets a [`obfs_sync::CancelToken`] carrying its absolute
//!   deadline on the engine's [`Clock`]; the token is polled by the BFS
//!   workers at dispatch granularity and by the scheduler at pop time
//!   (an expired or cancelled query that never started is resolved
//!   without running at all).
//! * Queries that lose their slot to a pool rebuild (and optionally to a
//!   degraded level) are retried with seeded-jitter exponential backoff,
//!   bounded by [`EngineConfig::max_retries`] and the query's deadline.
//! * Every engine carries an always-on [`EngineTelemetry`]: an
//!   `obfs-telemetry` [`MetricsRegistry`] of lifetime counters, live
//!   gauges, and windowed latency histograms, plus a bounded per-query
//!   span log whose transitions are mirrored as `SPAN` flight events on
//!   the scheduler thread (DESIGN.md §13). [`Engine::stats`] is a
//!   read-through view of the registry — one source of truth.
//!
//! [`MetricsRegistry`]: obfs_telemetry::MetricsRegistry

#![warn(missing_docs)]

use obfs_core::{Algorithm, BfsOptions, BfsResult, Outcome};
use obfs_graph::{CsrGraph, VertexId};
use obfs_runtime::PoolManager;
use obfs_sync::flight::{self, RingDump};
use obfs_sync::{CancelToken, ChaosConfig, Clock};
use obfs_telemetry::span::stage;
use obfs_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, RunTelemetry, SpanDump, SpanLog};
use obfs_util::Xoshiro256StarStar;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads per traversal (the managed pool's width).
    pub threads: usize,
    /// Maximum in-flight queries (queued + running); submits beyond this
    /// are shed with [`SubmitError::Overloaded`].
    pub capacity: usize,
    /// Deadline applied to queries that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Retry budget for queries that hit a pool failure (worker panic)
    /// or — with [`EngineConfig::retry_degraded`] — a degraded run.
    pub max_retries: u32,
    /// Base of the exponential retry backoff; attempt `k` waits
    /// `backoff_base * 2^k` plus up to 50% seeded jitter.
    pub backoff_base: Duration,
    /// Also retry queries whose run came back [`Outcome::Degraded`]
    /// (the watchdog swept at least one level). Off by default: a
    /// degraded result is complete, just slower.
    pub retry_degraded: bool,
    /// Maximum queries coalesced into one batched traversal (clamped to
    /// [`obfs_core::MAX_BATCH`]; 1 disables coalescing). When the EDF
    /// pop yields a deadline-free, chaos-free query, every compatible
    /// queued query (same algorithm, same `record_parents`, also
    /// deadline- and chaos-free) joins it in a single batched run — one
    /// traversal answers the whole set (see `obfs_core::batch`).
    pub max_batch: usize,
    /// Seed for the backoff jitter (deterministic across reruns).
    pub seed: u64,
    /// Time source for deadlines and latency accounting; inject
    /// [`Clock::manual`] to make deadline tests fully deterministic.
    pub clock: Clock,
    /// Decay window for the telemetry latency histograms: a live p99
    /// reflects the last one-to-two windows, never the whole process
    /// (`Duration::ZERO` disables decay; see `obfs-telemetry`).
    pub metrics_window: Duration,
    /// Bound on the per-query span log (transitions, not queries; the
    /// oldest are overwritten and counted once exceeded).
    pub span_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            capacity: 16,
            default_deadline: None,
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            retry_degraded: false,
            max_batch: obfs_core::MAX_BATCH,
            seed: 0x0E46,
            clock: Clock::default(),
            metrics_window: obfs_telemetry::registry::DEFAULT_WINDOW,
            span_capacity: 1 << 16,
        }
    }
}

/// One BFS query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Algorithm to run.
    pub algo: Algorithm,
    /// Source vertex.
    pub src: VertexId,
    /// Per-query deadline (overrides
    /// [`EngineConfig::default_deadline`]).
    pub deadline: Option<Duration>,
    /// Record BFS-tree parents in the result.
    pub record_parents: bool,
    /// Per-query fault-injection plan (tests; needs the `chaos`
    /// feature to actually fire).
    pub chaos: Option<ChaosConfig>,
}

impl Query {
    /// A plain query with no deadline override.
    pub fn new(algo: Algorithm, src: VertexId) -> Self {
        Self { algo, src, deadline: None, record_parents: false, chaos: None }
    }

    /// Builder: set a per-query deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// Why a submit was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The in-flight count is at [`EngineConfig::capacity`]; the query
    /// was shed, not queued.
    Overloaded,
    /// The engine is shutting down.
    ShuttingDown,
    /// The query's source is not a vertex of the engine's graph.
    SourceOutOfRange,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "engine at capacity: query shed"),
            SubmitError::ShuttingDown => write!(f, "engine shutting down"),
            SubmitError::SourceOutOfRange => write!(f, "query source out of range for the graph"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Terminal status of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryStatus {
    /// Full traversal, no degradation.
    Complete,
    /// Full traversal; the watchdog swept at least one level.
    Degraded,
    /// Cancelled via [`QueryHandle::cancel`]; the result (if the run
    /// had started) is partial.
    Cancelled,
    /// The deadline passed (queued too long, or mid-run — mid-run
    /// responses carry the partial result).
    DeadlineExceeded,
    /// The run failed and the retry budget is exhausted (carries the
    /// last pool error).
    Failed(String),
}

/// Terminal response for one query.
#[derive(Debug)]
pub struct QueryResponse {
    /// The id [`Engine::submit`] assigned.
    pub id: u64,
    /// How the query ended.
    pub status: QueryStatus,
    /// The traversal result; `None` when the query never ran (shed at
    /// pop time, or failed before producing anything). Partial for
    /// `Cancelled` / `DeadlineExceeded` mid-run responses.
    pub result: Option<BfsResult>,
    /// Times the query was re-run (pool failure / degraded retry).
    pub retries: u32,
    /// Queue wait before the first run attempt, in clock ticks.
    pub wait_ns: u64,
    /// Submit-to-response latency, in clock ticks.
    pub total_ns: u64,
}

/// Caller-side handle to an in-flight query.
pub struct QueryHandle {
    id: u64,
    token: CancelToken,
    rx: mpsc::Receiver<QueryResponse>,
}

impl QueryHandle {
    /// The engine-assigned query id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ask the query to stop (idempotent). A queued query resolves at
    /// pop time without running; a running query quiesces at the next
    /// level barrier and returns its partial state.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// The query's cancel token (clone to share).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Block until the query resolves.
    pub fn wait(self) -> QueryResponse {
        self.rx.recv().unwrap_or_else(|_| QueryResponse {
            id: self.id,
            status: QueryStatus::Failed("engine dropped without responding".into()),
            result: None,
            retries: 0,
            wait_ns: 0,
            total_ns: 0,
        })
    }
}

/// Counters over the engine's lifetime (all monotonically increasing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries admitted past the capacity gate.
    pub submitted: u64,
    /// Queries that ended [`QueryStatus::Complete`].
    pub completed: u64,
    /// Submits rejected with [`SubmitError::Overloaded`].
    pub shed: u64,
    /// Queries that ended [`QueryStatus::Cancelled`].
    pub cancelled: u64,
    /// Queries that ended [`QueryStatus::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Queries that ended [`QueryStatus::Degraded`].
    pub degraded: u64,
    /// Queries that ended [`QueryStatus::Failed`].
    pub failed: u64,
    /// Total re-run attempts across all queries.
    pub retries: u64,
    /// Panic-poisoned pools replaced by the scheduler's
    /// [`PoolManager`].
    pub pool_rebuilds: u64,
    /// Batched traversals executed (each answered ≥ 2 queries).
    pub batched_runs: u64,
    /// Queries answered by batched traversals (sum of batch sizes over
    /// [`EngineStats::batched_runs`]).
    pub queries_coalesced: u64,
}

/// The engine's always-on telemetry: a metrics registry (counters,
/// gauges, windowed latency histograms), the per-query span log, and —
/// in `trace` builds — the scheduler thread's drained flight ring.
///
/// All counter updates are relaxed RMWs into sharded slots; none of
/// them publishes other state. The one read-your-writes guarantee the
/// engine makes — a caller returning from [`QueryHandle::wait`]
/// observes its own query in [`Engine::stats`] — rides the response
/// channel's send/recv happens-before edge, because every terminal
/// counter is incremented *before* the response is sent. Cross-counter
/// conservation (`submitted == terminals + in-flight`) holds at
/// quiescence, which is when the bench validator checks it; a live
/// scrape may observe a transiently inconsistent cut.
pub struct EngineTelemetry {
    registry: Arc<MetricsRegistry>,
    spans: SpanLog,
    /// The scheduler thread's flight ring, parked here when the
    /// scheduler exits so `SPAN` events outlive the engine (`trace`
    /// builds only; `None` otherwise).
    sched_trace: Mutex<Option<RingDump>>,
    run: Arc<RunTelemetry>,
    submitted: Counter,
    completed: Counter,
    shed: Counter,
    cancelled: Counter,
    deadline_exceeded: Counter,
    degraded: Counter,
    failed: Counter,
    retries: Counter,
    pool_rebuilds: Counter,
    batched_runs: Counter,
    queries_coalesced: Counter,
    queue_depth: Gauge,
    running: Gauge,
    in_flight: Gauge,
    wait_us: Histogram,
    total_us: Histogram,
    batch_occupancy: Histogram,
}

impl EngineTelemetry {
    fn new(clock: &Clock, window: Duration, span_capacity: usize) -> Arc<Self> {
        let registry = MetricsRegistry::with_window(clock.clone(), window);
        let r = &registry;
        let c = |name: &str, help: &str| r.counter(name, help);
        Arc::new(EngineTelemetry {
            spans: SpanLog::new(clock.clone(), span_capacity),
            sched_trace: Mutex::new(None),
            run: RunTelemetry::register(r),
            submitted: c("obfs_engine_queries_submitted_total", "Queries admitted past the capacity gate."),
            completed: c("obfs_engine_queries_completed_total", "Queries that ended Complete."),
            shed: c("obfs_engine_queries_shed_total", "Submits rejected at the admission gate."),
            cancelled: c("obfs_engine_queries_cancelled_total", "Queries that ended Cancelled."),
            deadline_exceeded: c("obfs_engine_queries_deadline_exceeded_total", "Queries that ended DeadlineExceeded."),
            degraded: c("obfs_engine_queries_degraded_total", "Queries that ended Degraded."),
            failed: c("obfs_engine_queries_failed_total", "Queries that ended Failed."),
            retries: c("obfs_engine_retries_total", "Re-run attempts across all queries."),
            pool_rebuilds: c("obfs_engine_pool_rebuilds_total", "Panic-poisoned pools replaced by the scheduler."),
            batched_runs: c("obfs_engine_batched_runs_total", "Batched traversals executed."),
            queries_coalesced: c("obfs_engine_queries_coalesced_total", "Queries answered by batched traversals."),
            queue_depth: r.gauge("obfs_engine_queue_depth", "Jobs waiting in the EDF queue."),
            running: r.gauge("obfs_engine_running", "Queries on the pool right now."),
            in_flight: r.gauge("obfs_engine_in_flight", "Queued + running queries (the capacity gate's count)."),
            wait_us: r.histogram("obfs_engine_wait_us", "Queue wait before the first run attempt (us)."),
            total_us: r.histogram("obfs_engine_total_us", "Submit-to-terminal latency (us)."),
            batch_occupancy: r.histogram("obfs_engine_batch_occupancy", "Queries answered per batched run."),
            registry,
        })
    }

    /// The underlying registry (scrape it, serve it over HTTP, embed
    /// it in a report).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Read-through [`EngineStats`] assembled from the registry
    /// counters — the same numbers a scrape sees.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            submitted: self.submitted.value(),
            completed: self.completed.value(),
            shed: self.shed.value(),
            cancelled: self.cancelled.value(),
            deadline_exceeded: self.deadline_exceeded.value(),
            degraded: self.degraded.value(),
            failed: self.failed.value(),
            retries: self.retries.value(),
            pool_rebuilds: self.pool_rebuilds.value(),
            batched_runs: self.batched_runs.value(),
            queries_coalesced: self.queries_coalesced.value(),
        }
    }

    /// A copy of the per-query span log (non-draining; callers keeping
    /// an `Arc<EngineTelemetry>` can read it after the engine drops).
    pub fn spans(&self) -> SpanDump {
        self.spans.snapshot()
    }

    /// The scheduler thread's flight ring, available after the engine
    /// shut down (`trace` builds; `None` otherwise or while running).
    pub fn scheduler_trace(&self) -> Option<RingDump> {
        self.sched_trace.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The per-run driver telemetry threaded into every query's
    /// `BfsOptions` (level/frontier/direction gauges, `obfs_run_*`).
    pub fn run_telemetry(&self) -> &Arc<RunTelemetry> {
        &self.run
    }

    /// Record a span transition and mirror it as a `SPAN` flight event
    /// (the mirror lands in the calling thread's ring, so scheduler-side
    /// transitions interleave with worker traces; the span log is the
    /// authoritative, feature-free record).
    fn span(&self, id: u64, st: u64, info: u64) {
        self.spans.record(id, st, info);
        flight::record(flight::kind::SPAN, 0, id, obfs_telemetry::span::encode_flight(st, info));
    }
}

impl std::fmt::Debug for EngineTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineTelemetry").field("stats", &self.stats()).finish()
    }
}

struct Job {
    id: u64,
    query: Query,
    token: CancelToken,
    /// Absolute deadline in clock ticks (EDF key; `None` sorts last).
    deadline_abs: Option<u64>,
    tx: mpsc::Sender<QueryResponse>,
    submitted_ns: u64,
}

struct EngineState {
    queue: VecDeque<Job>,
    /// Queued + running queries (the capacity gate's count).
    in_flight: usize,
    shutdown: bool,
    next_id: u64,
}

struct Shared {
    state: Mutex<EngineState>,
    work: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, EngineState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The multi-query BFS engine: admission gate + EDF scheduler over one
/// shared graph and one managed worker pool.
pub struct Engine {
    shared: Arc<Shared>,
    cfg: EngineConfig,
    graph: Arc<CsrGraph>,
    tele: Arc<EngineTelemetry>,
    scheduler: Option<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// Start an engine serving queries over `graph`.
    pub fn new(graph: Arc<CsrGraph>, cfg: EngineConfig) -> Self {
        assert!(cfg.threads >= 1, "engine needs at least one worker");
        assert!(cfg.capacity >= 1, "capacity 0 would shed everything");
        let shared = Arc::new(Shared {
            state: Mutex::new(EngineState {
                queue: VecDeque::new(),
                in_flight: 0,
                shutdown: false,
                next_id: 0,
            }),
            work: Condvar::new(),
        });
        let tele = EngineTelemetry::new(&cfg.clock, cfg.metrics_window, cfg.span_capacity);
        let scheduler = {
            let shared = Arc::clone(&shared);
            let graph = Arc::clone(&graph);
            let cfg = cfg.clone();
            let tele = Arc::clone(&tele);
            std::thread::Builder::new()
                .name("obfs-engine-sched".into())
                .spawn(move || scheduler_loop(&shared, &graph, &cfg, &tele))
                .expect("failed to spawn engine scheduler")
        };
        Self { shared, cfg, graph, tele, scheduler: Some(scheduler) }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The graph every query traverses.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Submit a query. Sheds with [`SubmitError::Overloaded`] when
    /// [`EngineConfig::capacity`] queries are already in flight — the
    /// queue never grows beyond capacity. A source that is not a vertex
    /// of the graph is refused with [`SubmitError::SourceOutOfRange`]
    /// before it is assigned an id, so it leaves no trace in the stats or
    /// the span log.
    pub fn submit(&self, query: Query) -> Result<QueryHandle, SubmitError> {
        if query.src as usize >= self.graph.num_vertices() {
            return Err(SubmitError::SourceOutOfRange);
        }
        let mut st = self.shared.lock();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let id = st.next_id;
        st.next_id += 1;
        if st.in_flight >= self.cfg.capacity {
            self.tele.shed.inc();
            self.tele.span(id, stage::SHED, st.in_flight as u64);
            return Err(SubmitError::Overloaded);
        }
        let deadline = query.deadline.or(self.cfg.default_deadline);
        let deadline_abs = deadline.map(|d| self.cfg.clock.deadline_after(d));
        let token = match deadline_abs {
            Some(at) => CancelToken::with_deadline_at(&self.cfg.clock, at),
            None => CancelToken::new(&self.cfg.clock),
        };
        let (tx, rx) = mpsc::channel();
        let src = query.src;
        st.queue.push_back(Job {
            id,
            query,
            token: token.clone(),
            deadline_abs,
            tx,
            submitted_ns: self.cfg.clock.now_ns(),
        });
        st.in_flight += 1;
        self.tele.submitted.inc();
        self.tele.queue_depth.set(st.queue.len() as i64);
        self.tele.in_flight.set(st.in_flight as i64);
        self.tele.span(id, stage::SUBMITTED, u64::from(src));
        drop(st);
        self.shared.work.notify_one();
        Ok(QueryHandle { id, token, rx })
    }

    /// Snapshot of the lifetime counters (a read-through view of the
    /// telemetry registry — the same numbers a `/metrics` scrape sees).
    pub fn stats(&self) -> EngineStats {
        self.tele.stats()
    }

    /// The engine's live telemetry: registry, span log, run gauges.
    /// Clone the `Arc` to keep scraping after the engine drops.
    pub fn telemetry(&self) -> &Arc<EngineTelemetry> {
        &self.tele
    }

    /// Queued + running queries right now.
    pub fn in_flight(&self) -> usize {
        self.shared.lock().in_flight
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }
}

/// Pop the earliest-deadline job (ties and no-deadline jobs by id, so
/// FIFO among equals). The queue is capacity-bounded, so a linear scan
/// is fine.
fn pop_edf(queue: &mut VecDeque<Job>) -> Option<Job> {
    let best = queue
        .iter()
        .enumerate()
        .min_by_key(|(_, j)| (j.deadline_abs.unwrap_or(u64::MAX), j.id))
        .map(|(i, _)| i)?;
    queue.remove(best)
}

/// True when a query may join a batched run: deadline-free (a batch has
/// no shared deadline to honor) and chaos-free (fault plans stay
/// attributable to one query).
fn coalescible(job: &Job) -> bool {
    job.deadline_abs.is_none() && job.query.chaos.is_none()
}

/// Extract every queued job compatible with `leader` (same algorithm,
/// same parent recording, itself coalescible), up to `extra` of them.
fn extract_members(queue: &mut VecDeque<Job>, leader: &Job, extra: usize) -> Vec<Job> {
    let mut members = Vec::new();
    let mut i = 0;
    while i < queue.len() && members.len() < extra {
        let j = &queue[i];
        if coalescible(j)
            && j.query.algo == leader.query.algo
            && j.query.record_parents == leader.query.record_parents
        {
            members.push(queue.remove(i).expect("index in bounds"));
        } else {
            i += 1;
        }
    }
    members
}

/// Book-keep and send one query's terminal response. Counters and the
/// terminal span are recorded BEFORE responding: a caller returning
/// from `wait()` must observe its own query in the stats, and the
/// channel's send/recv pair is the happens-before edge that makes the
/// relaxed counter increments visible to it.
#[allow(clippy::too_many_arguments)]
fn respond(
    shared: &Shared,
    cfg: &EngineConfig,
    tele: &EngineTelemetry,
    job: Job,
    status: QueryStatus,
    result: Option<BfsResult>,
    retries: u32,
    wait_ns: u64,
) {
    let total_ns = cfg.clock.now_ns().saturating_sub(job.submitted_ns);
    let response =
        QueryResponse { id: job.id, status: status.clone(), result, retries, wait_ns, total_ns };
    {
        let mut st = shared.lock();
        st.in_flight -= 1;
        tele.in_flight.set(st.in_flight as i64);
    }
    tele.retries.add(u64::from(retries));
    tele.wait_us.record(wait_ns / 1_000);
    tele.total_us.record(total_ns / 1_000);
    let (counter, terminal) = match status {
        QueryStatus::Complete => (&tele.completed, stage::COMPLETE),
        QueryStatus::Degraded => (&tele.degraded, stage::DEGRADED),
        QueryStatus::Cancelled => (&tele.cancelled, stage::CANCELLED),
        QueryStatus::DeadlineExceeded => (&tele.deadline_exceeded, stage::DEADLINE_EXCEEDED),
        QueryStatus::Failed(_) => (&tele.failed, stage::FAILED),
    };
    counter.inc();
    tele.span(job.id, terminal, u64::from(retries));
    let _ = job.tx.send(response);
}

fn pop_status(cause: obfs_sync::CancelCause) -> QueryStatus {
    match cause {
        obfs_sync::CancelCause::Cancelled => QueryStatus::Cancelled,
        obfs_sync::CancelCause::DeadlineExceeded => QueryStatus::DeadlineExceeded,
    }
}

/// Fold any pool rebuilds since the last sync into the registry
/// counter. Called BEFORE the affected responses go out so a waiter
/// reading `stats()` after `wait()` sees the rebuilds its query caused.
fn sync_rebuilds(tele: &EngineTelemetry, seen: &mut u64, now: u64) {
    tele.pool_rebuilds.add(now.saturating_sub(*seen));
    *seen = now;
}

fn scheduler_loop(shared: &Shared, graph: &CsrGraph, cfg: &EngineConfig, tele: &EngineTelemetry) {
    // In trace builds the scheduler carries its own flight ring so the
    // SPAN mirrors interleave with worker traces; it is parked in the
    // telemetry object at shutdown. No-op (None at exit) otherwise.
    flight::install(4096, std::time::Instant::now());
    let mut pm = PoolManager::new(cfg.threads);
    let mut rng = Xoshiro256StarStar::new(cfg.seed);
    let mut seen_rebuilds = 0u64;
    let max_batch = cfg.max_batch.clamp(1, obfs_core::MAX_BATCH);
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if let Some(job) = pop_edf(&mut st.queue) {
                    tele.queue_depth.set(st.queue.len() as i64);
                    break job;
                }
                if st.shutdown {
                    *tele.sched_trace.lock().unwrap_or_else(PoisonError::into_inner) =
                        flight::uninstall();
                    return;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let wait_ns = cfg.clock.now_ns().saturating_sub(job.submitted_ns);
        tele.span(job.id, stage::POPPED, shared.lock().queue.len() as u64);
        if let Some(cause) = job.token.check() {
            // Resolved at pop time: the query never runs (a cancelled or
            // expired queue slot costs no pool time at all).
            respond(shared, cfg, tele, job, pop_status(cause), None, 0, wait_ns);
            continue;
        }
        // Coalesce: a deadline-free leader adopts every compatible
        // queued query into one batched traversal.
        let members = if max_batch > 1 && coalescible(&job) {
            let mut st = shared.lock();
            let members = extract_members(&mut st.queue, &job, max_batch - 1);
            tele.queue_depth.set(st.queue.len() as i64);
            members
        } else {
            Vec::new()
        };
        let mut live = Vec::new();
        for m in members {
            let w = cfg.clock.now_ns().saturating_sub(m.submitted_ns);
            tele.span(m.id, stage::COALESCED, job.id);
            match m.token.check() {
                // Same pop-time resolution as a solo pop.
                Some(cause) => respond(shared, cfg, tele, m, pop_status(cause), None, 0, w),
                None => live.push((m, w)),
            }
        }
        if live.is_empty() {
            tele.span(job.id, stage::RUN_START, 1);
            tele.running.set(1);
            let (status, result, retries) = run_with_retry(&job, graph, cfg, &mut pm, &mut rng, tele);
            tele.running.set(0);
            sync_rebuilds(tele, &mut seen_rebuilds, pm.rebuilds());
            respond(shared, cfg, tele, job, status, result, retries, wait_ns);
        } else {
            run_batch_coalesced(
                shared,
                graph,
                cfg,
                &mut pm,
                &mut rng,
                tele,
                &mut seen_rebuilds,
                job,
                live,
                wait_ns,
            );
        }
    }
}

/// Run the leader plus its adopted members as one batched traversal and
/// fan the per-query results back out. A coalesced run carries no cancel
/// token (members are deadline-free by construction; a cancel arriving
/// mid-run missed its pop window and is honored only if the pool fails
/// and the retry loop re-checks). Pool failures retry the whole batch.
#[allow(clippy::too_many_arguments)]
fn run_batch_coalesced(
    shared: &Shared,
    graph: &CsrGraph,
    cfg: &EngineConfig,
    pm: &mut PoolManager,
    rng: &mut Xoshiro256StarStar,
    tele: &EngineTelemetry,
    seen_rebuilds: &mut u64,
    leader: Job,
    members: Vec<(Job, u64)>,
    leader_wait_ns: u64,
) {
    let opts = BfsOptions {
        threads: cfg.threads,
        record_parents: leader.query.record_parents,
        clock: cfg.clock.clone(),
        telemetry: Some(Arc::clone(&tele.run)),
        ..Default::default()
    };
    // Duplicate sources share one kernel column: hot-key workloads
    // (many queries for a few popular sources) collapse to one traversal
    // slot per *distinct* source, while the batch still answers every
    // adopted query. `col[i]` maps query `i` to its column in `distinct`.
    let k = 1 + members.len();
    let mut distinct: Vec<VertexId> = Vec::with_capacity(k);
    let col: Vec<usize> = std::iter::once(leader.query.src)
        .chain(members.iter().map(|(m, _)| m.query.src))
        .map(|s| {
            distinct.iter().position(|&d| d == s).unwrap_or_else(|| {
                distinct.push(s);
                distinct.len() - 1
            })
        })
        .collect();
    tele.span(leader.id, stage::RUN_START, k as u64);
    for (m, _) in &members {
        tele.span(m.id, stage::RUN_START, k as u64);
    }
    tele.running.set(k as i64);
    let mut attempt = 0u32;
    let run = loop {
        match obfs_core::driver::try_run_batch_on_pool(
            leader.query.algo,
            graph,
            &distinct,
            &opts,
            pm.pool(),
            None,
        ) {
            Ok(b) => break Ok(b),
            Err(_) if attempt < cfg.max_retries => {
                attempt += 1;
                tele.span(leader.id, stage::RETRY, u64::from(attempt));
                std::thread::sleep(cfg.backoff_base.saturating_mul(1 << (attempt - 1).min(16)));
                let _ = rng.next_f64(); // keep the jitter stream aligned
            }
            Err(e) => break Err(e),
        }
    };
    tele.running.set(0);
    sync_rebuilds(tele, seen_rebuilds, pm.rebuilds());
    tele.batched_runs.inc();
    tele.queries_coalesced.add(k as u64);
    tele.batch_occupancy.record(k as u64);
    let jobs = std::iter::once((leader, leader_wait_ns)).chain(members);
    match run {
        Ok(b) => {
            let status = match b.stats.outcome {
                Outcome::Degraded => QueryStatus::Degraded,
                _ => QueryStatus::Complete,
            };
            // Fan the per-column results back out: the last query on a
            // column moves the label arrays, earlier duplicates clone.
            let mut remaining = vec![0usize; distinct.len()];
            for &c in &col {
                remaining[c] += 1;
            }
            let mut columns: Vec<Option<_>> = b.queries.into_iter().map(Some).collect();
            for ((j, w), c) in jobs.zip(col) {
                remaining[c] -= 1;
                let q = if remaining[c] == 0 {
                    columns[c].take().expect("column responded early")
                } else {
                    columns[c].clone().expect("column responded early")
                };
                let result = Some(q.into_bfs_result(&b.stats));
                respond(shared, cfg, tele, j, status.clone(), result, attempt, w);
            }
        }
        Err(e) => {
            let msg = e.to_string();
            for (j, w) in jobs {
                respond(shared, cfg, tele, j, QueryStatus::Failed(msg.clone()), None, attempt, w);
            }
        }
    }
}

/// Run one admitted query, retrying pool failures (and optionally
/// degraded runs) with seeded-jitter exponential backoff. Returns the
/// terminal status, the result if any, and the retry count.
fn run_with_retry(
    job: &Job,
    graph: &CsrGraph,
    cfg: &EngineConfig,
    pm: &mut PoolManager,
    rng: &mut Xoshiro256StarStar,
    tele: &EngineTelemetry,
) -> (QueryStatus, Option<BfsResult>, u32) {
    let opts = BfsOptions {
        threads: cfg.threads,
        record_parents: job.query.record_parents,
        chaos: job.query.chaos,
        clock: cfg.clock.clone(),
        cancel: Some(job.token.clone()),
        telemetry: Some(Arc::clone(&tele.run)),
        ..Default::default()
    };
    let mut attempt = 0u32;
    loop {
        let run = obfs_core::driver::try_run_on_pool(
            job.query.algo,
            graph,
            job.query.src,
            &opts,
            pm.pool(),
            None,
        );
        match run {
            Ok(r) => match r.stats.outcome {
                Outcome::Cancelled => return (QueryStatus::Cancelled, Some(r), attempt),
                Outcome::DeadlineExceeded => {
                    return (QueryStatus::DeadlineExceeded, Some(r), attempt)
                }
                Outcome::Degraded if cfg.retry_degraded && attempt < cfg.max_retries => {
                    attempt += 1;
                    tele.span(job.id, stage::RETRY, u64::from(attempt));
                    if let Some(s) = backoff(job, cfg, rng, attempt) {
                        return s;
                    }
                }
                Outcome::Degraded => return (QueryStatus::Degraded, Some(r), attempt),
                Outcome::Complete => return (QueryStatus::Complete, Some(r), attempt),
            },
            Err(e) if attempt < cfg.max_retries => {
                attempt += 1;
                let _ = e;
                tele.span(job.id, stage::RETRY, u64::from(attempt));
                if let Some(s) = backoff(job, cfg, rng, attempt) {
                    return s;
                }
            }
            Err(e) => return (QueryStatus::Failed(e.to_string()), None, attempt),
        }
    }
}

/// Sleep `backoff_base * 2^(attempt-1)` plus up to 50% seeded jitter, in
/// small chunks so a cancel/deadline interrupts the wait. Returns the
/// terminal status if the token fired during the wait.
fn backoff(
    job: &Job,
    cfg: &EngineConfig,
    rng: &mut Xoshiro256StarStar,
    attempt: u32,
) -> Option<(QueryStatus, Option<BfsResult>, u32)> {
    let base = cfg.backoff_base.saturating_mul(1 << (attempt - 1).min(16));
    let jitter = base.mul_f64(rng.next_f64() * 0.5);
    let mut left = base + jitter;
    let chunk = Duration::from_micros(200);
    while !left.is_zero() {
        if let Some(cause) = job.token.check() {
            let status = match cause {
                obfs_sync::CancelCause::Cancelled => QueryStatus::Cancelled,
                obfs_sync::CancelCause::DeadlineExceeded => QueryStatus::DeadlineExceeded,
            };
            // The last completed attempt's state was consumed by the
            // retry decision; respond without a result.
            return Some((status, None, attempt));
        }
        let step = chunk.min(left);
        std::thread::sleep(step);
        left -= step;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_graph::gen;

    fn engine(cfg: EngineConfig) -> Engine {
        Engine::new(Arc::new(gen::erdos_renyi(500, 3000, 5)), cfg)
    }

    #[test]
    fn query_runs_to_completion() {
        let e = engine(EngineConfig { threads: 2, ..Default::default() });
        let h = e.submit(Query::new(Algorithm::Bfscl, 0)).unwrap();
        let resp = h.wait();
        assert_eq!(resp.status, QueryStatus::Complete);
        let r = resp.result.expect("complete query carries a result");
        assert!(!r.stats.partial);
        assert!(r.reached() > 1);
        let st = e.stats();
        assert_eq!((st.submitted, st.completed, st.shed), (1, 1, 0));
    }

    #[test]
    fn sequential_queries_reuse_the_engine() {
        let e = engine(EngineConfig { threads: 3, ..Default::default() });
        let mut reached = None;
        for algo in [Algorithm::Bfscl, Algorithm::Bfswl, Algorithm::Bfswsl, Algorithm::EdgeCl] {
            let resp = e.submit(Query::new(algo, 0)).unwrap().wait();
            assert_eq!(resp.status, QueryStatus::Complete, "{algo}");
            let got = resp.result.unwrap().reached();
            assert_eq!(*reached.get_or_insert(got), got, "{algo}: reach must agree");
        }
        assert_eq!(e.stats().completed, 4);
        assert_eq!(e.stats().pool_rebuilds, 0);
    }

    #[test]
    fn overload_is_shed_never_queued() {
        // A capacity-1 engine whose only slot is held by a query that
        // waits on a token we control: the next submit must be shed
        // immediately (not queued), and the slot frees after cancel.
        let (clock, _hand) = Clock::manual();
        let e = Engine::new(
            Arc::new(gen::path(50_000)), // long thin graph: many levels
            EngineConfig { threads: 2, capacity: 1, clock, ..Default::default() },
        );
        let h1 = e.submit(Query::new(Algorithm::Bfscl, 0)).unwrap();
        // Whether or not q1 finished yet, capacity 1 means: as long as
        // it is in flight, a second submit is shed. Race-free check:
        // submit until either shed (expected while running) or accepted
        // (q1 already done — then stats.shed may be 0; force the
        // invariant instead on a fresh engine below).
        match e.submit(Query::new(Algorithm::Bfscl, 0)) {
            Err(SubmitError::Overloaded) => {
                assert_eq!(e.stats().shed, 1);
            }
            Ok(h2) => {
                // q1 resolved before our second submit; fine — the gate
                // still never exceeded capacity.
                let _ = h2.wait();
            }
            Err(other) => panic!("unexpected: {other}"),
        }
        let _ = h1.wait();
        assert!(e.in_flight() <= 1);
    }

    #[test]
    fn cancelled_queued_query_resolves_without_running() {
        let e = engine(EngineConfig { threads: 2, ..Default::default() });
        let h = e.submit(Query::new(Algorithm::Bfscl, 0)).unwrap();
        h.cancel();
        let resp = h.wait();
        // Either the scheduler popped it before our cancel (Complete)
        // or after (Cancelled, no result). Both are valid; what matters
        // is that a pre-cancelled *pop* never runs.
        match resp.status {
            QueryStatus::Cancelled => assert!(resp.result.is_none() || resp.result.is_some()),
            QueryStatus::Complete => {}
            other => panic!("unexpected status: {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_on_manual_clock_is_deterministic() {
        let (clock, hand) = Clock::manual();
        hand.set_ns(1_000_000);
        let e = engine(EngineConfig { threads: 2, clock, ..Default::default() });
        // Deadline of zero: already expired at submit time on the
        // frozen clock, so the pop-time check resolves it unrun.
        let h = e
            .submit(Query::new(Algorithm::Bfscl, 0).with_deadline(Duration::ZERO))
            .unwrap();
        let resp = h.wait();
        assert_eq!(resp.status, QueryStatus::DeadlineExceeded);
        assert!(resp.result.is_none(), "expired before running: no result");
        assert_eq!(e.stats().deadline_exceeded, 1);
    }

    #[test]
    fn shutdown_rejects_new_queries() {
        let e = engine(EngineConfig::default());
        let resp = e.submit(Query::new(Algorithm::Bfswl, 3)).unwrap().wait();
        assert_eq!(resp.status, QueryStatus::Complete);
        drop(e); // must join the scheduler without hanging
    }

    #[test]
    fn edf_pops_earliest_deadline_first() {
        let mk = |id, dl: Option<u64>| Job {
            id,
            query: Query::new(Algorithm::Bfscl, 0),
            token: CancelToken::new(&Clock::wall()),
            deadline_abs: dl,
            tx: mpsc::channel().0,
            submitted_ns: 0,
        };
        let mut q = VecDeque::from([mk(0, None), mk(1, Some(500)), mk(2, Some(100))]);
        assert_eq!(pop_edf(&mut q).unwrap().id, 2);
        assert_eq!(pop_edf(&mut q).unwrap().id, 1);
        assert_eq!(pop_edf(&mut q).unwrap().id, 0, "no deadline sorts last");
        assert!(pop_edf(&mut q).is_none());
    }

    /// Compatible queries that pile up behind a running query must be
    /// coalesced into batched traversals, each answer must still be the
    /// exact per-source BFS, and the coalescing counters must surface
    /// it. (A burst of `n` submits behind a busy scheduler can drain in
    /// at most a handful of pops once batching works; per-round retries
    /// absorb the scheduling race.)
    #[test]
    fn compatible_queued_queries_coalesce_into_batched_runs() {
        let g = Arc::new(gen::erdos_renyi(20_000, 120_000, 77));
        let serial0 = obfs_core::serial::serial_bfs(&g, 0).reached();
        let e = Engine::new(
            Arc::clone(&g),
            EngineConfig { threads: 2, capacity: 128, ..Default::default() },
        );
        for round in 0..5 {
            // Query 0 is popped alone; the rest queue while it runs and
            // must ride batched runs.
            let handles: Vec<QueryHandle> = (0..48u32)
                .map(|i| e.submit(Query::new(Algorithm::Bfscl, i % 100)).unwrap())
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                let resp = h.wait();
                assert_eq!(resp.status, QueryStatus::Complete, "query {i}");
                let r = resp.result.expect("complete query carries a result");
                assert!(!r.stats.partial, "query {i}");
                if i == 0 {
                    assert_eq!(r.reached(), serial0, "query 0 reach differs from serial");
                }
            }
            let st = e.stats();
            if st.batched_runs >= 1 {
                assert!(
                    st.queries_coalesced >= 2,
                    "a batched run must answer at least two queries"
                );
                assert_eq!(st.completed, 48 * (round + 1), "all queries still complete");
                return;
            }
        }
        panic!("48-query bursts never coalesced in 5 rounds");
    }

    /// Deadlined and chaos-carrying queries never join a batch: the
    /// compatibility predicate excludes them.
    #[test]
    fn deadlined_queries_do_not_coalesce() {
        let mk = |id, deadline_abs, chaos| Job {
            id,
            query: Query { chaos, ..Query::new(Algorithm::Bfscl, 0) },
            token: CancelToken::new(&Clock::wall()),
            deadline_abs,
            tx: mpsc::channel().0,
            submitted_ns: 0,
        };
        let leader = mk(0, None, None);
        let mut q = VecDeque::from([
            mk(1, Some(500), None),                         // deadlined: solo
            mk(2, None, None),                              // compatible
            mk(3, None, Some(ChaosConfig::store_buffer(1))), // chaos: solo
            mk(4, None, None),                              // compatible
        ]);
        let members = extract_members(&mut q, &leader, 63);
        assert_eq!(members.iter().map(|j| j.id).collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(q.iter().map(|j| j.id).collect::<Vec<_>>(), vec![1, 3]);
        assert!(!coalescible(&mk(5, Some(1), None)));
        assert!(coalescible(&mk(6, None, None)));
    }

    /// Worker panic mid-query: the query retries on a rebuilt pool and
    /// succeeds; `pool_rebuilds` surfaces the replacement. (The panic
    /// plan only fires with the `chaos` feature, so gate the test.)
    #[cfg(feature = "chaos")]
    #[test]
    fn worker_panic_retries_on_rebuilt_pool() {
        let e = engine(EngineConfig { threads: 3, max_retries: 2, ..Default::default() });
        let mut q = Query::new(Algorithm::Bfscl, 0);
        q.chaos = Some(ChaosConfig::panic_at(11, 40));
        let resp = e.submit(q).unwrap().wait();
        // The chaos plan is reinstalled on every attempt, so every
        // retry panics again: the query exhausts its budget and fails —
        // but each attempt consumed (and rebuilt) one pool.
        assert!(matches!(resp.status, QueryStatus::Failed(ref m) if m.contains("panic")));
        assert_eq!(resp.retries, 2);
        let st = e.stats();
        assert_eq!(st.failed, 1);
        assert_eq!(st.retries, 2);
        assert!(st.pool_rebuilds >= 2, "each panicked attempt poisons a pool");
        // And the engine still serves clean queries afterwards.
        let ok = e.submit(Query::new(Algorithm::Bfscl, 0)).unwrap().wait();
        assert_eq!(ok.status, QueryStatus::Complete);
    }
}
