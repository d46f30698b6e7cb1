//! Instrumentation counters.
//!
//! Every worker owns a [`ThreadStats`] (via
//! [`crate::perthread::PerThread`], so counting needs no synchronization);
//! the driver merges them into a [`RunStats`] after the run. The
//! [`StealCounters`] categories are exactly those of the paper's Table VI.
//!
//! A dispatcher reports each of its five events (segment fetched, fetch
//! retried, stale-slot abort, steal succeeded, steal failed) through one
//! [`ThreadStats`] method that bumps the counter, closes the call site's
//! latency timer and records the flight event, so the counters, the
//! histograms and the flight rings cannot disagree about what happened.

use obfs_sync::flight::{self, kind};
use obfs_sync::metrics::{self, HistTimer};

/// Outcome counters for steal attempts (work-stealing variants) — the
/// columns of Table VI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealCounters {
    /// Total steal attempts.
    pub attempts: u64,
    /// Successful steals.
    pub success: u64,
    /// Failed: victim's lock was held (lock-based variants only).
    pub victim_locked: u64,
    /// Failed: victim had no work (empty or exhausted segment).
    pub victim_idle: u64,
    /// Failed: victim's remaining segment was below the steal minimum.
    pub too_small: u64,
    /// Failed: segment passed the sanity checks but was already consumed
    /// (first slot cleared) — lock-free variants only.
    pub stale: u64,
    /// Failed: segment failed the `f' < r' <= Qin[q'].r` sanity check —
    /// lock-free variants only.
    pub invalid: u64,
}

impl StealCounters {
    /// Field-wise accumulate.
    pub fn merge(&mut self, o: &StealCounters) {
        self.attempts += o.attempts;
        self.success += o.success;
        self.victim_locked += o.victim_locked;
        self.victim_idle += o.victim_idle;
        self.too_small += o.too_small;
        self.stale += o.stale;
        self.invalid += o.invalid;
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// monotonically increasing counters.
    pub fn diff(&self, earlier: &StealCounters) -> StealCounters {
        StealCounters {
            attempts: self.attempts - earlier.attempts,
            success: self.success - earlier.success,
            victim_locked: self.victim_locked - earlier.victim_locked,
            victim_idle: self.victim_idle - earlier.victim_idle,
            too_small: self.too_small - earlier.too_small,
            stale: self.stale - earlier.stale,
            invalid: self.invalid - earlier.invalid,
        }
    }

    /// Total failed attempts.
    pub fn failed(&self) -> u64 {
        self.victim_locked + self.victim_idle + self.too_small + self.stale + self.invalid
    }

    /// Internal consistency: categorized outcomes must sum to attempts.
    pub fn is_consistent(&self) -> bool {
        self.success + self.failed() == self.attempts
    }
}

/// Why a steal attempt failed: one variant per failure column of
/// [`StealCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StealFail {
    /// The victim's lock was held (lock-based variants only).
    Locked,
    /// The victim had no work (empty or exhausted segment).
    Idle,
    /// The victim's remaining segment was below the steal minimum.
    TooSmall,
    /// The stolen half was already consumed (lock-free variants only).
    Stale,
    /// The snapshot failed the `f' < r' <= Qin[q'].r` sanity check
    /// (lock-free variants only).
    Invalid,
}

impl StealFail {
    /// Count this failure in its [`StealCounters`] field and return its
    /// `STEAL_*` flight code: the one place a reason maps to both.
    fn tally(self, c: &mut StealCounters) -> u64 {
        let (field, code) = match self {
            StealFail::Locked => (&mut c.victim_locked, kind::STEAL_LOCKED),
            StealFail::Idle => (&mut c.victim_idle, kind::STEAL_IDLE),
            StealFail::TooSmall => (&mut c.too_small, kind::STEAL_TOO_SMALL),
            StealFail::Stale => (&mut c.stale, kind::STEAL_STALE),
            StealFail::Invalid => (&mut c.invalid, kind::STEAL_INVALID),
        };
        *field += 1;
        code
    }
}

/// Per-worker counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Queue slots consumed that held a live vertex.
    pub vertices_explored: u64,
    /// Adjacency entries scanned.
    pub edges_scanned: u64,
    /// Vertices pushed into this worker's output queue.
    pub vertices_discovered: u64,
    /// Consumed slots whose vertex level was already set — the wasted
    /// duplicate explorations the optimistic scheme trades for lock
    /// freedom.
    pub duplicate_explorations: u64,
    /// Segment reads aborted at a cleared (0) slot.
    pub stale_slot_aborts: u64,
    /// Segments fetched from centralized/pool dispatchers.
    pub segments_fetched: u64,
    /// Dispatcher retries (raced or invalid fetches).
    pub fetch_retries: u64,
    /// Pops skipped by the §IV-D owner-array dedup.
    pub dedup_skips: u64,
    /// Lock acquisitions (lock-based variants).
    pub lock_acquisitions: u64,
    /// Faults injected into this worker by the `chaos` backend (deferred
    /// stores, delay windows, index skews); always 0 without the feature.
    pub injected_faults: u64,
    /// Sum of out-degrees of the vertices this worker discovered — the
    /// next frontier's edge volume, which drives the hybrid α/β switch
    /// heuristic. Counted only when [`crate::BfsOptions::hybrid`] is set
    /// (0 otherwise, so the paper's top-down hot path pays nothing).
    pub frontier_edges: u64,
    /// Steal outcomes (work-stealing variants).
    pub steal: StealCounters,
}

impl ThreadStats {
    /// Field-wise accumulate.
    pub fn merge(&mut self, o: &ThreadStats) {
        self.vertices_explored += o.vertices_explored;
        self.edges_scanned += o.edges_scanned;
        self.vertices_discovered += o.vertices_discovered;
        self.duplicate_explorations += o.duplicate_explorations;
        self.stale_slot_aborts += o.stale_slot_aborts;
        self.segments_fetched += o.segments_fetched;
        self.fetch_retries += o.fetch_retries;
        self.dedup_skips += o.dedup_skips;
        self.lock_acquisitions += o.lock_acquisitions;
        self.injected_faults += o.injected_faults;
        self.frontier_edges += o.frontier_edges;
        self.steal.merge(&o.steal);
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// monotonically increasing counters. Used by the driver to turn
    /// cumulative per-thread totals into per-level deltas.
    pub fn diff(&self, earlier: &ThreadStats) -> ThreadStats {
        ThreadStats {
            vertices_explored: self.vertices_explored - earlier.vertices_explored,
            edges_scanned: self.edges_scanned - earlier.edges_scanned,
            vertices_discovered: self.vertices_discovered - earlier.vertices_discovered,
            duplicate_explorations: self.duplicate_explorations - earlier.duplicate_explorations,
            stale_slot_aborts: self.stale_slot_aborts - earlier.stale_slot_aborts,
            segments_fetched: self.segments_fetched - earlier.segments_fetched,
            fetch_retries: self.fetch_retries - earlier.fetch_retries,
            dedup_skips: self.dedup_skips - earlier.dedup_skips,
            lock_acquisitions: self.lock_acquisitions - earlier.lock_acquisitions,
            injected_faults: self.injected_faults - earlier.injected_faults,
            frontier_edges: self.frontier_edges - earlier.frontier_edges,
            steal: self.steal.diff(&earlier.steal),
        }
    }

    /// A dispatcher handed this worker a segment of `len` entries: of
    /// queue `at`, or starting at edge cursor `at` for edge dispatch.
    /// `retries` is the optimistic fetch's sanity-check retry count,
    /// `None` for dispatchers that never retry.
    #[inline]
    pub(crate) fn segment_fetched(
        &mut self,
        timer: HistTimer,
        retries: Option<u64>,
        level: u32,
        at: u64,
        len: u64,
    ) {
        self.segments_fetched += 1;
        metrics::segment_fetch(timer);
        if let Some(r) = retries {
            metrics::fetch_retry_burst(r);
        }
        flight::record(kind::SEGMENT_FETCH, level, at, len);
    }

    /// A fetch from queue or pool `index` came up empty and is retried;
    /// `probe` marks a failed decentralized pool probe (flight `b` = 1)
    /// rather than a raced queue cursor (`b` = 0).
    #[inline]
    pub(crate) fn fetch_retried(&mut self, level: u32, index: usize, probe: bool) {
        self.fetch_retries += 1;
        flight::record(kind::FETCH_RETRY, level, index as u64, u64::from(probe));
    }

    /// A segment walk stopped at the cleared slot `slot` of `queue`,
    /// below the queue's rear: the segment was replayed or co-walked.
    #[inline]
    pub(crate) fn stale_abort(&mut self, level: u32, queue: usize, slot: usize) {
        self.stale_slot_aborts += 1;
        flight::record(kind::STALE_ABORT, level, queue as u64, slot as u64);
    }

    /// A steal from `victim` took `len` entries.
    #[inline]
    pub(crate) fn steal_succeeded(
        &mut self,
        timer: HistTimer,
        level: u32,
        victim: usize,
        len: usize,
    ) {
        self.steal.attempts += 1;
        self.steal.success += 1;
        metrics::steal_attempt(timer);
        flight::record(kind::STEAL_SUCCESS, level, victim as u64, len as u64);
    }

    /// A steal from `victim` failed for reason `why`.
    #[inline]
    pub(crate) fn steal_failed(
        &mut self,
        timer: HistTimer,
        level: u32,
        victim: usize,
        why: StealFail,
    ) {
        self.steal.attempts += 1;
        let code = why.tally(&mut self.steal);
        metrics::steal_attempt(timer);
        flight::record(kind::STEAL_FAIL, level, victim as u64, code);
    }
}

/// One level of a run's level log: the frontier profile plus every
/// [`ThreadStats`] counter as a per-level delta merged across workers.
/// The barrier leader appends one per executed level on every run;
/// [`crate::BfsOptions::collect_level_stats`] decides whether the log is
/// returned in [`RunStats::level_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// BFS depth of the vertices consumed this level.
    pub level: u32,
    /// Queue entries consumed (frontier size incl. duplicate pushes).
    pub frontier: usize,
    /// Queue entries produced for the next level.
    pub discovered: usize,
    /// Wall time of the level (barrier to barrier).
    pub duration: std::time::Duration,
    /// Whether the watchdog finished this level with the serial sweep.
    pub degraded: bool,
    /// Direction the level ran in; always
    /// [`crate::options::Direction::TopDown`] unless
    /// [`crate::BfsOptions::hybrid`] was set.
    pub direction: crate::options::Direction,
    /// Whether this (top-down) level consumed a prefix-sum-compacted
    /// frontier instead of queue segments; always `false` unless
    /// [`crate::BfsOptions::compaction`] was set.
    pub compacted: bool,
    /// This level's counter deltas, merged across all workers. Summing
    /// `counters` over all levels reproduces [`RunStats::totals`]
    /// exactly (the conservation invariant the schema tests check).
    pub counters: ThreadStats,
}

/// How a run ended (carried in [`RunStats::outcome`]).
///
/// `Complete` and `Degraded` label full traversals — every reachable
/// vertex is labeled (a degraded run finished some levels with the
/// watchdog's serial sweep but lost nothing). `Cancelled` and
/// `DeadlineExceeded` label partial traversals: the run quiesced at a
/// level boundary and the returned `levels`/`parents` state obeys the
/// partial-state contract (DESIGN.md §10) — every labeled vertex has
/// its exact BFS distance, and labeling is complete through the last
/// fully consumed level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Outcome {
    /// The traversal ran to termination with no degraded level.
    #[default]
    Complete,
    /// The traversal ran to termination but the watchdog finished at
    /// least one level with the serial sweep (see
    /// [`RunStats::degraded_levels`]).
    Degraded,
    /// [`obfs_sync::CancelToken::cancel`] stopped the run early.
    Cancelled,
    /// The cancel token's deadline stopped the run early.
    DeadlineExceeded,
}

impl Outcome {
    /// Whether the returned `level`/`parents` arrays cover the full
    /// traversal (false for the partial outcomes).
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete | Outcome::Degraded)
    }
}

/// Aggregated result statistics for one BFS run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Sum of all workers' counters.
    pub totals: ThreadStats,
    /// Per-worker counters (index = thread id; empty for serial runs).
    pub per_thread: Vec<ThreadStats>,
    /// Number of BFS levels executed (depth + 1 for non-trivial runs).
    pub levels: u32,
    /// Wall time of the traversal proper (excludes allocation/setup).
    pub traversal_time: std::time::Duration,
    /// Levels the watchdog finished with the leader's serial sweep
    /// (0 unless [`crate::BfsOptions::watchdog`] tripped).
    pub degraded_levels: u32,
    /// Direction each executed level ran in; empty unless
    /// [`crate::BfsOptions::hybrid`] was set.
    pub directions: Vec<crate::options::Direction>,
    /// Number of adjacent level pairs that ran in different directions
    /// (0 unless [`crate::BfsOptions::hybrid`] was set).
    pub direction_switches: u32,
    /// Levels that consumed a prefix-sum-compacted frontier (0 unless
    /// [`crate::BfsOptions::compaction`] was set).
    pub compacted_levels: u32,
    /// The bitmap scan backend the run's kernels used (bottom-up and
    /// compaction walks); `None` for serial runs, which never touch the
    /// dispatched kernels.
    pub kernel_backend: Option<crate::dispatch::ScanBackend>,
    /// The run's level log; empty unless
    /// [`crate::BfsOptions::collect_level_stats`] was set (and always
    /// empty for serial runs).
    pub level_stats: Vec<LevelStats>,
    /// Flight-recorder event rings, one per worker; `None` unless
    /// [`crate::BfsOptions::flight_recorder`] was set on a build with
    /// the `trace` feature.
    pub flight: Option<crate::flight::FlightRecording>,
    /// Per-worker latency histograms; `None` unless
    /// [`crate::BfsOptions::collect_histograms`] was set.
    pub hists: Option<RunHists>,
    /// How the run ended; anything but the default
    /// [`Outcome::Complete`] needs [`crate::BfsOptions::watchdog`] or
    /// [`crate::BfsOptions::cancel`].
    pub outcome: Outcome,
    /// Whether the labeling is partial (`outcome` is `Cancelled` or
    /// `DeadlineExceeded`); partial state still satisfies
    /// [`crate::validate::check_partial`].
    pub partial: bool,
}

/// The histogram sets drained from every worker of a run
/// (index = thread id).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunHists {
    /// One histogram set per worker.
    pub workers: Vec<obfs_sync::metrics::WorkerHists>,
}

impl RunHists {
    /// All workers' histograms folded together.
    pub fn merged(&self) -> obfs_sync::metrics::WorkerHists {
        let mut out = obfs_sync::metrics::WorkerHists::default();
        for w in &self.workers {
            out.merge(w);
        }
        out
    }
}

impl RunStats {
    /// Build from per-thread stats.
    pub fn from_threads(
        per_thread: Vec<ThreadStats>,
        levels: u32,
        traversal_time: std::time::Duration,
    ) -> Self {
        let mut totals = ThreadStats::default();
        for t in &per_thread {
            totals.merge(t);
        }
        Self {
            totals,
            per_thread,
            levels,
            traversal_time,
            degraded_levels: 0,
            directions: Vec::new(),
            direction_switches: 0,
            compacted_levels: 0,
            kernel_backend: None,
            level_stats: Vec::new(),
            flight: None,
            hists: None,
            outcome: Outcome::default(),
            partial: false,
        }
    }

    /// Traversed edges per second (the paper's Figure 3 metric), given the
    /// number of edges actually reachable in this traversal.
    pub fn teps(&self, traversed_edges: u64) -> f64 {
        let s = self.traversal_time.as_secs_f64();
        if s <= 0.0 {
            f64::INFINITY
        } else {
            traversed_edges as f64 / s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_counters_consistency() {
        let mut s = StealCounters::default();
        assert!(s.is_consistent());
        s.attempts = 10;
        s.success = 4;
        s.victim_idle = 3;
        s.stale = 2;
        s.invalid = 1;
        assert!(s.is_consistent());
        assert_eq!(s.failed(), 6);
        s.too_small = 1;
        assert!(!s.is_consistent());
    }

    /// `StealFail` is the one map from a failure reason to its Table VI
    /// bucket and its flight code: each reason lands in its own bucket,
    /// and the one `STEAL_FAIL` event (`trace` builds) carries its code.
    #[test]
    fn each_steal_failure_lands_in_its_own_bucket() {
        type Bucket = fn(&StealCounters) -> u64;
        let cases: [(StealFail, Bucket, u64); 5] = [
            (StealFail::Locked, |c| c.victim_locked, kind::STEAL_LOCKED),
            (StealFail::Idle, |c| c.victim_idle, kind::STEAL_IDLE),
            (StealFail::TooSmall, |c| c.too_small, kind::STEAL_TOO_SMALL),
            (StealFail::Stale, |c| c.stale, kind::STEAL_STALE),
            (StealFail::Invalid, |c| c.invalid, kind::STEAL_INVALID),
        ];
        for (victim, (why, bucket, code)) in cases.into_iter().enumerate() {
            let mut c = StealCounters::default();
            assert_eq!(why.tally(&mut c), code, "{why:?} flight code");
            assert_eq!((bucket(&c), c.failed()), (1, 1), "{why:?} bucket");

            flight::install(4, std::time::Instant::now());
            let mut ts = ThreadStats::default();
            ts.steal_failed(HistTimer::DISARMED, 3, victim, why);
            let ring = flight::uninstall();
            assert_eq!((bucket(&ts.steal), ts.steal.attempts), (1, 1), "{why:?} bucket");
            assert!(ts.steal.is_consistent());
            #[cfg(feature = "trace")]
            {
                let events = ring.expect("recorder installed").events;
                let got: Vec<_> = events.iter().map(|e| (e.kind, e.level, e.a, e.b)).collect();
                assert_eq!(got, [(kind::STEAL_FAIL, 3, victim as u64, code)], "{why:?} event");
            }
            #[cfg(not(feature = "trace"))]
            assert!(ring.is_none());
        }
    }

    #[test]
    fn merge_adds_fieldwise() {
        let a = ThreadStats { vertices_explored: 5, edges_scanned: 9, ..Default::default() };
        let mut b = ThreadStats { vertices_explored: 1, dedup_skips: 2, ..Default::default() };
        b.merge(&a);
        assert_eq!(b.vertices_explored, 6);
        assert_eq!(b.edges_scanned, 9);
        assert_eq!(b.dedup_skips, 2);
    }

    #[test]
    fn run_stats_totals() {
        let t1 = ThreadStats { vertices_explored: 10, ..Default::default() };
        let t2 = ThreadStats { vertices_explored: 30, ..Default::default() };
        let rs = RunStats::from_threads(vec![t1, t2], 3, std::time::Duration::from_millis(10));
        assert_eq!(rs.totals.vertices_explored, 40);
        assert_eq!(rs.levels, 3);
        let teps = rs.teps(1000);
        assert!((teps - 100_000.0).abs() < 1.0);
    }
}
