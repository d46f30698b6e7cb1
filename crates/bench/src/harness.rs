//! Multi-source measurement driver: the paper averages each cell over
//! 1000 random non-zero-degree sources; we do the same with a
//! configurable (smaller) source count, validating every run against
//! serial BFS along the way.
//!
//! [`Measurement::record`] is the one per-run accumulator: [`measure`]
//! and the engine loop of `bombard` both feed runs through it, so every
//! report's time, TEPS and counters mean the same thing.

use crate::contender::{Contender, ContenderPool};
use obfs_core::serial::serial_bfs;
use obfs_core::{BfsOptions, BfsResult, ThreadStats};
use obfs_graph::{CsrGraph, VertexId};
use obfs_util::{OnlineStats, Summary};
use std::cell::OnceCell;

/// Serial BFS from one source: the levels every run from that source
/// must reproduce, and the Graph500 TEPS numerator.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The source vertex.
    pub src: VertexId,
    /// Serial BFS levels.
    pub levels: Vec<u32>,
    /// Input edges of the traversed component (the out-edges serial BFS
    /// scans). Graph500 TEPS divides this, not a contender's own scan
    /// count, by traversal time, so an algorithm that scans fewer edges
    /// (bottom-up levels) is credited rather than penalized.
    pub edges: u64,
}

impl Reference {
    /// Run serial BFS from `src`.
    pub fn new(graph: &CsrGraph, src: VertexId) -> Self {
        let ser = serial_bfs(graph, src);
        Self { src, levels: ser.levels, edges: ser.stats.totals.edges_scanned }
    }
}

/// One graph under measurement with the serial reference of each run's
/// source, computed once and shared by every contender measured on it.
pub struct Workload {
    /// Graph display name.
    pub name: String,
    /// The graph.
    pub graph: CsrGraph,
    /// One reference per run, in run order.
    pub refs: Vec<Reference>,
    transpose: OnceCell<CsrGraph>,
}

impl Workload {
    /// Compute the serial reference of every source in `sources`.
    pub fn new(name: impl Into<String>, graph: CsrGraph, sources: &[VertexId]) -> Self {
        let refs = sources.iter().map(|&src| Reference::new(&graph, src)).collect();
        Self { name: name.into(), graph, refs, transpose: OnceCell::new() }
    }

    /// The in-edge graph, built on first use and lent to every later
    /// hybrid or Beamer run.
    pub fn transpose(&self) -> &CsrGraph {
        self.transpose.get_or_init(|| self.graph.transpose())
    }
}

/// Per-level series captured by one dedicated collection run (not the
/// timed runs, so enabling it cannot perturb the reported times). The
/// totals come from the *same* run, so summing the per-level counter
/// deltas reproduces `totals` exactly — the conservation invariant
/// `json::validate_report` checks.
#[derive(Debug, Clone)]
pub struct SeriesRun {
    /// Per-level counter deltas merged across workers.
    pub levels: Vec<obfs_core::LevelStats>,
    /// The collection run's merged totals.
    pub totals: ThreadStats,
    /// Levels the watchdog degraded in the collection run.
    pub degraded_levels: u32,
}

/// Aggregated runs of one contender on one graph.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Contender display name.
    pub contender: String,
    /// Graph display name.
    pub graph: String,
    time_ms: OnlineStats,
    /// Σ over runs of 1 / TEPS, for the harmonic mean.
    inv_teps: f64,
    dup: OnlineStats,
    levels: OnlineStats,
    /// Counters merged over every run. `edges_scanned` is the work
    /// figure, reported beside (never inside) TEPS.
    pub totals: ThreadStats,
    /// Levels the watchdog degraded, summed over runs.
    pub degraded_levels: u64,
    /// Levels consumed through a prefix-sum-compacted frontier, summed
    /// over runs (0 unless the contender enables compaction).
    pub compacted_levels: u64,
    /// Per-level series from one extra collection run; `None` unless
    /// measured via [`measure_with_series`].
    pub series: Option<SeriesRun>,
}

impl Measurement {
    /// No runs recorded yet.
    pub fn new(contender: impl Into<String>, graph: impl Into<String>) -> Self {
        Self {
            contender: contender.into(),
            graph: graph.into(),
            time_ms: OnlineStats::new(),
            inv_teps: 0.0,
            dup: OnlineStats::new(),
            levels: OnlineStats::new(),
            totals: ThreadStats::default(),
            degraded_levels: 0,
            compacted_levels: 0,
            series: None,
        }
    }

    /// Check one run against its source's serial reference, then add
    /// it. A wrong parallel result aborts the benchmark rather than
    /// producing a bogus table row.
    pub fn record(&mut self, r: &BfsResult, reference: &Reference) {
        obfs_core::validate::check_levels(r, &reference.levels).unwrap_or_else(|e| {
            panic!("{} on {} (src={}) is WRONG: {e}", self.contender, self.graph, reference.src)
        });
        let reached = r.reached().max(1) as f64;
        let explored = r.stats.totals.vertices_explored as f64;
        self.time_ms.push(r.stats.traversal_time.as_secs_f64() * 1e3);
        self.inv_teps += 1.0 / r.stats.teps(reference.edges);
        self.dup.push((explored / reached - 1.0).max(0.0));
        self.levels.push(f64::from(r.stats.levels));
        self.totals.merge(&r.stats.totals);
        self.degraded_levels += u64::from(r.stats.degraded_levels);
        self.compacted_levels += u64::from(r.stats.compacted_levels);
    }

    /// Per-run traversal wall time (milliseconds).
    pub fn time_ms(&self) -> Summary {
        self.time_ms.summary()
    }

    /// Graph500 TEPS: reference component edges over traversal time,
    /// harmonic mean over runs (0 before any run).
    pub fn teps(&self) -> f64 {
        if self.inv_teps > 0.0 {
            self.time_ms.count() as f64 / self.inv_teps
        } else {
            0.0
        }
    }

    /// Mean duplicate-exploration overhead: explored / reached − 1.
    pub fn duplicate_overhead(&self) -> f64 {
        self.dup.mean()
    }

    /// Mean number of BFS levels.
    pub fn levels(&self) -> f64 {
        self.levels.mean()
    }
}

/// Run `contender` once from every source of `w` and record each run.
pub fn measure(
    pool: &mut ContenderPool,
    contender: Contender,
    w: &Workload,
    opts: &BfsOptions,
) -> Measurement {
    assert!(!w.refs.is_empty(), "a workload needs at least one source");
    let transpose = contender.uses_transpose().then(|| w.transpose());
    let mut m = Measurement::new(contender.name(), w.name.clone());
    for reference in &w.refs {
        let r = pool.run_with_transpose(contender, &w.graph, transpose, reference.src, opts);
        m.record(&r, reference);
    }
    m
}

/// [`measure`], then one extra (untimed) run from the first source with
/// [`BfsOptions::collect_level_stats`] to attach the per-level series.
pub fn measure_with_series(
    pool: &mut ContenderPool,
    contender: Contender,
    w: &Workload,
    opts: &BfsOptions,
) -> Measurement {
    let mut m = measure(pool, contender, w, opts);
    let collect = BfsOptions { collect_level_stats: true, ..opts.clone() };
    let transpose = contender.uses_transpose().then(|| w.transpose());
    let r = pool.run_with_transpose(contender, &w.graph, transpose, w.refs[0].src, &collect);
    // Serial runs and external baselines produce no per-level stats;
    // leave the series out rather than attach an empty one whose sums
    // cannot match the totals.
    if !r.stats.level_stats.is_empty() {
        m.series = Some(SeriesRun {
            levels: r.stats.level_stats,
            totals: r.stats.totals,
            degraded_levels: r.stats.degraded_levels,
        });
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_core::Algorithm;
    use obfs_graph::{gen, stats::sample_sources};

    #[test]
    fn measure_produces_sane_numbers() {
        let g = gen::erdos_renyi(500, 3500, 3);
        let sources = sample_sources(&g, 3, 1);
        let w = Workload::new("er", g, &sources);
        let mut pool = ContenderPool::new(2);
        let opts = BfsOptions { threads: 2, ..Default::default() };
        let m = measure(&mut pool, Contender::Ours(Algorithm::Bfscl), &w, &opts);
        assert_eq!(m.time_ms().count, 3);
        assert!(m.time_ms().mean > 0.0);
        assert!(m.teps() > 0.0);
        assert!(m.duplicate_overhead() >= 0.0);
        assert!(m.levels() >= 1.0);
    }

    #[test]
    fn teps_is_reference_edges_over_mean_traversal_time() {
        // From the hub of a star the hybrid goes bottom-up at once, so
        // its own scan count differs from the serial reference's; TEPS
        // must still divide the reference count.
        let w = Workload::new("star", gen::star(400), &[0, 0, 0]);
        let mut pool = ContenderPool::new(2);
        let opts = BfsOptions { threads: 2, ..Default::default() };
        let m = measure(&mut pool, Contender::OursHybrid(Algorithm::Bfscl), &w, &opts);
        let edges = w.refs[0].edges;
        assert_ne!(m.totals.edges_scanned, 3 * edges, "no bottom-up level ran");
        let expected = edges as f64 / (m.time_ms().mean / 1e3);
        let got = m.teps();
        assert!((got - expected).abs() <= expected * 1e-9, "teps {got} != {expected}");
    }

    #[test]
    #[should_panic(expected = "is WRONG")]
    fn record_rejects_a_run_that_disagrees_with_its_reference() {
        let g = gen::path(10);
        let other = Reference::new(&g, 9);
        let r = serial_bfs(&g, 0);
        Measurement::new("sbfs", "path").record(&r, &Reference { src: 0, ..other });
    }
}
