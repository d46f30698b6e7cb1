//! Per-run gauges and counters for the traversal currently on a pool.
//!
//! A long-running traversal becomes observable mid-flight through
//! [`RunTelemetry`]: the BFS driver holds the handle (it rides in
//! `BfsOptions::telemetry`), the barrier leader updates the level/
//! frontier/direction gauges inside its serial section (already
//! exclusive, so plain relaxed stores suffice), and each worker adds
//! the growth of its own edge-scan count to [`RunTelemetry::edges`] once
//! per level.
//!
//! # Zero cost when off
//!
//! There is no thread-local and nothing to install: a run whose options
//! carry no handle never touches a registry — no clock reads, no
//! allocation, no atomics.

use crate::registry::{Counter, Gauge, MetricsRegistry};
use std::sync::Arc;

/// Gauges and counters describing the traversal currently on the pool,
/// all registered under `obfs_run_*` in one registry.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// Traversals started (counter).
    pub traversals: Counter,
    /// Levels completed across all traversals (counter).
    pub levels: Counter,
    /// Edges scanned across all traversals (counter, worker-flushed
    /// once per level).
    pub edges: Counter,
    /// Levels whose frontier was materialized by prefix-sum compaction
    /// (counter).
    pub compacted_levels: Counter,
    /// Current BFS level (gauge).
    pub level: Gauge,
    /// Current frontier size (gauge).
    pub frontier: Gauge,
    /// Current traversal direction: 0 top-down, 1 bottom-up (gauge,
    /// matching the `DIR_*` flight payload codes).
    pub direction: Gauge,
}

impl RunTelemetry {
    /// Register (or re-attach to) the `obfs_run_*` family in `reg`.
    pub fn register(reg: &MetricsRegistry) -> Arc<Self> {
        Arc::new(RunTelemetry {
            traversals: reg.counter("obfs_run_traversals_total", "BFS traversals started."),
            levels: reg.counter("obfs_run_levels_total", "BFS levels completed."),
            edges: reg.counter("obfs_run_edges_scanned_total", "Edges scanned by BFS workers."),
            compacted_levels: reg.counter(
                "obfs_run_compacted_levels_total",
                "Levels materialized by prefix-sum frontier compaction.",
            ),
            level: reg.gauge("obfs_run_level", "Current BFS level of the running traversal."),
            frontier: reg.gauge("obfs_run_frontier", "Vertices in the current frontier."),
            direction: reg
                .gauge("obfs_run_direction", "Traversal direction: 0 top-down, 1 bottom-up."),
        })
    }
}
