//! Algorithm selection and tuning knobs.

use obfs_runtime::Topology;
use obfs_sync::{CancelToken, ChaosConfig, Clock};
use std::time::Duration;

/// The BFS algorithms of the paper (Table II) plus the §IV-D extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// `sbfs`: serial queue-based BFS.
    Serial,
    /// `BFSC`: centralized segment dispatch guarded by a global lock.
    Bfsc,
    /// `BFSCL`: centralized dispatch, optimistic lock-free.
    Bfscl,
    /// `BFSDL`: decentralized — `j` queue pools, optimistic lock-free.
    Bfsdl,
    /// `BFSW`: distributed randomized work-stealing with per-victim locks.
    Bfsw,
    /// `BFSWL`: work-stealing, optimistic lock-free.
    Bfswl,
    /// `BFSWS`: two-phase scale-free work-stealing with locks.
    Bfsws,
    /// `BFSWSL`: two-phase scale-free work-stealing, lock-free.
    Bfswsl,
    /// `EdgeCL` (§IV-D "further improvements"): edge-balanced optimistic
    /// centralized dispatch — segments are edge ranges, not vertex ranges.
    EdgeCl,
}

impl Algorithm {
    /// All parallel algorithms plus the serial baseline, in the order used
    /// by the paper's tables.
    pub const ALL: [Algorithm; 9] = [
        Algorithm::Serial,
        Algorithm::Bfsc,
        Algorithm::Bfscl,
        Algorithm::Bfsdl,
        Algorithm::Bfsw,
        Algorithm::Bfswl,
        Algorithm::Bfsws,
        Algorithm::Bfswsl,
        Algorithm::EdgeCl,
    ];

    /// Paper acronym.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Serial => "sbfs",
            Algorithm::Bfsc => "BFS_C",
            Algorithm::Bfscl => "BFS_CL",
            Algorithm::Bfsdl => "BFS_DL",
            Algorithm::Bfsw => "BFS_W",
            Algorithm::Bfswl => "BFS_WL",
            Algorithm::Bfsws => "BFS_WS",
            Algorithm::Bfswsl => "BFS_WSL",
            Algorithm::EdgeCl => "BFS_ECL",
        }
    }

    /// Parse a paper acronym (case-insensitive, underscores optional).
    pub fn from_name(s: &str) -> Option<Self> {
        let norm: String = s.chars().filter(|c| *c != '_').collect::<String>().to_ascii_uppercase();
        Self::ALL.into_iter().find(|a| {
            a.name().chars().filter(|c| *c != '_').collect::<String>().to_ascii_uppercase() == norm
        })
    }

    /// True for the variants that take no lock and no atomic RMW on the
    /// shared queue state.
    pub fn is_lockfree(&self) -> bool {
        matches!(
            self,
            Algorithm::Bfscl
                | Algorithm::Bfsdl
                | Algorithm::Bfswl
                | Algorithm::Bfswsl
                | Algorithm::EdgeCl
        )
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Duplicate-exploration suppression (§IV-D "further improvements").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupMode {
    /// The paper's evaluated configuration: duplicates tolerated.
    #[default]
    None,
    /// Owner-array suppression: pushes record the destination queue id in
    /// a shared array via arbitrary-concurrent-write (still no locks, no
    /// RMW); pops skip vertices whose recorded owner is a different queue.
    OwnerArray,
}

/// How segment sizes are chosen by the centralized dispatchers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentPolicy {
    /// Adaptive (the paper's choice): `s = clamp(remaining/(div*p), 1, max)`
    /// recomputed at every dispatch.
    Adaptive {
        /// Denominator factor: `s = remaining / (div * p)`.
        div: usize,
        /// Upper clamp on the segment length.
        max: usize,
    },
    /// Fixed segment length (ablation).
    Fixed(usize),
}

impl Default for SegmentPolicy {
    fn default() -> Self {
        SegmentPolicy::Adaptive { div: 2, max: 4096 }
    }
}

impl SegmentPolicy {
    /// Segment length for a dispatch given the remaining entries in the
    /// current queue and the worker count.
    #[inline]
    pub fn segment_len(&self, remaining: usize, threads: usize) -> usize {
        match *self {
            SegmentPolicy::Adaptive { div, max } => {
                (remaining / (div * threads).max(1)).clamp(1, max.max(1))
            }
            SegmentPolicy::Fixed(s) => s.max(1),
        }
    }
}

/// Traversal direction of one BFS level (direction-optimizing hybrid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Parent-to-child frontier expansion (the paper's algorithms).
    #[default]
    TopDown,
    /// Child-to-parent frontier probing: each unvisited vertex scans its
    /// in-edges for a parent at the current level (plain idempotent
    /// stores, no atomics — the optimistic memory model carries over).
    BottomUp,
}

impl Direction {
    /// Short stable label ("td" / "bu") used by the bench JSON schema.
    pub fn label(&self) -> &'static str {
        match self {
            Direction::TopDown => "td",
            Direction::BottomUp => "bu",
        }
    }
}

/// Override for the hybrid direction heuristic (testing / ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcedDirection {
    /// Every level runs top-down (hybrid plumbing active, switch never
    /// fires — isolates the bitmap/telemetry overhead).
    AlwaysTopDown,
    /// Every level after the source seed runs bottom-up.
    AlwaysBottomUp,
}

/// Direction-optimizing hybrid configuration (Beamer-style α/β switch
/// heuristic over the live frontier-density estimates of the per-level
/// driver). `None` in [`BfsOptions::hybrid`] keeps the paper's pure
/// top-down behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridPolicy {
    /// Switch to bottom-up when the frontier's out-edge volume exceeds
    /// `unexplored_edges / alpha` (Beamer's published α = 14).
    pub alpha: u64,
    /// Switch back to top-down when the frontier shrinks below
    /// `n / beta` vertices (Beamer's published β = 24); `n / beta` is
    /// also the edge-volume floor below which top-down never leaves.
    pub beta: u64,
    /// Force a fixed direction instead of the heuristic (tests /
    /// ablations); `None` runs the α/β rule.
    pub force: Option<ForcedDirection>,
}

impl Default for HybridPolicy {
    fn default() -> Self {
        Self { alpha: 14, beta: 24, force: None }
    }
}

impl HybridPolicy {
    /// The heuristic with custom switch constants.
    pub fn with_constants(alpha: u64, beta: u64) -> Self {
        Self { alpha: alpha.max(1), beta: beta.max(1), force: None }
    }

    /// A policy pinned to one direction.
    pub fn forced(dir: ForcedDirection) -> Self {
        Self { force: Some(dir), ..Self::default() }
    }

    /// The α/β switch rule, in one place so the driver and the tests
    /// replaying recorded series agree exactly: given the direction of
    /// the finished level, the next frontier's vertex count `nf` and
    /// out-edge volume `mf`, the finished level's frontier edge volume
    /// `prev_mf` (0 before level 0), the remaining unexplored edge volume
    /// `mu`, and the vertex count `n`, decide the next level's direction.
    ///
    /// Beamer's SC'12 rule with its growing/shrinking conditions, plus a
    /// cost floor:
    /// - top-down → bottom-up iff `mf > mu/α`, the frontier is growing
    ///   (`mf > prev_mf`), and `mf ≥ n/β`. A bottom-up level pays an O(n)
    ///   bitmap fill and candidate scan whatever the frontier, so it
    ///   cannot beat top-down work smaller than that. The floor also
    ///   keeps a shrinking tail, where `mu` collapses toward 0 and
    ///   `mu/α` fires on any frontier, top-down.
    /// - bottom-up → top-down iff `nf < n/β` and the frontier is
    ///   shrinking (`mf < prev_mf`); a small but growing frontier stays.
    pub fn decide(
        &self,
        was: Direction,
        nf: u64,
        mf: u64,
        prev_mf: u64,
        mu: u64,
        n: u64,
    ) -> Direction {
        match self.force {
            Some(ForcedDirection::AlwaysTopDown) => Direction::TopDown,
            Some(ForcedDirection::AlwaysBottomUp) => Direction::BottomUp,
            None => {
                let floor = n / self.beta.max(1);
                let go_bottom_up = if was == Direction::BottomUp {
                    nf >= floor || mf >= prev_mf // leave only small and shrinking
                } else {
                    mf > mu / self.alpha.max(1) && mf > prev_mf && mf >= floor
                };
                if go_bottom_up {
                    Direction::BottomUp
                } else {
                    Direction::TopDown
                }
            }
        }
    }
}

/// Prefix-sum frontier compaction configuration (see [`crate::scan`]).
/// `None` in [`BfsOptions::compaction`] keeps every level on the paper's
/// queue-segment dispatch.
///
/// The decision reuses the inputs the level-end serial section already
/// computes for the hybrid α/β rule: the next frontier's vertex count
/// `nf` (`produced`) against the graph's vertex count `n`. A level whose
/// frontier holds at least `n / density_div` vertices is dense enough
/// that dispatch overhead and duplicate explorations dominate, so the
/// driver materializes that frontier by parallel prefix sum instead.
/// Compaction applies only to top-down levels — a bottom-up level has no
/// queue dispatch to replace — so it composes with the hybrid switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact a (top-down) level when its frontier holds at least
    /// `n / density_div` vertices.
    pub density_div: u64,
    /// Force compaction on/off for every eligible level instead of the
    /// density rule (tests / ablations); `None` runs the rule.
    pub force: Option<bool>,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self { density_div: 16, force: None }
    }
}

impl CompactionPolicy {
    /// A policy compacting every eligible (top-down, non-empty) level.
    pub fn forced_on() -> Self {
        Self { force: Some(true), ..Self::default() }
    }

    /// The density rule, in one place so the driver and tests replaying
    /// recorded series agree exactly: given the next frontier's vertex
    /// count `nf` and the graph's vertex count `n`, decide whether the
    /// next (top-down) level runs compacted. A zero `nf` never compacts
    /// (the run is about to end).
    pub fn decide(&self, nf: u64, n: u64) -> bool {
        if nf == 0 {
            return false;
        }
        match self.force {
            Some(f) => f,
            None => nf >= n / self.density_div.max(1),
        }
    }
}

/// Per-level watchdog limits for graceful degradation (DESIGN.md §7).
///
/// The optimistic dispatchers recover from racy corruption by retrying;
/// a watchdog bounds how long a level may spend retrying before the
/// barrier leader finishes the level with a serial sweep. Each tripped
/// level is counted in [`crate::RunStats::degraded_levels`]; the
/// traversal stays correct either way (the sweep re-explores whatever
/// frontier entries the parallel phase left behind, and duplicate
/// exploration is idempotent within a level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogPolicy {
    /// Wall-clock budget per level. Workers poll it at dispatch
    /// granularity (segment fetches, steal attempts, pool probes).
    /// `Some(Duration::ZERO)` degrades every level — a correct, fully
    /// serial run useful for testing the fallback path.
    pub level_deadline: Option<Duration>,
    /// Per-call bound on consecutive dispatch retries (fetch retries,
    /// steal attempts, pool probes) before the level is declared
    /// degraded. Tighter than the paper's `c·p·log p` give-up budget:
    /// tripping it ends the whole level, not just one thread's search.
    pub max_fetch_retries: Option<u64>,
}

impl WatchdogPolicy {
    /// A deadline-only policy.
    pub fn deadline(d: Duration) -> Self {
        Self { level_deadline: Some(d), max_fetch_retries: None }
    }
}

/// Tuning options shared by all algorithms. `Default` mirrors the paper's
/// configuration on a generic machine.
#[derive(Debug, Clone)]
pub struct BfsOptions {
    /// Worker threads `p`.
    pub threads: usize,
    /// Segment sizing for the centralized/decentralized dispatchers.
    pub segment: SegmentPolicy,
    /// `c` in the `c·p·log p` steal/pool-search retry budgets (paper
    /// §IV-A3, §IV-B1; `c > 1`).
    pub retry_c: usize,
    /// Minimum victim segment length worth stealing (steals of shorter
    /// segments are counted as "segment too small" failures).
    pub steal_min: usize,
    /// Degree above which a vertex is treated as a hub by the scale-free
    /// variants; `None` derives `max(64, 8 * avg_degree)` from the graph.
    pub hub_threshold: Option<usize>,
    /// Pool count `j ∈ [1, p]` for `BFSDL`.
    pub pools: usize,
    /// Duplicate suppression mode.
    pub dedup: DedupMode,
    /// Record a BFS-tree parent per vertex (arbitrary concurrent write).
    pub record_parents: bool,
    /// Scale-free variants: use optimistic edge-segment stealing in the
    /// hub phase instead of static per-thread chunks (the alternative the
    /// paper tried and found usually slower).
    pub phase2_steal: bool,
    /// Socket layout for NUMA-aware victim selection (§IV-C). `None`
    /// means uniform random victims.
    pub topology: Option<Topology>,
    /// Seed for victim selection and pool choice randomness.
    pub seed: u64,
    /// Return the run's level log — per-level frontier sizes, durations
    /// and merged counter deltas — in [`crate::RunStats::level_stats`].
    /// The barrier leader records the log on every run (the direction,
    /// compaction and degradation figures of [`crate::RunStats`] are
    /// read off it); this flag only decides whether it is returned. Leave
    /// it off where results are kept or copied in bulk: the query engine
    /// clones one batch's `RunStats` into each of up to 64 answers, and a
    /// returned log (one [`crate::LevelStats`] per level, a few hundred
    /// on deep graphs) would be copied with every clone.
    pub collect_level_stats: bool,
    /// Record per-worker latency histograms (segment-fetch, steal
    /// attempt, sanity-check retries per fetch, barrier wait) into
    /// [`crate::RunStats::hists`]. Runtime switch (no cargo feature
    /// needed); when off the only residue is a disarmed thread-local
    /// flag check at dispatch granularity — see `obfs_sync::metrics`.
    pub collect_histograms: bool,
    /// Install a flight recorder per worker with this many event slots
    /// (see `obfs_sync::flight`); the drained rings land in
    /// [`crate::RunStats::flight`]. Only effective on builds with the
    /// `trace` feature — without it the option is carried but the run
    /// records nothing and `flight` stays `None`.
    pub flight_recorder: Option<usize>,
    /// Deterministic fault-injection plan installed per worker (stream =
    /// thread id). Only honoured when the crate is built with the `chaos`
    /// feature; without it the plan is carried but never activates.
    pub chaos: Option<ChaosConfig>,
    /// Per-level watchdog; `None` (default) disables all polling.
    pub watchdog: Option<WatchdogPolicy>,
    /// Direction-optimizing hybrid: `Some` lets the per-level driver run
    /// dense levels bottom-up (BFSCL/BFSWSL and every other driver-based
    /// variant); `None` (default) keeps the paper's pure top-down runs.
    pub hybrid: Option<HybridPolicy>,
    /// Prefix-sum frontier compaction: `Some` lets the per-level driver
    /// materialize dense top-down frontiers by parallel prefix sum and
    /// consume them with a static partition instead of queue-segment
    /// dispatch; `None` (default) keeps the paper's dispatchers on every
    /// level. Composes with [`BfsOptions::hybrid`]; ignored by batched
    /// multi-source runs (their discovery path is already bit-parallel).
    pub compaction: Option<CompactionPolicy>,
    /// Scan-kernel selection for the bottom-up and compaction bitmap
    /// walks; the default probes once per process and picks the fastest
    /// backend (see [`crate::dispatch`]).
    pub kernel: crate::dispatch::KernelChoice,
    /// Time source for watchdog and cancellation deadlines. The default
    /// wall clock is right for production; tests inject
    /// [`Clock::manual`] so deadline branches replay deterministically.
    pub clock: Clock,
    /// Cooperative cancellation token. `None` (default) costs the run
    /// nothing; `Some` is polled at the same dispatch granularity as the
    /// watchdog and ends the run with a partial result
    /// ([`crate::Outcome::Cancelled`] / `DeadlineExceeded`).
    pub cancel: Option<CancelToken>,
    /// Live run telemetry (`obfs_run_*` gauges/counters, DESIGN.md
    /// §13): the barrier leader updates level/frontier/direction and
    /// adds each level's merged edge delta in its serial sections.
    /// `None` (default) costs the run one `Option` test per level.
    pub telemetry: Option<std::sync::Arc<obfs_telemetry::RunTelemetry>>,
}

impl Default for BfsOptions {
    fn default() -> Self {
        Self {
            threads: 4,
            segment: SegmentPolicy::default(),
            retry_c: 2,
            steal_min: 4,
            hub_threshold: None,
            pools: 1,
            dedup: DedupMode::None,
            record_parents: false,
            phase2_steal: false,
            topology: None,
            seed: 0x0BF5,
            collect_level_stats: false,
            collect_histograms: false,
            flight_recorder: None,
            chaos: None,
            watchdog: None,
            hybrid: None,
            compaction: None,
            kernel: crate::dispatch::KernelChoice::default(),
            clock: Clock::default(),
            cancel: None,
            telemetry: None,
        }
    }
}

impl BfsOptions {
    /// Validate and clamp derived fields against a concrete graph.
    pub fn resolved_hub_threshold(&self, graph: &obfs_graph::CsrGraph) -> usize {
        self.hub_threshold.unwrap_or_else(|| {
            let n = graph.num_vertices().max(1);
            let avg = (graph.num_edges() as usize / n).max(1);
            (8 * avg).max(64)
        })
    }

    /// Steal / pool-search retry budget for `k` choices.
    pub fn retry_budget(&self, k: usize) -> usize {
        obfs_util::retry_budget(self.retry_c.max(2), k, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(a.name()), Some(a), "{a}");
        }
        assert_eq!(Algorithm::from_name("bfswsl"), Some(Algorithm::Bfswsl));
        assert_eq!(Algorithm::from_name("BFS_CL"), Some(Algorithm::Bfscl));
        assert_eq!(Algorithm::from_name("nope"), None);
    }

    #[test]
    fn lockfree_classification() {
        assert!(Algorithm::Bfscl.is_lockfree());
        assert!(Algorithm::Bfswsl.is_lockfree());
        assert!(!Algorithm::Bfsc.is_lockfree());
        assert!(!Algorithm::Bfsw.is_lockfree());
        assert!(!Algorithm::Serial.is_lockfree());
    }

    #[test]
    fn segment_policy_adaptive() {
        let p = SegmentPolicy::Adaptive { div: 2, max: 100 };
        assert_eq!(p.segment_len(1000, 5), 100); // clamped to max
        assert_eq!(p.segment_len(100, 5), 10);
        assert_eq!(p.segment_len(0, 5), 1); // never zero
        assert_eq!(p.segment_len(3, 8), 1);
    }

    #[test]
    fn segment_policy_fixed() {
        let p = SegmentPolicy::Fixed(7);
        assert_eq!(p.segment_len(1_000_000, 32), 7);
        assert_eq!(SegmentPolicy::Fixed(0).segment_len(10, 1), 1);
    }

    #[test]
    fn hub_threshold_auto() {
        let g = obfs_graph::gen::star(1000);
        let opts = BfsOptions::default();
        // avg degree ~2 -> auto threshold floors at 64
        assert_eq!(opts.resolved_hub_threshold(&g), 64);
        let opts2 = BfsOptions { hub_threshold: Some(5), ..Default::default() };
        assert_eq!(opts2.resolved_hub_threshold(&g), 5);
    }

    #[test]
    fn hybrid_decide_follows_growing_shrinking_rule_with_floor() {
        use Direction::{BottomUp as Bu, TopDown as Td};
        let pol = HybridPolicy::default(); // α = 14, β = 24
        // (case, was, nf, mf, prev_mf, mu, n, expected)
        let table = [
            ("edge-sparse frontier", Td, 10, 10, 5, 1000, 100, Td),
            ("growing, mf > mu/α", Td, 10, 200, 50, 1000, 100, Bu),
            ("shrinking, mf > mu/α", Td, 10, 200, 300, 1000, 100, Td),
            ("star hub from a leaf", Td, 1, 399, 1, 399, 400, Bu),
            ("star hub as the source", Td, 1, 399, 0, 798, 400, Bu),
            ("36-edge tail under the n/β floor", Td, 12, 36, 30, 100, 850_000, Td),
            ("mu saturated at 0, shrinking", Td, 5, 40, 60, 0, 480, Td),
            ("bottom-up, small but growing", Bu, 5, 50, 40, 0, 480, Bu),
            ("bottom-up, large but shrinking", Bu, 50, 30, 40, 0, 480, Bu),
            ("bottom-up, small and shrinking", Bu, 5, 30, 40, 0, 480, Td),
        ];
        for (case, was, nf, mf, prev_mf, mu, n, want) in table {
            assert_eq!(pol.decide(was, nf, mf, prev_mf, mu, n), want, "{case}");
        }
    }

    #[test]
    fn hybrid_forced_overrides_heuristic() {
        let td = HybridPolicy::forced(ForcedDirection::AlwaysTopDown);
        let bu = HybridPolicy::forced(ForcedDirection::AlwaysBottomUp);
        assert_eq!(td.decide(Direction::TopDown, 10, 1 << 40, 0, 1, 100), Direction::TopDown);
        assert_eq!(
            bu.decide(Direction::BottomUp, 0, 0, 1 << 40, 1 << 40, 100),
            Direction::BottomUp
        );
        assert_eq!(Direction::TopDown.label(), "td");
        assert_eq!(Direction::BottomUp.label(), "bu");
    }

    #[test]
    fn compaction_decide_follows_density_rule() {
        let pol = CompactionPolicy::default(); // density_div = 16
        assert!(!pol.decide(0, 1600), "empty next frontier never compacts");
        assert!(!pol.decide(99, 1600), "sparse frontier stays on dispatch");
        assert!(pol.decide(100, 1600), "nf >= n/16 compacts");
        assert!(pol.decide(1600, 1600));
        // Forced modes override the rule but never an empty frontier.
        assert!(CompactionPolicy::forced_on().decide(1, 1 << 40));
        assert!(!CompactionPolicy::forced_on().decide(0, 16));
        let off = CompactionPolicy { force: Some(false), ..Default::default() };
        assert!(!off.decide(1 << 40, 16));
    }

    #[test]
    fn retry_budget_reasonable() {
        let opts = BfsOptions::default();
        assert!(opts.retry_budget(1) >= 4);
        assert!(opts.retry_budget(12) >= 2 * 12 * 4);
    }
}
