//! Uniform interface over everything the paper's tables compare: our
//! nine algorithms, Baseline1 (bag PBFS) and Baseline2 (Hong variants),
//! plus the Beamer direction-optimizing reference of the Graph500 bench.

use obfs_baselines::beamer::beamer_bfs_on_pool;
use obfs_baselines::hong::{hong_bfs_on_pool, HongVariant};
use obfs_baselines::pbfs::PbfsRunner;
use obfs_core::{
    run_bfs, Algorithm, BfsOptions, BfsResult, BfsRunner, CompactionPolicy, HybridPolicy,
};
use obfs_graph::{CsrGraph, VertexId};
use obfs_runtime::LevelPool;

/// One row of a comparison table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Contender {
    /// One of this paper's algorithms.
    Ours(Algorithm),
    /// One of this paper's algorithms with the direction-optimizing
    /// hybrid enabled (default α/β heuristic). Hybrid rows also enable
    /// prefix-sum frontier compaction (default density policy), so they
    /// exercise the full optimized top-down + bottom-up pipeline.
    OursHybrid(Algorithm),
    /// One of this paper's algorithms with prefix-sum frontier
    /// compaction enabled (default density policy) but no hybrid —
    /// isolates the compaction gain on top-down-only execution.
    OursCompact(Algorithm),
    /// Leiserson–Schardl bag PBFS.
    Baseline1,
    /// A Hong et al. multicore variant.
    Baseline2(HongVariant),
    /// Beamer's direction-optimizing BFS: the modern Graph500 reference
    /// point, which post-dates the paper and so stays out of
    /// [`Contender::roster`].
    Beamer,
}

impl Contender {
    /// The full roster in the paper's table-row order.
    pub fn roster() -> Vec<Contender> {
        let mut v: Vec<Contender> = Algorithm::ALL.into_iter().map(Contender::Ours).collect();
        v.push(Contender::OursCompact(Algorithm::Bfscl));
        v.push(Contender::OursCompact(Algorithm::Bfswsl));
        v.push(Contender::Baseline1);
        v.push(Contender::Baseline2(HongVariant::Queue));
        v.push(Contender::Baseline2(HongVariant::LocalQueueReadBitmap));
        v.push(Contender::Baseline2(HongVariant::Hybrid));
        v
    }

    /// The direction-optimizing hybrid rows (`--hybrid` benches): the
    /// two headline optimistic algorithms with the α/β heuristic on.
    pub fn hybrid_roster() -> Vec<Contender> {
        vec![Contender::OursHybrid(Algorithm::Bfscl), Contender::OursHybrid(Algorithm::Bfswsl)]
    }

    /// Display name used as the table row label.
    pub fn name(&self) -> String {
        match self {
            Contender::Ours(a) => a.name().to_string(),
            Contender::OursHybrid(a) => format!("{}+hyb", a.name()),
            Contender::OursCompact(a) => format!("{}+cmp", a.name()),
            Contender::Baseline1 => "Baseline1[bag]".to_string(),
            Contender::Baseline2(v) => format!("Baseline2/{v}"),
            Contender::Beamer => "Beamer[direction-opt]".to_string(),
        }
    }

    /// Whether runs read the in-edge graph (bottom-up levels), so a
    /// caller holding a transpose should lend it.
    pub fn uses_transpose(&self) -> bool {
        matches!(self, Contender::OursHybrid(_) | Contender::Beamer)
    }

    /// Whether the contender uses worker threads at all.
    pub fn is_parallel(&self) -> bool {
        !matches!(self, Contender::Ours(Algorithm::Serial))
    }
}

impl std::fmt::Display for Contender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Owns the persistent execution resources so repeated measurements do
/// not pay pool construction per run.
pub struct ContenderPool {
    threads: usize,
    ours: BfsRunner,
    /// Shared by the Hong and Beamer baselines.
    level_pool: LevelPool,
    pbfs: PbfsRunner,
}

impl ContenderPool {
    /// Pools sized for `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            ours: BfsRunner::new(threads),
            level_pool: LevelPool::new(threads),
            pbfs: PbfsRunner::new(threads),
        }
    }

    /// Worker count shared by all owned pools.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute one BFS run.
    pub fn run(
        &mut self,
        contender: Contender,
        graph: &CsrGraph,
        src: VertexId,
        opts: &BfsOptions,
    ) -> BfsResult {
        self.run_with_transpose(contender, graph, None, src, opts)
    }

    /// Execute one BFS run, lending a precomputed transpose to hybrid
    /// and Beamer contenders so they do not rebuild it per run.
    pub fn run_with_transpose(
        &mut self,
        contender: Contender,
        graph: &CsrGraph,
        transpose: Option<&CsrGraph>,
        src: VertexId,
        opts: &BfsOptions,
    ) -> BfsResult {
        match contender {
            Contender::Ours(Algorithm::Serial) => run_bfs(Algorithm::Serial, graph, src, opts),
            Contender::Ours(a) => {
                let opts = BfsOptions { threads: self.threads, ..opts.clone() };
                self.ours.run(a, graph, src, &opts)
            }
            Contender::OursHybrid(a) => {
                let opts = BfsOptions {
                    threads: self.threads,
                    hybrid: Some(HybridPolicy::default()),
                    compaction: Some(CompactionPolicy::default()),
                    ..opts.clone()
                };
                self.ours.run_with_transpose(a, graph, transpose, src, &opts)
            }
            Contender::OursCompact(a) => {
                let opts = BfsOptions {
                    threads: self.threads,
                    compaction: Some(CompactionPolicy::default()),
                    ..opts.clone()
                };
                self.ours.run(a, graph, src, &opts)
            }
            Contender::Baseline1 => self.pbfs.run(graph, src),
            Contender::Baseline2(v) => hong_bfs_on_pool(v, graph, src, &self.level_pool),
            Contender::Beamer => match transpose {
                Some(t) => beamer_bfs_on_pool(graph, t, src, &self.level_pool).bfs,
                None => beamer_bfs_on_pool(graph, &graph.transpose(), src, &self.level_pool).bfs,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_core::serial::serial_bfs;
    use obfs_graph::gen;

    #[test]
    fn roster_covers_everything_once() {
        let r = Contender::roster();
        // ALL + two +cmp rows + Baseline1 + three Baseline2 variants.
        assert_eq!(r.len(), Algorithm::ALL.len() + 6);
        let names: std::collections::HashSet<_> = r.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), r.len(), "duplicate contender names");
    }

    #[test]
    fn pool_runs_every_contender_correctly() {
        let g = gen::erdos_renyi(400, 2800, 5);
        let ser = serial_bfs(&g, 0);
        let mut pool = ContenderPool::new(4);
        let opts = BfsOptions { threads: 4, ..Default::default() };
        for c in Contender::roster().into_iter().chain([Contender::Beamer]) {
            let r = pool.run(c, &g, 0, &opts);
            assert_eq!(r.levels, ser.levels, "{c} produced wrong levels");
        }
    }

    #[test]
    fn hybrid_contenders_run_with_and_without_a_lent_transpose() {
        let g = gen::erdos_renyi(400, 2800, 5);
        let ser = serial_bfs(&g, 0);
        let transpose = g.transpose();
        let mut pool = ContenderPool::new(4);
        let opts = BfsOptions { threads: 4, ..Default::default() };
        for c in Contender::hybrid_roster() {
            assert!(c.name().ends_with("+hyb"), "{c}");
            let lent = pool.run_with_transpose(c, &g, Some(&transpose), 0, &opts);
            assert_eq!(lent.levels, ser.levels, "{c} wrong with a lent transpose");
            let owned = pool.run(c, &g, 0, &opts);
            assert_eq!(owned.levels, ser.levels, "{c} wrong with an owned transpose");
            assert_eq!(
                lent.stats.directions.len() as u32,
                lent.stats.levels,
                "{c}: hybrid runs must record a direction per level"
            );
        }
    }

    #[test]
    fn compaction_contenders_compact_and_stay_correct() {
        let g = gen::erdos_renyi(400, 2800, 5);
        let ser = serial_bfs(&g, 0);
        let mut pool = ContenderPool::new(4);
        let opts = BfsOptions { threads: 4, ..Default::default() };
        for c in
            [Contender::OursCompact(Algorithm::Bfscl), Contender::OursCompact(Algorithm::Bfswsl)]
        {
            assert!(c.name().ends_with("+cmp"), "{c}");
            let r = pool.run(c, &g, 0, &opts);
            assert_eq!(r.levels, ser.levels, "{c} produced wrong levels");
            assert!(r.stats.compacted_levels > 0, "{c}: dense ER levels should trigger compaction");
        }
        // Hybrid rows carry compaction too (dense top-down levels may
        // switch to bottom-up instead, so only the option is asserted).
        let r = pool.run(Contender::OursHybrid(Algorithm::Bfscl), &g, 0, &opts);
        assert_eq!(r.levels, ser.levels);
    }

    #[test]
    fn serial_is_not_parallel() {
        assert!(!Contender::Ours(Algorithm::Serial).is_parallel());
        assert!(Contender::Baseline1.is_parallel());
    }
}
