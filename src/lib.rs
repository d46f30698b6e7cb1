//! # obfs — Optimistic lock-free parallel BFS
//!
//! Facade crate re-exporting the public API of the workspace. See the
//! README for the full architecture and `DESIGN.md` for the paper mapping.
//!
//! ```
//! use obfs::prelude::*;
//!
//! let g = gen::erdos_renyi(1_000, 8_000, 42);
//! let opts = BfsOptions { threads: 4, ..BfsOptions::default() };
//! let result = run_bfs(Algorithm::Bfswsl, &g, 0, &opts);
//! let serial = serial_bfs(&g, 0);
//! assert_eq!(result.levels, serial.levels);
//! ```

#![warn(missing_docs)]

pub use obfs_apps as apps;
pub use obfs_baselines as baselines;
pub use obfs_core as core;
pub use obfs_graph as graph;
pub use obfs_runtime as runtime;
pub use obfs_sync as sync;
pub use obfs_util as util;

/// Everything a typical downstream user needs.
pub mod prelude {
    pub use obfs_core::{
        run_batch, run_bfs, serial::serial_bfs, Algorithm, BatchResult, BfsOptions, BfsResult,
        CompactionPolicy, DedupMode, Direction, ForcedDirection, HybridPolicy, SegmentPolicy,
        WatchdogPolicy, MAX_BATCH,
    };
    pub use obfs_graph::{gen, CsrGraph, GraphBuilder};
    pub use obfs_sync::ChaosConfig;
    pub use obfs_util::Xoshiro256StarStar;
}
