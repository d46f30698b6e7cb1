//! Benchmark harness for the paper reproduction.
//!
//! One `paper` binary whose modes regenerate the tables and figures of
//! the evaluation, plus the Graph500, service and regression-gate tools:
//!
//! | Command | Regenerates |
//! |---------|-------------|
//! | `paper table4` | Table IV — graph properties |
//! | `paper table5` | Table V — running times of all algorithms × graphs |
//! | `paper table6` | Table VI — steal-attempt outcome statistics |
//! | `paper fig2` | Figure 2 — scalability of the lock-free variants |
//! | `paper fig3` | Figure 3 — TEPS on the real-world graphs |
//! | `paper ablations` | design-choice sweeps (§IV-D etc.) |
//! | `paper levels` | per-level profile of one traversal |
//! | `graph500` | Graph500-style kernel on RMAT, or on `.mtx` files given as arguments |
//! | `bombard` | closed-loop stress of the query engine |
//! | `compare` | regression gate over two `BENCH_*.json` reports |
//!
//! Shared flags: `--divisor <k>` (graph scale, n = paper_n / k),
//! `--threads <p>`, `--sources <s>`, `--seed <x>`, `--json` (write
//! `BENCH_<name>.json`: `paper table6`, `paper fig3`, graph500 and
//! bombard).

#![warn(missing_docs)]

pub mod args;
pub mod compare;
pub mod contender;
pub mod env;
pub mod harness;
pub mod json;
pub mod micro;
pub mod table;

pub use args::BenchArgs;
pub use contender::{Contender, ContenderPool};
pub use harness::{measure, measure_with_series, Measurement, Reference, Workload};
pub use json::{BenchReport, Json};
