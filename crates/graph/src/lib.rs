//! Graph substrate for the optimistic-BFS reproduction.
//!
//! * [`CsrGraph`] — compressed-sparse-row adjacency storage with `u32`
//!   vertex ids, the representation every BFS algorithm in the workspace
//!   traverses.
//! * [`GraphBuilder`] — edge-list accumulation with dedup / self-loop /
//!   symmetrization options, finalized into CSR by one parallel counting
//!   sort (shared with [`CsrGraph::from_edges`] and
//!   [`CsrGraph::transpose`]) whose output does not depend on the thread
//!   count.
//! * [`gen`] — deterministic synthetic generators: RMAT (Graph500
//!   parameters), Erdős–Rényi, Chung-Lu power law, Barabási–Albert, grids
//!   and tori, and the paper-graph stand-in suite (`gen::suite`).
//! * [`io`] — Matrix Market, text edge-list and binary CSR formats, so the
//!   original Florida Sparse Matrix Collection files can be dropped in.
//! * [`stats`] — degree distributions, power-law exponent fit, BFS
//!   pseudo-diameter and reachability (regenerates the paper's Table IV).

#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod gen;
pub mod io;
mod sort;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;

/// Vertex identifier. Graphs in the evaluation have < 2^32 vertices; using
/// `u32` halves frontier-queue memory traffic exactly as the original
/// implementation's `int` ids did.
pub type VertexId = u32;

/// Marker for "no vertex" in parent arrays and similar.
pub const INVALID_VERTEX: VertexId = VertexId::MAX;
