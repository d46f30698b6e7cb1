//! Deterministic synthetic graph generators.
//!
//! Every generator takes an explicit `seed` and is fully reproducible.
//! The evaluation graphs of the paper (Table IV) are produced by
//! [`suite`], which combines these primitives into stand-ins matching the
//! original graphs' shapes (degree distribution, density, diameter class).

mod ba;
mod classic;
mod grid;
mod random;
mod rmat;
pub mod suite;
mod ws;

pub use ba::barabasi_albert;
pub use classic::{binary_tree, complete, cycle, path, star};
pub use grid::{grid2d, torus3d};
pub use random::{chung_lu, erdos_renyi, power_law_degrees};
pub use rmat::{rmat, RmatParams};
pub use ws::watts_strogatz;
