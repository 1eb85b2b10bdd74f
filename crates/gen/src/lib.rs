#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Workload generators and I/O for the `sparsedist` benchmarks.
//!
//! The paper evaluates on synthetic two-dimensional sparse arrays with a
//! fixed sparse ratio of 0.1 ("The sparse ratio is set to 0.1 for all
//! two-dimensional sparse arrays used as test samples", §5). This crate
//! provides:
//!
//! * [`random`] — seeded uniform random sparse arrays with an exact or
//!   Bernoulli-sampled sparse ratio;
//! * [`patterns`] — structured sparsity from the application domains the
//!   paper's introduction motivates (banded systems, block-clustered
//!   meshes, 5-point stencils from finite-element/climate codes);
//! * [`matrixmarket`] — MatrixMarket coordinate-format reading and writing,
//!   standing in for the Harwell–Boeing collection the paper cites;
//! * [`checkpoint`] — saving/loading a distributed array's compressed
//!   local parts so a later run can resume without redistributing.

pub mod checkpoint;
pub mod matrixmarket;
pub mod patterns;
pub mod random;

pub use random::{GenError, RatioMode, SparseRandom};
