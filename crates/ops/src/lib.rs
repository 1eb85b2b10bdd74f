#![warn(missing_docs)]

//! Sparse array operations over distributed compressed arrays.
//!
//! The whole point of the paper's compression phase is that subsequent
//! sparse array operations run on `RO`/`CO`/`VL` rather than on dense
//! arrays ("a local sparse array is compressed … in order to obtain better
//! performance for sparse array operations", §1). This crate supplies
//! those downstream operations:
//!
//! * [`spmv`] — local CRS/CCS sparse matrix–vector products, a dense
//!   baseline, and a halo-exchange distributed SpMV
//!   ([`spmv::SpmvPlan`]) that runs over a
//!   [`sparsedist_multicomputer::Multicomputer`] on the local arrays a
//!   scheme run leaves behind, sending each rank only the `x` entries its
//!   nonzeros touch;
//! * [`elementwise`] — scaling, sparse addition, Frobenius norm;
//! * [`transpose`] — CRS↔CCS conversions (transposition in disguise);
//! * [`solve`] — Jacobi and conjugate-gradient solvers that plan one halo
//!   exchange and reuse it for every matrix–vector product;
//! * [`distributed`] — operations on the distributed representation
//!   itself: scale, add, Frobenius norm (allreduce) and a no-gather
//!   distributed transpose.

pub mod distributed;
pub mod elementwise;
pub mod solve;
pub mod spmv;
pub mod transpose;
