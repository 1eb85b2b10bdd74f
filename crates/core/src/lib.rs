#![warn(missing_docs)]

//! Data distribution schemes for sparse arrays on distributed-memory
//! multicomputers.
//!
//! This crate is a from-scratch Rust implementation of the system described
//! in Lin, Chung & Liu, *"Data Distribution Schemes of Sparse Arrays on
//! Distributed Memory Multicomputers"*, ICPP 2002. Distributing a global
//! 2-D sparse array over `p` processors involves three phases —
//! **partition**, **distribution**, **compression** — and the paper studies
//! the three possible orderings of the last two:
//!
//! * `schemes::sfc` — **Send Followed Compress** (the baseline, as used by
//!   the Block Row Scatter scheme of Zapata et al.): each processor receives
//!   its *dense* local array and compresses it locally;
//! * `schemes::cfs` — **Compress Followed Send**: the source compresses
//!   every local array first (CRS/CCS with *global* indices) and ships the
//!   packed `RO`/`CO`/`VL` triples; receivers unpack and convert indices;
//! * `schemes::ed` — **Encoding–Decoding**: the source *encodes* each
//!   local array into a single interleaved buffer
//!   `B = R_0, (C_0j, V_0j)…, R_1, …`; receivers *decode* `B` straight into
//!   `RO`/`CO`/`VL`, converting indices on the fly.
//!
//! The supporting pieces are all here too:
//!
//! * [`dense::Dense2D`] — the global/local dense array type;
//! * [`partition`] — row, column, 2-D mesh block partitions (the paper's
//!   three), plus cyclic and block-cyclic extensions (§1 notes the schemes
//!   are partition-agnostic);
//! * [`compress`] — CRS and CCS storage (`RO`, `CO`, `VL` in the paper's
//!   nomenclature) plus a COO helper;
//! * [`encode`] — the ED special buffer `B` (Figure 6);
//! * [`convert`] — the index-conversion Cases 3.2.1–3.3.3;
//! * [`cost`] — the closed-form analytic model of Tables 1–2 and the
//!   Remark 1–5 predicates;
//! * [`redistribute`](mod@redistribute) — repartitioning an already-distributed sparse array
//!   (all-to-all or hub-routed), after Bandera & Zapata's redistribution
//!   line of work;
//! * [`gather`] — the inverse of distribution: collecting the distributed
//!   array back to the source, with dense/compressed/encoded mirrors of
//!   the three schemes;
//! * [`error::SparsedistError`] — the workspace error hierarchy: every
//!   driver returns `Result`, so injected faults (dropped/corrupted frames,
//!   dead ranks, exhausted retry budgets) surface as values instead of
//!   panics;
//! * [`opcount::OpCounter`] — instrumentation: the compression / packing /
//!   decoding loops count element operations as they execute, and the
//!   scheme drivers charge those counts to the simulated machine, so the
//!   regenerated tables measure the real code rather than the formulas.
//!
//! # Quickstart
//!
//! ```
//! use sparsedist_core::dense::Dense2D;
//! use sparsedist_core::partition::RowBlock;
//! use sparsedist_core::compress::CompressKind;
//! use sparsedist_core::schemes::{run_scheme, SchemeKind};
//! use sparsedist_multicomputer::{Multicomputer, MachineModel};
//!
//! // A small sparse array with a diagonal.
//! let mut a = Dense2D::zeros(16, 16);
//! for i in 0..16 { a.set(i, i, 1.0 + i as f64); }
//!
//! let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
//! let part = RowBlock::new(16, 16, 4);
//! let run = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs).unwrap();
//!
//! assert_eq!(run.total_nnz(), 16);
//! println!("T_Distribution = {}", run.t_distribution());
//! println!("T_Compression  = {}", run.t_compression());
//! ```

pub mod compress;
pub mod convert;
pub mod cost;
pub mod dense;
pub mod encode;
pub mod error;
pub mod gather;
pub mod opcount;
pub mod partition;
pub mod redistribute;
mod scan;
pub mod schemes;
pub mod wire;

pub use compress::{Ccs, CompressKind, Coo, Crs, LocalCompressed};
pub use dense::Dense2D;
pub use error::SparsedistError;
pub use gather::{gather_global, GatherRun, GatherStrategy};
pub use opcount::OpCounter;
pub use partition::{ColBlock, Mesh2D, Partition, RowBlock};
pub use redistribute::{redistribute, RedistRun, RedistStrategy};
pub use schemes::{run_scheme, run_scheme_with, SchemeConfig, SchemeKind, SchemeRun};
pub use wire::WireFormat;
