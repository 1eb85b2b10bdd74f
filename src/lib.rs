#![warn(missing_docs)]

//! `sparsedist` — data distribution schemes for sparse arrays on
//! distributed-memory multicomputers.
//!
//! A Rust reproduction of Lin, Chung & Liu, *"Data Distribution Schemes of
//! Sparse Arrays on Distributed Memory Multicomputers"* (ICPP 2002). This
//! facade crate re-exports the workspace:
//!
//! * [`core`] — partitions, CRS/CCS compression, the SFC/CFS/ED schemes
//!   and the paper's analytic cost model;
//! * [`multicomputer`] — the simulated distributed-memory machine the
//!   schemes run on (SPMD engine, pack buffers, α-β cost model);
//! * [`gen`] — workload generators and MatrixMarket I/O;
//! * [`ops`] — post-distribution sparse computation (SpMV & friends).
//!
//! The [`array::DistributedSparseArray`] facade wraps the whole lifecycle
//! (distribute → compute → repartition → gather → checkpoint) in one
//! object; see `examples/quickstart.rs` for the two-minute tour.

pub mod array;

pub use sparsedist_core as core;
pub use sparsedist_gen as gen;
pub use sparsedist_multicomputer as multicomputer;
pub use sparsedist_ops as ops;

/// Convenience prelude: the names almost every user needs.
pub mod prelude {
    pub use sparsedist_core::compress::{Ccs, CompressKind, Coo, Crs, LocalCompressed};
    pub use sparsedist_core::cost::{predict, CostInput, PartitionMethod};
    pub use sparsedist_core::dense::Dense2D;
    pub use sparsedist_core::partition::{
        BlockCyclic, ColBlock, ColCyclic, Mesh2D, Partition, RowBlock, RowCyclic,
    };
    pub use sparsedist_core::schemes::{
        run_scheme, run_scheme_with, SchemeConfig, SchemeKind, SchemeRun,
    };
    pub use sparsedist_core::wire::{CodecChoice, WireFormat, WirePolicy};
    pub use sparsedist_multicomputer::{MachineModel, Multicomputer, Phase};
}
