//! The Compress Followed Send scheme (paper §3.2).
//!
//! The source compresses every local sparse array *before* distribution,
//! reading straight out of the global array, so the travelling `CO` values
//! are **global** indices. The compressed `RO`, `CO` and `VL` arrays are
//! packed into one buffer per processor and sent; each receiver unpacks
//! and, where the paper's Cases 3.2.2/3.2.3 apply, converts the indices to
//! local ones.
//!
//! Wire layout per part: the pointer array (its length is known to the
//! receiver from the partition), then the index array, then the value
//! array (the pointer's last entry tells the receiver the nonzero count).
//!
//! The driver flow (compress → pack → send → unpack) lives in the shared
//! [`pipeline`] module; this file only supplies the stage hooks.

use crate::compress::{compress_part, CompressKind, LocalCompressed};
use crate::convert::IndexConverter;
use crate::dense::Dense2D;
use crate::error::SparsedistError;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::schemes::pipeline::{self, SchemeStages, SourcePolicy};
use crate::schemes::{SchemeConfig, SchemeKind, SchemeRun};
use crate::wire::{self, WirePolicy};
use sparsedist_multicomputer::pack::UnpackError;
use sparsedist_multicomputer::{Multicomputer, PackBuffer, Phase};

pub(crate) struct Stages<'a> {
    global: &'a Dense2D,
    part: &'a dyn Partition,
    kind: CompressKind,
    policy: WirePolicy,
}

impl SchemeStages for Stages<'_> {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::Cfs
    }

    fn source_policy(&self) -> SourcePolicy {
        SourcePolicy::CompressThenPack
    }

    fn recv_phase(&self) -> Phase {
        Phase::Unpack
    }

    fn buf_capacity(&self, _pid: usize) -> usize {
        0
    }

    /// Compress part `pid` at the source (global indices) and pack it.
    ///
    /// The compressed arrays are packed straight from the borrowed `RO`/
    /// `CO`/`VL` slices — no intermediate `Vec` copies — and the wire
    /// layout is chosen by the configured format. `ops` counts only the
    /// *compression* work; packing cost is one op per packed element
    /// (exactly the buffer's element count), charged separately by the
    /// driver's [`SourcePolicy::CompressThenPack`] policy.
    fn encode_part(
        &self,
        buf: &mut PackBuffer,
        pid: usize,
        ops: &mut OpCounter,
    ) -> Result<(), SparsedistError> {
        let a = compress_part(self.kind, self.global, self.part, pid, ops);
        wire::pack_triple_into(
            buf,
            a.pointer(),
            a.indices(),
            a.values(),
            a.index_bound(),
            &self.policy,
        );
        Ok(())
    }

    /// Unpack a received buffer into a compressed local array, converting
    /// indices where the partition requires it.
    fn decode_part(
        &self,
        payload: &PackBuffer,
        pid: usize,
        ops: &mut OpCounter,
        _finish_ops: &mut OpCounter,
    ) -> Result<LocalCompressed, SparsedistError> {
        let (lrows, lcols) = self.part.local_shape(pid);
        let (nsegments, _) = self.kind.orient(lrows, lcols);
        let converter = IndexConverter::new(self.part, pid, self.kind);
        let bound = converter.local_index_bound(self.kind);

        let mut cursor = payload.cursor();
        let (pointer, travelling, values) =
            wire::unpack_triple(&mut cursor, nsegments, self.policy.format)?;
        ops.add((nsegments + 1) as u64);
        let nnz = pointer[nsegments];
        let mut indices = Vec::with_capacity(nnz);
        for &t in &travelling {
            ops.tick();
            indices.push(converter.to_local(t, ops));
        }
        ops.add(nnz as u64);
        if !cursor.is_exhausted() {
            // Longer than its own header describes: a framing mismatch.
            return Err(UnpackError {
                at: payload.byte_len() - cursor.remaining(),
                remaining: cursor.remaining(),
            }
            .into());
        }

        let (rows, cols) = self.kind.orient(nsegments, bound);
        Ok(LocalCompressed::from_raw(
            self.kind, rows, cols, pointer, indices, values,
        )?)
    }
}

pub(crate) fn run(
    machine: &Multicomputer,
    global: &Dense2D,
    part: &dyn Partition,
    kind: CompressKind,
    config: SchemeConfig,
) -> Result<SchemeRun, SparsedistError> {
    let stages = Stages {
        global,
        part,
        kind,
        policy: config.policy(),
    };
    pipeline::run_pipeline(machine, &stages, part, kind, config)
}
