//! The Send Followed Compress scheme (paper §3.1) — the baseline, as used
//! by the Block Row Scatter distribution of Zapata et al.
//!
//! The source extracts each processor's **dense** local array and sends it
//! whole; each receiver compresses its local array after arrival. For the
//! row partition the local array is a contiguous row band of the global
//! array and is sent "without packing into buffers" (§4.1.1) — modelled as
//! zero per-element packing cost. Every other partition must gather strided
//! elements, charged at one operation per element on each side (this is the
//! reason the paper's measured SFC distribution time in Tables 4–5 is so
//! much higher than in Table 3).
//!
//! The driver flow (pack → send → unpack → compress) lives in the shared
//! [`pipeline`] module; this file only supplies the stage hooks.

use crate::compress::{compress_dense, CompressKind, LocalCompressed};
use crate::dense::Dense2D;
use crate::error::SparsedistError;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::scan::PartScan;
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
    type Mid = Dense2D;

    fn scheme(&self) -> SchemeKind {
        SchemeKind::Sfc
    }

    fn source_policy(&self) -> SourcePolicy {
        SourcePolicy::Fused(Phase::Pack)
    }

    fn recv_phase(&self) -> Phase {
        Phase::Unpack
    }

    fn buf_capacity(&self, pid: usize) -> usize {
        let (lrows, lcols) = self.part.local_shape(pid);
        lrows * lcols * 8 + wire::HEADER_LEN
    }

    /// Pack one part's dense local array for the wire.
    ///
    /// SFC payloads are pure value streams — no index side — so the codec
    /// only sees `encode_values`: under v1 the bytes are the bare `f64`
    /// run, and v3 adds a self-describing header and may send the values
    /// as byte planes coded straight from the `f64` words (dense payloads
    /// are mostly zeros, which RLE-compress hard). Only a partition that
    /// is not row-contiguous pays for packing: one op per gathered
    /// element (§4.1.1).
    fn encode_part(
        &self,
        buf: &mut PackBuffer,
        pid: usize,
        ops: &mut OpCounter,
    ) -> Result<(), SparsedistError> {
        let scan = PartScan::of(self.part, pid);
        if !self.part.row_contiguous() {
            ops.add(scan.cells() as u64);
        }
        match scan.contiguous(self.global) {
            // Consecutive full-width rows: pack straight from the global array.
            Some(values) => wire::pack_values_into(buf, values, &self.policy),
            None => wire::pack_values_into(buf, &scan.gather(self.global), &self.policy),
        }
        Ok(())
    }

    /// Unpack a received dense local array.
    fn decode_part(
        &self,
        payload: &PackBuffer,
        pid: usize,
        ops: &mut OpCounter,
    ) -> Result<Dense2D, SparsedistError> {
        let (lrows, lcols) = self.part.local_shape(pid);
        let mut cursor = payload.cursor();
        let data = wire::unpack_values(&mut cursor, lrows * lcols, self.policy.format)?;
        if !cursor.is_exhausted() {
            // Longer than the local shape: a framing mismatch, not just noise.
            return Err(UnpackError {
                at: payload.byte_len() - cursor.remaining(),
                remaining: cursor.remaining(),
            }
            .into());
        }
        if !self.part.row_contiguous() {
            ops.add((lrows * lcols) as u64);
        }
        Ok(Dense2D::from_vec(lrows, lcols, data))
    }

    fn finish_phase(&self) -> Option<Phase> {
        Some(Phase::Compress)
    }

    fn finish(&self, mid: Dense2D, ops: &mut OpCounter) -> LocalCompressed {
        compress_dense(self.kind, &mid, ops)
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
        policy: WirePolicy::new(config.wire, config.codec, machine.model()),
    };
    pipeline::run_pipeline(machine, &stages, part, kind, config)
}
