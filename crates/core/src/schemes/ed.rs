//! The Encoding–Decoding scheme (paper §3.3) — the paper's novel
//! contribution.
//!
//! The source *encodes* each local sparse array into a special buffer `B`
//! (counts and `(index, value)` pairs interleaved, [`crate::encode`]); the
//! buffers are sent; each receiver *decodes* its buffer straight into
//! `RO`/`CO`/`VL`, converting indices per Cases 3.3.1–3.3.3 on the fly.
//! Compared with CFS this removes the separate pack and unpack passes —
//! which is exactly why its distribution time wins (Remark 1).
//!
//! The driver flow (encode → send → decode) lives in the shared
//! [`pipeline`] module; this file only supplies the stage hooks.

use crate::compress::{CompressKind, LocalCompressed};
use crate::dense::Dense2D;
use crate::encode::{decode_part_wire, encode_part_into};
use crate::error::SparsedistError;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::schemes::pipeline::{self, SchemeStages, SourcePolicy};
use crate::schemes::{SchemeConfig, SchemeKind, SchemeRun};
use crate::wire::WirePolicy;
use sparsedist_multicomputer::{Multicomputer, PackBuffer, Phase};

pub(crate) struct Stages<'a> {
    global: &'a Dense2D,
    part: &'a dyn Partition,
    kind: CompressKind,
    policy: WirePolicy,
}

impl SchemeStages for Stages<'_> {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::Ed
    }

    fn source_policy(&self) -> SourcePolicy {
        SourcePolicy::Fused(Phase::Encode)
    }

    fn recv_phase(&self) -> Phase {
        Phase::Decode
    }

    fn buf_capacity(&self, pid: usize) -> usize {
        let (lrows, lcols) = self.part.local_shape(pid);
        (lrows + lrows * lcols / 4 + 1) * 8
    }

    fn encode_part(
        &self,
        buf: &mut PackBuffer,
        pid: usize,
        ops: &mut OpCounter,
    ) -> Result<(), SparsedistError> {
        encode_part_into(
            buf,
            self.global,
            self.part,
            pid,
            self.kind,
            &self.policy,
            ops,
        );
        Ok(())
    }

    fn decode_part(
        &self,
        payload: &PackBuffer,
        pid: usize,
        ops: &mut OpCounter,
        _finish_ops: &mut OpCounter,
    ) -> Result<LocalCompressed, SparsedistError> {
        decode_part_wire(payload, self.part, pid, self.kind, self.policy.format, ops)
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
