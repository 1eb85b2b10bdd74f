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

use crate::compress::{compress_cells, CompressKind, LocalCompressed};
use crate::dense::Dense2D;
use crate::error::SparsedistError;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::scan::{LeBytes, PartScan};
use crate::schemes::pipeline::{self, SchemeStages, SourcePolicy};
use crate::schemes::{SchemeConfig, SchemeKind, SchemeRun};
use crate::wire::{self, WireFormat, WirePolicy};
use sparsedist_multicomputer::pack::{UnpackCursor, UnpackError};
use sparsedist_multicomputer::{Multicomputer, PackBuffer, Phase};

pub(crate) struct Stages<'a> {
    global: &'a Dense2D,
    part: &'a dyn Partition,
    kind: CompressKind,
    policy: WirePolicy,
}

impl SchemeStages for Stages<'_> {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::Sfc
    }

    fn source_policy(&self) -> SourcePolicy {
        SourcePolicy::Fused(Phase::Pack)
    }

    fn recv_phase(&self) -> Phase {
        Phase::Unpack
    }

    /// A v1 payload's exact size, the bare `f64` run. A v3 payload's size
    /// is known only once its planes are planned, and the encoder then
    /// grows the buffer to it in one step, so only the header is reserved.
    fn buf_capacity(&self, pid: usize) -> usize {
        match self.policy.format {
            WireFormat::V1 => {
                let (lrows, lcols) = self.part.local_shape(pid);
                lrows * lcols * 8
            }
            WireFormat::V3 => wire::HEADER_LEN,
        }
    }

    /// A dense part's counts are arithmetic: `cells` pack ops on a
    /// partition that is not row-contiguous, and `cells` elements under
    /// every wire format (DESIGN §6), so the source encodes each part
    /// only when it sends it.
    fn source_counts(&self, pid: usize) -> Option<(u64, u64)> {
        let (lrows, lcols) = self.part.local_shape(pid);
        let cells = (lrows * lcols) as u64;
        let ops = if self.part.row_contiguous() { 0 } else { cells };
        Some((ops, cells))
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

    /// Compress a received dense local array straight from the payload.
    ///
    /// Under v1 the payload is the bare little-endian `f64` run, and the
    /// compaction kernel reads it in place; under v3 the decoded values go
    /// through the same kernel. Either way the payload is read once and no
    /// dense local array is built. The charges are the paper's two
    /// receiver steps: one unpack op per element for a partition that is
    /// not row-contiguous (§4.1.1), and `cells + 3·nnz` compression ops.
    fn decode_part(
        &self,
        payload: &PackBuffer,
        pid: usize,
        ops: &mut OpCounter,
        finish_ops: &mut OpCounter,
    ) -> Result<LocalCompressed, SparsedistError> {
        let (lrows, lcols) = self.part.local_shape(pid);
        let cells = lrows * lcols;
        let mut cursor = payload.cursor();
        let local = match self.policy.format {
            WireFormat::V1 => {
                let bytes = cursor.try_read_raw(cells.saturating_mul(8))?;
                expect_end(&cursor)?;
                compress_cells(self.kind, lrows, lcols, LeBytes(bytes), finish_ops)
            }
            WireFormat::V3 => {
                let values = wire::unpack_values(&mut cursor, cells, WireFormat::V3)?;
                expect_end(&cursor)?;
                compress_cells(self.kind, lrows, lcols, values.as_slice(), finish_ops)
            }
        };
        if !self.part.row_contiguous() {
            ops.add(cells as u64);
        }
        Ok(local)
    }

    fn finish_phase(&self) -> Option<Phase> {
        Some(Phase::Compress)
    }
}

/// Reject bytes left after the local array's values: a payload longer
/// than the local shape is a framing mismatch, not just noise.
fn expect_end(cursor: &UnpackCursor<'_>) -> Result<(), UnpackError> {
    if cursor.is_exhausted() {
        return Ok(());
    }
    Err(UnpackError {
        at: cursor.position(),
        remaining: cursor.remaining(),
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_dense;
    use crate::dense::paper_array_a;
    use crate::partition::{BlockCyclic, ColBlock, ColCyclic, Mesh2D, RowBlock, RowCyclic};
    use crate::schemes::run_scheme_with;
    use crate::wire::CodecChoice;
    use sparsedist_multicomputer::MachineModel;

    fn stages<'a>(global: &'a Dense2D, part: &'a dyn Partition) -> Stages<'a> {
        Stages {
            global,
            part,
            kind: CompressKind::Crs,
            policy: WirePolicy::of(WireFormat::V1),
        }
    }

    /// One receive step: the local array plus its `Unpack` and `Compress`
    /// op counts.
    fn receive(
        s: &Stages<'_>,
        payload: &PackBuffer,
        pid: usize,
    ) -> Result<(LocalCompressed, u64, u64), SparsedistError> {
        let (mut unpack, mut compress) = (OpCounter::new(), OpCounter::new());
        let local = s.decode_part(payload, pid, &mut unpack, &mut compress)?;
        Ok((local, unpack.get(), compress.get()))
    }

    fn payload(bytes: &[u8]) -> PackBuffer {
        let mut b = PackBuffer::new();
        b.push_raw(bytes);
        b
    }

    #[test]
    fn v1_payloads_of_the_wrong_length_are_typed_errors() {
        let a = paper_array_a();
        for part in [
            &RowBlock::new(10, 8, 4) as &dyn Partition,
            &ColBlock::new(10, 8, 4),
        ] {
            let s = stages(&a, part);
            let mut good = PackBuffer::new();
            s.encode_part(&mut good, 1, &mut OpCounter::new()).unwrap();
            let bytes = good.as_bytes();
            let n = bytes.len();
            let (local, unpack, compress) = receive(&s, &good, 1).unwrap();
            assert_eq!(
                local,
                compress_dense(
                    CompressKind::Crs,
                    &part.extract_dense(&a, 1),
                    &mut OpCounter::new()
                )
            );
            let cells = n as u64 / 8;
            assert_eq!(unpack, if part.row_contiguous() { 0 } else { cells });
            assert_eq!(compress, cells + 3 * local.nnz() as u64);

            // One byte short: the value run does not fit, reported at its start.
            let short = receive(&s, &payload(&bytes[..n - 1]), 1).unwrap_err();
            assert_eq!(
                short,
                SparsedistError::Unpack(UnpackError {
                    at: 0,
                    remaining: n - 1
                })
            );
            // One byte long: the trailing byte is a framing mismatch.
            let mut long = bytes.to_vec();
            long.push(0);
            let long = receive(&s, &payload(&long), 1).unwrap_err();
            assert_eq!(
                long,
                SparsedistError::Unpack(UnpackError {
                    at: n,
                    remaining: 1
                })
            );
        }
    }

    #[test]
    fn an_empty_part_takes_an_empty_payload_only() {
        // 10 rows over 16 parts: part 12 has no rows.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 16);
        assert_eq!(part.local_shape(12), (0, 8));
        let s = stages(&a, &part);
        let (local, unpack, compress) = receive(&s, &PackBuffer::new(), 12).unwrap();
        assert_eq!(
            (local.shape(), local.nnz(), unpack, compress),
            ((0, 8), 0, 0, 0)
        );
        assert_eq!(
            receive(&s, &payload(&[7]), 12).unwrap_err(),
            SparsedistError::Unpack(UnpackError {
                at: 0,
                remaining: 1
            })
        );
    }

    #[test]
    fn the_count_hook_matches_what_encode_part_counts() {
        // The staged source charges every part from `source_counts` and
        // encodes it only at its send, so the hook must equal the encode's
        // own counts on every partition shape and payload encoding, and a
        // whole staged run, chunked or not, must charge the encode's ops.
        let a = paper_array_a();
        let (rows, cols) = (a.rows(), a.cols());
        let parts: [&dyn Partition; 7] = [
            &RowBlock::new(rows, cols, 4),
            &RowBlock::new(rows, cols, 16),
            &ColBlock::new(rows, cols, 3),
            &Mesh2D::new(rows, cols, 2, 2),
            &RowCyclic::new(rows, cols, 3),
            &ColCyclic::new(rows, cols, 3),
            &BlockCyclic::new(rows, cols, 2, 3, 2, 2),
        ];
        let model = MachineModel::ibm_sp2();
        for part in parts {
            for wire in [WireFormat::V1, WireFormat::V3] {
                let s = Stages {
                    policy: WirePolicy::of(wire),
                    ..stages(&a, part)
                };
                let mut encode_ops = 0;
                for pid in 0..part.nparts() {
                    let (mut buf, mut ops) = (PackBuffer::new(), OpCounter::new());
                    s.encode_part(&mut buf, pid, &mut ops).unwrap();
                    let counted = (ops.get(), buf.elem_count());
                    assert_eq!(s.source_counts(pid), Some(counted), "{wire:?} part {pid}");
                    encode_ops += ops.get();
                }
                for chunk_elems in [0, 3] {
                    let config = SchemeConfig {
                        wire,
                        codec: CodecChoice::Packed,
                        chunk_elems,
                        ..SchemeConfig::default()
                    };
                    let machine = Multicomputer::virtual_machine(part.nparts(), model);
                    let run = run_scheme_with(
                        SchemeKind::Sfc,
                        &machine,
                        &a,
                        part,
                        CompressKind::Crs,
                        config,
                    )
                    .unwrap();
                    assert_eq!(run.reassemble(part), a);
                    assert_eq!(
                        run.ledgers[run.source].get(Phase::Pack),
                        model.op_cost(encode_ops),
                        "{wire:?} chunk_elems={chunk_elems}"
                    );
                }
            }
        }
    }
}
