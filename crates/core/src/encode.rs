//! The ED scheme's special buffer `B` (paper §3.3, Figure 6).
//!
//! For the CRS method the buffer holds, for each row `i` of a local sparse
//! array: the nonzero count `R_i`, followed by the row's pairs
//! `C_i0, V_i0, C_i1, V_i1, …` where each `C_ij` is a **global** index of
//! the global sparse array. For CCS the same layout runs over columns,
//! with `C_ij` a global row index.
//!
//! *Encoding* scans the global array once at the paper's
//! `(1 + 3s)·cells` cost, collecting the logical streams, then hands them
//! to the wire codec the [`WirePolicy`] selects ([`crate::wire::Codec::encode_pairs`])
//! — under v1 the bytes are identical to the seed's single-pass layout.
//! *Decoding* opens the message header to find the codec that wrote the
//! stream, reads the segments back, and converts each `C_ij` per the
//! Cases in [`crate::convert`] with the op accounting of Tables 1–2.

use crate::compress::{CompressKind, LocalCompressed};
use crate::convert::IndexConverter;
use crate::error::SparsedistError;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::scan::PartScan;
use crate::wire::{self, WireFormat, WirePolicy};
use sparsedist_multicomputer::pack::PackBuffer;

/// Encode part `pid` of the global array into a special buffer in the
/// seed v1 layout.
///
/// Op accounting: one op per cell scanned, three per nonzero (push `C`,
/// push `V`, bump the running `R_i`) — summed over all parts this is the
/// paper's encoding cost `n²(1 + 3s)·T_Operation`.
pub fn encode_part(
    global: &crate::dense::Dense2D,
    part: &dyn Partition,
    pid: usize,
    kind: CompressKind,
    ops: &mut OpCounter,
) -> PackBuffer {
    let (lrows, lcols) = part.local_shape(pid);
    let (outer, inner) = kind.orient(lrows, lcols);
    let mut buf = PackBuffer::with_capacity(outer + 2 * (outer * inner) / 8 + 1);
    encode_part_into(
        &mut buf,
        global,
        part,
        pid,
        kind,
        &WirePolicy::of(WireFormat::V1),
        ops,
    );
    buf
}

/// Encode part `pid` of the global array into `buf` under the chosen
/// [`WirePolicy`] — the wire-aware, buffer-reusing core behind
/// [`encode_part`].
///
/// `buf` is typically checked out of a `PackArena` so repeated runs reuse
/// their allocations. Under [`WireFormat::V1`] the bytes appended are
/// exactly [`encode_part`]'s; newer formats write a header and the
/// segment encodings the policy's codec choice selects. The logical
/// element count and op accounting are identical in every format.
pub fn encode_part_into(
    buf: &mut PackBuffer,
    global: &crate::dense::Dense2D,
    part: &dyn Partition,
    pid: usize,
    kind: CompressKind,
    policy: &WirePolicy,
    ops: &mut OpCounter,
) {
    let s = PartScan::of(part, pid).compress(global, kind, ops);
    let codec = wire::codec_for(policy.format);
    let desc = codec.plan(policy.choice);
    codec.begin_message(buf, desc);
    codec.encode_pairs(buf, &s.pointer, &s.indices, &s.values, desc);
}

/// Decode a received special buffer (v1 layout) into a compressed local
/// array.
///
/// Op accounting (matching Tables 1–2): one op to initialise the pointer
/// array, one per segment for `RO[i+1] = RO[i] + R_i`, one per moved
/// `C_ij`, one per moved `V_ij`, plus one per index conversion when the
/// partition requires it.
pub fn decode_part(
    buf: &PackBuffer,
    part: &dyn Partition,
    pid: usize,
    kind: CompressKind,
    ops: &mut OpCounter,
) -> Result<LocalCompressed, SparsedistError> {
    decode_part_wire(buf, part, pid, kind, WireFormat::V1, ops)
}

/// Decode a received special buffer in the chosen [`WireFormat`] — the
/// wire-aware core behind [`decode_part`].
///
/// The message header is validated first ([`crate::compress::CompressError::WireHeader`]
/// on mismatch). Op accounting is identical in every format.
///
/// # Errors
/// Same as [`decode_part`], plus [`crate::compress::CompressError::WireHeader`] for a
/// stream whose header is missing or malformed, and the codec's typed
/// errors for structurally invalid payloads.
pub fn decode_part_wire(
    buf: &PackBuffer,
    part: &dyn Partition,
    pid: usize,
    kind: CompressKind,
    format: WireFormat,
    ops: &mut OpCounter,
) -> Result<LocalCompressed, SparsedistError> {
    let (lrows, lcols) = part.local_shape(pid);
    let (outer, _) = kind.orient(lrows, lcols);
    let converter = IndexConverter::new(part, pid, kind);
    let bound = converter.local_index_bound(kind);

    let mut cursor = buf.cursor();
    let codec = wire::codec_for(format);
    let desc = codec.open_message(&mut cursor)?;
    let (pointer, raw_indices, values) = codec.decode_pairs(&mut cursor, outer, desc)?;

    ops.tick(); // pointer[0] initialisation (the formulas' trailing +1)
    let mut indices = Vec::with_capacity(raw_indices.len());
    for seg in 0..outer {
        ops.tick(); // RO[i+1] = RO[i] + R_i
        for &travelling in &raw_indices[pointer[seg]..pointer[seg + 1]] {
            ops.tick(); // move C_ij
            indices.push(converter.to_local(travelling, ops));
            ops.tick(); // move V_ij
        }
    }

    let (rows, cols) = kind.orient(outer, bound);
    Ok(LocalCompressed::from_raw(
        kind, rows, cols, pointer, indices, values,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressError;
    use crate::dense::{paper_array_a, Dense2D};
    use crate::partition::{ColBlock, Mesh2D, RowBlock};

    /// Read the raw u64/f64 stream of a buffer as (counts, pairs) for
    /// inspection.
    fn raw_stream(buf: &PackBuffer, outer: usize) -> Vec<(u64, Vec<(u64, f64)>)> {
        let mut cursor = buf.cursor();
        let mut out = Vec::new();
        for _ in 0..outer {
            let count = cursor.read_u64();
            let pairs = (0..count)
                .map(|_| (cursor.read_u64(), cursor.read_f64()))
                .collect();
            out.push((count, pairs));
        }
        assert!(cursor.is_exhausted());
        out
    }

    #[test]
    fn paper_figure7_p1_ccs_buffer() {
        // Figure 7(b): ED with row partition + CCS for P1 (global rows
        // 3..6). Columns 0..8 hold counts 0,0,0,1,1,1,0,0 with pairs
        // (global row, value): col3 → (4, 6), col4 → (5, 7), col5 → (3, 5).
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let buf = encode_part(&a, &part, 1, CompressKind::Ccs, &mut OpCounter::new());
        let stream = raw_stream(&buf, 8);
        let counts: Vec<u64> = stream.iter().map(|(c, _)| *c).collect();
        assert_eq!(counts, vec![0, 0, 0, 1, 1, 1, 0, 0]);
        assert_eq!(stream[3].1, vec![(4, 6.0)]);
        assert_eq!(stream[4].1, vec![(5, 7.0)]);
        assert_eq!(stream[5].1, vec![(3, 5.0)]);
        // Element count: 8 R_i + 2·3 pairs = 14.
        assert_eq!(buf.elem_count(), 14);
    }

    #[test]
    fn paper_figure7_p1_decode_subtracts_three() {
        // Figure 7(d): P1 converts C_ij by subtracting 3 (Case 3.3.2) and
        // obtains RO = [1,1,1,1,2,3,4,4,4] (1-based), CO = [2,3,1]
        // (1-based local rows), VL = [6,7,5].
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let buf = encode_part(&a, &part, 1, CompressKind::Ccs, &mut OpCounter::new());
        let got = decode_part(&buf, &part, 1, CompressKind::Ccs, &mut OpCounter::new()).unwrap();
        let ccs = got.as_ccs();
        assert_eq!(
            ccs.paper(),
            (vec![1, 1, 1, 1, 2, 3, 4, 4, 4], vec![2, 3, 1])
        );
        assert_eq!(ccs.values(), &[6.0, 7.0, 5.0]);
        // The decoded local array matches the extracted dense part.
        assert_eq!(ccs.to_dense(), part.extract_dense(&a, 1));
    }

    #[test]
    fn encode_decode_round_trip_all_parts_and_kinds() {
        let a = paper_array_a();
        let parts: Vec<Box<dyn Partition>> = vec![
            Box::new(RowBlock::new(10, 8, 4)),
            Box::new(ColBlock::new(10, 8, 4)),
            Box::new(Mesh2D::new(10, 8, 2, 2)),
        ];
        for part in &parts {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                for pid in 0..part.nparts() {
                    let buf = encode_part(&a, part.as_ref(), pid, kind, &mut OpCounter::new());
                    let got =
                        decode_part(&buf, part.as_ref(), pid, kind, &mut OpCounter::new()).unwrap();
                    assert_eq!(
                        got.to_dense(),
                        part.extract_dense(&a, pid),
                        "{} {} part {pid}",
                        part.name(),
                        kind
                    );
                }
            }
        }
    }

    #[test]
    fn encode_op_total_matches_compression_cost() {
        // Summed over parts, encoding costs exactly (1+3s)·n² ops.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let mut ops = OpCounter::new();
        for pid in 0..4 {
            let _ = encode_part(&a, &part, pid, CompressKind::Crs, &mut ops);
        }
        assert_eq!(ops.get(), 80 + 3 * 16);
    }

    #[test]
    fn decode_op_count_row_crs() {
        // Row partition + CRS (Case 3.3.1, no conversion): decode of part
        // pid costs 1 + rows + 2·nnz ops.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let buf = encode_part(&a, &part, 2, CompressKind::Crs, &mut OpCounter::new());
        let mut ops = OpCounter::new();
        let _ = decode_part(&buf, &part, 2, CompressKind::Crs, &mut ops).unwrap();
        // P2: 3 rows, 6 nonzeros → 1 + 3 + 12 = 16.
        assert_eq!(ops.get(), 16);
    }

    #[test]
    fn decode_op_count_row_ccs_includes_conversion() {
        // Row partition + CCS (Case 3.3.2): 1 + cols + 3·nnz.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let buf = encode_part(&a, &part, 1, CompressKind::Ccs, &mut OpCounter::new());
        let mut ops = OpCounter::new();
        let _ = decode_part(&buf, &part, 1, CompressKind::Ccs, &mut ops).unwrap();
        // P1: 8 columns, 3 nonzeros → 1 + 8 + 9 = 18.
        assert_eq!(ops.get(), 18);
    }

    #[test]
    fn element_count_is_segments_plus_two_nnz() {
        let a = paper_array_a();
        let part = ColBlock::new(10, 8, 4);
        for pid in 0..4 {
            let buf = encode_part(&a, &part, pid, CompressKind::Crs, &mut OpCounter::new());
            let nnz = part.nnz_profile(&a).per_part[pid] as u64;
            // CRS over a column part: 10 rows per part.
            assert_eq!(buf.elem_count(), 10 + 2 * nnz);
        }
    }

    #[test]
    fn truncated_buffer_is_detected() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let buf = encode_part(&a, &part, 0, CompressKind::Crs, &mut OpCounter::new());
        // Rebuild a truncated copy: drop the last 8 bytes.
        let mut t = PackBuffer::new();
        let bytes = buf.as_bytes();
        let mut cursor = buf.cursor();
        let n_words = bytes.len() / 8 - 1;
        for _ in 0..n_words {
            t.push_u64(cursor.read_u64());
        }
        let err = decode_part(&t, &part, 0, CompressKind::Crs, &mut OpCounter::new());
        assert!(err.is_err(), "truncation must be reported, got {err:?}");
    }

    #[test]
    fn corrupted_count_is_detected() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let mut buf = encode_part(&a, &part, 0, CompressKind::Crs, &mut OpCounter::new());
        // Inflate the first R_i: the decoder will run off the end.
        buf.patch_u64(0, 1_000).unwrap();
        let err = decode_part(&buf, &part, 0, CompressKind::Crs, &mut OpCounter::new());
        assert!(err.is_err());
    }

    #[test]
    fn compact_format_round_trips_with_same_elements_and_fewer_bytes() {
        let a = paper_array_a();
        let parts: Vec<Box<dyn Partition>> = vec![
            Box::new(RowBlock::new(10, 8, 4)),
            Box::new(ColBlock::new(10, 8, 4)),
            Box::new(Mesh2D::new(10, 8, 2, 2)),
        ];
        for part in &parts {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                for pid in 0..part.nparts() {
                    let v1 = encode_part(&a, part.as_ref(), pid, kind, &mut OpCounter::new());
                    let mut v1_ops = OpCounter::new();
                    let mut check = PackBuffer::new();
                    encode_part_into(
                        &mut check,
                        &a,
                        part.as_ref(),
                        pid,
                        kind,
                        &WirePolicy::of(WireFormat::V1),
                        &mut v1_ops,
                    );
                    assert_eq!(check, v1, "V1 via encode_part_into must be byte-identical");
                    let mut v1_dec_ops = OpCounter::new();
                    let from_v1 =
                        decode_part(&v1, part.as_ref(), pid, kind, &mut v1_dec_ops).unwrap();

                    let format = WireFormat::V3;
                    let mut compact = PackBuffer::new();
                    let mut ops = OpCounter::new();
                    encode_part_into(
                        &mut compact,
                        &a,
                        part.as_ref(),
                        pid,
                        kind,
                        &WirePolicy::of(format),
                        &mut ops,
                    );
                    assert_eq!(
                        compact.elem_count(),
                        v1.elem_count(),
                        "{format}: elements are format-free"
                    );
                    assert_eq!(
                        ops.get(),
                        v1_ops.get(),
                        "{format}: op accounting is format-free"
                    );
                    assert!(
                        compact.byte_len() < v1.byte_len(),
                        "{} {kind} part {pid}: {format} {} !< v1 {}",
                        part.name(),
                        compact.byte_len(),
                        v1.byte_len()
                    );
                    let mut dec_ops = OpCounter::new();
                    let decoded =
                        decode_part_wire(&compact, part.as_ref(), pid, kind, format, &mut dec_ops)
                            .unwrap();
                    assert_eq!(decoded, from_v1, "{format}: decoded state is format-free");
                    assert_eq!(
                        dec_ops.get(),
                        v1_dec_ops.get(),
                        "{format}: decode ops are format-free"
                    );
                }
            }
        }
    }

    #[test]
    fn v3_decode_rejects_headerless_stream() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let v1 = encode_part(&a, &part, 0, CompressKind::Crs, &mut OpCounter::new());
        let err = decode_part_wire(
            &v1,
            &part,
            0,
            CompressKind::Crs,
            WireFormat::V3,
            &mut OpCounter::new(),
        );
        assert!(
            matches!(
                err,
                Err(SparsedistError::Compress(CompressError::WireHeader { .. }))
            ),
            "a v1 stream read as v3 must fail on the header, got {err:?}"
        );
    }

    #[test]
    fn empty_part_encodes_to_empty_buffer() {
        let a = Dense2D::zeros(9, 4);
        let part = RowBlock::new(9, 4, 4); // part 3 is empty
        let buf = encode_part(&a, &part, 3, CompressKind::Crs, &mut OpCounter::new());
        assert_eq!(buf.elem_count(), 0);
        let got = decode_part(&buf, &part, 3, CompressKind::Crs, &mut OpCounter::new()).unwrap();
        assert_eq!(got.nnz(), 0);
        assert_eq!(got.shape(), (0, 4));
    }
}
