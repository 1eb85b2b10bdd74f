//! The v3 wire format: negotiated per-stream compression.
//!
//! A v3 message opens with `[b'S', b'3', desc]` where `desc` is the
//! **negotiation byte** the sender chose per message:
//!
//! | bits  | meaning                                                |
//! |-------|--------------------------------------------------------|
//! | `0-1` | index codec: `00` raw `u64`, `01` per-segment delta varints (v2's run encoding), `10` bit-packed runs |
//! | `2`   | values travel as 8 byte-transposed planes instead of raw `f64` |
//! | `3-7` | reserved, must be zero                                 |
//!
//! The pointer stream is *always* a varint-delta monotone run — it is
//! tiny and monotone by construction, so there is nothing to negotiate.
//!
//! **Bit-packed index runs** ([`IDX_PACKED`]) split the travelling
//! indices into two streams, each packed by [`super::bitpack`]:
//! the zigzag deltas of each non-empty segment's *first* index (segment
//! starts drift slowly in either direction across a CRS part), and the
//! strictly-positive within-segment deltas minus one (dense runs pack to
//! near zero bits). Stream lengths are derivable from the pointer, so no
//! extra framing is needed.
//!
//! **Byte-transposed value planes** ([`VAL_PLANES`]) regroup the `n`
//! values' little-endian bytes into 8 planes of `n` bytes. Each plane is
//! tagged and encoded independently as whichever of raw / dictionary /
//! RLE is smallest — exponent and high-mantissa planes of realistic data
//! collapse to a handful of distinct bytes, while low-mantissa noise
//! planes stay raw. Bit-exactness is preserved: the transpose is a
//! permutation of the original bytes.
//!
//! Which encodings the sender actually uses is the [`CodecChoice`]: the
//! default `packed` forces maximum shrink, while `auto` prices every
//! candidate against the α-β
//! [`sparsedist_multicomputer::MachineModel`] — bytes cost
//! `t_data / 8` each (the model charges `T_Data` per 8-byte element) and
//! encode work costs `t_op` per estimated operation — making the paper's
//! Remark-5 compress-or-not crossover a per-message runtime decision.
//!
//! Like every codec, v3 moves **bytes, never ops**: a message's logical
//! element count is identical under every `desc`, so all virtual-time
//! phase totals are format-independent.

use super::bitpack::{packed_size, read_packed, write_packed};
use super::codec::{guard_count, Codec, CodecChoice, MsgHead, WirePolicy, V2_DELTA, V3_PACKED};
use super::varint::{unzigzag, varint_len, zigzag, IndexRunReader, IndexRunWriter};
use super::{take_header, UnpackedTriple, WireFormat, FLAG_DELTA, FLAG_MASK, MAGIC};
use crate::compress::CompressError;
use crate::error::SparsedistError;
use sparsedist_multicomputer::pack::{PackBuffer, UnpackCursor};

/// Magic bytes opening every v3 message.
pub const MAGIC_V3: [u8; 2] = [b'S', b'3'];

/// Index codec: raw little-endian `u64` per index.
pub const IDX_RAW: u8 = 0b00;
/// Index codec: per-segment delta varints (v2's run encoding).
pub const IDX_DELTA: u8 = 0b01;
/// Index codec: bit-packed first/within delta streams.
pub const IDX_PACKED: u8 = 0b10;
/// Mask of the index-codec bits (`0b11` itself is invalid).
pub const IDX_MASK: u8 = 0b11;
/// Values travel as 8 byte-transposed planes.
pub const VAL_PLANES: u8 = 0b100;
/// All descriptor bits a v3 header may carry.
pub const DESC_MASK: u8 = IDX_MASK | VAL_PLANES;

/// Value-plane tag: `n` raw bytes follow.
const PLANE_RAW: u8 = 0;
/// Value-plane tag: dictionary size, dictionary, bit-packed codes.
const PLANE_DICT: u8 = 1;
/// Value-plane tag: varint run count, then `(varint len, byte)` runs.
const PLANE_RLE: u8 = 2;

fn codec_err(reason: &'static str) -> CompressError {
    CompressError::Codec { reason }
}

/// The v3 codec. See the module docs for the byte layout.
pub struct V3Packed;

impl Codec for V3Packed {
    fn format(&self) -> WireFormat {
        WireFormat::V3
    }

    fn plan(
        &self,
        _index_bound: usize,
        pointer: &[usize],
        indices: &[usize],
        values: &[f64],
        policy: &WirePolicy,
    ) -> u8 {
        match policy.choice {
            CodecChoice::Raw => IDX_RAW,
            CodecChoice::Delta => IDX_DELTA,
            CodecChoice::Packed => IDX_PACKED | VAL_PLANES,
            CodecChoice::Auto => auto_desc(pointer, indices, values, policy),
        }
    }

    fn begin_message(&self, buf: &mut PackBuffer, desc: u8) {
        debug_assert_eq!(desc & !DESC_MASK, 0, "unknown v3 descriptor bits");
        debug_assert_ne!(desc & IDX_MASK, IDX_MASK, "invalid v3 index codec");
        buf.push_raw(&[MAGIC_V3[0], MAGIC_V3[1], desc]);
    }

    fn open_message(&self, cursor: &mut UnpackCursor<'_>) -> Result<MsgHead, CompressError> {
        let (found, complete) = take_header(cursor);
        if !complete {
            return Err(CompressError::WireHeader { found });
        }
        if found[0] == MAGIC_V3[0] && found[1] == MAGIC_V3[1] {
            let desc = found[2];
            if desc & !DESC_MASK != 0 || desc & IDX_MASK == IDX_MASK {
                return Err(CompressError::WireHeader { found });
            }
            return Ok(MsgHead {
                desc,
                codec: &V3_PACKED,
            });
        }
        // Mixed-version negotiation: a v3-capable receiver still decodes a
        // v2 stream from an older sender.
        if found[0] == MAGIC[0] && found[1] == MAGIC[1] && found[2] & !FLAG_MASK == 0 {
            return Ok(MsgHead {
                desc: found[2],
                codec: &V2_DELTA,
            });
        }
        Err(CompressError::WireHeader { found })
    }

    fn encode_indices(&self, buf: &mut PackBuffer, pointer: &[usize], indices: &[usize], desc: u8) {
        super::push_monotone_run(buf, pointer, FLAG_DELTA);
        encode_index_stream(buf, pointer, indices, desc);
    }

    fn decode_indices(
        &self,
        cursor: &mut UnpackCursor<'_>,
        nsegments: usize,
        desc: u8,
    ) -> Result<(Vec<usize>, Vec<usize>), SparsedistError> {
        guard_count(cursor, nsegments + 1, 1)?;
        let mut pointer = Vec::with_capacity(nsegments + 1);
        let mut prev = 0usize;
        for i in 0..nsegments + 1 {
            let d = cursor.try_read_varint()? as usize;
            prev = if i == 0 {
                d
            } else {
                prev.checked_add(d)
                    .ok_or(codec_err("pointer run overflows"))?
            };
            pointer.push(prev);
        }
        if pointer[0] != 0 {
            return Err(CompressError::PointerStart.into());
        }
        let indices = decode_index_stream(cursor, &pointer, desc)?;
        Ok((pointer, indices))
    }

    fn encode_values(&self, buf: &mut PackBuffer, values: &[f64], desc: u8) {
        if values.is_empty() {
            return;
        }
        if desc & VAL_PLANES == 0 {
            buf.push_f64_slice(values);
            return;
        }
        let mut bytes = Vec::new();
        for p in 0..8 {
            let pb = plane_bytes(values, p);
            let (plan, _) = plan_plane(&pb);
            write_plane(&mut bytes, &pb, plan);
        }
        buf.push_chunk(&bytes, values.len() as u64);
    }

    fn decode_values(
        &self,
        cursor: &mut UnpackCursor<'_>,
        n: usize,
        desc: u8,
    ) -> Result<Vec<f64>, SparsedistError> {
        if n == 0 {
            return Ok(Vec::new());
        }
        if desc & VAL_PLANES == 0 {
            guard_count(cursor, n, 8)?;
            return Ok(cursor.try_read_f64_vec(n)?);
        }
        let mut planes = Vec::with_capacity(8);
        for _ in 0..8 {
            planes.push(decode_plane(cursor, n)?);
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut b = [0u8; 8];
            for (p, plane) in planes.iter().enumerate() {
                b[p] = plane[i];
            }
            out.push(f64::from_le_bytes(b));
        }
        Ok(out)
    }

    fn encode_pairs(
        &self,
        buf: &mut PackBuffer,
        pointer: &[usize],
        indices: &[usize],
        values: &[f64],
        desc: u8,
    ) {
        // The pointer tail as varint deltas is exactly the per-segment
        // count stream — `nsegments` varints, `nsegments` elements,
        // matching v1/v2's one count field per segment.
        for seg in 0..pointer.len().saturating_sub(1) {
            buf.push_varint((pointer[seg + 1] - pointer[seg]) as u64);
        }
        encode_index_stream(buf, pointer, indices, desc);
        self.encode_values(buf, values, desc);
    }

    fn decode_pairs(
        &self,
        cursor: &mut UnpackCursor<'_>,
        nsegments: usize,
        desc: u8,
    ) -> Result<UnpackedTriple, SparsedistError> {
        guard_count(cursor, nsegments, 1)?;
        let mut pointer = Vec::with_capacity(nsegments + 1);
        pointer.push(0usize);
        let mut total = 0usize;
        for seg in 0..nsegments {
            let count = cursor
                .try_read_varint()
                .map_err(|_| CompressError::PointerLength {
                    expected: nsegments + 1,
                    actual: seg + 1,
                })? as usize;
            total = total
                .checked_add(count)
                .ok_or(codec_err("segment counts overflow"))?;
            pointer.push(total);
        }
        let indices = decode_index_stream(cursor, &pointer, desc)?;
        let values = self.decode_values(cursor, total, desc)?;
        Ok((pointer, indices, values))
    }
}

/// Append the travelling-index stream for `desc`'s index codec (the
/// pointer is written separately by the caller). Always credits exactly
/// `indices.len()` logical elements.
fn encode_index_stream(buf: &mut PackBuffer, pointer: &[usize], indices: &[usize], desc: u8) {
    match desc & IDX_MASK {
        IDX_DELTA => {
            let mut run = IndexRunWriter::new(FLAG_DELTA);
            for seg in 0..pointer.len().saturating_sub(1) {
                run.reset();
                for &idx in &indices[pointer[seg]..pointer[seg + 1]] {
                    run.push(buf, idx);
                }
            }
        }
        IDX_PACKED => {
            let (firsts, within) = packed_streams(pointer, indices);
            let mut bytes = Vec::new();
            write_packed(&mut bytes, &firsts);
            write_packed(&mut bytes, &within);
            buf.push_chunk(&bytes, indices.len() as u64);
        }
        _ => buf.push_usize_slice(indices),
    }
}

/// Read back the stream written by [`encode_index_stream`], using the
/// (already decoded, monotone) pointer for segment structure.
fn decode_index_stream(
    cursor: &mut UnpackCursor<'_>,
    pointer: &[usize],
    desc: u8,
) -> Result<Vec<usize>, SparsedistError> {
    let nsegments = pointer.len().saturating_sub(1);
    let nnz = pointer.last().copied().unwrap_or(0);
    for i in 1..pointer.len() {
        if pointer[i] < pointer[i - 1] {
            return Err(CompressError::PointerNotMonotone { at: i }.into());
        }
    }
    match desc & IDX_MASK {
        IDX_DELTA => {
            guard_count(cursor, nnz, 1)?;
            let mut indices = Vec::with_capacity(nnz);
            let mut run = IndexRunReader::new(FLAG_DELTA);
            for seg in 0..nsegments {
                run.reset();
                for _ in pointer[seg]..pointer[seg + 1] {
                    indices.push(run.next(cursor)?);
                }
            }
            Ok(indices)
        }
        IDX_PACKED => {
            let nonempty = (0..nsegments)
                .filter(|&s| pointer[s + 1] > pointer[s])
                .count();
            let firsts = read_packed(cursor, nonempty)?;
            let within = read_packed(cursor, nnz - nonempty)?;
            let mut indices = Vec::with_capacity(nnz);
            let (mut fi, mut wi) = (0usize, 0usize);
            let mut prev_first = 0i64;
            for seg in 0..nsegments {
                let count = pointer[seg + 1] - pointer[seg];
                if count == 0 {
                    continue;
                }
                prev_first = prev_first.wrapping_add(unzigzag(firsts[fi]));
                fi += 1;
                let first = usize::try_from(prev_first)
                    .map_err(|_| codec_err("negative index after zigzag delta"))?;
                indices.push(first);
                let mut prev = first;
                for _ in 1..count {
                    prev = prev.wrapping_add(within[wi] as usize).wrapping_add(1);
                    wi += 1;
                    indices.push(prev);
                }
            }
            Ok(indices)
        }
        _ => {
            guard_count(cursor, nnz, 8)?;
            Ok(cursor.try_read_usize_vec(nnz)?)
        }
    }
}

/// The two bit-packable streams behind [`IDX_PACKED`]: zigzag deltas of
/// each non-empty segment's first index, and within-segment deltas minus
/// one.
fn packed_streams(pointer: &[usize], indices: &[usize]) -> (Vec<u64>, Vec<u64>) {
    let mut firsts = Vec::new();
    let mut within = Vec::new();
    let mut prev_first = 0i64;
    for seg in 0..pointer.len().saturating_sub(1) {
        let (lo, hi) = (pointer[seg], pointer[seg + 1]);
        if lo == hi {
            continue;
        }
        let first = indices[lo] as i64;
        firsts.push(zigzag(first - prev_first));
        prev_first = first;
        for k in lo + 1..hi {
            debug_assert!(indices[k] > indices[k - 1], "index run is not sorted");
            within.push((indices[k] - indices[k - 1] - 1) as u64);
        }
    }
    (firsts, within)
}

/// One little-endian byte plane of the value stream.
fn plane_bytes(values: &[f64], p: usize) -> Vec<u8> {
    values.iter().map(|v| v.to_le_bytes()[p]).collect()
}

/// The ascending dictionary of a plane, if it has at most 16 distinct
/// bytes.
fn dict_of(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut seen = [false; 256];
    let mut dict = Vec::new();
    for &b in bytes {
        if !seen[b as usize] {
            seen[b as usize] = true;
            dict.push(b);
            if dict.len() > 16 {
                return None;
            }
        }
    }
    dict.sort_unstable();
    Some(dict)
}

/// Code width (bits) for a dictionary of `d` entries.
fn code_width(d: usize) -> u32 {
    match d {
        0..=1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        _ => 4,
    }
}

/// Maximal equal-byte runs of a plane.
fn runs_of(bytes: &[u8]) -> Vec<(u64, u8)> {
    let mut runs: Vec<(u64, u8)> = Vec::new();
    for &b in bytes {
        match runs.last_mut() {
            Some((len, last)) if *last == b => *len += 1,
            _ => runs.push((1, b)),
        }
    }
    runs
}

/// How a plane will be encoded, chosen by [`plan_plane`].
enum PlanePlan {
    Raw,
    Dict(Vec<u8>),
    Rle(Vec<(u64, u8)>),
}

/// Pick the smallest encoding for a plane and return it with its exact
/// byte cost (including the tag byte). Ties break dictionary < RLE < raw
/// so the choice — and therefore the stream — is deterministic.
fn plan_plane(bytes: &[u8]) -> (PlanePlan, usize) {
    let n = bytes.len();
    let mut best_cost = 1 + n;
    let mut best = PlanePlan::Raw;
    let runs = runs_of(bytes);
    let rle_cost = 1
        + varint_len(runs.len() as u64)
        + runs
            .iter()
            .map(|&(len, _)| varint_len(len) + 1)
            .sum::<usize>();
    if rle_cost <= best_cost {
        best_cost = rle_cost;
        best = PlanePlan::Rle(runs);
    }
    if let Some(dict) = dict_of(bytes) {
        let k = code_width(dict.len()) as usize;
        let dict_cost = 2 + dict.len() + (n * k).div_ceil(8);
        if dict_cost <= best_cost {
            best_cost = dict_cost;
            best = PlanePlan::Dict(dict);
        }
    }
    (best, best_cost)
}

/// Append a LEB128 varint to a plain byte vector (the plane streams are
/// assembled outside any [`PackBuffer`]).
fn push_varint_vec(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Write one plane under its chosen plan.
fn write_plane(out: &mut Vec<u8>, bytes: &[u8], plan: PlanePlan) {
    match plan {
        PlanePlan::Raw => {
            out.push(PLANE_RAW);
            out.extend_from_slice(bytes);
        }
        PlanePlan::Dict(dict) => {
            out.push(PLANE_DICT);
            out.push(dict.len() as u8);
            out.extend_from_slice(&dict);
            let k = code_width(dict.len());
            if k > 0 {
                let mut table = [0u8; 256];
                for (c, &b) in dict.iter().enumerate() {
                    table[b as usize] = c as u8;
                }
                let codes: Vec<u64> = bytes.iter().map(|&b| table[b as usize] as u64).collect();
                super::bitpack::write_bits(out, &codes, k);
            }
        }
        PlanePlan::Rle(runs) => {
            out.push(PLANE_RLE);
            push_varint_vec(out, runs.len() as u64);
            for (len, b) in runs {
                push_varint_vec(out, len);
                out.push(b);
            }
        }
    }
}

/// Read back one plane of `n` bytes.
fn decode_plane(cursor: &mut UnpackCursor<'_>, n: usize) -> Result<Vec<u8>, SparsedistError> {
    let tag = cursor.try_read_raw(1)?[0];
    match tag {
        PLANE_RAW => {
            guard_count(cursor, n, 1)?;
            Ok(cursor.try_read_raw(n)?.to_vec())
        }
        PLANE_DICT => {
            let d = cursor.try_read_raw(1)?[0] as usize;
            if !(1..=16).contains(&d) {
                return Err(codec_err("value-plane dictionary size out of range").into());
            }
            let dict = cursor.try_read_raw(d)?.to_vec();
            let k = code_width(d);
            let nbytes = n
                .checked_mul(k as usize)
                .ok_or(codec_err("value-plane code stream overflows"))?
                .div_ceil(8);
            let code_bytes = cursor.try_read_raw(nbytes)?;
            let codes = super::bitpack::read_bits(code_bytes, n, k);
            let mut out = Vec::with_capacity(n);
            for c in codes {
                let c = c as usize;
                if c >= d {
                    return Err(codec_err("value-plane dictionary code out of range").into());
                }
                out.push(dict[c]);
            }
            Ok(out)
        }
        PLANE_RLE => {
            let nruns = cursor.try_read_varint()? as usize;
            guard_count(cursor, nruns, 2)?;
            let mut out = Vec::new();
            for _ in 0..nruns {
                let len = cursor.try_read_varint()? as usize;
                if len == 0 {
                    return Err(codec_err("value-plane RLE run of length zero").into());
                }
                let b = cursor.try_read_raw(1)?[0];
                if len > n - out.len() {
                    return Err(codec_err("value-plane RLE runs exceed the value count").into());
                }
                out.extend(std::iter::repeat_n(b, len));
            }
            if out.len() != n {
                return Err(codec_err("value-plane RLE runs fall short of the value count").into());
            }
            Ok(out)
        }
        _ => Err(codec_err("unknown value-plane tag").into()),
    }
}

/// Exact byte cost of the [`IDX_DELTA`] encoding of the index stream.
fn delta_index_bytes(pointer: &[usize], indices: &[usize]) -> usize {
    let mut total = 0;
    for seg in 0..pointer.len().saturating_sub(1) {
        let mut prev = 0u64;
        let mut fresh = true;
        for &idx in &indices[pointer[seg]..pointer[seg + 1]] {
            let v = idx as u64;
            total += varint_len(if fresh { v } else { v - prev });
            prev = v;
            fresh = false;
        }
    }
    total
}

/// The `auto` negotiator: price every candidate encoding of each stream
/// against the α-β model and keep the cheapest. A byte on the wire costs
/// `t_data / 8` (the model charges `T_Data` per 8-byte element); encode
/// work is estimated at `nnz / 4` ops for bit-packing an index stream
/// and one op per value for the plane transpose, while the raw and
/// delta paths ride the existing encode loops at no extra charge. This
/// is Remark 5's compress-or-not crossover decided per message at
/// runtime.
fn auto_desc(pointer: &[usize], indices: &[usize], values: &[f64], policy: &WirePolicy) -> u8 {
    let byte_t = policy.model.t_data / 8.0;
    let t_op = policy.model.t_op;

    let nnz = indices.len();
    let raw_bytes = 8 * nnz;
    let delta_bytes = delta_index_bytes(pointer, indices);
    let (firsts, within) = packed_streams(pointer, indices);
    let packed_bytes = packed_size(&firsts) + packed_size(&within);
    let cheap_bytes = delta_bytes.min(raw_bytes);
    let packed_cost = packed_bytes as f64 * byte_t + (nnz as f64 / 4.0) * t_op;
    let idx = if packed_cost < cheap_bytes as f64 * byte_t {
        IDX_PACKED
    } else if delta_bytes <= raw_bytes {
        IDX_DELTA
    } else {
        IDX_RAW
    };

    let n = values.len();
    let planes_bytes: usize = (0..8).map(|p| plan_plane(&plane_bytes(values, p)).1).sum();
    let planes_cost = planes_bytes as f64 * byte_t + n as f64 * t_op;
    let val = if n > 0 && planes_cost < (8 * n) as f64 * byte_t {
        VAL_PLANES
    } else {
        0
    };

    idx | val
}

#[cfg(test)]
mod tests {
    use super::super::codec::codec_for;
    use super::*;
    use sparsedist_multicomputer::MachineModel;

    fn fig7_triple() -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        (
            vec![0, 2, 2, 5],
            vec![1, 6, 0, 3, 7],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
    }

    fn roundtrip_triple(desc: u8) {
        let (ro, co, vl) = fig7_triple();
        let mut b = PackBuffer::new();
        V3_PACKED.begin_message(&mut b, desc);
        V3_PACKED.encode_indices(&mut b, &ro, &co, desc);
        V3_PACKED.encode_values(&mut b, &vl, desc);
        assert_eq!(
            b.elem_count(),
            (ro.len() + 2 * vl.len()) as u64,
            "desc {desc:#05b}: element count must be format-independent"
        );
        let mut c = b.cursor();
        let head = V3_PACKED.open_message(&mut c).unwrap();
        assert_eq!(head.desc, desc);
        let (ro2, co2) = head
            .codec
            .decode_indices(&mut c, ro.len() - 1, desc)
            .unwrap();
        let vl2 = head.codec.decode_values(&mut c, vl.len(), desc).unwrap();
        assert!(c.is_exhausted(), "desc {desc:#05b}");
        assert_eq!((ro2, co2, vl2), (ro, co, vl), "desc {desc:#05b}");
    }

    #[test]
    fn triple_round_trips_under_every_descriptor() {
        for idx in [IDX_RAW, IDX_DELTA, IDX_PACKED] {
            for val in [0, VAL_PLANES] {
                roundtrip_triple(idx | val);
            }
        }
    }

    #[test]
    fn pairs_round_trip_with_ed_element_count() {
        let (ro, co, vl) = fig7_triple();
        for idx in [IDX_RAW, IDX_DELTA, IDX_PACKED] {
            let desc = idx | VAL_PLANES;
            let mut b = PackBuffer::new();
            V3_PACKED.begin_message(&mut b, desc);
            V3_PACKED.encode_pairs(&mut b, &ro, &co, &vl, desc);
            // ED element count: one count per segment + 2·nnz.
            assert_eq!(b.elem_count(), (ro.len() - 1 + 2 * vl.len()) as u64);
            let mut c = b.cursor();
            let head = V3_PACKED.open_message(&mut c).unwrap();
            let (ro2, co2, vl2) = head.codec.decode_pairs(&mut c, ro.len() - 1, desc).unwrap();
            assert!(c.is_exhausted());
            assert_eq!((ro2, co2, vl2), (ro.clone(), co.clone(), vl.clone()));
        }
    }

    #[test]
    fn empty_segments_and_empty_messages_round_trip() {
        for (ro, co) in [
            (vec![0usize, 0, 0, 0], vec![]),
            (vec![0usize], vec![]),
            (vec![0usize, 0, 3, 3, 4], vec![7, 8, 9, 2]),
        ] {
            let vl: Vec<f64> = co.iter().map(|&i| i as f64).collect();
            for idx in [IDX_RAW, IDX_DELTA, IDX_PACKED] {
                let desc = idx | VAL_PLANES;
                let mut b = PackBuffer::new();
                V3_PACKED.begin_message(&mut b, desc);
                V3_PACKED.encode_indices(&mut b, &ro, &co, desc);
                V3_PACKED.encode_values(&mut b, &vl, desc);
                let mut c = b.cursor();
                let head = V3_PACKED.open_message(&mut c).unwrap();
                let (ro2, co2) = head
                    .codec
                    .decode_indices(&mut c, ro.len() - 1, desc)
                    .unwrap();
                let vl2 = head.codec.decode_values(&mut c, vl.len(), desc).unwrap();
                assert_eq!((ro2, co2, vl2), (ro.clone(), co.clone(), vl.clone()));
            }
        }
    }

    #[test]
    fn packed_descriptor_shrinks_a_dense_run() {
        // A dense row: 500 consecutive indices, constant-ish values.
        let pointer = vec![0usize, 500];
        let indices: Vec<usize> = (100..600).collect();
        let values: Vec<f64> = (0..500).map(|i| 1.0 + (i % 16) as f64 / 16.0).collect();
        let mut packed = PackBuffer::new();
        let desc = IDX_PACKED | VAL_PLANES;
        V3_PACKED.begin_message(&mut packed, desc);
        V3_PACKED.encode_indices(&mut packed, &pointer, &indices, desc);
        V3_PACKED.encode_values(&mut packed, &values, desc);

        let mut raw = PackBuffer::new();
        V3_PACKED.begin_message(&mut raw, IDX_RAW);
        V3_PACKED.encode_indices(&mut raw, &pointer, &indices, IDX_RAW);
        V3_PACKED.encode_values(&mut raw, &values, IDX_RAW);

        assert_eq!(packed.elem_count(), raw.elem_count());
        // Consecutive indices pack to ~0 bits; 16 distinct values leave
        // at most two meaningful mantissa planes.
        assert!(
            packed.byte_len() * 4 < raw.byte_len(),
            "packed {} vs raw {}",
            packed.byte_len(),
            raw.byte_len()
        );
    }

    #[test]
    fn v3_receiver_accepts_v2_streams() {
        let (ro, co, vl) = fig7_triple();
        let mut b = PackBuffer::new();
        super::super::pack_triple_into(&mut b, &ro, &co, &vl, 8, &WirePolicy::of(WireFormat::V2));
        let mut c = b.cursor();
        let head = V3_PACKED.open_message(&mut c).unwrap();
        assert_eq!(head.codec.format(), WireFormat::V2);
        let (ro2, co2) = head
            .codec
            .decode_indices(&mut c, ro.len() - 1, head.desc)
            .unwrap();
        let vl2 = head
            .codec
            .decode_values(&mut c, vl.len(), head.desc)
            .unwrap();
        assert_eq!((ro2, co2, vl2), (ro, co, vl));
    }

    #[test]
    fn malformed_v3_streams_error_without_panicking() {
        let (ro, co, vl) = fig7_triple();
        let desc = IDX_PACKED | VAL_PLANES;
        let mut b = PackBuffer::new();
        V3_PACKED.begin_message(&mut b, desc);
        V3_PACKED.encode_indices(&mut b, &ro, &co, desc);
        V3_PACKED.encode_values(&mut b, &vl, desc);
        let bytes = b.as_bytes();
        // Truncations at every interesting boundary.
        for cut in 0..bytes.len() {
            let mut t = PackBuffer::new();
            t.push_raw(&bytes[..cut]);
            let mut c = t.cursor();
            let r = V3_PACKED.open_message(&mut c).and_then(|head| {
                let (p, _) = head
                    .codec
                    .decode_indices(&mut c, ro.len() - 1, head.desc)
                    .map_err(|_| CompressError::Codec { reason: "idx" })?;
                head.codec
                    .decode_values(&mut c, p.last().copied().unwrap_or(0), head.desc)
                    .map_err(|_| CompressError::Codec { reason: "val" })?;
                Ok(())
            });
            assert!(r.is_err(), "cut at {cut} of {}", bytes.len());
        }
        // Reserved descriptor bits and the invalid index codec.
        for bad in [0b1000u8, 0b11] {
            let mut t = PackBuffer::new();
            t.push_raw(&[b'S', b'3', bad]);
            assert!(V3_PACKED.open_message(&mut t.cursor()).is_err(), "{bad:#b}");
        }
        // Wrong magic entirely.
        let mut t = PackBuffer::new();
        t.push_raw(&[b'X', b'3', 0]);
        assert!(V3_PACKED.open_message(&mut t.cursor()).is_err());
    }

    #[test]
    fn malformed_value_planes_are_typed_errors() {
        fn try_decode(payload: &[u8], n: usize) -> Result<Vec<f64>, SparsedistError> {
            let mut b = PackBuffer::new();
            b.push_raw(payload);
            let mut c = b.cursor();
            V3_PACKED.decode_values(&mut c, n, VAL_PLANES)
        }
        // Unknown plane tag.
        assert!(try_decode(&[9], 1).is_err());
        // Dictionary size 0 and 17 are out of range.
        assert!(try_decode(&[PLANE_DICT, 0], 1).is_err());
        assert!(try_decode(&[PLANE_DICT, 17], 1).is_err());
        // RLE run of length zero.
        assert!(try_decode(&[PLANE_RLE, 1, 0, 42], 1).is_err());
        // RLE runs overshooting the value count.
        assert!(try_decode(&[PLANE_RLE, 1, 9, 42], 1).is_err());
        // RLE runs falling short.
        assert!(try_decode(&[PLANE_RLE, 1, 1, 42], 3).is_err());
    }

    #[test]
    fn auto_negotiation_follows_the_machine_model() {
        // n=1000-ish realistic shape: sorted sparse indices, values in [1, 2).
        let nnz = 400;
        let pointer: Vec<usize> = (0..=100).map(|i| i * nnz / 100).collect();
        let indices: Vec<usize> = (0..nnz).map(|i| (i % 4) * 250 + i / 4).collect();
        let values: Vec<f64> = (0..nnz).map(|i| 1.0 + (i % 64) as f64 / 64.0).collect();
        let auto = |model: MachineModel| {
            let policy = WirePolicy::new(WireFormat::V3, CodecChoice::Auto, model);
            V3_PACKED.plan(1000, &pointer, &indices, &values, &policy)
        };
        // A network-bound machine pays dearly per byte: compress hard.
        assert_eq!(auto(MachineModel::network_bound()), IDX_PACKED | VAL_PLANES);
        // A compute-bound machine keeps the free delta varints but skips
        // the op-charged transforms.
        assert_eq!(auto(MachineModel::compute_bound()), IDX_DELTA);
        // The decision actually flips between models — Remark 5 at runtime.
        assert_ne!(
            auto(MachineModel::network_bound()),
            auto(MachineModel::compute_bound())
        );
    }

    #[test]
    fn plane_encodings_pick_the_exact_minimum() {
        // Constant plane: RLE (3 bytes) beats dict (4) and raw (n+1).
        let (_, cost) = plan_plane(&[7u8; 100]);
        assert_eq!(cost, 3);
        // Two alternating bytes: dict with 1-bit codes.
        let alt: Vec<u8> = (0..100).map(|i| if i % 2 == 0 { 3 } else { 9 }).collect();
        let (plan, cost) = plan_plane(&alt);
        assert!(matches!(plan, PlanePlan::Dict(_)));
        assert_eq!(cost, 2 + 2 + 100usize.div_ceil(8));
        // High-entropy plane: raw.
        let noise: Vec<u8> = (0..=255u8).collect();
        let (plan, cost) = plan_plane(&noise);
        assert!(matches!(plan, PlanePlan::Raw));
        assert_eq!(cost, 257);
        // Empty plane: raw tag only.
        let (_, cost) = plan_plane(&[]);
        assert_eq!(cost, 1);
    }

    #[test]
    fn codec_for_returns_v3() {
        assert_eq!(codec_for(WireFormat::V3).format(), WireFormat::V3);
    }
}
