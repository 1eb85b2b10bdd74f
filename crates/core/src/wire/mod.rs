//! Wire formats for compressed-array messages: a pluggable codec stack.
//!
//! The paper's schemes put `(RO, CO, VL)` triples (CFS) and encoded
//! buffers `B` (ED) on the wire. This family implements three layouts
//! behind one [`Codec`] trait, chosen per run by [`WireFormat`] and per
//! message by each codec's negotiation byte:
//!
//! * **v1** ([`codec::V1Raw`]) — the seed layout: every index a
//!   little-endian `u64`, every value a little-endian `f64`, no header.
//!   Byte-identical to the original repo's streams.
//! * **v2** ([`codec::V2Delta`]) — a 3-byte header `[b'S', b'2', flags]`
//!   ([`FLAG_IDX32`] narrows fixed-width fields to `u32`, [`FLAG_DELTA`]
//!   delta-varints sorted index runs), raw `f64` values. Byte-identical
//!   to the pre-refactor v2.
//! * **v3** ([`v3::V3Packed`]) — `[b'S', b'3', desc]` where `desc`
//!   selects per stream between raw, delta-varint, and bit-packed index
//!   runs, and optionally byte-transposed value planes; the selection is
//!   forced by [`codec::CodecChoice`] or priced per message against the
//!   α-β machine model (`auto`).
//!
//! Module layout: [`varint`] holds zigzag and the segment-resetting run
//! writer/reader, [`bitpack`] the fixed-block bit packer, [`codec`] the
//! trait plus the v1/v2 impls and the negotiation policy, [`v3`] the new
//! format. This `mod.rs` keeps the shared header/field helpers and the
//! scheme-facing entry points [`pack_triple_into`] / [`unpack_triple`]
//! and [`pack_values_into`] / [`unpack_values`].
//!
//! Two invariants hold across the whole family:
//!
//! * **Element transparency.** Header and framing bytes are never logical
//!   elements, and every codec credits the same element count for the
//!   same message — the paper charges `T_Data` per element, an element is
//!   an element however many bytes encode it, and therefore every
//!   virtual-time phase total is format-independent. Only bytes-on-wire
//!   (and host encode time) change.
//! * **Self-describing streams.** A v3-capable receiver also accepts v2
//!   streams directly (see [`Codec::open_message`]), so old senders keep
//!   working; a v2 receiver rejects a v3 stream with a typed error.

pub mod bitpack;
pub mod codec;
pub mod v3;
pub mod varint;

pub use codec::{
    codec_for, measure_streams, Codec, CodecChoice, MsgHead, StreamBytes, V1Raw, V2Delta,
    WirePolicy, V1_RAW, V2_DELTA, V3_PACKED,
};
pub use v3::V3Packed;
pub use varint::{IndexRunReader, IndexRunWriter};

use crate::compress::CompressError;
use crate::error::SparsedistError;
use sparsedist_multicomputer::pack::{PackBuffer, PatchError, UnpackCursor, UnpackError};

/// Magic bytes opening every v2 message.
pub const MAGIC: [u8; 2] = [b'S', b'2'];

/// Total header length in bytes (magic + negotiation byte).
pub const HEADER_LEN: usize = 3;

/// Fixed-width index fields are 4-byte `u32` instead of 8-byte `u64`.
pub const FLAG_IDX32: u8 = 0b01;

/// Sorted index runs are LEB128 varint deltas (reset per segment).
pub const FLAG_DELTA: u8 = 0b10;

/// All flag bits a v2 header may carry.
pub const FLAG_MASK: u8 = FLAG_IDX32 | FLAG_DELTA;

/// Which wire layout a scheme run puts on the interconnect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// The seed layout: plain `u64`/`f64`, 8 bytes per element, no
    /// header. Kept as default so existing byte-exact behaviour (and the
    /// fault-injection corpus built on it) is untouched.
    #[default]
    V1,
    /// Compact layout: 3-byte header, then `IDX32`/`DELTA`-encoded index
    /// fields as negotiated per message.
    V2,
    /// Per-stream compression: bit-packed index runs and byte-transposed
    /// value planes behind a self-describing descriptor byte, selected
    /// per message by policy or by the α-β cost model.
    V3,
}

impl WireFormat {
    /// Lower-case label for table output.
    pub fn label(self) -> &'static str {
        match self {
            WireFormat::V1 => "v1",
            WireFormat::V2 => "v2",
            WireFormat::V3 => "v3",
        }
    }

    /// Protocol version number, ordered so newer formats compare higher.
    pub fn version(self) -> u8 {
        match self {
            WireFormat::V1 => 1,
            WireFormat::V2 => 2,
            WireFormat::V3 => 3,
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Negotiate v2 flags for a message whose largest fixed-width field
/// (index, count or pointer total) is `max_field`.
///
/// `DELTA` is always on — every index run the schemes transmit is sorted
/// by CRS/CCS construction. `IDX32` is on when `max_field` fits a `u32`,
/// which covers any array with dimensions and nonzero count below 2³².
pub fn negotiate(max_field: usize) -> u8 {
    let mut flags = FLAG_DELTA;
    if max_field <= u32::MAX as usize {
        flags |= FLAG_IDX32;
    }
    flags
}

/// Consume up to one header's worth of bytes, zero-padded, plus whether
/// a full header was present. Shared by the v2 and v3 header readers so
/// short buffers report the same zero-padded `found` bytes.
pub(crate) fn take_header(cursor: &mut UnpackCursor<'_>) -> ([u8; HEADER_LEN], bool) {
    let mut found = [0u8; HEADER_LEN];
    let n = cursor.remaining().min(HEADER_LEN);
    if let Ok(bytes) = cursor.try_read_raw(n) {
        found[..n].copy_from_slice(bytes);
    }
    (found, n == HEADER_LEN)
}

/// Append a v2 header carrying `flags`. Framing bytes only: the buffer's
/// element count is unchanged.
pub fn write_header(buf: &mut PackBuffer, flags: u8) {
    debug_assert_eq!(
        flags & !FLAG_MASK,
        0,
        "unknown wire flag bits: {flags:#04x}"
    );
    buf.push_raw(&[MAGIC[0], MAGIC[1], flags]);
}

/// Read and validate a v2 header, returning its flags.
///
/// Fails with [`CompressError::WireHeader`] on wrong magic, unknown flag
/// bits, or a buffer too short to hold a header (the found bytes are
/// reported zero-padded in that case).
pub fn read_header(cursor: &mut UnpackCursor<'_>) -> Result<u8, CompressError> {
    let (found, complete) = take_header(cursor);
    if !complete || found[0] != MAGIC[0] || found[1] != MAGIC[1] || found[2] & !FLAG_MASK != 0 {
        return Err(CompressError::WireHeader { found });
    }
    Ok(found[2])
}

/// Append one count/index field at the fixed width the flags select.
pub fn push_count(buf: &mut PackBuffer, v: usize, flags: u8) {
    if flags & FLAG_IDX32 != 0 {
        debug_assert!(
            v <= u32::MAX as usize,
            "IDX32 negotiated but field {v} overflows u32"
        );
        buf.push_u32(v as u32);
    } else {
        buf.push_u64(v as u64);
    }
}

/// Read one count/index field at the fixed width the flags select.
pub fn read_count(cursor: &mut UnpackCursor<'_>, flags: u8) -> Result<usize, UnpackError> {
    if flags & FLAG_IDX32 != 0 {
        cursor.try_read_u32().map(|v| v as usize)
    } else {
        cursor.try_read_u64().map(|v| v as usize)
    }
}

/// Append a placeholder count field and return its byte offset for a
/// later [`patch_count`] — the flag-aware analogue of
/// [`PackBuffer::push_u64_placeholder`], for encoders that must write a
/// count before the segment's content is known.
pub fn push_count_placeholder(buf: &mut PackBuffer, flags: u8) -> usize {
    if flags & FLAG_IDX32 != 0 {
        buf.push_u32_placeholder()
    } else {
        buf.push_u64_placeholder()
    }
}

/// Overwrite the placeholder at `at` (from [`push_count_placeholder`],
/// with the same flags) with `v`.
pub fn patch_count(buf: &mut PackBuffer, at: usize, v: usize, flags: u8) -> Result<(), PatchError> {
    if flags & FLAG_IDX32 != 0 {
        debug_assert!(
            v <= u32::MAX as usize,
            "IDX32 negotiated but field {v} overflows u32"
        );
        buf.patch_u32(at, v as u32)
    } else {
        buf.patch_u64(at, v as u64)
    }
}

/// Append a non-decreasing run (a CRS/CCS pointer array) under the
/// negotiated flags: varint deltas when `DELTA` is set (first value
/// absolute), otherwise fixed-width fields.
pub fn push_monotone_run(buf: &mut PackBuffer, vs: &[usize], flags: u8) {
    if flags & FLAG_DELTA != 0 {
        let mut prev = 0u64;
        for (i, &v) in vs.iter().enumerate() {
            let v = v as u64;
            debug_assert!(i == 0 || v >= prev, "run is not monotone at position {i}");
            buf.push_varint(if i == 0 { v } else { v - prev });
            prev = v;
        }
    } else if flags & FLAG_IDX32 != 0 {
        for &v in vs {
            debug_assert!(v <= u32::MAX as usize);
            buf.push_u32(v as u32);
        }
    } else {
        buf.push_usize_slice(vs);
    }
}

/// Read back `n` fields written by [`push_monotone_run`] with the same
/// flags. Corrupt varints that would overflow the running sum wrap
/// rather than panic; structural validation is the caller's layer.
pub fn read_monotone_run(
    cursor: &mut UnpackCursor<'_>,
    n: usize,
    flags: u8,
) -> Result<Vec<usize>, UnpackError> {
    codec::guard_count(cursor, n, if flags & FLAG_DELTA != 0 { 1 } else { 4 })?;
    let mut out = Vec::with_capacity(n);
    if flags & FLAG_DELTA != 0 {
        let mut prev = 0u64;
        for i in 0..n {
            let d = cursor.try_read_varint()?;
            prev = if i == 0 { d } else { prev.wrapping_add(d) };
            out.push(prev as usize);
        }
    } else {
        for _ in 0..n {
            out.push(read_count(cursor, flags)?);
        }
    }
    Ok(out)
}

/// A decoded `(pointer, indices, values)` compressed triple, as carried
/// by the CFS wire message.
pub type UnpackedTriple = (Vec<usize>, Vec<usize>, Vec<f64>);

/// Pack a `(pointer, indices, values)` compressed triple — the CFS wire
/// message — into `buf` under `policy`.
///
/// The policy's codec plans the message's negotiation byte (from
/// `index_bound`, the exclusive bound on travelling indices, and the
/// streams themselves), writes its header, then the pointer + index
/// streams and the value stream. Every format appends exactly
/// `pointer.len() + 2 * nnz` logical elements, so `T_Data` charges are
/// format-independent.
pub fn pack_triple_into(
    buf: &mut PackBuffer,
    pointer: &[usize],
    indices: &[usize],
    values: &[f64],
    index_bound: usize,
    policy: &WirePolicy,
) {
    debug_assert_eq!(indices.len(), values.len());
    let codec = codec_for(policy.format);
    let desc = codec.plan(index_bound, pointer, indices, values, policy);
    codec.begin_message(buf, desc);
    codec.encode_indices(buf, pointer, indices, desc);
    codec.encode_values(buf, values, desc);
}

/// Unpack a triple written by [`pack_triple_into`] for an array with
/// `nsegments` outer segments. Returns `(pointer, indices, values)`.
///
/// `format` is the *receiver's* format; the header names the codec that
/// actually wrote the stream (an older sender's format under
/// mixed-version negotiation). The cursor must be exhausted afterwards
/// by the caller if trailing bytes are an error at its layer (scheme
/// unpackers check this).
pub fn unpack_triple(
    cursor: &mut UnpackCursor<'_>,
    nsegments: usize,
    format: WireFormat,
) -> Result<UnpackedTriple, SparsedistError> {
    let head = codec_for(format).open_message(cursor)?;
    let (pointer, indices) = head.codec.decode_indices(cursor, nsegments, head.desc)?;
    let nnz = pointer.last().copied().unwrap_or(0);
    let values = head.codec.decode_values(cursor, nnz, head.desc)?;
    Ok((pointer, indices, values))
}

/// Pack a bare value stream (the SFC wire message — dense local rows,
/// no index side) into `buf` under `policy`.
pub fn pack_values_into(buf: &mut PackBuffer, values: &[f64], policy: &WirePolicy) {
    let codec = codec_for(policy.format);
    let desc = codec.plan(0, &[], &[], values, policy);
    codec.begin_message(buf, desc);
    codec.encode_values(buf, values, desc);
}

/// Unpack `n` values written by [`pack_values_into`].
pub fn unpack_values(
    cursor: &mut UnpackCursor<'_>,
    n: usize,
    format: WireFormat,
) -> Result<Vec<f64>, SparsedistError> {
    let head = codec_for(format).open_message(cursor)?;
    head.codec.decode_values(cursor, n, head.desc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig7_triple() -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        // CRS of the paper's Figure 2 array restricted to one part:
        // 3 segments, 5 nonzeros, sorted indices within each segment.
        (
            vec![0, 2, 2, 5],
            vec![1, 6, 0, 3, 7],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
    }

    #[test]
    fn negotiate_picks_flags_from_field_bound() {
        assert_eq!(negotiate(0), FLAG_DELTA | FLAG_IDX32);
        assert_eq!(negotiate(u32::MAX as usize), FLAG_DELTA | FLAG_IDX32);
        assert_eq!(negotiate(u32::MAX as usize + 1), FLAG_DELTA);
    }

    #[test]
    fn header_round_trip_and_rejection() {
        let mut b = PackBuffer::new();
        write_header(&mut b, FLAG_DELTA | FLAG_IDX32);
        assert_eq!(b.elem_count(), 0, "header bytes are framing, not elements");
        assert_eq!(b.byte_len(), HEADER_LEN);
        assert_eq!(
            read_header(&mut b.cursor()).unwrap(),
            FLAG_DELTA | FLAG_IDX32
        );

        // Wrong magic.
        let mut bad = PackBuffer::new();
        bad.push_raw(&[b'X', b'2', 0]);
        assert_eq!(
            read_header(&mut bad.cursor()),
            Err(CompressError::WireHeader {
                found: [b'X', b'2', 0]
            })
        );
        // Unknown flag bits.
        let mut bad = PackBuffer::new();
        bad.push_raw(&[b'S', b'2', 0b100]);
        assert!(read_header(&mut bad.cursor()).is_err());
        // Too short: found bytes reported zero-padded.
        let mut short = PackBuffer::new();
        short.push_raw(b"S");
        assert_eq!(
            read_header(&mut short.cursor()),
            Err(CompressError::WireHeader {
                found: [b'S', 0, 0]
            })
        );
    }

    #[test]
    fn v2_reader_rejects_v3_magic() {
        // A v2-only receiver must not misread a v3 stream: the magic
        // differs in the version byte and is reported back typed.
        let mut b = PackBuffer::new();
        b.push_raw(&[b'S', b'3', 0b110]);
        assert_eq!(
            read_header(&mut b.cursor()),
            Err(CompressError::WireHeader {
                found: [b'S', b'3', 0b110]
            })
        );
        assert!(codec_for(WireFormat::V2)
            .open_message(&mut b.cursor())
            .is_err());
    }

    #[test]
    fn count_fields_follow_idx32() {
        for flags in [0, FLAG_IDX32] {
            let mut b = PackBuffer::new();
            push_count(&mut b, 7, flags);
            let slot = push_count_placeholder(&mut b, flags);
            patch_count(&mut b, slot, 99, flags).unwrap();
            let width = if flags & FLAG_IDX32 != 0 { 4 } else { 8 };
            assert_eq!(b.byte_len(), 2 * width);
            assert_eq!(b.elem_count(), 2);
            let mut c = b.cursor();
            assert_eq!(read_count(&mut c, flags).unwrap(), 7);
            assert_eq!(read_count(&mut c, flags).unwrap(), 99);
        }
    }

    #[test]
    fn monotone_run_round_trips_under_every_flag_combo() {
        let run = vec![0usize, 0, 3, 3, 10, 150, 16_500];
        for flags in [0, FLAG_IDX32, FLAG_DELTA, FLAG_DELTA | FLAG_IDX32] {
            let mut b = PackBuffer::new();
            push_monotone_run(&mut b, &run, flags);
            assert_eq!(b.elem_count(), run.len() as u64, "flags {flags:#04x}");
            let got = read_monotone_run(&mut b.cursor(), run.len(), flags).unwrap();
            assert_eq!(got, run, "flags {flags:#04x}");
        }
        // Delta encoding of small steps is ~1 byte per field.
        let mut b = PackBuffer::new();
        push_monotone_run(&mut b, &run, FLAG_DELTA);
        assert!(
            b.byte_len() <= 9,
            "7 small deltas should take ≤9 bytes, got {}",
            b.byte_len()
        );
    }

    #[test]
    fn index_runs_reset_at_segment_boundaries() {
        // Two sorted segments; the second starts below where the first
        // ended, which only decodes correctly if reset() re-arms the
        // absolute encoding.
        let segs: [&[usize]; 2] = [&[5, 6, 900], &[2, 4]];
        for flags in [0, FLAG_IDX32, FLAG_DELTA, FLAG_DELTA | FLAG_IDX32] {
            let mut b = PackBuffer::new();
            let mut w = IndexRunWriter::new(flags);
            for seg in segs {
                w.reset();
                for &v in seg {
                    w.push(&mut b, v);
                }
            }
            let mut c = b.cursor();
            let mut r = IndexRunReader::new(flags);
            for seg in segs {
                r.reset();
                for &v in seg {
                    assert_eq!(r.next(&mut c).unwrap(), v, "flags {flags:#04x}");
                }
            }
            assert!(c.is_exhausted());
        }
    }

    #[test]
    fn triple_round_trips_in_every_format() {
        let (ro, co, vl) = fig7_triple();
        for format in [WireFormat::V1, WireFormat::V2, WireFormat::V3] {
            let mut b = PackBuffer::new();
            pack_triple_into(&mut b, &ro, &co, &vl, 8, &WirePolicy::of(format));
            assert_eq!(
                b.elem_count(),
                (ro.len() + 2 * vl.len()) as u64,
                "element count must be format-independent ({format})"
            );
            let mut c = b.cursor();
            let (ro2, co2, vl2) = unpack_triple(&mut c, ro.len() - 1, format).unwrap();
            assert!(c.is_exhausted(), "{format}");
            assert_eq!(
                (ro2, co2, vl2),
                (ro.clone(), co.clone(), vl.clone()),
                "{format}"
            );
        }
    }

    #[test]
    fn v2_triple_is_smaller_and_v1_matches_seed_layout() {
        let (ro, co, vl) = fig7_triple();
        let mut v1 = PackBuffer::new();
        pack_triple_into(&mut v1, &ro, &co, &vl, 8, &WirePolicy::of(WireFormat::V1));
        // Seed layout: every element is 8 LE bytes in RO, CO, VL order.
        let mut seed = PackBuffer::new();
        seed.push_usize_slice(&ro);
        seed.push_usize_slice(&co);
        seed.push_f64_slice(&vl);
        assert_eq!(v1, seed);

        let mut v2 = PackBuffer::new();
        pack_triple_into(&mut v2, &ro, &co, &vl, 8, &WirePolicy::of(WireFormat::V2));
        assert!(
            v2.byte_len() < v1.byte_len(),
            "v2 ({}) must be smaller than v1 ({})",
            v2.byte_len(),
            v1.byte_len()
        );
        // Values dominate: 5 f64s = 40 bytes; header 3 + 4 pointer deltas
        // + 5 single-byte index varints = 12.
        assert_eq!(v2.byte_len(), 3 + 4 + 5 + 40);
    }

    #[test]
    fn value_streams_round_trip_in_every_format() {
        let values: Vec<f64> = (0..40).map(|i| (i % 7) as f64 * 0.5).collect();
        for format in [WireFormat::V1, WireFormat::V2, WireFormat::V3] {
            let mut b = PackBuffer::new();
            pack_values_into(&mut b, &values, &WirePolicy::of(format));
            assert_eq!(b.elem_count(), values.len() as u64, "{format}");
            let mut c = b.cursor();
            let got = unpack_values(&mut c, values.len(), format).unwrap();
            assert!(c.is_exhausted(), "{format}");
            assert_eq!(got, values, "{format}");
        }
    }

    #[test]
    fn truncated_v2_stream_is_an_error_not_a_panic() {
        let (ro, co, vl) = fig7_triple();
        let mut b = PackBuffer::new();
        pack_triple_into(&mut b, &ro, &co, &vl, 8, &WirePolicy::of(WireFormat::V2));
        let bytes = b.as_bytes();
        for cut in [0, 1, 2, 5, bytes.len() - 1] {
            let mut t = PackBuffer::new();
            t.push_raw(&bytes[..cut]);
            assert!(
                unpack_triple(&mut t.cursor(), ro.len() - 1, WireFormat::V2).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn wire_format_labels() {
        assert_eq!(WireFormat::default(), WireFormat::V1);
        assert_eq!(WireFormat::V1.to_string(), "v1");
        assert_eq!(WireFormat::V2.label(), "v2");
        assert_eq!(WireFormat::V3.label(), "v3");
        assert!(WireFormat::V2.version() < WireFormat::V3.version());
    }
}
