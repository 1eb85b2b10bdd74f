//! Wire formats for compressed-array messages: a pluggable codec stack.
//!
//! The paper's schemes put `(RO, CO, VL)` triples (CFS) and encoded
//! buffers `B` (ED) on the wire. This family implements two layouts
//! behind one [`Codec`] trait, chosen per run by [`WireFormat`] and,
//! within v3, by the negotiation byte every message carries:
//!
//! * **v1** ([`codec::V1Raw`]) — the seed layout: every index a
//!   little-endian `u64`, every value a little-endian `f64`, no header.
//!   Byte-identical to the original repo's streams, and the layout the
//!   paper's `MPI_Pack` tables rest on.
//! * **v3** ([`v3::V3Packed`]) — `[b'S', b'3', desc]` where `desc`
//!   selects per stream between raw, delta-varint, and bit-packed index
//!   runs, and optionally byte-transposed value planes; the selection is
//!   the run's [`codec::CodecChoice`] alone, never the message's contents.
//!
//! Module layout: [`varint`] holds zigzag and the segment-resetting
//! delta-varint run writer/reader, [`bitpack`] the fixed-block bit
//! packer, [`codec`] the trait plus the v1 impl and the policy, [`v3`] the
//! compact format. This `mod.rs` keeps the shared header helper and the
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
//! * **Self-describing streams.** A v3 receiver validates every header and
//!   rejects anything but v3 magic — including the retired v2 `'S2'`
//!   header — with a typed error (see [`Codec::open_message`]).

pub mod bitpack;
pub mod codec;
pub mod v3;
pub mod varint;

pub use codec::{
    codec_for, measure_streams, Codec, CodecChoice, StreamBytes, V1Raw, WirePolicy, V1_RAW,
    V3_PACKED,
};
pub use v3::V3Packed;
pub use varint::{IndexRunReader, IndexRunWriter};

use crate::error::SparsedistError;
use sparsedist_multicomputer::pack::{PackBuffer, UnpackCursor};

/// Header length in bytes of a v3 message (magic + negotiation byte).
pub const HEADER_LEN: usize = 3;

/// Which wire layout a scheme run puts on the interconnect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// The seed layout: plain `u64`/`f64`, 8 bytes per element, no
    /// header. Kept as default so existing byte-exact behaviour (and the
    /// fault-injection corpus built on it) is untouched.
    #[default]
    V1,
    /// Per-stream compression: bit-packed index runs and byte-transposed
    /// value planes behind a self-describing descriptor byte, selected
    /// by the run's codec choice.
    V3,
}

impl WireFormat {
    /// Lower-case label for table output.
    pub fn label(self) -> &'static str {
        match self {
            WireFormat::V1 => "v1",
            WireFormat::V3 => "v3",
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Consume up to one header's worth of bytes, zero-padded, plus whether
/// a full header was present, so short buffers report the found bytes
/// zero-padded.
pub(crate) fn take_header(cursor: &mut UnpackCursor<'_>) -> ([u8; HEADER_LEN], bool) {
    let mut found = [0u8; HEADER_LEN];
    let n = cursor.remaining().min(HEADER_LEN);
    if let Ok(bytes) = cursor.try_read_raw(n) {
        found[..n].copy_from_slice(bytes);
    }
    (found, n == HEADER_LEN)
}

/// Append a non-decreasing run (a CRS/CCS pointer array, or one
/// segment's sorted indices) as LEB128 varints: the first value absolute,
/// the rest as deltas from their predecessor.
pub fn push_monotone_run(buf: &mut PackBuffer, vs: &[usize]) {
    let mut prev = 0u64;
    for (i, &v) in vs.iter().enumerate() {
        let v = v as u64;
        debug_assert!(i == 0 || v >= prev, "run is not monotone at position {i}");
        buf.push_varint(if i == 0 { v } else { v - prev });
        prev = v;
    }
}

/// A decoded `(pointer, indices, values)` compressed triple, as carried
/// by the CFS wire message.
pub type UnpackedTriple = (Vec<usize>, Vec<usize>, Vec<f64>);

/// Pack a `(pointer, indices, values)` compressed triple — the CFS wire
/// message — into `buf` under `policy`.
///
/// The policy's codec plans the message's negotiation byte from the
/// policy's codec choice, writes its header, then the pointer + index
/// streams and the value stream. Every format appends exactly
/// `pointer.len() + 2 * nnz` logical elements, so `T_Data` charges are
/// format-independent. `_index_bound` is ignored; the parameter stays
/// only for callers that still pass one.
pub fn pack_triple_into(
    buf: &mut PackBuffer,
    pointer: &[usize],
    indices: &[usize],
    values: &[f64],
    _index_bound: usize,
    policy: &WirePolicy,
) {
    debug_assert_eq!(indices.len(), values.len());
    let codec = codec_for(policy.format);
    let desc = codec.plan(policy.choice);
    codec.begin_message(buf, desc);
    codec.encode_indices(buf, pointer, indices, desc);
    codec.encode_values(buf, values, desc);
}

/// Unpack a triple written by [`pack_triple_into`] for an array with
/// `nsegments` outer segments. Returns `(pointer, indices, values)`.
///
/// `format` is the receiver's format; a v3 receiver validates the header
/// first. The cursor must be exhausted afterwards by the caller if
/// trailing bytes are an error at its layer (scheme unpackers check
/// this).
pub fn unpack_triple(
    cursor: &mut UnpackCursor<'_>,
    nsegments: usize,
    format: WireFormat,
) -> Result<UnpackedTriple, SparsedistError> {
    let codec = codec_for(format);
    let desc = codec.open_message(cursor)?;
    let (pointer, indices) = codec.decode_indices(cursor, nsegments, desc)?;
    let nnz = pointer.last().copied().unwrap_or(0);
    let values = codec.decode_values(cursor, nnz, desc)?;
    Ok((pointer, indices, values))
}

/// Pack a bare value stream (the SFC wire message — dense local rows,
/// no index side) into `buf` under `policy`.
pub fn pack_values_into(buf: &mut PackBuffer, values: &[f64], policy: &WirePolicy) {
    let codec = codec_for(policy.format);
    let desc = codec.plan(policy.choice);
    codec.begin_message(buf, desc);
    codec.encode_values(buf, values, desc);
}

/// Unpack `n` values written by [`pack_values_into`].
pub fn unpack_values(
    cursor: &mut UnpackCursor<'_>,
    n: usize,
    format: WireFormat,
) -> Result<Vec<f64>, SparsedistError> {
    let codec = codec_for(format);
    let desc = codec.open_message(cursor)?;
    codec.decode_values(cursor, n, desc)
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
    fn monotone_run_is_one_varint_per_field() {
        let run = vec![0usize, 0, 3, 3, 10, 150, 16_500];
        let mut b = PackBuffer::new();
        push_monotone_run(&mut b, &run);
        assert_eq!(b.elem_count(), run.len() as u64);
        let mut c = b.cursor();
        let mut r = IndexRunReader::new();
        let got: Vec<usize> = run.iter().map(|_| r.next(&mut c).unwrap()).collect();
        assert_eq!(got, run);
        assert!(c.is_exhausted());
        // Delta encoding of small steps is ~1 byte per field.
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
        let mut b = PackBuffer::new();
        let mut w = IndexRunWriter::new();
        for seg in segs {
            w.reset();
            for &v in seg {
                w.push(&mut b, v);
            }
        }
        let mut c = b.cursor();
        let mut r = IndexRunReader::new();
        for seg in segs {
            r.reset();
            for &v in seg {
                assert_eq!(r.next(&mut c).unwrap(), v);
            }
        }
        assert!(c.is_exhausted());
    }

    #[test]
    fn triple_round_trips_in_every_format() {
        let (ro, co, vl) = fig7_triple();
        for format in [WireFormat::V1, WireFormat::V3] {
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
    fn v1_triple_matches_seed_layout() {
        let (ro, co, vl) = fig7_triple();
        let mut v1 = PackBuffer::new();
        pack_triple_into(&mut v1, &ro, &co, &vl, 8, &WirePolicy::of(WireFormat::V1));
        // Seed layout: every element is 8 LE bytes in RO, CO, VL order.
        let mut seed = PackBuffer::new();
        seed.push_usize_slice(&ro);
        seed.push_usize_slice(&co);
        seed.push_f64_slice(&vl);
        assert_eq!(v1, seed);
    }

    #[test]
    fn value_streams_round_trip_in_every_format() {
        let values: Vec<f64> = (0..40).map(|i| (i % 7) as f64 * 0.5).collect();
        for format in [WireFormat::V1, WireFormat::V3] {
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
    fn wire_format_labels() {
        assert_eq!(WireFormat::default(), WireFormat::V1);
        assert_eq!(WireFormat::V1.to_string(), "v1");
        assert_eq!(WireFormat::V3.label(), "v3");
    }
}
