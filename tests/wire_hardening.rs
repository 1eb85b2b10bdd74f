//! Decoder hardening: fuzz-style malformed-frame sweeps over both wire
//! formats, plus the v3 receiver's typed rejection of retired v2 streams.
//!
//! Every mutation below — truncation at each byte boundary, single-byte
//! corruption at each offset — must surface as a typed error or, for
//! corruption the layout cannot distinguish from real data (e.g. a flipped
//! value byte), a clean decode of different numbers. Never a panic and
//! never an unbounded allocation: counts read off the wire are checked
//! against the bytes actually present before anything is reserved. The
//! sweeps cut and flip real encoded streams rather than hand-written ones
//! so they track the current layouts automatically.

use sparsedist::core::compress::CompressError;
use sparsedist::core::error::SparsedistError;
use sparsedist::core::wire::{self, CodecChoice, WireFormat, WirePolicy};
use sparsedist::multicomputer::PackBuffer;

/// A triple with enough shape to exercise every codec path: empty
/// segments, a monotone run that bit-packs, a scattered segment that
/// doesn't, repeated values (dictionary-friendly planes) and distinct
/// values (raw planes).
fn fixture() -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let pointer = vec![0, 3, 3, 8, 12, 12, 20];
    let indices = vec![
        4, 5, 6, // dense run
        0, 9, 17, 33, 60, // scattered
        2, 3, 4, 5, // dense run
        1, 8, 15, 22, 29, 36, 43, 50, // stride 7
    ];
    let values: Vec<f64> = (0..20)
        .map(|i| if i % 3 == 0 { 2.5 } else { i as f64 * 0.75 })
        .collect();
    (pointer, indices, values)
}

const BOUND: usize = 64;

/// Every (format, codec) pairing a sender can put on the wire.
fn policies() -> Vec<WirePolicy> {
    let mut out = vec![WirePolicy::of(WireFormat::V1)];
    for choice in [CodecChoice::Raw, CodecChoice::Delta, CodecChoice::Packed] {
        out.push(WirePolicy {
            format: WireFormat::V3,
            choice,
        });
    }
    out
}

fn encode(policy: &WirePolicy) -> PackBuffer {
    let (pointer, indices, values) = fixture();
    let mut buf = PackBuffer::new();
    wire::pack_triple_into(&mut buf, &pointer, &indices, &values, BOUND, policy);
    buf
}

fn from_bytes(bytes: &[u8]) -> PackBuffer {
    let mut buf = PackBuffer::new();
    buf.push_chunk(bytes, 0);
    buf
}

#[test]
fn every_policy_roundtrips_the_fixture() {
    let (pointer, indices, values) = fixture();
    let nseg = pointer.len() - 1;
    for policy in policies() {
        let buf = encode(&policy);
        let (ro, co, vl) = wire::unpack_triple(&mut buf.cursor(), nseg, policy.format)
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert_eq!(ro, pointer, "{policy:?}");
        assert_eq!(co, indices, "{policy:?}");
        assert_eq!(vl, values, "{policy:?}");
    }
}

/// Cutting the stream at any byte boundary must yield a typed error from
/// each format's decoder — some field is always missing.
#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    let (pointer, ..) = fixture();
    let nseg = pointer.len() - 1;
    for policy in policies() {
        let bytes = encode(&policy).as_bytes().to_vec();
        for cut in 0..bytes.len() {
            let short = from_bytes(&bytes[..cut]);
            let got = wire::unpack_triple(&mut short.cursor(), nseg, policy.format);
            assert!(
                got.is_err(),
                "{policy:?}: {cut}/{} byte prefix decoded",
                bytes.len()
            );
        }
    }
}

/// Corrupting any single byte must never panic. Where the decode still
/// succeeds (a flipped value byte is just a different number), the shape
/// must stay consistent with the segment count we asked for.
#[test]
fn single_byte_corruption_never_panics() {
    let (pointer, ..) = fixture();
    let nseg = pointer.len() - 1;
    for policy in policies() {
        let bytes = encode(&policy).as_bytes().to_vec();
        for pos in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[pos] ^= mask;
                let buf = from_bytes(&bad);
                if let Ok((ro, co, vl)) =
                    wire::unpack_triple(&mut buf.cursor(), nseg, policy.format)
                {
                    assert_eq!(ro.len(), nseg + 1, "{policy:?} pos {pos} mask {mask:#x}");
                    assert_eq!(co.len(), vl.len(), "{policy:?} pos {pos} mask {mask:#x}");
                }
            }
        }
    }
}

/// Dense value streams (SFC's whole payload). Under v3 packed each one's
/// value section is masked: a +0.0 word in every fifth value, all +0.0,
/// exactly one +0.0, +0.0 words on both sides of the 64-value mask
/// boundaries (63, 64, 65 values) and past a 4096-value part. The
/// patterned values keep the long stream short enough to sweep.
fn value_fixtures() -> Vec<Vec<f64>> {
    let pattern = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    (i % 7) as f64 * 1.25
                }
            })
            .collect()
    };
    let mut one_zero: Vec<f64> = (0..48).map(|i| 1.0 + i as f64 / 8.0).collect();
    one_zero[17] = 0.0;
    vec![
        (0..48).map(|i| (i % 5) as f64 * 1.25).collect(),
        vec![0.0; 48],
        one_zero,
        pattern(63),
        pattern(64),
        pattern(65),
        pattern(4097),
    ]
}

fn bits_of(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The dense value stream hardens the same way: it round-trips bit for
/// bit, and every prefix of it is a typed error.
#[test]
fn value_stream_truncation_is_a_typed_error_in_all_formats() {
    for values in value_fixtures() {
        let n = values.len();
        for policy in policies() {
            let mut buf = PackBuffer::new();
            wire::pack_values_into(&mut buf, &values, &policy);
            let bytes = buf.as_bytes().to_vec();
            let full = wire::unpack_values(&mut buf.cursor(), n, policy.format)
                .unwrap_or_else(|e| panic!("{policy:?} {n} values: {e}"));
            assert_eq!(bits_of(&full), bits_of(&values), "{policy:?} {n} values");
            for cut in 0..bytes.len() {
                let short = from_bytes(&bytes[..cut]);
                let got = wire::unpack_values(&mut short.cursor(), n, policy.format);
                assert!(
                    got.is_err(),
                    "{policy:?} {n} values: {cut}-byte prefix decoded"
                );
            }
        }
    }
}

/// Pack `values` under v3 packed, whose value section must be masked.
fn pack_masked(values: &[f64]) -> Vec<u8> {
    let mut buf = PackBuffer::new();
    wire::pack_values_into(&mut buf, values, &WirePolicy::of(WireFormat::V3));
    let bytes = buf.as_bytes().to_vec();
    assert_eq!(
        bytes[3],
        3,
        "{} values: section is not masked",
        values.len()
    );
    bytes
}

/// Corrupting any single byte of a masked section — its tag, a mask
/// plane, a kept word's plane — never panics, and a decode that still
/// succeeds yields exactly the values asked for.
#[test]
fn masked_value_stream_corruption_never_panics() {
    for values in value_fixtures() {
        let n = values.len();
        let bytes = pack_masked(&values);
        for pos in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[pos] ^= mask;
                let got = wire::unpack_values(&mut from_bytes(&bad).cursor(), n, WireFormat::V3);
                if let Ok(back) = got {
                    assert_eq!(back.len(), n, "{n} values: pos {pos} mask {mask:#x}");
                }
            }
        }
    }
}

/// Mask bits past the value count are a typed error: 128 values, their
/// last 63 nonzero, read back as 65.
#[test]
fn mask_bits_past_the_value_count_are_a_typed_error() {
    let values: Vec<f64> = (0..128).map(|i| if i < 65 { 0.0 } else { 1.5 }).collect();
    let bytes = pack_masked(&values);
    assert_eq!(
        wire::unpack_values(&mut from_bytes(&bytes).cursor(), 65, WireFormat::V3),
        Err(SparsedistError::Compress(CompressError::Codec {
            reason: "value-plane mask bit past the value count"
        }))
    );
}

/// A receiver that asks for more segments than the frame carries must
/// never panic or allocate for the phantom elements. Counts that imply
/// more bytes than remain fail the pre-allocation guard outright; a
/// slightly-off count may still parse structurally (v1 is columnar, so
/// misreading an index as a pointer entry yields a shorter valid prefix),
/// but then it must leave the cursor visibly unexhausted — the framing
/// check every scheme unpacker runs catches it at that layer.
#[test]
fn counts_beyond_the_frame_are_rejected_or_leave_trailing_bytes() {
    let (pointer, ..) = fixture();
    let nseg = pointer.len() - 1;
    for policy in policies() {
        let buf = encode(&policy);
        for lied in [nseg + 1, nseg * 64] {
            let mut cursor = buf.cursor();
            let got = wire::unpack_triple(&mut cursor, lied, policy.format);
            assert!(
                got.is_err() || !cursor.is_exhausted(),
                "{policy:?}: swallowed the whole frame as {lied} segments"
            );
        }
        // A count this large cannot fit any frame: the guard must refuse
        // it before reserving memory, not die in the allocator.
        let got = wire::unpack_triple(&mut buf.cursor(), usize::MAX / 32, policy.format);
        assert!(got.is_err(), "{policy:?}: accepted an impossible count");
    }
}

/// The Fig. 7 triple (pointer `[0,2,2,5]`, indices `[1,6 | — | 0,3,7]`,
/// values 1.5..5.5) as the retired v2 format wrote it: `'S2'`, flags
/// `0b11`, delta-varint pointer and index runs, raw `f64` values.
const FIG7_V2_HEX: &str = "533203000200030105000304\
    000000000000f83f0000000000000440000000000000\
    0c4000000000000012400000000000001640";

fn from_hex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// A well-formed v2 stream is no longer accepted anywhere: the v3 decoder
/// reports its header as a typed error, as a triple and as a value
/// stream, and never panics or misreads it as payload.
#[test]
fn v3_receiver_rejects_a_v2_stream_typed() {
    let v2 = from_bytes(&from_hex(FIG7_V2_HEX));
    assert_eq!(v2.byte_len(), 3 + 4 + 5 + 5 * 8);
    let expect = SparsedistError::Compress(CompressError::WireHeader {
        found: [b'S', b'2', 0b11],
    });
    assert_eq!(
        wire::unpack_triple(&mut v2.cursor(), 3, WireFormat::V3),
        Err(expect.clone())
    );
    assert_eq!(
        wire::unpack_values(&mut v2.cursor(), 5, WireFormat::V3),
        Err(expect)
    );
}
