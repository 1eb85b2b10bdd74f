//! Byte-exact goldens for the v1, v2 and v3 wire layouts, plus property
//! tests showing all formats decode to identical compressed state.
//!
//! The expected byte streams are written out field by field, independently
//! of the packing code, so any layout drift — field order, widths, varint
//! encoding, header bytes — fails here even if both ends of the pipeline
//! drift together. Streams too long to spell out (whole SFC/CFS/ED parts
//! of a seeded array, and Fig. 7 under every v3 codec choice) are pinned
//! as hex in `tests/goldens/wire_v3.txt`; regenerate it only after an
//! intentional layout change with `UPDATE_GOLDENS=1 cargo test --test
//! wire_format` and review the diff.

use proptest::prelude::*;
use sparsedist::core::compress::CompressKind;
use sparsedist::core::dense::paper_array_a;
use sparsedist::core::encode::{decode_part_wire, encode_part_into};
use sparsedist::core::opcount::OpCounter;
use sparsedist::core::wire::v3::{IDX_DELTA, IDX_PACKED, IDX_RAW, VAL_PLANES};
use sparsedist::core::wire::{self, Codec, CodecChoice, WireFormat, WirePolicy, V3_PACKED};
use sparsedist::gen::SparseRandom;
use sparsedist::multicomputer::PackBuffer;
use sparsedist::prelude::*;
use std::fmt::Write as _;

/// Append a little-endian `u64` field to an expected stream.
fn le64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32` field to an expected stream.
fn le32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f64` field to an expected stream.
fn lef(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The CFS wire triple of Figure 7's flavour: a 3-segment compressed part
/// with pointer `[0,2,2,5]`, global indices `[1,6 | — | 0,3,7]` and five
/// values.
const POINTER: [usize; 4] = [0, 2, 2, 5];
const INDICES: [usize; 5] = [1, 6, 0, 3, 7];
const VALUES: [f64; 5] = [1.5, 2.5, 3.5, 4.5, 5.5];

#[test]
fn cfs_triple_v1_bytes_golden() {
    let mut buf = PackBuffer::new();
    wire::pack_triple_into(
        &mut buf,
        &POINTER,
        &INDICES,
        &VALUES,
        8,
        &WirePolicy::of(WireFormat::V1),
    );

    // v1: pointer and indices as raw LE u64, values as LE f64 — no header.
    let mut expect = Vec::new();
    for p in POINTER {
        le64(&mut expect, p as u64);
    }
    for i in INDICES {
        le64(&mut expect, i as u64);
    }
    for v in VALUES {
        lef(&mut expect, v);
    }
    assert_eq!(buf.as_bytes(), expect.as_slice());
    assert_eq!(buf.byte_len(), 9 * 8 + 5 * 8);
    assert_eq!(buf.elem_count(), 4 + 2 * 5);
}

#[test]
fn cfs_triple_v2_bytes_golden() {
    let mut buf = PackBuffer::new();
    wire::pack_triple_into(
        &mut buf,
        &POINTER,
        &INDICES,
        &VALUES,
        8,
        &WirePolicy::of(WireFormat::V2),
    );

    // v2: "S2" magic + flags (DELTA|IDX32 = 0b11), the pointer as an
    // absolute varint then deltas, each segment's indices as an absolute
    // varint then deltas (run state resets at segment boundaries), then
    // the values still as raw LE f64.
    let mut expect: Vec<u8> = vec![b'S', b'2', 0b11];
    expect.extend_from_slice(&[0, 2, 0, 3]); // pointer 0, +2, +0, +3
    expect.extend_from_slice(&[1, 5]); // segment 0: 1, +5
    expect.extend_from_slice(&[0, 3, 4]); // segment 2: 0, +3, +4
    for v in VALUES {
        lef(&mut expect, v);
    }
    assert_eq!(buf.as_bytes(), expect.as_slice());
    assert_eq!(buf.byte_len(), 3 + 4 + 5 + 40);
    // Same logical elements as v1: the virtual clock sees no difference.
    assert_eq!(buf.elem_count(), 4 + 2 * 5);
}

#[test]
fn ed_buffer_v1_bytes_golden() {
    // ED special buffer B for P0 of the paper's Figure 1 array under the
    // row partition: rows 0..3 hold (r0: col 1 → 1.0), (r1: col 6 → 2.0),
    // (r2: cols 0,7 → 3.0, 4.0). v1 interleaves LE u64 counts, LE u64
    // global indices and LE f64 values.
    let a = paper_array_a();
    let part = RowBlock::new(10, 8, 4);
    let mut buf = PackBuffer::new();
    encode_part_into(
        &mut buf,
        &a,
        &part,
        0,
        CompressKind::Crs,
        &WirePolicy::of(WireFormat::V1),
        &mut OpCounter::new(),
    );

    let mut expect = Vec::new();
    le64(&mut expect, 1); // R_0
    le64(&mut expect, 1);
    lef(&mut expect, 1.0);
    le64(&mut expect, 1); // R_1
    le64(&mut expect, 6);
    lef(&mut expect, 2.0);
    le64(&mut expect, 2); // R_2
    le64(&mut expect, 0);
    lef(&mut expect, 3.0);
    le64(&mut expect, 7);
    lef(&mut expect, 4.0);
    assert_eq!(buf.as_bytes(), expect.as_slice());
    assert_eq!(buf.byte_len(), 11 * 8);
    assert_eq!(buf.elem_count(), 3 + 2 * 4);
}

#[test]
fn ed_buffer_v2_bytes_golden() {
    // The same buffer under v2: header, u32 counts (IDX32), delta-varint
    // indices resetting per row, raw f64 values.
    let a = paper_array_a();
    let part = RowBlock::new(10, 8, 4);
    let mut buf = PackBuffer::new();
    encode_part_into(
        &mut buf,
        &a,
        &part,
        0,
        CompressKind::Crs,
        &WirePolicy::of(WireFormat::V2),
        &mut OpCounter::new(),
    );

    let mut expect: Vec<u8> = vec![b'S', b'2', 0b11];
    le32(&mut expect, 1); // R_0
    expect.push(1);
    lef(&mut expect, 1.0);
    le32(&mut expect, 1); // R_1
    expect.push(6);
    lef(&mut expect, 2.0);
    le32(&mut expect, 2); // R_2
    expect.push(0);
    lef(&mut expect, 3.0);
    expect.push(7);
    lef(&mut expect, 4.0);
    assert_eq!(buf.as_bytes(), expect.as_slice());
    assert_eq!(buf.byte_len(), 3 + 3 * 4 + 4 + 4 * 8);
    assert_eq!(buf.elem_count(), 3 + 2 * 4);
}

/// Append an LEB128 varint to an expected stream.
fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Expected v3 raw value plane: tag 0, then the plane's bytes.
fn raw_plane(out: &mut Vec<u8>, bytes: &[u8]) {
    out.push(0);
    out.extend_from_slice(bytes);
}

/// Expected v3 dictionary plane: tag 1, dictionary size, the ascending
/// dictionary, then each byte's code packed LSB-first at the narrowest of
/// 0/1/2/3/4 bits that holds `dict.len()` codes.
fn dict_plane(out: &mut Vec<u8>, dict: &[u8], bytes: &[u8]) {
    out.push(1);
    out.push(dict.len() as u8);
    out.extend_from_slice(dict);
    let width = match dict.len() {
        1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        _ => 4,
    };
    let mut bits = vec![0u8; (bytes.len() * width).div_ceil(8)];
    for (i, b) in bytes.iter().enumerate() {
        let code = dict
            .iter()
            .position(|d| d == b)
            .expect("byte in dictionary");
        for bit in 0..width {
            if code >> bit & 1 == 1 {
                let at = i * width + bit;
                bits[at / 8] |= 1 << (at % 8);
            }
        }
    }
    out.extend_from_slice(&bits);
}

/// Expected v3 RLE plane: tag 2, varint run count, then `(varint len,
/// byte)` per run.
fn rle_plane(out: &mut Vec<u8>, runs: &[(usize, u8)]) {
    out.push(2);
    varint(out, runs.len() as u64);
    for &(len, b) in runs {
        varint(out, len as u64);
        out.push(b);
    }
}

/// The values whose little-endian byte `p` is `planes[p][i]`.
fn values_from_planes(planes: &[Vec<u8>; 8]) -> Vec<f64> {
    (0..planes[0].len())
        .map(|i| f64::from_le_bytes(std::array::from_fn(|p| planes[p][i])))
        .collect()
}

/// Pack `values` as a bare v3 value message with forced byte planes.
fn v3_planes_message(values: &[f64]) -> PackBuffer {
    let policy = WirePolicy::new(WireFormat::V3, CodecChoice::Packed, MachineModel::ibm_sp2());
    let mut buf = PackBuffer::new();
    wire::pack_values_into(&mut buf, values, &policy);
    buf
}

fn bits_of(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn v3_value_plane_encodings_bytes_golden() {
    // One 64-value message whose 8 planes take every plane encoding:
    // raw, dictionary at code widths 0/1/2/3/4, and RLE. Each plane's
    // costs (raw n+1, dictionary 2+d+⌈n·k/8⌉, RLE 1+Σ) are far apart, so
    // the exact-minimum choice is unambiguous.
    let n = 64;
    let from_dict = |dict: &[u8], code: &dyn Fn(usize) -> usize| -> Vec<u8> {
        (0..n).map(|i| dict[code(i)]).collect()
    };
    let run_bytes = |runs: &[(usize, u8)]| -> Vec<u8> {
        runs.iter()
            .flat_map(|&(len, b)| std::iter::repeat_n(b, len))
            .collect()
    };
    let d1 = [0x40u8];
    let d2 = [0x10u8, 0x20];
    let d4 = [0x01u8, 0x02, 0x03, 0x04];
    let d8: Vec<u8> = (0..8).map(|c| 0x80 + 3 * c).collect();
    let d16: Vec<u8> = (0..16).map(|c| 0x11 * c).collect();
    let rle6 = [(20usize, 0xAAu8), (44, 0xBB)];
    let rle7 = [(1usize, 0x3Fu8), (62, 0xF0), (1, 0x3F)];
    let planes: [Vec<u8>; 8] = [
        (0..n).map(|i| (i * 37 + 11) as u8).collect(),
        from_dict(&d1, &|_| 0),
        from_dict(&d2, &|i| usize::from(i % 3 != 0)),
        from_dict(&d4, &|i| i * 5 % 4),
        from_dict(&d8, &|i| i * 3 % 8),
        from_dict(&d16, &|i| i * 7 % 16),
        run_bytes(&rle6),
        run_bytes(&rle7),
    ];
    let values = values_from_planes(&planes);
    let buf = v3_planes_message(&values);

    let mut expect = vec![b'S', b'3', IDX_PACKED | VAL_PLANES];
    raw_plane(&mut expect, &planes[0]);
    dict_plane(&mut expect, &d1, &planes[1]);
    dict_plane(&mut expect, &d2, &planes[2]);
    dict_plane(&mut expect, &d4, &planes[3]);
    dict_plane(&mut expect, &d8, &planes[4]);
    dict_plane(&mut expect, &d16, &planes[5]);
    rle_plane(&mut expect, &rle6);
    rle_plane(&mut expect, &rle7);
    assert_eq!(buf.as_bytes(), expect.as_slice());
    // Spot-check the helpers against literal bytes: width 0 writes no
    // codes, and RLE lengths are single-byte varints here.
    assert_eq!(&expect[3 + 65..3 + 68], &[1, 1, 0x40]);
    assert_eq!(
        &expect[expect.len() - 8..],
        &[2, 3, 1, 0x3F, 62, 0xF0, 1, 0x3F]
    );
    assert_eq!(buf.elem_count(), n as u64);

    let back = wire::unpack_values(&mut buf.cursor(), n, WireFormat::V3).unwrap();
    assert_eq!(bits_of(&back), bits_of(&values));
}

#[test]
fn v3_rle_varint_boundaries_bytes_golden() {
    // Runs of 127/128/16383/16384 straddle the 1→2 and 2→3 byte varint
    // lengths; a 130-run plane straddles the run-count boundary. The
    // other six planes are constant (dictionary, width 0).
    let rle0 = [(127usize, 1u8), (128, 2), (16383, 1), (16384, 2)];
    let n: usize = rle0.iter().map(|r| r.0).sum();
    let mut rle1: Vec<(usize, u8)> = (0..129).map(|r| (250, r as u8)).collect();
    rle1.push((n - 129 * 250, 129));
    let expand = |runs: &[(usize, u8)]| -> Vec<u8> {
        runs.iter()
            .flat_map(|&(len, b)| std::iter::repeat_n(b, len))
            .collect()
    };
    let planes: [Vec<u8>; 8] = std::array::from_fn(|p| match p {
        0 => expand(&rle0),
        1 => expand(&rle1),
        _ => vec![0x30 + p as u8; n],
    });
    let values = values_from_planes(&planes);
    let buf = v3_planes_message(&values);

    let mut expect = vec![b'S', b'3', IDX_PACKED | VAL_PLANES];
    // Plane 0 spelled out literally: tag, 4 runs, then (len, byte) with
    // 127 = [7f], 128 = [80 01], 16383 = [ff 7f], 16384 = [80 80 01].
    expect.extend_from_slice(&[2, 4]);
    expect.extend_from_slice(&[0x7f, 1, 0x80, 0x01, 2, 0xff, 0x7f, 1, 0x80, 0x80, 0x01, 2]);
    // Plane 1: 130 runs → run count [82 01].
    let at = expect.len();
    rle_plane(&mut expect, &rle1);
    assert_eq!(&expect[at..at + 3], &[2, 0x82, 0x01]);
    for p in 2..8 {
        expect.extend_from_slice(&[1, 1, 0x30 + p as u8]);
    }
    assert_eq!(buf.as_bytes(), expect.as_slice());
    assert_eq!(buf.elem_count(), n as u64);

    let back = wire::unpack_values(&mut buf.cursor(), n, WireFormat::V3).unwrap();
    assert_eq!(bits_of(&back), bits_of(&values));
}

/// A v3 message carrying only the pointer and index streams under `desc`.
fn v3_index_message(pointer: &[usize], indices: &[usize], desc: u8) -> PackBuffer {
    let mut buf = PackBuffer::new();
    V3_PACKED.begin_message(&mut buf, desc);
    V3_PACKED.encode_indices(&mut buf, pointer, indices, desc);
    buf
}

#[test]
fn v3_index_encodings_bytes_golden() {
    // Each case: pointer, indices, then the expected bytes after the
    // pointer's varint-delta run under raw, delta and packed.
    type Case = (Vec<usize>, Vec<usize>, Vec<u8>, Vec<u8>, Vec<u8>);
    let raw = |idx: &[usize]| -> Vec<u8> {
        let mut out = Vec::new();
        for &i in idx {
            le64(&mut out, i as u64);
        }
        out
    };
    let cases: Vec<Case> = vec![
        // Fig. 7: segments [1,6 | — | 0,3,7]. Packed firsts are zigzag
        // deltas of 1, 0 → [2, 1] at width 2 = [02 | 06]; within deltas
        // minus one [4, 2, 3] at width 3 = [03 | d4 00].
        (
            POINTER.to_vec(),
            INDICES.to_vec(),
            raw(&INDICES),
            vec![1, 5, 0, 3, 4],
            vec![2, 0x06, 3, 0xd4, 0x00],
        ),
        // Empty segments around two runs: firsts zigzag(7)=14,
        // zigzag(2-7)=9 at width 4 = [04 | 9e]; within [0, 0] at width 0.
        (
            vec![0, 0, 3, 3, 4],
            vec![7, 8, 9, 2],
            raw(&[7, 8, 9, 2]),
            vec![7, 1, 1, 2],
            vec![4, 0x9e, 0],
        ),
        // A 300-long dense run: one first (zigzag 2000 at width 11 =
        // [0b d0 07]) and 299 zero deltas in blocks of 128/128/43, one
        // width byte each.
        (
            vec![0, 300],
            (1000..1300).collect(),
            raw(&(1000..1300).collect::<Vec<_>>()),
            [vec![0xe8, 0x07], vec![1; 299]].concat(),
            vec![11, 0xd0, 0x07, 0, 0, 0],
        ),
        // Only empty segments, and an empty message: no index bytes at all.
        (vec![0, 0, 0, 0], vec![], vec![], vec![], vec![]),
        (vec![0], vec![], vec![], vec![], vec![]),
    ];
    for (pointer, indices, raw_bytes, delta_bytes, packed_bytes) in cases {
        let mut ptr = Vec::new();
        let mut prev = 0;
        for &p in &pointer {
            varint(&mut ptr, (p - prev) as u64);
            prev = p;
        }
        for (desc, body) in [
            (IDX_RAW, &raw_bytes),
            (IDX_DELTA, &delta_bytes),
            (IDX_PACKED, &packed_bytes),
        ] {
            let buf = v3_index_message(&pointer, &indices, desc);
            let expect = [vec![b'S', b'3', desc], ptr.clone(), body.clone()].concat();
            assert_eq!(buf.as_bytes(), expect.as_slice(), "{pointer:?} desc {desc}");
            assert_eq!(buf.elem_count(), (pointer.len() + indices.len()) as u64);
            let mut c = buf.cursor();
            let head = V3_PACKED.open_message(&mut c).unwrap();
            let back = head
                .codec
                .decode_indices(&mut c, pointer.len() - 1, head.desc)
                .unwrap();
            assert!(c.is_exhausted());
            assert_eq!(back, (pointer.clone(), indices.clone()));
        }
    }
}

#[test]
fn cfs_triple_v3_packed_bytes_golden() {
    // The whole Fig. 7 message under the default packed choice: header,
    // pointer run, packed index streams, then 8 value planes of
    // [1.5, 2.5, 3.5, 4.5, 5.5] = 0x3ff8…, 0x4004…, 0x400c…, 0x4012…,
    // 0x4016…: six all-zero planes (dictionary, width 0), plane 6 raw,
    // plane 7 a two-entry dictionary with codes 0,1,1,1,1.
    let mut buf = PackBuffer::new();
    let policy = WirePolicy::new(WireFormat::V3, CodecChoice::Packed, MachineModel::ibm_sp2());
    wire::pack_triple_into(&mut buf, &POINTER, &INDICES, &VALUES, 8, &policy);
    let mut expect: Vec<u8> = vec![b'S', b'3', 0b110];
    expect.extend_from_slice(&[0, 2, 0, 3]);
    expect.extend_from_slice(&[2, 0x06, 3, 0xd4, 0x00]);
    for _ in 0..6 {
        expect.extend_from_slice(&[1, 1, 0]);
    }
    expect.extend_from_slice(&[0, 0xf8, 0x04, 0x0c, 0x12, 0x16]);
    expect.extend_from_slice(&[1, 2, 0x3f, 0x40, 0b11110]);
    assert_eq!(buf.as_bytes(), expect.as_slice());
    assert_eq!(buf.elem_count(), 4 + 2 * 5);
}

/// Render one golden line: a case name and its stream in hex.
fn hex_line(out: &mut String, name: &str, buf: &PackBuffer) {
    let _ = write!(out, "{name} {} ", buf.elem_count());
    for b in buf.as_bytes() {
        let _ = write!(out, "{b:02x}");
    }
    out.push('\n');
}

#[test]
fn v3_streams_match_hex_goldens() {
    let mut text = String::new();
    let choices = [
        ("raw", CodecChoice::Raw, MachineModel::ibm_sp2()),
        ("delta", CodecChoice::Delta, MachineModel::ibm_sp2()),
        ("packed", CodecChoice::Packed, MachineModel::ibm_sp2()),
        ("auto-sp2", CodecChoice::Auto, MachineModel::ibm_sp2()),
        (
            "auto-network",
            CodecChoice::Auto,
            MachineModel::network_bound(),
        ),
        (
            "auto-compute",
            CodecChoice::Auto,
            MachineModel::compute_bound(),
        ),
    ];
    let a = SparseRandom::new(32, 32)
        .sparse_ratio(0.2)
        .seed(0x5EED_0003)
        .generate();
    let part = RowBlock::new(32, 32, 4);
    let pid = 1;
    for (label, choice, model) in choices {
        let policy = WirePolicy::new(WireFormat::V3, choice, model);

        let mut buf = PackBuffer::new();
        wire::pack_triple_into(&mut buf, &POINTER, &INDICES, &VALUES, 8, &policy);
        hex_line(&mut text, &format!("fig7-triple/{label}"), &buf);

        // SFC: the part's dense local rows as a bare value stream.
        let mut buf = PackBuffer::new();
        let dense = part.extract_dense(&a, pid);
        wire::pack_values_into(&mut buf, dense.as_slice(), &policy);
        hex_line(&mut text, &format!("sfc-part/{label}"), &buf);

        // CFS: the part compressed with global indices, as a triple.
        let crs = Crs::from_part_global(&a, &part, pid, &mut OpCounter::new());
        let mut buf = PackBuffer::new();
        wire::pack_triple_into(&mut buf, crs.ro(), crs.co(), crs.vl(), 32, &policy);
        hex_line(&mut text, &format!("cfs-part/{label}"), &buf);

        // ED: the special buffer, CRS and CCS.
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            let mut buf = PackBuffer::new();
            encode_part_into(
                &mut buf,
                &a,
                &part,
                pid,
                kind,
                &policy,
                &mut OpCounter::new(),
            );
            hex_line(&mut text, &format!("ed-part-{kind:?}/{label}"), &buf);
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/wire_v3.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(path, &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e}; run with UPDATE_GOLDENS=1 to create it"));
    for (got, want) in text.lines().zip(golden.lines()) {
        let name = got.split(' ').next().unwrap_or_default();
        assert_eq!(got, want, "{name}: v3 stream drifted from its golden");
    }
    assert_eq!(text.lines().count(), golden.lines().count());
}

/// An arbitrary small sparse array: shape up to 20×20, each cell nonzero
/// with probability ~1/5.
fn arb_dense() -> impl Strategy<Value = Dense2D> {
    (1usize..20, 1usize..20)
        .prop_flat_map(|(r, c)| {
            (
                Just(r),
                Just(c),
                proptest::collection::vec(
                    prop_oneof![4 => Just(0.0f64), 1 => -100.0f64..100.0],
                    r * c,
                ),
            )
        })
        .prop_map(|(r, c, data)| {
            let data = data
                .into_iter()
                .map(|v| if v.abs() < 1e-9 { 0.0 } else { v })
                .collect();
            Dense2D::from_vec(r, c, data)
        })
}

proptest! {
    #[test]
    fn v2_triple_round_trips_to_v1_state(a in arb_dense(), nparts in 1usize..5) {
        // The CFS wire path: compress at the source with global indices,
        // pack under both formats, unpack both — identical RO/CO/VL and
        // identical logical element counts.
        let part = RowBlock::new(a.rows(), a.cols(), nparts);
        for pid in 0..nparts {
            let crs = sparsedist::core::compress::Crs::from_part_global(
                &a, &part, pid, &mut OpCounter::new(),
            );
            let (lrows, _) = part.local_shape(pid);
            let mut v1 = PackBuffer::new();
            let mut v2 = PackBuffer::new();
            wire::pack_triple_into(&mut v1, crs.ro(), crs.co(), crs.vl(), a.cols(), &WirePolicy::of(WireFormat::V1));
            wire::pack_triple_into(&mut v2, crs.ro(), crs.co(), crs.vl(), a.cols(), &WirePolicy::of(WireFormat::V2));
            prop_assert_eq!(v1.elem_count(), v2.elem_count());
            prop_assert!(v2.byte_len() <= v1.byte_len() + wire::HEADER_LEN);

            let from_v1 =
                wire::unpack_triple(&mut v1.cursor(), lrows, WireFormat::V1).unwrap();
            let from_v2 =
                wire::unpack_triple(&mut v2.cursor(), lrows, WireFormat::V2).unwrap();
            prop_assert_eq!(&from_v1, &from_v2);
            prop_assert_eq!(from_v1.0.as_slice(), crs.ro());
            prop_assert_eq!(from_v1.1.as_slice(), crs.co());
            prop_assert_eq!(from_v1.2.as_slice(), crs.vl());

            // v3 under every forced codec and auto: same decoded triple,
            // same logical elements.
            for choice in [CodecChoice::Auto, CodecChoice::Raw, CodecChoice::Delta, CodecChoice::Packed] {
                let policy = WirePolicy::new(WireFormat::V3, choice, MachineModel::ibm_sp2());
                let mut v3 = PackBuffer::new();
                wire::pack_triple_into(&mut v3, crs.ro(), crs.co(), crs.vl(), a.cols(), &policy);
                prop_assert_eq!(v3.elem_count(), v1.elem_count());
                let from_v3 =
                    wire::unpack_triple(&mut v3.cursor(), lrows, WireFormat::V3).unwrap();
                prop_assert_eq!(&from_v3, &from_v1);
            }
        }
    }

    #[test]
    fn v2_encode_decodes_to_v1_state(a in arb_dense(), nparts in 1usize..5) {
        // The ED wire path: encode under both formats, decode each with
        // its own format — identical compressed local state and ops.
        let part = RowBlock::new(a.rows(), a.cols(), nparts);
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            for pid in 0..nparts {
                let mut v1 = PackBuffer::new();
                let mut v2 = PackBuffer::new();
                let mut v3 = PackBuffer::new();
                let mut ops1 = OpCounter::new();
                let mut ops2 = OpCounter::new();
                let mut ops3 = OpCounter::new();
                encode_part_into(&mut v1, &a, &part, pid, kind, &WirePolicy::of(WireFormat::V1), &mut ops1);
                encode_part_into(&mut v2, &a, &part, pid, kind, &WirePolicy::of(WireFormat::V2), &mut ops2);
                encode_part_into(&mut v3, &a, &part, pid, kind, &WirePolicy::of(WireFormat::V3), &mut ops3);
                prop_assert_eq!(ops1.get(), ops2.get());
                prop_assert_eq!(ops1.get(), ops3.get());
                prop_assert_eq!(v1.elem_count(), v2.elem_count());
                prop_assert_eq!(v1.elem_count(), v3.elem_count());

                let d1 = decode_part_wire(&v1, &part, pid, kind, WireFormat::V1, &mut ops1).unwrap();
                let d2 = decode_part_wire(&v2, &part, pid, kind, WireFormat::V2, &mut ops2).unwrap();
                let d3 = decode_part_wire(&v3, &part, pid, kind, WireFormat::V3, &mut ops3).unwrap();
                prop_assert_eq!(&d1, &d2);
                prop_assert_eq!(&d1, &d3);
                prop_assert_eq!(ops1.get(), ops2.get());
                prop_assert_eq!(ops1.get(), ops3.get());
            }
        }
    }

    #[test]
    fn schemes_agree_across_formats_end_to_end(seed_nnz in 1usize..60) {
        // Full distribution on a virtual machine under every scheme:
        // compact-parallel config reproduces the default's locals exactly.
        let mut a = Dense2D::zeros(12, 12);
        for i in 0..seed_nnz {
            a.set((i * 5) % 12, (i * 7 + i / 12) % 12, 1.0 + i as f64);
        }
        let part = RowBlock::new(12, 12, 4);
        let m = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
        for scheme in SchemeKind::ALL {
            let base = run_scheme(scheme, &m, &a, &part, CompressKind::Crs).unwrap();
            let fast = run_scheme_with(
                scheme, &m, &a, &part, CompressKind::Crs, SchemeConfig::compact_parallel(),
            )
            .unwrap();
            prop_assert_eq!(&base.locals, &fast.locals);
            prop_assert_eq!(fast.reassemble(&part), a.clone());
        }
    }
}
