//! Failure injection through the public API: corrupted wire buffers,
//! malformed compressed arrays, bad MatrixMarket input, misconfigured
//! machines.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sparsedist::core::compress::{Ccs, CompressError, Coo, Crs};
use sparsedist::core::dense::paper_array_a;
use sparsedist::core::encode::{decode_part, encode_part};
use sparsedist::core::opcount::OpCounter;
use sparsedist::gen::matrixmarket::{self, MmError};
use sparsedist::gen::SparseRandom;
use sparsedist::multicomputer::PackBuffer;
use sparsedist::prelude::*;

#[test]
fn truncated_ed_buffer_reports_error_not_panic() {
    let a = paper_array_a();
    let part = RowBlock::new(10, 8, 4);
    let full = encode_part(&a, &part, 2, CompressKind::Crs, &mut OpCounter::new());
    // Rebuild progressively truncated buffers; every prefix must fail
    // cleanly (or, for the full buffer, succeed).
    let words = full.byte_len() / 8;
    for keep in 0..words {
        let mut t = PackBuffer::new();
        let mut cursor = full.cursor();
        for _ in 0..keep {
            t.push_u64(cursor.read_u64());
        }
        let r = decode_part(&t, &part, 2, CompressKind::Crs, &mut OpCounter::new());
        assert!(r.is_err(), "prefix of {keep}/{words} words must fail");
    }
    let ok = decode_part(&full, &part, 2, CompressKind::Crs, &mut OpCounter::new());
    assert!(ok.is_ok());
}

#[test]
fn corrupted_counts_detected() {
    let a = paper_array_a();
    let part = RowBlock::new(10, 8, 4);
    let mut buf = encode_part(&a, &part, 0, CompressKind::Crs, &mut OpCounter::new());
    buf.patch_u64(0, u64::MAX / 16).unwrap(); // absurd R_0
    let r = decode_part(&buf, &part, 0, CompressKind::Crs, &mut OpCounter::new());
    assert!(r.is_err());
}

#[test]
fn from_raw_rejects_each_invariant_violation() {
    // Pointer array too short.
    assert!(matches!(
        Crs::from_raw(3, 4, vec![0, 1], vec![0], vec![1.0]),
        Err(CompressError::PointerLength { .. })
    ));
    // Pointer does not start at zero.
    assert!(matches!(
        Crs::from_raw(1, 4, vec![1, 1], vec![], vec![]),
        Err(CompressError::PointerStart)
    ));
    // Decreasing pointer.
    assert!(matches!(
        Crs::from_raw(2, 4, vec![0, 2, 1], vec![0, 1], vec![1., 2.]),
        Err(CompressError::PointerNotMonotone { .. })
    ));
    // Index past the bound.
    assert!(matches!(
        Crs::from_raw(1, 4, vec![0, 1], vec![4], vec![1.]),
        Err(CompressError::IndexOutOfBounds { .. })
    ));
    // Unsorted within a row.
    assert!(matches!(
        Crs::from_raw(1, 4, vec![0, 2], vec![2, 1], vec![1., 2.]),
        Err(CompressError::IndicesNotSorted { .. })
    ));
    // Value/index length mismatch.
    assert!(matches!(
        Ccs::from_raw(4, 1, vec![0, 2], vec![0, 1], vec![1.]),
        Err(CompressError::LengthMismatch { .. })
    ));
}

#[test]
fn matrixmarket_rejects_malformed_documents() {
    for bad in [
        "",                                                                // empty
        "%%MatrixMarket matrix coordinate real general\n",                 // no size
        "%%MatrixMarket matrix coordinate real general\nx y z\n",          // bad size
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",     // short entry
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 5.0\n", // 0-based index
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n", // count mismatch
    ] {
        assert!(matrixmarket::parse(bad).is_err(), "should reject: {bad:?}");
    }
}

/// Seeded byte-level corruption of a valid document: inserts, overwrites
/// and deletes of separators, line breaks, non-ASCII whitespace, signs,
/// comment markers and out-of-range or non-finite literals. Every result
/// is a typed error or an array of in-bounds, finite entries.
#[test]
fn matrixmarket_survives_seeded_corruption() {
    const TOKENS: [&str; 18] = [
        "\t",
        "\x0B",
        "\r",
        "\r\n",
        "\n",
        " ",
        "\u{A0}",
        "\u{3000}",
        "é",
        "+",
        "-",
        "%",
        "1e400",
        "NaN",
        "inf",
        "0",
        "99999999999999999999",
        "x",
    ];
    let a = SparseRandom::new(64, 64)
        .sparse_ratio(0.1)
        .seed(5)
        .generate();
    let clean = matrixmarket::render(&Coo::from_dense(&a));
    let mut rng = StdRng::seed_from_u64(0x4D4D_F022);
    let mut accepted = 0;
    for case in 0..1000 {
        let mut doc = clean.clone();
        for _ in 0..rng.random_range(1..=3usize) {
            let mut at = rng.random_range(0..doc.len() + 1);
            while !doc.is_char_boundary(at) {
                at -= 1;
            }
            let next = doc[at..].chars().next().map_or(0, char::len_utf8);
            let tok = TOKENS[rng.random_range(0..TOKENS.len())];
            match rng.random_range(0..3usize) {
                0 => doc.insert_str(at, tok),
                1 => doc.replace_range(at..at + next, tok),
                _ => doc.replace_range(at..at + next, ""),
            }
        }
        match matrixmarket::parse(&doc) {
            Ok(coo) => {
                accepted += 1;
                for &(r, c, v) in coo.entries() {
                    assert!(
                        r < coo.rows() && c < coo.cols() && v.is_finite(),
                        "case {case}: entry ({r},{c},{v}) accepted"
                    );
                }
            }
            Err(MmError::Parse { .. } | MmError::Unsupported(_)) => {}
            Err(e) => panic!("case {case}: untyped failure {e}"),
        }
    }
    // Both outcomes occur, so the corpus exercises the accept path too.
    assert!((1..1000).contains(&accepted), "accepted {accepted} of 1000");
}

#[test]
fn unpack_cursor_survives_any_byte_prefix() {
    // Reading any truncated prefix via try_* never panics.
    let mut b = PackBuffer::new();
    b.push_u64_slice(&[1, 2, 3]);
    b.push_f64_slice(&[1.5, 2.5]);
    let mut cursor = b.cursor();
    let mut reads = 0;
    while cursor.try_read_u64().is_ok() {
        reads += 1;
    }
    assert_eq!(reads, 5);
    assert!(cursor.try_read_f64().is_err());
}

#[test]
#[should_panic(expected = "parts but the machine")]
fn scheme_refuses_wrong_machine_size() {
    let a = paper_array_a();
    let machine = Multicomputer::virtual_machine(3, MachineModel::ibm_sp2());
    let part = RowBlock::new(10, 8, 4);
    let _ = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs);
}

#[test]
#[should_panic(expected = "does not match the array")]
fn scheme_refuses_wrong_partition_shape() {
    let a = paper_array_a();
    let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    let part = RowBlock::new(8, 10, 4); // transposed shape
    let _ = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs);
}
