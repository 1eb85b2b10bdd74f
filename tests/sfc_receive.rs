//! What an SFC receiver keeps of its dense local array.
//!
//! SFC ships each part dense and the receiver compresses it after arrival
//! (paper §3.1). Whatever path the receive step takes from the wire bytes
//! to the compressed local, the result must be exactly
//! `compress_dense` of the part's extracted dense local array: the same
//! pointer, indices and value bits, and the same per-part op counts
//! (`Unpack`: one op per cell unless the partition is row-contiguous;
//! `Compress`: one op per cell plus three per nonzero). The inputs carry
//! the cells a compaction kernel can get wrong: `-0.0` (dropped, since
//! `-0.0 == 0.0`), NaN (kept, since `NaN != 0.0`), subnormals (kept), a
//! whole 64-cell chunk of zeros, widths that are not a multiple of 64, and
//! parts with no rows or no columns.

use sparsedist::core::compress::compress_dense;
use sparsedist::core::opcount::OpCounter;
use sparsedist::multicomputer::{MemorySink, RankTrace};
use sparsedist::prelude::*;
use std::sync::Arc;

/// A `rows × cols` array of mostly zeros salted with the awkward cells.
/// Row 1 (when there is one) starts with at least one all-zero 64-cell
/// chunk whenever `cols > 64`.
fn awkward(rows: usize, cols: usize) -> Dense2D {
    let specials = [
        -0.0,
        f64::NAN,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 4.0,
        -f64::from_bits(3),
        1.5,
        -2.25,
        f64::MAX,
        f64::NEG_INFINITY,
    ];
    let data = (0..rows * cols)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            if r == 1 && c < 64.min(cols) {
                return if c % 5 == 0 { -0.0 } else { 0.0 };
            }
            match (i * 7 + r) % 11 {
                0..=4 => specials[(i * 13 + c) % specials.len()],
                5 => -0.0,
                _ => 0.0,
            }
        })
        .collect();
    Dense2D::from_vec(rows, cols, data)
}

/// A compressed local array's kind, shape, pointer, indices and value bits.
type Bits = (
    CompressKind,
    (usize, usize),
    Vec<usize>,
    Vec<usize>,
    Vec<u64>,
);

/// A compressed local array by its structure and value *bits*, so NaN and
/// the sign of zero compare exactly.
fn bits(local: &LocalCompressed) -> Bits {
    (
        local.kind(),
        local.shape(),
        local.pointer().to_vec(),
        local.indices().to_vec(),
        local.values().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Ops traced on `rank` under `phase` for part `pid`'s sub-span.
fn part_ops(traces: &[RankTrace], rank: usize, phase: Phase, pid: usize) -> u64 {
    let label = format!("part{pid}");
    traces[rank]
        .spans
        .iter()
        .filter(|s| s.phase == phase && s.label == label)
        .map(|s| s.ops)
        .sum()
}

/// Every partition family SFC can run on, over `a` at `p` parts: row and
/// column blocks, both cyclics, a mesh and a block-cyclic grid whose last
/// grid rows own no rows when `a` is short.
fn partitions(a: &Dense2D, p: usize) -> Vec<Box<dyn Partition>> {
    let (rows, cols) = (a.rows(), a.cols());
    vec![
        Box::new(RowBlock::new(rows, cols, p)),
        Box::new(ColBlock::new(rows, cols, p)),
        Box::new(RowCyclic::new(rows, cols, p)),
        Box::new(ColCyclic::new(rows, cols, p)),
        Box::new(Mesh2D::new(rows, cols, p / 2, 2)),
        Box::new(BlockCyclic::new(rows, cols, 2, 3, p / 2, 2)),
    ]
}

/// Every wire policy an SFC sender can use: v1, and v3 with raw values
/// behind its header and with byte-plane values.
fn configs() -> Vec<SchemeConfig> {
    let mut out = vec![SchemeConfig::default()];
    for codec in [CodecChoice::Raw, CodecChoice::Packed] {
        out.push(SchemeConfig {
            wire: WireFormat::V3,
            codec,
            ..SchemeConfig::default()
        });
    }
    out
}

fn check(a: &Dense2D, p: usize) {
    for part in partitions(a, p) {
        let part = part.as_ref();
        let name = part.name();
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            for config in configs() {
                let sink = Arc::new(MemorySink::new());
                let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
                    .with_trace_sink(sink.clone());
                let run =
                    run_scheme_with(SchemeKind::Sfc, &machine, a, part, kind, config).unwrap();
                let traces = sink.take();
                let tag = format!("{name} {kind} {} {}", config.wire, config.codec);
                for pid in 0..p {
                    let dense = part.extract_dense(a, pid);
                    let mut ops = OpCounter::new();
                    let want = compress_dense(kind, &dense, &mut ops);
                    assert_eq!(bits(&run.locals[pid]), bits(&want), "{tag} part {pid}");
                    // The kernel keeps exactly the cells that are `!= 0.0`.
                    let kept = dense.as_slice().iter().filter(|&&v| v != 0.0).count();
                    assert_eq!(want.nnz(), kept, "{tag} part {pid} nnz");
                    let owner = run.owners[pid];
                    assert_eq!(
                        part_ops(&traces, owner, Phase::Compress, pid),
                        ops.get(),
                        "{tag} part {pid} compress ops"
                    );
                    let cells = (dense.rows() * dense.cols()) as u64;
                    let unpack = if part.row_contiguous() { 0 } else { cells };
                    assert_eq!(
                        part_ops(&traces, owner, Phase::Unpack, pid),
                        unpack,
                        "{tag} part {pid} unpack ops"
                    );
                }
            }
        }
    }
}

#[test]
fn the_fixture_holds_every_awkward_cell() {
    let a = awkward(6, 130);
    let cells = a.as_slice();
    assert!(cells.iter().any(|v| v.is_nan()));
    assert!(cells.iter().any(|v| *v == 0.0 && v.is_sign_negative()));
    assert!(cells.iter().any(|v| v.is_subnormal()));
    assert!(cells[130..194].iter().all(|&v| v == 0.0));
    assert!(cells[130..194].iter().any(|v| v.is_sign_negative()));
}

#[test]
fn wide_parts_keep_what_compress_dense_keeps() {
    // 130 columns: three chunks per full row, the last one short; with 6
    // rows at 8 parts, row blocks and the block-cyclic grid leave parts
    // without rows.
    check(&awkward(6, 130), 8);
}

#[test]
fn tall_parts_keep_what_compress_dense_keeps() {
    // 70 rows: a CCS column spans two chunks; 3 columns at 8 parts leave
    // column blocks and cyclics with parts that have no columns.
    check(&awkward(70, 3), 8);
}

#[test]
fn odd_widths_keep_what_compress_dense_keeps() {
    check(&awkward(9, 65), 4);
    check(&awkward(3, 1), 2);
}
