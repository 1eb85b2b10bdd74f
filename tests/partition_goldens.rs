//! Byte-pinned behaviour of the six block and cyclic partition types.
//!
//! For every case the golden records the partition's name, part count,
//! split flags and row contiguity; each part's local shape and row and
//! column maps; and, for every global cell, its owner, its local
//! coordinates, the round trip back to global coordinates and the
//! per-axis conversions. The shapes cover one part, more parts than rows
//! or columns, `1 × p` and `p × 1` grids, uneven tails and a block-cyclic
//! grid row with no rows. The fixture lives in
//! `tests/goldens/partitions.txt`; regenerate it after an intentional
//! change with `UPDATE_GOLDENS=1 cargo test --test partition_goldens` and
//! review the diff.

use sparsedist::prelude::*;
use std::fmt::Write as _;

/// Every case: a title and the partition it pins.
fn cases() -> Vec<(String, Box<dyn Partition>)> {
    let mut out: Vec<(String, Box<dyn Partition>)> = Vec::new();
    for (rows, cols, p) in [(10, 8, 4), (5, 5, 1), (3, 4, 5), (9, 4, 4), (7, 3, 3)] {
        out.push((
            format!("RowBlock::new({rows}, {cols}, {p})"),
            Box::new(RowBlock::new(rows, cols, p)),
        ));
    }
    for (rows, cols, p) in [(10, 8, 4), (5, 5, 1), (4, 3, 5), (4, 9, 4)] {
        out.push((
            format!("ColBlock::new({rows}, {cols}, {p})"),
            Box::new(ColBlock::new(rows, cols, p)),
        ));
    }
    for (rows, cols, pr, pc) in [
        (10, 8, 2, 2),
        (9, 7, 4, 2),
        (6, 6, 1, 3),
        (6, 5, 3, 1),
        (3, 5, 4, 2),
        (5, 5, 1, 1),
    ] {
        out.push((
            format!("Mesh2D::new({rows}, {cols}, {pr}, {pc})"),
            Box::new(Mesh2D::new(rows, cols, pr, pc)),
        ));
    }
    for (rows, cols, p) in [(10, 8, 4), (5, 5, 1), (3, 3, 5), (7, 3, 3)] {
        out.push((
            format!("RowCyclic::new({rows}, {cols}, {p})"),
            Box::new(RowCyclic::new(rows, cols, p)),
        ));
    }
    for (rows, cols, p) in [(10, 8, 4), (5, 5, 1), (3, 3, 5), (4, 9, 4)] {
        out.push((
            format!("ColCyclic::new({rows}, {cols}, {p})"),
            Box::new(ColCyclic::new(rows, cols, p)),
        ));
    }
    for (rows, cols, br, bc, pr, pc) in [
        (10, 8, 2, 2, 2, 2),
        (12, 12, 3, 2, 2, 3),
        (9, 7, 2, 3, 4, 2),
        (6, 6, 1, 1, 2, 2),
        (8, 8, 8, 8, 2, 2),
        (3, 7, 2, 2, 3, 2),
        (6, 6, 1, 1, 1, 3),
        (5, 5, 2, 2, 1, 1),
    ] {
        out.push((
            format!("BlockCyclic::new({rows}, {cols}, {br}, {bc}, {pr}, {pc})"),
            Box::new(BlockCyclic::new(rows, cols, br, bc, pr, pc)),
        ));
    }
    out
}

/// The golden text of one partition.
fn describe(out: &mut String, title: &str, part: &dyn Partition) {
    writeln!(out, "== {title}").unwrap();
    writeln!(
        out,
        "name {} nparts {} splits_rows {} splits_cols {} row_contiguous {}",
        part.name(),
        part.nparts(),
        part.splits_rows(),
        part.splits_cols(),
        part.row_contiguous()
    )
    .unwrap();
    for pid in 0..part.nparts() {
        writeln!(
            out,
            "part {pid}: local_shape {:?} row_map {:?} col_map {:?}",
            part.local_shape(pid),
            part.row_map(pid),
            part.col_map(pid)
        )
        .unwrap();
    }
    let (rows, cols) = part.global_shape();
    for r in 0..rows {
        for c in 0..cols {
            let (pid, lr, lc) = part.to_local(r, c);
            writeln!(
                out,
                "cell ({r}, {c}): owner {} to_local {:?} to_global {:?} \
                 row_to_local {} col_to_local {}",
                part.owner_of(r, c),
                (pid, lr, lc),
                part.to_global(pid, lr, lc),
                part.row_to_local(pid, r),
                part.col_to_local(pid, c)
            )
            .unwrap();
        }
    }
}

#[test]
fn partitions_match_golden() {
    let mut text = String::new();
    for (title, part) in cases() {
        describe(&mut text, &title, part.as_ref());
    }
    let path = format!(
        "{}/tests/goldens/partitions.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}; run with UPDATE_GOLDENS=1 to create it"));
    assert!(golden.contains("cell (0, 0)"), "golden pins no cell");
    assert_eq!(
        text, golden,
        "partition behaviour drifted from its golden; if the change is \
         intentional rerun with UPDATE_GOLDENS=1 and review the diff"
    );
}
