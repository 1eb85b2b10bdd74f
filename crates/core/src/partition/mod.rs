//! Data partition methods (phase 1 of every distribution scheme).
//!
//! The paper evaluates three partition methods — **row** `(Block, *)`,
//! **column** `(*, Block)` and **2-D mesh** `(Block, Block)` in Fortran 90
//! notation — and notes (§1) that the schemes work with any partition,
//! block or cyclic. Every such method is one [`Grid`]: a row axis map times
//! a column axis map, each axis block, cyclic or unsplit. Six named kinds
//! cover the three block methods the paper measures plus cyclic and
//! block-cyclic extensions (the latter matches the Block Row Scatter
//! distribution of the paper's related work). The structure-aware
//! [`BalancedRows`] partitions, after Ziantz et al.'s bin-packing
//! optimisation, are the one irregular row map.
//!
//! Block sizes follow the paper exactly: a row partition of an `m × n`
//! array over `p` processors gives each processor a `⌈m/p⌉ × n` local
//! array, with the final processor(s) taking whatever remains (possibly
//! fewer rows, possibly none).

mod balanced;
mod grid;

pub use balanced::BalancedRows;
pub use grid::{
    BlockCyc, BlockCyclic, Col, ColBlock, ColCyc, ColCyclic, Grid, GridKind, Mesh, Mesh2D,
    PartitionError, Row, RowBlock, RowCyc, RowCyclic,
};

use crate::dense::Dense2D;
use crate::scan::PartScan;
use std::ops::Range;

/// A mapping of a global `rows × cols` array onto `p` local arrays.
///
/// Implementations must be pure functions of their parameters: the same
/// `(part, lr, lc)` always maps to the same global cell, every global cell
/// is owned by exactly one part, and `to_local`/`to_global` are inverse to
/// each other.
///
/// They must also be **separable**: a local row maps to one global row
/// and a local column to one global column, independently of each other,
/// i.e. `to_global(p, lr, lc) == (to_global(p, lr, 0).0,
/// to_global(p, 0, lc).1)`. The dense scans (compression, ED encoding,
/// extraction, reassembly) rely on it: they look up each part's row and
/// column maps once instead of calling `to_global` per cell. [`Grid`] is
/// separable by construction; the property tests in this module's
/// submodules check the laws for every implementation.
pub trait Partition: std::fmt::Debug {
    /// Human-readable method name (e.g. `"row"`).
    fn name(&self) -> &'static str;

    /// Number of parts (= processors).
    fn nparts(&self) -> usize;

    /// Global array shape `(rows, cols)`.
    fn global_shape(&self) -> (usize, usize);

    /// Local array shape of `part`.
    fn local_shape(&self, part: usize) -> (usize, usize);

    /// Which part owns global cell `(r, c)`.
    fn owner_of(&self, r: usize, c: usize) -> usize;

    /// Map a global cell to `(part, local_row, local_col)`.
    fn to_local(&self, r: usize, c: usize) -> (usize, usize, usize);

    /// Map a local cell of `part` back to global coordinates.
    fn to_global(&self, part: usize, lr: usize, lc: usize) -> (usize, usize);

    /// True if different parts own different global rows.
    ///
    /// Determines whether *row* indices travelling in a CCS stream need
    /// conversion at the receiver (the paper's Cases 3.2.2/3.3.2 for the
    /// row partition, 3.2.3/3.3.3 for the mesh).
    fn splits_rows(&self) -> bool;

    /// True if different parts own different global columns (the CRS
    /// analogue of [`Partition::splits_rows`]).
    fn splits_cols(&self) -> bool;

    /// `part`'s row map: the global row of each local row (`R_p` in the
    /// separability law above).
    ///
    /// The default asks [`Partition::to_global`] once per local row;
    /// partitions whose rows form a range return it directly.
    fn row_map(&self, part: usize) -> AxisMap {
        let (lrows, _) = self.local_shape(part);
        AxisMap::from_indices((0..lrows).map(|lr| self.to_global(part, lr, 0).0).collect())
    }

    /// `part`'s column map: the global column of each local column (`C_p`).
    ///
    /// The default asks [`Partition::to_global`] once per local column. A
    /// part without rows has no cell to ask about, so the default maps its
    /// columns to `0..lcols`: right for a row partition, whose parts span
    /// every column. A partition whose row-less parts own other columns
    /// overrides it.
    fn col_map(&self, part: usize) -> AxisMap {
        let (lrows, lcols) = self.local_shape(part);
        if lrows == 0 {
            return AxisMap::Range(0..lcols);
        }
        AxisMap::from_indices((0..lcols).map(|lc| self.to_global(part, 0, lc).1).collect())
    }

    /// Convert a global row index to `part`'s local row index.
    ///
    /// Only meaningful for rows actually owned by `part`.
    fn row_to_local(&self, part: usize, gr: usize) -> usize;

    /// Convert a global column index to `part`'s local column index.
    fn col_to_local(&self, part: usize, gc: usize) -> usize;

    /// True if every part's cells form one contiguous row-major run of the
    /// global array (only the row block partition). The SFC scheme sends
    /// such parts "without packing into buffers" (§4.1.1), i.e. at zero
    /// per-element CPU cost.
    fn row_contiguous(&self) -> bool;

    /// Copy `part`'s local array out of the global array.
    fn extract_dense(&self, global: &Dense2D, part: usize) -> Dense2D {
        let (gr, gc) = self.global_shape();
        assert_eq!(
            (global.rows(), global.cols()),
            (gr, gc),
            "partition built for {gr}x{gc} but array is {}x{}",
            global.rows(),
            global.cols()
        );
        let (lr, lc) = self.local_shape(part);
        Dense2D::from_vec(lr, lc, PartScan::of(self, part).gather(global))
    }

    /// Number of nonzero elements each part owns, and the paper's `s'`
    /// (the largest local sparse ratio, over non-empty parts).
    fn nnz_profile(&self, global: &Dense2D) -> NnzProfile {
        let mut per_part = vec![0usize; self.nparts()];
        for (r, c, _) in global.iter_nonzero() {
            per_part[self.owner_of(r, c)] += 1;
        }
        let mut s_max = 0.0f64;
        for (part, &nnz) in per_part.iter().enumerate() {
            let (lr, lc) = self.local_shape(part);
            if lr * lc > 0 {
                s_max = s_max.max(nnz as f64 / (lr * lc) as f64);
            }
        }
        NnzProfile { per_part, s_max }
    }
}

/// One axis of a part's separable index map: the global index of each
/// local row ([`Partition::row_map`]) or column ([`Partition::col_map`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxisMap {
    /// Local index `k` is global index `range.start + k`.
    Range(Range<usize>),
    /// Local index `k` is global index `indices[k]`.
    Indices(Vec<usize>),
}

impl AxisMap {
    /// The map of explicit `indices`, recognised as a range when they are
    /// consecutive.
    pub fn from_indices(indices: Vec<usize>) -> AxisMap {
        let first = indices.first().copied().unwrap_or(0);
        if indices.iter().enumerate().all(|(k, &g)| g == first + k) {
            AxisMap::Range(first..first + indices.len())
        } else {
            AxisMap::Indices(indices)
        }
    }

    /// Number of local indices mapped.
    pub fn len(&self) -> usize {
        match self {
            AxisMap::Range(r) => r.len(),
            AxisMap::Indices(v) => v.len(),
        }
    }

    /// True if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The global index of local index `k`.
    ///
    /// # Panics
    /// Panics if `k` is out of the map.
    #[inline]
    pub fn get(&self, k: usize) -> usize {
        match self {
            AxisMap::Range(r) => {
                assert!(k < r.len(), "local index {k} out of {}", r.len());
                r.start + k
            }
            AxisMap::Indices(v) => v[k],
        }
    }
}

/// Per-part nonzero counts (see [`Partition::nnz_profile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NnzProfile {
    /// Nonzeros owned by each part.
    pub per_part: Vec<usize>,
    /// The paper's `s'`: the largest local sparse ratio.
    pub s_max: f64,
}

#[cfg(test)]
pub(crate) mod lawtests {
    //! Reusable law-checking helpers shared by the partition submodules'
    //! tests.
    use super::*;

    /// Check the core partition laws on an exhaustive sweep of the global
    /// index space.
    pub fn check_laws(p: &dyn Partition) {
        let (rows, cols) = p.global_shape();
        let maps: Vec<(AxisMap, AxisMap)> = (0..p.nparts())
            .map(|part| (p.row_map(part), p.col_map(part)))
            .collect();
        for (part, (rmap, cmap)) in maps.iter().enumerate() {
            assert_eq!(
                (rmap.len(), cmap.len()),
                p.local_shape(part),
                "part {part} map lengths"
            );
            // Each map inverts its axis's conversion, also on a part with
            // no cells, which the sweep below never visits.
            for k in 0..rmap.len() {
                assert_eq!(
                    p.row_to_local(part, rmap.get(k)),
                    k,
                    "part {part} row_map[{k}]"
                );
            }
            for k in 0..cmap.len() {
                assert_eq!(
                    p.col_to_local(part, cmap.get(k)),
                    k,
                    "part {part} col_map[{k}]"
                );
            }
        }
        // Every global cell maps to exactly one (part, lr, lc) and back.
        let mut seen = vec![0usize; p.nparts()];
        for r in 0..rows {
            for c in 0..cols {
                let (part, lr, lc) = p.to_local(r, c);
                assert_eq!(
                    part,
                    p.owner_of(r, c),
                    "to_local/owner_of disagree at ({r},{c})"
                );
                let (lr_max, lc_max) = p.local_shape(part);
                assert!(lr < lr_max && lc < lc_max, "local index out of local shape");
                assert_eq!(
                    p.to_global(part, lr, lc),
                    (r, c),
                    "round trip failed at ({r},{c})"
                );
                assert_eq!(
                    (p.to_global(part, lr, 0).0, p.to_global(part, 0, lc).1),
                    (r, c),
                    "row/column maps are not separable at ({r},{c})"
                );
                assert_eq!(
                    (maps[part].0.get(lr), maps[part].1.get(lc)),
                    (r, c),
                    "row_map/col_map disagree with to_global at ({r},{c})"
                );
                assert_eq!(
                    p.row_to_local(part, r),
                    lr,
                    "row_to_local inconsistent at ({r},{c})"
                );
                assert_eq!(
                    p.col_to_local(part, c),
                    lc,
                    "col_to_local inconsistent at ({r},{c})"
                );
                seen[part] += 1;
            }
        }
        // Local shapes account for every cell exactly once.
        let mut total = 0usize;
        for (part, &seen_cells) in seen.iter().enumerate() {
            let (lr, lc) = p.local_shape(part);
            assert_eq!(
                seen_cells,
                lr * lc,
                "part {part} shape does not match owned cells"
            );
            total += lr * lc;
        }
        assert_eq!(total, rows * cols, "parts must tile the global array");
    }
}
