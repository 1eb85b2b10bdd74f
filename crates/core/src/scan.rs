//! The part-scan kernel: every walk over the cells of one part of a dense
//! global array.
//!
//! Every partition is *separable* (a requirement documented on
//! [`Partition`]): local cell `(lr, lc)` of part `p` is global cell
//! `(R_p(lr), C_p(lc))`. A [`PartScan`] therefore asks the partition for
//! the part's row map `R_p` and column map `C_p` once
//! ([`Partition::row_map`], [`Partition::col_map`]: ranges for block
//! partitions, at most `lrows + lcols` calls to [`Partition::to_global`]
//! otherwise) and then walks the cells in outer-major order: rows for CRS,
//! columns for CCS. Where the inner map is a range over a row of the
//! global array, the walk reads that row as one slice; otherwise it
//! gathers through the map.
//!
//! Op accounting is arithmetic. The paper charges compression and ED
//! encoding as one op per scanned cell plus three per nonzero emitted
//! (`(1 + 3s)·cells`, §3.2–3.3); [`PartScan::compress`] charges exactly
//! `cells + 3·nnz` once per part instead of ticking a counter per cell, so
//! every per-part count — and so every ledger and trace — is unchanged.

use crate::compress::{CompressKind, LocalCompressed};
use crate::dense::Dense2D;
use crate::opcount::OpCounter;
use crate::partition::{AxisMap, Partition};

/// The compressed streams of one scanned part, in the scan's outer-major
/// order: the pointer array (one entry per outer segment, plus the leading
/// 0), the **global** travelling index of each nonzero, and its value.
#[derive(Debug, Clone, Default)]
pub(crate) struct Streams {
    pub(crate) pointer: Vec<usize>,
    pub(crate) indices: Vec<usize>,
    pub(crate) values: Vec<f64>,
}

/// The cells of one outer segment: a local row (CRS order) or column (CCS
/// order) of the part, laid over the global array's row-major data.
struct Segment<'a> {
    data: &'a [f64],
    base: usize,
    stride: usize,
    inner: &'a AxisMap,
}

impl Segment<'_> {
    /// The segment as one slice of the global array, when its cells are
    /// consecutive there.
    fn as_slice(&self) -> Option<&[f64]> {
        match self.inner {
            AxisMap::Range(r) if self.stride == 1 => {
                Some(&self.data[self.base + r.start..self.base + r.end])
            }
            _ => None,
        }
    }

    /// Call `f(global inner index, value)` for every cell, in local order.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(usize, f64)) {
        match self.inner {
            AxisMap::Range(r) if self.stride == 1 => {
                let cells = &self.data[self.base + r.start..self.base + r.end];
                for (g, &v) in r.clone().zip(cells) {
                    f(g, v);
                }
            }
            AxisMap::Range(r) => {
                for g in r.clone() {
                    f(g, self.data[self.base + g * self.stride]);
                }
            }
            AxisMap::Indices(map) => {
                for &g in map {
                    f(g, self.data[self.base + g * self.stride]);
                }
            }
        }
    }
}

/// A part's separable index maps, ready to scan the global array.
#[derive(Debug, Clone)]
pub(crate) struct PartScan {
    global_shape: (usize, usize),
    rows: AxisMap,
    cols: AxisMap,
}

impl PartScan {
    /// The maps of part `pid`.
    pub(crate) fn of<P: Partition + ?Sized>(part: &P, pid: usize) -> PartScan {
        PartScan {
            global_shape: part.global_shape(),
            rows: part.row_map(pid),
            cols: part.col_map(pid),
        }
    }

    /// The identity maps of a whole `rows × cols` array.
    pub(crate) fn whole(rows: usize, cols: usize) -> PartScan {
        PartScan {
            global_shape: (rows, cols),
            rows: AxisMap::Range(0..rows),
            cols: AxisMap::Range(0..cols),
        }
    }

    /// Keep only the local rows whose global row passes `keep` (the
    /// multi-source encoder's row stripes); the others are not scanned.
    pub(crate) fn keep_rows(mut self, keep: impl Fn(usize) -> bool) -> PartScan {
        let kept = (0..self.rows.len())
            .map(|k| self.rows.get(k))
            .filter(|&gr| keep(gr));
        self.rows = AxisMap::from_indices(kept.collect());
        self
    }

    /// Number of cells the scan visits.
    pub(crate) fn cells(&self) -> usize {
        self.rows.len() * self.cols.len()
    }

    /// The outer segments of a walk in `kind`'s order.
    fn segments<'a>(
        &'a self,
        global: &'a Dense2D,
        kind: CompressKind,
    ) -> impl Iterator<Item = Segment<'a>> + 'a {
        assert_eq!(
            (global.rows(), global.cols()),
            self.global_shape,
            "scan maps built for {:?} but array is {}x{}",
            self.global_shape,
            global.rows(),
            global.cols()
        );
        let gcols = global.cols();
        let (outer, inner, outer_stride, stride) = match kind {
            CompressKind::Crs => (&self.rows, &self.cols, gcols, 1),
            CompressKind::Ccs => (&self.cols, &self.rows, 1, gcols),
        };
        let data = global.as_slice();
        (0..outer.len()).map(move |k| Segment {
            data,
            base: outer.get(k) * outer_stride,
            stride,
            inner,
        })
    }

    /// Compress the scanned cells in `kind`'s order, charging
    /// `cells + 3·nnz` ops.
    pub(crate) fn compress(
        &self,
        global: &Dense2D,
        kind: CompressKind,
        ops: &mut OpCounter,
    ) -> Streams {
        let outer = match kind {
            CompressKind::Crs => self.rows.len(),
            CompressKind::Ccs => self.cols.len(),
        };
        let mut out = Streams {
            pointer: Vec::with_capacity(outer + 1),
            ..Streams::default()
        };
        out.pointer.push(0);
        for seg in self.segments(global, kind) {
            seg.for_each(|g, v| {
                if v != 0.0 {
                    out.indices.push(g);
                    out.values.push(v);
                }
            });
            out.pointer.push(out.indices.len());
        }
        ops.add((self.cells() + 3 * out.values.len()) as u64);
        out
    }

    /// The scanned cells' values in local row-major order — the part's
    /// dense local array.
    pub(crate) fn gather(&self, global: &Dense2D) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cells());
        for seg in self.segments(global, CompressKind::Crs) {
            match seg.as_slice() {
                Some(cells) => out.extend_from_slice(cells),
                None => seg.for_each(|_, v| out.push(v)),
            }
        }
        out
    }

    /// The part's dense local array as one borrowed slice of the global
    /// array, when it is one: consecutive rows spanning every column.
    pub(crate) fn contiguous<'a>(&self, global: &'a Dense2D) -> Option<&'a [f64]> {
        let gcols = global.cols();
        match (&self.rows, &self.cols) {
            (AxisMap::Range(rows), AxisMap::Range(cols)) if *cols == (0..gcols) => {
                Some(&global.as_slice()[rows.start * gcols..rows.end * gcols])
            }
            _ => None,
        }
    }

    /// Write the nonzeros of the part's local compressed array (local
    /// indices) to their global cells in `out`.
    pub(crate) fn scatter(&self, local: &LocalCompressed, out: &mut Dense2D) {
        match local {
            LocalCompressed::Crs(crs) => {
                for lr in 0..crs.rows() {
                    let gr = self.rows.get(lr);
                    for (&lc, &v) in crs.row_cols(lr).iter().zip(crs.row_vals(lr)) {
                        out.set(gr, self.cols.get(lc), v);
                    }
                }
            }
            LocalCompressed::Ccs(ccs) => {
                for lc in 0..ccs.cols() {
                    let gc = self.cols.get(lc);
                    for (&lr, &v) in ccs.col_rows(lc).iter().zip(ccs.col_vals(lc)) {
                        out.set(self.rows.get(lr), gc, v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;
    use crate::partition::{BlockCyclic, ColBlock, RowBlock, RowCyclic};

    #[test]
    fn maps_are_ranges_where_they_can_be() {
        let row_band = PartScan::of(&RowBlock::new(10, 8, 4), 1);
        assert_eq!(row_band.rows, AxisMap::Range(3..6));
        assert_eq!(row_band.cols, AxisMap::Range(0..8));
        let cyclic = PartScan::of(&RowCyclic::new(10, 8, 4), 1);
        assert_eq!(cyclic.rows, AxisMap::Indices(vec![1, 5, 9]));
        // Default maps recognise a run: one 2-wide block of columns.
        let one_block = PartScan::of(&BlockCyclic::new(10, 2, 2, 2, 2, 1), 1);
        assert_eq!(one_block.cols, AxisMap::Range(0..2));
        let blocks = PartScan::of(&BlockCyclic::new(10, 8, 2, 2, 2, 2), 3);
        assert_eq!(blocks.cols, AxisMap::Indices(vec![2, 3, 6, 7]));
    }

    #[test]
    fn contiguous_only_for_full_width_row_bands() {
        let a = paper_array_a();
        let band = PartScan::of(&RowBlock::new(10, 8, 4), 1);
        assert_eq!(band.contiguous(&a), Some(&a.as_slice()[24..48]));
        assert_eq!(band.gather(&a), a.as_slice()[24..48].to_vec());
        assert!(PartScan::of(&ColBlock::new(10, 8, 4), 1)
            .contiguous(&a)
            .is_none());
        assert!(PartScan::of(&RowCyclic::new(10, 8, 4), 1)
            .contiguous(&a)
            .is_none());
    }

    #[test]
    fn keep_rows_filters_the_row_map() {
        let a = paper_array_a();
        let mut ops = OpCounter::new();
        let scan = PartScan::of(&RowBlock::new(10, 8, 2), 1).keep_rows(|gr| gr % 2 == 0);
        assert_eq!(scan.rows, AxisMap::Indices(vec![6, 8]));
        let s = scan.compress(&a, CompressKind::Crs, &mut ops);
        // Row 6 holds 8@6; row 8 holds 11@1, 12@2, 13@4.
        assert_eq!(s.pointer, vec![0, 1, 4]);
        assert_eq!(s.indices, vec![6, 1, 2, 4]);
        assert_eq!(ops.get(), 16 + 3 * 4);
    }
}
