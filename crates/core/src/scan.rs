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
//! global array, the walk reads that row as one slice; otherwise it reads
//! through the map. Compression takes the cells 64 at a time, skips an
//! all-zero chunk and visits the others' nonzeros through a bit mask, so no
//! cell costs a branch. A scan reads its cells from one of two [`Cells`]
//! sources: `f64`s in memory, or the little-endian bytes of a v1 SFC
//! payload ([`LeBytes`]), which a receiver compresses without copying them
//! out first.
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
use std::ops::Range;

/// The compressed streams of one scanned part, in the scan's outer-major
/// order: the pointer array (one entry per outer segment, plus the leading
/// 0), the **global** travelling index of each nonzero, and its value.
#[derive(Debug, Clone, Default)]
pub(crate) struct Streams {
    pub(crate) pointer: Vec<usize>,
    pub(crate) indices: Vec<usize>,
    pub(crate) values: Vec<f64>,
}

/// Cells per chunk of a segment walk: one bit each in the nonzero mask.
const CHUNK: usize = 64;

/// Row-major cells a scan reads, by index.
pub(crate) trait Cells: Copy {
    /// Number of cells.
    fn len(self) -> usize;

    /// Cell `i`.
    fn at(self, i: usize) -> f64;

    /// Cells `range`, as a source of their own.
    fn slice(self, range: Range<usize>) -> Self;

    /// The cells [`CHUNK`] at a time, the last chunk possibly shorter.
    fn chunks(self) -> impl Iterator<Item = Self>;

    /// Whether any cell is nonzero, by the exact `v != 0.0` test; one
    /// branch for the whole source, not one per cell.
    fn any_nonzero(self) -> bool;
}

impl Cells for &[f64] {
    #[inline]
    fn len(self) -> usize {
        <[f64]>::len(self)
    }

    #[inline]
    fn at(self, i: usize) -> f64 {
        self[i]
    }

    #[inline]
    fn slice(self, range: Range<usize>) -> Self {
        &self[range]
    }

    #[inline]
    fn chunks(self) -> impl Iterator<Item = Self> {
        <[f64]>::chunks(self, CHUNK)
    }

    #[inline]
    fn any_nonzero(self) -> bool {
        self.iter().fold(false, |any, &v| any | (v != 0.0))
    }
}

/// Cells as consecutive little-endian `f64` bytes: a v1 value stream as
/// it arrives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeBytes<'a>(pub(crate) &'a [u8]);

/// The `f64` whose little-endian bytes are `b`, which holds exactly eight.
#[inline]
fn le_f64(b: &[u8]) -> f64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(b);
    f64::from_le_bytes(w)
}

impl Cells for LeBytes<'_> {
    #[inline]
    fn len(self) -> usize {
        self.0.len() / 8
    }

    #[inline]
    fn at(self, i: usize) -> f64 {
        le_f64(&self.0[8 * i..8 * i + 8])
    }

    #[inline]
    fn slice(self, range: Range<usize>) -> Self {
        LeBytes(&self.0[8 * range.start..8 * range.end])
    }

    #[inline]
    fn chunks(self) -> impl Iterator<Item = Self> {
        self.0.chunks(8 * CHUNK).map(LeBytes)
    }

    #[inline]
    fn any_nonzero(self) -> bool {
        self.0
            .chunks_exact(8)
            .fold(false, |any, b| any | (le_f64(b) != 0.0))
    }
}

/// What a segment walk does with each chunk of at most [`CHUNK`] cells
/// read from a `C` source.
trait ChunkSink<C> {
    /// Take the `len` cells whose values are `cell(0..len)` and whose
    /// global inner indices are `global(0..len)`.
    fn chunk(&mut self, len: usize, cell: impl Fn(usize) -> f64, global: impl Fn(usize) -> usize);

    /// Take consecutive `cells` at global inner indices `start..`.
    fn run(&mut self, start: usize, cells: C);
}

/// Compaction: keep the nonzeros, in order, with their global indices.
impl<C: Cells> ChunkSink<C> for Streams {
    #[inline]
    fn chunk(&mut self, len: usize, cell: impl Fn(usize) -> f64, global: impl Fn(usize) -> usize) {
        // Branch-free per cell: bit j is set when cell j is nonzero, and an
        // all-zero chunk costs one test of the mask.
        let mut mask = (0..len).fold(0u64, |m, j| m | (u64::from(cell(j) != 0.0) << j));
        while mask != 0 {
            // lint: allow(W002) — a bit position of a u64, below 64
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            // One push per nonzero: the streams grow exactly as a per-cell
            // walk would grow them.
            self.indices.push(global(j));
            self.values.push(cell(j));
        }
    }

    #[inline]
    fn run(&mut self, start: usize, cells: C) {
        for (k, chunk) in (start..).step_by(CHUNK).zip(cells.chunks()) {
            // A vectorised OR over the chunk skips it before the mask is built.
            if chunk.any_nonzero() {
                ChunkSink::<C>::chunk(self, chunk.len(), |j| chunk.at(j), |j| k + j);
            }
        }
    }
}

/// Gathering: keep every cell.
impl ChunkSink<&[f64]> for Vec<f64> {
    #[inline]
    fn chunk(&mut self, len: usize, cell: impl Fn(usize) -> f64, _: impl Fn(usize) -> usize) {
        self.extend((0..len).map(cell));
    }

    #[inline]
    fn run(&mut self, _: usize, cells: &[f64]) {
        self.extend_from_slice(cells);
    }
}

/// The cells of one outer segment: a local row (CRS order) or column (CCS
/// order) of the part, laid over the global array's row-major cells.
struct Segment<'a, C> {
    data: C,
    base: usize,
    stride: usize,
    inner: &'a AxisMap,
}

impl<C: Cells> Segment<'_, C> {
    /// Hand the segment's cells to `sink` in local order, dispatching on
    /// the map once: a contiguous segment whole, as one run of the global
    /// cells; a strided or mapped one [`CHUNK`] cells at a time, read in
    /// place through the map (a copy into a buffer costs a store per cell).
    #[inline]
    fn walk(&self, sink: &mut impl ChunkSink<C>) {
        let (data, base, stride) = (self.data, self.base, self.stride);
        match self.inner {
            AxisMap::Range(r) if stride == 1 => {
                sink.run(r.start, data.slice(base + r.start..base + r.end))
            }
            AxisMap::Range(r) => {
                for k in r.clone().step_by(CHUNK) {
                    let len = CHUNK.min(r.end - k);
                    sink.chunk(len, |j| data.at(base + (k + j) * stride), |j| k + j);
                }
            }
            AxisMap::Indices(map) => {
                for chunk in map.chunks(CHUNK) {
                    let cell = |j: usize| data.at(base + chunk[j] * stride);
                    sink.chunk(chunk.len(), cell, |j| chunk[j]);
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

    /// Number of cells the scan visits.
    pub(crate) fn cells(&self) -> usize {
        self.rows.len() * self.cols.len()
    }

    /// Assert that the maps were built for a `rows × cols` array.
    fn check_shape(&self, rows: usize, cols: usize) {
        assert_eq!(
            (rows, cols),
            self.global_shape,
            "scan maps built for {:?} but array is {rows}x{cols}",
            self.global_shape,
        );
    }

    /// The outer segments of a walk in `kind`'s order over the global
    /// array's row-major `data`.
    fn segments<'a, C: Cells + 'a>(
        &'a self,
        data: C,
        kind: CompressKind,
    ) -> impl Iterator<Item = Segment<'a, C>> + 'a {
        let gcols = self.global_shape.1;
        assert_eq!(
            data.len(),
            self.global_shape.0 * gcols,
            "scan maps built for {:?} but the array has {} cells",
            self.global_shape,
            data.len()
        );
        let (outer, inner, outer_stride, stride) = match kind {
            CompressKind::Crs => (&self.rows, &self.cols, gcols, 1),
            CompressKind::Ccs => (&self.cols, &self.rows, 1, gcols),
        };
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
        self.check_shape(global.rows(), global.cols());
        self.compress_cells(global.as_slice(), kind, ops)
    }

    /// [`PartScan::compress`] over the global array's row-major `cells`.
    pub(crate) fn compress_cells(
        &self,
        cells: impl Cells,
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
        for seg in self.segments(cells, kind) {
            seg.walk(&mut out);
            out.pointer.push(out.indices.len());
        }
        ops.add((self.cells() + 3 * out.values.len()) as u64);
        out
    }

    /// The scanned cells' values in local row-major order — the part's
    /// dense local array.
    pub(crate) fn gather(&self, global: &Dense2D) -> Vec<f64> {
        self.check_shape(global.rows(), global.cols());
        let mut out = Vec::with_capacity(self.cells());
        for seg in self.segments(global.as_slice(), CompressKind::Crs) {
            seg.walk(&mut out);
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
    /// indices) to their global cells in `out`: a CRS row through one row
    /// slice of `out`, a CCS column by stepping down `out`'s rows.
    pub(crate) fn scatter(&self, local: &LocalCompressed, out: &mut Dense2D) {
        self.check_shape(out.rows(), out.cols());
        // The local's indices are below its shape, so below the maps' lengths.
        assert_eq!(
            local.shape(),
            (self.rows.len(), self.cols.len()),
            "local array does not match the part's maps"
        );
        let gcols = out.cols();
        let data = out.as_mut_slice();
        match local {
            LocalCompressed::Crs(crs) => {
                for lr in 0..crs.rows() {
                    let gr = self.rows.get(lr);
                    let row = &mut data[gr * gcols..(gr + 1) * gcols];
                    let (lcs, vals) = crs.segment(lr);
                    let cells = lcs.iter().zip(vals);
                    match &self.cols {
                        AxisMap::Range(r) => {
                            let row = &mut row[r.clone()];
                            cells.for_each(|(&lc, &v)| row[lc] = v);
                        }
                        AxisMap::Indices(map) => cells.for_each(|(&lc, &v)| row[map[lc]] = v),
                    }
                }
            }
            LocalCompressed::Ccs(ccs) => {
                for lc in 0..ccs.cols() {
                    let col = &mut data[self.cols.get(lc)..];
                    let (lrs, vals) = ccs.segment(lc);
                    let cells = lrs.iter().zip(vals);
                    match &self.rows {
                        AxisMap::Range(r) => {
                            cells.for_each(|(&lr, &v)| col[(r.start + lr) * gcols] = v);
                        }
                        AxisMap::Indices(map) => {
                            cells.for_each(|(&lr, &v)| col[map[lr] * gcols] = v);
                        }
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
}
