//! Compressed Row Storage (CRS).

use super::{validate_layout, CompressError, CompressKind};
use crate::dense::Dense2D;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::scan::{PartScan, Streams};

/// A sparse array in Compressed Row Storage.
///
/// `ro` (the paper's `RO`) has `rows + 1` entries, starting at 0; row `r`'s
/// nonzeros occupy `co[ro[r]..ro[r+1]]` (column indices, the paper's `CO`)
/// and `vl[ro[r]..ro[r+1]]` (values, the paper's `VL`). Column indices are
/// strictly increasing within a row.
///
/// `cols` is the *index bound* for `co`: after CFS compression at the
/// source it is the global column count (the paper stores **global**
/// indices in `CO` before distribution, §3.2), and after index conversion
/// at a receiver it is the local column count.
#[derive(Debug, Clone, PartialEq)]
pub struct Crs {
    rows: usize,
    cols: usize,
    ro: Vec<usize>,
    co: Vec<usize>,
    vl: Vec<f64>,
}

impl Crs {
    /// Compress a dense array, counting 1 op per cell scanned plus 3 ops
    /// per nonzero emitted — the paper's `(1 + 3s)·cells` compression cost.
    pub fn from_dense(a: &Dense2D, ops: &mut OpCounter) -> Crs {
        let s = PartScan::whole(a.rows(), a.cols()).compress(a, CompressKind::Crs, ops);
        Crs::from_streams(a.rows(), a.cols(), s)
    }

    /// Compress one part of a partitioned global array directly from the
    /// global array, storing **global** column indices in `co` — the CFS
    /// source-side compression of §3.2. Op counting matches
    /// [`Crs::from_dense`] over the part's cells, so compressing every part
    /// costs `(1 + 3s)·n²` total, the paper's CFS `T_Compression`.
    pub fn from_part_global(
        global: &Dense2D,
        part: &dyn Partition,
        pid: usize,
        ops: &mut OpCounter,
    ) -> Crs {
        let (lrows, _) = part.local_shape(pid);
        let (_, gcols) = part.global_shape();
        let s = PartScan::of(part, pid).compress(global, CompressKind::Crs, ops);
        Crs::from_streams(lrows, gcols, s)
    }

    pub(super) fn from_streams(rows: usize, cols: usize, s: Streams) -> Crs {
        Crs {
            rows,
            cols,
            ro: s.pointer,
            co: s.indices,
            vl: s.values,
        }
    }

    /// Build from unsorted `(row, col, value)` triplets by counting sort,
    /// charging one op per element touched per pass (count, place,
    /// within-row ordering). Used by the gather and redistribution paths,
    /// where nonzeros arrive from many processors in arrival order.
    ///
    /// # Panics
    /// Panics if a triplet is out of bounds or duplicated (callers own the
    /// no-duplicates guarantee: every global cell has exactly one owner).
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        trips: &[(usize, usize, f64)],
        ops: &mut OpCounter,
    ) -> Crs {
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in trips {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of {rows}x{cols}"
            );
            counts[r + 1] += 1;
            ops.tick();
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
            ops.tick();
        }
        let ro = counts.clone();
        let mut placed: Vec<(usize, f64)> = vec![(0, 0.0); trips.len()];
        let mut cursor = ro.clone();
        for &(r, c, v) in trips {
            placed[cursor[r]] = (c, v);
            cursor[r] += 1;
            ops.tick();
        }
        for r in 0..rows {
            let run = &mut placed[ro[r]..ro[r + 1]];
            run.sort_unstable_by_key(|&(c, _)| c);
            ops.add(run.len() as u64);
            assert!(
                run.windows(2).all(|w| w[0].0 < w[1].0),
                "duplicate column in row {r}"
            );
        }
        let co = placed.iter().map(|&(c, _)| c).collect();
        let vl = placed.iter().map(|&(_, v)| v).collect();
        Crs {
            rows,
            cols,
            ro,
            co,
            vl,
        }
    }

    /// Assemble from raw arrays, validating every structural invariant
    /// (the receiver-side constructor; a truncated or corrupted message
    /// surfaces here).
    pub fn from_raw(
        rows: usize,
        cols: usize,
        ro: Vec<usize>,
        co: Vec<usize>,
        vl: Vec<f64>,
    ) -> Result<Crs, CompressError> {
        validate_layout(&ro, &co, &vl, rows, cols)?;
        Ok(Crs {
            rows,
            cols,
            ro,
            co,
            vl,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column-index bound (see the type-level docs for global vs local).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vl.len()
    }

    /// The row pointer array (0-based, `rows + 1` entries).
    pub fn ro(&self) -> &[usize] {
        &self.ro
    }

    /// The column index array.
    pub fn co(&self) -> &[usize] {
        &self.co
    }

    /// The value array.
    pub fn vl(&self) -> &[f64] {
        &self.vl
    }

    /// Nonzero count of row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.ro[r + 1] - self.ro[r]
    }

    /// Column indices of row `r`.
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.co[self.ro[r]..self.ro[r + 1]]
    }

    /// Values of row `r`.
    pub fn row_vals(&self, r: usize) -> &[f64] {
        &self.vl[self.ro[r]..self.ro[r + 1]]
    }

    /// Value at `(r, c)` (0 if not stored). Binary search within the row.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        match self.row_cols(r).binary_search(&c) {
            Ok(k) => self.row_vals(r)[k],
            Err(_) => 0.0,
        }
    }

    /// Iterate stored `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.row_cols(r)
                .iter()
                .zip(self.row_vals(r))
                .map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Expand to a dense array.
    pub fn to_dense(&self) -> Dense2D {
        let mut out = Dense2D::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, v);
        }
        out
    }

    /// Re-check the structural invariants.
    pub fn validate(&self) -> Result<(), CompressError> {
        validate_layout(&self.ro, &self.co, &self.vl, self.rows, self.cols)
    }

    /// The paper's 1-based `RO` rendering (Figure 4: `RO[0] = 1`).
    pub fn ro_paper(&self) -> Vec<usize> {
        self.ro.iter().map(|&x| x + 1).collect()
    }

    /// The paper's 1-based `CO` rendering.
    pub fn co_paper(&self) -> Vec<usize> {
        self.co.iter().map(|&x| x + 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;
    use crate::partition::RowBlock;

    #[test]
    fn paper_figure4_p0() {
        // Figure 4: P0's rows are global rows 0..3 with nonzeros
        // 1@(0,1), 2@(1,6), 3@(2,0), 4@(2,7) → RO=[1,2,3,5] (1-based),
        // CO=[2,7,1,8] (1-based), VL=[1,2,3,4].
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let p0 = part.extract_dense(&a, 0);
        let crs = Crs::from_dense(&p0, &mut OpCounter::new());
        assert_eq!(crs.ro_paper(), vec![1, 2, 3, 5]);
        assert_eq!(crs.co_paper(), vec![2, 7, 1, 8]);
        assert_eq!(crs.vl(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn paper_figure4_all_processors() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let expect: [(&[usize], &[usize], &[f64]); 4] = [
            (&[1, 2, 3, 5], &[2, 7, 1, 8], &[1., 2., 3., 4.]),
            (&[1, 2, 3, 4], &[6, 4, 5], &[5., 6., 7.]),
            (
                &[1, 2, 4, 7],
                &[7, 5, 8, 2, 3, 5],
                &[8., 9., 10., 11., 12., 13.],
            ),
            (&[1, 4], &[1, 4, 7], &[14., 15., 16.]),
        ];
        for (pid, (ro, co, vl)) in expect.iter().enumerate() {
            let local = part.extract_dense(&a, pid);
            let crs = Crs::from_dense(&local, &mut OpCounter::new());
            assert_eq!(&crs.ro_paper(), ro, "P{pid} RO");
            assert_eq!(&crs.co_paper(), co, "P{pid} CO");
            assert_eq!(&crs.vl(), vl, "P{pid} VL");
        }
    }

    #[test]
    fn round_trip_dense() {
        let a = paper_array_a();
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        assert_eq!(crs.to_dense(), a);
        assert!(crs.validate().is_ok());
    }

    #[test]
    fn op_count_matches_paper_formula() {
        // (1 + 3s)·cells with cells = 80, nnz = 16: 80 + 48 = 128.
        let a = paper_array_a();
        let mut ops = OpCounter::new();
        let _ = Crs::from_dense(&a, &mut ops);
        assert_eq!(ops.get(), 80 + 3 * 16);
    }

    #[test]
    fn from_part_global_stores_global_indices() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        // Row partition + CRS: global column == local column (Case 3.2.1).
        let crs = Crs::from_part_global(&a, &part, 1, &mut OpCounter::new());
        assert_eq!(crs.rows(), 3);
        assert_eq!(crs.cols(), 8); // bound is the global column count
        assert_eq!(crs.co(), &[5, 3, 4]); // global (and local) columns
        assert_eq!(crs.vl(), &[5., 6., 7.]);
    }

    #[test]
    fn from_part_global_op_total_is_whole_array_cost() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let mut ops = OpCounter::new();
        for pid in 0..4 {
            let _ = Crs::from_part_global(&a, &part, pid, &mut ops);
        }
        // Compressing every part touches each global cell exactly once:
        // n·m + 3·nnz = 80 + 48.
        assert_eq!(ops.get(), 128);
    }

    #[test]
    fn get_and_iter() {
        let a = paper_array_a();
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        assert_eq!(crs.get(8, 2), 12.0);
        assert_eq!(crs.get(8, 3), 0.0);
        assert_eq!(crs.iter().count(), 16);
        let trips: Vec<_> = crs.iter().collect();
        assert_eq!(trips[0], (0, 1, 1.0));
        assert_eq!(trips[15], (9, 6, 16.0));
    }

    #[test]
    fn from_raw_validates() {
        assert!(Crs::from_raw(2, 3, vec![0, 1, 2], vec![0, 2], vec![1., 2.]).is_ok());
        assert!(Crs::from_raw(2, 3, vec![0, 1], vec![0], vec![1.]).is_err());
        assert!(Crs::from_raw(2, 3, vec![0, 1, 2], vec![0, 5], vec![1., 2.]).is_err());
    }

    #[test]
    fn empty_and_full_arrays() {
        let z = Dense2D::zeros(3, 3);
        let crs = Crs::from_dense(&z, &mut OpCounter::new());
        assert_eq!(crs.nnz(), 0);
        assert_eq!(crs.to_dense(), z);

        let mut f = Dense2D::zeros(2, 2);
        for r in 0..2 {
            for c in 0..2 {
                f.set(r, c, 1.0);
            }
        }
        let crs = Crs::from_dense(&f, &mut OpCounter::new());
        assert_eq!(crs.nnz(), 4);
        assert_eq!(crs.to_dense(), f);
    }

    #[test]
    fn zero_row_array() {
        let e = Dense2D::zeros(0, 5);
        let crs = Crs::from_dense(&e, &mut OpCounter::new());
        assert_eq!(crs.rows(), 0);
        assert_eq!(crs.ro(), &[0]);
        assert!(crs.validate().is_ok());
    }

    #[test]
    fn from_triplets_matches_from_dense() {
        let a = paper_array_a();
        let mut trips: Vec<(usize, usize, f64)> = a.iter_nonzero().collect();
        // Shuffle-ish: reverse to ensure order independence.
        trips.reverse();
        let got = Crs::from_triplets(10, 8, &trips, &mut OpCounter::new());
        let want = Crs::from_dense(&a, &mut OpCounter::new());
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn from_triplets_rejects_duplicates() {
        let trips = vec![(0, 1, 1.0), (0, 1, 2.0)];
        let _ = Crs::from_triplets(2, 2, &trips, &mut OpCounter::new());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn from_triplets_rejects_out_of_bounds() {
        let trips = vec![(5, 0, 1.0)];
        let _ = Crs::from_triplets(2, 2, &trips, &mut OpCounter::new());
    }

    #[test]
    fn row_accessors() {
        let a = paper_array_a();
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        assert_eq!(crs.row_nnz(8), 3);
        assert_eq!(crs.row_cols(8), &[1, 2, 4]);
        assert_eq!(crs.row_vals(8), &[11., 12., 13.]);
        assert_eq!(crs.row_nnz(3), 1);
    }
}
