//! Compressed Column Storage (CCS).
//!
//! The paper reuses the names `RO`/`CO` for both formats; to keep the code
//! readable this type names the arrays structurally: `cp` is the column
//! pointer array (the paper's per-column counterpart of `RO`) and `ri` is
//! the row index array (the paper's `CO` when CCS is in play). Values stay
//! `vl`.

use super::{validate_layout, CompressError, CompressKind};
use crate::dense::Dense2D;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::scan::{PartScan, Streams};

/// A sparse array in Compressed Column Storage.
///
/// `cp` has `cols + 1` entries starting at 0; column `c`'s nonzeros occupy
/// `ri[cp[c]..cp[c+1]]` (row indices, strictly increasing) and the matching
/// `vl` range. `rows` is the index bound for `ri`: global at a CFS source,
/// local after receiver-side conversion (the paper's Cases 3.2.2/3.2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Ccs {
    rows: usize,
    cols: usize,
    cp: Vec<usize>,
    ri: Vec<usize>,
    vl: Vec<f64>,
}

impl Ccs {
    /// Compress a dense array column-by-column: 1 op per cell scanned plus
    /// 3 ops per nonzero, the paper's `(1 + 3s)·cells`.
    pub fn from_dense(a: &Dense2D, ops: &mut OpCounter) -> Ccs {
        let s = PartScan::whole(a.rows(), a.cols()).compress(a, CompressKind::Ccs, ops);
        Ccs::from_streams(a.rows(), a.cols(), s)
    }

    /// Compress one part of a partitioned global array straight from the
    /// global array, storing **global** row indices (the CFS source-side
    /// compression, §3.2; see Figure 5(b) where `CO` holds global indices).
    pub fn from_part_global(
        global: &Dense2D,
        part: &dyn Partition,
        pid: usize,
        ops: &mut OpCounter,
    ) -> Ccs {
        let (_, lcols) = part.local_shape(pid);
        let (grows, _) = part.global_shape();
        let s = PartScan::of(part, pid).compress(global, CompressKind::Ccs, ops);
        Ccs::from_streams(grows, lcols, s)
    }

    pub(super) fn from_streams(rows: usize, cols: usize, s: Streams) -> Ccs {
        Ccs {
            rows,
            cols,
            cp: s.pointer,
            ri: s.indices,
            vl: s.values,
        }
    }

    /// Build from unsorted `(row, col, value)` triplets by counting sort
    /// over columns (the CCS mirror of [`crate::compress::Crs::from_triplets`]).
    ///
    /// # Panics
    /// Panics if a triplet is out of bounds or duplicated.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        trips: &[(usize, usize, f64)],
        ops: &mut OpCounter,
    ) -> Ccs {
        let mut counts = vec![0usize; cols + 1];
        for &(r, c, _) in trips {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of {rows}x{cols}"
            );
            counts[c + 1] += 1;
            ops.tick();
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
            ops.tick();
        }
        let cp = counts.clone();
        let mut placed: Vec<(usize, f64)> = vec![(0, 0.0); trips.len()];
        let mut cursor = cp.clone();
        for &(r, c, v) in trips {
            placed[cursor[c]] = (r, v);
            cursor[c] += 1;
            ops.tick();
        }
        for c in 0..cols {
            let run = &mut placed[cp[c]..cp[c + 1]];
            run.sort_unstable_by_key(|&(r, _)| r);
            ops.add(run.len() as u64);
            assert!(
                run.windows(2).all(|w| w[0].0 < w[1].0),
                "duplicate row in column {c}"
            );
        }
        let ri = placed.iter().map(|&(r, _)| r).collect();
        let vl = placed.iter().map(|&(_, v)| v).collect();
        Ccs {
            rows,
            cols,
            cp,
            ri,
            vl,
        }
    }

    /// Assemble from raw arrays with full validation.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        cp: Vec<usize>,
        ri: Vec<usize>,
        vl: Vec<f64>,
    ) -> Result<Ccs, CompressError> {
        validate_layout(&cp, &ri, &vl, cols, rows)?;
        Ok(Ccs {
            rows,
            cols,
            cp,
            ri,
            vl,
        })
    }

    /// Row-index bound (global at a CFS source, local at a receiver).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vl.len()
    }

    /// The column pointer array (0-based, `cols + 1` entries).
    pub fn cp(&self) -> &[usize] {
        &self.cp
    }

    /// The row index array.
    pub fn ri(&self) -> &[usize] {
        &self.ri
    }

    /// The value array.
    pub fn vl(&self) -> &[f64] {
        &self.vl
    }

    /// Nonzero count of column `c`.
    pub fn col_nnz(&self, c: usize) -> usize {
        self.cp[c + 1] - self.cp[c]
    }

    /// Row indices of column `c`.
    pub fn col_rows(&self, c: usize) -> &[usize] {
        &self.ri[self.cp[c]..self.cp[c + 1]]
    }

    /// Values of column `c`.
    pub fn col_vals(&self, c: usize) -> &[f64] {
        &self.vl[self.cp[c]..self.cp[c + 1]]
    }

    /// Value at `(r, c)` (0 if not stored).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        match self.col_rows(c).binary_search(&r) {
            Ok(k) => self.col_vals(c)[k],
            Err(_) => 0.0,
        }
    }

    /// Iterate stored `(row, col, value)` triplets in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.cols).flat_map(move |c| {
            self.col_rows(c)
                .iter()
                .zip(self.col_vals(c))
                .map(move |(&r, &v)| (r, c, v))
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
        validate_layout(&self.cp, &self.ri, &self.vl, self.cols, self.rows)
    }

    /// The paper's 1-based column-pointer rendering.
    pub fn cp_paper(&self) -> Vec<usize> {
        self.cp.iter().map(|&x| x + 1).collect()
    }

    /// The paper's 1-based row-index rendering.
    pub fn ri_paper(&self) -> Vec<usize> {
        self.ri.iter().map(|&x| x + 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;
    use crate::partition::RowBlock;

    #[test]
    fn round_trip_dense() {
        let a = paper_array_a();
        let ccs = Ccs::from_dense(&a, &mut OpCounter::new());
        assert_eq!(ccs.to_dense(), a);
        assert!(ccs.validate().is_ok());
        assert_eq!(ccs.nnz(), 16);
    }

    #[test]
    fn op_count_matches_paper_formula() {
        let a = paper_array_a();
        let mut ops = OpCounter::new();
        let _ = Ccs::from_dense(&a, &mut ops);
        assert_eq!(ops.get(), 80 + 3 * 16);
    }

    #[test]
    fn column_major_iteration_order() {
        let a = Dense2D::from_rows(&[&[1., 0.], &[2., 3.]]);
        let ccs = Ccs::from_dense(&a, &mut OpCounter::new());
        let trips: Vec<_> = ccs.iter().collect();
        assert_eq!(trips, vec![(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)]);
    }

    #[test]
    fn paper_figure5b_p1_global_indices() {
        // Figure 5: CFS with row partition + CCS. P1 owns global rows 3..6
        // with nonzeros 5@(3,5), 6@(4,3), 7@(5,4). CCS walks columns:
        // col 3 → row 4 (value 6), col 4 → row 5 (value 7),
        // col 5 → row 3 (value 5). The stored row indices are GLOBAL
        // (1-based: 5, 6, 4).
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let ccs = Ccs::from_part_global(&a, &part, 1, &mut OpCounter::new());
        assert_eq!(ccs.cols(), 8);
        assert_eq!(ccs.rows(), 10); // global row bound before conversion
        assert_eq!(ccs.ri_paper(), vec![5, 6, 4]);
        assert_eq!(ccs.vl(), &[6.0, 7.0, 5.0]);
        // Column pointers: cols 0-2 empty, col3 has 1, col4 has 1, col5
        // has 1, cols 6-7 empty → 1-based [1,1,1,1,2,3,4,4,4].
        assert_eq!(ccs.cp_paper(), vec![1, 1, 1, 1, 2, 3, 4, 4, 4]);
    }

    #[test]
    fn get_reads_stored_and_missing() {
        let a = paper_array_a();
        let ccs = Ccs::from_dense(&a, &mut OpCounter::new());
        assert_eq!(ccs.get(9, 6), 16.0);
        assert_eq!(ccs.get(0, 0), 0.0);
    }

    #[test]
    fn from_raw_validates() {
        assert!(Ccs::from_raw(3, 2, vec![0, 1, 2], vec![0, 2], vec![1., 2.]).is_ok());
        assert!(Ccs::from_raw(3, 2, vec![0, 2, 1], vec![0, 1], vec![1., 2.]).is_err());
        assert!(Ccs::from_raw(3, 2, vec![0, 1, 2], vec![0, 7], vec![1., 2.]).is_err());
    }

    #[test]
    fn zero_col_array() {
        let e = Dense2D::zeros(4, 0);
        let ccs = Ccs::from_dense(&e, &mut OpCounter::new());
        assert_eq!(ccs.cp(), &[0]);
        assert!(ccs.validate().is_ok());
    }

    #[test]
    fn col_accessors() {
        let a = paper_array_a();
        let ccs = Ccs::from_dense(&a, &mut OpCounter::new());
        // Column 4 holds values 7@(5,4), 9@(7,4), 13@(8,4).
        assert_eq!(ccs.col_nnz(4), 3);
        assert_eq!(ccs.col_rows(4), &[5, 7, 8]);
        assert_eq!(ccs.col_vals(4), &[7., 9., 13.]);
    }

    #[test]
    fn from_triplets_matches_from_dense() {
        let a = paper_array_a();
        let mut trips: Vec<(usize, usize, f64)> = a.iter_nonzero().collect();
        trips.reverse();
        let got = Ccs::from_triplets(10, 8, &trips, &mut OpCounter::new());
        let want = Ccs::from_dense(&a, &mut OpCounter::new());
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "duplicate row")]
    fn from_triplets_rejects_duplicates() {
        let trips = vec![(1, 0, 1.0), (1, 0, 2.0)];
        let _ = Ccs::from_triplets(2, 2, &trips, &mut OpCounter::new());
    }

    #[test]
    fn crs_and_ccs_agree_on_content() {
        use crate::compress::Crs;
        let a = paper_array_a();
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        let ccs = Ccs::from_dense(&a, &mut OpCounter::new());
        let mut from_crs: Vec<_> = crs.iter().collect();
        let mut from_ccs: Vec<_> = ccs.iter().collect();
        from_crs.sort_by_key(|a| (a.0, a.1));
        from_ccs.sort_by_key(|a| (a.0, a.1));
        assert_eq!(from_crs, from_ccs);
    }
}
