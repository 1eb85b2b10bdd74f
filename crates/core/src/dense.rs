//! Dense 2-D arrays: the representation of the *global* sparse array before
//! distribution and of the *local* arrays the SFC scheme ships.
//!
//! The array is row-major. "Sparse" in this workspace means "mostly zero by
//! value": the sparse ratio `s` of the paper is simply
//! `nnz / (rows × cols)`, and zero entries are represented explicitly in a
//! `Dense2D` (that is the whole point of the paper — the SFC baseline sends
//! them over the wire, the proposed schemes do not).

use std::fmt;

/// A row-major dense 2-D array of `f64`.
///
/// Two arrays are equal when their shapes are and every cell compares equal
/// under IEEE `==`: `-0.0 == 0.0`, and an array holding a NaN equals
/// nothing, itself included.
#[derive(Debug, Clone)]
pub struct Dense2D {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Dense2D {
    /// An all-zero `rows × cols` array.
    ///
    /// Zero dimensions are allowed: a ragged ceil-block partition can assign
    /// an empty local array to a trailing processor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense2D {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Dense2D { rows, cols, data }
    }

    /// Build from nested row slices (handy for literals in tests).
    ///
    /// # Panics
    /// Panics on ragged input or empty input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} but row 0 has {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Dense2D {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array holds no cells (a zero dimension).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Value at `(r, c)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Set the value at `(r, c)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a contiguous slice.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The full row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The full row-major backing slice, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Number of nonzero cells.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// The paper's sparse ratio `s = nnz / (rows × cols)` (0 for an empty
    /// array).
    pub fn sparse_ratio(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.nnz() as f64 / self.len() as f64
        }
    }

    /// Iterate `(row, col, value)` over nonzero cells in row-major order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.data
            .iter()
            .enumerate()
            .filter_map(move |(i, &v)| (v != 0.0).then_some((i / self.cols, i % self.cols, v)))
    }

    /// Copy the rectangular block `[r0, r0+h) × [c0, c0+w)` into a new array.
    ///
    /// # Panics
    /// Panics if the block exceeds the bounds.
    pub fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Dense2D {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of bounds"
        );
        let mut out = Dense2D::zeros(h, w);
        for r in 0..h {
            let src = &self.data[(r0 + r) * self.cols + c0..(r0 + r) * self.cols + c0 + w];
            out.data[r * w..(r + 1) * w].copy_from_slice(src);
        }
        out
    }

    /// Maximum absolute difference to `other` (for approximate comparisons
    /// after numeric pipelines).
    pub fn max_abs_diff(&self, other: &Dense2D) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl PartialEq for Dense2D {
    fn eq(&self, other: &Self) -> bool {
        // Within a chunk a non-short-circuit `&` fold vectorises; between
        // chunks the walk stops at the first difference.
        const CHUNK: usize = 64;
        (self.rows, self.cols) == (other.rows, other.cols)
            && self
                .data
                .chunks(CHUNK)
                .zip(other.data.chunks(CHUNK))
                .all(|(a, b)| a.iter().zip(b).fold(true, |same, (x, y)| same & (x == y)))
    }
}

impl fmt::Display for Dense2D {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>4}", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The paper's running example: the 10×8 sparse array `A` of Figure 1, with
/// 16 nonzero elements valued 1–16.
pub fn paper_array_a() -> Dense2D {
    Dense2D::from_rows(&[
        &[0., 1., 0., 0., 0., 0., 0., 0.],
        &[0., 0., 0., 0., 0., 0., 2., 0.],
        &[3., 0., 0., 0., 0., 0., 0., 4.],
        &[0., 0., 0., 0., 0., 5., 0., 0.],
        &[0., 0., 0., 6., 0., 0., 0., 0.],
        &[0., 0., 0., 0., 7., 0., 0., 0.],
        &[0., 0., 0., 0., 0., 0., 8., 0.],
        &[0., 0., 0., 0., 9., 0., 0., 10.],
        &[0., 11., 12., 0., 13., 0., 0., 0.],
        &[14., 0., 0., 15., 0., 0., 16., 0.],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let a = Dense2D::zeros(3, 5);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 5);
        assert_eq!(a.len(), 15);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.sparse_ratio(), 0.0);
    }

    #[test]
    fn get_set_round_trip() {
        let mut a = Dense2D::zeros(4, 4);
        a.set(2, 3, 7.5);
        a.set(0, 0, -1.0);
        assert_eq!(a.get(2, 3), 7.5);
        assert_eq!(a.get(0, 0), -1.0);
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn from_rows_matches_get() {
        let a = Dense2D::from_rows(&[&[1., 2.], &[3., 4.], &[0., 5.]]);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 2);
        assert_eq!(a.get(1, 0), 3.0);
        assert_eq!(a.row(2), &[0., 5.]);
        assert_eq!(a.nnz(), 5);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn ragged_rows_rejected() {
        let _ = Dense2D::from_rows(&[&[1., 2.], &[3.]]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_bounds_get_panics() {
        let a = Dense2D::zeros(2, 2);
        let _ = a.get(2, 0);
    }

    #[test]
    fn iter_nonzero_row_major() {
        let a = Dense2D::from_rows(&[&[0., 1.], &[2., 0.]]);
        let got: Vec<_> = a.iter_nonzero().collect();
        assert_eq!(got, vec![(0, 1, 1.0), (1, 0, 2.0)]);
    }

    #[test]
    fn block_extraction() {
        let a = Dense2D::from_rows(&[&[1., 2., 3.], &[4., 5., 6.], &[7., 8., 9.]]);
        let b = a.block(1, 1, 2, 2);
        assert_eq!(b, Dense2D::from_rows(&[&[5., 6.], &[8., 9.]]));
    }

    #[test]
    fn paper_array_has_sixteen_nonzeros() {
        let a = paper_array_a();
        assert_eq!((a.rows(), a.cols()), (10, 8));
        assert_eq!(a.nnz(), 16);
        // The nonzeros are valued 1..=16 in row-major order (Figure 1).
        let vals: Vec<f64> = a.iter_nonzero().map(|(_, _, v)| v).collect();
        assert_eq!(vals, (1..=16).map(|v| v as f64).collect::<Vec<_>>());
        assert!((a.sparse_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_detects_change() {
        let a = Dense2D::from_rows(&[&[1., 2.], &[3., 4.]]);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(1, 0, 3.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn equality_is_shape_then_ieee_cellwise() {
        let zero = Dense2D::from_rows(&[&[0.0, 1.0]]);
        assert_eq!(zero, Dense2D::from_rows(&[&[-0.0, 1.0]]));
        let nan = Dense2D::from_rows(&[&[f64::NAN, 1.0]]);
        assert_ne!(nan, zero);
        assert_ne!(zero, nan);
        assert_ne!(nan, nan.clone());
        let data: Vec<f64> = (1..=6).map(f64::from).collect();
        assert_ne!(
            Dense2D::from_vec(2, 3, data.clone()),
            Dense2D::from_vec(3, 2, data)
        );
        assert_ne!(Dense2D::zeros(0, 5), Dense2D::zeros(0, 3));
        assert_eq!(Dense2D::zeros(0, 5), Dense2D::zeros(0, 5));
        // 143 cells: the difference sits past every whole chunk.
        let a = Dense2D::from_vec(13, 11, (0..143).map(f64::from).collect());
        let mut b = a.clone();
        assert_eq!(a, b);
        b.set(12, 10, -1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn display_renders_rows() {
        let a = Dense2D::from_rows(&[&[1., 0.], &[0., 2.]]);
        let s = a.to_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('1') && s.contains('2'));
    }
}
