//! Coordinate (triplet) storage.
//!
//! Not one of the paper's wire formats, but the natural interchange form
//! for workload generators and MatrixMarket files in `sparsedist-gen`, and
//! a convenient intermediate for building test arrays.

use crate::dense::Dense2D;
use std::fmt;

/// A sparse array as a list of `(row, col, value)` triplets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

/// Error from [`Coo::validate`] / [`Coo::to_dense`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CooError {
    /// An entry's coordinates exceed the declared shape.
    OutOfBounds {
        position: usize,
        row: usize,
        col: usize,
    },
    /// Two entries share the same coordinates.
    Duplicate { row: usize, col: usize },
}

impl fmt::Display for CooError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CooError::OutOfBounds { position, row, col } => {
                write!(f, "entry {position} at ({row},{col}) is out of bounds")
            }
            CooError::Duplicate { row, col } => write!(f, "duplicate entry at ({row},{col})"),
        }
    }
}

impl std::error::Error for CooError {}

impl Coo {
    /// An empty triplet list with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Build from triplets.
    pub fn from_entries(rows: usize, cols: usize, entries: Vec<(usize, usize, f64)>) -> Self {
        Coo {
            rows,
            cols,
            entries,
        }
    }

    /// Extract every nonzero of a dense array.
    pub fn from_dense(a: &Dense2D) -> Self {
        Coo {
            rows: a.rows(),
            cols: a.cols(),
            entries: a.iter_nonzero().collect(),
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

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The stored triplets.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Append an entry (no dedup; run [`Coo::validate`] before conversion).
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        self.entries.push((r, c, v));
    }

    /// Sort entries row-major (row, then column).
    pub fn sort_row_major(&mut self) {
        self.entries.sort_by_key(|a| (a.0, a.1));
    }

    /// Check bounds and duplicates. Entries in strictly increasing
    /// row-major order cannot repeat, so only other orders pay for the
    /// sorted copy that finds duplicates.
    pub fn validate(&self) -> Result<(), CooError> {
        let mut increasing = true;
        let mut prev = None;
        for (pos, &(r, c, _)) in self.entries.iter().enumerate() {
            if r >= self.rows || c >= self.cols {
                return Err(CooError::OutOfBounds {
                    position: pos,
                    row: r,
                    col: c,
                });
            }
            increasing &= prev < Some((r, c));
            prev = Some((r, c));
        }
        if increasing {
            return Ok(());
        }
        let mut sorted: Vec<(usize, usize)> =
            self.entries.iter().map(|&(r, c, _)| (r, c)).collect();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(CooError::Duplicate {
                    row: w[0].0,
                    col: w[0].1,
                });
            }
        }
        Ok(())
    }

    /// Expand to a dense array.
    ///
    /// # Panics
    /// Panics on out-of-bounds entries (run [`Coo::validate`] first for a
    /// recoverable error). Later duplicates overwrite earlier ones.
    pub fn to_dense(&self) -> Dense2D {
        let mut out = Dense2D::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.entries {
            out.set(r, c, v);
        }
        out
    }

    /// The sparse ratio `nnz / (rows × cols)`.
    pub fn sparse_ratio(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;

    #[test]
    fn dense_round_trip() {
        let a = paper_array_a();
        let coo = Coo::from_dense(&a);
        assert_eq!(coo.nnz(), 16);
        assert_eq!(coo.to_dense(), a);
        assert!(coo.validate().is_ok());
    }

    #[test]
    fn push_and_sort() {
        let mut coo = Coo::new(3, 3);
        coo.push(2, 0, 3.0);
        coo.push(0, 1, 1.0);
        coo.push(0, 0, 0.5);
        coo.sort_row_major();
        assert_eq!(coo.entries()[0], (0, 0, 0.5));
        assert_eq!(coo.entries()[2], (2, 0, 3.0));
    }

    #[test]
    fn validate_catches_out_of_bounds() {
        let coo = Coo::from_entries(2, 2, vec![(0, 0, 1.0), (5, 0, 2.0)]);
        assert_eq!(
            coo.validate(),
            Err(CooError::OutOfBounds {
                position: 1,
                row: 5,
                col: 0
            })
        );
    }

    #[test]
    fn validate_catches_duplicates() {
        let coo = Coo::from_entries(2, 2, vec![(1, 1, 1.0), (0, 0, 2.0), (1, 1, 3.0)]);
        assert_eq!(coo.validate(), Err(CooError::Duplicate { row: 1, col: 1 }));
    }

    #[test]
    fn validate_finds_duplicates_in_sorted_input() {
        let coo = Coo::from_entries(
            3,
            3,
            vec![(0, 1, 1.0), (1, 1, 2.0), (1, 1, 3.0), (2, 0, 4.0)],
        );
        assert_eq!(coo.validate(), Err(CooError::Duplicate { row: 1, col: 1 }));
        let sorted = Coo::from_entries(
            3,
            3,
            vec![(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0), (2, 0, 4.0)],
        );
        assert_eq!(sorted.validate(), Ok(()));
    }

    #[test]
    fn validate_reports_out_of_bounds_before_duplicates() {
        for entries in [
            vec![(0, 0, 1.0), (0, 0, 2.0), (2, 1, 3.0)],
            vec![(1, 1, 1.0), (0, 0, 2.0), (1, 1, 3.0), (0, 7, 4.0)],
        ] {
            let at = entries.len() - 1;
            let (row, col, _) = entries[at];
            assert_eq!(
                Coo::from_entries(2, 2, entries).validate(),
                Err(CooError::OutOfBounds {
                    position: at,
                    row,
                    col
                })
            );
        }
    }

    #[test]
    fn sparse_ratio() {
        let coo = Coo::from_dense(&paper_array_a());
        assert!((coo.sparse_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(Coo::new(0, 5).sparse_ratio(), 0.0);
    }
}
