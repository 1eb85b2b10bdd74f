//! Seeded uniform random sparse arrays.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sparsedist_core::dense::Dense2D;
use std::collections::HashSet;
use std::fmt;

/// A generator parameter out of range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GenError {
    /// A zero row or column count.
    EmptyArray,
    /// A sparse ratio outside `[0, 1]`, or NaN.
    BadRatio(f64),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::EmptyArray => write!(f, "array dimensions must be positive"),
            GenError::BadRatio(s) => write!(f, "sparse ratio must be in [0,1], got {s}"),
        }
    }
}

impl std::error::Error for GenError {}

/// What a panicking setter makes of its fallible form: the value, or a
/// panic with the check's message.
fn or_panic<T>(checked: Result<T, GenError>) -> T {
    // lint: allow(E003) — the panicking setters document this panic; their `try_` forms are fallible
    checked.unwrap_or_else(|e| panic!("{e}"))
}

/// How the requested sparse ratio is realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatioMode {
    /// Exactly `round(s · rows · cols)` nonzeros, placed uniformly without
    /// replacement (what the paper's fixed `s = 0.1` suggests).
    Exact,
    /// Each cell is nonzero independently with probability `s` (the actual
    /// nonzero count fluctuates around the target).
    Bernoulli,
}

/// Builder for uniform random sparse arrays.
///
/// ```
/// use sparsedist_gen::{SparseRandom, RatioMode};
/// let a = SparseRandom::new(100, 100)
///     .sparse_ratio(0.1)
///     .seed(42)
///     .generate();
/// assert_eq!(a.nnz(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct SparseRandom {
    rows: usize,
    cols: usize,
    s: f64,
    seed: u64,
    mode: RatioMode,
    value_range: (f64, f64),
}

impl SparseRandom {
    /// A generator for `rows × cols` arrays (default: `s = 0.1`, exact
    /// mode, seed 0, values in `[1, 2)`).
    ///
    /// # Panics
    /// Panics if either dimension is zero; [`SparseRandom::try_new`]
    /// returns the error instead.
    pub fn new(rows: usize, cols: usize) -> Self {
        or_panic(Self::try_new(rows, cols))
    }

    /// [`SparseRandom::new`], or [`GenError::EmptyArray`] if either
    /// dimension is zero.
    pub fn try_new(rows: usize, cols: usize) -> Result<Self, GenError> {
        if rows == 0 || cols == 0 {
            return Err(GenError::EmptyArray);
        }
        Ok(SparseRandom {
            rows,
            cols,
            s: 0.1,
            seed: 0,
            mode: RatioMode::Exact,
            value_range: (1.0, 2.0),
        })
    }

    /// Target sparse ratio in `[0, 1]`.
    ///
    /// # Panics
    /// Panics if `s` is outside `[0, 1]` or NaN;
    /// [`SparseRandom::try_sparse_ratio`] returns the error instead.
    pub fn sparse_ratio(self, s: f64) -> Self {
        or_panic(self.try_sparse_ratio(s))
    }

    /// [`SparseRandom::sparse_ratio`], or [`GenError::BadRatio`] if `s` is
    /// outside `[0, 1]` or NaN.
    pub fn try_sparse_ratio(mut self, s: f64) -> Result<Self, GenError> {
        if !(0.0..=1.0).contains(&s) {
            return Err(GenError::BadRatio(s));
        }
        self.s = s;
        Ok(self)
    }

    /// RNG seed (same seed → same array).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Ratio realisation mode.
    pub fn mode(mut self, mode: RatioMode) -> Self {
        self.mode = mode;
        self
    }

    /// Half-open range nonzero values are drawn from. Must exclude zero
    /// (zero values would silently change the sparse ratio).
    ///
    /// # Panics
    /// Panics if the range is empty or contains zero.
    pub fn value_range(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "empty value range");
        assert!(lo > 0.0 || hi <= 0.0, "value range must exclude zero");
        self.value_range = (lo, hi);
        self
    }

    /// Generate the array.
    pub fn generate(&self) -> Dense2D {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut a = Dense2D::zeros(self.rows, self.cols);
        let (lo, hi) = self.value_range;
        let draw = |rng: &mut StdRng| rng.random_range(lo..hi);
        match self.mode {
            RatioMode::Bernoulli => {
                for r in 0..self.rows {
                    for c in 0..self.cols {
                        if rng.random::<f64>() < self.s {
                            a.set(r, c, draw(&mut rng));
                        }
                    }
                }
            }
            RatioMode::Exact => {
                let cells = self.rows * self.cols;
                let nnz = (self.s * cells as f64).round() as usize;
                if nnz * 3 < cells {
                    // Sparse case: rejection-sample distinct cells.
                    let mut taken = HashSet::with_capacity(nnz * 2);
                    while taken.len() < nnz {
                        let idx = rng.random_range(0..cells);
                        if taken.insert(idx) {
                            a.set(idx / self.cols, idx % self.cols, draw(&mut rng));
                        }
                    }
                } else {
                    // Dense case: partial Fisher–Yates over all cells.
                    let mut idx: Vec<usize> = (0..cells).collect();
                    for k in 0..nnz {
                        let j = rng.random_range(k..cells);
                        idx.swap(k, j);
                        a.set(idx[k] / self.cols, idx[k] % self.cols, draw(&mut rng));
                    }
                }
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_mode_hits_ratio_exactly() {
        for s in [0.01, 0.1, 0.5, 0.9] {
            let a = SparseRandom::new(50, 40).sparse_ratio(s).seed(7).generate();
            assert_eq!(a.nnz(), (s * 2000.0).round() as usize, "s={s}");
        }
    }

    #[test]
    fn bernoulli_mode_is_close() {
        let a = SparseRandom::new(200, 200)
            .sparse_ratio(0.1)
            .mode(RatioMode::Bernoulli)
            .seed(3)
            .generate();
        let got = a.sparse_ratio();
        assert!((got - 0.1).abs() < 0.02, "ratio {got}");
    }

    #[test]
    fn same_seed_same_array() {
        let a = SparseRandom::new(30, 30).seed(11).generate();
        let b = SparseRandom::new(30, 30).seed(11).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_array() {
        let a = SparseRandom::new(30, 30).seed(1).generate();
        let b = SparseRandom::new(30, 30).seed(2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn extreme_ratios() {
        let empty = SparseRandom::new(10, 10).sparse_ratio(0.0).generate();
        assert_eq!(empty.nnz(), 0);
        let full = SparseRandom::new(10, 10).sparse_ratio(1.0).generate();
        assert_eq!(full.nnz(), 100);
    }

    #[test]
    fn values_in_requested_range() {
        let a = SparseRandom::new(40, 40)
            .value_range(5.0, 6.0)
            .seed(9)
            .generate();
        for (_, _, v) in a.iter_nonzero() {
            assert!((5.0..6.0).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "exclude zero")]
    fn zero_straddling_range_rejected() {
        let _ = SparseRandom::new(4, 4).value_range(-1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "sparse ratio")]
    fn bad_ratio_rejected() {
        let _ = SparseRandom::new(4, 4).sparse_ratio(1.5);
    }

    #[test]
    fn fallible_forms_return_the_panic_messages() {
        let err = SparseRandom::try_new(0, 4).unwrap_err();
        assert_eq!(err, GenError::EmptyArray);
        assert_eq!(err.to_string(), "array dimensions must be positive");
        assert!(SparseRandom::try_new(4, 0).is_err());
        let gen = SparseRandom::try_new(4, 4).unwrap();
        for s in [1.5, -0.1, f64::NAN] {
            let err = gen.clone().try_sparse_ratio(s).unwrap_err();
            assert!(err
                .to_string()
                .starts_with("sparse ratio must be in [0,1], got"));
        }
        let a = gen.try_sparse_ratio(0.25).unwrap().generate();
        assert_eq!(a, SparseRandom::new(4, 4).sparse_ratio(0.25).generate());
    }
}
