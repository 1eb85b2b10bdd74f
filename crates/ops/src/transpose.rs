//! Format conversion and transposition.
//!
//! A CRS array reinterpreted with rows↔columns swapped *is* the CCS form of
//! the transpose (and vice versa), so one re-bucketing of the nonzeros by
//! their index serves both the conversions and transposition. It runs in
//! `O(nnz + dim)` with a stable counting sort — no intermediate dense
//! array.

use sparsedist_core::compress::{Ccs, Compressed, Crs, SegmentAxis};

/// `a`'s nonzeros bucketed by index, each bucket in segment order: the
/// `rows`×`cols` array whose segments are `a`'s indices and whose indices
/// are `a`'s segments.
fn rebucket<M: SegmentAxis, N: SegmentAxis>(
    a: &Compressed<M>,
    rows: usize,
    cols: usize,
) -> Compressed<N> {
    let mut pointer = vec![0usize; a.index_bound() + 1];
    for &i in a.indices() {
        pointer[i + 1] += 1;
    }
    for i in 1..pointer.len() {
        pointer[i] += pointer[i - 1];
    }
    let mut indices = vec![0usize; a.nnz()];
    let mut values = vec![0.0f64; a.nnz()];
    let mut cursor = pointer.clone();
    for s in 0..a.nsegments() {
        let (idx, vals) = a.segment(s);
        for (&i, &v) in idx.iter().zip(vals) {
            indices[cursor[i]] = s;
            values[cursor[i]] = v;
            cursor[i] += 1;
        }
    }
    Compressed::from_raw(rows, cols, pointer, indices, values)
        // lint: allow(E002) — a stable counting sort of a valid array keeps each bucket sorted and in bounds
        .expect("counting sort preserves invariants")
}

/// Convert CRS → CCS of the *same* array (column-major re-bucketing).
pub fn crs_to_ccs(a: &Crs) -> Ccs {
    rebucket(a, a.rows(), a.cols())
}

/// Convert CCS → CRS of the same array.
pub fn ccs_to_crs(a: &Ccs) -> Crs {
    rebucket(a, a.rows(), a.cols())
}

/// Transpose a CRS array (returns CRS of `Aᵀ`): CRS(A) re-bucketed by
/// column is CRS(Aᵀ) once the dimensions are flipped.
pub fn transpose(a: &Crs) -> Crs {
    rebucket(a, a.cols(), a.rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsedist_core::dense::{paper_array_a, Dense2D};
    use sparsedist_core::opcount::OpCounter;

    #[test]
    fn crs_to_ccs_same_array() {
        let a = paper_array_a();
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        let ccs = crs_to_ccs(&crs);
        assert_eq!(ccs, Ccs::from_dense(&a, &mut OpCounter::new()));
    }

    #[test]
    fn ccs_to_crs_same_array() {
        let a = paper_array_a();
        let ccs = Ccs::from_dense(&a, &mut OpCounter::new());
        let crs = ccs_to_crs(&ccs);
        assert_eq!(crs, Crs::from_dense(&a, &mut OpCounter::new()));
    }

    #[test]
    fn round_trip_is_identity() {
        let a = paper_array_a();
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        assert_eq!(ccs_to_crs(&crs_to_ccs(&crs)), crs);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = paper_array_a();
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        let t = transpose(&crs);
        assert_eq!(t.rows(), 8);
        assert_eq!(t.cols(), 10);
        let mut want = Dense2D::zeros(8, 10);
        for (r, c, v) in a.iter_nonzero() {
            want.set(c, r, v);
        }
        assert_eq!(t.to_dense(), want);
    }

    #[test]
    fn double_transpose_is_identity() {
        let a = paper_array_a();
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        assert_eq!(transpose(&transpose(&crs)), crs);
    }

    #[test]
    fn empty_array() {
        let crs = Crs::from_dense(&Dense2D::zeros(3, 5), &mut OpCounter::new());
        let t = transpose(&crs);
        assert_eq!((t.rows(), t.cols()), (5, 3));
        assert_eq!(t.nnz(), 0);
        assert_eq!(crs_to_ccs(&crs).nnz(), 0);
    }
}
