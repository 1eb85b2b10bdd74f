//! Elementwise kernels on compressed arrays, in either format: none of
//! them depends on which axis the segments run along.

use sparsedist_core::compress::{Compressed, SegmentAxis};

/// Scale every stored value: `A ← α·A`. Returns a new array; structure is
/// unchanged (scaling by zero keeps explicit zeros, matching sparse BLAS
/// convention).
pub fn scale<M: SegmentAxis>(a: &Compressed<M>, alpha: f64) -> Compressed<M> {
    let values: Vec<f64> = a.values().iter().map(|&v| alpha * v).collect();
    Compressed::from_raw(
        a.rows(),
        a.cols(),
        a.pointer().to_vec(),
        a.indices().to_vec(),
        values,
    )
    // lint: allow(E002) — `a`'s own validated pointer and indices, with as many values
    .expect("scaling preserves structure")
}

/// Sparse addition `C = A + B` by merging the segment streams. Entries
/// that cancel to exactly 0.0 are dropped.
///
/// # Panics
/// Panics if the shapes differ.
pub fn add<M: SegmentAxis>(a: &Compressed<M>, b: &Compressed<M>) -> Compressed<M> {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    let mut pointer = Vec::with_capacity(a.nsegments() + 1);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    pointer.push(0);
    for s in 0..a.nsegments() {
        let (ai, av) = a.segment(s);
        let (bi, bv) = b.segment(s);
        let (mut i, mut j) = (0, 0);
        while i < ai.len() || j < bi.len() {
            let (k, v) = if j >= bi.len() || (i < ai.len() && ai[i] < bi[j]) {
                let out = (ai[i], av[i]);
                i += 1;
                out
            } else if i >= ai.len() || bi[j] < ai[i] {
                let out = (bi[j], bv[j]);
                j += 1;
                out
            } else {
                let out = (ai[i], av[i] + bv[j]);
                i += 1;
                j += 1;
                out
            };
            if v != 0.0 {
                indices.push(k);
                values.push(v);
            }
        }
        pointer.push(indices.len());
    }
    Compressed::from_raw(a.rows(), a.cols(), pointer, indices, values)
        // lint: allow(E002) — merging two valid segments of one shape keeps each sorted and in bounds
        .expect("merge preserves ordering")
}

/// Frobenius norm `‖A‖_F = sqrt(Σ v²)`.
pub fn frobenius_norm<M: SegmentAxis>(a: &Compressed<M>) -> f64 {
    a.values().iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Sum of all stored values.
pub fn sum<M: SegmentAxis>(a: &Compressed<M>) -> f64 {
    a.values().iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsedist_core::compress::{Col, Row};
    use sparsedist_core::dense::{paper_array_a, Dense2D};
    use sparsedist_core::opcount::OpCounter;

    fn compress<M: SegmentAxis>(a: &Dense2D) -> Compressed<M> {
        Compressed::from_dense(a, &mut OpCounter::new())
    }

    /// `A + B` for dense operands, in the format `M`.
    fn add_dense<M: SegmentAxis>(a: &Dense2D, b: &Dense2D) -> Dense2D {
        add(&compress::<M>(a), &compress::<M>(b)).to_dense()
    }

    #[test]
    fn scale_scales_values_only() {
        fn check<M: SegmentAxis>() {
            let a = compress::<M>(&paper_array_a());
            let b = scale(&a, 2.0);
            assert_eq!((b.pointer(), b.indices()), (a.pointer(), a.indices()));
            let doubled: Vec<f64> = a.values().iter().map(|v| 2.0 * v).collect();
            assert_eq!(b.values(), &doubled[..]);
        }
        check::<Row>();
        check::<Col>();
    }

    #[test]
    fn add_disjoint_structures() {
        let a = Dense2D::from_rows(&[&[1., 0.], &[0., 0.]]);
        let b = Dense2D::from_rows(&[&[0., 2.], &[3., 0.]]);
        let want = Dense2D::from_rows(&[&[1., 2.], &[3., 0.]]);
        assert_eq!(add_dense::<Row>(&a, &b), want);
        assert_eq!(add_dense::<Col>(&a, &b), want);
    }

    #[test]
    fn add_overlapping_structures() {
        let a = Dense2D::from_rows(&[&[1., 2.], &[0., 5.]]);
        let b = Dense2D::from_rows(&[&[10., 0.], &[0., 5.]]);
        let want = Dense2D::from_rows(&[&[11., 2.], &[0., 10.]]);
        assert_eq!(add_dense::<Row>(&a, &b), want);
        assert_eq!(add_dense::<Col>(&a, &b), want);
    }

    #[test]
    fn add_cancellation_drops_entries() {
        fn check<M: SegmentAxis>() {
            let a = compress::<M>(&Dense2D::from_rows(&[&[1., 2.]]));
            let b = compress::<M>(&Dense2D::from_rows(&[&[-1., 0.]]));
            let c = add(&a, &b);
            assert_eq!(c.nnz(), 1);
            assert_eq!(c.get(0, 1), 2.0);
        }
        check::<Row>();
        check::<Col>();
    }

    #[test]
    fn add_matches_dense_addition() {
        let x = paper_array_a();
        let mut y = paper_array_a();
        y.set(0, 0, 100.0);
        y.set(0, 1, -1.0); // cancels x's 1.0
        let mut want = Dense2D::zeros(10, 8);
        for r in 0..10 {
            for col in 0..8 {
                want.set(r, col, x.get(r, col) + y.get(r, col));
            }
        }
        assert_eq!(add_dense::<Row>(&x, &y), want);
        assert_eq!(add_dense::<Col>(&x, &y), want);
    }

    #[test]
    fn frobenius_and_sum() {
        let a = Dense2D::from_rows(&[&[3., 0.], &[0., 4.]]);
        assert_eq!(frobenius_norm(&compress::<Row>(&a)), 5.0);
        assert_eq!(sum(&compress::<Row>(&a)), 7.0);
        assert_eq!(frobenius_norm(&compress::<Col>(&a)), 5.0);
        assert_eq!(sum(&compress::<Col>(&a)), 7.0);
    }
}
