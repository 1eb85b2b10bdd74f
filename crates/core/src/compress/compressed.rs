//! Compressed Row Storage (CRS) and Compressed Column Storage (CCS) as one
//! type.
//!
//! The paper stores both formats in the same three arrays, `RO`, `CO` and
//! `VL`, with rows and columns swapped (its text reuses the names for
//! CCS). [`Compressed<M>`] holds those arrays once: a pointer array with
//! one entry per **segment** plus a leading `0`, each nonzero's **index**
//! within its segment, and its value. The segment-axis marker `M` ([`Row`]
//! or [`Col`]) only maps a `(segment, index)` pair to a `(row, col)` cell,
//! so [`Crs`] and [`Ccs`] share every constructor and accessor and compile
//! to separate, monomorphic code.

use super::{validate_layout, CompressError, CompressKind, LocalCompressed};
use crate::dense::Dense2D;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::scan::{PartScan, Streams};
use std::fmt;
use std::marker::PhantomData;

/// Which axis a [`Compressed`] array's segments run along.
pub trait SegmentAxis: fmt::Debug + Clone + Copy + PartialEq + Eq {
    /// The runtime format this axis stands for.
    const KIND: CompressKind;
    /// The format's `Debug` name.
    const NAME: &'static str;
    /// The pointer array's `Debug` field name.
    const POINTER: &'static str;
    /// The index array's `Debug` field name.
    const INDICES: &'static str;
    /// What one segment is, in messages.
    const SEGMENT: &'static str;
    /// What one index addresses, in messages.
    const INDEX: &'static str;

    /// `(row, col)` as `(segment, index)`, and back: the pair unchanged
    /// for rows, swapped for columns (either way its own inverse).
    fn orient<T>(a: T, b: T) -> (T, T);

    /// Wrap an array of this axis as a [`LocalCompressed`].
    fn wrap(a: Compressed<Self>) -> LocalCompressed;
}

/// Segments are rows: [`Crs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {}

impl SegmentAxis for Row {
    const KIND: CompressKind = CompressKind::Crs;
    const NAME: &'static str = "Crs";
    const POINTER: &'static str = "ro";
    const INDICES: &'static str = "co";
    const SEGMENT: &'static str = "row";
    const INDEX: &'static str = "column";

    #[inline]
    fn orient<T>(a: T, b: T) -> (T, T) {
        (a, b)
    }

    fn wrap(a: Crs) -> LocalCompressed {
        LocalCompressed::Crs(a)
    }
}

/// Segments are columns: [`Ccs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {}

impl SegmentAxis for Col {
    const KIND: CompressKind = CompressKind::Ccs;
    const NAME: &'static str = "Ccs";
    const POINTER: &'static str = "cp";
    const INDICES: &'static str = "ri";
    const SEGMENT: &'static str = "column";
    const INDEX: &'static str = "row";

    #[inline]
    fn orient<T>(a: T, b: T) -> (T, T) {
        (b, a)
    }

    fn wrap(a: Ccs) -> LocalCompressed {
        LocalCompressed::Ccs(a)
    }
}

/// A sparse array in compressed storage along axis `M`.
///
/// `pointer` (the paper's `RO`) has one entry per segment plus one,
/// starting at 0; segment `s`'s nonzeros occupy `indices[pointer[s]..
/// pointer[s+1]]` (the paper's `CO`, strictly increasing within a segment)
/// and the matching range of `values` (the paper's `VL`).
///
/// The dimension the indices address is their *bound*: after CFS
/// compression at the source it is the global count (the paper stores
/// **global** indices in `CO` before distribution, §3.2), and after index
/// conversion at a receiver it is the local count.
#[derive(Clone, PartialEq)]
pub struct Compressed<M> {
    rows: usize,
    cols: usize,
    pointer: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
    axis: PhantomData<M>,
}

/// Compressed Row Storage: segments are rows, indices are columns.
pub type Crs = Compressed<Row>;

/// Compressed Column Storage: segments are columns, indices are rows.
pub type Ccs = Compressed<Col>;

impl<M: SegmentAxis> Compressed<M> {
    /// Compress a dense array segment by segment, counting 1 op per cell
    /// scanned plus 3 ops per nonzero emitted — the paper's `(1 + 3s)·cells`
    /// compression cost.
    pub fn from_dense(a: &Dense2D, ops: &mut OpCounter) -> Self {
        let s = PartScan::whole(a.rows(), a.cols()).compress(a, M::KIND, ops);
        Self::from_streams(a.rows(), a.cols(), s)
    }

    /// Compress one part of a partitioned global array directly from the
    /// global array, storing **global** indices — the CFS source-side
    /// compression of §3.2 (Figure 5(b) for CCS). Op counting matches
    /// [`Compressed::from_dense`] over the part's cells, so compressing
    /// every part costs `(1 + 3s)·n²` total, the paper's CFS
    /// `T_Compression`.
    pub fn from_part_global(
        global: &Dense2D,
        part: &dyn Partition,
        pid: usize,
        ops: &mut OpCounter,
    ) -> Self {
        let (lrows, lcols) = part.local_shape(pid);
        let (grows, gcols) = part.global_shape();
        let (segments, _) = M::orient(lrows, lcols);
        let (_, bound) = M::orient(grows, gcols);
        let (rows, cols) = M::orient(segments, bound);
        let s = PartScan::of(part, pid).compress(global, M::KIND, ops);
        Self::from_streams(rows, cols, s)
    }

    pub(super) fn from_streams(rows: usize, cols: usize, s: Streams) -> Self {
        Compressed {
            rows,
            cols,
            pointer: s.pointer,
            indices: s.indices,
            values: s.values,
            axis: PhantomData,
        }
    }

    /// Build from unsorted `(row, col, value)` triplets by counting sort
    /// over segments, charging one op per element touched per pass (count,
    /// place, within-segment ordering). Used by the gather and
    /// redistribution paths, where nonzeros arrive from many processors in
    /// arrival order.
    ///
    /// # Panics
    /// Panics if a triplet is out of bounds or duplicated (callers own the
    /// no-duplicates guarantee: every global cell has exactly one owner).
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        trips: &[(usize, usize, f64)],
        ops: &mut OpCounter,
    ) -> Self {
        let (segments, _) = M::orient(rows, cols);
        let mut pointer = vec![0usize; segments + 1];
        for &(r, c, _) in trips {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of {rows}x{cols}"
            );
            pointer[M::orient(r, c).0 + 1] += 1;
            ops.tick();
        }
        for i in 1..pointer.len() {
            pointer[i] += pointer[i - 1];
            ops.tick();
        }
        let mut placed: Vec<(usize, f64)> = vec![(0, 0.0); trips.len()];
        let mut cursor = pointer.clone();
        for &(r, c, v) in trips {
            let (s, i) = M::orient(r, c);
            placed[cursor[s]] = (i, v);
            cursor[s] += 1;
            ops.tick();
        }
        for s in 0..segments {
            let run = &mut placed[pointer[s]..pointer[s + 1]];
            run.sort_unstable_by_key(|&(i, _)| i);
            ops.add(run.len() as u64);
            assert!(
                run.windows(2).all(|w| w[0].0 < w[1].0),
                "duplicate {} in {} {s}",
                M::INDEX,
                M::SEGMENT
            );
        }
        Compressed {
            rows,
            cols,
            pointer,
            indices: placed.iter().map(|&(i, _)| i).collect(),
            values: placed.iter().map(|&(_, v)| v).collect(),
            axis: PhantomData,
        }
    }

    /// Assemble from raw arrays, validating every structural invariant
    /// (the receiver-side constructor; a truncated or corrupted message
    /// surfaces here).
    pub fn from_raw(
        rows: usize,
        cols: usize,
        pointer: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, CompressError> {
        let (segments, bound) = M::orient(rows, cols);
        validate_layout(&pointer, &indices, &values, segments, bound)?;
        Ok(Compressed {
            rows,
            cols,
            pointer,
            indices,
            values,
            axis: PhantomData,
        })
    }

    /// Number of rows (the index bound of a CCS array).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the index bound of a CRS array).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of segments: rows for CRS, columns for CCS.
    pub fn nsegments(&self) -> usize {
        self.pointer.len() - 1
    }

    /// The exclusive bound of the stored indices: columns for CRS, rows
    /// for CCS.
    pub fn index_bound(&self) -> usize {
        M::orient(self.rows, self.cols).1
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The pointer array (0-based, one entry per segment plus one).
    pub fn pointer(&self) -> &[usize] {
        &self.pointer
    }

    /// The index array.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Segment `s`'s indices and values.
    #[inline]
    pub fn segment(&self, s: usize) -> (&[usize], &[f64]) {
        let run = self.pointer[s]..self.pointer[s + 1];
        (&self.indices[run.clone()], &self.values[run])
    }

    /// Value at `(r, c)` (0 if not stored). Binary search within the
    /// segment.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        let (s, i) = M::orient(r, c);
        let (indices, values) = self.segment(s);
        match indices.binary_search(&i) {
            Ok(k) => values[k],
            Err(_) => 0.0,
        }
    }

    /// Iterate stored `(row, col, value)` triplets in storage order:
    /// row-major for CRS, column-major for CCS.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nsegments()).flat_map(move |s| {
            let (indices, values) = self.segment(s);
            indices.iter().zip(values).map(move |(&i, &v)| {
                let (r, c) = M::orient(s, i);
                (r, c, v)
            })
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
        let (segments, bound) = M::orient(self.rows, self.cols);
        validate_layout(&self.pointer, &self.indices, &self.values, segments, bound)
    }

    /// The paper's 1-based rendering of the pointer and index arrays
    /// (Figure 4: `RO[0] = 1`).
    pub fn paper(&self) -> (Vec<usize>, Vec<usize>) {
        let one_based = |xs: &[usize]| xs.iter().map(|&x| x + 1).collect();
        (one_based(&self.pointer), one_based(&self.indices))
    }
}

impl Crs {
    /// The paper's `RO`: [`Compressed::pointer`].
    pub fn ro(&self) -> &[usize] {
        self.pointer()
    }

    /// The paper's `CO`: [`Compressed::indices`].
    pub fn co(&self) -> &[usize] {
        self.indices()
    }

    /// The paper's `VL`: [`Compressed::values`].
    pub fn vl(&self) -> &[f64] {
        self.values()
    }
}

impl<M: SegmentAxis> From<Compressed<M>> for LocalCompressed {
    fn from(a: Compressed<M>) -> LocalCompressed {
        M::wrap(a)
    }
}

/// `Crs { rows, cols, ro, co, vl }` and `Ccs { rows, cols, cp, ri, vl }`:
/// the field names of the two formats' former structs, which the ledger
/// goldens pin.
impl<M: SegmentAxis> fmt::Debug for Compressed<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(M::NAME)
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field(M::POINTER, &self.pointer)
            .field(M::INDICES, &self.indices)
            .field("vl", &self.values)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;
    use crate::partition::RowBlock;

    /// The message of the panic `f` raises.
    fn panic_text(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("expected a panic");
        *err.downcast::<String>().expect("a formatted panic message")
    }

    /// A `#[test]` per case that runs it on CRS and then on CCS.
    macro_rules! on_both_kinds {
        ($($case:ident),* $(,)?) => {
            mod both {
                $(
                    #[test]
                    fn $case() {
                        super::$case::<super::Row>();
                        super::$case::<super::Col>();
                    }
                )*
            }
        };
    }

    on_both_kinds!(
        round_trip_dense,
        op_count_matches_paper_formula,
        get_and_iter,
        from_raw_validates,
        empty_and_full_arrays,
        zero_segment_array,
        segment_accessors,
        from_part_global_stores_global_indices,
        from_part_global_op_total_is_whole_array_cost,
        from_triplets_matches_from_dense,
        from_triplets_rejects_duplicates,
        from_triplets_rejects_out_of_bounds,
    );

    fn round_trip_dense<M: SegmentAxis>() {
        let a = paper_array_a();
        let x = Compressed::<M>::from_dense(&a, &mut OpCounter::new());
        assert_eq!(x.to_dense(), a);
        assert!(x.validate().is_ok());
        assert_eq!(x.nnz(), 16);
    }

    fn op_count_matches_paper_formula<M: SegmentAxis>() {
        // (1 + 3s)·cells with cells = 80, nnz = 16: 80 + 48 = 128.
        let mut ops = OpCounter::new();
        let _ = Compressed::<M>::from_dense(&paper_array_a(), &mut ops);
        assert_eq!(ops.get(), 80 + 3 * 16);
    }

    fn get_and_iter<M: SegmentAxis>() {
        let a = paper_array_a();
        let x = Compressed::<M>::from_dense(&a, &mut OpCounter::new());
        for r in 0..10 {
            for c in 0..8 {
                assert_eq!(x.get(r, c), a.get(r, c), "({r},{c})");
            }
        }
        // Storage order: row-major for CRS, column-major for CCS.
        let mut want: Vec<_> = a.iter_nonzero().collect();
        want.sort_by_key(|&(r, c, _)| M::orient(r, c));
        assert_eq!(x.iter().collect::<Vec<_>>(), want);

        let small = Dense2D::from_rows(&[&[1., 0.], &[2., 3.]]);
        let x = Compressed::<M>::from_dense(&small, &mut OpCounter::new());
        assert_eq!(
            x.iter().collect::<Vec<_>>(),
            vec![(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)]
        );
    }

    fn from_raw_validates<M: SegmentAxis>() {
        // Two segments whose indices are below 3.
        let (rows, cols) = M::orient(2, 3);
        let raw = |p: Vec<usize>, i: Vec<usize>, v: Vec<f64>| {
            Compressed::<M>::from_raw(rows, cols, p, i, v)
        };
        assert!(raw(vec![0, 1, 2], vec![0, 2], vec![1., 2.]).is_ok());
        assert!(raw(vec![0, 1], vec![0], vec![1.]).is_err());
        assert!(raw(vec![0, 2, 1], vec![0, 1], vec![1., 2.]).is_err());
        assert!(raw(vec![0, 1, 2], vec![0, 5], vec![1., 2.]).is_err());
        assert!(raw(vec![0, 1, 2], vec![0, 3], vec![1., 2.]).is_err());
    }

    fn empty_and_full_arrays<M: SegmentAxis>() {
        let z = Dense2D::zeros(3, 3);
        let x = Compressed::<M>::from_dense(&z, &mut OpCounter::new());
        assert_eq!(x.nnz(), 0);
        assert_eq!(x.to_dense(), z);

        let f = Dense2D::from_rows(&[&[1., 1.], &[1., 1.]]);
        let x = Compressed::<M>::from_dense(&f, &mut OpCounter::new());
        assert_eq!(x.nnz(), 4);
        assert_eq!(x.to_dense(), f);
    }

    fn zero_segment_array<M: SegmentAxis>() {
        let (rows, cols) = M::orient(0, 5);
        let x = Compressed::<M>::from_dense(&Dense2D::zeros(rows, cols), &mut OpCounter::new());
        assert_eq!((x.rows(), x.cols()), (rows, cols));
        assert_eq!(x.nsegments(), 0);
        assert_eq!(x.index_bound(), 5);
        assert_eq!(x.pointer(), &[0]);
        assert!(x.validate().is_ok());
    }

    fn segment_accessors<M: SegmentAxis>() {
        let a = paper_array_a();
        let x = Compressed::<M>::from_dense(&a, &mut OpCounter::new());
        let (segments, bound) = M::orient(10, 8);
        assert_eq!((x.nsegments(), x.index_bound()), (segments, bound));
        for s in 0..segments {
            let want: Vec<(usize, f64)> = (a.iter_nonzero())
                .filter_map(|(r, c, v)| {
                    let (seg, i) = M::orient(r, c);
                    (seg == s).then_some((i, v))
                })
                .collect();
            let (indices, values) = x.segment(s);
            let got: Vec<(usize, f64)> = indices
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect();
            assert_eq!(got, want, "segment {s}");
            let run = x.pointer()[s]..x.pointer()[s + 1];
            assert_eq!(indices, &x.indices()[run.clone()]);
            assert_eq!(values, &x.values()[run]);
        }
    }

    fn from_part_global_stores_global_indices<M: SegmentAxis>() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let x = Compressed::<M>::from_part_global(&a, &part, 1, &mut OpCounter::new());
        // Segments are local, the index bound is global.
        let (segments, _) = M::orient(3, 8);
        let (_, bound) = M::orient(10, 8);
        assert_eq!((x.nsegments(), x.index_bound()), (segments, bound));
        assert_eq!((x.rows(), x.cols()), M::orient(segments, bound));
        let (segment_map, _) = M::orient(part.row_map(1), part.col_map(1));
        let mut got = Vec::new();
        for (r, c, v) in x.iter() {
            let (s, i) = M::orient(r, c);
            let (gr, gc) = M::orient(segment_map.get(s), i);
            got.push((gr, gc, v));
        }
        got.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(got, vec![(3, 5, 5.), (4, 3, 6.), (5, 4, 7.)]);
    }

    fn from_part_global_op_total_is_whole_array_cost<M: SegmentAxis>() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let mut ops = OpCounter::new();
        for pid in 0..4 {
            let _ = Compressed::<M>::from_part_global(&a, &part, pid, &mut ops);
        }
        // Compressing every part touches each global cell exactly once:
        // n·m + 3·nnz = 80 + 48.
        assert_eq!(ops.get(), 128);
    }

    fn from_triplets_matches_from_dense<M: SegmentAxis>() {
        let a = paper_array_a();
        let mut trips: Vec<(usize, usize, f64)> = a.iter_nonzero().collect();
        // Reverse to ensure order independence.
        trips.reverse();
        let got = Compressed::<M>::from_triplets(10, 8, &trips, &mut OpCounter::new());
        assert_eq!(got, Compressed::<M>::from_dense(&a, &mut OpCounter::new()));
    }

    fn from_triplets_rejects_duplicates<M: SegmentAxis>() {
        let msg = panic_text(|| {
            let trips = [(1, 0, 1.0), (1, 0, 2.0)];
            let _ = Compressed::<M>::from_triplets(2, 2, &trips, &mut OpCounter::new());
        });
        assert!(
            msg.starts_with(&format!("duplicate {} in", M::INDEX)),
            "{msg}"
        );
    }

    fn from_triplets_rejects_out_of_bounds<M: SegmentAxis>() {
        let msg = panic_text(|| {
            let _ = Compressed::<M>::from_triplets(2, 2, &[(5, 0, 1.0)], &mut OpCounter::new());
        });
        assert!(msg.contains("out of 2x2"), "{msg}");
    }

    #[test]
    fn paper_figure4_p0() {
        // Figure 4: P0's rows are global rows 0..3 with nonzeros
        // 1@(0,1), 2@(1,6), 3@(2,0), 4@(2,7) → RO=[1,2,3,5] (1-based),
        // CO=[2,7,1,8] (1-based), VL=[1,2,3,4].
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let p0 = part.extract_dense(&a, 0);
        let crs = Crs::from_dense(&p0, &mut OpCounter::new());
        assert_eq!(crs.paper(), (vec![1, 2, 3, 5], vec![2, 7, 1, 8]));
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
            assert_eq!(crs.paper(), (ro.to_vec(), co.to_vec()), "P{pid} RO, CO");
            assert_eq!(&crs.vl(), vl, "P{pid} VL");
        }
    }

    #[test]
    fn paper_figure5b_p1_global_indices() {
        // Figure 5: CFS with row partition + CCS. P1 owns global rows 3..6
        // with nonzeros 5@(3,5), 6@(4,3), 7@(5,4). CCS walks columns:
        // col 3 → row 4 (value 6), col 4 → row 5 (value 7),
        // col 5 → row 3 (value 5). The stored row indices are GLOBAL
        // (1-based: 5, 6, 4). Column pointers: cols 0-2 empty, col3 has 1,
        // col4 has 1, col5 has 1, cols 6-7 empty → 1-based
        // [1,1,1,1,2,3,4,4,4].
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let ccs = Ccs::from_part_global(&a, &part, 1, &mut OpCounter::new());
        assert_eq!(ccs.cols(), 8);
        assert_eq!(ccs.rows(), 10); // global row bound before conversion
        assert_eq!(
            ccs.paper(),
            (vec![1, 1, 1, 1, 2, 3, 4, 4, 4], vec![5, 6, 4])
        );
        assert_eq!(ccs.values(), &[6.0, 7.0, 5.0]);
    }

    #[test]
    fn crs_and_ccs_agree_on_content() {
        let a = paper_array_a();
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        let ccs = Ccs::from_dense(&a, &mut OpCounter::new());
        let mut from_crs: Vec<_> = crs.iter().collect();
        let mut from_ccs: Vec<_> = ccs.iter().collect();
        from_crs.sort_by_key(|a| (a.0, a.1));
        from_ccs.sort_by_key(|a| (a.0, a.1));
        assert_eq!(from_crs, from_ccs);
    }

    #[test]
    fn debug_uses_each_formats_field_names() {
        let a = Dense2D::from_rows(&[&[0., 2.], &[3., 0.]]);
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        let ccs = Ccs::from_dense(&a, &mut OpCounter::new());
        assert_eq!(
            format!("{crs:?}"),
            "Crs { rows: 2, cols: 2, ro: [0, 1, 2], co: [1, 0], vl: [2.0, 3.0] }"
        );
        assert_eq!(
            format!("{ccs:?}"),
            "Ccs { rows: 2, cols: 2, cp: [0, 1, 2], ri: [1, 0], vl: [3.0, 2.0] }"
        );
    }
}
