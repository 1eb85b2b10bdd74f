//! Data compression methods (phase 3 of every distribution scheme).
//!
//! The paper uses the two classic compressed formats from Barrett et al.'s
//! *Templates* book: **CRS** (Compressed Row Storage) and **CCS**
//! (Compressed Column Storage). Both use "two one-dimensional integer
//! arrays, `RO` and `CO`, and one one-dimensional floating-point array,
//! `VL`" (§3.1), so both are one type here, [`Compressed<M>`], whose marker
//! `M` says whether segments are rows ([`Crs`]) or columns ([`Ccs`]).
//! Internally this crate stores 0-based indices and a pointer array with a
//! leading `0` (the standard modern layout); the paper's figures are
//! 1-based, and [`Compressed::paper`] renders that form for the
//! figure-reproduction tests.
//!
//! A [`Coo`] triplet format rounds out the set (used by the workload
//! generators and MatrixMarket I/O in `sparsedist-gen`).

mod compressed;
mod coo;

pub use compressed::{Ccs, Col, Compressed, Crs, Row, SegmentAxis};
pub use coo::Coo;

use crate::dense::Dense2D;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::scan::{Cells, PartScan};
use std::fmt;

/// Which compressed format a scheme run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressKind {
    /// Compressed Row Storage: nonzeros walked along rows; the travelling
    /// indices are **column** indices.
    Crs,
    /// Compressed Column Storage: nonzeros walked along columns; the
    /// travelling indices are **row** indices.
    Ccs,
}

impl CompressKind {
    /// Lower-case label for table output.
    pub fn label(self) -> &'static str {
        match self {
            CompressKind::Crs => "crs",
            CompressKind::Ccs => "ccs",
        }
    }

    /// `(row, col)` as `(segment, index)`, and back: [`SegmentAxis::orient`]
    /// chosen at run time, for per-part (not per-element) decisions.
    pub fn orient<T>(self, a: T, b: T) -> (T, T) {
        match self {
            CompressKind::Crs => Row::orient(a, b),
            CompressKind::Ccs => Col::orient(a, b),
        }
    }
}

impl fmt::Display for CompressKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A compressed local sparse array, as held by one processor after a
/// distribution scheme completes.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalCompressed {
    /// CRS-compressed local array.
    Crs(Crs),
    /// CCS-compressed local array.
    Ccs(Ccs),
}

/// `$body` with `$a` bound to the array `$local` holds, whichever its kind.
macro_rules! for_both {
    ($local:expr, $a:ident => $body:expr) => {
        match $local {
            LocalCompressed::Crs($a) => $body,
            LocalCompressed::Ccs($a) => $body,
        }
    };
}

impl LocalCompressed {
    /// [`Compressed::from_raw`] in the format `kind`.
    ///
    /// # Errors
    /// The structural violation [`Compressed::from_raw`] found.
    pub fn from_raw(
        kind: CompressKind,
        rows: usize,
        cols: usize,
        pointer: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<LocalCompressed, CompressError> {
        Ok(match kind {
            CompressKind::Crs => Crs::from_raw(rows, cols, pointer, indices, values)?.into(),
            CompressKind::Ccs => Ccs::from_raw(rows, cols, pointer, indices, values)?.into(),
        })
    }

    /// [`Compressed::from_triplets`] in the format `kind`.
    ///
    /// # Panics
    /// Panics if a triplet is out of bounds or duplicated.
    pub fn from_triplets(
        kind: CompressKind,
        rows: usize,
        cols: usize,
        trips: &[(usize, usize, f64)],
        ops: &mut OpCounter,
    ) -> LocalCompressed {
        match kind {
            CompressKind::Crs => Crs::from_triplets(rows, cols, trips, ops).into(),
            CompressKind::Ccs => Ccs::from_triplets(rows, cols, trips, ops).into(),
        }
    }

    /// Which format this is.
    pub fn kind(&self) -> CompressKind {
        match self {
            LocalCompressed::Crs(_) => CompressKind::Crs,
            LocalCompressed::Ccs(_) => CompressKind::Ccs,
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        for_both!(self, a => a.nnz())
    }

    /// Local array shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        for_both!(self, a => (a.rows(), a.cols()))
    }

    /// Number of segments: rows for CRS, columns for CCS.
    pub fn nsegments(&self) -> usize {
        for_both!(self, a => a.nsegments())
    }

    /// The exclusive bound of the stored indices.
    pub fn index_bound(&self) -> usize {
        for_both!(self, a => a.index_bound())
    }

    /// The pointer array.
    pub fn pointer(&self) -> &[usize] {
        for_both!(self, a => a.pointer())
    }

    /// The index array.
    pub fn indices(&self) -> &[usize] {
        for_both!(self, a => a.indices())
    }

    /// The value array.
    pub fn values(&self) -> &[f64] {
        for_both!(self, a => a.values())
    }

    /// Segment `s`'s indices and values.
    pub fn segment(&self, s: usize) -> (&[usize], &[f64]) {
        for_both!(self, a => a.segment(s))
    }

    /// Iterate stored `(row, col, value)` triplets in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        // One side of the chain is empty: the two kinds' iterators have
        // different types, and this joins them without boxing.
        let (crs, ccs) = match self {
            LocalCompressed::Crs(a) => (Some(a), None),
            LocalCompressed::Ccs(a) => (None, Some(a)),
        };
        (crs.into_iter().flat_map(Crs::iter)).chain(ccs.into_iter().flat_map(Ccs::iter))
    }

    /// Expand back to a dense local array.
    pub fn to_dense(&self) -> Dense2D {
        for_both!(self, a => a.to_dense())
    }

    /// Borrow the CRS payload.
    ///
    /// # Panics
    /// Panics if this is a CCS array.
    pub fn as_crs(&self) -> &Crs {
        match self {
            LocalCompressed::Crs(c) => c,
            // lint: allow(E003) — documented `# Panics` accessor; callers assert the variant
            LocalCompressed::Ccs(_) => panic!("expected CRS, found CCS"),
        }
    }

    /// Borrow the CCS payload.
    ///
    /// # Panics
    /// Panics if this is a CRS array.
    pub fn as_ccs(&self) -> &Ccs {
        match self {
            LocalCompressed::Ccs(c) => c,
            // lint: allow(E003) — documented `# Panics` accessor; callers assert the variant
            LocalCompressed::Crs(_) => panic!("expected CCS, found CRS"),
        }
    }
}

/// Compress a dense array with the requested method, counting element
/// operations into `ops` (what an SFC receiver does after its dense local
/// array arrives).
pub fn compress_dense(kind: CompressKind, a: &Dense2D, ops: &mut OpCounter) -> LocalCompressed {
    compress_cells(kind, a.rows(), a.cols(), a.as_slice(), ops)
}

/// [`compress_dense`] of the `rows × cols` array whose row-major cells are
/// `cells`: an SFC receiver compresses its dense local array straight
/// from the received payload.
///
/// # Panics
/// Panics if `cells` does not hold `rows · cols` cells.
pub(crate) fn compress_cells(
    kind: CompressKind,
    rows: usize,
    cols: usize,
    cells: impl Cells,
    ops: &mut OpCounter,
) -> LocalCompressed {
    let s = PartScan::whole(rows, cols).compress_cells(cells, kind, ops);
    match kind {
        CompressKind::Crs => Crs::from_streams(rows, cols, s).into(),
        CompressKind::Ccs => Ccs::from_streams(rows, cols, s).into(),
    }
}

/// [`Compressed::from_part_global`] in the format `kind`: part `pid` of
/// `global` compressed with **global** indices, the CFS source side.
pub fn compress_part(
    kind: CompressKind,
    global: &Dense2D,
    part: &dyn Partition,
    pid: usize,
    ops: &mut OpCounter,
) -> LocalCompressed {
    match kind {
        CompressKind::Crs => Crs::from_part_global(global, part, pid, ops).into(),
        CompressKind::Ccs => Ccs::from_part_global(global, part, pid, ops).into(),
    }
}

/// Error from validating a compressed array's structural invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Pointer array has the wrong length for the dimension it indexes.
    PointerLength {
        /// Required length (`segments + 1`).
        expected: usize,
        /// Length found.
        actual: usize,
    },
    /// Pointer array does not start at zero.
    PointerStart,
    /// Pointer array decreases somewhere.
    PointerNotMonotone {
        /// First decreasing position.
        at: usize,
    },
    /// Pointer total disagrees with the index/value array lengths.
    LengthMismatch {
        /// The pointer array's final entry.
        pointer_total: usize,
        /// Index array length found.
        indices: usize,
        /// Value array length found.
        values: usize,
    },
    /// A stored index is out of the array bounds.
    IndexOutOfBounds {
        /// Offending position in the index array.
        position: usize,
        /// The out-of-range index.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
    },
    /// Indices within one row/column are not strictly increasing.
    IndicesNotSorted {
        /// The offending row (CRS) or column (CCS).
        segment: usize,
    },
    /// A buffer expected to carry a versioned wire header starts with
    /// something else (wrong magic, unknown flags, or too short to hold
    /// one).
    WireHeader {
        /// The bytes found where the header should be (zero-padded when the
        /// buffer is shorter than a header).
        found: [u8; 3],
    },
    /// A codec payload is structurally invalid (bad value-plane tag,
    /// dictionary code out of range, zero-length RLE run, …).
    Codec {
        /// What the decoder found wrong.
        reason: &'static str,
    },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::PointerLength { expected, actual } => {
                write!(f, "pointer array length {actual}, expected {expected}")
            }
            CompressError::PointerStart => write!(f, "pointer array must start at 0"),
            CompressError::PointerNotMonotone { at } => {
                write!(f, "pointer array decreases at position {at}")
            }
            CompressError::LengthMismatch {
                pointer_total,
                indices,
                values,
            } => write!(
                f,
                "pointer total {pointer_total} disagrees with {indices} indices / {values} values"
            ),
            CompressError::IndexOutOfBounds {
                position,
                index,
                bound,
            } => {
                write!(
                    f,
                    "index {index} at position {position} exceeds bound {bound}"
                )
            }
            CompressError::IndicesNotSorted { segment } => {
                write!(
                    f,
                    "indices in segment {segment} are not strictly increasing"
                )
            }
            CompressError::WireHeader { found } => {
                write!(
                    f,
                    "missing or malformed wire header: found bytes {found:02x?}"
                )
            }
            CompressError::Codec { reason } => {
                write!(f, "malformed codec stream: {reason}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

/// Shared validation for a (pointer, indices, values) compressed layout.
pub(crate) fn validate_layout(
    pointer: &[usize],
    indices: &[usize],
    values: &[f64],
    nsegments: usize,
    index_bound: usize,
) -> Result<(), CompressError> {
    if pointer.len() != nsegments + 1 {
        return Err(CompressError::PointerLength {
            expected: nsegments + 1,
            actual: pointer.len(),
        });
    }
    if pointer[0] != 0 {
        return Err(CompressError::PointerStart);
    }
    for i in 1..pointer.len() {
        if pointer[i] < pointer[i - 1] {
            return Err(CompressError::PointerNotMonotone { at: i });
        }
    }
    // lint: allow(E002) — pointer.len() == nsegments + 1 ≥ 1, checked first above
    let total = *pointer.last().expect("pointer array is non-empty");
    if total != indices.len() || total != values.len() {
        return Err(CompressError::LengthMismatch {
            pointer_total: total,
            indices: indices.len(),
            values: values.len(),
        });
    }
    for (pos, &idx) in indices.iter().enumerate() {
        if idx >= index_bound {
            return Err(CompressError::IndexOutOfBounds {
                position: pos,
                index: idx,
                bound: index_bound,
            });
        }
    }
    for seg in 0..nsegments {
        let run = &indices[pointer[seg]..pointer[seg + 1]];
        if run.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CompressError::IndicesNotSorted { segment: seg });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;

    #[test]
    fn compress_dense_dispatches() {
        let a = paper_array_a();
        let mut ops = OpCounter::new();
        let crs = compress_dense(CompressKind::Crs, &a, &mut ops);
        assert_eq!(crs.kind(), CompressKind::Crs);
        assert_eq!(crs.nnz(), 16);
        let ccs = compress_dense(CompressKind::Ccs, &a, &mut ops);
        assert_eq!(ccs.kind(), CompressKind::Ccs);
        assert_eq!(ccs.to_dense(), a);
    }

    #[test]
    fn validate_layout_catches_each_failure() {
        // Good layout: 2 segments, bound 4.
        assert!(validate_layout(&[0, 1, 3], &[2, 0, 3], &[1., 2., 3.], 2, 4).is_ok());
        assert_eq!(
            validate_layout(&[0, 1], &[0], &[1.], 2, 4),
            Err(CompressError::PointerLength {
                expected: 3,
                actual: 2
            })
        );
        assert_eq!(
            validate_layout(&[1, 1, 1], &[], &[], 2, 4),
            Err(CompressError::PointerStart)
        );
        assert_eq!(
            validate_layout(&[0, 2, 1], &[0], &[1.], 2, 4),
            Err(CompressError::PointerNotMonotone { at: 2 })
        );
        assert_eq!(
            validate_layout(&[0, 1, 3], &[0, 1], &[1., 2., 3.], 2, 4),
            Err(CompressError::LengthMismatch {
                pointer_total: 3,
                indices: 2,
                values: 3
            })
        );
        assert_eq!(
            validate_layout(&[0, 1, 2], &[0, 9], &[1., 2.], 2, 4),
            Err(CompressError::IndexOutOfBounds {
                position: 1,
                index: 9,
                bound: 4
            })
        );
        assert_eq!(
            validate_layout(&[0, 2, 2], &[3, 1], &[1., 2.], 2, 4),
            Err(CompressError::IndicesNotSorted { segment: 0 })
        );
    }

    #[test]
    fn local_compressed_accessors() {
        let a = paper_array_a();
        let mut ops = OpCounter::new();
        let c = compress_dense(CompressKind::Crs, &a, &mut ops);
        assert_eq!(c.shape(), (10, 8));
        let _ = c.as_crs();
        let trips: Vec<_> = a.iter_nonzero().collect();
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            let c = compress_dense(kind, &a, &mut ops);
            assert_eq!(c.kind(), kind);
            assert_eq!((c.nsegments(), c.index_bound()), kind.orient(10, 8));
            let (indices, values) = c.segment(4);
            let run = c.pointer()[4]..c.pointer()[5];
            assert_eq!(
                (indices, values),
                (&c.indices()[run.clone()], &c.values()[run])
            );
            let mut got: Vec<_> = c.iter().collect();
            got.sort_by_key(|&(r, col, _)| (r, col));
            assert_eq!(got, trips);
            assert_eq!(
                LocalCompressed::from_triplets(kind, 10, 8, &trips, &mut ops),
                c
            );
            let raw = LocalCompressed::from_raw(
                kind,
                10,
                8,
                c.pointer().to_vec(),
                c.indices().to_vec(),
                c.values().to_vec(),
            );
            assert_eq!(raw, Ok(c.clone()));
            let bad = LocalCompressed::from_raw(kind, 10, 8, vec![0], vec![], vec![]);
            assert!(matches!(bad, Err(CompressError::PointerLength { .. })));
        }
    }

    #[test]
    #[should_panic(expected = "expected CCS")]
    fn wrong_accessor_panics() {
        let a = paper_array_a();
        let c = compress_dense(CompressKind::Crs, &a, &mut OpCounter::new());
        let _ = c.as_ccs();
    }
}
