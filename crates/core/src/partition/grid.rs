//! The separable grid partitions: a row axis map times a column axis map.
//!
//! A `pr × pc` processor grid deals the rows over `pr` grid rows and the
//! columns over `pc` grid columns, each axis independently; processor
//! `P_{i,j}` (rank `i·pc + j`) owns the cells whose row falls to grid row
//! `i` and whose column falls to grid column `j`. Each axis is either
//! *block* — the paper's ceil bands, `(Block)` in Fortran 90 notation — or
//! *cyclic* in blocks of `b` (the paper's §1 allows both); an unsplit axis
//! (`*`) is a block axis over one grid coordinate. The six public types
//! are the six kinds of axis pair the workspace uses:
//!
//! | type            | rows           | columns        |
//! |-----------------|----------------|----------------|
//! | [`RowBlock`]    | block over `p` | unsplit        |
//! | [`ColBlock`]    | unsplit        | block over `p` |
//! | [`Mesh2D`]      | block over `pr`| block over `pc`|
//! | [`RowCyclic`]   | cyclic, `b = 1`| unsplit        |
//! | [`ColCyclic`]   | unsplit        | cyclic, `b = 1`|
//! | [`BlockCyclic`] | cyclic, `br`   | cyclic, `bc`   |
//!
//! Index conversion for cyclic axes is not a single subtraction (the
//! paper's Cases only cover blocks), so the drivers fall back to the
//! general [`Partition::row_to_local`] / `col_to_local` mapping at the same
//! 1-op-per-index charge.

use super::{AxisMap, Partition};
use crate::error::SparsedistError;
use std::fmt::{self, Debug};
use std::marker::PhantomData;

/// One axis of a grid partition: `len` global indices dealt in blocks of
/// `b` round-robin over `np` grid coordinates.
///
/// A block axis is the deal with `b = ⌈len/np⌉`, which ends within one
/// cycle: coordinate `g` owns the band `[g·b, (g+1)·b)` clipped to `len`,
/// the final coordinate(s) taking whatever remains (possibly nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Axis {
    len: usize,
    b: usize,
    np: usize,
    /// False for a block axis, whose maps are ranges.
    cyclic: bool,
}

impl Axis {
    fn block(len: usize, np: usize) -> Axis {
        Axis {
            len,
            b: len.div_ceil(np),
            np,
            cyclic: false,
        }
    }

    fn cyclic(len: usize, b: usize, np: usize) -> Axis {
        Axis {
            len,
            b,
            np,
            cyclic: true,
        }
    }

    /// How many of the `len` indices land on coordinate `g`.
    fn extent(self, g: usize) -> usize {
        let stride = self.b * self.np;
        let tail = (self.len % stride).saturating_sub(g * self.b).min(self.b);
        self.len / stride * self.b + tail
    }

    /// The coordinate owning global index `i`.
    fn owner(self, i: usize) -> usize {
        i / self.b % self.np
    }

    /// The local index of global index `i` on its owner.
    fn to_local(self, i: usize) -> usize {
        i / (self.b * self.np) * self.b + i % self.b
    }

    /// The global index of local index `k` on coordinate `g`.
    fn to_global(self, g: usize, k: usize) -> usize {
        k / self.b * self.b * self.np + g * self.b + k % self.b
    }

    /// The global index of each local index on coordinate `g`: a range in
    /// O(1) for a block axis.
    fn map(self, g: usize) -> AxisMap {
        if self.cyclic {
            AxisMap::from_indices((0..self.extent(g)).map(|k| self.to_global(g, k)).collect())
        } else {
            let start = (g * self.b).min(self.len);
            AxisMap::Range(start..start + self.extent(g))
        }
    }
}

/// What a grid partition's kind shows its callers beyond its axes.
pub trait GridKind: Debug {
    /// The partition's [`Partition::name`].
    const NAME: &'static str;
    /// The partition's [`Partition::row_contiguous`].
    const ROW_CONTIGUOUS: bool = false;
}

/// A separable grid partition of kind `K` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid<K> {
    rows: Axis,
    cols: Axis,
    kind: PhantomData<K>,
}

/// The kind of [`RowBlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {}

impl GridKind for Row {
    const NAME: &'static str = "row";
    const ROW_CONTIGUOUS: bool = true;
}

/// The kind of [`ColBlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {}

impl GridKind for Col {
    const NAME: &'static str = "column";
}

/// The kind of [`Mesh2D`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesh {}

impl GridKind for Mesh {
    const NAME: &'static str = "mesh";
}

/// The kind of [`RowCyclic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowCyc {}

impl GridKind for RowCyc {
    const NAME: &'static str = "row-cyclic";
}

/// The kind of [`ColCyclic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColCyc {}

impl GridKind for ColCyc {
    const NAME: &'static str = "column-cyclic";
}

/// The kind of [`BlockCyclic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockCyc {}

impl GridKind for BlockCyc {
    const NAME: &'static str = "block-cyclic";
}

/// Row partition `(Block, *)`: processor `i` owns the contiguous row band
/// `[i·⌈m/p⌉, (i+1)·⌈m/p⌉)` and every column (Figure 2 of the paper).
/// The only grid whose parts are contiguous row-major runs of the global
/// array, which SFC sends without packing (§4.1.1).
pub type RowBlock = Grid<Row>;

/// Column partition `(*, Block)`: processor `i` owns the contiguous column
/// band `[i·⌈n/p⌉, (i+1)·⌈n/p⌉)` and every row.
pub type ColBlock = Grid<Col>;

/// 2-D mesh partition `(Block, Block)`: a `pr × pc` processor grid, with
/// processor `P_{i,j}` (rank `i·pc + j`) owning row band `i` and column
/// band `j`.
pub type Mesh2D = Grid<Mesh>;

/// Row-cyclic partition: global row `r` belongs to processor `r mod p`,
/// local row `r div p`.
pub type RowCyclic = Grid<RowCyc>;

/// Column-cyclic partition: global column `c` belongs to processor
/// `c mod p`, local column `c div p`.
pub type ColCyclic = Grid<ColCyc>;

/// 2-D block-cyclic partition over a `pr × pc` grid with `br × bc` blocks —
/// the distribution underlying the Block Row Scatter scheme of the paper's
/// related work (and ScaLAPACK).
pub type BlockCyclic = Grid<BlockCyc>;

impl<K: GridKind> Grid<K> {
    fn of(rows: Axis, cols: Axis) -> Self {
        Grid {
            rows,
            cols,
            kind: PhantomData,
        }
    }

    /// Grid coordinates `(i, j)` of `part`.
    fn coords(&self, part: usize) -> (usize, usize) {
        assert!(part < self.nparts(), "part {part} out of {}", self.nparts());
        (part / self.cols.np, part % self.cols.np)
    }

    /// What `new` makes of its `try_new`: the grid, or a panic with the
    /// check's message.
    fn or_panic(grid: Result<Self, SparsedistError>) -> Self {
        // lint: allow(E003) — `new` documents this panic; `try_new` is the fallible form
        grid.unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one argument check behind every constructor: a positive array
    /// shape, then positive block sides, then a positive processor count
    /// (one entry in `procs`) or positive grid sides (two).
    fn check(
        rows: usize,
        cols: usize,
        procs: &[usize],
        blocks: &[usize],
    ) -> Result<(), PartitionError> {
        if rows == 0 || cols == 0 {
            Err(PartitionError::EmptyArray)
        } else if blocks.contains(&0) {
            Err(PartitionError::EmptyBlock)
        } else if procs == [0] {
            Err(PartitionError::NoProcessors)
        } else if procs.contains(&0) {
            Err(PartitionError::EmptyGrid)
        } else {
            Ok(())
        }
    }
}

/// Why a grid partition cannot be built: one of its extents is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// The array has no rows or no columns.
    EmptyArray,
    /// A one-axis partition over zero processors.
    NoProcessors,
    /// A `pr × pc` processor grid with a zero side.
    EmptyGrid,
    /// A block-cyclic block with a zero side.
    EmptyBlock,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PartitionError::EmptyArray => "array dimensions must be positive",
            PartitionError::NoProcessors => "need at least one processor",
            PartitionError::EmptyGrid => "grid dimensions must be positive",
            PartitionError::EmptyBlock => "block dimensions must be positive",
        })
    }
}

impl std::error::Error for PartitionError {}

impl RowBlock {
    /// Partition an `rows × cols` array over `p` processors.
    ///
    /// # Panics
    /// Panics if any argument is zero; [`RowBlock::try_new`] returns the
    /// error instead.
    pub fn new(rows: usize, cols: usize, p: usize) -> Self {
        Self::or_panic(Self::try_new(rows, cols, p))
    }

    /// [`RowBlock::new`], or [`SparsedistError::Partition`] if any argument
    /// is zero.
    pub fn try_new(rows: usize, cols: usize, p: usize) -> Result<Self, SparsedistError> {
        Self::check(rows, cols, &[p], &[])?;
        Ok(Grid::of(Axis::block(rows, p), Axis::block(cols, 1)))
    }
}

impl ColBlock {
    /// Partition an `rows × cols` array over `p` processors.
    ///
    /// # Panics
    /// Panics if any argument is zero; [`ColBlock::try_new`] returns the
    /// error instead.
    pub fn new(rows: usize, cols: usize, p: usize) -> Self {
        Self::or_panic(Self::try_new(rows, cols, p))
    }

    /// [`ColBlock::new`], or [`SparsedistError::Partition`] if any argument
    /// is zero.
    pub fn try_new(rows: usize, cols: usize, p: usize) -> Result<Self, SparsedistError> {
        Self::check(rows, cols, &[p], &[])?;
        Ok(Grid::of(Axis::block(rows, 1), Axis::block(cols, p)))
    }
}

impl Mesh2D {
    /// Partition an `rows × cols` array over a `pr × pc` grid.
    ///
    /// # Panics
    /// Panics if any argument is zero; [`Mesh2D::try_new`] returns the
    /// error instead.
    pub fn new(rows: usize, cols: usize, pr: usize, pc: usize) -> Self {
        Self::or_panic(Self::try_new(rows, cols, pr, pc))
    }

    /// [`Mesh2D::new`], or [`SparsedistError::Partition`] if any argument
    /// is zero.
    pub fn try_new(
        rows: usize,
        cols: usize,
        pr: usize,
        pc: usize,
    ) -> Result<Self, SparsedistError> {
        Self::check(rows, cols, &[pr, pc], &[])?;
        Ok(Grid::of(Axis::block(rows, pr), Axis::block(cols, pc)))
    }
}

impl RowCyclic {
    /// Partition an `rows × cols` array cyclically by rows over `p`
    /// processors.
    ///
    /// # Panics
    /// Panics if any argument is zero; [`RowCyclic::try_new`] returns the
    /// error instead.
    pub fn new(rows: usize, cols: usize, p: usize) -> Self {
        Self::or_panic(Self::try_new(rows, cols, p))
    }

    /// [`RowCyclic::new`], or [`SparsedistError::Partition`] if any argument
    /// is zero.
    pub fn try_new(rows: usize, cols: usize, p: usize) -> Result<Self, SparsedistError> {
        Self::check(rows, cols, &[p], &[])?;
        Ok(Grid::of(Axis::cyclic(rows, 1, p), Axis::block(cols, 1)))
    }
}

impl ColCyclic {
    /// Partition an `rows × cols` array cyclically by columns over `p`
    /// processors.
    ///
    /// # Panics
    /// Panics if any argument is zero; [`ColCyclic::try_new`] returns the
    /// error instead.
    pub fn new(rows: usize, cols: usize, p: usize) -> Self {
        Self::or_panic(Self::try_new(rows, cols, p))
    }

    /// [`ColCyclic::new`], or [`SparsedistError::Partition`] if any argument
    /// is zero.
    pub fn try_new(rows: usize, cols: usize, p: usize) -> Result<Self, SparsedistError> {
        Self::check(rows, cols, &[p], &[])?;
        Ok(Grid::of(Axis::block(rows, 1), Axis::cyclic(cols, 1, p)))
    }
}

impl BlockCyclic {
    /// Partition an `rows × cols` array into `br × bc` blocks dealt
    /// round-robin over a `pr × pc` processor grid.
    ///
    /// # Panics
    /// Panics if any argument is zero; [`BlockCyclic::try_new`] returns the
    /// error instead.
    pub fn new(rows: usize, cols: usize, br: usize, bc: usize, pr: usize, pc: usize) -> Self {
        Self::or_panic(Self::try_new(rows, cols, br, bc, pr, pc))
    }

    /// [`BlockCyclic::new`], or [`SparsedistError::Partition`] if any argument
    /// is zero.
    pub fn try_new(
        rows: usize,
        cols: usize,
        br: usize,
        bc: usize,
        pr: usize,
        pc: usize,
    ) -> Result<Self, SparsedistError> {
        Self::check(rows, cols, &[pr, pc], &[br, bc])?;
        Ok(Grid::of(
            Axis::cyclic(rows, br, pr),
            Axis::cyclic(cols, bc, pc),
        ))
    }
}

impl<K: GridKind> Partition for Grid<K> {
    fn name(&self) -> &'static str {
        K::NAME
    }

    fn nparts(&self) -> usize {
        self.rows.np * self.cols.np
    }

    fn global_shape(&self) -> (usize, usize) {
        (self.rows.len, self.cols.len)
    }

    fn local_shape(&self, part: usize) -> (usize, usize) {
        let (i, j) = self.coords(part);
        (self.rows.extent(i), self.cols.extent(j))
    }

    fn owner_of(&self, r: usize, c: usize) -> usize {
        let (rows, cols) = self.global_shape();
        assert!(r < rows && c < cols, "cell ({r}, {c}) out of {rows}x{cols}");
        self.rows.owner(r) * self.cols.np + self.cols.owner(c)
    }

    fn to_local(&self, r: usize, c: usize) -> (usize, usize, usize) {
        let part = self.owner_of(r, c);
        (part, self.rows.to_local(r), self.cols.to_local(c))
    }

    fn to_global(&self, part: usize, lr: usize, lc: usize) -> (usize, usize) {
        let (i, j) = self.coords(part);
        (self.rows.to_global(i, lr), self.cols.to_global(j, lc))
    }

    fn splits_rows(&self) -> bool {
        self.rows.np > 1
    }

    fn splits_cols(&self) -> bool {
        self.cols.np > 1
    }

    fn row_map(&self, part: usize) -> AxisMap {
        self.rows.map(self.coords(part).0)
    }

    fn col_map(&self, part: usize) -> AxisMap {
        self.cols.map(self.coords(part).1)
    }

    fn row_to_local(&self, _part: usize, gr: usize) -> usize {
        self.rows.to_local(gr)
    }

    fn col_to_local(&self, _part: usize, gc: usize) -> usize {
        self.cols.to_local(gc)
    }

    fn row_contiguous(&self) -> bool {
        K::ROW_CONTIGUOUS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{paper_array_a, Dense2D};
    use crate::partition::lawtests::check_laws;

    #[test]
    fn row_block_laws() {
        for (rows, cols, p) in [
            (10, 8, 4),
            (9, 4, 4),
            (16, 16, 4),
            (7, 3, 7),
            (5, 5, 1),
            (3, 3, 5),
        ] {
            check_laws(&RowBlock::new(rows, cols, p));
        }
    }

    #[test]
    fn col_block_laws() {
        for (rows, cols, p) in [(10, 8, 4), (4, 9, 4), (16, 16, 8), (3, 7, 7), (5, 5, 1)] {
            check_laws(&ColBlock::new(rows, cols, p));
        }
    }

    #[test]
    fn mesh_laws() {
        for (rows, cols, pr, pc) in [
            (10, 8, 2, 2),
            (12, 12, 3, 4),
            (9, 7, 4, 2),
            (6, 6, 1, 3),
            (5, 5, 5, 5),
        ] {
            check_laws(&Mesh2D::new(rows, cols, pr, pc));
        }
    }

    #[test]
    fn row_cyclic_laws() {
        for (rows, cols, p) in [(10, 8, 4), (9, 4, 4), (7, 3, 7), (5, 5, 1), (3, 3, 5)] {
            check_laws(&RowCyclic::new(rows, cols, p));
        }
    }

    #[test]
    fn col_cyclic_laws() {
        for (rows, cols, p) in [(10, 8, 4), (4, 9, 4), (3, 7, 7), (5, 5, 1), (3, 3, 5)] {
            check_laws(&ColCyclic::new(rows, cols, p));
        }
    }

    #[test]
    fn block_cyclic_laws() {
        for (rows, cols, br, bc, pr, pc) in [
            (10, 8, 2, 2, 2, 2),
            (12, 12, 3, 2, 2, 3),
            (9, 7, 2, 3, 4, 2),
            (6, 6, 1, 1, 2, 2), // pure cyclic-cyclic
            (8, 8, 8, 8, 2, 2), // blocks bigger than one cycle row
            (5, 5, 2, 2, 1, 1), // single processor
            (3, 7, 2, 2, 3, 2), // the last grid row owns no rows
        ] {
            check_laws(&BlockCyclic::new(rows, cols, br, bc, pr, pc));
        }
    }

    #[test]
    fn paper_row_partition_figure2() {
        // Figure 2: the 10×8 array over 4 processors splits into row bands
        // of 3,3,3,1 rows; P1 owns global rows 3..6.
        let part = RowBlock::new(10, 8, 4);
        assert_eq!(part.local_shape(0), (3, 8));
        assert_eq!(part.local_shape(3), (1, 8));
        assert_eq!(part.owner_of(3, 0), 1);
        assert_eq!(part.owner_of(9, 7), 3);
        assert_eq!(part.to_global(1, 0, 0), (3, 0));
    }

    #[test]
    fn paper_row_partition_nnz_per_processor() {
        // From Figure 3: P0 receives 4 nonzeros (1,2,3,4), P1 three
        // (5,6,7), P2 six (8..13), P3 three (14,15,16).
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let prof = part.nnz_profile(&a);
        assert_eq!(prof.per_part, vec![4, 3, 6, 3]);
        // s' is the max local ratio: P2 has 6/(3*8) = 0.25... but P3 has
        // 3/(1*8) = 0.375, the true max.
        assert!((prof.s_max - 0.375).abs() < 1e-12);
    }

    #[test]
    fn extract_dense_row_band() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let p1 = part.extract_dense(&a, 1);
        assert_eq!(p1.rows(), 3);
        assert_eq!(p1.get(0, 5), 5.0); // global (3,5)
        assert_eq!(p1.get(1, 3), 6.0); // global (4,3)
        assert_eq!(p1.get(2, 4), 7.0); // global (5,4)
        assert_eq!(p1.nnz(), 3);
    }

    #[test]
    fn mesh_ranks_are_row_major() {
        let m = Mesh2D::new(8, 8, 2, 4);
        assert_eq!(m.nparts(), 8);
        assert_eq!(m.owner_of(0, 0), 0);
        assert_eq!(m.owner_of(0, 7), 3);
        assert_eq!(m.owner_of(4, 0), 4);
        assert_eq!(m.to_global(5, 0, 0), (4, 2));
    }

    #[test]
    fn mesh_extract_block() {
        let a = Dense2D::from_rows(&[
            &[1., 2., 3., 4.],
            &[5., 6., 7., 8.],
            &[9., 10., 11., 12.],
            &[13., 14., 15., 16.],
        ]);
        let m = Mesh2D::new(4, 4, 2, 2);
        let p3 = m.extract_dense(&a, 3); // bottom-right block
        assert_eq!(p3, Dense2D::from_rows(&[&[11., 12.], &[15., 16.]]));
    }

    #[test]
    fn splits_flags() {
        assert!(RowBlock::new(8, 8, 4).splits_rows());
        assert!(!RowBlock::new(8, 8, 4).splits_cols());
        assert!(!RowBlock::new(8, 8, 1).splits_rows()); // single part: nothing split
        assert!(ColBlock::new(8, 8, 4).splits_cols());
        assert!(!ColBlock::new(8, 8, 4).splits_rows());
        let m = Mesh2D::new(8, 8, 2, 2);
        assert!(m.splits_rows() && m.splits_cols());
        assert!(!Mesh2D::new(8, 8, 1, 4).splits_rows());
    }

    #[test]
    fn row_contiguity() {
        assert!(RowBlock::new(8, 8, 2).row_contiguous());
        assert!(!ColBlock::new(8, 8, 2).row_contiguous());
        assert!(!Mesh2D::new(8, 8, 2, 1).row_contiguous());
        assert!(!RowCyclic::new(8, 8, 1).row_contiguous());
    }

    #[test]
    fn ragged_partition_has_empty_trailing_part() {
        // 9 rows over 4 procs with ⌈9/4⌉=3: sizes 3,3,3,0.
        let part = RowBlock::new(9, 4, 4);
        assert_eq!(part.local_shape(3), (0, 4));
        let a = Dense2D::zeros(9, 4);
        let e = part.extract_dense(&a, 3);
        assert!(e.is_empty());
    }

    #[test]
    fn column_partition_paper_bands() {
        // 8 columns over 4 processors: bands of 2.
        let part = ColBlock::new(10, 8, 4);
        assert_eq!(part.local_shape(0), (10, 2));
        assert_eq!(part.owner_of(0, 7), 3);
        assert_eq!(part.col_to_local(3, 7), 1);
    }

    #[test]
    fn try_new_rejects_every_zero_extent() {
        use PartitionError::*;
        let dims = [(0, 4), (4, 0), (0, 0)];
        let mut cases: Vec<(Result<(), SparsedistError>, PartitionError)> = Vec::new();
        for (r, c) in dims {
            cases.extend([
                (RowBlock::try_new(r, c, 2).map(drop), EmptyArray),
                (ColBlock::try_new(r, c, 2).map(drop), EmptyArray),
                (Mesh2D::try_new(r, c, 2, 2).map(drop), EmptyArray),
                (RowCyclic::try_new(r, c, 2).map(drop), EmptyArray),
                (ColCyclic::try_new(r, c, 2).map(drop), EmptyArray),
                (BlockCyclic::try_new(r, c, 1, 1, 2, 2).map(drop), EmptyArray),
                // The array is checked first.
                (RowBlock::try_new(r, c, 0).map(drop), EmptyArray),
                (BlockCyclic::try_new(r, c, 0, 0, 0, 0).map(drop), EmptyArray),
            ]);
        }
        for (a, b) in [(0, 2), (2, 0), (0, 0)] {
            cases.extend([
                (Mesh2D::try_new(4, 4, a, b).map(drop), EmptyGrid),
                (BlockCyclic::try_new(4, 4, 1, 1, a, b).map(drop), EmptyGrid),
                (BlockCyclic::try_new(4, 4, a, b, 2, 2).map(drop), EmptyBlock),
                // Blocks are checked before the grid.
                (BlockCyclic::try_new(4, 4, a, b, 0, 0).map(drop), EmptyBlock),
            ]);
        }
        cases.extend([
            (RowBlock::try_new(4, 4, 0).map(drop), NoProcessors),
            (ColBlock::try_new(4, 4, 0).map(drop), NoProcessors),
            (RowCyclic::try_new(4, 4, 0).map(drop), NoProcessors),
            (ColCyclic::try_new(4, 4, 0).map(drop), NoProcessors),
        ]);
        for (i, (got, want)) in cases.into_iter().enumerate() {
            assert_eq!(got, Err(SparsedistError::Partition(want)), "case {i}");
        }
    }

    #[test]
    fn try_new_builds_what_new_builds() {
        assert_eq!(RowBlock::try_new(10, 8, 4), Ok(RowBlock::new(10, 8, 4)));
        assert_eq!(ColBlock::try_new(10, 8, 4), Ok(ColBlock::new(10, 8, 4)));
        assert_eq!(Mesh2D::try_new(10, 8, 2, 3), Ok(Mesh2D::new(10, 8, 2, 3)));
        assert_eq!(RowCyclic::try_new(10, 8, 4), Ok(RowCyclic::new(10, 8, 4)));
        assert_eq!(ColCyclic::try_new(10, 8, 4), Ok(ColCyclic::new(10, 8, 4)));
        assert_eq!(
            BlockCyclic::try_new(10, 8, 2, 3, 2, 2),
            Ok(BlockCyclic::new(10, 8, 2, 3, 2, 2))
        );
    }

    #[test]
    fn new_keeps_its_panic_messages() {
        let message = |f: fn() -> usize| {
            let panic = std::panic::catch_unwind(f).unwrap_err();
            panic.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        assert_eq!(
            message(|| ColBlock::new(0, 4, 2).nparts()),
            "array dimensions must be positive"
        );
        assert_eq!(
            message(|| RowCyclic::new(4, 4, 0).nparts()),
            "need at least one processor"
        );
        assert_eq!(
            message(|| Mesh2D::new(4, 4, 0, 4).nparts()),
            "grid dimensions must be positive"
        );
        assert_eq!(
            message(|| BlockCyclic::new(4, 4, 2, 0, 2, 2).nparts()),
            "block dimensions must be positive"
        );
    }

    #[test]
    fn row_cyclic_deals_rows_round_robin() {
        let p = RowCyclic::new(10, 8, 4);
        assert_eq!(p.owner_of(0, 0), 0);
        assert_eq!(p.owner_of(5, 0), 1);
        assert_eq!(p.owner_of(7, 0), 3);
        // Processor 0 gets rows {0,4,8}: 3 rows; processor 3 gets {3,7}: 2.
        assert_eq!(p.local_shape(0), (3, 8));
        assert_eq!(p.local_shape(3), (2, 8));
    }

    #[test]
    fn row_cyclic_balances_paper_array() {
        // Cyclic row distribution of the paper's array balances nonzeros
        // better than the block partition (4,3,6,3 → block vs cyclic).
        let a = paper_array_a();
        let prof = RowCyclic::new(10, 8, 4).nnz_profile(&a);
        assert_eq!(prof.per_part.iter().sum::<usize>(), 16);
        // P0 owns rows {0,4,8} → 1+1+3 = 5; P1 rows {1,5,9} → 1+1+3 = 5;
        // P2 rows {2,6} → 2+1 = 3; P3 rows {3,7} → 1+2 = 3.
        assert_eq!(prof.per_part, vec![5, 5, 3, 3]);
    }

    #[test]
    fn block_cyclic_degenerates_to_mesh_when_blocks_cover() {
        // With block size = band size and one cycle, block-cyclic == mesh.
        let bcyc = BlockCyclic::new(8, 8, 4, 4, 2, 2);
        let mesh = Mesh2D::new(8, 8, 2, 2);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(bcyc.owner_of(r, c), mesh.owner_of(r, c));
                assert_eq!(bcyc.to_local(r, c), mesh.to_local(r, c));
            }
        }
    }

    #[test]
    fn cyclic_extents() {
        // 10 indices, blocks of 2, 2 grid rows: deal 2-2/2-2/2 →
        // grid row 0 gets blocks {0,2,4} = 6, grid row 1 gets {1,3} = 4.
        assert_eq!(Axis::cyclic(10, 2, 2).extent(0), 6);
        assert_eq!(Axis::cyclic(10, 2, 2).extent(1), 4);
        // Remainder smaller than a block.
        assert_eq!(Axis::cyclic(5, 2, 2).extent(0), 3);
        assert_eq!(Axis::cyclic(5, 2, 2).extent(1), 2);
    }
}
