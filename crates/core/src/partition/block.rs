//! The paper's three block partition methods: row, column and 2-D mesh.

use super::{block_extent, block_range, block_start, ceil_div, AxisMap, Partition};

/// Row partition `(Block, *)`: processor `i` owns the contiguous row band
/// `[i·⌈m/p⌉, (i+1)·⌈m/p⌉)` and every column (Figure 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBlock {
    rows: usize,
    cols: usize,
    p: usize,
}

impl RowBlock {
    /// Partition an `rows × cols` array over `p` processors.
    ///
    /// # Panics
    /// Panics if any argument is zero.
    pub fn new(rows: usize, cols: usize, p: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        assert!(p > 0, "need at least one processor");
        RowBlock { rows, cols, p }
    }

    fn band(&self) -> usize {
        ceil_div(self.rows, self.p)
    }
}

impl Partition for RowBlock {
    fn name(&self) -> &'static str {
        "row"
    }

    fn nparts(&self) -> usize {
        self.p
    }

    fn global_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn local_shape(&self, part: usize) -> (usize, usize) {
        assert!(part < self.p, "part {part} out of {}", self.p);
        (block_extent(self.rows, self.p, part), self.cols)
    }

    fn owner_of(&self, r: usize, _c: usize) -> usize {
        assert!(r < self.rows);
        r / self.band()
    }

    fn to_local(&self, r: usize, c: usize) -> (usize, usize, usize) {
        let part = self.owner_of(r, c);
        (part, r - block_start(self.rows, self.p, part), c)
    }

    fn to_global(&self, part: usize, lr: usize, lc: usize) -> (usize, usize) {
        (block_start(self.rows, self.p, part) + lr, lc)
    }

    fn row_map(&self, part: usize) -> AxisMap {
        block_range(self.rows, self.p, part)
    }

    fn col_map(&self, _part: usize) -> AxisMap {
        AxisMap::Range(0..self.cols)
    }

    fn splits_rows(&self) -> bool {
        self.p > 1
    }

    fn splits_cols(&self) -> bool {
        false
    }

    fn row_to_local(&self, part: usize, gr: usize) -> usize {
        gr - block_start(self.rows, self.p, part)
    }

    fn col_to_local(&self, _part: usize, gc: usize) -> usize {
        gc
    }

    fn row_contiguous(&self) -> bool {
        true
    }
}

/// Column partition `(*, Block)`: processor `i` owns the contiguous column
/// band `[i·⌈n/p⌉, (i+1)·⌈n/p⌉)` and every row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColBlock {
    rows: usize,
    cols: usize,
    p: usize,
}

impl ColBlock {
    /// Partition an `rows × cols` array over `p` processors.
    ///
    /// # Panics
    /// Panics if any argument is zero.
    pub fn new(rows: usize, cols: usize, p: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        assert!(p > 0, "need at least one processor");
        ColBlock { rows, cols, p }
    }

    fn band(&self) -> usize {
        ceil_div(self.cols, self.p)
    }
}

impl Partition for ColBlock {
    fn name(&self) -> &'static str {
        "column"
    }

    fn nparts(&self) -> usize {
        self.p
    }

    fn global_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn local_shape(&self, part: usize) -> (usize, usize) {
        assert!(part < self.p, "part {part} out of {}", self.p);
        (self.rows, block_extent(self.cols, self.p, part))
    }

    fn owner_of(&self, _r: usize, c: usize) -> usize {
        assert!(c < self.cols);
        c / self.band()
    }

    fn to_local(&self, r: usize, c: usize) -> (usize, usize, usize) {
        let part = self.owner_of(r, c);
        (part, r, c - block_start(self.cols, self.p, part))
    }

    fn to_global(&self, part: usize, lr: usize, lc: usize) -> (usize, usize) {
        (lr, block_start(self.cols, self.p, part) + lc)
    }

    fn row_map(&self, _part: usize) -> AxisMap {
        AxisMap::Range(0..self.rows)
    }

    fn col_map(&self, part: usize) -> AxisMap {
        block_range(self.cols, self.p, part)
    }

    fn splits_rows(&self) -> bool {
        false
    }

    fn splits_cols(&self) -> bool {
        self.p > 1
    }

    fn row_to_local(&self, _part: usize, gr: usize) -> usize {
        gr
    }

    fn col_to_local(&self, part: usize, gc: usize) -> usize {
        gc - block_start(self.cols, self.p, part)
    }
}

/// 2-D mesh partition `(Block, Block)`: a `pr × pc` processor grid, with
/// processor `P_{i,j}` (rank `i·pc + j`) owning row band `i` and column
/// band `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh2D {
    rows: usize,
    cols: usize,
    pr: usize,
    pc: usize,
}

impl Mesh2D {
    /// Partition an `rows × cols` array over a `pr × pc` grid.
    ///
    /// # Panics
    /// Panics if any argument is zero.
    pub fn new(rows: usize, cols: usize, pr: usize, pc: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        assert!(pr > 0 && pc > 0, "grid dimensions must be positive");
        Mesh2D { rows, cols, pr, pc }
    }

    /// The processor grid shape `(pr, pc)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.pr, self.pc)
    }

    /// Grid coordinates `(i, j)` of `part`.
    pub fn grid_coords(&self, part: usize) -> (usize, usize) {
        assert!(part < self.pr * self.pc);
        (part / self.pc, part % self.pc)
    }
}

impl Partition for Mesh2D {
    fn name(&self) -> &'static str {
        "mesh"
    }

    fn nparts(&self) -> usize {
        self.pr * self.pc
    }

    fn global_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn local_shape(&self, part: usize) -> (usize, usize) {
        let (i, j) = self.grid_coords(part);
        (
            block_extent(self.rows, self.pr, i),
            block_extent(self.cols, self.pc, j),
        )
    }

    fn owner_of(&self, r: usize, c: usize) -> usize {
        assert!(r < self.rows && c < self.cols);
        let i = r / ceil_div(self.rows, self.pr);
        let j = c / ceil_div(self.cols, self.pc);
        i * self.pc + j
    }

    fn to_local(&self, r: usize, c: usize) -> (usize, usize, usize) {
        let part = self.owner_of(r, c);
        let (i, j) = self.grid_coords(part);
        (
            part,
            r - block_start(self.rows, self.pr, i),
            c - block_start(self.cols, self.pc, j),
        )
    }

    fn to_global(&self, part: usize, lr: usize, lc: usize) -> (usize, usize) {
        let (i, j) = self.grid_coords(part);
        (
            block_start(self.rows, self.pr, i) + lr,
            block_start(self.cols, self.pc, j) + lc,
        )
    }

    fn row_map(&self, part: usize) -> AxisMap {
        block_range(self.rows, self.pr, self.grid_coords(part).0)
    }

    fn col_map(&self, part: usize) -> AxisMap {
        block_range(self.cols, self.pc, self.grid_coords(part).1)
    }

    fn splits_rows(&self) -> bool {
        self.pr > 1
    }

    fn splits_cols(&self) -> bool {
        self.pc > 1
    }

    fn row_to_local(&self, part: usize, gr: usize) -> usize {
        let (i, _) = self.grid_coords(part);
        gr - block_start(self.rows, self.pr, i)
    }

    fn col_to_local(&self, part: usize, gc: usize) -> usize {
        let (_, j) = self.grid_coords(part);
        gc - block_start(self.cols, self.pc, j)
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
    fn mesh_grid_coords_row_major() {
        let m = Mesh2D::new(8, 8, 2, 4);
        assert_eq!(m.nparts(), 8);
        assert_eq!(m.grid_coords(0), (0, 0));
        assert_eq!(m.grid_coords(3), (0, 3));
        assert_eq!(m.grid_coords(4), (1, 0));
        assert_eq!(m.grid(), (2, 4));
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
        assert!(!Mesh2D::new(8, 8, 2, 2).row_contiguous());
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
}
