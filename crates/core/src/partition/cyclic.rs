//! Cyclic and block-cyclic partition methods.
//!
//! The paper's §1 notes that "many partition methods as block or cyclic
//! partition methods can be used for these three schemes"; its related work
//! (the BRS scheme of Zapata et al.) scatters *blocks* cyclically. These
//! implementations extend the scheme drivers beyond the three block methods
//! the paper measures. Index conversion for cyclic methods is not a single
//! subtraction (the paper's Cases only cover blocks), so the drivers fall
//! back to the general [`Partition::row_to_local`] / `col_to_local` mapping
//! at the same 1-op-per-index charge.

use super::{ceil_div, AxisMap, Partition};

/// Row-cyclic partition: global row `r` belongs to processor `r mod p`,
/// local row `r div p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowCyclic {
    rows: usize,
    cols: usize,
    p: usize,
}

impl RowCyclic {
    /// Partition an `rows × cols` array cyclically by rows over `p`
    /// processors.
    ///
    /// # Panics
    /// Panics if any argument is zero.
    pub fn new(rows: usize, cols: usize, p: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        assert!(p > 0, "need at least one processor");
        RowCyclic { rows, cols, p }
    }
}

impl Partition for RowCyclic {
    fn name(&self) -> &'static str {
        "row-cyclic"
    }

    fn nparts(&self) -> usize {
        self.p
    }

    fn global_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn local_shape(&self, part: usize) -> (usize, usize) {
        assert!(part < self.p);
        // Rows r with r % p == part: count = ceil((rows - part) / p).
        let nrows = if part < self.rows {
            ceil_div(self.rows - part, self.p)
        } else {
            0
        };
        (nrows, self.cols)
    }

    fn owner_of(&self, r: usize, _c: usize) -> usize {
        assert!(r < self.rows);
        r % self.p
    }

    fn to_local(&self, r: usize, c: usize) -> (usize, usize, usize) {
        (r % self.p, r / self.p, c)
    }

    fn to_global(&self, part: usize, lr: usize, lc: usize) -> (usize, usize) {
        (lr * self.p + part, lc)
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

    fn row_to_local(&self, _part: usize, gr: usize) -> usize {
        gr / self.p
    }

    fn col_to_local(&self, _part: usize, gc: usize) -> usize {
        gc
    }
}

/// Column-cyclic partition: global column `c` belongs to processor
/// `c mod p`, local column `c div p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColCyclic {
    rows: usize,
    cols: usize,
    p: usize,
}

impl ColCyclic {
    /// Partition an `rows × cols` array cyclically by columns over `p`
    /// processors.
    ///
    /// # Panics
    /// Panics if any argument is zero.
    pub fn new(rows: usize, cols: usize, p: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        assert!(p > 0, "need at least one processor");
        ColCyclic { rows, cols, p }
    }
}

impl Partition for ColCyclic {
    fn name(&self) -> &'static str {
        "column-cyclic"
    }

    fn nparts(&self) -> usize {
        self.p
    }

    fn global_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn local_shape(&self, part: usize) -> (usize, usize) {
        assert!(part < self.p);
        let ncols = if part < self.cols {
            ceil_div(self.cols - part, self.p)
        } else {
            0
        };
        (self.rows, ncols)
    }

    fn owner_of(&self, _r: usize, c: usize) -> usize {
        assert!(c < self.cols);
        c % self.p
    }

    fn to_local(&self, r: usize, c: usize) -> (usize, usize, usize) {
        (c % self.p, r, c / self.p)
    }

    fn to_global(&self, part: usize, lr: usize, lc: usize) -> (usize, usize) {
        (lr, lc * self.p + part)
    }

    fn row_map(&self, _part: usize) -> AxisMap {
        AxisMap::Range(0..self.rows)
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

    fn col_to_local(&self, _part: usize, gc: usize) -> usize {
        gc / self.p
    }
}

/// 2-D block-cyclic partition over a `pr × pc` grid with `br × bc` blocks —
/// the distribution underlying the Block Row Scatter scheme of the paper's
/// related work (and ScaLAPACK).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCyclic {
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
    pr: usize,
    pc: usize,
}

impl BlockCyclic {
    /// Partition an `rows × cols` array into `br × bc` blocks dealt
    /// round-robin over a `pr × pc` processor grid.
    ///
    /// # Panics
    /// Panics if any argument is zero.
    pub fn new(rows: usize, cols: usize, br: usize, bc: usize, pr: usize, pc: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        assert!(br > 0 && bc > 0, "block dimensions must be positive");
        assert!(pr > 0 && pc > 0, "grid dimensions must be positive");
        BlockCyclic {
            rows,
            cols,
            br,
            bc,
            pr,
            pc,
        }
    }

    /// Local extent along one dimension: how many of `len` indices land on
    /// grid coordinate `g` when dealt in blocks of `b` over `np` grid rows.
    fn local_extent(len: usize, b: usize, np: usize, g: usize) -> usize {
        let stride = b * np;
        let full_cycles = len / stride;
        let rem = len % stride;
        let extra = rem.saturating_sub(g * b).min(b);
        full_cycles * b + extra
    }
}

impl Partition for BlockCyclic {
    fn name(&self) -> &'static str {
        "block-cyclic"
    }

    fn nparts(&self) -> usize {
        self.pr * self.pc
    }

    fn global_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn local_shape(&self, part: usize) -> (usize, usize) {
        assert!(part < self.nparts());
        let (i, j) = (part / self.pc, part % self.pc);
        (
            Self::local_extent(self.rows, self.br, self.pr, i),
            Self::local_extent(self.cols, self.bc, self.pc, j),
        )
    }

    fn owner_of(&self, r: usize, c: usize) -> usize {
        assert!(r < self.rows && c < self.cols);
        let i = (r / self.br) % self.pr;
        let j = (c / self.bc) % self.pc;
        i * self.pc + j
    }

    fn to_local(&self, r: usize, c: usize) -> (usize, usize, usize) {
        let part = self.owner_of(r, c);
        (part, self.row_to_local(part, r), self.col_to_local(part, c))
    }

    fn to_global(&self, part: usize, lr: usize, lc: usize) -> (usize, usize) {
        let (i, j) = (part / self.pc, part % self.pc);
        let r = (lr / self.br) * self.br * self.pr + i * self.br + lr % self.br;
        let c = (lc / self.bc) * self.bc * self.pc + j * self.bc + lc % self.bc;
        (r, c)
    }

    fn splits_rows(&self) -> bool {
        self.pr > 1
    }

    fn splits_cols(&self) -> bool {
        self.pc > 1
    }

    fn row_to_local(&self, _part: usize, gr: usize) -> usize {
        (gr / (self.br * self.pr)) * self.br + gr % self.br
    }

    fn col_to_local(&self, _part: usize, gc: usize) -> usize {
        (gc / (self.bc * self.pc)) * self.bc + gc % self.bc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;
    use crate::partition::lawtests::check_laws;

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
        ] {
            check_laws(&BlockCyclic::new(rows, cols, br, bc, pr, pc));
        }
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
        use crate::partition::Mesh2D;
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
    fn block_cyclic_local_extent_examples() {
        // 10 indices, blocks of 2, 2 grid rows: deal 2-2/2-2/2 →
        // grid row 0 gets blocks {0,2,4} = 6, grid row 1 gets {1,3} = 4.
        assert_eq!(BlockCyclic::local_extent(10, 2, 2, 0), 6);
        assert_eq!(BlockCyclic::local_extent(10, 2, 2, 1), 4);
        // Remainder smaller than a block.
        assert_eq!(BlockCyclic::local_extent(5, 2, 2, 0), 3);
        assert_eq!(BlockCyclic::local_extent(5, 2, 2, 1), 2);
    }
}
