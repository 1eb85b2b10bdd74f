//! Load-balanced row partition.
//!
//! The paper's related work (Ziantz, Ozturan & Szymanski, PARLE 1994) uses
//! "the block data distribution scheme with a bin-packing algorithm" to
//! even out per-processor nonzero counts. Ceil-block row bands ignore the
//! nonzero structure entirely, so a skewed array gives one processor most
//! of the work — the paper's own `s'` (max local ratio) term. This module
//! provides two structure-aware row partitions:
//!
//! * [`BalancedRows::contiguous`] — contiguous row bands with *variable*
//!   band heights chosen so each band holds ≈ `nnz/p` nonzeros (keeps the
//!   SFC scheme's "no packing" property);
//! * [`BalancedRows::bin_packed`] — greedy longest-processing-time bin
//!   packing of individual rows (best balance, rows no longer contiguous).
//!
//! Both implement [`Partition`], so every scheme, the redistribution and
//! the gather paths work on them unchanged.

use super::{AxisMap, Partition};
use crate::dense::Dense2D;

/// A row partition driven by the array's nonzero structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalancedRows {
    rows: usize,
    cols: usize,
    p: usize,
    contiguous: bool,
    /// row → owning part.
    owner: Vec<usize>,
    /// row → local row index within its part.
    local_of: Vec<usize>,
    /// part → global rows it owns, in local order.
    rows_of: Vec<Vec<usize>>,
}

impl BalancedRows {
    fn from_assignment(a: &Dense2D, p: usize, owner: Vec<usize>, contiguous: bool) -> Self {
        let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); p];
        let mut local_of = vec![0usize; a.rows()];
        for (r, &part) in owner.iter().enumerate() {
            local_of[r] = rows_of[part].len();
            rows_of[part].push(r);
        }
        BalancedRows {
            rows: a.rows(),
            cols: a.cols(),
            p,
            contiguous,
            owner,
            local_of,
            rows_of,
        }
    }

    /// Contiguous variable-height row bands with ≈ equal nonzero counts.
    ///
    /// Sweeps the rows once, cutting a new band whenever the running count
    /// passes the ideal share (and leaving enough rows for the remaining
    /// processors).
    ///
    /// # Panics
    /// Panics if `p` is zero or exceeds the row count... `p` may exceed the
    /// row count; trailing parts are then empty, like the ceil-block case.
    pub fn contiguous(a: &Dense2D, p: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        let row_nnz: Vec<usize> = (0..a.rows())
            .map(|r| a.row(r).iter().filter(|&&v| v != 0.0).count())
            .collect();
        let total: usize = row_nnz.iter().sum();
        let mut owner = vec![0usize; a.rows()];
        let mut part = 0usize;
        let mut acc = 0usize;
        let mut assigned: usize = 0; // nonzeros already closed off
        for r in 0..a.rows() {
            // Rows remaining must not outnumber parts remaining... the
            // reverse: ensure every remaining part can still be non-empty
            // only when rows suffice; otherwise later parts stay empty.
            let parts_left = p - part;
            let ideal = (total - assigned).div_ceil(parts_left.max(1));
            if part + 1 < p && acc >= ideal && acc > 0 {
                assigned += acc;
                acc = 0;
                part += 1;
            }
            owner[r] = part;
            acc += row_nnz[r];
        }
        Self::from_assignment(a, p, owner, true)
    }

    /// Greedy bin packing: rows sorted by decreasing nonzero count, each
    /// placed on the currently lightest processor.
    ///
    /// # Panics
    /// Panics if `p` is zero.
    pub fn bin_packed(a: &Dense2D, p: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        let mut rows: Vec<(usize, usize)> = (0..a.rows())
            .map(|r| (r, a.row(r).iter().filter(|&&v| v != 0.0).count()))
            .collect();
        rows.sort_by_key(|&(r, n)| (std::cmp::Reverse(n), r));
        let mut load = vec![0usize; p];
        let mut owner = vec![0usize; a.rows()];
        for (r, n) in rows {
            // lint: allow(E002) — `assert!(p > 0)` at entry makes 0..p non-empty
            let lightest = (0..p).min_by_key(|&k| (load[k], k)).expect("p > 0");
            owner[r] = lightest;
            load[lightest] += n;
        }
        Self::from_assignment(a, p, owner, false)
    }

    /// Per-part nonzero load this partition was built for (recomputed).
    pub fn loads(&self, a: &Dense2D) -> Vec<usize> {
        self.nnz_profile(a).per_part
    }
}

impl Partition for BalancedRows {
    fn name(&self) -> &'static str {
        if self.contiguous {
            "balanced-rows"
        } else {
            "bin-packed-rows"
        }
    }

    fn nparts(&self) -> usize {
        self.p
    }

    fn global_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn local_shape(&self, part: usize) -> (usize, usize) {
        assert!(part < self.p, "part {part} out of {}", self.p);
        (self.rows_of[part].len(), self.cols)
    }

    fn owner_of(&self, r: usize, _c: usize) -> usize {
        self.owner[r]
    }

    fn to_local(&self, r: usize, c: usize) -> (usize, usize, usize) {
        (self.owner[r], self.local_of[r], c)
    }

    fn to_global(&self, part: usize, lr: usize, lc: usize) -> (usize, usize) {
        (self.rows_of[part][lr], lc)
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
        self.local_of[gr]
    }

    fn col_to_local(&self, _part: usize, gc: usize) -> usize {
        gc
    }

    fn row_contiguous(&self) -> bool {
        self.contiguous
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::lawtests::check_laws;
    use crate::partition::RowBlock;

    /// A strongly row-skewed array: row r holds r nonzeros (mod cols).
    fn skewed(rows: usize, cols: usize) -> Dense2D {
        let mut a = Dense2D::zeros(rows, cols);
        for r in 0..rows {
            for k in 0..(r % (cols + 1)) {
                a.set(r, (k * 7 + r) % cols, 1.0 + r as f64);
            }
        }
        a
    }

    #[test]
    fn laws_hold_for_both_variants() {
        let a = skewed(17, 9);
        check_laws(&BalancedRows::contiguous(&a, 4));
        check_laws(&BalancedRows::bin_packed(&a, 4));
        check_laws(&BalancedRows::contiguous(&a, 1));
        check_laws(&BalancedRows::bin_packed(&a, 23)); // more parts than rows
    }

    #[test]
    fn balances_better_than_ceil_blocks() {
        let a = skewed(64, 32);
        let imbalance = |per: &[usize]| -> f64 {
            let max = *per.iter().max().expect("non-empty") as f64;
            let avg = per.iter().sum::<usize>() as f64 / per.len() as f64;
            max / avg
        };
        let block = RowBlock::new(64, 32, 4).nnz_profile(&a).per_part;
        let contiguous = BalancedRows::contiguous(&a, 4).nnz_profile(&a).per_part;
        let packed = BalancedRows::bin_packed(&a, 4).nnz_profile(&a).per_part;
        assert!(imbalance(&contiguous) < imbalance(&block));
        assert!(imbalance(&packed) <= imbalance(&contiguous) + 1e-12);
        // Greedy LPT should be within a few % of perfect on this input.
        assert!(imbalance(&packed) < 1.05, "{packed:?}");
    }

    #[test]
    fn contiguous_variant_keeps_bands_contiguous() {
        let a = skewed(40, 16);
        let part = BalancedRows::contiguous(&a, 4);
        assert!(part.row_contiguous());
        // Owners must be non-decreasing down the rows.
        let owners: Vec<usize> = (0..40).map(|r| part.owner_of(r, 0)).collect();
        assert!(owners.windows(2).all(|w| w[0] <= w[1]), "{owners:?}");
    }

    #[test]
    fn bin_packed_is_not_contiguous_but_balanced() {
        let a = skewed(40, 16);
        let part = BalancedRows::bin_packed(&a, 4);
        assert!(!part.row_contiguous());
        let loads = part.loads(&a);
        let max = *loads.iter().max().expect("non-empty");
        let min = *loads.iter().min().expect("non-empty");
        assert!(max - min <= 40, "loads {loads:?}"); // within one max-row
    }

    #[test]
    fn schemes_run_on_balanced_partitions() {
        use crate::compress::CompressKind;
        use crate::schemes::{run_scheme, SchemeKind};
        use sparsedist_multicomputer::{MachineModel, Multicomputer};
        let a = skewed(24, 12);
        let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
        for part in [
            BalancedRows::contiguous(&a, 4),
            BalancedRows::bin_packed(&a, 4),
        ] {
            for scheme in SchemeKind::ALL {
                for kind in [CompressKind::Crs, CompressKind::Ccs] {
                    let run = run_scheme(scheme, &machine, &a, &part, kind).unwrap();
                    assert_eq!(run.reassemble(&part), a, "{scheme} {kind} {}", part.name());
                }
            }
        }
    }

    #[test]
    fn balanced_partition_reduces_sfc_compression_time() {
        use crate::compress::CompressKind;
        use crate::schemes::{run_scheme, SchemeKind};
        use sparsedist_multicomputer::{MachineModel, Multicomputer};
        // SFC's T_Compression is the slowest receiver: balancing nnz
        // directly shrinks it.
        let a = skewed(64, 64);
        let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
        let block = run_scheme(
            SchemeKind::Sfc,
            &machine,
            &a,
            &RowBlock::new(64, 64, 4),
            CompressKind::Crs,
        )
        .unwrap();
        let packed = run_scheme(
            SchemeKind::Sfc,
            &machine,
            &a,
            &BalancedRows::bin_packed(&a, 4),
            CompressKind::Crs,
        )
        .unwrap();
        assert!(
            packed.t_compression() < block.t_compression(),
            "packed {} !< block {}",
            packed.t_compression(),
            block.t_compression()
        );
    }

    #[test]
    fn empty_array_all_zero_loads() {
        let a = Dense2D::zeros(10, 10);
        let part = BalancedRows::contiguous(&a, 4);
        check_laws(&part);
        assert_eq!(part.loads(&a), vec![0, 0, 0, 0]);
    }
}
