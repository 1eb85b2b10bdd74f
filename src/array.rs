//! The high-level object model: a sparse array that *lives distributed*.
//!
//! [`DistributedSparseArray`] owns a machine, a partition and the
//! per-processor compressed local arrays, and exposes the whole workspace
//! as methods: distribute (any scheme), compute, repartition, transpose,
//! gather, checkpoint. Library users who don't want to orchestrate the
//! crates by hand start here.
//!
//! ```
//! use sparsedist::array::DistributedSparseArray;
//! use sparsedist::prelude::*;
//!
//! let mut a = Dense2D::zeros(16, 16);
//! for i in 0..16 { a.set(i, i, 2.0); }
//!
//! let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
//! let dist = DistributedSparseArray::distribute(
//!     &machine, &a, Box::new(RowBlock::new(16, 16, 4)),
//!     SchemeKind::Ed, CompressKind::Crs,
//! ).unwrap();
//! let y = dist.spmv(&vec![1.0; 16]).unwrap();
//! assert_eq!(y, vec![2.0; 16]);
//! assert_eq!(dist.nnz(), 16);
//! ```

use sparsedist_core::compress::{CompressKind, LocalCompressed};
use sparsedist_core::dense::Dense2D;
use sparsedist_core::error::SparsedistError;
use sparsedist_core::gather::{gather_global, GatherStrategy};
use sparsedist_core::partition::Partition;
use sparsedist_core::redistribute::{redistribute, RedistStrategy};
use sparsedist_core::schemes::{run_scheme, SchemeKind};
use sparsedist_gen::checkpoint;
use sparsedist_multicomputer::{Multicomputer, PhaseLedger, VirtualTime};
use sparsedist_ops::distributed::{
    distributed_add, distributed_frobenius, distributed_scale, distributed_transpose,
};
use sparsedist_ops::spmv::SpmvPlan;
use std::path::Path;

/// A sparse array distributed over a simulated multicomputer.
///
/// The machine is borrowed (several arrays can share one machine); the
/// partition and local arrays are owned.
pub struct DistributedSparseArray<'m> {
    machine: &'m Multicomputer,
    partition: Box<dyn Partition>,
    kind: CompressKind,
    locals: Vec<LocalCompressed>,
    /// Ledgers of the operation that produced this state (distribution,
    /// repartition, …).
    last_ledgers: Vec<PhaseLedger>,
}

impl<'m> DistributedSparseArray<'m> {
    /// Distribute a global dense array with the chosen scheme.
    ///
    /// # Errors
    /// Same failure modes as [`sparsedist_core::schemes::run_scheme`].
    ///
    /// # Panics
    /// Panics on machine/partition/shape mismatches (see
    /// [`sparsedist_core::schemes::run_scheme`]).
    pub fn distribute(
        machine: &'m Multicomputer,
        global: &Dense2D,
        partition: Box<dyn Partition>,
        scheme: SchemeKind,
        kind: CompressKind,
    ) -> Result<Self, SparsedistError> {
        let run = run_scheme(scheme, machine, global, partition.as_ref(), kind)?;
        Ok(DistributedSparseArray {
            machine,
            partition,
            kind,
            locals: run.locals,
            last_ledgers: run.ledgers,
        })
    }

    /// Adopt already-distributed local arrays (e.g. from a checkpoint).
    ///
    /// # Panics
    /// Panics if `locals` disagree with the machine or the partition;
    /// [`DistributedSparseArray::try_from_locals`] returns the error
    /// instead.
    pub fn from_locals(
        machine: &'m Multicomputer,
        partition: Box<dyn Partition>,
        kind: CompressKind,
        locals: Vec<LocalCompressed>,
    ) -> Self {
        // lint: allow(E003) — `from_locals` documents this panic; `try_from_locals` is the fallible form
        Self::try_from_locals(machine, partition, kind, locals).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adopt already-distributed local arrays, or
    /// [`SparsedistError::LocalsMismatch`] naming the first disagreement:
    /// the machine size, the number of locals, a local's kind or its shape.
    pub fn try_from_locals(
        machine: &'m Multicomputer,
        partition: Box<dyn Partition>,
        kind: CompressKind,
        locals: Vec<LocalCompressed>,
    ) -> Result<Self, SparsedistError> {
        let mismatch = |what: String, expected: String, found: String| {
            Err(SparsedistError::LocalsMismatch {
                what,
                detail: format!("expected {expected}, found {found}").into(),
            })
        };
        let parts = partition.nparts();
        if machine.nprocs() != parts {
            return mismatch(
                "machine size".into(),
                format!("{parts} ranks, one per part"),
                format!("{} ranks", machine.nprocs()),
            );
        }
        if locals.len() != parts {
            return mismatch(
                "local array count".into(),
                format!("{parts}, one per part"),
                locals.len().to_string(),
            );
        }
        for (pid, l) in locals.iter().enumerate() {
            if l.kind() != kind {
                return mismatch(
                    format!("local {pid} kind"),
                    kind.label().into(),
                    l.kind().label().into(),
                );
            }
            let ((er, ec), (fr, fc)) = (partition.local_shape(pid), l.shape());
            if (fr, fc) != (er, ec) {
                return mismatch(
                    format!("local {pid} shape"),
                    format!("{er}x{ec}"),
                    format!("{fr}x{fc}"),
                );
            }
        }
        Ok(DistributedSparseArray {
            machine,
            partition,
            kind,
            last_ledgers: vec![PhaseLedger::new(); locals.len()],
            locals,
        })
    }

    /// The partition currently in force.
    pub fn partition(&self) -> &dyn Partition {
        self.partition.as_ref()
    }

    /// The compression format of the local arrays.
    pub fn kind(&self) -> CompressKind {
        self.kind
    }

    /// Borrow the per-processor local arrays.
    pub fn locals(&self) -> &[LocalCompressed] {
        &self.locals
    }

    /// Ledgers of the last state-changing operation.
    pub fn last_ledgers(&self) -> &[PhaseLedger] {
        &self.last_ledgers
    }

    /// Global shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.partition.global_shape()
    }

    /// Total nonzeros across all processors.
    pub fn nnz(&self) -> usize {
        self.locals.iter().map(|l| l.nnz()).sum()
    }

    /// Global sparse ratio.
    pub fn sparse_ratio(&self) -> f64 {
        let (r, c) = self.shape();
        self.nnz() as f64 / (r * c) as f64
    }

    /// The slowest processor's busy time in the last operation.
    pub fn last_busy_max(&self) -> VirtualTime {
        self.last_ledgers
            .iter()
            .map(|l| l.busy_total())
            .fold(VirtualTime::ZERO, VirtualTime::max)
    }

    /// Distributed `y = A·x`.
    ///
    /// # Errors
    /// Propagates communication failures when a fault plan is installed.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the global column count.
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>, SparsedistError> {
        SpmvPlan::new(&self.locals, self.partition.as_ref()).apply(self.machine, x)
    }

    /// Scale in place: `A ← α·A`.
    pub fn scale(&mut self, alpha: f64) {
        self.locals = distributed_scale(self.machine, &self.locals, alpha);
    }

    /// Elementwise add another array distributed under the same partition
    /// in the same format.
    ///
    /// # Panics
    /// Panics if shapes/kinds/partitions disagree.
    pub fn add_assign(&mut self, other: &DistributedSparseArray<'_>) {
        assert_eq!(self.shape(), other.shape(), "global shapes differ");
        assert_eq!(self.kind, other.kind, "compression kinds differ");
        for pid in 0..self.locals.len() {
            assert_eq!(
                self.partition.local_shape(pid),
                other.partition.local_shape(pid),
                "partitions disagree at part {pid}"
            );
        }
        self.locals = distributed_add(self.machine, &self.locals, &other.locals)
            // lint: allow(E002) — the asserts above check the kinds, and both arrays hold one local per rank
            .expect("operands checked above");
    }

    /// Frobenius norm of the whole distributed array (allreduce).
    ///
    /// # Errors
    /// Propagates communication failures when a fault plan is installed.
    pub fn frobenius_norm(&self) -> Result<f64, SparsedistError> {
        distributed_frobenius(self.machine, &self.locals)
    }

    /// Re-own the array under a new partition (no gather).
    ///
    /// On error the array is left unchanged.
    ///
    /// # Errors
    /// Same failure modes as [`redistribute`].
    ///
    /// # Panics
    /// Panics if the new partition describes a different global shape.
    pub fn repartition(
        &mut self,
        to: Box<dyn Partition>,
        strategy: RedistStrategy,
    ) -> Result<(), SparsedistError> {
        let run = redistribute(
            self.machine,
            &self.locals,
            self.partition.as_ref(),
            to.as_ref(),
            self.kind,
            strategy,
        )?;
        self.locals = run.locals;
        self.last_ledgers = run.ledgers;
        self.partition = to;
        Ok(())
    }

    /// Distributed transpose into a new array owned under `to` (which must
    /// describe the transposed global shape).
    ///
    /// # Errors
    /// Propagates communication failures when a fault plan is installed.
    pub fn transpose(
        &self,
        to: Box<dyn Partition>,
    ) -> Result<DistributedSparseArray<'m>, SparsedistError> {
        let (locals, ledgers) = distributed_transpose(
            self.machine,
            &self.locals,
            self.partition.as_ref(),
            to.as_ref(),
            self.kind,
        )?;
        Ok(DistributedSparseArray {
            machine: self.machine,
            partition: to,
            kind: self.kind,
            locals,
            last_ledgers: ledgers,
        })
    }

    /// Gather the whole array back to the source as a dense array.
    ///
    /// # Errors
    /// Same failure modes as [`gather_global`].
    pub fn gather_dense(&self, strategy: GatherStrategy) -> Result<Dense2D, SparsedistError> {
        let run = gather_global(
            self.machine,
            &self.locals,
            self.partition.as_ref(),
            self.kind,
            strategy,
        )?;
        // The gathered compressed global expands directly.
        Ok(run.global.to_dense())
    }

    /// Checkpoint the distributed state to a directory.
    ///
    /// The partition itself is not serialised — the resuming program
    /// reconstructs it (it is a pure function of a few integers) and calls
    /// [`DistributedSparseArray::from_locals`].
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<(), checkpoint::CkptError> {
        checkpoint::save(dir, &self.locals)
    }

    /// Resume from a checkpoint written by
    /// [`DistributedSparseArray::checkpoint`].
    ///
    /// # Errors
    /// A [`checkpoint::CkptError`] if the files cannot be read, and
    /// [`checkpoint::CkptError::Layout`] if they do not fit `partition`
    /// (see [`DistributedSparseArray::try_from_locals`]).
    pub fn resume(
        machine: &'m Multicomputer,
        partition: Box<dyn Partition>,
        kind: CompressKind,
        dir: impl AsRef<Path>,
    ) -> Result<Self, checkpoint::CkptError> {
        let locals = checkpoint::load(dir)?;
        Self::try_from_locals(machine, partition, kind, locals)
            .map_err(checkpoint::CkptError::Layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsedist_core::dense::paper_array_a;
    use sparsedist_core::partition::{ColBlock, Mesh2D, RowBlock};
    use sparsedist_multicomputer::MachineModel;

    fn machine() -> Multicomputer {
        Multicomputer::virtual_machine(4, MachineModel::ibm_sp2())
    }

    fn dist<'m>(m: &'m Multicomputer) -> DistributedSparseArray<'m> {
        DistributedSparseArray::distribute(
            m,
            &paper_array_a(),
            Box::new(RowBlock::new(10, 8, 4)),
            SchemeKind::Ed,
            CompressKind::Crs,
        )
        .unwrap()
    }

    #[test]
    fn lifecycle_through_the_facade() {
        let m = machine();
        let mut a = dist(&m);
        assert_eq!(a.shape(), (10, 8));
        assert_eq!(a.nnz(), 16);
        assert!((a.sparse_ratio() - 0.2).abs() < 1e-12);

        // Compute.
        let y = a.spmv(&[1.0; 8]).unwrap();
        assert_eq!(y[2], 7.0); // row 2 holds 3 + 4

        // Scale and norm.
        a.scale(2.0);
        let want: f64 = (1..=16)
            .map(|v| (2.0 * v as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!((a.frobenius_norm().unwrap() - want).abs() < 1e-9);

        // Repartition to a mesh; content unchanged.
        a.repartition(Box::new(Mesh2D::new(10, 8, 2, 2)), RedistStrategy::Direct)
            .unwrap();
        assert_eq!(a.nnz(), 16);
        let d = a.gather_dense(GatherStrategy::Encoded).unwrap();
        assert_eq!(d.get(2, 0), 6.0); // 2 × 3
    }

    #[test]
    fn add_assign_doubles() {
        let m = machine();
        let mut a = dist(&m);
        let b = dist(&m);
        a.add_assign(&b);
        let d = a.gather_dense(GatherStrategy::Compressed).unwrap();
        for (r, c, v) in paper_array_a().iter_nonzero() {
            assert_eq!(d.get(r, c), 2.0 * v);
        }
    }

    #[test]
    fn add_assign_on_ccs_equals_dense_sum() {
        let m = machine();
        let x = paper_array_a();
        let mut y = Dense2D::zeros(10, 8);
        y.set(0, 1, -1.0); // cancels x's 1.0
        y.set(4, 4, 2.5);
        y.set(9, 6, 0.5);
        let ccs = |a: &Dense2D| {
            let mesh = Box::new(Mesh2D::new(10, 8, 2, 2));
            DistributedSparseArray::distribute(&m, a, mesh, SchemeKind::Cfs, CompressKind::Ccs)
                .unwrap()
        };
        let mut a = ccs(&x);
        a.add_assign(&ccs(&y));
        assert_eq!(a.kind(), CompressKind::Ccs);
        let mut want = Dense2D::zeros(10, 8);
        for r in 0..10 {
            for c in 0..8 {
                want.set(r, c, x.get(r, c) + y.get(r, c));
            }
        }
        assert_eq!(a.gather_dense(GatherStrategy::Encoded).unwrap(), want);
        assert_eq!(a.nnz(), 16);
    }

    #[test]
    fn transpose_via_facade() {
        let m = machine();
        let a = dist(&m);
        let t = a.transpose(Box::new(ColBlock::new(8, 10, 4))).unwrap();
        assert_eq!(t.shape(), (8, 10));
        let d = t.gather_dense(GatherStrategy::Dense).unwrap();
        for (r, c, v) in paper_array_a().iter_nonzero() {
            assert_eq!(d.get(c, r), v);
        }
    }

    #[test]
    fn checkpoint_resume_round_trip() {
        let dir = std::env::temp_dir().join("sparsedist_facade_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let m = machine();
        let a = dist(&m);
        a.checkpoint(&dir).unwrap();

        let b = DistributedSparseArray::resume(
            &m,
            Box::new(RowBlock::new(10, 8, 4)),
            CompressKind::Crs,
            &dir,
        )
        .unwrap();
        assert_eq!(b.locals(), a.locals());
        assert_eq!(
            b.gather_dense(GatherStrategy::Encoded).unwrap(),
            paper_array_a()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_locals_validates_shapes() {
        let m = machine();
        let a = dist(&m);
        // Wrong partition: column split instead of rows.
        let _ = DistributedSparseArray::from_locals(
            &m,
            Box::new(ColBlock::new(10, 8, 4)),
            CompressKind::Crs,
            a.locals().to_vec(),
        );
    }

    #[test]
    fn try_from_locals_names_the_first_mismatch() {
        let m = machine();
        let a = dist(&m);
        let adopt = |partition: Box<dyn Partition>, kind, locals: Vec<LocalCompressed>| {
            DistributedSparseArray::try_from_locals(&m, partition, kind, locals)
                .err()
                .map(|e| e.to_string())
        };
        let row = || Box::new(RowBlock::new(10, 8, 4));
        assert_eq!(adopt(row(), CompressKind::Crs, a.locals().to_vec()), None);
        assert_eq!(
            adopt(
                Box::new(ColBlock::new(10, 8, 4)),
                CompressKind::Crs,
                a.locals().to_vec()
            ),
            Some("local 0 shape mismatch: expected 10x2, found 3x8".into())
        );
        assert_eq!(
            adopt(row(), CompressKind::Ccs, a.locals().to_vec()),
            Some("local 0 kind mismatch: expected ccs, found crs".into())
        );
        assert_eq!(
            adopt(row(), CompressKind::Crs, a.locals()[..3].to_vec()),
            Some("local array count mismatch: expected 4, one per part, found 3".into())
        );
        assert_eq!(
            adopt(
                Box::new(RowBlock::new(10, 8, 2)),
                CompressKind::Crs,
                a.locals().to_vec()
            ),
            Some("machine size mismatch: expected 2 ranks, one per part, found 4 ranks".into())
        );
    }
}
