//! Sparse operations that act **on the distributed representation** —
//! no gather, no dense intermediate. Everything here takes the
//! per-processor [`LocalCompressed`] arrays a scheme run (or a previous
//! distributed op) produced and returns new per-processor arrays.

use crate::elementwise;
use sparsedist_core::compress::{CompressKind, LocalCompressed};
use sparsedist_core::error::SparsedistError;
use sparsedist_core::partition::Partition;
use sparsedist_multicomputer::collectives::allreduce_sum;
use sparsedist_multicomputer::{Env, Multicomputer, PackBuffer, Phase, PhaseLedger, RankTask};

/// Scale every processor's local array in place-ish (returns new locals):
/// `A ← α·A`. Purely local — no communication at all.
pub fn distributed_scale(
    machine: &Multicomputer,
    locals: &[LocalCompressed],
    alpha: f64,
) -> Vec<LocalCompressed> {
    assert_eq!(machine.nprocs(), locals.len(), "machine size != locals");
    machine.run(|env| {
        let me = env.rank();
        env.phase(Phase::Compute, |env| {
            env.charge_ops(locals[me].nnz() as u64);
            match &locals[me] {
                LocalCompressed::Crs(a) => elementwise::scale(a, alpha).into(),
                LocalCompressed::Ccs(a) => elementwise::scale(a, alpha).into(),
            }
        })
    })
}

/// Elementwise sum `C = A + B` of two arrays distributed under the *same*
/// partition, in the same format. Purely local merges.
///
/// # Errors
/// [`SparsedistError::LocalsMismatch`] if the operands' local counts
/// differ from the machine's size, or a part's two locals differ in
/// compression kind.
///
/// # Panics
/// Panics if a part's two locals differ in shape.
pub fn distributed_add(
    machine: &Multicomputer,
    a: &[LocalCompressed],
    b: &[LocalCompressed],
) -> Result<Vec<LocalCompressed>, SparsedistError> {
    let p = machine.nprocs();
    if a.len() != p || b.len() != p {
        return Err(mismatch(
            "operand local count".into(),
            format!("expected {p}, found {} and {}", a.len(), b.len()),
        ));
    }
    let sums = machine.run(|env| {
        let me = env.rank();
        env.phase(Phase::Compute, |env| {
            let sum = match (&a[me], &b[me]) {
                (LocalCompressed::Crs(x), LocalCompressed::Crs(y)) => elementwise::add(x, y).into(),
                (LocalCompressed::Ccs(x), LocalCompressed::Ccs(y)) => elementwise::add(x, y).into(),
                (x, y) => {
                    return Err(mismatch(
                        format!("part {me} kind"),
                        format!("{} + {}", x.kind(), y.kind()),
                    ))
                }
            };
            env.charge_ops((a[me].nnz() + b[me].nnz()) as u64);
            Ok(sum)
        })
    });
    sums.into_iter().collect()
}

fn mismatch(what: String, detail: String) -> SparsedistError {
    SparsedistError::LocalsMismatch {
        what,
        detail: detail.into(),
    }
}

/// Frobenius norm of the whole distributed array: local partials combined
/// with an allreduce ([`allreduce_sum`]).
///
/// # Errors
/// Propagates communication failures from the allreduce when a fault plan
/// is installed.
pub fn distributed_frobenius(
    machine: &Multicomputer,
    locals: &[LocalCompressed],
) -> Result<f64, SparsedistError> {
    assert_eq!(machine.nprocs(), locals.len(), "machine size != locals");
    let results = machine.run_tasks(locals, |locals, env| frobenius_task(locals, env));
    // lint: allow(E002) — a Multicomputer has at least one rank, and run_tasks returns one result per rank
    results.into_iter().next().expect("at least one rank")
}

/// One rank of [`distributed_frobenius`]: the local sum of squares,
/// allreduced inside [`Phase::Send`].
fn frobenius_task<'e>(
    locals: &'e [LocalCompressed],
    env: &'e mut Env,
) -> RankTask<'e, Result<f64, SparsedistError>> {
    Box::pin(async move {
        let me = env.rank();
        let partial: f64 = env.phase(Phase::Compute, |env| {
            env.charge_ops(locals[me].nnz() as u64);
            locals[me].values().iter().map(|v| v * v).sum()
        });
        let prev = env.begin_phase(Phase::Send);
        // lint: allow(C001) — allreduce_sum is a collective whose only await points are receives
        let total = allreduce_sum(env, &[partial]).await;
        env.end_phase(prev);
        Ok(total?[0].sqrt())
    })
}

/// Distributed transpose: re-own `Aᵀ` under the target partition without
/// gathering. Every processor flips its local triplets to transposed
/// global coordinates, buckets them by their new owner, and the machine
/// does a compressed all-to-all; receivers rebuild local CRS/CCS.
///
/// Returns `(new locals of Aᵀ, per-rank ledgers)`.
///
/// # Errors
/// Propagates communication and unpack failures when a fault plan is
/// installed.
///
/// # Panics
/// Panics if the target partition's shape is not the transpose of the
/// source's, or processor counts disagree.
pub fn distributed_transpose(
    machine: &Multicomputer,
    locals: &[LocalCompressed],
    from: &dyn Partition,
    to: &dyn Partition,
    kind: CompressKind,
) -> Result<(Vec<LocalCompressed>, Vec<PhaseLedger>), SparsedistError> {
    let p = machine.nprocs();
    assert_eq!(from.nparts(), p, "source partition size");
    assert_eq!(to.nparts(), p, "target partition size");
    let (fr, fc) = from.global_shape();
    let (tr, tc) = to.global_shape();
    assert_eq!(
        (fr, fc),
        (tc, tr),
        "target must describe the transposed shape"
    );
    assert_eq!(locals.len(), p, "one local array per processor");

    let ctx = TransposeCtx {
        locals,
        from,
        to,
        kind,
    };
    let (results, ledgers) =
        machine.run_tasks_with_ledgers(&ctx, |ctx, env| transpose_task(ctx, env));
    let locals = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((locals, ledgers))
}

/// What every transpose rank task reads, threaded through
/// [`Multicomputer::run_tasks_with_ledgers`]'s context parameter.
struct TransposeCtx<'a> {
    locals: &'a [LocalCompressed],
    from: &'a dyn Partition,
    to: &'a dyn Partition,
    kind: CompressKind,
}

/// One rank of [`distributed_transpose`]: bucket the transposed triplets
/// by new owner, all-to-all, rebuild the owned part of `Aᵀ`.
fn transpose_task<'e>(
    ctx: &'e TransposeCtx<'_>,
    env: &'e mut Env,
) -> RankTask<'e, Result<LocalCompressed, SparsedistError>> {
    Box::pin(async move {
        let TransposeCtx {
            locals,
            from,
            to,
            kind,
        } = *ctx;
        let p = env.nprocs();
        let me = env.rank();
        // Bucket transposed triplets by new owner.
        let buckets: Vec<Vec<(usize, usize, f64)>> = env.phase(Phase::Pack, |env| {
            let mut buckets: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); p];
            let mut ops = 0u64;
            for (lr, lc, v) in locals[me].iter() {
                let (gr, gc) = from.to_global(me, lr, lc);
                let dest = to.owner_of(gc, gr); // transposed coordinates
                ops += 2;
                buckets[dest].push((gc, gr, v));
            }
            env.charge_ops(ops);
            buckets
        });

        // All-to-all.
        let bufs: Vec<PackBuffer> = env.phase(Phase::Pack, |env| {
            let mut ops = 0u64;
            let bufs = buckets
                .iter()
                .map(|b| {
                    let mut buf = PackBuffer::with_capacity(1 + b.len() * 3);
                    buf.push_u64(b.len() as u64);
                    for &(r, c, v) in b {
                        buf.push_u64(r as u64);
                        buf.push_u64(c as u64);
                        buf.push_f64(v);
                        ops += 3;
                    }
                    buf
                })
                .collect();
            env.charge_ops(ops);
            bufs
        });
        // A task holds its locals until it finishes; free the p buckets
        // before awaiting the receives.
        drop(buckets);
        env.phase(Phase::Send, |env| -> Result<(), SparsedistError> {
            for (dst, buf) in bufs.into_iter().enumerate() {
                env.send(dst, buf)?;
            }
            Ok(())
        })?;

        let mut trips: Vec<(usize, usize, f64)> = Vec::new();
        let prev = env.begin_phase(Phase::Unpack);
        let unpacked = 'recv: {
            let mut ops = 0u64;
            for src in 0..p {
                let msg = match env.recv_async(src).await {
                    Ok(msg) => msg,
                    Err(e) => break 'recv Err(e.into()),
                };
                match unpack_transposed(&msg.payload, to, &mut trips) {
                    Ok(n) => ops += n,
                    Err(e) => break 'recv Err(e),
                }
            }
            env.charge_ops(ops);
            Ok(())
        };
        env.end_phase(prev);
        unpacked?;

        Ok(env.phase(Phase::Compress, |env| {
            let mut ops = sparsedist_core::opcount::OpCounter::new();
            let (lrows, lcols) = to.local_shape(me);
            let out = LocalCompressed::from_triplets(kind, lrows, lcols, &trips, &mut ops);
            env.charge_ops(ops.take());
            out
        }))
    })
}

/// Append one transpose bucket's triplets, in the receiver's local
/// coordinates under `to`, to `trips`; returns the elements read.
fn unpack_transposed(
    payload: &PackBuffer,
    to: &dyn Partition,
    trips: &mut Vec<(usize, usize, f64)>,
) -> Result<u64, SparsedistError> {
    let mut cursor = payload.cursor();
    let n = cursor.try_read_usize()?;
    for _ in 0..n {
        let r = cursor.try_read_usize()?;
        let c = cursor.try_read_usize()?;
        let v = cursor.try_read_f64()?;
        let (_, lr, lc) = to.to_local(r, c);
        trips.push((lr, lc, v));
    }
    Ok(3 * n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsedist_core::dense::paper_array_a;
    use sparsedist_core::partition::{ColBlock, Mesh2D, RowBlock};
    use sparsedist_core::schemes::{run_scheme, SchemeKind, SchemeRun};
    use sparsedist_multicomputer::MachineModel;

    fn machine(p: usize) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
    }

    fn distribute(kind: CompressKind) -> (SchemeRun, RowBlock) {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        (
            run_scheme(SchemeKind::Ed, &machine(4), &a, &part, kind).unwrap(),
            part,
        )
    }

    #[test]
    fn scale_scales_every_local() {
        let (run, part) = distribute(CompressKind::Crs);
        let scaled = distributed_scale(&machine(4), &run.locals, 3.0);
        let rebuilt = SchemeRun {
            locals: scaled,
            ..run.clone()
        };
        let d = rebuilt.reassemble(&part);
        for (r, c, v) in paper_array_a().iter_nonzero() {
            assert_eq!(d.get(r, c), 3.0 * v);
        }
    }

    #[test]
    fn scale_works_on_ccs_locals() {
        let (run, part) = distribute(CompressKind::Ccs);
        let scaled = distributed_scale(&machine(4), &run.locals, -1.0);
        let rebuilt = SchemeRun {
            locals: scaled,
            ..run.clone()
        };
        assert_eq!(rebuilt.reassemble(&part).get(2, 0), -3.0);
    }

    #[test]
    fn add_combines_distributions() {
        let (run, part) = distribute(CompressKind::Crs);
        let doubled = distributed_add(&machine(4), &run.locals, &run.locals).unwrap();
        let rebuilt = SchemeRun {
            locals: doubled,
            ..run.clone()
        };
        let d = rebuilt.reassemble(&part);
        for (r, c, v) in paper_array_a().iter_nonzero() {
            assert_eq!(d.get(r, c), 2.0 * v);
        }
    }

    #[test]
    fn add_works_on_ccs_locals() {
        let (run, part) = distribute(CompressKind::Ccs);
        let doubled = distributed_add(&machine(4), &run.locals, &run.locals).unwrap();
        assert!(doubled.iter().all(|l| l.kind() == CompressKind::Ccs));
        let rebuilt = SchemeRun {
            locals: doubled,
            ..run.clone()
        };
        let d = rebuilt.reassemble(&part);
        for (r, c, v) in paper_array_a().iter_nonzero() {
            assert_eq!(d.get(r, c), 2.0 * v);
        }
    }

    #[test]
    fn add_rejects_mixed_kinds() {
        let (crs, _) = distribute(CompressKind::Crs);
        let (ccs, _) = distribute(CompressKind::Ccs);
        let err = distributed_add(&machine(4), &crs.locals, &ccs.locals).unwrap_err();
        assert_eq!(err.to_string(), "part 0 kind mismatch: crs + ccs");
        let err = distributed_add(&machine(4), &crs.locals, &crs.locals[..3]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "operand local count mismatch: expected 4, found 4 and 3"
        );
    }

    #[test]
    fn frobenius_matches_sequential() {
        let (run, _) = distribute(CompressKind::Crs);
        let got = distributed_frobenius(&machine(4), &run.locals).unwrap();
        let want: f64 = (1..=16).map(|v| (v * v) as f64).sum::<f64>().sqrt();
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = paper_array_a(); // 10×8
        let from = RowBlock::new(10, 8, 4);
        let run = run_scheme(SchemeKind::Cfs, &machine(4), &a, &from, CompressKind::Crs).unwrap();
        // Aᵀ is 8×10; own it under a column partition of the transposed
        // shape.
        let to = ColBlock::new(8, 10, 4);
        let (tlocals, _) =
            distributed_transpose(&machine(4), &run.locals, &from, &to, CompressKind::Crs).unwrap();
        let trun = SchemeRun {
            locals: tlocals,
            ..run.clone()
        };
        let t = trun.reassemble(&to);
        assert_eq!((t.rows(), t.cols()), (8, 10));
        for (r, c, v) in a.iter_nonzero() {
            assert_eq!(t.get(c, r), v);
        }
        assert_eq!(t.nnz(), 16);
    }

    #[test]
    fn double_transpose_is_identity() {
        let a = paper_array_a();
        let from = RowBlock::new(10, 8, 4);
        let mid = Mesh2D::new(8, 10, 2, 2);
        let run = run_scheme(SchemeKind::Ed, &machine(4), &a, &from, CompressKind::Crs).unwrap();
        let (t1, _) =
            distributed_transpose(&machine(4), &run.locals, &from, &mid, CompressKind::Crs)
                .unwrap();
        let (t2, _) =
            distributed_transpose(&machine(4), &t1, &mid, &from, CompressKind::Crs).unwrap();
        assert_eq!(t2, run.locals);
    }

    #[test]
    #[should_panic(expected = "transposed shape")]
    fn transpose_rejects_untransposed_target() {
        let (run, from) = distribute(CompressKind::Crs);
        let to = RowBlock::new(10, 8, 4);
        let _ = distributed_transpose(&machine(4), &run.locals, &from, &to, CompressKind::Crs);
    }
}
