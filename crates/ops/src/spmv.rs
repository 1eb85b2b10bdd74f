//! Sparse matrix–vector products, local and distributed.

use sparsedist_core::compress::{Ccs, Crs, LocalCompressed};
use sparsedist_core::dense::Dense2D;
use sparsedist_core::error::SparsedistError;
use sparsedist_core::partition::Partition;
use sparsedist_core::schemes::SchemeRun;
use sparsedist_multicomputer::{Env, Multicomputer, PackBuffer, Phase, PhaseLedger, RankTask};

/// `y = A·x` for a CRS array.
///
/// # Panics
/// Panics if `x.len() != a.cols()`.
pub fn crs_spmv(a: &Crs, x: &[f64]) -> Vec<f64> {
    assert_eq!(
        x.len(),
        a.cols(),
        "x length {} != cols {}",
        x.len(),
        a.cols()
    );
    let mut y = vec![0.0; a.rows()];
    for (r, slot) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
            acc += v * x[c];
        }
        *slot = acc;
    }
    y
}

/// `y = A·x` for a CCS array.
///
/// # Panics
/// Panics if `x.len() != a.cols()`.
pub fn ccs_spmv(a: &Ccs, x: &[f64]) -> Vec<f64> {
    assert_eq!(
        x.len(),
        a.cols(),
        "x length {} != cols {}",
        x.len(),
        a.cols()
    );
    let mut y = vec![0.0; a.rows()];
    for (c, &xc) in x.iter().enumerate() {
        if xc == 0.0 {
            continue;
        }
        for (&r, &v) in a.col_rows(c).iter().zip(a.col_vals(c)) {
            y[r] += v * xc;
        }
    }
    y
}

/// Dense baseline `y = A·x` (the cost the compressed formats avoid).
///
/// # Panics
/// Panics if `x.len() != a.cols()`.
pub fn dense_spmv(a: &Dense2D, x: &[f64]) -> Vec<f64> {
    assert_eq!(
        x.len(),
        a.cols(),
        "x length {} != cols {}",
        x.len(),
        a.cols()
    );
    (0..a.rows())
        .map(|r| a.row(r).iter().zip(x).map(|(&v, &xv)| v * xv).sum())
        .collect()
}

/// What every distributed SpMV rank task reads, threaded through
/// [`Multicomputer::run_tasks_with_ledgers`]'s context parameter.
struct SpmvCtx<'a> {
    run: &'a SchemeRun,
    part: &'a dyn Partition,
    x: &'a [f64],
}

/// Add `v·x[gc]` into `y[row(gr)]` for every local nonzero of `local`
/// (mapped to global `(gr, gc)` under `part`), returning the flop count.
fn local_products(
    local: &LocalCompressed,
    part: &dyn Partition,
    me: usize,
    x: &[f64],
    y: &mut [f64],
    row: impl Fn(usize, usize) -> usize,
) -> u64 {
    let mut flops = 0;
    let mut add = |lr: usize, lc: usize, v: f64| {
        let (gr, gc) = part.to_global(me, lr, lc);
        y[row(lr, gr)] += v * x[gc];
        flops += 2;
    };
    match local {
        LocalCompressed::Crs(a) => a.iter().for_each(|(lr, lc, v)| add(lr, lc, v)),
        LocalCompressed::Ccs(a) => a.iter().for_each(|(lr, lc, v)| add(lr, lc, v)),
    }
    flops
}

/// One rank of [`distributed_spmv_ledgers`]: local partial, reduce at
/// rank 0, broadcast back.
fn spmv_task<'e>(
    ctx: &'e SpmvCtx<'_>,
    env: &'e mut Env,
) -> RankTask<'e, Result<Vec<f64>, SparsedistError>> {
    Box::pin(async move {
        let SpmvCtx { run, part, x } = *ctx;
        let grows = part.global_shape().0;
        let me = env.rank();
        // Local partial: iterate the local compressed array, map to global.
        let partial: Vec<f64> = env.phase(Phase::Compute, |env| {
            let mut y = vec![0.0; grows];
            let flops = local_products(&run.locals[me], part, me, x, &mut y, |_, gr| gr);
            env.charge_ops(flops);
            y
        });

        // Reduce at rank 0.
        let mut buf = PackBuffer::with_capacity(grows);
        buf.push_f64_slice(&partial);
        env.phase(Phase::Send, |env| env.send(0, buf))?;
        if me == 0 {
            let mut y = vec![0.0; grows];
            for src in 0..env.nprocs() {
                let msg = env.recv_async(src).await?;
                let mut cursor = msg.payload.cursor();
                for slot in y.iter_mut() {
                    *slot += cursor.try_read_f64()?;
                }
            }
            env.charge_ops((grows * env.nprocs()) as u64);

            // Broadcast the result back.
            env.phase(Phase::Send, |env| -> Result<(), SparsedistError> {
                for dst in 0..env.nprocs() {
                    let mut b = PackBuffer::with_capacity(grows);
                    b.push_f64_slice(&y);
                    env.send(dst, b)?;
                }
                Ok(())
            })?;
        }
        let msg = env.recv_async(0).await?;
        Ok(msg.payload.cursor().try_read_f64_vec(grows)?)
    })
}

/// Write the rows rank `src` holds under `part` from `payload` into their
/// global slots of `out`; returns the number of rows placed.
fn place_rows(
    payload: &PackBuffer,
    part: &dyn Partition,
    src: usize,
    out: &mut [f64],
) -> Result<u64, SparsedistError> {
    let mut cursor = payload.cursor();
    let (src_rows, _) = part.local_shape(src);
    for lr in 0..src_rows {
        let (gr, _) = part.to_global(src, lr, 0);
        out[gr] = cursor.try_read_f64()?;
    }
    Ok(src_rows as u64)
}

/// One rank of [`distributed_spmv_rowwise_ledgers`]: allgather the
/// conformal slices of `x`, compute the owned rows, assemble at rank 0.
fn spmv_rowwise_task<'e>(
    ctx: &'e SpmvCtx<'_>,
    env: &'e mut Env,
) -> RankTask<'e, Result<Vec<f64>, SparsedistError>> {
    Box::pin(async move {
        let SpmvCtx { run, part, x } = *ctx;
        let (grows, gcols) = part.global_shape();
        let me = env.rank();
        let p = env.nprocs();
        let (lrows, _) = part.local_shape(me);

        // My conformal slice of x: entries at my global row indices.
        let my_slice: Vec<f64> = env.phase(Phase::Pack, |env| {
            let slice: Vec<f64> = (0..lrows)
                .map(|lr| x[part.to_global(me, lr, 0).0])
                .collect();
            env.charge_ops(lrows as u64);
            slice
        });

        // Allgather the slices.
        let mut buf = PackBuffer::with_capacity(my_slice.len());
        buf.push_f64_slice(&my_slice);
        env.phase(Phase::Send, |env| -> Result<(), SparsedistError> {
            for dst in 0..p {
                env.send(dst, buf.clone())?;
            }
            Ok(())
        })?;
        let mut x_full = vec![0.0; gcols];
        let prev = env.begin_phase(Phase::Unpack);
        let unpacked = 'recv: {
            let mut ops = 0u64;
            for src in 0..p {
                let msg = match env.recv_async(src).await {
                    Ok(msg) => msg,
                    Err(e) => break 'recv Err(e.into()),
                };
                match place_rows(&msg.payload, part, src, &mut x_full) {
                    Ok(n) => ops += n,
                    Err(e) => break 'recv Err(e),
                }
            }
            env.charge_ops(ops);
            Ok(())
        };
        env.end_phase(prev);
        unpacked?;

        // Compute exactly my rows of y.
        let y_mine: Vec<f64> = env.phase(Phase::Compute, |env| {
            let mut y = vec![0.0; lrows];
            let flops = local_products(&run.locals[me], part, me, &x_full, &mut y, |lr, _| lr);
            env.charge_ops(flops);
            y
        });

        // Assemble at rank 0 (no reduction — pure placement).
        let mut out = PackBuffer::with_capacity(y_mine.len());
        out.push_f64_slice(&y_mine);
        env.phase(Phase::Send, |env| env.send(0, out))?;
        if me != 0 {
            return Ok(Vec::new());
        }
        let mut y = vec![0.0; grows];
        for src in 0..p {
            let msg = env.recv_async(src).await?;
            place_rows(&msg.payload, part, src, &mut y)?;
        }
        env.charge_ops(grows as u64);
        Ok(y)
    })
}

/// `y = A·x` over the distributed local arrays left by a scheme run.
///
/// Each processor computes the partial products of its own nonzeros
/// against the (broadcast) input vector, mapping local coordinates back to
/// global ones via the partition; rank 0 reduces the partials into the
/// full result. Works for every partition method, block or cyclic.
///
/// Returns the global `y` on every rank (rank 0 computes it; everyone
/// receives the reduced copy).
///
/// # Errors
/// Propagates communication failures when a fault plan is installed.
///
/// # Panics
/// Panics if `x.len()` does not match the partition's global column count
/// or the machine size differs from the run's.
pub fn distributed_spmv(
    machine: &Multicomputer,
    run: &SchemeRun,
    part: &dyn Partition,
    x: &[f64],
) -> Result<Vec<f64>, SparsedistError> {
    Ok(distributed_spmv_ledgers(machine, run, part, x)?.0)
}

/// [`distributed_spmv`] plus the per-rank phase ledgers of the product
/// itself (compute flops, reduce/broadcast wire time).
///
/// # Errors
/// Propagates communication failures when a fault plan is installed.
pub fn distributed_spmv_ledgers(
    machine: &Multicomputer,
    run: &SchemeRun,
    part: &dyn Partition,
    x: &[f64],
) -> Result<(Vec<f64>, Vec<PhaseLedger>), SparsedistError> {
    let gcols = part.global_shape().1;
    assert_eq!(
        x.len(),
        gcols,
        "x length {} != global cols {gcols}",
        x.len()
    );
    assert_eq!(
        machine.nprocs(),
        run.locals.len(),
        "machine size != run size"
    );

    let ctx = SpmvCtx { run, part, x };
    let (results, ledgers) = machine.run_tasks_with_ledgers(&ctx, |ctx, env| spmv_task(ctx, env));
    let mut ys = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((ys.swap_remove(0), ledgers))
}

/// Row-conformal distributed `y = A·x` for row-family partitions on square
/// arrays — the scalable variant.
///
/// The general [`distributed_spmv`] reduces full-length partial vectors at
/// rank 0 and broadcasts the result, so the root's sends serialise
/// `O(p·n)` elements — a classic hotspot. Here each processor holds the
/// slice of `x` conformal with its rows, the slices are allgathered, each
/// processor computes exactly its own `y` rows (no reduction — every
/// global row has one owner), and rank 0 merely assembles the slices. No
/// rank ever ships more than `O(n + p)` messages' worth, so the *busiest*
/// processor's wire time drops by ≈ `p` for large `n` (the
/// `rowwise_ships_less_than_general` test pins this on the ledgers).
///
/// Returns the assembled global `y` (held by rank 0; callers wanting it
/// replicated can broadcast — the scalable pattern keeps `y` distributed).
///
/// # Errors
/// Propagates communication failures when a fault plan is installed.
///
/// # Panics
/// Panics if the partition splits columns (use the general version), the
/// array is not square, or sizes disagree.
pub fn distributed_spmv_rowwise(
    machine: &Multicomputer,
    run: &SchemeRun,
    part: &dyn Partition,
    x: &[f64],
) -> Result<Vec<f64>, SparsedistError> {
    Ok(distributed_spmv_rowwise_ledgers(machine, run, part, x)?.0)
}

/// [`distributed_spmv_rowwise`] plus the per-rank ledgers.
///
/// # Errors
/// Propagates communication failures when a fault plan is installed.
pub fn distributed_spmv_rowwise_ledgers(
    machine: &Multicomputer,
    run: &SchemeRun,
    part: &dyn Partition,
    x: &[f64],
) -> Result<(Vec<f64>, Vec<PhaseLedger>), SparsedistError> {
    let (grows, gcols) = part.global_shape();
    assert!(
        !part.splits_cols(),
        "row-conformal SpMV needs a row-family partition"
    );
    assert_eq!(grows, gcols, "row-conformal SpMV needs a square array");
    assert_eq!(
        x.len(),
        gcols,
        "x length {} != global cols {gcols}",
        x.len()
    );
    assert_eq!(
        machine.nprocs(),
        run.locals.len(),
        "machine size != run size"
    );

    let ctx = SpmvCtx { run, part, x };
    let (results, ledgers) =
        machine.run_tasks_with_ledgers(&ctx, |ctx, env| spmv_rowwise_task(ctx, env));
    let mut ys = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((ys.swap_remove(0), ledgers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsedist_core::compress::CompressKind;
    use sparsedist_core::dense::paper_array_a;
    use sparsedist_core::opcount::OpCounter;
    use sparsedist_core::partition::{ColCyclic, Mesh2D, RowBlock};
    use sparsedist_core::schemes::{run_scheme, SchemeKind};
    use sparsedist_multicomputer::MachineModel;

    fn x8() -> Vec<f64> {
        (1..=8).map(|v| v as f64).collect()
    }

    #[test]
    fn crs_ccs_dense_agree() {
        let a = paper_array_a();
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        let ccs = Ccs::from_dense(&a, &mut OpCounter::new());
        let x = x8();
        let want = dense_spmv(&a, &x);
        assert_eq!(crs_spmv(&crs, &x), want);
        assert_eq!(ccs_spmv(&ccs, &x), want);
    }

    #[test]
    fn known_small_product() {
        let a = Dense2D::from_rows(&[&[1., 2.], &[0., 3.]]);
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        assert_eq!(crs_spmv(&crs, &[10., 100.]), vec![210., 300.]);
    }

    #[test]
    fn distributed_matches_sequential_all_schemes() {
        let a = paper_array_a();
        let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
        let x = x8();
        let want = dense_spmv(&a, &x);
        let parts: Vec<Box<dyn Partition>> = vec![
            Box::new(RowBlock::new(10, 8, 4)),
            Box::new(Mesh2D::new(10, 8, 2, 2)),
            Box::new(ColCyclic::new(10, 8, 4)),
        ];
        for part in &parts {
            for scheme in SchemeKind::ALL {
                for kind in [CompressKind::Crs, CompressKind::Ccs] {
                    let run = run_scheme(scheme, &machine, &a, part.as_ref(), kind).unwrap();
                    let y = distributed_spmv(&machine, &run, part.as_ref(), &x).unwrap();
                    let err: f64 = y
                        .iter()
                        .zip(&want)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    assert!(err < 1e-12, "{scheme} {kind} {}: err {err}", part.name());
                }
            }
        }
    }

    #[test]
    fn ccs_spmv_skips_zero_x_entries() {
        let a = paper_array_a();
        let ccs = Ccs::from_dense(&a, &mut OpCounter::new());
        let mut x = vec![0.0; 8];
        x[6] = 1.0; // only column 6 active: values 2@(1,6), 8@(6,6), 16@(9,6)
        let y = ccs_spmv(&ccs, &x);
        assert_eq!(y[1], 2.0);
        assert_eq!(y[6], 8.0);
        assert_eq!(y[9], 16.0);
        assert_eq!(y.iter().filter(|&&v| v != 0.0).count(), 3);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        let a = paper_array_a();
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        let _ = crs_spmv(&crs, &[1.0; 3]);
    }

    #[test]
    fn rowwise_matches_general_on_square_arrays() {
        use sparsedist_core::partition::{BalancedRows, RowCyclic};
        let mut a = Dense2D::zeros(24, 24);
        for i in 0..120 {
            a.set((i * 5) % 24, (i * 7 + i / 24) % 24, 1.0 + i as f64);
        }
        let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
        let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.3).sin()).collect();
        let want = dense_spmv(&a, &x);
        let parts: Vec<Box<dyn Partition>> = vec![
            Box::new(RowBlock::new(24, 24, 4)),
            Box::new(RowCyclic::new(24, 24, 4)),
            Box::new(BalancedRows::bin_packed(&a, 4)),
        ];
        for part in &parts {
            let run = run_scheme(
                SchemeKind::Ed,
                &machine,
                &a,
                part.as_ref(),
                CompressKind::Crs,
            )
            .unwrap();
            let general = distributed_spmv(&machine, &run, part.as_ref(), &x).unwrap();
            let rowwise = distributed_spmv_rowwise(&machine, &run, part.as_ref(), &x).unwrap();
            for ((u, v), w) in rowwise.iter().zip(&general).zip(&want) {
                assert!(
                    (u - v).abs() < 1e-12 && (u - w).abs() < 1e-12,
                    "{}",
                    part.name()
                );
            }
        }
    }

    #[test]
    fn rowwise_relieves_the_root_hotspot() {
        // The reduce-based version's rank 0 broadcasts p full-length
        // vectors (O(p·n) elements from one sender); the row-conformal
        // version spreads the traffic, so the *busiest* rank's send time
        // drops once n is large enough to dominate the startups.
        let n = 512;
        let p = 8;
        let mut a = Dense2D::zeros(n, n);
        for i in 0..(n * n / 10) {
            a.set((i * 7) % n, (i * 13 + i / n) % n, 1.0 + i as f64);
        }
        let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
        let part = RowBlock::new(n, n, p);
        let run = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs).unwrap();
        let x = vec![1.0; n];
        let (yg, lg) = distributed_spmv_ledgers(&machine, &run, &part, &x).unwrap();
        let (yr, lr) = distributed_spmv_rowwise_ledgers(&machine, &run, &part, &x).unwrap();
        assert_eq!(yg, yr);
        let send_max = |ls: &[PhaseLedger]| -> f64 {
            ls.iter()
                .map(|l| l.get(Phase::Send).as_micros())
                .fold(0.0, f64::max)
        };
        assert!(
            send_max(&lr) < send_max(&lg),
            "rowwise max-send {} !< general max-send {}",
            send_max(&lr),
            send_max(&lg)
        );
    }

    #[test]
    #[should_panic(expected = "row-family")]
    fn rowwise_rejects_column_partitions() {
        use sparsedist_core::partition::ColBlock;
        let a = paper_array_a().block(0, 0, 8, 8);
        let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
        let part = ColBlock::new(8, 8, 4);
        let run = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs).unwrap();
        let _ = distributed_spmv_rowwise(&machine, &run, &part, &[1.0; 8]);
    }
}
