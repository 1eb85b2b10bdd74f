//! Sparse array **redistribution**: moving an already-distributed sparse
//! array from one partition to another without ever materialising it
//! densely.
//!
//! The paper's related work (Bandera & Zapata, *Sparse Matrix Block-Cyclic
//! Redistribution*, IPPS 1999) motivates this operation: a program phase
//! change (say row-partitioned assembly followed by mesh-partitioned
//! solves) requires re-owning every nonzero. Two strategies are provided:
//!
//! * [`RedistStrategy::Direct`] — every processor buckets its nonzeros by
//!   their new owner and the machine does a compressed all-to-all
//!   (`p²` messages, each nonzero crosses the wire once);
//! * [`RedistStrategy::ViaSource`] — every processor ships its nonzeros to
//!   rank 0, which forwards each bucket to its new owner (`2p` messages,
//!   each nonzero crosses the wire twice, and the hub serialises).
//!
//! The trade-off is the classic startup-vs-volume crossover: for small
//! arrays `ViaSource`'s `2p` startups beat `Direct`'s `p²`; as `nnz`
//! grows, `Direct`'s halved volume wins. The `ablation_redistribution`
//! bench measures the crossover.
//!
//! Triplets travel as `(global_row, global_col, value)` — 3 elements per
//! nonzero — and receivers rebuild CRS/CCS by counting sort, charged per
//! element like every other kernel in this crate.

use crate::compress::{CompressKind, LocalCompressed};
use crate::error::SparsedistError;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::schemes::{alive_ranks_of, assign_owners, collect_parts, OwnerIndex};
use sparsedist_multicomputer::pack::UnpackError;
use sparsedist_multicomputer::{
    Env, Multicomputer, PackBuffer, Phase, PhaseLedger, RankTask, VirtualTime,
};

/// How the nonzeros are routed to their new owners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedistStrategy {
    /// Compressed all-to-all: `p²` messages, volume `3·nnz`.
    Direct,
    /// Hub at rank 0: `2p` messages, volume `6·nnz`, hub-serialised.
    ViaSource,
}

/// Result of a redistribution: new local arrays plus per-rank ledgers.
#[derive(Debug, Clone)]
pub struct RedistRun {
    /// Which strategy ran.
    pub strategy: RedistStrategy,
    /// Per-rank phase ledgers.
    pub ledgers: Vec<PhaseLedger>,
    /// The re-owned compressed local arrays, indexed by rank.
    pub locals: Vec<LocalCompressed>,
}

impl RedistRun {
    /// The slowest processor's busy time (redistribution has no single
    /// source, so the paper's source-centric split does not apply).
    pub fn t_total(&self) -> VirtualTime {
        self.ledgers
            .iter()
            .map(|l| l.busy_total())
            .fold(VirtualTime::ZERO, VirtualTime::max)
    }

    /// Total nonzeros after redistribution.
    pub fn total_nnz(&self) -> usize {
        self.locals.iter().map(|l| l.nnz()).sum()
    }
}

/// Pack one triplet bucket: `count, (gr, gc, v)…`.
fn pack_bucket(trips: &[(usize, usize, f64)], ops: &mut OpCounter) -> PackBuffer {
    let mut buf = PackBuffer::with_capacity(1 + trips.len() * 3);
    buf.push_u64(trips.len() as u64);
    for &(r, c, v) in trips {
        buf.push_u64(r as u64);
        buf.push_u64(c as u64);
        buf.push_f64(v);
        ops.add(3);
    }
    buf
}

/// Unpack a triplet bucket.
fn unpack_bucket(
    buf: &PackBuffer,
    ops: &mut OpCounter,
) -> Result<Vec<(usize, usize, f64)>, UnpackError> {
    let mut cursor = buf.cursor();
    let n = cursor.try_read_usize()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let r = cursor.try_read_usize()?;
        let c = cursor.try_read_usize()?;
        let v = cursor.try_read_f64()?;
        ops.add(3);
        out.push((r, c, v));
    }
    if !cursor.is_exhausted() {
        // Longer than its own header describes: a framing mismatch.
        return Err(UnpackError {
            at: (1 + 3 * n) * 8,
            remaining: cursor.remaining(),
        });
    }
    Ok(out)
}

/// Walk a local compressed array and bucket its nonzeros by new owner
/// (triplets carry **global** coordinates).
fn bucket_by_new_owner(
    me: usize,
    local: &LocalCompressed,
    from: &dyn Partition,
    to: &dyn Partition,
    p: usize,
    ops: &mut OpCounter,
) -> Vec<Vec<(usize, usize, f64)>> {
    let mut buckets: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); p];
    for (lr, lc, v) in local.iter() {
        let (gr, gc) = from.to_global(me, lr, lc);
        let dest = to.owner_of(gr, gc);
        ops.add(2); // index mapping + ownership
        buckets[dest].push((gr, gc, v));
    }
    buckets
}

/// Build a compressed local array from unsorted destination-local
/// triplets by counting sort, charging one op per element touched.
fn build_local(
    me: usize,
    mut trips: Vec<(usize, usize, f64)>,
    to: &dyn Partition,
    kind: CompressKind,
    ops: &mut OpCounter,
) -> LocalCompressed {
    let (lrows, lcols) = to.local_shape(me);
    // Convert to local coordinates.
    for t in trips.iter_mut() {
        let (_, lr, lc) = to.to_local(t.0, t.1);
        *t = (lr, lc, t.2);
        ops.add(2);
    }
    LocalCompressed::from_triplets(kind, lrows, lcols, &trips, ops)
}

/// Everything a redistribution rank task reads, threaded through
/// [`Multicomputer::run_tasks_with_ledgers`]'s context parameter.
struct RedistCtx<'a> {
    locals: &'a [LocalCompressed],
    from: &'a dyn Partition,
    to: &'a dyn Partition,
    kind: CompressKind,
    strategy: RedistStrategy,
    alive: &'a [usize],
    hub: usize,
    from_owners: &'a OwnerIndex,
    to_owners: &'a OwnerIndex,
}

/// One rank of the redistribution: bucket the owned nonzeros by target
/// part, route the buckets (directly or through the hub), and rebuild the
/// owned target parts.
fn redist_task<'e>(
    ctx: &'e RedistCtx<'_>,
    env: &'e mut Env,
) -> RankTask<'e, Result<Vec<(usize, LocalCompressed)>, SparsedistError>> {
    Box::pin(async move {
        let RedistCtx {
            locals,
            from,
            to,
            kind,
            strategy,
            alive,
            hub,
            from_owners,
            to_owners,
        } = *ctx;
        let p = env.nprocs();
        let me = env.rank();
        env.trace_scope("redistribute");
        if env.is_rank_dead(me) {
            return Ok(Vec::new());
        }
        // Bucket every nonzero this rank holds (all its owned `from`
        // parts — exactly its own when every rank is alive) by target pid.
        let buckets = env.phase(Phase::Pack, |env| {
            let mut ops = OpCounter::new();
            let mut buckets: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); p];
            for &fpid in from_owners.of(me) {
                for (tpid, b) in bucket_by_new_owner(fpid, &locals[fpid], from, to, p, &mut ops)
                    .into_iter()
                    .enumerate()
                {
                    buckets[tpid].extend(b);
                }
            }
            env.charge_ops(ops.take());
            buckets
        });
        let to_mine = to_owners.of(me);

        let mut incoming: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); to_mine.len()];
        match strategy {
            RedistStrategy::Direct => {
                // All-to-all: pack + send one bucket per target part, to
                // whichever rank owns it.
                let bufs: Vec<PackBuffer> = env.phase(Phase::Pack, |env| {
                    let mut ops = OpCounter::new();
                    let bufs = buckets.iter().map(|b| pack_bucket(b, &mut ops)).collect();
                    env.charge_ops(ops.take());
                    bufs
                });
                // A task holds its locals until it finishes; free the
                // p buckets before awaiting the receives.
                drop(buckets);
                env.phase(Phase::Send, |env| -> Result<(), SparsedistError> {
                    for (tpid, buf) in bufs.into_iter().enumerate() {
                        env.send(to_owners.owners()[tpid], buf)?;
                    }
                    Ok(())
                })?;
                for slot in incoming.iter_mut() {
                    for &src in alive {
                        let msg = env.recv_async(src).await?;
                        let got = env.phase(Phase::Unpack, |env| {
                            let mut ops = OpCounter::new();
                            let got = unpack_bucket(&msg.payload, &mut ops);
                            env.charge_ops(ops.take());
                            got
                        })?;
                        slot.extend(got);
                    }
                }
            }
            RedistStrategy::ViaSource => {
                // Leg 1: everyone ships all triplets to the hub, tagged by
                // destination (p buckets concatenated with headers).
                let buf = env.phase(Phase::Pack, |env| {
                    let mut ops = OpCounter::new();
                    let mut buf = PackBuffer::new();
                    for b in &buckets {
                        let packed = pack_bucket(b, &mut ops);
                        // Concatenate: count + triplets per destination.
                        let mut cursor = packed.cursor();
                        let n = cursor.read_u64();
                        buf.push_u64(n);
                        for _ in 0..n {
                            buf.push_u64(cursor.read_u64());
                            buf.push_u64(cursor.read_u64());
                            buf.push_f64(cursor.read_f64());
                        }
                    }
                    env.charge_ops(ops.take());
                    buf
                });
                drop(buckets);
                env.phase(Phase::Send, |env| env.send(hub, buf))?;

                if me == hub {
                    // Hub: merge the per-destination streams and forward.
                    let mut forward: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); p];
                    let mut ops = OpCounter::new();
                    for &src in alive {
                        let msg = env.recv_async(src).await?;
                        merge_streams(&msg.payload, &mut forward, &mut ops)?;
                    }
                    let bufs: Vec<PackBuffer> =
                        forward.iter().map(|b| pack_bucket(b, &mut ops)).collect();
                    env.phase(Phase::Unpack, |env| env.charge_ops(ops.take()));
                    env.phase(Phase::Send, |env| -> Result<(), SparsedistError> {
                        for (tpid, buf) in bufs.into_iter().enumerate() {
                            env.send(to_owners.owners()[tpid], buf)?;
                        }
                        Ok(())
                    })?;
                }
                // Leg 2: receive one forwarded bucket per owned target part.
                for slot in incoming.iter_mut() {
                    let msg = env.recv_async(hub).await?;
                    *slot = env.phase(Phase::Unpack, |env| {
                        let mut ops = OpCounter::new();
                        let got = unpack_bucket(&msg.payload, &mut ops);
                        env.charge_ops(ops.take());
                        got
                    })?;
                }
            }
        }

        let mut out = Vec::with_capacity(to_mine.len());
        for (&tpid, trips) in to_mine.iter().zip(incoming) {
            let local = env.phase(Phase::Compress, |env| {
                let mut ops = OpCounter::new();
                let local = build_local(tpid, trips, to, kind, &mut ops);
                env.charge_ops(ops.take());
                local
            });
            out.push((tpid, local));
        }
        Ok(out)
    })
}

/// Split one leg-1 hub message (a count-prefixed triplet run per target
/// part) into the per-target forwarding buckets.
fn merge_streams(
    payload: &PackBuffer,
    forward: &mut [Vec<(usize, usize, f64)>],
    ops: &mut OpCounter,
) -> Result<(), UnpackError> {
    let mut cursor = payload.cursor();
    for fwd in forward.iter_mut() {
        let n = cursor.try_read_usize()?;
        for _ in 0..n {
            let r = cursor.try_read_usize()?;
            let c = cursor.try_read_usize()?;
            let v = cursor.try_read_f64()?;
            ops.add(3);
            fwd.push((r, c, v));
        }
    }
    Ok(())
}

/// Redistribute `locals` (owned under `from`) to the partition `to`.
///
/// Both partitions must describe the same global shape and the same
/// processor count as the machine.
///
/// ```
/// use sparsedist_core::dense::paper_array_a;
/// use sparsedist_core::partition::{Mesh2D, RowBlock};
/// use sparsedist_core::compress::CompressKind;
/// use sparsedist_core::redistribute::{redistribute, RedistStrategy};
/// use sparsedist_core::schemes::{run_scheme, SchemeKind};
/// use sparsedist_multicomputer::{MachineModel, Multicomputer};
///
/// let a = paper_array_a();
/// let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
/// let rows = RowBlock::new(10, 8, 4);
/// let mesh = Mesh2D::new(10, 8, 2, 2);
/// let owned = run_scheme(SchemeKind::Ed, &machine, &a, &rows, CompressKind::Crs)
///     .unwrap()
///     .locals;
/// let run = redistribute(&machine, &owned, &rows, &mesh, CompressKind::Crs,
///                        RedistStrategy::Direct).unwrap();
/// // Same state as if the array had been distributed under the mesh directly.
/// let direct = run_scheme(SchemeKind::Ed, &machine, &a, &mesh, CompressKind::Crs).unwrap();
/// assert_eq!(run.locals, direct.locals);
/// ```
///
/// # Errors
/// Communication and validation failures surface as [`SparsedistError`].
/// Dead ranks degrade gracefully: parts are re-owned among the survivors
/// under [`assign_owners`] on both the `from` and `to` sides, and the
/// `ViaSource` hub moves to the lowest alive rank.
///
/// # Panics
/// Panics on shape or processor-count mismatches.
pub fn redistribute(
    machine: &Multicomputer,
    locals: &[LocalCompressed],
    from: &dyn Partition,
    to: &dyn Partition,
    kind: CompressKind,
    strategy: RedistStrategy,
) -> Result<RedistRun, SparsedistError> {
    let p = machine.nprocs();
    assert_eq!(
        from.nparts(),
        p,
        "source partition has {} parts, machine {p}",
        from.nparts()
    );
    assert_eq!(
        to.nparts(),
        p,
        "target partition has {} parts, machine {p}",
        to.nparts()
    );
    assert_eq!(
        from.global_shape(),
        to.global_shape(),
        "partitions describe different arrays"
    );
    assert_eq!(locals.len(), p, "need one local array per processor");

    let alive = alive_ranks_of(machine);
    // A fault plan that kills every rank leaves nobody to re-own parts or
    // host the hub: surface it as an error instead of panicking host-side.
    let Some(&hub) = alive.first() else {
        return Err(SparsedistError::SourceDead { rank: 0 });
    };
    let from_owners = OwnerIndex::new(assign_owners(from, &alive), p);
    let to_owners = OwnerIndex::new(assign_owners(to, &alive), p);
    let ctx = RedistCtx {
        locals,
        from,
        to,
        kind,
        strategy,
        alive: &alive,
        hub,
        from_owners: &from_owners,
        to_owners: &to_owners,
    };
    let (results, ledgers) = machine.run_tasks_with_ledgers(&ctx, |ctx, env| redist_task(ctx, env));
    let new_locals = collect_parts(results, p)?;
    Ok(RedistRun {
        strategy,
        ledgers,
        locals: new_locals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;
    use crate::partition::{ColBlock, ColCyclic, Mesh2D, RowBlock, RowCyclic};
    use crate::schemes::{run_scheme, SchemeKind};
    use sparsedist_multicomputer::MachineModel;

    fn machine(p: usize) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
    }

    fn distribute(part: &dyn Partition, kind: CompressKind) -> Vec<LocalCompressed> {
        let a = paper_array_a();
        run_scheme(SchemeKind::Ed, &machine(part.nparts()), &a, part, kind)
            .unwrap()
            .locals
    }

    #[test]
    fn redistribution_equals_direct_distribution() {
        // distribute(row) → redistribute(row→X) must equal distribute(X),
        // for every target partition, kind and strategy.
        let from = RowBlock::new(10, 8, 4);
        let targets: Vec<Box<dyn Partition>> = vec![
            Box::new(ColBlock::new(10, 8, 4)),
            Box::new(Mesh2D::new(10, 8, 2, 2)),
            Box::new(RowCyclic::new(10, 8, 4)),
            Box::new(ColCyclic::new(10, 8, 4)),
        ];
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            let owned = distribute(&from, kind);
            for to in &targets {
                let want = distribute(to.as_ref(), kind);
                for strategy in [RedistStrategy::Direct, RedistStrategy::ViaSource] {
                    let run = redistribute(&machine(4), &owned, &from, to.as_ref(), kind, strategy)
                        .unwrap();
                    assert_eq!(run.locals, want, "{kind} {:?} to {}", strategy, to.name());
                    assert_eq!(run.total_nnz(), 16);
                }
            }
        }
    }

    #[test]
    fn identity_redistribution_is_stable() {
        let part = RowBlock::new(10, 8, 4);
        let owned = distribute(&part, CompressKind::Crs);
        let run = redistribute(
            &machine(4),
            &owned,
            &part,
            &part,
            CompressKind::Crs,
            RedistStrategy::Direct,
        )
        .unwrap();
        assert_eq!(run.locals, owned);
    }

    #[test]
    fn via_source_ships_twice_the_volume() {
        let from = RowBlock::new(10, 8, 4);
        let to = Mesh2D::new(10, 8, 2, 2);
        let owned = distribute(&from, CompressKind::Crs);
        let direct = redistribute(
            &machine(4),
            &owned,
            &from,
            &to,
            CompressKind::Crs,
            RedistStrategy::Direct,
        )
        .unwrap();
        let hub = redistribute(
            &machine(4),
            &owned,
            &from,
            &to,
            CompressKind::Crs,
            RedistStrategy::ViaSource,
        )
        .unwrap();
        let send = |r: &RedistRun| -> f64 {
            r.ledgers
                .iter()
                .map(|l| l.get(Phase::Send).as_micros())
                .sum()
        };
        // Direct: 16 messages (p²); ViaSource: 8 (p to hub + p from hub)
        // but every nonzero crosses twice, so more data volume. With tiny
        // payloads the startup term dominates and ViaSource sends less
        // total time; with the per-element part isolated the hub resends
        // everything. Just pin the structural facts:
        let direct_sends = send(&direct);
        let hub_sends = send(&hub);
        // p² startups vs 2p startups on a 16-nonzero array: Direct pays more.
        assert!(
            direct_sends > hub_sends,
            "direct {direct_sends} hub {hub_sends}"
        );
        // But the hub's own send ledger (forwarding everything) exceeds any
        // single direct rank's.
        let max_direct_rank = direct
            .ledgers
            .iter()
            .map(|l| l.get(Phase::Send).as_micros())
            .fold(0.0f64, f64::max);
        assert!(hub.ledgers[0].get(Phase::Send).as_micros() > max_direct_rank * 0.99);
    }

    #[test]
    fn empty_array_redistributes() {
        let from = RowBlock::new(12, 12, 4);
        let to = Mesh2D::new(12, 12, 2, 2);
        let a = crate::dense::Dense2D::zeros(12, 12);
        let owned = run_scheme(SchemeKind::Cfs, &machine(4), &a, &from, CompressKind::Crs)
            .unwrap()
            .locals;
        let run = redistribute(
            &machine(4),
            &owned,
            &from,
            &to,
            CompressKind::Crs,
            RedistStrategy::Direct,
        )
        .unwrap();
        assert_eq!(run.total_nnz(), 0);
        for (pid, l) in run.locals.iter().enumerate() {
            assert_eq!(l.shape(), to.local_shape(pid));
        }
    }

    #[test]
    fn kind_change_during_redistribution() {
        // Owned as CRS under rows, re-owned as CCS under columns.
        let from = RowBlock::new(10, 8, 4);
        let to = ColBlock::new(10, 8, 4);
        let owned = distribute(&from, CompressKind::Crs);
        let run = redistribute(
            &machine(4),
            &owned,
            &from,
            &to,
            CompressKind::Ccs,
            RedistStrategy::Direct,
        )
        .unwrap();
        let want = distribute(&to, CompressKind::Ccs);
        assert_eq!(run.locals, want);
    }

    #[test]
    #[should_panic(expected = "different arrays")]
    fn mismatched_shapes_rejected() {
        let from = RowBlock::new(10, 8, 4);
        let to = RowBlock::new(8, 10, 4);
        let owned = distribute(&from, CompressKind::Crs);
        let _ = redistribute(
            &machine(4),
            &owned,
            &from,
            &to,
            CompressKind::Crs,
            RedistStrategy::Direct,
        );
    }
}
