//! Sparse matrix–vector products, local and distributed.

use sparsedist_core::compress::{Ccs, CompressKind, Crs, LocalCompressed};
use sparsedist_core::dense::Dense2D;
use sparsedist_core::error::SparsedistError;
use sparsedist_core::partition::{AxisMap, Partition};
use sparsedist_core::schemes::SchemeRun;
use sparsedist_multicomputer::{
    CommError, Env, Multicomputer, PackBuffer, Phase, PhaseLedger, RankTask,
};
use std::ops::Range;

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
        let (cols, vals) = a.segment(r);
        for (&c, &v) in cols.iter().zip(vals) {
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
        let (rows, vals) = a.segment(c);
        for (&r, &v) in rows.iter().zip(vals) {
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

/// The halo-exchange plan of one `(locals, part)` pair: who sends which `x`
/// entries to whom, where each local nonzero reads and writes, and which
/// partial rows fold into which owner's slice of `y`.
///
/// Vector entry `i` (of `x` or `y`) is owned by the part owning the
/// diagonal cell `(min(i, rows − 1), min(i, cols − 1))`: on a square
/// array the diagonal owner, which is the row owner under every
/// row-family partition. Each [`SpmvPlan::apply`] then runs three steps
/// on every rank:
///
/// 1. **Expand.** Owners send each neighbour exactly the `x` entries its
///    nonzeros touch, in ascending destination order; entries a rank owns
///    itself are read in place, with no message.
/// 2. **Compute.** Two flops per local nonzero, into the rank's partial
///    rows.
/// 3. **Fold.** Partial rows travel to their owner, which adds them in
///    ascending source-rank order; rows a rank owns itself are added in
///    place, with no message.
///
/// `y` stays distributed; the host reads each owner's slice from the
/// task results, just as each owner reads its `x` entries from the host
/// vector. Under a row-family partition every partial row is its owner's
/// own, so the fold sends nothing and every row sums its nonzeros in
/// ascending column order: `y` equals [`crs_spmv`] bit for bit.
///
/// The plan is derived on the host once, in `O(nnz + n + p)` time and
/// memory (stamp and counting arrays, no per-rank array of length `n`).
/// It holds index lists only and borrows the values from the locals,
/// so an iterative solver builds it once and reuses it on every
/// product; index lists never travel per call.
#[derive(Debug)]
pub struct SpmvPlan<'a> {
    locals: &'a [LocalCompressed],
    shape: (usize, usize),
    ranks: Vec<RankPlan>,
    /// Global rows by owner, then row: rank `r` owns
    /// `yrows[ystart[r]..ystart[r + 1]]`.
    yrows: Vec<usize>,
    ystart: Vec<usize>,
}

/// A run of `peer`'s entries in one rank's halo: positions
/// `slots` of the halo's owner order.
#[derive(Debug, Clone)]
struct Segment {
    peer: usize,
    slots: Range<usize>,
}

/// The entries of one vector (`x` or `y`) that one rank's nonzeros touch.
#[derive(Debug, Default)]
struct Halo {
    /// The entries in first-touch order: the layout of the rank's buffer.
    entries: Vec<usize>,
    /// Buffer slots by owner, then first touch: the order entries travel
    /// in.
    order: Vec<usize>,
    /// `order` split into per-owner runs, ascending owner.
    segs: Vec<Segment>,
}

/// One rank's share of an [`SpmvPlan`].
#[derive(Debug)]
struct RankPlan {
    /// The `x` entries this rank's nonzeros read.
    x: Halo,
    /// Each local nonzero's slot in the `x` buffer, in storage order.
    xslot: Vec<usize>,
    /// The rows this rank's nonzeros write: its partial rows.
    y: Halo,
    /// Each local nonzero's slot in the partial-row buffer, in storage
    /// order.
    yslot: Vec<usize>,
    /// For each position of `y.order`, the row's position in its owner's
    /// slice of `y`.
    ypos: Vec<usize>,
    /// Expand sends: runs of the destination's `x` halo, ascending
    /// destination.
    sends: Vec<Segment>,
    /// Fold contributions: runs of the source's `y` halo, ascending source
    /// (this rank included).
    folds: Vec<Segment>,
}

/// The owner of every vector entry `0..max(rows, cols)`: the owner of the
/// diagonal cell, clamped into the array.
fn entry_owners(part: &dyn Partition) -> Vec<usize> {
    match part.global_shape() {
        (0, cols) => vec![0; cols],
        (rows, 0) => vec![0; rows],
        (rows, cols) => (0..rows.max(cols))
            .map(|i| part.owner_of(i.min(rows - 1), i.min(cols - 1)))
            .collect(),
    }
}

/// Vector entries bucketed by owner with a counting sort.
struct Owners {
    /// The owner of each entry.
    of: Vec<usize>,
    /// The entries, by owner and then index.
    order: Vec<usize>,
    /// Rank `r`'s entries are `order[start[r]..start[r + 1]]`.
    start: Vec<usize>,
    /// Each entry's index in `order`.
    place: Vec<usize>,
}

impl Owners {
    fn new(of: Vec<usize>, p: usize) -> Owners {
        let mut start = vec![0; p + 1];
        for &o in &of {
            start[o + 1] += 1;
        }
        for r in 0..p {
            start[r + 1] += start[r];
        }
        let mut next = start[..p].to_vec();
        let mut order = vec![0; of.len()];
        let mut place = vec![0; of.len()];
        for (i, &o) in of.iter().enumerate() {
            order[next[o]] = i;
            place[i] = next[o];
            next[o] += 1;
        }
        Owners {
            of,
            order,
            start,
            place,
        }
    }

    /// Entry `i`'s position in its owner's run of `order`.
    fn pos(&self, i: usize) -> usize {
        self.place[i] - self.start[self.of[i]]
    }
}

/// The entries of one vector that `local`'s nonzeros touch (their global
/// rows if `rows`, else their columns, mapped through `map`) in
/// first-touch order, and each nonzero's slot among them. Along the
/// compressed axis (CRS rows, CCS columns) every nonempty run is a new
/// entry; along the other, `stamp[i] == d` marks entry `i` as listed by
/// rank `d`, at slot `slot_of[i]`.
fn first_touch(
    local: &LocalCompressed,
    rows: bool,
    map: &AxisMap,
    d: usize,
    stamp: &mut [usize],
    slot_of: &mut [usize],
) -> (Vec<usize>, Vec<usize>) {
    let compressed = |ptr: &[usize]| {
        let mut entries = Vec::new();
        let mut slot = Vec::with_capacity(local.nnz());
        for (l, run) in ptr.windows(2).enumerate() {
            if run[0] < run[1] {
                slot.resize(run[1], entries.len());
                entries.push(map.get(l));
            }
        }
        (entries, slot)
    };
    let mut scattered = |idx: &[usize]| {
        let mut entries = Vec::new();
        let mut slot: Vec<usize> = match map {
            AxisMap::Range(r) => idx.iter().map(|&l| r.start + l).collect(),
            AxisMap::Indices(v) => idx.iter().map(|&l| v[l]).collect(),
        };
        for i in &mut slot {
            if stamp[*i] != d {
                stamp[*i] = d;
                slot_of[*i] = entries.len();
                entries.push(*i);
            }
            *i = slot_of[*i];
        }
        (entries, slot)
    };
    // The vector runs along the segments when it is indexed by rows of a
    // CRS array or by columns of a CCS one.
    if rows == (local.kind() == CompressKind::Crs) {
        compressed(local.pointer())
    } else {
        scattered(local.indices())
    }
}

/// Every rank's halo of one vector (its nonzeros' rows if `rows`, else
/// their columns), with each nonzero's slot in it. [`first_touch`] lists
/// each rank's entries; a stable counting sort of all of them by owner,
/// dealt back out to their ranks, groups every halo by owner.
/// `O(nnz + len + p)` time and memory: each length-`len` array is shared
/// by all ranks.
fn halos(
    locals: &[LocalCompressed],
    rows: bool,
    map: impl Fn(usize) -> AxisMap,
    owners: &Owners,
) -> (Vec<Halo>, Vec<Vec<usize>>) {
    let len = owners.of.len();
    let mut stamp = vec![usize::MAX; len];
    let mut slot_of = vec![0; len];
    let (mut halos, slots): (Vec<Halo>, Vec<Vec<usize>>) = (locals.iter().enumerate())
        .map(|(d, local)| {
            let (entries, slot) = first_touch(local, rows, &map(d), d, &mut stamp, &mut slot_of);
            let halo = Halo {
                entries,
                ..Halo::default()
            };
            (halo, slot)
        })
        .unzip();

    let p = locals.len();
    let mut next = vec![0usize; p + 1];
    for i in halos.iter().flat_map(|h| &h.entries) {
        next[owners.of[*i] + 1] += 1;
    }
    for r in 0..p {
        next[r + 1] += next[r];
    }
    let mut by_owner = vec![(0, 0); next[p]];
    for (d, h) in halos.iter().enumerate() {
        for (slot, &i) in h.entries.iter().enumerate() {
            let at = &mut next[owners.of[i]];
            by_owner[*at] = (d, slot);
            *at += 1;
        }
    }
    for h in &mut halos {
        h.order.reserve_exact(h.entries.len());
    }
    // After the scatter, `next[o]` ends owner `o`'s bucket.
    let mut lo = 0;
    for (owner, &hi) in next[..p].iter().enumerate() {
        for &(d, slot) in &by_owner[lo..hi] {
            let h = &mut halos[d];
            let k = h.order.len();
            h.order.push(slot);
            match h.segs.last_mut() {
                Some(s) if s.peer == owner => s.slots.end = k + 1,
                _ => h.segs.push(Segment {
                    peer: owner,
                    slots: k..k + 1,
                }),
            }
        }
        lo = hi;
    }
    (halos, slots)
}

impl<'a> SpmvPlan<'a> {
    /// Plan the halo exchange for `locals`, one per part of `part`.
    ///
    /// # Panics
    /// Panics if the number of locals differs from the partition's part
    /// count.
    pub fn new(locals: &'a [LocalCompressed], part: &dyn Partition) -> SpmvPlan<'a> {
        let p = part.nparts();
        assert_eq!(locals.len(), p, "locals != partition size");
        let (rows, cols) = part.global_shape();
        let mut owner = entry_owners(part);
        let xown = Owners::new(owner[..cols].to_vec(), p);
        let row_owners;
        let yown = if rows == cols {
            &xown
        } else {
            owner.truncate(rows);
            row_owners = Owners::new(owner, p);
            &row_owners
        };

        let (xs, xslots) = halos(locals, false, |d| part.col_map(d), &xown);
        let (ys, yslots) = halos(locals, true, |d| part.row_map(d), yown);

        let mut sends = vec![Vec::new(); p];
        let mut folds = vec![Vec::new(); p];
        for (d, (x, y)) in xs.iter().zip(&ys).enumerate() {
            for s in x.segs.iter().filter(|s| s.peer != d) {
                sends[s.peer].push(Segment {
                    peer: d,
                    slots: s.slots.clone(),
                });
            }
            for s in &y.segs {
                folds[s.peer].push(Segment {
                    peer: d,
                    slots: s.slots.clone(),
                });
            }
        }
        let ranks = (xs.into_iter().zip(xslots))
            .zip(ys.into_iter().zip(yslots))
            .zip(sends.into_iter().zip(folds))
            .map(|(((x, xslot), (y, yslot)), (sends, folds))| RankPlan {
                ypos: y.order.iter().map(|&s| yown.pos(y.entries[s])).collect(),
                x,
                xslot,
                y,
                yslot,
                sends,
                folds,
            })
            .collect();
        SpmvPlan {
            locals,
            shape: (rows, cols),
            ranks,
            yrows: yown.order.clone(),
            ystart: yown.start.clone(),
        }
    }

    /// `y = A·x` by one halo exchange on `machine`.
    ///
    /// # Errors
    /// Propagates communication failures when a fault plan is installed;
    /// a dead rank is [`CommError::PeerDead`].
    ///
    /// # Panics
    /// Panics if `x.len()` does not match the global column count or the
    /// machine size differs from the part count.
    pub fn apply(&self, machine: &Multicomputer, x: &[f64]) -> Result<Vec<f64>, SparsedistError> {
        Ok(self.apply_ledgers(machine, x)?.0)
    }

    /// [`SpmvPlan::apply`] plus the per-rank phase ledgers of the product.
    ///
    /// # Errors
    /// As [`SpmvPlan::apply`].
    ///
    /// # Panics
    /// As [`SpmvPlan::apply`].
    pub fn apply_ledgers(
        &self,
        machine: &Multicomputer,
        x: &[f64],
    ) -> Result<(Vec<f64>, Vec<PhaseLedger>), SparsedistError> {
        let (rows, cols) = self.shape;
        assert_eq!(x.len(), cols, "x length {} != global cols {cols}", x.len());
        assert_eq!(machine.nprocs(), self.ranks.len(), "machine size != locals");
        let ctx = SpmvCtx { plan: self, x };
        let (results, ledgers) =
            machine.run_tasks_with_ledgers(&ctx, |ctx, env| halo_task(ctx, env));
        let mut y = vec![0.0; rows];
        for (owned, slice) in self.ystart.windows(2).zip(results) {
            for (&r, v) in self.yrows[owned[0]..owned[1]].iter().zip(slice?) {
                y[r] = v;
            }
        }
        Ok((y, ledgers))
    }
}

/// What every rank task of [`SpmvPlan::apply`] reads, threaded through
/// [`Multicomputer::run_tasks_with_ledgers`]'s context parameter.
struct SpmvCtx<'p, 'a> {
    plan: &'p SpmvPlan<'a>,
    x: &'p [f64],
}

/// Pack `vals` into a fresh buffer, charging one [`Phase::Pack`] op per
/// entry, and send it to `dst`. Not from the rank's arena: a halo
/// exchange need not send a rank as many buffers as it receives (a
/// triangular pattern sends one way only), so recycling received
/// payloads would grow a pool by one buffer per product.
fn send_values(
    env: &mut Env,
    dst: usize,
    vals: impl ExactSizeIterator<Item = f64>,
) -> Result<(), SparsedistError> {
    let buf = env.phase(Phase::Pack, |env| {
        let n = vals.len();
        let mut buf = PackBuffer::with_capacity(n);
        vals.for_each(|v| buf.push_f64(v));
        env.charge_ops(n as u64);
        buf
    });
    Ok(env.phase(Phase::Send, |env| env.send(dst, buf))?)
}

/// One rank of [`SpmvPlan::apply`]: expand, compute, fold. Returns the
/// rank's slice of `y`.
fn halo_task<'e>(
    ctx: &'e SpmvCtx<'_, '_>,
    env: &'e mut Env,
) -> RankTask<'e, Result<Vec<f64>, SparsedistError>> {
    Box::pin(async move {
        let SpmvCtx { plan, x } = *ctx;
        let me = env.rank();
        if env.is_rank_dead(me) {
            // Its locals died with it: its rows cannot be computed.
            return Err(CommError::PeerDead { rank: me }.into());
        }
        let rank = &plan.ranks[me];
        let local = &plan.locals[me];

        // Expand: each neighbour gets the x entries its nonzeros read.
        for s in &rank.sends {
            let halo = &plan.ranks[s.peer].x;
            let slots = &halo.order[s.slots.clone()];
            send_values(env, s.peer, slots.iter().map(|&k| x[halo.entries[k]]))?;
        }
        let mut xs = vec![0.0; rank.x.entries.len()];
        let prev = env.begin_phase(Phase::Unpack);
        let expanded = 'recv: {
            for s in &rank.x.segs {
                let slots = &rank.x.order[s.slots.clone()];
                if s.peer == me {
                    slots.iter().for_each(|&k| xs[k] = x[rank.x.entries[k]]);
                    continue;
                }
                let msg = match env.recv_async(s.peer).await {
                    Ok(msg) => msg,
                    Err(e) => break 'recv Err(SparsedistError::from(e)),
                };
                let mut cursor = msg.payload.cursor();
                for &k in slots {
                    match cursor.try_read_f64() {
                        Ok(v) => xs[k] = v,
                        Err(e) => break 'recv Err(e.into()),
                    }
                }
                env.charge_ops(slots.len() as u64);
            }
            Ok(())
        };
        env.end_phase(prev);
        expanded?;

        // Compute: two flops per local nonzero, into the partial rows, each
        // row summed in storage order. A run of nonzeros in one row (a CRS
        // row) sums in a register.
        let partial = env.phase(Phase::Compute, |env| {
            let mut ys = vec![0.0; rank.y.entries.len()];
            let vals = local.values();
            let products = vals.iter().zip(&rank.xslot).map(|(&v, &k)| v * xs[k]);
            let mut run = (usize::MAX, 0.0);
            for (t, &r) in products.zip(&rank.yslot) {
                if r != run.0 {
                    if let Some(y) = ys.get_mut(run.0) {
                        *y = run.1;
                    }
                    run = (r, ys[r]);
                }
                run.1 += t;
            }
            if let Some(y) = ys.get_mut(run.0) {
                *y = run.1;
            }
            env.charge_ops(2 * vals.len() as u64);
            ys
        });

        // Fold: partial rows owned elsewhere go to their owners ...
        for s in rank.y.segs.iter().filter(|s| s.peer != me) {
            let slots = &rank.y.order[s.slots.clone()];
            send_values(env, s.peer, slots.iter().map(|&k| partial[k]))?;
        }
        // ... and each owner adds its contributions in source order.
        let mut y = vec![0.0; plan.ystart[me + 1] - plan.ystart[me]];
        let prev = env.begin_phase(Phase::Unpack);
        let folded = 'recv: {
            for s in &rank.folds {
                let pos = &plan.ranks[s.peer].ypos[s.slots.clone()];
                if s.peer == me {
                    let slots = &rank.y.order[s.slots.clone()];
                    pos.iter()
                        .zip(slots)
                        .for_each(|(&i, &k)| y[i] += partial[k]);
                    continue;
                }
                let msg = match env.recv_async(s.peer).await {
                    Ok(msg) => msg,
                    Err(e) => break 'recv Err(SparsedistError::from(e)),
                };
                let mut cursor = msg.payload.cursor();
                for &i in pos {
                    match cursor.try_read_f64() {
                        Ok(v) => y[i] += v,
                        Err(e) => break 'recv Err(e.into()),
                    }
                }
                env.charge_ops(pos.len() as u64);
            }
            Ok(())
        };
        env.end_phase(prev);
        folded?;
        Ok(y)
    })
}

/// `y = A·x` over the distributed local arrays left by a scheme run: one
/// halo exchange ([`SpmvPlan`]), planned for this call only. Works for
/// every partition method, block or cyclic. Callers that multiply
/// repeatedly (the solvers) build the plan once and call
/// [`SpmvPlan::apply`] instead.
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
/// itself (pack, send, unpack and compute of the halo exchange).
///
/// # Errors
/// Propagates communication failures when a fault plan is installed.
///
/// # Panics
/// As [`distributed_spmv`].
pub fn distributed_spmv_ledgers(
    machine: &Multicomputer,
    run: &SchemeRun,
    part: &dyn Partition,
    x: &[f64],
) -> Result<(Vec<f64>, Vec<PhaseLedger>), SparsedistError> {
    SpmvPlan::new(&run.locals, part).apply_ledgers(machine, x)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn a_plan_is_reusable_across_products() {
        let a = paper_array_a();
        let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
        let part = Mesh2D::new(10, 8, 2, 2);
        let run = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Ccs).unwrap();
        let plan = SpmvPlan::new(&run.locals, &part);
        for shift in 0..3 {
            let x: Vec<f64> = (0..8).map(|i| (i + shift) as f64).collect();
            let (y, ledgers) = plan.apply_ledgers(&machine, &x).unwrap();
            assert_eq!(y, distributed_spmv(&machine, &run, &part, &x).unwrap());
            let fresh = distributed_spmv_ledgers(&machine, &run, &part, &x)
                .unwrap()
                .1;
            assert_eq!(ledgers, fresh);
        }
    }
}
