//! The three data distribution schemes (paper §3) and their shared
//! reporting machinery.
//!
//! Every driver runs SPMD on a [`Multicomputer`], with rank 0 acting as the
//! source processor that holds the global array (the paper's host). All
//! three produce identical final state — each processor holding its
//! compressed local sparse array — but spend their time in different
//! phases, which is the whole point of the comparison:
//!
//! | scheme | source does | wire carries | receiver does |
//! |---|---|---|---|
//! | SFC | extract dense parts | `n²` dense elements | compress locally |
//! | CFS | compress all parts, pack `RO`/`CO`/`VL` | `≈ 2n²s` elements | unpack + convert indices |
//! | ED  | encode special buffers `B` | `≈ 2n²s` elements | decode `B` directly |
//!
//! [`SchemeRun::t_distribution`] and [`SchemeRun::t_compression`] aggregate
//! the per-rank ledgers exactly the way the paper's Tables 1–2 do, so the
//! regenerated tables are directly comparable.

mod cfs;
mod ed;
mod pipeline;
mod sfc;

use crate::compress::{CompressKind, LocalCompressed};
use crate::dense::Dense2D;
use crate::error::SparsedistError;
use crate::partition::Partition;
use crate::scan::PartScan;
use crate::wire::{CodecChoice, WireFormat, WirePolicy};
use sparsedist_multicomputer::{Multicomputer, Phase, PhaseLedger, VirtualTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Tuning knobs for a scheme run that change *how* the work is done on the
/// host — never *what* is distributed or what the paper's cost model
/// charges for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SchemeConfig {
    /// Wire layout for every buffer the scheme sends. [`WireFormat::V1`]
    /// (the default) reproduces the seed byte streams exactly;
    /// [`WireFormat::V3`] compresses each stream with the codec chosen by
    /// [`Self::codec`].
    pub wire: WireFormat,
    /// Which v3 codec every message of the run uses. Ignored under v1,
    /// whose layout is fixed by the format.
    pub codec: CodecChoice,
    /// Overlap encode/compress with the transfers: the source sends each
    /// part **as soon as it is encoded** via the engine's nonblocking
    /// [`sparsedist_multicomputer::engine::Env::isend`], draining the NIC
    /// once at the end. Locals, bytes on the wire and every non-`Send`
    /// phase total are unchanged; the `Send` total (and with it the
    /// makespan and `T_Distribution`) shrinks to the wire time the CPU
    /// could not hide. Fault plans compose: the NIC runs the ARQ schedule
    /// asynchronously, so posts stay nonblocking and recovery time
    /// (retransmissions plus timeouts) that the CPU could not hide is
    /// charged to `Phase::Retry` when the final `wait_all` drains the
    /// link — delivering the same payloads as the blocking path under the
    /// identical deterministic fate sequence.
    pub overlap: bool,
    /// When nonzero, split each part's wire buffer into framed chunks of at
    /// most this many elements ([`crate::schemes`] pipeline framing), so
    /// large parts travel as bounded messages instead of one. Costs one
    /// prefix element (8 bytes) per logical message plus `T_Startup` per
    /// additional chunk; retransmissions under a fault plan are then
    /// charged per chunk. `0` (the default) sends whole buffers — the seed
    /// byte streams.
    pub chunk_elems: usize,
}

impl SchemeConfig {
    /// The default configuration with communication/compute overlap on.
    pub fn overlapped() -> Self {
        SchemeConfig {
            overlap: true,
            ..SchemeConfig::default()
        }
    }

    /// The wire policy every message of the run is sent under.
    pub fn policy(&self) -> WirePolicy {
        WirePolicy {
            format: self.wire,
            choice: self.codec,
        }
    }
}

/// The source rank every provided driver distributes from.
pub(crate) const SOURCE: usize = 0;

/// Map each part to the rank that will own it, given the alive ranks.
///
/// Fault-free (every rank alive, one part per rank) this is the identity —
/// part `i` lives on rank `i`, exactly the paper's layout. When the fault
/// plan declares ranks dead, their parts are re-assigned to survivors by
/// greedy longest-processing-time bin packing over cell counts (the same
/// idiom as [`crate::partition::BalancedRows::bin_packed`]), so the
/// distribution degrades instead of deadlocking. Every rank computes this
/// from shared state (partition + fault plan), so no agreement protocol is
/// needed.
///
/// # Panics
/// Panics if `alive` is empty.
pub fn assign_owners(part: &dyn Partition, alive: &[usize]) -> Vec<usize> {
    assert!(!alive.is_empty(), "cannot place parts with no alive ranks");
    let nparts = part.nparts();
    if alive.len() == nparts && alive.iter().enumerate().all(|(i, &r)| i == r) {
        return (0..nparts).collect();
    }
    let alive_set: std::collections::BTreeSet<usize> = alive.iter().copied().collect();
    let cells = |pid: usize| {
        let (r, c) = part.local_shape(pid);
        r * c
    };
    // Parts whose home rank (the rank with the part's index) survives stay
    // put; dead parts get re-packed.
    let mut owners: Vec<usize> = vec![usize::MAX; nparts];
    let mut orphans: Vec<usize> = Vec::new();
    for (pid, owner) in owners.iter_mut().enumerate() {
        if alive_set.contains(&pid) {
            *owner = pid;
        } else {
            orphans.push(pid);
        }
    }
    // LPT: biggest orphan first, onto the least-loaded survivor.
    orphans.sort_by_key(|&pid| Reverse(cells(pid)));
    let load = alive_set
        .iter()
        .map(|&r| (r, if r < nparts { cells(r) } else { 0 }));
    place_least_loaded(load, &orphans, cells, &mut owners);
    owners
}

/// Place each of `orphans`, in the given order, on the rank with the least
/// load so far (ties to the lowest rank), adding the part's cells to that
/// rank's load. `load` seeds one `(rank, load)` entry per candidate rank;
/// each placement costs O(log ranks).
///
/// # Panics
/// Panics if `orphans` is non-empty but `load` is empty.
pub(crate) fn place_least_loaded(
    load: impl IntoIterator<Item = (usize, usize)>,
    orphans: &[usize],
    cells: impl Fn(usize) -> usize,
    owners: &mut [usize],
) {
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        load.into_iter().map(|(r, l)| Reverse((l, r))).collect();
    for &pid in orphans {
        let mut least = heap
            .peek_mut()
            // lint: allow(E002) — callers seed at least one rank before placing any orphan
            .expect("at least one rank to place on");
        let Reverse((l, r)) = *least;
        owners[pid] = r;
        *least = Reverse((l + cells(pid), r));
    }
}

/// The inverse of an owner map: the parts each rank owns, in ascending part
/// id order, so a rank visits its own parts in O(its parts) instead of
/// scanning all `p`. Built once per run on the host by a counting sort; it
/// charges nothing to any virtual clock.
///
/// Ascending order matters: the source sends parts in part order over a
/// FIFO link, so a rank owning several parts receives them in that order.
pub(crate) struct OwnerIndex {
    owners: Vec<usize>,
    /// `parts[start[r]..start[r + 1]]` are the parts rank `r` owns.
    start: Vec<usize>,
    parts: Vec<usize>,
}

impl OwnerIndex {
    /// Index `owners` (`owners[pid]` is part `pid`'s rank, below `nranks`).
    pub(crate) fn new(owners: Vec<usize>, nranks: usize) -> Self {
        let mut start = vec![0usize; nranks + 1];
        for &r in &owners {
            start[r + 1] += 1;
        }
        for r in 0..nranks {
            start[r + 1] += start[r];
        }
        let mut next = start[..nranks].to_vec();
        let mut parts = vec![0usize; owners.len()];
        for (pid, &r) in owners.iter().enumerate() {
            parts[next[r]] = pid;
            next[r] += 1;
        }
        OwnerIndex {
            owners,
            start,
            parts,
        }
    }

    /// The owner map itself (`owners()[pid]` is part `pid`'s rank).
    pub(crate) fn owners(&self) -> &[usize] {
        &self.owners
    }

    /// The parts `rank` owns, ascending.
    pub(crate) fn of(&self, rank: usize) -> &[usize] {
        &self.parts[self.start[rank]..self.start[rank + 1]]
    }

    /// Give back the owner map.
    pub(crate) fn into_owners(self) -> Vec<usize> {
        self.owners
    }
}

/// The ranks alive under `machine`'s fault plan (all of them without one).
pub(crate) fn alive_ranks_of(machine: &Multicomputer) -> Vec<usize> {
    (0..machine.nprocs())
        .filter(|&r| !machine.fault_plan().is_some_and(|p| p.is_dead(r)))
        .collect()
}

/// Flatten per-rank `(pid, local)` contributions into a per-part vector,
/// surfacing the first rank error.
pub(crate) fn collect_parts(
    results: Vec<Result<Vec<(usize, LocalCompressed)>, SparsedistError>>,
    nparts: usize,
) -> Result<Vec<LocalCompressed>, SparsedistError> {
    let mut slots: Vec<Option<LocalCompressed>> = (0..nparts).map(|_| None).collect();
    for r in results {
        for (pid, local) in r? {
            slots[pid] = Some(local);
        }
    }
    Ok(slots
        .into_iter()
        // lint: allow(E002) — assign_owners gives every part exactly one alive owner
        .map(|s| s.expect("every part has exactly one alive owner"))
        .collect())
}

/// Which distribution scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Send Followed Compress (the baseline).
    Sfc,
    /// Compress Followed Send.
    Cfs,
    /// Encoding–Decoding.
    Ed,
}

impl SchemeKind {
    /// All three schemes, in the paper's presentation order.
    pub const ALL: [SchemeKind; 3] = [SchemeKind::Sfc, SchemeKind::Cfs, SchemeKind::Ed];

    /// Upper-case label as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Sfc => "SFC",
            SchemeKind::Cfs => "CFS",
            SchemeKind::Ed => "ED",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of one distribution: each rank's compressed local array plus
/// the per-rank phase ledgers.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// Which scheme ran.
    pub scheme: SchemeKind,
    /// Which compression method was used.
    pub compress_kind: CompressKind,
    /// The source rank (always 0 in the provided drivers).
    pub source: usize,
    /// Per-rank phase ledgers.
    pub ledgers: Vec<PhaseLedger>,
    /// Per-part compressed local arrays (`locals[pid]` is part `pid`).
    pub locals: Vec<LocalCompressed>,
    /// Which rank owns each part (`owners[pid]`). Identity fault-free;
    /// under rank death, parts of dead ranks move to survivors (see
    /// [`assign_owners`]).
    pub owners: Vec<usize>,
}

fn vmax(it: impl Iterator<Item = VirtualTime>) -> VirtualTime {
    it.fold(VirtualTime::ZERO, VirtualTime::max)
}

impl SchemeRun {
    /// The paper's `T_Distribution`: packing and sending at the source plus
    /// the slowest receiver's unpacking.
    pub fn t_distribution(&self) -> VirtualTime {
        let src = &self.ledgers[self.source];
        src.get(Phase::Pack)
            + src.get(Phase::Send)
            + vmax(self.ledgers.iter().map(|l| l.get(Phase::Unpack)))
    }

    /// The paper's `T_Compression`: for SFC the slowest receiver's local
    /// compression; for CFS the source's compression of every part; for ED
    /// the source's encoding plus the slowest receiver's decoding.
    pub fn t_compression(&self) -> VirtualTime {
        match self.scheme {
            SchemeKind::Sfc => vmax(self.ledgers.iter().map(|l| l.get(Phase::Compress))),
            SchemeKind::Cfs => self.ledgers[self.source].get(Phase::Compress),
            SchemeKind::Ed => {
                self.ledgers[self.source].get(Phase::Encode)
                    + vmax(self.ledgers.iter().map(|l| l.get(Phase::Decode)))
            }
        }
    }

    /// Overall cost: `T_Distribution + T_Compression` (what the paper's
    /// "overall performance" conclusions compare).
    pub fn t_total(&self) -> VirtualTime {
        self.t_distribution() + self.t_compression()
    }

    /// The simulated makespan: the latest finishing processor's clock
    /// (busy + wait). Unlike the paper's phase aggregates this captures
    /// pipelining effects — e.g. overlapping encode with send shortens the
    /// makespan without changing any phase total.
    pub fn t_makespan(&self) -> VirtualTime {
        vmax(
            self.ledgers
                .iter()
                .map(|l| l.busy_total() + l.get(Phase::Wait)),
        )
    }

    /// Total nonzeros across all local arrays.
    pub fn total_nnz(&self) -> usize {
        self.locals.iter().map(|l| l.nnz()).sum()
    }

    /// Rebuild the global dense array from the distributed compressed
    /// parts — the correctness check that all three schemes must pass.
    pub fn reassemble(&self, part: &dyn Partition) -> Dense2D {
        let (grows, gcols) = part.global_shape();
        let mut out = Dense2D::zeros(grows, gcols);
        for (pid, local) in self.locals.iter().enumerate() {
            PartScan::of(part, pid).scatter(local, &mut out);
        }
        out
    }
}

/// Distribute `global` over `machine` with the chosen scheme, partition and
/// compression method.
///
/// # Errors
/// Returns [`SparsedistError::SourceDead`] if the fault plan declares the
/// source rank dead, [`SparsedistError::Comm`] if the interconnect's retry
/// budget runs out, and compression/unpack errors if an accepted stream
/// fails validation.
///
/// # Panics
/// Panics if the partition's part count differs from the machine's
/// processor count, or if the partition was built for a different shape
/// (API misuse, not runtime faults).
pub fn run_scheme(
    scheme: SchemeKind,
    machine: &Multicomputer,
    global: &Dense2D,
    part: &dyn Partition,
    kind: CompressKind,
) -> Result<SchemeRun, SparsedistError> {
    run_scheme_with(scheme, machine, global, part, kind, SchemeConfig::default())
}

/// [`run_scheme`] with explicit [`SchemeConfig`] knobs: wire format,
/// codec, overlap and chunking.
///
/// `run_scheme(…)` is exactly `run_scheme_with(…, SchemeConfig::default())`
/// — v1 wire bytes and the staged schedule, the seed behaviour.
///
/// # Errors
/// Same as [`run_scheme`].
///
/// # Panics
/// Same as [`run_scheme`].
pub fn run_scheme_with(
    scheme: SchemeKind,
    machine: &Multicomputer,
    global: &Dense2D,
    part: &dyn Partition,
    kind: CompressKind,
    config: SchemeConfig,
) -> Result<SchemeRun, SparsedistError> {
    assert_eq!(
        machine.nprocs(),
        part.nparts(),
        "partition has {} parts but the machine has {} processors",
        part.nparts(),
        machine.nprocs()
    );
    assert_eq!(
        part.global_shape(),
        (global.rows(), global.cols()),
        "partition shape {:?} does not match the array {}x{}",
        part.global_shape(),
        global.rows(),
        global.cols()
    );
    if machine.fault_plan().is_some_and(|p| p.is_dead(SOURCE)) {
        return Err(SparsedistError::SourceDead { rank: SOURCE });
    }
    match scheme {
        SchemeKind::Sfc => sfc::run(machine, global, part, kind, config),
        SchemeKind::Cfs => cfs::run(machine, global, part, kind, config),
        SchemeKind::Ed => ed::run(machine, global, part, kind, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;
    use crate::partition::{ColBlock, ColCyclic, Mesh2D, RowBlock, RowCyclic};
    use sparsedist_multicomputer::MachineModel;

    fn machine(p: usize) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
    }

    fn all_partitions(rows: usize, cols: usize) -> Vec<Box<dyn Partition>> {
        vec![
            Box::new(RowBlock::new(rows, cols, 4)),
            Box::new(ColBlock::new(rows, cols, 4)),
            Box::new(Mesh2D::new(rows, cols, 2, 2)),
            Box::new(RowCyclic::new(rows, cols, 4)),
            Box::new(ColCyclic::new(rows, cols, 4)),
        ]
    }

    #[test]
    fn all_schemes_reassemble_the_original() {
        let a = paper_array_a();
        for part in all_partitions(10, 8) {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                for scheme in SchemeKind::ALL {
                    let run = run_scheme(scheme, &machine(4), &a, part.as_ref(), kind).unwrap();
                    assert_eq!(
                        run.reassemble(part.as_ref()),
                        a,
                        "{scheme} {kind} {}",
                        part.name()
                    );
                    assert_eq!(run.total_nnz(), 16);
                }
            }
        }
    }

    #[test]
    fn schemes_produce_identical_local_state() {
        // The final compressed local arrays must be bit-identical across
        // schemes: the ordering of phases must not change the result.
        let a = paper_array_a();
        for part in all_partitions(10, 8) {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                let sfc =
                    run_scheme(SchemeKind::Sfc, &machine(4), &a, part.as_ref(), kind).unwrap();
                let cfs =
                    run_scheme(SchemeKind::Cfs, &machine(4), &a, part.as_ref(), kind).unwrap();
                let ed = run_scheme(SchemeKind::Ed, &machine(4), &a, part.as_ref(), kind).unwrap();
                assert_eq!(sfc.locals, cfs.locals, "{kind} {}", part.name());
                assert_eq!(cfs.locals, ed.locals, "{kind} {}", part.name());
            }
        }
    }

    #[test]
    fn distribution_time_ordering_matches_remark1_and_2() {
        // Remark 1: ED's distribution time beats CFS's and SFC's.
        // Remark 2: CFS's beats SFC's for s = 0.1 < 0.25 at T_Data/T_Op
        // = 1.2. The remarks drop O(n) terms, so use an array big enough
        // for the asymptotics (the 10×8 example is startup-dominated).
        let mut a = Dense2D::zeros(80, 80);
        for i in 0..640 {
            // A scattered pattern with exactly 640 nonzeros: s = 0.1.
            a.set((i * 7) % 80, (i * 13 + i / 80) % 80, 1.0 + i as f64);
        }
        assert_eq!(a.nnz(), 640);
        let part = RowBlock::new(80, 80, 4);
        let sfc = run_scheme(SchemeKind::Sfc, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        let cfs = run_scheme(SchemeKind::Cfs, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        let ed = run_scheme(SchemeKind::Ed, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        assert!(ed.t_distribution() < cfs.t_distribution());
        assert!(cfs.t_distribution() < sfc.t_distribution());
    }

    #[test]
    fn compression_time_ordering_matches_remark3() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let sfc = run_scheme(SchemeKind::Sfc, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        let cfs = run_scheme(SchemeKind::Cfs, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        let ed = run_scheme(SchemeKind::Ed, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        assert!(sfc.t_compression() < cfs.t_compression());
        assert!(cfs.t_compression() < ed.t_compression());
    }

    #[test]
    fn ed_beats_cfs_overall_matches_remark4() {
        let a = paper_array_a();
        for part in all_partitions(10, 8) {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                let cfs =
                    run_scheme(SchemeKind::Cfs, &machine(4), &a, part.as_ref(), kind).unwrap();
                let ed = run_scheme(SchemeKind::Ed, &machine(4), &a, part.as_ref(), kind).unwrap();
                assert!(
                    ed.t_total() < cfs.t_total(),
                    "{kind} {}: ED {} !< CFS {}",
                    part.name(),
                    ed.t_total(),
                    cfs.t_total()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "parts but the machine")]
    fn mismatched_processor_count_panics() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 2);
        let _ = run_scheme(SchemeKind::Sfc, &machine(4), &a, &part, CompressKind::Crs);
    }

    #[test]
    #[should_panic(expected = "does not match the array")]
    fn mismatched_shape_panics() {
        let a = paper_array_a();
        let part = RowBlock::new(12, 8, 4);
        let _ = run_scheme(SchemeKind::Sfc, &machine(4), &a, &part, CompressKind::Crs);
    }

    #[test]
    fn virtual_runs_are_deterministic() {
        let a = paper_array_a();
        let part = Mesh2D::new(10, 8, 2, 2);
        let r1 = run_scheme(SchemeKind::Ed, &machine(4), &a, &part, CompressKind::Ccs).unwrap();
        let r2 = run_scheme(SchemeKind::Ed, &machine(4), &a, &part, CompressKind::Ccs).unwrap();
        assert_eq!(r1.ledgers, r2.ledgers);
        assert_eq!(r1.locals, r2.locals);
    }

    #[test]
    fn every_config_yields_identical_state_and_phase_totals() {
        // The SchemeConfig wire knobs tune *how* the bytes are laid out,
        // never *what* is distributed or what the paper's clock charges.
        // Compare v3 against the default on every scheme × partition ×
        // kind: identical locals and identical busy phase totals.
        let a = paper_array_a();
        let configs = [CodecChoice::Packed, CodecChoice::Delta].map(|codec| SchemeConfig {
            wire: WireFormat::V3,
            codec,
            ..SchemeConfig::default()
        });
        let busy_phases = [
            Phase::Pack,
            Phase::Send,
            Phase::Unpack,
            Phase::Compress,
            Phase::Encode,
            Phase::Decode,
        ];
        for part in all_partitions(10, 8) {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                for scheme in SchemeKind::ALL {
                    let base = run_scheme(scheme, &machine(4), &a, part.as_ref(), kind).unwrap();
                    for config in configs {
                        let run =
                            run_scheme_with(scheme, &machine(4), &a, part.as_ref(), kind, config)
                                .unwrap();
                        let tag = format!("{scheme} {kind} {} {config:?}", part.name());
                        assert_eq!(run.locals, base.locals, "{tag}");
                        for (l, b) in run.ledgers.iter().zip(&base.ledgers) {
                            for ph in busy_phases {
                                assert_eq!(l.get(ph), b.get(ph), "{tag} {ph:?}");
                            }
                            // Same logical elements on the wire under every
                            // config — T_Data cannot tell the formats apart.
                            assert_eq!(l.wire().elements, b.wire().elements, "{tag} wire elements");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn v3_wire_sends_fewer_bytes_for_compressed_schemes() {
        // The v3 saving on a sparse payload: CFS and ED index streams
        // bit-pack, so the source transmits strictly fewer bytes for the
        // same logical elements.
        let mut a = Dense2D::zeros(80, 80);
        for i in 0..640 {
            a.set((i * 7) % 80, (i * 13 + i / 80) % 80, 1.0 + i as f64);
        }
        let part = RowBlock::new(80, 80, 4);
        for scheme in [SchemeKind::Cfs, SchemeKind::Ed] {
            let v1 = run_scheme(scheme, &machine(4), &a, &part, CompressKind::Crs).unwrap();
            let v3 = run_scheme_with(
                scheme,
                &machine(4),
                &a,
                &part,
                CompressKind::Crs,
                SchemeConfig {
                    wire: WireFormat::V3,
                    ..SchemeConfig::default()
                },
            )
            .unwrap();
            let (b1, b3) = (v1.ledgers[0].wire().bytes, v3.ledgers[0].wire().bytes);
            assert!(
                (b3 as f64) < 0.7 * b1 as f64,
                "{scheme}: v3 {b3} bytes !< 70% of v1 {b1} bytes"
            );
            assert_eq!(v1.ledgers[0].wire().elements, v3.ledgers[0].wire().elements);
            assert_eq!(v1.t_distribution(), v3.t_distribution(), "{scheme}");
        }
    }

    #[test]
    fn assign_owners_is_identity_when_all_alive() {
        let part = RowBlock::new(10, 8, 4);
        assert_eq!(assign_owners(&part, &[0, 1, 2, 3]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn assign_owners_moves_dead_parts_to_least_loaded_survivors() {
        let part = RowBlock::new(10, 8, 4);
        // Rank 2 dead: its part must land on some survivor.
        let owners = assign_owners(&part, &[0, 1, 3]);
        assert_eq!(owners[0], 0);
        assert_eq!(owners[1], 1);
        assert_eq!(owners[3], 3);
        assert!([0, 1, 3].contains(&owners[2]), "owners = {owners:?}");
        // Determinism: same inputs, same placement.
        assert_eq!(owners, assign_owners(&part, &[0, 1, 3]));
    }

    /// The placement loop before it moved onto a heap: a linear scan of a
    /// `BTreeMap` for the least-loaded survivor per orphan. Kept as the
    /// reference `assign_owners` must reproduce exactly.
    fn assign_owners_by_scan(part: &dyn Partition, alive: &[usize]) -> Vec<usize> {
        use std::collections::{BTreeMap, BTreeSet};
        let nparts = part.nparts();
        let alive_set: BTreeSet<usize> = alive.iter().copied().collect();
        let cells = |pid: usize| {
            let (r, c) = part.local_shape(pid);
            r * c
        };
        let mut owners = vec![usize::MAX; nparts];
        let mut load: BTreeMap<usize, usize> = alive.iter().map(|&r| (r, 0)).collect();
        let mut orphans = Vec::new();
        for (pid, owner) in owners.iter_mut().enumerate() {
            if alive_set.contains(&pid) {
                *owner = pid;
                *load.get_mut(&pid).unwrap() += cells(pid);
            } else {
                orphans.push(pid);
            }
        }
        orphans.sort_by_key(|&pid| Reverse(cells(pid)));
        for pid in orphans {
            let (&best, _) = load.iter().min_by_key(|&(&r, &l)| (l, r)).unwrap();
            owners[pid] = best;
            *load.get_mut(&best).unwrap() += cells(pid);
        }
        owners
    }

    /// Seeded alive sets over `p` ranks: every rank alive, then random dead
    /// sets of growing density, each leaving at least one rank alive.
    fn seeded_alive_sets(p: usize, seed: u64) -> Vec<Vec<usize>> {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sets = vec![(0..p).collect::<Vec<_>>()];
        for density in [0.01, 0.1, 0.5, 0.9] {
            let mut alive: Vec<usize> = (0..p).filter(|_| rng.random::<f64>() >= density).collect();
            if alive.is_empty() {
                alive.push(rng.random_range(0..p));
            }
            sets.push(alive);
        }
        sets
    }

    #[test]
    fn heap_placement_matches_the_linear_scan() {
        // Uneven part sizes (rows not a multiple of p) so loads tie and
        // differ both; the heap must pick the same (load, rank) minimum.
        for (p, seed) in [(1, 1), (2, 2), (3, 3), (7, 4), (64, 5), (100, 6), (512, 7)] {
            let part = RowBlock::new(3 * p + p / 3 + 1, 5, p);
            for alive in seeded_alive_sets(p, seed) {
                assert_eq!(
                    assign_owners(&part, &alive),
                    assign_owners_by_scan(&part, &alive),
                    "p={p} alive={alive:?}"
                );
            }
        }
    }

    #[test]
    fn owner_index_equals_the_filter_definition() {
        let check = |owners: Vec<usize>, p: usize| {
            let index = OwnerIndex::new(owners.clone(), p);
            assert_eq!(index.owners(), &owners[..]);
            for rank in 0..p {
                let scanned: Vec<usize> = (0..owners.len())
                    .filter(|&pid| owners[pid] == rank)
                    .collect();
                assert_eq!(index.of(rank), &scanned[..], "rank {rank} of {owners:?}");
            }
            assert_eq!(index.into_owners(), owners);
        };
        for p in [1, 2, 5, 64, 512] {
            check((0..p).collect(), p);
        }
        for (p, seed) in [(2, 11), (9, 12), (64, 13), (333, 14), (512, 15)] {
            let part = RowBlock::new(2 * p + 1, 4, p);
            for alive in seeded_alive_sets(p, seed) {
                check(assign_owners(&part, &alive), p);
            }
        }
    }

    #[test]
    fn dead_rank_degrades_gracefully_for_all_schemes() {
        use sparsedist_multicomputer::FaultPlan;
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let m = machine(4).with_faults(FaultPlan::new(7).with_dead_rank(2));
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            for scheme in SchemeKind::ALL {
                let run = run_scheme(scheme, &m, &a, &part, kind)
                    .unwrap_or_else(|e| panic!("{scheme} {kind}: {e}"));
                // Part 2 was re-homed to a survivor, and no data was lost.
                assert_ne!(run.owners[2], 2, "{scheme} {kind}");
                assert_eq!(run.reassemble(&part), a, "{scheme} {kind}");
                assert_eq!(run.total_nnz(), 16);
            }
        }
    }

    #[test]
    fn dead_source_reports_source_dead() {
        use sparsedist_multicomputer::FaultPlan;
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let m = machine(4).with_faults(FaultPlan::new(7).with_dead_rank(0));
        let err = run_scheme(SchemeKind::Ed, &m, &a, &part, CompressKind::Crs);
        assert_eq!(
            err.unwrap_err(),
            crate::error::SparsedistError::SourceDead { rank: 0 }
        );
    }

    #[test]
    fn single_processor_degenerate_case() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 1);
        let m = machine(1);
        for scheme in SchemeKind::ALL {
            let run = run_scheme(scheme, &m, &a, &part, CompressKind::Crs).unwrap();
            assert_eq!(run.reassemble(&part), a);
        }
    }
}
