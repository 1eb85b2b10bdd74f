//! Oracle for the dense part scans.
//!
//! Every library routine that scans a part of the global dense array —
//! CFS's source-side `from_part_global`, ED's `encode_part_into`,
//! `extract_dense`, SFC's gather, the receivers' `from_dense` and
//! `SchemeRun::reassemble` — is compared here against a
//! per-cell reference that maps every local cell through
//! `Partition::to_global` and charges one op per scanned cell plus three
//! per nonzero. Outputs, wire bytes and per-part op counts must agree
//! exactly, for every partition × CRS/CCS × random shape (including more
//! parts than rows, and empty parts).

use proptest::prelude::*;
use sparsedist::core::compress::CompressKind;
use sparsedist::core::encode::encode_part_into;
use sparsedist::core::opcount::OpCounter;
use sparsedist::core::partition::BalancedRows;
use sparsedist::core::wire::codec_for;
use sparsedist::multicomputer::{MemorySink, PackBuffer, RankTrace};
use sparsedist::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A seeded `rows × cols` array whose cells are nonzero with probability
/// `density`, with one row left entirely empty and one (unless it is the
/// same row) filled entirely.
fn seeded_dense(rows: usize, cols: usize, seed: u64, density: f64) -> Dense2D {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let empty_row = next() as usize % rows;
    let full_row = next() as usize % rows;
    let data = (0..rows * cols)
        .map(|i| {
            let x = next();
            let r = i / cols;
            if r == empty_row || (r != full_row && (x % 1024) as f64 >= density * 1024.0) {
                0.0
            } else {
                (x % 97) as f64 - 48.5
            }
        })
        .collect();
    Dense2D::from_vec(rows, cols, data)
}

/// An input's `(rows, cols, density)`: the narrow regime, where every scan
/// segment is shorter than one 64-cell chunk, or the wide one, where
/// segments span one to three chunks at densities from empty to full.
fn input(narrow: usize) -> impl Strategy<Value = (usize, usize, f64)> {
    prop_oneof![
        (1..narrow, 1..narrow, Just(0.25)),
        (
            1usize..140,
            1usize..140,
            prop_oneof![Just(0.02), Just(0.25), Just(1.0), 0.0..1.0],
        ),
    ]
}

/// Every partition family over `a`, with `p` as the part-count knob.
fn partitions(a: &Dense2D, p: usize) -> Vec<Box<dyn Partition>> {
    let (rows, cols) = (a.rows(), a.cols());
    vec![
        Box::new(RowBlock::new(rows, cols, p)),
        Box::new(ColBlock::new(rows, cols, p)),
        Box::new(Mesh2D::new(rows, cols, p, 2)),
        Box::new(RowCyclic::new(rows, cols, p)),
        Box::new(ColCyclic::new(rows, cols, p)),
        Box::new(BlockCyclic::new(rows, cols, 2, 3, p, 2)),
        Box::new(BalancedRows::contiguous(a, p)),
        Box::new(BalancedRows::bin_packed(a, p)),
    ]
}

/// Compressed streams of one scan: `(pointer, travelling indices, values)`.
type Streams = (Vec<usize>, Vec<usize>, Vec<f64>);

/// The per-cell reference scan over a `shape` whose local cells map to
/// global cells through `to_global`: the streams walked in `kind`'s
/// outer-major order (travelling indices are global), plus the ops — one
/// per scanned cell, three per nonzero.
fn ref_scan_cells(
    a: &Dense2D,
    (lrows, lcols): (usize, usize),
    to_global: &dyn Fn(usize, usize) -> (usize, usize),
    kind: CompressKind,
) -> (Streams, u64) {
    let (outer, inner) = match kind {
        CompressKind::Crs => (lrows, lcols),
        CompressKind::Ccs => (lcols, lrows),
    };
    let (mut pointer, mut indices, mut values, mut ops) = (vec![0], Vec::new(), Vec::new(), 0);
    for o in 0..outer {
        for i in 0..inner {
            let (lr, lc) = match kind {
                CompressKind::Crs => (o, i),
                CompressKind::Ccs => (i, o),
            };
            let (gr, gc) = to_global(lr, lc);
            ops += 1;
            let v = a.get(gr, gc);
            if v != 0.0 {
                indices.push(match kind {
                    CompressKind::Crs => gc,
                    CompressKind::Ccs => gr,
                });
                values.push(v);
                ops += 3;
            }
        }
        pointer.push(indices.len());
    }
    ((pointer, indices, values), ops)
}

/// [`ref_scan_cells`] over part `pid` of `part`.
fn ref_scan(a: &Dense2D, part: &dyn Partition, pid: usize, kind: CompressKind) -> (Streams, u64) {
    let to_global = |lr, lc| part.to_global(pid, lr, lc);
    ref_scan_cells(a, part.local_shape(pid), &to_global, kind)
}

/// Assemble streams into a compressed array whose travelling indices are
/// bounded by `rows` (CCS) or `cols` (CRS).
fn assemble(
    rows: usize,
    cols: usize,
    kind: CompressKind,
    (ptr, idx, val): Streams,
) -> LocalCompressed {
    match kind {
        CompressKind::Crs => {
            LocalCompressed::Crs(Crs::from_raw(rows, cols, ptr, idx, val).unwrap())
        }
        CompressKind::Ccs => {
            LocalCompressed::Ccs(Ccs::from_raw(rows, cols, ptr, idx, val).unwrap())
        }
    }
}

/// Per-cell reference of `extract_dense`.
fn ref_extract(a: &Dense2D, part: &dyn Partition, pid: usize) -> Dense2D {
    let (lrows, lcols) = part.local_shape(pid);
    let mut out = Dense2D::zeros(lrows, lcols);
    for lr in 0..lrows {
        for lc in 0..lcols {
            let (gr, gc) = part.to_global(pid, lr, lc);
            out.set(lr, lc, a.get(gr, gc));
        }
    }
    out
}

/// Per-cell reference of a receiver's local compressed array (local
/// indices).
fn ref_local(a: &Dense2D, part: &dyn Partition, pid: usize, kind: CompressKind) -> LocalCompressed {
    let local = ref_extract(a, part, pid);
    let shape = (local.rows(), local.cols());
    let (streams, _) = ref_scan_cells(&local, shape, &|r, c| (r, c), kind);
    assemble(shape.0, shape.1, kind, streams)
}

/// Per-cell reference of `SchemeRun::reassemble`.
fn ref_reassemble(locals: &[LocalCompressed], part: &dyn Partition) -> Dense2D {
    let (grows, gcols) = part.global_shape();
    let mut out = Dense2D::zeros(grows, gcols);
    for (pid, local) in locals.iter().enumerate() {
        let dense = local.to_dense();
        for lr in 0..dense.rows() {
            for lc in 0..dense.cols() {
                let v = dense.get(lr, lc);
                if v != 0.0 {
                    let (gr, gc) = part.to_global(pid, lr, lc);
                    out.set(gr, gc, v);
                }
            }
        }
    }
    out
}

/// Reference wire bytes of ED part `pid` under `format`: the per-cell
/// streams handed to the codec exactly as the encoder does.
fn ref_encode(
    a: &Dense2D,
    part: &dyn Partition,
    pid: usize,
    kind: CompressKind,
    format: WireFormat,
) -> PackBuffer {
    let ((pointer, indices, values), _) = ref_scan(a, part, pid, kind);
    let codec = codec_for(format);
    let desc = codec.plan(WirePolicy::of(format).choice);
    let mut buf = PackBuffer::new();
    codec.begin_message(&mut buf, desc);
    codec.encode_pairs(&mut buf, &pointer, &indices, &values, desc);
    buf
}

/// Per-part ops traced on `rank` under `phase`, zero entries omitted (the
/// tracer emits no child span for a part that charged nothing).
fn traced_part_ops(traces: &[RankTrace], rank: usize, phase: Phase) -> BTreeMap<usize, u64> {
    let mut out = BTreeMap::new();
    for span in traces[rank].spans.iter().filter(|s| s.phase == phase) {
        if let Some(pid) = span.label.strip_prefix("part") {
            *out.entry(pid.parse::<usize>().unwrap()).or_insert(0) += span.ops;
        }
    }
    out
}

fn nonzero(expected: impl IntoIterator<Item = (usize, u64)>) -> BTreeMap<usize, u64> {
    expected.into_iter().filter(|&(_, n)| n > 0).collect()
}

fn traced_machine(p: usize) -> (Multicomputer, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let machine =
        Multicomputer::virtual_machine(p, MachineModel::ibm_sp2()).with_trace_sink(sink.clone());
    (machine, sink)
}

/// A partition that counts its `to_global` calls, to pin the scans to
/// O(lrows + lcols) map lookups per part.
#[derive(Debug)]
struct Counting<'a> {
    inner: &'a dyn Partition,
    calls: AtomicUsize,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn Partition) -> Self {
        Counting {
            inner,
            calls: AtomicUsize::new(0),
        }
    }

    fn take(&self) -> usize {
        self.calls.swap(0, Ordering::Relaxed)
    }
}

impl Partition for Counting<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn nparts(&self) -> usize {
        self.inner.nparts()
    }
    fn global_shape(&self) -> (usize, usize) {
        self.inner.global_shape()
    }
    fn local_shape(&self, part: usize) -> (usize, usize) {
        self.inner.local_shape(part)
    }
    fn owner_of(&self, r: usize, c: usize) -> usize {
        self.inner.owner_of(r, c)
    }
    fn to_local(&self, r: usize, c: usize) -> (usize, usize, usize) {
        self.inner.to_local(r, c)
    }
    fn to_global(&self, part: usize, lr: usize, lc: usize) -> (usize, usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.to_global(part, lr, lc)
    }
    fn splits_rows(&self) -> bool {
        self.inner.splits_rows()
    }
    fn splits_cols(&self) -> bool {
        self.inner.splits_cols()
    }
    fn row_to_local(&self, part: usize, gr: usize) -> usize {
        self.inner.row_to_local(part, gr)
    }
    fn col_to_local(&self, part: usize, gc: usize) -> usize {
        self.inner.col_to_local(part, gc)
    }
    fn row_contiguous(&self) -> bool {
        self.inner.row_contiguous()
    }
}

/// Every scan of one part calls `to_global` at most `lrows + lcols` times
/// when the partition derives its row and column maps from `to_global` (the
/// trait's defaults), and gives the same result as the partition's own
/// maps.
fn check_map_lookups(a: &Dense2D, part: &dyn Partition) {
    let counting = Counting::new(part);
    let name = part.name();
    for pid in 0..part.nparts() {
        let (lrows, lcols) = part.local_shape(pid);
        let bound = lrows + lcols;
        let got = counting.extract_dense(a, pid);
        assert!(counting.take() <= bound, "{name} extract part {pid}");
        assert_eq!(got, part.extract_dense(a, pid), "{name} extract part {pid}");
        let mut ops = OpCounter::new();
        let got = Crs::from_part_global(a, &counting, pid, &mut ops);
        assert!(counting.take() <= bound, "{name} CRS part {pid}");
        assert_eq!(got, Crs::from_part_global(a, part, pid, &mut ops));
        let got = Ccs::from_part_global(a, &counting, pid, &mut ops);
        assert!(counting.take() <= bound, "{name} CCS part {pid}");
        assert_eq!(got, Ccs::from_part_global(a, part, pid, &mut ops));
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            let policy = WirePolicy::of(WireFormat::V1);
            let (mut got, mut want) = (PackBuffer::new(), PackBuffer::new());
            encode_part_into(&mut got, a, &counting, pid, kind, &policy, &mut ops);
            assert!(counting.take() <= bound, "{name} {kind} encode part {pid}");
            encode_part_into(&mut want, a, part, pid, kind, &policy, &mut ops);
            assert_eq!(got.as_bytes(), want.as_bytes(), "{name} {kind} part {pid}");
        }
    }
}

/// Scans that run without a machine: compression, encoding, extraction.
fn check_local_scans(a: &Dense2D, part: &dyn Partition) {
    let name = part.name();
    let (grows, gcols) = part.global_shape();
    for pid in 0..part.nparts() {
        let (lrows, lcols) = part.local_shape(pid);
        // Separability: every partition maps rows and columns independently.
        for lr in 0..lrows {
            for lc in 0..lcols {
                assert_eq!(
                    part.to_global(pid, lr, lc),
                    (part.to_global(pid, lr, 0).0, part.to_global(pid, 0, lc).1),
                    "{name} part {pid} is not separable at ({lr},{lc})"
                );
            }
        }
        assert_eq!(
            part.extract_dense(a, pid),
            ref_extract(a, part, pid),
            "{name} extract part {pid}"
        );

        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            let (streams, want_ops) = ref_scan(a, part, pid, kind);
            let mut ops = OpCounter::new();
            let (got, want) = match kind {
                CompressKind::Crs => (
                    LocalCompressed::Crs(Crs::from_part_global(a, part, pid, &mut ops)),
                    assemble(lrows, gcols, kind, streams),
                ),
                CompressKind::Ccs => (
                    LocalCompressed::Ccs(Ccs::from_part_global(a, part, pid, &mut ops)),
                    assemble(grows, lcols, kind, streams),
                ),
            };
            assert_eq!(got, want, "{name} {kind} part {pid}");
            assert_eq!(ops.get(), want_ops, "{name} {kind} ops part {pid}");

            for format in [WireFormat::V1, WireFormat::V3] {
                let mut buf = PackBuffer::new();
                let mut ops = OpCounter::new();
                encode_part_into(
                    &mut buf,
                    a,
                    part,
                    pid,
                    kind,
                    &WirePolicy::of(format),
                    &mut ops,
                );
                let want = ref_encode(a, part, pid, kind, format);
                assert_eq!(
                    buf.as_bytes(),
                    want.as_bytes(),
                    "{name} {kind} {format:?} bytes part {pid}"
                );
                assert_eq!(
                    buf.elem_count(),
                    want.elem_count(),
                    "{name} {kind} {format:?} elems part {pid}"
                );
                assert_eq!(
                    ops.get(),
                    want_ops,
                    "{name} {kind} {format:?} ops part {pid}"
                );
            }
        }
    }
}

/// Scans inside the scheme drivers: per-part source ops from the trace,
/// every receiver's local array, and the reassembled global array.
fn check_schemes(a: &Dense2D, part: &dyn Partition) {
    let name = part.name();
    let p = part.nparts();
    for kind in [CompressKind::Crs, CompressKind::Ccs] {
        let want_locals: Vec<LocalCompressed> =
            (0..p).map(|pid| ref_local(a, part, pid, kind)).collect();
        let scan_ops: Vec<(usize, u64)> = (0..p)
            .map(|pid| (pid, ref_scan(a, part, pid, kind).1))
            .collect();
        for (scheme, phase) in [
            (SchemeKind::Sfc, Phase::Pack),
            (SchemeKind::Cfs, Phase::Compress),
            (SchemeKind::Ed, Phase::Encode),
        ] {
            let (machine, sink) = traced_machine(p);
            let run = run_scheme(scheme, &machine, a, part, kind).unwrap();
            let traces = sink.take();
            let want_src = match scheme {
                SchemeKind::Sfc => nonzero((0..p).map(|pid| {
                    let (lrows, lcols) = part.local_shape(pid);
                    let gather = if part.row_contiguous() {
                        0
                    } else {
                        lrows * lcols
                    };
                    (pid, gather as u64)
                })),
                _ => nonzero(scan_ops.iter().copied()),
            };
            assert_eq!(
                traced_part_ops(&traces, 0, phase),
                want_src,
                "{name} {scheme} {kind} source ops"
            );
            if scheme == SchemeKind::Sfc {
                // Each receiver compresses its own dense block.
                for (pid, &(_, n)) in scan_ops.iter().enumerate() {
                    assert_eq!(
                        traced_part_ops(&traces, pid, Phase::Compress),
                        nonzero([(pid, n)]),
                        "{name} SFC {kind} receiver {pid} compress ops"
                    );
                }
            }
            assert_eq!(run.locals, want_locals, "{name} {scheme} {kind} locals");
            let counting = Counting::new(part);
            let back = run.reassemble(&counting);
            let lookups: usize = (0..p)
                .map(|pid| part.local_shape(pid))
                .map(|(lrows, lcols)| lrows + lcols)
                .sum();
            assert!(
                counting.take() <= lookups,
                "{name} {scheme} {kind} reassemble lookups"
            );
            assert_eq!(
                back,
                ref_reassemble(&run.locals, part),
                "{name} {scheme} {kind} reassemble"
            );
            assert_eq!(&back, a, "{name} {scheme} {kind} round trip");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn from_dense_matches_the_whole_array_scan(
        (rows, cols, density) in input(20),
        seed in 0u64..1_000_000,
    ) {
        let a = seeded_dense(rows, cols, seed, density);
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            let (streams, want_ops) = ref_scan_cells(&a, (rows, cols), &|r, c| (r, c), kind);
            let mut ops = OpCounter::new();
            let got = match kind {
                CompressKind::Crs => LocalCompressed::Crs(Crs::from_dense(&a, &mut ops)),
                CompressKind::Ccs => LocalCompressed::Ccs(Ccs::from_dense(&a, &mut ops)),
            };
            prop_assert_eq!(got, assemble(rows, cols, kind, streams));
            prop_assert_eq!(ops.get(), want_ops);
        }
    }

    #[test]
    fn part_scans_match_the_per_cell_reference(
        (rows, cols, density) in input(14),
        p in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let a = seeded_dense(rows, cols, seed, density);
        for part in partitions(&a, p) {
            check_local_scans(&a, part.as_ref());
            check_map_lookups(&a, part.as_ref());
        }
    }

    #[test]
    fn scheme_scans_match_the_per_cell_reference(
        (rows, cols, density) in input(12),
        p in 1usize..7,
        seed in 0u64..1_000_000,
    ) {
        let a = seeded_dense(rows, cols, seed, density);
        for part in partitions(&a, p) {
            check_schemes(&a, part.as_ref());
        }
    }
}
