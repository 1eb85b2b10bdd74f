//! Byte-pinned ledgers and results of the post-distribution rank
//! programs: gather, redistribute, the halo-exchange SpMV, the
//! distributed transpose and the Frobenius norm.
//!
//! Each program runs once on a clean machine and once under a seeded
//! drop/corrupt fault plan. The golden files record every per-rank
//! [`PhaseLedger`] (virtual phase totals, wire and fault stats) plus the
//! result, or the typed error, with `Debug` formatting, which prints
//! `f64` values exactly. Any change to a message, a charge or a fault
//! fate shows up as a diff. The fixtures live in
//! `tests/goldens/ledgers_*.txt`; regenerate them after an intentional
//! cost-model change with `UPDATE_GOLDENS=1 cargo test --test
//! ledger_goldens` and review the diff.

use sparsedist::core::gather::{gather_global, GatherStrategy};
use sparsedist::core::redistribute::{redistribute, RedistStrategy};
use sparsedist::gen::SparseRandom;
use sparsedist::multicomputer::pack::crc32;
use sparsedist::multicomputer::{
    chrome_trace_json, FaultPlan, MemorySink, PhaseLedger, RetryPolicy,
};
use sparsedist::ops::distributed::{distributed_frobenius, distributed_transpose};
use sparsedist::ops::spmv::distributed_spmv_ledgers;
use sparsedist::prelude::*;
use std::fmt::Debug;
use std::fmt::Write as _;
use std::sync::Arc;

const N: usize = 24;
const P: usize = 4;

fn array() -> Dense2D {
    SparseRandom::new(N, N)
        .sparse_ratio(0.2)
        .seed(0x1ED6E)
        .generate()
}

fn x() -> Vec<f64> {
    (0..N).map(|i| 1.0 + i as f64 * 0.25).collect()
}

/// The two machines every program runs on: clean, and a drop/corrupt
/// plan with a retry budget it rides out.
fn machines() -> [(&'static str, Multicomputer); 2] {
    let model = MachineModel::ibm_sp2();
    let plan = FaultPlan::new(0x5EED).with_drop(0.15).with_corrupt(0.1);
    [
        ("clean", Multicomputer::virtual_machine(P, model)),
        (
            "faulty",
            Multicomputer::virtual_machine(P, model)
                .with_faults(plan)
                .with_retry_policy(RetryPolicy::with_retries(10)),
        ),
    ]
}

/// Locals of a clean ED distribution of the fixture array.
fn distribute(part: &dyn Partition, kind: CompressKind) -> SchemeRun {
    let machine = Multicomputer::virtual_machine(P, MachineModel::ibm_sp2());
    run_scheme(SchemeKind::Ed, &machine, &array(), part, kind).unwrap()
}

fn section<R: Debug, E: Debug>(
    out: &mut String,
    title: &str,
    outcome: Result<(R, &[PhaseLedger]), E>,
) {
    writeln!(out, "== {title}").unwrap();
    match outcome {
        Ok((result, ledgers)) => {
            writeln!(out, "result: {result:?}").unwrap();
            for (rank, l) in ledgers.iter().enumerate() {
                writeln!(out, "ledger[{rank}]: {l:?}").unwrap();
            }
        }
        Err(e) => writeln!(out, "error: {e:?}").unwrap(),
    }
}

fn check_golden(name: &str, text: &str) {
    let path = format!(
        "{}/tests/goldens/ledgers_{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, text).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}; run with UPDATE_GOLDENS=1 to create it"));
    assert!(golden.contains("result:"), "{name}: golden pins no result");
    assert_eq!(
        text, golden,
        "{name} ledgers drifted from their golden; if the change is \
         intentional rerun with UPDATE_GOLDENS=1 and review the diff"
    );
}

#[test]
fn gather_ledgers_match_goldens() {
    let rows = RowBlock::new(N, N, P);
    let mesh = Mesh2D::new(N, N, 2, 2);
    let cases: [(&dyn Partition, CompressKind, GatherStrategy); 4] = [
        (&rows, CompressKind::Crs, GatherStrategy::Dense),
        (&rows, CompressKind::Crs, GatherStrategy::Compressed),
        (&rows, CompressKind::Crs, GatherStrategy::Encoded),
        (&mesh, CompressKind::Ccs, GatherStrategy::Encoded),
    ];
    let mut out = String::new();
    for (label, machine) in machines() {
        for &(part, kind, strategy) in &cases {
            let run = distribute(part, kind);
            let g = gather_global(&machine, &run.locals, part, kind, strategy);
            let title = format!("{label} {} {kind} {strategy:?}", part.name());
            section(
                &mut out,
                &title,
                g.as_ref().map(|g| (&g.global, &g.ledgers[..])),
            );
        }
    }
    check_golden("gather", &out);
}

#[test]
fn redistribute_ledgers_match_goldens() {
    let rows = RowBlock::new(N, N, P);
    let mesh = Mesh2D::new(N, N, 2, 2);
    let cyclic = ColCyclic::new(N, N, P);
    let mut out = String::new();
    for (label, machine) in machines() {
        for (to, kind) in [
            (&mesh as &dyn Partition, CompressKind::Crs),
            (&cyclic, CompressKind::Ccs),
        ] {
            let owned = distribute(&rows, kind).locals;
            for strategy in [RedistStrategy::Direct, RedistStrategy::ViaSource] {
                let r = redistribute(&machine, &owned, &rows, to, kind, strategy);
                let title = format!("{label} {}->{} {kind} {strategy:?}", rows.name(), to.name());
                section(
                    &mut out,
                    &title,
                    r.as_ref().map(|r| (&r.locals, &r.ledgers[..])),
                );
            }
        }
    }
    check_golden("redistribute", &out);
}

/// The halo SpMV without a fold (row/CRS, row-cyclic/CCS) and with one
/// (column-cyclic/CCS, mesh 2×2/CRS). The `row crs` results equal the
/// retired reduce/broadcast SpMV's golden byte for byte.
#[test]
fn spmv_halo_ledgers_match_goldens() {
    let rows = RowBlock::new(N, N, P);
    let row_cyclic = RowCyclic::new(N, N, P);
    let col_cyclic = ColCyclic::new(N, N, P);
    let mesh = Mesh2D::new(N, N, 2, 2);
    let mut out = String::new();
    for (label, machine) in machines() {
        for (part, kind) in [
            (&rows as &dyn Partition, CompressKind::Crs),
            (&row_cyclic, CompressKind::Ccs),
            (&col_cyclic, CompressKind::Ccs),
            (&mesh, CompressKind::Crs),
        ] {
            let run = distribute(part, kind);
            let y = distributed_spmv_ledgers(&machine, &run, part, &x());
            let title = format!("{label} {} {kind}", part.name());
            section(&mut out, &title, y.as_ref().map(|(y, l)| (y, &l[..])));
        }
    }
    check_golden("spmv_halo", &out);
}

#[test]
fn transpose_ledgers_match_goldens() {
    let rows = RowBlock::new(N, N, P);
    let cols = ColBlock::new(N, N, P);
    let mesh = Mesh2D::new(N, N, 2, 2);
    let mut out = String::new();
    for (label, machine) in machines() {
        for (to, kind) in [
            (&cols as &dyn Partition, CompressKind::Crs),
            (&mesh, CompressKind::Ccs),
        ] {
            let run = distribute(&rows, kind);
            let t = distributed_transpose(&machine, &run.locals, &rows, to, kind);
            let title = format!("{label} {}->{} {kind}", rows.name(), to.name());
            section(&mut out, &title, t.as_ref().map(|(l, led)| (l, &led[..])));
        }
    }
    check_golden("transpose", &out);
}

#[test]
fn frobenius_results_match_goldens() {
    // The norm returns no ledgers: pin the value (or error) per machine.
    let rows = RowBlock::new(N, N, P);
    let run = distribute(&rows, CompressKind::Crs);
    let mut out = String::new();
    for (label, machine) in machines() {
        let f = distributed_frobenius(&machine, &run.locals);
        section(
            &mut out,
            &format!("{label} {}", rows.name()),
            f.as_ref().map(|f| (f, &[][..])),
        );
    }
    check_golden("frobenius", &out);
}

/// An overlapped ED run in which rank 3 dies mid-stream. The source
/// detects the death on a nonblocking post and replays the part with a
/// blocking send while its earlier posts are still on the NIC. That
/// send charges the CPU clock and does not queue behind the NIC.
#[test]
fn routed_overlap_ledgers_match_goldens() {
    let rows = RowBlock::new(N, N, P);
    let plan = FaultPlan::new(0x5EED).with_death_at(3, 200.0);
    let machine = Multicomputer::virtual_machine(P, MachineModel::ibm_sp2()).with_faults(plan);
    let config = SchemeConfig {
        overlap: true,
        ..SchemeConfig::default()
    };
    let r = run_scheme_with(
        SchemeKind::Ed,
        &machine,
        &array(),
        &rows,
        CompressKind::Crs,
        config,
    );
    let mut out = String::new();
    section(
        &mut out,
        "overlap ED die=3:200",
        r.as_ref().map(|r| (&r.owners, &r.ledgers[..])),
    );
    check_golden("routed_overlap", &out);
}

/// The scheme-driver paths that no other golden pins byte for byte:
/// SFC and CFS (row/CRS, plus column/CCS for CFS) under overlap,
/// chunking, a mid-stream death of rank 3 at 200 µs, and that death
/// combined with overlap or chunking, plus chunked ED. Each case records
/// the final owner map, every ledger, and the length and CRC32 of the
/// run's Chrome-trace JSON.
#[test]
fn pipeline_path_ledgers_match_goldens() {
    let rows = RowBlock::new(N, N, P);
    let cols = ColBlock::new(N, N, P);
    let plain = SchemeConfig::default();
    let overlap = SchemeConfig {
        overlap: true,
        ..plain
    };
    let chunked = SchemeConfig {
        chunk_elems: 16,
        ..plain
    };
    let configs = [
        ("overlap", false, overlap),
        ("chunk=16", false, chunked),
        ("die=3:200", true, plain),
        ("die=3:200 overlap", true, overlap),
        ("die=3:200 chunk=16", true, chunked),
    ];
    let mut cases: Vec<(
        SchemeKind,
        &dyn Partition,
        CompressKind,
        &str,
        bool,
        SchemeConfig,
    )> = Vec::new();
    for (scheme, part, kind) in [
        (SchemeKind::Sfc, &rows as &dyn Partition, CompressKind::Crs),
        (SchemeKind::Cfs, &rows, CompressKind::Crs),
        (SchemeKind::Cfs, &cols, CompressKind::Ccs),
    ] {
        for &(label, die, config) in &configs {
            cases.push((scheme, part, kind, label, die, config));
        }
    }
    cases.push((
        SchemeKind::Ed,
        &rows,
        CompressKind::Crs,
        "chunk=16",
        false,
        chunked,
    ));

    let mut out = String::new();
    for (scheme, part, kind, label, die, config) in cases {
        let mut machine = Multicomputer::virtual_machine(P, MachineModel::ibm_sp2());
        if die {
            machine = machine.with_faults(FaultPlan::new(0x5EED).with_death_at(3, 200.0));
        }
        let sink = Arc::new(MemorySink::new());
        let machine = machine.with_trace_sink(sink.clone());
        let r = run_scheme_with(scheme, &machine, &array(), part, kind, config);
        let title = format!("{scheme} {} {kind} {label}", part.name());
        section(
            &mut out,
            &title,
            r.as_ref().map(|r| (&r.owners, &r.ledgers[..])),
        );
        let json = chrome_trace_json(&sink.take());
        writeln!(
            out,
            "trace: {} bytes, crc32 {:08x}",
            json.len(),
            crc32(json.as_bytes())
        )
        .unwrap();
    }
    check_golden("pipeline_paths", &out);
}
