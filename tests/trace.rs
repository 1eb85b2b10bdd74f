//! Integration tests for the observability layer: golden Chrome-trace
//! exports and tracing-is-observational guarantees.
//!
//! The golden fixtures live in `tests/goldens/trace_*_n64_p4.json`.
//! Regenerate them after an intentional trace-schema change with
//! `UPDATE_GOLDENS=1 cargo test --test trace` and review the diff.

use sparsedist::gen::SparseRandom;
use sparsedist::multicomputer::{
    chrome_trace_json, FaultPlan, MemorySink, NullSink, RankTrace, RetryPolicy,
};
use sparsedist::prelude::*;
use std::sync::Arc;

/// One traced distribution of the fixture workload: uniform random 64×64 at
/// 10% density, seed 7, four row bands on the paper's IBM SP2 model.
fn traced_run(scheme: SchemeKind, config: SchemeConfig) -> (SchemeRun, Vec<RankTrace>) {
    let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    traced_run_on(machine, scheme, config)
}

fn traced_run_on(
    machine: Multicomputer,
    scheme: SchemeKind,
    config: SchemeConfig,
) -> (SchemeRun, Vec<RankTrace>) {
    let a = SparseRandom::new(64, 64)
        .sparse_ratio(0.1)
        .seed(7)
        .generate();
    let part = RowBlock::new(64, 64, 4);
    let sink = Arc::new(MemorySink::new());
    let machine = machine.with_trace_sink(sink.clone());
    let run = run_scheme_with(scheme, &machine, &a, &part, CompressKind::Crs, config).unwrap();
    (run, sink.take())
}

fn check_golden(name: &str, json: &str) {
    let path = format!(
        "{}/tests/goldens/trace_{name}_n64_p4.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, json).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}; run with UPDATE_GOLDENS=1 to create it"));
    assert_eq!(
        json, golden,
        "{name} trace drifted from its golden; if the change is \
         intentional rerun with UPDATE_GOLDENS=1 and review the diff"
    );
}

#[test]
fn chrome_trace_export_matches_goldens() {
    for (scheme, name) in [
        (SchemeKind::Sfc, "sfc"),
        (SchemeKind::Cfs, "cfs"),
        (SchemeKind::Ed, "ed"),
    ] {
        let (_, traces) = traced_run(scheme, SchemeConfig::default());
        check_golden(name, &chrome_trace_json(&traces));
    }
}

/// ED under a seeded drop/corrupt plan, blocking and overlapped: pins the
/// ARQ spans of both send lanes (`->d` and `timeout->d` on the CPU clock,
/// `->d (nb)` on the NIC) and the `wait_all` that rejoins the NIC.
#[test]
fn faulty_chrome_traces_match_goldens() {
    for (overlap, name, labels) in [
        (false, "ed_faulty", &["->1", "timeout->"][..]),
        (true, "ed_faulty_overlap", &[" (nb)", "wait_all"][..]),
    ] {
        let plan = FaultPlan::new(0x5EED).with_drop(0.3).with_corrupt(0.2);
        let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy::with_retries(10));
        let config = SchemeConfig {
            overlap,
            ..SchemeConfig::default()
        };
        let (run, traces) = traced_run_on(machine, SchemeKind::Ed, config);
        assert!(run.ledgers[0].faults().retries > 0, "{name}: no retries");
        let json = chrome_trace_json(&traces);
        for label in labels {
            assert!(json.contains(label), "{name}: no {label:?} span");
        }
        check_golden(name, &json);
    }
}

#[test]
fn goldens_are_nontrivial() {
    // Guard against an accidentally-empty fixture passing the byte
    // comparison: every golden must carry real spans from every rank.
    let (_, traces) = traced_run(SchemeKind::Ed, SchemeConfig::default());
    assert_eq!(traces.len(), 4);
    for t in &traces {
        assert!(!t.spans.is_empty(), "rank {} recorded no spans", t.rank);
        assert!(t.spans.iter().any(|s| s.scope == "ED"), "rank {}", t.rank);
    }
}

/// Tracing is observational: a traced run's virtual clocks, ledgers and
/// results are identical to an untraced run's, and the default
/// [`NullSink`] behaves exactly like no sink at all.
#[test]
fn tracing_never_perturbs_the_run() {
    for scheme in [SchemeKind::Sfc, SchemeKind::Cfs, SchemeKind::Ed] {
        let a = SparseRandom::new(64, 64)
            .sparse_ratio(0.1)
            .seed(7)
            .generate();
        let part = RowBlock::new(64, 64, 4);
        let model = MachineModel::ibm_sp2();

        let bare = Multicomputer::virtual_machine(4, model);
        let untraced = run_scheme(scheme, &bare, &a, &part, CompressKind::Crs).unwrap();

        let nulled = Multicomputer::virtual_machine(4, model).with_trace_sink(Arc::new(NullSink));
        let with_null = run_scheme(scheme, &nulled, &a, &part, CompressKind::Crs).unwrap();

        let (traced, _) = traced_run(scheme, SchemeConfig::default());

        assert_eq!(untraced.ledgers, with_null.ledgers, "{scheme}");
        assert_eq!(untraced.ledgers, traced.ledgers, "{scheme}");
        assert_eq!(untraced.locals, traced.locals, "{scheme}");
    }
}
