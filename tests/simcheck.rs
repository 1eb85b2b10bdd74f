//! Exhaustive schedule checking of whole scheme runs (`sparsedist
//! simcheck`'s engine, driven directly): every message-delivery
//! interleaving of a small machine must produce bit-identical ledgers,
//! locals and owners, and none may deadlock. The halo SpMV (also under
//! a seeded drop plan), the three gather strategies and both
//! redistribution strategies, run on a distributed ED state, are held to
//! the same standard.
//!
//! The static C rules (crates/lint) prove the syntactic half of the
//! communication-safety story; these tests prove the semantic half on
//! real configurations, including the hardest one — a routed pipeline
//! with a mid-stream rank death, where parts re-home while frames are
//! still in flight.

use sparsedist_core::compress::{CompressKind, Crs};
use sparsedist_core::dense::Dense2D;
use sparsedist_core::gather::{gather_global, GatherStrategy};
use sparsedist_core::opcount::OpCounter;
use sparsedist_core::partition::{ColBlock, Partition, RowBlock};
use sparsedist_core::redistribute::{redistribute, RedistStrategy};
use sparsedist_core::schemes::{run_scheme, run_scheme_with, SchemeConfig, SchemeKind, SchemeRun};
use sparsedist_gen::SparseRandom;
use sparsedist_multicomputer::{
    explore, EngineKind, Exploration, FaultPlan, MachineModel, Multicomputer, RetryPolicy,
    SEND_BUDGET,
};
use sparsedist_ops::spmv::{crs_spmv, distributed_spmv_ledgers};

fn array(rows: usize) -> Dense2D {
    SparseRandom::new(rows, rows)
        .sparse_ratio(0.2)
        .seed(0xC0FFEE)
        .generate()
}

/// One scheme run on the event loop, digested into a string covering
/// everything that must be schedule-invariant: success/error kind,
/// golden reconstruction, owner map, full ledgers and local arrays.
fn digest_run(
    scheme: SchemeKind,
    procs: usize,
    a: &Dense2D,
    plan: Option<&FaultPlan>,
    config: SchemeConfig,
) -> String {
    let part = RowBlock::new(a.rows(), a.cols(), procs);
    let mut machine = Multicomputer::virtual_machine(procs, MachineModel::ibm_sp2())
        .with_engine(EngineKind::EventLoop);
    if let Some(plan) = plan {
        machine = machine
            .with_faults(plan.clone())
            .with_retry_policy(RetryPolicy::with_retries(10));
    }
    match run_scheme_with(scheme, &machine, a, &part, CompressKind::Crs, config) {
        Ok(run) => format!(
            "ok reassembled={} owners={:?} ledgers={:?} locals={:?}",
            run.reassemble(&part) == *a,
            run.owners,
            run.ledgers,
            run.locals
        ),
        Err(e) => format!("err {e}"),
    }
}

fn assert_schedule_independent(label: &str, report: &Exploration<String>) {
    assert!(
        !report.truncated,
        "{label}: tree not exhausted in {} schedules",
        report.schedules
    );
    assert!(
        report.divergence.is_none(),
        "{label}: outcome depends on delivery order — baseline {:?} vs {:?}",
        report.baseline,
        report.divergence
    );
    assert!(
        !report.baseline.contains("watchdog"),
        "{label}: every schedule deadlocks identically: {}",
        report.baseline
    );
    println!(
        "{label}: {} schedules, {} branch points max, baseline {}…",
        report.schedules,
        report.max_branch_points,
        &report.baseline[..report.baseline.len().min(40)]
    );
}

#[test]
fn routed_death_p3_is_schedule_independent_across_100_plus_schedules() {
    // The acceptance configuration: p=3, overlapped chunked pipeline,
    // rank 2 dying mid-stream so its part re-homes while frames are in
    // flight. Every delivery interleaving must reconstruct the golden
    // array with identical ledgers.
    let a = array(6);
    let config = SchemeConfig {
        overlap: true,
        ..SchemeConfig::default()
    };
    let plan = FaultPlan::new(1).with_death_at(2, 200.0);
    let report = explore(
        || digest_run(SchemeKind::Ed, 3, &a, Some(&plan), config),
        25_000,
    );
    assert_schedule_independent("routed-death p=3", &report);
    assert!(
        report.baseline.starts_with("ok reassembled=true"),
        "routed run must survive the death: {}",
        report.baseline
    );
    assert!(
        report.baseline.contains("owners=[0, 1, 1]")
            || report.baseline.contains("owners=[0, 0, 1]"),
        "rank 2's part must have re-homed to a survivor: {}",
        report.baseline
    );
    assert!(
        report.schedules >= 100,
        "need >= 100 distinct schedules for the exhaustiveness claim, got {}",
        report.schedules
    );
}

#[test]
fn overlapped_pipeline_p3_is_schedule_independent() {
    let a = array(6);
    let config = SchemeConfig {
        overlap: true,
        chunk_elems: 6,
        ..SchemeConfig::default()
    };
    for scheme in [SchemeKind::Sfc, SchemeKind::Cfs, SchemeKind::Ed] {
        let report = explore(|| digest_run(scheme, 3, &a, None, config), 25_000);
        assert_schedule_independent(&format!("pipeline p=3 {scheme:?}"), &report);
        assert!(report.baseline.starts_with("ok reassembled=true"));
    }
}

#[test]
fn chaos_plans_p3_are_schedule_independent() {
    // Seeded chaos plans (drops, corruption, delays, deaths): whatever
    // the outcome — clean, recovered or typed error — it must be the
    // same outcome under every delivery order.
    let a = array(10);
    for seed in 0..3u64 {
        let plan = FaultPlan::chaos(seed, 3);
        let report = explore(
            || digest_run(SchemeKind::Ed, 3, &a, Some(&plan), SchemeConfig::default()),
            60_000,
        );
        assert_schedule_independent(&format!("chaos seed {seed} p=3"), &report);
    }
}

/// The ED state of an 8×8 array at density 0.3 over `part`, one part per
/// rank: the state every post-distribution program below starts from.
fn ed_state(part: &dyn Partition) -> (Dense2D, Multicomputer, SchemeRun) {
    let a = SparseRandom::new(8, 8)
        .sparse_ratio(0.3)
        .seed(0xC0FFEE)
        .generate();
    let machine = Multicomputer::virtual_machine(part.nparts(), MachineModel::ibm_sp2());
    let run = run_scheme(SchemeKind::Ed, &machine, &a, part, CompressKind::Crs).unwrap();
    (a, machine, run)
}

#[test]
fn halo_spmv_p3_is_schedule_independent() {
    // Row blocks own whole rows; column blocks fold partial sums, which
    // the fold adds in ascending source order whatever the delivery order.
    let row = RowBlock::new(8, 8, 3);
    let col = ColBlock::new(8, 8, 3);
    let x: Vec<f64> = (0..8).map(|i| 1.0 + 0.25 * i as f64).collect();
    let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (label, part) in [("row", &row as &dyn Partition), ("column", &col)] {
        let (a, machine, run) = ed_state(part);
        let report = explore(
            || match distributed_spmv_ledgers(&machine, &run, part, &x) {
                Ok((y, ledgers)) => format!("ok y={:?} ledgers={ledgers:?}", bits(&y)),
                Err(e) => format!("err {e}"),
            },
            25_000,
        );
        assert_schedule_independent(&format!("halo SpMV p=3 {label}"), &report);
        assert!(report.baseline.starts_with("ok "), "{}", report.baseline);
        if label == "row" {
            let serial = crs_spmv(&Crs::from_dense(&a, &mut OpCounter::new()), &x);
            let want = format!("ok y={:?} ", bits(&serial));
            assert!(
                report.baseline.starts_with(&want),
                "row-block SpMV must equal the serial product bit for bit: {}",
                report.baseline
            );
        }
    }
}

#[test]
fn gather_p3_is_schedule_independent() {
    let part = RowBlock::new(8, 8, 3);
    let (a, machine, run) = ed_state(&part);
    for strategy in [
        GatherStrategy::Dense,
        GatherStrategy::Compressed,
        GatherStrategy::Encoded,
    ] {
        let report = explore(
            || match gather_global(&machine, &run.locals, &part, CompressKind::Crs, strategy) {
                Ok(g) => format!(
                    "ok exact={} global={:?} ledgers={:?}",
                    g.global.to_dense() == a,
                    g.global,
                    g.ledgers
                ),
                Err(e) => format!("err {e}"),
            },
            25_000,
        );
        assert_schedule_independent(&format!("gather p=3 {strategy:?}"), &report);
        assert!(
            report.baseline.starts_with("ok exact=true"),
            "{}",
            report.baseline
        );
    }
}

#[test]
fn sfc_sends_over_the_send_budget_p3_are_schedule_independent() {
    // Every row-block part of this 6-row array is 2 rows of just over
    // SEND_BUDGET/16 cells, so each dense SFC payload exceeds the budget
    // and the source parks on its budget after every send to another rank.
    // Few nonzeros keep the printed locals short.
    let a = SparseRandom::new(6, SEND_BUDGET / 16 + 1)
        .sparse_ratio(0.0005)
        .seed(0xC0FFEE)
        .generate();
    let staged = SchemeConfig::default();
    let overlapped_chunked = SchemeConfig {
        overlap: true,
        chunk_elems: SEND_BUDGET / 8,
        ..SchemeConfig::default()
    };
    for (label, config) in [
        ("staged", staged),
        ("overlapped+chunked", overlapped_chunked),
    ] {
        let report = explore(|| digest_run(SchemeKind::Sfc, 3, &a, None, config), 25_000);
        assert_schedule_independent(&format!("SFC over budget p=3 {label}"), &report);
        assert!(
            report.baseline.starts_with("ok reassembled=true"),
            "{label}: {}",
            report.baseline
        );
    }
}

#[test]
fn halo_spmv_under_drops_p3_is_schedule_independent() {
    // A seeded drop plan with retries: retransmissions and their timeouts
    // join the ledgers, and the fates follow the plan's deterministic
    // sequence, so the product and every ledger are the same under every
    // delivery order and still equal the serial product bit for bit.
    let part = RowBlock::new(8, 8, 3);
    let (a, clean, run) = ed_state(&part);
    let x: Vec<f64> = (0..8).map(|i| 1.0 + 0.25 * i as f64).collect();
    let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let machine = clean
        .with_faults(FaultPlan::new(7).with_drop(0.3))
        .with_retry_policy(RetryPolicy::with_retries(10));
    let (_, ledgers) = distributed_spmv_ledgers(&machine, &run, &part, &x).unwrap();
    assert!(
        ledgers.iter().any(|l| l.faults().drops > 0),
        "the plan must drop at least one message: {ledgers:?}"
    );
    let report = explore(
        || match distributed_spmv_ledgers(&machine, &run, &part, &x) {
            Ok((y, ledgers)) => format!("ok y={:?} ledgers={ledgers:?}", bits(&y)),
            Err(e) => format!("err {e}"),
        },
        25_000,
    );
    assert_schedule_independent("halo SpMV under drops p=3", &report);
    let serial = crs_spmv(&Crs::from_dense(&a, &mut OpCounter::new()), &x);
    let want = format!("ok y={:?} ", bits(&serial));
    assert!(report.baseline.starts_with(&want), "{}", report.baseline);
}

#[test]
fn redistribute_is_schedule_independent() {
    // Row blocks re-owned as column blocks through the rank-0 hub at p=3
    // and as a direct all-to-all at p=2: every delivery order yields the
    // locals ED would have produced under the column blocks directly.
    for (strategy, p) in [(RedistStrategy::ViaSource, 3), (RedistStrategy::Direct, 2)] {
        let from = RowBlock::new(8, 8, p);
        let to = ColBlock::new(8, 8, p);
        let (a, machine, run) = ed_state(&from);
        let report = explore(
            || match redistribute(
                &machine,
                &run.locals,
                &from,
                &to,
                CompressKind::Crs,
                strategy,
            ) {
                Ok(r) => format!("ok locals={:?} ledgers={:?}", r.locals, r.ledgers),
                Err(e) => format!("err {e}"),
            },
            25_000,
        );
        let label = format!("redistribute {strategy:?} p={p}");
        assert_schedule_independent(&label, &report);
        let direct = run_scheme(SchemeKind::Ed, &machine, &a, &to, CompressKind::Crs).unwrap();
        let want = format!("ok locals={:?} ", direct.locals);
        assert!(
            report.baseline.starts_with(&want),
            "{label}: {}",
            report.baseline
        );
    }
}
