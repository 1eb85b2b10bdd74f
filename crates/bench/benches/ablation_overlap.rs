//! Ablation: encode-then-send-all vs overlapped encode/send in the ED
//! scheme, and the halo-exchange SpMV on the distributed state.
//!
//! With the pipeline driver's nonblocking sends (`SchemeConfig::overlap`),
//! overlap shrinks the makespan and the mean completion time across
//! receivers while leaving every non-`Send` phase aggregate untouched.
//! The SpMV line reports the busiest rank's send time and the messages
//! per product: no rank ships more than its neighbours' halo entries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparsedist_bench::workload;
use sparsedist_core::compress::CompressKind;
use sparsedist_core::partition::RowBlock;
use sparsedist_core::schemes::{run_scheme, run_scheme_with, SchemeConfig, SchemeKind, SchemeRun};
use sparsedist_multicomputer::{MachineModel, Multicomputer, Phase};
use sparsedist_ops::spmv::SpmvPlan;
use std::hint::black_box;
use std::time::Duration;

fn mean_completion(run: &SchemeRun) -> f64 {
    run.ledgers
        .iter()
        .map(|l| (l.busy_total() + l.get(Phase::Wait)).as_micros())
        .sum::<f64>()
        / run.ledgers.len() as f64
}

fn bench_overlap(c: &mut Criterion) {
    let n = 400;
    let p = 16;
    let a = workload(n);
    let part = RowBlock::new(n, n, p);
    let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());

    let plain = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs).unwrap();
    let over = run_scheme_with(
        SchemeKind::Ed,
        &machine,
        &a,
        &part,
        CompressKind::Crs,
        SchemeConfig::overlapped(),
    )
    .unwrap();
    eprintln!("\nED send discipline (n={n}, p={p}, s=0.1):");
    eprintln!(
        "  encode-all-then-send: makespan {}  mean completion {:.3}ms",
        plain.t_makespan(),
        mean_completion(&plain) / 1000.0
    );
    eprintln!(
        "  overlapped:           makespan {}  mean completion {:.3}ms",
        over.t_makespan(),
        mean_completion(&over) / 1000.0
    );

    let x = vec![1.0; n];
    let plan = SpmvPlan::new(&plain.locals, &part);
    let (_, ledgers) = plan.apply_ledgers(&machine, &x).unwrap();
    let send_max = ledgers
        .iter()
        .map(|l| l.get(Phase::Send).as_micros())
        .fold(0.0, f64::max);
    let messages: u64 = ledgers.iter().map(|l| l.wire().messages).sum();
    eprintln!("\nHalo-exchange SpMV (one product):");
    eprintln!(
        "  max per-rank send {:.3}ms, {messages} messages",
        send_max / 1000.0
    );
    eprintln!();

    let mut g = c.benchmark_group("ablation_overlap");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    g.bench_function(BenchmarkId::new("ed", "plain"), |b| {
        b.iter(|| {
            black_box(run_scheme(
                SchemeKind::Ed,
                &machine,
                &a,
                &part,
                CompressKind::Crs,
            ))
        })
    });
    g.bench_function(BenchmarkId::new("ed", "overlapped"), |b| {
        b.iter(|| {
            black_box(run_scheme_with(
                SchemeKind::Ed,
                &machine,
                &a,
                &part,
                CompressKind::Crs,
                SchemeConfig::overlapped(),
            ))
        })
    });
    g.bench_function(BenchmarkId::new("spmv", "halo"), |b| {
        b.iter(|| black_box(plan.apply_ledgers(&machine, &x)))
    });
    g.finish();
}

criterion_group!(benches, bench_overlap);
criterion_main!(benches);
