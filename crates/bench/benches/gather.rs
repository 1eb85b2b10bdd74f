//! Bench for the gather strategies, the schemes' mirror images: the
//! source's busy time per strategy, then a timed gather.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparsedist_bench::workload;
use sparsedist_core::compress::CompressKind;
use sparsedist_core::gather::{gather_global, GatherStrategy};
use sparsedist_core::partition::RowBlock;
use sparsedist_core::schemes::{run_scheme, SchemeKind};
use sparsedist_multicomputer::{MachineModel, Multicomputer};
use std::hint::black_box;
use std::time::Duration;

fn bench_gather(c: &mut Criterion) {
    let n = 400;
    let p = 16;
    let a = workload(n);
    let part = RowBlock::new(n, n, p);
    let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
    let dist = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs).unwrap();

    eprintln!("\nGather strategies (n={n}, p={p}, s=0.1): source busy time");
    for strategy in [
        GatherStrategy::Dense,
        GatherStrategy::Compressed,
        GatherStrategy::Encoded,
    ] {
        let run =
            gather_global(&machine, &dist.locals, &part, CompressKind::Crs, strategy).unwrap();
        eprintln!("  {strategy:?}: {}", run.t_gather());
    }
    eprintln!();

    let mut g = c.benchmark_group("gather");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for strategy in [GatherStrategy::Dense, GatherStrategy::Encoded] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    black_box(gather_global(
                        &machine,
                        &dist.locals,
                        &part,
                        CompressKind::Crs,
                        strategy,
                    ))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_gather);
criterion_main!(benches);
