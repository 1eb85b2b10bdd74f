//! The scale sweep: the paper's distribution schemes at 4096–65536
//! ranks on the event-loop engine.
//!
//! The event loop schedules rank tasks over virtual time in one OS
//! thread, which is what makes these processor counts simulable at all.
//! This bench runs each
//! scheme at p ∈ {4096, 16384, 65536} on a fixed n = 4096 workload
//! (s = 0.1) and writes the `scale` section of `BENCH_scale.json` at
//! the workspace root:
//!
//! * `makespan_us` and `wire_bytes` are virtual-time / logical-wire
//!   measurements — pure functions of the machine model and workload,
//!   bit-stable across hosts — so the CI gate pins them exactly.
//! * `wall_ms` and `peak_rss_mb` are host measurements. Their key names
//!   deliberately do not end in `_us`/`_bytes`, keeping them out of the
//!   regression gate (CI runners are too noisy to pin host time) while
//!   still publishing the scaling curve the sweep exists to show.
//!
//! Under `--test` (the CI smoke), only the p = 4096 point runs; the
//! committed baseline carries the full sweep, and the gate ignores the
//! points a partial regeneration drops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparsedist_bench::{upsert_bench_sections, workload};
use sparsedist_core::compress::CompressKind;
use sparsedist_core::partition::RowBlock;
use sparsedist_core::schemes::{run_scheme_with, SchemeConfig, SchemeKind};
use sparsedist_multicomputer::{MachineModel, Multicomputer};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const N: usize = 4096;
const SWEEP: [usize; 3] = [4096, 16384, 65536];
const SCHEMES: [(SchemeKind, &str); 3] = [
    (SchemeKind::Sfc, "sfc"),
    (SchemeKind::Cfs, "cfs"),
    (SchemeKind::Ed, "ed"),
];

/// Criterion's `--test` mode is the CI smoke: one pass, smallest point.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn machine(p: usize) -> Multicomputer {
    Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
}

/// Process peak RSS in MiB, from `/proc/self/status` (`VmHWM`). Returns
/// 0.0 where procfs is unavailable; the value is a high-water mark, so
/// the sweep runs smallest-p first and reports the mark after each point.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn emit_json(c: &mut Criterion) {
    let a = workload(N);
    let sweep: &[usize] = if test_mode() { &SWEEP[..1] } else { &SWEEP };

    let mut lines = vec!["{".to_string()];
    lines.push(format!("    \"n\": {N}, \"engine\": \"event\","));
    for (pi, &p) in sweep.iter().enumerate() {
        let part = RowBlock::new(N, N, p);
        let m = machine(p);
        lines.push(format!("    \"p{p}\": {{"));
        for &(scheme, label) in SCHEMES.iter() {
            let t0 = Instant::now();
            let run = run_scheme_with(
                scheme,
                &m,
                &a,
                &part,
                CompressKind::Crs,
                SchemeConfig::default(),
            )
            .expect("fault-free run");
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let makespan_us = run.t_makespan().as_micros();
            let wire_bytes: u64 = run.ledgers.iter().map(|l| l.wire().bytes).sum();
            // Always a trailing comma: `peak_rss_mb` closes the object.
            lines.push(format!(
                "      \"{label}\": {{\"makespan_us\": {makespan_us:.1}, \
                 \"wire_bytes\": {wire_bytes}, \"wall_ms\": {wall_ms:.1}}},"
            ));
            eprintln!(
                "scale p={p} {label:>3}: makespan {:.1} ms (virtual), \
                 wall {wall_ms:.0} ms, {wire_bytes} wire bytes",
                makespan_us / 1e3
            );
        }
        lines.push(format!("      \"peak_rss_mb\": {:.1}", peak_rss_mb()));
        let comma = if pi + 1 < sweep.len() { "," } else { "" };
        lines.push(format!("    }}{comma}"));
    }
    lines.push("  }".to_string());

    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_scale.json"
    ));
    upsert_bench_sections(path, &[("scale", lines.join("\n"))]).expect("write BENCH_scale.json");
    eprintln!("wrote {}", path.display());

    let _ = c;
}

fn bench_scale(c: &mut Criterion) {
    let a = workload(N);
    let p = SWEEP[0];
    let part = RowBlock::new(N, N, p);
    let m = machine(p);

    let mut g = c.benchmark_group("scale");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (scheme, label) in SCHEMES {
        g.bench_function(BenchmarkId::new(label, format!("p{p}")), |b| {
            b.iter(|| {
                black_box(run_scheme_with(
                    scheme,
                    &m,
                    &a,
                    &part,
                    CompressKind::Crs,
                    SchemeConfig::default(),
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, emit_json, bench_scale);
criterion_main!(benches);
