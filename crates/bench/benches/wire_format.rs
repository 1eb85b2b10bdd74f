//! Wire-format shootout: v1 vs v3 packed bytes on the distribution hot
//! path.
//!
//! Besides the Criterion timing (`pack_roundtrip`), this bench writes
//! `BENCH_wire.json` at the workspace root: packed-byte totals per
//! scheme/format at three sparsities and the v3 virtual makespans (v3
//! charges zero extra ops, so they equal v1's), so CI can archive the wire
//! saving as an artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sparsedist_bench::upsert_bench_sections;
use sparsedist_core::compress::{CompressKind, Crs};
use sparsedist_core::opcount::OpCounter;
use sparsedist_core::partition::{Partition, RowBlock};
use sparsedist_core::schemes::{run_scheme_with, SchemeConfig, SchemeKind};
use sparsedist_core::wire::{self, WireFormat, WirePolicy};
use sparsedist_gen::SparseRandom;
use sparsedist_multicomputer::{MachineModel, Multicomputer, PackArena};
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

const N: usize = 1000;
const P: usize = 4;

fn array(s: f64) -> sparsedist_core::dense::Dense2D {
    SparseRandom::new(N, N)
        .sparse_ratio(s)
        .seed(0xC0FFEE)
        .generate()
}

/// Bytes the source transmits and the virtual makespan (microseconds)
/// for one scheme run under `format` with the default codec choice.
fn source_bytes_and_makespan(
    scheme: SchemeKind,
    a: &sparsedist_core::dense::Dense2D,
    part: &dyn Partition,
    format: WireFormat,
) -> (u64, f64) {
    let m = Multicomputer::virtual_machine(P, MachineModel::ibm_sp2());
    let run = run_scheme_with(
        scheme,
        &m,
        a,
        part,
        CompressKind::Crs,
        SchemeConfig {
            wire: format,
            ..SchemeConfig::default()
        },
    )
    .expect("bench distribution run");
    (run.ledgers[0].wire().bytes, run.t_makespan().as_micros())
}

fn emit_json(c: &mut Criterion) {
    let part = RowBlock::new(N, N, P);
    let mut lines = vec!["{".to_string()];
    let sparsities = [(0.01, "s0.01"), (0.1, "s0.1"), (0.5, "s0.5")];
    let schemes = [
        (SchemeKind::Sfc, "sfc"),
        (SchemeKind::Cfs, "cfs"),
        (SchemeKind::Ed, "ed"),
    ];
    let mut makespan_lines = vec!["{".to_string()];
    for (si, (s, slabel)) in sparsities.iter().enumerate() {
        let a = array(*s);
        lines.push(format!("    \"{slabel}\": {{"));
        for (ki, (scheme, klabel)) in schemes.iter().enumerate() {
            let (v1, _) = source_bytes_and_makespan(*scheme, &a, &part, WireFormat::V1);
            let (v3, m3) = source_bytes_and_makespan(*scheme, &a, &part, WireFormat::V3);
            let saving = 1.0 - v3 as f64 / v1 as f64;
            let comma = if ki + 1 < schemes.len() { "," } else { "" };
            lines.push(format!(
                "      \"{klabel}\": {{\"v1_bytes\": {v1}, \"v3_bytes\": {v3}, \
                 \"saving\": {saving:.4}}}{comma}"
            ));
            if *s == 0.1 {
                // v3 spends host CPU, never virtual ops: its makespan
                // equals v1's, the element-transparency invariant, archived.
                makespan_lines.push(format!(
                    "    \"{klabel}\": {{\"v3_makespan_us\": {m3:.1}}},"
                ));
            }
            eprintln!(
                "wire bytes {klabel:>3} s={s:<5} v1={v1:>9} v3={v3:>9} saving={:5.1}%",
                saving * 100.0
            );
        }
        let comma = if si + 1 < sparsities.len() { "," } else { "" };
        lines.push(format!("    }}{comma}"));
    }
    lines.push("  }".to_string());
    let bytes_section = lines.join("\n");
    if let Some(last) = makespan_lines.last_mut() {
        *last = last.trim_end_matches(',').to_string();
    }
    makespan_lines.push("  }".to_string());
    let makespan_section = makespan_lines.join("\n");

    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_wire.json"
    ));
    upsert_bench_sections(
        path,
        &[
            ("n", N.to_string()),
            ("p", P.to_string()),
            ("bytes", bytes_section),
            ("makespan_s0.1", makespan_section),
        ],
    )
    .expect("write BENCH_wire.json");
    eprintln!("wrote {}", path.display());

    let _ = c;
}

fn bench_pack_roundtrip(c: &mut Criterion) {
    let a = array(0.1);
    let part = RowBlock::new(N, N, P);
    let crs = Crs::from_part_global(&a, &part, 0, &mut OpCounter::new());
    let (lrows, _) = part.local_shape(0);
    let arena = PackArena::new();

    let mut g = c.benchmark_group("pack_roundtrip");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    g.throughput(Throughput::Elements(
        (crs.ro().len() + 2 * crs.nnz()) as u64,
    ));
    for format in [WireFormat::V1, WireFormat::V3] {
        let policy = WirePolicy::of(format);
        g.bench_with_input(
            BenchmarkId::new("cfs_triple", format),
            &policy,
            |b, policy| {
                b.iter(|| {
                    let mut buf = arena.checkout(crs.nnz() * 16 + crs.ro().len() * 8);
                    wire::pack_triple_into(&mut buf, crs.ro(), crs.co(), crs.vl(), N, policy);
                    let out = wire::unpack_triple(&mut buf.cursor(), lrows, policy.format)
                        .expect("round trip");
                    arena.recycle(buf);
                    black_box(out)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, emit_json, bench_pack_roundtrip);
criterion_main!(benches);
