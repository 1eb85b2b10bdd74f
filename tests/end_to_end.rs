//! Cross-crate integration: generate → distribute → compute → verify,
//! across schemes, partitions, compression kinds and machine sizes.

use sparsedist::core::gather::{gather_global, GatherStrategy};
use sparsedist::core::redistribute::{redistribute, RedistStrategy};
use sparsedist::gen::patterns::{banded, block_clustered, five_point_laplacian, row_skewed};
use sparsedist::gen::{RatioMode, SparseRandom};
use sparsedist::ops::spmv::{dense_spmv, distributed_spmv};
use sparsedist::prelude::*;

fn partitions(rows: usize, cols: usize, p: usize) -> Vec<Box<dyn Partition>> {
    let mut out: Vec<Box<dyn Partition>> = vec![
        Box::new(RowBlock::new(rows, cols, p)),
        Box::new(ColBlock::new(rows, cols, p)),
        Box::new(RowCyclic::new(rows, cols, p)),
        Box::new(ColCyclic::new(rows, cols, p)),
    ];
    if p == 4 {
        out.push(Box::new(Mesh2D::new(rows, cols, 2, 2)));
        out.push(Box::new(BlockCyclic::new(rows, cols, 3, 5, 2, 2)));
    }
    out
}

#[test]
fn every_workload_every_scheme_round_trips() {
    let workloads = vec![
        (
            "uniform",
            SparseRandom::new(60, 48)
                .sparse_ratio(0.1)
                .seed(1)
                .generate(),
        ),
        (
            "bernoulli",
            SparseRandom::new(60, 48)
                .sparse_ratio(0.15)
                .mode(RatioMode::Bernoulli)
                .seed(2)
                .generate(),
        ),
        ("banded", banded(60, 2).block(0, 0, 60, 48)),
        (
            "clustered",
            block_clustered(60, 8, 5, 3).block(0, 0, 60, 48),
        ),
        ("skewed", row_skewed(60, 30, 4).block(0, 0, 60, 48)),
    ];
    let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    for (name, a) in &workloads {
        for part in partitions(a.rows(), a.cols(), 4) {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                for scheme in SchemeKind::ALL {
                    let run = run_scheme(scheme, &machine, a, part.as_ref(), kind).unwrap();
                    assert_eq!(
                        run.reassemble(part.as_ref()),
                        *a,
                        "{name} {scheme} {kind} {}",
                        part.name()
                    );
                }
            }
        }
    }
}

#[test]
fn distributed_spmv_matches_dense_on_fem_matrix() {
    let a = five_point_laplacian(10); // 100×100
    let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    let x: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
    let want = dense_spmv(&a, &x);
    for part in partitions(100, 100, 4) {
        let run = run_scheme(
            SchemeKind::Ed,
            &machine,
            &a,
            part.as_ref(),
            CompressKind::Crs,
        )
        .unwrap();
        let y = distributed_spmv(&machine, &run, part.as_ref(), &x).unwrap();
        let err = y
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-10, "{}: err {err}", part.name());
    }
}

#[test]
fn post_distribution_ops_run_past_a_thousand_ranks() {
    // Most of the 2048 row bands of a 96-row array are empty, which
    // every rank program must handle.
    let p = 2048;
    let a = SparseRandom::new(96, 96)
        .sparse_ratio(0.1)
        .seed(21)
        .generate();
    let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
    let rows = RowBlock::new(96, 96, p);
    let run = run_scheme(SchemeKind::Ed, &machine, &a, &rows, CompressKind::Crs).unwrap();

    let x: Vec<f64> = (0..96).map(|i| 1.0 + (i as f64).cos()).collect();
    let y = distributed_spmv(&machine, &run, &rows, &x).unwrap();
    let want = dense_spmv(&a, &x);
    let err = y
        .iter()
        .zip(&want)
        .map(|(u, v)| (u - v).abs())
        .fold(0.0, f64::max);
    assert!(err < 1e-10, "spmv err {err}");

    let g = gather_global(
        &machine,
        &run.locals,
        &rows,
        CompressKind::Crs,
        GatherStrategy::Encoded,
    )
    .unwrap();
    assert_eq!(g.global.to_dense(), a);

    let cyclic = RowCyclic::new(96, 96, p);
    let r = redistribute(
        &machine,
        &run.locals,
        &rows,
        &cyclic,
        CompressKind::Crs,
        RedistStrategy::ViaSource,
    )
    .unwrap();
    let direct = run_scheme(SchemeKind::Ed, &machine, &a, &cyclic, CompressKind::Crs).unwrap();
    assert_eq!(r.locals, direct.locals);
}

#[test]
fn larger_processor_counts() {
    let a = SparseRandom::new(96, 96)
        .sparse_ratio(0.1)
        .seed(11)
        .generate();
    for p in [1, 2, 8, 16, 32] {
        let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
        let part = RowBlock::new(96, 96, p);
        let run = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs).unwrap();
        assert_eq!(run.reassemble(&part), a, "p={p}");
    }
    // Mesh up to 6x6 = 36 processors.
    let machine = Multicomputer::virtual_machine(36, MachineModel::ibm_sp2());
    let part = Mesh2D::new(96, 96, 6, 6);
    let run = run_scheme(SchemeKind::Cfs, &machine, &a, &part, CompressKind::Ccs).unwrap();
    assert_eq!(run.reassemble(&part), a);
}

#[test]
fn empty_and_dense_extremes() {
    let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    let part = RowBlock::new(32, 32, 4);

    let empty = Dense2D::zeros(32, 32);
    let full = SparseRandom::new(32, 32)
        .sparse_ratio(1.0)
        .seed(1)
        .generate();
    for a in [&empty, &full] {
        for scheme in SchemeKind::ALL {
            let run = run_scheme(scheme, &machine, a, &part, CompressKind::Crs).unwrap();
            assert_eq!(run.reassemble(&part), *a);
        }
    }
}

#[test]
fn ragged_sizes_with_empty_parts() {
    // 9 rows over 4 processors leaves P3 empty (⌈9/4⌉ = 3 → 3,3,3,0).
    let a = SparseRandom::new(9, 17)
        .sparse_ratio(0.2)
        .seed(2)
        .generate();
    let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    let part = RowBlock::new(9, 17, 4);
    for scheme in SchemeKind::ALL {
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            let run = run_scheme(scheme, &machine, &a, &part, kind).unwrap();
            assert_eq!(run.reassemble(&part), a, "{scheme} {kind}");
            assert_eq!(run.locals[3].nnz(), 0);
        }
    }
}
