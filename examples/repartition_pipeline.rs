//! The full data lifecycle on the simulated multicomputer:
//!
//! 1. distribute a sparse system row-wise with the ED scheme (fast setup),
//! 2. compute on it (distributed SpMV),
//! 3. **redistribute** to a 2-D mesh for a mesh-favouring phase,
//! 4. compute again,
//! 5. **gather** the array back to the source with the encoded strategy.
//!
//! ```text
//! cargo run --release --example repartition_pipeline
//! ```

use sparsedist::core::gather::{gather_global, GatherStrategy};
use sparsedist::core::redistribute::{redistribute, RedistStrategy};
use sparsedist::gen::SparseRandom;
use sparsedist::ops::spmv::{dense_spmv, distributed_spmv, SpmvPlan};
use sparsedist::prelude::*;

fn main() {
    let n = 240;
    let p = 16;
    let a = SparseRandom::new(n, n)
        .sparse_ratio(0.1)
        .seed(42)
        .generate();
    let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
    println!("{n}x{n} sparse array, nnz = {}, {p} processors\n", a.nnz());

    // 1. Distribute row-wise with ED.
    let rows = RowBlock::new(n, n, p);
    let dist = run_scheme(SchemeKind::Ed, &machine, &a, &rows, CompressKind::Crs).unwrap();
    println!(
        "1. ED distribution (row):      dist {} comp {}",
        dist.t_distribution(),
        dist.t_compression()
    );

    // 2. Compute under the row partition.
    let x = vec![1.0; n];
    let y1 = distributed_spmv(&machine, &dist, &rows, &x).unwrap();
    println!(
        "2. distributed SpMV:           checksum {:.3}",
        y1.iter().sum::<f64>()
    );

    // 3. Redistribute to a 4×4 mesh without touching the source.
    let mesh = Mesh2D::new(n, n, 4, 4);
    let redist = redistribute(
        &machine,
        &dist.locals,
        &rows,
        &mesh,
        CompressKind::Crs,
        RedistStrategy::Direct,
    )
    .unwrap();
    println!(
        "3. redistribution row→mesh:    busy max {}",
        redist.t_total()
    );

    // 4. Compute under the mesh partition; the answer must not change.
    let y2 = SpmvPlan::new(&redist.locals, &mesh)
        .apply(&machine, &x)
        .unwrap();
    let drift = y1
        .iter()
        .zip(&y2)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("4. SpMV after repartition:     max drift {drift:.2e}");
    assert!(drift < 1e-12);

    // 5. Gather back to the source with the encoded (ED-mirror) strategy.
    let g = gather_global(
        &machine,
        &redist.locals,
        &mesh,
        CompressKind::Crs,
        GatherStrategy::Encoded,
    )
    .unwrap();
    println!("5. encoded gather to source:   busy {}", g.t_gather());
    assert_eq!(g.global.to_dense(), a);
    println!("\nround trip verified: gathered array equals the original");

    // Cross-check the computation against a dense baseline.
    let want = dense_spmv(&a, &x);
    let err = y2
        .iter()
        .zip(&want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("dense-verified SpMV error: {err:.2e}");
}
