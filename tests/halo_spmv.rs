//! The halo-exchange SpMV against the serial products.
//!
//! Under a row-family partition every row sums its nonzeros in ascending
//! column order on one rank, so the distributed `y` must equal
//! `crs_spmv` bit for bit; partitions that split columns fold partial
//! rows and agree to within rounding. The traffic pin and the CG check
//! use the k = 64 five-point Laplacian on 16 row blocks, the
//! `cg-laplacian` system.

use proptest::prelude::*;
use sparsedist::core::error::SparsedistError;
use sparsedist::core::opcount::OpCounter;
use sparsedist::core::partition::BalancedRows;
use sparsedist::gen::patterns::five_point_laplacian;
use sparsedist::multicomputer::{CommError, FaultPlan};
use sparsedist::ops::solve::{conjugate_gradient, Stop};
use sparsedist::ops::spmv::{crs_spmv, distributed_spmv, distributed_spmv_ledgers, SpmvPlan};
use sparsedist::prelude::*;

/// A sparse array up to 40×40 (each cell nonzero with probability ~1/5)
/// and an `x` of matching length.
fn arb_system() -> impl Strategy<Value = (Dense2D, Vec<f64>)> {
    (1usize..40, 1usize..40).prop_flat_map(|(r, c)| {
        (
            proptest::collection::vec(prop_oneof![4 => Just(0.0f64), 1 => -100.0f64..100.0], r * c),
            proptest::collection::vec(-10.0f64..10.0, c),
        )
            .prop_map(move |(cells, x)| (Dense2D::from_vec(r, c, cells), x))
    })
}

/// Distribute `a` under `part` with every scheme and kind, returning the
/// halo SpMV's `y` for each.
fn products(a: &Dense2D, part: &dyn Partition, x: &[f64]) -> Vec<(String, Vec<f64>)> {
    let p = part.nparts();
    let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
    let mut out = Vec::new();
    for scheme in SchemeKind::ALL {
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            let run = run_scheme(scheme, &machine, a, part, kind).unwrap();
            let y = distributed_spmv(&machine, &run, part, x).unwrap();
            out.push((format!("{scheme} {kind} {} p={p}", part.name()), y));
        }
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn row_family_products_equal_crs_spmv_bitwise(
        (a, x, p, which) in arb_system().prop_flat_map(|(a, x)| (Just(a), Just(x), 1usize..65, 0usize..3))
    ) {
        let (r, c) = (a.rows(), a.cols());
        let part: Box<dyn Partition> = match which {
            0 => Box::new(RowBlock::new(r, c, p)),
            1 => Box::new(RowCyclic::new(r, c, p)),
            _ => Box::new(BalancedRows::bin_packed(&a, p)),
        };
        let want = crs_spmv(&Crs::from_dense(&a, &mut OpCounter::new()), &x);
        for (label, y) in products(&a, part.as_ref(), &x) {
            prop_assert_eq!(bits(&y), bits(&want), "{}", label);
        }
    }

    #[test]
    fn folding_products_match_crs_spmv(
        (a, x, p, which) in arb_system().prop_flat_map(|(a, x)| (Just(a), Just(x), 1usize..33, 0usize..4))
    ) {
        let (r, c) = (a.rows(), a.cols());
        let part: Box<dyn Partition> = match which {
            0 => Box::new(ColBlock::new(r, c, p)),
            1 => Box::new(ColCyclic::new(r, c, p)),
            2 => Box::new(Mesh2D::new(r, c, p, 2)),
            _ => Box::new(BlockCyclic::new(r, c, 2, 3, p, 2)),
        };
        let want = crs_spmv(&Crs::from_dense(&a, &mut OpCounter::new()), &x);
        for (label, y) in products(&a, part.as_ref(), &x) {
            let err = y
                .iter()
                .zip(&want)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0, f64::max);
            prop_assert!(y.len() == want.len() && err < 1e-12, "{}: err {}", label, err);
        }
    }
}

/// The `cg-laplacian` system: the k = 64 Laplacian distributed by ED
/// onto 16 row blocks with CRS locals.
fn laplacian_rows() -> (Dense2D, Multicomputer, RowBlock, SchemeRun) {
    let a = five_point_laplacian(64);
    let n = a.rows();
    let machine = Multicomputer::virtual_machine(16, MachineModel::ibm_sp2());
    let part = RowBlock::new(n, n, 16);
    let run = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs).unwrap();
    (a, machine, part, run)
}

#[test]
fn laplacian_on_sixteen_row_blocks_sends_one_grid_row_per_neighbour() {
    // 15 block boundaries, each crossed both ways by one 64-entry grid
    // row: 30 messages of 512 B.
    let (a, machine, part, run) = laplacian_rows();
    let x: Vec<f64> = (0..a.rows()).map(|i| (i % 7) as f64 - 3.0).collect();
    let plan = SpmvPlan::new(&run.locals, &part);
    for ledgers in [
        distributed_spmv_ledgers(&machine, &run, &part, &x)
            .unwrap()
            .1,
        plan.apply_ledgers(&machine, &x).unwrap().1,
        plan.apply_ledgers(&machine, &x).unwrap().1,
    ] {
        let messages: u64 = ledgers.iter().map(|l| l.wire().messages).sum();
        let bytes: u64 = ledgers.iter().map(|l| l.wire().bytes).sum();
        assert_eq!((messages, bytes), (30, 15_360));
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The library's CG with `crs_spmv` as the product: iterations and `x`.
fn serial_cg(a: &Crs, b: &[f64], tol: f64, max_iters: usize) -> (usize, Vec<f64>) {
    let mut x = vec![0.0; b.len()];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rr = dot(&r, &r);
    for it in 0..max_iters {
        let ap = crs_spmv(a, &p);
        let alpha = rr / dot(&p, &ap);
        for i in 0..b.len() {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_next = dot(&r, &r);
        if rr_next.sqrt() <= tol {
            return (it + 1, x);
        }
        let beta = rr_next / rr;
        for i in 0..b.len() {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_next;
    }
    (max_iters, x)
}

#[test]
fn distributed_cg_takes_serial_cgs_iterates() {
    let (a, machine, part, run) = laplacian_rows();
    let n = a.rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 37) % 11) as f64).collect();
    let sol = conjugate_gradient(&machine, &run, &part, &b, 1e-8, 10 * n).unwrap();
    let Stop::Converged(iters) = sol.stop else {
        panic!("no convergence: {:?}", sol.stop);
    };
    let crs = Crs::from_dense(&a, &mut OpCounter::new());
    let (serial_iters, serial_x) = serial_cg(&crs, &b, 1e-8, 10 * n);
    assert_eq!(iters, serial_iters);
    assert_eq!(bits(&sol.x), bits(&serial_x));
}

#[test]
fn a_dead_rank_is_a_typed_error() {
    let (a, _, part, run) = laplacian_rows();
    let x = vec![1.0; a.rows()];
    for dead in [0, 7, 15] {
        let machine = Multicomputer::virtual_machine(16, MachineModel::ibm_sp2())
            .with_faults(FaultPlan::new(1).with_dead_rank(dead));
        let err = distributed_spmv(&machine, &run, &part, &x).unwrap_err();
        assert!(
            matches!(err, SparsedistError::Comm(CommError::PeerDead { rank }) if rank == dead),
            "dead rank {dead}: {err:?}"
        );
    }
}

#[test]
fn repeated_products_on_a_one_way_pattern_pool_no_buffers() {
    // A lower-bidiagonal array: rank d reads one x entry from rank d − 1
    // and sends none back, so a rank's receives and sends never balance.
    let n = 64;
    let mut a = Dense2D::zeros(n, n);
    for i in 0..n {
        a.set(i, i, 2.0);
        if i > 0 {
            a.set(i, i - 1, -1.0);
        }
    }
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let parts: Vec<Box<dyn Partition>> = vec![
        Box::new(RowBlock::new(n, n, 8)),
        Box::new(ColBlock::new(n, n, 8)),
    ];
    for part in &parts {
        let machine = Multicomputer::virtual_machine(8, MachineModel::ibm_sp2());
        let run = run_scheme(
            SchemeKind::Ed,
            &machine,
            &a,
            part.as_ref(),
            CompressKind::Crs,
        )
        .unwrap();
        let plan = SpmvPlan::new(&run.locals, part.as_ref());
        let pooled = |m: &Multicomputer| (0..8).map(|r| m.arena(r).pooled()).collect::<Vec<_>>();
        let before = pooled(&machine);
        for _ in 0..50 {
            plan.apply(&machine, &x).unwrap();
        }
        assert_eq!(pooled(&machine), before, "{}", part.name());
    }
}
