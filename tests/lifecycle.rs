//! Whole-lifecycle integration: distribute → compute → redistribute →
//! compute → gather, across schemes, strategies and topologies.

use sparsedist::core::gather::{gather_global, GatherStrategy};
use sparsedist::core::redistribute::{redistribute, RedistStrategy};
use sparsedist::gen::SparseRandom;
use sparsedist::multicomputer::Topology;
use sparsedist::ops::spmv::{dense_spmv, distributed_spmv, SpmvPlan};
use sparsedist::prelude::*;

#[test]
fn distribute_redistribute_gather_round_trip() {
    let n = 48;
    let p = 4;
    let a = SparseRandom::new(n, n)
        .sparse_ratio(0.15)
        .seed(21)
        .generate();
    let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
    let rows = RowBlock::new(n, n, p);
    let mesh = Mesh2D::new(n, n, 2, 2);

    for scheme in SchemeKind::ALL {
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            let dist = run_scheme(scheme, &machine, &a, &rows, kind).unwrap();
            for rstrat in [RedistStrategy::Direct, RedistStrategy::ViaSource] {
                let re = redistribute(&machine, &dist.locals, &rows, &mesh, kind, rstrat).unwrap();
                for gstrat in [
                    GatherStrategy::Dense,
                    GatherStrategy::Compressed,
                    GatherStrategy::Encoded,
                ] {
                    let g = gather_global(&machine, &re.locals, &mesh, kind, gstrat).unwrap();
                    assert_eq!(
                        g.global.to_dense(),
                        a,
                        "{scheme} {kind} {rstrat:?} {gstrat:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn computation_is_invariant_under_repartitioning() {
    let n = 64;
    let p = 8;
    let a = SparseRandom::new(n, n).sparse_ratio(0.1).seed(5).generate();
    let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
    let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
    let want = dense_spmv(&a, &x);

    let from = RowBlock::new(n, n, p);
    let dist = run_scheme(SchemeKind::Cfs, &machine, &a, &from, CompressKind::Crs).unwrap();
    let y0 = distributed_spmv(&machine, &dist, &from, &x).unwrap();

    let targets: Vec<Box<dyn Partition>> = vec![
        Box::new(ColBlock::new(n, n, p)),
        Box::new(Mesh2D::new(n, n, 2, 4)),
        Box::new(RowCyclic::new(n, n, p)),
    ];
    for to in &targets {
        let re = redistribute(
            &machine,
            &dist.locals,
            &from,
            to.as_ref(),
            CompressKind::Crs,
            RedistStrategy::Direct,
        )
        .unwrap();
        let y = SpmvPlan::new(&re.locals, to.as_ref())
            .apply(&machine, &x)
            .unwrap();
        for ((u, v), w) in y.iter().zip(&y0).zip(&want) {
            assert!(
                (u - v).abs() < 1e-10 && (u - w).abs() < 1e-10,
                "{}",
                to.name()
            );
        }
    }
}

#[test]
fn schemes_work_on_every_topology() {
    let n = 40;
    let p = 16;
    let a = SparseRandom::new(n, n).sparse_ratio(0.1).seed(9).generate();
    let part = RowBlock::new(n, n, p);
    let model = MachineModel::ibm_sp2().with_hop_cost(10.0);
    for topo in [
        Topology::FullyConnected,
        Topology::Ring,
        Topology::Mesh2D { pr: 4, pc: 4 },
        Topology::Torus2D { pr: 4, pc: 4 },
    ] {
        let machine = Multicomputer::virtual_with_topology(p, model, topo);
        let mut totals = Vec::new();
        for scheme in SchemeKind::ALL {
            let run = run_scheme(scheme, &machine, &a, &part, CompressKind::Crs).unwrap();
            assert_eq!(run.reassemble(&part), a, "{scheme} on {topo:?}");
            totals.push(run.t_distribution());
        }
        // Remark 1's ordering survives every interconnect.
        assert!(
            totals[2] < totals[1] && totals[1] < totals[0],
            "{topo:?}: {totals:?}"
        );
    }
}

#[test]
fn hop_costs_only_increase_times() {
    let n = 40;
    let p = 16;
    let a = SparseRandom::new(n, n).sparse_ratio(0.1).seed(9).generate();
    let part = RowBlock::new(n, n, p);
    let flat = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
    let ringy = Multicomputer::virtual_with_topology(
        p,
        MachineModel::ibm_sp2().with_hop_cost(10.0),
        Topology::Ring,
    );
    for scheme in SchemeKind::ALL {
        let base = run_scheme(scheme, &flat, &a, &part, CompressKind::Crs).unwrap();
        let hop = run_scheme(scheme, &ringy, &a, &part, CompressKind::Crs).unwrap();
        assert!(hop.t_distribution() > base.t_distribution(), "{scheme}");
        // The ring's extra cost is pure routing: compression is untouched.
        assert_eq!(hop.t_compression(), base.t_compression(), "{scheme}");
    }
}
