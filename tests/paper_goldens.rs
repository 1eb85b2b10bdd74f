//! Golden tests against the paper's literal worked example (Figures 1–7)
//! and the qualitative results of its evaluation (§5 observations).

use sparsedist::core::compress::Ccs;
use sparsedist::core::dense::paper_array_a;
use sparsedist::core::opcount::OpCounter;
use sparsedist::gen::SparseRandom;
use sparsedist::prelude::*;

#[test]
fn figure1_array_a() {
    let a = paper_array_a();
    assert_eq!((a.rows(), a.cols()), (10, 8));
    assert_eq!(a.nnz(), 16);
    assert_eq!(a.get(0, 1), 1.0);
    assert_eq!(a.get(9, 6), 16.0);
}

#[test]
fn figure2_partition_bands() {
    let part = RowBlock::new(10, 8, 4);
    let bands: Vec<(usize, usize)> = (0..4).map(|p| part.local_shape(p)).collect();
    assert_eq!(bands, vec![(3, 8), (3, 8), (3, 8), (1, 8)]);
}

#[test]
fn figure3_received_local_arrays() {
    let a = paper_array_a();
    let part = RowBlock::new(10, 8, 4);
    let nnz: Vec<usize> = (0..4).map(|p| part.extract_dense(&a, p).nnz()).collect();
    assert_eq!(nnz, vec![4, 3, 6, 3]);
}

#[test]
fn figure4_crs_of_each_processor() {
    let a = paper_array_a();
    let part = RowBlock::new(10, 8, 4);
    let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    // Run the full SFC scheme; the receivers' CRS must equal the figure.
    let run = run_scheme(SchemeKind::Sfc, &machine, &a, &part, CompressKind::Crs).unwrap();
    let expect: [(&[usize], &[usize], &[f64]); 4] = [
        (&[1, 2, 3, 5], &[2, 7, 1, 8], &[1., 2., 3., 4.]),
        (&[1, 2, 3, 4], &[6, 4, 5], &[5., 6., 7.]),
        (
            &[1, 2, 4, 7],
            &[7, 5, 8, 2, 3, 5],
            &[8., 9., 10., 11., 12., 13.],
        ),
        (&[1, 4], &[1, 4, 7], &[14., 15., 16.]),
    ];
    for (pid, (ro, co, vl)) in expect.iter().enumerate() {
        let crs = run.locals[pid].as_crs();
        assert_eq!(crs.paper(), (ro.to_vec(), co.to_vec()), "P{pid} RO, CO");
        assert_eq!(&crs.vl(), vl, "P{pid} VL");
    }
}

#[test]
fn figure5_cfs_p1_conversion() {
    // §3.2 example: CFS, row partition, CCS. The source packs global row
    // indices; P1 subtracts 3 (Case 3.2.2).
    let a = paper_array_a();
    let part = RowBlock::new(10, 8, 4);
    // Source-side compressed form of P1's band (global indices 4,5,6 → 1-based 5,6,4 in CCS column order).
    let global = Ccs::from_part_global(&a, &part, 1, &mut OpCounter::new());
    assert_eq!(global.paper().1, vec![5, 6, 4]);
    // After the full CFS run, P1's local CCS has local rows 2,3,1 (1-based).
    let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    let run = run_scheme(SchemeKind::Cfs, &machine, &a, &part, CompressKind::Ccs).unwrap();
    let p1 = run.locals[1].as_ccs();
    assert_eq!(p1.paper().1, vec![2, 3, 1]);
    assert_eq!(p1.values(), &[6.0, 7.0, 5.0]);
}

#[test]
fn figure7_ed_p1_decode() {
    // §3.3 example: ED, row partition, CCS. P1 decodes RO via
    // RO[i+1] = RO[i] + R_i and subtracts 3 from each C (Case 3.3.2).
    let a = paper_array_a();
    let part = RowBlock::new(10, 8, 4);
    let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    let run = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Ccs).unwrap();
    let p1 = run.locals[1].as_ccs();
    assert_eq!(p1.paper(), (vec![1, 1, 1, 1, 2, 3, 4, 4, 4], vec![2, 3, 1]));
    assert_eq!(p1.values(), &[6.0, 7.0, 5.0]);
}

/// The paper's §5 observations, regenerated at a reduced grid. Shape, not
/// absolute milliseconds: who wins and where.
#[test]
fn section5_observations_hold_on_reduced_grid() {
    let model = MachineModel::ibm_sp2();
    for &n in &[200usize, 400] {
        let a = SparseRandom::new(n, n)
            .sparse_ratio(0.1)
            .seed(n as u64)
            .generate();
        for &p in &[4usize] {
            let machine = Multicomputer::virtual_machine(p, model);
            let configs: Vec<(&str, Box<dyn Partition>)> = vec![
                ("row", Box::new(RowBlock::new(n, n, p))),
                ("column", Box::new(ColBlock::new(n, n, p))),
                ("mesh", Box::new(Mesh2D::new(n, n, 2, 2))),
            ];
            for (name, part) in configs {
                let sfc = run_scheme(
                    SchemeKind::Sfc,
                    &machine,
                    &a,
                    part.as_ref(),
                    CompressKind::Crs,
                )
                .unwrap();
                let cfs = run_scheme(
                    SchemeKind::Cfs,
                    &machine,
                    &a,
                    part.as_ref(),
                    CompressKind::Crs,
                )
                .unwrap();
                let ed = run_scheme(
                    SchemeKind::Ed,
                    &machine,
                    &a,
                    part.as_ref(),
                    CompressKind::Crs,
                )
                .unwrap();

                // §5 observation (all tables): ED dist < CFS dist < SFC dist.
                assert!(ed.t_distribution() < cfs.t_distribution(), "{name} n={n}");
                assert!(cfs.t_distribution() < sfc.t_distribution(), "{name} n={n}");
                // §5 observation (all tables): SFC comp < CFS comp < ED comp.
                assert!(sfc.t_compression() < cfs.t_compression(), "{name} n={n}");
                assert!(cfs.t_compression() < ed.t_compression(), "{name} n={n}");
                // Overall: ED beats CFS everywhere (§5 conclusion 3).
                assert!(ed.t_total() < cfs.t_total(), "{name} n={n}");
                match name {
                    // §5.1: under the row partition SFC wins overall on SP2.
                    "row" => {
                        assert!(sfc.t_total() < cfs.t_total(), "row n={n}");
                        assert!(sfc.t_total() < ed.t_total(), "row n={n}");
                    }
                    // §5.2/5.3: under column/mesh the proposed schemes win.
                    _ => {
                        assert!(ed.t_total() < sfc.t_total(), "{name} n={n}");
                        assert!(cfs.t_total() < sfc.t_total(), "{name} n={n}");
                    }
                }
            }
        }
    }
}

/// Table 3's scaling shape: SFC's distribution time is roughly flat in p
/// (dominated by n²·T_Data), while its compression time shrinks ~1/p.
#[test]
fn table3_scaling_shape_in_p() {
    let n = 320;
    let a = SparseRandom::new(n, n).sparse_ratio(0.1).seed(3).generate();
    let model = MachineModel::ibm_sp2();
    let mut dist = Vec::new();
    let mut comp = Vec::new();
    for p in [4usize, 16, 32] {
        let machine = Multicomputer::virtual_machine(p, model);
        let part = RowBlock::new(n, n, p);
        let run = run_scheme(SchemeKind::Sfc, &machine, &a, &part, CompressKind::Crs).unwrap();
        dist.push(run.t_distribution().as_millis());
        comp.push(run.t_compression().as_millis());
    }
    // Distribution grows slightly with p (startup terms only).
    assert!(dist[2] > dist[0]);
    assert!(
        dist[2] < dist[0] * 1.2,
        "SFC dist should be nearly flat in p: {dist:?}"
    );
    // Compression shrinks roughly linearly in p.
    assert!(
        comp[0] > comp[1] * 2.0 && comp[1] > comp[2] * 1.5,
        "{comp:?}"
    );
}
