//! Property-based tests over the lifecycle extensions: gather,
//! redistribution, balanced partitions, checkpointing.

use proptest::prelude::*;
use sparsedist::core::gather::{gather_global, GatherStrategy};
use sparsedist::core::redistribute::{redistribute, RedistStrategy};
use sparsedist::gen::checkpoint;
use sparsedist::prelude::*;

/// A small random sparse array (≤ 20×20, density ~1/5).
fn arb_dense() -> impl Strategy<Value = Dense2D> {
    (2usize..20, 2usize..20)
        .prop_flat_map(|(r, c)| {
            (
                Just(r),
                Just(c),
                proptest::collection::vec(
                    prop_oneof![4 => Just(0.0f64), 1 => 1.0f64..100.0],
                    r * c,
                ),
            )
        })
        .prop_map(|(r, c, data)| Dense2D::from_vec(r, c, data))
}

fn arb_partition(rows: usize, cols: usize) -> impl Strategy<Value = Box<dyn Partition>> {
    (1usize..5, 0usize..4).prop_map(move |(p, which)| -> Box<dyn Partition> {
        match which {
            0 => Box::new(RowBlock::new(rows, cols, p)),
            1 => Box::new(ColBlock::new(rows, cols, p)),
            2 => Box::new(RowCyclic::new(rows, cols, p)),
            _ => Box::new(Mesh2D::new(rows, cols, p, 2)),
        }
    })
}

fn machine(p: usize) -> Multicomputer {
    Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gather_is_left_inverse_of_distribution(
        (a, part) in arb_dense().prop_flat_map(|a| {
            let (r, c) = (a.rows(), a.cols());
            (Just(a), arb_partition(r, c))
        }),
        kind in prop_oneof![Just(CompressKind::Crs), Just(CompressKind::Ccs)],
        strategy in prop_oneof![
            Just(GatherStrategy::Dense),
            Just(GatherStrategy::Compressed),
            Just(GatherStrategy::Encoded),
        ],
    ) {
        let m = machine(part.nparts());
        let run = run_scheme(SchemeKind::Cfs, &m, &a, part.as_ref(), kind).unwrap();
        let g = gather_global(&m, &run.locals, part.as_ref(), kind, strategy).unwrap();
        prop_assert_eq!(g.global.to_dense(), a);
    }

    #[test]
    fn redistribution_commutes_with_distribution(
        (a, from, to) in arb_dense().prop_flat_map(|a| {
            let (r, c) = (a.rows(), a.cols());
            (Just(a), arb_partition(r, c), arb_partition(r, c))
        }),
        strategy in prop_oneof![Just(RedistStrategy::Direct), Just(RedistStrategy::ViaSource)],
    ) {
        // Equal processor counts are required for redistribution.
        prop_assume!(from.nparts() == to.nparts());
        let m = machine(from.nparts());
        let owned = run_scheme(SchemeKind::Ed, &m, &a, from.as_ref(), CompressKind::Crs).unwrap().locals;
        let re = redistribute(&m, &owned, from.as_ref(), to.as_ref(), CompressKind::Crs, strategy).unwrap();
        let direct = run_scheme(SchemeKind::Ed, &m, &a, to.as_ref(), CompressKind::Crs).unwrap().locals;
        prop_assert_eq!(re.locals, direct);
    }

    #[test]
    fn balanced_partitions_never_lose_nonzeros(a in arb_dense(), p in 1usize..6) {
        let contiguous = BalancedRows::contiguous(&a, p);
        let packed = BalancedRows::bin_packed(&a, p);
        for part in [&contiguous, &packed] {
            let total: usize = part.nnz_profile(&a).per_part.iter().sum();
            prop_assert_eq!(total, a.nnz());
        }
        // Bin packing is never worse-balanced than ceil blocks.
        let worst = |per: &[usize]| per.iter().copied().max().unwrap_or(0);
        let block = RowBlock::new(a.rows(), a.cols(), p);
        prop_assert!(
            worst(&packed.nnz_profile(&a).per_part)
                <= worst(&block.nnz_profile(&a).per_part)
        );
    }

    #[test]
    fn checkpoint_round_trips(
        (a, part) in arb_dense().prop_flat_map(|a| {
            let (r, c) = (a.rows(), a.cols());
            (Just(a), arb_partition(r, c))
        }),
        case in 0u64..1_000_000,
    ) {
        let m = machine(part.nparts());
        let run = run_scheme(SchemeKind::Ed, &m, &a, part.as_ref(), CompressKind::Crs).unwrap();
        let dir = std::env::temp_dir()
            .join("sparsedist_prop_ckpt")
            .join(format!("case_{case}"));
        let _ = std::fs::remove_dir_all(&dir);
        checkpoint::save(&dir, &run.locals).unwrap();
        let back = checkpoint::load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(back, run.locals);
    }
}

/// BalancedRows from the prelude needs the explicit import path check.
use sparsedist::core::partition::BalancedRows;
