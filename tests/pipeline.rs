//! Integration properties of the unified pipeline driver.
//!
//! Every scheme now runs through the same staged driver
//! (`sparsedist_core::schemes::pipeline`), so one property covers them
//! all: whatever knobs `SchemeConfig` turns — wire format and codec,
//! overlapped nonblocking sends, chunked streaming —
//! and whatever fault plan the machine carries, the distributed state
//! (`SchemeRun::locals`) and the reassembled array are identical to the
//! default staged run's. The knobs trade scheduling and byte layout,
//! never data.
//!
//! The second half pins the headline of the tentpole at the paper's
//! scale: at n = 1000, s = 0.1, overlapping encode with the transfers
//! strictly beats the staged schedule on makespan for ED and CFS while
//! moving exactly the same bytes.

use proptest::prelude::*;
use sparsedist::gen::SparseRandom;
use sparsedist::multicomputer::{FaultPlan, RetryPolicy};
use sparsedist::prelude::*;

/// A small random sparse array (≤ 16×16, density ~1/5).
fn arb_dense() -> impl Strategy<Value = Dense2D> {
    (2usize..16, 2usize..16)
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
    (2usize..5, 0usize..4).prop_map(move |(p, which)| -> Box<dyn Partition> {
        match which {
            0 => Box::new(RowBlock::new(rows, cols, p)),
            1 => Box::new(ColBlock::new(rows, cols, p)),
            2 => Box::new(RowCyclic::new(rows, cols, p)),
            _ => Box::new(Mesh2D::new(rows, cols, p, 2)),
        }
    })
}

fn arb_scheme() -> impl Strategy<Value = SchemeKind> {
    prop_oneof![
        Just(SchemeKind::Sfc),
        Just(SchemeKind::Cfs),
        Just(SchemeKind::Ed)
    ]
}

fn arb_config() -> impl Strategy<Value = SchemeConfig> {
    (
        prop_oneof![Just(WireFormat::V1), Just(WireFormat::V3)],
        prop_oneof![
            Just(CodecChoice::Raw),
            Just(CodecChoice::Delta),
            Just(CodecChoice::Packed)
        ],
        prop_oneof![Just(false), Just(true)],
        prop_oneof![Just(0usize), 1usize..64],
    )
        .prop_map(|(wire, codec, overlap, chunk_elems)| SchemeConfig {
            wire,
            codec,
            overlap,
            chunk_elems,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The unified driver's state is config-invariant: any combination of
    /// wire format, codec, overlap and chunking — fault-free or
    /// under a recoverable drop plan — delivers exactly the locals (and
    /// therefore the reassembled array) of the default staged run.
    #[test]
    fn every_config_delivers_the_default_runs_state(
        (a, part) in arb_dense().prop_flat_map(|a| {
            let (r, c) = (a.rows(), a.cols());
            (Just(a), arb_partition(r, c))
        }),
        scheme in arb_scheme(),
        config in arb_config(),
        faults in prop_oneof![
            2 => Just(None),
            3 => (0u64..1_000_000u64, 0.01f64..0.15).prop_map(Some),
        ],
    ) {
        let p = part.nparts();
        let baseline = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
        let want = run_scheme(scheme, &baseline, &a, part.as_ref(), CompressKind::Crs).unwrap();

        let mut machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
        if let Some((seed, drop)) = faults {
            machine = machine
                .with_faults(FaultPlan::new(seed).with_drop(drop))
                .with_retry_policy(RetryPolicy::with_retries(16));
        }
        let got =
            run_scheme_with(scheme, &machine, &a, part.as_ref(), CompressKind::Crs, config)
                .unwrap();

        prop_assert_eq!(&got.locals, &want.locals, "{} under {:?}", scheme, config);
        prop_assert_eq!(got.reassemble(part.as_ref()), a.clone());

        // Fault-free scheduling guarantees: overlap never slows the run
        // down, and chunking only ever adds messages.
        if faults.is_none() {
            if config.overlap && config.chunk_elems == 0 {
                prop_assert!(
                    got.t_makespan() <= want.t_makespan(),
                    "{} overlap worsened makespan: {} > {}",
                    scheme, got.t_makespan(), want.t_makespan()
                );
            }
            if config.wire == WireFormat::V1 && config.chunk_elems > 0 {
                let (m0, m1) = (
                    want.ledgers.iter().map(|l| l.wire().messages).sum::<u64>(),
                    got.ledgers.iter().map(|l| l.wire().messages).sum::<u64>(),
                );
                prop_assert!(m1 >= m0, "chunking lost messages: {m1} < {m0}");
            }
        }
    }
}

/// At the paper's experimental scale the overlap win is strict and the
/// wire volume untouched — the assertion backing the `pipeline_overlap`
/// bench numbers in `BENCH_wire.json`.
#[test]
fn overlap_beats_staged_at_paper_scale() {
    let n = 1000;
    let p = 16;
    let a = SparseRandom::new(n, n)
        .sparse_ratio(0.1)
        .seed(0xC0FFEE ^ n as u64)
        .generate();
    assert!(a.nnz() > 90_000, "workload density collapsed: {}", a.nnz());
    let part = RowBlock::new(n, n, p);
    let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());

    for scheme in [SchemeKind::Ed, SchemeKind::Cfs] {
        let staged = run_scheme(scheme, &machine, &a, &part, CompressKind::Crs).unwrap();
        let over = run_scheme_with(
            scheme,
            &machine,
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::overlapped(),
        )
        .unwrap();
        assert_eq!(
            over.locals, staged.locals,
            "{scheme}: overlap changed state"
        );
        let bytes = |r: &SchemeRun| r.ledgers.iter().map(|l| l.wire().bytes).sum::<u64>();
        assert_eq!(
            bytes(&over),
            bytes(&staged),
            "{scheme}: overlap changed bytes"
        );
        assert!(
            over.t_makespan() < staged.t_makespan(),
            "{scheme}: overlap did not beat staged ({} >= {})",
            over.t_makespan(),
            staged.t_makespan()
        );
    }
}

/// Overlap keeps paying under fire: with a 5% drop plan and chunked
/// streaming, the async ARQ retransmits behind the source's encode work
/// instead of serialising after it, and the makespan gain over the
/// blocking schedule under the *same* plan stays above 1.05×.
#[test]
fn overlap_gain_survives_a_five_percent_drop_plan() {
    let n = 1000;
    let p = 16;
    let a = SparseRandom::new(n, n)
        .sparse_ratio(0.1)
        .seed(0xC0FFEE ^ n as u64)
        .generate();
    let part = RowBlock::new(n, n, p);
    let machine = || {
        Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
            .with_faults(FaultPlan::new(41).with_drop(0.05))
            .with_retry_policy(RetryPolicy::with_retries(16))
    };
    let chunked = SchemeConfig {
        chunk_elems: 4096,
        ..SchemeConfig::default()
    };
    let over_chunked = SchemeConfig {
        chunk_elems: 4096,
        ..SchemeConfig::overlapped()
    };

    for scheme in [SchemeKind::Ed, SchemeKind::Cfs] {
        let staged =
            run_scheme_with(scheme, &machine(), &a, &part, CompressKind::Crs, chunked).unwrap();
        let over = run_scheme_with(
            scheme,
            &machine(),
            &a,
            &part,
            CompressKind::Crs,
            over_chunked,
        )
        .unwrap();
        assert_eq!(
            over.locals, staged.locals,
            "{scheme}: overlap changed state"
        );
        let retries = |r: &SchemeRun| r.ledgers.iter().map(|l| l.faults().retries).sum::<u64>();
        assert!(retries(&over) > 0, "{scheme}: the drop plan never fired");
        assert_eq!(
            retries(&over),
            retries(&staged),
            "{scheme}: same plan, different fate sequence"
        );
        let gain = staged.t_makespan().as_micros() / over.t_makespan().as_micros();
        assert!(
            gain > 1.05,
            "{scheme}: overlap gain under faults fell to {gain:.3}×"
        );
    }
}

/// No receiving rank checks a buffer out again during a scheme run, so a
/// received payload is dropped rather than pooled: a pooled payload would
/// stay in the receiver's arena until the machine is dropped. Plain and
/// routed (a timed death scheduled past the run's end) drivers alike.
#[test]
fn receivers_pool_no_payload() {
    let a = Dense2D::from_vec(
        32,
        24,
        (0..32 * 24)
            .map(|i| if i % 5 == 0 { i as f64 } else { 0.0 })
            .collect(),
    );
    let part = RowCyclic::new(32, 24, 8);
    let machines: [fn() -> Multicomputer; 2] = [
        || Multicomputer::virtual_machine(8, MachineModel::ibm_sp2()),
        || {
            Multicomputer::virtual_machine(8, MachineModel::ibm_sp2())
                .with_faults(FaultPlan::new(3).with_death_at(5, 1e12))
        },
    ];
    for (driver, machine) in ["plain", "routed"].into_iter().zip(machines) {
        for scheme in [SchemeKind::Sfc, SchemeKind::Cfs, SchemeKind::Ed] {
            for config in [SchemeConfig::default(), SchemeConfig::overlapped()] {
                let m = machine();
                let run =
                    run_scheme_with(scheme, &m, &a, &part, CompressKind::Crs, config).unwrap();
                assert_eq!(run.reassemble(&part), a);
                for r in 1..8 {
                    assert_eq!(
                        m.arena(r).pooled(),
                        0,
                        "{driver} {scheme} overlap={}: rank {r} pooled a payload",
                        config.overlap
                    );
                }
            }
        }
    }
}
