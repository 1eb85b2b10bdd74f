//! Reproduce the paper's worked example end to end: Figures 1–7.
//!
//! Every figure in §3 of the paper is a state of the same 10×8 sparse
//! array `A` as it flows through the SFC, CFS and ED schemes with the row
//! partition over 4 processors. This binary prints each figure from the
//! real implementation (1-based indices, as the paper renders them).
//!
//! ```text
//! cargo run --example paper_figures
//! ```

use sparsedist::core::compress::{Ccs, CompressKind, Crs};
use sparsedist::core::dense::paper_array_a;
use sparsedist::core::encode::encode_part;
use sparsedist::core::opcount::OpCounter;
use sparsedist::prelude::*;

fn main() {
    let a = paper_array_a();
    let part = RowBlock::new(10, 8, 4);

    println!(
        "Figure 1: sparse array A ({}x{}, {} nonzeros)",
        a.rows(),
        a.cols(),
        a.nnz()
    );
    print!("{a}");

    println!("\nFigure 2: row partition over 4 processors");
    for pid in 0..4 {
        let (r0, _) = part.to_global(pid, 0, 0);
        let (lr, lc) = part.local_shape(pid);
        println!("  P{pid}: global rows {}..{} ({lr}x{lc})", r0 + 1, r0 + lr);
    }

    println!("\nFigure 3: local sparse arrays received by each processor (SFC)");
    for pid in 0..4 {
        println!("  P{pid}:");
        let local = part.extract_dense(&a, pid);
        for line in local.to_string().lines() {
            println!("    {line}");
        }
    }

    println!("\nFigure 4: CRS compression of each local array");
    for pid in 0..4 {
        let local = part.extract_dense(&a, pid);
        let crs = Crs::from_dense(&local, &mut OpCounter::new());
        let (ro, co) = crs.paper();
        println!("  P{pid}: RO {ro:?}  CO {co:?}  VL {:?}", crs.vl());
    }

    println!("\nFigure 5: CFS with row partition + CCS (global indices at the source)");
    for pid in 0..4 {
        let ccs = Ccs::from_part_global(&a, &part, pid, &mut OpCounter::new());
        let (ro, co) = ccs.paper();
        println!(
            "  P{pid} packed: RO {ro:?}  CO {co:?} (global rows)  VL {:?}",
            ccs.values()
        );
    }
    println!("  After unpacking, P1 subtracts 3 from each CO value (Case 3.2.2):");
    let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    let run = run_scheme(SchemeKind::Cfs, &machine, &a, &part, CompressKind::Ccs).unwrap();
    let p1 = run.locals[1].as_ccs();
    let (ro, co) = p1.paper();
    println!(
        "  P1 local:  RO {ro:?}  CO {co:?} (local rows)   VL {:?}",
        p1.values()
    );

    println!("\nFigure 6/7: ED special buffers B (row partition, CCS format)");
    for pid in 0..4 {
        let buf = encode_part(&a, &part, pid, CompressKind::Ccs, &mut OpCounter::new());
        let mut cursor = buf.cursor();
        let mut rendered = Vec::new();
        for _ in 0..8 {
            let r = cursor.read_u64();
            rendered.push(format!("R={r}"));
            for _ in 0..r {
                let c = cursor.read_u64() + 1; // 1-based like the paper
                let v = cursor.read_f64();
                rendered.push(format!("(C={c},V={v})"));
            }
        }
        println!("  P{pid} B: {}", rendered.join(" "));
    }

    println!("\nFigure 7(d): P1 decodes its buffer (Case 3.3.2, subtract 3)");
    let run = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Ccs).unwrap();
    let p1 = run.locals[1].as_ccs();
    let (ro, co) = p1.paper();
    println!("  P1: RO {ro:?}  CO {co:?}  VL {:?}", p1.values());

    // Sanity: every scheme reconstructs A exactly.
    for scheme in SchemeKind::ALL {
        let run = run_scheme(scheme, &machine, &a, &part, CompressKind::Crs).unwrap();
        assert_eq!(run.reassemble(&part), a);
    }
    println!("\nAll schemes reassemble the original array exactly.");
}
