//! The paper's closed-form cost model (§4, Tables 1 and 2) and our
//! derivations for the column and mesh partitions the paper measures but —
//! "for the page limitation" — does not tabulate.
//!
//! All formulas give `T_Distribution` and `T_Compression` for an `n × n`
//! global sparse array with sparse ratio `s`, largest local sparse ratio
//! `s'`, `p` processors and a machine model `(T_Startup, T_Data,
//! T_Operation)`.
//!
//! These are *predictions*; the scheme drivers in [`crate::schemes`] charge
//! instrumented operation counts, and the test suite checks prediction
//! against measurement to a fraction of a percent on divisible sizes —
//! validating both the code and the paper's algebra.
//!
//! # Derivation sketch for the untabulated partitions
//!
//! Each formula decomposes as
//! `T_Distribution = p·T_Startup + W·T_Data + (pack + unpack')·T_Op` and
//! `T_Compression` per scheme, where
//!
//! * `W` is the wire volume in elements (dense `n²` for SFC; pointer +
//!   index + value arrays for CFS; counts + pairs for ED),
//! * `pack` is the source-side per-element packing work, `unpack'` the
//!   slowest receiver's unpacking (including index conversion where the
//!   Cases of §3.2/§3.3 require it),
//! * pointer/count array length per part is the part's row count for CRS
//!   and column count for CCS.
//!
//! For SFC on non-row partitions the dense local arrays are strided in the
//! global array, so extraction/placement costs one operation per element on
//! each side (`n²` at the source, `n²/p` at the slowest receiver); the row
//! partition ships contiguous bands at zero CPU cost (§4.1.1).

pub mod extensions;
pub mod remarks;

use crate::compress::CompressKind;
use crate::schemes::SchemeKind;
use sparsedist_multicomputer::{MachineModel, VirtualTime};

/// Problem parameters for a prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostInput {
    /// Global array dimension (the paper's arrays are `n × n`).
    pub n: usize,
    /// Number of processors.
    pub p: usize,
    /// Global sparse ratio `s`.
    pub s: f64,
    /// Largest local sparse ratio `s'`.
    pub s_max: f64,
}

impl CostInput {
    /// Input with `s' = s` (uniform sparsity, the common approximation).
    pub fn uniform(n: usize, p: usize, s: f64) -> Self {
        CostInput { n, p, s, s_max: s }
    }
}

/// A predicted cost pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeCost {
    /// Predicted `T_Distribution`.
    pub t_distribution: VirtualTime,
    /// Predicted `T_Compression`.
    pub t_compression: VirtualTime,
}

impl SchemeCost {
    /// `T_Distribution + T_Compression`.
    pub fn t_total(&self) -> VirtualTime {
        self.t_distribution + self.t_compression
    }
}

/// Which partition method a prediction is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMethod {
    /// Row partition `(Block, *)`.
    Row,
    /// Column partition `(*, Block)`.
    Column,
    /// 2-D mesh partition `(Block, Block)` on a `pr × pc` grid.
    Mesh {
        /// Grid rows.
        pr: usize,
        /// Grid columns.
        pc: usize,
    },
}

fn ceil(a: usize, b: usize) -> f64 {
    a.div_ceil(b) as f64
}

/// Predict `T_Distribution` and `T_Compression` for one scheme.
///
/// # Panics
/// Panics if a mesh method's grid does not multiply out to `inp.p`.
pub fn predict(
    scheme: SchemeKind,
    method: PartitionMethod,
    kind: CompressKind,
    inp: &CostInput,
    m: &MachineModel,
) -> SchemeCost {
    let n = inp.n as f64;
    let p = inp.p as f64;
    let (s, sm) = (inp.s, inp.s_max);
    let nnz = s * n * n; // total nonzeros
    let cells = n * n;

    // Per-part geometry: local rows/cols and the per-part pointer length's
    // segment count for each compression method.
    let (lrows, lcols) = match method {
        PartitionMethod::Row => (ceil(inp.n, inp.p), n),
        PartitionMethod::Column => (n, ceil(inp.n, inp.p)),
        PartitionMethod::Mesh { pr, pc } => {
            assert_eq!(pr * pc, inp.p, "mesh grid {pr}x{pc} != p={}", inp.p);
            (ceil(inp.n, pr), ceil(inp.n, pc))
        }
    };
    let lcells = lrows * lcols;
    let nnz_max = sm * lcells; // slowest part's nonzeros
                               // Count/pointer segments per part: rows for CRS, columns for CCS.
    let (segs, _) = kind.orient(lrows, lcols);
    // Does the receiver convert indices? (Cases 3.2.x / 3.3.x.)
    let converts = match (method, kind) {
        (PartitionMethod::Row, CompressKind::Crs) => false,
        (PartitionMethod::Row, CompressKind::Ccs) => true,
        (PartitionMethod::Column, CompressKind::Crs) => true,
        (PartitionMethod::Column, CompressKind::Ccs) => false,
        (PartitionMethod::Mesh { pr, .. }, CompressKind::Ccs) => pr > 1,
        (PartitionMethod::Mesh { pc, .. }, CompressKind::Crs) => pc > 1,
    };
    let conv = if converts { 1.0 } else { 0.0 };
    // SFC strided extraction cost applies to every non-row partition.
    let strided = !matches!(method, PartitionMethod::Row);

    let vt = VirtualTime::from_micros;
    match scheme {
        SchemeKind::Sfc => {
            let mut dist = p * m.t_startup + cells * m.t_data;
            if strided {
                dist += (cells + lcells) * m.t_op;
            }
            let comp = lcells * (1.0 + 3.0 * sm) * m.t_op;
            SchemeCost {
                t_distribution: vt(dist),
                t_compression: vt(comp),
            }
        }
        SchemeKind::Cfs => {
            // Wire and pack: every part's pointer array (segs + 1 entries)
            // plus CO and VL.
            let wire = 2.0 * nnz + p * (segs + 1.0);
            let pack = wire;
            let unpack = (segs + 1.0) + (2.0 + conv) * nnz_max;
            let dist = p * m.t_startup + wire * m.t_data + (pack + unpack) * m.t_op;
            let comp = cells * (1.0 + 3.0 * s) * m.t_op;
            SchemeCost {
                t_distribution: vt(dist),
                t_compression: vt(comp),
            }
        }
        SchemeKind::Ed => {
            // Wire: every part's counts (segs entries) plus the pairs.
            let wire = 2.0 * nnz + p * segs;
            let dist = p * m.t_startup + wire * m.t_data;
            let decode = 1.0 + segs + (2.0 + conv) * nnz_max;
            let comp = (cells * (1.0 + 3.0 * s) + decode) * m.t_op;
            SchemeCost {
                t_distribution: vt(dist),
                t_compression: vt(comp),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressKind::{Ccs, Crs};
    use crate::schemes::SchemeKind::{Cfs, Ed, Sfc};

    fn sp2() -> MachineModel {
        MachineModel::ibm_sp2()
    }

    /// Evaluate the paper's Table 1 expressions literally, for comparison
    /// with our structured `predict`.
    fn table1_literal(scheme: SchemeKind, inp: &CostInput, m: &MachineModel) -> SchemeCost {
        let n = inp.n as f64;
        let p = inp.p as f64;
        let (s, sm) = (inp.s, inp.s_max);
        let np = (inp.n.div_ceil(inp.p)) as f64;
        let vt = VirtualTime::from_micros;
        match scheme {
            Sfc => SchemeCost {
                t_distribution: vt(p * m.t_startup + n * n * m.t_data),
                t_compression: vt(np * n * (1.0 + 3.0 * sm) * m.t_op),
            },
            Cfs => SchemeCost {
                t_distribution: vt(p * m.t_startup
                    + (2.0 * n * n * s + n + p) * m.t_data
                    + (2.0 * n * n * s + np * n * (2.0 * sm + 1.0 / n) + n + p + 1.0) * m.t_op),
                t_compression: vt(n * n * (1.0 + 3.0 * s) * m.t_op),
            },
            Ed => SchemeCost {
                t_distribution: vt(p * m.t_startup + (2.0 * n * n * s + n) * m.t_data),
                t_compression: vt(
                    (n * n * (1.0 + 3.0 * s) + np * n * (2.0 * sm + 1.0 / n) + 1.0) * m.t_op,
                ),
            },
        }
    }

    #[test]
    fn predict_matches_paper_table1_row_crs() {
        // Our structured decomposition must reproduce the paper's printed
        // Table 1 expressions exactly when p divides n.
        for &(n, p) in &[(200, 4), (400, 16), (1600, 32), (96, 8)] {
            let inp = CostInput::uniform(n, p, 0.1);
            for scheme in [Sfc, Cfs, Ed] {
                let ours = predict(scheme, PartitionMethod::Row, Crs, &inp, &sp2());
                let paper = table1_literal(scheme, &inp, &sp2());
                let d = (ours.t_distribution.as_micros() - paper.t_distribution.as_micros()).abs();
                let c = (ours.t_compression.as_micros() - paper.t_compression.as_micros()).abs();
                assert!(d < 1e-6, "{scheme:?} n={n} p={p} dist {d}");
                assert!(c < 1e-6, "{scheme:?} n={n} p={p} comp {c}");
            }
        }
    }

    #[test]
    fn predict_matches_paper_table2_row_ccs() {
        // Table 2 row+CCS: CFS wire = 2n²s + pn + p, ED wire = 2n²s + pn,
        // conversion adds one op per nonzero.
        let inp = CostInput::uniform(400, 4, 0.1);
        let m = sp2();
        let n = 400.0;
        let p = 4.0;
        let s = 0.1;
        let np = 100.0;

        let cfs = predict(Cfs, PartitionMethod::Row, Ccs, &inp, &m);
        let expect_dist = p * m.t_startup
            + (2.0 * n * n * s + p * n + p) * m.t_data
            + (2.0 * n * n * s + p * n + p + np * n * 3.0 * s + n + 1.0) * m.t_op;
        assert!((cfs.t_distribution.as_micros() - expect_dist).abs() < 1e-6);

        let ed = predict(Ed, PartitionMethod::Row, Ccs, &inp, &m);
        let expect_dist = p * m.t_startup + (2.0 * n * n * s + p * n) * m.t_data;
        assert!((ed.t_distribution.as_micros() - expect_dist).abs() < 1e-6);
        let expect_comp = (n * n * (1.0 + 3.0 * s) + np * n * 3.0 * s + n + 1.0) * m.t_op;
        assert!((ed.t_compression.as_micros() - expect_comp).abs() < 1e-6);
    }

    #[test]
    fn remark1_ed_distribution_always_fastest() {
        // Sweep s and machine ratios: ED's T_Distribution ≤ CFS's, and
        // below SFC's whenever s < 0.5.
        for s in [0.01, 0.05, 0.1, 0.2, 0.4] {
            for ratio in [0.25, 1.0, 1.2, 4.0] {
                let m = MachineModel::new(40.0, 0.1 * ratio, 0.1);
                let inp = CostInput::uniform(400, 16, s);
                for (method, kind) in [
                    (PartitionMethod::Row, Crs),
                    (PartitionMethod::Row, Ccs),
                    (PartitionMethod::Column, Crs),
                    (PartitionMethod::Mesh { pr: 4, pc: 4 }, Crs),
                ] {
                    let sfc = predict(Sfc, method, kind, &inp, &m);
                    let cfs = predict(Cfs, method, kind, &inp, &m);
                    let ed = predict(Ed, method, kind, &inp, &m);
                    assert!(
                        ed.t_distribution < cfs.t_distribution,
                        "s={s} ratio={ratio}"
                    );
                    assert!(
                        ed.t_distribution < sfc.t_distribution,
                        "s={s} ratio={ratio}"
                    );
                }
            }
        }
    }

    #[test]
    fn remark3_compression_ordering() {
        let inp = CostInput::uniform(400, 16, 0.1);
        let m = sp2();
        for (method, kind) in [
            (PartitionMethod::Row, Crs),
            (PartitionMethod::Column, Ccs),
            (PartitionMethod::Mesh { pr: 4, pc: 4 }, Crs),
        ] {
            let sfc = predict(Sfc, method, kind, &inp, &m);
            let cfs = predict(Cfs, method, kind, &inp, &m);
            let ed = predict(Ed, method, kind, &inp, &m);
            assert!(sfc.t_compression < cfs.t_compression);
            assert!(cfs.t_compression < ed.t_compression);
        }
    }

    #[test]
    fn remark4_ed_beats_cfs_overall() {
        for s in [0.01, 0.1, 0.3] {
            for ratio in [0.25, 1.2, 8.0] {
                let m = MachineModel::new(40.0, 0.1 * ratio, 0.1);
                let inp = CostInput::uniform(800, 16, s);
                for method in [
                    PartitionMethod::Row,
                    PartitionMethod::Column,
                    PartitionMethod::Mesh { pr: 4, pc: 4 },
                ] {
                    for kind in [Crs, Ccs] {
                        let cfs = predict(Cfs, method, kind, &inp, &m);
                        let ed = predict(Ed, method, kind, &inp, &m);
                        assert!(ed.t_total() < cfs.t_total(), "s={s} ratio={ratio}");
                    }
                }
            }
        }
    }

    #[test]
    fn paper_section5_overall_winners() {
        // §5.1: on the SP2 (ratio 1.2, s = 0.1) SFC wins *overall* under
        // the row partition; §5.2/5.3: CFS and ED win under column and
        // mesh partitions.
        let m = sp2();
        let inp = CostInput::uniform(2000, 4, 0.1);

        let row = PartitionMethod::Row;
        let sfc = predict(Sfc, row, Crs, &inp, &m);
        let cfs = predict(Cfs, row, Crs, &inp, &m);
        let ed = predict(Ed, row, Crs, &inp, &m);
        assert!(sfc.t_total() < cfs.t_total());
        assert!(sfc.t_total() < ed.t_total());

        for method in [
            PartitionMethod::Column,
            PartitionMethod::Mesh { pr: 2, pc: 2 },
        ] {
            let sfc = predict(Sfc, method, Crs, &inp, &m);
            let cfs = predict(Cfs, method, Crs, &inp, &m);
            let ed = predict(Ed, method, Crs, &inp, &m);
            assert!(ed.t_total() < cfs.t_total(), "{method:?}");
            assert!(cfs.t_total() < sfc.t_total(), "{method:?}");
        }
    }

    #[test]
    #[should_panic(expected = "mesh grid")]
    fn bad_mesh_grid_panics() {
        let inp = CostInput::uniform(100, 4, 0.1);
        let _ = predict(
            Sfc,
            PartitionMethod::Mesh { pr: 3, pc: 2 },
            Crs,
            &inp,
            &sp2(),
        );
    }
}
