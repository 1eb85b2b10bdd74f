//! The benchmark's workloads and their seeded inputs.
//!
//! Why each workload exists, and which layer it should move, is recorded
//! in `perfbench/README.md`.

use sparsedist_core::compress::Coo;
use sparsedist_core::schemes::SchemeConfig;
use sparsedist_core::wire::{CodecChoice, WireFormat};
use sparsedist_gen::patterns::five_point_laplacian;
use sparsedist_gen::SparseRandom;

/// Names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["paper-row", "scale-v3", "cg-laplacian"];

/// The global array a workload distributes.
#[derive(Debug, Clone, Copy)]
pub enum Matrix {
    /// Uniform random `n × n` with exactly `round(s·n²)` nonzeros.
    Uniform { n: usize, s: f64 },
    /// Five-point Laplacian on a `k × k` grid (the same for every seed;
    /// the seed picks the right-hand side).
    Laplacian { k: usize },
}

impl Matrix {
    pub fn n(self) -> usize {
        match self {
            Matrix::Uniform { n, .. } => n,
            Matrix::Laplacian { k } => k * k,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub matrix: Matrix,
    /// Ranks of the `RowBlock` partition and the machine.
    pub procs: usize,
    /// Force the event-loop engine (it is also what `auto` picks above
    /// 1024 ranks).
    pub event_loop: bool,
    pub config: SchemeConfig,
    /// Run CG on ED's distributed state after distribution.
    pub solve: bool,
}

/// The workload called `name`; `tiny` shrinks it for the smoke test.
pub fn spec(name: &str, tiny: bool) -> Option<Spec> {
    let pick = |full: usize, small: usize| if tiny { small } else { full };
    let uniform = Matrix::Uniform {
        n: pick(4096, 64),
        s: 0.1,
    };
    Some(match name {
        "paper-row" => Spec {
            name: NAMES[0],
            matrix: uniform,
            procs: pick(16, 4),
            event_loop: false,
            config: SchemeConfig::default(),
            solve: false,
        },
        "scale-v3" => Spec {
            name: NAMES[1],
            matrix: uniform,
            procs: pick(16384, 256),
            event_loop: true,
            config: SchemeConfig {
                wire: WireFormat::V3,
                codec: CodecChoice::Packed,
                ..SchemeConfig::default()
            },
            solve: false,
        },
        "cg-laplacian" => Spec {
            name: NAMES[2],
            matrix: Matrix::Laplacian { k: pick(64, 8) },
            procs: pick(16, 4),
            event_loop: false,
            config: SchemeConfig::default(),
            solve: true,
        },
        _ => return None,
    })
}

/// The input array of `matrix` for `seed`.
///
/// Uniform arrays use the scale bench's generator seed `0xC0FFEE ^ n`
/// offset by `seed`, so seed 0 reproduces `BENCH_scale.json`'s array.
pub fn generate(matrix: Matrix, seed: u64) -> Coo {
    match matrix {
        Matrix::Uniform { n, s } => {
            let a = SparseRandom::new(n, n)
                .sparse_ratio(s)
                .seed((0xC0FFEE ^ n as u64).wrapping_add(seed))
                .generate();
            Coo::from_dense(&a)
        }
        Matrix::Laplacian { k } => Coo::from_dense(&five_point_laplacian(k)),
    }
}

/// The seeded right-hand side of the solve: SplitMix64 draws mapped to
/// `[-1, 1)`.
pub fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed ^ 0xB0B5_EED5;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}
