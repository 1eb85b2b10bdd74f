//! The user's path through the library: what `sparsedist distribute`
//! does, in the same order, followed by a CG solve where the workload has
//! one. The untraced and traced runs both execute this code; only the
//! tracer differs.

use crate::spans::Tracer;
use crate::workload::Spec;
use sparsedist_core::compress::{CompressKind, Coo, Crs};
use sparsedist_core::dense::Dense2D;
use sparsedist_core::opcount::OpCounter;
use sparsedist_core::partition::RowBlock;
use sparsedist_core::schemes::{run_scheme_with, SchemeKind, SchemeRun};
use sparsedist_gen::matrixmarket;
use sparsedist_multicomputer::{EngineKind, MachineModel, Multicomputer, PhaseLedger};
use sparsedist_ops::solve::{conjugate_gradient, Stop};
use sparsedist_ops::spmv::crs_spmv;
use std::path::PathBuf;
use std::time::Instant;

/// CG stops when `‖b − A·x‖₂` falls to this.
pub const TOL: f64 = 1e-8;

/// The generated input, as the program receives it.
pub struct Input {
    pub path: PathBuf,
    pub nnz: usize,
    pub file_bytes: u64,
    /// Right-hand side of the solve (empty without one).
    pub b: Vec<f64>,
}

/// Messages, logical elements and bytes put on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Wire {
    pub messages: u64,
    pub elements: u64,
    pub bytes: u64,
}

impl Wire {
    pub fn add(&mut self, other: Wire) {
        self.messages += other.messages;
        self.elements += other.elements;
        self.bytes += other.bytes;
    }

    /// The totals of every rank's ledger.
    pub fn of_ledgers(ledgers: &[PhaseLedger]) -> Wire {
        let mut total = Wire::default();
        for l in ledgers {
            let w = l.wire();
            total.add(Wire {
                messages: w.messages,
                elements: w.elements,
                bytes: w.bytes,
            });
        }
        total
    }
}

/// What one scheme run produced, in virtual time and logical wire units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeSummary {
    pub scheme: SchemeKind,
    pub makespan_ms: f64,
    pub t_distribution_ms: f64,
    pub t_compression_ms: f64,
    pub wire: Wire,
}

/// The deterministic outputs a pass must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Digest {
    pub schemes: Vec<SchemeSummary>,
    pub solve_iters: Option<usize>,
}

impl Digest {
    pub fn wire_bytes(&self) -> u64 {
        self.schemes.iter().map(|s| s.wire.bytes).sum()
    }
}

/// The loaded state, kept for the traced run's stage replay.
pub struct State {
    pub a: Dense2D,
    pub part: RowBlock,
    pub machine: Multicomputer,
}

#[derive(Default)]
pub struct PathOut {
    pub setup_s: f64,
    pub distribute_s: f64,
    pub verify_s: f64,
    pub solve_s: f64,
    pub digest: Digest,
    pub attempted: u64,
    pub failed: u64,
    pub state: Option<State>,
}

impl PathOut {
    fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        eprintln!("perfbench: {what}: {err}");
        self.failed += 1;
    }
}

/// The lower-case scheme name used in span tags and metric names.
pub fn label(scheme: SchemeKind) -> &'static str {
    match scheme {
        SchemeKind::Sfc => "sfc",
        SchemeKind::Cfs => "cfs",
        SchemeKind::Ed => "ed",
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn summarize(run: &SchemeRun) -> SchemeSummary {
    SchemeSummary {
        scheme: run.scheme,
        makespan_ms: run.t_makespan().as_millis(),
        t_distribution_ms: run.t_distribution().as_millis(),
        t_compression_ms: run.t_compression().as_millis(),
        wire: Wire::of_ledgers(&run.ledgers),
    }
}

/// Parse, validate and densify the input, then build the partition and the
/// machine: `.mtx` on disk to in-memory state.
fn load(spec: &Spec, input: &Input, tr: &mut Tracer) -> Result<(Coo, State), String> {
    let coo = tr
        .leaf("gen.matrixmarket.read_file", "", || {
            matrixmarket::read_file(&input.path)
        })
        .map_err(|e| format!("{}: {e}", input.path.display()))?;
    tr.leaf("core.compress.validate", "", || coo.validate())
        .map_err(|e| e.to_string())?;
    let n = spec.matrix.n();
    if (coo.rows(), coo.cols(), coo.nnz()) != (n, n, input.nnz) {
        return Err(format!(
            "read {}x{} with {} nonzeros, generated {n}x{n} with {}",
            coo.rows(),
            coo.cols(),
            coo.nnz(),
            input.nnz
        ));
    }
    let a = tr.leaf("core.compress.to_dense", "", || coo.to_dense());
    let part = tr.leaf("core.partition.new", "", || RowBlock::new(n, n, spec.procs));
    let machine = tr.leaf("multicomputer.new", "", || {
        let m = Multicomputer::virtual_machine(spec.procs, MachineModel::ibm_sp2());
        if spec.event_loop {
            m.with_engine(EngineKind::EventLoop)
        } else {
            m
        }
    });
    Ok((coo, State { a, part, machine }))
}

/// Serial residual `‖b − A·x‖₂` over the whole matrix.
pub fn residual(coo: &Coo, b: &[f64], x: &[f64]) -> f64 {
    let crs = Crs::from_triplets(coo.rows(), coo.cols(), coo.entries(), &mut OpCounter::new());
    let ax = crs_spmv(&crs, x);
    b.iter()
        .zip(&ax)
        .map(|(bi, yi)| (bi - yi) * (bi - yi))
        .sum::<f64>()
        .sqrt()
}

/// One pass of the user's path. Failures are counted, never fatal.
pub fn run(spec: &Spec, input: &Input, tr: &mut Tracer) -> PathOut {
    let mut out = PathOut::default();
    let ops_after_setup = SchemeKind::ALL.len() as u64 + u64::from(spec.solve);

    let t = Instant::now();
    let setup = tr.open("setup", "");
    let loaded = load(spec, input, tr);
    tr.close(setup);
    out.setup_s = secs(t);
    out.attempted += 1 + ops_after_setup;
    let (coo, state) = match loaded {
        Ok(x) => x,
        Err(e) => {
            out.fail("setup", e);
            out.failed += ops_after_setup;
            return out;
        }
    };

    let mut ed_run = None;
    for scheme in SchemeKind::ALL {
        let tag = label(scheme);
        let t = Instant::now();
        let run = tr.leaf("core.schemes.run_scheme_with", tag, || {
            run_scheme_with(
                scheme,
                &state.machine,
                &state.a,
                &state.part,
                CompressKind::Crs,
                spec.config,
            )
        });
        out.distribute_s += secs(t);
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                out.fail(tag, e);
                continue;
            }
        };
        let t = Instant::now();
        let same = tr.leaf("core.schemes.reassemble", tag, || {
            run.reassemble(&state.part) == state.a
        });
        out.verify_s += secs(t);
        if !same {
            out.fail(tag, "distributed state does not reassemble the input");
        }
        out.digest.schemes.push(summarize(&run));
        if scheme == SchemeKind::Ed {
            ed_run = Some(run);
        }
    }

    if spec.solve {
        let Some(run) = ed_run else {
            out.fail("solve", "no ED state to solve on");
            return out;
        };
        let n = spec.matrix.n();
        let t = Instant::now();
        let sol = tr.leaf("ops.solve.conjugate_gradient", "", || {
            conjugate_gradient(&state.machine, &run, &state.part, &input.b, TOL, 10 * n)
        });
        out.solve_s = secs(t);
        match sol {
            Ok(s) => match s.stop {
                Stop::Converged(iters) => {
                    out.digest.solve_iters = Some(iters);
                    let r = residual(&coo, &input.b, &s.x);
                    if r > TOL {
                        out.fail("solve", format!("serial residual {r:e} > {TOL:e}"));
                    }
                }
                Stop::MaxIters(r) => out.fail("solve", format!("no convergence, residual {r:e}")),
            },
            Err(e) => out.fail("solve", e),
        }
    }
    out.state = Some(state);
    out
}
