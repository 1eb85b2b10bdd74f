//! Iterative solvers over distributed sparse arrays.
//!
//! The point of distributing a sparse system (paper §1: finite-element
//! methods, climate modeling) is to *solve* it afterwards. Each solver
//! plans one halo exchange ([`crate::spmv::SpmvPlan`]) and reuses it on
//! every iteration, so every matrix–vector product runs on the compressed
//! local arrays a scheme run left behind, moves only the `x` entries
//! neighbouring ranks need, and charges its communication to the
//! machine's ledgers. Under a row-family partition each product equals
//! the serial CRS product bit for bit, so CG takes the same iterates as
//! serial CG.

use crate::spmv::SpmvPlan;
use sparsedist_core::error::SparsedistError;
use sparsedist_core::partition::Partition;
use sparsedist_core::schemes::SchemeRun;
use sparsedist_multicomputer::Multicomputer;

/// Why a solver stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// Residual norm fell below the tolerance after this many iterations.
    Converged(usize),
    /// Iteration limit reached; the final residual norm is reported.
    MaxIters(f64),
}

/// Result of a solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The (approximate) solution vector.
    pub x: Vec<f64>,
    /// Termination reason.
    pub stop: Stop,
    /// Final residual 2-norm `‖b − A·x‖₂`.
    pub residual: f64,
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Jacobi iteration `x ← x + D⁻¹(b − A·x)` on the distributed array.
///
/// # Errors
/// Propagates communication failures from the distributed products when a
/// fault plan is installed.
///
/// # Panics
/// Panics if the array is not square, `b` has the wrong length, or a
/// diagonal entry is zero.
pub fn jacobi(
    machine: &Multicomputer,
    run: &SchemeRun,
    part: &dyn Partition,
    diag: &[f64],
    b: &[f64],
    tol: f64,
    max_iters: usize,
) -> Result<Solution, SparsedistError> {
    let (grows, gcols) = part.global_shape();
    assert_eq!(grows, gcols, "jacobi needs a square system");
    assert_eq!(b.len(), grows, "b length {} != {grows}", b.len());
    assert_eq!(diag.len(), grows, "diag length {} != {grows}", diag.len());
    assert!(diag.iter().all(|&d| d != 0.0), "zero diagonal entry");

    let plan = SpmvPlan::new(&run.locals, part);
    let mut x = vec![0.0; grows];
    for it in 0..max_iters {
        let ax = plan.apply(machine, &x)?;
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, yi)| bi - yi).collect();
        let rn = norm2(&r);
        if rn <= tol {
            return Ok(Solution {
                x,
                stop: Stop::Converged(it),
                residual: rn,
            });
        }
        for i in 0..grows {
            x[i] += r[i] / diag[i];
        }
    }
    let ax = plan.apply(machine, &x)?;
    let rn = norm2(
        &b.iter()
            .zip(&ax)
            .map(|(bi, yi)| bi - yi)
            .collect::<Vec<_>>(),
    );
    Ok(Solution {
        x,
        stop: Stop::MaxIters(rn),
        residual: rn,
    })
}

/// Conjugate gradient for symmetric positive-definite systems, with every
/// `A·p` product running distributed.
///
/// # Errors
/// Propagates communication failures from the distributed products when a
/// fault plan is installed.
///
/// # Panics
/// Panics if the array is not square or `b` has the wrong length.
pub fn conjugate_gradient(
    machine: &Multicomputer,
    run: &SchemeRun,
    part: &dyn Partition,
    b: &[f64],
    tol: f64,
    max_iters: usize,
) -> Result<Solution, SparsedistError> {
    let (grows, gcols) = part.global_shape();
    assert_eq!(grows, gcols, "cg needs a square system");
    assert_eq!(b.len(), grows, "b length {} != {grows}", b.len());

    let plan = SpmvPlan::new(&run.locals, part);
    let mut x = vec![0.0; grows];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rr = dot(&r, &r);
    if rr.sqrt() <= tol {
        return Ok(Solution {
            x,
            stop: Stop::Converged(0),
            residual: rr.sqrt(),
        });
    }
    for it in 0..max_iters {
        let ap = plan.apply(machine, &p)?;
        let pap = dot(&p, &ap);
        assert!(pap > 0.0, "matrix is not positive definite (p·Ap = {pap})");
        let alpha = rr / pap;
        for i in 0..grows {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_next = dot(&r, &r);
        if rr_next.sqrt() <= tol {
            return Ok(Solution {
                x,
                stop: Stop::Converged(it + 1),
                residual: rr_next.sqrt(),
            });
        }
        let beta = rr_next / rr;
        for i in 0..grows {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_next;
    }
    Ok(Solution {
        x,
        stop: Stop::MaxIters(rr.sqrt()),
        residual: rr.sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::dense_spmv;
    use sparsedist_core::compress::CompressKind;
    use sparsedist_core::partition::{Mesh2D, RowBlock};
    use sparsedist_core::schemes::{run_scheme, SchemeKind};
    use sparsedist_gen::patterns::five_point_laplacian;
    use sparsedist_multicomputer::MachineModel;

    fn setup(
        k: usize,
        p: usize,
    ) -> (
        Multicomputer,
        SchemeRun,
        RowBlock,
        sparsedist_core::dense::Dense2D,
    ) {
        let a = five_point_laplacian(k);
        let n = a.rows();
        let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
        let part = RowBlock::new(n, n, p);
        let run = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs).unwrap();
        (machine, run, part, a)
    }

    #[test]
    fn cg_solves_laplacian() {
        let (machine, run, part, a) = setup(8, 4); // 64×64 SPD system
        let n = a.rows();
        let b = vec![1.0; n];
        let sol = conjugate_gradient(&machine, &run, &part, &b, 1e-10, 500).unwrap();
        assert!(matches!(sol.stop, Stop::Converged(_)), "{:?}", sol.stop);
        // Verify against a dense residual.
        let ax = dense_spmv(&a, &sol.x);
        let rn = ax
            .iter()
            .zip(&b)
            .map(|(y, bi)| (y - bi).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(rn < 1e-8, "residual {rn}");
    }

    #[test]
    fn cg_converges_in_at_most_n_iterations() {
        let (machine, run, part, a) = setup(5, 4); // 25×25
        let b: Vec<f64> = (0..a.rows()).map(|i| (i % 3) as f64).collect();
        let sol = conjugate_gradient(&machine, &run, &part, &b, 1e-12, a.rows() + 1).unwrap();
        match sol.stop {
            Stop::Converged(it) => assert!(it <= a.rows(), "took {it}"),
            other => panic!("did not converge: {other:?}"),
        }
    }

    #[test]
    fn jacobi_solves_diagonally_dominant() {
        let (machine, run, part, a) = setup(6, 4);
        let n = a.rows();
        let diag: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
        let b = vec![0.5; n];
        let sol = jacobi(&machine, &run, &part, &diag, &b, 1e-8, 5000).unwrap();
        assert!(matches!(sol.stop, Stop::Converged(_)), "{:?}", sol.stop);
        assert!(sol.residual < 1e-8);
    }

    #[test]
    fn cg_and_jacobi_agree() {
        let (machine, run, part, a) = setup(6, 4);
        let n = a.rows();
        let diag: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let cg = conjugate_gradient(&machine, &run, &part, &b, 1e-11, 1000).unwrap();
        let ja = jacobi(&machine, &run, &part, &diag, &b, 1e-11, 20000).unwrap();
        let diff =
            cg.x.iter()
                .zip(&ja.x)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0f64, f64::max);
        assert!(diff < 1e-7, "solvers disagree by {diff}");
    }

    #[test]
    fn solve_works_under_mesh_partition() {
        let a = five_point_laplacian(6);
        let n = a.rows();
        let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
        let part = Mesh2D::new(n, n, 2, 2);
        let run = run_scheme(SchemeKind::Cfs, &machine, &a, &part, CompressKind::Ccs).unwrap();
        let b = vec![1.0; n];
        let sol = conjugate_gradient(&machine, &run, &part, &b, 1e-10, 500).unwrap();
        assert!(matches!(sol.stop, Stop::Converged(_)));
    }

    #[test]
    fn max_iters_reports_residual() {
        let (machine, run, part, _) = setup(8, 4);
        let b = vec![1.0; 64];
        let sol = conjugate_gradient(&machine, &run, &part, &b, 1e-30, 2).unwrap();
        assert!(matches!(sol.stop, Stop::MaxIters(_)));
        assert!(sol.residual > 0.0);
    }
}
