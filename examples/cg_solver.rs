//! Conjugate-gradient solver built on the tuned SpMV — the kind of iterative solver
//! (PETSc/Trilinos style) whose inner loop the paper's kernel dominates.
//!
//! Solves `A x = b` for a symmetric positive-definite FEM-style matrix using the
//! fully tuned, thread-parallel SpMV, and reports convergence and throughput.
//!
//! Run with:
//! ```text
//! cargo run --release --example cg_solver
//! ```

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_core::solver::kernels::dot;
use spmv_multicore::spmv_parallel::FusedCg;
use std::time::Instant;

/// Build a symmetric positive-definite matrix: Aᵀ·A of a FEM-style matrix plus a
/// diagonal shift (guaranteed SPD, keeps the FEM sparsity character).
fn spd_matrix() -> CsrMatrix {
    let coo = SuiteMatrix::FemShip.generate(Scale::Tiny);
    let a = CsrMatrix::from_coo(&coo);
    // Form B = A + Aᵀ + shift·I, which is symmetric and diagonally dominated.
    let at = a.transpose();
    let mut sym = CooMatrix::new(a.nrows(), a.ncols());
    for (r, c, v) in a.iter() {
        sym.push(r, c, v);
    }
    for (r, c, v) in at.iter() {
        sym.push(r, c, v);
    }
    let shift = 4.0 * (1.0 + a.nnz() as f64 / a.nrows() as f64);
    for i in 0..a.nrows() {
        sym.push(i, i, shift);
    }
    CsrMatrix::from_coo(&sym)
}

fn main() {
    let a = spd_matrix();
    let n = a.nrows();
    println!("CG on a {}x{} SPD system with {} nonzeros", n, n, a.nnz());

    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let engine = SpmvEngine::tuned(&a, threads, &TuningConfig::full()).expect("fresh plan fits");

    // Right-hand side chosen so the exact solution is all-ones.
    let ones = vec![1.0; n];
    let b = a.spmv_alloc(&ones);

    // Fused conjugate gradient: one engine epoch per batch of iterations, the
    // solver state resident in the workers' slabs.
    let max_iters = 500;
    let tol = 1e-10 * dot(&b, &b).sqrt();
    let start = Instant::now();
    let mut cg = FusedCg::new(engine, &b);
    let iters = cg.run(tol, max_iters);
    let elapsed = start.elapsed().as_secs_f64();

    if cg.residual_norm() <= tol {
        println!("converged in {iters} iterations");
    } else {
        println!("did not converge within {max_iters} iterations");
    }
    let x = cg.solution();
    let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
    println!("max |x_i - 1| = {err:.2e}");
    println!(
        "{} SpMV calls in {:.3} s  ({:.2} Gflop/s of SpMV work, {} threads)",
        iters,
        elapsed,
        (2 * a.nnz() as u64 * iters) as f64 / elapsed / 1e9,
        threads
    );
    assert!(err < 1e-6, "CG failed to recover the expected solution");
}
