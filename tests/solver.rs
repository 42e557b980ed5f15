//! Integration pillars of the fused in-engine iterative solvers:
//!
//! 1. **Bit-identity** — the engine's fused CG epoch matches the serial
//!    [`SerialCg`] reference bit for bit on the same plan, across thread
//!    counts {1, 2, nrows+3}, forced index widths {u16, u32}, and the plain
//!    usize-width CSR path (a client-side CG over `CsrMatrix<usize>` in the
//!    same accumulation class).
//! 2. **Convergence** — fused CG solves SPD systems to the known solution
//!    (recomputed true residual, not just the recurrence), fused power
//!    iteration finds dominant eigenvalues, on general and symmetric plans.
//! 3. **Retune under iteration** — hot-swapping the serving engine mid-solve
//!    (including across the general/symmetric boundary) carries the resident
//!    state and keeps converging.

use spmv_core::formats::IndexWidth;
use spmv_core::solver::{kernels, SerialCg, SerialPower};
use spmv_core::tuning::prepared::PreparedMatrix;
use spmv_core::{CsrMatrix, SpMv, TunePlan, TuningConfig};
use spmv_parallel::{FusedCg, FusedPower, SpmvEngine};
use spmv_testutil::{assert_bit_identical, assert_solved, spd_system};

fn force_width(plan: &mut TunePlan, width: IndexWidth) {
    for t in &mut plan.threads {
        for d in &mut t.decisions {
            d.choice.width = width;
        }
    }
}

/// Pillar 1: fused vs serial bit-identity across thread counts and forced
/// index widths, on general full-config plans.
#[test]
fn fused_cg_bit_identical_across_threads_and_widths() {
    let n = 60;
    let sys = spd_system(n, 7);
    for width in [IndexWidth::U16, IndexWidth::U32] {
        for nthreads in [1, 2, n + 3] {
            let mut plan = TunePlan::new(&sys.matrix, nthreads, &TuningConfig::full());
            force_width(&mut plan, width);
            let prepared = PreparedMatrix::materialize(&sys.matrix, &plan).unwrap();
            let mut serial = SerialCg::new(prepared, &sys.rhs).unwrap();
            let engine = SpmvEngine::from_plan(&sys.matrix, &plan).unwrap();
            let mut fused = FusedCg::new(engine, &sys.rhs);
            assert_eq!(
                serial.rr().to_bits(),
                fused.rr().to_bits(),
                "initial rr (threads={nthreads}, width={width:?})"
            );
            for it in 0..30 {
                serial.step();
                fused.step();
                assert_eq!(
                    serial.rr().to_bits(),
                    fused.rr().to_bits(),
                    "rr at iteration {it} (threads={nthreads}, width={width:?})"
                );
            }
            assert_bit_identical(
                serial.solution(),
                fused.solution(),
                &format!("x after 30 steps (threads={nthreads}, width={width:?})"),
            );
            assert_bit_identical(
                serial.residual(),
                fused.state().1,
                &format!("r after 30 steps (threads={nthreads}, width={width:?})"),
            );
        }
    }
}

/// Pillar 1, usize leg: a client-side CG over the plain `CsrMatrix<usize>`
/// (uncompressed indices, same per-row accumulation order and the same fused
/// BLAS-1 kernels over one full-length slice) matches the 1-thread fused
/// engine bit for bit — index width never changes the arithmetic.
#[test]
fn fused_cg_bit_identical_to_usize_width_client_cg() {
    let n = 47;
    let sys = spd_system(n, 9);
    let plan = TunePlan::new(&sys.matrix, 1, &TuningConfig::naive());
    let engine = SpmvEngine::from_plan(&sys.matrix, &plan).unwrap();
    let mut fused = FusedCg::new(engine, &sys.rhs);

    // One-slice client CG at usize width.
    let mut x = vec![0.0; n];
    let mut r = sys.rhs.clone();
    let mut p = sys.rhs.clone();
    let mut w = vec![0.0; n];
    let mut rr = kernels::dot(&r, &r);
    assert_eq!(rr.to_bits(), fused.rr().to_bits(), "initial rr");
    for it in 0..30 {
        w.fill(0.0);
        sys.matrix.spmv(&p, &mut w);
        let alpha = rr / kernels::dot(&p, &w);
        let rr_new = kernels::cg_update(alpha, &p, &w, &mut x, &mut r);
        let beta = rr_new / rr;
        kernels::xpby(&r, beta, &mut p);
        rr = rr_new;
        fused.step();
        assert_eq!(rr.to_bits(), fused.rr().to_bits(), "rr at iteration {it}");
    }
    assert_bit_identical(&x, fused.solution(), "usize-width client CG iterate");
}

/// Pillar 1 on symmetric storage: the scratch-reduction apply path stays
/// bit-identical to the symmetric serial reference at every thread count.
#[test]
fn fused_cg_bit_identical_on_symmetric_plans() {
    let n = 44;
    let sys = spd_system(n, 13);
    let config = TuningConfig::full();
    for nthreads in [1, 2, 5, n + 3] {
        let plan = TunePlan::new_symmetric(&sys.matrix, nthreads, &config).unwrap();
        let prepared = PreparedMatrix::materialize(&sys.matrix, &plan).unwrap();
        let mut serial = SerialCg::new(prepared, &sys.rhs).unwrap();
        let engine = SpmvEngine::from_plan(&sys.matrix, &plan).unwrap();
        let mut fused = FusedCg::new(engine, &sys.rhs);
        for it in 0..25 {
            serial.step();
            fused.step();
            assert_eq!(
                serial.rr().to_bits(),
                fused.rr().to_bits(),
                "rr at iteration {it} (threads={nthreads})"
            );
        }
    }
}

/// Pillar 2: fused CG drives the recomputed true residual (and the error
/// against the known solution) to tolerance on general and symmetric plans.
#[test]
fn fused_cg_converges_to_known_solution() {
    let n = 96;
    let sys = spd_system(n, 21);
    let general = TuningConfig {
        exploit_symmetry: false,
        ..TuningConfig::full()
    };
    let plans = [
        ("general", TunePlan::new(&sys.matrix, 4, &general)),
        (
            "symmetric",
            TunePlan::new_symmetric(&sys.matrix, 4, &TuningConfig::full()).unwrap(),
        ),
    ];
    for (label, plan) in plans {
        let engine = SpmvEngine::from_plan(&sys.matrix, &plan).unwrap();
        let mut cg = FusedCg::new(engine, &sys.rhs);
        cg.run(1e-11, 600);
        assert!(
            cg.residual_norm() <= 1e-11,
            "{label}: no convergence, rr = {}",
            cg.rr()
        );
        assert_solved(&sys, cg.solution(), 1e-8, label);
        assert!(cg.iterations() > 0 && cg.iterations() < 600, "{label}");
    }
}

/// Pillar 2: fused power iteration matches the serial reference bitwise and
/// finds the dominant eigenvalue of a diagonal matrix, on symmetric and
/// general plans.
#[test]
fn fused_power_matches_serial_and_converges() {
    use spmv_core::formats::CooMatrix;
    let n = 32;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0 + i as f64);
    }
    let csr = CsrMatrix::from_coo(&coo);
    let v0 = vec![1.0; n];
    let general = TuningConfig {
        exploit_symmetry: false,
        ..TuningConfig::full()
    };
    for (symmetric, nthreads) in [true, false]
        .into_iter()
        .flat_map(|s| [1, 3, n + 3].map(|t| (s, t)))
    {
        let plan = if symmetric {
            TunePlan::new_symmetric(&csr, nthreads, &TuningConfig::full()).unwrap()
        } else {
            TunePlan::new(&csr, nthreads, &general)
        };
        assert_eq!(plan.symmetric, symmetric);
        let prepared = PreparedMatrix::materialize(&csr, &plan).unwrap();
        let mut serial = SerialPower::new(prepared, &v0).unwrap();
        let engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
        let mut fused = FusedPower::new(engine, &v0);
        let mut lambda = 0.0;
        for it in 0..250 {
            let s = serial.step();
            lambda = fused.step();
            assert_eq!(
                s.to_bits(),
                lambda.to_bits(),
                "lambda at iteration {it} (threads={nthreads}, sym={})",
                plan.symmetric
            );
        }
        assert!(
            (lambda - n as f64).abs() < 1e-6,
            "lambda={lambda} (threads={nthreads}, sym={})",
            plan.symmetric
        );
    }
}

/// Pillar 3: hot-swapping engines mid-solve — across thread counts and across
/// the general/symmetric plan boundary — carries the resident state and
/// converges to the known solution.
#[test]
fn retune_under_iteration_converges() {
    let n = 72;
    let sys = spd_system(n, 33);
    let general = TuningConfig {
        exploit_symmetry: false,
        ..TuningConfig::full()
    };
    let plan_a = TunePlan::new(&sys.matrix, 2, &general);
    let engine = SpmvEngine::from_plan(&sys.matrix, &plan_a).unwrap();
    let mut cg = FusedCg::new(engine, &sys.rhs);
    for _ in 0..5 {
        cg.step();
    }
    // General → symmetric, more threads.
    let plan_b = TunePlan::new_symmetric(&sys.matrix, 6, &TuningConfig::full()).unwrap();
    let old = cg.swap_engine(SpmvEngine::from_plan(&sys.matrix, &plan_b).unwrap());
    drop(old);
    for _ in 0..5 {
        cg.step();
    }
    // Symmetric → general, fewer threads.
    let plan_c = TunePlan::new(&sys.matrix, 3, &general);
    let old = cg.swap_engine(SpmvEngine::from_plan(&sys.matrix, &plan_c).unwrap());
    drop(old);
    cg.run(1e-11, 600);
    assert_solved(&sys, cg.solution(), 1e-8, "after two mid-solve retunes");
}
