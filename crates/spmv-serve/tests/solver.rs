//! `SolverSession` over a served matrix: convergence, batch-of-iterations
//! equivalence, resync after a retune, validation. Public API only (see
//! `tests/batcher.rs`).

use spmv_core::tuning::TuningConfig;
use spmv_serve::{MatrixRegistry, ServeError};
use spmv_testutil::{assert_solved, spd_system};

fn registry(nthreads: usize) -> MatrixRegistry {
    MatrixRegistry::new(nthreads, TuningConfig::full())
}

#[test]
fn session_converges_to_known_solution() {
    let sys = spd_system(80, 5);
    let reg = registry(4);
    reg.insert("spd", &sys.matrix).unwrap();
    let mut session = reg.solver_session("spd", &sys.rhs).unwrap();
    let ran = session.solve(1e-11, 600).unwrap();
    assert!(ran > 0 && ran < 600, "ran {ran} iterations");
    assert!(session.residual_norm() <= 1e-11);
    assert_solved(&sys, &session.extract(), 1e-8, "registry session");
    assert_eq!(session.resyncs(), 0);
}

#[test]
fn session_iterate_batches_match_one_shot_run() {
    let sys = spd_system(48, 11);
    let reg = registry(3);
    let served = reg.insert("spd", &sys.matrix).unwrap();
    let mut batched = served.solver_session(&sys.rhs).unwrap();
    let mut oneshot = served.solver_session(&sys.rhs).unwrap();
    for _ in 0..6 {
        batched.iterate(5).unwrap();
    }
    oneshot.iterate(30).unwrap();
    assert_eq!(batched.iterations(), oneshot.iterations());
    assert_eq!(batched.rr().to_bits(), oneshot.rr().to_bits());
    assert_eq!(
        batched.solution(),
        oneshot.solution(),
        "same plan, same step count → bit-identical iterate"
    );
}

#[test]
fn session_resyncs_after_retune_and_converges() {
    let sys = spd_system(64, 17);
    // Insert on a deliberately weak plan so the retune below changes it.
    let reg = MatrixRegistry::new(4, TuningConfig::naive());
    reg.insert("spd", &sys.matrix).unwrap();
    let mut session = reg.solver_session("spd", &sys.rhs).unwrap();
    session.iterate(5).unwrap();
    assert_eq!(session.resyncs(), 0);

    // Registry-side hot swap: the serving engine moves to a new plan.
    let served = reg.get("spd").unwrap();
    let better = spmv_core::TunePlan::new(&sys.matrix, 4, &TuningConfig::full());
    served.swap_plan(better).unwrap();
    assert_eq!(served.retune_count(), 1);

    // The session notices on its next batch, swaps mid-solve, and the
    // carried state still converges to the true solution.
    session.iterate(5).unwrap();
    assert_eq!(session.resyncs(), 1);
    assert!(session.iterations() >= 10);
    session.solve(1e-11, 600).unwrap();
    assert_solved(&sys, &session.extract(), 1e-8, "after mid-session retune");
    // No further swaps once the plan is stable.
    session.iterate(1).unwrap();
    assert_eq!(session.resyncs(), 1);
}

#[test]
fn session_validation_errors() {
    let sys = spd_system(12, 3);
    let reg = registry(2);
    reg.insert("spd", &sys.matrix).unwrap();
    assert!(matches!(
        reg.solver_session("nope", &sys.rhs),
        Err(ServeError::UnknownMatrix(_))
    ));
    assert!(matches!(
        reg.solver_session("spd", &sys.rhs[..5]),
        Err(ServeError::DimensionMismatch {
            expected: 12,
            found: 5
        })
    ));
    let rect = spmv_core::CsrMatrix::from_coo(
        &spmv_core::formats::CooMatrix::from_triplets(2, 3, vec![(0, 0, 1.0)]).unwrap(),
    );
    reg.insert("rect", &rect).unwrap();
    assert!(matches!(
        reg.solver_session("rect", &[1.0, 2.0, 3.0]),
        Err(ServeError::NotSquare { nrows: 2, ncols: 3 })
    ));
}

#[test]
fn session_reset_restarts_on_new_rhs() {
    let sys = spd_system(40, 23);
    let reg = registry(2);
    reg.insert("spd", &sys.matrix).unwrap();
    let mut session = reg.solver_session("spd", &sys.rhs).unwrap();
    session.solve(1e-11, 400).unwrap();
    // New RHS: 2·b solves to 2·x*.
    let b2: Vec<f64> = sys.rhs.iter().map(|v| 2.0 * v).collect();
    session.reset(&b2).unwrap();
    assert_eq!(session.iterations(), 0);
    session.solve(1e-11, 400).unwrap();
    let expected: Vec<f64> = sys.solution.iter().map(|v| 2.0 * v).collect();
    let worst = session
        .solution()
        .iter()
        .zip(&expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(worst < 1e-8, "worst component error {worst}");
    assert!(matches!(
        session.reset(&[1.0]),
        Err(ServeError::DimensionMismatch { .. })
    ));
}
