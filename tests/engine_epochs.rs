//! The engine's epoch protocol seen from outside: whichever way an epoch is
//! entered — workers still spinning from the call before, workers parked after
//! an idle gap, blocks run by their owner or stolen by the caller, the caller
//! itself a different thread than last time — the output is the serial
//! `PreparedMatrix`'s, bit for bit.

use spmv_multicore::prelude::*;
use spmv_testutil::{assert_bit_identical, random_csr, random_symmetric_csr, test_x, xblock};
use std::time::Duration;

const THREADS: [usize; 4] = [1, 2, 3, 8];
const CALLS: usize = 6;

/// `CALLS` accumulating SpMV and SpMM (k = 3) calls on the engine and on the
/// serial reference of the same plan, `gap` apart.
fn engine_tracks_serial(csr: &CsrMatrix, plan: &TunePlan, gap: Option<Duration>, what: &str) {
    let serial = PreparedMatrix::materialize(csr, plan).expect("a fresh plan fits its matrix");
    let mut engine = SpmvEngine::from_plan(csr, plan).expect("a fresh plan fits its matrix");
    let context = format!("{what}, threads={}, gap={gap:?}", plan.threads.len());

    let x = test_x(csr.ncols());
    let (mut y, mut want) = (vec![0.5; csr.nrows()], vec![0.5; csr.nrows()]);
    let xs = xblock(csr.ncols(), 3);
    let mut ys = MultiVec::zeros(csr.nrows(), 3);
    let mut wants = MultiVec::zeros(csr.nrows(), 3);
    for call in 0..CALLS {
        if let Some(gap) = gap {
            std::thread::sleep(gap);
        }
        engine.spmv(&x, &mut y);
        serial.spmv(&x, &mut want);
        assert_bit_identical(&y, &want, &format!("spmv call {call}, {context}"));
        engine.spmm(&xs, &mut ys);
        serial.spmm(&xs, &mut wants);
        assert_bit_identical(
            ys.data(),
            wants.data(),
            &format!("spmm call {call}, {context}"),
        );
    }
}

/// The engine against its serial reference on a general plan of `general` and
/// a symmetric-storage plan of `symmetric`, at every thread count.
fn both_pipelines_track_serial(general: &CsrMatrix, symmetric: &CsrMatrix, gap: Option<Duration>) {
    for threads in THREADS {
        let plan = TunePlan::new(general, threads, &TuningConfig::full());
        engine_tracks_serial(general, &plan, gap, "general");
        let plan = TunePlan::new_symmetric(symmetric, threads, &TuningConfig::full())
            .expect("the matrix is symmetric");
        assert!(plan.symmetric);
        engine_tracks_serial(symmetric, &plan, gap, "symmetric");
    }
}

#[test]
fn back_to_back_epochs_match_the_serial_path() {
    let general = random_csr(173, 151, 2400, 61);
    let symmetric = random_symmetric_csr(137, 900, 62);
    both_pipelines_track_serial(&general, &symmetric, None);
}

/// 2 ms between calls is some sixty spin budgets: every worker has parked by
/// the time the next epoch opens.
#[test]
fn epochs_after_an_idle_gap_match_the_serial_path() {
    let general = random_csr(173, 151, 2400, 63);
    let symmetric = random_symmetric_csr(137, 900, 64);
    both_pipelines_track_serial(&general, &symmetric, Some(Duration::from_millis(2)));
}

/// Participant 0 is whoever calls: the same engines serve two threads in turn.
#[test]
fn an_engine_serves_callers_on_different_threads_in_turn() {
    let csr = random_csr(120, 120, 1500, 65);
    let x = test_x(120);
    for threads in [1, 3] {
        let plan = TunePlan::new(&csr, threads, &TuningConfig::full());
        let want = PreparedMatrix::materialize(&csr, &plan)
            .expect("a fresh plan fits its matrix")
            .spmv_alloc(&x);
        let mut engine = SpmvEngine::from_plan(&csr, &plan).expect("a fresh plan fits its matrix");
        for turn in 0..4 {
            // Each turn runs on a new thread; the scope's join hands the
            // engine to the next.
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let mut y = vec![0.0; 120];
                    engine.spmv(&x, &mut y);
                    assert_bit_identical(&y, &want, &format!("threads={threads} turn {turn}"));
                });
            });
            let mut y = vec![0.0; 120];
            engine.spmv(&x, &mut y);
            assert_bit_identical(&y, &want, &format!("threads={threads} main, turn {turn}"));
        }
    }
}
