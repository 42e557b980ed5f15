//! Cross-crate integration tests: the full pipeline from matrix generation through
//! tuning, parallel execution, baselines, and the architecture model.

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_archsim::platforms::PlatformId;
use spmv_multicore::spmv_core::tuning::footprint::csr_bytes;
use spmv_multicore::spmv_core::tuning::search::DenseProfile;
use spmv_testutil::{assert_bit_identical, max_abs_diff};

fn reference_and_x(matrix: SuiteMatrix) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let csr = CsrMatrix::from_coo(&matrix.generate(Scale::Tiny));
    let x: Vec<f64> = (0..csr.ncols())
        .map(|i| ((i * 13 + 5) % 37) as f64 * 0.1 - 1.5)
        .collect();
    let y = csr.spmv_alloc(&x);
    (csr, x, y)
}

#[test]
fn every_suite_matrix_survives_the_full_tuning_pipeline() {
    for matrix in SuiteMatrix::all() {
        let (csr, x, reference) = reference_and_x(matrix);
        let plan = TunePlan::new(&csr, 1, &TuningConfig::full());
        let tuned = PreparedMatrix::materialize(&csr, &plan).unwrap();
        let y = tuned.spmv_alloc(&x);
        assert!(
            max_abs_diff(&reference, &y) < 1e-9,
            "{}: tuned SpMV diverged from reference",
            matrix.id()
        );
        assert_eq!(
            tuned.nnz(),
            csr.nnz(),
            "{}: nonzeros lost in tuning",
            matrix.id()
        );
        // The footprint bound is the heuristic's promise; the timed plan may buy
        // speed with bytes (a padded sliced-ELL rung, for one).
        let heuristic = TunePlan::heuristic(&csr, 1, &TuningConfig::full());
        let footprint = PreparedMatrix::materialize(&csr, &heuristic)
            .unwrap()
            .footprint_bytes();
        assert!(
            footprint <= (csr_bytes(&csr) as f64 * 1.10) as usize,
            "{}: heuristic structure should not be much larger than CSR",
            matrix.id()
        );
    }
}

#[test]
fn parallel_execution_matches_serial_for_every_suite_matrix() {
    for matrix in SuiteMatrix::all() {
        let (csr, x, reference) = reference_and_x(matrix);
        let mut parallel = SpmvEngine::tuned(&csr, 4, &TuningConfig::full()).unwrap();
        let mut y = vec![0.0; csr.nrows()];
        parallel.spmv(&x, &mut y);
        assert!(
            max_abs_diff(&reference, &y) < 1e-9,
            "{}: parallel SpMV diverged",
            matrix.id()
        );
    }
}

/// The acceptance bar of the two-phase pipeline: for every suite matrix, the
/// tuned parallel engine's output is **bit-identical** to the serial tuned path
/// (the same plan materialized and executed sequentially).
#[test]
fn tuned_engine_bit_identical_to_serial_tuned_path_on_every_suite_matrix() {
    for matrix in SuiteMatrix::all() {
        let (csr, x, _) = reference_and_x(matrix);
        for threads in [1, 3] {
            let plan = TunePlan::new(&csr, threads, &TuningConfig::full());
            let serial = PreparedMatrix::materialize(&csr, &plan).unwrap();
            let mut expected = vec![0.0; csr.nrows()];
            serial.spmv(&x, &mut expected);

            let mut engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
            let mut y = vec![0.0; csr.nrows()];
            engine.spmv(&x, &mut y);
            assert_bit_identical(
                &expected,
                &y,
                &format!(
                    "{} at {threads} threads (tuned-parallel vs serial)",
                    matrix.id()
                ),
            );
        }
    }
}

/// A plan survives the plain-text profile round trip and drives the engine to
/// the same bits (the save/load amortization workflow).
#[test]
fn saved_plan_round_trips_through_text_for_suite_matrices() {
    for matrix in [SuiteMatrix::FemCantilever, SuiteMatrix::Lp] {
        let (csr, x, _) = reference_and_x(matrix);
        let plan = TunePlan::new(&csr, 2, &TuningConfig::full());
        let reloaded = TunePlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(plan, reloaded, "{}", matrix.id());
        let mut a = vec![0.0; csr.nrows()];
        SpmvEngine::from_plan(&csr, &plan).unwrap().spmv(&x, &mut a);
        let mut b = vec![0.0; csr.nrows()];
        SpmvEngine::from_plan(&csr, &reloaded)
            .unwrap()
            .spmv(&x, &mut b);
        assert_eq!(a, b, "{}", matrix.id());
    }
}

#[test]
fn baselines_agree_with_reference_results() {
    for matrix in [SuiteMatrix::Protein, SuiteMatrix::Circuit, SuiteMatrix::Lp] {
        let (csr, x, reference) = reference_and_x(matrix);
        let oski = OskiMatrix::tune_with_profile(&csr, &DenseProfile::synthetic());
        assert!(
            max_abs_diff(&reference, &oski.spmv_alloc(&x)) < 1e-9,
            "{}: OSKI baseline diverged",
            matrix.id()
        );
        let petsc = OskiPetsc::new(&csr, 4, &DenseProfile::synthetic());
        assert!(
            max_abs_diff(&reference, &petsc.spmv_alloc(&x)) < 1e-9,
            "{}: OSKI-PETSc baseline diverged",
            matrix.id()
        );
    }
}

/// A plan over a hand-made *uneven* row partition (an empty range, a one-row
/// range, lopsided shares — what measured-time repartitioning produces) drives
/// the engine to the same bits as the serial prepared path, and both agree
/// with plain CSR.
#[test]
fn uneven_partition_plan_runs_bit_identically_on_engine_and_serial_paths() {
    let (csr, x, reference) = reference_and_x(SuiteMatrix::FemHarbor);
    let n = csr.nrows();
    let ranges = [0..0, 0..1, 1..n / 7, n / 7..n / 7, n / 7..n - 3, n - 3..n];
    let plan = TunePlan::from_partition(&csr, &ranges, &TuningConfig::full());
    assert_eq!(plan.num_threads(), ranges.len());

    let serial = PreparedMatrix::materialize(&csr, &plan).unwrap();
    let mut expected = vec![0.0; n];
    serial.spmv(&x, &mut expected);
    assert!(max_abs_diff(&reference, &expected) < 1e-9);

    let mut engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
    let mut y = vec![0.0; n];
    engine.spmv(&x, &mut y);
    assert_bit_identical(&expected, &y, "uneven partition (engine vs serial)");
}

#[test]
fn model_reproduces_the_paper_headline_ordering() {
    // The paper's headline claims, checked end-to-end through generation, tuning and
    // the architecture model on a mid-sized FEM matrix:
    //   (1) the Cell blade is the fastest full system,
    //   (2) every platform's full system beats its own single core,
    //   (3) the tuned full system beats the OSKI-PETSc baseline on the x86 machines.
    use spmv_bench::experiments::run_ladder;
    let csr = CsrMatrix::from_coo(&SuiteMatrix::FemCantilever.generate(Scale::Tiny));

    let mut full_system = std::collections::HashMap::new();
    let mut memory_bound = std::collections::HashMap::new();
    for platform in PlatformId::all() {
        let results = run_ladder(platform, SuiteMatrix::FemCantilever, &csr);
        let first = results.first().unwrap().gflops;
        let best_parallel = results
            .iter()
            .filter(|r| !r.rung.contains("OSKI"))
            .map(|r| r.gflops)
            .fold(0.0f64, f64::max);
        assert!(
            best_parallel >= first,
            "{}: parallel should not be slower than the first rung",
            platform.name()
        );
        let last = results.iter().rfind(|r| !r.rung.contains("OSKI")).unwrap();
        full_system.insert(platform, best_parallel);
        memory_bound.insert(platform, last.bandwidth_bound);
        if matches!(platform, PlatformId::AmdX2 | PlatformId::Clovertown) {
            let petsc = results
                .iter()
                .find(|r| r.rung == "OSKI-PETSc")
                .unwrap()
                .gflops;
            let tuned = results
                .iter()
                .find(|r| r.rung == "Full System [*]")
                .unwrap()
                .gflops;
            assert!(
                tuned > petsc,
                "{}: tuned should beat OSKI-PETSc",
                platform.name()
            );
        }
    }
    // The paper's "Cell wins" headline holds in the memory-bound regime (its matrices
    // are far larger than any cache). At the tiny test scale a matrix can become
    // cache resident on a 4-16MB x86, which legitimately removes the bandwidth wall,
    // so only compare against platforms that the model still reports as memory bound.
    let blade = full_system[&PlatformId::CellBlade];
    for other in [
        PlatformId::AmdX2,
        PlatformId::Clovertown,
        PlatformId::Niagara,
    ] {
        if memory_bound[&other] {
            assert!(
                blade >= full_system[&other],
                "Cell blade should beat the memory-bound {}",
                other.name()
            );
        }
    }
    assert!(blade >= full_system[&PlatformId::Niagara]);
}

#[test]
fn matrix_market_round_trip_preserves_spmv_results() {
    use spmv_multicore::spmv_matrices::mmio::{read_matrix_market, write_matrix_market};
    let coo = SuiteMatrix::Qcd.generate(Scale::Tiny);
    let mut buffer = Vec::new();
    write_matrix_market(&coo, &mut buffer).expect("write");
    let read_back = read_matrix_market(&buffer[..]).expect("read");
    let a = CsrMatrix::from_coo(&coo);
    let b = CsrMatrix::from_coo(&read_back);
    let x: Vec<f64> = (0..a.ncols()).map(|i| i as f64 * 0.01).collect();
    assert!(max_abs_diff(&a.spmv_alloc(&x), &b.spmv_alloc(&x)) < 1e-9);
}
