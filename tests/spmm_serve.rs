//! Cross-layer SpMM and serve-layer tests: the batched path must be
//! **bit-identical** to `k` independent tuned SpMV calls at every layer —
//! raw kernels across index widths and register-block shapes, the prepared
//! pipeline, and the parallel engine at degenerate thread counts — and the
//! batcher must actually coalesce concurrent requests into one SpMM batch.

use spmv_core::formats::{BcsrMatrix, CsrMatrix};
use spmv_core::kernels::multivec::{spmm_bcsr, spmm_csr};
use spmv_core::kernels::{blocked::spmv_bcsr, single_loop::spmv_single_loop};
use spmv_core::multivec::MultiVec;
use spmv_core::tuning::plan::TunePlan;
use spmv_core::tuning::prepared::PreparedMatrix;
use spmv_core::tuning::TuningConfig;
use spmv_core::{MatrixShape, SpMv};
use spmv_parallel::SpmvEngine;
use spmv_serve::{BatchPolicy, Batcher, MatrixRegistry};
use spmv_testutil::{empty_row_csr, random_csr, xblock};
use std::sync::Arc;
use std::time::Duration;

/// Raw CSR kernels: spmm(k) ≡ k × single-loop SpMV, at u16/u32/usize widths,
/// on rectangular and empty-row matrices.
#[test]
fn csr_spmm_bit_identity_across_index_widths() {
    for (name, csr) in [
        ("rectangular", random_csr(73, 121, 900, 1)),
        ("tall", random_csr(150, 40, 700, 2)),
        ("empty-rows", empty_row_csr(64, 48)),
    ] {
        let (nrows, ncols) = (csr.nrows(), csr.ncols());
        let csr16: CsrMatrix<u16> = csr.reindex().unwrap();
        let csrus: CsrMatrix<usize> = csr.reindex().unwrap();
        for k in [1, 2, 4, 8, 3] {
            let x = xblock(ncols, k);
            let mut y32 = MultiVec::zeros(nrows, k);
            let mut y16 = MultiVec::zeros(nrows, k);
            let mut yus = MultiVec::zeros(nrows, k);
            spmm_csr(&csr, x.data(), ncols, &mut y32.view_mut());
            spmm_csr(&csr16, x.data(), ncols, &mut y16.view_mut());
            spmm_csr(&csrus, x.data(), ncols, &mut yus.view_mut());
            for j in 0..k {
                let mut expected = vec![0.0; nrows];
                spmv_single_loop(&csr, x.col(j), &mut expected);
                assert_eq!(y32.col(j), &expected[..], "{name} u32 k={k} col {j}");
                assert_eq!(y16.col(j), &expected[..], "{name} u16 k={k} col {j}");
                assert_eq!(yus.col(j), &expected[..], "{name} usize k={k} col {j}");
            }
        }
    }
}

/// Raw BCSR microkernels: spmm(k) ≡ k × SpMV for every block shape ≤ 4×4 at
/// every index width.
#[test]
fn bcsr_spmm_bit_identity_across_shapes_and_widths() {
    let csr = random_csr(55, 49, 650, 3);
    for r in 1..=4usize {
        for c in 1..=4usize {
            let b16 = BcsrMatrix::<u16>::from_csr(&csr, r, c).unwrap();
            let b32 = BcsrMatrix::<u32>::from_csr(&csr, r, c).unwrap();
            let bus = BcsrMatrix::<usize>::from_csr(&csr, r, c).unwrap();
            for k in [1, 2, 4, 8] {
                let x = xblock(49, k);
                let mut y16 = MultiVec::zeros(55, k);
                let mut y32 = MultiVec::zeros(55, k);
                let mut yus = MultiVec::zeros(55, k);
                spmm_bcsr(&b16, x.data(), 49, &mut y16.view_mut());
                spmm_bcsr(&b32, x.data(), 49, &mut y32.view_mut());
                spmm_bcsr(&bus, x.data(), 49, &mut yus.view_mut());
                for j in 0..k {
                    let mut expected = vec![0.0; 55];
                    spmv_bcsr(&b16, x.col(j), &mut expected);
                    assert_eq!(y16.col(j), &expected[..], "{r}x{c} u16 k={k} col {j}");
                    assert_eq!(y32.col(j), &expected[..], "{r}x{c} u32 k={k} col {j}");
                    assert_eq!(yus.col(j), &expected[..], "{r}x{c} usize k={k} col {j}");
                }
            }
        }
    }
}

/// The full tuned stack: engine spmm(k) at thread counts {1, 2, nrows+3} is
/// bit-identical to k independent tuned SpMV calls of the same plan, including
/// empty-row and rectangular matrices.
#[test]
fn tuned_engine_spmm_bit_identity_across_thread_counts() {
    for (name, csr) in [
        ("random", random_csr(97, 83, 1400, 4)),
        ("rectangular", random_csr(41, 160, 900, 5)),
        ("empty-rows", empty_row_csr(72, 64)),
    ] {
        let nrows = csr.nrows();
        for threads in [1, 2, nrows + 3] {
            let plan = TunePlan::new(&csr, threads, &TuningConfig::full());
            let serial = PreparedMatrix::materialize(&csr, &plan).unwrap();
            let mut engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
            for k in [1, 4, 8] {
                let x = xblock(csr.ncols(), k);
                let mut y = MultiVec::zeros(nrows, k);
                engine.spmm(&x, &mut y);
                for j in 0..k {
                    let mut expected = vec![0.0; nrows];
                    serial.spmv(x.col(j), &mut expected);
                    assert_eq!(
                        y.col(j),
                        &expected[..],
                        "{name} threads={threads} k={k} col {j}"
                    );
                }
            }
        }
    }
}

/// A symmetric matrix registered with a symmetric plan is served from halved
/// storage, and the batched SpMM answers must be exactly what the direct
/// symmetric SpMV gives.
#[test]
fn registry_serves_symmetric_matrices_from_halved_storage() {
    let csr = spmv_testutil::random_symmetric_csr(52, 400, 40);
    let registry = MatrixRegistry::new(3, TuningConfig::full());
    let plan = TunePlan::new_symmetric(&csr, 3, &TuningConfig::full()).unwrap();
    let served = registry.insert_with_plan("sym", &csr, plan).unwrap();
    assert!(
        served.is_symmetric(),
        "a symmetric plan serves symmetric storage"
    );

    // Halved storage shows up in the engine's footprint report.
    let general = MatrixRegistry::new(
        3,
        TuningConfig {
            exploit_symmetry: false,
            ..TuningConfig::full()
        },
    );
    let served_general = general.insert("gen", &csr).unwrap();
    assert!(!served_general.is_symmetric());
    assert!(
        served.footprint().total_bytes < served_general.footprint().total_bytes * 3 / 4,
        "symmetric serving must stream fewer bytes ({} vs {})",
        served.footprint().total_bytes,
        served_general.footprint().total_bytes
    );

    // Batched symmetric SpMM ≡ per-column symmetric SpMV, exactly.
    let x = xblock(52, 4);
    let y = served.spmm_now(&x).unwrap();
    for j in 0..4 {
        assert_eq!(y.col(j), &served.spmv_now(x.col(j)).unwrap()[..]);
    }

    // And the batcher coalesces symmetric requests like any other.
    let batcher = Batcher::manual(served, BatchPolicy { max_batch: 4 });
    let batcher = Arc::new(batcher);
    let clients: Vec<_> = (0..4)
        .map(|j| {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || {
                let x: Vec<f64> = (0..52).map(|i| ((i * 5 + j) % 11) as f64 * 0.25).collect();
                let y = batcher.apply(x.clone()).unwrap();
                (x, y)
            })
        })
        .collect();
    while batcher.pending() < 4 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(batcher.run_once(), 4);
    for client in clients {
        let (x, y) = client.join().unwrap();
        assert_eq!(y, batcher.matrix().spmv_now(&x).unwrap());
    }
}

/// A burst of 8 concurrent requests must be served as ONE SpMM batch, and every
/// client must get exactly the answer a direct tuned SpMV would have given.
#[test]
fn batcher_serves_concurrent_burst_as_one_batch() {
    let csr = random_csr(60, 44, 700, 6);
    let registry = MatrixRegistry::new(2, TuningConfig::full());
    let served = registry.insert("burst", &csr).unwrap();
    let batcher = Arc::new(Batcher::manual(served, BatchPolicy { max_batch: 8 }));

    let clients: Vec<_> = (0..8)
        .map(|j| {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || {
                let x: Vec<f64> = (0..44).map(|i| ((i * 7 + j) % 13) as f64 * 0.5).collect();
                let y = batcher.apply(x.clone()).unwrap();
                (x, y)
            })
        })
        .collect();

    // Wait until all 8 concurrent requests are queued, then serve once.
    while batcher.pending() < 8 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(batcher.run_once(), 8, "the burst must form one batch");

    for client in clients {
        let (x, y) = client.join().unwrap();
        assert_eq!(y, batcher.matrix().spmv_now(&x).unwrap());
    }
    let report = batcher.stats().snapshot();
    assert_eq!(report.requests, 8);
    assert_eq!(report.batches, 1, "8 concurrent requests, one SpMM batch");
    assert_eq!(report.batch_k_histogram, vec![(8, 1)]);
    assert!(report.busy_gflops > 0.0);
}
