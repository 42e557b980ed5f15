//! Native analogue of paper Figure 1: for every matrix of the suite, measure the
//! optimization ladder on the host CPU — naive CSR, register-blocked, fully tuned
//! (register + cache/TLB blocking + 16-bit indices), OSKI-style baseline, and
//! row-parallel execution with all cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmv_baseline::oski::OskiMatrix;
use spmv_core::formats::{CsrMatrix, SpMv};
use spmv_core::tuning::search::DenseProfile;
use spmv_core::tuning::{PreparedMatrix, TunePlan, TuningConfig};
use spmv_core::MatrixShape;
use spmv_matrices::suite::{Scale, SuiteMatrix};
use spmv_parallel::SpmvEngine;
use std::hint::black_box;

/// The serial tuned form: a one-thread plan, materialized. The untimed planner,
/// so that each rung measures the structure its own config describes.
fn tuned_serial(csr: &CsrMatrix, config: &TuningConfig) -> PreparedMatrix {
    PreparedMatrix::materialize(csr, &TunePlan::heuristic(csr, 1, config)).expect("fresh plan")
}

fn bench_suite(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for matrix in SuiteMatrix::all() {
        let csr = CsrMatrix::from_coo(&matrix.generate(Scale::Small));
        let x: Vec<f64> = (0..csr.ncols()).map(|i| (i % 29) as f64 * 0.1).collect();
        let rb = tuned_serial(&csr, &TuningConfig::register_only());
        let full = tuned_serial(&csr, &TuningConfig::full());
        let oski = OskiMatrix::tune_with_profile(&csr, &DenseProfile::synthetic());
        let mut parallel =
            SpmvEngine::tuned(&csr, threads, &TuningConfig::full()).expect("fresh plan");

        let mut group = c.benchmark_group(format!("figure1/{}", matrix.id()));
        group.throughput(Throughput::Elements(csr.nnz() as u64));
        group.bench_function(BenchmarkId::from_parameter("naive"), |b| {
            let mut y = vec![0.0; csr.nrows()];
            b.iter(|| {
                csr.spmv(black_box(&x), &mut y);
                black_box(&y);
            });
        });
        group.bench_function(BenchmarkId::from_parameter("register_blocked"), |b| {
            let mut y = vec![0.0; csr.nrows()];
            b.iter(|| {
                rb.spmv(black_box(&x), &mut y);
                black_box(&y);
            });
        });
        group.bench_function(BenchmarkId::from_parameter("fully_tuned"), |b| {
            let mut y = vec![0.0; csr.nrows()];
            b.iter(|| {
                full.spmv(black_box(&x), &mut y);
                black_box(&y);
            });
        });
        group.bench_function(BenchmarkId::from_parameter("oski_baseline"), |b| {
            let mut y = vec![0.0; csr.nrows()];
            b.iter(|| {
                oski.spmv(black_box(&x), &mut y);
                black_box(&y);
            });
        });
        group.bench_function(
            BenchmarkId::from_parameter(format!("parallel_{threads}threads")),
            |b| {
                let mut y = vec![0.0; csr.nrows()];
                b.iter(|| {
                    parallel.spmv(black_box(&x), &mut y);
                    black_box(&y);
                });
            },
        );
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(1500)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_suite
}
criterion_main!(benches);
