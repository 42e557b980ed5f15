//! Native analogue of paper Figure 2(a): median-matrix behaviour of serial OSKI,
//! the fully tuned serial implementation, and the all-core parallel implementation
//! — the "architectural comparison" reduced to the one architecture we can measure
//! natively (the host), with the modelled cross-architecture comparison produced by
//! the `figure2` binary instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmv_baseline::oski::OskiMatrix;
use spmv_baseline::petsc::OskiPetsc;
use spmv_core::formats::{CsrMatrix, SpMv};
use spmv_core::tuning::search::DenseProfile;
use spmv_core::tuning::{PreparedMatrix, TunePlan, TuningConfig};
use spmv_core::MatrixShape;
use spmv_matrices::suite::{Scale, SuiteMatrix};
use spmv_parallel::SpmvEngine;
use std::hint::black_box;

/// The paper summarizes per-architecture behaviour with the median matrix; FEM/Ship
/// sits at the median of the suite's nonzeros-per-row distribution, so it stands in
/// for "the median matrix" in this native benchmark.
const MEDIAN_MATRIX: SuiteMatrix = SuiteMatrix::FemShip;

fn bench_architecture_comparison(c: &mut Criterion) {
    let csr = CsrMatrix::from_coo(&MEDIAN_MATRIX.generate(Scale::Small));
    let x: Vec<f64> = (0..csr.ncols())
        .map(|i| (i % 23) as f64 * 0.5 - 5.0)
        .collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let oski = OskiMatrix::tune_with_profile(&csr, &DenseProfile::synthetic());
    let tuned = PreparedMatrix::materialize(&csr, &TunePlan::new(&csr, 1, &TuningConfig::full()))
        .expect("fresh plan");
    let mut parallel = SpmvEngine::tuned(&csr, threads, &TuningConfig::full()).expect("fresh plan");
    let petsc = OskiPetsc::new(&csr, threads, &DenseProfile::synthetic());

    let mut group = c.benchmark_group("figure2/median_matrix");
    group.throughput(Throughput::Elements(csr.nnz() as u64));
    group.bench_function(BenchmarkId::from_parameter("oski_serial"), |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            oski.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.bench_function(BenchmarkId::from_parameter("tuned_serial"), |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            tuned.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.bench_function(BenchmarkId::from_parameter("oski_petsc_parallel"), |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            petsc.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.bench_function(
        BenchmarkId::from_parameter(format!("tuned_parallel_{threads}threads")),
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(1500)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_architecture_comparison
}
criterion_main!(benches);
