//! Native analogue of paper Table 4: the dense matrix stored in sparse format is the
//! memory-bandwidth best case, so this bench measures the host machine's sustained
//! SpMV rate (naive CSR vs the footprint-tuned structure vs row-parallel execution)
//! and reports element throughput, from which GB/s follows directly.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spmv_core::formats::{CsrMatrix, SpMv};
use spmv_core::tuning::{PreparedMatrix, TunePlan, TuningConfig};
use spmv_core::MatrixShape;
use spmv_matrices::suite::{Scale, SuiteMatrix};
use spmv_parallel::SpmvEngine;
use std::hint::black_box;

fn bench_dense_bandwidth(c: &mut Criterion) {
    let csr = CsrMatrix::from_coo(&SuiteMatrix::Dense.generate(Scale::Small));
    let x: Vec<f64> = (0..csr.ncols()).map(|i| 1.0 + (i % 13) as f64).collect();
    let tuned = PreparedMatrix::materialize(&csr, &TunePlan::new(&csr, 1, &TuningConfig::full()))
        .expect("fresh plan");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut parallel = SpmvEngine::tuned(&csr, threads, &TuningConfig::full()).expect("fresh plan");

    let mut group = c.benchmark_group("table4_dense");
    group.throughput(Throughput::Elements(csr.nnz() as u64));
    group.bench_function("naive_csr_1core", |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            csr.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.bench_function("tuned_1core", |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            tuned.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.bench_function(format!("tuned_parallel_{threads}threads"), |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            parallel.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(1500)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_dense_bandwidth
}
criterion_main!(benches);
