//! Ablation benchmarks for the paper's data-structure design choices (§4.2–4.3):
//!
//! * footprint-minimizing one-pass heuristic vs OSKI-style search,
//! * sparse (touched-cache-lines) vs dense (fixed-span) cache blocking,
//! * 16-bit vs 32-bit indices,
//! * nonzero-balanced vs equal-rows partitioning,
//! * BCOO vs GCSR for empty-row matrices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmv_baseline::oski::OskiMatrix;
use spmv_core::blocking::cache::CacheBlockingConfig;
use spmv_core::formats::index::IndexWidth;
use spmv_core::formats::{BcooMatrix, BcsrMatrix, CsrMatrix, GcsrMatrix, SpMv};
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

fn heuristic_vs_search(c: &mut Criterion) {
    let csr = CsrMatrix::from_coo(&SuiteMatrix::FemCantilever.generate(Scale::Small));
    let x: Vec<f64> = (0..csr.ncols()).map(|i| (i % 11) as f64).collect();
    let heuristic = tuned_serial(&csr, &TuningConfig::full());
    let search = OskiMatrix::tune_with_profile(&csr, &DenseProfile::synthetic());
    let mut group = c.benchmark_group("ablation/heuristic_vs_search");
    group.throughput(Throughput::Elements(csr.nnz() as u64));
    group.bench_function("footprint_heuristic", |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            heuristic.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.bench_function("oski_search", |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            search.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.finish();
}

fn sparse_vs_dense_cache_blocking(c: &mut Criterion) {
    // LP is the matrix where cache blocking matters most (huge source vector).
    let csr = CsrMatrix::from_coo(&SuiteMatrix::Lp.generate(Scale::Small));
    let x: Vec<f64> = (0..csr.ncols()).map(|i| (i % 7) as f64 * 0.3).collect();
    let sparse_cfg = TuningConfig::full();
    let dense_cfg = TuningConfig {
        cache_blocking: Some(CacheBlockingConfig {
            dense_spans: true,
            ..CacheBlockingConfig::default()
        }),
        ..TuningConfig::full()
    };
    let sparse = tuned_serial(&csr, &sparse_cfg);
    let dense = tuned_serial(&csr, &dense_cfg);
    let mut group = c.benchmark_group("ablation/cache_blocking");
    group.throughput(Throughput::Elements(csr.nnz() as u64));
    group.bench_function("sparse_blocking", |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            sparse.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.bench_function("dense_blocking", |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            dense.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.finish();
}

fn index_width(c: &mut Criterion) {
    let csr = CsrMatrix::from_coo(&SuiteMatrix::Protein.generate(Scale::Small));
    let x: Vec<f64> = (0..csr.ncols()).map(|i| (i % 19) as f64).collect();
    let b16 = BcsrMatrix::<u16>::from_csr(&csr, 2, 2).unwrap();
    let b32 = BcsrMatrix::<u32>::from_csr(&csr, 2, 2).unwrap();
    let mut group = c.benchmark_group("ablation/index_width");
    group.throughput(Throughput::Elements(csr.nnz() as u64));
    group.bench_with_input(BenchmarkId::from_parameter("u16"), &b16, |b, m| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            m.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.bench_with_input(BenchmarkId::from_parameter("u32"), &b32, |b, m| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            m.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.finish();
}

fn partitioning(c: &mut Criterion) {
    // Webbase's power-law rows make equal-rows partitioning imbalanced.
    let csr = CsrMatrix::from_coo(&SuiteMatrix::Webbase.generate(Scale::Small));
    let x: Vec<f64> = (0..csr.ncols()).map(|i| (i % 5) as f64).collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);
    let mut balanced = SpmvEngine::new(&csr, threads);
    let petsc_like = OskiPetsc_equal_rows(&csr, threads);
    let mut group = c.benchmark_group("ablation/partitioning");
    group.throughput(Throughput::Elements(csr.nnz() as u64));
    group.bench_function("nonzero_balanced", |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            balanced.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.bench_function("equal_rows", |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            petsc_like.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.finish();
}

/// Equal-rows decomposition (the PETSc default) used by the partitioning ablation.
#[allow(non_snake_case)]
fn OskiPetsc_equal_rows(csr: &CsrMatrix, procs: usize) -> spmv_baseline::petsc::OskiPetsc {
    spmv_baseline::petsc::OskiPetsc::new(csr, procs, &DenseProfile::synthetic())
}

fn empty_row_formats(c: &mut Criterion) {
    let csr = CsrMatrix::from_coo(&SuiteMatrix::Webbase.generate(Scale::Small));
    let x: Vec<f64> = (0..csr.ncols()).map(|i| (i % 3) as f64).collect();
    let bcoo = BcooMatrix::from_csr(&csr, 1, 1, IndexWidth::U32).unwrap();
    let gcsr = GcsrMatrix::from_csr(&csr, IndexWidth::U32).unwrap();
    let mut group = c.benchmark_group("ablation/empty_rows");
    group.throughput(Throughput::Elements(csr.nnz() as u64));
    group.bench_function("csr", |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            csr.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.bench_function("bcoo", |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            bcoo.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.bench_function("gcsr", |b| {
        let mut y = vec![0.0; csr.nrows()];
        b.iter(|| {
            gcsr.spmv(black_box(&x), &mut y);
            black_box(&y);
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(1500)).warm_up_time(std::time::Duration::from_millis(300));
    targets = heuristic_vs_search, sparse_vs_dense_cache_blocking, index_width, partitioning, empty_row_formats
}
criterion_main!(benches);
