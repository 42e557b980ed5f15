//! Criterion benchmark for the index-monomorphization tentpole: the compile-time
//! specialized `CsrMatrix<u16>` / `CsrMatrix<u32>` kernels versus the seed's
//! per-access enum-dispatch CSR ([`EnumDispatchCsr`], kept here as the baseline
//! and nowhere else), on a ≥100k-nnz suite matrix.
//!
//! Expected shape of the result: the monomorphized u16 kernel beats the u16
//! enum-dispatch path (same bytes streamed, no per-element tag branch) and the
//! u16 width beats u32 at equal code (fewer index bytes on a memory-bound kernel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmv_core::formats::{CsrMatrix, IndexArray, IndexStorage, IndexWidth, SpMv};
use spmv_core::MatrixShape;
use spmv_matrices::suite::{Scale, SuiteMatrix};
use std::hint::black_box;

/// The seed's per-access enum-dispatch CSR: every column-index fetch matches on
/// the [`IndexArray`] tag — the exact code the monomorphized [`CsrMatrix`] replaces.
struct EnumDispatchCsr {
    row_ptr: Vec<usize>,
    col_idx: IndexArray,
    values: Vec<f64>,
}

impl EnumDispatchCsr {
    /// Copy of `csr` at the requested runtime width; panics if it does not fit.
    fn from_csr(csr: &CsrMatrix, width: IndexWidth) -> Self {
        let cols: Vec<usize> = csr.col_idx().iter().map(|&c| c.to_usize()).collect();
        EnumDispatchCsr {
            row_ptr: csr.row_ptr().to_vec(),
            col_idx: IndexArray::from_usize(&cols, width).expect("width fits the column span"),
            values: csr.values().to_vec(),
        }
    }

    /// `y ← y + A·x` with the enum tag consulted on every index fetch.
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        for (row, yv) in y.iter_mut().enumerate() {
            let mut sum = 0.0;
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                sum += self.values[k] * x[self.col_idx.get(k)];
            }
            *yv += sum;
        }
    }
}

fn bench_index_monomorphization(c: &mut Criterion) {
    for matrix in [SuiteMatrix::FemCantilever, SuiteMatrix::Epidemiology] {
        let csr = CsrMatrix::from_coo(&matrix.generate(Scale::Small));
        assert!(
            csr.nnz() >= 100_000,
            "{} at small scale must exceed 100k nnz (got {})",
            matrix.id(),
            csr.nnz()
        );
        assert!(
            IndexWidth::U16.fits(csr.ncols()),
            "suite matrix must be 16-bit addressable for the comparison"
        );
        let narrow: CsrMatrix<u16> = csr.reindex().unwrap();
        let enum16 = EnumDispatchCsr::from_csr(&csr, IndexWidth::U16);
        let enum32 = EnumDispatchCsr::from_csr(&csr, IndexWidth::U32);
        let x: Vec<f64> = (0..csr.ncols()).map(|i| (i % 17) as f64 * 0.25).collect();

        // The four legs time the same product: check it once before timing anything.
        let expected = csr.spmv_alloc(&x);
        assert_eq!(narrow.spmv_alloc(&x), expected, "mono-u16 vs mono-u32");
        for (name, baseline) in [("u16", &enum16), ("u32", &enum32)] {
            let mut y = vec![0.0; csr.nrows()];
            baseline.spmv(&x, &mut y);
            assert_eq!(y, expected, "enum-dispatch-{name} vs monomorphized");
        }

        let mut group = c.benchmark_group(format!("index_monomorphization/{}", matrix.id()));
        group.throughput(Throughput::Elements(csr.nnz() as u64));

        group.bench_function(BenchmarkId::from_parameter("mono-u16"), |b| {
            let mut y = vec![0.0; csr.nrows()];
            b.iter(|| {
                narrow.spmv(black_box(&x), &mut y);
                black_box(&y);
            });
        });
        group.bench_function(BenchmarkId::from_parameter("mono-u32"), |b| {
            let mut y = vec![0.0; csr.nrows()];
            b.iter(|| {
                csr.spmv(black_box(&x), &mut y);
                black_box(&y);
            });
        });
        group.bench_function(BenchmarkId::from_parameter("enum-dispatch-u16"), |b| {
            let mut y = vec![0.0; csr.nrows()];
            b.iter(|| {
                enum16.spmv(black_box(&x), &mut y);
                black_box(&y);
            });
        });
        group.bench_function(BenchmarkId::from_parameter("enum-dispatch-u32"), |b| {
            let mut y = vec![0.0; csr.nrows()];
            b.iter(|| {
                enum32.spmv(black_box(&x), &mut y);
                black_box(&y);
            });
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_millis(4000)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_index_monomorphization
}
criterion_main!(benches);
