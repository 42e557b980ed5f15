//! Property-based tests over the core data-structure invariants, driven by the
//! shared `spmv-testutil` deterministic case generator (no external framework):
//! every storage format, every kernel variant, every index width and every
//! register block shape must compute the same product as a dense reference on
//! arbitrary matrices — including rectangular shapes, empty rows/columns,
//! single-row/single-column matrices and the fully empty matrix — and the tuner
//! must never lose nonzeros or blow up the footprint. `CsrMatrix::from_coo`
//! must equal, to the bit, the sort-based conversion it replaced.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmv_multicore::prelude::*;
use spmv_multicore::spmv_core::formats::bcsr::ALLOWED_BLOCK_DIMS;
use spmv_multicore::spmv_core::formats::index::IndexWidth;
use spmv_multicore::spmv_core::formats::{BcooMatrix, BcsrMatrix, CompressedCsr, GcsrMatrix};
use spmv_multicore::spmv_core::kernels::KernelVariant;
use spmv_multicore::spmv_core::partition::row::partition_rows_balanced;
use spmv_testutil::{cases, max_abs_diff, test_x};

#[test]
fn every_format_matches_dense_reference() {
    for (i, case) in cases(48, 0xF0).iter().enumerate() {
        let (coo, csr) = (case.coo(), case.csr());
        let x = test_x(case.ncols);
        let expected = case.dense_reference(&x);

        assert!(
            max_abs_diff(&coo.spmv_alloc(&x), &expected) < 1e-9,
            "coo case {i}"
        );
        assert!(
            max_abs_diff(&csr.spmv_alloc(&x), &expected) < 1e-9,
            "csr case {i}"
        );
        for width in [IndexWidth::U16, IndexWidth::U32] {
            assert!(
                max_abs_diff(
                    &GcsrMatrix::from_csr(&csr, width).unwrap().spmv_alloc(&x),
                    &expected
                ) < 1e-9,
                "gcsr {width:?} case {i}"
            );
        }
        assert!(
            max_abs_diff(&CompressedCsr::from_csr(&csr).spmv_alloc(&x), &expected) < 1e-9,
            "compressed case {i}"
        );
    }
}

/// Every register block shape of the ≤ 4×4 sweep × every index width must agree
/// with the reference, for BCSR (unrolled microkernels) and BCOO alike.
#[test]
fn every_block_shape_and_width_matches_dense_reference() {
    for (i, case) in cases(32, 0xB1).iter().enumerate() {
        let csr = case.csr();
        let x = test_x(case.ncols);
        let expected = case.dense_reference(&x);
        for &r in &ALLOWED_BLOCK_DIMS {
            for &c in &ALLOWED_BLOCK_DIMS {
                let b16 = BcsrMatrix::<u16>::from_csr(&csr, r, c).unwrap();
                assert!(
                    max_abs_diff(&b16.spmv_alloc(&x), &expected) < 1e-9,
                    "bcsr<u16> {r}x{c} case {i}"
                );
                let b32 = BcsrMatrix::<u32>::from_csr(&csr, r, c).unwrap();
                assert!(
                    max_abs_diff(&b32.spmv_alloc(&x), &expected) < 1e-9,
                    "bcsr<u32> {r}x{c} case {i}"
                );
                for width in [IndexWidth::U16, IndexWidth::U32] {
                    let bcoo = BcooMatrix::from_csr(&csr, r, c, width).unwrap();
                    assert!(
                        max_abs_diff(&bcoo.spmv_alloc(&x), &expected) < 1e-9,
                        "bcoo {r}x{c} {width:?} case {i}"
                    );
                }
            }
        }
    }
}

/// Every kernel variant × both CSR index widths must agree with the reference,
/// and the two widths with each other bit for bit.
#[test]
fn every_kernel_variant_matches_dense_reference() {
    for (i, case) in cases(24, 0xC2).iter().enumerate() {
        let csr = case.csr();
        let narrow: spmv_multicore::spmv_core::formats::CsrMatrix<u16> = csr.reindex().unwrap();
        let x = test_x(case.ncols);
        let expected = case.dense_reference(&x);
        for variant in KernelVariant::all() {
            let mut y = vec![0.0; case.nrows];
            variant.execute(&csr, &x, &mut y);
            assert!(
                max_abs_diff(&y, &expected) < 1e-9,
                "variant {} (u32) case {i}",
                variant.name()
            );
            let mut y16 = vec![0.0; case.nrows];
            variant.execute(&narrow, &x, &mut y16);
            assert!(
                max_abs_diff(&y16, &expected) < 1e-9,
                "variant {} (u16) case {i}",
                variant.name()
            );
            // Index width is storage only: the arithmetic is the same, bit for bit.
            assert_eq!(
                y16.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "variant {} u16 vs u32 case {i}",
                variant.name()
            );
        }
    }
}

#[test]
fn tuner_preserves_nonzeros_and_results() {
    for (i, case) in cases(24, 0xD3).iter().enumerate() {
        let csr = case.csr();
        let x = test_x(case.ncols);
        let expected = case.dense_reference(&x);
        for config in [
            TuningConfig::naive(),
            TuningConfig::register_only(),
            TuningConfig::full(),
        ] {
            let plan = TunePlan::new(&csr, 1, &config);
            let tuned = PreparedMatrix::materialize(&csr, &plan).unwrap();
            assert_eq!(tuned.nnz(), csr.nnz(), "case {i}");
            assert!(
                max_abs_diff(&tuned.spmv_alloc(&x), &expected) < 1e-9,
                "case {i}"
            );
            // Stored entries can only grow (zero fill), never shrink — except on
            // the symmetric pipeline, which stores the lower triangle only.
            if !tuned.is_symmetric() {
                assert!(tuned.stored_entries() >= tuned.nnz(), "case {i}");
            }
        }
    }
}

#[test]
fn partitions_cover_and_preserve_results() {
    let mut rng = StdRng::seed_from_u64(0xE4);
    for (i, case) in cases(24, 0xE5).iter().enumerate() {
        let csr = case.csr();
        let parts = rng.random_range(1..9usize);
        let x = test_x(case.ncols);
        let expected = case.dense_reference(&x);

        let rows = partition_rows_balanced(&csr, parts);
        assert!(rows.covers(case.nrows), "case {i}");
        assert_eq!(
            rows.nnz_per_part(&csr).iter().sum::<usize>(),
            csr.nnz(),
            "case {i}"
        );

        let mut engine = SpmvEngine::new(&csr, parts);
        let mut y_engine = vec![0.0; case.nrows];
        engine.spmv(&x, &mut y_engine);
        assert!(max_abs_diff(&y_engine, &expected) < 1e-9, "engine case {i}");
    }
}

#[test]
fn footprint_reported_matches_accounting() {
    for (i, case) in cases(24, 0xF6).iter().enumerate() {
        let (coo, csr) = (case.coo(), case.csr());
        // CSR footprint formula: nnz*(8+4) + (nrows+1)*4.
        assert_eq!(
            csr.footprint_bytes(),
            csr.nnz() * 12 + (case.nrows + 1) * 4,
            "case {i}"
        );
        // A u16 reindex saves exactly 2 bytes per stored nonzero.
        let narrow: spmv_multicore::spmv_core::formats::CsrMatrix<u16> = csr.reindex().unwrap();
        assert_eq!(
            csr.footprint_bytes() - narrow.footprint_bytes(),
            2 * csr.nnz()
        );
        // COO footprint formula: 16 bytes per stored entry.
        assert_eq!(coo.footprint_bytes(), coo.nnz() * 16, "case {i}");
        // Flop:byte of CSR never exceeds the 0.25 bound from the paper.
        assert!(csr.flop_byte_ratio() <= 0.25 + 1e-12, "case {i}");
    }
}

/// The conversion `CsrMatrix::from_coo` replaced, kept as its reference: one
/// stable sort of every triplet by `(row, col)`, duplicates summed left to
/// right.
fn from_coo_by_sorting(coo: &CooMatrix) -> CsrMatrix {
    let mut sorted = coo.clone();
    sorted.sum_duplicates();
    let mut row_ptr = vec![0usize; coo.nrows() + 1];
    for t in sorted.entries() {
        row_ptr[t.row + 1] += 1;
    }
    for i in 0..coo.nrows() {
        row_ptr[i + 1] += row_ptr[i];
    }
    let col_idx = sorted.entries().iter().map(|t| t.col as u32).collect();
    let values = sorted.entries().iter().map(|t| t.val).collect();
    CsrMatrix::from_raw(coo.nrows(), coo.ncols(), row_ptr, col_idx, values)
        .expect("sorted, summed triplets are a valid CSR")
}

#[test]
fn csr_from_coo_equals_the_sorting_reference_to_the_bit() {
    // Values whose sums depend on the order of the additions.
    let pool = [1e16, -1e16, 1.0, 0.1, -0.0, 0.0, f64::NAN, 3.5];
    let mut matrices: Vec<CooMatrix> = cases(24, 0xC1).iter().map(|c| c.coo()).collect();
    // Duplicates in reverse and interleaved order; odd rows stay empty.
    let mut interleaved = CooMatrix::new(12, 9);
    for row in (0..12).step_by(2) {
        for col in (0..9).rev() {
            interleaved.push(row, col, pool[(row + col) % pool.len()]);
        }
        for rep in 0..3 {
            for col in [4, 0, 8, 4] {
                interleaved.push(row, col, pool[(rep * 3 + col) % pool.len()]);
            }
        }
    }
    matrices.push(interleaved);
    let mut rng = StdRng::seed_from_u64(0xC2);
    let mut crowded = CooMatrix::new(30, 40);
    for _ in 0..5_000 {
        let v = pool[rng.random_range(0..pool.len())];
        crowded.push(rng.random_range(0..30), rng.random_range(0..40), v);
    }
    matrices.push(crowded);
    matrices.push(CooMatrix::new(5, 3));
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (i, coo) in matrices.iter().enumerate() {
        let (fast, reference) = (CsrMatrix::from_coo(coo), from_coo_by_sorting(coo));
        assert_eq!(fast.row_ptr(), reference.row_ptr(), "matrix {i}");
        assert_eq!(fast.col_idx(), reference.col_idx(), "matrix {i}");
        assert_eq!(bits(&fast), bits(&reference), "matrix {i}");
    }
}
