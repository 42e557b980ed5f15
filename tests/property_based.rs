//! Property-based tests over the core data-structure invariants, driven by the
//! shared `spmv-testutil` deterministic case generator (no external framework):
//! every storage format, every kernel variant, every index width and every
//! register block shape must compute the same product as a dense reference on
//! arbitrary matrices — including rectangular shapes, empty rows/columns,
//! single-row/single-column matrices and the fully empty matrix — and the tuner
//! must never lose nonzeros or blow up the footprint.

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

/// Every kernel variant × both CSR index widths must agree with the reference.
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
