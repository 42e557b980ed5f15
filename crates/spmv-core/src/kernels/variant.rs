//! Uniform dispatch over the code-optimization kernel variants.
//!
//! The autotuner and the benchmark harness sweep this enum the way the paper's Perl
//! code generator enumerated kernel flavours per architecture. Two execution paths
//! exist:
//!
//! * [`KernelVariant::execute`] — run a CSR code variant directly on a (generic,
//!   monomorphized) [`CsrMatrix<I>`]. The CSR code variants are *code*
//!   optimizations; the matrix is untouched.
//! * [`KernelVariant::prepare`] — build the data structure a variant needs **once**
//!   (index compression for CSR variants, tile construction for register-blocked
//!   variants) and return a [`PreparedKernel`] whose `execute` dispatches once per
//!   call into fully monomorphized code. This is the shape the paper's tuned
//!   pipeline has: all decisions at tuning time, none per element.

use crate::error::Result;
use crate::formats::bcsr::BcsrMatrix;
use crate::formats::csr::{CompressedCsr, CsrMatrix};
use crate::formats::index::IndexStorage;
use crate::formats::traits::{MatrixShape, SpMv};
use crate::kernels::branchless::spmv_branchless;
use crate::kernels::naive::spmv_naive;
use crate::kernels::pipelined::spmv_pipelined;
use crate::kernels::prefetch::{spmv_prefetch, PrefetchHint};
use crate::kernels::single_loop::spmv_single_loop;
use crate::kernels::unrolled::{spmv_unrolled4, spmv_unrolled8};

/// A CSR SpMV code variant (paper Table 2, "Code Optimization" column), plus the
/// register-blocked microkernels behind the same dispatch surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// Conventional nested loop.
    Naive,
    /// Single loop variable over the nonzero stream.
    SingleLoop,
    /// Branchless segmented-scan accumulation.
    Branchless,
    /// Explicit two-stage software pipeline (for in-order cores).
    Pipelined,
    /// 4-way unrolled, auto-vectorizable inner loop (SIMDization).
    Unrolled4,
    /// 8-way unrolled inner loop for long-row matrices.
    Unrolled8,
    /// Software prefetch at the given distance (in nonzeros), all-levels hint.
    Prefetch(usize),
    /// Software prefetch at the given distance with a non-temporal hint,
    /// reducing outer-cache pollution as described in Section 4.1.
    PrefetchNta(usize),
    /// Register-blocked r×c BCSR microkernel (requires [`KernelVariant::prepare`];
    /// the matrix must be converted to tiles first).
    Blocked {
        /// Rows per register block (1–4).
        r: usize,
        /// Columns per register block (1–4).
        c: usize,
    },
}

impl KernelVariant {
    /// Every parameter-free CSR code variant plus a representative prefetch
    /// distance sweep. (Blocked variants need data-structure conversion and are
    /// enumerated by [`KernelVariant::all_with_blocked`].)
    pub fn all() -> Vec<KernelVariant> {
        let mut v = vec![
            KernelVariant::Naive,
            KernelVariant::SingleLoop,
            KernelVariant::Branchless,
            KernelVariant::Pipelined,
            KernelVariant::Unrolled4,
            KernelVariant::Unrolled8,
        ];
        for &d in &crate::kernels::prefetch::PREFETCH_DISTANCE_CANDIDATES[1..] {
            v.push(KernelVariant::Prefetch(d));
            v.push(KernelVariant::PrefetchNta(d));
        }
        v
    }

    /// [`KernelVariant::all`] plus every register-blocked microkernel of the ≤ 4×4
    /// sweep.
    pub fn all_with_blocked() -> Vec<KernelVariant> {
        let mut v = Self::all();
        for &r in &crate::formats::bcsr::ALLOWED_BLOCK_DIMS {
            for &c in &crate::formats::bcsr::ALLOWED_BLOCK_DIMS {
                v.push(KernelVariant::Blocked { r, c });
            }
        }
        v
    }

    /// Short human-readable name used in benchmark output.
    pub fn name(&self) -> String {
        match self {
            KernelVariant::Naive => "naive".to_string(),
            KernelVariant::SingleLoop => "single-loop".to_string(),
            KernelVariant::Branchless => "branchless".to_string(),
            KernelVariant::Pipelined => "pipelined".to_string(),
            KernelVariant::Unrolled4 => "unrolled4".to_string(),
            KernelVariant::Unrolled8 => "unrolled8".to_string(),
            KernelVariant::Prefetch(d) => format!("prefetch-t0-{d}"),
            KernelVariant::PrefetchNta(d) => format!("prefetch-nta-{d}"),
            KernelVariant::Blocked { r, c } => format!("bcsr-{r}x{c}"),
        }
    }

    /// Execute this variant on a CSR matrix of any index width: `y ← y + A·x`.
    ///
    /// # Panics
    ///
    /// Panics for [`KernelVariant::Blocked`], which has no CSR execution — use
    /// [`KernelVariant::prepare`].
    pub fn execute<I: IndexStorage>(&self, a: &CsrMatrix<I>, x: &[f64], y: &mut [f64]) {
        match *self {
            KernelVariant::Naive => spmv_naive(a, x, y),
            KernelVariant::SingleLoop => spmv_single_loop(a, x, y),
            KernelVariant::Branchless => spmv_branchless(a, x, y),
            KernelVariant::Pipelined => spmv_pipelined(a, x, y),
            KernelVariant::Unrolled4 => spmv_unrolled4(a, x, y),
            KernelVariant::Unrolled8 => spmv_unrolled8(a, x, y),
            KernelVariant::Prefetch(d) => spmv_prefetch(a, x, y, d, PrefetchHint::AllLevels),
            KernelVariant::PrefetchNta(d) => spmv_prefetch(a, x, y, d, PrefetchHint::NonTemporal),
            KernelVariant::Blocked { r, c } => {
                panic!("bcsr-{r}x{c} requires KernelVariant::prepare (tile conversion)")
            }
        }
    }

    /// Build the data structure this variant needs, making every width/shape
    /// decision now so the returned kernel's `execute` is dispatch-free.
    pub fn prepare(&self, csr: &CsrMatrix) -> Result<PreparedKernel> {
        match *self {
            KernelVariant::Blocked { r, c } => {
                // Narrowest block-column index width that fits, selected once.
                match BcsrMatrix::<u16>::from_csr(csr, r, c) {
                    Ok(m) => Ok(PreparedKernel::Bcsr16(m)),
                    Err(crate::error::Error::IndexWidthOverflow { .. }) => {
                        BcsrMatrix::<u32>::from_csr(csr, r, c).map(PreparedKernel::Bcsr32)
                    }
                    Err(e) => Err(e),
                }
            }
            variant => Ok(PreparedKernel::Csr {
                variant,
                matrix: CompressedCsr::from_csr(csr),
            }),
        }
    }
}

/// A kernel variant with its data structure already built and its index width
/// already selected: steady-state `execute` calls perform one enum match and then
/// run monomorphized code.
#[derive(Debug, Clone)]
pub enum PreparedKernel {
    /// A CSR code variant over a width-compressed matrix.
    Csr {
        /// The code variant to run.
        variant: KernelVariant,
        /// The index-compressed matrix (width chosen at prepare time).
        matrix: CompressedCsr,
    },
    /// A register-blocked microkernel with 16-bit tile indices.
    Bcsr16(BcsrMatrix<u16>),
    /// A register-blocked microkernel with 32-bit tile indices.
    Bcsr32(BcsrMatrix<u32>),
}

impl PreparedKernel {
    /// `y ← y + A·x` on the prepared structure.
    pub fn execute(&self, x: &[f64], y: &mut [f64]) {
        match self {
            PreparedKernel::Csr { variant, matrix } => matrix.execute(*variant, x, y),
            PreparedKernel::Bcsr16(m) => m.spmv(x, y),
            PreparedKernel::Bcsr32(m) => m.spmv(x, y),
        }
    }

    /// Bytes of matrix data the prepared structure streams per SpMV.
    pub fn footprint_bytes(&self) -> usize {
        match self {
            PreparedKernel::Csr { matrix, .. } => matrix.footprint_bytes(),
            PreparedKernel::Bcsr16(m) => m.footprint_bytes(),
            PreparedKernel::Bcsr32(m) => m.footprint_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;
    use crate::formats::traits::SpMv;
    use crate::formats::CsrMatrix;
    use crate::kernels::testing::{random_coo, test_x};

    #[test]
    fn every_variant_matches_reference() {
        let csr = CsrMatrix::from_coo(&random_coo(100, 100, 1500, 99));
        let x = test_x(100);
        let reference = csr.spmv_alloc(&x);
        for variant in KernelVariant::all() {
            let mut y = vec![0.0; 100];
            variant.execute(&csr, &x, &mut y);
            assert!(
                max_abs_diff(&reference, &y) < 1e-9,
                "variant {} diverged",
                variant.name()
            );
        }
    }

    #[test]
    fn every_variant_matches_reference_at_u16_width() {
        let csr: CsrMatrix<u16> = CsrMatrix::from_coo(&random_coo(100, 100, 1500, 98))
            .reindex()
            .unwrap();
        let x = test_x(100);
        let reference = csr.spmv_alloc(&x);
        for variant in KernelVariant::all() {
            let mut y = vec![0.0; 100];
            variant.execute(&csr, &x, &mut y);
            assert!(
                max_abs_diff(&reference, &y) < 1e-9,
                "variant {} diverged at u16",
                variant.name()
            );
        }
    }

    #[test]
    fn prepared_kernels_match_reference() {
        let csr = CsrMatrix::from_coo(&random_coo(90, 110, 1200, 97));
        let x = test_x(110);
        let reference = csr.spmv_alloc(&x);
        for variant in KernelVariant::all_with_blocked() {
            let prepared = variant.prepare(&csr).unwrap();
            let mut y = vec![0.0; 90];
            prepared.execute(&x, &mut y);
            assert!(
                max_abs_diff(&reference, &y) < 1e-9,
                "prepared variant {} diverged",
                variant.name()
            );
            assert!(prepared.footprint_bytes() > 0);
        }
    }

    #[test]
    fn prepare_compresses_small_matrices_to_u16() {
        let csr = CsrMatrix::from_coo(&random_coo(50, 50, 200, 96));
        match KernelVariant::Naive.prepare(&csr).unwrap() {
            PreparedKernel::Csr { matrix, .. } => {
                assert_eq!(matrix.width(), crate::formats::index::IndexWidth::U16)
            }
            other => panic!("expected CSR preparation, got {other:?}"),
        }
        match (KernelVariant::Blocked { r: 2, c: 2 })
            .prepare(&csr)
            .unwrap()
        {
            PreparedKernel::Bcsr16(_) => {}
            other => panic!("expected 16-bit BCSR, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "requires KernelVariant::prepare")]
    fn blocked_direct_execution_panics() {
        let csr = CsrMatrix::from_coo(&random_coo(10, 10, 20, 95));
        let mut y = vec![0.0; 10];
        (KernelVariant::Blocked { r: 2, c: 2 }).execute(&csr, &test_x(10), &mut y);
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<String> = KernelVariant::all_with_blocked()
            .iter()
            .map(|v| v.name())
            .collect();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len());
    }

    #[test]
    fn all_contains_base_variants() {
        let all = KernelVariant::all();
        assert!(all.contains(&KernelVariant::Naive));
        assert!(all.contains(&KernelVariant::Branchless));
        assert!(all.iter().any(|v| matches!(v, KernelVariant::Prefetch(_))));
        assert!(all.len() >= 10);
        assert!(all
            .iter()
            .all(|v| !matches!(v, KernelVariant::Blocked { .. })));
        let with_blocked = KernelVariant::all_with_blocked();
        assert_eq!(with_blocked.len(), all.len() + 16);
    }
}
