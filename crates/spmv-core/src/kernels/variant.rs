//! Uniform dispatch over the CSR code-optimization kernels.
//!
//! A tuning plan emits [`KernelVariant::SingleLoop`] and the prefetch variants
//! ([`crate::tuning::ThreadPlan`]); [`KernelVariant::Naive`] is the conventional
//! loop they are measured against. [`KernelVariant::execute`] runs a CSR code
//! variant directly on a (generic, monomorphized) [`CsrMatrix<I>`]: these are
//! *code* optimizations, the matrix is untouched.

use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexStorage;
use crate::kernels::naive::spmv_naive;
use crate::kernels::prefetch::{spmv_prefetch, PrefetchHint};
use crate::kernels::single_loop::spmv_single_loop;

/// A CSR SpMV code variant (paper Table 2, "Code Optimization" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// Conventional nested loop.
    Naive,
    /// Single loop variable over the nonzero stream.
    SingleLoop,
    /// Software prefetch at the given distance (in nonzeros), all-levels hint.
    Prefetch(usize),
    /// Software prefetch at the given distance with a non-temporal hint,
    /// reducing outer-cache pollution as described in Section 4.1.
    PrefetchNta(usize),
}

impl KernelVariant {
    /// Every parameter-free CSR code variant plus a representative prefetch
    /// distance sweep.
    pub fn all() -> Vec<KernelVariant> {
        let mut v = vec![KernelVariant::Naive, KernelVariant::SingleLoop];
        for &d in &crate::kernels::prefetch::PREFETCH_DISTANCE_CANDIDATES[1..] {
            v.push(KernelVariant::Prefetch(d));
            v.push(KernelVariant::PrefetchNta(d));
        }
        v
    }

    /// Short human-readable name used in benchmark output.
    pub fn name(&self) -> String {
        match self {
            KernelVariant::Naive => "naive".to_string(),
            KernelVariant::SingleLoop => "single-loop".to_string(),
            KernelVariant::Prefetch(d) => format!("prefetch-t0-{d}"),
            KernelVariant::PrefetchNta(d) => format!("prefetch-nta-{d}"),
        }
    }

    /// Execute this variant on a CSR matrix of any index width: `y ← y + A·x`.
    pub fn execute<I: IndexStorage>(&self, a: &CsrMatrix<I>, x: &[f64], y: &mut [f64]) {
        match *self {
            KernelVariant::Naive => spmv_naive(a, x, y),
            KernelVariant::SingleLoop => spmv_single_loop(a, x, y),
            KernelVariant::Prefetch(d) => spmv_prefetch(a, x, y, d, PrefetchHint::AllLevels),
            KernelVariant::PrefetchNta(d) => spmv_prefetch(a, x, y, d, PrefetchHint::NonTemporal),
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
    fn names_are_unique() {
        let names: Vec<String> = KernelVariant::all().iter().map(|v| v.name()).collect();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len());
    }

    #[test]
    fn all_contains_base_variants() {
        let all = KernelVariant::all();
        assert!(all.contains(&KernelVariant::Naive));
        assert!(all.contains(&KernelVariant::SingleLoop));
        assert!(all.iter().any(|v| matches!(v, KernelVariant::Prefetch(_))));
        assert!(all.len() >= 10);
    }
}
