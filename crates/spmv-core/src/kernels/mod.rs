//! SpMV code-optimization variants (paper Section 4.1).
//!
//! These kernels all consume the same [`CsrMatrix`] data structure — they are *code*
//! optimizations, not data-structure optimizations. The ladder mirrors the paper:
//!
//! * [`naive`] — conventional nested loop over `row_ptr`.
//! * [`single_loop`] — a single loop variable over the nonzero stream, exploiting the
//!   fact that CSR stores rows contiguously.
//! * [`prefetch`] — software-prefetch-annotated traversal with a tunable distance.
//! * [`multivec`] — the SpMM family: the same data structures applied to a
//!   column-major block of `k` vectors at once, amortizing all index traffic.
//!
//! The plan binds the single-loop kernel to non-SIMD CSR blocks; the prefetch
//! kernel is kept for the paper's code-optimization tables and no plan selects
//! it. The paper's branchless segmented scan (no speedup on x86) and software
//! pipelining (applied only to in-order cores) are not implemented.

pub mod blocked;
pub mod multivec;
pub mod naive;
pub mod prefetch;
pub mod simd;
pub mod single_loop;
pub mod symmetric;

#[cfg(test)]
pub(crate) mod testing {
    use crate::formats::CooMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random rectangular test matrix with roughly `nnz` entries.
    pub fn random_coo(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CooMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(nrows, ncols);
        for _ in 0..nnz {
            coo.push(
                rng.random_range(0..nrows),
                rng.random_range(0..ncols),
                rng.random_range(-1.0..1.0),
            );
        }
        coo
    }

    /// A source vector with deterministic, non-trivial contents.
    pub fn test_x(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 + 11) % 101) as f64 * 0.25 - 10.0)
            .collect()
    }
}
