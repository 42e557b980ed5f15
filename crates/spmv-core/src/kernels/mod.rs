//! SpMV code-optimization variants (paper Section 4.1).
//!
//! These kernels all consume the same [`CsrMatrix`] data structure — they are *code*
//! optimizations, not data-structure optimizations. The ladder mirrors the paper:
//!
//! * [`naive`] — conventional nested loop over `row_ptr`.
//! * [`single_loop`] — a single loop variable over the nonzero stream, exploiting the
//!   fact that CSR stores rows contiguously.
//! * [`branchless`] — segmented-scan-style accumulation with no inner-loop branch,
//!   the technique of Blelloch et al. the paper cites.
//! * [`pipelined`] — explicit software pipelining: the next iteration's operands are
//!   loaded while the current one computes, for in-order cores.
//! * [`unrolled`] — 4-way unrolled, SIMD-friendly inner loop (what the paper's
//!   SIMD-intrinsic generator emits, expressed as auto-vectorizable Rust).
//! * [`prefetch`] — software-prefetch-annotated traversal with a tunable distance.
//! * [`multivec`] — the SpMM family: the same data structures applied to a
//!   column-major block of `k` vectors at once, amortizing all index traffic.
//!
//! [`variant::KernelVariant`] provides uniform dispatch so the benchmarks can sweep
//! the whole set.

pub mod blocked;
pub mod branchless;
pub mod multivec;
pub mod naive;
pub mod pipelined;
pub mod prefetch;
pub mod simd;
pub mod single_loop;
pub mod symmetric;
pub mod unrolled;
pub mod variant;

pub use variant::KernelVariant;

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
