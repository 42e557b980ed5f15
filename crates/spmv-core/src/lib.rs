//! # spmv-core
//!
//! Multicore-optimized sparse matrix–vector multiplication (SpMV), reproducing the
//! optimization framework of Williams et al., *"Optimization of Sparse Matrix-Vector
//! Multiplication on Emerging Multicore Platforms"* (SC 2007).
//!
//! The crate provides the three optimization classes the paper studies:
//!
//! 1. **Code optimizations** ([`kernels`]) — naive nested-loop CSR, single-loop-variable
//!    traversal, prefetch-annotated variants and explicit SIMD microkernels.
//! 2. **Data-structure optimizations** ([`formats`], [`blocking`], [`tuning`]) — register
//!    blocking (BCSR with power-of-two tiles up to 4×4), block-coordinate storage (BCOO),
//!    generalized CSR for empty rows, 16-bit/32-bit index compression, sparse cache
//!    blocking, TLB blocking, and a one-pass footprint-minimizing format heuristic.
//! 3. **Parallelization support** ([`partition`]) — row partitioning balanced by
//!    nonzeros, the descriptor the `spmv-parallel` engine executes.
//!
//! The computation implemented throughout is `y ← y + A·x` with `f64` values,
//! matching the paper's kernel definition.
//!
//! ## Quick start
//!
//! ```
//! use spmv_core::formats::{CooMatrix, CsrMatrix};
//! use spmv_core::SpMv;
//!
//! // Build a small matrix from triplets.
//! let mut coo = CooMatrix::new(3, 3);
//! coo.push(0, 0, 2.0);
//! coo.push(1, 1, 3.0);
//! coo.push(2, 0, 1.0);
//! coo.push(2, 2, 4.0);
//! let csr = CsrMatrix::from_coo(&coo);
//!
//! let x = vec![1.0, 2.0, 3.0];
//! let mut y = vec![0.0; 3];
//! csr.spmv(&x, &mut y);
//! assert_eq!(y, vec![2.0, 6.0, 13.0]);
//! ```

pub mod blocking;
pub mod dense;
pub mod error;
pub mod formats;
pub mod kernels;
pub mod multivec;
pub mod partition;
pub mod solver;
pub mod stats;
pub mod tuning;

pub use error::{Error, Result};
pub use formats::traits::{MatrixShape, SpMv};
pub use formats::{BcooMatrix, BcsrMatrix, CooMatrix, CsrMatrix, GcsrMatrix, SymBcsr, SymCsr};
pub use multivec::{MultiVec, MultiVecMut};
pub use solver::{SerialCg, SerialPower};
pub use tuning::{
    MatrixFingerprint, PreparedBlock, PreparedMatrix, TuneCache, TunePlan, TuningConfig,
};

/// Size in bytes of a double-precision matrix value.
pub const VALUE_BYTES: usize = 8;

/// Size in bytes of a full-width (32-bit) column/row index.
pub const INDEX32_BYTES: usize = 4;

/// Size in bytes of a compressed (16-bit) column/row index.
pub const INDEX16_BYTES: usize = 2;

/// The number of flops a single stored nonzero contributes to SpMV
/// (one multiply plus one add), as used throughout the paper's flop:byte analysis.
pub const FLOPS_PER_NNZ: usize = 2;
