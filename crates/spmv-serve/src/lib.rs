//! # spmv-serve
//!
//! The batching SpMV **service layer**: the subsystem that turns tuned matrices
//! into a long-running, request-serving system.
//!
//! The paper (and `spmv-core`) optimize one `y ← y + A·x` for one right-hand
//! side, where the structure's *index traffic* is the dominant cost. A serving
//! workload — many independent clients asking for products against a small set
//! of hot matrices — presents the same matrix with many vectors concurrently,
//! and that index traffic amortizes perfectly if the requests are applied
//! together. This crate does exactly that:
//!
//! * [`registry::MatrixRegistry`] — named matrices, each carrying its
//!   [`spmv_core::tuning::plan::TunePlan`] (loadable/savable via the plain-text
//!   profile format) and a running, fully tuned
//!   [`spmv_parallel::SpmvEngine`].
//! * [`batcher::Batcher`] — coalesces concurrent single-vector requests into
//!   multi-vector (SpMM) batches — whatever queued while the previous batch
//!   ran, up to a configurable width, cut the moment the service is free —
//!   then answers every request from the batched result. Because the
//!   SpMM kernels are bit-identical per vector to the tuned SpMV path, clients
//!   cannot observe whether their request was batched.
//! * [`solver::SolverSession`] — stateful fused-CG solves bound to a served
//!   matrix: resident vectors between `iterate(n)` batches, single-barrier
//!   iteration epochs, and automatic hot-swap onto retuned plans mid-solve.
//! * [`stats::ServeStats`] — per-request latency and aggregate GFLOP/s
//!   accounting for the serve loop.
//!
//! The registry composes with the timed tuner of `spmv-core`:
//! [`MatrixRegistry::with_cache`] persists plans in a fingerprint-keyed
//! [`TuneCache`] so known matrices skip the planner, and
//! [`MatrixRegistry::retune_background`] replans a live matrix off the
//! serving path and hot-swaps the new engine in atomically.
//!
//! ```no_run
//! use spmv_core::formats::{CooMatrix, CsrMatrix};
//! use spmv_core::tuning::TuningConfig;
//! use spmv_serve::{BatchPolicy, Batcher, MatrixRegistry};
//!
//! let registry = MatrixRegistry::new(4, TuningConfig::full());
//! let csr = CsrMatrix::from_coo(&CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0)]).unwrap());
//! let served = registry.insert("ads-ctr", &csr).unwrap();
//! let batcher = Batcher::spawn(served, BatchPolicy::default());
//! let y = batcher.apply(vec![1.0, 2.0]).unwrap();
//! assert_eq!(y, vec![1.0, 0.0]);
//! ```

pub mod batcher;
pub mod registry;
pub mod solver;
pub mod stats;

pub use batcher::{BatchPolicy, Batcher, Ticket};
pub use registry::{MatrixRegistry, ServedMatrix};
pub use solver::SolverSession;
pub use spmv_core::tuning::autotune::{MatrixFingerprint, TuneCache};
pub use stats::{ServeReport, ServeStats};

use std::fmt;

/// Errors of the service layer.
#[derive(Debug)]
pub enum ServeError {
    /// A request vector's length does not match the matrix's column count.
    DimensionMismatch {
        /// Expected length (the matrix's `ncols`).
        expected: usize,
        /// Length actually submitted.
        found: usize,
    },
    /// The batcher (or the reply channel) was shut down before the request
    /// completed.
    Closed,
    /// The batch this request was served in panicked during execution; the
    /// queue stays usable and the request may be retried.
    BatchPanicked,
    /// Admission control refused the request: the bounded queue in front of
    /// the matrix is full. Retry after backing off.
    Overloaded {
        /// Requests already waiting when the submit was refused.
        pending: usize,
    },
    /// A matrix with this name is already registered.
    AlreadyRegistered(String),
    /// No matrix with this name is registered.
    UnknownMatrix(String),
    /// A solver session was requested on a non-square matrix.
    NotSquare {
        /// Row count of the offending matrix.
        nrows: usize,
        /// Column count of the offending matrix.
        ncols: usize,
    },
    /// Building the tuned engine (or validating a plan) failed.
    Build(spmv_core::error::Error),
    /// Reading or writing a tune-plan profile failed.
    Profile(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "request vector has length {found}, matrix expects {expected}"
                )
            }
            ServeError::Closed => write!(f, "the batcher is shut down"),
            ServeError::BatchPanicked => {
                write!(
                    f,
                    "the batch serving this request panicked during execution"
                )
            }
            ServeError::Overloaded { pending } => {
                write!(f, "queue full ({pending} requests pending), retry later")
            }
            ServeError::AlreadyRegistered(name) => {
                write!(f, "matrix '{name}' is already registered")
            }
            ServeError::UnknownMatrix(name) => write!(f, "no matrix named '{name}'"),
            ServeError::NotSquare { nrows, ncols } => {
                write!(
                    f,
                    "solver sessions need a square matrix, got {nrows}x{ncols}"
                )
            }
            ServeError::Build(e) => write!(f, "engine build failed: {e}"),
            ServeError::Profile(e) => write!(f, "tune-plan profile error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<spmv_core::error::Error> for ServeError {
    fn from(e: spmv_core::error::Error) -> Self {
        ServeError::Build(e)
    }
}

/// Result alias for the service layer.
pub type Result<T> = std::result::Result<T, ServeError>;
