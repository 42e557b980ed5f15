//! # spmv-multicore
//!
//! Umbrella crate for the reproduction of Williams et al., *"Optimization of Sparse
//! Matrix-Vector Multiplication on Emerging Multicore Platforms"* (SC 2007).
//!
//! It re-exports the workspace crates so examples and downstream users can depend on
//! a single package:
//!
//! * [`spmv_core`] — sparse formats, kernels, blocking heuristics, and the
//!   footprint-minimizing autotuner (the paper's primary contribution).
//! * [`spmv_matrices`] — the synthetic Table 3 matrix suite and MatrixMarket I/O.
//! * [`spmv_parallel`] — thread-parallel SpMV execution: the persistent-worker
//!   engine over first-touch-placed prepared thread blocks.
//! * [`spmv_archsim`] — machine models of the five evaluated platforms and the
//!   analytic performance model behind the table/figure reproductions.
//! * [`spmv_baseline`] — the OSKI and OSKI-PETSc baselines.
//! * [`spmv_obs`] — the engine-wide observability layer: counters, gauges,
//!   log-bucketed latency histograms, shared timing helpers, and the
//!   `SPMV_TRACE`-gated event ring.
//!
//! See `README.md` for a quickstart and the system inventory, and
//! `EXPERIMENTS.md` for the paper-versus-measured comparison of every table and
//! figure.

pub use spmv_archsim;
pub use spmv_baseline;
pub use spmv_core;
pub use spmv_matrices;
pub use spmv_net;
pub use spmv_obs;
pub use spmv_parallel;
pub use spmv_serve;

/// Convenience prelude pulling in the types most examples need.
pub mod prelude {
    pub use spmv_archsim::perfmodel::{
        OptimizationLevel, ParallelScope, PerformanceModel, WorkloadProfile,
    };
    pub use spmv_archsim::platforms::PlatformId;
    pub use spmv_baseline::oski::OskiMatrix;
    pub use spmv_baseline::petsc::OskiPetsc;
    pub use spmv_core::formats::{CooMatrix, CsrMatrix};
    pub use spmv_core::multivec::MultiVec;
    pub use spmv_core::tuning::{
        MatrixFingerprint, PreparedMatrix, TuneCache, TunePlan, TuningConfig,
    };
    pub use spmv_core::{MatrixShape, SpMv};
    pub use spmv_matrices::suite::{Scale, SuiteMatrix};
    pub use spmv_parallel::SpmvEngine;
    pub use spmv_serve::{BatchPolicy, Batcher, MatrixRegistry};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_an_end_to_end_path() {
        let coo = SuiteMatrix::Circuit.generate(Scale::Tiny);
        let csr = CsrMatrix::from_coo(&coo);
        let plan = TunePlan::new(&csr, 1, &TuningConfig::full());
        let tuned = PreparedMatrix::materialize(&csr, &plan).unwrap();
        let x = vec![1.0; csr.ncols()];
        let y_ref = csr.spmv_alloc(&x);
        let y_tuned = tuned.spmv_alloc(&x);
        let diff = y_ref
            .iter()
            .zip(y_tuned.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(diff < 1e-9);
    }
}
