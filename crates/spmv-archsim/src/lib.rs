//! # spmv-archsim
//!
//! Machine models of the multicore platforms evaluated by Williams et al. (SC 2007):
//! the dual-socket dual-core AMD Opteron X2, the dual-socket quad-core Intel
//! Clovertown, the single-socket eight-core Sun Niagara T1, and the STI Cell in both
//! its PS3 (6 SPE) and QS20 blade (2×8 SPE) configurations.
//!
//! The paper's evaluation ran on the physical machines; this reproduction cannot, so
//! the crate provides **an analytic performance model** ([`perfmodel`]) in the spirit
//! of the paper's own Section 5.1/6.1 analysis: SpMV throughput is the minimum of a
//! bandwidth bound (sustained bandwidth × flop:byte of the tuned data structure, with
//! DRAM channels and NUMA topology from [`dram`] and the closed-form traffic estimate
//! of [`trace`]) and an in-core bound (loop overhead, branch mispredictions, exposed
//! memory latency, SIMD/pipelining). This model regenerates Table 4, Figure 1 and
//! Figure 2. The crate is std-only: it takes matrix sizes and byte counts, never a
//! matrix.
//!
//! Platform parameters come from the paper's Table 1 and are collected in
//! [`platforms`]; power numbers for Figure 2(b) live in [`power`].

pub mod dram;
pub mod perfmodel;
pub mod platforms;
pub mod power;
pub mod trace;

pub use perfmodel::{OptimizationLevel, ParallelScope, PerformanceModel, Prediction};
pub use platforms::{CoreKind, Platform, PlatformId};
