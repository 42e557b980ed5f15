//! # spmv-bench
//!
//! The experiment harness that regenerates every table and figure of the paper's
//! evaluation, plus Criterion benchmarks that time the actual Rust kernels on the
//! host, variant by variant.
//!
//! Two kinds of numbers come out of this crate, and they answer different questions:
//!
//! * The **binaries** (`table1` … `figure2`) reproduce the paper's published numbers
//!   through the architecture models of `spmv-archsim`, driven by the real tuned data
//!   structures built by `spmv-core` on the synthetic Table 3 suite. They answer
//!   "does this reproduction recover the paper's shape: who wins, by how much, and
//!   why?".
//! * The **Criterion benches** time the actual kernels on the host CPU. They answer
//!   "do the optimizations implemented here actually speed up SpMV on real hardware
//!   today?" — the native analogue of Figure 1's per-matrix ladders.
//!
//! Neither carries a performance claim: the repo's one yardstick is the standalone
//! `benchmark/` package that `BENCHMARK.json` declares.
//!
//! Shared logic lives in [`experiments`] (optimization ladders, workload-profile
//! construction) and [`format`] (plain-text table rendering, the scale argument).

pub mod experiments;
pub mod format;

pub use experiments::{ladder_for, run_ladder, run_rung, ExperimentResult, Rung, RungKind};
