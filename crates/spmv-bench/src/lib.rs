//! # spmv-bench
//!
//! The experiment harness that regenerates every table and figure of the paper's
//! evaluation.
//!
//! The binaries (`table1` … `figure2`) reproduce the paper's published numbers
//! through the architecture models of `spmv-archsim`, driven by the real tuned data
//! structures built by `spmv-core` on the synthetic Table 3 suite. They answer
//! "does this reproduction recover the paper's shape: who wins, by how much, and
//! why?". Their output depends on no host property, so their `tiny` stdout is
//! pinned in `golden/`.
//!
//! They carry no performance claim: the repo's one yardstick is the standalone
//! `benchmark/` package that `BENCHMARK.json` declares.
//!
//! Shared logic lives in [`experiments`] (optimization ladders, workload-profile
//! construction) and [`format`] (plain-text table rendering, the scale argument).

pub mod experiments;
pub mod format;

pub use experiments::{ladder_for, run_ladder, run_rung, ExperimentResult, Rung, RungKind};
