//! # spmv-parallel
//!
//! Thread-level parallel SpMV execution (paper Section 4.3).
//!
//! The paper parallelizes SpMV with explicitly managed Pthreads: the matrix is row
//! partitioned with nonzeros balanced across threads, each thread's block is further
//! cache/TLB/register blocked, and on NUMA systems both the thread and its matrix
//! block are pinned to the socket that owns the data. This crate reproduces that
//! execution model on `std` threads alone (no external runtime; fixed thread
//! blocks like the paper's Pthreads code, each run by its owner unless the
//! calling thread gets to it first — same rows, same kernel, same bits), with
//! one executor. Nothing here pins a thread or a page: placement is first-touch
//! only (each participant materializes its own block), and no API claims
//! otherwise.
//!
//! * [`engine`] — the zero-overhead steady-state executor: persistent workers
//!   plus the calling thread as participant 0, atomics-only spin-then-park epochs,
//!   first-touch-placed **fully tuned** `PreparedBlock`s (the plan's formats,
//!   register shapes, index widths and SIMD choice, bound at construction),
//!   precomputed disjoint `y` slices, and no
//!   per-call allocation. Each epoch carries one operation; SpMV, SpMM and the
//!   solvers' `w ← A·p` share one per-block apply, and every epoch is profiled
//!   ([`EngineProfile`]). Build it with `SpmvEngine::tuned`, or from a saved
//!   `TunePlan` profile with `SpmvEngine::from_plan`.
//! * [`solver`] — fused in-engine iterative solvers ([`FusedCg`],
//!   [`FusedPower`]): the whole CG / power-iteration step — SpMV, both dots,
//!   the vector updates — under a **single** epoch over engine-resident,
//!   first-touch-placed vector slabs, bit-identical to the serial
//!   `spmv_core::solver` references.

pub mod engine;
pub mod solver;
mod sync;

pub use engine::{EngineFootprint, EngineProfile, SpmvEngine, WorkerProfile};
pub use solver::{FusedCg, FusedPower};
