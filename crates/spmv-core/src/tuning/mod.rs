//! Matrix-structure autotuning (paper Section 4.2): **one pass proposes, the
//! clock disposes**.
//!
//! The paper's key departure from OSKI is that the data structure is chosen by a
//! **one-pass heuristic that minimizes the matrix footprint** rather than by a
//! benchmark-driven search: for memory-bound multicore SpMV, the smallest structure
//! is (almost always) the fastest. Its own caveats are the "almost": register
//! blocking only when the fill pays, cache and TLB blocking only when `x` does
//! not fit. The pipeline is:
//!
//! 1. Split the matrix into cache blocks ([`crate::blocking::cache`]), optionally
//!    refined by TLB blocking ([`crate::blocking::tlb`]).
//! 2. For each cache block, estimate the fill of every register block shape
//!    ([`crate::blocking::register`]), combine with the index-width and
//!    BCSR/BCOO/GCSR choice, and pick the smallest encoding
//!    ([`heuristic`]).
//! 3. Let the clock decide what the byte count cannot: per thread share the pass
//!    proposes at most five structures ([`ladder_rungs`]), [`TunePlan::new`]
//!    times the distinct ones and keeps the incumbent unless a finer rung wins
//!    by a margin ([`ShareLadder`]). The timed ladder skips step 1's cache
//!    and TLB grids (rungs `C` and `D`), which never won on the hosts
//!    measured: the clock sees rungs `A`, `S` and `B` of every share, whatever
//!    its size, and a symmetric matrix's lower-triangle plan against the
//!    general one. Only [`TunePlan::heuristic`], the untimed planner of the
//!    paper reproductions, skips this step and keeps the finest grid.
//! 4. Materialize the winning choice per block into a [`crate::blocking::CacheBlock`].
//!
//! Step 3 is the one timed search. [`search`] holds its timing helper and the
//! OSKI-style register-shape heuristic the baseline crate uses; [`autotune`]
//! persists whatever [`TunePlan::new`] chose in a fingerprint-keyed
//! [`TuneCache`], so a matrix seen twice is planned once.
//! [`optimizations`] is the machine-readable form of the paper's Table 2.
//!
//! The pipeline is exposed in **two phases** so tuning cost can be paid once and
//! amortized: [`plan`] produces a serializable [`TunePlan`] (row partition +
//! per-thread per-cache-block decisions + SIMD choice), and [`prepared`]
//! materializes a plan into kernel-bound [`PreparedBlock`]s — on the executing
//! thread, for first-touch NUMA placement. The serial tuned form is the same
//! pipeline at one thread: `TunePlan::new(csr, 1, cfg)` materialized by
//! [`PreparedMatrix`].

pub mod autotune;
pub mod footprint;
pub mod heuristic;
pub mod optimizations;
pub mod plan;
pub mod prepared;
pub mod search;

pub use autotune::{MatrixFingerprint, TuneCache};
pub use footprint::{FormatChoice, FormatKind};
pub use heuristic::{
    ladder_rungs, materialize_decisions, plan_symmetric_thread, BlockDecision, Rung, TuningConfig,
};
pub use plan::{
    choose_rung, general_beats_symmetric, LadderRung, ShareLadder, ThreadPlan, TunePlan,
};
pub use prepared::{fold_rows, PreparedBlock, PreparedMatrix};
pub use search::{search_register_blocking, SearchOutcome};
