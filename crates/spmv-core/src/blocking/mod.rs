//! Data-structure blocking heuristics (paper Section 4.2).
//!
//! * [`register`] — estimate fill ratio and storage footprint for every candidate
//!   register block shape without materializing the blocked matrix.
//! * [`cache`] — *sparse cache blocking*: split the matrix into panels whose touched
//!   source/destination cache lines fit a fixed budget, so every cache block costs
//!   the same number of lines even though the column spans differ.
//! * [`tlb`] — the same idea at page granularity, applied between the row and column
//!   cache-blocking passes, to bound TLB misses.
//! * [`blocked`] — one cache block and its storage format, chosen independently
//!   per block by the tuning heuristic.

pub mod blocked;
pub mod cache;
pub mod register;
pub mod tlb;

pub use blocked::{BlockFormat, CacheBlock};
pub use cache::{CacheBlocking, CacheBlockingConfig};
pub use register::{estimate_fill, register_block_candidates, FillEstimate};
pub use tlb::{TlbBlocking, TlbConfig};
