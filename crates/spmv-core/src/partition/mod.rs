//! Thread-level decomposition of SpMV (paper Section 4.3).
//!
//! The paper considers three strategies — row partitioning, column partitioning and
//! a thread-level segmented scan — and evaluates only the first. Row partitioning is
//! the one implemented here, as a *descriptor* (pure data describing which thread
//! owns which rows) that the tuner plans and the `spmv-parallel` engine executes.

pub mod row;

pub use row::{partition_rows_balanced, partition_rows_equal, RowPartition};
