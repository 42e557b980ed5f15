//! Sparse matrix storage formats.
//!
//! The paper's data-structure optimizations are all about choosing, per cache block,
//! the smallest representation of the nonzeros (Section 4.2): register-blocked CSR
//! (BCSR), block coordinate (BCOO) when rows are sparse or empty, generalized CSR
//! (GCSR) that skips empty rows, and 16-bit index compression when a block's span
//! fits in 64K. Sliced ELL ([`SellMatrix`]) is the exception: it pads, and earns
//! its place on the tuner's clock by removing per-row overhead. The plain
//! [`CooMatrix`]/[`CsrMatrix`] formats serve as construction intermediates and as
//! the naive baseline.

pub mod bcoo;
pub mod bcsr;
pub mod coo;
pub mod csr;
pub mod gcsr;
pub mod index;
pub mod sell;
pub mod symbcsr;
pub mod symcsr;
mod tiles;
pub mod traits;

pub use bcoo::BcooMatrix;
pub use bcsr::BcsrMatrix;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use gcsr::GcsrMatrix;
pub use index::{IndexStorage, IndexWidth};
pub use sell::SellMatrix;
pub use symbcsr::SymBcsr;
pub use symcsr::{is_symmetric, SymCsr};
pub use traits::{MatrixShape, SpMv};
