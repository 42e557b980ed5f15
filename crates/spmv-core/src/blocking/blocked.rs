//! Independently formatted cache blocks.
//!
//! After the cache/TLB blocking passes split the matrix into a grid of blocks, the
//! register-blocking heuristic is applied *independently to each cache block*
//! (Section 4.2: "it is possible for some cache blocks to be stored in 1x4 BCOO with
//! 32-bit indices, and others in 4x1 BCSR with 16-bit indices"). This module holds
//! that per-block choice; `tuning::prepared::PreparedBlock` owns and executes the
//! blocks.

use crate::formats::bcoo::BcooMatrix;
use crate::formats::bcsr::BcsrAuto;
use crate::formats::csr::CompressedCsr;
use crate::formats::gcsr::GcsrMatrix;
use crate::formats::sell::SellAuto;
use crate::formats::traits::{MatrixShape, SpMv};
use crate::kernels::simd::SimdLevel;
use std::ops::Range;

/// The storage format selected for one cache block.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockFormat {
    /// Plain CSR with a once-selected index width (used when blocking is disabled
    /// or the block is tiny).
    Csr(CompressedCsr),
    /// Register-blocked CSR with a once-selected index width.
    Bcsr(BcsrAuto),
    /// Block-coordinate storage (wins when most rows of the block are empty).
    Bcoo(BcooMatrix),
    /// Generalized CSR storing only occupied rows.
    Gcsr(GcsrMatrix),
    /// Row-sorted sliced ELL: four short rows per SIMD pass (the ladder's rung `S`).
    Sell(SellAuto),
}

impl BlockFormat {
    /// Bytes of matrix data in this block.
    pub fn footprint_bytes(&self) -> usize {
        match self {
            BlockFormat::Csr(m) => m.footprint_bytes(),
            BlockFormat::Bcsr(m) => m.footprint_bytes(),
            BlockFormat::Bcoo(m) => m.footprint_bytes(),
            BlockFormat::Gcsr(m) => m.footprint_bytes(),
            BlockFormat::Sell(m) => m.shape().footprint_bytes(),
        }
    }

    /// Logical nonzeros in this block.
    pub fn nnz(&self) -> usize {
        match self {
            BlockFormat::Csr(m) => m.nnz(),
            BlockFormat::Bcsr(m) => m.nnz(),
            BlockFormat::Bcoo(m) => m.nnz(),
            BlockFormat::Gcsr(m) => m.nnz(),
            BlockFormat::Sell(m) => m.shape().nnz(),
        }
    }

    /// Stored entries (including register-blocking fill).
    pub fn stored_entries(&self) -> usize {
        match self {
            BlockFormat::Csr(m) => m.stored_entries(),
            BlockFormat::Bcsr(m) => m.stored_entries(),
            BlockFormat::Bcoo(m) => m.stored_entries(),
            BlockFormat::Gcsr(m) => m.stored_entries(),
            BlockFormat::Sell(m) => m.shape().stored_entries(),
        }
    }

    /// Execute `y_local ← y_local + block · x_local` on block-local vectors, on
    /// the portable kernels.
    pub fn spmv_local(&self, x: &[f64], y: &mut [f64]) {
        match self {
            BlockFormat::Csr(m) => m.spmv(x, y),
            BlockFormat::Bcsr(m) => m.spmv(x, y),
            BlockFormat::Bcoo(m) => m.spmv(x, y),
            BlockFormat::Gcsr(m) => m.spmv(x, y),
            BlockFormat::Sell(m) => m.spmv_at(SimdLevel::Scalar, x, y),
        }
    }

    /// Execute `Y_local ← Y_local + block · X_local` on a column-major block of
    /// vectors: `x` starts at the block's first column (column `j` of the source
    /// at `x[j*x_ld ..]`), `y` exposes exactly the block's rows.
    pub fn spmm_local(&self, x: &[f64], x_ld: usize, y: &mut crate::multivec::MultiVecMut) {
        use crate::kernels::multivec;
        match self {
            BlockFormat::Csr(m) => m.spmm(x, x_ld, y),
            BlockFormat::Bcsr(m) => m.spmm(x, x_ld, y),
            BlockFormat::Bcoo(m) => multivec::spmm_bcoo(m, x, x_ld, y),
            BlockFormat::Gcsr(m) => multivec::spmm_gcsr(m, x, x_ld, y),
            BlockFormat::Sell(m) => m.spmm_at(SimdLevel::Scalar, x, x_ld, y),
        }
    }
}

/// One cache block: a sub-matrix with its own storage format and its placement in the
/// global index space.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheBlock {
    /// Global row range this block covers.
    pub rows: Range<usize>,
    /// Global column range this block covers.
    pub cols: Range<usize>,
    /// Per-block storage.
    pub format: BlockFormat,
}

impl CacheBlock {
    /// Execute this block against the *global* source/destination vectors.
    pub fn spmv_global(&self, x: &[f64], y: &mut [f64]) {
        let x_local = &x[self.cols.start..self.cols.end];
        let y_local = &mut y[self.rows.start..self.rows.end];
        self.format.spmv_local(x_local, y_local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;
    use crate::formats::csr::CsrMatrix;
    use crate::formats::index::IndexWidth;
    use crate::formats::CooMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_coo(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CooMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(nrows, ncols);
        for _ in 0..nnz {
            coo.push(
                rng.random_range(0..nrows),
                rng.random_range(0..ncols),
                rng.random_range(-1.0..1.0),
            );
        }
        coo
    }

    /// Build a 2x2 grid of cache blocks with mixed formats by hand.
    fn hand_blocked(coo: &CooMatrix) -> Vec<CacheBlock> {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let rmid = nrows / 2;
        let cmid = ncols / 2;
        let specs = [
            (0..rmid, 0..cmid),
            (0..rmid, cmid..ncols),
            (rmid..nrows, 0..cmid),
            (rmid..nrows, cmid..ncols),
        ];
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (rows, cols))| {
                let sub = coo.sub_block(rows.clone(), cols.clone());
                let csr = CsrMatrix::from_coo(&sub);
                let format = match i {
                    0 => BlockFormat::Csr(CompressedCsr::from_csr(&csr)),
                    1 => {
                        BlockFormat::Bcsr(BcsrAuto::from_csr(&csr, 2, 2, IndexWidth::U16).unwrap())
                    }
                    2 => BlockFormat::Bcoo(
                        BcooMatrix::from_csr(&csr, 1, 2, IndexWidth::U16).unwrap(),
                    ),
                    _ => BlockFormat::Gcsr(GcsrMatrix::from_csr(&csr, IndexWidth::U16).unwrap()),
                };
                CacheBlock { rows, cols, format }
            })
            .collect()
    }

    #[test]
    fn mixed_format_blocks_match_reference() {
        let coo = random_coo(60, 80, 700, 12);
        let reference = CsrMatrix::from_coo(&coo);
        let blocks = hand_blocked(&coo);
        let x: Vec<f64> = (0..80).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut y = vec![0.0; 60];
        for block in &blocks {
            block.spmv_global(&x, &mut y);
        }
        assert!(max_abs_diff(&reference.spmv_alloc(&x), &y) < 1e-10);
        let nnz: usize = blocks.iter().map(|b| b.format.nnz()).sum();
        assert_eq!(nnz, reference.nnz());
        let stored: usize = blocks.iter().map(|b| b.format.stored_entries()).sum();
        assert!(stored >= nnz);
    }
}
