//! Independently formatted cache blocks.
//!
//! After the cache/TLB blocking passes split the matrix into a grid of blocks, the
//! register-blocking heuristic is applied *independently to each cache block*
//! (Section 4.2: "it is possible for some cache blocks to be stored in 1x4 BCOO with
//! 32-bit indices, and others in 4x1 BCSR with 16-bit indices"). A block's storage
//! is a [`Cell`], generic over the index width like every format; [`BlockFormat`]
//! holds it at the width the plan chose, and each of its methods matches that
//! width once and runs the one generic body. `tuning::heuristic::try_materialize`
//! builds the blocks; `tuning::prepared::PreparedBlock` owns and executes them.

use crate::formats::traits::{MatrixShape, SpMv};
use crate::formats::{
    BcooMatrix, BcsrMatrix, CsrMatrix, GcsrMatrix, IndexStorage, SellMatrix, SymBcsr, SymCsr,
};
use crate::kernels::simd::{self, SimdLevel};
use crate::kernels::{multivec, single_loop::spmv_single_loop};
use crate::multivec::MultiVecMut;
use std::ops::Range;

/// One block's storage at index width `I`.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell<I: IndexStorage> {
    /// Plain CSR (used when blocking is disabled or the block is tiny).
    Csr(CsrMatrix<I>),
    /// Register-blocked CSR.
    Bcsr(BcsrMatrix<I>),
    /// Block-coordinate storage (wins when most rows of the block are empty).
    Bcoo(BcooMatrix<I>),
    /// Generalized CSR storing only occupied rows.
    Gcsr(GcsrMatrix<I>),
    /// Row-sorted sliced ELL: four short rows per SIMD pass (the ladder's rung `S`).
    Sell(SellMatrix<I>),
    /// A symmetric thread slab as diagonal + strictly-lower CSR. Slabs scatter
    /// below their own rows, so they take full-length vectors.
    SymCsr(SymCsr<I>),
    /// A symmetric thread slab as diagonal + strictly-lower register tiles.
    SymBcsr(SymBcsr<I>),
}

/// The dispatch level sliced ELL runs at.
fn level(simd: bool) -> SimdLevel {
    if simd {
        simd::detect()
    } else {
        SimdLevel::Scalar
    }
}

impl<I: IndexStorage> Cell<I> {
    fn shape(&self) -> &dyn MatrixShape {
        match self {
            Cell::Csr(m) => m,
            Cell::Bcsr(m) => m,
            Cell::Bcoo(m) => m,
            Cell::Gcsr(m) => m,
            Cell::Sell(m) => m,
            Cell::SymCsr(m) => m,
            Cell::SymBcsr(m) => m,
        }
    }

    fn execute(&self, simd: bool, x: &[f64], y: &mut [f64]) {
        match self {
            Cell::Csr(m) if simd => simd::spmv_csr_simd(m, x, y),
            Cell::Csr(m) => spmv_single_loop(m, x, y),
            Cell::Bcsr(m) if simd => simd::spmv_bcsr_simd(m, x, y),
            Cell::Bcsr(m) => m.spmv(x, y),
            Cell::Bcoo(m) => m.spmv(x, y),
            Cell::Gcsr(m) => m.spmv(x, y),
            Cell::Sell(m) => simd::spmv_sell_at(level(simd), m, x, y),
            Cell::SymCsr(m) => m.spmv_full(x, y),
            Cell::SymBcsr(m) if simd => simd::spmv_sym_bcsr_simd(m, x, y),
            Cell::SymBcsr(m) => m.spmv_full(x, y),
        }
    }

    fn spmm(&self, simd: bool, x: &[f64], x_ld: usize, y: &mut MultiVecMut) {
        match self {
            Cell::Csr(m) if simd => simd::spmm_csr_simd(m, x, x_ld, y),
            Cell::Csr(m) => multivec::spmm_csr(m, x, x_ld, y),
            Cell::Bcsr(m) if simd => simd::spmm_bcsr_simd(m, x, x_ld, y),
            Cell::Bcsr(m) => multivec::spmm_bcsr(m, x, x_ld, y),
            Cell::Bcoo(m) => multivec::spmm_bcoo(m, x, x_ld, y),
            Cell::Gcsr(m) => multivec::spmm_gcsr(m, x, x_ld, y),
            Cell::Sell(m) => simd::spmm_sell_at(level(simd), m, x, x_ld, y),
            Cell::SymCsr(_) | Cell::SymBcsr(_) => {
                let n = self.shape().ncols();
                for j in 0..y.k() {
                    self.execute(simd, &x[j * x_ld..][..n], y.col_mut(j));
                }
            }
        }
    }
}

/// A block's storage at the index width its plan chose.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockFormat {
    /// 16-bit indices: every span the block indexes fits 64K.
    U16(Cell<u16>),
    /// 32-bit indices.
    U32(Cell<u32>),
}

impl BlockFormat {
    fn shape(&self) -> &dyn MatrixShape {
        match self {
            BlockFormat::U16(cell) => cell.shape(),
            BlockFormat::U32(cell) => cell.shape(),
        }
    }

    /// `y ← y + block·x` on block-local vectors (full-length ones for a
    /// symmetric slab). With `simd`, streaming CSR, covered BCSR and `SymBcsr`
    /// shapes and sliced ELL run the explicit vector kernels (scalar on
    /// uncovered shapes and hosts, inside the dispatch); BCOO, GCSR and `SymCsr`
    /// are scalar either way. Without it CSR runs the single-loop kernel and
    /// sliced ELL its `mul_add` arm.
    pub fn execute(&self, simd: bool, x: &[f64], y: &mut [f64]) {
        match self {
            BlockFormat::U16(cell) => cell.execute(simd, x, y),
            BlockFormat::U32(cell) => cell.execute(simd, x, y),
        }
    }

    /// `Y ← Y + block·X` over a column-major block of vectors: `x` starts at the
    /// block's first column (column `j` of the source at `x[j*x_ld ..]`), `y`
    /// exposes exactly the block's rows. Per vector bit-identical to
    /// [`BlockFormat::execute`] with the same `simd`: each multivec kernel
    /// repeats its SpMV kernel's accumulation order.
    pub fn spmm(&self, simd: bool, x: &[f64], x_ld: usize, y: &mut MultiVecMut) {
        match self {
            BlockFormat::U16(cell) => cell.spmm(simd, x, x_ld, y),
            BlockFormat::U32(cell) => cell.spmm(simd, x, x_ld, y),
        }
    }
}

impl MatrixShape for BlockFormat {
    fn nrows(&self) -> usize {
        self.shape().nrows()
    }
    fn ncols(&self) -> usize {
        self.shape().ncols()
    }
    fn stored_entries(&self) -> usize {
        self.shape().stored_entries()
    }
    fn nnz(&self) -> usize {
        self.shape().nnz()
    }
    fn footprint_bytes(&self) -> usize {
        self.shape().footprint_bytes()
    }
}

impl SpMv for BlockFormat {
    /// [`BlockFormat::execute`] on the portable kernels.
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.execute(false, x, y);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;
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
                    0 => BlockFormat::U32(Cell::Csr(csr)),
                    1 => BlockFormat::U16(Cell::Bcsr(BcsrMatrix::from_csr(&csr, 2, 2).unwrap())),
                    2 => BlockFormat::U16(Cell::Bcoo(BcooMatrix::from_csr(&csr, 1, 2).unwrap())),
                    _ => BlockFormat::U16(Cell::Gcsr(GcsrMatrix::from_csr(&csr).unwrap())),
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
            let (rows, cols) = (block.rows.clone(), block.cols.clone());
            block.format.spmv(&x[cols], &mut y[rows]);
        }
        assert!(max_abs_diff(&reference.spmv_alloc(&x), &y) < 1e-10);
        let nnz: usize = blocks.iter().map(|b| b.format.nnz()).sum();
        assert_eq!(nnz, reference.nnz());
        let stored: usize = blocks.iter().map(|b| b.format.stored_entries()).sum();
        assert!(stored >= nnz);
    }
}
