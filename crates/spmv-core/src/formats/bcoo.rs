//! Block coordinate (BCOO) storage.
//!
//! When a cache block contains many empty rows, CSR-style row pointers waste storage
//! and the kernel wastes time starting zero-length loops. The paper's alternative
//! (Section 4.2) stores an explicit `(block row, block column)` coordinate with every
//! register tile, so only occupied tiles cost anything. Both coordinates may be
//! 16-bit compressed when the block spans fit.

use crate::error::{Error, Result};
use crate::formats::bcsr::block_shape_supported;
use crate::formats::coo::CooMatrix;
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexStorage;
use crate::formats::tiles::{block_row, push_tiles};
use crate::formats::traits::{check_dims, MatrixShape, SpMv};
use crate::VALUE_BYTES;

/// Block-coordinate sparse matrix with `r × c` register tiles, both tile
/// coordinates stored at width `I`.
#[derive(Debug, Clone, PartialEq)]
pub struct BcooMatrix<I: IndexStorage = u32> {
    nrows: usize,
    ncols: usize,
    r: usize,
    c: usize,
    logical_nnz: usize,
    /// Block row coordinate per tile (units of `r` rows).
    block_rows: Vec<I>,
    /// Block column coordinate per tile (units of `c` columns).
    block_cols: Vec<I>,
    /// Tile values, `r * c` per tile, row-major within the tile, tiles sorted by
    /// (block row, block column) so destination accesses are monotone.
    values: Vec<f64>,
}

impl<I: IndexStorage> BcooMatrix<I> {
    /// Build from CSR with the requested tile shape; both block spans must fit `I`.
    pub fn from_csr(csr: &CsrMatrix, r: usize, c: usize) -> Result<Self> {
        if !block_shape_supported(r, c) {
            return Err(Error::UnsupportedBlockSize { r, c });
        }
        let nrows = csr.nrows();
        let ncols = csr.ncols();
        let nblock_rows = nrows.div_ceil(r);
        let nblock_cols = ncols.div_ceil(c);
        if !I::fits(nblock_rows) || !I::fits(nblock_cols) {
            return Err(Error::IndexWidthOverflow {
                dimension: nblock_rows.max(nblock_cols),
            });
        }

        // Block rows in order, each merged by block column: exactly the
        // (block row, block column) tile order.
        let (mut block_rows, mut block_cols, mut values) = (vec![], vec![], vec![]);
        for brow in 0..nblock_rows {
            let at = I::try_from_usize(brow).expect("span checked above");
            push_tiles(csr, block_row(csr, brow, r), r, c, &mut values, |bc| {
                block_rows.push(at);
                block_cols.push(I::try_from_usize(bc).expect("span checked above"));
            });
        }

        Ok(BcooMatrix {
            nrows,
            ncols,
            r,
            c,
            logical_nnz: csr.nnz(),
            block_rows,
            block_cols,
            values,
        })
    }

    /// Build from coordinate format.
    pub fn from_coo(coo: &CooMatrix, r: usize, c: usize) -> Result<Self> {
        Self::from_csr(&CsrMatrix::from_coo(coo), r, c)
    }

    /// Rows per register tile.
    pub fn block_rows_dim(&self) -> usize {
        self.r
    }

    /// Columns per register tile.
    pub fn block_cols_dim(&self) -> usize {
        self.c
    }

    /// Number of stored tiles.
    pub fn num_blocks(&self) -> usize {
        self.block_rows.len()
    }

    /// Fill ratio: stored entries (including zero fill) divided by logical nonzeros.
    pub fn fill_ratio(&self) -> f64 {
        if self.logical_nnz == 0 {
            return 1.0;
        }
        self.values.len() as f64 / self.logical_nnz as f64
    }

    /// Block-row coordinate of tile `t` (in units of `r` rows).
    #[inline(always)]
    pub fn block_row_coord(&self, t: usize) -> usize {
        self.block_rows[t].to_usize()
    }

    /// Block-column coordinate of tile `t` (in units of `c` columns).
    #[inline(always)]
    pub fn block_col_coord(&self, t: usize) -> usize {
        self.block_cols[t].to_usize()
    }

    /// Tile value storage (`r*c` doubles per tile).
    pub fn tile_values(&self) -> &[f64] {
        &self.values
    }
}

impl<I: IndexStorage> MatrixShape for BcooMatrix<I> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn stored_entries(&self) -> usize {
        self.values.len()
    }
    fn nnz(&self) -> usize {
        self.logical_nnz
    }
    fn footprint_bytes(&self) -> usize {
        // No row-pointer array at all: just tiles plus two coordinates per tile.
        self.values.len() * VALUE_BYTES + (self.block_rows.len() + self.block_cols.len()) * I::BYTES
    }
}

impl<I: IndexStorage> SpMv for BcooMatrix<I> {
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        check_dims(self.nrows, self.ncols, x, y);
        let r = self.r;
        let c = self.c;
        for t in 0..self.num_blocks() {
            let row_lo = self.block_row_coord(t) * r;
            let col_lo = self.block_col_coord(t) * c;
            let rows_here = r.min(self.nrows - row_lo);
            let cols_here = c.min(self.ncols - col_lo);
            let tile = &self.values[t * r * c..(t + 1) * r * c];
            for i in 0..rows_here {
                let mut sum = 0.0;
                for j in 0..cols_here {
                    sum += tile[i * c + j] * x[col_lo + j];
                }
                y[row_lo + i] += sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;
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

    #[test]
    fn matches_csr_for_all_shapes() {
        let coo = random_coo(45, 33, 350, 11);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..33).map(|i| (i as f64 * 0.7).sin()).collect();
        let reference = csr.spmv_alloc(&x);
        for &r in &[1usize, 2, 4] {
            for &c in &[1usize, 2, 4] {
                let bcoo = BcooMatrix::<u16>::from_csr(&csr, r, c).unwrap();
                assert!(
                    max_abs_diff(&reference, &bcoo.spmv_alloc(&x)) < 1e-10,
                    "mismatch at {r}x{c}"
                );
            }
        }
    }

    #[test]
    fn no_row_pointer_cost_for_empty_rows() {
        // A 1000-row matrix with only 2 occupied rows: BCOO footprint should be far
        // smaller than CSR's (which pays 4 bytes per row for the pointer array).
        let coo = CooMatrix::from_triplets(1000, 1000, vec![(0, 0, 1.0), (999, 999, 2.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let bcoo = BcooMatrix::<u16>::from_csr(&csr, 1, 1).unwrap();
        assert!(bcoo.footprint_bytes() < csr.footprint_bytes() / 10);
    }

    #[test]
    fn rejects_bad_shapes_and_overflow() {
        let coo = random_coo(10, 10, 5, 1);
        assert!(BcooMatrix::<u32>::from_coo(&coo, 5, 2).is_err());
        let wide = random_coo(4, 200_000, 10, 2);
        assert!(BcooMatrix::<u16>::from_coo(&wide, 1, 1).is_err());
        assert!(BcooMatrix::<u16>::from_coo(&wide, 1, 4).is_ok());
    }

    #[test]
    fn fill_ratio_and_blocks() {
        let mut coo = CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 1.0);
        }
        let bcoo = BcooMatrix::<u16>::from_coo(&coo, 2, 2).unwrap();
        assert_eq!(bcoo.num_blocks(), 4);
        assert!((bcoo.fill_ratio() - 2.0).abs() < 1e-12);
        assert_eq!(bcoo.block_rows_dim(), 2);
        assert_eq!(bcoo.block_cols_dim(), 2);
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::new(4, 4);
        let bcoo = BcooMatrix::<u16>::from_coo(&coo, 2, 2).unwrap();
        assert_eq!(bcoo.num_blocks(), 0);
        assert_eq!(bcoo.spmv_alloc(&[1.0; 4]), vec![0.0; 4]);
    }

    #[test]
    fn footprint_is_the_bytes_it_stores() {
        fn check<I: IndexStorage>(coo: &CooMatrix) {
            use std::mem::size_of_val;
            let b = BcooMatrix::<I>::from_coo(coo, 3, 2).unwrap();
            let bytes = size_of_val(&b.block_rows[..])
                + size_of_val(&b.block_cols[..])
                + size_of_val(&b.values[..]);
            assert_eq!(b.footprint_bytes(), bytes);
        }
        let coo = random_coo(45, 33, 350, 12);
        check::<u16>(&coo);
        check::<u32>(&coo);
    }

    #[test]
    fn ragged_edge_blocks() {
        let coo = random_coo(9, 7, 40, 5);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..7).map(|i| i as f64 + 0.5).collect();
        let bcoo = BcooMatrix::<u32>::from_csr(&csr, 4, 4).unwrap();
        assert!(max_abs_diff(&csr.spmv_alloc(&x), &bcoo.spmv_alloc(&x)) < 1e-10);
    }

    #[test]
    fn footprint_vs_bcsr_tradeoff() {
        // For a matrix with NO empty rows and many tiles per row, BCSR (one pointer
        // per block row) is smaller than BCOO (a row coordinate per tile). BCOO wins
        // when most rows are empty — that is exactly the paper's selection rule.
        use crate::formats::bcsr::BcsrMatrix;
        let dense_rows = random_coo(64, 64, 2000, 6);
        let csr = CsrMatrix::from_coo(&dense_rows);
        let bcsr = BcsrMatrix::<u16>::from_csr(&csr, 1, 1).unwrap();
        let bcoo = BcooMatrix::<u16>::from_csr(&csr, 1, 1).unwrap();
        assert!(bcsr.footprint_bytes() <= bcoo.footprint_bytes());
    }
}
