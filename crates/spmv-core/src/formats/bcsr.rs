//! Register-blocked CSR (BCSR).
//!
//! Register blocking (Section 4.2) groups adjacent nonzeros into small `r × c` tiles,
//! storing one column index per tile rather than one per nonzero, at the cost of
//! explicitly stored zero fill. The paper's register-blocking sweep covers every
//! block shape up to 4×4; this module supports the same set, with each shape executed
//! by a macro-generated, fully-unrolled microkernel
//! ([`crate::kernels::blocked`]). Tile column indices are stored at a compile-time
//! width `I` ([`IndexStorage`]), so the hot loop never consults a width tag; 16-bit
//! storage is admissible when the block column span fits (`ncols / c ≤ 65536`).

use crate::error::{Error, Result};
use crate::formats::coo::CooMatrix;
use crate::formats::csr::CsrMatrix;
use crate::formats::index::{IndexStorage, IndexWidth};
use crate::formats::tiles::{block_row, push_tiles};
use crate::formats::traits::{check_dims, MatrixShape, SpMv};
use crate::{INDEX32_BYTES, VALUE_BYTES};

/// Register block dimensions allowed by the paper's sweep: every size up to 4.
pub const ALLOWED_BLOCK_DIMS: [usize; 4] = [1, 2, 3, 4];

/// Return true if `r × c` is a register block shape the kernels support.
pub fn block_shape_supported(r: usize, c: usize) -> bool {
    ALLOWED_BLOCK_DIMS.contains(&r) && ALLOWED_BLOCK_DIMS.contains(&c)
}

/// Register-blocked CSR matrix with compile-time index width.
///
/// Rows are grouped into block rows of `r` consecutive rows; within each block row,
/// every column interval of width `c` containing at least one nonzero is stored as a
/// dense `r × c` tile (row-major within the tile), with zero fill for absent entries.
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix<I: IndexStorage = u32> {
    nrows: usize,
    ncols: usize,
    r: usize,
    c: usize,
    /// Logical (unfilled) nonzero count, preserved for flop accounting.
    logical_nnz: usize,
    /// Block-row pointer: `nblock_rows + 1` entries into `block_col_idx`,
    /// 32-bit: the 4 bytes per entry the planner counts.
    block_row_ptr: Vec<u32>,
    /// Block column index (in units of `c` columns) at width `I`.
    block_col_idx: Vec<I>,
    /// Tile values, `r * c` per tile, row-major within the tile.
    values: Vec<f64>,
}

impl<I: IndexStorage> BcsrMatrix<I> {
    /// Build from CSR with the requested register block shape. The index width is
    /// the type parameter `I`, checked once against the block column span.
    pub fn from_csr(csr: &CsrMatrix, r: usize, c: usize) -> Result<Self> {
        if !block_shape_supported(r, c) {
            return Err(Error::UnsupportedBlockSize { r, c });
        }
        let nrows = csr.nrows();
        let ncols = csr.ncols();
        let nblock_cols = ncols.div_ceil(c);
        if !I::fits(nblock_cols) {
            return Err(Error::IndexWidthOverflow {
                dimension: nblock_cols,
            });
        }
        let nblock_rows = nrows.div_ceil(r);

        let mut block_row_ptr = Vec::with_capacity(nblock_rows + 1);
        block_row_ptr.push(0u32);
        let mut block_col_idx: Vec<I> = Vec::new();
        let mut values: Vec<f64> = Vec::new();

        // Each block row is a sorted merge of its r CSR rows, which visits the
        // occupied block columns in ascending order.
        for brow in 0..nblock_rows {
            push_tiles(csr, block_row(csr, brow, r), r, c, &mut values, |bc| {
                block_col_idx.push(I::try_from_usize(bc).expect("span checked above"));
            });
            block_row_ptr.push(u32::try_from_usize(block_col_idx.len())?);
        }

        Ok(BcsrMatrix {
            nrows,
            ncols,
            r,
            c,
            logical_nnz: csr.nnz(),
            block_row_ptr,
            block_col_idx,
            values,
        })
    }

    /// Build from coordinate format.
    pub fn from_coo(coo: &CooMatrix, r: usize, c: usize) -> Result<Self> {
        Self::from_csr(&CsrMatrix::from_coo(coo), r, c)
    }

    /// Rows per register block.
    pub fn block_rows(&self) -> usize {
        self.r
    }

    /// Columns per register block.
    pub fn block_cols(&self) -> usize {
        self.c
    }

    /// Number of stored tiles.
    pub fn num_blocks(&self) -> usize {
        self.block_col_idx.len()
    }

    /// The index width used for block column indices.
    ///
    /// # Panics
    ///
    /// Panics for `usize`-indexed matrices, which have no compressed width tag.
    pub fn index_width(&self) -> IndexWidth {
        I::WIDTH.expect("usize-indexed BCSR has no IndexWidth tag")
    }

    /// Fill ratio: stored entries (including explicit zeros) divided by logical nnz.
    /// A fill ratio near 1.0 means the matrix has natural dense block substructure.
    pub fn fill_ratio(&self) -> f64 {
        if self.logical_nnz == 0 {
            return 1.0;
        }
        self.values.len() as f64 / self.logical_nnz as f64
    }

    /// Block-row pointer array.
    pub fn block_row_ptr(&self) -> &[u32] {
        &self.block_row_ptr
    }

    /// Block column indices at the storage width.
    pub fn block_col_idx(&self) -> &[I] {
        &self.block_col_idx
    }

    /// Tile value storage (`r*c` doubles per tile).
    pub fn tile_values(&self) -> &[f64] {
        &self.values
    }
}

impl<I: IndexStorage> MatrixShape for BcsrMatrix<I> {
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
        self.values.len() * VALUE_BYTES
            + self.block_col_idx.len() * I::BYTES
            + self.block_row_ptr.len() * INDEX32_BYTES
    }
}

impl<I: IndexStorage> SpMv for BcsrMatrix<I> {
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        check_dims(self.nrows, self.ncols, x, y);
        // Dispatch once on the block shape into the macro-generated, fully-unrolled
        // microkernel monomorphized for (r, c, I).
        crate::kernels::blocked::spmv_bcsr(self, x, y);
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
    fn rejects_unsupported_block_shapes() {
        let coo = random_coo(8, 8, 10, 1);
        assert!(BcsrMatrix::<u32>::from_coo(&coo, 5, 1).is_err());
        assert!(BcsrMatrix::<u32>::from_coo(&coo, 1, 6).is_err());
        assert!(BcsrMatrix::<u32>::from_coo(&coo, 8, 8).is_err());
        // 3 is part of the paper's sweep and therefore supported.
        assert!(BcsrMatrix::<u32>::from_coo(&coo, 3, 3).is_ok());
    }

    #[test]
    fn rejects_u16_when_span_too_large() {
        let coo = random_coo(4, 200_000, 10, 2);
        assert!(matches!(
            BcsrMatrix::<u16>::from_coo(&coo, 1, 1),
            Err(Error::IndexWidthOverflow { .. })
        ));
        // With c = 4 the block-column span is 50_000, which fits in 16 bits.
        assert!(BcsrMatrix::<u16>::from_coo(&coo, 1, 4).is_ok());
    }

    #[test]
    fn one_by_one_blocks_match_csr_exactly() {
        let coo = random_coo(50, 60, 300, 3);
        let csr = CsrMatrix::from_coo(&coo);
        let bcsr = BcsrMatrix::<u32>::from_csr(&csr, 1, 1).unwrap();
        assert_eq!(bcsr.nnz(), csr.nnz());
        assert_eq!(bcsr.stored_entries(), csr.nnz());
        assert!((bcsr.fill_ratio() - 1.0).abs() < 1e-12);
        let x: Vec<f64> = (0..60).map(|i| (i as f64).sin()).collect();
        assert!(max_abs_diff(&csr.spmv_alloc(&x), &bcsr.spmv_alloc(&x)) < 1e-12);
    }

    #[test]
    fn all_supported_shapes_produce_correct_results() {
        let coo = random_coo(37, 41, 400, 4);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..41).map(|i| (i as f64 * 0.3).cos()).collect();
        let reference = csr.spmv_alloc(&x);
        for &r in &ALLOWED_BLOCK_DIMS {
            for &c in &ALLOWED_BLOCK_DIMS {
                let bcsr = BcsrMatrix::<u16>::from_csr(&csr, r, c).unwrap();
                let y = bcsr.spmv_alloc(&x);
                assert!(
                    max_abs_diff(&reference, &y) < 1e-10,
                    "mismatch for {r}x{c} blocks"
                );
                assert!(bcsr.fill_ratio() >= 1.0);
            }
        }
    }

    #[test]
    fn dense_block_matrix_has_unit_fill() {
        // A matrix made of perfectly aligned 2x2 dense blocks has fill ratio 1.0 at 2x2.
        let mut coo = CooMatrix::new(8, 8);
        for b in 0..4 {
            for i in 0..2 {
                for j in 0..2 {
                    coo.push(b * 2 + i, b * 2 + j, 1.0);
                }
            }
        }
        let bcsr = BcsrMatrix::<u16>::from_coo(&coo, 2, 2).unwrap();
        assert_eq!(bcsr.num_blocks(), 4);
        assert!((bcsr.fill_ratio() - 1.0).abs() < 1e-12);
        // A scattered-diagonal matrix at 2x2 pays 4x fill.
        let mut diag = CooMatrix::new(8, 8);
        for i in 0..8 {
            diag.push(i, i, 1.0);
        }
        let bd = BcsrMatrix::<u16>::from_coo(&diag, 2, 2).unwrap();
        assert!((bd.fill_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn footprint_shrinks_with_blocking_on_blocked_matrix() {
        // Dense 4x4 block structure: 4x4 BCSR stores 1 index per 16 values.
        let mut coo = CooMatrix::new(64, 64);
        for b in 0..16 {
            for i in 0..4 {
                for j in 0..4 {
                    coo.push(b * 4 + i, b * 4 + j, (i + j) as f64);
                }
            }
        }
        let csr = CsrMatrix::from_coo(&coo);
        let b44 = BcsrMatrix::<u16>::from_csr(&csr, 4, 4).unwrap();
        assert!(b44.footprint_bytes() < csr.footprint_bytes());
    }

    #[test]
    fn ragged_edges_are_handled() {
        // Dimensions not divisible by the block shape.
        let coo = random_coo(10, 11, 60, 7);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let reference = csr.spmv_alloc(&x);
        for &(r, c) in &[(4usize, 4usize), (3, 4), (4, 3), (3, 3), (2, 3)] {
            let bcsr = BcsrMatrix::<u32>::from_csr(&csr, r, c).unwrap();
            assert!(
                max_abs_diff(&reference, &bcsr.spmv_alloc(&x)) < 1e-10,
                "ragged {r}x{c}"
            );
        }
    }

    #[test]
    fn footprint_is_the_bytes_it_stores() {
        use std::mem::size_of_val;
        let b: BcsrMatrix<u16> = BcsrMatrix::from_coo(&random_coo(37, 41, 400, 8), 3, 4).unwrap();
        let held = size_of_val(&b.block_row_ptr[..])
            + size_of_val(&b.block_col_idx[..])
            + size_of_val(&b.values[..]);
        assert_eq!(b.footprint_bytes(), held);
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::new(5, 5);
        let bcsr = BcsrMatrix::<u16>::from_coo(&coo, 2, 2).unwrap();
        assert_eq!(bcsr.num_blocks(), 0);
        assert_eq!(bcsr.spmv_alloc(&[1.0; 5]), vec![0.0; 5]);
        assert_eq!(bcsr.fill_ratio(), 1.0);
    }

    #[test]
    fn index_width_reported() {
        let coo = random_coo(16, 16, 30, 9);
        let b = BcsrMatrix::<u16>::from_coo(&coo, 2, 2).unwrap();
        assert_eq!(b.index_width(), IndexWidth::U16);
        let b32 = BcsrMatrix::<u32>::from_coo(&coo, 2, 2).unwrap();
        assert_eq!(b32.index_width(), IndexWidth::U32);
        assert!(b.footprint_bytes() <= b32.footprint_bytes());
    }
}
