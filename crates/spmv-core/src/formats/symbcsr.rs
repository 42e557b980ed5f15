//! Symmetric register-blocked CSR: dense diagonal plus strictly-lower `r × c`
//! tiles, each tile applied directly and transposed in one pass.
//!
//! The format composes the paper's two biggest storage wins: register blocking
//! (one column index per tile instead of one per nonzero) and symmetry (only the
//! strictly-lower triangle stored, each tile used twice). Tiles may straddle the
//! diagonal; slots on or above it are zero fill, so the double application adds
//! exactly zero for them. The diagonal itself lives in a separate dense array and
//! is applied once.
//!
//! Like [`SymCsr`](crate::formats::symcsr::SymCsr), an instance can cover a row
//! slab of a larger symmetric matrix (`row_offset`, global column indices); the
//! block-row grid is anchored at the slab's first row, the block-column grid at
//! global column 0.

use crate::error::{Error, Result};
use crate::formats::bcsr::block_shape_supported;
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexStorage;
use crate::formats::symcsr::SymCsr;
use crate::formats::tiles::{block_row, push_tiles};
use crate::formats::traits::{check_dims, MatrixShape, SpMv};
use crate::{INDEX32_BYTES, VALUE_BYTES};

/// Symmetric register-blocked storage: dense diagonal + strictly-lower tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct SymBcsr<I: IndexStorage = u32> {
    /// Global (square) matrix dimension.
    n: usize,
    /// First global row this slab covers.
    row_offset: usize,
    /// Number of covered rows.
    local_rows: usize,
    /// Rows per tile.
    r: usize,
    /// Columns per tile.
    c: usize,
    /// Dense diagonal for the covered rows.
    diag: Vec<f64>,
    /// Block-row pointer (`local_block_rows + 1` entries), 32-bit: the 4 bytes
    /// per entry the planner counts.
    block_row_ptr: Vec<u32>,
    /// Global block-column indices (units of `c` columns) at width `I`.
    block_col_idx: Vec<I>,
    /// Tile values, `r * c` per tile, row-major within the tile; strictly-lower
    /// entries only, zero fill elsewhere.
    tiles: Vec<f64>,
    /// Stored strictly-lower nonzeros (excluding fill).
    lower_nnz: usize,
    /// General-form (expanded) nonzeros of the covered rows.
    logical_nnz: usize,
}

impl<I: IndexStorage> SymBcsr<I> {
    /// Build from a general CSR matrix, verifying symmetry.
    pub fn from_csr(csr: &CsrMatrix, r: usize, c: usize) -> Result<SymBcsr<I>> {
        if !crate::formats::symcsr::is_symmetric(csr) {
            return Err(Error::InvalidStructure(
                "matrix is not symmetric (pattern or values differ from transpose)".to_string(),
            ));
        }
        Self::from_slab_unchecked(csr, 0, r, c)
    }

    /// Build a row slab from rows `[row_offset, row_offset + local.nrows())` of a
    /// symmetric matrix. See [`SymCsr::from_slab_unchecked`] for the caller's
    /// symmetry obligation.
    pub fn from_slab_unchecked(
        local: &CsrMatrix,
        row_offset: usize,
        r: usize,
        c: usize,
    ) -> Result<SymBcsr<I>> {
        if !block_shape_supported(r, c) {
            return Err(Error::UnsupportedBlockSize { r, c });
        }
        let n = local.ncols();
        let nblock_cols = n.div_ceil(c);
        if !I::fits(nblock_cols) {
            return Err(Error::IndexWidthOverflow {
                dimension: nblock_cols,
            });
        }
        let local_rows = local.nrows();
        if row_offset + local_rows > n {
            return Err(Error::InvalidStructure(format!(
                "slab rows {}..{} exceed the {n}-dimensional symmetric matrix",
                row_offset,
                row_offset + local_rows
            )));
        }
        let nblock_rows = local_rows.div_ceil(r);

        let mut diag = vec![0.0f64; local_rows];
        let mut block_row_ptr = Vec::with_capacity(nblock_rows + 1);
        block_row_ptr.push(0u32);
        let mut block_col_idx: Vec<I> = Vec::new();
        let mut tiles: Vec<f64> = Vec::new();
        let mut lower_nnz = 0usize;

        // Each block row is a sorted merge of its rows' strictly-lower entries
        // (`j < row_offset + i`: a prefix of each sorted row); the diagonal entry,
        // if any, follows that prefix and is kept apart.
        for brow in 0..nblock_rows {
            let mut rows = block_row(local, brow, r);
            for (k, span) in rows.iter_mut().enumerate() {
                let (i, row) = (brow * r + k, &local.col_idx()[span.clone()]);
                let below = row.partition_point(|&j| (j as usize) < row_offset + i);
                let upto = row.partition_point(|&j| j as usize <= row_offset + i);
                if upto > below {
                    diag[i] = local.values()[span.start + upto - 1];
                }
                span.end = span.start + below;
                lower_nnz += below;
            }
            push_tiles(local, rows, r, c, &mut tiles, |bc| {
                block_col_idx.push(I::try_from_usize(bc).expect("span checked above"));
            });
            block_row_ptr.push(u32::try_from_usize(block_col_idx.len())?);
        }

        Ok(SymBcsr {
            n,
            row_offset,
            local_rows,
            r,
            c,
            diag,
            block_row_ptr,
            block_col_idx,
            tiles,
            lower_nnz,
            logical_nnz: local.nnz(),
        })
    }

    /// Build from an existing [`SymCsr`] slab (same coverage, re-tiled).
    pub fn from_sym_csr<J: IndexStorage>(
        sym: &SymCsr<J>,
        r: usize,
        c: usize,
    ) -> Result<SymBcsr<I>> {
        // Reconstruct the slab's general row view (diag + lower only; the upper
        // mirror entries are irrelevant to the lower tiling).
        let mut coo = crate::formats::coo::CooMatrix::with_capacity(
            sym.local_rows(),
            sym.dim(),
            sym.lower_nnz() + sym.local_rows(),
        );
        for (i, &d) in sym.diag().iter().enumerate() {
            if d != 0.0 {
                coo.push(i, sym.row_offset() + i, d);
            }
        }
        for i in 0..sym.local_rows() {
            for k in sym.row_ptr()[i] as usize..sym.row_ptr()[i + 1] as usize {
                coo.push(i, sym.col_idx()[k].to_usize(), sym.values()[k]);
            }
        }
        let local = CsrMatrix::from_coo(&coo);
        let mut out = Self::from_slab_unchecked(&local, sym.row_offset(), r, c)?;
        out.logical_nnz = sym.nnz();
        Ok(out)
    }

    /// Global matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// First global row covered.
    pub fn row_offset(&self) -> usize {
        self.row_offset
    }

    /// Number of covered rows.
    pub fn local_rows(&self) -> usize {
        self.local_rows
    }

    /// Rows per tile.
    pub fn block_rows(&self) -> usize {
        self.r
    }

    /// Columns per tile.
    pub fn block_cols(&self) -> usize {
        self.c
    }

    /// Dense diagonal of the covered rows.
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// Block-row pointer array.
    pub fn block_row_ptr(&self) -> &[u32] {
        &self.block_row_ptr
    }

    /// Global block-column indices.
    pub fn block_col_idx(&self) -> &[I] {
        &self.block_col_idx
    }

    /// Tile value storage.
    pub fn tile_values(&self) -> &[f64] {
        &self.tiles
    }

    /// Number of stored tiles.
    pub fn num_tiles(&self) -> usize {
        self.block_col_idx.len()
    }

    /// Stored strictly-lower nonzeros (excluding fill).
    pub fn lower_nnz(&self) -> usize {
        self.lower_nnz
    }

    /// Fill ratio of the lower-triangle tiling (stored slots / lower nonzeros).
    pub fn fill_ratio(&self) -> f64 {
        if self.lower_nnz == 0 {
            1.0
        } else {
            (self.num_tiles() * self.r * self.c) as f64 / self.lower_nnz as f64
        }
    }

    /// Whether this instance covers the whole matrix.
    pub fn is_full(&self) -> bool {
        self.row_offset == 0 && self.local_rows == self.n
    }

    /// `y ← y + A_slab·x` over full-length global vectors; every tile applied
    /// directly (`y[rows] += T·x[cols]`) and transposed (`y[cols] += Tᵀ·x[rows]`)
    /// by the macro-generated microkernel for this tile shape. Deterministic
    /// accumulation order.
    pub fn spmv_full(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "source vector length mismatch");
        assert_eq!(y.len(), self.n, "destination vector length mismatch");
        crate::kernels::symmetric::spmv_sym_bcsr(self, x, y);
    }
}

impl<I: IndexStorage> MatrixShape for SymBcsr<I> {
    fn nrows(&self) -> usize {
        self.local_rows
    }
    fn ncols(&self) -> usize {
        self.n
    }
    fn stored_entries(&self) -> usize {
        self.diag.len() + self.tiles.len()
    }
    fn nnz(&self) -> usize {
        self.logical_nnz
    }
    fn footprint_bytes(&self) -> usize {
        self.diag.len() * VALUE_BYTES
            + self.tiles.len() * VALUE_BYTES
            + self.block_col_idx.len() * I::BYTES
            + self.block_row_ptr.len() * INDEX32_BYTES
    }
}

impl<I: IndexStorage> SpMv for SymBcsr<I> {
    /// Whole-matrix SpMV; row slabs must use [`SymBcsr::spmv_full`].
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert!(
            self.is_full(),
            "SpMv::spmv is defined for whole-matrix SymBcsr; slabs use spmv_full"
        );
        check_dims(self.n, self.n, x, y);
        self.spmv_full(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;
    use crate::formats::bcsr::ALLOWED_BLOCK_DIMS;
    use crate::formats::coo::CooMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random exactly-symmetric matrix: random lower entries mirrored up.
    fn random_symmetric(n: usize, lower_nnz: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        for _ in 0..lower_nnz {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..=i);
            let v = rng.random_range(-2.0..2.0);
            coo.push(i, j, v);
            if i != j {
                coo.push(j, i, v);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn every_shape_and_width_matches_expanded_reference() {
        let csr = random_symmetric(37, 180, 9);
        let x: Vec<f64> = (0..37)
            .map(|i| ((i * 11 + 2) % 17) as f64 * 0.5 - 3.0)
            .collect();
        let reference = csr.spmv_alloc(&x);
        for &r in &ALLOWED_BLOCK_DIMS {
            for &c in &ALLOWED_BLOCK_DIMS {
                let b16: SymBcsr<u16> = SymBcsr::from_csr(&csr, r, c).unwrap();
                let b32: SymBcsr<u32> = SymBcsr::from_csr(&csr, r, c).unwrap();
                let bus: SymBcsr<usize> = SymBcsr::from_csr(&csr, r, c).unwrap();
                for (name, y) in [
                    ("u16", b16.spmv_alloc(&x)),
                    ("u32", b32.spmv_alloc(&x)),
                    ("usize", bus.spmv_alloc(&x)),
                ] {
                    assert!(
                        max_abs_diff(&reference, &y) < 1e-10,
                        "{r}x{c} {name} diverged"
                    );
                }
                assert_eq!(b32.nnz(), csr.nnz());
            }
        }
    }

    #[test]
    fn slab_decomposition_sums_to_full_product() {
        let csr = random_symmetric(29, 120, 10);
        let x: Vec<f64> = (0..29).map(|i| (i % 7) as f64 - 3.0).collect();
        let reference = csr.spmv_alloc(&x);
        for (r, c) in [(2usize, 2usize), (3, 4)] {
            let mut y = vec![0.0; 29];
            for (start, end) in [(0usize, 11usize), (11, 20), (20, 29)] {
                let local = csr.row_slice(start, end);
                let slab: SymBcsr<u32> = SymBcsr::from_slab_unchecked(&local, start, r, c).unwrap();
                slab.spmv_full(&x, &mut y);
            }
            assert!(max_abs_diff(&reference, &y) < 1e-10, "{r}x{c}");
        }
    }

    #[test]
    fn diagonal_straddling_tiles_apply_zero_fill_harmlessly() {
        // A tridiagonal symmetric matrix tiled 4x4: every diagonal tile straddles.
        let mut coo = CooMatrix::new(10, 10);
        for i in 0..10 {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        let csr = CsrMatrix::from_coo(&coo);
        let sym: SymBcsr<u16> = SymBcsr::from_csr(&csr, 4, 4).unwrap();
        let x: Vec<f64> = (0..10).map(|i| i as f64 + 1.0).collect();
        assert!(max_abs_diff(&csr.spmv_alloc(&x), &sym.spmv_alloc(&x)) < 1e-12);
        assert!(sym.fill_ratio() >= 1.0);
    }

    #[test]
    fn from_sym_csr_matches_direct_construction() {
        let csr = random_symmetric(23, 90, 11);
        let sym_csr: SymCsr<u32> = SymCsr::from_csr(&csr).unwrap();
        let a: SymBcsr<u16> = SymBcsr::from_sym_csr(&sym_csr, 2, 3).unwrap();
        let b: SymBcsr<u16> = SymBcsr::from_csr(&csr, 2, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn halved_footprint_versus_general_storage() {
        let csr = random_symmetric(64, 600, 12);
        let sym: SymBcsr<u16> = SymBcsr::from_csr(&csr, 1, 1).unwrap();
        // 1x1 tiles pay no fill, so the off-diagonal storage is exactly halved.
        assert!(sym.footprint_bytes() < csr.footprint_bytes() * 3 / 4);
    }

    #[test]
    fn footprint_is_the_bytes_it_stores() {
        use std::mem::size_of_val;
        let sym: SymBcsr<u16> = SymBcsr::from_csr(&random_symmetric(37, 180, 14), 3, 4).unwrap();
        let held = size_of_val(&sym.diag[..])
            + size_of_val(&sym.block_row_ptr[..])
            + size_of_val(&sym.block_col_idx[..])
            + size_of_val(&sym.tiles[..]);
        assert_eq!(sym.footprint_bytes(), held);
    }

    #[test]
    fn rejects_unsupported_shapes_and_asymmetric_input() {
        let csr = random_symmetric(8, 20, 13);
        assert!(SymBcsr::<u32>::from_csr(&csr, 5, 1).is_err());
        let asym = CsrMatrix::from_coo(&CooMatrix::from_triplets(4, 4, vec![(3, 0, 1.0)]).unwrap());
        assert!(SymBcsr::<u32>::from_csr(&asym, 2, 2).is_err());
    }
}
