//! Register-blocking fill estimation.
//!
//! The paper replaces OSKI's benchmark-driven search with a single pass over the
//! nonzeros that, for every candidate `r × c` shape, counts how many tiles would be
//! stored and therefore how much zero fill the shape pays. The shape (together with
//! the index width and BCSR-vs-BCOO choice) minimizing the resulting byte footprint
//! wins. This module provides that counting pass.

use crate::formats::bcsr::ALLOWED_BLOCK_DIMS;
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexWidth;
use crate::formats::traits::MatrixShape;
use crate::{INDEX32_BYTES, VALUE_BYTES};

/// Result of estimating one register block shape on one matrix (or cache block).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillEstimate {
    /// Rows per tile.
    pub r: usize,
    /// Columns per tile.
    pub c: usize,
    /// Number of tiles that would be stored.
    pub tiles: usize,
    /// Number of block rows containing at least one tile.
    pub occupied_block_rows: usize,
    /// Stored values (tiles × r × c) divided by logical nonzeros.
    pub fill_ratio: f64,
}

impl FillEstimate {
    fn new(r: usize, c: usize, tiles: usize, occupied_block_rows: usize, nnz: usize) -> Self {
        FillEstimate {
            r,
            c,
            tiles,
            occupied_block_rows,
            fill_ratio: if nnz == 0 {
                1.0
            } else {
                (tiles * r * c) as f64 / nnz as f64
            },
        }
    }

    /// Bytes needed to store the matrix as BCSR at this shape and index width.
    pub fn bcsr_bytes(&self, nrows: usize, width: IndexWidth) -> usize {
        let nblock_rows = nrows.div_ceil(self.r);
        self.tiles * self.r * self.c * VALUE_BYTES
            + self.tiles * width.bytes()
            + (nblock_rows + 1) * INDEX32_BYTES
    }

    /// Bytes needed to store the matrix as BCOO at this shape and index width
    /// (a row and a column coordinate per tile, no pointer array).
    pub fn bcoo_bytes(&self, width: IndexWidth) -> usize {
        self.tiles * self.r * self.c * VALUE_BYTES + self.tiles * 2 * width.bytes()
    }
}

/// The candidate shapes the paper sweeps: every power-of-two pair up to 4×4.
pub fn register_block_candidates() -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    for &r in &ALLOWED_BLOCK_DIMS {
        for &c in &ALLOWED_BLOCK_DIMS {
            v.push((r, c));
        }
    }
    v
}

/// Count the tiles an `r × c` register blocking of `csr` would store: shape
/// `r × c`'s entry of [`estimate_all_shapes`].
///
/// # Panics
///
/// Panics unless `r × c` is a shape of [`register_block_candidates`].
pub fn estimate_fill(csr: &CsrMatrix, r: usize, c: usize) -> FillEstimate {
    estimate_all_shapes(csr)
        .into_iter()
        .find(|e| (e.r, e.c) == (r, c))
        .unwrap_or_else(|| panic!("{r}x{c} is not a register block candidate"))
}

/// Estimate every candidate shape for `csr` in **one** pass over the nonzeros
/// (the order of [`register_block_candidates`]). Per column width `c`, a stamp
/// array over the block columns holds 1 + the last row that touched each one
/// (0: none yet). Rows come in order, so for every height `r` at once a
/// nonzero opens a new tile exactly when its stamp is at most the first row of
/// its block row. The stamps, one `u32` per block column per width, cost
/// O(`ncols`) to allocate per call on top of the O(nnz) pass: a wide cell with
/// few nonzeros pays for its columns, not its entries.
pub fn estimate_all_shapes(csr: &CsrMatrix) -> Vec<FillEstimate> {
    const D: usize = ALLOWED_BLOCK_DIMS.len();
    let dims = ALLOWED_BLOCK_DIMS;
    assert!(csr.nrows() < u32::MAX as usize, "u32 row stamps");
    let mut stamps: Vec<Vec<u32>> = dims
        .iter()
        .map(|&c| vec![0; csr.ncols().div_ceil(c)])
        .collect();
    let mut tiles = [[0usize; D]; D];
    // The same rule per block row: 1 + the last row holding a nonzero.
    let (mut occupied, mut last_row) = ([0usize; D], 0u32);
    for row in 0..csr.nrows() {
        let cols = &csr.col_idx()[csr.row_ptr()[row]..csr.row_ptr()[row + 1]];
        if cols.is_empty() {
            continue;
        }
        let first: [u32; D] = std::array::from_fn(|ri| (row - row % dims[ri]) as u32);
        for ri in 0..D {
            occupied[ri] += usize::from(last_row <= first[ri]);
        }
        last_row = row as u32 + 1;
        for &col in cols {
            for (ci, stamps) in stamps.iter_mut().enumerate() {
                let seen = &mut stamps[col as usize / dims[ci]];
                for ri in 0..D {
                    tiles[ri][ci] += usize::from(*seen <= first[ri]);
                }
                *seen = last_row;
            }
        }
    }
    let (mut out, nnz) = (Vec::with_capacity(D * D), csr.nnz());
    for (ri, &r) in dims.iter().enumerate() {
        for (ci, &c) in dims.iter().enumerate() {
            out.push(FillEstimate::new(r, c, tiles[ri][ci], occupied[ri], nnz));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::bcsr::BcsrMatrix;
    use crate::formats::{CooMatrix, CsrMatrix};

    fn block_structured() -> CsrMatrix {
        // 4x4 dense blocks along the diagonal of a 16x16 matrix.
        let mut coo = CooMatrix::new(16, 16);
        for b in 0..4 {
            for i in 0..4 {
                for j in 0..4 {
                    coo.push(b * 4 + i, b * 4 + j, 1.0);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn estimates_match_materialized_bcsr() {
        let csr = block_structured();
        for (r, c) in register_block_candidates() {
            let est = estimate_fill(&csr, r, c);
            let bcsr = BcsrMatrix::<u32>::from_csr(&csr, r, c).unwrap();
            assert_eq!(est.tiles, bcsr.num_blocks(), "tile count for {r}x{c}");
            assert!((est.fill_ratio - bcsr.fill_ratio()).abs() < 1e-12);
            assert_eq!(
                est.bcsr_bytes(csr.nrows(), IndexWidth::U32),
                bcsr.footprint_bytes()
            );
        }
    }

    #[test]
    fn perfect_blocks_have_unit_fill() {
        let csr = block_structured();
        let est = estimate_fill(&csr, 4, 4);
        assert_eq!(est.tiles, 4);
        assert!((est.fill_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_pays_fill_at_larger_shapes() {
        let mut coo = CooMatrix::new(16, 16);
        for i in 0..16 {
            coo.push(i, i, 1.0);
        }
        let csr = CsrMatrix::from_coo(&coo);
        assert!((estimate_fill(&csr, 1, 1).fill_ratio - 1.0).abs() < 1e-12);
        assert!((estimate_fill(&csr, 2, 2).fill_ratio - 2.0).abs() < 1e-12);
        assert!((estimate_fill(&csr, 4, 4).fill_ratio - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bcoo_bytes_cheaper_when_block_rows_mostly_empty() {
        let coo =
            CooMatrix::from_triplets(10_000, 100, vec![(0, 0, 1.0), (9_999, 99, 1.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let est = estimate_fill(&csr, 1, 1);
        assert!(est.bcoo_bytes(IndexWidth::U16) < est.bcsr_bytes(csr.nrows(), IndexWidth::U16));
    }

    #[test]
    fn candidate_list_is_the_paper_sweep() {
        let cands = register_block_candidates();
        assert_eq!(cands.len(), 16);
        assert!(cands.contains(&(1, 1)));
        assert!(cands.contains(&(4, 4)));
        assert!(cands.contains(&(2, 4)));
        assert!(cands.contains(&(3, 3)));
        assert!(!cands.contains(&(8, 8)));
    }

    #[test]
    fn estimate_all_shapes_counts_what_bcsr_stores() {
        // Ragged at every height and width, with empty rows.
        let coo = CooMatrix::from_triplets(
            11,
            13,
            (0..40).map(|k| ((k * 7) % 11 / 2 * 2, (k * 5) % 13, 1.0)),
        )
        .unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        for est in estimate_all_shapes(&csr) {
            let bcsr = BcsrMatrix::<u32>::from_csr(&csr, est.r, est.c).unwrap();
            let ptr = bcsr.block_row_ptr();
            assert_eq!(est.tiles, bcsr.num_blocks(), "{}x{}", est.r, est.c);
            let occupied = ptr.windows(2).filter(|w| w[1] > w[0]).count();
            assert_eq!(est.occupied_block_rows, occupied, "{}x{}", est.r, est.c);
        }
    }

    #[test]
    fn empty_matrix_fill_is_one() {
        let csr = CsrMatrix::from_coo(&CooMatrix::new(8, 8));
        let est = estimate_fill(&csr, 2, 2);
        assert_eq!(est.tiles, 0);
        assert_eq!(est.fill_ratio, 1.0);
        assert_eq!(est.occupied_block_rows, 0);
    }

    #[test]
    fn occupied_block_rows_counted() {
        let coo = CooMatrix::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 1.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let est = estimate_fill(&csr, 2, 2);
        assert_eq!(est.occupied_block_rows, 2);
    }
}
