//! Generalized CSR (GCSR): CSR that stores only non-empty rows.
//!
//! The paper (Section 4.2) names this as OSKI's alternative to BCOO for matrices with
//! empty rows: keep CSR's streaming structure but associate an explicit row index with
//! each stored (non-empty) row, so empty rows cost neither pointer storage nor
//! zero-length inner loops.

use crate::error::{Error, Result};
use crate::formats::coo::CooMatrix;
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexStorage;
use crate::formats::traits::{check_dims, MatrixShape, SpMv};
use crate::{INDEX32_BYTES, VALUE_BYTES};

/// Generalized CSR storing only occupied rows, row ids and column indices at
/// width `I`.
#[derive(Debug, Clone, PartialEq)]
pub struct GcsrMatrix<I: IndexStorage = u32> {
    nrows: usize,
    ncols: usize,
    /// Row index of each stored (non-empty) row.
    row_ids: Vec<I>,
    /// Pointer into `col_idx`/`values` per stored row (`row_ids.len() + 1`
    /// entries), 32-bit: the 4 bytes per entry the planner counts.
    row_ptr: Vec<u32>,
    /// Column index of each stored entry.
    col_idx: Vec<I>,
    values: Vec<f64>,
}

impl<I: IndexStorage> GcsrMatrix<I> {
    /// Build from CSR, dropping empty rows; both matrix spans must fit `I`.
    pub fn from_csr(csr: &CsrMatrix) -> Result<Self> {
        if !I::fits(csr.nrows()) || !I::fits(csr.ncols()) {
            return Err(Error::IndexWidthOverflow {
                dimension: csr.nrows().max(csr.ncols()),
            });
        }
        let at = |i: usize| I::try_from_usize(i).expect("span checked above");
        let mut row_ids: Vec<I> = Vec::new();
        let mut row_ptr: Vec<u32> = vec![0];
        let mut col_idx: Vec<I> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for row in 0..csr.nrows() {
            let lo = csr.row_ptr()[row];
            let hi = csr.row_ptr()[row + 1];
            if lo == hi {
                continue;
            }
            row_ids.push(at(row));
            for k in lo..hi {
                col_idx.push(at(csr.col_idx()[k] as usize));
                values.push(csr.values()[k]);
            }
            row_ptr.push(u32::try_from_usize(values.len())?);
        }
        Ok(GcsrMatrix {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            row_ids,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Build from coordinate format.
    pub fn from_coo(coo: &CooMatrix) -> Result<Self> {
        Self::from_csr(&CsrMatrix::from_coo(coo))
    }

    /// Number of stored (non-empty) rows.
    pub fn stored_rows(&self) -> usize {
        self.row_ids.len()
    }

    /// Global row index of stored row `s`.
    #[inline(always)]
    pub fn row_id(&self, s: usize) -> usize {
        self.row_ids[s].to_usize()
    }

    /// Range of `values()`/`col_id` positions belonging to stored row `s`.
    #[inline(always)]
    pub fn stored_row_range(&self, s: usize) -> (usize, usize) {
        (self.row_ptr[s] as usize, self.row_ptr[s + 1] as usize)
    }

    /// Column index of stored entry `p`.
    #[inline(always)]
    pub fn col_id(&self, p: usize) -> usize {
        self.col_idx[p].to_usize()
    }

    /// Value storage in stored-row order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl<I: IndexStorage> MatrixShape for GcsrMatrix<I> {
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
        self.values.len()
    }
    fn footprint_bytes(&self) -> usize {
        self.values.len() * VALUE_BYTES
            + (self.col_idx.len() + self.row_ids.len()) * I::BYTES
            + self.row_ptr.len() * INDEX32_BYTES
    }
}

impl<I: IndexStorage> SpMv for GcsrMatrix<I> {
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        check_dims(self.nrows, self.ncols, x, y);
        for s in 0..self.stored_rows() {
            let row = self.row_id(s);
            let (lo, hi) = self.stored_row_range(s);
            let mut sum = 0.0;
            for k in lo..hi {
                sum += self.values[k] * x[self.col_id(k)];
            }
            y[row] += sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;

    fn sparse_rows_matrix() -> CooMatrix {
        // 100 rows but only 3 occupied.
        CooMatrix::from_triplets(
            100,
            50,
            vec![
                (5, 0, 1.0),
                (5, 49, 2.0),
                (40, 10, 3.0),
                (99, 20, 4.0),
                (99, 21, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn drops_empty_rows() {
        let g = GcsrMatrix::<u16>::from_coo(&sparse_rows_matrix()).unwrap();
        assert_eq!(g.stored_rows(), 3);
        assert_eq!(g.nnz(), 5);
    }

    #[test]
    fn matches_csr_result() {
        let coo = sparse_rows_matrix();
        let csr = CsrMatrix::from_coo(&coo);
        let g = GcsrMatrix::<u16>::from_coo(&coo).unwrap();
        let x: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        assert!(max_abs_diff(&csr.spmv_alloc(&x), &g.spmv_alloc(&x)) < 1e-12);
    }

    #[test]
    fn footprint_smaller_than_csr_for_mostly_empty() {
        let coo = sparse_rows_matrix();
        let csr = CsrMatrix::from_coo(&coo);
        let g = GcsrMatrix::<u16>::from_coo(&coo).unwrap();
        assert!(g.footprint_bytes() < csr.footprint_bytes());
    }

    #[test]
    fn footprint_not_better_when_all_rows_occupied() {
        // Fully occupied rows: GCSR pays the extra row_ids array for nothing.
        let mut coo = CooMatrix::new(10, 10);
        for i in 0..10 {
            coo.push(i, i, 1.0);
        }
        let csr = CsrMatrix::from_coo(&coo);
        let g32 = GcsrMatrix::<u32>::from_coo(&coo).unwrap();
        assert!(g32.footprint_bytes() >= csr.footprint_bytes());
    }

    #[test]
    fn width_overflow_rejected() {
        let coo = CooMatrix::from_triplets(100_000, 10, vec![(0, 0, 1.0)]).unwrap();
        assert!(GcsrMatrix::<u16>::from_coo(&coo).is_err());
        assert!(GcsrMatrix::<u32>::from_coo(&coo).is_ok());
    }

    #[test]
    fn empty_matrix() {
        let g = GcsrMatrix::<u16>::from_coo(&CooMatrix::new(5, 5)).unwrap();
        assert_eq!(g.stored_rows(), 0);
        assert_eq!(g.spmv_alloc(&[1.0; 5]), vec![0.0; 5]);
    }

    #[test]
    fn footprint_is_the_bytes_it_stores() {
        fn check<I: IndexStorage>(coo: &CooMatrix) {
            use std::mem::size_of_val;
            let g = GcsrMatrix::<I>::from_coo(coo).unwrap();
            let bytes = size_of_val(&g.row_ids[..])
                + size_of_val(&g.row_ptr[..])
                + size_of_val(&g.col_idx[..])
                + size_of_val(&g.values[..]);
            assert_eq!(g.footprint_bytes(), bytes);
        }
        check::<u16>(&sparse_rows_matrix());
        check::<u32>(&sparse_rows_matrix());
    }
}
