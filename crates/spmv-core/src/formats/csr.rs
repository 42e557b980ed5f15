//! Compressed Sparse Row (CSR) — the conventional format and the paper's baseline.
//!
//! [`CsrMatrix`] is generic over the column-index storage width
//! ([`IndexStorage`]): `CsrMatrix<u32>` (the default) is the conventional format,
//! `CsrMatrix<u16>` is the paper's 16-bit index-compressed variant. The width is a
//! *compile-time* parameter, so every kernel instantiation reads its indices with a
//! single zero-extending load — no per-access branch on a runtime width tag. The
//! tuner's runtime width decision picks the instantiation once per cache block
//! ([`crate::blocking::BlockFormat`]).

use crate::error::{Error, Result};
use crate::formats::coo::CooMatrix;
use crate::formats::index::IndexStorage;
use crate::formats::traits::{check_dims, MatrixShape, SpMv};
use crate::{INDEX32_BYTES, VALUE_BYTES};
use std::ops::Range;

/// Compressed Sparse Row storage, generic over the column-index width.
///
/// `row_ptr` has `nrows + 1` entries; the nonzeros of row `i` occupy
/// `values[row_ptr[i]..row_ptr[i+1]]` with matching `col_idx` positions, sorted by
/// column. This is the structure the naive and single-loop kernels of Section 4.1
/// traverse, and the input to every data-structure transformation.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<I: IndexStorage = u32> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<I>,
    values: Vec<f64>,
}

impl CsrMatrix<u32> {
    /// Build from raw arrays, validating the structure.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != nrows + 1 {
            return Err(Error::InvalidStructure(format!(
                "row_ptr length {} != nrows + 1 = {}",
                row_ptr.len(),
                nrows + 1
            )));
        }
        if col_idx.len() != values.len() {
            return Err(Error::InvalidStructure(format!(
                "col_idx length {} != values length {}",
                col_idx.len(),
                values.len()
            )));
        }
        if row_ptr[0] != 0 || *row_ptr.last().unwrap() != values.len() {
            return Err(Error::InvalidStructure(
                "row_ptr must start at 0 and end at nnz".to_string(),
            ));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::InvalidStructure(
                "row_ptr must be non-decreasing".to_string(),
            ));
        }
        if col_idx.iter().any(|&c| c as usize >= ncols) {
            return Err(Error::InvalidStructure(
                "column index out of range".to_string(),
            ));
        }
        // `sub_block` finds a row's column range by binary search.
        if row_ptr.windows(2).any(|w| !col_idx[w[0]..w[1]].is_sorted()) {
            return Err(Error::InvalidStructure(
                "column indices must be sorted within each row".to_string(),
            ));
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Convert from coordinate format, summing duplicate entries.
    ///
    /// No comparison sort of the whole list: the entries are taken in the
    /// stable row-major order of [`CooMatrix::sort`] (counted per row,
    /// scattered stably into row segments, each row stably sorted by column)
    /// and duplicates are summed left to right — the additions a stable
    /// `(row, col)` sort would make, in the same order, so the result is the
    /// same to the bit.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let (nrows, ncols) = (coo.nrows(), coo.ncols());
        let (mut row_ptr, slots) =
            coo.row_major(|t| (t.col as u32, t.val), |&(col, _)| col as usize);
        let mut col_idx: Vec<u32> = Vec::with_capacity(slots.len());
        let mut values: Vec<f64> = Vec::with_capacity(slots.len());
        // `row_ptr[i + 1]` ends row `i`'s slots until the row's summed
        // entries are out; then it ends those.
        let mut start = 0;
        for i in 0..nrows {
            let row = &slots[start..row_ptr[i + 1]];
            start = row_ptr[i + 1];
            for &(col, val) in row {
                if col_idx.len() > row_ptr[i] && col_idx.last() == Some(&col) {
                    *values
                        .last_mut()
                        .expect("a column is pushed with its value") += val;
                } else {
                    col_idx.push(col);
                    values.push(val);
                }
            }
            row_ptr[i + 1] = col_idx.len();
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Extract the sub-matrix covering `rows` × `cols` (half-open ranges), with
    /// coordinates re-based to the block origin — the cache-blocking cut, taken
    /// straight out of the row segments: columns are sorted per row, so each
    /// row's share of the block is one contiguous run found by binary search.
    pub fn sub_block(&self, rows: Range<usize>, cols: Range<usize>) -> CsrMatrix {
        assert!(
            rows.start <= rows.end && rows.end <= self.nrows,
            "invalid row range {rows:?}"
        );
        assert!(
            cols.start <= cols.end && cols.end <= self.ncols,
            "invalid column range {cols:?}"
        );
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for row in rows {
            let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
            let seg = &self.col_idx[lo..hi];
            let from = lo + seg.partition_point(|&c| (c as usize) < cols.start);
            let to = lo + seg.partition_point(|&c| (c as usize) < cols.end);
            col_idx.extend(
                self.col_idx[from..to]
                    .iter()
                    .map(|&c| c - cols.start as u32),
            );
            values.extend_from_slice(&self.values[from..to]);
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows: row_ptr.len() - 1,
            ncols: cols.end - cols.start,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Transpose.
    ///
    /// Defined for the 32-bit default only: transposing swaps the row and column
    /// spans, so a narrow index type valid for the input may not be valid for the
    /// result. Narrow matrices can `reindex::<u32>()` first and narrow again after.
    pub fn transpose(&self) -> CsrMatrix<u32> {
        CsrMatrix::from_coo(&self.to_coo().transpose())
    }
}

impl<I: IndexStorage> CsrMatrix<I> {
    /// Re-encode the column indices at width `J`, chosen once — the returned matrix
    /// drives monomorphized kernels with no per-access width dispatch.
    pub fn reindex<J: IndexStorage>(&self) -> Result<CsrMatrix<J>> {
        if !J::fits(self.ncols) {
            return Err(Error::IndexWidthOverflow {
                dimension: self.ncols,
            });
        }
        // Every column is below `ncols`, which fits `J`.
        let col_idx = self
            .col_idx
            .iter()
            .map(|&c| J::try_from_usize(c.to_usize()).expect("column below ncols"))
            .collect();
        Ok(CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx,
            values: self.values.clone(),
        })
    }

    /// Convert back to coordinate format.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.values.len());
        for row in 0..self.nrows {
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                coo.push(row, self.col_idx[k].to_usize(), self.values[k]);
            }
        }
        coo
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array at the storage width.
    pub fn col_idx(&self) -> &[I] {
        &self.col_idx
    }

    /// Value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Average number of nonzeros per row.
    pub fn avg_row_nnz(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.values.len() as f64 / self.nrows as f64
        }
    }

    /// Number of rows with no stored entries. Matrices with many empty rows favour
    /// BCOO/GCSR storage (Section 4.2).
    pub fn empty_rows(&self) -> usize {
        (0..self.nrows).filter(|&i| self.row_nnz(i) == 0).count()
    }

    /// Iterate over `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |row| {
            (self.row_ptr[row]..self.row_ptr[row + 1])
                .map(move |k| (row, self.col_idx[k].to_usize(), self.values[k]))
        })
    }

    /// `Y ← Y + A·X` for a column-major block of `x.k()` vectors: each column
    /// index is read once and reused across the whole block. Per vector the
    /// arithmetic is bit-identical to the sequential single-vector kernels.
    pub fn spmm(&self, x: &crate::multivec::MultiVec, y: &mut crate::multivec::MultiVec) {
        assert_eq!(x.ld(), self.ncols, "source block row count mismatch");
        assert_eq!(y.ld(), self.nrows, "destination block row count mismatch");
        assert_eq!(x.k(), y.k(), "source and destination vector counts differ");
        crate::kernels::multivec::spmm_csr(self, x.data(), self.ncols, &mut y.view_mut());
    }

    /// Extract rows `[start, end)` as a new CSR matrix over the same column space.
    /// Used by the row-partitioners to hand each thread an independent sub-matrix.
    pub fn row_slice(&self, start: usize, end: usize) -> CsrMatrix<I> {
        assert!(
            start <= end && end <= self.nrows,
            "invalid row slice {start}..{end}"
        );
        let base = self.row_ptr[start];
        let stop = self.row_ptr[end];
        let row_ptr: Vec<usize> = self.row_ptr[start..=end]
            .iter()
            .map(|&p| p - base)
            .collect();
        CsrMatrix {
            nrows: end - start,
            ncols: self.ncols,
            row_ptr,
            col_idx: self.col_idx[base..stop].to_vec(),
            values: self.values[base..stop].to_vec(),
        }
    }
}

impl<I: IndexStorage> MatrixShape for CsrMatrix<I> {
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
        self.values.len() * (VALUE_BYTES + I::BYTES) + self.row_ptr.len() * INDEX32_BYTES
    }
}

impl<I: IndexStorage> SpMv for CsrMatrix<I> {
    /// Reference CSR SpMV: the "naive" nested loop of Section 4.1, monomorphized
    /// per index width.
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        check_dims(self.nrows, self.ncols, x, y);
        for (row, yv) in y.iter_mut().enumerate() {
            let mut sum = 0.0;
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                sum += self.values[k] * x[self.col_idx[k].to_usize()];
            }
            *yv += sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMatrix {
        // [ 1 0 2 0 ]
        // [ 0 0 0 0 ]
        // [ 3 4 0 5 ]
        // [ 0 0 6 0 ]
        CooMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (0, 2, 2.0),
                (2, 0, 3.0),
                (2, 1, 4.0),
                (2, 3, 5.0),
                (3, 2, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_coo_builds_correct_structure() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        assert_eq!(csr.row_ptr(), &[0, 2, 2, 5, 6]);
        assert_eq!(csr.col_idx(), &[0, 2, 0, 1, 3, 2]);
        assert_eq!(csr.values(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn spmv_reference_result() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = csr.spmv_alloc(&x);
        assert_eq!(y, vec![7.0, 0.0, 31.0, 18.0]);
    }

    #[test]
    fn reindexed_u16_matches_u32() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let narrow: CsrMatrix<u16> = csr.reindex().unwrap();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(narrow.spmv_alloc(&x), csr.spmv_alloc(&x));
        assert_eq!(narrow.col_idx(), &[0u16, 2, 0, 1, 3, 2]);
        // Index storage shrinks by 2 bytes per nonzero.
        assert_eq!(
            csr.footprint_bytes() - narrow.footprint_bytes(),
            2 * csr.nnz()
        );
    }

    #[test]
    fn reindex_rejects_narrow_width_on_wide_matrix() {
        let coo = CooMatrix::from_triplets(2, 100_000, vec![(0, 99_999, 1.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        assert!(csr.reindex::<u16>().is_err());
        assert!(csr.reindex::<u32>().is_ok());
        assert!(csr.reindex::<usize>().is_ok());
    }

    #[test]
    fn round_trip_through_coo() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let back = CsrMatrix::from_coo(&csr.to_coo());
        assert_eq!(csr, back);
    }

    #[test]
    fn row_nnz_and_empty_rows() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        assert_eq!(csr.row_nnz(0), 2);
        assert_eq!(csr.row_nnz(1), 0);
        assert_eq!(csr.row_nnz(2), 3);
        assert_eq!(csr.empty_rows(), 1);
        assert!((csr.avg_row_nnz() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn row_slice_extracts_submatrix() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let slice = csr.row_slice(2, 4);
        assert_eq!(slice.nrows(), 2);
        assert_eq!(slice.ncols(), 4);
        assert_eq!(slice.nnz(), 4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(slice.spmv_alloc(&x), vec![31.0, 18.0]);
    }

    #[test]
    fn row_slice_preserves_index_width() {
        let csr: CsrMatrix<u16> = CsrMatrix::from_coo(&sample_coo()).reindex().unwrap();
        let slice = csr.row_slice(0, 2);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(slice.spmv_alloc(&x), vec![7.0, 0.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let tt = csr.transpose().transpose();
        assert_eq!(csr, tt);
    }

    #[test]
    fn from_raw_validates() {
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err()); // bad len
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 1], vec![0, 1], vec![1.0]).is_err()); // bad end
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err()); // decreasing
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 7], vec![1.0, 1.0]).is_err()); // col range
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 2], vec![1, 0], vec![1.0, 1.0]).is_err());
        // unsorted row
    }

    #[test]
    fn sub_block_equals_the_coo_round_trip() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        for (rows, cols) in [
            (0..4, 0..4),
            (1..3, 1..4),
            (2..3, 0..1),
            (0..0, 2..2),
            (0..4, 3..3),
        ] {
            let via_coo = CsrMatrix::from_coo(&csr.to_coo().sub_block(rows.clone(), cols.clone()));
            assert_eq!(csr.sub_block(rows, cols), via_coo);
        }
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let triplets: Vec<_> = csr.iter().collect();
        assert_eq!(triplets[0], (0, 0, 1.0));
        assert_eq!(triplets.last().copied(), Some((3, 2, 6.0)));
        assert_eq!(triplets.len(), 6);
    }

    #[test]
    fn footprint_counts_values_indices_pointers() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        // 6 values * 8 + 6 col idx * 4 + 5 row ptr * 4 = 48 + 24 + 20
        assert_eq!(csr.footprint_bytes(), 92);
    }

    #[test]
    fn duplicates_are_summed_on_conversion() {
        let coo = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 4.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.values(), &[5.0]);
    }

    #[test]
    fn empty_matrix_spmv() {
        let coo = CooMatrix::new(3, 3);
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.spmv_alloc(&[1.0, 1.0, 1.0]), vec![0.0, 0.0, 0.0]);
    }
}
