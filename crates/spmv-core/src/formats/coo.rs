//! Coordinate (triplet) format — the construction intermediate for every other format.

use crate::error::{Error, Result};
use crate::formats::traits::{check_dims, MatrixShape, SpMv};
use crate::{INDEX32_BYTES, VALUE_BYTES};

/// A single stored entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Stored value.
    pub val: f64,
}

/// Coordinate-format sparse matrix: an unordered list of `(row, col, value)` triplets.
///
/// Matrix generators and the MatrixMarket reader produce `CooMatrix`; all optimized
/// formats are built from it. Duplicate coordinates are allowed during construction
/// and are summed by [`CooMatrix::sum_duplicates`] or by conversion to CSR.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<Triplet>,
}

impl CooMatrix {
    /// Create an empty matrix of the given dimensions.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Create an empty matrix with reserved capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Append an entry. Panics if the coordinates are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        assert!(
            row < self.nrows && col < self.ncols,
            "entry ({row}, {col}) outside {}x{} matrix",
            self.nrows,
            self.ncols
        );
        self.entries.push(Triplet { row, col, val });
    }

    /// Append an entry, returning an error instead of panicking on bad coordinates.
    pub fn try_push(&mut self, row: usize, col: usize, val: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(Error::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.entries.push(Triplet { row, col, val });
        Ok(())
    }

    /// Build directly from a triplet list.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self> {
        let mut m = CooMatrix::new(nrows, ncols);
        for (r, c, v) in triplets {
            m.try_push(r, c, v)?;
        }
        Ok(m)
    }

    /// The stored triplets in insertion order.
    pub fn entries(&self) -> &[Triplet] {
        &self.entries
    }

    /// Sort entries by `(row, col)`, stably: entries with equal coordinates
    /// keep their insertion order. Required before streaming conversions.
    pub fn sort(&mut self) {
        self.entries = self.row_major(|&t| t, |t| t.col).1;
    }

    /// Sort (stably, as [`CooMatrix::sort`]) and combine duplicate coordinates
    /// by summing their values left to right in insertion order.
    pub fn sum_duplicates(&mut self) {
        self.sort();
        self.entries.dedup_by(|t, kept| {
            let same = (t.row, t.col) == (kept.row, kept.col);
            if same {
                kept.val += t.val;
            }
            same
        });
    }

    /// The entries in stable `(row, col)` order, as a row pointer and one
    /// `slot(entry)` per entry: counted by row, scattered stably into row
    /// segments, each segment stably sorted by `by_col(slot)`. That is the order
    /// a stable global `(row, col)` sort gives, without comparing across rows.
    pub(crate) fn row_major<T: Copy>(
        &self,
        slot: impl Fn(&Triplet) -> T,
        by_col: impl Fn(&T) -> usize,
    ) -> (Vec<usize>, Vec<T>) {
        let mut row_ptr = vec![0usize; self.nrows + 1];
        for t in &self.entries {
            row_ptr[t.row + 1] += 1;
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        // A zero slot lets the allocator hand out zeroed pages untouched.
        let (row, col, val) = (0, 0, 0.0);
        let mut slots = vec![slot(&Triplet { row, col, val }); self.entries.len()];
        let mut cursor = row_ptr.clone();
        for t in &self.entries {
            slots[cursor[t.row]] = slot(t);
            cursor[t.row] += 1;
        }
        for w in row_ptr.windows(2) {
            slots[w[0]..w[1]].sort_by_key(&by_col);
        }
        (row_ptr, slots)
    }

    /// Extract the sub-matrix covering `rows` × `cols` (half-open ranges), with
    /// coordinates re-based to the block origin. Used by the cache-blocking pass.
    pub fn sub_block(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> CooMatrix {
        let mut block = CooMatrix::new(rows.end - rows.start, cols.end - cols.start);
        for t in &self.entries {
            if rows.contains(&t.row) && cols.contains(&t.col) {
                block.push(t.row - rows.start, t.col - cols.start, t.val);
            }
        }
        block
    }

    /// Transpose, swapping rows and columns.
    pub fn transpose(&self) -> CooMatrix {
        let mut t = CooMatrix::with_capacity(self.ncols, self.nrows, self.entries.len());
        for e in &self.entries {
            t.push(e.col, e.row, e.val);
        }
        t
    }

    /// Densify into a row-major `Vec<Vec<f64>>` (test/debug helper for small matrices).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for t in &self.entries {
            d[t.row][t.col] += t.val;
        }
        d
    }
}

impl MatrixShape for CooMatrix {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn stored_entries(&self) -> usize {
        self.entries.len()
    }
    fn nnz(&self) -> usize {
        self.entries.len()
    }
    fn footprint_bytes(&self) -> usize {
        // One value plus a full row and column coordinate per entry: the "naive
        // 16 bytes per nonzero" the paper's Section 4.2 starts from.
        self.entries.len() * (VALUE_BYTES + 2 * INDEX32_BYTES)
    }
}

impl SpMv for CooMatrix {
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        check_dims(self.nrows, self.ncols, x, y);
        for t in &self.entries {
            y[t.row] += t.val * x[t.col];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        CooMatrix::from_triplets(
            3,
            3,
            vec![
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn push_and_shape() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.stored_entries(), 5);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let y = m.spmv_alloc(&x);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn spmv_accumulates() {
        let m = sample();
        let x = vec![1.0, 1.0, 1.0];
        let mut y = vec![100.0, 100.0, 100.0];
        m.spmv(&x, &mut y);
        assert_eq!(y, vec![103.0, 103.0, 109.0]);
    }

    #[test]
    fn try_push_rejects_out_of_bounds() {
        let mut m = CooMatrix::new(2, 2);
        assert!(m.try_push(2, 0, 1.0).is_err());
        assert!(m.try_push(0, 5, 1.0).is_err());
        assert!(m.try_push(1, 1, 1.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn push_panics_out_of_bounds() {
        let mut m = CooMatrix::new(2, 2);
        m.push(3, 0, 1.0);
    }

    #[test]
    fn sum_duplicates_combines() {
        let mut m =
            CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0)]).unwrap();
        m.sum_duplicates();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense()[0][0], 3.0);
    }

    #[test]
    fn sub_block_rebases_coordinates() {
        let m = sample();
        let b = m.sub_block(1..3, 0..2);
        assert_eq!(b.nrows(), 2);
        assert_eq!(b.ncols(), 2);
        // Entries (1,1,3.0) -> (0,1) and (2,0,4.0) -> (1,0).
        let dense = b.to_dense();
        assert_eq!(dense[0][1], 3.0);
        assert_eq!(dense[1][0], 4.0);
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn transpose_swaps() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.to_dense()[2][0], 2.0);
        assert_eq!(t.to_dense()[0][2], 4.0);
    }

    #[test]
    fn footprint_is_16_bytes_per_nonzero() {
        let m = sample();
        assert_eq!(m.footprint_bytes(), 5 * 16);
    }

    #[test]
    fn flop_byte_ratio_upper_bound() {
        // COO's flop:byte is 2/16 = 0.125; CSR-ish formats approach the 0.25 bound.
        let m = sample();
        assert!((m.flop_byte_ratio() - 0.125).abs() < 1e-12);
    }
}
