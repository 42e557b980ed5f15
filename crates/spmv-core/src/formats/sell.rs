//! Row-sorted sliced ELLPACK (SELL-C-σ, Kreutzer et al., SIAM J. Sci. Comput.
//! 36(5), 2014) with C = 4 and σ = 512: the short-row format.
//!
//! The paper's short-row matrices (Economics, Circuit, webbase: 3–6 nonzeros per
//! row) are bound by per-row loop overhead, not bytes. Here four rows form a
//! *chunk* stored lane-interleaved — step `j` of a chunk holds entry `j` of each of
//! its rows — and padded to the chunk's longest row, so one SIMD lane owns one row
//! and a row's sum is a single in-order FMA chain: no horizontal add, one trip
//! count per four rows. Rows are sorted by descending length inside fixed
//! 512-row windows, which keeps padding small and the permuted `y` writes inside
//! 4 KB. Kernels: [`crate::kernels::simd::spmv_sell_at`].

use crate::error::{Error, Result};
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexStorage;
use crate::formats::traits::{MatrixShape, SpMv};
use crate::kernels::simd;
use std::cmp::Reverse;
use std::mem::size_of;

/// Rows per chunk (C): one 4-lane f64 vector.
pub const SELL_CHUNK: usize = 4;

/// Rows per sorting window (σ). The measured plateau is σ ∈ [64, 1024].
pub const SELL_WINDOW: usize = 512;

/// The rows of `csr` in storage order: inside each window by descending length,
/// ties in row order.
fn storage_order(csr: &CsrMatrix) -> Vec<usize> {
    let row_ptr = csr.row_ptr();
    let mut order: Vec<usize> = (0..csr.nrows()).collect();
    for window in order.chunks_mut(SELL_WINDOW) {
        window.sort_by_key(|&r| Reverse(row_ptr[r + 1] - row_ptr[r]));
    }
    order
}

/// Entries a [`SellMatrix`] of `csr` stores, padding included, without building it.
pub fn sell_stored_entries(csr: &CsrMatrix) -> usize {
    let row_ptr = csr.row_ptr();
    let longest = |chunk: &[usize]| row_ptr[chunk[0] + 1] - row_ptr[chunk[0]];
    SELL_CHUNK
        * storage_order(csr)
            .chunks(SELL_CHUNK)
            .map(longest)
            .sum::<usize>()
}

/// Sliced-ELL storage, generic over the column-index width. Slot `s` (lane `s % 4`
/// of chunk `s / 4`) holds row `s - s % 512 + perm[s]`; the slots past `nrows` in
/// the last chunk hold no row and have length 0.
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix<I: IndexStorage> {
    pub(crate) nrows: usize,
    pub(crate) ncols: usize,
    pub(crate) nnz: usize,
    /// Steps before each chunk (`nchunks + 1` entries); a step is four entries.
    pub(crate) chunk_ptr: Vec<u32>,
    /// Entries of each slot's row. Lane 3 is a chunk's shortest row, lane 0 (its
    /// width) the longest.
    pub(crate) row_len: Vec<u32>,
    /// Offset of each slot's row inside its window.
    pub(crate) perm: Vec<u16>,
    /// Column of entry `4 * step + lane`; 0 in padded entries, which no kernel reads.
    pub(crate) col_idx: Vec<I>,
    /// Value of entry `4 * step + lane`; `+0.0` in padded entries.
    pub(crate) values: Vec<f64>,
}

impl<I: IndexStorage> SellMatrix<I> {
    /// Build from CSR. Fails when `ncols` does not fit `I` or the structure
    /// outgrows its 32-bit offsets.
    pub fn from_csr(csr: &CsrMatrix) -> Result<Self> {
        let overflow = |dimension| Error::IndexWidthOverflow { dimension };
        if !I::fits(csr.ncols()) {
            return Err(overflow(csr.ncols()));
        }
        let (row_ptr, zero) = (csr.row_ptr(), I::try_from_usize(0)?);
        let order = storage_order(csr);
        let slots = order.len().div_ceil(SELL_CHUNK) * SELL_CHUNK;
        let mut chunk_ptr = vec![0u32];
        let (mut row_len, mut perm) = (vec![0u32; slots], vec![0u16; slots]);
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for (chunk, rows) in order.chunks(SELL_CHUNK).enumerate() {
            let base = values.len();
            let stored = base + SELL_CHUNK * (row_ptr[rows[0] + 1] - row_ptr[rows[0]]);
            values.resize(stored, 0.0);
            col_idx.resize(stored, zero);
            for (lane, &row) in rows.iter().enumerate() {
                let entries = row_ptr[row]..row_ptr[row + 1];
                row_len[chunk * SELL_CHUNK + lane] =
                    u32::try_from(entries.len()).map_err(|_| overflow(entries.len()))?;
                perm[chunk * SELL_CHUNK + lane] = (row % SELL_WINDOW) as u16;
                for (step, p) in entries.enumerate() {
                    let at = base + step * SELL_CHUNK + lane;
                    values[at] = csr.values()[p];
                    col_idx[at] = I::try_from_usize(csr.col_idx()[p] as usize)?;
                }
            }
            chunk_ptr.push(u32::try_from(stored / SELL_CHUNK).map_err(|_| overflow(stored))?);
        }
        Ok(SellMatrix {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            chunk_ptr,
            row_len,
            perm,
            col_idx,
            values,
        })
    }
}

impl<I: IndexStorage> MatrixShape for SellMatrix<I> {
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
        self.nnz
    }
    fn footprint_bytes(&self) -> usize {
        self.values.len() * (size_of::<f64>() + I::BYTES)
            + self.row_len.len() * (size_of::<u32>() + size_of::<u16>())
            + self.chunk_ptr.len() * size_of::<u32>()
    }
}

impl<I: IndexStorage> SpMv for SellMatrix<I> {
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        simd::spmv_sell_at(simd::detect(), self, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::{CooMatrix, IndexWidth};
    use crate::tuning::footprint::sell_bytes;
    use std::mem::size_of_val;

    #[test]
    fn stores_what_it_counts_and_sorts_inside_windows() {
        // 1030 rows: two full windows and a ragged one (1030 % 4 = 2), row
        // lengths 0..=6 plus one 40-long row, 70 000 columns for the u32 arm.
        let mut coo = CooMatrix::new(1030, 70_000);
        for row in 0..1030 {
            let len = if row == 700 { 40 } else { (row * 5) % 7 };
            (0..len).for_each(|j| coo.push(row, (row * 31 + j * 977) % 70_000, 1.0 + j as f64));
        }
        let csr = CsrMatrix::from_coo(&coo);
        let m = SellMatrix::<u32>::from_csr(&csr).unwrap();
        let held = size_of_val(&m.values[..])
            + size_of_val(&m.col_idx[..])
            + size_of_val(&m.row_len[..])
            + size_of_val(&m.perm[..])
            + size_of_val(&m.chunk_ptr[..]);
        assert_eq!(m.footprint_bytes(), held);
        assert_eq!(sell_stored_entries(&csr), m.values.len());
        assert_eq!(sell_bytes(1030, m.values.len(), IndexWidth::U32), held);
        assert_eq!(m.nnz(), csr.nnz());
        assert!(SellMatrix::<u16>::from_csr(&csr).is_err(), "70 000 columns");
        // Every row appears once, in its own window, longest first.
        let mut seen = vec![false; 1030];
        for (s, (&p, &len)) in m.perm.iter().zip(&m.row_len).enumerate().take(1030) {
            let row = s - s % SELL_WINDOW + p as usize;
            assert!(!std::mem::replace(&mut seen[row], true));
            assert_eq!(len as usize, csr.row_ptr()[row + 1] - csr.row_ptr()[row]);
            assert!(s % SELL_WINDOW == 0 || len <= m.row_len[s - 1], "slot {s}");
        }
        assert_eq!(m.row_len[1030..], [0, 0]);
    }
}
