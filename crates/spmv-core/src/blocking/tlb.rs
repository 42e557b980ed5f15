//! TLB blocking.
//!
//! Prior work the paper cites showed TLB misses can vary by an order of magnitude
//! with the blocking strategy. The paper's heuristic (Section 4.2) bounds the number
//! of *unique source-vector pages* a block touches, and is applied between the cache
//! row-panel pass and the cache column pass. On the Opteron the budget corresponds to
//! the small L1 TLB (32 entries of 4KB pages).

use crate::blocking::cache::touched_units;
use crate::formats::csr::CsrMatrix;
use std::ops::Range;

/// Page size assumed for TLB blocking (4 KiB, i.e. 512 doubles of the source vector).
pub const PAGE_BYTES: usize = 4096;

/// Doubles of the source vector per page.
pub const DOUBLES_PER_PAGE: usize = PAGE_BYTES / std::mem::size_of::<f64>();

/// Configuration for the TLB blocking pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Maximum number of distinct source-vector pages one block may touch.
    /// The Opteron L1 DTLB has 32 entries; a handful are reserved for the matrix
    /// streams and destination vector, leaving the rest for the source vector.
    pub max_source_pages: usize,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            max_source_pages: 24,
        }
    }
}

/// The TLB blocking of one row panel: column ranges each touching at most
/// `max_source_pages` distinct source pages.
#[derive(Debug, Clone, PartialEq)]
pub struct TlbBlocking {
    /// Column ranges produced for the row panel.
    pub col_ranges: Vec<Range<usize>>,
}

impl TlbBlocking {
    /// Whether the ranges tile `0..ncols` exactly.
    pub fn covers(&self, ncols: usize) -> bool {
        let mut cursor = 0usize;
        for r in &self.col_ranges {
            if r.start != cursor {
                return false;
            }
            cursor = r.end;
        }
        cursor == ncols
    }
}

/// Split the columns of `rows` (a row panel of `csr`) so each range touches at most
/// `config.max_source_pages` distinct pages of the source vector.
pub fn tlb_block(csr: &CsrMatrix, rows: &Range<usize>, config: &TlbConfig) -> TlbBlocking {
    let ncols = crate::formats::traits::MatrixShape::ncols(csr);
    let pages = touched_units(csr, rows, &(0..ncols), DOUBLES_PER_PAGE);

    if pages.is_empty() {
        return TlbBlocking {
            col_ranges: std::iter::once(0..ncols).collect(),
        };
    }

    let budget = config.max_source_pages.max(1);
    let mut ranges = Vec::new();
    let mut start_col = 0usize;
    let mut idx = 0usize;
    while idx < pages.len() {
        let end_idx = (idx + budget).min(pages.len());
        let end_col = if end_idx == pages.len() {
            ncols
        } else {
            pages[end_idx] * DOUBLES_PER_PAGE
        };
        ranges.push(start_col..end_col);
        start_col = end_col;
        idx = end_idx;
    }
    TlbBlocking { col_ranges: ranges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::{CooMatrix, CsrMatrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scattered_csr(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(nrows, ncols);
        for _ in 0..nnz {
            coo.push(rng.random_range(0..nrows), rng.random_range(0..ncols), 1.0);
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn ranges_cover_and_respect_budget() {
        let csr = scattered_csr(16, 1 << 16, 2000, 5);
        let cfg = TlbConfig {
            max_source_pages: 8,
        };
        let blocking = tlb_block(&csr, &(0..16), &cfg);
        assert!(blocking.covers(1 << 16));
        for r in &blocking.col_ranges {
            assert!(touched_units(&csr, &(0..16), r, DOUBLES_PER_PAGE).len() <= 8);
        }
    }

    #[test]
    fn narrow_matrix_single_range() {
        let csr = scattered_csr(16, 256, 100, 6);
        let blocking = tlb_block(&csr, &(0..16), &TlbConfig::default());
        assert_eq!(blocking.col_ranges.len(), 1);
        assert!(blocking.covers(256));
    }

    #[test]
    fn empty_panel_full_range() {
        let coo = CooMatrix::from_triplets(10, 5000, vec![(0, 0, 1.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let blocking = tlb_block(&csr, &(5..10), &TlbConfig::default());
        assert_eq!(blocking.col_ranges, vec![0..5000]);
    }

    #[test]
    fn budget_of_one_splits_per_page() {
        // Nonzeros on 3 separate pages with budget 1 -> 3 ranges.
        let coo = CooMatrix::from_triplets(
            1,
            DOUBLES_PER_PAGE * 4,
            vec![
                (0, 0, 1.0),
                (0, DOUBLES_PER_PAGE, 1.0),
                (0, 3 * DOUBLES_PER_PAGE, 1.0),
            ],
        )
        .unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let blocking = tlb_block(
            &csr,
            &(0..1),
            &TlbConfig {
                max_source_pages: 1,
            },
        );
        assert_eq!(blocking.col_ranges.len(), 3);
        assert!(blocking.covers(DOUBLES_PER_PAGE * 4));
    }

    #[test]
    fn page_constants() {
        assert_eq!(DOUBLES_PER_PAGE, 512);
    }
}
