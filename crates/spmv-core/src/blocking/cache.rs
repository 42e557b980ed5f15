//! Sparse cache blocking.
//!
//! Classical ("dense") cache blocking tiles the matrix into fixed spans of roughly
//! 1K × 1K elements. The paper's refinement (Section 4.2) budgets *touched cache
//! lines* instead: a fixed number of cache lines is reserved for the source and
//! destination vectors, rows are grouped until the destination budget is consumed,
//! and within each row panel columns are grouped until the number of **occupied**
//! source-vector cache lines reaches the source budget. Blocks therefore span very
//! different column counts but cost the same amount of cache.

use crate::dense::DOUBLES_PER_LINE;
use crate::formats::csr::CsrMatrix;
use crate::formats::traits::MatrixShape;
use std::ops::Range;

/// Budget configuration for sparse cache blocking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheBlockingConfig {
    /// Total cache lines the blocking may assume are available for vector data
    /// (the paper derives this from the target's L2/local-store capacity).
    pub total_lines: usize,
    /// Fraction of the budget dedicated to the source vector `x`; the remainder
    /// holds the destination vector `y`.
    pub source_fraction: f64,
}

impl CacheBlockingConfig {
    /// Budget derived from a cache capacity in bytes, reserving `vector_share` of it
    /// for vector working set (the rest streams matrix data).
    pub fn from_cache_bytes(cache_bytes: usize, vector_share: f64) -> Self {
        let lines = ((cache_bytes as f64 * vector_share) as usize / 64).max(8);
        CacheBlockingConfig {
            total_lines: lines,
            source_fraction: 0.5,
        }
    }

    /// Cache lines budgeted for the source vector.
    pub fn source_lines(&self) -> usize {
        ((self.total_lines as f64 * self.source_fraction) as usize).max(1)
    }

    /// Cache lines budgeted for the destination vector.
    pub fn dest_lines(&self) -> usize {
        (self.total_lines - self.source_lines()).max(1)
    }
}

impl Default for CacheBlockingConfig {
    fn default() -> Self {
        // Default roughly matches a 1MB L2 with half the capacity for vectors.
        CacheBlockingConfig::from_cache_bytes(1 << 20, 0.5)
    }
}

/// The result of the cache-blocking pass: a grid of row panels, each split into
/// column ranges, such that every (row panel, column range) pair is one cache block.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheBlocking {
    /// Row panel boundaries.
    pub row_panels: Vec<Range<usize>>,
    /// For each row panel, the column ranges of its cache blocks.
    pub col_ranges: Vec<Vec<Range<usize>>>,
}

impl CacheBlocking {
    /// Total number of cache blocks.
    pub fn num_blocks(&self) -> usize {
        self.col_ranges.iter().map(|v| v.len()).sum()
    }

    /// Iterate over `(row_range, col_range)` pairs.
    pub fn blocks(&self) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
        self.row_panels
            .iter()
            .enumerate()
            .flat_map(move |(p, rows)| {
                self.col_ranges[p]
                    .iter()
                    .map(move |cols| (rows.clone(), cols.clone()))
            })
    }

    /// Whether the blocking covers the whole matrix exactly once (sanity invariant).
    pub fn covers(&self, nrows: usize, ncols: usize) -> bool {
        if nrows == 0 {
            return self.row_panels.is_empty();
        }
        let mut row_cursor = 0usize;
        for (p, rows) in self.row_panels.iter().enumerate() {
            if rows.start != row_cursor {
                return false;
            }
            row_cursor = rows.end;
            let mut col_cursor = 0usize;
            for cols in &self.col_ranges[p] {
                if cols.start != col_cursor {
                    return false;
                }
                col_cursor = cols.end;
            }
            if ncols > 0 && col_cursor != ncols {
                return false;
            }
        }
        row_cursor == nrows
    }
}

/// Compute the sparse cache blocking of `csr` under `config`.
pub fn cache_block(csr: &CsrMatrix, config: &CacheBlockingConfig) -> CacheBlocking {
    let nrows = csr.nrows();
    let ncols = csr.ncols();
    if nrows == 0 {
        return CacheBlocking {
            row_panels: vec![],
            col_ranges: vec![],
        };
    }

    // Row panels: enough rows that the destination vector slice fills the dest budget.
    let dest_rows_per_panel = (config.dest_lines() * DOUBLES_PER_LINE).max(1);
    let mut row_panels = Vec::new();
    let mut start = 0usize;
    while start < nrows {
        let end = (start + dest_rows_per_panel).min(nrows);
        row_panels.push(start..end);
        start = end;
    }

    let source_budget = config.source_lines();
    let mut col_ranges = Vec::with_capacity(row_panels.len());
    for rows in &row_panels {
        // Sparse blocking: walk columns left to right, greedily extending the block
        // until the number of *touched* source cache lines reaches the budget.
        // Touched lines are discovered from the panel's column indices.
        let lines = touched_units(csr, rows, &(0..ncols), DOUBLES_PER_LINE);

        let mut ranges = Vec::new();
        if lines.is_empty() {
            ranges.push(0..ncols);
            col_ranges.push(ranges);
            continue;
        }
        // Group consecutive runs of `source_budget` touched lines into one block; the
        // block's column range extends to just before the first column of the next
        // group (so untouched columns are carried along for free).
        let mut group_start_col = 0usize;
        let mut idx = 0usize;
        while idx < lines.len() {
            let group_end_idx = (idx + source_budget).min(lines.len());
            let range_end_col = if group_end_idx == lines.len() {
                ncols
            } else {
                // First column of the next group's first touched line.
                lines[group_end_idx] * DOUBLES_PER_LINE
            };
            ranges.push(group_start_col..range_end_col);
            group_start_col = range_end_col;
            idx = group_end_idx;
        }
        col_ranges.push(ranges);
    }

    CacheBlocking {
        row_panels,
        col_ranges,
    }
}

/// The distinct `column / unit` values the block `rows` × `cols` touches,
/// ascending: the occupied cache lines (or, for the TLB pass, pages) of the
/// source vector. O(nnz of the rows + `ncols / unit`) per call.
pub(crate) fn touched_units(
    csr: &CsrMatrix,
    rows: &Range<usize>,
    cols: &Range<usize>,
    unit: usize,
) -> Vec<usize> {
    let mut seen = vec![false; csr.ncols().div_ceil(unit)];
    for &col in &csr.col_idx()[csr.row_ptr()[rows.start]..csr.row_ptr()[rows.end]] {
        seen[col as usize / unit] |= cols.contains(&(col as usize));
    }
    (0..seen.len()).filter(|&u| seen[u]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::CooMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_csr(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(nrows, ncols);
        for _ in 0..nnz {
            coo.push(rng.random_range(0..nrows), rng.random_range(0..ncols), 1.0);
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn blocking_covers_matrix() {
        let csr = random_csr(500, 800, 5000, 1);
        let cfg = CacheBlockingConfig {
            total_lines: 32,
            source_fraction: 0.5,
        };
        let blocking = cache_block(&csr, &cfg);
        assert!(blocking.covers(500, 800));
        assert!(blocking.num_blocks() >= 1);
    }

    #[test]
    fn sparse_blocks_respect_source_budget() {
        let csr = random_csr(64, 4096, 4000, 3);
        let cfg = CacheBlockingConfig {
            total_lines: 16,
            source_fraction: 0.5,
        };
        let blocking = cache_block(&csr, &cfg);
        for (rows, cols) in blocking.blocks() {
            let touched = touched_units(&csr, &rows, &cols, DOUBLES_PER_LINE).len();
            assert!(
                touched <= cfg.source_lines(),
                "block {rows:?}x{cols:?} touches {touched} lines > budget {}",
                cfg.source_lines()
            );
        }
    }

    #[test]
    fn sparse_blocking_adapts_spans_to_occupancy() {
        // A matrix whose left half is dense and right half nearly empty: the sparse
        // heuristic should produce wider column ranges on the sparse side.
        let mut coo = CooMatrix::new(8, 2048);
        for row in 0..8 {
            for col in 0..256 {
                coo.push(row, col, 1.0);
            }
        }
        coo.push(0, 2000, 1.0);
        let csr = CsrMatrix::from_coo(&coo);
        let cfg = CacheBlockingConfig {
            total_lines: 16,
            source_fraction: 0.5,
        };
        let blocking = cache_block(&csr, &cfg);
        let spans: Vec<usize> = blocking.col_ranges[0]
            .iter()
            .map(|r| r.end - r.start)
            .collect();
        assert!(spans.len() >= 2);
        // The widest block (covering the sparse tail) must be wider than the first
        // (fully dense) block: spans adapt to occupancy rather than being uniform.
        assert!(spans.iter().max().unwrap() > spans.first().unwrap());
    }

    #[test]
    fn small_matrix_single_block() {
        let csr = random_csr(10, 10, 20, 4);
        let cfg = CacheBlockingConfig::default();
        let blocking = cache_block(&csr, &cfg);
        assert_eq!(blocking.num_blocks(), 1);
        assert!(blocking.covers(10, 10));
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::from_coo(&CooMatrix::new(0, 0));
        let blocking = cache_block(&csr, &CacheBlockingConfig::default());
        assert_eq!(blocking.num_blocks(), 0);
        assert!(blocking.covers(0, 0));
    }

    #[test]
    fn empty_panel_gets_full_span() {
        // Rows with no nonzeros still need a covering column range.
        let coo = CooMatrix::from_triplets(2000, 100, vec![(0, 0, 1.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let cfg = CacheBlockingConfig {
            total_lines: 8,
            source_fraction: 0.5,
        };
        let blocking = cache_block(&csr, &cfg);
        assert!(blocking.covers(2000, 100));
    }

    #[test]
    fn config_budget_split() {
        let cfg = CacheBlockingConfig {
            total_lines: 100,
            source_fraction: 0.75,
        };
        assert_eq!(cfg.source_lines(), 75);
        assert_eq!(cfg.dest_lines(), 25);
        let from_bytes = CacheBlockingConfig::from_cache_bytes(1 << 20, 0.5);
        assert_eq!(from_bytes.total_lines, (1 << 19) / 64);
    }
}
