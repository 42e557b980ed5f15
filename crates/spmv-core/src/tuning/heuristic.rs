//! The one-pass footprint-minimizing tuner: **one pass proposes, the clock disposes**.
//!
//! This is the paper's replacement for OSKI's search: "our implementation performs
//! one pass over the nonzeros to determine the combination of register blocking,
//! index size, first/last row, and format that minimizes the matrix footprint"
//! (Section 4.2), applied independently to every cache block produced by the cache
//! and TLB blocking passes. What the byte count cannot see (the paper's caveats:
//! blocking only when the fill pays, only when `x` does not fit) is left to the
//! clock: the pass proposes up to five structures per thread share
//! ([`ladder_rungs`]), and `TunePlan::new` times every share's rungs without a
//! cache or TLB grid. This module stays deterministic, and so does
//! `TunePlan::heuristic`, the one planner that keeps its finest grid untimed.

use crate::blocking::blocked::{BlockFormat, CacheBlock, Cell};
use crate::blocking::cache::{cache_block, CacheBlockingConfig};
use crate::blocking::tlb::{tlb_block, TlbConfig};
use crate::error::{Error, Result};
use crate::formats::traits::MatrixShape;
use crate::formats::{
    BcooMatrix, BcsrMatrix, CsrMatrix, GcsrMatrix, IndexStorage, IndexWidth, SellMatrix, SymBcsr,
    SymCsr,
};
use crate::tuning::footprint::{best_choice, CandidateOptions, FormatChoice, FormatKind};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

/// Configuration of the full tuning pipeline — the knobs of paper Table 2's
/// "Data Structure Optimization" column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningConfig {
    /// Cache blocking budget; `None` disables cache blocking entirely.
    pub cache_blocking: Option<CacheBlockingConfig>,
    /// TLB blocking budget; `None` disables the TLB pass.
    pub tlb_blocking: Option<TlbConfig>,
    /// Consider register block shapes other than 1×1.
    pub register_blocking: bool,
    /// Consider 16-bit index compression.
    pub allow_u16_indices: bool,
    /// Consider BCOO storage for blocks with many empty rows.
    pub allow_bcoo: bool,
    /// Consider GCSR storage.
    pub allow_gcsr: bool,
    /// May store detected square-and-symmetric matrices as diagonal +
    /// strictly-lower triangle (`SymCsr`/`SymBcsr`), halving off-diagonal
    /// value/index traffic. `TunePlan::heuristic` and `TunePlan::new_symmetric`
    /// always do; `TunePlan::new` times the symmetric plan against the general
    /// one and keeps the general plan when the clock finds it faster by the
    /// ladder's margin. `TunePlan::from_partition` always plans the general
    /// pipeline.
    pub exploit_symmetry: bool,
    /// Execute streaming CSR and the covered BCSR shapes with the explicit
    /// SIMD microkernels ([`crate::kernels::simd`]). Planned on only when the
    /// host's runtime feature probe succeeds, so plans stay portable.
    pub simd: bool,
}

impl TuningConfig {
    /// Everything enabled with default budgets — the "all optimizations" (`*`) bars
    /// of Figure 1.
    pub fn full() -> Self {
        TuningConfig {
            cache_blocking: Some(CacheBlockingConfig::default()),
            tlb_blocking: Some(TlbConfig::default()),
            register_blocking: true,
            allow_u16_indices: true,
            allow_bcoo: true,
            allow_gcsr: true,
            exploit_symmetry: true,
            simd: true,
        }
    }

    /// No data-structure optimization at all: plain CSR (the naive bar).
    pub fn naive() -> Self {
        TuningConfig {
            cache_blocking: None,
            tlb_blocking: None,
            register_blocking: false,
            allow_u16_indices: false,
            allow_bcoo: false,
            allow_gcsr: false,
            exploit_symmetry: false,
            simd: false,
        }
    }

    /// Register blocking only (the `+RB` rung of Figure 1's optimization ladder).
    pub fn register_only() -> Self {
        TuningConfig {
            register_blocking: true,
            allow_u16_indices: true,
            ..Self::naive()
        }
    }

    /// Register + cache blocking (the `+RB,CB` rung of Figure 1).
    pub fn register_and_cache() -> Self {
        TuningConfig {
            cache_blocking: Some(CacheBlockingConfig::default()),
            ..Self::register_only()
        }
    }

    fn candidate_options(&self) -> CandidateOptions {
        CandidateOptions {
            register_blocking: self.register_blocking,
            allow_u16: self.allow_u16_indices,
            allow_bcoo: self.allow_bcoo,
            allow_gcsr: self.allow_gcsr,
            // The byte-footprint objective only shifts when the plan will
            // actually dispatch vector microkernels on this host.
            prefer_simd_shapes: self.simd && crate::kernels::simd::available(),
        }
    }
}

impl Default for TuningConfig {
    fn default() -> Self {
        TuningConfig::full()
    }
}

/// Record of what the tuner decided for one cache block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDecision {
    /// Global row range of the block.
    pub rows: Range<usize>,
    /// Global column range of the block.
    pub cols: Range<usize>,
    /// The winning format choice.
    pub choice: FormatChoice,
    /// Nonzeros in the block.
    pub nnz: usize,
}

impl BlockDecision {
    /// The decision's cache block, built from its cell (the block-local matrix).
    fn materialize(&self, cell: &CsrMatrix) -> Result<CacheBlock> {
        Ok(CacheBlock {
            rows: self.rows.clone(),
            cols: self.cols.clone(),
            format: try_materialize(cell, &self.choice, 0)?,
        })
    }
}

/// Materialize `choice` for the block-local CSR matrix, validating the choice
/// against the block (a plan loaded from disk may not match the matrix). This is
/// where a plan's index width picks the storage's instantiation. A symmetric
/// slab's first row is global row `row_offset`; no other kind reads it.
pub fn try_materialize(
    csr_block: &CsrMatrix,
    choice: &FormatChoice,
    row_offset: usize,
) -> Result<BlockFormat> {
    Ok(match choice.width {
        IndexWidth::U16 => BlockFormat::U16(build(csr_block, choice, row_offset)?),
        IndexWidth::U32 => BlockFormat::U32(build(csr_block, choice, row_offset)?),
    })
}

/// The storage `choice` names at index width `I`.
fn build<I: IndexStorage>(
    csr: &CsrMatrix,
    choice: &FormatChoice,
    row_offset: usize,
) -> Result<Cell<I>> {
    let (r, c) = (choice.r, choice.c);
    Ok(match choice.kind {
        FormatKind::Csr => Cell::Csr(csr.reindex()?),
        FormatKind::Bcsr => Cell::Bcsr(BcsrMatrix::from_csr(csr, r, c)?),
        FormatKind::Bcoo => Cell::Bcoo(BcooMatrix::from_csr(csr, r, c)?),
        FormatKind::Gcsr => Cell::Gcsr(GcsrMatrix::from_csr(csr)?),
        FormatKind::Sell => Cell::Sell(SellMatrix::from_csr(csr)?),
        FormatKind::SymCsr => Cell::SymCsr(SymCsr::from_slab_unchecked(csr, row_offset)?),
        FormatKind::SymBcsr => Cell::SymBcsr(SymBcsr::from_slab_unchecked(csr, row_offset, r, c)?),
    })
}

/// One rung of a thread share's ladder: a grid of cells cut out of the share and
/// the footprint decision for each non-empty cell.
#[derive(Debug, Clone)]
pub struct Rung<'a> {
    /// `A`, `S`, `B`, `C` or `D`, see [`ladder_rungs`].
    pub label: &'static str,
    /// One decision per non-empty cell, in grid order (empty cells are dropped
    /// entirely: no storage, no work).
    pub decisions: Vec<BlockDecision>,
    /// The cells the decisions were made on; the whole share is borrowed, not cut.
    cells: Vec<Cow<'a, CsrMatrix>>,
}

impl Rung<'_> {
    /// Build the storage each decision names out of the cells already cut.
    pub fn materialize(&self) -> Result<Vec<CacheBlock>> {
        let pairs = self.decisions.iter().zip(&self.cells);
        pairs.map(|(d, cell)| d.materialize(cell)).collect()
    }
}

/// The planning half of the tuner: the structures the one pass proposes for a
/// thread share, fewest blocks first, **without materializing anything**. Each
/// rung restricts `config`, never widens it:
///
/// * `A` — one index-compressed CSR block at the narrowest admissible width:
///   the incumbent every other rung has to beat.
/// * `S` — one sliced-ELL block at the same width, four rows per SIMD pass: what
///   short rows want. Proposed only when the share would run SIMD, and no grid,
///   so only the clock can choose it.
/// * `B` — the footprint-minimal format ([`best_choice`]) with no grid.
/// * `C` — `B`'s rule on every cell of the cache-block grid.
/// * `D` — `C` refined by the TLB grid: the paper's full pipeline.
///
/// Identical rungs dedupe (a one-cell grid is `B`; with nothing to choose `B` is
/// `A`), and a cell two grids share is estimated once. The last rung other than
/// `S` is always the finest grid the config allows — the plan
/// `TunePlan::heuristic` keeps; `finest_only` skips the others. `TunePlan::new`
/// asks for no grid, so its ladder is `A`, `S`, `B`.
pub fn ladder_rungs<'a>(
    csr: &'a CsrMatrix,
    config: &TuningConfig,
    finest_only: bool,
) -> Vec<Rung<'a>> {
    let opts = config.candidate_options();
    let whole = (0..csr.nrows(), 0..csr.ncols());
    let csr_width = if config.allow_u16_indices && IndexWidth::U16.fits(csr.ncols()) {
        IndexWidth::U16
    } else {
        IndexWidth::U32
    };
    let mut grids = vec![("A", vec![whole.clone()]), ("B", vec![whole.clone()])];
    if opts.prefer_simd_shapes {
        // The same test `ThreadPlan::annotated` makes: the share will run SIMD.
        grids.insert(1, ("S", vec![whole.clone()]));
    }
    if let Some(cfg) = &config.cache_blocking {
        let blocking = cache_block(csr, cfg);
        grids.push(("C", blocking.blocks().collect()));
        if let Some(tlb_cfg) = &config.tlb_blocking {
            // The paper performs TLB blocking "between cache blocking rows and
            // cache blocking columns"; we intersect the TLB ranges with the
            // cache ranges, which yields the same bound on pages per block.
            let panels = blocking.row_panels.iter().zip(&blocking.col_ranges);
            let cells = panels.flat_map(|(rows, cols)| {
                let tlb = tlb_block(csr, rows, tlb_cfg);
                let refined = intersect_ranges(cols, &tlb.col_ranges).into_iter();
                refined.map(move |cols| (rows.clone(), cols))
            });
            grids.push(("D", cells.collect()));
        }
    }
    if finest_only {
        grids.drain(..grids.len() - 1);
    }
    let (mut rungs, mut choices) = (Vec::<Rung>::new(), HashMap::new());
    for (label, grid) in grids {
        let (mut decisions, mut cells) = (Vec::new(), Vec::new());
        for (rows, cols) in grid {
            let cell = if (&rows, &cols) == (&whole.0, &whole.1) {
                Cow::Borrowed(csr)
            } else {
                Cow::Owned(csr.sub_block(rows.clone(), cols.clone()))
            };
            if cell.nnz() == 0 {
                continue;
            }
            let choice = if label == "A" {
                FormatChoice::csr(csr, csr_width)
            } else if label == "S" {
                FormatChoice::sell(csr, csr_width)
            } else {
                let key = (rows.clone(), cols.clone());
                *choices
                    .entry(key)
                    .or_insert_with(|| best_choice(&cell, &opts))
            };
            decisions.push(BlockDecision {
                nnz: cell.nnz(),
                rows,
                cols,
                choice,
            });
            cells.push(cell);
        }
        if !rungs.iter().any(|r| r.decisions == decisions) {
            rungs.push(Rung {
                label,
                decisions,
                cells,
            });
        }
    }
    rungs
}

/// Plan one thread's **symmetric** slab: extract the strictly-lower triangle of
/// the thread's row slice (global rows `row_offset..row_offset + local.nrows()`,
/// global columns) and pick the smallest-footprint symmetric encoding
/// (`SymCsr`/`SymBcsr` × register shapes × index widths). The decision's `nnz`
/// counts the slice's *general-form* nonzeros, so per-thread planned nonzeros
/// still sum to the plan's total.
pub fn plan_symmetric_thread(
    local: &CsrMatrix,
    row_offset: usize,
    config: &TuningConfig,
) -> BlockDecision {
    // Columns are sorted per row, so a row's strictly-lower part is a prefix.
    let (row_ptr, col_idx, values) = (local.row_ptr(), local.col_idx(), local.values());
    let (mut lower_ptr, mut lower_cols, mut lower_vals) = (vec![0], Vec::new(), Vec::new());
    for i in 0..local.nrows() {
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        let end = lo + col_idx[lo..hi].partition_point(|&j| (j as usize) < row_offset + i);
        lower_cols.extend_from_slice(&col_idx[lo..end]);
        lower_vals.extend_from_slice(&values[lo..end]);
        lower_ptr.push(lower_cols.len());
    }
    let lower = CsrMatrix::from_raw(
        local.nrows(),
        local.ncols(),
        lower_ptr,
        lower_cols,
        lower_vals,
    )
    .expect("prefixes of sorted rows are sorted rows");
    let choice = crate::tuning::footprint::best_symmetric_choice(
        &lower,
        local.ncols(),
        &config.candidate_options(),
    );
    BlockDecision {
        rows: 0..local.nrows(),
        cols: 0..local.ncols(),
        choice,
        nnz: local.nnz(),
    }
}

/// The materialization half of the tuner: cut each decision's cell out of `csr`
/// and build the storage it names, one [`CacheBlock`] per decision, in decision
/// order. Fails (rather than panicking) when the decisions do not fit the
/// matrix, which can happen with a stale plan loaded from disk.
pub fn materialize_decisions(
    csr: &CsrMatrix,
    decisions: &[BlockDecision],
) -> Result<Vec<CacheBlock>> {
    let mut blocks = Vec::with_capacity(decisions.len());
    for d in decisions {
        if d.rows.start > d.rows.end
            || d.cols.start > d.cols.end
            || d.rows.end > csr.nrows()
            || d.cols.end > csr.ncols()
        {
            return Err(Error::InvalidStructure(format!(
                "plan block {:?}x{:?} does not fit the {}x{} matrix",
                d.rows,
                d.cols,
                csr.nrows(),
                csr.ncols()
            )));
        }
        let sub_csr = csr.sub_block(d.rows.clone(), d.cols.clone());
        if sub_csr.nnz() != d.nnz {
            return Err(Error::InvalidStructure(format!(
                "plan block {:?}x{:?} expects {} nonzeros, matrix has {}",
                d.rows,
                d.cols,
                d.nnz,
                sub_csr.nnz()
            )));
        }
        blocks.push(d.materialize(&sub_csr)?);
    }
    Ok(blocks)
}

/// Intersect two coverings of `0..ncols` into their common refinement.
fn intersect_ranges(a: &[Range<usize>], b: &[Range<usize>]) -> Vec<Range<usize>> {
    let mut cuts: Vec<usize> = Vec::new();
    for r in a.iter().chain(b.iter()) {
        cuts.push(r.start);
        cuts.push(r.end);
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .map(|w| w[0]..w[1])
        .filter(|r| r.start < r.end)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;
    use crate::formats::coo::CooMatrix;
    use crate::formats::traits::SpMv;
    use crate::tuning::footprint::csr_bytes;
    use crate::tuning::plan::TunePlan;
    use crate::tuning::prepared::PreparedMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_csr(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(nrows, ncols);
        for _ in 0..nnz {
            coo.push(
                rng.random_range(0..nrows),
                rng.random_range(0..ncols),
                rng.random_range(-1.0..1.0),
            );
        }
        CsrMatrix::from_coo(&coo)
    }

    fn fem_like(nblocks: usize) -> CsrMatrix {
        // Banded matrix of 4x4 dense blocks, FEM-style.
        let n = nblocks * 4;
        let mut coo = CooMatrix::new(n, n);
        for b in 0..nblocks {
            for nb in [b.wrapping_sub(1), b, b + 1] {
                if nb >= nblocks {
                    continue;
                }
                for i in 0..4 {
                    for j in 0..4 {
                        coo.push(b * 4 + i, nb * 4 + j, 1.0 + (i * j) as f64);
                    }
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// This module's deterministic plan at one thread, materialized.
    fn tune_serial(csr: &CsrMatrix, config: &TuningConfig) -> (TunePlan, PreparedMatrix) {
        let plan = TunePlan::heuristic(csr, 1, config);
        let prepared = PreparedMatrix::materialize(csr, &plan).expect("fresh plan materializes");
        (plan, prepared)
    }

    #[test]
    fn every_config_produces_correct_results() {
        let csr = random_csr(300, 250, 3000, 77);
        let x: Vec<f64> = (0..250).map(|i| (i as f64 * 0.11).cos()).collect();
        let reference = csr.spmv_alloc(&x);
        for config in [
            TuningConfig::naive(),
            TuningConfig::register_only(),
            TuningConfig::register_and_cache(),
            TuningConfig::full(),
        ] {
            let (_, tuned) = tune_serial(&csr, &config);
            let y = tuned.spmv_alloc(&x);
            assert!(
                max_abs_diff(&reference, &y) < 1e-9,
                "config {config:?} produced wrong result"
            );
            assert_eq!(tuned.nnz(), csr.nnz());
        }
    }

    #[test]
    fn fem_matrix_footprint_shrinks_with_register_blocking() {
        let csr = fem_like(200);
        let bytes = csr_bytes(&csr) as f64;
        let (_, naive) = tune_serial(&csr, &TuningConfig::naive());
        let (plan, rb) = tune_serial(&csr, &TuningConfig::register_only());
        assert!(rb.footprint_bytes() < naive.footprint_bytes());
        assert!(rb.footprint_bytes() as f64 / bytes < 0.85);
        // At least one block should have picked a non-1x1 shape.
        assert!(plan.threads[0]
            .decisions
            .iter()
            .any(|d| d.choice.r > 1 || d.choice.c > 1));
        // The full ladder (symmetric storage here) compresses further, and the
        // plan's predicted bytes are the bytes materialization produces.
        let (plan, full) = tune_serial(&csr, &TuningConfig::full());
        let ratio = full.footprint_bytes() as f64 / bytes;
        assert!(ratio > 0.3 && ratio <= 1.05, "ratio {ratio}");
        assert_eq!(plan.planned_bytes(), full.footprint_bytes());
    }

    #[test]
    fn tuned_never_larger_than_csr() {
        for seed in 0..5 {
            let csr = random_csr(200, 200, 1500, seed);
            let (_, tuned) = tune_serial(&csr, &TuningConfig::full());
            // The heuristic always has CSR as a candidate per block, and dropping
            // empty blocks can only help, so the tuned footprint is bounded by CSR's
            // plus per-block pointer overhead; allow a small slack for the extra
            // row-pointer arrays introduced by row-panel splitting.
            let slack = 1.10;
            let bytes = csr_bytes(&csr);
            assert!(
                (tuned.footprint_bytes() as f64) <= bytes as f64 * slack,
                "seed {seed}: tuned {} vs csr {bytes}",
                tuned.footprint_bytes(),
            );
        }
    }

    #[test]
    fn cache_blocking_splits_large_matrices() {
        let csr = random_csr(3000, 20_000, 30_000, 5);
        let cfg = TuningConfig {
            cache_blocking: Some(crate::blocking::cache::CacheBlockingConfig {
                total_lines: 64,
                source_fraction: 0.5,
            }),
            ..TuningConfig::full()
        };
        let (_, tuned) = tune_serial(&csr, &cfg);
        assert!(tuned.blocks()[0].num_cache_blocks() > 1);
        let x: Vec<f64> = (0..20_000).map(|i| (i % 17) as f64).collect();
        assert!(max_abs_diff(&csr.spmv_alloc(&x), &tuned.spmv_alloc(&x)) < 1e-9);
    }

    #[test]
    fn empty_matrix_tunes_to_nothing() {
        let csr = CsrMatrix::from_coo(&CooMatrix::new(100, 100));
        let (plan, tuned) = tune_serial(&csr, &TuningConfig::full());
        assert!(plan.threads[0].decisions.is_empty());
        assert_eq!(tuned.blocks()[0].num_cache_blocks(), 0);
        assert_eq!(tuned.spmv_alloc(&vec![1.0; 100]), vec![0.0; 100]);
    }

    #[test]
    fn intersect_ranges_is_common_refinement() {
        let a = vec![0..10, 10..20];
        let b = vec![0..5, 5..20];
        let r = intersect_ranges(&a, &b);
        assert_eq!(r, vec![0..5, 5..10, 10..20]);
    }

    #[test]
    fn decisions_cover_all_nonzeros() {
        let csr = random_csr(500, 500, 4000, 9);
        let (plan, _) = tune_serial(&csr, &TuningConfig::full());
        assert_eq!(plan.threads[0].planned_nnz(), csr.nnz());
    }
}
