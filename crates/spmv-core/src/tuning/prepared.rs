//! The execution half of the two-phase pipeline: materialized thread blocks.
//!
//! A [`PreparedBlock`] is one thread's [`crate::tuning::plan::ThreadPlan`] made
//! concrete: every cache block stored in the format the heuristic chose (BCSR
//! microkernel tiles, compressed-index CSR, BCOO, GCSR), with the streaming kernel
//! variant (including the prefetch annotation) bound **once** at materialization.
//! The steady-state [`PreparedBlock::execute`] does no per-call decision making —
//! it walks the block list and calls each block's monomorphized kernel.
//!
//! Materialize a block *on the thread that will run it* and first-touch placement
//! puts its pages on that thread's NUMA node; this is exactly what
//! `spmv_parallel::SpmvEngine` does. [`PreparedMatrix`] materializes a whole plan
//! on one thread — the serial reference whose output the parallel engine matches
//! bit for bit, because both execute the identical per-block kernels over the
//! identical disjoint row ranges.

use crate::blocking::blocked::{BlockFormat, CacheBlock};
use crate::error::{Error, Result};
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexWidth;
use crate::formats::symbcsr::SymBcsr;
use crate::formats::symcsr::SymCsr;
use crate::formats::traits::{check_dims, MatrixShape, SpMv};
use crate::kernels::simd::{detect, spmv_sym_bcsr_simd};
use crate::kernels::KernelVariant;
use crate::tuning::footprint::FormatKind;
use crate::tuning::plan::{ThreadPlan, TunePlan};
use std::ops::Range;

/// A materialized **symmetric** thread slab: diagonal + strictly-lower triangle
/// at the planned encoding, with the index width selected once.
///
/// Unlike the general cache blocks, a symmetric slab's kernel scatters into
/// `y[j]` for arbitrary global `j`, so it executes against a *full-length*
/// destination ([`PreparedBlock::execute_full`]); the serial and parallel
/// executors give it scratch destinations and combine them with the shared
/// deterministic tree fold ([`fold_rows`]).
#[derive(Debug, Clone)]
pub(crate) enum SymBlock {
    /// Pointwise symmetric CSR, 16-bit column indices.
    Csr16(SymCsr<u16>),
    /// Pointwise symmetric CSR, 32-bit column indices.
    Csr32(SymCsr<u32>),
    /// Register-blocked symmetric storage, 16-bit block-column indices.
    Bcsr16(SymBcsr<u16>),
    /// Register-blocked symmetric storage, 32-bit block-column indices.
    Bcsr32(SymBcsr<u32>),
}

impl SymBlock {
    /// Materialize the slab `local` (global rows starting at `row_offset`) at the
    /// encoding `choice` names.
    fn materialize(
        local: &CsrMatrix,
        row_offset: usize,
        choice: &crate::tuning::footprint::FormatChoice,
    ) -> Result<SymBlock> {
        Ok(match (choice.kind, choice.width) {
            (FormatKind::SymCsr, IndexWidth::U16) => {
                SymBlock::Csr16(SymCsr::from_slab_unchecked(local, row_offset)?)
            }
            (FormatKind::SymCsr, IndexWidth::U32) => {
                SymBlock::Csr32(SymCsr::from_slab_unchecked(local, row_offset)?)
            }
            (FormatKind::SymBcsr, IndexWidth::U16) => SymBlock::Bcsr16(
                SymBcsr::from_slab_unchecked(local, row_offset, choice.r, choice.c)?,
            ),
            (FormatKind::SymBcsr, IndexWidth::U32) => SymBlock::Bcsr32(
                SymBcsr::from_slab_unchecked(local, row_offset, choice.r, choice.c)?,
            ),
            (kind, _) => {
                return Err(Error::InvalidStructure(format!(
                    "{kind:?} is not a symmetric slab encoding"
                )))
            }
        })
    }

    /// `y ← y + A_slab·x` over full-length global vectors; with `simd`, a
    /// `SymBcsr` slab runs [`spmv_sym_bcsr_simd`] (the scalar kernel on
    /// uncovered shapes and hosts).
    pub fn spmv_full(&self, simd: bool, x: &[f64], y: &mut [f64]) {
        match self {
            SymBlock::Bcsr16(m) if simd => spmv_sym_bcsr_simd(m, x, y),
            SymBlock::Bcsr32(m) if simd => spmv_sym_bcsr_simd(m, x, y),
            SymBlock::Csr16(m) => m.spmv_full(x, y),
            SymBlock::Csr32(m) => m.spmv_full(x, y),
            SymBlock::Bcsr16(m) => m.spmv_full(x, y),
            SymBlock::Bcsr32(m) => m.spmv_full(x, y),
        }
    }

    /// Bytes of materialized slab data.
    pub fn footprint_bytes(&self) -> usize {
        match self {
            SymBlock::Csr16(m) => m.footprint_bytes(),
            SymBlock::Csr32(m) => m.footprint_bytes(),
            SymBlock::Bcsr16(m) => m.footprint_bytes(),
            SymBlock::Bcsr32(m) => m.footprint_bytes(),
        }
    }

    /// Stored entries (diagonal + lower values, including tile fill).
    pub fn stored_entries(&self) -> usize {
        match self {
            SymBlock::Csr16(m) => m.stored_entries(),
            SymBlock::Csr32(m) => m.stored_entries(),
            SymBlock::Bcsr16(m) => m.stored_entries(),
            SymBlock::Bcsr32(m) => m.stored_entries(),
        }
    }
}

/// One thread's fully materialized, kernel-bound share of the matrix.
#[derive(Debug, Clone)]
pub struct PreparedBlock {
    /// Global row range this block owns (its `y` slice).
    rows: Range<usize>,
    /// Column span of the full matrix (the `x` length the block expects).
    ncols: usize,
    /// Logical nonzeros stored in the block.
    nnz: usize,
    /// The CSR code variant bound for streaming-format cache blocks (carries the
    /// plan's prefetch distance and hint).
    stream_variant: KernelVariant,
    /// Execute streaming CSR, covered BCSR and covered `SymBcsr` blocks with
    /// the explicit SIMD microkernels ([`crate::kernels::simd`]); overrides
    /// `stream_variant` for CSR blocks when set.
    simd: bool,
    /// Materialized cache blocks, rows/cols local to the thread block.
    blocks: Vec<CacheBlock>,
    /// The symmetric slab, when the plan chose the lower-triangle pipeline
    /// (`blocks` is empty then).
    sym: Option<SymBlock>,
}

impl PreparedBlock {
    /// Materialize `plan` against `local`, the thread's row slice of the matrix
    /// (`local.nrows()` must equal the plan's row count). Call this on the worker
    /// thread so first-touch places the pages locally.
    pub fn materialize(local: &CsrMatrix, plan: &ThreadPlan) -> Result<PreparedBlock> {
        if local.nrows() != plan.rows.end - plan.rows.start {
            return Err(Error::DimensionMismatch {
                expected: plan.rows.end - plan.rows.start,
                found: local.nrows(),
                what: "thread block row count",
            });
        }
        // A symmetric thread plan is exactly one lower-triangle slab decision.
        if let Some(d) = plan.decisions.iter().find(|d| d.choice.kind.is_symmetric()) {
            if plan.decisions.len() != 1 {
                return Err(Error::InvalidStructure(
                    "symmetric thread plan must hold exactly one slab decision".to_string(),
                ));
            }
            if d.nnz != local.nnz() {
                return Err(Error::InvalidStructure(format!(
                    "symmetric slab expects {} nonzeros, thread slice has {}",
                    d.nnz,
                    local.nnz()
                )));
            }
            let sym = SymBlock::materialize(local, plan.rows.start, &d.choice)?;
            return Ok(PreparedBlock {
                rows: plan.rows.clone(),
                ncols: local.ncols(),
                nnz: local.nnz(),
                stream_variant: plan.stream_variant(),
                simd: plan.simd,
                blocks: Vec::new(),
                sym: Some(sym),
            });
        }
        let blocks = crate::tuning::heuristic::materialize_decisions(local, &plan.decisions)?;
        Ok(Self::from_blocks(plan, local.ncols(), blocks))
    }

    /// Bind a general `plan` to cache blocks already materialized from its
    /// decisions (the tuner's ladder builds them from the cells it planned on).
    pub(crate) fn from_blocks(plan: &ThreadPlan, ncols: usize, blocks: Vec<CacheBlock>) -> Self {
        PreparedBlock {
            rows: plan.rows.clone(),
            ncols,
            nnz: blocks.iter().map(|b| b.format.nnz()).sum(),
            stream_variant: plan.stream_variant(),
            simd: plan.simd,
            blocks,
            sym: None,
        }
    }

    /// Global row range this block writes (symmetric slabs additionally scatter
    /// transposed contributions below this range).
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Column span of the full matrix (the `x` length the block expects; equals
    /// the full dimension for symmetric slabs).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Logical nonzeros in the block.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Bytes of materialized matrix data.
    pub fn footprint_bytes(&self) -> usize {
        let sym = self.sym.as_ref().map_or(0, |s| s.footprint_bytes());
        sym + self
            .blocks
            .iter()
            .map(|b| b.format.footprint_bytes())
            .sum::<usize>()
    }

    /// Whether this block is a symmetric lower-triangle slab (its writes scatter
    /// beyond its own row range; execute it with [`PreparedBlock::execute_full`]).
    pub fn is_symmetric(&self) -> bool {
        self.sym.is_some()
    }

    /// The kernel variant bound for streaming cache blocks.
    pub fn stream_variant(&self) -> KernelVariant {
        self.stream_variant
    }

    /// Whether this block executes through the explicit SIMD microkernels.
    pub fn uses_simd(&self) -> bool {
        self.simd
    }

    /// Number of materialized cache blocks.
    pub fn num_cache_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Steady state: `y_block ← y_block + A_block · x`, where `y_block` is exactly
    /// this block's row range of the destination. No allocation, no per-element
    /// dispatch — one enum match per cache block, then monomorphized kernels.
    pub fn execute(&self, x: &[f64], y_block: &mut [f64]) {
        debug_assert!(
            self.sym.is_none(),
            "symmetric slabs execute against full-length destinations (execute_full)"
        );
        debug_assert_eq!(x.len(), self.ncols, "source vector length mismatch");
        debug_assert_eq!(
            y_block.len(),
            self.rows.end - self.rows.start,
            "destination block length mismatch"
        );
        for block in &self.blocks {
            let x_local = &x[block.cols.start..block.cols.end];
            let y_local = &mut y_block[block.rows.start..block.rows.end];
            match &block.format {
                // Streaming CSR blocks run the bound code variant (which is where
                // the prefetch annotation lives) — unless the plan bound the
                // SIMD row kernel, which subsumes the streaming variants.
                BlockFormat::Csr(m) if self.simd => m.execute_simd(x_local, y_local),
                BlockFormat::Csr(m) => m.execute(self.stream_variant, x_local, y_local),
                // Covered BCSR shapes and sliced ELL vectorize; BCOO/GCSR (and
                // uncovered shapes, inside the dispatch) stay scalar on both the
                // SpMV and SpMM paths, keeping the two paths' accumulation
                // aligned. A degraded thread runs sliced ELL's `mul_add` arm.
                BlockFormat::Bcsr(m) if self.simd => m.spmv_simd(x_local, y_local),
                BlockFormat::Sell(m) if self.simd => m.spmv_at(detect(), x_local, y_local),
                other => other.spmv_local(x_local, y_local),
            }
        }
    }

    /// `y_full ← y_full + A_block·x` against a **full-length** destination
    /// (`y_full.len()` = total matrix rows). For symmetric slabs this is the only
    /// execution form (their transposed writes scatter anywhere below the slab);
    /// general blocks write their own row range of `y_full`, so the call is
    /// equivalent to [`PreparedBlock::execute`] on the sliced destination.
    pub fn execute_full(&self, x: &[f64], y_full: &mut [f64]) {
        match &self.sym {
            Some(sym) => sym.spmv_full(self.simd, x, y_full),
            None => self.execute(x, &mut y_full[self.rows.start..self.rows.end]),
        }
    }

    /// Batched steady state: `Y_block ← Y_block + A_block · X` for a column-major
    /// block of `y.k()` vectors (column `j` of the source at `x[j*x_ld ..]`, the
    /// destination view exposing exactly this block's rows). Walks the same
    /// materialized cache blocks as [`PreparedBlock::execute`], reading each
    /// index once per `k` vectors; per vector the arithmetic is bit-identical to
    /// [`PreparedBlock::execute`], because a plan's streaming variants
    /// (single-loop / prefetch) share their accumulation order with the
    /// multi-vector kernels. No allocation, no per-element dispatch.
    pub fn spmm(&self, x: &[f64], x_ld: usize, y: &mut crate::multivec::MultiVecMut) {
        debug_assert!(
            self.sym.is_none(),
            "symmetric slabs batch through execute_full per column"
        );
        debug_assert_eq!(
            y.nrows(),
            self.rows.end - self.rows.start,
            "destination block row count mismatch"
        );
        debug_assert!(x_ld >= self.ncols, "source stride shorter than ncols");
        for block in &self.blocks {
            let x_local = &x[block.cols.start..];
            let mut y_local = y.sub_rows(block.rows.start, block.rows.end - block.rows.start);
            match &block.format {
                // Mirror `execute`'s SIMD routing exactly: the vector multivec
                // kernels are per-column bit-identical to the vector SpMV
                // kernels, preserving the spmm ≡ k × spmv invariant.
                BlockFormat::Csr(m) if self.simd => m.spmm_simd(x_local, x_ld, &mut y_local),
                BlockFormat::Bcsr(m) if self.simd => m.spmm_simd(x_local, x_ld, &mut y_local),
                BlockFormat::Sell(m) if self.simd => {
                    m.spmm_at(detect(), x_local, x_ld, &mut y_local)
                }
                other => other.spmm_local(x_local, x_ld, &mut y_local),
            }
        }
    }
}

/// Rows [`fold_rows`] folds per pass: one stack tile per tree level.
const FOLD_CHUNK: usize = 64;

/// `y ← y + Σₛ seg(s)` over `count` scratch segments, the one combine order
/// of the serial [`PreparedMatrix`] and the parallel `spmv_parallel::SpmvEngine`
/// (and of [`crate::solver::kernels::tree_sum`]'s scalars): stride 1, 2, 4, …;
/// segment `i` with `i % (2·stride) == 0` absorbs segment `i + stride`, and the
/// root is added into `y`. `seg(s)` covers exactly `y`'s rows, and an
/// element's additions do not depend on that range, so executors may fold
/// disjoint row shares independently and get the same bits.
pub fn fold_rows<'a>(count: usize, seg: impl Fn(usize) -> &'a [f64], y: &mut [f64]) {
    match count {
        0 => {}
        1 => y.iter_mut().zip(seg(0)).for_each(|(d, s)| *d += s),
        _ => {
            let mut root = [0.0; FOLD_CHUNK];
            for lo in (0..y.len()).step_by(FOLD_CHUNK) {
                let rows = lo..(lo + FOLD_CHUNK).min(y.len());
                let root = &mut root[..rows.len()];
                fold_subtree(
                    &seg,
                    count,
                    0,
                    count.next_power_of_two(),
                    rows.clone(),
                    root,
                );
                y[rows]
                    .iter_mut()
                    .zip(root.iter())
                    .for_each(|(d, s)| *d += s);
            }
        }
    }
}

/// `out ←` segments `i..i + span` (those below `count`) over `rows`, summed in
/// the tree order: the left half absorbs the right half. A pair of leaves is
/// added straight from the segments.
fn fold_subtree<'a>(
    seg: &impl Fn(usize) -> &'a [f64],
    count: usize,
    i: usize,
    span: usize,
    rows: Range<usize>,
    out: &mut [f64],
) {
    let half = span / 2;
    if span == 1 {
        out.copy_from_slice(&seg(i)[rows]);
    } else if i + half >= count {
        fold_subtree(seg, count, i, half, rows, out);
    } else if span == 2 {
        let (a, b) = (&seg(i)[rows.clone()], &seg(i + 1)[rows]);
        out.iter_mut()
            .zip(a.iter().zip(b))
            .for_each(|(o, (a, b))| *o = a + b);
    } else {
        fold_subtree(seg, count, i, half, rows.clone(), out);
        let mut right = [0.0; FOLD_CHUNK];
        let right = &mut right[..out.len()];
        fold_subtree(seg, count, i + half, half, rows, right);
        out.iter_mut().zip(right.iter()).for_each(|(o, r)| *o += r);
    }
}

/// A whole [`TunePlan`] materialized on one thread: the serial tuned reference.
///
/// Executes the thread blocks sequentially in partition order. Because every block
/// runs the identical kernels over identical disjoint row ranges, the result is
/// **bit-identical** to the parallel engine executing the same plan. Symmetric
/// plans execute each slab into a per-slab scratch vector and combine them with
/// [`fold_rows`] — the exact element-wise additions the engine's workers
/// perform on their row shares — so bit-identity holds there too, despite the
/// overlapping scatter writes symmetry creates.
#[derive(Debug, Clone)]
pub struct PreparedMatrix {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    symmetric: bool,
    blocks: Vec<PreparedBlock>,
}

impl PreparedMatrix {
    /// Materialize every thread block of `plan` against `csr`.
    pub fn materialize(csr: &CsrMatrix, plan: &TunePlan) -> Result<PreparedMatrix> {
        plan.validate_for(csr)?;
        let blocks = plan
            .threads
            .iter()
            .map(|t| PreparedBlock::materialize(&csr.row_slice(t.rows.start, t.rows.end), t))
            .collect::<Result<Vec<_>>>()?;
        Ok(PreparedMatrix {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            symmetric: plan.symmetric,
            blocks,
        })
    }

    /// Whether the plan stored only the lower triangle (symmetric pipeline).
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// The materialized thread blocks in partition order.
    pub fn blocks(&self) -> &[PreparedBlock] {
        &self.blocks
    }

    /// `y ← y + A·x`, the one serial apply behind [`SpMv::spmv`] and the
    /// solver references' `w ← A·p`, op for op what the engine's workers run.
    /// General blocks execute into their own row slices of `y`. Symmetric
    /// slabs each compute into a zeroed `nrows` segment of the caller-owned
    /// `scratch` (grown once to `blocks × nrows`), and [`fold_rows`] adds the
    /// segments into `y` in the deterministic tree order.
    pub(crate) fn apply(&self, x: &[f64], y: &mut [f64], scratch: &mut Vec<f64>) {
        if !self.symmetric {
            for block in &self.blocks {
                block.execute(x, &mut y[block.rows()]);
            }
            return;
        }
        let (len, count) = (self.nrows, self.blocks.len());
        scratch.clear();
        scratch.resize(count * len, 0.0);
        for (block, s) in self.blocks.iter().zip(scratch.chunks_mut(len.max(1))) {
            block.execute_full(x, s);
        }
        fold_rows(count, |s| &scratch[s * len..(s + 1) * len], y);
    }

    /// Symmetric batched apply, mirroring the engine's per-column loop and the
    /// same fold over the whole `nrows × k` scratch segments.
    fn spmm_symmetric(&self, x: &crate::multivec::MultiVec, y: &mut crate::multivec::MultiVec) {
        let count = self.blocks.len();
        let k = x.k();
        let len = self.nrows * k;
        let mut scratch = vec![0.0f64; count * len];
        for (block, s) in self.blocks.iter().zip(scratch.chunks_mut(len.max(1))) {
            for j in 0..k {
                block.execute_full(x.col(j), &mut s[j * self.nrows..(j + 1) * self.nrows]);
            }
        }
        fold_rows(count, |s| &scratch[s * len..(s + 1) * len], y.data_mut());
    }

    /// `Y ← Y + A·X` for a column-major block of `x.k()` vectors, executed
    /// serially over the thread blocks in partition order. This is the serial
    /// reference of the batched path: the parallel engine's
    /// `SpmvEngine::spmm` is bit-identical to it, and per vector it is
    /// bit-identical to [`PreparedMatrix::spmv`] on that vector alone.
    pub fn spmm(&self, x: &crate::multivec::MultiVec, y: &mut crate::multivec::MultiVec) {
        assert_eq!(x.ld(), self.ncols, "source block row count mismatch");
        assert_eq!(y.ld(), self.nrows, "destination block row count mismatch");
        assert_eq!(x.k(), y.k(), "source and destination vector counts differ");
        if self.symmetric {
            self.spmm_symmetric(x, y);
            return;
        }
        let x_ld = self.ncols;
        let mut view = y.view_mut();
        for block in &self.blocks {
            let rows = block.rows();
            let mut sub = view.sub_rows(rows.start, rows.end - rows.start);
            block.spmm(x.data(), x_ld, &mut sub);
        }
    }
}

impl MatrixShape for PreparedMatrix {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn stored_entries(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                b.sym.as_ref().map_or(0, |s| s.stored_entries())
                    + b.blocks
                        .iter()
                        .map(|c| c.format.stored_entries())
                        .sum::<usize>()
            })
            .sum()
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
    fn footprint_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.footprint_bytes()).sum()
    }
}

impl SpMv for PreparedMatrix {
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        check_dims(self.nrows, self.ncols, x, y);
        self.apply(x, y, &mut Vec::new());
    }
}

/// The tree order of [`fold_rows`] written as in-place rounds over `count`
/// contiguous segments of `len` elements, leaving the sum in the first — the
/// reference the fold and `tree_sum` are checked against.
#[cfg(test)]
pub(crate) fn reduce_tree(scratch: &mut [f64], len: usize, count: usize) {
    let mut stride = 1;
    while stride < count {
        let mut i = 0;
        while i + stride < count {
            let (head, tail) = scratch.split_at_mut((i + stride) * len);
            for (d, s) in head[i * len..(i + 1) * len].iter_mut().zip(&tail[..len]) {
                *d += s;
            }
            i += 2 * stride;
        }
        stride *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;
    use crate::formats::CooMatrix;
    use crate::tuning::heuristic::TuningConfig;
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

    #[test]
    fn prepared_matrix_matches_reference_for_every_config() {
        let csr = random_csr(300, 260, 4000, 11);
        let x: Vec<f64> = (0..260).map(|i| (i as f64 * 0.07).sin()).collect();
        let reference = csr.spmv_alloc(&x);
        for config in [
            TuningConfig::naive(),
            TuningConfig::register_only(),
            TuningConfig::register_and_cache(),
            TuningConfig::full(),
        ] {
            for threads in [1, 3] {
                let plan = TunePlan::new(&csr, threads, &config);
                let prepared = PreparedMatrix::materialize(&csr, &plan).unwrap();
                let y = prepared.spmv_alloc(&x);
                assert!(
                    max_abs_diff(&reference, &y) < 1e-9,
                    "config {config:?} at {threads} threads diverged"
                );
                assert_eq!(prepared.nnz(), csr.nnz());
                assert!(prepared.footprint_bytes() > 0);
            }
        }
    }

    #[test]
    fn plan_loaded_from_text_materializes_identically() {
        let csr = random_csr(200, 150, 2500, 12);
        let plan = TunePlan::new(&csr, 2, &TuningConfig::full());
        let reloaded = TunePlan::from_text(&plan.to_text()).unwrap();
        let a = PreparedMatrix::materialize(&csr, &plan).unwrap();
        let b = PreparedMatrix::materialize(&csr, &reloaded).unwrap();
        let x: Vec<f64> = (0..150).map(|i| i as f64 * 0.3 - 20.0).collect();
        // Same plan, same kernels: bit-identical output.
        assert_eq!(a.spmv_alloc(&x), b.spmv_alloc(&x));
        assert_eq!(a.footprint_bytes(), b.footprint_bytes());
    }

    #[test]
    fn materialize_rejects_mismatched_plan() {
        let csr = random_csr(100, 100, 1000, 14);
        let plan = TunePlan::new(&csr, 2, &TuningConfig::full());
        let other = random_csr(100, 100, 999, 15);
        assert!(PreparedMatrix::materialize(&other, &plan).is_err());

        // A corrupted decision (u16 width on a wide block) fails cleanly too.
        let wide = random_csr(4, 70_000, 40, 16);
        let mut bad = TunePlan::new(&wide, 1, &TuningConfig::naive());
        for d in &mut bad.threads[0].decisions {
            d.choice.width = crate::formats::index::IndexWidth::U16;
        }
        assert!(PreparedMatrix::materialize(&wide, &bad).is_err());
    }

    #[test]
    fn prepared_spmm_bit_identical_to_k_spmv_calls() {
        use crate::multivec::MultiVec;
        let csr = random_csr(210, 170, 2800, 21);
        for config in [
            TuningConfig::naive(),
            TuningConfig::register_only(),
            TuningConfig::full(),
        ] {
            let plan = TunePlan::new(&csr, 3, &config);
            let prepared = PreparedMatrix::materialize(&csr, &plan).unwrap();
            for k in [1, 2, 4, 5, 8] {
                let cols: Vec<Vec<f64>> = (0..k)
                    .map(|j| {
                        (0..170)
                            .map(|i| ((i * 7 + j) % 13) as f64 * 0.5 - 2.0)
                            .collect()
                    })
                    .collect();
                let views: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
                let x = MultiVec::from_columns(&views);
                let mut y = MultiVec::zeros(210, k);
                y.fill(0.125);
                prepared.spmm(&x, &mut y);
                for j in 0..k {
                    let mut expected = vec![0.125; 210];
                    prepared.spmv(x.col(j), &mut expected);
                    assert_eq!(y.col(j), &expected[..], "config {config:?} k={k} col {j}");
                }
            }
        }
    }

    #[test]
    fn fold_rows_is_the_in_place_tree_on_any_row_split() {
        // The fold must add exactly what the in-place rounds add, in their
        // order, whether one caller folds every row or each folds a share —
        // across chunk boundaries and counts that are not powers of two.
        let len = 150;
        for count in 0..=9usize {
            let scratch: Vec<f64> = (0..count * len)
                .map(|i| ((i * 37 % 101) as f64 * 0.77).tan())
                .collect();
            let seg = |s: usize| &scratch[s * len..(s + 1) * len];
            let mut expected = vec![0.5; len];
            if count > 0 {
                let mut rounds = scratch.clone();
                reduce_tree(&mut rounds, len, count);
                for (e, r) in expected.iter_mut().zip(&rounds[..len]) {
                    *e += r;
                }
            }
            let mut whole = vec![0.5; len];
            fold_rows(count, seg, &mut whole);
            assert_eq!(whole, expected, "count={count}");
            let mut split = vec![0.5; len];
            for rows in [0..3, 3..70, 70..70, 70..150] {
                fold_rows(count, |s| &seg(s)[rows.clone()], &mut split[rows.clone()]);
            }
            assert_eq!(split, expected, "count={count}, split rows");
        }
    }

    #[test]
    fn empty_matrix_prepares_and_executes() {
        let csr = CsrMatrix::from_coo(&CooMatrix::new(12, 12));
        let plan = TunePlan::new(&csr, 3, &TuningConfig::full());
        let prepared = PreparedMatrix::materialize(&csr, &plan).unwrap();
        let mut y = vec![5.0; 12];
        prepared.spmv(&[1.0; 12], &mut y);
        assert_eq!(y, vec![5.0; 12]);
        assert_eq!(prepared.footprint_bytes(), 0);
    }
}
