//! OSKI-style register-blocking search, and the tuner's one timing helper.
//!
//! OSKI chooses its register blocking by combining a fill-ratio scan with an offline
//! performance profile (a benchmark of every block shape on a dense matrix stored in
//! sparse format). This module implements both pieces so the baseline crate and the
//! ablation benchmarks can compare OSKI's choice against the paper's one-pass heuristic.

use crate::blocking::blocked::BlockFormat;
use crate::blocking::register::{estimate_all_shapes, register_block_candidates};
use crate::formats::bcsr::BcsrMatrix;
use crate::formats::coo::CooMatrix;
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexWidth;
use crate::formats::traits::{MatrixShape, SpMv};
use crate::tuning::footprint::{FormatChoice, FormatKind};
use crate::tuning::heuristic::try_materialize;
use spmv_obs::timing::min_timing;
use std::time::Instant;

/// The result of a register-blocking search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Chosen block rows.
    pub r: usize,
    /// Chosen block columns.
    pub c: usize,
    /// The materialized BCSR matrix at the chosen shape and width.
    pub matrix: BlockFormat,
    /// Estimated (or measured) cost of every candidate, for reporting:
    /// `(r, c, cost)` where lower is better.
    pub candidates: Vec<(usize, usize, f64)>,
}

/// A performance profile: relative throughput of each block shape on a dense matrix,
/// as OSKI would measure offline per machine. Higher is faster.
#[derive(Debug, Clone)]
pub struct DenseProfile {
    entries: Vec<(usize, usize, f64)>,
}

impl DenseProfile {
    /// Dimensions below this produce timed regions in the tens of nanoseconds —
    /// pure timer noise — so [`DenseProfile::measure`] falls back to the synthetic
    /// profile instead of returning noise-driven throughput estimates.
    pub const MIN_MEASURE_DIM: usize = 64;

    /// Measure the profile on this host by timing each shape on a small dense matrix
    /// stored in sparse format (the OSKI offline benchmark, shrunk to run in
    /// milliseconds).
    ///
    /// Degenerate or too-small `dim` (< [`DenseProfile::MIN_MEASURE_DIM`]) falls
    /// back to [`DenseProfile::synthetic`], as does any measurement that yields a
    /// non-finite or non-positive throughput.
    pub fn measure(dim: usize) -> Self {
        if dim < Self::MIN_MEASURE_DIM {
            return Self::synthetic();
        }
        let mut coo = CooMatrix::new(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                coo.push(i, j, (i + j) as f64 * 1e-3);
            }
        }
        let csr = CsrMatrix::from_coo(&coo);
        let mut entries = Vec::new();
        for (r, c) in register_block_candidates() {
            let bcsr = BcsrMatrix::<u16>::from_csr(&csr, r, c).expect("small dims");
            // Warm up once, then take the fastest of three batches of five calls,
            // so one scheduler hiccup cannot skew the shape ranking.
            let secs = time_spmv(dim, dim, 3, 5, |x, y| bcsr.spmv(x, y));
            entries.push((r, c, (2 * csr.nnz()) as f64 / secs));
        }
        if entries.iter().any(|&(_, _, t)| !t.is_finite() || t <= 0.0) {
            return Self::synthetic();
        }
        DenseProfile { entries }
    }

    /// A synthetic profile that rewards larger blocks mildly (useful for
    /// deterministic tests and for modelling the 2007 targets where larger register
    /// blocks amortize index overhead and enable SIMD).
    pub fn synthetic() -> Self {
        let entries = register_block_candidates()
            .into_iter()
            .map(|(r, c)| {
                let tile = (r * c) as f64;
                // Diminishing returns past 2x2: mimic the shape of measured OSKI
                // profiles on the x86 targets.
                let speed = 1.0 + 0.35 * tile.ln_1p();
                (r, c, speed)
            })
            .collect();
        DenseProfile { entries }
    }

    /// Relative throughput for shape `(r, c)`.
    pub fn throughput(&self, r: usize, c: usize) -> f64 {
        self.entries
            .iter()
            .find(|&&(pr, pc, _)| pr == r && pc == c)
            .map(|&(_, _, t)| t)
            .unwrap_or(1.0)
    }

    /// The `(r, c, relative throughput)` entries of the profile.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }
}

/// Seconds per call of `spmv(x, y)` — the one timing helper every timed decision
/// in this crate uses (the per-share ladder and the pipeline choice of
/// [`crate::tuning::plan::TunePlan::new`], and [`DenseProfile::measure`]), so
/// all rank candidates on the same seeded `x` (uniform in [-1, 1)).
/// One untimed call faults the pages in, then the fastest of `runs` batches of
/// `reps` calls counts ([`min_timing`]: a preempted run cannot flip a decision).
pub fn time_spmv(
    nrows: usize,
    ncols: usize,
    runs: usize,
    reps: usize,
    mut spmv: impl FnMut(&[f64], &mut [f64]),
) -> f64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let x: Vec<f64> = (0..ncols)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect();
    let mut y = vec![0.0; nrows];
    spmv(&x, &mut y);
    let reps = reps.max(1);
    let secs = min_timing(runs, || {
        let t = Instant::now();
        for _ in 0..reps {
            spmv(&x, &mut y);
        }
        t.elapsed().as_secs_f64()
    });
    secs.max(1e-12) / reps as f64
}

/// OSKI's heuristic: pick the shape minimizing `fill_ratio / dense_throughput`,
/// i.e. the predicted time per logical nonzero (the first of equals wins), and
/// materialize it.
pub fn search_register_blocking(csr: &CsrMatrix, profile: &DenseProfile) -> SearchOutcome {
    let width = if IndexWidth::U16.fits(csr.ncols()) && IndexWidth::U16.fits(csr.nrows()) {
        IndexWidth::U16
    } else {
        IndexWidth::U32
    };
    let estimates = estimate_all_shapes(csr);
    let candidates: Vec<_> = estimates
        .iter()
        .map(|e| (e.r, e.c, e.fill_ratio / profile.throughput(e.r, e.c)))
        .collect();
    let best = (0..candidates.len()).min_by(|&a, &b| candidates[a].2.total_cmp(&candidates[b].2));
    let est = &estimates[best.expect("candidate list non-empty")];
    let choice = FormatChoice {
        kind: FormatKind::Bcsr,
        r: est.r,
        c: est.c,
        width,
        bytes: est.bcsr_bytes(csr.nrows(), width),
        fill_ratio: est.fill_ratio,
    };
    SearchOutcome {
        r: est.r,
        c: est.c,
        matrix: try_materialize(csr, &choice, 0).expect("supported shape"),
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;

    fn block_structured(nblocks: usize, bs: usize) -> CsrMatrix {
        let n = nblocks * bs;
        let mut coo = CooMatrix::new(n, n);
        for b in 0..nblocks {
            for i in 0..bs {
                for j in 0..bs {
                    coo.push(b * bs + i, b * bs + j, 1.0);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn synthetic_profile_prefers_large_blocks_on_blocked_matrix() {
        let csr = block_structured(64, 4);
        let outcome = search_register_blocking(&csr, &DenseProfile::synthetic());
        assert_eq!((outcome.r, outcome.c), (4, 4));
        assert_eq!(outcome.candidates.len(), 16);
    }

    #[test]
    fn scattered_matrix_keeps_small_blocks() {
        // A random scatter has fill ~r*c at every shape, so cost grows faster than
        // the synthetic profile's reward and 1x1 must win... unless fill stays low.
        let mut coo = CooMatrix::new(200, 200);
        let mut state = 12345u64;
        for _ in 0..800 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (state >> 33) as usize % 200;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = (state >> 33) as usize % 200;
            coo.push(r, c, 1.0);
        }
        let csr = CsrMatrix::from_coo(&coo);
        let outcome = search_register_blocking(&csr, &DenseProfile::synthetic());
        assert_eq!((outcome.r, outcome.c), (1, 1));
    }

    #[test]
    fn search_result_is_correct_spmv() {
        let csr = block_structured(32, 4);
        let outcome = search_register_blocking(&csr, &DenseProfile::synthetic());
        let x: Vec<f64> = (0..csr.ncols()).map(|i| i as f64).collect();
        assert!(max_abs_diff(&csr.spmv_alloc(&x), &outcome.matrix.spmv_alloc(&x)) < 1e-9);
    }

    #[test]
    fn measured_profile_has_all_shapes() {
        let profile = DenseProfile::measure(DenseProfile::MIN_MEASURE_DIM);
        for (r, c) in register_block_candidates() {
            assert!(profile.throughput(r, c) > 0.0);
        }
    }

    #[test]
    fn too_small_measure_dims_fall_back_to_synthetic() {
        // Degenerate and tiny dimensions would time nanosecond regions — pure
        // noise — so they must return the deterministic synthetic profile.
        let synthetic = DenseProfile::synthetic();
        for dim in [0, 1, 8, DenseProfile::MIN_MEASURE_DIM - 1] {
            let profile = DenseProfile::measure(dim);
            assert_eq!(profile.entries(), synthetic.entries(), "dim {dim}");
        }
    }

    #[test]
    fn synthetic_profile_monotone_in_tile_size() {
        let p = DenseProfile::synthetic();
        assert!(p.throughput(4, 4) > p.throughput(2, 2));
        assert!(p.throughput(2, 2) > p.throughput(1, 1));
    }
}
