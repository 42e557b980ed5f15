//! Explicit SIMD microkernels (paper Section 4.3): AVX2+FMA on x86-64, NEON on
//! aarch64, with a guaranteed scalar fallback.
//!
//! The paper's final single-core rung SIMDizes the register-blocked inner
//! kernels. This module reproduces that as a *runtime* decision: [`detect`]
//! probes the host once (overridable via the `SPMV_SIMD` environment variable),
//! and every entry point falls back to the scalar kernel ladder when the
//! feature set or block shape is not covered. The vectorized shapes are the hot
//! ones: BCSR r×4 for r ∈ {1, 2, 4} (a tile row is exactly one 4-lane f64
//! vector), its lower-triangle twin `SymBcsr` r×4 (AVX2 only; NEON keeps the
//! scalar symmetric kernel) and a gather-free CSR row kernel whose *value*
//! stream is loaded with contiguous vector loads (only the source vector is
//! gathered).
//!
//! **Accumulation class.** FMA contracts multiply-add rounding, and the vector
//! kernels reassociate row sums, so SIMD output is *not* bit-identical to the
//! scalar ladder — plans that differ in the `simd` knob are different
//! accumulation classes (see `spmv-testutil::same_accumulation_class`).
//! Within the SIMD class, though, the same invariant the scalar kernels uphold
//! holds here, by one of two accumulation rules. The CSR and BCSR kernels keep one
//! 4-lane partial accumulator per output row across *all* tiles/nonzero groups of
//! that row and perform exactly one fixed-order horizontal sum at row end. The
//! sliced-ELL kernel gives each row one lane: a row's sum is a single in-order FMA
//! chain from `+0.0`, with no horizontal sum, which `f64::mul_add` reproduces bit
//! for bit — so its portable arm equals its vector arm on every host. Under either
//! rule the multivec (SpMM) kernels perform, per column, the identical operation
//! sequence — so `spmm` over `k` vectors stays bit-identical to `k` single-vector
//! SIMD calls, which the batching service relies on. The AVX2 BCSR multivec
//! kernel covers every row of a tile in one pass, `r × K` accumulators for a
//! chunk of `K` columns: 8-wide chunks at r = 1, 4-wide at r = 2 and r = 4, so
//! a batch of 8 reads an r×4 matrix once at r = 1 and twice at r = 2 and 4.
//!
//! The `SymBcsr` kernel applies each tile twice. Its direct half is the BCSR
//! rule, with `y[row] += diag·x[row] + hsum` at row end; its transposed half
//! loads a tile's 4-wide `y` window once, adds the tile's rows times their
//! broadcast `x[row]` by FMA in row order, and stores the window back.

use std::sync::OnceLock;

use crate::formats::bcsr::BcsrMatrix;
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexStorage;
use crate::formats::sell::{SellMatrix, SELL_CHUNK, SELL_WINDOW};
use crate::formats::symbcsr::SymBcsr;
use crate::formats::traits::MatrixShape;
use crate::kernels::multivec::{check_spmm_dims, for_each_k_chunk};
use crate::multivec::MultiVecMut;

/// The instruction set a kernel dispatch resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// No vector path: run the scalar kernel ladder.
    Scalar,
    /// x86-64 AVX2 + FMA (4 × f64 lanes, fused multiply-add).
    Avx2Fma,
    /// aarch64 NEON (2 × f64 lanes, paired to mirror the 4-wide layout).
    Neon,
}

impl SimdLevel {
    /// Short token naming the feature set, used in the tune-cache platform key.
    pub fn suffix(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2Fma => "avx2fma",
            SimdLevel::Neon => "neon",
        }
    }
}

/// Probe the host's vector features once. `SPMV_SIMD=0|off|scalar` forces the
/// scalar path (the CI leg that exercises the fallback arm sets this).
pub fn detect() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if let Ok(v) = std::env::var("SPMV_SIMD") {
            let v = v.to_ascii_lowercase();
            if v == "0" || v == "off" || v == "scalar" {
                return SimdLevel::Scalar;
            }
        }
        detect_uncached()
    })
}

fn detect_uncached() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx2Fma;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON with 2×f64 is baseline on aarch64.
        return SimdLevel::Neon;
    }
    #[allow(unreachable_code)]
    SimdLevel::Scalar
}

/// Whether a vector path is available on this host (after any env override).
pub fn available() -> bool {
    detect() != SimdLevel::Scalar
}

/// The platform feature token for this host: `avx2fma`, `neon`, or `scalar`.
pub fn feature_suffix() -> &'static str {
    detect().suffix()
}

/// The BCSR block shapes the vector kernels cover: a tile row must be exactly
/// one 4-lane vector (c = 4) and the row count one of the generated heights.
pub fn bcsr_simd_shape(r: usize, c: usize) -> bool {
    c == 4 && matches!(r, 1 | 2 | 4)
}

// ---------------------------------------------------------------------------
// Safe dispatch entry points. Each resolves the host level once and falls back
// to the scalar ladder for uncovered levels or shapes, so a `simd` plan built
// on one host still *runs* anywhere (the plan loader additionally degrades the
// knob on foreign hosts — see `TunePlan::from_text`).
// ---------------------------------------------------------------------------

/// `y ← y + A·x` for BCSR via the vector microkernels (scalar fallback).
pub fn spmv_bcsr_simd<I: IndexStorage>(a: &BcsrMatrix<I>, x: &[f64], y: &mut [f64]) {
    spmv_bcsr_simd_at(detect(), a, x, y);
}

/// `Y ← Y + A·X` for BCSR via the vector multivec microkernels.
pub fn spmm_bcsr_simd<I: IndexStorage>(
    a: &BcsrMatrix<I>,
    x: &[f64],
    x_ld: usize,
    y: &mut MultiVecMut,
) {
    spmm_bcsr_simd_at(detect(), a, x, x_ld, y);
}

/// `y ← y + A·x` for CSR via the gather-free vector row kernel.
pub fn spmv_csr_simd<I: IndexStorage>(a: &CsrMatrix<I>, x: &[f64], y: &mut [f64]) {
    spmv_csr_simd_at(detect(), a, x, y);
}

/// `Y ← Y + A·X` for CSR via the vector row kernel, one index load per group
/// shared by all `k` columns.
pub fn spmm_csr_simd<I: IndexStorage>(
    a: &CsrMatrix<I>,
    x: &[f64],
    x_ld: usize,
    y: &mut MultiVecMut,
) {
    spmm_csr_simd_at(detect(), a, x, x_ld, y);
}

/// `y ← y + A_slab·x` for a [`SymBcsr`] slab over full-length vectors: the
/// AVX2 body for covered shapes, the scalar symmetric kernel at every other
/// level or shape.
pub fn spmv_sym_bcsr_simd<I: IndexStorage>(a: &SymBcsr<I>, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.dim(), "source vector length mismatch");
    assert_eq!(y.len(), a.dim(), "destination vector length mismatch");
    match detect() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `detect` reports AVX2+FMA only after the runtime probe
        // found both (the `SPMV_SIMD` override can only turn them off), and
        // both vectors are `a.dim()` long, as asserted above.
        SimdLevel::Avx2Fma if bcsr_simd_shape(a.block_rows(), a.block_cols()) => unsafe {
            match a.block_rows() {
                1 => avx2::spmv_sym_bcsr_rx4::<1, I>(a, x, y),
                2 => avx2::spmv_sym_bcsr_rx4::<2, I>(a, x, y),
                _ => avx2::spmv_sym_bcsr_rx4::<4, I>(a, x, y),
            }
        },
        _ => crate::kernels::symmetric::spmv_sym_bcsr(a, x, y),
    }
}

/// Whether this host can run `level`'s vector bodies. The level-explicit entry
/// points are safe functions that take any level, so each vector arm checks
/// the hardware here and every other level runs the scalar arm.
fn runs_here(level: SimdLevel) -> bool {
    level != SimdLevel::Scalar && level == detect_uncached()
}

/// Level-explicit variant of [`spmv_bcsr_simd`], used by tests to exercise
/// both dispatch arms in one process regardless of the host.
pub fn spmv_bcsr_simd_at<I: IndexStorage>(
    level: SimdLevel,
    a: &BcsrMatrix<I>,
    x: &[f64],
    y: &mut [f64],
) {
    assert_eq!(x.len(), a.ncols(), "source vector length mismatch");
    assert_eq!(y.len(), a.nrows(), "destination vector length mismatch");
    let (r, c) = (a.block_rows(), a.block_cols());
    let vectorized = bcsr_simd_shape(r, c) && runs_here(level);
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma if vectorized => unsafe {
            match r {
                1 => avx2::spmv_bcsr_rx4::<1, I>(a, x, y),
                2 => avx2::spmv_bcsr_rx4::<2, I>(a, x, y),
                _ => avx2::spmv_bcsr_rx4::<4, I>(a, x, y),
            }
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon if vectorized => unsafe {
            match r {
                1 => neon::spmv_bcsr_rx4::<1, I>(a, x, y),
                2 => neon::spmv_bcsr_rx4::<2, I>(a, x, y),
                _ => neon::spmv_bcsr_rx4::<4, I>(a, x, y),
            }
        },
        _ => crate::kernels::blocked::spmv_bcsr(a, x, y),
    }
}

/// Level-explicit variant of [`spmm_bcsr_simd`]. Column chunking follows the
/// register budget: `r = 1` runs 8-wide chunks, `r = 2` 4-wide, and `r = 4`
/// 4-wide on AVX2 (16 accumulators, a few spilled: on an AVX2 Xeon that ran
/// faster than 2-wide chunks or two 2-row passes of 8) but 2-wide on NEON.
/// Chunking is invisible to results because each column's operation sequence
/// is fixed.
pub fn spmm_bcsr_simd_at<I: IndexStorage>(
    level: SimdLevel,
    a: &BcsrMatrix<I>,
    x: &[f64],
    x_ld: usize,
    y: &mut MultiVecMut,
) {
    let (r, c) = (a.block_rows(), a.block_cols());
    if !(bcsr_simd_shape(r, c) && runs_here(level)) {
        return crate::kernels::multivec::spmm_bcsr(a, x, x_ld, y);
    }
    crate::kernels::multivec::check_spmm_dims(a.nrows(), a.ncols(), x, x_ld, y);
    let k = y.k();
    let max_chunk = match (r, level) {
        (1, _) => 8,
        (4, SimdLevel::Neon) => 2,
        _ => 4,
    };
    let mut j0 = 0usize;
    while max_chunk >= 8 && k - j0 >= 8 {
        spmm_bcsr_chunk::<8, I>(level, a, &x[j0 * x_ld..], x_ld, y.cols_mut::<8>(j0));
        j0 += 8;
    }
    while max_chunk >= 4 && k - j0 >= 4 {
        spmm_bcsr_chunk::<4, I>(level, a, &x[j0 * x_ld..], x_ld, y.cols_mut::<4>(j0));
        j0 += 4;
    }
    while k - j0 >= 2 {
        spmm_bcsr_chunk::<2, I>(level, a, &x[j0 * x_ld..], x_ld, y.cols_mut::<2>(j0));
        j0 += 2;
    }
    while k - j0 >= 1 {
        spmm_bcsr_chunk::<1, I>(level, a, &x[j0 * x_ld..], x_ld, y.cols_mut::<1>(j0));
        j0 += 1;
    }
}

fn spmm_bcsr_chunk<const K: usize, I: IndexStorage>(
    level: SimdLevel,
    a: &BcsrMatrix<I>,
    x: &[f64],
    x_ld: usize,
    ys: [&mut [f64]; K],
) {
    let _ = level;
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2Fma {
        return unsafe {
            match a.block_rows() {
                1 => avx2::spmm_bcsr_rx4::<1, K, I>(a, x, x_ld, ys),
                2 => avx2::spmm_bcsr_rx4::<2, K, I>(a, x, x_ld, ys),
                _ => avx2::spmm_bcsr_rx4::<4, K, I>(a, x, x_ld, ys),
            }
        };
    }
    #[cfg(target_arch = "aarch64")]
    if level == SimdLevel::Neon {
        return unsafe {
            match a.block_rows() {
                1 => neon::spmm_bcsr_rx4::<1, K, I>(a, x, x_ld, ys),
                2 => neon::spmm_bcsr_rx4::<2, K, I>(a, x, x_ld, ys),
                _ => neon::spmm_bcsr_rx4::<4, K, I>(a, x, x_ld, ys),
            }
        };
    }
    unreachable!("vector chunk dispatched without a vector level");
}

/// Level-explicit variant of [`spmv_csr_simd`].
pub fn spmv_csr_simd_at<I: IndexStorage>(
    level: SimdLevel,
    a: &CsrMatrix<I>,
    x: &[f64],
    y: &mut [f64],
) {
    assert_eq!(x.len(), a.ncols(), "source vector length mismatch");
    assert_eq!(y.len(), a.nrows(), "destination vector length mismatch");
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma if runs_here(level) => unsafe { avx2::spmv_csr::<I>(a, x, y) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon if runs_here(level) => unsafe { neon::spmv_csr::<I>(a, x, y) },
        _ => crate::kernels::single_loop::spmv_single_loop(a, x, y),
    }
}

/// Level-explicit variant of [`spmm_csr_simd`].
pub fn spmm_csr_simd_at<I: IndexStorage>(
    level: SimdLevel,
    a: &CsrMatrix<I>,
    x: &[f64],
    x_ld: usize,
    y: &mut MultiVecMut,
) {
    if !runs_here(level) {
        return crate::kernels::multivec::spmm_csr(a, x, x_ld, y);
    }
    crate::kernels::multivec::check_spmm_dims(a.nrows(), a.ncols(), x, x_ld, y);
    let k = y.k();
    let mut j0 = 0usize;
    while k - j0 >= 4 {
        spmm_csr_chunk::<4, I>(level, a, &x[j0 * x_ld..], x_ld, y.cols_mut::<4>(j0));
        j0 += 4;
    }
    while k - j0 >= 2 {
        spmm_csr_chunk::<2, I>(level, a, &x[j0 * x_ld..], x_ld, y.cols_mut::<2>(j0));
        j0 += 2;
    }
    while k - j0 >= 1 {
        spmm_csr_chunk::<1, I>(level, a, &x[j0 * x_ld..], x_ld, y.cols_mut::<1>(j0));
        j0 += 1;
    }
}

fn spmm_csr_chunk<const K: usize, I: IndexStorage>(
    level: SimdLevel,
    a: &CsrMatrix<I>,
    x: &[f64],
    x_ld: usize,
    ys: [&mut [f64]; K],
) {
    let _ = level;
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2Fma {
        return unsafe { avx2::spmm_csr::<K, I>(a, x, x_ld, ys) };
    }
    #[cfg(target_arch = "aarch64")]
    if level == SimdLevel::Neon {
        return unsafe { neon::spmm_csr::<K, I>(a, x, x_ld, ys) };
    }
    unreachable!("vector chunk dispatched without a vector level");
}

/// `y ← y + A·x` for sliced ELL: the AVX2 body at [`SimdLevel::Avx2Fma`], the
/// `f64::mul_add` arm at every other level — bit-identical to each other.
pub fn spmv_sell_at<I: IndexStorage>(
    level: SimdLevel,
    a: &SellMatrix<I>,
    x: &[f64],
    y: &mut [f64],
) {
    assert_eq!(x.len(), a.ncols, "source vector length mismatch");
    assert_eq!(y.len(), a.nrows, "destination vector length mismatch");
    sell_cols::<1, I>(level, a, x, a.ncols, [y]);
}

/// `Y ← Y + A·X` for sliced ELL; per column the operation sequence of
/// [`spmv_sell_at`], at any level and any chunking of the `k` columns.
pub fn spmm_sell_at<I: IndexStorage>(
    level: SimdLevel,
    a: &SellMatrix<I>,
    x: &[f64],
    x_ld: usize,
    y: &mut MultiVecMut,
) {
    check_spmm_dims(a.nrows, a.ncols, x, x_ld, y);
    for_each_k_chunk!(
        y.k(),
        j0,
        sell_cols::<8, I>(level, a, &x[j0 * x_ld..], x_ld, y.cols_mut::<8>(j0)),
        sell_cols::<4, I>(level, a, &x[j0 * x_ld..], x_ld, y.cols_mut::<4>(j0)),
        sell_cols::<2, I>(level, a, &x[j0 * x_ld..], x_ld, y.cols_mut::<2>(j0)),
        sell_cols::<1, I>(level, a, &x[j0 * x_ld..], x_ld, y.cols_mut::<1>(j0))
    );
}

fn sell_cols<const K: usize, I: IndexStorage>(
    level: SimdLevel,
    a: &SellMatrix<I>,
    x: &[f64],
    x_ld: usize,
    mut ys: [&mut [f64]; K],
) {
    let xs: [&[f64]; K] = std::array::from_fn(|j| &x[j * x_ld..j * x_ld + a.ncols]);
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2Fma && runs_here(level) {
        // SAFETY: the host has AVX2 and FMA, probed on the line above.
        return unsafe { avx2::spmm_sell::<K, I>(a, xs, ys) };
    }
    let _ = level;
    for chunk in 0..a.chunk_ptr.len() - 1 {
        let from = a.chunk_ptr[chunk] as usize;
        sell_finish_chunk(a, chunk, from, &xs, [[0.0; SELL_CHUNK]; K], &mut ys);
    }
}

/// What is left of a chunk from step `from` on, where every lane's `acc` stands:
/// each lane continues its own in-order chain over its own row's entries only — a
/// padded entry is never read, so a NaN in `x` cannot reach a row that does not
/// reference it — then adds into its row of `y`.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // measured: the zipped form is 8 % slower
fn sell_finish_chunk<const K: usize, I: IndexStorage>(
    a: &SellMatrix<I>,
    chunk: usize,
    from: usize,
    xs: &[&[f64]; K],
    mut acc: [[f64; SELL_CHUNK]; K],
    ys: &mut [&mut [f64]; K],
) {
    let slot = chunk * SELL_CHUNK;
    let (lo, window) = (a.chunk_ptr[chunk] as usize, slot - slot % SELL_WINDOW);
    // Most chunks hold four rows of one length: nothing is left, no length is read.
    let ragged = from < a.chunk_ptr[chunk + 1] as usize;
    for lane in 0..SELL_CHUNK.min(a.nrows - slot) {
        let end = if ragged {
            lo + a.row_len[slot + lane] as usize
        } else {
            from
        };
        for step in from..end {
            let entry = step * SELL_CHUNK + lane;
            let (v, col) = (a.values[entry], a.col_idx[entry].to_usize());
            for j in 0..K {
                acc[j][lane] = v.mul_add(xs[j][col], acc[j][lane]);
            }
        }
        let row = window + a.perm[slot + lane] as usize;
        for j in 0..K {
            ys[j][row] += acc[j][lane];
        }
    }
}

/// Load the 4-wide window of `x` starting at `col_lo`, zero-padding lanes past
/// `x.len()`. The BCSR zero fill guarantees the matching tile lanes are zero,
/// so padded lanes contribute exact `+0.0` terms on every path.
#[inline(always)]
fn padded_window(x: &[f64], col_lo: usize) -> [f64; 4] {
    let mut w = [0.0f64; 4];
    let n = (x.len() - col_lo).min(4);
    w[..n].copy_from_slice(&x[col_lo..col_lo + n]);
    w
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA bodies. Every function is `#[target_feature]`-gated and only
    //! reached through the dispatch layer after a successful runtime probe.

    use std::arch::x86_64::*;

    use super::{padded_window, sell_finish_chunk};
    use crate::formats::bcsr::BcsrMatrix;
    use crate::formats::csr::CsrMatrix;
    use crate::formats::index::IndexStorage;
    use crate::formats::sell::{SellMatrix, SELL_CHUNK};
    use crate::formats::symbcsr::SymBcsr;
    use crate::formats::traits::MatrixShape;

    /// Lane = row: one FMA per step advances four rows' chains, as far as the
    /// chunk's shortest row (lane 3) reaches — up to there no entry is padding.
    /// [`sell_finish_chunk`] takes the longer rows on from the stored lanes.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn spmm_sell<const K: usize, I: IndexStorage>(
        a: &SellMatrix<I>,
        xs: [&[f64]; K],
        mut ys: [&mut [f64]; K],
    ) {
        for chunk in 0..a.chunk_ptr.len() - 1 {
            let lo = a.chunk_ptr[chunk] as usize;
            let full = lo + a.row_len[chunk * SELL_CHUNK + 3] as usize;
            let span = lo * SELL_CHUNK..full * SELL_CHUNK;
            let mut vacc = [_mm256_setzero_pd(); K];
            for (v, c) in a.values[span.clone()]
                .chunks_exact(SELL_CHUNK)
                .zip(a.col_idx[span].chunks_exact(SELL_CHUNK))
            {
                let vv = _mm256_loadu_pd(v.as_ptr());
                let (c0, c1, c2, c3) = (
                    c[0].to_usize(),
                    c[1].to_usize(),
                    c[2].to_usize(),
                    c[3].to_usize(),
                );
                for (acc, xj) in vacc.iter_mut().zip(&xs) {
                    let xg = _mm256_set_pd(xj[c3], xj[c2], xj[c1], xj[c0]);
                    *acc = _mm256_fmadd_pd(vv, xg, *acc);
                }
            }
            let mut acc = [[0.0f64; SELL_CHUNK]; K];
            for (lanes, v) in acc.iter_mut().zip(vacc) {
                _mm256_storeu_pd(lanes.as_mut_ptr(), v);
            }
            sell_finish_chunk(a, chunk, full, &xs, acc, &mut ys);
        }
    }

    /// The one horizontal reduction: lane order is fixed so every kernel (and
    /// the NEON mirror) produces the same scalar for the same lane contents.
    #[inline(always)]
    unsafe fn hsum4(v: __m256d) -> f64 {
        let mut t = [0.0f64; 4];
        _mm256_storeu_pd(t.as_mut_ptr(), v);
        (t[0] + t[1]) + (t[2] + t[3])
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn spmv_bcsr_rx4<const R: usize, I: IndexStorage>(
        a: &BcsrMatrix<I>,
        x: &[f64],
        y: &mut [f64],
    ) {
        let nrows = a.nrows();
        let ncols = a.ncols();
        let block_row_ptr = a.block_row_ptr();
        let block_col_idx = a.block_col_idx();
        let tiles = a.tile_values();
        let nblock_rows = block_row_ptr.len() - 1;

        for brow in 0..nblock_rows {
            let row_lo = brow * R;
            let lo = block_row_ptr[brow] as usize;
            let hi = block_row_ptr[brow + 1] as usize;
            // One 4-lane partial accumulator per output row, live across every
            // tile of the block row.
            let mut vacc = [_mm256_setzero_pd(); R];

            for (tile, bc) in tiles[lo * R * 4..hi * R * 4]
                .chunks_exact(R * 4)
                .zip(&block_col_idx[lo..hi])
            {
                let col_lo = bc.to_usize() * 4;
                let xv = if col_lo + 4 <= ncols {
                    _mm256_loadu_pd(x.as_ptr().add(col_lo))
                } else {
                    // Ragged right edge: pad x; the tile's own zero fill makes
                    // the padded lanes exact zeros.
                    _mm256_loadu_pd(padded_window(x, col_lo).as_ptr())
                };
                for (i, acc) in vacc.iter_mut().enumerate() {
                    let tv = _mm256_loadu_pd(tile.as_ptr().add(i * 4));
                    *acc = _mm256_fmadd_pd(tv, xv, *acc);
                }
            }

            let rows_here = R.min(nrows - row_lo);
            for i in 0..rows_here {
                y[row_lo + i] += hsum4(vacc[i]);
            }
        }
    }

    /// Per column the operation sequence (tile-order FMAs into one 4-lane
    /// accumulator, one `hsum4` at row end) equals [`spmv_bcsr_rx4`] exactly,
    /// so SpMM stays bit-identical to `k` SpMV calls.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn spmm_bcsr_rx4<const R: usize, const K: usize, I: IndexStorage>(
        a: &BcsrMatrix<I>,
        x: &[f64],
        x_ld: usize,
        ys: [&mut [f64]; K],
    ) {
        let nrows = a.nrows();
        let ncols = a.ncols();
        let block_row_ptr = a.block_row_ptr();
        let block_col_idx = a.block_col_idx();
        let tiles = a.tile_values();
        let nblock_rows = block_row_ptr.len() - 1;
        // One bounds-checked slice per column, hoisted out of the sweep: at
        // r = 4, K = 4 the 16 accumulators leave no registers to spare.
        let xs: [&[f64]; K] = std::array::from_fn(|j| &x[j * x_ld..j * x_ld + ncols]);

        for brow in 0..nblock_rows {
            let row_lo = brow * R;
            let lo = block_row_ptr[brow] as usize;
            let hi = block_row_ptr[brow + 1] as usize;
            let mut vacc = [[_mm256_setzero_pd(); K]; R];

            for (tile, bc) in tiles[lo * R * 4..hi * R * 4]
                .chunks_exact(R * 4)
                .zip(&block_col_idx[lo..hi])
            {
                let col_lo = bc.to_usize() * 4;
                let interior = col_lo + 4 <= ncols;
                // Column-outer, so one x window is live at a time and the
                // tile row can be an FMA memory operand: 4–6 % faster at
                // K ≥ 4 than loading all K windows first (AVX2 Xeon).
                for (j, xj) in xs.iter().enumerate() {
                    let xv = if interior {
                        _mm256_loadu_pd(xj.as_ptr().add(col_lo))
                    } else {
                        _mm256_loadu_pd(padded_window(xj, col_lo).as_ptr())
                    };
                    for (i, accs) in vacc.iter_mut().enumerate() {
                        let tv = _mm256_loadu_pd(tile.as_ptr().add(i * 4));
                        accs[j] = _mm256_fmadd_pd(tv, xv, accs[j]);
                    }
                }
            }

            let rows_here = R.min(nrows - row_lo);
            for i in 0..rows_here {
                for j in 0..K {
                    ys[j][row_lo + i] += hsum4(vacc[i][j]);
                }
            }
        }
    }

    /// The symmetric r×4 body (the module docs give its order). Full block
    /// rows run [`sym_block_row`] with a constant `R`, so its row loops unroll.
    ///
    /// # Safety
    ///
    /// The host has AVX2 and FMA, and `x` and `y` are `a.dim()` long.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn spmv_sym_bcsr_rx4<const R: usize, I: IndexStorage>(
        a: &SymBcsr<I>,
        x: &[f64],
        y: &mut [f64],
    ) {
        for brow in 0..a.block_row_ptr().len() - 1 {
            match a.local_rows() - brow * R {
                rest if rest >= R => sym_block_row::<R, I>(a, brow, R, x, y),
                rest => sym_block_row::<R, I>(a, brow, rest, x, y),
            }
        }
    }

    /// Block row `brow`'s first `rows` (≤ `R`) rows. The ragged right edge
    /// pads both windows and stores only the lanes inside `y`; a ragged
    /// bottom's missing rows are zero fill: their direct sums are dropped and
    /// no `x` past the slab is read. Safety: as [`spmv_sym_bcsr_rx4`].
    #[inline(always)]
    unsafe fn sym_block_row<const R: usize, I: IndexStorage>(
        a: &SymBcsr<I>,
        brow: usize,
        rows: usize,
        x: &[f64],
        y: &mut [f64],
    ) {
        let (n, ptr) = (a.dim(), a.block_row_ptr());
        let (row_lo, lo, hi) = (brow * R, ptr[brow] as usize, ptr[brow + 1] as usize);
        let grow = a.row_offset() + row_lo;
        let mut xb = [_mm256_setzero_pd(); R];
        for (i, b) in xb.iter_mut().enumerate().take(rows) {
            *b = _mm256_set1_pd(x[grow + i]);
        }
        let mut vacc = [_mm256_setzero_pd(); R];
        for (tile, bc) in a.tile_values()[lo * R * 4..hi * R * 4]
            .chunks_exact(R * 4)
            .zip(&a.block_col_idx()[lo..hi])
        {
            let col_lo = bc.to_usize() * 4;
            let interior = col_lo + 4 <= n;
            // SAFETY (both interior accesses): `col_lo + 4 <= n`, the length
            // of `x` and `y`.
            let (xv, mut yv) = if interior {
                let (xp, yp) = (x.as_ptr().add(col_lo), y.as_ptr().add(col_lo));
                (_mm256_loadu_pd(xp), _mm256_loadu_pd(yp))
            } else {
                let (xw, yw) = (padded_window(x, col_lo), padded_window(y, col_lo));
                (_mm256_loadu_pd(xw.as_ptr()), _mm256_loadu_pd(yw.as_ptr()))
            };
            for (i, acc) in vacc.iter_mut().enumerate() {
                let tv = _mm256_loadu_pd(tile.as_ptr().add(i * 4));
                *acc = _mm256_fmadd_pd(tv, xv, *acc);
                if i < rows {
                    yv = _mm256_fmadd_pd(tv, xb[i], yv);
                }
            }
            if interior {
                _mm256_storeu_pd(y.as_mut_ptr().add(col_lo), yv);
            } else {
                let mut w = [0.0f64; 4];
                _mm256_storeu_pd(w.as_mut_ptr(), yv);
                y[col_lo..].copy_from_slice(&w[..n - col_lo]);
            }
        }
        for (i, &acc) in vacc.iter().enumerate().take(rows) {
            y[grow + i] += a.diag()[row_lo + i] * x[grow + i] + hsum4(acc);
        }
    }

    /// Gather-free on the value/index streams: nonzeros are consumed in groups
    /// of 4 with one contiguous value load; only `x` is assembled lane-wise.
    /// The remainder group is zero-padded (0·0 terms), keeping the per-row
    /// sequence independent of how `nnz` splits into groups.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn spmv_csr<I: IndexStorage>(a: &CsrMatrix<I>, x: &[f64], y: &mut [f64]) {
        let row_ptr = a.row_ptr();
        let col_idx = a.col_idx();
        let values = a.values();
        for row in 0..a.nrows() {
            let lo = row_ptr[row];
            let hi = row_ptr[row + 1];
            let mut vacc = _mm256_setzero_pd();
            let mut p = lo;
            while p + 4 <= hi {
                let vv = _mm256_loadu_pd(values.as_ptr().add(p));
                let xg = _mm256_set_pd(
                    x[col_idx[p + 3].to_usize()],
                    x[col_idx[p + 2].to_usize()],
                    x[col_idx[p + 1].to_usize()],
                    x[col_idx[p].to_usize()],
                );
                vacc = _mm256_fmadd_pd(vv, xg, vacc);
                p += 4;
            }
            if p < hi {
                let mut vbuf = [0.0f64; 4];
                let mut xbuf = [0.0f64; 4];
                for (t, q) in (p..hi).enumerate() {
                    vbuf[t] = values[q];
                    xbuf[t] = x[col_idx[q].to_usize()];
                }
                vacc = _mm256_fmadd_pd(
                    _mm256_loadu_pd(vbuf.as_ptr()),
                    _mm256_loadu_pd(xbuf.as_ptr()),
                    vacc,
                );
            }
            y[row] += hsum4(vacc);
        }
    }

    /// Per column identical to [`spmv_csr`]; the group's value vector is loaded
    /// once and reused for all `K` columns.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn spmm_csr<const K: usize, I: IndexStorage>(
        a: &CsrMatrix<I>,
        x: &[f64],
        x_ld: usize,
        ys: [&mut [f64]; K],
    ) {
        let row_ptr = a.row_ptr();
        let col_idx = a.col_idx();
        let values = a.values();
        let ncols = a.ncols();
        let xcols: [&[f64]; K] = std::array::from_fn(|j| &x[j * x_ld..j * x_ld + ncols]);
        for row in 0..a.nrows() {
            let lo = row_ptr[row];
            let hi = row_ptr[row + 1];
            let mut vacc = [_mm256_setzero_pd(); K];
            let mut p = lo;
            while p + 4 <= hi {
                let vv = _mm256_loadu_pd(values.as_ptr().add(p));
                let (c0, c1, c2, c3) = (
                    col_idx[p].to_usize(),
                    col_idx[p + 1].to_usize(),
                    col_idx[p + 2].to_usize(),
                    col_idx[p + 3].to_usize(),
                );
                for j in 0..K {
                    let xj = xcols[j];
                    let xg = _mm256_set_pd(xj[c3], xj[c2], xj[c1], xj[c0]);
                    vacc[j] = _mm256_fmadd_pd(vv, xg, vacc[j]);
                }
                p += 4;
            }
            if p < hi {
                let mut vbuf = [0.0f64; 4];
                for (t, q) in (p..hi).enumerate() {
                    vbuf[t] = values[q];
                }
                let vv = _mm256_loadu_pd(vbuf.as_ptr());
                for j in 0..K {
                    let mut xbuf = [0.0f64; 4];
                    for (t, q) in (p..hi).enumerate() {
                        xbuf[t] = xcols[j][col_idx[q].to_usize()];
                    }
                    vacc[j] = _mm256_fmadd_pd(vv, _mm256_loadu_pd(xbuf.as_ptr()), vacc[j]);
                }
            }
            for j in 0..K {
                ys[j][row] += hsum4(vacc[j]);
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON bodies: each 4-wide AVX2 vector becomes a pair of `float64x2_t`
    //! with identical lane layout, and `hsum4` reduces in the same fixed
    //! scalar order, so the per-row invariants match the AVX2 module exactly.

    use std::arch::aarch64::*;

    use super::padded_window;
    use crate::formats::bcsr::BcsrMatrix;
    use crate::formats::csr::CsrMatrix;
    use crate::formats::index::IndexStorage;
    use crate::formats::traits::MatrixShape;

    #[derive(Clone, Copy)]
    struct V4 {
        lo: float64x2_t,
        hi: float64x2_t,
    }

    #[inline(always)]
    unsafe fn v4_zero() -> V4 {
        V4 {
            lo: vdupq_n_f64(0.0),
            hi: vdupq_n_f64(0.0),
        }
    }

    #[inline(always)]
    unsafe fn v4_load(p: *const f64) -> V4 {
        V4 {
            lo: vld1q_f64(p),
            hi: vld1q_f64(p.add(2)),
        }
    }

    #[inline(always)]
    unsafe fn v4_fma(acc: V4, a: V4, b: V4) -> V4 {
        V4 {
            lo: vfmaq_f64(acc.lo, a.lo, b.lo),
            hi: vfmaq_f64(acc.hi, a.hi, b.hi),
        }
    }

    #[inline(always)]
    unsafe fn hsum4(v: V4) -> f64 {
        let mut t = [0.0f64; 4];
        vst1q_f64(t.as_mut_ptr(), v.lo);
        vst1q_f64(t.as_mut_ptr().add(2), v.hi);
        (t[0] + t[1]) + (t[2] + t[3])
    }

    pub(super) unsafe fn spmv_bcsr_rx4<const R: usize, I: IndexStorage>(
        a: &BcsrMatrix<I>,
        x: &[f64],
        y: &mut [f64],
    ) {
        let nrows = a.nrows();
        let ncols = a.ncols();
        let block_row_ptr = a.block_row_ptr();
        let block_col_idx = a.block_col_idx();
        let tiles = a.tile_values();
        let nblock_rows = block_row_ptr.len() - 1;

        for brow in 0..nblock_rows {
            let row_lo = brow * R;
            let lo = block_row_ptr[brow] as usize;
            let hi = block_row_ptr[brow + 1] as usize;
            let mut vacc = [v4_zero(); R];

            for (tile, bc) in tiles[lo * R * 4..hi * R * 4]
                .chunks_exact(R * 4)
                .zip(&block_col_idx[lo..hi])
            {
                let col_lo = bc.to_usize() * 4;
                let xv = if col_lo + 4 <= ncols {
                    v4_load(x.as_ptr().add(col_lo))
                } else {
                    v4_load(padded_window(x, col_lo).as_ptr())
                };
                for (i, acc) in vacc.iter_mut().enumerate() {
                    let tv = v4_load(tile.as_ptr().add(i * 4));
                    *acc = v4_fma(*acc, tv, xv);
                }
            }

            let rows_here = R.min(nrows - row_lo);
            for i in 0..rows_here {
                y[row_lo + i] += hsum4(vacc[i]);
            }
        }
    }

    pub(super) unsafe fn spmm_bcsr_rx4<const R: usize, const K: usize, I: IndexStorage>(
        a: &BcsrMatrix<I>,
        x: &[f64],
        x_ld: usize,
        ys: [&mut [f64]; K],
    ) {
        let nrows = a.nrows();
        let ncols = a.ncols();
        let block_row_ptr = a.block_row_ptr();
        let block_col_idx = a.block_col_idx();
        let tiles = a.tile_values();
        let nblock_rows = block_row_ptr.len() - 1;

        for brow in 0..nblock_rows {
            let row_lo = brow * R;
            let lo = block_row_ptr[brow] as usize;
            let hi = block_row_ptr[brow + 1] as usize;
            let mut vacc = [[v4_zero(); K]; R];

            for (tile, bc) in tiles[lo * R * 4..hi * R * 4]
                .chunks_exact(R * 4)
                .zip(&block_col_idx[lo..hi])
            {
                let col_lo = bc.to_usize() * 4;
                let interior = col_lo + 4 <= ncols;
                let xv: [V4; K] = std::array::from_fn(|j| {
                    let xj = &x[j * x_ld..];
                    if interior {
                        v4_load(xj.as_ptr().add(col_lo))
                    } else {
                        v4_load(padded_window(&xj[..ncols], col_lo).as_ptr())
                    }
                });
                for (i, accs) in vacc.iter_mut().enumerate() {
                    let tv = v4_load(tile.as_ptr().add(i * 4));
                    for (acc, &xvj) in accs.iter_mut().zip(&xv) {
                        *acc = v4_fma(*acc, tv, xvj);
                    }
                }
            }

            let rows_here = R.min(nrows - row_lo);
            for i in 0..rows_here {
                for j in 0..K {
                    ys[j][row_lo + i] += hsum4(vacc[i][j]);
                }
            }
        }
    }

    pub(super) unsafe fn spmv_csr<I: IndexStorage>(a: &CsrMatrix<I>, x: &[f64], y: &mut [f64]) {
        let row_ptr = a.row_ptr();
        let col_idx = a.col_idx();
        let values = a.values();
        for row in 0..a.nrows() {
            let lo = row_ptr[row];
            let hi = row_ptr[row + 1];
            let mut vacc = v4_zero();
            let mut p = lo;
            while p + 4 <= hi {
                let vv = v4_load(values.as_ptr().add(p));
                let xbuf = [
                    x[col_idx[p].to_usize()],
                    x[col_idx[p + 1].to_usize()],
                    x[col_idx[p + 2].to_usize()],
                    x[col_idx[p + 3].to_usize()],
                ];
                vacc = v4_fma(vacc, vv, v4_load(xbuf.as_ptr()));
                p += 4;
            }
            if p < hi {
                let mut vbuf = [0.0f64; 4];
                let mut xbuf = [0.0f64; 4];
                for (t, q) in (p..hi).enumerate() {
                    vbuf[t] = values[q];
                    xbuf[t] = x[col_idx[q].to_usize()];
                }
                vacc = v4_fma(vacc, v4_load(vbuf.as_ptr()), v4_load(xbuf.as_ptr()));
            }
            y[row] += hsum4(vacc);
        }
    }

    pub(super) unsafe fn spmm_csr<const K: usize, I: IndexStorage>(
        a: &CsrMatrix<I>,
        x: &[f64],
        x_ld: usize,
        ys: [&mut [f64]; K],
    ) {
        let row_ptr = a.row_ptr();
        let col_idx = a.col_idx();
        let values = a.values();
        let ncols = a.ncols();
        let xcols: [&[f64]; K] = std::array::from_fn(|j| &x[j * x_ld..j * x_ld + ncols]);
        for row in 0..a.nrows() {
            let lo = row_ptr[row];
            let hi = row_ptr[row + 1];
            let mut vacc = [v4_zero(); K];
            let mut p = lo;
            while p + 4 <= hi {
                let vv = v4_load(values.as_ptr().add(p));
                let (c0, c1, c2, c3) = (
                    col_idx[p].to_usize(),
                    col_idx[p + 1].to_usize(),
                    col_idx[p + 2].to_usize(),
                    col_idx[p + 3].to_usize(),
                );
                for j in 0..K {
                    let xj = xcols[j];
                    let xbuf = [xj[c0], xj[c1], xj[c2], xj[c3]];
                    vacc[j] = v4_fma(vacc[j], vv, v4_load(xbuf.as_ptr()));
                }
                p += 4;
            }
            if p < hi {
                let mut vbuf = [0.0f64; 4];
                for (t, q) in (p..hi).enumerate() {
                    vbuf[t] = values[q];
                }
                let vv = v4_load(vbuf.as_ptr());
                for j in 0..K {
                    let mut xbuf = [0.0f64; 4];
                    for (t, q) in (p..hi).enumerate() {
                        xbuf[t] = xcols[j][col_idx[q].to_usize()];
                    }
                    vacc[j] = v4_fma(vacc[j], vv, v4_load(xbuf.as_ptr()));
                }
            }
            for j in 0..K {
                ys[j][row] += hsum4(vacc[j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;
    use crate::formats::traits::SpMv;
    use crate::formats::CsrMatrix;
    use crate::kernels::testing::{random_coo, test_x};
    use crate::multivec::MultiVec;

    #[test]
    fn detection_is_stable_and_named() {
        let level = detect();
        assert_eq!(level, detect());
        assert_eq!(feature_suffix(), level.suffix());
        assert_eq!(available(), level != SimdLevel::Scalar);
        assert!(["scalar", "avx2fma", "neon"].contains(&feature_suffix()));
    }

    #[test]
    fn bcsr_simd_matches_reference_on_all_covered_shapes() {
        let coo = random_coo(53, 47, 700, 71);
        let csr = CsrMatrix::from_coo(&coo);
        let x = test_x(47);
        let reference = csr.spmv_alloc(&x);
        for r in [1usize, 2, 4] {
            let bcsr = crate::formats::bcsr::BcsrMatrix::<u32>::from_csr(&csr, r, 4).unwrap();
            for level in [SimdLevel::Scalar, detect()] {
                let mut y = vec![0.0; 53];
                spmv_bcsr_simd_at(level, &bcsr, &x, &mut y);
                assert!(
                    max_abs_diff(&reference, &y) < 1e-10,
                    "{r}x4 at {level:?} diverged"
                );
            }
        }
    }

    #[test]
    fn csr_simd_matches_reference() {
        let csr = CsrMatrix::from_coo(&random_coo(61, 45, 800, 72));
        let x = test_x(45);
        let reference = csr.spmv_alloc(&x);
        for level in [SimdLevel::Scalar, detect()] {
            let mut y = vec![0.0; 61];
            spmv_csr_simd_at(level, &csr, &x, &mut y);
            assert!(max_abs_diff(&reference, &y) < 1e-10, "{level:?} diverged");
        }
    }

    #[test]
    fn simd_spmm_bit_identical_to_k_simd_spmv_calls() {
        // The load-bearing invariant: per column, the multivec kernels run the
        // identical FMA/hsum sequence as the single-vector kernels.
        let coo = random_coo(37, 29, 400, 73);
        let csr = CsrMatrix::from_coo(&coo);
        let level = detect();
        for k in [1usize, 2, 3, 4, 5, 7, 8, 11] {
            let cols: Vec<Vec<f64>> = (0..k)
                .map(|j| {
                    (0..29)
                        .map(|i| ((i * 13 + j * 7 + 1) % 23) as f64 - 11.0)
                        .collect()
                })
                .collect();
            let views: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
            let x = MultiVec::from_columns(&views);

            let mut y = MultiVec::zeros(37, k);
            spmm_csr_simd_at(level, &csr, x.data(), 29, &mut y.view_mut());
            for j in 0..k {
                let mut expected = vec![0.0; 37];
                spmv_csr_simd_at(level, &csr, x.col(j), &mut expected);
                assert_eq!(y.col(j), &expected[..], "csr k={k} column {j}");
            }

            for r in [1usize, 2, 4] {
                let bcsr = crate::formats::bcsr::BcsrMatrix::<u16>::from_csr(&csr, r, 4).unwrap();
                let mut y = MultiVec::zeros(37, k);
                spmm_bcsr_simd_at(level, &bcsr, x.data(), 29, &mut y.view_mut());
                for j in 0..k {
                    let mut expected = vec![0.0; 37];
                    spmv_bcsr_simd_at(level, &bcsr, x.col(j), &mut expected);
                    assert_eq!(y.col(j), &expected[..], "bcsr {r}x4 k={k} column {j}");
                }
            }
        }
    }

    #[test]
    fn remainder_columns_and_ragged_edges_are_exact() {
        // ncols = 5 with c = 4: the second block column's tile extends 3 lanes
        // past the edge; rows with nnz % 4 != 0 exercise the CSR remainder.
        let coo = random_coo(6, 5, 22, 74);
        let csr = CsrMatrix::from_coo(&coo);
        let x = test_x(5);
        let reference = csr.spmv_alloc(&x);
        let bcsr = crate::formats::bcsr::BcsrMatrix::<u16>::from_csr(&csr, 4, 4).unwrap();
        for level in [SimdLevel::Scalar, detect()] {
            let mut yb = vec![0.0; 6];
            spmv_bcsr_simd_at(level, &bcsr, &x, &mut yb);
            assert!(max_abs_diff(&reference, &yb) < 1e-12, "bcsr {level:?}");
            let mut yc = vec![0.0; 6];
            spmv_csr_simd_at(level, &csr, &x, &mut yc);
            assert!(max_abs_diff(&reference, &yc) < 1e-12, "csr {level:?}");
        }
    }

    #[test]
    fn uncovered_shapes_fall_back_to_scalar_bitwise() {
        // 3x4 and c != 4 shapes are not vectorized: the dispatch must produce
        // the scalar kernel's exact bits at any level.
        let coo = random_coo(31, 26, 300, 75);
        let csr = CsrMatrix::from_coo(&coo);
        let x = test_x(26);
        for (r, c) in [(3usize, 4usize), (4, 2), (2, 3)] {
            let bcsr = crate::formats::bcsr::BcsrMatrix::<u32>::from_csr(&csr, r, c).unwrap();
            let mut scalar = vec![0.0; 31];
            crate::kernels::blocked::spmv_bcsr(&bcsr, &x, &mut scalar);
            let mut y = vec![0.0; 31];
            spmv_bcsr_simd_at(detect(), &bcsr, &x, &mut y);
            assert_eq!(scalar, y, "{r}x{c} fallback not bit-identical");
        }
    }

    #[test]
    fn a_level_this_architecture_cannot_have_runs_the_scalar_arm() {
        let foreign = if cfg!(target_arch = "aarch64") {
            SimdLevel::Avx2Fma
        } else {
            SimdLevel::Neon
        };
        let csr = CsrMatrix::from_coo(&random_coo(23, 18, 150, 77));
        let bcsr = crate::formats::bcsr::BcsrMatrix::<u32>::from_csr(&csr, 4, 4).unwrap();
        let x = test_x(18);
        let xb = MultiVec::from_columns(&[&x[..], &x[..], &x[..]]);
        let run = |level| {
            let (mut yb, mut yc) = (vec![0.0; 23], vec![0.0; 23]);
            spmv_bcsr_simd_at(level, &bcsr, &x, &mut yb);
            spmv_csr_simd_at(level, &csr, &x, &mut yc);
            let (mut mb, mut mc) = (MultiVec::zeros(23, 3), MultiVec::zeros(23, 3));
            spmm_bcsr_simd_at(level, &bcsr, xb.data(), 18, &mut mb.view_mut());
            spmm_csr_simd_at(level, &csr, xb.data(), 18, &mut mc.view_mut());
            [yb, yc, mb.data().to_vec(), mc.data().to_vec()]
                .map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(run(foreign), run(SimdLevel::Scalar));
    }

    #[test]
    fn accumulates_into_destination() {
        let coo = random_coo(9, 9, 40, 76);
        let csr = CsrMatrix::from_coo(&coo);
        let x = test_x(9);
        let bcsr = crate::formats::bcsr::BcsrMatrix::<u32>::from_csr(&csr, 2, 4).unwrap();
        let mut y0 = vec![0.0; 9];
        spmv_bcsr_simd(&bcsr, &x, &mut y0);
        let mut y = vec![1.5; 9];
        spmv_bcsr_simd(&bcsr, &x, &mut y);
        for i in 0..9 {
            assert_eq!(y[i], 1.5 + y0[i]);
        }
    }

    #[test]
    fn empty_matrix_and_empty_rows_are_identity_on_y() {
        let csr: CsrMatrix = CsrMatrix::from_coo(&crate::formats::CooMatrix::new(5, 5));
        let x = test_x(5);
        let mut y = vec![2.5; 5];
        spmv_csr_simd(&csr, &x, &mut y);
        assert_eq!(y, vec![2.5; 5]);
        let bcsr = crate::formats::bcsr::BcsrMatrix::<u16>::from_csr(&csr, 4, 4).unwrap();
        let mut yb = vec![-1.0; 5];
        spmv_bcsr_simd(&bcsr, &x, &mut yb);
        assert_eq!(yb, vec![-1.0; 5]);
    }
}
