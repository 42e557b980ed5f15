//! Multi-vector (SpMM) kernels: `Y ← Y + A·X` for a column-major block of `k`
//! vectors.
//!
//! These are the index-amortizing counterparts of the single-vector kernel
//! ladder: each column index is loaded **once** per nonzero (or per register
//! tile) and reused for all `k` vectors, so the bytes-per-flop of the index
//! stream drops by `k×`. Every kernel is monomorphized over the index storage
//! width [`IndexStorage`] *and* a constant column-block width `K ∈ {1, 2, 4, 8}`
//! — arbitrary `k` is processed as chunks of 8/4/2/1 columns, each chunk running
//! a fully-specialized microkernel with a register-resident `[f64; K]` (CSR) or
//! `[[f64; K]; R]` (BCSR) accumulator.
//!
//! **Bit-identity.** Per vector, each kernel performs the *identical*
//! floating-point operations in the identical order as its sequential
//! single-vector counterpart (`naive`/`single-loop`/`prefetch` for CSR — the
//! variants a [`crate::tuning::plan::TunePlan`] binds for streaming blocks —
//! and the r×c microkernels for BCSR/BCOO/GCSR). `spmm` over `k` vectors is
//! therefore bit-identical to `k` independent tuned SpMV calls, which is what
//! lets a batching service transparently coalesce requests.

use crate::formats::bcoo::BcooMatrix;
use crate::formats::bcsr::BcsrMatrix;
use crate::formats::csr::CsrMatrix;
use crate::formats::gcsr::GcsrMatrix;
use crate::formats::index::IndexStorage;
use crate::formats::traits::MatrixShape;
use crate::multivec::MultiVecMut;

/// The constant column-block widths the microkernels are generated for; any `k`
/// decomposes greedily into these (e.g. `k = 11` runs as `8 + 2 + 1`).
pub const K_CHUNKS: [usize; 4] = [8, 4, 2, 1];

/// Decompose `k` columns into the fixed-`K` chunks and run `chunk(j0, K)` for
/// each, where `j0` is the first column of the chunk.
macro_rules! for_each_k_chunk {
    ($k:expr, $j0:ident, $body_k8:expr, $body_k4:expr, $body_k2:expr, $body_k1:expr) => {{
        let k = $k;
        let mut $j0 = 0usize;
        while k - $j0 >= 8 {
            $body_k8;
            $j0 += 8;
        }
        while k - $j0 >= 4 {
            $body_k4;
            $j0 += 4;
        }
        while k - $j0 >= 2 {
            $body_k2;
            $j0 += 2;
        }
        while k - $j0 >= 1 {
            $body_k1;
            $j0 += 1;
        }
    }};
}
pub(crate) use for_each_k_chunk;

/// One fully-specialized CSR block-of-`K`-columns traversal: a single running
/// nonzero cursor (the `single-loop` shape) with a register-resident `[f64; K]`
/// accumulator. Column `j` of the source block is `x[j*x_ld ..]`.
fn spmm_csr_fixed<const K: usize, I: IndexStorage>(
    a: &CsrMatrix<I>,
    x: &[f64],
    x_ld: usize,
    ys: [&mut [f64]; K],
) {
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let values = a.values();
    let ncols = a.ncols();
    // One bounds-checked slice per source column, hoisted out of the sweep so
    // the inner loop indexes each column by `col` alone.
    let xcols: [&[f64]; K] = std::array::from_fn(|j| &x[j * x_ld..j * x_ld + ncols]);
    let mut k = 0usize;
    for row in 0..a.nrows() {
        let end = row_ptr[row + 1];
        let mut acc = [0.0f64; K];
        while k < end {
            let col = col_idx[k].to_usize();
            let v = values[k];
            // One index load amortized over K vectors.
            for j in 0..K {
                acc[j] += v * xcols[j][col];
            }
            k += 1;
        }
        for j in 0..K {
            ys[j][row] += acc[j];
        }
    }
}

/// `Y ← Y + A·X` for CSR: dispatch `k` into fixed-`K` column chunks. Per vector
/// the arithmetic order equals [`crate::kernels::single_loop::spmv_single_loop`]
/// (and therefore `naive` and the `prefetch` variants too).
pub fn spmm_csr<I: IndexStorage>(a: &CsrMatrix<I>, x: &[f64], x_ld: usize, y: &mut MultiVecMut) {
    check_spmm_dims(a.nrows(), a.ncols(), x, x_ld, y);
    for_each_k_chunk!(
        y.k(),
        j0,
        spmm_csr_fixed::<8, I>(a, &x[j0 * x_ld..], x_ld, y.cols_mut::<8>(j0)),
        spmm_csr_fixed::<4, I>(a, &x[j0 * x_ld..], x_ld, y.cols_mut::<4>(j0)),
        spmm_csr_fixed::<2, I>(a, &x[j0 * x_ld..], x_ld, y.cols_mut::<2>(j0)),
        spmm_csr_fixed::<1, I>(a, &x[j0 * x_ld..], x_ld, y.cols_mut::<1>(j0))
    );
}

/// One fully-specialized BCSR microkernel: constant `R`×`C` tiles applied to `K`
/// columns with an `[[f64; K]; R]` register accumulator per block row. Mirrors
/// [`crate::kernels::blocked::spmv_bcsr`]'s per-vector arithmetic exactly
/// (per-tile row sums, then accumulate; ragged right edge clamped).
fn spmm_bcsr_fixed<const R: usize, const C: usize, const K: usize, I: IndexStorage>(
    a: &BcsrMatrix<I>,
    x: &[f64],
    x_ld: usize,
    ys: [&mut [f64]; K],
) {
    debug_assert_eq!(a.block_rows(), R);
    debug_assert_eq!(a.block_cols(), C);
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
        let mut acc = [[0.0f64; K]; R];

        for (tile, bc) in tiles[lo * R * C..hi * R * C]
            .chunks_exact(R * C)
            .zip(&block_col_idx[lo..hi])
        {
            let col_lo = bc.to_usize() * C;
            if col_lo + C <= ncols {
                // Interior tile: constant-bound loops, fully unrolled. The K
                // source windows are sliced once per tile, not once per (i, j).
                let xt: [&[f64]; K] =
                    std::array::from_fn(|j| &x[j * x_ld + col_lo..j * x_ld + col_lo + C]);
                for i in 0..R {
                    let trow = &tile[i * C..i * C + C];
                    for j in 0..K {
                        let mut sum = 0.0;
                        for t in 0..C {
                            sum += trow[t] * xt[j][t];
                        }
                        acc[i][j] += sum;
                    }
                }
            } else {
                // At most one ragged tile per block row: the zero fill extends
                // past ncols, so clamp the column count (same as the
                // single-vector kernel).
                let cols_here = ncols - col_lo;
                for i in 0..R {
                    let trow = &tile[i * C..i * C + C];
                    for j in 0..K {
                        let xj = &x[j * x_ld + col_lo..];
                        let mut sum = 0.0;
                        for (t, &xv) in xj.iter().enumerate().take(cols_here) {
                            sum += trow[t] * xv;
                        }
                        acc[i][j] += sum;
                    }
                }
            }
        }

        let rows_here = R.min(nrows - row_lo);
        for i in 0..rows_here {
            for j in 0..K {
                ys[j][row_lo + i] += acc[i][j];
            }
        }
    }
}

/// Generate the (r, c) shape dispatch for one fixed column chunk width `K`.
macro_rules! bcsr_spmm_dispatch {
    ($a:expr, $x:expr, $x_ld:expr, $ys:expr, $K:literal; $(($r:literal, $c:literal)),+ $(,)?) => {
        match ($a.block_rows(), $a.block_cols()) {
            $(($r, $c) => spmm_bcsr_fixed::<$r, $c, $K, I>($a, $x, $x_ld, $ys),)+
            (r, c) => unreachable!("block shape {r}x{c} outside the supported sweep"),
        }
    };
}

macro_rules! bcsr_spmm_chunk {
    ($name:ident, $K:literal) => {
        fn $name<I: IndexStorage>(
            a: &BcsrMatrix<I>,
            x: &[f64],
            x_ld: usize,
            ys: [&mut [f64]; $K],
        ) {
            bcsr_spmm_dispatch!(a, x, x_ld, ys, $K;
                (1, 1), (1, 2), (1, 3), (1, 4),
                (2, 1), (2, 2), (2, 3), (2, 4),
                (3, 1), (3, 2), (3, 3), (3, 4),
                (4, 1), (4, 2), (4, 3), (4, 4),
            );
        }
    };
}

bcsr_spmm_chunk!(spmm_bcsr_chunk8, 8);
bcsr_spmm_chunk!(spmm_bcsr_chunk4, 4);
bcsr_spmm_chunk!(spmm_bcsr_chunk2, 2);
bcsr_spmm_chunk!(spmm_bcsr_chunk1, 1);

/// `Y ← Y + A·X` for register-blocked BCSR: one (r, c) dispatch per column
/// chunk, then the fully-unrolled r×c×K microkernel.
///
/// The chunk width is capped so the `R × K` accumulator block stays
/// register-resident: tall register blocks (`r ≥ 3`) run 4-column chunks
/// instead of 8 (an `[[f64; 8]; 4]` accumulator spills on 16-register
/// targets). Chunking is invisible to the results — the vectors are
/// independent, so any decomposition performs the identical per-vector
/// arithmetic.
pub fn spmm_bcsr<I: IndexStorage>(a: &BcsrMatrix<I>, x: &[f64], x_ld: usize, y: &mut MultiVecMut) {
    check_spmm_dims(a.nrows(), a.ncols(), x, x_ld, y);
    let k = y.k();
    let wide_chunks = a.block_rows() <= 2;
    let mut j0 = 0usize;
    while wide_chunks && k - j0 >= 8 {
        spmm_bcsr_chunk8(a, &x[j0 * x_ld..], x_ld, y.cols_mut::<8>(j0));
        j0 += 8;
    }
    while k - j0 >= 4 {
        spmm_bcsr_chunk4(a, &x[j0 * x_ld..], x_ld, y.cols_mut::<4>(j0));
        j0 += 4;
    }
    while k - j0 >= 2 {
        spmm_bcsr_chunk2(a, &x[j0 * x_ld..], x_ld, y.cols_mut::<2>(j0));
        j0 += 2;
    }
    while k - j0 >= 1 {
        spmm_bcsr_chunk1(a, &x[j0 * x_ld..], x_ld, y.cols_mut::<1>(j0));
        j0 += 1;
    }
}

/// `Y ← Y + A·X` for block-coordinate storage: tiles outermost so each tile's
/// coordinates are read once for all `k` vectors; per vector the arithmetic
/// order equals [`BcooMatrix`]'s single-vector `spmv`.
pub fn spmm_bcoo<I: IndexStorage>(a: &BcooMatrix<I>, x: &[f64], x_ld: usize, y: &mut MultiVecMut) {
    check_spmm_dims(a.nrows(), a.ncols(), x, x_ld, y);
    let r = a.block_rows_dim();
    let c = a.block_cols_dim();
    let (nrows, ncols) = (a.nrows(), a.ncols());
    let k = y.k();
    for t in 0..a.num_blocks() {
        let row_lo = a.block_row_coord(t) * r;
        let col_lo = a.block_col_coord(t) * c;
        let rows_here = r.min(nrows - row_lo);
        let cols_here = c.min(ncols - col_lo);
        let tile = &a.tile_values()[t * r * c..(t + 1) * r * c];
        for i in 0..rows_here {
            for j in 0..k {
                let xj = &x[j * x_ld + col_lo..];
                let mut sum = 0.0;
                for (p, &xv) in xj.iter().enumerate().take(cols_here) {
                    sum += tile[i * c + p] * xv;
                }
                y.col_mut(j)[row_lo + i] += sum;
            }
        }
    }
}

/// `Y ← Y + A·X` for generalized CSR: stored rows outermost so each row id and
/// column index is read once for all `k` vectors; per vector the arithmetic
/// order equals [`GcsrMatrix`]'s single-vector `spmv`.
pub fn spmm_gcsr<I: IndexStorage>(a: &GcsrMatrix<I>, x: &[f64], x_ld: usize, y: &mut MultiVecMut) {
    check_spmm_dims(a.nrows(), a.ncols(), x, x_ld, y);
    let k = y.k();
    for s in 0..a.stored_rows() {
        let row = a.row_id(s);
        let (lo, hi) = a.stored_row_range(s);
        for j in 0..k {
            let xj = &x[j * x_ld..];
            let mut sum = 0.0;
            for p in lo..hi {
                sum += a.values()[p] * xj[a.col_id(p)];
            }
            y.col_mut(j)[row] += sum;
        }
    }
}

/// Shared dimension checks for the SpMM entry points: the destination view must
/// expose exactly the matrix's rows, and the source block must reach the last
/// column of its last vector.
pub(crate) fn check_spmm_dims(nrows: usize, ncols: usize, x: &[f64], x_ld: usize, y: &MultiVecMut) {
    assert_eq!(y.nrows(), nrows, "destination block row count mismatch");
    assert!(x_ld >= ncols, "source stride shorter than the column span");
    let k = y.k();
    assert!(
        k == 0 || x.len() >= (k - 1) * x_ld + ncols,
        "source block too short for {k} vectors"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;
    use crate::formats::bcsr::ALLOWED_BLOCK_DIMS;
    use crate::formats::traits::SpMv;
    use crate::kernels::testing::random_coo;
    use crate::multivec::MultiVec;

    /// A deterministic k-column source block over `ncols` rows.
    fn test_xblock(ncols: usize, k: usize) -> MultiVec {
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                (0..ncols)
                    .map(|i| ((i * 31 + j * 17 + 5) % 97) as f64 * 0.125 - 6.0)
                    .collect()
            })
            .collect();
        let views: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        MultiVec::from_columns(&views)
    }

    #[test]
    fn csr_spmm_bit_identical_to_k_single_loop_calls() {
        let csr = CsrMatrix::from_coo(&random_coo(83, 61, 900, 41));
        for k in [1, 2, 3, 4, 5, 7, 8, 11] {
            let x = test_xblock(61, k);
            let mut y = MultiVec::zeros(83, k);
            y.fill(0.75);
            spmm_csr(&csr, x.data(), 61, &mut y.view_mut());
            for j in 0..k {
                let mut expected = vec![0.75; 83];
                crate::kernels::single_loop::spmv_single_loop(&csr, x.col(j), &mut expected);
                assert_eq!(y.col(j), &expected[..], "k={k} column {j}");
            }
        }
    }

    #[test]
    fn csr_spmm_matches_across_index_widths() {
        let csr32 = CsrMatrix::from_coo(&random_coo(60, 50, 500, 42));
        let csr16: CsrMatrix<u16> = csr32.reindex().unwrap();
        let csrus: CsrMatrix<usize> = csr32.reindex().unwrap();
        let x = test_xblock(50, 4);
        let mut y32 = MultiVec::zeros(60, 4);
        let mut y16 = MultiVec::zeros(60, 4);
        let mut yus = MultiVec::zeros(60, 4);
        spmm_csr(&csr32, x.data(), 50, &mut y32.view_mut());
        spmm_csr(&csr16, x.data(), 50, &mut y16.view_mut());
        spmm_csr(&csrus, x.data(), 50, &mut yus.view_mut());
        assert_eq!(y32, y16);
        assert_eq!(y32, yus);
    }

    #[test]
    fn bcsr_spmm_bit_identical_to_k_microkernel_calls() {
        let coo = random_coo(53, 47, 620, 43);
        let csr = CsrMatrix::from_coo(&coo);
        for &r in &ALLOWED_BLOCK_DIMS {
            for &c in &ALLOWED_BLOCK_DIMS {
                let bcsr = BcsrMatrix::<u16>::from_csr(&csr, r, c).unwrap();
                for k in [1, 2, 4, 6, 8] {
                    let x = test_xblock(47, k);
                    let mut y = MultiVec::zeros(53, k);
                    spmm_bcsr(&bcsr, x.data(), 47, &mut y.view_mut());
                    for j in 0..k {
                        let mut expected = vec![0.0; 53];
                        crate::kernels::blocked::spmv_bcsr(&bcsr, x.col(j), &mut expected);
                        assert_eq!(y.col(j), &expected[..], "{r}x{c} k={k} column {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn bcoo_and_gcsr_spmm_bit_identical_to_spmv() {
        // Mostly-empty rows, the shapes those formats exist for.
        let coo = crate::formats::CooMatrix::from_triplets(
            40,
            30,
            vec![
                (0, 0, 1.5),
                (0, 29, -2.0),
                (17, 3, 4.0),
                (17, 4, 0.5),
                (39, 15, 3.0),
            ],
        )
        .unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let bcoo = BcooMatrix::<u16>::from_csr(&csr, 2, 2).unwrap();
        let gcsr = GcsrMatrix::<u16>::from_csr(&csr).unwrap();
        for k in [1, 3, 8] {
            let x = test_xblock(30, k);
            let mut yb = MultiVec::zeros(40, k);
            let mut yg = MultiVec::zeros(40, k);
            spmm_bcoo(&bcoo, x.data(), 30, &mut yb.view_mut());
            spmm_gcsr(&gcsr, x.data(), 30, &mut yg.view_mut());
            for j in 0..k {
                let mut eb = vec![0.0; 40];
                bcoo.spmv(x.col(j), &mut eb);
                assert_eq!(yb.col(j), &eb[..], "bcoo k={k} col {j}");
                let mut eg = vec![0.0; 40];
                gcsr.spmv(x.col(j), &mut eg);
                assert_eq!(yg.col(j), &eg[..], "gcsr k={k} col {j}");
            }
        }
    }

    #[test]
    fn strided_source_blocks_work() {
        // x_ld larger than ncols: the kernels must honour the stride, reading
        // column j at j*x_ld even though the matrix spans fewer columns.
        let csr = CsrMatrix::from_coo(&random_coo(20, 10, 80, 44));
        let x_ld = 25;
        let k = 3;
        let mut x = vec![0.0; (k - 1) * x_ld + 10];
        for j in 0..k {
            for i in 0..10 {
                x[j * x_ld + i] = (i + j * 100) as f64;
            }
        }
        let mut y = MultiVec::zeros(20, k);
        spmm_csr(&csr, &x, x_ld, &mut y.view_mut());
        for j in 0..k {
            let xj: Vec<f64> = (0..10).map(|i| (i + j * 100) as f64).collect();
            assert!(max_abs_diff(&csr.spmv_alloc(&xj), y.col(j)) < 1e-12);
        }
    }

    #[test]
    fn empty_matrix_spmm_is_identity_on_y() {
        let csr = CsrMatrix::from_coo(&crate::formats::CooMatrix::new(5, 5));
        let x = test_xblock(5, 4);
        let mut y = MultiVec::zeros(5, 4);
        y.fill(3.25);
        spmm_csr(&csr, x.data(), 5, &mut y.view_mut());
        assert_eq!(y.data(), &[3.25; 20]);
    }

    #[test]
    fn rectangular_matrices_supported() {
        let csr = CsrMatrix::from_coo(&random_coo(15, 90, 300, 45));
        let x = test_xblock(90, 2);
        let mut y = MultiVec::zeros(15, 2);
        spmm_csr(&csr, x.data(), 90, &mut y.view_mut());
        for j in 0..2 {
            assert!(max_abs_diff(&csr.spmv_alloc(x.col(j)), y.col(j)) < 1e-12);
        }
    }
}
