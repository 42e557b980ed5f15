//! Symmetric SpMV kernels: each stored lower-triangle entry applied twice.
//!
//! The general kernels stream one value + one index per nonzero; the symmetric
//! kernels stream one value + one index per *pair* of off-diagonal nonzeros,
//! halving the compulsory matrix traffic (the paper's symmetry optimization).
//! The price is a scattered write (`y[j] += a_ij * x[i]`), which is why the
//! parallel engine runs these kernels against per-worker scratch destinations.
//!
//! Two families:
//!
//! * [`spmv_sym_csr`] — pointwise traversal of a [`SymCsr`] slab.
//! * [`spmv_sym_bcsr`] — macro-generated, fully-unrolled `r × c` tile kernels for
//!   [`SymBcsr`], one monomorphized instantiation per shape of the ≤ 4×4 sweep
//!   (and per index width), dispatching once at the call boundary like
//!   [`crate::kernels::blocked`].
//!
//! These are the scalar accumulation class. A `simd` plan runs covered
//! `SymBcsr` shapes (r×4, r ∈ {1, 2, 4}) on AVX2 hosts through
//! [`crate::kernels::simd::spmv_sym_bcsr_simd`] instead, which falls back to
//! [`spmv_sym_bcsr`] on every other shape and level.
//!
//! Accumulation order is fixed by the storage (row-major slab traversal, the
//! transpose write of an entry issued before its row sum lands), so any two
//! executions of the same slab are bit-identical — the property the
//! executors' deterministic scratch fold (`tuning::fold_rows`) builds on.

use crate::formats::index::IndexStorage;
use crate::formats::symbcsr::SymBcsr;
use crate::formats::symcsr::SymCsr;

/// `y ← y + A_slab·x` for a [`SymCsr`] slab over full-length global vectors.
pub fn spmv_sym_csr<I: IndexStorage>(a: &SymCsr<I>, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), a.dim());
    debug_assert_eq!(y.len(), a.dim());
    let row_offset = a.row_offset();
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let values = a.values();
    for (i, &d) in a.diag().iter().enumerate() {
        let gi = row_offset + i;
        let xi = x[gi];
        let mut sum = d * xi;
        for k in row_ptr[i] as usize..row_ptr[i + 1] as usize {
            let j = col_idx[k].to_usize();
            let v = values[k];
            sum += v * x[j];
            y[j] += v * xi;
        }
        y[gi] += sum;
    }
}

/// One fully-specialized symmetric block-row traversal: constant `R`×`C` tiles at
/// index width `I`, applying every tile directly and transposed.
#[inline(always)]
fn spmv_sym_bcsr_fixed<const R: usize, const C: usize, I: IndexStorage>(
    a: &SymBcsr<I>,
    x: &[f64],
    y: &mut [f64],
) {
    debug_assert_eq!(a.block_rows(), R);
    debug_assert_eq!(a.block_cols(), C);
    let n = a.dim();
    let row_offset = a.row_offset();
    let local_rows = a.local_rows();
    let diag = a.diag();
    let block_row_ptr = a.block_row_ptr();
    let block_col_idx = a.block_col_idx();
    let tiles = a.tile_values();
    let nblock_rows = block_row_ptr.len() - 1;

    for brow in 0..nblock_rows {
        let row_lo = brow * R;
        let rows_here = R.min(local_rows - row_lo);
        let grow = row_offset + row_lo;
        let lo = block_row_ptr[brow] as usize;
        let hi = block_row_ptr[brow + 1] as usize;

        // Register-resident accumulator seeded with the diagonal contribution.
        let mut acc = [0.0f64; R];
        for i in 0..rows_here {
            acc[i] = diag[row_lo + i] * x[grow + i];
        }

        for (tile, bc) in tiles[lo * R * C..hi * R * C]
            .chunks_exact(R * C)
            .zip(&block_col_idx[lo..hi])
        {
            let col_lo = bc.to_usize() * C;
            if rows_here == R && col_lo + C <= n {
                // Interior tile: constant-bound loops, fully unrolled. The direct
                // half accumulates into registers; the transpose half scatters
                // into y — zero-filled slots (diagonal/upper) contribute zero.
                let xs = &x[col_lo..col_lo + C];
                let ys = &mut y[col_lo..col_lo + C];
                for i in 0..R {
                    let trow = &tile[i * C..i * C + C];
                    let xi = x[grow + i];
                    let mut sum = 0.0;
                    for j in 0..C {
                        sum += trow[j] * xs[j];
                        ys[j] += trow[j] * xi;
                    }
                    acc[i] += sum;
                }
            } else {
                // Ragged edge (bottom rows of the slab or rightmost columns of
                // the matrix): clamp both trip counts; the fill beyond the edge
                // is zero and is never read from or written past the vectors.
                let cols_here = C.min(n - col_lo);
                for i in 0..rows_here {
                    let xi = x[grow + i];
                    let mut sum = 0.0;
                    for j in 0..cols_here {
                        let v = tile[i * C + j];
                        sum += v * x[col_lo + j];
                        y[col_lo + j] += v * xi;
                    }
                    acc[i] += sum;
                }
            }
        }

        for (yv, av) in y[grow..grow + rows_here].iter_mut().zip(&acc) {
            *yv += av;
        }
    }
}

/// Generate the shape dispatch: one match arm per (r, c) in the ≤ 4×4 sweep.
macro_rules! sym_bcsr_dispatch {
    ($a:expr, $x:expr, $y:expr; $(($r:literal, $c:literal)),+ $(,)?) => {
        match ($a.block_rows(), $a.block_cols()) {
            $(($r, $c) => spmv_sym_bcsr_fixed::<$r, $c, I>($a, $x, $y),)+
            (r, c) => unreachable!("block shape {r}x{c} outside the supported sweep"),
        }
    };
}

/// `y ← y + A_slab·x` for a [`SymBcsr`] slab: dispatch once on the tile shape,
/// then run the fully-unrolled symmetric microkernel for that shape.
pub fn spmv_sym_bcsr<I: IndexStorage>(a: &SymBcsr<I>, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.dim(), "source vector length mismatch");
    assert_eq!(y.len(), a.dim(), "destination vector length mismatch");
    sym_bcsr_dispatch!(a, x, y;
        (1, 1), (1, 2), (1, 3), (1, 4),
        (2, 1), (2, 2), (2, 3), (2, 4),
        (3, 1), (3, 2), (3, 3), (3, 4),
        (4, 1), (4, 2), (4, 3), (4, 4),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;
    use crate::formats::{CooMatrix, CsrMatrix};
    use crate::MatrixShape;
    use crate::SpMv;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_symmetric(n: usize, lower_nnz: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        for _ in 0..lower_nnz {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..=i);
            let v = rng.random_range(-1.0..1.0);
            coo.push(i, j, v);
            if i != j {
                coo.push(j, i, v);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn sym_csr_kernel_accumulates_and_matches_reference() {
        let csr = random_symmetric(31, 140, 21);
        let x: Vec<f64> = (0..31).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut expected = vec![0.75; 31];
        csr.spmv(&x, &mut expected);
        let sym: SymCsr<u16> = SymCsr::from_csr(&csr).unwrap();
        let mut y = vec![0.75; 31];
        spmv_sym_csr(&sym, &x, &mut y);
        assert!(max_abs_diff(&expected, &y) < 1e-12);
    }

    #[test]
    fn sym_kernels_are_bit_deterministic() {
        let csr = random_symmetric(40, 250, 22);
        let x: Vec<f64> = (0..40)
            .map(|i| ((i * 13 + 1) % 23) as f64 * 0.125)
            .collect();
        let sym: SymCsr<u32> = SymCsr::from_csr(&csr).unwrap();
        let a = sym.spmv_alloc(&x);
        let b = sym.spmv_alloc(&x);
        assert_eq!(a, b);
        let blocked: crate::formats::symbcsr::SymBcsr<u32> =
            crate::formats::symbcsr::SymBcsr::from_csr(&csr, 3, 2).unwrap();
        assert_eq!(blocked.spmv_alloc(&x), blocked.spmv_alloc(&x));
    }

    #[test]
    fn ragged_bottom_slab_never_reads_past_x() {
        // local_rows = 5 with R = 4 leaves one ragged block row at the slab's
        // bottom edge, which is also the matrix's bottom edge.
        let csr = random_symmetric(13, 60, 23);
        let x: Vec<f64> = (0..13).map(|i| i as f64 - 6.0).collect();
        let reference = csr.spmv_alloc(&x);
        let mut y = vec![0.0; 13];
        for (start, end) in [(0usize, 8usize), (8, 13)] {
            let local = csr.row_slice(start, end);
            let slab: crate::formats::symbcsr::SymBcsr<u32> =
                crate::formats::symbcsr::SymBcsr::from_slab_unchecked(&local, start, 4, 4).unwrap();
            spmv_sym_bcsr(&slab, &x, &mut y);
        }
        assert!(max_abs_diff(&reference, &y) < 1e-12);
    }

    #[test]
    fn traffic_is_halved_relative_to_general_csr() {
        let csr = random_symmetric(100, 1500, 24);
        let sym: SymCsr<u32> = SymCsr::from_csr(&csr).unwrap();
        let general_per_nnz = csr.footprint_bytes() as f64 / csr.nnz() as f64;
        let sym_per_nnz = sym.footprint_bytes() as f64 / sym.nnz() as f64;
        assert!(
            sym_per_nnz < 0.7 * general_per_nnz,
            "sym {sym_per_nnz:.2} B/nnz vs general {general_per_nnz:.2} B/nnz"
        );
    }
}
