//! Macro-generated, fully-unrolled r×c BCSR microkernels (paper Section 4.2).
//!
//! The paper's code generator emits one specialized SpMV routine per register block
//! shape; this module reproduces that with a macro that instantiates a const-generic
//! microkernel for every shape in the ≤ 4×4 sweep, monomorphized additionally over
//! the index width [`IndexStorage`]. Each instantiation has:
//!
//! * constant trip counts `R`/`C`, which LLVM fully unrolls (verified: no loop
//!   back-edges remain for the interior tile path at `opt-level=3`);
//! * an `[f64; R]` accumulator that lives in registers across the block row —
//!   the "register blocking" the format exists to enable;
//! * a single zero-extending load per tile for the column index — no width tag.
//!
//! [`spmv_bcsr`] performs the one runtime dispatch (a 16-arm match on the block
//! shape) at the *call* boundary, not per element.

use crate::formats::bcsr::BcsrMatrix;
use crate::formats::index::IndexStorage;
use crate::formats::traits::MatrixShape;

/// One fully-specialized block-row traversal: constant `R`×`C` tiles, index width
/// `I`. `#[inline(always)]` lets each dispatch arm collapse into straight-line code.
#[inline(always)]
fn spmv_bcsr_fixed<const R: usize, const C: usize, I: IndexStorage>(
    a: &BcsrMatrix<I>,
    x: &[f64],
    y: &mut [f64],
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
        // Register-resident accumulator for the whole block row.
        let mut acc = [0.0f64; R];

        for (tile, bc) in tiles[lo * R * C..hi * R * C]
            .chunks_exact(R * C)
            .zip(&block_col_idx[lo..hi])
        {
            let col_lo = bc.to_usize() * C;
            if let Some(xs) = x.get(col_lo..col_lo + C) {
                // Interior tile: constant-bound loops, fully unrolled.
                for i in 0..R {
                    let trow = &tile[i * C..i * C + C];
                    let mut sum = 0.0;
                    for j in 0..C {
                        sum += trow[j] * xs[j];
                    }
                    acc[i] += sum;
                }
            } else {
                // Ragged right edge: the tile's zero fill extends past ncols, so
                // clamp the column count. At most one tile per block row.
                let cols_here = ncols - col_lo;
                for i in 0..R {
                    let mut sum = 0.0;
                    for (j, &xv) in x[col_lo..].iter().enumerate().take(cols_here) {
                        sum += tile[i * C + j] * xv;
                    }
                    acc[i] += sum;
                }
            }
        }

        let rows_here = R.min(nrows - row_lo);
        for (yv, av) in y[row_lo..row_lo + rows_here].iter_mut().zip(&acc) {
            *yv += av;
        }
    }
}

/// Generate the shape dispatch: one match arm per (r, c) in the ≤ 4×4 sweep, each
/// arm a distinct monomorphized microkernel.
macro_rules! bcsr_dispatch {
    ($a:expr, $x:expr, $y:expr; $(($r:literal, $c:literal)),+ $(,)?) => {
        match ($a.block_rows(), $a.block_cols()) {
            $(($r, $c) => spmv_bcsr_fixed::<$r, $c, I>($a, $x, $y),)+
            (r, c) => unreachable!("block shape {r}x{c} outside the supported sweep"),
        }
    };
}

/// `y ← y + A·x` for a BCSR matrix: dispatch once on the block shape, then run the
/// fully-unrolled microkernel for that shape.
pub fn spmv_bcsr<I: IndexStorage>(a: &BcsrMatrix<I>, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols(), "source vector length mismatch");
    assert_eq!(y.len(), a.nrows(), "destination vector length mismatch");
    bcsr_dispatch!(a, x, y;
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
    use crate::formats::bcsr::ALLOWED_BLOCK_DIMS;
    use crate::formats::traits::SpMv;
    use crate::formats::CsrMatrix;
    use crate::kernels::testing::{random_coo, test_x};

    #[test]
    fn every_shape_and_width_matches_reference() {
        let coo = random_coo(53, 47, 600, 31);
        let csr = CsrMatrix::from_coo(&coo);
        let x = test_x(47);
        let reference = csr.spmv_alloc(&x);
        for &r in &ALLOWED_BLOCK_DIMS {
            for &c in &ALLOWED_BLOCK_DIMS {
                let b16 = BcsrMatrix::<u16>::from_csr(&csr, r, c).unwrap();
                let b32 = BcsrMatrix::<u32>::from_csr(&csr, r, c).unwrap();
                let bus = BcsrMatrix::<usize>::from_csr(&csr, r, c).unwrap();
                for (name, y) in [
                    ("u16", b16.spmv_alloc(&x)),
                    ("u32", b32.spmv_alloc(&x)),
                    ("usize", bus.spmv_alloc(&x)),
                ] {
                    assert!(
                        max_abs_diff(&reference, &y) < 1e-10,
                        "{r}x{c} {name} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn ragged_edge_tile_never_reads_past_x() {
        // ncols = 5 with c = 4 puts the second block column's tile 2 columns past
        // the edge; the microkernel must clamp.
        let coo = random_coo(6, 5, 20, 32);
        let csr = CsrMatrix::from_coo(&coo);
        let x = test_x(5);
        let reference = csr.spmv_alloc(&x);
        let bcsr = BcsrMatrix::<u16>::from_csr(&csr, 4, 4).unwrap();
        let mut y = vec![0.0; 6];
        spmv_bcsr(&bcsr, &x, &mut y);
        assert!(max_abs_diff(&reference, &y) < 1e-10);
    }

    #[test]
    fn accumulates_into_destination() {
        let coo = random_coo(9, 9, 30, 33);
        let csr = CsrMatrix::from_coo(&coo);
        let x = test_x(9);
        let mut expected = vec![1.5; 9];
        csr.spmv(&x, &mut expected);
        let bcsr = BcsrMatrix::<u32>::from_csr(&csr, 3, 2).unwrap();
        let mut y = vec![1.5; 9];
        spmv_bcsr(&bcsr, &x, &mut y);
        assert!(max_abs_diff(&expected, &y) < 1e-10);
    }
}
