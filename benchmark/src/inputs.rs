//! Seeded inputs and the correctness oracle.
//!
//! The suite generators are deterministic (their seeds are fixed inside
//! `spmv-matrices`), so the matrices are the same in every run; `--seed`
//! drives only what this module draws: x vectors, right-hand sides and op
//! scripts. The program under test receives just those generated inputs.

use spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_core::{MatrixShape, SpMv};

/// Per-entry relative tolerance of the oracle: the repo's accumulation-class
/// bound. Paths that reorder a row's additions (register blocks, SIMD lanes)
/// differ from plain CSR by rounding only, orders of magnitude below this.
pub const ORACLE_REL_TOL: f64 = 1e-10;

/// SplitMix64: small, seedable, and independent of the repo's `rand` shim so a
/// change there cannot move this benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for a named purpose under the same run seed.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn vector(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.next_signed()).collect()
    }

    /// A vector scaled to unit 2-norm, so an absolute residual tolerance is a
    /// relative one.
    pub fn unit_vector(&mut self, len: usize) -> Vec<f64> {
        let mut v = self.vector(len);
        let norm = norm2(&v);
        v.iter_mut().for_each(|e| *e /= norm);
        v
    }
}

pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|e| e * e).sum::<f64>().sqrt()
}

/// `A·x` by the plain CSR kernel: the reference every other path is judged by.
pub fn reference_spmv(csr: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; csr.nrows()];
    csr.spmv(x, &mut y);
    y
}

/// Whether `got` matches `want` entry by entry within [`ORACLE_REL_TOL`]
/// (relative to the reference entry, absolute below magnitude one).
pub fn matches_reference(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= ORACLE_REL_TOL * w.abs().max(1.0))
}

/// `‖b − A·x‖₂` with the plain CSR kernel (the true residual of a solve).
pub fn true_residual(csr: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = reference_spmv(csr, x);
    b.iter()
        .zip(&ax)
        .map(|(b, ax)| (b - ax) * (b - ax))
        .sum::<f64>()
        .sqrt()
}

/// A pool of seeded x vectors with their precomputed reference products.
pub struct VectorPool {
    pub xs: Vec<Vec<f64>>,
    pub ys: Vec<Vec<f64>>,
}

impl VectorPool {
    pub fn new(csr: &CsrMatrix, count: usize, rng: &mut Rng) -> VectorPool {
        let xs: Vec<Vec<f64>> = (0..count).map(|_| rng.vector(csr.ncols())).collect();
        let ys = xs.iter().map(|x| reference_spmv(csr, x)).collect();
        VectorPool { xs, ys }
    }

    pub fn len(&self) -> usize {
        self.xs.len()
    }
}

/// Turn a symmetric matrix into a symmetric positive definite one: keep the
/// off-diagonal entries and set every diagonal entry to `dominance` times the
/// row's off-diagonal absolute sum (1.0 for a row with none). With `dominance`
/// just above one the matrix is strictly diagonally dominant but
/// ill-conditioned enough that CG needs on the order of 10² iterations.
pub fn make_spd(sym: &CooMatrix, dominance: f64) -> CooMatrix {
    assert_eq!(
        sym.nrows(),
        sym.ncols(),
        "SPD construction needs a square matrix"
    );
    assert!(dominance > 1.0, "dominance must exceed one");
    let n = sym.nrows();
    let mut offdiag_abs = vec![0.0f64; n];
    let mut spd = CooMatrix::with_capacity(n, n, sym.nnz() + n);
    for t in sym.entries() {
        if t.row != t.col && t.val != 0.0 {
            offdiag_abs[t.row] += t.val.abs();
            spd.push(t.row, t.col, t.val);
        }
    }
    for (i, sum) in offdiag_abs.iter().enumerate() {
        spd.push(i, i, if *sum > 0.0 { dominance * sum } else { 1.0 });
    }
    spd
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrices::{Scale, SuiteMatrix};

    #[test]
    fn same_seed_same_inputs() {
        let a = Rng::fork(7, 1).vector(64);
        let b = Rng::fork(7, 1).vector(64);
        let c = Rng::fork(7, 2).vector(64);
        let d = Rng::fork(8, 1).vector(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        assert!((norm2(&Rng::fork(3, 0).unit_vector(100)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oracle_accepts_rounding_and_rejects_errors() {
        let want = vec![1.0, -250.0, 0.0, 1e-3];
        assert!(matches_reference(&want, &want));
        assert!(matches_reference(
            &[1.0 + 1e-13, -250.0, 1e-12, 1e-3],
            &want
        ));
        assert!(!matches_reference(&[1.0 + 1e-9, -250.0, 0.0, 1e-3], &want));
        assert!(!matches_reference(&[1.0, -250.0, 0.0], &want));
        assert!(!matches_reference(&[f64::NAN, -250.0, 0.0, 1e-3], &want));
    }

    #[test]
    fn spd_is_symmetric_and_strictly_diagonally_dominant() {
        let sym = SuiteMatrix::FemCantilever
            .generate_symmetric(Scale::Tiny)
            .expect("fem_cantilever is symmetric in Table 3");
        let csr = CsrMatrix::from_coo(&make_spd(&sym, 1.02));
        assert!(spmv_core::formats::symcsr::is_symmetric(&csr));
        let mut diag = vec![0.0; csr.nrows()];
        let mut off = vec![0.0; csr.nrows()];
        for (i, j, v) in csr.iter() {
            if i == j {
                diag[i] += v;
            } else {
                off[i] += v.abs();
            }
        }
        for i in 0..csr.nrows() {
            assert!(
                diag[i] > 0.0 && diag[i] > off[i],
                "row {i}: {} vs {}",
                diag[i],
                off[i]
            );
        }
    }
}
