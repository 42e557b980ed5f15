//! OSKI-style serial autotuned SpMV baseline.
//!
//! OSKI (Vuduc, Demmel, Yelick) picks a register blocking by estimating the fill
//! ratio of each candidate block shape and dividing by an offline performance profile
//! measured on a dense matrix in sparse format, then stores the matrix as BCSR at the
//! winning shape. Like OSKI it does not use BCOO and leaves low-level instruction
//! scheduling to the compiler, two of the differences the paper's Section 4 calls
//! out. Unlike OSKI's 32-bit indices, this stand-in stores its block column
//! indices at 16 bits whenever both matrix spans fit 64K
//! ([`search_register_blocking`]). Cache blocking in OSKI must be explicitly
//! requested (it is not part of the default tuning path), so this baseline omits it,
//! matching how the paper ran OSKI.

use spmv_core::blocking::BlockFormat;
use spmv_core::formats::{CsrMatrix, SpMv};
use spmv_core::tuning::search::{search_register_blocking, DenseProfile};
use spmv_core::MatrixShape;

/// A serial OSKI-tuned matrix: register-blocked CSR chosen by the SPARSITY heuristic.
#[derive(Debug, Clone)]
pub struct OskiMatrix {
    /// The chosen register block shape.
    pub block_shape: (usize, usize),
    matrix: BlockFormat,
    csr_bytes: usize,
}

impl OskiMatrix {
    /// Tune `csr` with a measured dense profile (runs a short benchmark on this host).
    pub fn tune(csr: &CsrMatrix) -> Self {
        Self::tune_with_profile(csr, &DenseProfile::measure(64))
    }

    /// Tune `csr` against a caller-supplied dense performance profile (use
    /// [`DenseProfile::synthetic`] for deterministic results in tests and benches).
    pub fn tune_with_profile(csr: &CsrMatrix, profile: &DenseProfile) -> Self {
        let outcome = search_register_blocking(csr, profile);
        OskiMatrix {
            block_shape: (outcome.r, outcome.c),
            matrix: outcome.matrix,
            csr_bytes: csr.footprint_bytes(),
        }
    }

    /// Stored bytes of the tuned structure.
    pub fn footprint_bytes(&self) -> usize {
        self.matrix.footprint_bytes()
    }

    /// Fill ratio paid by the chosen blocking.
    pub fn fill_ratio(&self) -> f64 {
        match self.matrix.nnz() {
            0 => 1.0,
            nnz => self.matrix.stored_entries() as f64 / nnz as f64,
        }
    }

    /// Footprint relative to plain CSR (OSKI can be *larger* than CSR when fill
    /// outweighs the index savings — one reason the paper's footprint-minimizing
    /// heuristic differs).
    pub fn footprint_vs_csr(&self) -> f64 {
        self.matrix.footprint_bytes() as f64 / self.csr_bytes as f64
    }

    /// Number of logical nonzeros.
    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    /// Execute `y ← y + A·x` serially.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.matrix.spmv(x, y);
    }

    /// Allocate-and-multiply convenience wrapper.
    pub fn spmv_alloc(&self, x: &[f64]) -> Vec<f64> {
        self.matrix.spmv_alloc(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spmv_core::dense::max_abs_diff;
    use spmv_core::formats::CooMatrix;

    fn fem_like(nblocks: usize, bs: usize) -> CsrMatrix {
        let n = nblocks * bs;
        let mut coo = CooMatrix::new(n, n);
        for b in 0..nblocks {
            for nb in [b.saturating_sub(1), b, (b + 1).min(nblocks - 1)] {
                for i in 0..bs {
                    for j in 0..bs {
                        coo.push(b * bs + i, nb * bs + j, 1.0 + (i + j) as f64);
                    }
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn random_csr(n: usize, nnz: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        for _ in 0..nnz {
            coo.push(
                rng.random_range(0..n),
                rng.random_range(0..n),
                rng.random_range(-1.0..1.0),
            );
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn oski_picks_large_blocks_for_fem_matrices() {
        let csr = fem_like(100, 4);
        let oski = OskiMatrix::tune_with_profile(&csr, &DenseProfile::synthetic());
        assert_eq!(oski.block_shape, (4, 4));
        assert!(oski.fill_ratio() < 1.05);
        assert!(oski.footprint_vs_csr() < 1.0);
    }

    #[test]
    fn oski_keeps_1x1_for_scattered_matrices() {
        let csr = random_csr(300, 1500, 1);
        let oski = OskiMatrix::tune_with_profile(&csr, &DenseProfile::synthetic());
        assert_eq!(oski.block_shape, (1, 1));
    }

    #[test]
    fn oski_spmv_is_correct() {
        let csr = fem_like(50, 4);
        let oski = OskiMatrix::tune_with_profile(&csr, &DenseProfile::synthetic());
        let x: Vec<f64> = (0..csr.ncols()).map(|i| (i as f64 * 0.1).sin()).collect();
        assert!(max_abs_diff(&csr.spmv_alloc(&x), &oski.spmv_alloc(&x)) < 1e-9);
        assert_eq!(oski.nnz(), csr.nnz());
    }

    #[test]
    fn paper_heuristic_footprint_not_larger_than_oski() {
        // The paper's footprint-minimizing heuristic (with 16-bit indices and BCOO
        // available) should never produce a larger structure than OSKI's
        // 32-bit-index BCSR choice.
        use spmv_core::tuning::{PreparedMatrix, TunePlan, TuningConfig};
        for (csr, label) in [
            (fem_like(80, 4), "fem"),
            (random_csr(400, 3000, 2), "random"),
        ] {
            let oski = OskiMatrix::tune_with_profile(&csr, &DenseProfile::synthetic());
            let plan = TunePlan::heuristic(&csr, 1, &TuningConfig::full());
            let ours = PreparedMatrix::materialize(&csr, &plan).unwrap();
            assert!(
                ours.footprint_bytes() <= oski.footprint_bytes(),
                "{label}: ours {} vs OSKI {}",
                ours.footprint_bytes(),
                oski.footprint_bytes()
            );
        }
    }
}
