//! In-engine iterative solvers: fused per-slice micro-ops and the serial
//! reference state machines.
//!
//! The paper optimizes SpMV because it is the inner loop of iterative solvers
//! (conjugate gradient, power iteration / PageRank). This module expresses one
//! solver iteration as a short sequence of **per-slice fused micro-ops** over the
//! plan's row partition — SpMV + partial dot in one pass, the fused
//! `x += αp` / `r -= αw` / partial `r·r` update, `p ← r + βp`, normalization —
//! with all scalar reductions folded by the deterministic pairwise
//! [`kernels::tree_sum`]. `spmv_parallel::SpmvEngine` runs the same micro-ops
//! concurrently (one worker per slice, barriers between phases) over resident
//! vectors; [`SerialCg`] and [`SerialPower`] here run them sequentially over the
//! same [`PreparedMatrix`], slice order preserved — so the parallel fused epoch
//! is **bit-identical** to the serial reference within an accumulation class,
//! exactly like the plain SpMV and symmetric paths.
//!
//! ## One fused CG step (both executors, op-for-op)
//!
//! 1. `w ← A·p` per slice (symmetric plans: per-slab scratch + tree reduction
//!    into zeroed `w`), partial `pᵀw` per slice.
//! 2. `pw ← tree_sum(partials)`, `α ← rr/pw` — every executor derives the same
//!    scalar from the same slots.
//! 3. Fused update per slice: `x += αp`, `r -= αw`, partial `rᵀr`.
//! 4. `rr' ← tree_sum(partials)`, `β ← rr'/rr`.
//! 5. `p ← r + βp` per slice.
//!
//! The engine runs all five under a **single launch/completion epoch** (two
//! internal phase barriers); the unfused formulation costs ~4 epochs plus two
//! client-side vector round-trips per iteration.

pub mod kernels;

use crate::error::{Error, Result};
use crate::formats::traits::MatrixShape;
use crate::tuning::prepared::PreparedMatrix;

/// Serial conjugate-gradient reference over a [`PreparedMatrix`], mirrored
/// op-for-op by the engine's fused `CgStep` epoch.
///
/// Solves `A·x = b` for symmetric positive definite `A`, starting from `x = 0`
/// (so `r = p = b`). Holds all solver vectors internally, like the engine's
/// resident slabs.
pub struct SerialCg {
    prepared: PreparedMatrix,
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    w: Vec<f64>,
    /// Flat per-slab scratch for symmetric plans (count × nrows), grown on the
    /// first apply and zeroed per apply — the serial mirror of the workers'
    /// persistent scratch slots.
    scratch: Vec<f64>,
    partials: Vec<f64>,
    rr: f64,
    iterations: u64,
}

impl SerialCg {
    /// Start CG on `prepared` (which must be square) with right-hand side `b`.
    pub fn new(prepared: PreparedMatrix, b: &[f64]) -> Result<SerialCg> {
        let n = square_order(&prepared)?;
        if b.len() != n {
            return Err(Error::DimensionMismatch {
                expected: n,
                found: b.len(),
                what: "CG right-hand side",
            });
        }
        let count = prepared.blocks().len();
        let mut cg = SerialCg {
            prepared,
            x: vec![0.0; n],
            r: b.to_vec(),
            p: b.to_vec(),
            w: vec![0.0; n],
            scratch: Vec::new(),
            partials: vec![0.0; count],
            rr: 0.0,
            iterations: 0,
        };
        for (s, block) in cg.prepared.blocks().iter().enumerate() {
            cg.partials[s] = kernels::dot(&cg.r[block.rows()], &cg.r[block.rows()]);
        }
        cg.rr = kernels::tree_sum(count, |s| cg.partials[s]);
        cg.iterations = 0;
        Ok(cg)
    }

    /// Run one fused CG iteration; returns the updated residual norm `‖r‖₂`.
    pub fn step(&mut self) -> f64 {
        // w ← A·p, the op sequence the engine's workers run.
        self.w.fill(0.0);
        self.prepared.apply(&self.p, &mut self.w, &mut self.scratch);
        for (s, block) in self.prepared.blocks().iter().enumerate() {
            self.partials[s] = kernels::dot(&self.p[block.rows()], &self.w[block.rows()]);
        }
        let pw = kernels::tree_sum(self.partials.len(), |s| self.partials[s]);
        let alpha = self.rr / pw;
        for (s, block) in self.prepared.blocks().iter().enumerate() {
            let rows = block.rows();
            self.partials[s] = kernels::cg_update(
                alpha,
                &self.p[rows.clone()],
                &self.w[rows.clone()],
                &mut self.x[rows.clone()],
                &mut self.r[rows],
            );
        }
        let rr_new = kernels::tree_sum(self.partials.len(), |s| self.partials[s]);
        let beta = rr_new / self.rr;
        for block in self.prepared.blocks() {
            let rows = block.rows();
            kernels::xpby(&self.r[rows.clone()], beta, &mut self.p[rows]);
        }
        self.rr = rr_new;
        self.iterations += 1;
        self.rr.sqrt()
    }

    /// Current residual norm `‖r‖₂ = √(r·r)`.
    pub fn residual_norm(&self) -> f64 {
        self.rr.sqrt()
    }

    /// The raw squared residual `r·r` the state machine carries.
    pub fn rr(&self) -> f64 {
        self.rr
    }

    /// Iterations taken so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The current iterate `x`.
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// The current residual vector `r = b − A·x`.
    pub fn residual(&self) -> &[f64] {
        &self.r
    }

    /// The current search direction `p`.
    pub fn direction(&self) -> &[f64] {
        &self.p
    }
}

/// Serial power-iteration reference over a [`PreparedMatrix`], mirrored
/// op-for-op by the engine's fused `PowerStep` epoch.
///
/// Tracks the dominant eigenpair of a square matrix: each step computes
/// `w = A·q`, the Rayleigh estimate `λ = qᵀw`, and renormalizes `q ← w/‖w‖`.
pub struct SerialPower {
    prepared: PreparedMatrix,
    q: Vec<f64>,
    w: Vec<f64>,
    scratch: Vec<f64>,
    partials_a: Vec<f64>,
    partials_b: Vec<f64>,
    lambda: f64,
    iterations: u64,
}

impl SerialPower {
    /// Start power iteration from `v0` (normalized internally; must be nonzero).
    pub fn new(prepared: PreparedMatrix, v0: &[f64]) -> Result<SerialPower> {
        let n = square_order(&prepared)?;
        if v0.len() != n {
            return Err(Error::DimensionMismatch {
                expected: n,
                found: v0.len(),
                what: "power-iteration start vector",
            });
        }
        let count = prepared.blocks().len();
        let mut power = SerialPower {
            prepared,
            q: vec![0.0; n],
            w: vec![0.0; n],
            scratch: Vec::new(),
            partials_a: vec![0.0; count],
            partials_b: vec![0.0; count],
            lambda: 0.0,
            iterations: 0,
        };
        for (s, block) in power.prepared.blocks().iter().enumerate() {
            power.partials_b[s] = kernels::dot(&v0[block.rows()], &v0[block.rows()]);
        }
        let inv = 1.0 / kernels::tree_sum(count, |s| power.partials_b[s]).sqrt();
        for block in power.prepared.blocks() {
            let rows = block.rows();
            kernels::scale_from(&v0[rows.clone()], inv, &mut power.q[rows]);
        }
        Ok(power)
    }

    /// One fused power step; returns the updated Rayleigh estimate `λ = qᵀAq`.
    pub fn step(&mut self) -> f64 {
        // w ← A·q, the same apply as SerialCg::step.
        self.w.fill(0.0);
        self.prepared.apply(&self.q, &mut self.w, &mut self.scratch);
        for (s, block) in self.prepared.blocks().iter().enumerate() {
            let rows = block.rows();
            self.partials_a[s] = kernels::dot(&self.q[rows.clone()], &self.w[rows.clone()]);
            self.partials_b[s] = kernels::dot(&self.w[rows.clone()], &self.w[rows]);
        }
        self.lambda = kernels::tree_sum(self.partials_a.len(), |s| self.partials_a[s]);
        let inv = 1.0 / kernels::tree_sum(self.partials_b.len(), |s| self.partials_b[s]).sqrt();
        for block in self.prepared.blocks() {
            let rows = block.rows();
            kernels::scale_from(&self.w[rows.clone()], inv, &mut self.q[rows]);
        }
        self.iterations += 1;
        self.lambda
    }

    /// Latest Rayleigh estimate `λ = qᵀAq` (0 before the first step).
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Iterations taken so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The current normalized iterate `q`.
    pub fn eigenvector(&self) -> &[f64] {
        &self.q
    }
}

fn square_order(prepared: &PreparedMatrix) -> Result<usize> {
    if prepared.nrows() != prepared.ncols() {
        return Err(Error::InvalidStructure(format!(
            "iterative solvers require a square matrix, got {}x{}",
            prepared.nrows(),
            prepared.ncols()
        )));
    }
    Ok(prepared.nrows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::traits::SpMv;
    use crate::formats::{CooMatrix, CsrMatrix};
    use crate::tuning::{TunePlan, TuningConfig};

    /// Small SPD system: A = tridiag(-1, 4, -1), x* = all-ones, b = A·x*.
    fn spd_system(n: usize) -> (CsrMatrix, Vec<f64>) {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        let csr = CsrMatrix::from_coo(&coo);
        let b = csr.spmv_alloc(&vec![1.0; n]);
        (csr, b)
    }

    fn prepared(csr: &CsrMatrix, threads: usize, config: &TuningConfig) -> PreparedMatrix {
        PreparedMatrix::materialize(csr, &TunePlan::new(csr, threads, config)).unwrap()
    }

    #[test]
    fn serial_cg_converges_to_known_solution() {
        let (csr, b) = spd_system(64);
        for config in [TuningConfig::full(), TuningConfig::naive()] {
            let mut cg = SerialCg::new(prepared(&csr, 3, &config), &b).unwrap();
            let mut res = cg.residual_norm();
            for _ in 0..200 {
                res = cg.step();
                if res < 1e-11 {
                    break;
                }
            }
            assert!(res < 1e-11, "CG failed to converge: {res}");
            let err = cg
                .solution()
                .iter()
                .map(|v| (v - 1.0).abs())
                .fold(0.0f64, f64::max);
            assert!(err < 1e-9, "solution error {err}");
        }
    }

    #[test]
    fn serial_cg_partition_count_does_not_change_convergence() {
        let (csr, b) = spd_system(50);
        let config = TuningConfig::full();
        for threads in [1, 2, 7, 53] {
            let mut cg = SerialCg::new(prepared(&csr, threads, &config), &b).unwrap();
            for _ in 0..120 {
                if cg.step() < 1e-11 {
                    break;
                }
            }
            assert!(cg.residual_norm() < 1e-11, "threads={threads}");
        }
    }

    #[test]
    fn serial_power_finds_dominant_eigenvalue() {
        // Diagonal matrix: dominant eigenvalue is the largest diagonal entry.
        let n = 24;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0 + i as f64);
        }
        let csr = CsrMatrix::from_coo(&coo);
        let mut power =
            SerialPower::new(prepared(&csr, 3, &TuningConfig::full()), &vec![1.0; n]).unwrap();
        let mut lambda = 0.0;
        for _ in 0..300 {
            lambda = power.step();
        }
        assert!((lambda - n as f64).abs() < 1e-6, "lambda={lambda}");
    }

    #[test]
    fn solvers_reject_non_square_and_mismatched_inputs() {
        let coo = CooMatrix::from_triplets(3, 4, vec![(0, 0, 1.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let prep = prepared(&csr, 1, &TuningConfig::naive());
        assert!(SerialCg::new(prep.clone(), &[1.0; 4]).is_err());
        assert!(SerialPower::new(prep, &[1.0; 4]).is_err());

        let (sq, _) = spd_system(4);
        let prep = prepared(&sq, 1, &TuningConfig::naive());
        assert!(SerialCg::new(prep, &[1.0; 3]).is_err());
    }
}
