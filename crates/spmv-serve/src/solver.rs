//! Stateful solver sessions over served matrices.
//!
//! A [`SolverSession`] is a long-lived conjugate-gradient solve bound to one
//! [`ServedMatrix`]: the client creates it with a right-hand side, drives it
//! with `iterate(n)` batches, polls the recurrence residual, and extracts the
//! solution — the solver vectors stay resident in a dedicated
//! [`SpmvEngine`](spmv_parallel::SpmvEngine) between calls, so every batch of
//! iterations runs the fused single-barrier CG epochs with zero per-call
//! allocation or replanning.
//!
//! The session engine is built from the served matrix's *current* tune plan
//! but is otherwise independent of the serving engine: SpMV/SpMM traffic on
//! the registry never contends with an in-flight solve. When the registry
//! retunes the matrix ([`ServedMatrix::swap_plan`] /
//! [`MatrixRegistry::retune_background`]), the session notices on its next
//! `iterate`/`solve` call (via the served retune counter) and hot-swaps its
//! engine onto the winning plan with [`FusedCg::swap_engine`] — the resident
//! `(x, r, p)` state is carried across and the solve continues without
//! restarting.

use std::sync::Arc;

use spmv_parallel::engine::SpmvEngine;
use spmv_parallel::solver::{FusedCg, RUN_BATCH};

use crate::registry::{MatrixRegistry, ServedMatrix};
use crate::{Result, ServeError};

/// A stateful CG solve over a [`ServedMatrix`], with resident vectors and
/// retune-under-iteration.
///
/// Created via [`ServedMatrix::solver_session`] or
/// [`MatrixRegistry::solver_session`]. Not `Sync`: a session is a
/// single-client object (each client owns its own solve state); the shared,
/// concurrent surface is the registry it was created from.
pub struct SolverSession {
    served: Arc<ServedMatrix>,
    cg: FusedCg,
    /// Value of [`ServedMatrix::retune_count`] the session engine's plan came
    /// from; a mismatch on entry to `iterate`/`solve` triggers a resync.
    engine_retunes: u64,
    resyncs: u64,
}

impl SolverSession {
    pub(crate) fn create(served: Arc<ServedMatrix>, b: &[f64]) -> Result<SolverSession> {
        if served.nrows() != served.ncols() {
            return Err(ServeError::NotSquare {
                nrows: served.nrows(),
                ncols: served.ncols(),
            });
        }
        if b.len() != served.ncols() {
            return Err(ServeError::DimensionMismatch {
                expected: served.ncols(),
                found: b.len(),
            });
        }
        let engine = served.build_solver_engine()?;
        let engine_retunes = served.retune_count();
        served.note_solver_session();
        Ok(SolverSession {
            served,
            cg: FusedCg::new(engine, b),
            engine_retunes,
            resyncs: 0,
        })
    }

    /// The served matrix this session solves against.
    pub fn matrix(&self) -> &Arc<ServedMatrix> {
        &self.served
    }

    /// If the served matrix was retuned since this session's engine was
    /// built, rebuild on the current plan and hot-swap it under the resident
    /// state. Returns `true` when a swap happened.
    ///
    /// Called automatically on entry to [`iterate`](Self::iterate) and
    /// [`solve`](Self::solve); exposed for clients that want to resync at a
    /// specific point (e.g. right after [`MatrixRegistry::retune`]).
    pub fn resync(&mut self) -> Result<bool> {
        let current = self.served.retune_count();
        if current == self.engine_retunes {
            return Ok(false);
        }
        let replacement = self.served.build_solver_engine()?;
        drop(self.cg.swap_engine(replacement));
        self.engine_retunes = current;
        self.resyncs += 1;
        self.served.note_solver_resync();
        spmv_obs::trace::trace(
            spmv_obs::TraceKind::SolverResync,
            self.served.fingerprint().hash,
            self.resyncs,
        );
        Ok(true)
    }

    /// Run up to `steps` fused CG iterations and return the recurrence
    /// residual norm `‖r‖` afterwards. Iterations run in batched epochs (one
    /// engine round-trip per [`RUN_BATCH`] iterations, bit-identical to
    /// single-stepping); the loop stops early if the recurrence hits exact
    /// zero (further steps would divide by it).
    pub fn iterate(&mut self, steps: u64) -> Result<f64> {
        self.resync()?;
        let before = self.cg.iterations();
        let mut left = steps;
        while left > 0 {
            if self.cg.rr() == 0.0 || !self.cg.rr().is_finite() {
                break;
            }
            let batch = left.min(RUN_BATCH);
            self.cg.iterate(batch);
            left -= batch;
        }
        self.served
            .note_solver_iterations(self.cg.iterations().saturating_sub(before));
        Ok(self.cg.residual_norm())
    }

    /// Iterate until `‖r‖ ≤ tol` or `max_iters` additional iterations, and
    /// return how many iterations this call ran.
    pub fn solve(&mut self, tol: f64, max_iters: u64) -> Result<u64> {
        self.resync()?;
        let ran = self.cg.run(tol, max_iters);
        self.served.note_solver_iterations(ran);
        Ok(ran)
    }

    /// Restart the session on a new right-hand side (`x ← 0`), keeping the
    /// resident engine.
    pub fn reset(&mut self, b: &[f64]) -> Result<()> {
        if b.len() != self.served.ncols() {
            return Err(ServeError::DimensionMismatch {
                expected: self.served.ncols(),
                found: b.len(),
            });
        }
        self.cg.reinit(b);
        Ok(())
    }

    /// Recurrence residual norm `‖r‖` of the current iterate.
    pub fn residual_norm(&self) -> f64 {
        self.cg.residual_norm()
    }

    /// Squared recurrence residual `rᵀr` (the quantity the fused epochs carry).
    pub fn rr(&self) -> f64 {
        self.cg.rr()
    }

    /// Total CG iterations across the session (survives resyncs and resets
    /// do not: [`reset`](Self::reset) zeroes it with the state).
    pub fn iterations(&self) -> u64 {
        self.cg.iterations()
    }

    /// How many times the session hot-swapped onto a retuned plan.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// The residual-curve checkpoints `(iteration, rᵀr)` recorded so far —
    /// thinned to a bounded set ([`spmv_parallel::solver::CHECKPOINT_CAP`]),
    /// always ending at the current iterate.
    pub fn residual_checkpoints(&self) -> &[(u64, f64)] {
        self.cg.residual_checkpoints()
    }

    /// Borrow the current iterate `x` (resident; no copy).
    pub fn solution(&self) -> &[f64] {
        self.cg.solution()
    }

    /// Extract an owned copy of the current iterate `x`.
    pub fn extract(&self) -> Vec<f64> {
        self.cg.solution().to_vec()
    }
}

impl std::fmt::Debug for SolverSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverSession")
            .field("matrix", &self.served.name())
            .field("iterations", &self.iterations())
            .field("residual_norm", &self.residual_norm())
            .field("resyncs", &self.resyncs)
            .finish()
    }
}

impl ServedMatrix {
    /// Open a stateful CG solver session on this matrix with right-hand side
    /// `b` (`x₀ = 0`). The matrix must be square.
    pub fn solver_session(self: &Arc<Self>, b: &[f64]) -> Result<SolverSession> {
        SolverSession::create(Arc::clone(self), b)
    }

    /// Build a fresh engine on the current plan for a solver session.
    pub(crate) fn build_solver_engine(&self) -> Result<SpmvEngine> {
        Ok(SpmvEngine::from_plan(self.csr_arc(), &self.plan())?)
    }
}

impl MatrixRegistry {
    /// Open a [`SolverSession`] on the named matrix. Fails with
    /// [`ServeError::UnknownMatrix`] if the name is not registered,
    /// [`ServeError::NotSquare`] if the matrix cannot host CG, and
    /// [`ServeError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solver_session(&self, name: &str, b: &[f64]) -> Result<SolverSession> {
        let served = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownMatrix(name.to_string()))?;
        served.solver_session(b)
    }
}
