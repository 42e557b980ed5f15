//! Fused in-engine iterative solvers over the resident vector slabs.
//!
//! An iterative solver is the reason SpMV gets tuned at all (the paper frames
//! every optimization around solver inner loops), yet driving one through
//! repeated [`SpmvEngine::spmv`] calls pays a full launch/completion epoch per
//! kernel — SpMV, two dot products, and the vector updates of one CG step cost
//! ~4 synchronizations — and round-trips `x`/`y` through the client on every
//! call. The fused drivers here keep the whole solver state (`x`, `r`, `p`,
//! `w`) resident in the engine's first-touch worker slabs and run **one whole
//! iteration per epoch**: a single launch/completion round-trip per CG (or
//! power) step, with the scalar reductions folded in the deterministic pairwise
//! tree order shared with the serial reference. Because the recurrence scalar
//! is derived locally by every worker, CG epochs also batch:
//! [`FusedCg::iterate`] runs `k` whole iterations under one round-trip, bit
//! for bit the same as `k` single steps.
//!
//! Both drivers are bit-identical to their serial twins within an accumulation
//! class: [`FusedCg`] matches [`spmv_core::solver::SerialCg`] and
//! [`FusedPower`] matches [`spmv_core::solver::SerialPower`] step for step on
//! the same plan, at any worker count.

use crate::engine::SpmvEngine;

/// Iterations per batched epoch in [`FusedCg::run`]: large enough to amortize
/// the launch/completion round-trip, small enough that a converged solve
/// barely overshoots its tolerance.
pub const RUN_BATCH: u64 = 8;

/// Fused conjugate gradient over an engine's resident slabs: `solve A·x = b`
/// for symmetric positive-definite `A`, one epoch per iteration.
///
/// The driver owns the engine; the iterate never leaves the workers' memory
/// until [`FusedCg::solution`] (or [`FusedCg::state`]) reads it. Retuning under
/// iteration goes through [`FusedCg::swap_engine`]: the resident state is
/// re-seeded into the replacement engine (first-touch copied by its own
/// workers) and the squared residual is carried across, so convergence
/// continues exactly where it left off.
pub struct FusedCg {
    engine: SpmvEngine,
    rr: f64,
    iterations: u64,
    /// Residual-curve checkpoints `(iterations, rr)`, one per iterate batch,
    /// thinned to [`CHECKPOINT_CAP`] by dropping every other point — a
    /// bounded-memory sketch of the whole convergence trajectory.
    checkpoints: Vec<(u64, f64)>,
}

/// Maximum retained residual checkpoints per solve.
pub const CHECKPOINT_CAP: usize = 64;

impl FusedCg {
    /// Start CG on `engine` with right-hand side `b` (initial guess `x = 0`).
    ///
    /// One init epoch: workers zero/fill their row slices of the resident
    /// slabs (their first touch, placing the pages) and contribute the
    /// per-slice `r·r` partials.
    pub fn new(mut engine: SpmvEngine, b: &[f64]) -> FusedCg {
        let rr = engine.cg_init(b);
        FusedCg {
            engine,
            rr,
            iterations: 0,
            checkpoints: vec![(0, rr)],
        }
    }

    /// One fused CG iteration under a single epoch. Returns the updated
    /// squared residual `r·r`.
    pub fn step(&mut self) -> f64 {
        self.iterate(1)
    }

    /// `steps` fused CG iterations under a **single** epoch: the workers carry
    /// the recurrence scalar locally between iterations, so the whole batch
    /// costs one launch/completion round-trip. Bit-identical to `steps` calls
    /// of [`FusedCg::step`]. Returns the squared residual after the batch.
    pub fn iterate(&mut self, steps: u64) -> f64 {
        self.rr = self.engine.cg_step(steps, self.rr);
        self.iterations += steps;
        self.checkpoint();
        spmv_obs::trace::trace(spmv_obs::TraceKind::SolverIterate, steps, self.rr.to_bits());
        self.rr
    }

    /// Record `(iterations, rr)`; at capacity, thin by keeping every other
    /// point so the retained curve still spans the whole solve.
    fn checkpoint(&mut self) {
        if self.checkpoints.len() >= CHECKPOINT_CAP {
            let mut keep = 0;
            self.checkpoints.retain(|_| {
                keep += 1;
                keep % 2 == 1
            });
        }
        self.checkpoints.push((self.iterations, self.rr));
    }

    /// Iterate until `‖r‖ ≤ tol` or `max_iters` steps, whichever first.
    /// Returns the number of iterations run by this call.
    ///
    /// Iterations run in small batched epochs ([`RUN_BATCH`]), checking the
    /// residual between batches — the trajectory is bit-identical to
    /// single-stepping, but the call may overshoot `tol` by up to
    /// `RUN_BATCH - 1` iterations.
    pub fn run(&mut self, tol: f64, max_iters: u64) -> u64 {
        let mut ran = 0;
        while ran < max_iters && self.residual_norm() > tol {
            let batch = RUN_BATCH.min(max_iters - ran);
            self.iterate(batch);
            ran += batch;
        }
        ran
    }

    /// Restart on a new right-hand side (iterate reset to `x = 0`).
    pub fn reinit(&mut self, b: &[f64]) {
        self.rr = self.engine.cg_init(b);
        self.iterations = 0;
        self.checkpoints.clear();
        self.checkpoints.push((0, self.rr));
    }

    /// The retained residual-curve checkpoints `(iterations, rr)`, oldest
    /// first (thinned once the solve exceeds [`CHECKPOINT_CAP`] batches).
    pub fn residual_checkpoints(&self) -> &[(u64, f64)] {
        &self.checkpoints
    }

    /// The squared residual `r·r` after the last step.
    pub fn rr(&self) -> f64 {
        self.rr
    }

    /// The residual norm `‖r‖` after the last step.
    pub fn residual_norm(&self) -> f64 {
        self.rr.sqrt()
    }

    /// Fused iterations run since construction (or the last reinit/load).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The current iterate `x` (a view into the resident slab).
    pub fn solution(&self) -> &[f64] {
        self.state().0
    }

    /// The full resident state `(x, r, p)` — the extraction point of a
    /// stateful session.
    pub fn state(&self) -> (&[f64], &[f64], &[f64]) {
        self.engine
            .solver_state()
            .expect("FusedCg always holds resident slabs")
    }

    /// The engine serving this solve (e.g. for footprint reports).
    pub fn engine(&self) -> &SpmvEngine {
        &self.engine
    }

    /// Hot-swap the serving engine mid-solve (the retune-under-iteration
    /// path): the resident `(x, r, p)` is loaded into `replacement` — copied
    /// by its own workers, preserving first-touch placement — the engines are
    /// swapped, and the old one is returned for the caller to drop off the
    /// hot path. The squared residual carries over, so the next [`FusedCg::step`]
    /// continues the same convergence trajectory on the new plan.
    pub fn swap_engine(&mut self, mut replacement: SpmvEngine) -> SpmvEngine {
        {
            let (x, r, p) = self.state();
            replacement.cg_load(x, r, p);
        }
        self.engine.swap_with(replacement)
    }
}

/// Fused power iteration over an engine's resident slabs: dominant
/// eigenpair of `A`, one epoch per iteration (the PageRank-shaped workload).
pub struct FusedPower {
    engine: SpmvEngine,
    lambda: f64,
    iterations: u64,
}

impl FusedPower {
    /// Start power iteration from `v0` (normalized in the init epoch; the
    /// iterate `q` lives in the engine's `p` slab).
    pub fn new(mut engine: SpmvEngine, v0: &[f64]) -> FusedPower {
        engine.power_init(v0);
        FusedPower {
            engine,
            lambda: 0.0,
            iterations: 0,
        }
    }

    /// One fused step (`w ← A·q`, Rayleigh + norm, `q ← w/‖w‖`) under a
    /// single epoch. Returns the Rayleigh estimate `λ = qᵀAq`.
    pub fn step(&mut self) -> f64 {
        self.lambda = self.engine.power_step();
        self.iterations += 1;
        self.lambda
    }

    /// The last Rayleigh estimate (0 before the first step).
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Fused iterations run since construction.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The current normalized iterate (a view into the resident `p` slab).
    pub fn eigenvector(&self) -> &[f64] {
        self.engine
            .solver_state()
            .expect("FusedPower always holds resident slabs")
            .2
    }

    /// The engine serving this iteration.
    pub fn engine(&self) -> &SpmvEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spmv_core::formats::{CooMatrix, CsrMatrix};
    use spmv_core::solver::{SerialCg, SerialPower};
    use spmv_core::tuning::prepared::PreparedMatrix;
    use spmv_core::tuning::{TunePlan, TuningConfig};

    /// Symmetric positive-definite test system: random symmetric off-diagonal
    /// pattern made diagonally dominant.
    fn spd_csr(n: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        let mut row_sums = vec![0.0f64; n];
        for _ in 0..3 * n {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..n);
            if i == j {
                continue;
            }
            let v = rng.random_range(-1.0..1.0);
            coo.push(i, j, v);
            coo.push(j, i, v);
            row_sums[i] += v.abs();
            row_sums[j] += v.abs();
        }
        for (i, s) in row_sums.iter().enumerate() {
            coo.push(i, i, s + 1.0);
        }
        CsrMatrix::from_coo(&coo)
    }

    fn rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    /// The general pipeline's timed plan of `csr`, or its symmetric-storage
    /// plan on the same partition.
    fn plan_of(csr: &CsrMatrix, nthreads: usize, symmetric: bool) -> TunePlan {
        let plan = if symmetric {
            TunePlan::new_symmetric(csr, nthreads, &TuningConfig::full()).unwrap()
        } else {
            let general = TuningConfig {
                exploit_symmetry: false,
                ..TuningConfig::full()
            };
            TunePlan::new(csr, nthreads, &general)
        };
        assert_eq!(plan.symmetric, symmetric);
        plan
    }

    /// Fused CG must be bit-identical to the serial reference on the same
    /// plan, at every worker count, for as long as both iterate.
    #[test]
    fn fused_cg_bit_identical_to_serial() {
        let n = 53;
        let csr = spd_csr(n, 11);
        let b = rhs(n, 12);
        for config in [TuningConfig::naive(), TuningConfig::full()] {
            for nthreads in [1, 2, n + 3] {
                let plan = TunePlan::new(&csr, nthreads, &config);
                let prepared = PreparedMatrix::materialize(&csr, &plan).unwrap();
                let mut serial = SerialCg::new(prepared, &b).unwrap();
                let engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
                let mut fused = FusedCg::new(engine, &b);
                assert_eq!(
                    serial.rr().to_bits(),
                    fused.rr().to_bits(),
                    "initial rr diverges (threads={nthreads})"
                );
                for it in 0..25 {
                    serial.step();
                    fused.step();
                    assert_eq!(
                        serial.rr().to_bits(),
                        fused.rr().to_bits(),
                        "rr diverges at iteration {it} (threads={nthreads})"
                    );
                }
                for (i, (s, f)) in serial.solution().iter().zip(fused.solution()).enumerate() {
                    assert_eq!(
                        s.to_bits(),
                        f.to_bits(),
                        "x[{i}] diverges (threads={nthreads})"
                    );
                }
            }
        }
    }

    /// Batched epochs change no arithmetic: `iterate(k)` lands bit-identically
    /// on the trajectory of `k` single-step epochs, on general and symmetric
    /// plans, at worker counts spanning 1 to oversubscribed.
    #[test]
    fn batched_epochs_bit_identical_to_single_steps() {
        let n = 41;
        let csr = spd_csr(n, 51);
        let b = rhs(n, 52);
        for symmetric in [false, true] {
            for nthreads in [1, 3, n + 3] {
                let plan = plan_of(&csr, nthreads, symmetric);
                let engine_a = SpmvEngine::from_plan(&csr, &plan).unwrap();
                let engine_b = SpmvEngine::from_plan(&csr, &plan).unwrap();
                let mut stepped = FusedCg::new(engine_a, &b);
                let mut batched = FusedCg::new(engine_b, &b);
                for batch in [1u64, 2, 5, 8, 16] {
                    for _ in 0..batch {
                        stepped.step();
                    }
                    batched.iterate(batch);
                    assert_eq!(stepped.iterations(), batched.iterations());
                    assert_eq!(
                        stepped.rr().to_bits(),
                        batched.rr().to_bits(),
                        "rr after batch of {batch} (threads={nthreads}, sym={})",
                        plan.symmetric
                    );
                }
                let (xa, ra, pa) = stepped.state();
                let (xb, rb, pb) = batched.state();
                for (a, b, what) in [(xa, xb, "x"), (ra, rb, "r"), (pa, pb, "p")] {
                    assert!(
                        a.iter().zip(b).all(|(u, v)| u.to_bits() == v.to_bits()),
                        "{what} diverged (threads={nthreads}, sym={})",
                        plan.symmetric
                    );
                }
            }
        }
    }

    /// Same contract on a symmetric-storage plan (the scratch-reduction
    /// Phase A) — fused vs serial symmetric reference.
    #[test]
    fn fused_cg_bit_identical_symmetric() {
        let n = 41;
        let csr = spd_csr(n, 21);
        let b = rhs(n, 22);
        let config = TuningConfig {
            exploit_symmetry: true,
            ..TuningConfig::full()
        };
        for nthreads in [1, 2, 7] {
            let plan = TunePlan::new_symmetric(&csr, nthreads, &config).unwrap();
            let prepared = PreparedMatrix::materialize(&csr, &plan).unwrap();
            let mut serial = SerialCg::new(prepared, &b).unwrap();
            let engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
            let mut fused = FusedCg::new(engine, &b);
            for it in 0..20 {
                serial.step();
                fused.step();
                assert_eq!(
                    serial.rr().to_bits(),
                    fused.rr().to_bits(),
                    "rr diverges at iteration {it} (threads={nthreads})"
                );
            }
        }
    }

    /// Fused power iteration matches the serial reference bit for bit, on
    /// general and symmetric plans.
    #[test]
    fn fused_power_bit_identical_to_serial() {
        let n = 37;
        let csr = spd_csr(n, 31);
        let v0 = rhs(n, 32);
        let cases = [false, true]
            .into_iter()
            .flat_map(|symmetric| [1, 2, n + 3].map(|nthreads| (symmetric, nthreads)));
        for (symmetric, nthreads) in cases {
            let plan = plan_of(&csr, nthreads, symmetric);
            let prepared = PreparedMatrix::materialize(&csr, &plan).unwrap();
            let mut serial = SerialPower::new(prepared, &v0).unwrap();
            let engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
            let mut fused = FusedPower::new(engine, &v0);
            for it in 0..30 {
                let s = serial.step();
                let f = fused.step();
                assert_eq!(
                    s.to_bits(),
                    f.to_bits(),
                    "lambda diverges at iteration {it} (threads={nthreads}, sym={symmetric})"
                );
            }
            for (s, f) in serial.eigenvector().iter().zip(fused.eigenvector()) {
                assert_eq!(s.to_bits(), f.to_bits());
            }
        }
    }

    /// CG converges on an SPD system and the recomputed true residual agrees
    /// with the recurrence.
    #[test]
    fn fused_cg_converges() {
        let n = 64;
        let csr = spd_csr(n, 41);
        let b = rhs(n, 42);
        let engine = SpmvEngine::tuned(&csr, 4, &TuningConfig::full()).unwrap();
        let mut cg = FusedCg::new(engine, &b);
        cg.run(1e-10, 500);
        assert!(cg.residual_norm() <= 1e-10, "rr = {}", cg.rr());
        // True residual b - A·x.
        let mut ax = vec![0.0; n];
        use spmv_core::SpMv;
        csr.spmv(cg.solution(), &mut ax);
        let true_res = b
            .iter()
            .zip(&ax)
            .map(|(bi, ai)| (bi - ai) * (bi - ai))
            .sum::<f64>()
            .sqrt();
        assert!(true_res < 1e-8, "true residual {true_res}");
    }

    /// Hot-swapping the engine mid-solve (retune-under-iteration): swapping to
    /// a same-plan replacement continues the serial trajectory bit for bit
    /// (the re-seeded state is an exact copy), and swapping to a differently
    /// partitioned plan still converges from the carried state. On general
    /// and symmetric plans.
    #[test]
    fn swap_engine_preserves_trajectory() {
        let n = 48;
        let csr = spd_csr(n, 51);
        let b = rhs(n, 52);
        for symmetric in [false, true] {
            swap_engine_preserves_trajectory_on(&csr, &b, symmetric);
        }
    }

    fn swap_engine_preserves_trajectory_on(csr: &CsrMatrix, b: &[f64], symmetric: bool) {
        let plan = plan_of(csr, 3, symmetric);
        let prepared = PreparedMatrix::materialize(csr, &plan).unwrap();
        let mut serial = SerialCg::new(prepared, b).unwrap();
        let engine = SpmvEngine::from_plan(csr, &plan).unwrap();
        let mut fused = FusedCg::new(engine, b);
        for _ in 0..5 {
            serial.step();
            fused.step();
        }
        // Same plan → same accumulation class → bitwise continuation.
        let replacement = SpmvEngine::from_plan(csr, &plan).unwrap();
        let old = fused.swap_engine(replacement);
        drop(old);
        for it in 0..10 {
            serial.step();
            fused.step();
            assert_eq!(
                serial.rr().to_bits(),
                fused.rr().to_bits(),
                "rr diverges at step {it} after same-plan swap (sym={symmetric})"
            );
        }
        // Different partition → different accumulation class, but the carried
        // state keeps converging to the same solution.
        let plan2 = plan_of(csr, 5, symmetric);
        let replacement = SpmvEngine::from_plan(csr, &plan2).unwrap();
        let old = fused.swap_engine(replacement);
        drop(old);
        fused.run(1e-10, 500);
        assert!(
            fused.residual_norm() <= 1e-10,
            "no convergence after retune swap (sym={symmetric}): rr = {}",
            fused.rr()
        );
    }
}
