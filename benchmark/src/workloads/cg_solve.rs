//! `cg-solve`: time to a solution of stated accuracy.
//!
//! The symmetric `fem_cantilever` made positive definite, registered in a
//! `MatrixRegistry` with `nproc` engine threads; seeded unit-norm right-hand
//! sides each run `reset(b)` → `solve(1e-8, 2000)` on one `SolverSession`.
//! Every solve is one sample and is re-checked by its true residual with the
//! plain CSR kernel. This uses the kernel layer differently from `spmv-lib`:
//! lower-triangle storage, fused dot/axpy, tree reduction, one barrier per
//! iteration; batcher and wire are bypassed.

use super::{generate_spd_csr, measure_over_setups, timed, Ctx};
use crate::constants::{
    CG_LAYER_STEPS, CG_MATRIX, CG_MAX_ITERS, CG_RHS_POOL, CG_TAIL_P, CG_TOL,
    CG_TRUE_RESIDUAL_LIMIT, SPD_DOMINANCE,
};
use crate::inputs::{true_residual, Rng};
use crate::metrics::Outcome;
use crate::stats::{median, quiet_summary, summarize, Rank, Sample};
use crate::trace::{SpanId, Tracer};
use spmv_core::formats::CsrMatrix;
use spmv_core::tuning::{PreparedMatrix, TunePlan, TuningConfig};
use spmv_core::{MatrixShape, SerialCg};
use spmv_parallel::{FusedCg, SpmvEngine};
use spmv_serve::{MatrixRegistry, SolverSession};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAME: &str = "fem_cantilever_spd";

struct Fixture {
    csr: Arc<CsrMatrix>,
    plan: TunePlan,
    // Keeps the served matrix (and its engine) alive behind the session.
    _registry: MatrixRegistry,
    session: SolverSession,
}

fn build(ctx: &Ctx) -> (Fixture, Vec<f64>) {
    let (csr, gen_s) = generate_spd_csr(CG_MATRIX.0, ctx.scale(CG_MATRIX.1), SPD_DOMINANCE);
    let csr = Arc::new(csr);
    let config = TuningConfig::full();
    let (plan, plan_s) = timed(|| TunePlan::new(&csr, ctx.nproc(), &config));
    let ((registry, session), insert_s) = timed(|| {
        let registry = MatrixRegistry::new(ctx.nproc(), config);
        registry
            .insert_arc_with_plan(NAME, Arc::clone(&csr), plan.clone())
            .expect("a fresh plan fits its matrix");
        let session = registry
            .solver_session(NAME, &vec![0.0; csr.nrows()])
            .expect("the SPD matrix is square");
        (registry, session)
    });
    let fixture = Fixture {
        csr,
        plan,
        _registry: registry,
        session,
    };
    (fixture, vec![gen_s, plan_s, insert_s])
}

/// Wall seconds (stamped on the run's clock) and iteration count of every
/// solve, pooled over the set-ups.
#[derive(Default)]
struct Solves {
    seconds: Vec<Sample>,
    iters: Vec<u64>,
}

fn measure(
    ctx: &Ctx,
    fx: &mut Fixture,
    rhs: &[Vec<f64>],
    seconds: f64,
    tracer: &Tracer,
    solves: &mut Solves,
    out: &mut Outcome,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut n = 0usize;
    while Instant::now() < deadline {
        let b = &rhs[n % rhs.len()];
        let request = n as u64;
        let parent = tracer.open("cg-solve.solve", request, SpanId::NONE);
        let start = Instant::now();
        let reset = fx.session.reset(b);
        let mid = Instant::now();
        let ran = reset.and_then(|()| fx.session.solve(CG_TOL, CG_MAX_ITERS));
        let end = Instant::now();
        tracer.record("serve.session_reset", request, parent, start, Some(mid));
        tracer.record("serve.session_solve", request, parent, mid, Some(end));
        let ok = match ran {
            Ok(iters) => {
                solves.seconds.push(Sample {
                    at: ctx.at(end),
                    value: (end - start).as_secs_f64(),
                });
                solves.iters.push(iters);
                let x = tracer.span("serve.session_extract", request, parent, |_| {
                    fx.session.extract()
                });
                tracer.span("oracle.true_residual", request, parent, |_| {
                    // ‖b‖ = 1, so the absolute residual is the relative one.
                    iters < CG_MAX_ITERS && true_residual(&fx.csr, &x, b) <= CG_TRUE_RESIDUAL_LIMIT
                })
            }
            Err(_) => false,
        };
        tracer.close(parent);
        out.count(ok);
        n += 1;
    }
}

/// Median microseconds of one call of `step`, over [`CG_LAYER_STEPS`] calls.
fn step_us(steps: u64, mut step: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..steps)
        .map(|_| {
            let t = Instant::now();
            step();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut us)
}

pub fn run(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let (mut solves, mut traced) = (Solves::default(), Solves::default());
    let mut rhs: Option<Vec<Vec<f64>>> = None;
    let off = Tracer::new(false);
    let (fx, setup_s, steps) = measure_over_setups(
        ctx,
        || build(ctx),
        |fx, seconds| {
            let rhs = rhs.get_or_insert_with(|| {
                let mut rng = Rng::fork(ctx.seed, 2);
                (0..CG_RHS_POOL)
                    .map(|_| rng.unit_vector(fx.csr.nrows()))
                    .collect()
            });
            if ctx.trace {
                measure(ctx, fx, rhs, seconds / 2.0, &off, &mut solves, out);
                measure(ctx, fx, rhs, seconds / 2.0, tracer, &mut traced, out);
            } else {
                measure(ctx, fx, rhs, seconds, &off, &mut solves, out);
            }
        },
    );
    let rhs = rhs.expect("at least one set-up ran");

    // A solve lasts some 45 ms, long enough to average over the host's slow
    // spells, so solve times form one broad hump whose middle follows the
    // host's load (whole-run medians of identical runs spread by 22 %) while
    // its floor does not (the quietest slice: 10 %).
    let solve = quiet_summary(&solves.seconds, CG_TAIL_P, Rank::Quietest);
    if solve.n == 0 {
        out.flag("cg-solve: no solve completed".to_string());
        return;
    }
    let nnz = fx.csr.nnz() as f64;
    // The pool is cycled and reductions are fixed-order, so the iteration
    // counts repeat exactly; one iteration is the quiet solve over their median.
    let iters = median(&mut solves.iters.iter().map(|&i| i as f64).collect::<Vec<_>>());
    let per_iter_ms = solve.p50 * 1e3 / iters.max(1.0);

    if !ctx.trace {
        out.set("setup_s", setup_s, ctx.setup_reps());
        out.set("op_p50_ms", solve.p50 * 1e3, solve.n);
        out.set("op_tail_ms", solve.tail * 1e3, solve.n);
        out.set("base_p50_ms", per_iter_ms, solve.n);
        // One SpMV (2·nnz flops) per CG iteration; vector updates not counted.
        out.set("gflops", 2.0 * nnz / (per_iter_ms * 1e-3) / 1e9, solve.n);
        return;
    }

    out.set(
        "obs.trace_overhead_share",
        quiet_summary(&traced.seconds, CG_TAIL_P, Rank::Quietest).p50 / solve.p50,
        solve.n,
    );
    out.set("solve_s", solve.p50, solve.n);
    out.set(
        "solve_s_p95",
        summarize(
            &mut solves.seconds.iter().map(|s| s.value).collect::<Vec<_>>(),
            95.0,
        )
        .tail,
        solve.n,
    );
    out.set("matrices.gen_s.fem_cantilever", steps[0], ctx.setup_reps());
    out.set("tuning.plan_s.fem_cantilever", steps[1], ctx.setup_reps());
    out.set("serve.insert_s", steps[2], ctx.setup_reps());
    out.set("serve.solver_iter_us", per_iter_ms * 1e3, solve.n);
    // Reductions are fixed-order, so this count repeats exactly for a seed:
    // the mean over the first pass through the right-hand-side pool.
    let first_pass = &solves.iters[..solves.iters.len().min(rhs.len())];
    out.set(
        "serve.solve_iters",
        first_pass.iter().sum::<u64>() as f64 / first_pass.len() as f64,
        first_pass.len(),
    );

    // The layers below the session, on the same plan and matrix.
    let prepared = PreparedMatrix::materialize(&fx.csr, &fx.plan).expect("plan fits its matrix");
    let mut serial = SerialCg::new(prepared, &rhs[0]).expect("the SPD matrix is square");
    let layer_steps = if ctx.smoke { 20 } else { CG_LAYER_STEPS };
    out.set(
        "kernels.sym_iter_us",
        step_us(layer_steps, || {
            serial.step();
        }),
        layer_steps as usize,
    );
    let engine = SpmvEngine::from_plan(&fx.csr, &fx.plan).expect("plan fits its matrix");
    let mut fused = FusedCg::new(engine, &rhs[0]);
    out.set(
        "engine.cg_iter_us",
        step_us(layer_steps, || {
            fused.step();
        }),
        layer_steps as usize,
    );
    let profile = fused.engine().profile();
    let worker_ns = (profile.kernel_ns() + profile.barrier_ns()).max(1) as f64;
    out.set(
        "engine.cg_barrier_share",
        profile.barrier_ns() as f64 / worker_ns,
        profile.solver_epochs as usize,
    );
}
