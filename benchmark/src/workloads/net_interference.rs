//! `net-interference`: a closed-loop victim beside a kernel-heavy aggressor.
//!
//! Same server as `net-open`, two connections. The *victim* sends window-1
//! `Spmv` requests on `fem_cantilever` (quarter) and records each latency: a
//! third of the window alone, then the rest while the *aggressor* connection
//! runs a fixed script back to back — `Spmm` k=8 on `economics` (quarter) and,
//! every fourth op, `SolverIterate{steps: 16}` on the SPD `fem_cantilever`.
//! `Spmm` is split into k tickets and re-coalesced by the batcher; solver
//! iterations run inline on the poll thread and head-of-line block the victim.

use super::net_common::{start_server, NetFixture};
use super::{generate_csr, generate_spd_csr, measure_over_setups, Ctx};
use crate::constants::{
    NET_MATRIX, NET_MATRIX_NAME, NET_POOL, PROBE_REPS, SOLVER_EVERY, SOLVER_MATRIX_NAME,
    SOLVER_RESIDUAL_TOL, SOLVER_STEPS, SPD_DOMINANCE, SPMM_K, SPMM_MATRIX, SPMM_MATRIX_NAME,
    VICTIM_ALONE_SHARE, VICTIM_TAIL_P,
};
use crate::inputs::{matches_reference, true_residual, Rng, VectorPool};
use crate::metrics::Outcome;
use crate::stats::{median, quiet_summary, Rank, Sample};
use crate::trace::{SpanId, Tracer};
use spmv_core::formats::CsrMatrix;
use spmv_core::tuning::PreparedMatrix;
use spmv_core::{MatrixShape, MultiVec, SpMv};
use spmv_net::NetClient;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Fixture {
    victim_csr: Arc<CsrMatrix>,
    spmm_csr: Arc<CsrMatrix>,
    solver_csr: Arc<CsrMatrix>,
    net: NetFixture,
    victim: NetClient,
    aggressor: NetClient,
}

fn build(ctx: &Ctx) -> (Fixture, Vec<f64>) {
    let victim_csr = Arc::new(generate_csr(NET_MATRIX.0, ctx.scale(NET_MATRIX.1)).0);
    let spmm_csr = Arc::new(generate_csr(SPMM_MATRIX.0, ctx.scale(SPMM_MATRIX.1)).0);
    let solver_csr =
        Arc::new(generate_spd_csr(NET_MATRIX.0, ctx.scale(NET_MATRIX.1), SPD_DOMINANCE).0);
    let (net, [_plan_s, insert_s]) = start_server(&[
        (NET_MATRIX_NAME, Arc::clone(&victim_csr)),
        (SPMM_MATRIX_NAME, Arc::clone(&spmm_csr)),
        (SOLVER_MATRIX_NAME, Arc::clone(&solver_csr)),
    ]);
    let connect = || {
        let client = NetClient::connect(net.addr).expect("connect to the loopback server");
        // An unresponsive server fails the request instead of hanging the run.
        client
            .set_timeout(Some(Duration::from_secs(5)))
            .expect("set the read timeout");
        client
    };
    let fixture = Fixture {
        victim: connect(),
        aggressor: connect(),
        victim_csr,
        spmm_csr,
        solver_csr,
        net,
    };
    (fixture, vec![insert_s])
}

/// Everything drawn from the run's seed: the victim's request pool, the
/// aggressor's inputs, and the stream the victim's script continues from.
struct Drawn {
    pool: VectorPool,
    inputs: AggressorInputs,
    rng: Rng,
}

/// The aggressor's seeded inputs with their references.
struct AggressorInputs {
    /// `SPMM_K` columns per block, drawn from this pool at a rotating offset.
    spmm: VectorPool,
    rhs: Vec<Vec<f64>>,
}

#[derive(Default)]
struct AggressorLog {
    spmm_ms: Vec<Sample>,
    solver_ms: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

fn run_aggressor(
    ctx: &Ctx,
    client: &mut NetClient,
    solver_csr: &CsrMatrix,
    inputs: &AggressorInputs,
    stop: &AtomicBool,
    tracer: &Tracer,
    log: &mut AggressorLog,
) {
    let mut op = 0usize;
    while !stop.load(Ordering::Acquire) {
        let request = (1u64 << 32) | op as u64;
        let ok = if op % SOLVER_EVERY == SOLVER_EVERY - 1 {
            let b = &inputs.rhs[(op / SOLVER_EVERY) % inputs.rhs.len()];
            let start = Instant::now();
            let answer = client.solver_iterate(SOLVER_MATRIX_NAME, SOLVER_STEPS, Some(b));
            let end = Instant::now();
            tracer.record(
                "aggressor.solver_iterate",
                request,
                SpanId::NONE,
                start,
                Some(end),
            );
            log.solver_ms.push(Sample {
                at: ctx.at(end),
                value: (end - start).as_secs_f64() * 1e3,
            });
            // The recurrence residual the server reports must be the true one
            // of the iterate it returned (‖b‖ = 1).
            answer.is_ok_and(|(x, residual)| {
                (true_residual(solver_csr, &x, b) - residual).abs() <= SOLVER_RESIDUAL_TOL
            })
        } else {
            let first = op % inputs.spmm.len();
            let picks: Vec<usize> = (0..SPMM_K)
                .map(|j| (first + j) % inputs.spmm.len())
                .collect();
            let cols: Vec<Vec<f64>> = picks.iter().map(|&k| inputs.spmm.xs[k].clone()).collect();
            let start = Instant::now();
            let answer = client.spmm(SPMM_MATRIX_NAME, &cols);
            let end = Instant::now();
            tracer.record("aggressor.spmm", request, SpanId::NONE, start, Some(end));
            log.spmm_ms.push(Sample {
                at: ctx.at(end),
                value: (end - start).as_secs_f64() * 1e3,
            });
            answer.is_ok_and(|ys| {
                ys.len() == SPMM_K
                    && ys
                        .iter()
                        .zip(&picks)
                        .all(|(y, &k)| matches_reference(y, &inputs.spmm.ys[k]))
            })
        };
        log.attempted += 1;
        log.failed += u64::from(!ok);
        op += 1;
    }
}

/// What a run measured, pooled over its set-ups.
#[derive(Default)]
struct Measured {
    alone_ms: Vec<Sample>,
    contended_ms: Vec<Sample>,
    aggressor: AggressorLog,
}

fn victim_loop(
    ctx: &Ctx,
    client: &mut NetClient,
    pool: &VectorPool,
    rng: &mut Rng,
    until: Instant,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<Sample> {
    let mut ms = Vec::new();
    while Instant::now() < until {
        let k = rng.below(pool.len());
        let start = Instant::now();
        let answer = client.spmv(NET_MATRIX_NAME, &pool.xs[k]);
        let end = Instant::now();
        tracer.record(
            "victim.spmv",
            ms.len() as u64,
            SpanId::NONE,
            start,
            Some(end),
        );
        let ok = answer.is_ok_and(|y| matches_reference(&y, &pool.ys[k]));
        if ok {
            ms.push(Sample {
                at: ctx.at(end),
                value: (end - start).as_secs_f64() * 1e3,
            });
        }
        out.count(ok);
    }
    ms
}

fn measure(
    ctx: &Ctx,
    fx: &mut Fixture,
    drawn: &mut Drawn,
    seconds: f64,
    tracer: &Tracer,
    measured: &mut Measured,
    out: &mut Outcome,
) {
    let Drawn { pool, inputs, rng } = drawn;
    let inputs = &*inputs;
    let alone_until = Instant::now() + Duration::from_secs_f64(seconds * VICTIM_ALONE_SHARE);
    measured.alone_ms.extend(victim_loop(
        ctx,
        &mut fx.victim,
        pool,
        rng,
        alone_until,
        tracer,
        out,
    ));

    let stop = AtomicBool::new(false);
    let until = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - VICTIM_ALONE_SHARE));
    let (victim, aggressor, solver_csr) = (&mut fx.victim, &mut fx.aggressor, &fx.solver_csr);
    let log = &mut measured.aggressor;
    let contended_ms = std::thread::scope(|s| {
        let handle =
            s.spawn(|| run_aggressor(ctx, aggressor, solver_csr, inputs, &stop, tracer, log));
        let contended = victim_loop(ctx, victim, pool, rng, until, tracer, out);
        stop.store(true, Ordering::Release);
        handle.join().expect("aggressor thread panicked");
        contended
    });
    measured.contended_ms.extend(contended_ms);
}

/// `PreparedMatrix::spmm` at k=8, per vector, over `spmv` on the same plan.
fn spmm_k8_over_k1(fx: &Fixture, inputs: &AggressorInputs, reps: usize) -> f64 {
    let plan = fx.net.served(SPMM_MATRIX_NAME).plan();
    let prepared = PreparedMatrix::materialize(&fx.spmm_csr, &plan).expect("plan fits its matrix");
    let columns: Vec<&[f64]> = inputs.spmm.xs[..SPMM_K]
        .iter()
        .map(|x| x.as_slice())
        .collect();
    let x = MultiVec::from_columns(&columns);
    let mut y = MultiVec::zeros(fx.spmm_csr.nrows(), SPMM_K);
    let mut y1 = vec![0.0; fx.spmm_csr.nrows()];
    let (mut k8, mut k1) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        y.fill(0.0);
        let t = Instant::now();
        prepared.spmm(&x, &mut y);
        k8.push(t.elapsed().as_secs_f64() / SPMM_K as f64);
        y1.fill(0.0);
        let t = Instant::now();
        prepared.spmv(columns[0], &mut y1);
        k1.push(t.elapsed().as_secs_f64());
    }
    median(&mut k8) / median(&mut k1)
}

pub fn run(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let (mut m, mut traced) = (Measured::default(), Measured::default());
    let mut drawn: Option<Drawn> = None;
    let off = Tracer::new(false);
    let (fx, setup_s, steps) = measure_over_setups(
        ctx,
        || build(ctx),
        |fx, seconds| {
            let drawn = drawn.get_or_insert_with(|| {
                let mut rng = Rng::fork(ctx.seed, 4);
                let pool = VectorPool::new(&fx.victim_csr, NET_POOL, &mut rng);
                let inputs = AggressorInputs {
                    spmm: VectorPool::new(&fx.spmm_csr, SPMM_K, &mut rng),
                    rhs: (0..4)
                        .map(|_| rng.unit_vector(fx.solver_csr.nrows()))
                        .collect(),
                };
                Drawn { pool, inputs, rng }
            });
            if ctx.trace {
                measure(ctx, fx, drawn, seconds / 2.0, &off, &mut m, out);
                measure(ctx, fx, drawn, seconds / 2.0, tracer, &mut traced, out);
            } else {
                measure(ctx, fx, drawn, seconds, &off, &mut m, out);
            }
        },
    );
    let inputs = drawn.expect("at least one set-up ran").inputs;
    out.attempted += m.aggressor.attempted + traced.aggressor.attempted;
    out.failed += m.aggressor.failed + traced.aggressor.failed;

    // Everything in the quietest one-second slice (`stats.rs`).
    let quiet = |samples: &[Sample]| quiet_summary(samples, VICTIM_TAIL_P, Rank::Quietest);
    let victim = quiet(&m.contended_ms);
    let alone = quiet(&m.alone_ms);
    // One script cycle is `SOLVER_EVERY - 1` Spmm ops and one solver op; its
    // flops (2·nnz per column, each CG step counted as one SpMV) over its
    // duration at the median op times.
    let spmm_ms = quiet(&m.aggressor.spmm_ms).p50;
    let solver_ms = quiet(&m.aggressor.solver_ms).p50;
    let spmms = (SOLVER_EVERY - 1) as f64;
    let cycle_flops = spmms * 2.0 * fx.spmm_csr.nnz() as f64 * SPMM_K as f64
        + 2.0 * fx.solver_csr.nnz() as f64 * SOLVER_STEPS as f64;
    let aggressor_gflops = cycle_flops / ((spmms * spmm_ms + solver_ms) * 1e-3) / 1e9;
    if victim.n == 0 || alone.n == 0 {
        out.flag("net-interference: the victim completed no request".to_string());
        return;
    }

    if !ctx.trace {
        out.set("setup_s", setup_s, ctx.setup_reps());
        out.set("op_p50_ms", victim.p50, victim.n);
        out.set("op_tail_ms", victim.tail, victim.n);
        out.set("base_p50_ms", alone.p50, alone.n);
        out.set("gflops", aggressor_gflops, m.aggressor.attempted as usize);
        return;
    }

    out.set(
        "obs.trace_overhead_share",
        quiet(&traced.contended_ms).p50 / victim.p50,
        victim.n,
    );
    out.set("victim_lat_p50_ms", victim.p50, victim.n);
    out.set("victim_lat_p99_ms", victim.tail, victim.n);
    out.set(
        "aggressor_gflops",
        aggressor_gflops,
        m.aggressor.attempted as usize,
    );
    out.set("net.victim_alone_p50_ms", alone.p50, alone.n);
    out.set("net.spmm_k8_ms", spmm_ms, m.aggressor.spmm_ms.len());
    out.set(
        "net.solver_iter16_ms",
        solver_ms,
        m.aggressor.solver_ms.len(),
    );
    // Three matrices are planned and inserted; the sum over them.
    out.set("serve.insert_s", steps[0], ctx.setup_reps());
    let reps = if ctx.smoke { 20 } else { PROBE_REPS };
    out.set(
        "kernels.spmm_k8_over_k1",
        spmm_k8_over_k1(&fx, &inputs, reps),
        reps,
    );
    let totals = fx.net.server.totals();
    let serve_sheds: u64 = [NET_MATRIX_NAME, SPMM_MATRIX_NAME]
        .iter()
        .map(|name| fx.net.served(name).serve_stats().sheds())
        .sum();
    out.set("serve.sheds", serve_sheds as f64, 1);
    out.set("net.sheds", totals.sheds as f64, 1);
    out.set("net.errors", totals.errors as f64, 1);
}
