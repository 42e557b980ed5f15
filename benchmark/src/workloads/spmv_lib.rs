//! `spmv-lib`: closed loop, in process, no serving.
//!
//! Three matrices, each tuned once (`TunePlan::new(csr, nproc, full)`) and run
//! through the serial tuned path (`PreparedMatrix::spmv`) and the engine
//! (`SpmvEngine::from_plan(..).spmv`, `nproc` workers) on the identical plan;
//! traced runs add the plain single-thread `CsrMatrix::spmv` baseline. The
//! paths alternate call by call, so none of them finds its own matrix copy
//! warm in the private cache.

use super::{generate_csr, measure_over_setups, timed, Ctx};
use crate::constants::{LIB_MATRICES, LIB_POOL, LIB_TAIL_P};
use crate::inputs::{matches_reference, Rng, VectorPool};
use crate::metrics::Outcome;
use crate::stats::{geomean, quiet_summary, Rank, Sample, Summary};
use crate::trace::{SpanId, Tracer};
use spmv_core::formats::CsrMatrix;
use spmv_core::tuning::{PreparedMatrix, TunePlan, TuningConfig};
use spmv_core::{MatrixShape, SpMv};
use spmv_parallel::SpmvEngine;
use std::time::{Duration, Instant};

struct LibMatrix {
    id: &'static str,
    csr: CsrMatrix,
    plan: TunePlan,
    prepared: PreparedMatrix,
    engine: SpmvEngine,
}

/// Step times of one matrix's set-up, in this order.
const STEPS_PER_MATRIX: usize = 3; // gen_s, plan_s, materialize_s

fn build(ctx: &Ctx) -> (Vec<LibMatrix>, Vec<f64>) {
    let mut steps = Vec::new();
    let matrices = LIB_MATRICES
        .iter()
        .map(|&(matrix, scale)| {
            let (csr, gen_s) = generate_csr(matrix, ctx.scale(scale));
            let (plan, plan_s) = timed(|| TunePlan::new(&csr, ctx.nproc(), &TuningConfig::full()));
            let (prepared, materialize_s) = timed(|| {
                PreparedMatrix::materialize(&csr, &plan).expect("a fresh plan fits its matrix")
            });
            let engine = SpmvEngine::from_plan(&csr, &plan).expect("a fresh plan fits its matrix");
            steps.extend([gen_s, plan_s, materialize_s]);
            LibMatrix {
                id: matrix.id(),
                csr,
                plan,
                prepared,
                engine,
            }
        })
        .collect();
    (matrices, steps)
}

/// Per-call seconds of each path (stamped on the run's clock), pooled over
/// the set-ups of a run.
#[derive(Default)]
struct PathSamples {
    naive: Vec<Sample>,
    prepared: Vec<Sample>,
    engine: Vec<Sample>,
}

#[allow(clippy::too_many_arguments)]
fn measure(
    ctx: &Ctx,
    matrices: &mut [LibMatrix],
    pools: &[VectorPool],
    with_naive: bool,
    seconds: f64,
    tracer: &Tracer,
    samples: &mut [PathSamples],
    out: &mut Outcome,
) {
    let mut ys: Vec<Vec<f64>> = matrices.iter().map(|m| vec![0.0; m.csr.nrows()]).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0usize;
    while Instant::now() < deadline {
        for (mi, m) in matrices.iter_mut().enumerate() {
            let request = (round * LIB_MATRICES.len() + mi) as u64;
            let pool = &pools[mi];
            let x = &pool.xs[round % pool.len()];
            let want = &pool.ys[round % pool.len()];
            let y = &mut ys[mi];
            let parent = tracer.open("spmv-lib.round", request, SpanId::NONE);
            let mut call =
                |name: &'static str, sink: &mut Vec<Sample>, f: &mut dyn FnMut(&mut [f64])| {
                    y.fill(0.0);
                    let start = Instant::now();
                    f(y);
                    let end = Instant::now();
                    sink.push(Sample {
                        at: ctx.at(end),
                        value: (end - start).as_secs_f64(),
                    });
                    tracer.record(name, request, parent, start, Some(end));
                    out.count(matches_reference(y, want));
                };
            if with_naive {
                call("core.csr_spmv", &mut samples[mi].naive, &mut |y| {
                    m.csr.spmv(x, y)
                });
            }
            call("core.prepared_spmv", &mut samples[mi].prepared, &mut |y| {
                m.prepared.spmv(x, y)
            });
            call("parallel.engine_spmv", &mut samples[mi].engine, &mut |y| {
                m.engine.spmv(x, y)
            });
            tracer.close(parent);
        }
        round += 1;
    }
}

fn gflops(nnz: usize, seconds: f64) -> f64 {
    2.0 * nnz as f64 / seconds / 1e9
}

/// One summary per matrix. A call lasts a millisecond, so its times fall into
/// the host's states one by one; the engine's calls are fast only while both
/// virtual CPUs are, which some runs never see for a whole second — hence the
/// lower decile of the slices, not the quietest (see [`Rank`]).
fn summaries(samples: &[PathSamples], pick: fn(&PathSamples) -> &Vec<Sample>) -> Vec<Summary> {
    samples
        .iter()
        .map(|s| quiet_summary(pick(s), LIB_TAIL_P, Rank::LowerDecile))
        .collect()
}

/// Geomean over the matrices of `f(summary)`.
fn over_matrices(summaries: &[Summary], f: impl Fn(&Summary) -> f64) -> f64 {
    geomean(&summaries.iter().map(f).collect::<Vec<_>>())
}

fn geomean_gflops(summaries: &[Summary], nnz: &[usize]) -> f64 {
    geomean(
        &summaries
            .iter()
            .zip(nnz)
            .map(|(s, &nnz)| gflops(nnz, s.p50))
            .collect::<Vec<_>>(),
    )
}

pub fn run(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let new_samples = || -> Vec<PathSamples> {
        LIB_MATRICES
            .iter()
            .map(|_| PathSamples::default())
            .collect()
    };
    let (mut untraced, mut traced) = (new_samples(), new_samples());
    let mut pools: Option<Vec<VectorPool>> = None;
    let (mut kernel_ns, mut barrier_ns, mut imbalance) = (0u64, 0u64, Vec::new());
    let off = Tracer::new(false);

    let (matrices, setup_s, steps) = measure_over_setups(
        ctx,
        || build(ctx),
        |matrices, seconds| {
            // The generators are deterministic: every set-up yields the same
            // matrices, so the inputs are drawn once.
            let pools = pools.get_or_insert_with(|| {
                let mut rng = Rng::fork(ctx.seed, 1);
                matrices
                    .iter()
                    .map(|m| VectorPool::new(&m.csr, LIB_POOL, &mut rng))
                    .collect()
            });
            if ctx.trace {
                // Untraced half, then the same loop with spans on: the ratio of
                // the engine medians is the tracing overhead.
                measure(
                    ctx,
                    matrices,
                    pools,
                    true,
                    seconds / 2.0,
                    &off,
                    &mut untraced,
                    out,
                );
                measure(
                    ctx,
                    matrices,
                    pools,
                    true,
                    seconds / 2.0,
                    tracer,
                    &mut traced,
                    out,
                );
            } else {
                measure(
                    ctx,
                    matrices,
                    pools,
                    false,
                    seconds,
                    &off,
                    &mut untraced,
                    out,
                );
            }
            for m in matrices.iter() {
                let profile = m.engine.profile();
                kernel_ns += profile.kernel_ns();
                barrier_ns += profile.barrier_ns();
                imbalance.push(profile.time_imbalance());
            }
        },
    );

    let engine = summaries(&untraced, |s| &s.engine);
    let prepared = summaries(&untraced, |s| &s.prepared);
    let nnz: Vec<usize> = matrices.iter().map(|m| m.csr.nnz()).collect();
    let calls: usize = engine.iter().map(|s| s.n).sum();
    let engine_gflops = geomean_gflops(&engine, &nnz);
    if engine.iter().any(|s| s.n == 0) {
        out.flag("spmv-lib: no call completed".to_string());
        return;
    }

    if !ctx.trace {
        out.set("setup_s", setup_s, ctx.setup_reps());
        out.set("op_p50_ms", over_matrices(&engine, |s| s.p50 * 1e3), calls);
        out.set(
            "op_tail_ms",
            over_matrices(&engine, |s| s.tail * 1e3),
            calls,
        );
        out.set(
            "base_p50_ms",
            over_matrices(&prepared, |s| s.p50 * 1e3),
            calls,
        );
        out.set("gflops", engine_gflops, calls);
        return;
    }

    let traced_engine = summaries(&traced, |s| &s.engine);
    out.set(
        "obs.trace_overhead_share",
        over_matrices(&traced_engine, |s| s.p50) / over_matrices(&engine, |s| s.p50),
        calls,
    );
    let naive = summaries(&untraced, |s| &s.naive);
    out.set("spmv_gflops", engine_gflops, calls);
    out.set("spmv_serial_gflops", geomean_gflops(&prepared, &nnz), calls);
    for (mi, m) in matrices.iter().enumerate() {
        let id = m.id;
        let step = &steps[mi * STEPS_PER_MATRIX..(mi + 1) * STEPS_PER_MATRIX];
        out.set(format!("matrices.gen_s.{id}"), step[0], ctx.setup_reps());
        out.set(format!("tuning.plan_s.{id}"), step[1], ctx.setup_reps());
        out.set(
            format!("tuning.materialize_s.{id}"),
            step[2],
            ctx.setup_reps(),
        );
        out.set(
            format!("tuning.bytes_per_nnz.{id}"),
            m.plan.planned_bytes() as f64 / nnz[mi] as f64,
            1,
        );
        out.set(
            format!("tuning.tuned_over_naive.{id}"),
            naive[mi].p50 / prepared[mi].p50,
            prepared[mi].n,
        );
        out.set(
            format!("kernels.naive_gflops.{id}"),
            gflops(nnz[mi], naive[mi].p50),
            naive[mi].n,
        );
        out.set(
            format!("kernels.prepared_gflops.{id}"),
            gflops(nnz[mi], prepared[mi].p50),
            prepared[mi].n,
        );
        // Computed bytes: the materialized matrix once, x read once, y read
        // and written once. Cache misses on x are not counted.
        let vectors = 8 * m.csr.ncols() + 16 * m.csr.nrows();
        let bytes = (m.prepared.footprint_bytes() + vectors) as f64;
        let achieved_gbps = bytes / prepared[mi].p50 / 1e9;
        out.set(
            format!("kernels.achieved_gbps.{id}"),
            achieved_gbps,
            prepared[mi].n,
        );
        out.set(
            format!("kernels.flops_per_byte.{id}"),
            2.0 * nnz[mi] as f64 / bytes,
            1,
        );
        if let Some(roof) = &ctx.roof {
            out.set(
                format!("kernels.pct_of_roof.{id}"),
                100.0 * achieved_gbps / roof.read_gbps,
                prepared[mi].n,
            );
        }
        if let Some(llc) = ctx.host.llc_bytes {
            out.set(
                format!("kernels.working_set_over_llc.{id}"),
                bytes / llc as f64,
                1,
            );
        }
        out.set(
            format!("engine.gflops.{id}"),
            gflops(nnz[mi], engine[mi].p50),
            engine[mi].n,
        );
        out.set(
            format!("engine.speedup.{id}"),
            prepared[mi].p50 / engine[mi].p50,
            engine[mi].n,
        );
    }
    // All zero when engine profiling is off (SPMV_PROF=off): nothing was counted.
    let worker_ns = (kernel_ns + barrier_ns).max(1) as f64;
    out.set("engine.kernel_share", kernel_ns as f64 / worker_ns, calls);
    out.set("engine.barrier_share", barrier_ns as f64 / worker_ns, calls);
    if imbalance.iter().all(|v| *v > 0.0) {
        out.set("engine.time_imbalance", geomean(&imbalance), calls);
    }
}
