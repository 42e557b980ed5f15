//! The depth ladder of a traced run: what each layer above the kernel costs an
//! unloaded request.
//!
//! The `net-open` request pool is replayed one request at a time — no
//! concurrency, nothing queued — at five depths, each one layer further from
//! the kernel, all on the same matrix and the same one-thread plan:
//!
//! ```text
//! kernel    PreparedMatrix::spmv
//! engine    SpmvEngine::spmv
//! registry  ServedMatrix::spmv_now
//! batcher   Batcher::apply
//! wire      NetClient::spmv
//! ```
//!
//! `*.ladder_us.<depth>` is the median per depth and `*.self_us.<depth>` the
//! difference to the depth below. It runs in every traced run, whatever the
//! workload, so the ladder is always beside the workload's own numbers. The
//! codec probe (`net.encode_us`/`net.decode_us`) times `protocol::encode_*` and
//! `decode_*` on the same frames.

use crate::constants::{LADDER_REQUESTS, NET_MATRIX, NET_MATRIX_NAME, NET_POOL, PROBE_REPS};
use crate::inputs::{matches_reference, Rng, VectorPool};
use crate::metrics::Outcome;
use crate::stats::median;
use crate::workloads::net_common::start_server;
use crate::workloads::{generate_csr, Ctx};
use spmv_core::tuning::PreparedMatrix;
use spmv_core::{MatrixShape, SpMv};
use spmv_net::protocol::{self, Op, Request, Response};
use spmv_net::NetClient;
use spmv_parallel::SpmvEngine;
use spmv_serve::{BatchPolicy, Batcher};
use std::sync::Arc;
use std::time::Instant;

/// Median microseconds of `call` over `n` sequential requests from the pool;
/// every answer is checked against the reference.
fn replay(
    n: usize,
    pool: &VectorPool,
    out: &mut Outcome,
    mut call: impl FnMut(&[f64]) -> Option<Vec<f64>>,
) -> f64 {
    let mut us = Vec::with_capacity(n);
    for i in 0..n {
        let k = i % pool.len();
        let t = Instant::now();
        let y = call(&pool.xs[k]);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        out.count(y.is_some_and(|y| matches_reference(&y, &pool.ys[k])));
    }
    median(&mut us)
}

/// Run the ladder and the codec probe; returns the `"ladder": {...}` member of
/// the trace file.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> String {
    let n = if ctx.smoke { 50 } else { LADDER_REQUESTS };
    let (csr, _) = generate_csr(NET_MATRIX.0, ctx.scale(NET_MATRIX.1));
    let csr = Arc::new(csr);
    let (net, _) = start_server(&[(NET_MATRIX_NAME, Arc::clone(&csr))]);
    let served = net.served(NET_MATRIX_NAME);
    let plan = served.plan();
    // Its own stream, so the ladder's inputs do not depend on the workload.
    let pool = VectorPool::new(&csr, NET_POOL, &mut Rng::fork(ctx.seed, 5));

    let prepared = PreparedMatrix::materialize(&csr, &plan).expect("plan fits its matrix");
    let kernel = replay(n, &pool, out, |x| {
        let mut y = vec![0.0; csr.nrows()];
        prepared.spmv(x, &mut y);
        Some(y)
    });
    let mut engine = SpmvEngine::from_plan(&csr, &plan).expect("plan fits its matrix");
    let engine_us = replay(n, &pool, out, |x| {
        let mut y = vec![0.0; csr.nrows()];
        engine.spmv(x, &mut y);
        Some(y)
    });
    drop(engine);
    let registry = replay(n, &pool, out, |x| served.spmv_now(x).ok());
    let mut batcher = Batcher::isolated(Arc::clone(&served), BatchPolicy::default());
    batcher.start_service();
    let batcher_us = replay(n, &pool, out, |x| batcher.apply(x.to_vec()).ok());
    drop(batcher);
    let mut client = NetClient::connect(net.addr).expect("connect to the loopback server");
    let wire = replay(n, &pool, out, |x| client.spmv(NET_MATRIX_NAME, x).ok());

    out.set("kernels.ladder_us.kernel", kernel, n);
    out.set("engine.ladder_us.engine", engine_us, n);
    out.set("engine.self_us.engine", engine_us - kernel, n);
    out.set("serve.ladder_us.registry", registry, n);
    out.set("serve.self_us.registry", registry - engine_us, n);
    out.set("serve.ladder_us.batcher", batcher_us, n);
    out.set("serve.self_us.batcher", batcher_us - registry, n);
    out.set("net.ladder_us.wire", wire, n);
    out.set("net.self_us.wire", wire - batcher_us, n);

    // Codec: both encodes and both decodes one request round trip pays.
    let reps = if ctx.smoke { 20 } else { PROBE_REPS };
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    for i in 0..reps {
        let k = i % pool.len();
        let request = Request::new(
            i as u64,
            NET_MATRIX_NAME,
            Op::Spmv {
                x: pool.xs[k].clone(),
            },
        );
        let response = Response::Spmv {
            id: i as u64,
            y: pool.ys[k].clone(),
        };
        let t = Instant::now();
        let request_body = protocol::encode_request(&request);
        let response_body = protocol::encode_response(&response);
        encode_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let decoded_request = protocol::decode_request(&request_body);
        let decoded_response = protocol::decode_response(&response_body);
        decode_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.count(
            decoded_request.is_ok_and(|r| r == request)
                && decoded_response.is_ok_and(|r| r == response),
        );
    }
    out.set("net.encode_us", median(&mut encode_us), reps);
    out.set("net.decode_us", median(&mut decode_us), reps);

    format!(
        "\"ladder\": {{\"requests_per_depth\": {n}, \"base\": \"median us per request, one at a time\", \"kernel_us\": {kernel}, \"engine_us\": {engine_us}, \"registry_us\": {registry}, \"batcher_us\": {batcher_us}, \"wire_us\": {wire}}}"
    )
}
