//! `net-open`: open loop over loopback TCP at fixed rates.
//!
//! Two connections to a one-shard `ShardedNetServer` (one engine thread) send
//! single-vector `Spmv` requests drawn from a pool of seeded x vectors, on a
//! fixed schedule, through `lo`/`mid`/`hi` phases. Each connection has a
//! sender thread (sleeps until the next due time, then a blocking write) and a
//! receiver thread (blocking reads), so a send never queues behind a receive.
//! Latency runs from the request's **due** time to its decoded response; how
//! late the sender ran is reported per phase. `NetClient` cannot send and
//! receive from two threads, so the connections are plain `TcpStream`s driven
//! through `spmv_net::protocol`.

use super::net_common::{start_server, LayerReading, NetFixture};
use super::{generate_csr, measure_over_setups, Ctx};
use crate::constants::{
    CLOSED_LOOP_WINDOW, GEN_LATE_LIMIT_US, LATENCY_LIMIT_MS, NET_CONNECTIONS, NET_MATRIX,
    NET_MATRIX_NAME, NET_POOL, OPEN_GRACE_SECONDS, OPEN_RATES, OPEN_TAIL_P, OPEN_WARMUP_SECONDS,
};
use crate::inputs::{matches_reference, Rng, VectorPool};
use crate::metrics::Outcome;
use crate::openloop::{latency_from_due, pace, Lateness, Schedule, WallClock};
use crate::stats::{median, quiet_rate, quiet_summary, summarize, Rank, Sample, Summary};
use crate::trace::{SpanId, Tracer};
use spmv_core::formats::CsrMatrix;
use spmv_core::MatrixShape;
use spmv_net::protocol::{self, Op, Request, Response};
use spmv_net::NetClient;
use spmv_obs::HistogramSnapshot;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Fixture {
    csr: Arc<CsrMatrix>,
    net: NetFixture,
    conns: Vec<TcpStream>,
}

fn build(ctx: &Ctx) -> (Fixture, Vec<f64>) {
    let (csr, gen_s) = generate_csr(NET_MATRIX.0, ctx.scale(NET_MATRIX.1));
    let csr = Arc::new(csr);
    let (net, [plan_s, insert_s]) = start_server(&[(NET_MATRIX_NAME, Arc::clone(&csr))]);
    let conns = (0..NET_CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(net.addr).expect("connect to the loopback server");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            // A server that stops reading or answering fails requests; it must
            // not hang the benchmark.
            stream
                .set_write_timeout(Some(Duration::from_secs(2)))
                .expect("set the write timeout");
            stream
                .set_read_timeout(Some(Duration::from_millis(10)))
                .expect("set the read timeout");
            stream
        })
        .collect();
    (Fixture { csr, net, conns }, vec![gen_s, plan_s, insert_s])
}

/// When the sender handled request `seq`, measured from the phase start.
#[derive(Clone, Copy)]
struct SendStamp {
    start: Duration,
    encoded: Duration,
    written: Duration,
}

/// What the receiver saw for one response.
#[derive(Clone, Copy)]
struct Answer {
    seq: u64,
    framed: Duration,
    decoded: Duration,
    correct: bool,
}

fn request_id(phase: usize, conn: usize, seq: u64) -> u64 {
    ((phase as u64) << 48) | ((conn as u64) << 40) | seq
}

const SEQ_MASK: u64 = (1 << 40) - 1;

/// The percentile the latency limit is set on (and `lat_p99_ms.*` reports).
const LIMIT_P: f64 = 99.0;

fn send_all(
    mut stream: &TcpStream,
    clock: &WallClock,
    schedule: &Schedule,
    id_of: impl Fn(u64) -> u64,
    script: &[usize],
    pool: &VectorPool,
) -> (Vec<Lateness>, Vec<SendStamp>) {
    let mut stamps = Vec::with_capacity(schedule.count as usize);
    let mut broken = false;
    let lateness = pace(clock, schedule, |seq, _due| {
        if broken {
            return;
        }
        let start = clock.start.elapsed();
        let request = Request::new(
            id_of(seq),
            NET_MATRIX_NAME,
            Op::Spmv {
                x: pool.xs[script[seq as usize]].clone(),
            },
        );
        let body = protocol::encode_request(&request);
        let mut frame = Vec::with_capacity(4 + body.len());
        protocol::write_frame(&mut frame, &body);
        let encoded = clock.start.elapsed();
        // After a failed (possibly partial) write the stream no longer frames;
        // everything not yet sent goes unanswered and counts as failed.
        broken = stream.write_all(&frame).is_err();
        if !broken {
            stamps.push(SendStamp {
                start,
                encoded,
                written: clock.start.elapsed(),
            });
        }
    });
    (lateness, stamps)
}

fn receive_all(
    mut stream: &TcpStream,
    clock: &WallClock,
    expected: u64,
    id_base: u64,
    deadline: Duration,
    script: &[usize],
    pool: &VectorPool,
) -> Vec<Answer> {
    let mut answers = Vec::with_capacity(expected as usize);
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 256 << 10];
    while (answers.len() as u64) < expected && clock.start.elapsed() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => break,
        }
        let mut consumed = 0;
        while let Ok(Some((body, used))) =
            protocol::take_frame(&rbuf[consumed..], protocol::MAX_FRAME)
        {
            let framed = clock.start.elapsed();
            let response = protocol::decode_response(body);
            let decoded = clock.start.elapsed();
            consumed += used;
            let Ok(response) = response else { continue };
            // A response to an earlier phase's given-up request: not ours.
            if response.id() & !SEQ_MASK != id_base {
                continue;
            }
            let seq = response.id() & SEQ_MASK;
            let correct = match &response {
                Response::Spmv { y, .. } => script
                    .get(seq as usize)
                    .is_some_and(|&k| matches_reference(y, &pool.ys[k])),
                _ => false,
            };
            answers.push(Answer {
                seq,
                framed,
                decoded,
                correct,
            });
        }
        rbuf.drain(..consumed);
    }
    answers
}

/// One phase's measured parts (warm-up lead-ins already discarded), pooled
/// over the set-ups of a run.
struct PhaseResult {
    /// Requests due in the measured parts.
    due: u64,
    /// Latency from due time, ms, of the correctly answered ones, stamped with
    /// the due time on the run's clock.
    latency_ms: Vec<Sample>,
    within_limit: u64,
    lateness_us: Vec<f64>,
    /// Batcher requests and batches served while the phase ran.
    batched_requests: u64,
    batches: u64,
    queue_wait: HistogramSnapshot,
    /// Frames and payload bytes the server counted while the phase ran.
    net_requests: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl PhaseResult {
    fn new() -> PhaseResult {
        PhaseResult {
            due: 0,
            latency_ms: Vec::new(),
            within_limit: 0,
            lateness_us: Vec::new(),
            batched_requests: 0,
            batches: 0,
            queue_wait: HistogramSnapshot::empty(),
            net_requests: 0,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    fn failed(&self) -> u64 {
        self.due - self.latency_ms.len() as u64
    }

    /// Median and `tail_p` percentile of the latency from due time, over the
    /// whole phase.
    fn latency(&self, tail_p: f64) -> Summary {
        summarize(
            &mut self.latency_ms.iter().map(|s| s.value).collect::<Vec<_>>(),
            tail_p,
        )
    }

    /// The same in the phase's quietest one-second slice (`stats.rs`): the
    /// whole-phase p90 of identical runs spread by 17 %, this one by 11 %.
    fn quiet_latency(&self, tail_p: f64) -> Summary {
        quiet_summary(&self.latency_ms, tail_p, Rank::Quietest)
    }

    fn within_limit_share(&self) -> f64 {
        self.within_limit as f64 / self.due.max(1) as f64
    }

    /// Percentile `p` of the generator's own lateness (see
    /// [`Lateness::after_ready`]), microseconds.
    fn lateness_us(&self, p: f64) -> f64 {
        summarize(&mut self.lateness_us.clone(), p).tail
    }

    fn avg_batch(&self) -> f64 {
        self.batched_requests as f64 / self.batches.max(1) as f64
    }

    /// No failures and p99 within the latency limit.
    fn meets_limit(&self) -> bool {
        self.failed() == 0 && self.latency(LIMIT_P).tail <= LATENCY_LIMIT_MS
    }
}

/// Run one open-loop phase at `rate` for `seconds` (after the warm-up lead-in)
/// and pool what it measured into `result`. `during` runs on the calling thread
/// while the phase is in flight.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    ctx: &Ctx,
    fx: &Fixture,
    pool: &VectorPool,
    phase: usize,
    rate: f64,
    seconds: f64,
    rng: &mut Rng,
    tracer: &Tracer,
    result: &mut PhaseResult,
    mut during: impl FnMut(),
) {
    let total_seconds = OPEN_WARMUP_SECONDS + seconds;
    let schedules: Vec<Schedule> = (0..NET_CONNECTIONS)
        .map(|c| Schedule::for_connection(rate, total_seconds, NET_CONNECTIONS, c))
        .collect();
    let scripts: Vec<Vec<usize>> = schedules
        .iter()
        .map(|s| (0..s.count).map(|_| rng.below(pool.len())).collect())
        .collect();
    let before = LayerReading::take(&fx.net, NET_MATRIX_NAME);
    let clock = WallClock {
        start: Instant::now() + Duration::from_millis(2),
    };
    let warmup = Duration::from_secs_f64(OPEN_WARMUP_SECONDS);

    let per_conn: Vec<(Vec<Lateness>, Vec<SendStamp>, Vec<Answer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..NET_CONNECTIONS)
            .map(|c| {
                let (stream, schedule, script, clock) =
                    (&fx.conns[c], &schedules[c], &scripts[c], &clock);
                let deadline = schedule.due(schedule.count.saturating_sub(1))
                    + Duration::from_secs_f64(OPEN_GRACE_SECONDS);
                let sender = s.spawn(move || {
                    send_all(
                        stream,
                        clock,
                        schedule,
                        |seq| request_id(phase, c, seq),
                        script,
                        pool,
                    )
                });
                let receiver = s.spawn(move || {
                    receive_all(
                        stream,
                        clock,
                        schedule.count,
                        request_id(phase, c, 0),
                        deadline,
                        script,
                        pool,
                    )
                });
                (sender, receiver)
            })
            .collect();
        during();
        handles
            .into_iter()
            .map(|(sender, receiver)| {
                let (lateness, stamps) = sender.join().expect("sender thread panicked");
                let answers = receiver.join().expect("receiver thread panicked");
                (lateness, stamps, answers)
            })
            .collect()
    });
    // The layer counters cover the warm-up lead-in too; they are rates and
    // ratios, which it does not bias.
    let after = LayerReading::take(&fx.net, NET_MATRIX_NAME);
    result.batched_requests += after.requests.saturating_sub(before.requests);
    result.batches += after.batches.saturating_sub(before.batches);
    after.add_queue_wait_since(&before, &mut result.queue_wait);
    result.net_requests += after.net.requests.saturating_sub(before.net.requests);
    result.bytes_in += after.net.bytes_in.saturating_sub(before.net.bytes_in);
    result.bytes_out += after.net.bytes_out.saturating_sub(before.net.bytes_out);

    for (c, (lateness, stamps, answers)) in per_conn.iter().enumerate() {
        let schedule = &schedules[c];
        let measured = |seq: u64| schedule.due(seq) >= warmup;
        result.due += (0..schedule.count).filter(|&s| measured(s)).count() as u64;
        result.lateness_us.extend(
            lateness
                .iter()
                .enumerate()
                .filter(|(seq, _)| measured(*seq as u64))
                .map(|(_, l)| l.after_ready.as_secs_f64() * 1e6),
        );
        for a in answers.iter().filter(|a| measured(a.seq) && a.correct) {
            let due = schedule.due(a.seq);
            let ms = latency_from_due(due, a.decoded).as_secs_f64() * 1e3;
            result.latency_ms.push(Sample {
                at: ctx.at(clock.start + due),
                value: ms,
            });
            result.within_limit += u64::from(ms <= LATENCY_LIMIT_MS);
            if tracer.enabled() {
                if let Some(stamp) = stamps.get(a.seq as usize) {
                    let at = |d: Duration| clock.start + d;
                    let id = request_id(phase, c, a.seq);
                    let parent = tracer.record(
                        "net-open.request",
                        id,
                        SpanId::NONE,
                        at(due),
                        Some(at(a.decoded)),
                    );
                    tracer.record(
                        "client.encode",
                        id,
                        parent,
                        at(stamp.start),
                        Some(at(stamp.encoded)),
                    );
                    tracer.record(
                        "client.write",
                        id,
                        parent,
                        at(stamp.encoded),
                        Some(at(stamp.written)),
                    );
                    tracer.record(
                        "net.server_roundtrip",
                        id,
                        parent,
                        at(stamp.written),
                        Some(at(a.framed)),
                    );
                    tracer.record(
                        "client.decode",
                        id,
                        parent,
                        at(a.framed),
                        Some(at(a.decoded)),
                    );
                }
            }
        }
    }
}

/// Closed-loop capacity probe: both connections keep a pipelined window full
/// for `seconds`. Returns when each correctly answered request completed, on
/// the run's clock (the capacity the open-loop rates were calibrated against
/// is their rate).
fn closed_loop(
    ctx: &Ctx,
    fx: &Fixture,
    pool: &VectorPool,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<Sample> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let per_conn: Vec<(Vec<Sample>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..NET_CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let (mut done, mut failed) = (Vec::new(), 0u64);
                    let Ok(mut client) = NetClient::connect(fx.net.addr) else {
                        return (done, 1);
                    };
                    let _ = client.set_timeout(Some(Duration::from_secs(2)));
                    // Responses of one connection may overtake each other (the
                    // server polls its tickets in a race with the batcher's
                    // replies), so they are matched by id, not by order.
                    let mut inflight: BTreeMap<u64, usize> = BTreeMap::new();
                    let mut next = c;
                    loop {
                        while inflight.len() < CLOSED_LOOP_WINDOW && Instant::now() < deadline {
                            let k = next % pool.len();
                            next += NET_CONNECTIONS;
                            match client.submit_spmv(NET_MATRIX_NAME, &pool.xs[k]) {
                                Ok(id) => inflight.insert(id, k),
                                Err(_) => return (done, failed + 1 + inflight.len() as u64),
                            };
                        }
                        if inflight.is_empty() {
                            return (done, failed);
                        }
                        let Ok(response) = client.recv() else {
                            return (done, failed + inflight.len() as u64);
                        };
                        let ok = match (inflight.remove(&response.id()), &response) {
                            (Some(k), Response::Spmv { y, .. }) => {
                                matches_reference(y, &pool.ys[k])
                            }
                            _ => false,
                        };
                        if ok {
                            done.push(Sample {
                                at: ctx.at(Instant::now()),
                                value: 1.0,
                            });
                        }
                        failed += u64::from(!ok);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let failed: u64 = per_conn.iter().map(|c| c.1).sum();
    let done: Vec<Sample> = per_conn.into_iter().flat_map(|c| c.0).collect();
    out.attempted += done.len() as u64 + failed;
    out.failed += failed;
    done
}

/// What the windows of a run measured, pooled over its set-ups: the three
/// open-loop phases and the closed-loop capacity probes.
struct Windows {
    phases: Vec<PhaseResult>,
    /// Completions of the capacity probes.
    capacity_done: Vec<Sample>,
}

impl Windows {
    /// Windows that run the first `rates` of [`OPEN_RATES`].
    fn new(rates: usize) -> Windows {
        Windows {
            phases: OPEN_RATES[..rates]
                .iter()
                .map(|_| PhaseResult::new())
                .collect(),
            capacity_done: Vec::new(),
        }
    }

    /// Requests per second in the busiest whole second of the probes.
    fn capacity_rps(&self) -> f64 {
        quiet_rate(&self.capacity_done)
    }
}

/// One window on one set-up: the open-loop phases and then the capacity probe,
/// `seconds` split evenly over them.
#[allow(clippy::too_many_arguments)]
fn measure(
    ctx: &Ctx,
    fx: &Fixture,
    (pool, rng): &mut (VectorPool, Rng),
    seconds: f64,
    tracer: &Tracer,
    windows: &mut Windows,
    out: &mut Outcome,
    mut during_hi: impl FnMut(),
) {
    let rates = windows.phases.len();
    let phase_seconds = seconds / (rates + 1) as f64;
    for (i, &(name, rate)) in OPEN_RATES[..rates].iter().enumerate() {
        let result = &mut windows.phases[i];
        let (due, failed) = (result.due, result.failed());
        run_phase(
            ctx,
            fx,
            pool,
            i,
            rate,
            phase_seconds,
            rng,
            tracer,
            result,
            || {
                if name == "hi" {
                    during_hi()
                }
            },
        );
        out.attempted += result.due - due;
        out.failed += result.failed() - failed;
    }
    windows
        .capacity_done
        .extend(closed_loop(ctx, fx, pool, phase_seconds, out));
}

pub fn run(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    // The end-to-end metrics come from `lo`, `mid` and the capacity probe. `hi`
    // feeds only per-layer metrics, so only traced runs spend time on it.
    let rates = if ctx.trace { OPEN_RATES.len() } else { 2 };
    let (mut untraced, mut traced) = (Windows::new(rates), Windows::new(rates));
    let mut inputs: Option<(VectorPool, Rng)> = None;
    let mut scrape_ms = Vec::new();
    let off = Tracer::new(false);
    let (fx, setup_s, steps) = measure_over_setups(
        ctx,
        || build(ctx),
        |fx, seconds| {
            let inputs = inputs.get_or_insert_with(|| {
                let mut rng = Rng::fork(ctx.seed, 3);
                (VectorPool::new(&fx.csr, NET_POOL, &mut rng), rng)
            });
            if !ctx.trace {
                measure(ctx, fx, inputs, seconds, &off, &mut untraced, out, || ());
                return;
            }
            measure(
                ctx,
                fx,
                inputs,
                seconds / 2.0,
                &off,
                &mut untraced,
                out,
                || (),
            );
            // Traced half: the same phases with spans on, and the metrics
            // scrape timed while the `hi` phase is in flight — not `mid`, whose
            // two halves are compared for the tracing overhead: on this commit
            // a scrape under load is followed by a serving stall (see README).
            let registry = Arc::clone(&fx.net.registry);
            measure(
                ctx,
                fx,
                inputs,
                seconds / 2.0,
                tracer,
                &mut traced,
                out,
                || {
                    for _ in 0..3 {
                        std::thread::sleep(Duration::from_secs_f64(seconds / 2.0 / 4.0 / 4.0));
                        let t = Instant::now();
                        std::hint::black_box(registry.metrics());
                        scrape_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                },
            );
        },
    );

    let phases = &untraced.phases;
    for (&(name, _), phase) in OPEN_RATES.iter().zip(phases) {
        let late = phase.lateness_us(OPEN_TAIL_P);
        if late > GEN_LATE_LIMIT_US {
            out.flag(format!(
                "net-open {name}: generator lateness p{OPEN_TAIL_P} {late:.0} us > {GEN_LATE_LIMIT_US} us"
            ));
        }
        if !phase.latency(LIMIT_P).tail_supported() {
            out.flag(format!(
                "net-open {name}: {} answers are too few for p{LIMIT_P}",
                phase.latency_ms.len()
            ));
        }
    }
    let mid = &phases[1];

    if !ctx.trace {
        let mid_latency = mid.quiet_latency(OPEN_TAIL_P);
        out.set("setup_s", setup_s, ctx.setup_reps());
        out.set("op_p50_ms", mid_latency.p50, mid_latency.n);
        out.set("op_tail_ms", mid_latency.tail, mid_latency.n);
        out.set(
            "base_p50_ms",
            phases[0].quiet_latency(OPEN_TAIL_P).p50,
            phases[0].latency_ms.len(),
        );
        // Useful flops per second at the closed-loop capacity.
        out.set(
            "gflops",
            untraced.capacity_rps() * 2.0 * fx.csr.nnz() as f64 / 1e9,
            untraced.capacity_done.len(),
        );
        return;
    }

    out.set("obs.scrape_ms", median(&mut scrape_ms), scrape_ms.len());
    out.set(
        "obs.trace_overhead_share",
        traced.phases[1].quiet_latency(OPEN_TAIL_P).p50 / mid.quiet_latency(OPEN_TAIL_P).p50,
        mid.latency_ms.len(),
    );
    out.set("matrices.gen_s.fem_cantilever", steps[0], ctx.setup_reps());
    out.set("tuning.plan_s.fem_cantilever", steps[1], ctx.setup_reps());
    out.set("serve.insert_s", steps[2], ctx.setup_reps());
    let mut max_ok = 0.0f64;
    for (&(name, rate), phase) in OPEN_RATES.iter().zip(phases) {
        // The median as the end-to-end metrics take it (quietest slice); the
        // p99 over the whole phase, which is what the latency limit is set on.
        let latency = phase.latency(LIMIT_P);
        out.set(
            format!("lat_p50_ms.{name}"),
            phase.quiet_latency(OPEN_TAIL_P).p50,
            latency.n,
        );
        out.set(format!("lat_p99_ms.{name}"), latency.tail, latency.n);
        out.set(
            format!("within_limit_share.{name}"),
            phase.within_limit_share(),
            phase.due as usize,
        );
        out.set(
            format!("serve.avg_batch.{name}"),
            phase.avg_batch(),
            phase.batches as usize,
        );
        out.set(
            format!("net.gen_late_p99_us.{name}"),
            phase.lateness_us(99.0),
            phase.lateness_us.len(),
        );
        if phase.meets_limit() {
            max_ok = max_ok.max(rate);
        }
    }
    out.set("net.max_rate_ok_rps", max_ok, phases.len());
    out.set(
        "serve.queue_wait_p50_us.mid",
        mid.queue_wait.p50() as f64 / 1e3,
        mid.queue_wait.count as usize,
    );
    out.set(
        "serve.queue_wait_p99_us.mid",
        mid.queue_wait.p99() as f64 / 1e3,
        mid.queue_wait.count as usize,
    );
    let net_requests = mid.net_requests.max(1) as f64;
    out.set(
        "net.bytes_in_per_req",
        mid.bytes_in as f64 / net_requests,
        mid.net_requests as usize,
    );
    out.set(
        "net.bytes_out_per_req",
        mid.bytes_out as f64 / net_requests,
        mid.net_requests as usize,
    );
    out.set(
        "net.closed_loop_rps",
        untraced.capacity_rps(),
        untraced.capacity_done.len(),
    );
    // Read on the last set-up's server; none is expected on any.
    let totals = fx.net.server.totals();
    out.set(
        "serve.sheds",
        fx.net.served(NET_MATRIX_NAME).serve_stats().sheds() as f64,
        1,
    );
    out.set("net.sheds", totals.sheds as f64, 1);
    out.set("net.errors", totals.errors as f64, 1);
}
