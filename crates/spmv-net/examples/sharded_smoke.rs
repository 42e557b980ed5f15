//! CI smoke driver for the sharded stack: a 2-shard loopback server, a
//! capped hot set, auth tokens on every frame, consistent-hash client
//! routing, and one client pushed through the byte-exact fault proxy.
//!
//! What it proves end to end, on every CI leg:
//!
//! * **the shard fan-out serves real traffic** — concurrent clients land on
//!   different poll shards (least-loaded handoff) and every pipelined
//!   request is answered, shed-retries included: zero stranded tickets,
//!   summed across shards;
//! * **auth is enforced at the shard boundary** — a tokenless probe gets the
//!   typed refusal while the tokened fleet flows;
//! * **routing is map-driven** — a [`RoutedClient`] pins each matrix to the
//!   endpoint its [`ShardMap`] names;
//! * **a faulted client cannot hurt the rest** — one client runs through a
//!   [`FaultProxy`] that severs its connection mid-response; it sees the
//!   typed retryable close, reconnects directly, and finishes, while the
//!   other clients never notice;
//! * **per-shard telemetry is live** — the folded snapshot carries the
//!   `spmv_net_shard_*{shard="i"}` families and the aggregate names.
//!
//! Run: `cargo run --release -p spmv-net --example sharded_smoke`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_core::tuning::TuningConfig;
use spmv_net::{
    NetClient, NetError, Response, RoutedClient, ServerConfig, ShardMap, ShardedNetServer,
};
use spmv_serve::{BatchPolicy, MatrixRegistry};
use spmv_testutil::netfault::{ConnScript, Fault, FaultProxy};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 2;
const CLIENTS: usize = 4;
const FLIGHTS: usize = 5;
const WINDOW: usize = 8;
const TOKEN: &[u8] = b"smoke-token";

fn random_csr(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(nrows, ncols);
    for _ in 0..nnz {
        coo.push(
            rng.random_range(0..nrows),
            rng.random_range(0..ncols),
            rng.random_range(-1.0..1.0),
        );
    }
    CsrMatrix::from_coo(&coo)
}

fn main() {
    // Three matrices over hot room for two: rotation forces real evictions
    // and cold rebuilds underneath the shards.
    let registry = Arc::new(MatrixRegistry::new(2, TuningConfig::full()).with_hot_capacity(2));
    registry.insert("a", &random_csr(80, 64, 900, 17)).unwrap();
    registry.insert("b", &random_csr(64, 64, 700, 18)).unwrap();
    registry.insert("c", &random_csr(72, 64, 800, 19)).unwrap();
    let names = ["a", "b", "c"];
    let rows = [80usize, 64, 72];

    let config = ServerConfig {
        queue_depth: 16,
        batch: BatchPolicy { max_batch: 8 },
        ..ServerConfig::default()
    }
    .with_auth_token(TOKEN.to_vec());
    let mut handle = ShardedNetServer::bind(Arc::clone(&registry), "127.0.0.1:0", config, SHARDS)
        .expect("bind loopback")
        .spawn()
        .expect("spawn sharded server");
    let addr = handle.addr();

    // A tokenless probe must be refused with the typed code before any fleet
    // traffic — auth applies on whichever shard the probe lands on.
    {
        let mut probe = NetClient::connect(addr).expect("probe connect");
        probe.set_timeout(Some(Duration::from_secs(30))).unwrap();
        match probe.spmv("a", &[1.0; 64]) {
            Err(NetError::Remote { code, .. }) if code == spmv_net::protocol::ERR_UNAUTHORIZED => {}
            other => panic!("tokenless probe must be refused, got {other:?}"),
        }
    }

    // One client goes through the fault proxy: its first connection is
    // severed 9 bytes into the server's response stream.
    let mut proxy = FaultProxy::spawn(addr, vec![ConnScript::down(Fault::DropAfter(9))])
        .expect("spawn fault proxy");
    let proxy_addr = proxy.addr();

    let mut served_total = 0u64;
    let mut sheds_total = 0u64;
    let mut faulted_closes = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let faulted = client == 0;
                    let connect_addr = if faulted { proxy_addr } else { addr };
                    let mut conn = NetClient::connect(connect_addr)
                        .expect("connect")
                        .with_token(TOKEN.to_vec());
                    conn.set_timeout(Some(Duration::from_secs(30))).unwrap();
                    let (mut served, mut sheds, mut closes) = (0u64, 0u64, 0u64);
                    for flight in 0..FLIGHTS {
                        let mut inflight: Vec<(u64, usize)> = Vec::with_capacity(WINDOW);
                        for r in 0..WINDOW {
                            let target = (client + flight + r) % names.len();
                            let x: Vec<f64> = (0..64).map(|i| (i % 13) as f64 * 0.5).collect();
                            let id = match conn.submit_spmv(names[target], &x) {
                                Ok(id) => id,
                                Err(e) if e.is_retryable() && faulted => {
                                    // The proxy cut us off: reconnect straight
                                    // to the server and resubmit.
                                    closes += 1;
                                    conn = NetClient::connect(addr)
                                        .expect("reconnect")
                                        .with_token(TOKEN.to_vec());
                                    conn.set_timeout(Some(Duration::from_secs(30))).unwrap();
                                    inflight.clear();
                                    conn.submit_spmv(names[target], &x).expect("resubmit")
                                }
                                Err(e) => panic!("submit failed: {e}"),
                            };
                            inflight.push((id, target));
                        }
                        while !inflight.is_empty() {
                            let resp = match conn.recv() {
                                Ok(resp) => resp,
                                Err(e) if e.is_retryable() && faulted => {
                                    // Typed close mid-window: the in-flight
                                    // requests died with the connection;
                                    // replay the window on a fresh one.
                                    closes += 1;
                                    conn = NetClient::connect(addr)
                                        .expect("reconnect")
                                        .with_token(TOKEN.to_vec());
                                    conn.set_timeout(Some(Duration::from_secs(30))).unwrap();
                                    let retry = std::mem::take(&mut inflight);
                                    for (_, target) in retry {
                                        let x: Vec<f64> =
                                            (0..64).map(|i| (i % 13) as f64 * 0.5).collect();
                                        let id = conn
                                            .submit_spmv(names[target], &x)
                                            .expect("replay submit");
                                        inflight.push((id, target));
                                    }
                                    continue;
                                }
                                Err(e) => panic!("recv failed: {e}"),
                            };
                            match resp {
                                Response::Spmv { id, y } => {
                                    let at = inflight
                                        .iter()
                                        .position(|(want, _)| *want == id)
                                        .expect("response matches a submitted request");
                                    let (_, target) = inflight.swap_remove(at);
                                    assert_eq!(y.len(), rows[target], "y sized to nrows");
                                    served += 1;
                                }
                                Response::Error {
                                    id,
                                    code,
                                    retry_after_ms,
                                    message,
                                } => {
                                    assert_eq!(
                                        code,
                                        spmv_net::protocol::ERR_OVERLOADED,
                                        "only load sheds are expected: {message}"
                                    );
                                    let at = inflight
                                        .iter()
                                        .position(|(want, _)| *want == id)
                                        .expect("shed matches a submitted request");
                                    let (_, target) = inflight.swap_remove(at);
                                    sheds += 1;
                                    std::thread::sleep(Duration::from_millis(
                                        retry_after_ms as u64,
                                    ));
                                    let x: Vec<f64> =
                                        (0..64).map(|i| (i % 13) as f64 * 0.5).collect();
                                    let id = conn.submit_spmv(names[target], &x).expect("resubmit");
                                    inflight.push((id, target));
                                }
                                other => panic!("unexpected response {other:?}"),
                            }
                        }
                    }
                    (served, sheds, closes)
                })
            })
            .collect();
        for h in handles {
            let (served, sheds, closes) = h.join().expect("client thread");
            served_total += served;
            sheds_total += sheds;
            faulted_closes += closes;
        }
    });

    // Zero stranded tickets, generalized to shards: every client submission
    // was eventually served — replayed windows may legitimately serve more
    // than the nominal count (the cut can land after a response was sent).
    let expected = (CLIENTS * FLIGHTS * WINDOW) as u64;
    assert!(
        served_total >= expected,
        "all submitted requests must be served (got {served_total}, want ≥{expected})"
    );
    assert!(
        faulted_closes >= 1,
        "the fault proxy must have severed the faulted client at least once"
    );

    // Routed-client pass: the shard map pins each matrix to this endpoint.
    let map = ShardMap::new([addr.to_string()]);
    let mut routed = RoutedClient::new(map).with_token(TOKEN.to_vec());
    for (name, nrows) in names.iter().zip(rows) {
        let y = routed.spmv(name, &vec![0.5; 64]).expect("routed spmv");
        assert_eq!(y.len(), nrows);
        assert_eq!(routed.endpoint_for(name).unwrap(), addr.to_string());
    }

    let totals = handle.totals();
    // Requests decoded on the severed connection can die before their
    // response is written; everything else must balance. Bound the gap by
    // what the faulted client could have had in flight per cut.
    let stranded = totals.requests - totals.responses;
    assert!(
        stranded <= faulted_closes * WINDOW as u64,
        "only the severed connection may strand in-flight requests \
         ({} requests, {} responses, {faulted_closes} cuts)",
        totals.requests,
        totals.responses
    );
    assert!(totals.unauthorized >= 1, "the tokenless probe was counted");
    for (i, s) in handle.shard_stats().iter().enumerate() {
        assert!(
            s.accepted() > 0,
            "shard {i} never accepted a connection — the handoff is not spreading"
        );
    }

    // The folded telemetry: aggregate families plus per-shard labels.
    let mut snap = registry.metrics_snapshot();
    handle.fold_into(&mut snap);
    let header = snap.to_prometheus();
    for family in [
        "spmv_net_shards",
        "spmv_net_requests_total",
        "spmv_net_unauthorized_total",
        "spmv_net_shard_requests_total{shard=\"0\"}",
        "spmv_net_shard_requests_total{shard=\"1\"}",
        "spmv_registry_cold_rebuilds_total",
    ] {
        assert!(
            header.contains(family),
            "telemetry header lacks {family}:\n{header}"
        );
    }
    assert!(
        registry.evictions() > 0 && registry.cold_rebuilds() > 0,
        "capped hot set must have evicted and rebuilt under rotation"
    );

    proxy.shutdown();
    let shard_summary: Vec<String> = handle
        .shard_stats()
        .iter()
        .enumerate()
        .map(|(i, s)| format!("shard{i}: {} reqs", s.requests()))
        .collect();
    handle.shutdown();
    println!("{header}");
    println!(
        "[sharded_smoke] OK: {served_total} requests served over {CLIENTS} clients x {SHARDS} \
         shards ({}), {sheds_total} sheds retried, {faulted_closes} fault-proxy closes \
         recovered, zero stranded tickets",
        shard_summary.join(", ")
    );
}
