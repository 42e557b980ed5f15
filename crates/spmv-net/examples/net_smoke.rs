//! CI smoke driver: a real loopback server under concurrent client load.
//!
//! Spawns a one-shard [`ShardedNetServer`] over a registry whose hot set is capped
//! *below* the suite size (so LRU evictions and cold rebuilds happen for
//! real), then hammers it from several client threads mixing pipelined spmv
//! flights, spmm blocks, and solver sessions. Asserts the invariants the
//! serving layer guarantees:
//!
//! * **zero stranded tickets** — every submitted request gets a response
//!   (load-shed responses are retried after the server's hint until served);
//! * **typed errors only** — no connection is dropped mid-stream;
//! * **a live telemetry header** — the registry + network metrics snapshot
//!   carries nonzero request counters and the shed/eviction families.
//!
//! Run: `cargo run --release -p spmv-net --example net_smoke`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_core::tuning::TuningConfig;
use spmv_net::{NetClient, Response, ServerConfig, ShardedNetServer};
use spmv_serve::{BatchPolicy, MatrixRegistry};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;
const FLIGHTS: usize = 6;
const WINDOW: usize = 8;

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

fn spd_csr(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
            coo.push(i + 1, i, -1.0);
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn main() {
    // Three matrices, hot room for two: every rotation through the third
    // evicts one and rebuilds it from the retained plan on the next touch.
    let registry = Arc::new(MatrixRegistry::new(2, TuningConfig::full()).with_hot_capacity(2));
    registry.insert("a", &random_csr(80, 64, 900, 7)).unwrap();
    registry.insert("b", &random_csr(64, 64, 700, 8)).unwrap();
    registry.insert("spd", &spd_csr(64)).unwrap();
    let names = ["a", "b", "spd"];
    let dims = [64usize, 64, 64];
    let rows = [80usize, 64, 64];

    let config = ServerConfig {
        queue_depth: 16, // small enough that bursts shed for real
        batch: BatchPolicy { max_batch: 8 },
        ..ServerConfig::default()
    };
    let mut handle = ShardedNetServer::bind(Arc::clone(&registry), "127.0.0.1:0", config, 1)
        .expect("bind loopback")
        .spawn()
        .expect("spawn server");
    let addr = handle.addr();

    let mut served_total = 0u64;
    let mut sheds_total = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut conn = NetClient::connect(addr).expect("connect");
                    conn.set_timeout(Some(Duration::from_secs(30))).unwrap();
                    let (mut served, mut sheds) = (0u64, 0u64);
                    for flight in 0..FLIGHTS {
                        // A pipelined window of spmv requests across matrices.
                        let mut inflight: Vec<(u64, usize)> = Vec::with_capacity(WINDOW);
                        for r in 0..WINDOW {
                            let target = (client + flight + r) % names.len();
                            let x: Vec<f64> =
                                (0..dims[target]).map(|i| (i % 13) as f64 * 0.5).collect();
                            let id = conn.submit_spmv(names[target], &x).expect("submit");
                            inflight.push((id, target));
                        }
                        while !inflight.is_empty() {
                            let resp = conn.recv().expect("response");
                            let take = |id: u64, inflight: &mut Vec<(u64, usize)>| {
                                let at = inflight
                                    .iter()
                                    .position(|(want, _)| *want == id)
                                    .expect("response matches a submitted request");
                                inflight.swap_remove(at).1
                            };
                            match resp {
                                Response::Spmv { id, y } => {
                                    let target = take(id, &mut inflight);
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
                                    let target = take(id, &mut inflight);
                                    sheds += 1;
                                    std::thread::sleep(Duration::from_millis(
                                        retry_after_ms as u64,
                                    ));
                                    let x: Vec<f64> =
                                        (0..dims[target]).map(|i| (i % 13) as f64 * 0.5).collect();
                                    let id = conn.submit_spmv(names[target], &x).expect("resubmit");
                                    inflight.push((id, target));
                                }
                                other => panic!("unexpected response {other:?}"),
                            }
                        }
                        // One spmm block and a short solver session per flight.
                        let cols: Vec<Vec<f64>> = (0..3)
                            .map(|j| (0..64).map(|i| ((i + j) % 7) as f64).collect())
                            .collect();
                        loop {
                            match conn.spmm("b", &cols) {
                                Ok(block) => {
                                    assert_eq!(block.len(), 3);
                                    served += 1;
                                    break;
                                }
                                Err(e) if e.is_overloaded() => {
                                    sheds += 1;
                                    std::thread::sleep(e.retry_after().unwrap());
                                }
                                Err(e) => panic!("spmm failed: {e}"),
                            }
                        }
                        let b = vec![1.0; 64];
                        let (_, residual) =
                            conn.solver_iterate("spd", 4, Some(&b)).expect("solver");
                        assert!(residual.is_finite());
                        served += 1;
                    }
                    (served, sheds)
                })
            })
            .collect();
        for h in handles {
            let (served, sheds) = h.join().expect("client thread");
            served_total += served;
            sheds_total += sheds;
        }
    });

    // Zero stranded tickets: every request either answered or retried-then-
    // answered; the totals must match exactly.
    let expected = (CLIENTS * FLIGHTS * (WINDOW + 2)) as u64;
    assert_eq!(
        served_total, expected,
        "all submitted requests must be served (got {served_total}, want {expected})"
    );
    handle.shutdown();
    let totals = handle.totals();
    assert_eq!(
        totals.sheds, sheds_total,
        "client and server shed counts agree"
    );

    // The live telemetry header: registry + network families in one snapshot.
    let mut snap = registry.metrics_snapshot();
    handle.fold_into(&mut snap);
    let header = snap.to_prometheus();
    for family in [
        "spmv_net_requests_total",
        "spmv_net_sheds_total",
        "spmv_registry_evictions_total",
        "spmv_registry_cold_rebuilds_total",
        "spmv_serve_requests_total",
    ] {
        assert!(
            header.contains(family),
            "telemetry header lacks the {family} family"
        );
    }
    assert!(totals.requests >= expected, "request counter is live");
    assert!(
        registry.evictions() > 0 && registry.cold_rebuilds() > 0,
        "capped hot set must have evicted and rebuilt under rotation \
         (evictions={}, rebuilds={})",
        registry.evictions(),
        registry.cold_rebuilds()
    );

    println!("{header}");
    println!(
        "[net_smoke] OK: {served_total} requests served over {CLIENTS} connections, \
         {sheds_total} sheds retried, {} evictions / {} cold rebuilds, zero stranded tickets",
        registry.evictions(),
        registry.cold_rebuilds()
    );
}
