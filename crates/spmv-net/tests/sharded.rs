//! Integration tests for the sharded server and the routed client:
//! correctness across shards, per-shard telemetry, auth at the shard
//! boundary, graceful drain under concurrent mixed-op load, and
//! consistent-hash routing across two real server processes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_core::tuning::TuningConfig;
use spmv_net::server::ServerConfig;
use spmv_net::{
    protocol, NetClient, NetError, Response, RoutedClient, ShardMap, ShardedNetServer,
    ShardedNetServerHandle,
};
use spmv_obs::MetricsSnapshot;
use spmv_serve::MatrixRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn serve_sharded(
    registry: Arc<MatrixRegistry>,
    config: ServerConfig,
    shards: usize,
) -> ShardedNetServerHandle {
    ShardedNetServer::bind(registry, "127.0.0.1:0", config, shards)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

#[test]
fn round_trip_spreads_connections_and_stays_bit_identical() {
    let registry = Arc::new(MatrixRegistry::new(2, TuningConfig::full()));
    let a = random_csr(48, 32, 500, 21);
    registry.insert("a", &a).unwrap();
    let mut handle = serve_sharded(Arc::clone(&registry), ServerConfig::default(), 2);

    // Four concurrent connections: least-loaded assignment must land two on
    // each shard, and every answer must be bit-identical to the local engine.
    let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.21).sin()).collect();
    let truth = registry.get("a").unwrap().spmv_now(&x).unwrap();
    let mut clients: Vec<NetClient> = (0..4)
        .map(|_| {
            let c = NetClient::connect(handle.addr()).unwrap();
            c.set_timeout(Some(Duration::from_secs(30))).unwrap();
            c
        })
        .collect();
    for c in &mut clients {
        assert_eq!(c.spmv("a", &x).unwrap(), truth);
    }

    let totals = handle.totals();
    assert_eq!(totals.requests, 4);
    assert_eq!(totals.responses, 4);
    assert_eq!(totals.errors, 0);
    assert_eq!(totals.active(), 4);
    assert_eq!(handle.shards(), 2);
    for (i, s) in handle.shard_stats().iter().enumerate() {
        assert_eq!(s.active(), 2, "least-loaded handoff balanced shard {i}");
    }
    drop(clients);
    handle.shutdown();
}

#[test]
fn per_shard_metrics_fold_with_labels_and_aggregate_families() {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &random_csr(20, 20, 120, 22)).unwrap();
    let mut handle = serve_sharded(Arc::clone(&registry), ServerConfig::default(), 3);

    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client.spmv("m", &[1.0; 20]).unwrap();

    let mut snap = MetricsSnapshot::new();
    handle.fold_into(&mut snap);
    let text = snap.to_prometheus();
    assert!(text.contains("spmv_net_shards 3"), "{text}");
    // Aggregate families keep the single-server names…
    assert!(text.contains("spmv_net_requests_total 1"), "{text}");
    // …and each shard reports its own labelled family.
    for shard in 0..3 {
        assert!(
            text.contains(&format!(
                "spmv_net_shard_requests_total{{shard=\"{shard}\"}}"
            )),
            "missing shard {shard} family in:\n{text}"
        );
    }
    handle.shutdown();
}

#[test]
fn auth_gate_applies_on_every_shard() {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &random_csr(16, 16, 80, 23)).unwrap();
    let config = ServerConfig::default().with_auth_token(b"sesame".to_vec());
    let mut handle = serve_sharded(Arc::clone(&registry), config, 2);

    // One tokenless client per shard: both must be refused with the typed
    // code, and the refusal must not consume registry work.
    let mut refused = 0;
    for _ in 0..2 {
        let mut c = NetClient::connect(handle.addr()).unwrap();
        c.set_timeout(Some(Duration::from_secs(30))).unwrap();
        match c.spmv("m", &[1.0; 16]) {
            Err(NetError::Remote { code, .. }) if code == protocol::ERR_UNAUTHORIZED => {
                refused += 1
            }
            other => panic!("expected unauthorized, got {other:?}"),
        }
    }
    assert_eq!(refused, 2);
    assert_eq!(handle.totals().unauthorized, 2);

    // The right token passes on whichever shard the connection lands on.
    let mut c = NetClient::connect(handle.addr())
        .unwrap()
        .with_token(b"sesame".to_vec());
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(c.spmv("m", &[1.0; 16]).unwrap().len(), 16);
    handle.shutdown();
}

/// The drain invariant, generalized to shards: shut down while concurrent
/// clients run mixed ops across both shards; every in-flight request ends in
/// a response or a typed retryable error — no hangs, no stranded tickets, no
/// opaque io errors.
#[test]
fn graceful_drain_under_concurrent_mixed_clients_strands_nothing() {
    let registry = Arc::new(MatrixRegistry::new(2, TuningConfig::naive()));
    registry.insert("g", &random_csr(40, 40, 300, 24)).unwrap();
    registry.insert("s", &spd_csr(40)).unwrap();
    let mut handle = serve_sharded(Arc::clone(&registry), ServerConfig::default(), 2);
    let addr = handle.addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> (u64, u64) {
                let mut ok = 0u64;
                let mut typed_closes = 0u64;
                let mut client = match NetClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return (0, 0),
                };
                // The timeout bounds the test if a ticket WERE stranded: a
                // hang would surface as an Io(timeout) failure below.
                client.set_timeout(Some(Duration::from_secs(10))).unwrap();
                let x = vec![0.5; 40];
                let cols = vec![vec![0.25; 40]; 3];
                loop {
                    let done = stop.load(std::sync::atomic::Ordering::Acquire);
                    let r: Result<(), NetError> = match w % 3 {
                        0 => client.spmv("g", &x).map(|_| ()),
                        1 => client.spmm("g", &cols).map(|_| ()),
                        _ => client.solver_iterate("s", 2, Some(&x)).map(|_| ()),
                    };
                    match r {
                        Ok(_) => ok += 1,
                        Err(NetError::ConnectionClosed) => {
                            typed_closes += 1;
                            break; // server is draining: done
                        }
                        Err(NetError::Remote { .. }) => {} // shed/typed: fine
                        Err(e) => panic!("worker {w} got a non-typed failure: {e}"),
                    }
                    if done {
                        break;
                    }
                }
                (ok, typed_closes)
            })
        })
        .collect();

    // Let the workers build up traffic on both shards, then pull the plug.
    std::thread::sleep(Duration::from_millis(150));
    let t0 = Instant::now();
    handle.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(6),
        "drain respects its bound"
    );
    stop.store(true, std::sync::atomic::Ordering::Release);

    let mut total_ok = 0;
    for w in workers {
        let (ok, _) = w.join().expect("no worker panicked or hung");
        total_ok += ok;
    }
    assert!(total_ok > 0, "traffic actually flowed before the drain");

    // Zero stranded tickets server-side: every request decoded on any shard
    // was answered (response or typed error) before its shard exited.
    let totals = handle.totals();
    assert_eq!(
        totals.requests, totals.responses,
        "every decoded request got an answer across all shards"
    );
    assert_eq!(totals.active(), 0, "every connection accounted for");
}

#[test]
fn routed_client_spreads_matrices_across_two_real_servers() {
    // Two registries = two server processes in miniature; each holds every
    // matrix (as a replicated deployment would), but the routed client pins
    // each matrix to exactly one endpoint via the map.
    let names: Vec<String> = (0..8).map(|i| format!("mat-{i}")).collect();
    let mats: Vec<CsrMatrix> = (0..8).map(|i| random_csr(24, 24, 150, 30 + i)).collect();
    let mut handles = Vec::new();
    let mut endpoints = Vec::new();
    let mut registries = Vec::new();
    for _ in 0..2 {
        let registry = Arc::new(MatrixRegistry::new(8, TuningConfig::naive()));
        for (n, m) in names.iter().zip(&mats) {
            registry.insert(n, m).unwrap();
        }
        let handle = serve_sharded(Arc::clone(&registry), ServerConfig::default(), 2);
        endpoints.push(handle.addr().to_string());
        registries.push(registry);
        handles.push(handle);
    }

    let map = ShardMap::new(endpoints.clone());
    let mut routed = RoutedClient::new(map);
    let x = vec![0.75; 24];
    for (i, n) in names.iter().enumerate() {
        let y = routed.spmv(n, &x).unwrap();
        assert_eq!(
            y,
            registries[0].get(n).unwrap().spmv_now(&x).unwrap(),
            "matrix {i}"
        );
    }

    // Both endpoints actually served traffic (the map spread the names), and
    // each matrix went to exactly the endpoint the map names.
    let served: Vec<u64> = handles.iter().map(|h| h.totals().requests).collect();
    assert_eq!(served.iter().sum::<u64>(), 8);
    assert!(
        served.iter().all(|&s| s > 0),
        "one endpoint never served: {served:?}"
    );
    for n in &names {
        let owner = routed.endpoint_for(n).unwrap().to_owned();
        assert!(endpoints.contains(&owner));
    }

    // Topology change: drop endpoint 1; only its matrices remap and
    // everything still answers (endpoint 0 holds the replicas).
    let before: Vec<String> = names
        .iter()
        .map(|n| routed.endpoint_for(n).unwrap().to_owned())
        .collect();
    routed.set_map(ShardMap::new([endpoints[0].clone()]));
    for (n, old) in names.iter().zip(&before) {
        assert_eq!(routed.endpoint_for(n).unwrap(), endpoints[0]);
        let y = routed.spmv(n, &x).unwrap();
        assert_eq!(y, registries[0].get(n).unwrap().spmv_now(&x).unwrap());
        let _ = old;
    }

    for h in &mut handles {
        h.shutdown();
    }
}

#[test]
fn routed_client_reconnects_through_a_server_restart() {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &random_csr(16, 16, 90, 40)).unwrap();
    let mut handle = serve_sharded(Arc::clone(&registry), ServerConfig::default(), 2);
    let addr = handle.addr();

    let mut routed = RoutedClient::new(ShardMap::new([addr.to_string()]));
    let x = vec![1.0; 16];
    let truth = registry.get("m").unwrap().spmv_now(&x).unwrap();
    assert_eq!(routed.spmv("m", &x).unwrap(), truth);

    // Restart the server on the SAME port; the routed client's cached
    // connection is now dead and must be replaced transparently (one
    // ConnectionClosed retry), not surfaced to the caller.
    handle.shutdown();
    let mut handle2 =
        ShardedNetServer::bind(Arc::clone(&registry), addr, ServerConfig::default(), 2)
            .expect("rebind same port")
            .spawn()
            .expect("respawn");
    assert_eq!(routed.spmv("m", &x).unwrap(), truth);
    handle2.shutdown();
}

#[test]
fn single_shard_matches_the_single_server_contract() {
    // shards=1 is the degenerate case: a single poll loop, with pipelining
    // and typed errors on one connection.
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &random_csr(20, 20, 100, 41)).unwrap();
    let mut handle = serve_sharded(Arc::clone(&registry), ServerConfig::default(), 1);
    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let x = vec![0.3; 20];
    let ids: Vec<u64> = (0..6)
        .map(|_| client.submit_spmv("m", &x).unwrap())
        .collect();
    let mut got = Vec::new();
    for _ in 0..6 {
        match client.recv().unwrap() {
            Response::Spmv { id, .. } => got.push(id),
            other => panic!("unexpected {other:?}"),
        }
    }
    got.sort_unstable();
    assert_eq!(got, ids);

    match client.spmv("absent", &x) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, protocol::ERR_UNKNOWN_MATRIX),
        other => panic!("expected unknown matrix, got {other:?}"),
    }
    handle.shutdown();
}
