//! End-to-end loopback tests: a real server on 127.0.0.1, real clients.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_core::tuning::TuningConfig;
use spmv_core::SpMv;
use spmv_net::{
    protocol, NetClient, NetError, Response, ServerConfig, ShardedNetServer, ShardedNetServerHandle,
};
use spmv_serve::{BatchPolicy, MatrixRegistry};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

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

/// A small SPD system for the solver path.
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

fn serve(registry: Arc<MatrixRegistry>, config: ServerConfig) -> ShardedNetServerHandle {
    ShardedNetServer::bind(registry, "127.0.0.1:0", config, 1)
        .expect("bind loopback")
        .spawn()
        .expect("spawn server")
}

#[test]
fn spmv_and_spmm_round_trip_bit_identical() {
    let registry = Arc::new(MatrixRegistry::new(2, TuningConfig::full()));
    let a = random_csr(60, 40, 600, 1);
    registry.insert("a", &a).unwrap();
    let mut handle = serve(Arc::clone(&registry), ServerConfig::default());

    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
    let y = client.spmv("a", &x).unwrap();
    assert_eq!(y, registry.get("a").unwrap().spmv_now(&x).unwrap());

    let cols: Vec<Vec<f64>> = (0..5)
        .map(|j| (0..40).map(|i| ((i + j * 7) % 11) as f64 * 0.25).collect())
        .collect();
    let block = client.spmm("a", &cols).unwrap();
    assert_eq!(block.len(), 5);
    for (j, col) in block.iter().enumerate() {
        assert_eq!(
            col,
            &registry.get("a").unwrap().spmv_now(&cols[j]).unwrap(),
            "spmm col {j} is bit-identical to the spmv path"
        );
    }

    assert!(handle.shard_stats()[0].requests() >= 2);
    assert_eq!(handle.shard_stats()[0].errors(), 0);
    handle.shutdown();
}

#[test]
fn typed_errors_unknown_matrix_and_dimension() {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &random_csr(10, 8, 40, 2)).unwrap();
    let mut handle = serve(Arc::clone(&registry), ServerConfig::default());
    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    match client.spmv("absent", &[1.0; 8]) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, protocol::ERR_UNKNOWN_MATRIX),
        other => panic!("expected unknown-matrix error, got {other:?}"),
    }
    match client.spmv("m", &[1.0; 5]) {
        Err(NetError::Remote { code, message, .. }) => {
            assert_eq!(code, protocol::ERR_DIMENSION);
            assert!(message.contains('8'), "message names the expected length");
        }
        other => panic!("expected dimension error, got {other:?}"),
    }
    // The connection survives typed errors.
    let y = client.spmv("m", &[1.0; 8]).unwrap();
    assert_eq!(y.len(), 10);
    handle.shutdown();
}

#[test]
fn overload_sheds_with_retry_after_and_recovers() {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &random_csr(30, 20, 200, 3)).unwrap();
    // queue_depth 0: every submit is refused — the deterministic shed.
    let mut handle = serve(
        Arc::clone(&registry),
        ServerConfig {
            queue_depth: 0,
            retry_after_ms: 7,
            ..ServerConfig::default()
        },
    );
    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let err = client.spmv("m", &[1.0; 20]).unwrap_err();
    assert!(err.is_overloaded());
    assert_eq!(err.retry_after(), Some(Duration::from_millis(7)));
    assert_eq!(handle.shard_stats()[0].sheds(), 1);
    // The shed shows up in the registry's per-matrix counters too.
    assert!(registry
        .metrics()
        .contains("spmv_serve_sheds_total{matrix=\"m\"} 1"));
    handle.shutdown();

    // The same workload against a sane depth serves fine.
    let mut handle = serve(Arc::clone(&registry), ServerConfig::default());
    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert!(client.spmv("m", &[1.0; 20]).is_ok());
    handle.shutdown();
}

#[test]
fn concurrent_clients_pipeline_without_stranding() {
    let registry = Arc::new(MatrixRegistry::new(2, TuningConfig::full()));
    let a = random_csr(48, 32, 500, 4);
    registry.insert("a", &a).unwrap();
    let mut handle = serve(
        Arc::clone(&registry),
        ServerConfig {
            batch: BatchPolicy { max_batch: 8 },
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                let window = 8usize;
                let total = 40usize;
                let xs: Vec<Vec<f64>> = (0..total)
                    .map(|j| {
                        (0..32)
                            .map(|i| ((i * 3 + j * 5 + c * 11) % 17) as f64 * 0.5)
                            .collect()
                    })
                    .collect();
                let mut expected: std::collections::HashMap<u64, Vec<f64>> =
                    std::collections::HashMap::new();
                let mut received = 0usize;
                let served = registry.get("a").unwrap();
                for (j, x) in xs.iter().enumerate() {
                    let id = client.submit_spmv("a", x).unwrap();
                    expected.insert(id, served.spmv_now(x).unwrap());
                    // Keep at most `window` requests in flight.
                    if j + 1 >= window {
                        match client.recv().unwrap() {
                            Response::Spmv { id, y } => {
                                assert_eq!(y, expected.remove(&id).unwrap());
                                received += 1;
                            }
                            other => panic!("unexpected response {other:?}"),
                        }
                    }
                }
                while received < total {
                    match client.recv().unwrap() {
                        Response::Spmv { id, y } => {
                            assert_eq!(y, expected.remove(&id).unwrap());
                            received += 1;
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                assert!(expected.is_empty(), "every request answered exactly once");
                total
            })
        })
        .collect();
    let total: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(total, 160);
    assert_eq!(handle.shard_stats()[0].requests(), 160);
    assert_eq!(handle.shard_stats()[0].responses(), 160);
    assert_eq!(handle.shard_stats()[0].errors(), 0);
    // Cross-connection coalescing: 160 requests took fewer than 160 batches.
    let report = registry.get("a").unwrap().serve_stats().snapshot();
    assert_eq!(report.requests, 160);
    assert!(report.batches <= 160);
    handle.shutdown();
    assert_eq!(
        handle.shard_stats()[0].active(),
        0,
        "all connections accounted for"
    );
}

#[test]
fn solver_sessions_are_per_connection_and_converge() {
    let n = 24;
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::full()));
    let a = spd_csr(n);
    registry.insert("spd", &a).unwrap();
    let mut handle = serve(Arc::clone(&registry), ServerConfig::default());
    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    // Iterating without a session is a typed error.
    match client.solver_iterate("spd", 5, None) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, protocol::ERR_MALFORMED),
        other => panic!("expected no-session error, got {other:?}"),
    }
    // Open with b, then continue without resending it; residual must fall.
    // (CG is exact in ≤ n iterations; don't iterate far past convergence —
    // the recurrence underflows to 0/0 once ‖r‖ hits denormals.)
    let (_, r1) = client.solver_iterate("spd", 5, Some(&b)).unwrap();
    let (x, r2) = client.solver_iterate("spd", 19, None).unwrap();
    assert!(r2 < r1, "residual decreases across iterate batches");
    assert!(r2 < 1e-8, "tridiagonal SPD system converges");
    let mut ax = vec![0.0; n];
    a.spmv(&x, &mut ax);
    for (p, q) in ax.iter().zip(&b) {
        assert!((p - q).abs() < 1e-6, "returned iterate solves the system");
    }
    handle.shutdown();
}

#[test]
fn lru_eviction_under_network_traffic_stays_correct() {
    // Hot set of 1 with two matrices: alternating requests force
    // evict/rematerialize cycles under live traffic.
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()).with_hot_capacity(1));
    let a = random_csr(20, 16, 120, 5);
    let b = random_csr(24, 16, 140, 6);
    registry.insert("a", &a).unwrap();
    registry.insert("b", &b).unwrap();
    let mut handle = serve(Arc::clone(&registry), ServerConfig::default());
    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let x: Vec<f64> = (0..16).map(|i| (i % 5) as f64).collect();
    let mut ya = vec![0.0; 20];
    a.spmv(&x, &mut ya);
    let mut yb = vec![0.0; 24];
    b.spmv(&x, &mut yb);
    for _ in 0..4 {
        let got_a = client.spmv("a", &x).unwrap();
        let got_b = client.spmv("b", &x).unwrap();
        assert!(got_a.iter().zip(&ya).all(|(p, q)| (p - q).abs() < 1e-9));
        assert!(got_b.iter().zip(&yb).all(|(p, q)| (p - q).abs() < 1e-9));
    }
    assert!(registry.evictions() >= 4, "alternation churns the hot set");
    assert!(registry.cold_rebuilds() >= 4);
    let text = registry.metrics();
    assert!(text.contains("spmv_registry_evictions_total"));
    assert!(text.contains("spmv_registry_cold_rebuilds_total"));
    handle.shutdown();
}

#[test]
fn malformed_frames_answer_typed_errors_and_liars_get_dropped() {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &random_csr(8, 8, 30, 7)).unwrap();
    let mut handle = serve(Arc::clone(&registry), ServerConfig::default());

    // A well-framed but undecodable body: typed ERR_MALFORMED, conn survives.
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let garbage = [0xFFu8; 10];
    let mut frame = Vec::new();
    protocol::write_frame(&mut frame, &garbage);
    raw.write_all(&frame).unwrap();
    let mut buf = Vec::new();
    loop {
        let mut chunk = [0u8; 1024];
        let n = raw.read(&mut chunk).unwrap();
        assert!(n > 0, "server answered before closing");
        buf.extend_from_slice(&chunk[..n]);
        if let Some((body, _)) = protocol::take_frame(&buf, protocol::MAX_FRAME).unwrap() {
            match protocol::decode_response(body).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, protocol::ERR_MALFORMED),
                other => panic!("expected malformed error, got {other:?}"),
            }
            break;
        }
    }

    // A frame length above the cap breaks framing: the server drops the
    // connection instead of buffering toward the lie.
    let mut liar = std::net::TcpStream::connect(handle.addr()).unwrap();
    liar.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    liar.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let mut chunk = [0u8; 64];
    let closed = matches!(liar.read(&mut chunk), Ok(0) | Err(_));
    assert!(closed, "liar connection is dropped");
    handle.shutdown();
}

#[test]
fn auth_token_gates_requests_and_refusals_keep_the_connection() {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &random_csr(12, 12, 60, 9)).unwrap();
    let mut handle = serve(
        Arc::clone(&registry),
        ServerConfig::default().with_auth_token(b"open-sesame".to_vec()),
    );

    // No token → typed refusal; the request never reaches a batcher.
    let mut bare = NetClient::connect(handle.addr()).unwrap();
    bare.set_timeout(Some(Duration::from_secs(30))).unwrap();
    match bare.spmv("m", &[1.0; 12]) {
        Err(NetError::Remote {
            code,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(code, protocol::ERR_UNAUTHORIZED);
            assert_eq!(retry_after_ms, 0, "unauthorized is not a backoff hint");
        }
        other => panic!("expected unauthorized, got {other:?}"),
    }

    // Wrong token (same length, one byte off) → same refusal; the connection
    // survives, and upgrading the token in place then succeeds.
    bare.set_token(Some(b"open-sesamE".to_vec()));
    match bare.spmv("m", &[1.0; 12]) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, protocol::ERR_UNAUTHORIZED),
        other => panic!("expected unauthorized, got {other:?}"),
    }
    bare.set_token(Some(b"open-sesame".to_vec()));
    assert_eq!(bare.spmv("m", &[1.0; 12]).unwrap().len(), 12);

    assert_eq!(handle.shard_stats()[0].unauthorized(), 2);
    assert_eq!(
        handle.shard_stats()[0].requests(),
        3,
        "refusals still count as requests"
    );
    handle.shutdown();
}

#[test]
fn tokened_client_against_tokenless_server_is_transparent() {
    // A client stamping tokens onto a server that requires none must work
    // unchanged — the flag bit is backward- and forward-compatible.
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &random_csr(10, 10, 50, 10)).unwrap();
    let mut handle = serve(Arc::clone(&registry), ServerConfig::default());
    let mut client = NetClient::connect(handle.addr())
        .unwrap()
        .with_token(b"ignored".to_vec());
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let y = client.spmv("m", &[2.0; 10]).unwrap();
    assert_eq!(y, registry.get("m").unwrap().spmv_now(&[2.0; 10]).unwrap());
    assert_eq!(handle.shard_stats()[0].unauthorized(), 0);
    handle.shutdown();
}

/// A shed `Spmm` is refused whole: none of its columns reaches the engine.
/// (Admitted column by column, the first four of the six would have run "to
/// be discarded" — an overloaded server making itself busier.)
#[test]
fn a_shed_spmm_runs_no_column() {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &random_csr(30, 20, 200, 11)).unwrap();
    let mut handle = serve(
        Arc::clone(&registry),
        ServerConfig {
            queue_depth: 4,
            ..ServerConfig::default()
        },
    );
    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let served = registry.get("m").unwrap();

    let cols: Vec<Vec<f64>> = (0..6)
        .map(|j| (0..20).map(|i| ((i + j) % 7) as f64).collect())
        .collect();
    let err = client.spmm("m", &cols).unwrap_err();
    assert!(err.is_overloaded(), "a 6-wide block cannot fit 4 slots");
    assert_eq!(handle.shard_stats()[0].sheds(), 1);
    assert_eq!(served.serve_stats().sheds(), 1, "one shed per block");

    // A block that fits is served; the queue is FIFO, so by the time it is
    // answered anything the refused block had left behind would have run too.
    let block = client.spmm("m", &cols[..2]).unwrap();
    for (col, x) in block.iter().zip(&cols) {
        assert_eq!(col, &served.spmv_now(x).unwrap());
    }
    assert_eq!(
        served.serve_stats().requests(),
        2,
        "the shed block's columns never reached the engine"
    );
    handle.shutdown();
}

/// The response-order rule of `protocol.rs`, both halves, on one pipelined
/// connection: 32 `Spmv`s on two matrices with an unknown-matrix request in
/// the middle. Same-matrix replies arrive in submission order; the error is
/// answered at dispatch, so it overtakes whatever is still in a batch and can
/// never be later than its own place in line.
#[test]
fn pipelined_replies_keep_submission_order_per_matrix() {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::full()));
    registry
        .insert("a", &random_csr(400, 32, 4000, 12))
        .unwrap();
    registry.insert("b", &random_csr(40, 32, 300, 13)).unwrap();
    let mut handle = serve(Arc::clone(&registry), ServerConfig::default());
    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let x: Vec<f64> = (0..32).map(|i| (i % 5) as f64 - 2.0).collect();

    for _ in 0..50 {
        let mut sent: Vec<(u64, &str)> = Vec::new();
        for j in 0..33 {
            let name = match j {
                16 => "absent",
                _ if j % 3 == 0 => "b",
                _ => "a",
            };
            sent.push((client.submit_spmv(name, &x).unwrap(), name));
        }
        let mut arrived: Vec<u64> = Vec::new();
        for _ in 0..sent.len() {
            arrived.push(client.recv().unwrap().id());
        }
        for name in ["a", "b"] {
            let submitted: Vec<u64> = sent.iter().filter(|s| s.1 == name).map(|s| s.0).collect();
            let received: Vec<u64> = arrived
                .iter()
                .copied()
                .filter(|id| submitted.contains(id))
                .collect();
            assert_eq!(received, submitted, "replies for '{name}' out of order");
        }
        let error_id = sent[16].0;
        let place = arrived.iter().position(|&id| id == error_id);
        assert!(
            place.is_some_and(|p| p <= 16),
            "the error reply waited behind a batch: arrived {place:?}"
        );
    }
    handle.shutdown();
}
