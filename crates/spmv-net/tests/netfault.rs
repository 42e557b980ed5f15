//! Deterministic fault-injection tests: a real server behind the
//! byte-exact fault proxy of `spmv_testutil::netfault`.
//!
//! Every scenario places its fault at an exact byte offset of the relayed
//! stream, so the server is hit in the same place every run: mid length
//! prefix, mid request header, inside a response payload. The invariants
//! under test: the server never panics, never trusts a lying or corrupt
//! prefix, keeps serving other connections, and the client surfaces typed,
//! retryable errors (never opaque io errors) when a connection dies under it.
//!
//! Wire offsets used below (first frame on a fresh connection):
//! request  `[len u32 @0..4][opcode @4][id u64 @5..13][name_len u16 @13..15]…`
//! response `[len u32 @0..4][status @4][id u64 @5..13][opcode @13][vlen u32 @14..18][f64s @18…]`

use spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_core::tuning::TuningConfig;
use spmv_net::{NetClient, NetError, ServerConfig, ShardedNetServer, ShardedNetServerHandle};
use spmv_serve::MatrixRegistry;
use spmv_testutil::netfault::{ConnScript, Fault, FaultProxy};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tridiag(n: usize) -> CsrMatrix {
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

/// A served registry with one 24×24 matrix named "m".
fn serve() -> (Arc<MatrixRegistry>, ShardedNetServerHandle) {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &tridiag(24)).unwrap();
    let handle = ShardedNetServer::bind(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
        1,
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    (registry, handle)
}

fn x24() -> Vec<f64> {
    (0..24).map(|i| (i as f64 * 0.37).cos()).collect()
}

fn expected(registry: &MatrixRegistry, x: &[f64]) -> Vec<f64> {
    registry.get("m").unwrap().spmv_now(x).unwrap()
}

/// Wait (bounded) until the server has closed every accepted connection.
fn wait_conns_drained(handle: &ShardedNetServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.shard_stats()[0].active() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

// --- request-path faults ---------------------------------------------------

#[test]
fn scenario_01_request_dropped_mid_frame_leaves_server_serving() {
    let (registry, mut handle) = serve();
    // Cut the connection 10 bytes in: past the length prefix, mid request
    // header — the server holds a partial frame, then sees the close.
    let mut proxy =
        FaultProxy::spawn(handle.addr(), vec![ConnScript::up(Fault::DropAfter(10))]).unwrap();

    let mut faulted = NetClient::connect(proxy.addr()).unwrap();
    faulted.set_timeout(Some(Duration::from_secs(5))).unwrap();
    match faulted.spmv("m", &x24()) {
        Err(NetError::ConnectionClosed) => {}
        other => panic!("expected typed close, got {other:?}"),
    }

    // The partial frame was never dispatched and the server keeps serving.
    let mut clean = NetClient::connect(handle.addr()).unwrap();
    clean.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(
        clean.spmv("m", &x24()).unwrap(),
        expected(&registry, &x24())
    );
    assert_eq!(
        handle.shard_stats()[0].errors(),
        0,
        "no error response for a frame that never arrived"
    );
    proxy.shutdown();
    handle.shutdown();
}

#[test]
fn scenario_02_request_truncated_then_close_drops_conn_cleanly() {
    let (registry, mut handle) = serve();
    // Deliver only 8 bytes of the request (half the length prefix + header),
    // discard the rest; the client then closes. The server must treat the
    // dangling partial frame as a dead connection, not a request.
    let mut proxy =
        FaultProxy::spawn(handle.addr(), vec![ConnScript::up(Fault::TruncateAfter(8))]).unwrap();

    {
        let mut faulted = NetClient::connect(proxy.addr()).unwrap();
        faulted
            .set_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let _ = faulted.spmv("m", &x24()); // times out or sees close
    } // drop → FIN propagates through the proxy

    wait_conns_drained(&handle);
    assert_eq!(
        handle.shard_stats()[0].requests(),
        0,
        "truncated frame never dispatched"
    );
    let mut clean = NetClient::connect(handle.addr()).unwrap();
    clean.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(
        clean.spmv("m", &x24()).unwrap(),
        expected(&registry, &x24())
    );
    proxy.shutdown();
    handle.shutdown();
}

#[test]
fn scenario_03_stall_mid_request_resumes_and_completes() {
    let (registry, mut handle) = serve();
    // Freeze the stream for 150 ms six bytes in (mid request header); after
    // the stall the request must complete normally — a slow network is not
    // an error.
    let mut proxy = FaultProxy::spawn(
        handle.addr(),
        vec![ConnScript::up(Fault::StallAfter {
            at: 6,
            pause: Duration::from_millis(150),
        })],
    )
    .unwrap();

    let mut client = NetClient::connect(proxy.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let t0 = Instant::now();
    let y = client.spmv("m", &x24()).unwrap();
    assert!(
        t0.elapsed() >= Duration::from_millis(140),
        "the stall actually happened"
    );
    assert_eq!(y, expected(&registry, &x24()));
    proxy.shutdown();
    handle.shutdown();
}

#[test]
fn scenario_04_request_opcode_corruption_answers_malformed_and_conn_survives() {
    let (registry, mut handle) = serve();
    // Flip the opcode byte (stream offset 4) of the first request into an
    // unknown opcode (1 ^ 0x76 = 0x77, token flag clear). The stream still
    // frames correctly, so the server answers ERR_MALFORMED (id 0 — the id is
    // untrusted on an undecodable request) and keeps the connection.
    let mut proxy = FaultProxy::spawn(
        handle.addr(),
        vec![ConnScript::up(Fault::CorruptAt(vec![(4, 0x76)]))],
    )
    .unwrap();

    let mut client = NetClient::connect(proxy.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    match client.spmv("m", &x24()) {
        Err(NetError::Malformed(msg)) => {
            // The client-side mismatch: response id 0 for request id 1.
            assert!(msg.contains("response for request 0"), "{msg}");
        }
        other => panic!("expected id-0 malformed answer, got {other:?}"),
    }
    // Same connection, next request relays clean and succeeds.
    assert_eq!(
        client.spmv("m", &x24()).unwrap(),
        expected(&registry, &x24())
    );
    assert_eq!(handle.shard_stats()[0].errors(), 1);
    proxy.shutdown();
    handle.shutdown();
}

#[test]
fn scenario_05_request_length_prefix_corruption_drops_conn() {
    let (registry, mut handle) = serve();
    // Set the high byte of the request length prefix (offset 3): the frame
    // claims ~4 GiB. The server must refuse without allocating and cut the
    // connection — a lying prefix is not a recoverable request.
    let mut proxy = FaultProxy::spawn(
        handle.addr(),
        vec![ConnScript::up(Fault::CorruptAt(vec![(3, 0xFF)]))],
    )
    .unwrap();

    let mut faulted = NetClient::connect(proxy.addr()).unwrap();
    faulted.set_timeout(Some(Duration::from_secs(5))).unwrap();
    match faulted.spmv("m", &x24()) {
        Err(NetError::ConnectionClosed) => {}
        other => panic!("expected the server to cut the connection, got {other:?}"),
    }
    assert_eq!(handle.shard_stats()[0].requests(), 0);
    let mut clean = NetClient::connect(handle.addr()).unwrap();
    clean.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(
        clean.spmv("m", &x24()).unwrap(),
        expected(&registry, &x24())
    );
    proxy.shutdown();
    handle.shutdown();
}

#[test]
fn scenario_06_immediate_close_churn_leaves_server_healthy() {
    let (registry, mut handle) = serve();
    // Five connections in a row, each severed on its first byte — accept
    // churn must not leak connection slots or wedge the poll loop.
    let scripts = (0..5)
        .map(|_| ConnScript::up(Fault::DropAfter(0)))
        .collect();
    let mut proxy = FaultProxy::spawn(handle.addr(), scripts).unwrap();
    for _ in 0..5 {
        let mut c = NetClient::connect(proxy.addr()).unwrap();
        c.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = c.spmv("m", &x24()); // severed instantly
    }
    wait_conns_drained(&handle);
    assert_eq!(
        handle.shard_stats()[0].active(),
        0,
        "no leaked connection slots"
    );
    let mut clean = NetClient::connect(handle.addr()).unwrap();
    clean.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(
        clean.spmv("m", &x24()).unwrap(),
        expected(&registry, &x24())
    );
    proxy.shutdown();
    handle.shutdown();
}

// --- response-path faults --------------------------------------------------

#[test]
fn scenario_07_response_truncated_surfaces_typed_close_and_retry_succeeds() {
    let (registry, mut handle) = serve();
    // Cut the connection 7 bytes into the response (mid response header).
    // The client must surface the typed, retryable ConnectionClosed — not an
    // opaque io error — and a retry on a fresh connection must succeed.
    let mut proxy =
        FaultProxy::spawn(handle.addr(), vec![ConnScript::down(Fault::DropAfter(7))]).unwrap();

    let mut faulted = NetClient::connect(proxy.addr()).unwrap();
    faulted.set_timeout(Some(Duration::from_secs(5))).unwrap();
    let err = faulted.spmv("m", &x24()).unwrap_err();
    match &err {
        NetError::ConnectionClosed => {}
        other => panic!("expected typed close, got {other:?}"),
    }
    assert!(err.is_retryable(), "a mid-response close is retryable");

    let mut retry = NetClient::connect(handle.addr()).unwrap();
    retry.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(
        retry.spmv("m", &x24()).unwrap(),
        expected(&registry, &x24())
    );
    proxy.shutdown();
    handle.shutdown();
}

#[test]
fn scenario_08_response_payload_corruption_keeps_frames_intact() {
    let (registry, mut handle) = serve();
    // Flip one byte inside the first f64 of the response payload (offset 18).
    // Framing and header are untouched, so the client decodes a structurally
    // valid response whose data is wrong — the protocol layer must not
    // confuse payload corruption with a framing error.
    let mut proxy = FaultProxy::spawn(
        handle.addr(),
        vec![ConnScript::down(Fault::CorruptAt(vec![(18, 0xFF)]))],
    )
    .unwrap();

    let mut client = NetClient::connect(proxy.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let x = x24();
    let y = client.spmv("m", &x).unwrap();
    let truth = expected(&registry, &x);
    assert_eq!(y.len(), truth.len());
    assert_eq!(
        y[0].to_bits(),
        truth[0].to_bits() ^ 0xFF, // byte 0 of the little-endian f64
        "exactly the scripted byte differs"
    );
    assert_eq!(y[1..], truth[1..], "every other element survives untouched");
    proxy.shutdown();
    handle.shutdown();
}

#[test]
fn scenario_09_response_length_prefix_corruption_is_frame_too_large() {
    let (registry, mut handle) = serve();
    // Corrupt the high byte of the response length prefix: the client sees a
    // frame claiming ~4 GiB and must refuse it as FrameTooLarge before
    // allocating anything.
    let mut proxy = FaultProxy::spawn(
        handle.addr(),
        vec![ConnScript::down(Fault::CorruptAt(vec![(3, 0xFF)]))],
    )
    .unwrap();

    let mut client = NetClient::connect(proxy.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    match client.spmv("m", &x24()) {
        Err(NetError::FrameTooLarge { len, max }) => {
            assert!(len > max, "lying length {len} vs cap {max}");
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    let mut clean = NetClient::connect(handle.addr()).unwrap();
    clean.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(
        clean.spmv("m", &x24()).unwrap(),
        expected(&registry, &x24())
    );
    proxy.shutdown();
    handle.shutdown();
}

#[test]
fn scenario_10_stall_on_one_connection_does_not_block_others() {
    let (registry, mut handle) = serve();
    // Connection 0 freezes for 400 ms mid-request; connection 1 is clean. The
    // poll loop multiplexes, so the clean connection must complete well
    // before the stalled one resumes.
    let pause = Duration::from_millis(400);
    let mut proxy = FaultProxy::spawn(
        handle.addr(),
        vec![
            ConnScript::up(Fault::StallAfter { at: 6, pause }),
            ConnScript::clean(),
        ],
    )
    .unwrap();

    let stalled_addr = proxy.addr();
    let x = x24();
    let x_stalled = x.clone();
    let stalled = std::thread::spawn(move || {
        let mut c = NetClient::connect(stalled_addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(30))).unwrap();
        c.spmv("m", &x_stalled)
    });
    // Give the proxy time to accept connection 0 first so the scripts land
    // on the intended connections.
    std::thread::sleep(Duration::from_millis(50));

    let mut clean = NetClient::connect(proxy.addr()).unwrap();
    clean.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let t0 = Instant::now();
    let y = clean.spmv("m", &x).unwrap();
    let clean_latency = t0.elapsed();
    assert_eq!(y, expected(&registry, &x));
    assert!(
        clean_latency < pause,
        "clean connection took {clean_latency:?}, blocked behind a {pause:?} stall"
    );
    assert_eq!(stalled.join().unwrap().unwrap(), expected(&registry, &x));
    proxy.shutdown();
    handle.shutdown();
}

// --- shutdown-path faults --------------------------------------------------

#[test]
fn scenario_11_responses_in_flight_survive_shutdown_then_typed_close() {
    let (registry, mut handle) = serve();
    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // Pipeline three requests, let the server flush them, then shut down.
    let x = x24();
    let ids = [
        client.submit_spmv("m", &x).unwrap(),
        client.submit_spmv("m", &x).unwrap(),
        client.submit_spmv("m", &x).unwrap(),
    ];
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.shard_stats()[0].responses() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        handle.shard_stats()[0].responses(),
        3,
        "server flushed every response"
    );
    handle.shutdown();

    // TCP delivers the already-sent responses, then the close is typed.
    let truth = expected(&registry, &x);
    for want in ids {
        match client.recv().unwrap() {
            spmv_net::Response::Spmv { id, y } => {
                assert_eq!(id, want);
                assert_eq!(y, truth);
            }
            other => panic!("expected spmv response, got {other:?}"),
        }
    }
    match client.recv() {
        Err(NetError::ConnectionClosed) => {}
        other => panic!("expected typed close after drain, got {other:?}"),
    }
}

#[test]
fn scenario_12_request_after_shutdown_is_typed_connection_closed() {
    let (_registry, mut handle) = serve();
    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    handle.shutdown();

    // Whether the failure lands on the write (broken pipe) or the read (EOF/
    // reset), it must surface as the typed retryable ConnectionClosed, never
    // as an opaque NetError::Io.
    let err = client.spmv("m", &x24()).unwrap_err();
    match &err {
        NetError::ConnectionClosed => {}
        other => panic!("expected typed close, got {other:?}"),
    }
    assert!(err.is_retryable());
}
