//! The server's waits are blocking waits on the event that ends them: no
//! thread sleeps or polls on a timer, so a wake-up that is not delivered is a
//! hang, not a hiccup. These tests pin the three wake sources (batch done,
//! listener hand-off, shutdown), the write-readiness path, and — through
//! `NetStats::wakeups` — that a shard with nothing to do holds still.
//!
//! Every client carries a read timeout, so a lost wake-up fails the test
//! instead of wedging the suite.

use spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_core::tuning::TuningConfig;
use spmv_net::{NetClient, Response, ServerConfig, ShardedNetServer, ShardedNetServerHandle};
use spmv_serve::MatrixRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iterations of every test that races a client against a blocked thread.
const ROUNDS: usize = 50;

/// `nrows × 8` with one entry per row: a 64-byte request buys an
/// `8 · nrows`-byte response.
fn tall_csr(nrows: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(nrows, 8);
    for i in 0..nrows {
        coo.push(i, i % 8, 1.0 + (i % 13) as f64);
    }
    CsrMatrix::from_coo(&coo)
}

fn serve(nrows: usize) -> (Arc<MatrixRegistry>, ShardedNetServerHandle) {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &tall_csr(nrows)).unwrap();
    let handle = ShardedNetServer::bind(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
        1,
    )
    .expect("bind loopback")
    .spawn()
    .expect("spawn server");
    (registry, handle)
}

fn connect(handle: &ShardedNetServerHandle) -> NetClient {
    let client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    client
}

const X: [f64; 8] = [1.0, -2.0, 3.0, -4.0, 0.5, 0.25, -0.125, 8.0];

#[test]
fn an_idle_shard_holds_still() {
    let (_registry, mut handle) = serve(16);
    let mut client = connect(&handle);
    client.spmv("m", &X).unwrap(); // the connection is adopted and quiet
    let before = handle.shard_stats()[0].wakeups();
    std::thread::sleep(Duration::from_millis(500));
    let idle = handle.shard_stats()[0].wakeups() - before;
    assert!(
        idle <= 5,
        "{idle} wake-ups in 500 ms with nothing to do (a 100 µs sleep loop made ~3000 passes)"
    );
    handle.shutdown();
}

#[test]
fn a_round_trip_costs_a_handful_of_wakeups() {
    let (registry, mut handle) = serve(16);
    let mut client = connect(&handle);
    let expected = registry.get("m").unwrap().spmv_now(&X).unwrap();
    client.spmv("m", &X).unwrap();
    let before = handle.shard_stats()[0].wakeups();
    for _ in 0..200 {
        assert_eq!(client.spmv("m", &X).unwrap(), expected);
    }
    let spent = handle.shard_stats()[0].wakeups() - before;
    // Two are owed per round trip — the request's bytes, the batch's
    // completion — and a wake-up byte that lands after its event was already
    // seen can add a third.
    assert!(
        (200..=3 * 200).contains(&spent),
        "{spent} wake-ups for 200 round trips"
    );
    handle.shutdown();
}

#[test]
fn shutdown_wakes_a_blocked_server() {
    for _ in 0..ROUNDS {
        let (_registry, mut handle) = serve(16);
        let _idle_connection = connect(&handle);
        let start = Instant::now();
        handle.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "shutdown of an idle server took {:?}",
            start.elapsed()
        );
    }
}

#[test]
fn a_connection_accepted_while_the_shard_is_blocked_is_answered() {
    let (registry, mut handle) = serve(16);
    let expected = registry.get("m").unwrap().spmv_now(&X).unwrap();
    for _ in 0..ROUNDS {
        // Nothing is in flight between rounds: listener and shard are both
        // blocked when the connection arrives, and only the listener's poke
        // tells the shard to adopt it.
        let mut client = connect(&handle);
        assert_eq!(client.spmv("m", &X).unwrap(), expected);
    }
    assert_eq!(handle.shard_stats()[0].accepted(), ROUNDS as u64);
    handle.shutdown();
}

/// A peer that pipelines requests and does not read: the responses outgrow
/// the socket buffers, the shard parks them in `wbuf` and must wait for
/// write-readiness — without spinning while the peer dawdles, and without
/// losing a byte once it reads.
#[test]
fn a_peer_that_reads_late_gets_every_byte_and_costs_no_spin() {
    const NROWS: usize = 16 * 1024; // 128 KiB per response
    const PIPELINED: usize = 128; // 16 MiB in all: past any loopback buffering
    let (registry, mut handle) = serve(NROWS);
    let expected = registry.get("m").unwrap().spmv_now(&X).unwrap();
    let mut client = connect(&handle);
    let ids: Vec<u64> = (0..PIPELINED)
        .map(|_| client.submit_spmv("m", &X).unwrap())
        .collect();

    let stats = Arc::clone(&handle.shard_stats()[0]);
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.responses() < PIPELINED as u64 {
        assert!(Instant::now() < deadline, "the batcher stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50)); // let the last flush hit the full socket
    let (before, sent) = (stats.wakeups(), stats.bytes_out());
    assert!(
        sent < (PIPELINED * NROWS * 8) as u64,
        "the test no longer fills the socket: nothing waits for POLLOUT"
    );
    std::thread::sleep(Duration::from_millis(200));
    let spun = stats.wakeups() - before;
    assert!(spun <= 5, "{spun} wake-ups while the peer was not reading");
    assert_eq!(stats.bytes_out(), sent, "nobody read, nothing moved");

    // Same matrix, so the replies also arrive in submission order.
    for id in ids {
        match client.recv().unwrap() {
            Response::Spmv { id: got, y } => {
                assert_eq!(got, id);
                assert_eq!(y, expected);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    handle.shutdown();
}
