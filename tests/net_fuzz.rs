//! Wire-protocol robustness suite: hostile bytes must cost the server a
//! typed error or a dropped connection — never a panic, and never an
//! allocation sized by a lying length field.
//!
//! Three layers, mirroring `mmio_fuzz`:
//!
//! 1. **Regression corpus** — every `tests/net_corpus/*.bin` is a malformed,
//!    truncated, or lying frame. Each is checked at the decode layer (no
//!    successful parse) and against a live server (the server answers
//!    `ERR_MALFORMED` or drops the connection, then keeps serving).
//! 2. **Truncation fuzz** — a valid request frame cut at every byte boundary,
//!    fed to a live server and closed; the server must survive all of them.
//! 3. **Mutation fuzz** — seeded random byte substitutions over a valid
//!    frame, at the decode layer and against the live server.

use spmv_multicore::spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_multicore::spmv_core::tuning::TuningConfig;
use spmv_multicore::spmv_net::{
    protocol, NetClient, ServerConfig, ShardedNetServer, ShardedNetServerHandle,
};
use spmv_multicore::spmv_serve::MatrixRegistry;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/net_corpus")
}

fn corpus() -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let dir = corpus_dir();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {dir:?}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("bin"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect()
}

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

fn serve() -> ShardedNetServerHandle {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &tridiag(8)).unwrap();
    ShardedNetServer::bind(registry, "127.0.0.1:0", ServerConfig::default(), 1)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

/// One valid spmv request frame (length prefix included).
fn valid_frame() -> Vec<u8> {
    let req = protocol::Request::new(1, "m", protocol::Op::Spmv { x: vec![1.0; 8] });
    let body = protocol::encode_request(&req);
    let mut frame = Vec::new();
    protocol::write_frame(&mut frame, &body);
    frame
}

/// The server is alive iff a fresh connection round-trips.
fn assert_server_alive(handle: &ShardedNetServerHandle, context: &str) {
    let mut c = NetClient::connect(handle.addr()).unwrap_or_else(|e| panic!("{context}: {e}"));
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let y = c
        .spmv("m", &[1.0; 8])
        .unwrap_or_else(|e| panic!("{context}: server stopped serving: {e}"));
    assert_eq!(y.len(), 8, "{context}");
}

#[test]
fn corpus_never_decodes_at_the_protocol_layer() {
    let cases = corpus();
    assert!(
        cases.len() >= 19,
        "corpus unexpectedly small ({} cases)",
        cases.len()
    );
    for (path, bytes) in &cases {
        // The framing layer may refuse the prefix (FrameTooLarge), report an
        // incomplete frame (None), or yield a body — which must then fail to
        // decode. No path may panic, and none may produce a valid request.
        match protocol::take_frame(bytes, protocol::MAX_FRAME) {
            Err(_) => {}   // lying prefix refused before any allocation
            Ok(None) => {} // truncated frame: the stream just waits
            Ok(Some((body, _))) => {
                assert!(
                    protocol::decode_request(body).is_err(),
                    "{path:?}: a corpus frame decoded successfully"
                );
            }
        }
    }
}

#[test]
fn corpus_against_a_live_server_answers_malformed_or_drops() {
    let mut handle = serve();
    for (path, bytes) in corpus() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(&bytes)
            .unwrap_or_else(|e| panic!("{name}: write: {e}"));
        // Half-close our side so a server waiting for the rest of a
        // truncated frame sees EOF instead of waiting forever.
        let _ = raw.shutdown(std::net::Shutdown::Write);
        // Drain whatever the server answers (an ERR_MALFORMED frame or an
        // immediate close) until EOF; only a hang or panic is a failure.
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut raw, &mut sink);
        drop(raw);
        assert_server_alive(&handle, &format!("after corpus case {name}"));
    }
    // Lying prefixes must never have been trusted: the 4 GiB / 1 GB / 65535²
    // claims, and the 4 G empty spmm columns, in the corpus would have
    // aborted the process on allocation.
    handle.shutdown();
}

#[test]
fn every_truncation_of_a_valid_frame_leaves_the_server_serving() {
    let mut handle = serve();
    let frame = valid_frame();
    // Every strict prefix is an incomplete or undecodable frame. Feeding it
    // and closing must never wedge or kill the server. (The full frame is
    // excluded — it is simply a valid request.)
    for cut in 0..frame.len() {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(&frame[..cut]).unwrap();
        let _ = raw.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut raw, &mut sink);
        drop(raw);
    }
    assert_server_alive(&handle, "after per-byte truncation sweep");
    assert_eq!(
        handle.totals().requests,
        1,
        "no truncated prefix ever dispatched as a request (the 1 is the liveness probe)"
    );
    handle.shutdown();
}

#[test]
fn seeded_mutations_never_panic_the_decoder() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let frame = valid_frame();
    let mut rng = StdRng::seed_from_u64(0x4E_45_54); // "NET"
    for _ in 0..1000 {
        let mut bytes = frame.clone();
        for _ in 0..rng.random_range(1..5usize) {
            let pos = rng.random_range(0..bytes.len());
            bytes[pos] = rng.random_range(0..=255u8);
        }
        // Whatever the mutation produced, the protocol layer must return a
        // clean Result at both stages (the assertion is that nothing panics).
        if let Ok(Some((body, _))) = protocol::take_frame(&bytes, protocol::MAX_FRAME) {
            let _ = protocol::decode_request(body);
        }
    }
}

#[test]
fn seeded_mutations_against_a_live_server() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut handle = serve();
    let frame = valid_frame();
    let mut rng = StdRng::seed_from_u64(0x4E_46_55);
    for round in 0..60 {
        let mut bytes = frame.clone();
        for _ in 0..rng.random_range(1..4usize) {
            let pos = rng.random_range(0..bytes.len());
            bytes[pos] = rng.random_range(0..=255u8);
        }
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = raw.write_all(&bytes);
        let _ = raw.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut raw, &mut sink);
        drop(raw);
        if round % 10 == 9 {
            assert_server_alive(&handle, &format!("after mutation round {round}"));
        }
    }
    assert_server_alive(&handle, "after the mutation sweep");
    handle.shutdown();
}
