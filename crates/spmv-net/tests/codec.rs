//! Golden tests for the wire codec, against a per-element reference.
//!
//! The reference encoder and decoder below are written from the format the
//! `protocol` module documents, one field and one `f64` at a time, so they
//! share no code with the library's bulk slice conversion. Every request and
//! response variant, with and without a token, over vector lengths that
//! straddle the SIMD widths and values that a lossy conversion would change
//! (NaN payloads, signed zeros, infinities, subnormals, `f64::MAX`), must:
//!
//! * encode to byte-identical bodies and whole frames;
//! * decode to values identical by `to_bits`;
//! * turn every cut of its body into a typed error, and every cut of its
//!   frame into an incomplete frame — never a panic.
//!
//! The client and the server frame messages in place, in their own write
//! buffers; the loopback tests check those frames against the reference too,
//! and that the client refuses what the wire cannot carry (ragged `Spmm`
//! blocks, names past the `u16` length field) without disturbing the
//! connection.

use spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_core::tuning::TuningConfig;
use spmv_net::protocol::{self, Op, Request, Response};
use spmv_net::{NetClient, NetError, ServerConfig, ShardedNetServer, ShardedNetServerHandle};
use spmv_serve::MatrixRegistry;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// reference codec: one field, one element at a time
// ---------------------------------------------------------------------------

fn ref_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn ref_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn ref_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn ref_f64s(out: &mut Vec<u8>, v: &[f64]) {
    for x in v {
        ref_u64(out, x.to_bits());
    }
}

fn ref_vec(out: &mut Vec<u8>, v: &[f64]) {
    ref_u32(out, v.len() as u32);
    ref_f64s(out, v);
}

fn ref_block(out: &mut Vec<u8>, cols: &[Vec<f64>]) {
    ref_u32(out, cols.len() as u32);
    ref_u32(out, cols.first().map_or(0, Vec::len) as u32);
    for col in cols {
        ref_f64s(out, col);
    }
}

fn ref_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    let opcode = match &req.op {
        Op::Spmv { .. } => 1,
        Op::Spmm { .. } => 2,
        Op::SolverIterate { .. } => 3,
    };
    match &req.token {
        Some(token) => {
            out.push(opcode | 0x80);
            ref_u16(&mut out, token.len() as u16);
            out.extend_from_slice(token);
        }
        None => out.push(opcode),
    }
    ref_u64(&mut out, req.id);
    ref_u16(&mut out, req.matrix.len() as u16);
    out.extend_from_slice(req.matrix.as_bytes());
    match &req.op {
        Op::Spmv { x } => ref_vec(&mut out, x),
        Op::Spmm { cols } => ref_block(&mut out, cols),
        Op::SolverIterate { steps, b } => {
            ref_u32(&mut out, *steps);
            ref_vec(&mut out, b.as_deref().unwrap_or(&[]));
        }
    }
    out
}

fn ref_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Spmv { id, y } => {
            out.push(0);
            ref_u64(&mut out, *id);
            out.push(1);
            ref_vec(&mut out, y);
        }
        Response::Spmm { id, cols } => {
            out.push(0);
            ref_u64(&mut out, *id);
            out.push(2);
            ref_block(&mut out, cols);
        }
        Response::Solver { id, x, residual } => {
            out.push(0);
            ref_u64(&mut out, *id);
            out.push(3);
            ref_vec(&mut out, x);
            ref_u64(&mut out, residual.to_bits());
        }
        Response::Error {
            id,
            code,
            retry_after_ms,
            message,
        } => {
            out.push(*code);
            ref_u64(&mut out, *id);
            ref_u32(&mut out, *retry_after_ms);
            ref_u16(&mut out, message.len() as u16);
            out.extend_from_slice(message.as_bytes());
        }
    }
    out
}

fn ref_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    ref_u32(&mut out, body.len() as u32);
    out.extend_from_slice(body);
    out
}

/// A cursor that reads one field at a time; `None` on any shortfall.
struct RefReader<'a>(&'a [u8]);

impl RefReader<'_> {
    fn bytes(&mut self, n: usize) -> Option<Vec<u8>> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head.to_vec())
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64s(&mut self, n: usize) -> Option<Vec<f64>> {
        (0..n).map(|_| self.u64().map(f64::from_bits)).collect()
    }

    fn vec(&mut self) -> Option<Vec<f64>> {
        let n = self.u32()? as usize;
        self.f64s(n)
    }

    fn block(&mut self) -> Option<Vec<Vec<f64>>> {
        let k = self.u32()? as usize;
        let n = self.u32()? as usize;
        (0..k).map(|_| self.f64s(n)).collect()
    }
}

fn ref_decode_request(body: &[u8]) -> Option<Request> {
    let mut r = RefReader(body);
    let tagged = r.u8()?;
    let token = match tagged & 0x80 {
        0 => None,
        _ => {
            let len = r.u16()? as usize;
            Some(r.bytes(len)?)
        }
    };
    let id = r.u64()?;
    let name_len = r.u16()? as usize;
    let matrix = String::from_utf8(r.bytes(name_len)?).ok()?;
    let op = match tagged & 0x7F {
        1 => Op::Spmv { x: r.vec()? },
        2 => Op::Spmm { cols: r.block()? },
        3 => {
            let steps = r.u32()?;
            let b = r.vec()?;
            Op::SolverIterate {
                steps,
                b: (!b.is_empty()).then_some(b),
            }
        }
        _ => return None,
    };
    r.0.is_empty().then_some(Request {
        id,
        matrix,
        op,
        token,
    })
}

fn ref_decode_response(body: &[u8]) -> Option<Response> {
    let mut r = RefReader(body);
    let status = r.u8()?;
    let id = r.u64()?;
    let resp = if status != 0 {
        let retry_after_ms = r.u32()?;
        let len = r.u16()? as usize;
        Response::Error {
            id,
            code: status,
            retry_after_ms,
            message: String::from_utf8(r.bytes(len)?).ok()?,
        }
    } else {
        match r.u8()? {
            1 => Response::Spmv { id, y: r.vec()? },
            2 => Response::Spmm {
                id,
                cols: r.block()?,
            },
            3 => {
                let x = r.vec()?;
                let residual = f64::from_bits(r.u64()?);
                Response::Solver { id, x, residual }
            }
            _ => return None,
        }
    };
    r.0.is_empty().then_some(resp)
}

// ---------------------------------------------------------------------------
// comparison by bits (NaN != NaN, so `PartialEq` cannot judge payloads)
// ---------------------------------------------------------------------------

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every field of a request, with each `f64` as its bit pattern.
type RequestBits = (u64, String, Option<Vec<u8>>, u8, u32, Vec<Vec<u64>>);

fn request_bits(req: &Request) -> RequestBits {
    let (steps, vectors) = match &req.op {
        Op::Spmv { x } => (0, vec![bits(x)]),
        Op::Spmm { cols } => (0, cols.iter().map(|c| bits(c)).collect()),
        Op::SolverIterate { steps, b } => (*steps, b.iter().map(|b| bits(b)).collect()),
    };
    (
        req.id,
        req.matrix.clone(),
        req.token.clone(),
        req.op.opcode(),
        steps,
        vectors,
    )
}

/// Every field of a response, with each `f64` as its bit pattern.
type ResponseBits = (u64, u8, u32, String, Vec<Vec<u64>>);

fn response_bits(resp: &Response) -> ResponseBits {
    match resp {
        Response::Spmv { id, y } => (*id, 1, 0, String::new(), vec![bits(y)]),
        Response::Spmm { id, cols } => (
            *id,
            2,
            0,
            String::new(),
            cols.iter().map(|c| bits(c)).collect(),
        ),
        Response::Solver { id, x, residual } => (
            *id,
            3,
            0,
            String::new(),
            vec![bits(x), vec![residual.to_bits()]],
        ),
        Response::Error {
            id,
            code,
            retry_after_ms,
            message,
        } => (*id, *code, *retry_after_ms, message.clone(), Vec::new()),
    }
}

// ---------------------------------------------------------------------------
// the cases
// ---------------------------------------------------------------------------

/// Lengths on both sides of the 4-lane SIMD width, and the 15,500-element
/// (124 KB) vector of the benchmark's `net-open` workload.
const LENGTHS: [usize; 8] = [0, 1, 3, 4, 5, 15, 500, 15_500];

/// Values a lossy or value-based conversion would alter.
fn specials() -> [f64; 9] {
    [
        f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN, payload 1
        f64::from_bits(0xFFF8_0000_0000_0000), // negative quiet NaN
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(1), // smallest subnormal
        f64::MAX,
        -1.5,
    ]
}

/// `n` values cycling through the specials, interleaved with ordinary ones.
fn values(n: usize, salt: u64) -> Vec<f64> {
    let s = specials();
    (0..n)
        .map(|i| match i % 2 {
            0 => s[(i / 2 + salt as usize) % s.len()],
            _ => ((i as u64 * 37 + salt) as f64 * 0.37).sin(),
        })
        .collect()
}

fn requests() -> Vec<Request> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for token in [None, Some(b"s3cret".to_vec()), Some(Vec::new())] {
        for (salt, &n) in LENGTHS.iter().enumerate() {
            let salt = salt as u64;
            let mut ops = vec![
                Op::Spmv { x: values(n, salt) },
                Op::SolverIterate { steps: 7, b: None },
            ];
            if n > 0 {
                ops.push(Op::SolverIterate {
                    steps: u32::MAX,
                    b: Some(values(n, salt + 1)),
                });
            }
            for k in [1, 3] {
                ops.push(Op::Spmm {
                    cols: (0..k).map(|c| values(n, salt + c)).collect(),
                });
            }
            for op in ops {
                id = id.wrapping_mul(0x9E37_79B9).wrapping_add(u64::MAX - 3);
                let mut req = Request::new(id, format!("matrix-{n}"), op);
                req.token = token.clone();
                out.push(req);
            }
        }
    }
    out.push(Request::new(0, "", Op::Spmv { x: vec![-0.0] }));
    out
}

fn responses() -> Vec<Response> {
    let mut out = Vec::new();
    for (salt, &n) in LENGTHS.iter().enumerate() {
        let (id, salt) = (n as u64 * 1_000_003, salt as u64);
        out.push(Response::Spmv {
            id,
            y: values(n, salt),
        });
        for k in [1, 3] {
            out.push(Response::Spmm {
                id: id + 1,
                cols: (0..k).map(|c| values(n, salt + c)).collect(),
            });
        }
        out.push(Response::Solver {
            id: id + 2,
            x: values(n, salt + 2),
            residual: specials()[salt as usize % 9],
        });
    }
    for residual in specials() {
        out.push(Response::Solver {
            id: 5,
            x: vec![residual],
            residual,
        });
    }
    for (code, retry_after_ms, message) in [
        (protocol::ERR_OVERLOADED, 3, "queue full, retry later"),
        (protocol::ERR_MALFORMED, 0, ""),
        (protocol::ERR_UNAUTHORIZED, u32::MAX, "nope \u{1F512}"),
    ] {
        out.push(Response::Error {
            id: u64::MAX,
            code,
            retry_after_ms,
            message: message.into(),
        });
    }
    out
}

fn frame_of(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    protocol::write_frame(&mut frame, body);
    frame
}

/// Every strict prefix of `frame` is an incomplete frame, and every strict
/// prefix of its body a typed decode error.
fn assert_cuts_are_typed<T: std::fmt::Debug>(
    frame: &[u8],
    decode: impl Fn(&[u8]) -> spmv_net::Result<T>,
    what: &str,
) {
    for cut in 0..frame.len() {
        assert!(
            matches!(
                protocol::take_frame(&frame[..cut], protocol::MAX_FRAME),
                Ok(None)
            ),
            "{what}: frame cut at {cut} was not simply incomplete"
        );
    }
    let body = &frame[4..];
    for cut in 0..body.len() {
        match decode(&body[..cut]) {
            Err(NetError::Malformed(_)) => {}
            other => panic!("{what}: body cut at {cut} gave {other:?}"),
        }
    }
}

#[test]
fn request_bodies_and_frames_match_the_per_element_reference() {
    for req in requests() {
        let what = format!("request {:?}/{:?}", req.op.opcode(), req.token);
        let body = protocol::encode_request(&req);
        assert_eq!(body, ref_request(&req), "{what}: body");
        assert_eq!(
            frame_of(&body),
            ref_frame(&ref_request(&req)),
            "{what}: frame"
        );

        let decoded = protocol::decode_request(&body).unwrap();
        assert_eq!(request_bits(&decoded), request_bits(&req), "{what}: decode");
        let reference = ref_decode_request(&body).expect("reference decodes");
        assert_eq!(request_bits(&reference), request_bits(&req), "{what}: ref");

        let frame = frame_of(&body);
        let (peeled, used) = protocol::take_frame(&frame, protocol::MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!((peeled, used), (&body[..], frame.len()), "{what}: peel");
        assert_cuts_are_typed(&frame, protocol::decode_request, &what);
    }
}

#[test]
fn response_bodies_and_frames_match_the_per_element_reference() {
    for resp in responses() {
        let what = format!("response {:?}", response_bits(&resp).1);
        let body = protocol::encode_response(&resp);
        assert_eq!(body, ref_response(&resp), "{what}: body");
        assert_eq!(
            frame_of(&body),
            ref_frame(&ref_response(&resp)),
            "{what}: frame"
        );

        let decoded = protocol::decode_response(&body).unwrap();
        assert_eq!(
            response_bits(&decoded),
            response_bits(&resp),
            "{what}: decode"
        );
        let reference = ref_decode_response(&body).expect("reference decodes");
        assert_eq!(
            response_bits(&reference),
            response_bits(&resp),
            "{what}: ref"
        );

        assert_cuts_are_typed(&frame_of(&body), protocol::decode_response, &what);
    }
}

// ---------------------------------------------------------------------------
// frames built in place by the client and the server
// ---------------------------------------------------------------------------

/// A 3x2 matrix with small integer entries, so every product is exact.
fn three_by_two() -> CsrMatrix {
    let mut coo = CooMatrix::new(3, 2);
    for (i, row) in [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]].iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            coo.push(i, j, v);
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn serve() -> ShardedNetServerHandle {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("m", &three_by_two()).unwrap();
    ShardedNetServer::bind(registry, "127.0.0.1:0", ServerConfig::default(), 1)
        .expect("bind loopback")
        .spawn()
        .expect("spawn server")
}

fn client(handle: &ShardedNetServerHandle) -> NetClient {
    let client = NetClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client
}

/// Read exactly one frame off a blocking stream (a broken prefix fails the
/// test instead of sizing an allocation).
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).unwrap();
    let len = u32::from_le_bytes(prefix);
    assert!(
        len <= protocol::MAX_FRAME,
        "frame prefix claims {len} bytes"
    );
    let mut frame = prefix.to_vec();
    frame.resize(4 + len as usize, 0);
    stream.read_exact(&mut frame[4..]).unwrap();
    frame
}

#[test]
fn client_frames_match_the_reference_byte_for_byte() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sent = 5;
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        (0..sent)
            .map(|_| read_frame(&mut stream))
            .collect::<Vec<_>>()
    });

    let x = values(15_500, 3);
    let cols: Vec<Vec<f64>> = (0..3).map(|c| values(15, c)).collect();
    let mut c = NetClient::connect(addr).unwrap();
    // Sends through the one reused write buffer: a long frame, then shorter
    // ones, then a tokened one, must each go out exactly.
    let ids = [
        c.submit_spmv("big", &x).unwrap(),
        c.submit_spmm("m", &cols).unwrap(),
        c.submit_spmv("m", &[]).unwrap(),
    ];
    c.set_token(Some(b"tok".to_vec()));
    let tokened = [
        c.submit_spmv("m", &x[..5]).unwrap(),
        c.submit_spmm("m", &cols[..1]).unwrap(),
    ];
    let frames = peer.join().unwrap();

    let token = Some(b"tok".to_vec());
    let expected = [
        Request::new(ids[0], "big", Op::Spmv { x: x.clone() }),
        Request::new(ids[1], "m", Op::Spmm { cols: cols.clone() }),
        Request::new(ids[2], "m", Op::Spmv { x: Vec::new() }),
        Request {
            token: token.clone(),
            ..Request::new(tokened[0], "m", Op::Spmv { x: x[..5].to_vec() })
        },
        Request {
            token,
            ..Request::new(
                tokened[1],
                "m",
                Op::Spmm {
                    cols: cols[..1].to_vec(),
                },
            )
        },
    ];
    for (frame, req) in frames.iter().zip(&expected) {
        assert_eq!(
            frame,
            &ref_frame(&ref_request(req)),
            "request id {}",
            req.id
        );
    }
}

#[test]
fn server_frames_match_the_reference_byte_for_byte() {
    let mut handle = serve();
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let requests = [
        Request::new(1, "m", Op::Spmv { x: vec![1.0, 2.0] }),
        Request::new(
            2,
            "m",
            Op::Spmm {
                cols: vec![vec![1.0, -0.5], vec![0.0, 2.0]],
            },
        ),
        Request::new(3, "m", Op::Spmv { x: vec![1.0] }), // wrong length: typed error
        Request::new(4, "absent", Op::Spmv { x: vec![1.0, 2.0] }),
    ];
    let expected_y = [
        Some(vec![vec![5.0, 11.0, 17.0]]),
        Some(vec![vec![0.0, 1.0, 2.0], vec![4.0, 8.0, 12.0]]),
        None,
        None,
    ];
    for (req, want) in requests.iter().zip(&expected_y) {
        raw.write_all(&ref_frame(&ref_request(req))).unwrap();
        let frame = read_frame(&mut raw);
        let resp = ref_decode_response(&frame[4..]).expect("reference decodes the reply");
        assert_eq!(
            frame,
            ref_frame(&ref_response(&resp)),
            "reply to {}",
            req.id
        );
        assert_eq!(resp.id(), req.id);
        match (&resp, want) {
            (Response::Spmv { y, .. }, Some(want)) => assert_eq!(bits(y), bits(&want[0])),
            (Response::Spmm { cols, .. }, Some(want)) => {
                assert_eq!(
                    cols.iter().map(|c| bits(c)).collect::<Vec<_>>(),
                    want.iter().map(|c| bits(c)).collect::<Vec<_>>()
                )
            }
            (Response::Error { .. }, None) => {}
            other => panic!("request {}: unexpected reply {other:?}", req.id),
        }
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// what the wire cannot carry is refused before a byte is written
// ---------------------------------------------------------------------------

#[test]
fn a_ragged_spmm_block_is_refused_and_the_connection_keeps_serving() {
    let mut handle = serve();
    let mut c = client(&handle);
    assert_eq!(c.spmv("m", &[1.0, 2.0]).unwrap(), vec![5.0, 11.0, 17.0]);
    let served = handle.shard_stats()[0].requests();

    // Encoded with one column length, this block would decode re-split as
    // [[1,2],[3,4],[5,6]]: three 2-long columns the caller never sent.
    let ragged = vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0, 6.0]];
    match c.spmm("m", &ragged) {
        Err(NetError::Malformed(_)) => {}
        other => panic!("ragged block answered {other:?}"),
    }
    match c.submit_spmm("m", &ragged) {
        Err(NetError::Malformed(_)) => {}
        other => panic!("ragged pipelined block answered {other:?}"),
    }

    assert_eq!(c.spmv("m", &[1.0, 0.0]).unwrap(), vec![1.0, 3.0, 5.0]);
    assert_eq!(
        handle.shard_stats()[0].requests(),
        served + 1,
        "the ragged blocks reached the server"
    );
    handle.shutdown();
}

#[test]
fn a_name_past_the_u16_length_field_is_refused_and_the_connection_keeps_serving() {
    let mut handle = serve();
    let mut c = client(&handle);
    let long = "n".repeat(70_000);
    match c.spmv(&long, &[1.0, 2.0]) {
        Err(NetError::Malformed(_)) => {}
        other => panic!("70,000-byte name answered {other:?}"),
    }
    // The longest name the wire carries still goes out intact (and is
    // answered as an unknown matrix).
    match c.spmv(&long[..65_535], &[1.0, 2.0]) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, protocol::ERR_UNKNOWN_MATRIX),
        other => panic!("65,535-byte name answered {other:?}"),
    }
    assert_eq!(c.spmv("m", &[0.0, 1.0]).unwrap(), vec![2.0, 4.0, 6.0]);
    assert_eq!(handle.shard_stats()[0].requests(), 2);
    handle.shutdown();
}
