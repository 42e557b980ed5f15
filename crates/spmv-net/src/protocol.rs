//! The wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one **frame**: a little-endian
//! `u32` byte length followed by exactly that many body bytes. Frames are
//! self-delimiting, so both sides can accumulate bytes from a non-blocking
//! socket and peel off complete messages without any other framing state;
//! a length above the negotiated cap ([`MAX_FRAME`] by default) is a protocol
//! error and the connection is dropped rather than buffered into.
//!
//! ## Request body
//!
//! ```text
//! u8  opcode        1 = spmv, 2 = spmm, 3 = solver-iterate;
//!                   the high bit ([`FLAG_TOKEN`]) marks an auth token
//! u16 token length  (only when the token flag is set) followed by that many
//!                   opaque token bytes — the frame-header auth credential
//! u64 request id    echoed verbatim in the response; client-chosen
//! u16 name length   followed by that many UTF-8 bytes of matrix name
//! ... payload       opcode-specific, see [`Op`]
//! ```
//!
//! Tokenless frames are the flag-clear encoding, so every pre-auth frame
//! decodes unchanged. A server configured with a token compares in constant
//! time and answers [`ERR_UNAUTHORIZED`] on mismatch or absence; the token is
//! an authentication credential only — the wire carries no checksum, so
//! payload integrity is still the transport's problem.
//!
//! Vectors are little-endian `f64`s prefixed by a `u32` length; the spmm
//! payload is a column count and one column length followed by its columns
//! back to back (column-major). Each vector crosses the codec as one
//! little-endian slice conversion. The encoders require every `Spmm` column
//! to have the same length (a ragged block would decode re-split), at most
//! [`MAX_SPMM_COLS`] columns and a matrix name of at most 65,535 bytes;
//! [`crate::NetClient`] refuses all three before it writes a byte.
//!
//! Every length claim is covered by the frame's remaining bytes before the
//! decoder allocates for it. Empty columns cover no bytes, so the column count
//! has its own cap: a block claiming more than [`MAX_SPMM_COLS`] columns is
//! malformed whatever its column length. A server sheds any block wider than
//! its queue depth (256 by default) anyway; the cap bounds what one frame can
//! make the decoder allocate to about 1.5 MB of empty column headers.
//!
//! ## Response body
//!
//! ```text
//! u8  status        0 = ok, else an error code (see the ERR_* constants)
//! u64 request id    copied from the request
//! ... payload       ok: opcode echo + result; error: retry-after + message
//! ```
//!
//! An error payload is `u32 retry_after_ms` (nonzero only for
//! [`ERR_OVERLOADED`] — the server's backoff hint) then a `u16`-prefixed
//! UTF-8 message. Load-shed is therefore a *typed, bounded* response: an
//! overloaded server answers in O(1) instead of queueing without bound.
//!
//! ## Response order
//!
//! Every response carries its request's id; on one connection, `Spmv`/`Spmm`
//! replies for the same matrix arrive in submission order, anything else in
//! completion order. So a typed error, a solver reply or another matrix's
//! result may overtake an `Spmv` that is still in a batch — a pipelining
//! client matches responses to requests by id — but it never has to reorder
//! the results of one matrix.

use crate::{NetError, Result};

/// Default maximum frame body size (16 MiB). A frame this large carries a
/// ~2M-element f64 vector; anything bigger is assumed to be a corrupt or
/// hostile length prefix.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Most columns one `Spmm` block may carry (request or response); a wider
/// count is [`NetError::Malformed`] before anything is allocated.
pub const MAX_SPMM_COLS: u32 = 65_535;

/// Opcode: apply the matrix to one vector.
pub const OP_SPMV: u8 = 1;
/// Opcode: apply the matrix to a block of vectors (one fused SpMM).
pub const OP_SPMM: u8 = 2;
/// Opcode: drive the connection's solver session on this matrix.
pub const OP_SOLVER: u8 = 3;
/// High bit of the opcode byte: the request carries an auth token
/// (`u16` length + bytes) between the opcode and the request id.
pub const FLAG_TOKEN: u8 = 0x80;

/// Status: success.
pub const ST_OK: u8 = 0;
/// Error: no matrix registered under the requested name.
pub const ERR_UNKNOWN_MATRIX: u8 = 1;
/// Error: request vector length does not match the matrix.
pub const ERR_DIMENSION: u8 = 2;
/// Error: admission control refused the request (queue full). The response
/// carries a `retry_after_ms` backoff hint.
pub const ERR_OVERLOADED: u8 = 3;
/// Error: the batch serving this request panicked; safe to retry.
pub const ERR_BATCH_PANICKED: u8 = 4;
/// Error: the serving queue shut down before the request completed.
pub const ERR_CLOSED: u8 = 5;
/// Error: the request body did not parse (or referenced no open session).
pub const ERR_MALFORMED: u8 = 6;
/// Error: a solver op targeted a non-square matrix.
pub const ERR_NOT_SQUARE: u8 = 7;
/// Error: any other server-side failure.
pub const ERR_INTERNAL: u8 = 8;
/// Error: the server requires an auth token and the request's was missing or
/// wrong (compared in constant time). The connection stays open.
pub const ERR_UNAUTHORIZED: u8 = 9;

/// A decoded request operation (the opcode-specific payload).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `y = A·x` for one vector.
    Spmv {
        /// The request vector (length must equal the matrix's `ncols`).
        x: Vec<f64>,
    },
    /// `Y = A·X` for a block of columns, served as one coalesced batch.
    Spmm {
        /// The request columns (all the same length).
        cols: Vec<Vec<f64>>,
    },
    /// Run `steps` CG iterations on the connection's session for this matrix.
    /// `b = Some(..)` opens (or restarts) the session on that right-hand
    /// side first; `b = None` continues the existing session.
    SolverIterate {
        /// Iterations to run in this call.
        steps: u32,
        /// Right-hand side to (re)start with, when present.
        b: Option<Vec<f64>>,
    },
}

impl Op {
    /// The opcode this operation encodes as.
    pub fn opcode(&self) -> u8 {
        match self {
            Op::Spmv { .. } => OP_SPMV,
            Op::Spmm { .. } => OP_SPMM,
            Op::SolverIterate { .. } => OP_SOLVER,
        }
    }
}

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Registered name of the target matrix.
    pub matrix: String,
    /// The operation to perform.
    pub op: Op,
    /// Frame-header auth token, when the client sent one.
    pub token: Option<Vec<u8>>,
}

impl Request {
    /// A tokenless request (the common case; attach a token with
    /// [`Request::with_token`] or let [`crate::NetClient`] stamp one on).
    pub fn new(id: u64, matrix: impl Into<String>, op: Op) -> Request {
        Request {
            id,
            matrix: matrix.into(),
            op,
            token: None,
        }
    }

    /// The same request carrying an auth token.
    pub fn with_token(mut self, token: impl Into<Vec<u8>>) -> Request {
        self.token = Some(token.into());
        self
    }
}

/// One decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result of an [`OP_SPMV`] request.
    Spmv {
        /// Echoed request id.
        id: u64,
        /// The product vector.
        y: Vec<f64>,
    },
    /// Result of an [`OP_SPMM`] request.
    Spmm {
        /// Echoed request id.
        id: u64,
        /// The product columns, in request order.
        cols: Vec<Vec<f64>>,
    },
    /// Result of an [`OP_SOLVER`] request.
    Solver {
        /// Echoed request id.
        id: u64,
        /// The current iterate `x`.
        x: Vec<f64>,
        /// Recurrence residual norm `‖r‖` after the iterations.
        residual: f64,
    },
    /// A typed failure.
    Error {
        /// Echoed request id.
        id: u64,
        /// One of the `ERR_*` codes.
        code: u8,
        /// Backoff hint in milliseconds (nonzero only for overload sheds).
        retry_after_ms: u32,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The echoed request id, whatever the outcome.
    pub fn id(&self) -> u64 {
        match self {
            Response::Spmv { id, .. }
            | Response::Spmm { id, .. }
            | Response::Solver { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }
}

// ---------------------------------------------------------------------------
// primitive writers/readers
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian: one resize, then a chunked copy (memcpy on LE hosts).
fn put_f64s(buf: &mut Vec<u8>, v: &[f64]) {
    let at = buf.len();
    buf.resize(at + 8 * v.len(), 0);
    for (dst, x) in buf[at..].chunks_exact_mut(8).zip(v) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

fn put_vec(buf: &mut Vec<u8>, v: &[f64]) {
    put_u32(buf, v.len() as u32);
    put_f64s(buf, v);
}

fn put_block(buf: &mut Vec<u8>, cols: &[Vec<f64>]) {
    let n = cols.first().map_or(0, |c| c.len());
    debug_assert!(cols.iter().all(|c| c.len() == n), "ragged spmm block");
    debug_assert!(cols.len() <= MAX_SPMM_COLS as usize, "spmm block too wide");
    put_u32(buf, cols.len() as u32);
    put_u32(buf, n as u32);
    for col in cols {
        put_f64s(buf, col);
    }
}

/// Append one frame, encoding the body in place and then patching its prefix.
fn frame_in_place(out: &mut Vec<u8>, body_len: usize, encode: impl FnOnce(&mut Vec<u8>)) {
    out.reserve(4 + body_len);
    let at = out.len();
    put_u32(out, 0);
    encode(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// A cursor over a frame body; every read is bounds-checked so a truncated
/// or lying frame decodes to a typed error, never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| NetError::Malformed(format!("frame truncated at byte {}", self.at)))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `n` little-endian `f64`s: one bounds-checked take, one conversion.
    fn f64s(&mut self, n: usize) -> Result<Vec<f64>> {
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| NetError::Malformed(format!("vector claims {n} elements")))?;
        Ok(self
            .take(bytes)?
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect())
    }

    fn vec(&mut self) -> Result<Vec<f64>> {
        let n = self.u32()? as usize;
        // The length claim must be covered by the remaining bytes before any
        // allocation happens — a lying prefix must not reserve gigabytes.
        if self.buf.len() - self.at < n * 8 {
            return Err(NetError::Malformed(format!(
                "vector claims {n} elements, only {} bytes remain",
                self.buf.len() - self.at
            )));
        }
        self.f64s(n)
    }

    /// An spmm block; its `k x n` claim is covered, and `k` capped, before
    /// any allocation.
    fn block(&mut self, what: &str) -> Result<Vec<Vec<f64>>> {
        let k = self.u32()?;
        if k > MAX_SPMM_COLS {
            return Err(NetError::Malformed(format!(
                "{what} claims {k} columns, over {MAX_SPMM_COLS}"
            )));
        }
        let k = k as usize;
        let n = self.u32()? as usize;
        if self.buf.len() - self.at < k.saturating_mul(n).saturating_mul(8) {
            return Err(NetError::Malformed(format!(
                "{what} claims {k}x{n}, frame too short"
            )));
        }
        (0..k).map(|_| self.f64s(n)).collect()
    }

    fn finish(self) -> Result<()> {
        if self.at != self.buf.len() {
            return Err(NetError::Malformed(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------------

/// Append `body` to `out` as one frame (length prefix + body).
pub fn write_frame(out: &mut Vec<u8>, body: &[u8]) {
    put_u32(out, body.len() as u32);
    out.extend_from_slice(body);
}

/// Try to peel one complete frame off the front of `buf`: returns the body
/// and the total bytes consumed (prefix + body), or `None` when more bytes
/// are needed. A length prefix above `max_frame` is a protocol error.
pub fn take_frame(buf: &[u8], max_frame: u32) -> Result<Option<(&[u8], usize)>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if len > max_frame {
        return Err(NetError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((&buf[4..total], total)))
}

// ---------------------------------------------------------------------------
// request codec
// ---------------------------------------------------------------------------

/// Encode one request as a frame body (no length prefix). Preconditions:
/// uniform `Spmm` columns, at most [`MAX_SPMM_COLS`] of them, and a matrix
/// name of at most 65,535 bytes.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut body = Vec::with_capacity(request_len(req));
    put_request(&mut body, req);
    body
}

/// Append `req` to `out` as one frame (length prefix + body).
pub(crate) fn write_request_frame(out: &mut Vec<u8>, req: &Request) {
    frame_in_place(out, request_len(req), |out| put_request(out, req));
}

/// The exact encoded body length of `req`.
fn request_len(req: &Request) -> usize {
    let token = req
        .token
        .as_ref()
        .map_or(0, |t| 2 + t.len().min(u16::MAX as usize));
    let payload = match &req.op {
        Op::Spmv { x } => 4 + 8 * x.len(),
        Op::Spmm { cols } => 8 + 8 * cols.iter().map(Vec::len).sum::<usize>(),
        Op::SolverIterate { b, .. } => 8 + 8 * b.as_ref().map_or(0, Vec::len),
    };
    1 + token + 8 + 2 + req.matrix.len() + payload
}

fn put_request(body: &mut Vec<u8>, req: &Request) {
    match &req.token {
        Some(token) => {
            let token = &token[..token.len().min(u16::MAX as usize)];
            body.push(req.op.opcode() | FLAG_TOKEN);
            put_u16(body, token.len() as u16);
            body.extend_from_slice(token);
        }
        None => body.push(req.op.opcode()),
    }
    put_u64(body, req.id);
    put_u16(body, req.matrix.len() as u16);
    body.extend_from_slice(req.matrix.as_bytes());
    match &req.op {
        Op::Spmv { x } => put_vec(body, x),
        Op::Spmm { cols } => put_block(body, cols),
        Op::SolverIterate { steps, b } => {
            put_u32(body, *steps);
            put_vec(body, b.as_deref().unwrap_or(&[]));
        }
    }
}

/// Decode one request frame body.
pub fn decode_request(body: &[u8]) -> Result<Request> {
    let mut r = Reader::new(body);
    let tagged = r.u8()?;
    let opcode = tagged & !FLAG_TOKEN;
    let token = if tagged & FLAG_TOKEN != 0 {
        let token_len = r.u16()? as usize;
        Some(r.take(token_len)?.to_vec())
    } else {
        None
    };
    let id = r.u64()?;
    let name_len = r.u16()? as usize;
    let matrix = String::from_utf8(r.take(name_len)?.to_vec())
        .map_err(|_| NetError::Malformed("matrix name is not UTF-8".into()))?;
    let op = match opcode {
        OP_SPMV => Op::Spmv { x: r.vec()? },
        OP_SPMM => Op::Spmm {
            cols: r.block("spmm block")?,
        },
        OP_SOLVER => {
            let steps = r.u32()?;
            let b = r.vec()?;
            Op::SolverIterate {
                steps,
                b: if b.is_empty() { None } else { Some(b) },
            }
        }
        other => return Err(NetError::Malformed(format!("unknown opcode {other}"))),
    };
    r.finish()?;
    Ok(Request {
        id,
        matrix,
        op,
        token,
    })
}

/// Constant-time byte-slice equality: the scan length depends only on the
/// operand lengths, never on where the first mismatch sits, so a token guess
/// cannot be refined byte by byte from response timing.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= (x ^ y) as usize;
    }
    diff == 0
}

// ---------------------------------------------------------------------------
// response codec
// ---------------------------------------------------------------------------

/// Encode one response as a frame body (no length prefix); `Spmm` columns
/// must all have the same length.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut body = Vec::with_capacity(response_len(resp));
    put_response(&mut body, resp);
    body
}

/// Append `resp` to `out` as one frame (length prefix + body).
pub(crate) fn write_response_frame(out: &mut Vec<u8>, resp: &Response) {
    frame_in_place(out, response_len(resp), |out| put_response(out, resp));
}

/// The exact encoded body length of `resp`: status and id, then the payload.
fn response_len(resp: &Response) -> usize {
    9 + match resp {
        Response::Spmv { y, .. } => 1 + 4 + 8 * y.len(),
        Response::Spmm { cols, .. } => 1 + 8 + 8 * cols.iter().map(Vec::len).sum::<usize>(),
        Response::Solver { x, .. } => 1 + 4 + 8 * x.len() + 8,
        Response::Error { message, .. } => 4 + 2 + message.len().min(u16::MAX as usize),
    }
}

fn put_response(body: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Spmv { id, y } => {
            body.push(ST_OK);
            put_u64(body, *id);
            body.push(OP_SPMV);
            put_vec(body, y);
        }
        Response::Spmm { id, cols } => {
            body.push(ST_OK);
            put_u64(body, *id);
            body.push(OP_SPMM);
            put_block(body, cols);
        }
        Response::Solver { id, x, residual } => {
            body.push(ST_OK);
            put_u64(body, *id);
            body.push(OP_SOLVER);
            put_vec(body, x);
            put_u64(body, residual.to_bits());
        }
        Response::Error {
            id,
            code,
            retry_after_ms,
            message,
        } => {
            body.push(*code);
            put_u64(body, *id);
            put_u32(body, *retry_after_ms);
            let message = &message.as_bytes()[..message.len().min(u16::MAX as usize)];
            put_u16(body, message.len() as u16);
            body.extend_from_slice(message);
        }
    }
}

/// Decode one response frame body.
pub fn decode_response(body: &[u8]) -> Result<Response> {
    let mut r = Reader::new(body);
    let status = r.u8()?;
    let id = r.u64()?;
    if status != ST_OK {
        let retry_after_ms = r.u32()?;
        let msg_len = r.u16()? as usize;
        let message = String::from_utf8_lossy(r.take(msg_len)?).into_owned();
        r.finish()?;
        return Ok(Response::Error {
            id,
            code: status,
            retry_after_ms,
            message,
        });
    }
    let resp = match r.u8()? {
        OP_SPMV => Response::Spmv { id, y: r.vec()? },
        OP_SPMM => Response::Spmm {
            id,
            cols: r.block("spmm result")?,
        },
        OP_SOLVER => {
            let x = r.vec()?;
            let residual = f64::from_bits(r.u64()?);
            Response::Solver { id, x, residual }
        }
        other => {
            return Err(NetError::Malformed(format!(
                "unknown result opcode {other}"
            )))
        }
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let body = encode_request(&req);
        assert_eq!(decode_request(&body).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let body = encode_response(&resp);
        assert_eq!(decode_response(&body).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::new(
            7,
            "ads-ctr",
            Op::Spmv {
                x: vec![1.0, -2.5, 3.25],
            },
        ));
        round_trip_request(Request::new(
            u64::MAX,
            "m",
            Op::Spmm {
                cols: vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            },
        ));
        round_trip_request(Request::new(
            0,
            "spd",
            Op::SolverIterate {
                steps: 25,
                b: Some(vec![1.0; 4]),
            },
        ));
        round_trip_request(Request::new(
            1,
            "spd",
            Op::SolverIterate { steps: 10, b: None },
        ));
    }

    #[test]
    fn tokened_requests_round_trip_and_set_the_flag() {
        let req = Request::new(42, "m", Op::Spmv { x: vec![1.0, 2.0] }).with_token(*b"s3cret");
        let body = encode_request(&req);
        assert_eq!(body[0], OP_SPMV | FLAG_TOKEN);
        assert_eq!(decode_request(&body).unwrap(), req);
        // The empty token is still "a token": flag set, zero bytes.
        let req = Request::new(1, "m", Op::Spmv { x: vec![] }).with_token(Vec::new());
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        // A token length claim beyond the body is malformed, not a panic.
        let mut lying = vec![OP_SPMV | FLAG_TOKEN];
        lying.extend_from_slice(&u16::MAX.to_le_bytes());
        lying.push(7);
        assert!(matches!(
            decode_request(&lying),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn constant_time_eq_matches_slice_equality() {
        assert!(constant_time_eq(b"", b""));
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(!constant_time_eq(b"", b"x"));
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Spmv {
            id: 7,
            y: vec![0.5, 0.25],
        });
        round_trip_response(Response::Spmm {
            id: 8,
            cols: vec![vec![1.0], vec![2.0]],
        });
        round_trip_response(Response::Solver {
            id: 9,
            x: vec![1.0, 2.0, 3.0],
            residual: 1e-9,
        });
        round_trip_response(Response::Error {
            id: 10,
            code: ERR_OVERLOADED,
            retry_after_ms: 2,
            message: "queue full (64 requests pending), retry later".into(),
        });
    }

    #[test]
    fn framing_peels_complete_frames_only() {
        let mut wire = Vec::new();
        let body_a = encode_request(&Request::new(1, "a", Op::Spmv { x: vec![1.0] }));
        let body_b = encode_request(&Request::new(2, "b", Op::Spmv { x: vec![2.0] }));
        write_frame(&mut wire, &body_a);
        write_frame(&mut wire, &body_b);

        // A partial prefix yields nothing.
        assert!(take_frame(&wire[..3], MAX_FRAME).unwrap().is_none());
        // A partial body yields nothing.
        assert!(take_frame(&wire[..body_a.len() + 2], MAX_FRAME)
            .unwrap()
            .is_none());
        // Two complete frames peel in order.
        let (first, used) = take_frame(&wire, MAX_FRAME).unwrap().unwrap();
        assert_eq!(first, &body_a[..]);
        let (second, used2) = take_frame(&wire[used..], MAX_FRAME).unwrap().unwrap();
        assert_eq!(second, &body_b[..]);
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn oversized_and_truncated_frames_are_typed_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0u8; 32]);
        assert!(matches!(
            take_frame(&wire, 16),
            Err(NetError::FrameTooLarge { len: 32, max: 16 })
        ));

        // A vector length prefix that exceeds the actual bytes must error
        // before allocating.
        let mut body = Vec::new();
        body.push(OP_SPMV);
        put_u64(&mut body, 1);
        put_u16(&mut body, 1);
        body.push(b'm');
        put_u32(&mut body, u32::MAX); // claims 4G elements
        assert!(matches!(decode_request(&body), Err(NetError::Malformed(_))));

        assert!(matches!(
            decode_request(&[9, 0, 0]),
            Err(NetError::Malformed(_))
        ));
        assert!(matches!(decode_response(&[]), Err(NetError::Malformed(_))));
    }
}
