//! The client side: blocking request/response, plus a pipelined mode.
//!
//! [`NetClient`] wraps one blocking [`TcpStream`]. The simple methods
//! ([`NetClient::spmv`], [`NetClient::spmm`], [`NetClient::solver_iterate`])
//! send one request and wait for its response. The pipelined surface
//! ([`NetClient::submit_spmv`] / [`NetClient::recv`]) lets a load generator
//! keep a window of requests in flight on one connection — responses carry
//! the request id, so the caller matches them up — which is how the
//! benchmark's capacity probe (`benchmark/`, workload `net-open`) keeps the
//! server's batches full.

use crate::protocol::{self, Op, Request, Response};
use crate::{NetError, Result};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Map an io error from an established connection to the typed layer: the
/// disconnect kinds — the server closed (or reset) the socket under us, which
/// a pipelining client must treat as "resubmit on a fresh connection", not as
/// an opaque io failure — become [`NetError::ConnectionClosed`].
fn io_to_net(e: std::io::Error) -> NetError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::NotConnected
        | ErrorKind::UnexpectedEof => NetError::ConnectionClosed,
        _ => NetError::Io(e),
    }
}

/// A blocking client over one TCP connection.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    next_id: u64,
    max_frame: u32,
    token: Option<Vec<u8>>,
}

impl NetClient {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            next_id: 0,
            max_frame: protocol::MAX_FRAME,
            token: None,
        })
    }

    /// Attach an auth token, stamped onto the header of every request this
    /// client sends from now on (builder form).
    pub fn with_token(mut self, token: impl Into<Vec<u8>>) -> NetClient {
        self.token = Some(token.into());
        self
    }

    /// Set or clear the auth token on a connected client.
    pub fn set_token(&mut self, token: Option<Vec<u8>>) {
        self.token = token;
    }

    /// Bound every receive with a socket read timeout (an unresponsive server
    /// then errors instead of hanging the caller).
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Frame one request into the reused write buffer and send it; a name
    /// past 65,535 bytes or a ragged `Spmm` block is refused unsent.
    fn send(&mut self, matrix: &str, op: Op) -> Result<u64> {
        if matrix.len() > u16::MAX as usize {
            return Err(NetError::Malformed("matrix name over 65535 bytes".into()));
        }
        if matches!(&op, Op::Spmm { cols } if cols.iter().any(|c| c.len() != cols[0].len())) {
            return Err(NetError::Malformed("spmm columns differ in length".into()));
        }
        self.next_id += 1;
        let id = self.next_id;
        let mut req = Request::new(id, matrix, op);
        if let Some(token) = &self.token {
            req = req.with_token(token.clone());
        }
        self.wbuf.clear();
        protocol::write_request_frame(&mut self.wbuf, &req);
        self.stream.write_all(&self.wbuf).map_err(io_to_net)?;
        Ok(id)
    }

    /// Read one complete response frame (blocking). A connection the server
    /// closed (or reset) mid-pipeline surfaces as the typed, retryable
    /// [`NetError::ConnectionClosed`] — resubmit on a fresh connection.
    ///
    /// Order when pipelining (the rule of [`crate::protocol`]): every response
    /// carries its request's id; on one connection, `Spmv`/`Spmm` replies for
    /// the same matrix arrive in submission order, anything else in
    /// completion order.
    pub fn recv(&mut self) -> Result<Response> {
        loop {
            if let Some((body, used)) = protocol::take_frame(&self.rbuf, self.max_frame)? {
                let resp = protocol::decode_response(body)?;
                self.rbuf.drain(..used);
                return Ok(resp);
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::ConnectionClosed),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_to_net(e)),
            }
        }
    }

    /// Wait for the response to request `id`, surfacing typed server errors.
    /// Responses to other ids arriving first are a protocol violation on a
    /// strictly request/response connection and error out; use
    /// [`NetClient::recv`] directly when pipelining.
    fn recv_for(&mut self, id: u64) -> Result<Response> {
        let resp = self.recv()?;
        if resp.id() != id {
            return Err(NetError::Malformed(format!(
                "response for request {} while waiting for {id}",
                resp.id()
            )));
        }
        match resp {
            Response::Error {
                code,
                retry_after_ms,
                message,
                ..
            } => Err(NetError::Remote {
                code,
                retry_after_ms,
                message,
            }),
            other => Ok(other),
        }
    }

    /// `y = A·x` against the named matrix (blocking round trip).
    pub fn spmv(&mut self, matrix: &str, x: &[f64]) -> Result<Vec<f64>> {
        let id = self.send(matrix, Op::Spmv { x: x.to_vec() })?;
        match self.recv_for(id)? {
            Response::Spmv { y, .. } => Ok(y),
            other => Err(NetError::Malformed(format!("spmv answered with {other:?}"))),
        }
    }

    /// `Y = A·X` for a block of columns (blocking round trip; the server
    /// serves the block as one coalesced batch).
    pub fn spmm(&mut self, matrix: &str, cols: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        let id = self.send(
            matrix,
            Op::Spmm {
                cols: cols.to_vec(),
            },
        )?;
        match self.recv_for(id)? {
            Response::Spmm { cols, .. } => Ok(cols),
            other => Err(NetError::Malformed(format!("spmm answered with {other:?}"))),
        }
    }

    /// Run `steps` CG iterations on this connection's solver session for the
    /// named matrix. Pass `b = Some(..)` on the first call (or to restart on
    /// a new right-hand side); `None` continues the session. Returns the
    /// current iterate and the recurrence residual norm.
    pub fn solver_iterate(
        &mut self,
        matrix: &str,
        steps: u32,
        b: Option<&[f64]>,
    ) -> Result<(Vec<f64>, f64)> {
        let id = self.send(
            matrix,
            Op::SolverIterate {
                steps,
                b: b.map(|b| b.to_vec()),
            },
        )?;
        match self.recv_for(id)? {
            Response::Solver { x, residual, .. } => Ok((x, residual)),
            other => Err(NetError::Malformed(format!(
                "solver-iterate answered with {other:?}"
            ))),
        }
    }

    /// Pipelined submit: send an spmv request and return its id without
    /// waiting. Pair with [`NetClient::recv`].
    pub fn submit_spmv(&mut self, matrix: &str, x: &[f64]) -> Result<u64> {
        self.send(matrix, Op::Spmv { x: x.to_vec() })
    }

    /// Pipelined submit of a column block.
    pub fn submit_spmm(&mut self, matrix: &str, cols: &[Vec<f64>]) -> Result<u64> {
        self.send(
            matrix,
            Op::Spmm {
                cols: cols.to_vec(),
            },
        )
    }
}
