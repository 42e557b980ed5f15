//! The poll loop of one shard: one thread, many connections, bounded queues.
//!
//! A `ShardCore` multiplexes every connection handed to its shard from a single
//! thread — there is no per-connection thread and no per-request thread. Each
//! iteration of [`crate::shard::ShardedNetServer`]'s shard loop:
//!
//! 1. **adopts** any connections the listener thread handed off,
//! 2. **reads** whatever bytes each connection has, peeling complete frames
//!    off its receive buffer and dispatching the requests,
//! 3. **polls** the in-flight batcher tickets ([`Ticket::try_wait`]) and
//!    encodes finished results into the connection's write buffer,
//! 4. **writes** as much buffered output as each socket accepts,
//!
//! and sleeps briefly only when a full pass made no progress. The actual
//! matrix work never runs on the poll thread: spmv/spmm requests are
//! submitted to per-matrix [`Batcher`]s (each with its background service
//! thread), which coalesce concurrent requests — possibly from *different
//! connections* — into fused SpMM batches exactly as in-process callers do.
//!
//! **Admission control.** Submits go through
//! [`Batcher::submit_bounded`] with the configured
//! [`ServerConfig::queue_depth`]: when a matrix's queue is full the request
//! is refused *under the queue lock* (the bound is exact, not
//! check-then-act) and the client gets a typed
//! [`ERR_OVERLOADED`](crate::protocol::ERR_OVERLOADED) response carrying a
//! retry-after hint — the server's costs stay O(connections + queue_depth)
//! no matter the offered load.
//!
//! **Registry LRU.** Every request resolves its matrix through
//! [`MatrixRegistry::get`], which counts as an LRU touch and rematerializes
//! cold entries. The server's batcher cache detects a rematerialized handle
//! (pointer inequality) and rotates the batcher onto it, dropping its pin on
//! the evicted engine.

use crate::protocol::{self, Op, Request, Response};
use spmv_obs::{Counter, MetricsSnapshot};
use spmv_serve::batcher::Ticket;
use spmv_serve::{BatchPolicy, Batcher, MatrixRegistry, ServeError, SolverSession};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-matrix bound on queued requests; submits beyond it are shed with
    /// [`crate::protocol::ERR_OVERLOADED`].
    pub queue_depth: usize,
    /// Batching policy for the per-matrix coalescing queues.
    pub batch: BatchPolicy,
    /// Backoff hint (milliseconds) carried by load-shed responses.
    pub retry_after_ms: u32,
    /// Maximum accepted frame body size.
    pub max_frame: u32,
    /// Sleep between poll passes that made no progress.
    pub idle_poll: Duration,
    /// When set, every request must carry this token on its frame header
    /// (compared in constant time); requests without it are answered with the
    /// typed [`crate::protocol::ERR_UNAUTHORIZED`] and never reach a batcher.
    pub auth_token: Option<Vec<u8>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 256,
            batch: BatchPolicy::default(),
            retry_after_ms: 1,
            max_frame: protocol::MAX_FRAME,
            idle_poll: Duration::from_micros(100),
            auth_token: None,
        }
    }
}

impl ServerConfig {
    /// The same config requiring `token` on every request (builder form).
    pub fn with_auth_token(mut self, token: impl Into<Vec<u8>>) -> ServerConfig {
        self.auth_token = Some(token.into());
        self
    }
}

/// Lock-free counters of the network layer, shared with a running server.
#[derive(Debug, Default)]
pub struct NetStats {
    accepted: Counter,
    closed: Counter,
    requests: Counter,
    responses: Counter,
    sheds: Counter,
    errors: Counter,
    unauthorized: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
}

impl NetStats {
    /// Connections accepted since the server started.
    pub fn accepted(&self) -> u64 {
        self.accepted.get()
    }

    /// Connections closed (by either side) since the server started.
    pub fn closed(&self) -> u64 {
        self.closed.get()
    }

    /// Connections currently open.
    pub fn active(&self) -> u64 {
        self.accepted.get().saturating_sub(self.closed.get())
    }

    /// Requests decoded off the wire.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Responses queued for sending (results and errors).
    pub fn responses(&self) -> u64 {
        self.responses.get()
    }

    /// Requests refused by admission control (load-shed responses sent).
    pub fn sheds(&self) -> u64 {
        self.sheds.get()
    }

    /// Error responses sent (sheds included).
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// Requests refused for a missing or wrong auth token.
    pub fn unauthorized(&self) -> u64 {
        self.unauthorized.get()
    }

    /// Payload bytes read off sockets.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.get()
    }

    /// Payload bytes written to sockets.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.get()
    }

    /// Fold this shard's counters into a [`MetricsSnapshot`] under the
    /// per-shard `spmv_net_shard_*` families, labeled with the shard index —
    /// the sharded server scrapes one of these per poll shard next to the
    /// aggregated `spmv_net_*` families.
    pub fn fold_into_shard(&self, snap: &mut MetricsSnapshot, shard: usize) {
        snap.counter(
            format!("spmv_net_shard_connections_accepted_total{{shard=\"{shard}\"}}"),
            self.accepted(),
        );
        snap.gauge(
            format!("spmv_net_shard_connections_active{{shard=\"{shard}\"}}"),
            self.active() as f64,
        );
        snap.counter(
            format!("spmv_net_shard_requests_total{{shard=\"{shard}\"}}"),
            self.requests(),
        );
        snap.counter(
            format!("spmv_net_shard_responses_total{{shard=\"{shard}\"}}"),
            self.responses(),
        );
        snap.counter(
            format!("spmv_net_shard_sheds_total{{shard=\"{shard}\"}}"),
            self.sheds(),
        );
        snap.counter(
            format!("spmv_net_shard_errors_total{{shard=\"{shard}\"}}"),
            self.errors(),
        );
        snap.counter(
            format!("spmv_net_shard_bytes_in_total{{shard=\"{shard}\"}}"),
            self.bytes_in(),
        );
        snap.counter(
            format!("spmv_net_shard_bytes_out_total{{shard=\"{shard}\"}}"),
            self.bytes_out(),
        );
    }
}

/// One in-flight (submitted, unanswered) request of a connection.
enum Pending {
    Spmv {
        id: u64,
        ticket: Ticket,
    },
    Spmm {
        id: u64,
        tickets: Vec<Ticket>,
        /// Resolved columns, in request order; `None` = still in flight.
        done: Vec<Option<Vec<f64>>>,
    },
}

/// Per-connection state: socket, codec buffers, in-flight tickets, and the
/// connection's solver sessions (one per matrix — sessions are stateful,
/// single-client objects, so they live with the connection).
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    inflight: Vec<Pending>,
    solvers: HashMap<String, SolverSession>,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            inflight: Vec::new(),
            solvers: HashMap::new(),
            dead: false,
        }
    }
}

/// The single-threaded heart of one poll loop: a connection set, the
/// per-matrix batcher cache, and the shared registry.
/// [`crate::shard::ShardedNetServer`] runs one per shard thread, feeding each
/// from a listener-thread handoff queue.
pub(crate) struct ShardCore {
    registry: Arc<MatrixRegistry>,
    config: ServerConfig,
    stats: Arc<NetStats>,
    conns: Vec<Conn>,
    batchers: HashMap<String, Batcher>,
}

impl ShardCore {
    pub(crate) fn new(
        registry: Arc<MatrixRegistry>,
        config: ServerConfig,
        stats: Arc<NetStats>,
    ) -> ShardCore {
        ShardCore {
            registry,
            config,
            stats,
            conns: Vec::new(),
            batchers: HashMap::new(),
        }
    }

    /// Take ownership of an accepted connection.
    pub(crate) fn adopt(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        self.conns.push(Conn::new(stream));
        self.stats.accepted.inc();
    }

    /// One full pass over every connection (read + dispatch, poll tickets,
    /// write, reap the dead). Returns whether any progress was made.
    pub(crate) fn pump_all(&mut self) -> bool {
        let mut progress = false;
        for conn in &mut self.conns {
            progress |= pump(
                conn,
                &self.registry,
                &mut self.batchers,
                &self.config,
                &self.stats,
            );
        }
        let before = self.conns.len();
        self.conns.retain(|c| !c.dead);
        self.stats.closed.add((before - self.conns.len()) as u64);
        progress
    }

    /// Graceful drain: stop reading, flush the batchers (dropping a Batcher
    /// closes its queue, serves everything already admitted, and joins its
    /// service thread — so every in-flight ticket resolves), then deliver the
    /// buffered responses. Bounded by `deadline`: a peer that stopped reading
    /// cannot wedge shutdown. Every connection counts as closed afterwards.
    pub(crate) fn drain(&mut self, deadline: Instant) {
        self.batchers.clear();
        while Instant::now() < deadline {
            let mut outstanding = false;
            for conn in &mut self.conns {
                if conn.dead {
                    continue;
                }
                poll_inflight(conn, &self.stats);
                flush_writes(conn, &self.stats);
                outstanding |= !conn.inflight.is_empty() || !conn.wbuf.is_empty();
            }
            if !outstanding {
                break;
            }
            std::thread::sleep(self.config.idle_poll);
        }
        self.stats
            .closed
            .add(self.conns.iter().filter(|c| !c.dead).count() as u64);
        self.conns.clear();
    }
}

/// Upper bound on the graceful-drain phase of a shutdown: every admitted
/// request is normally answered well within this; a peer that stopped reading
/// its socket forfeits its buffered responses when the bound expires.
pub(crate) const DRAIN_BOUND: Duration = Duration::from_secs(5);

/// One full pass over a connection: read + dispatch, poll tickets, write.
/// Returns whether any progress was made.
fn pump(
    conn: &mut Conn,
    registry: &Arc<MatrixRegistry>,
    batchers: &mut HashMap<String, Batcher>,
    config: &ServerConfig,
    stats: &NetStats,
) -> bool {
    let mut progress = false;

    // Read whatever the socket has.
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                stats.bytes_in.add(n as u64);
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }

    // Peel and dispatch complete frames.
    let mut consumed = 0usize;
    loop {
        match protocol::take_frame(&conn.rbuf[consumed..], config.max_frame) {
            Ok(Some((body, used))) => {
                match protocol::decode_request(body) {
                    Ok(req) => {
                        stats.requests.inc();
                        handle_request(req, conn, registry, batchers, config, stats);
                    }
                    Err(e) => {
                        // The stream still frames correctly; answer the bad
                        // request and keep the connection.
                        respond(
                            conn,
                            Response::Error {
                                id: 0,
                                code: protocol::ERR_MALFORMED,
                                retry_after_ms: 0,
                                message: e.to_string(),
                            },
                            stats,
                        );
                    }
                }
                consumed += used;
                progress = true;
            }
            Ok(None) => break,
            Err(_) => {
                // A lying length prefix: framing itself is broken, nothing
                // after this point can be trusted. Drop the connection.
                conn.dead = true;
                break;
            }
        }
    }
    if consumed > 0 {
        conn.rbuf.drain(..consumed);
    }

    progress |= poll_inflight(conn, stats);
    progress |= flush_writes(conn, stats);
    progress
}

/// Dispatch one decoded request.
fn handle_request(
    req: Request,
    conn: &mut Conn,
    registry: &Arc<MatrixRegistry>,
    batchers: &mut HashMap<String, Batcher>,
    config: &ServerConfig,
    stats: &NetStats,
) {
    let Request {
        id,
        matrix,
        op,
        token,
    } = req;
    // Auth gate: before the registry is touched or anything is admitted, the
    // frame-header token must match the configured one in constant time.
    if let Some(required) = &config.auth_token {
        let presented = token.as_deref().unwrap_or(&[]);
        if !protocol::constant_time_eq(presented, required) {
            stats.unauthorized.inc();
            respond(
                conn,
                Response::Error {
                    id,
                    code: protocol::ERR_UNAUTHORIZED,
                    retry_after_ms: 0,
                    message: "missing or invalid auth token".into(),
                },
                stats,
            );
            return;
        }
    }
    let Some(served) = registry.get(&matrix) else {
        respond(
            conn,
            error_response(id, &ServeError::UnknownMatrix(matrix), config),
            stats,
        );
        return;
    };

    match op {
        Op::Spmv { x } => {
            let batcher = batcher_for(batchers, &matrix, &served, config);
            match batcher.submit_bounded(x, config.queue_depth) {
                Ok(ticket) => conn.inflight.push(Pending::Spmv { id, ticket }),
                Err(e) => {
                    if matches!(e, ServeError::Overloaded { .. }) {
                        stats.sheds.inc();
                    }
                    respond(conn, error_response(id, &e, config), stats);
                }
            }
        }
        Op::Spmm { cols } => {
            if cols.is_empty() {
                respond(conn, Response::Spmm { id, cols: vec![] }, stats);
                return;
            }
            let batcher = batcher_for(batchers, &matrix, &served, config);
            let k = cols.len();
            let mut tickets = Vec::with_capacity(k);
            for col in cols {
                match batcher.submit_bounded(col, config.queue_depth) {
                    Ok(ticket) => tickets.push(ticket),
                    Err(e) => {
                        // Fail the whole block with one typed error; columns
                        // already admitted will complete and be discarded.
                        if matches!(e, ServeError::Overloaded { .. }) {
                            stats.sheds.inc();
                        }
                        respond(conn, error_response(id, &e, config), stats);
                        return;
                    }
                }
            }
            conn.inflight.push(Pending::Spmm {
                id,
                tickets,
                done: (0..k).map(|_| None).collect(),
            });
        }
        Op::SolverIterate { steps, b } => {
            // Solver sessions are stateful single-client objects; their
            // iterations run inline on the poll thread (each call is bounded
            // by `steps`), keeping the session exactly as consistent as the
            // in-process API.
            let outcome = (|| -> spmv_serve::Result<Response> {
                if let Some(b) = &b {
                    match conn.solvers.get_mut(&matrix) {
                        Some(session) => session.reset(b)?,
                        None => {
                            let session = served.solver_session(b)?;
                            conn.solvers.insert(matrix.clone(), session);
                        }
                    }
                }
                let Some(session) = conn.solvers.get_mut(&matrix) else {
                    return Ok(Response::Error {
                        id,
                        code: protocol::ERR_MALFORMED,
                        retry_after_ms: 0,
                        message: format!("no open solver session on '{matrix}' (send b first)"),
                    });
                };
                let residual = session.iterate(steps as u64)?;
                Ok(Response::Solver {
                    id,
                    x: session.extract(),
                    residual,
                })
            })();
            match outcome {
                Ok(resp) => respond(conn, resp, stats),
                Err(e) => respond(conn, error_response(id, &e, config), stats),
            }
        }
    }
}

/// The batcher serving `name`, rotated onto `served` if the registry handed
/// out a new handle (an LRU eviction rematerialized the matrix, or it was
/// re-registered). Replacing the batcher drops the old one, which flushes
/// whatever it had admitted and unpins the evicted engine.
fn batcher_for<'a>(
    batchers: &'a mut HashMap<String, Batcher>,
    name: &str,
    served: &Arc<spmv_serve::ServedMatrix>,
    config: &ServerConfig,
) -> &'a Batcher {
    let stale = batchers
        .get(name)
        .is_some_and(|b| !Arc::ptr_eq(b.matrix(), served));
    if stale {
        batchers.remove(name);
    }
    batchers
        .entry(name.to_string())
        .or_insert_with(|| Batcher::spawn(Arc::clone(served), config.batch))
}

/// Poll every in-flight ticket; encode finished requests. Returns whether
/// anything resolved.
fn poll_inflight(conn: &mut Conn, stats: &NetStats) -> bool {
    let mut finished: Vec<Response> = Vec::new();
    conn.inflight.retain_mut(|pending| match pending {
        Pending::Spmv { id, ticket } => match ticket.try_wait() {
            None => true,
            Some(Ok(y)) => {
                finished.push(Response::Spmv { id: *id, y });
                false
            }
            Some(Err(e)) => {
                finished.push(serve_error_to_response(*id, &e, 0));
                false
            }
        },
        Pending::Spmm { id, tickets, done } => {
            let mut failed: Option<ServeError> = None;
            for (slot, ticket) in done.iter_mut().zip(tickets.iter()) {
                if slot.is_some() {
                    continue;
                }
                match ticket.try_wait() {
                    None => {}
                    Some(Ok(y)) => *slot = Some(y),
                    Some(Err(e)) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = failed {
                finished.push(serve_error_to_response(*id, &e, 0));
                return false;
            }
            if done.iter().all(Option::is_some) {
                finished.push(Response::Spmm {
                    id: *id,
                    cols: done.iter_mut().map(|slot| slot.take().unwrap()).collect(),
                });
                return false;
            }
            true
        }
    });
    let resolved = !finished.is_empty();
    for resp in finished {
        respond(conn, resp, stats);
    }
    resolved
}

/// Write as much buffered output as the socket accepts. Returns whether any
/// bytes moved.
fn flush_writes(conn: &mut Conn, stats: &NetStats) -> bool {
    let mut written = 0usize;
    while written < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[written..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if written > 0 {
        conn.wbuf.drain(..written);
        stats.bytes_out.add(written as u64);
        return true;
    }
    false
}

/// Encode one response into the connection's write buffer.
fn respond(conn: &mut Conn, resp: Response, stats: &NetStats) {
    if matches!(resp, Response::Error { .. }) {
        stats.errors.inc();
    }
    stats.responses.inc();
    let body = protocol::encode_response(&resp);
    protocol::write_frame(&mut conn.wbuf, &body);
}

/// Map a service-layer error to a typed wire response, attaching the
/// configured retry-after hint to overload sheds.
fn error_response(id: u64, e: &ServeError, config: &ServerConfig) -> Response {
    serve_error_to_response(id, e, config.retry_after_ms)
}

fn serve_error_to_response(id: u64, e: &ServeError, retry_after_ms: u32) -> Response {
    let (code, retry) = match e {
        ServeError::UnknownMatrix(_) => (protocol::ERR_UNKNOWN_MATRIX, 0),
        ServeError::DimensionMismatch { .. } => (protocol::ERR_DIMENSION, 0),
        ServeError::Overloaded { .. } => (protocol::ERR_OVERLOADED, retry_after_ms.max(1)),
        ServeError::BatchPanicked => (protocol::ERR_BATCH_PANICKED, 0),
        ServeError::Closed => (protocol::ERR_CLOSED, 0),
        ServeError::NotSquare { .. } => (protocol::ERR_NOT_SQUARE, 0),
        _ => (protocol::ERR_INTERNAL, 0),
    };
    Response::Error {
        id,
        code,
        retry_after_ms: retry,
        message: e.to_string(),
    }
}
