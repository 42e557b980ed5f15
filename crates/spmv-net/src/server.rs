//! The poll loop of one shard: one thread, many connections, bounded queues.
//!
//! A `ShardCore` multiplexes every connection handed to its shard from a single
//! thread — there is no per-connection thread and no per-request thread. Each
//! iteration of [`crate::shard::ShardedNetServer`]'s shard loop:
//!
//! 1. **adopts** any connections the listener thread handed off,
//! 2. **reads** whatever bytes each connection has, peeling complete frames
//!    off its receive buffer and dispatching the requests,
//! 3. **collects** the in-flight batcher tickets that resolved, in submission
//!    order per matrix, and encodes them into the connection's write buffer,
//! 4. **writes** as much buffered output as each socket accepts,
//! 5. **blocks** in `ShardCore::wait` until something can change the outcome
//!    of the next pass: bytes arrive on a connection, a socket with buffered
//!    output becomes writable, or the shard's `Waker` (`poller.rs`) fires — a
//!    batcher finished a batch, the listener handed over a connection,
//!    `shutdown()` was called.
//!
//! Nothing on this path sleeps or polls on a timer. The actual matrix work
//! never runs on the poll thread: spmv/spmm requests are submitted to
//! per-matrix [`Batcher`]s (each with its background service thread, each
//! waking this shard once per finished batch), which coalesce concurrent
//! requests — possibly from *different connections* — into fused SpMM batches
//! exactly as in-process callers do.
//!
//! **Admission control.** Submits go through
//! [`Batcher::submit_block_bounded`] with the configured
//! [`ServerConfig::queue_depth`]: when a matrix's queue cannot take the
//! request — every column of an `Spmm`, or none — it is refused *under the
//! queue lock* (the bound is exact, not check-then-act) and the client gets a
//! typed [`ERR_OVERLOADED`](crate::protocol::ERR_OVERLOADED) response carrying
//! a retry-after hint — the server's costs stay O(connections + queue_depth)
//! no matter the offered load.
//!
//! **Registry LRU.** Every request resolves its matrix through
//! [`MatrixRegistry::get`], which counts as an LRU touch and rematerializes
//! cold entries. The server's batcher cache detects a rematerialized handle
//! (pointer inequality) and rotates the batcher onto it, dropping its pin on
//! the evicted engine.

use crate::poller::{Poller, Waker, READ, WRITE};
use crate::protocol::{self, Op, Request, Response};
use spmv_obs::{Counter, MetricsSnapshot};
use spmv_serve::batcher::Ticket;
use spmv_serve::{BatchPolicy, Batcher, MatrixRegistry, ServeError, SolverSession};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
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
    wakeups: Counter,
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

    /// Returns of the shard thread from its blocking wait: each one is
    /// followed by one pass over the shard's connections, so an idle shard
    /// holds still and a busy one counts a small multiple of its requests.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.get()
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
        snap.counter(
            format!("spmv_net_shard_wakeups_total{{shard=\"{shard}\"}}"),
            self.wakeups(),
        );
    }
}

/// One in-flight (submitted, unanswered) `Spmv` or `Spmm` of a connection.
struct Pending {
    id: u64,
    /// The matrix it went to: replies for one matrix keep submission order.
    matrix: String,
    /// Answer as a block (`Spmm`) or as the one vector (`Spmv`).
    spmm: bool,
    /// One ticket per column, in column order.
    tickets: Vec<Ticket>,
    /// Columns resolved so far. The batcher is FIFO and a block is queued
    /// contiguously, so these are always a prefix of `tickets`.
    done: Vec<Vec<f64>>,
}

impl Pending {
    /// The response, once every column has resolved (or one has failed);
    /// `None` while the batcher still owes a column.
    fn try_finish(&mut self) -> Option<Response> {
        while let Some(ticket) = self.tickets.get(self.done.len()) {
            match ticket.try_wait()? {
                Ok(y) => self.done.push(y),
                Err(e) => return Some(serve_error_to_response(self.id, &e, 0)),
            }
        }
        let mut cols = std::mem::take(&mut self.done);
        Some(if self.spmm {
            Response::Spmm { id: self.id, cols }
        } else {
            Response::Spmv {
                id: self.id,
                y: cols.pop().expect("an Spmv holds exactly one ticket"),
            }
        })
    }
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

/// What request handling needs besides the connection itself.
struct Serving {
    registry: Arc<MatrixRegistry>,
    config: ServerConfig,
    stats: Arc<NetStats>,
    batchers: HashMap<String, Batcher>,
    /// Poked by every batcher of this shard when a batch is done.
    waker: Arc<Waker>,
}

/// The single-threaded heart of one poll loop: a connection set, the
/// per-matrix batcher cache, the shared registry, and the blocking wait.
/// [`crate::shard::ShardedNetServer`] runs one per shard thread, feeding each
/// from a listener-thread handoff queue.
pub(crate) struct ShardCore {
    serving: Serving,
    conns: Vec<Conn>,
    poller: Poller,
}

impl ShardCore {
    pub(crate) fn new(
        registry: Arc<MatrixRegistry>,
        config: ServerConfig,
        stats: Arc<NetStats>,
        poller: Poller,
    ) -> ShardCore {
        ShardCore {
            serving: Serving {
                registry,
                config,
                stats,
                batchers: HashMap::new(),
                waker: poller.waker(),
            },
            conns: Vec::new(),
            poller,
        }
    }

    /// Take ownership of an accepted connection.
    pub(crate) fn adopt(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        self.conns.push(Conn::new(stream));
        self.serving.stats.accepted.inc();
    }

    /// One full pass over every connection (read + dispatch, collect
    /// tickets, write, reap the dead).
    pub(crate) fn pump_all(&mut self) {
        for conn in &mut self.conns {
            pump(conn, &mut self.serving);
        }
        let before = self.conns.len();
        self.conns.retain(|c| !c.dead);
        let stats = &self.serving.stats;
        stats.closed.add((before - self.conns.len()) as u64);
    }

    /// Block until the next pass can make progress: a connection has bytes
    /// (when `reading`), a socket with buffered output accepts more, the
    /// shard's waker fires, or `deadline` passes. Write interest is
    /// registered only while output is buffered — an idle socket is always
    /// writable and would turn the wait into a spin.
    pub(crate) fn wait(&mut self, reading: bool, deadline: Option<Instant>) {
        let sockets = self.conns.iter().filter(|c| !c.dead).filter_map(|c| {
            let mut events = if reading { READ } else { 0 };
            if !c.wbuf.is_empty() {
                events |= WRITE;
            }
            (events != 0).then(|| (c.stream.as_raw_fd(), events))
        });
        self.poller.wait(sockets, deadline);
        self.serving.stats.wakeups.inc();
    }

    /// Graceful drain: stop reading, flush the batchers (dropping a Batcher
    /// closes its queue, serves everything already admitted, and joins its
    /// service thread — so every in-flight ticket resolves), then deliver the
    /// buffered responses, waiting for slow sockets to turn writable. Bounded
    /// by `deadline`: a peer that stopped reading cannot wedge shutdown.
    /// Every connection counts as closed afterwards.
    pub(crate) fn drain(&mut self, deadline: Instant) {
        self.serving.batchers.clear();
        loop {
            for conn in self.conns.iter_mut().filter(|c| !c.dead) {
                collect_finished(conn, &self.serving.stats);
                flush_writes(conn, &self.serving.stats);
            }
            // Every ticket resolved when its batcher was dropped, so all that
            // can be outstanding is output a socket has not accepted yet.
            let owed = self.conns.iter().any(|c| !c.dead && !c.wbuf.is_empty());
            if !owed || Instant::now() >= deadline {
                break;
            }
            self.wait(false, Some(deadline));
        }
        let stats = &self.serving.stats;
        stats
            .closed
            .add(self.conns.iter().filter(|c| !c.dead).count() as u64);
        self.conns.clear();
    }
}

/// Upper bound on the graceful-drain phase of a shutdown: every admitted
/// request is normally answered well within this; a peer that stopped reading
/// its socket forfeits its buffered responses when the bound expires.
pub(crate) const DRAIN_BOUND: Duration = Duration::from_secs(5);

/// One full pass over a connection: read + dispatch, collect tickets,
/// write.
fn pump(conn: &mut Conn, serving: &mut Serving) {
    let (max_frame, stats) = (serving.config.max_frame, Arc::clone(&serving.stats));
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
        match protocol::take_frame(&conn.rbuf[consumed..], max_frame) {
            Ok(Some((body, used))) => {
                match protocol::decode_request(body) {
                    Ok(req) => {
                        stats.requests.inc();
                        handle_request(req, conn, serving);
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
                            &stats,
                        );
                    }
                }
                consumed += used;
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

    collect_finished(conn, &stats);
    flush_writes(conn, &stats);
}

/// Dispatch one decoded request.
fn handle_request(req: Request, conn: &mut Conn, serving: &mut Serving) {
    let Request {
        id,
        matrix,
        op,
        token,
    } = req;
    let Serving {
        registry,
        config,
        stats,
        batchers,
        waker,
    } = serving;
    let (config, stats) = (&*config, &**stats);
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

    let (columns, spmm) = match op {
        Op::Spmv { x } => (vec![x], false),
        Op::Spmm { cols } if cols.is_empty() => {
            respond(conn, Response::Spmm { id, cols: vec![] }, stats);
            return;
        }
        Op::Spmm { cols } => (cols, true),
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
            let resp = outcome.unwrap_or_else(|e| error_response(id, &e, config));
            respond(conn, resp, stats);
            return;
        }
    };
    // A block is admitted whole or refused whole: a shed `Spmm` leaves no
    // column behind for the engine to run and the client to never see.
    let batcher = batcher_for(batchers, &matrix, &served, config, waker);
    match batcher.submit_block_bounded(columns, config.queue_depth) {
        Ok(tickets) => conn.inflight.push(Pending {
            id,
            matrix,
            spmm,
            done: Vec::with_capacity(tickets.len()),
            tickets,
        }),
        Err(e) => {
            if matches!(e, ServeError::Overloaded { .. }) {
                stats.sheds.inc();
            }
            respond(conn, error_response(id, &e, config), stats);
        }
    }
}

/// The batcher serving `name`, rotated onto `served` if the registry handed
/// out a new handle (an LRU eviction rematerialized the matrix, or it was
/// re-registered). Replacing the batcher drops the old one, which flushes
/// whatever it had admitted and unpins the evicted engine. Every batcher
/// wakes its shard once per finished batch.
fn batcher_for<'a>(
    batchers: &'a mut HashMap<String, Batcher>,
    name: &str,
    served: &Arc<spmv_serve::ServedMatrix>,
    config: &ServerConfig,
    waker: &Arc<Waker>,
) -> &'a Batcher {
    let stale = batchers
        .get(name)
        .is_some_and(|b| !Arc::ptr_eq(b.matrix(), served));
    if stale {
        batchers.remove(name);
    }
    batchers.entry(name.to_string()).or_insert_with(|| {
        let waker = Arc::clone(waker);
        let mut batcher =
            Batcher::manual(Arc::clone(served), config.batch).with_batch_done(move || waker.wake());
        batcher.start_service();
        batcher
    })
}

/// Encode every in-flight request that has resolved, in `inflight` order,
/// stopping **per matrix** at the first one that has not: `Spmv`/`Spmm`
/// replies for one matrix leave in submission order by construction, and a
/// slow matrix does not hold back another one's replies.
fn collect_finished(conn: &mut Conn, stats: &NetStats) {
    // `inflight[..kept]` stay, compacted in place; `stalled` holds where in
    // that prefix each matrix's first unresolved request sits.
    let mut kept = 0;
    let mut stalled: Vec<usize> = Vec::new();
    for i in 0..conn.inflight.len() {
        let matrix = &conn.inflight[i].matrix;
        if !stalled.iter().any(|&s| conn.inflight[s].matrix == *matrix) {
            if let Some(resp) = conn.inflight[i].try_finish() {
                respond(conn, resp, stats);
                continue;
            }
            stalled.push(kept);
        }
        conn.inflight.swap(kept, i);
        kept += 1;
    }
    conn.inflight.truncate(kept);
}

/// Write as much buffered output as the socket accepts.
fn flush_writes(conn: &mut Conn, stats: &NetStats) {
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
    }
}

/// Encode one response into the connection's write buffer.
fn respond(conn: &mut Conn, resp: Response, stats: &NetStats) {
    if matches!(resp, Response::Error { .. }) {
        stats.errors.inc();
    }
    stats.responses.inc();
    protocol::write_response_frame(&mut conn.wbuf, &resp);
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
