//! The sharded server: N independent poll loops behind one listener.
//!
//! [`ShardedNetServer`] runs `shards` poll threads (one is the plain
//! single-loop server). One **listener thread** owns the accepting socket
//! and hands each new connection to a shard over a dedicated SPSC handoff
//! queue (an [`std::sync::mpsc`] channel with exactly one producer); the
//! target shard is the one with the fewest open connections handed to it
//! (ties broken round-robin), so long-lived connections spread evenly
//! without any rebalancing machinery. Each shard thread then runs the
//! read → dispatch → collect-tickets → write → block cycle of
//! [`crate::server`] over *its own* connection set and *its own* per-matrix
//! batcher cache, while
//! every shard shares one
//! [`MatrixRegistry`](spmv_serve::MatrixRegistry) — so cross-shard requests
//! for the same matrix still resolve to the same engines and the same LRU hot
//! set, and a shard's batcher coalesces the traffic of its own connections.
//!
//! A connection lives on one shard for its whole life: solver sessions,
//! partial frames, and in-flight tickets never migrate, so every invariant of
//! a single-threaded poll loop holds per shard by construction.
//!
//! **Nobody polls on a timer.** The listener blocks in `poll(2)` on the
//! listening socket, each shard on its connections; every thread also watches
//! its own wake pipe (`poller.rs`). The listener wakes the shard it just
//! handed a connection to, a batcher wakes its shard once per finished batch,
//! and [`ShardedNetServerHandle::shutdown`] wakes everybody.
//!
//! **Why a handoff listener and not per-shard listeners?** `SO_REUSEPORT`
//! accept spreading is not portable std, and a userspace handoff gives
//! least-loaded placement instead of the kernel's hash — at the cost of one
//! queue hop per *connection* (not per request), which is noise next to a
//! TCP handshake.
//!
//! **Observability.** Each shard owns a [`NetStats`]; the handle aggregates
//! them into [`NetTotals`] and folds both views into a metrics snapshot —
//! aggregated `spmv_net_*` families (the same names at every shard count)
//! plus per-shard `spmv_net_shard_*{shard="i"}` families.
//!
//! **Shutdown.** [`ShardedNetServerHandle::shutdown`] stops the listener
//! first (no new connections), then every shard runs the same bounded
//! graceful drain: batchers flush everything admitted, tickets resolve,
//! buffered responses are written — zero stranded tickets on any shard.

use crate::poller::{Poller, Waker, READ};
use crate::server::{NetStats, ServerConfig, ShardCore, DRAIN_BOUND};
use spmv_obs::MetricsSnapshot;
use spmv_serve::MatrixRegistry;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A bound, not-yet-running sharded server; [`ShardedNetServer::spawn`]
/// starts the listener thread and the shard threads.
pub struct ShardedNetServer {
    listener: TcpListener,
    registry: Arc<MatrixRegistry>,
    config: ServerConfig,
    nshards: usize,
    shard_stats: Vec<Arc<NetStats>>,
    shutdown: Arc<AtomicBool>,
}

impl ShardedNetServer {
    /// Bind to `addr` (port 0 for ephemeral) with `shards` poll shards over
    /// the shared `registry`. `shards` is clamped to at least 1; one shard is
    /// a single poll loop plus the handoff hop.
    pub fn bind(
        registry: Arc<MatrixRegistry>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        shards: usize,
    ) -> std::io::Result<ShardedNetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let nshards = shards.max(1);
        Ok(ShardedNetServer {
            listener,
            registry,
            config,
            nshards,
            shard_stats: (0..nshards)
                .map(|_| Arc::new(NetStats::default()))
                .collect(),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (the ephemeral port when bound to port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Start the listener thread and one thread per shard; returns the handle
    /// that owns shutdown and the per-shard stats.
    pub fn spawn(self) -> std::io::Result<ShardedNetServerHandle> {
        let ShardedNetServer {
            listener,
            registry,
            config,
            nshards,
            shard_stats,
            shutdown,
        } = self;
        let addr = listener.local_addr()?;

        // One poller per thread, shards first, the listener's last.
        let mut pollers = (0..=nshards)
            .map(|_| Poller::new())
            .collect::<std::io::Result<Vec<Poller>>>()?;
        let wakers: Vec<Arc<Waker>> = pollers.iter().map(Poller::waker).collect();
        let mut listener_poller = pollers.pop().expect("nshards + 1 pollers");

        // The handle exists before any thread does, so a failed
        // `thread::Builder::spawn` below drops it on the `?` path: `Drop` sets
        // `shutdown`, wakes and joins the threads already started. Shard loops
        // exit only on that flag — returning without it would leave them
        // blocked forever, each pinning the registry `Arc`.
        let mut handle = ShardedNetServerHandle {
            addr,
            shard_stats: shard_stats.clone(),
            shutdown: Arc::clone(&shutdown),
            wakers: wakers.clone(),
            listener_join: None,
            shard_joins: Vec::with_capacity(nshards),
        };

        let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(nshards);
        for (i, (stats, poller)) in shard_stats.iter().zip(pollers).enumerate() {
            let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
            senders.push(tx);
            let mut core = ShardCore::new(
                Arc::clone(&registry),
                config.clone(),
                Arc::clone(stats),
                poller,
            );
            let shutdown = Arc::clone(&shutdown);
            handle.shard_joins.push(
                std::thread::Builder::new()
                    .name(format!("spmv-net-shard-{i}"))
                    .spawn(move || {
                        shard_loop(&mut core, &rx, &shutdown);
                    })?,
            );
        }

        let listener_stats = shard_stats;
        let listener_shutdown = shutdown;
        let listener_join = std::thread::Builder::new()
            .name("spmv-net-listener".into())
            .spawn(move || {
                // `senders` moves in here: when the listener exits, every
                // handoff channel disconnects, which is the shards' signal
                // that no further connections can arrive.
                let mut rr = 0usize;
                // Connections handed to each shard. A shard counts a
                // connection as accepted only once it adopts it, so its own
                // `active()` lags a hand-off still in the queue; hand-offs
                // minus the shard's closes does not.
                let mut handed = vec![0u64; listener_stats.len()];
                while !listener_shutdown.load(Ordering::Acquire) {
                    // Until `WouldBlock`: the backlog is empty.
                    while let Ok((stream, _)) = listener.accept() {
                        // Least-loaded shard by open connections;
                        // round-robin breaks ties deterministically.
                        let least = (0..listener_stats.len())
                            .map(|k| (k + rr) % listener_stats.len())
                            .min_by_key(|&k| handed[k].saturating_sub(listener_stats[k].closed()))
                            .unwrap_or(0);
                        rr = (least + 1) % listener_stats.len();
                        handed[least] += 1;
                        if senders[least].send(stream).is_err() {
                            return; // shard gone — shutting down
                        }
                        wakers[least].wake();
                    }
                    listener_poller.wait(std::iter::once((listener.as_raw_fd(), READ)), None);
                }
            })?;
        handle.listener_join = Some(listener_join);
        Ok(handle)
    }
}

/// One shard thread: adopt handoffs, pump connections, block until either
/// can have changed; drain on shutdown. Whoever sets `shutdown`, hands off a
/// connection or finishes a batch pokes this shard's waker *afterwards*, so
/// the wait cannot sleep through any of them.
fn shard_loop(core: &mut ShardCore, handoff: &Receiver<TcpStream>, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Acquire) {
        while let Ok(stream) = handoff.try_recv() {
            core.adopt(stream);
        }
        core.pump_all();
        core.wait(true, None);
    }
    // Adopt any connections the listener handed off before it stopped, so
    // their sockets close cleanly (they were never read, nothing is stranded).
    while let Ok(stream) = handoff.try_recv() {
        core.adopt(stream);
    }
    core.drain(Instant::now() + DRAIN_BOUND);
}

/// Aggregated counters across every shard of a [`ShardedNetServer`] — one
/// consistent-enough snapshot (each field is summed from relaxed per-shard
/// counters at call time).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetTotals {
    /// Connections accepted across all shards.
    pub accepted: u64,
    /// Connections closed across all shards.
    pub closed: u64,
    /// Requests decoded off the wire across all shards.
    pub requests: u64,
    /// Responses queued for sending across all shards.
    pub responses: u64,
    /// Load-shed refusals across all shards.
    pub sheds: u64,
    /// Error responses across all shards (sheds and unauthorized included).
    pub errors: u64,
    /// Auth-token refusals across all shards.
    pub unauthorized: u64,
    /// Payload bytes read across all shards.
    pub bytes_in: u64,
    /// Payload bytes written across all shards.
    pub bytes_out: u64,
}

impl NetTotals {
    /// Connections currently open across all shards.
    pub fn active(&self) -> u64 {
        self.accepted.saturating_sub(self.closed)
    }
}

/// Handle to a spawned sharded server: address, per-shard stats, aggregated
/// totals, metrics folding, and shutdown.
pub struct ShardedNetServerHandle {
    addr: SocketAddr,
    shard_stats: Vec<Arc<NetStats>>,
    shutdown: Arc<AtomicBool>,
    /// One per shard, then the listener's.
    wakers: Vec<Arc<Waker>>,
    listener_join: Option<JoinHandle<()>>,
    shard_joins: Vec<JoinHandle<()>>,
}

impl ShardedNetServerHandle {
    /// The address the listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of poll shards.
    pub fn shards(&self) -> usize {
        self.shard_stats.len()
    }

    /// The live counters of each shard, indexed by shard id.
    pub fn shard_stats(&self) -> &[Arc<NetStats>] {
        &self.shard_stats
    }

    /// Sum the per-shard counters into one aggregate view.
    pub fn totals(&self) -> NetTotals {
        let mut t = NetTotals::default();
        for s in &self.shard_stats {
            t.accepted += s.accepted();
            t.closed += s.closed();
            t.requests += s.requests();
            t.responses += s.responses();
            t.sheds += s.sheds();
            t.errors += s.errors();
            t.unauthorized += s.unauthorized();
            t.bytes_in += s.bytes_in();
            t.bytes_out += s.bytes_out();
        }
        t
    }

    /// Fold the aggregated `spmv_net_*` families plus the per-shard
    /// `spmv_net_shard_*{shard="i"}` families and a `spmv_net_shards` gauge
    /// into `snap` — scraped alongside
    /// [`MatrixRegistry::metrics_snapshot`](spmv_serve::MatrixRegistry::metrics_snapshot).
    pub fn fold_into(&self, snap: &mut MetricsSnapshot) {
        let t = self.totals();
        snap.gauge("spmv_net_shards", self.shard_stats.len() as f64);
        snap.counter("spmv_net_connections_accepted_total", t.accepted);
        snap.counter("spmv_net_connections_closed_total", t.closed);
        snap.gauge("spmv_net_connections_active", t.active() as f64);
        snap.counter("spmv_net_requests_total", t.requests);
        snap.counter("spmv_net_responses_total", t.responses);
        snap.counter("spmv_net_sheds_total", t.sheds);
        snap.counter("spmv_net_errors_total", t.errors);
        snap.counter("spmv_net_unauthorized_total", t.unauthorized);
        snap.counter("spmv_net_bytes_in_total", t.bytes_in);
        snap.counter("spmv_net_bytes_out_total", t.bytes_out);
        for (i, s) in self.shard_stats.iter().enumerate() {
            s.fold_into_shard(snap, i);
        }
    }

    /// Stop the listener, then drain every shard (in-flight batches flush,
    /// every admitted request gets its response or a typed error — no
    /// stranded tickets on any shard), then join all threads. Blocks until
    /// everything exited. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for waker in &self.wakers {
            waker.wake();
        }
        if let Some(join) = self.listener_join.take() {
            let _ = join.join();
        }
        for join in self.shard_joins.drain(..) {
            let _ = join.join();
        }
    }
}

impl Drop for ShardedNetServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ShardedNetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedNetServer")
            .field("addr", &self.listener.local_addr().ok())
            .field("shards", &self.nshards)
            .field("queue_depth", &self.config.queue_depth)
            .finish()
    }
}

impl std::fmt::Debug for ShardedNetServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedNetServerHandle")
            .field("addr", &self.addr)
            .field("shards", &self.shard_stats.len())
            .finish()
    }
}
