//! # spmv-net
//!
//! The **networked serving front-end**: a std-only TCP layer over the
//! batching service of `spmv-serve`, turning the in-process registry into a
//! shardable network service.
//!
//! * [`protocol`] — length-prefixed binary frames: requests name a matrix and
//!   an op (`spmv`, `spmm`, `solver-iterate`), responses carry the result or
//!   a typed error (including load-shed with a retry-after hint).
//! * [`shard::ShardedNetServer`] — the one server: a listener thread hands
//!   connections to `shards` poll loops ([`server`]), each multiplexing its
//!   per-connection read/write state machines from a single thread; no
//!   thread is ever spawned per request or per connection. Requests are
//!   admitted through bounded per-matrix [`Batcher`](spmv_serve::Batcher)
//!   queues
//!   ([`Batcher::submit_block_bounded`](spmv_serve::Batcher::submit_block_bounded)),
//!   so an overloaded matrix sheds load in O(1) with
//!   [`protocol::ERR_OVERLOADED`] instead of queueing without bound — and the
//!   registry's LRU hot set keeps engine residency capped underneath.
//! * [`client::NetClient`] — a blocking client with a pipelined submit/recv
//!   mode for load generators.
//!
//! The crate is pure `std` plus one `poll(2)` declaration, no dependency: no
//! async runtime, no epoll binding. Every thread of the server blocks on the
//! event that ends its wait — bytes on a socket, a writable socket that owes
//! output, or a poke on its wake pipe (`poller.rs`) — and nothing on the
//! request path sleeps or polls on a timer. That makes the crate **unix-only**
//! (CI and every host it runs on are Linux); there is no fallback sleep loop
//! for other platforms to drift out of date.

#[cfg(not(unix))]
compile_error!("spmv-net blocks in poll(2) and needs a unix target");

pub mod client;
mod poller;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod shardmap;

pub use client::NetClient;
pub use protocol::{Op, Request, Response};
pub use server::{NetStats, ServerConfig};
pub use shard::{NetTotals, ShardedNetServer, ShardedNetServerHandle};
pub use shardmap::{RoutedClient, ShardMap};

use std::fmt;

/// Errors of the network layer.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// A frame length prefix exceeded the cap — corrupt or hostile peer.
    FrameTooLarge {
        /// Claimed body length.
        len: u32,
        /// Configured cap.
        max: u32,
    },
    /// A frame body did not parse.
    Malformed(String),
    /// The server answered with a typed error (see `protocol::ERR_*`).
    Remote {
        /// The error code.
        code: u8,
        /// Backoff hint in milliseconds (nonzero only for overload sheds).
        retry_after_ms: u32,
        /// Server-provided detail.
        message: String,
    },
    /// The connection closed (or was reset) before a complete response
    /// arrived — retryable on a fresh connection.
    ConnectionClosed,
    /// The shard map routed a matrix nowhere (no endpoints configured).
    NoRoute(String),
}

impl NetError {
    /// Whether this error is a load-shed the caller should retry after the
    /// hinted backoff.
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self,
            NetError::Remote {
                code: protocol::ERR_OVERLOADED,
                ..
            }
        )
    }

    /// The retry-after hint of a load-shed response, when present.
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        match self {
            NetError::Remote {
                code: protocol::ERR_OVERLOADED,
                retry_after_ms,
                ..
            } => Some(std::time::Duration::from_millis(*retry_after_ms as u64)),
            _ => None,
        }
    }

    /// Whether the request that hit this error is safe and sensible to retry:
    /// the server closed or reset the connection mid-pipeline (reconnect and
    /// resubmit), shed the request under load (back off per
    /// [`NetError::retry_after`]), or failed the serving batch (transient).
    pub fn is_retryable(&self) -> bool {
        matches!(self, NetError::ConnectionClosed)
            || matches!(
                self,
                NetError::Remote {
                    code: protocol::ERR_OVERLOADED | protocol::ERR_BATCH_PANICKED,
                    ..
                }
            )
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            NetError::Malformed(detail) => write!(f, "malformed frame: {detail}"),
            NetError::Remote {
                code,
                retry_after_ms,
                message,
            } => {
                write!(f, "server error {code}: {message}")?;
                if *retry_after_ms > 0 {
                    write!(f, " (retry after {retry_after_ms}ms)")?;
                }
                Ok(())
            }
            NetError::ConnectionClosed => write!(f, "connection closed mid-response"),
            NetError::NoRoute(name) => {
                write!(f, "no endpoint in the shard map routes matrix '{name}'")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Result alias for the network layer.
pub type Result<T> = std::result::Result<T, NetError>;
