//! What the two net workloads (and the ladder) share: a one-shard
//! `ShardedNetServer` on loopback over a registry of named matrices, and
//! before/after readings of the layers' public counters.

use super::timed;
use crate::constants::{NET_ENGINE_THREADS, NET_QUEUE_DEPTH, NET_SHARDS};
use spmv_core::formats::CsrMatrix;
use spmv_core::tuning::{TunePlan, TuningConfig};
use spmv_net::{NetTotals, ServerConfig, ShardedNetServer, ShardedNetServerHandle};
use spmv_obs::HistogramSnapshot;
use spmv_serve::{MatrixRegistry, ServedMatrix};
use std::net::SocketAddr;
use std::sync::Arc;

pub struct NetFixture {
    pub registry: Arc<MatrixRegistry>,
    /// Shuts the server down (drains, joins every thread) when dropped.
    pub server: ShardedNetServerHandle,
    pub addr: SocketAddr,
}

/// Plan and register every `(name, matrix)` in a fresh registry and start the
/// server (default `ServerConfig` but for [`NET_QUEUE_DEPTH`]) on an ephemeral
/// loopback port. Returns the
/// fixture with `[plan_s, insert_s]` summed over the matrices.
pub fn start_server(matrices: &[(&str, Arc<CsrMatrix>)]) -> (NetFixture, [f64; 2]) {
    let config = TuningConfig::full();
    let registry = Arc::new(MatrixRegistry::new(NET_ENGINE_THREADS, config));
    let (mut plan_s, mut insert_s) = (0.0, 0.0);
    for (name, csr) in matrices {
        let (plan, s) = timed(|| TunePlan::new(csr, NET_ENGINE_THREADS, &config));
        plan_s += s;
        let ((), s) = timed(|| {
            registry
                .insert_arc_with_plan(name, Arc::clone(csr), plan)
                .expect("a fresh plan fits its matrix");
        });
        insert_s += s;
    }
    let ((server, addr), bind_s) = timed(|| {
        let server = ShardedNetServer::bind(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                queue_depth: NET_QUEUE_DEPTH,
                ..ServerConfig::default()
            },
            NET_SHARDS,
        )
        .expect("bind an ephemeral loopback port")
        .spawn()
        .expect("spawn the listener and shard threads");
        let addr = server.addr();
        (server, addr)
    });
    let fixture = NetFixture {
        registry,
        server,
        addr,
    };
    (fixture, [plan_s, insert_s + bind_s])
}

impl NetFixture {
    pub fn served(&self, name: &str) -> Arc<ServedMatrix> {
        self.registry
            .get(name)
            .expect("the matrix was registered at set-up")
    }
}

/// A reading of the serve and net layers' public counters for one matrix.
pub struct LayerReading {
    pub requests: u64,
    pub batches: u64,
    pub queue_wait: HistogramSnapshot,
    pub net: NetTotals,
}

impl LayerReading {
    pub fn take(fx: &NetFixture, matrix: &str) -> LayerReading {
        let served = fx.served(matrix);
        let stats = served.serve_stats();
        LayerReading {
            requests: stats.requests(),
            batches: stats.batches(),
            queue_wait: stats.queue_wait_histogram(),
            net: fx.server.totals(),
        }
    }

    /// Add the queue-wait samples recorded between `earlier` and this reading
    /// to `into` (bucket-wise; min/max widen to the later reading's).
    pub fn add_queue_wait_since(&self, earlier: &LayerReading, into: &mut HistogramSnapshot) {
        let (now, then) = (&self.queue_wait, &earlier.queue_wait);
        into.count += now.count.saturating_sub(then.count);
        into.sum += now.sum.saturating_sub(then.sum);
        into.min = if into.min == 0 {
            now.min
        } else {
            into.min.min(now.min)
        };
        into.max = into.max.max(now.max);
        for ((d, n), t) in into
            .buckets
            .iter_mut()
            .zip(now.buckets.iter())
            .zip(then.buckets.iter())
        {
            *d += n.saturating_sub(*t);
        }
    }
}
