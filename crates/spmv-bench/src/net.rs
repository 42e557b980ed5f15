//! Networked request-stream replay: the `serve-net-*` row family.
//!
//! Mirrors the in-process `serve-*` replay of [`crate::serve`], but drives a
//! real loopback [`ShardedNetServer`]: per scenario, a one-shard server is spawned
//! over a shared [`MatrixRegistry`] and `clients` threads each open their own
//! TCP connection and pipeline flights of spmv requests through the wire
//! protocol. What the rows add over the in-process family:
//!
//! * **client-observed latency** — per-request submit-to-response time as the
//!   *client* sees it (framing, socket, poll loop, batcher, and engine all
//!   included), reported as `ns_per_iter` (mean) plus exact `latency_p50_ns`
//!   / `latency_p99_ns` percentiles over every request of the replay;
//! * **admission control under load** — clients retry load-shed responses
//!   after the server's retry-after hint, and the row carries the `sheds`
//!   count alongside `requests` (served, post-retry);
//! * **registry LRU pressure** — the `evictions` / `cold_rebuilds` deltas of
//!   the replay window, nonzero when the hot set is capped below the suite.
//!
//! Aggregate `gflops` counts `2·nnz` flops per *served* request over the
//! replay wall clock, directly comparable to the `serve-*` rows.

use crate::json::Json;
use crate::serve::{SERVE_MATRIX_LABEL, SERVE_SCENARIOS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmv_core::formats::CsrMatrix;
use spmv_core::tuning::TuningConfig;
use spmv_net::{NetClient, Response, ServerConfig, ShardedNetServer};
use spmv_serve::{BatchPolicy, MatrixRegistry};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Variant label of a networked serve-scenario row.
pub fn serve_net_variant(scenario: &str) -> String {
    format!("serve-net-{scenario}")
}

/// The sharded A/B gate: when the measuring host had ≥2 threads, the 2-shard
/// aggregate throughput must hold at least this fraction of its paired
/// single-shard baseline (keep-best × tolerance absorbs scheduler noise; on
/// real multicore hardware the expectation is well above 1.0).
pub const SHARDED_PARITY_TOLERANCE: f64 = 0.9;

/// How hard the networked replay drives the server.
#[derive(Debug, Clone, Copy)]
pub struct NetReplayLoad {
    /// Concurrent client connections (one thread each).
    pub clients: usize,
    /// Flights (windows of up to 8 pipelined requests) per client.
    pub flights_per_client: usize,
}

impl NetReplayLoad {
    /// A load small enough for CI smoke runs, large enough to pipeline.
    pub fn smoke() -> NetReplayLoad {
        NetReplayLoad {
            clients: 4,
            flights_per_client: 5,
        }
    }
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Exact percentile over a sorted sample (nearest-rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// What one client thread brings back from its replay.
#[derive(Default)]
struct ClientTally {
    /// Latency (ns) of every served request.
    latencies_ns: Vec<u64>,
    /// Served requests per matrix index (for the flop count).
    served: Vec<u64>,
    /// Load-shed responses retried.
    sheds: u64,
}

/// Replay one scenario's request stream through a live loopback server and
/// return its `serve-net-*` artifact row.
///
/// Targeting matches the in-process replay: `uniform` round-robins over the
/// suite, `bursty` pins each flight to one matrix with an idle gap between
/// flights, `hot-skew` sends 80% of traffic to the first matrix. Every
/// request is pipelined ([`NetClient::submit_spmv`] / [`NetClient::recv`])
/// with up to 8 in flight per connection; a load-shed response is retried
/// after the server's retry-after hint until it is served, so `requests`
/// counts traffic that completed and `sheds` counts the refusals on the way.
/// Drive `load.clients` pipelining client threads against `addr`, replaying
/// `scenario`'s targeting pattern; returns the per-client tallies and the
/// replay wall-clock seconds. Shared by the single-server and sharded
/// replays, so the two measure exactly the same client behavior.
fn drive_clients(
    addr: SocketAddr,
    scenario: &str,
    names: &[&'static str],
    dims: &[usize],
    load: NetReplayLoad,
) -> (Vec<ClientTally>, f64) {
    let t0 = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load.clients)
            .map(|client| {
                let scenario = scenario.to_string();
                let dims = &dims;
                scope.spawn(move || {
                    let mut tally = ClientTally {
                        served: vec![0; names.len()],
                        ..ClientTally::default()
                    };
                    let mut conn = NetClient::connect(addr).expect("connect");
                    conn.set_timeout(Some(Duration::from_secs(30))).ok();
                    let mut rng = StdRng::seed_from_u64(0xBEEF + client as u64);
                    let m = names.len();
                    for flight in 0..load.flights_per_client {
                        // Submit a window of 8 pipelined requests.
                        let mut inflight: Vec<(u64, usize, Instant)> = Vec::with_capacity(8);
                        for r in 0..8 {
                            let target = match scenario.as_str() {
                                "uniform" => (client + flight * 8 + r) % m,
                                "bursty" => (client + flight) % m,
                                _ => {
                                    if m == 1 || rng.random_range(0..10) < 8 {
                                        0
                                    } else {
                                        1 + rng.random_range(0..m - 1)
                                    }
                                }
                            } % m;
                            let x: Vec<f64> = (0..dims[target])
                                .map(|i| ((i * 13 + r * 7 + client) % 19) as f64 * 0.5)
                                .collect();
                            let id = conn
                                .submit_spmv(names[target], &x)
                                .expect("submit over socket");
                            inflight.push((id, target, Instant::now()));
                        }
                        // Drain the window; retry anything the server shed.
                        while !inflight.is_empty() {
                            let resp = conn.recv().expect("response");
                            let (resp_id, shed_retry) = match &resp {
                                Response::Error {
                                    id,
                                    code,
                                    retry_after_ms,
                                    ..
                                } if *code == spmv_net::protocol::ERR_OVERLOADED => {
                                    (*id, Some(Duration::from_millis(*retry_after_ms as u64)))
                                }
                                Response::Spmv { id, .. } => (*id, None),
                                other => panic!("unexpected response {other:?}"),
                            };
                            let idx = inflight
                                .iter()
                                .position(|(id, _, _)| *id == resp_id)
                                .expect("response matches a submitted request");
                            let (_, target, t_submit) = inflight.swap_remove(idx);
                            match shed_retry {
                                Some(backoff) => {
                                    tally.sheds += 1;
                                    std::thread::sleep(backoff);
                                    let x: Vec<f64> = (0..dims[target])
                                        .map(|i| ((i * 13 + client) % 19) as f64 * 0.5)
                                        .collect();
                                    let id = conn
                                        .submit_spmv(names[target], &x)
                                        .expect("resubmit after shed");
                                    inflight.push((id, target, Instant::now()));
                                }
                                None => {
                                    tally.latencies_ns.push(
                                        u64::try_from(t_submit.elapsed().as_nanos())
                                            .unwrap_or(u64::MAX),
                                    );
                                    tally.served[target] += 1;
                                }
                            }
                        }
                        if scenario == "bursty" {
                            std::thread::sleep(Duration::from_micros(300));
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    (tallies, wall)
}

/// The folded result of one replay: sorted latencies, per-matrix served
/// counts, shed count, and wall-clock seconds.
struct ReplayOutcome {
    latencies: Vec<u64>,
    served_per_matrix: Vec<u64>,
    sheds: u64,
    wall: f64,
    evictions: u64,
    cold_rebuilds: u64,
}

impl ReplayOutcome {
    fn fold(tallies: Vec<ClientTally>, nmatrices: usize, wall: f64) -> ReplayOutcome {
        let mut latencies: Vec<u64> = Vec::new();
        let mut served_per_matrix = vec![0u64; nmatrices];
        let mut sheds = 0u64;
        for tally in tallies {
            latencies.extend(tally.latencies_ns);
            for (total, n) in served_per_matrix.iter_mut().zip(tally.served) {
                *total += n;
            }
            sheds += tally.sheds;
        }
        latencies.sort_unstable();
        ReplayOutcome {
            latencies,
            served_per_matrix,
            sheds,
            wall,
            evictions: 0,
            cold_rebuilds: 0,
        }
    }

    /// Aggregate served-request throughput in GFLOP/s (2·nnz per request).
    fn gflops(&self, registry: &MatrixRegistry, names: &[&'static str]) -> f64 {
        let mut flops = 0.0f64;
        for (name, &count) in names.iter().zip(&self.served_per_matrix) {
            let served = registry.get(name).expect("registered matrix");
            flops += (2 * served.nnz() as u64 * count) as f64;
        }
        flops / self.wall / 1e9
    }

    /// Build the artifact row shared by every `serve-net-*` variant.
    fn row(
        &self,
        variant: String,
        registry: &MatrixRegistry,
        names: &[&'static str],
        nthreads: usize,
        extra: Vec<(&'static str, Json)>,
    ) -> Json {
        let requests = self.latencies.len();
        let mut flops = 0.0f64;
        let mut nnz_applied = 0u64;
        let mut footprint = 0usize;
        let mut nnz_total = 0usize;
        for (name, &count) in names.iter().zip(&self.served_per_matrix) {
            let served = registry.get(name).expect("registered matrix");
            flops += (2 * served.nnz() as u64 * count) as f64;
            nnz_applied += served.nnz() as u64 * count;
            footprint += served.footprint().total_bytes;
            nnz_total += served.nnz();
        }
        let mean_ns = if requests > 0 {
            self.latencies.iter().map(|&ns| ns as f64).sum::<f64>() / requests as f64
        } else {
            0.0
        };
        let mut fields = vec![
            ("matrix", Json::str(SERVE_MATRIX_LABEL)),
            ("nnz", Json::int(nnz_applied as usize)),
            ("variant", Json::str(variant)),
            ("threads", Json::int(nthreads)),
            ("gflops", Json::Num(round3(flops / self.wall / 1e9))),
            ("ns_per_iter", Json::Num(mean_ns.round())),
            (
                "bytes_per_nnz",
                Json::Num(round3(footprint as f64 / nnz_total.max(1) as f64)),
            ),
            ("requests", Json::int(requests)),
            ("sheds", Json::int(self.sheds as usize)),
            ("evictions", Json::int(self.evictions as usize)),
            ("cold_rebuilds", Json::int(self.cold_rebuilds as usize)),
            (
                "latency_p50_ns",
                Json::int(percentile(&self.latencies, 50.0) as usize),
            ),
            (
                "latency_p99_ns",
                Json::int(percentile(&self.latencies, 99.0) as usize),
            ),
            (
                "max_latency_ns",
                Json::int(self.latencies.last().copied().unwrap_or(0) as usize),
            ),
        ];
        fields.extend(extra);
        Json::obj(fields)
    }
}

fn replay_net_scenario(
    scenario: &str,
    registry: &Arc<MatrixRegistry>,
    names: &[&'static str],
    nthreads: usize,
    load: NetReplayLoad,
) -> Json {
    let config = ServerConfig {
        batch: BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_micros(500),
        },
        ..ServerConfig::default()
    };
    let mut handle = ShardedNetServer::bind(Arc::clone(registry), "127.0.0.1:0", config, 1)
        .expect("bind loopback server")
        .spawn()
        .expect("spawn server thread");
    let addr = handle.addr();

    let evictions_before = registry.evictions();
    let rebuilds_before = registry.cold_rebuilds();
    let dims: Vec<usize> = names
        .iter()
        .map(|name| registry.get(name).expect("registered matrix").ncols())
        .collect();

    let (tallies, wall) = drive_clients(addr, scenario, names, &dims, load);
    handle.shutdown();

    let mut outcome = ReplayOutcome::fold(tallies, names.len(), wall);
    outcome.evictions = registry.evictions() - evictions_before;
    outcome.cold_rebuilds = registry.cold_rebuilds() - rebuilds_before;
    outcome.row(
        serve_net_variant(scenario),
        registry,
        names,
        nthreads,
        vec![],
    )
}

/// Replay every scenario of [`SERVE_SCENARIOS`] through a live loopback
/// server over one shared registry built from `matrices`, and return the
/// `serve-net-*` rows. Each scenario gets a fresh server (fresh batcher
/// queues and connection stats); the registry — and its engines — are shared,
/// so only the first scenario pays the tuning cost.
pub fn run_serve_net_scenarios(
    matrices: &[(&'static str, CsrMatrix)],
    nthreads: usize,
    load: NetReplayLoad,
) -> Vec<Json> {
    let registry = Arc::new(MatrixRegistry::new(nthreads.max(1), TuningConfig::full()));
    let names: Vec<&'static str> = matrices
        .iter()
        .map(|(id, csr)| {
            registry.insert(id, csr).expect("register suite matrix");
            *id
        })
        .collect();
    SERVE_SCENARIOS
        .iter()
        .map(|scenario| {
            eprintln!("[serve_bench] replaying '{scenario}' over loopback TCP");
            replay_net_scenario(scenario, &registry, &names, nthreads, load)
        })
        .collect()
}

/// Replay one load through a [`ShardedNetServer`] with `shards` poll shards
/// and return the folded outcome (no registry deltas — the A/B runner
/// attributes those per pair).
fn replay_sharded_once(
    registry: &Arc<MatrixRegistry>,
    names: &[&'static str],
    dims: &[usize],
    shards: usize,
    load: NetReplayLoad,
) -> ReplayOutcome {
    let config = ServerConfig {
        batch: BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_micros(500),
        },
        ..ServerConfig::default()
    };
    let mut handle = ShardedNetServer::bind(Arc::clone(registry), "127.0.0.1:0", config, shards)
        .expect("bind sharded server")
        .spawn()
        .expect("spawn sharded server");
    let (tallies, wall) = drive_clients(handle.addr(), "uniform", names, dims, load);
    handle.shutdown();
    ReplayOutcome::fold(tallies, names.len(), wall)
}

/// The sharded-vs-single-shard A/B row: `serve-net-sharded-uniform`.
///
/// Runs the `uniform` replay through a 2-shard [`ShardedNetServer`] and,
/// paired in the same process under the same conditions, through a 1-shard
/// instance of the *same* server type (so the comparison isolates the shard
/// count, not the handoff overhead). Each leg is measured `rounds` times and
/// the best throughput kept — paired keep-best, the same noise discipline as
/// the ablation harness — and the single-shard best is embedded in the row
/// as `baseline_gflops` so the gate travels with the measurement.
///
/// `host_threads` records the machine parallelism *at measurement time*:
/// on a single-core host the two legs time-slice one core and the sharded
/// speedup cannot physically appear, so the downstream gate conditions on
/// this field rather than on check-time hardware.
pub fn run_serve_net_sharded(
    matrices: &[(&'static str, CsrMatrix)],
    nthreads: usize,
    load: NetReplayLoad,
) -> Json {
    // The acceptance point is ≥4 concurrent clients over ≥2 shards.
    let load = NetReplayLoad {
        clients: load.clients.max(4),
        ..load
    };
    let shards = 2usize;
    let registry = Arc::new(MatrixRegistry::new(nthreads.max(1), TuningConfig::full()));
    let names: Vec<&'static str> = matrices
        .iter()
        .map(|(id, csr)| {
            registry.insert(id, csr).expect("register suite matrix");
            *id
        })
        .collect();
    let dims: Vec<usize> = names
        .iter()
        .map(|name| registry.get(name).expect("registered matrix").ncols())
        .collect();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Warm the engines once so neither leg pays first-touch tuning.
    let _ = replay_sharded_once(
        &registry,
        &names,
        &dims,
        1,
        NetReplayLoad {
            clients: 2,
            flights_per_client: 1,
        },
    );

    let rounds = 3;
    let mut best_single: f64 = 0.0;
    let mut best_sharded: Option<(f64, ReplayOutcome)> = None;
    for round in 0..rounds {
        eprintln!(
            "[serve_bench] sharded A/B round {}/{rounds}: 1 shard vs {shards} shards, {} clients",
            round + 1,
            load.clients
        );
        let single = replay_sharded_once(&registry, &names, &dims, 1, load);
        best_single = best_single.max(single.gflops(&registry, &names));
        let sharded = replay_sharded_once(&registry, &names, &dims, shards, load);
        let g = sharded.gflops(&registry, &names);
        if best_sharded.as_ref().is_none_or(|(best, _)| g > *best) {
            best_sharded = Some((g, sharded));
        }
    }
    let (_, outcome) = best_sharded.expect("at least one sharded round");
    outcome.row(
        "serve-net-sharded-uniform".to_string(),
        &registry,
        &names,
        nthreads,
        vec![
            ("shards", Json::int(shards)),
            ("clients", Json::int(load.clients)),
            ("baseline_gflops", Json::Num(round3(best_single))),
            ("host_threads", Json::int(host_threads)),
        ],
    )
}

/// The cold-start SLO row: `serve-net-coldstart`.
///
/// Serves a registry whose hot set is capped at **one** resident engine while
/// a sequential client alternates between two matrices — so every request
/// after the first lands on a just-evicted matrix and pays the full
/// rebuild-from-retained-plan cost inside its latency. The row's
/// `latency_p99_ns` is therefore the rebuild-inclusive cold-start SLO number,
/// and `cold_rebuilds` counts how many requests actually took that path
/// (sits right next to `spmv_registry_cold_rebuilds_total` in the metrics).
pub fn run_serve_net_coldstart(matrices: &[(&'static str, CsrMatrix)], nthreads: usize) -> Json {
    assert!(
        matrices.len() >= 2,
        "cold-start needs two matrices to thrash"
    );
    let registry =
        Arc::new(MatrixRegistry::new(nthreads.max(1), TuningConfig::full()).with_hot_capacity(1));
    let names: Vec<&'static str> = matrices
        .iter()
        .take(2)
        .map(|(id, csr)| {
            registry.insert(id, csr).expect("register suite matrix");
            *id
        })
        .collect();
    let dims: Vec<usize> = names
        .iter()
        .map(|name| registry.get(name).expect("registered matrix").ncols())
        .collect();

    let mut handle = ShardedNetServer::bind(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
        1,
    )
    .expect("bind loopback server")
    .spawn()
    .expect("spawn server thread");

    let rebuilds_before = registry.cold_rebuilds();
    let evictions_before = registry.evictions();
    let mut conn = NetClient::connect(handle.addr()).expect("connect");
    conn.set_timeout(Some(Duration::from_secs(60))).ok();

    let alternations = 20usize;
    let mut latencies: Vec<u64> = Vec::with_capacity(alternations * 2);
    let mut served_per_matrix = vec![0u64; names.len()];
    eprintln!(
        "[serve_bench] cold-start SLO: hot set 1, alternating {} requests over {:?}",
        alternations * 2,
        names
    );
    let t0 = Instant::now();
    for i in 0..alternations * 2 {
        let target = i % 2;
        let x: Vec<f64> = (0..dims[target])
            .map(|j| ((j * 7 + i) % 13) as f64 * 0.5)
            .collect();
        let t_req = Instant::now();
        let y = conn.spmv(names[target], &x).expect("cold-start request");
        latencies.push(u64::try_from(t_req.elapsed().as_nanos()).unwrap_or(u64::MAX));
        assert!(!y.is_empty());
        served_per_matrix[target] += 1;
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    handle.shutdown();

    latencies.sort_unstable();
    let outcome = ReplayOutcome {
        latencies,
        served_per_matrix,
        sheds: 0,
        wall,
        evictions: registry.evictions() - evictions_before,
        cold_rebuilds: registry.cold_rebuilds() - rebuilds_before,
    };
    outcome.row(
        "serve-net-coldstart".to_string(),
        &registry,
        &names,
        nthreads,
        vec![("hot_capacity", Json::int(1))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrices::suite::{Scale, SuiteMatrix};

    fn tiny_suite() -> Vec<(&'static str, CsrMatrix)> {
        [SuiteMatrix::Circuit, SuiteMatrix::Epidemiology]
            .iter()
            .map(|m| (m.id(), CsrMatrix::from_coo(&m.generate(Scale::Tiny))))
            .collect()
    }

    #[test]
    fn net_scenarios_emit_one_row_each_with_latency_percentiles() {
        let matrices = tiny_suite();
        let load = NetReplayLoad {
            clients: 2,
            flights_per_client: 2,
        };
        let rows = run_serve_net_scenarios(&matrices, 2, load);
        assert_eq!(rows.len(), SERVE_SCENARIOS.len());
        for (row, scenario) in rows.iter().zip(SERVE_SCENARIOS) {
            assert_eq!(
                row.get("variant").and_then(Json::as_str),
                Some(serve_net_variant(scenario).as_str())
            );
            assert_eq!(
                row.get("matrix").and_then(Json::as_str),
                Some(SERVE_MATRIX_LABEL)
            );
            assert!(row.get("gflops").and_then(Json::as_f64).unwrap() > 0.0);
            let requests = row.get("requests").and_then(Json::as_f64).unwrap();
            assert_eq!(
                requests,
                (load.clients * load.flights_per_client * 8) as f64,
                "every request must eventually be served"
            );
            let p50 = row.get("latency_p50_ns").and_then(Json::as_f64).unwrap();
            let p99 = row.get("latency_p99_ns").and_then(Json::as_f64).unwrap();
            let max = row.get("max_latency_ns").and_then(Json::as_f64).unwrap();
            assert!(p50 > 0.0);
            assert!(p99 >= p50);
            assert!(max >= p99);
            for field in ["sheds", "evictions", "cold_rebuilds"] {
                assert!(row.get(field).and_then(Json::as_f64).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn sharded_ab_row_carries_baseline_and_shard_fields() {
        let matrices = tiny_suite();
        let load = NetReplayLoad {
            clients: 4,
            flights_per_client: 2,
        };
        let row = run_serve_net_sharded(&matrices, 2, load);
        assert_eq!(
            row.get("variant").and_then(Json::as_str),
            Some("serve-net-sharded-uniform")
        );
        assert_eq!(row.get("shards").and_then(Json::as_f64), Some(2.0));
        assert_eq!(row.get("clients").and_then(Json::as_f64), Some(4.0));
        assert!(row.get("gflops").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(row.get("baseline_gflops").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(row.get("host_threads").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(
            row.get("requests").and_then(Json::as_f64),
            Some((load.clients * load.flights_per_client * 8) as f64),
            "the kept sharded leg served the whole replay"
        );
    }

    #[test]
    fn coldstart_row_counts_rebuilds_and_reports_finite_p99() {
        let row = run_serve_net_coldstart(&tiny_suite(), 2);
        assert_eq!(
            row.get("variant").and_then(Json::as_str),
            Some("serve-net-coldstart")
        );
        assert_eq!(row.get("hot_capacity").and_then(Json::as_f64), Some(1.0));
        assert_eq!(row.get("requests").and_then(Json::as_f64), Some(40.0));
        // Alternating two matrices over a one-engine hot set: all but the
        // first touches of each matrix rebuild from the retained plan.
        assert!(
            row.get("cold_rebuilds").and_then(Json::as_f64).unwrap() >= 1.0,
            "the hot-set cap actually forced rebuilds: {row:?}"
        );
        let p50 = row.get("latency_p50_ns").and_then(Json::as_f64).unwrap();
        let p99 = row.get("latency_p99_ns").and_then(Json::as_f64).unwrap();
        assert!(p50 > 0.0);
        assert!(p99 >= p50);
        assert!(p99.is_finite());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
    }
}
