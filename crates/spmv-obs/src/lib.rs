//! # spmv-obs
//!
//! Std-only observability primitives shared by every layer of the workspace.
//!
//! Williams et al. attribute SpMV performance to where the cycles actually go
//! — memory traffic, load imbalance, synchronization — and a reproduction that
//! can only report end-to-end GFLOP/s has to *infer* all three. This crate is
//! the substrate that lets each layer report them directly:
//!
//! * [`metrics`] — [`Counter`]/[`Gauge`] on single `AtomicU64`s and a
//!   log-bucketed [`Histogram`] whose record path is two relaxed atomic adds
//!   and a `leading_zeros`: no locks, no allocation, safe to call from
//!   engine workers mid-epoch. Snapshots expose p50/p90/p99 estimated from
//!   the fixed power-of-two buckets.
//! * [`snapshot`] — a serialization-neutral [`MetricsSnapshot`] model with a
//!   Prometheus-style text rendering and a minimal JSON writer, so higher
//!   layers can export without pulling in a serializer.
//! * [`timing`] — the one measurement primitive the tuner's timed
//!   decisions share ([`timing::min_timing`]) and the saturating
//!   `Duration` → nanoseconds fold every counter uses.
//! * [`trace`] — an env-gated (`SPMV_TRACE`) lock-free ring-buffer event
//!   trace. Disabled (the default) it costs one relaxed load per call site.
//!
//! Everything here is dependency-free and allocation-free on the hot path;
//! the only allocations happen when a snapshot is taken.

pub mod metrics;
pub mod snapshot;
pub mod timing;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use snapshot::MetricsSnapshot;
pub use timing::saturating_nanos;
pub use trace::{TraceEvent, TraceKind, TraceRing};
