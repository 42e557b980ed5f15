//! Tier-1 window onto `spmv-serve` and `spmv-net`.
//!
//! `cargo test` at the workspace root runs the root package only, and the
//! serving crates keep their suites next to their code. Each module below *is*
//! one of those files — included by path, not copied — so the tier-1 command
//! runs the batcher's wake-up and admission tests, the registry and solver
//! suites, the codec golden suite, the loopback, fault-injection, sharding
//! and shard-map suites, and the server's lost-wake-up tests. The files use public API only, which is
//! what lets them compile here as well as in their own crate. (`spmv-serve`'s
//! five `stats.rs` unit tests read a private constant and stay in-crate.)

#[path = "../crates/spmv-serve/tests/batcher.rs"]
mod batcher;
#[path = "../crates/spmv-serve/tests/registry.rs"]
mod registry;
#[path = "../crates/spmv-serve/tests/solver.rs"]
mod solver;

#[path = "../crates/spmv-net/tests/codec.rs"]
mod codec;
#[path = "../crates/spmv-net/tests/loopback.rs"]
mod loopback;
#[path = "../crates/spmv-net/tests/netfault.rs"]
mod netfault;
#[path = "../crates/spmv-net/tests/sharded.rs"]
mod sharded;
#[path = "../crates/spmv-net/tests/shardmap.rs"]
mod shardmap;
#[path = "../crates/spmv-net/tests/wakeups.rs"]
mod wakeups;
