//! Every committed constant of the benchmark: scales, rates, counts, limits.
//!
//! These are fixed so that parent and child commits do identical work. Nothing
//! here is re-calibrated per run; the only run-time inputs are `--seed` (which
//! vectors) and `--seconds` (how long the measured window lasts, set by
//! `run_seconds` in `BENCHMARK.json`). How the rates were calibrated is
//! recorded in the README; they do not move again.

use spmv_matrices::{Scale, SuiteMatrix};

/// `run_seconds` of `BENCHMARK.json`: the measured window of one run.
pub const RUN_SECONDS: u64 = 33;
/// Measured window under `--smoke` when `--seconds` is not given.
pub const SMOKE_SECONDS: f64 = 1.0;

/// Complete set-ups per run; `setup_s` is their median. Each one is measured
/// against for a third of the window.
pub const SETUP_REPS: usize = 3;

/// Length of the slices a run's timings are summarized in (`stats.rs`, *Why
/// quiet slices*). One second holds 20 solves, 150 SpMV calls per path or 700
/// requests, and is short against the seconds-long spells the host is slow
/// for; two-second slices met the quiet state too rarely (spread 17 % against
/// 10 % on `cg-solve`).
pub const SLICE_SECONDS: f64 = 1.0;

// ---- spmv-lib ---------------------------------------------------------------

/// The three matrices of `spmv-lib`, all at a quarter of the paper's size:
/// `fem_cantilever` 880 k nnz (7 MB tuned), `economics` 316 k nnz in 52 k short
/// scattered rows (4 MB + 1.2 MB of vectors), `lp` 1 000 × 275 000 (7 MB, x
/// alone 2.2 MB). Each exceeds the 4 MiB private L2, which is the regime the
/// issue asks for; none exceeds the host's 260 MiB shared L3, and neither
/// would the full-size ones (28 MB). Full size was measured and rejected:
/// streaming 28 MB through an L3 shared with other tenants moved identical runs
/// by ±20 % (1.72–2.58 ms interleaved with the quarter size's 0.86–1.03), and
/// `lp` at full size takes 25 s to tune, eight times a whole run's budget.
pub const LIB_MATRICES: [(SuiteMatrix, Scale); 3] = [
    (SuiteMatrix::FemCantilever, Scale::Quarter),
    (SuiteMatrix::Economics, Scale::Quarter),
    (SuiteMatrix::Lp, Scale::Quarter),
];
/// Seeded x vectors per `spmv-lib` matrix.
pub const LIB_POOL: usize = 4;
/// Tail percentile of one SpMV call, taken within each one-second slice: a
/// slice holds 150–200 calls per matrix and path, which is ten beyond p90.
pub const LIB_TAIL_P: f64 = 90.0;

// ---- cg-solve ---------------------------------------------------------------

/// A quarter of the paper's size: 880 k nnz, 5.3 MB in lower-triangle storage,
/// more than the two 2 MiB private L2s together. The issue asks for full size;
/// there a solve takes 150 ms, so a one-second slice holds six, the three
/// set-ups of a run cost 11 s of the driver's time budget, and identical runs
/// spread by 23 % (quarter size: 10 %).
pub const CG_MATRIX: (SuiteMatrix, Scale) = (SuiteMatrix::FemCantilever, Scale::Quarter);
/// Diagonal := this × the row's off-diagonal absolute sum.
pub const SPD_DOMINANCE: f64 = 1.02;
/// Seeded unit-norm right-hand sides, cycled.
pub const CG_RHS_POOL: usize = 8;
/// `solve(tol, max_iters)`: recurrence residual, relative because ‖b‖ = 1.
pub const CG_TOL: f64 = 1e-8;
pub const CG_MAX_ITERS: u64 = 2000;
/// The true residual `‖b − A·x‖/‖b‖` (plain CSR) a solve must meet to count.
pub const CG_TRUE_RESIDUAL_LIMIT: f64 = 1e-7;
/// Taken within a one-second slice of some twenty solves, so five lie beyond
/// it, not ten: the solves of a slice differ by their right-hand side (the
/// pool is cycled), and p75 is the sixth-hardest of the eight.
pub const CG_TAIL_P: f64 = 75.0;
/// Steps timed for the per-iteration layer metrics (`kernels.sym_iter_us`,
/// `engine.cg_iter_us`).
pub const CG_LAYER_STEPS: u64 = 200;

// ---- net workloads ------------------------------------------------------------

/// The matrix single-vector requests go to (15.5 k dim, 880 k nnz, 124 KB each
/// way per request: framing, copies, polling and batching dominate).
pub const NET_MATRIX: (SuiteMatrix, Scale) = (SuiteMatrix::FemCantilever, Scale::Quarter);
pub const NET_MATRIX_NAME: &str = "fem_cantilever";
/// Engine threads behind the net server; with one poll shard.
pub const NET_ENGINE_THREADS: usize = 1;
pub const NET_SHARDS: usize = 1;
pub const NET_CONNECTIONS: usize = 2;
/// Admission bound of the benchmark's server. `ServerConfig::default()` sheds
/// beyond 256 queued requests, and the seed's host now and then stalls a server
/// thread for 0.2–0.7 s, which at 1 400 req/s is more than 256 arrivals: a run
/// would then count refused requests as failures of the program. Every request
/// of a benchmark run must be answered, so the queue is deep enough to ride a
/// stall out (it shows as latency); shedding itself is the product tests' job.
pub const NET_QUEUE_DEPTH: usize = 4096;
/// Seeded x vectors (with reference y) requests are drawn from.
pub const NET_POOL: usize = 16;

/// Open-loop phases of `net-open`, requests/s over both connections: about 25,
/// 50 and 65 % of the closed-loop capacity (see the README for the calibration).
/// Untraced runs skip `hi`: no end-to-end metric reads it.
pub const OPEN_RATES: [(&str, f64); 3] = [("lo", 700.0), ("mid", 1400.0), ("hi", 1800.0)];
/// Discarded lead-in before each phase's measured part.
pub const OPEN_WARMUP_SECONDS: f64 = 0.5;
/// A request answered correctly within this of its due time meets the limit.
pub const LATENCY_LIMIT_MS: f64 = 5.0;
/// How long after a phase's last due time unanswered requests are given up on.
pub const OPEN_GRACE_SECONDS: f64 = 3.0;
/// The generator's own lateness, at the percentile the end-to-end tail is
/// taken at ([`OPEN_TAIL_P`]), above this flags the run invalid. (Its p99 is
/// reported as `net.gen_late_p99_us.*`; with seven threads on two hardware
/// threads it is 0.4–1.7 ms on the seed, which p50 and p90 latencies do not
/// feel.)
pub const GEN_LATE_LIMIT_US: f64 = 1000.0;
/// `op_tail_ms` on `net-open` is p90, not the p99 the sample would support:
/// on the seed's host an engine epoch is now and then descheduled for tens of
/// milliseconds, each such stall delays ~1–3 % of a phase's requests, and p99
/// then measures how many stalls a run happened to catch (it moved 4–160 ms
/// between identical runs). p99 stays a per-layer metric (`lat_p99_ms.*`).
pub const OPEN_TAIL_P: f64 = 90.0;
/// Pipelined window per connection of the closed-loop capacity probe.
pub const CLOSED_LOOP_WINDOW: usize = 8;

/// `net-interference`: the aggressor's matrices.
pub const SPMM_MATRIX: (SuiteMatrix, Scale) = (SuiteMatrix::Economics, Scale::Quarter);
pub const SPMM_MATRIX_NAME: &str = "economics";
pub const SPMM_K: usize = 8;
pub const SOLVER_MATRIX_NAME: &str = "fem_cantilever_spd";
pub const SOLVER_STEPS: u32 = 16;
/// Every this-many-th aggressor op is a `SolverIterate`; the rest are `Spmm`.
pub const SOLVER_EVERY: usize = 4;
/// Share of the window the victim runs alone before the aggressor starts.
pub const VICTIM_ALONE_SHARE: f64 = 1.0 / 3.0;
/// Taken within a one-second slice of some 600 victim requests (six beyond
/// it): one request in fifty meets a solver op in service, so p99 is the
/// head-of-line wait and p95 would miss it.
pub const VICTIM_TAIL_P: f64 = 99.0;
/// Reported residual vs true residual of a `SolverIterate` answer.
pub const SOLVER_RESIDUAL_TOL: f64 = 1e-8;

// ---- traced run ---------------------------------------------------------------

/// Requests replayed one at a time per depth of the ladder.
pub const LADDER_REQUESTS: usize = 1000;
/// Repetitions of the codec and SpMM layer probes.
pub const PROBE_REPS: usize = 200;
