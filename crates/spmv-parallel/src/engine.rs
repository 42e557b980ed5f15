//! The zero-overhead steady-state SpMV engine.
//!
//! An iterative solver calls SpMV thousands of times on the *same* matrix; the paper
//! drives per-iteration parallel overhead to (near) zero by keeping Pthreads alive,
//! giving each a fixed thread block in node-local memory, and writing disjoint
//! destination slices so the steady state needs no locks and no allocation. This
//! module reproduces that execution model exactly, now unified with the tuning
//! ladder through the two-phase `TunePlan` → [`PreparedBlock`] pipeline:
//!
//! * **Persistent workers** — spawned once in [`SpmvEngine::new`], reused by every
//!   [`SpmvEngine::spmv`] call, joined on drop.
//! * **First-touch placement** — each worker *materializes its own*
//!   [`PreparedBlock`] inside its thread during construction, so on a first-touch
//!   NUMA OS the pages of that block land on the worker's node. A tuned engine's
//!   blocks are register-blocked, index-compressed, cache/TLB blocked, and
//!   prefetch-annotated, exactly as the footprint heuristic decided.
//! * **Precomputed disjoint `y` slices** — the row partition is fixed at
//!   construction; each steady-state call just offsets the destination pointer.
//! * **No per-call allocation, no steady-state atomics in the compute loop** — the
//!   per-iteration operand exchange is two condvar-guarded epoch bumps (launch and
//!   completion barrier); the compute loop itself dispatches straight into the
//!   prepared, monomorphized kernels with no per-call branching.
//! * **Batched apply** — [`SpmvEngine::spmm`] runs the multi-vector (SpMM)
//!   kernels over the same disjoint y-slices: each worker writes its row range
//!   of every column of a column-major k-vector block, amortizing all index
//!   traffic across the batch with zero per-call allocation.
//! * **Symmetric execution** — a symmetric plan's workers hold lower-triangle
//!   slabs whose transposed writes scatter *outside* their row ranges, so the
//!   disjoint-slice contract no longer holds. Each symmetric worker instead
//!   computes into its own full-length scratch vector (allocated first-touch at
//!   construction, grown once for wider SpMM batches, zero steady-state
//!   allocation), and the workers combine scratches with a **deterministic
//!   pairwise tree reduction** (log₂ rounds under a generation barrier). The
//!   reduction order is exactly the serial `PreparedMatrix`'s, so symmetric
//!   parallel output stays bit-identical to the symmetric serial reference.
//!
//! Three ways to build one:
//!
//! * [`SpmvEngine::tuned`] — run the footprint heuristic per thread block and
//!   execute the fully tuned structures (the paper's all-optimizations bar).
//! * [`SpmvEngine::from_plan`] — materialize a saved [`TunePlan`] (e.g. loaded via
//!   [`TunePlan::load`]), amortizing tuning cost across program runs.
//! * [`SpmvEngine::new`] / [`SpmvEngine::with_variant`] — plain width-compressed
//!   CSR blocks running one code variant; the untuned baseline.

use spmv_core::error::{Error, Result};
use spmv_core::formats::CsrMatrix;
use spmv_core::kernels::KernelVariant;
use spmv_core::multivec::{MultiVec, MultiVecMut};
use spmv_core::partition::row::{partition_rows_balanced, RowPartition};
use spmv_core::tuning::plan::{ThreadPlan, TunePlan};
use spmv_core::tuning::prepared::PreparedBlock;
use spmv_core::tuning::TuningConfig;
use spmv_core::MatrixShape;
use spmv_obs::{Histogram, HistogramSnapshot, TraceKind};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// The per-iteration operand block: raw views of `x` and `y` published by the
/// caller before the epoch bump. Workers read it only between the launch barrier
/// and the completion barrier, during which the caller's borrow is live.
///
/// For an SpMM epoch, `x`/`y` are column-major blocks of `k` vectors with
/// leading dimensions `x_ld`/`y_ld`; for SpMV, `k == 1` and the strides are
/// unused.
#[derive(Clone, Copy)]
struct Operands {
    x_ptr: *const f64,
    x_len: usize,
    y_ptr: *mut f64,
    y_len: usize,
    k: usize,
    x_ld: usize,
    y_ld: usize,
}

impl Operands {
    const EMPTY: Operands = Operands {
        x_ptr: std::ptr::null(),
        x_len: 0,
        y_ptr: std::ptr::null_mut(),
        y_len: 0,
        k: 0,
        x_ld: 0,
        y_ld: 0,
    };
}

// SAFETY: Operands is a plain pointer pair; the engine's barrier protocol (epoch
// bump happens-before worker read; completion barrier happens-after worker write)
// provides the synchronization that makes sharing it sound.
unsafe impl Send for Operands {}
unsafe impl Sync for Operands {}

/// What the engine asks workers to do when the epoch advances.
#[derive(Clone, Copy, PartialEq)]
enum Command {
    Spmv,
    /// Batched apply: run the multi-vector kernels over the same disjoint
    /// y-slices, each worker writing its row range of every column.
    Spmm,
    /// Fused CG start: `x ← 0`, `r ← b`, `p ← b`, `w ← 0` over the resident
    /// slabs (`b` arrives as `operands.x`), per-worker `r·r` partials in the
    /// scalar slots. The first writes double as first-touch placement.
    CgInit,
    /// `steps` whole fused CG iterations (SpMV + both dots + both vector
    /// updates each) under this single epoch; `rr` is the `r·r` entering the
    /// first one. Every worker carries the recurrence scalar locally across
    /// the in-epoch iterations, so batching costs no extra communication —
    /// just one ordering barrier between consecutive iterations.
    CgStep {
        steps: u64,
        rr: f64,
    },
    /// Re-seed the resident CG state after a hot swap: `operands.x` is the
    /// concatenated `[x; r; p]` (3·n), each worker copies its row slices.
    CgLoad,
    /// Fused power-iteration start: `q ← v0/‖v0‖` (`v0` as `operands.x`).
    PowerInit,
    /// One fused power-iteration step: `w ← A·q`, Rayleigh + norm partials,
    /// `q ← w/‖w‖`, all under this single epoch.
    PowerStep,
    Shutdown,
}

impl Command {
    fn is_solver(&self) -> bool {
        matches!(
            self,
            Command::CgInit
                | Command::CgStep { .. }
                | Command::CgLoad
                | Command::PowerInit
                | Command::PowerStep
        )
    }
}

/// Launch state: bumped epoch + the command and operands for that epoch. The
/// kernel itself is *not* here — it was bound into each worker's
/// [`PreparedBlock`] at construction.
struct Launch {
    epoch: u64,
    command: Command,
    operands: Operands,
    /// Base pointers of the resident solver slabs for solver epochs (the slabs
    /// themselves are owned by the [`SpmvEngine`]; see [`SolverVectors`]).
    solver: SolverOps,
}

/// Published views of the engine-resident solver vectors for one solver epoch.
/// Same synchronization contract as [`Operands`]: written by the caller under
/// the launch lock before the epoch bump, read by workers only between the
/// launch and completion barriers.
#[derive(Clone, Copy)]
struct SolverOps {
    x: *mut f64,
    r: *mut f64,
    p: *mut f64,
    w: *mut f64,
    n: usize,
}

impl SolverOps {
    const EMPTY: SolverOps = SolverOps {
        x: std::ptr::null_mut(),
        r: std::ptr::null_mut(),
        p: std::ptr::null_mut(),
        w: std::ptr::null_mut(),
        n: 0,
    };
}

// SAFETY: plain pointers into the engine-owned slabs; the epoch protocol (launch
// mutex release happens-before worker reads, completion barrier happens-after
// worker writes) synchronizes all access, and workers write only disjoint row
// slices (or barrier-ordered full-slab phases).
unsafe impl Send for SolverOps {}
unsafe impl Sync for SolverOps {}

/// The engine-resident iterative-solver vectors: the iterate `x`, residual `r`,
/// search direction `p` (doubling as the power iterate `q`), and the SpMV
/// destination `w = A·p`.
///
/// Allocated zeroed by the caller (one lazy `calloc` per vector), but **written
/// first by the workers** — `CgInit`/`PowerInit` zero or fill every row slice on
/// its owning worker, so first-touch places each slab's pages like the matrix
/// blocks. In steady state the vectors never leave the engine and nothing is
/// allocated.
struct SolverVectors {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    w: Vec<f64>,
}

/// A reusable generation-counting barrier for the symmetric reduction rounds.
///
/// Every worker of a symmetric engine calls [`RoundBarrier::wait`] once per
/// reduction round (plus once before round 0, separating compute from
/// reduction); the last arrival bumps the generation and wakes the rest. The
/// barrier is only touched on the symmetric path, so general engines pay
/// nothing for it.
struct RoundBarrier {
    state: Mutex<(u64, usize)>,
    cv: Condvar,
    n: usize,
}

impl RoundBarrier {
    fn new(n: usize) -> RoundBarrier {
        RoundBarrier {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            n,
        }
    }

    fn wait(&self) {
        let mut state = self.state.lock().unwrap();
        let gen = state.0;
        state.1 += 1;
        if state.1 == self.n {
            state.1 = 0;
            state.0 += 1;
            self.cv.notify_all();
        } else {
            while state.0 == gen {
                state = self.cv.wait(state).unwrap();
            }
        }
    }
}

/// One worker's full-length scratch destination for the symmetric path.
///
/// The vector is allocated (and grown, for wider SpMM batches) *by its owning
/// worker*, so first-touch places the pages on that worker's node. Other
/// workers only read it during reduction rounds, under the barrier ordering.
struct ScratchSlot(std::cell::UnsafeCell<Vec<f64>>);

// SAFETY: access is disciplined by the reduction protocol — a slot is written
// only by its owning worker (compute + absorbing rounds) and read by at most
// one partner per round, with a RoundBarrier::wait separating every round.
unsafe impl Sync for ScratchSlot {}

/// One worker's partial-dot slot, padded to a cache line so the per-phase
/// scalar writes of neighbouring workers never false-share.
#[repr(align(64))]
struct ScalarSlot(std::cell::UnsafeCell<f64>);

// SAFETY: slot `i` is written only by worker `i` before a phase barrier and
// read by the others only after it; the barrier orders every access.
unsafe impl Sync for ScalarSlot {}

/// Shared state of the fused solver epochs: per-worker partial-dot slots and
/// the phase barrier separating compute from the scalar reductions. Always
/// present (a few cache lines); the resident vector slabs live on the engine
/// side ([`SolverVectors`]) and are published per epoch via [`SolverOps`].
struct SolverShared {
    /// First partial per worker: `pᵀw` (CG) or the Rayleigh `qᵀw` (power).
    slots_a: Vec<ScalarSlot>,
    /// Second partial per worker: `rᵀr` (CG) or `wᵀw` (power).
    slots_b: Vec<ScalarSlot>,
    /// Orders the fused phases within one solver epoch.
    barrier: RoundBarrier,
}

/// Fold the per-worker scalar slots in the deterministic pairwise tree order of
/// [`spmv_core::solver::kernels::tree_sum`] (itself the scalar twin of
/// [`spmv_core::tuning::reduce_tree`]'s schedule), without materializing a
/// slice — every worker and the caller evaluate this locally after a barrier
/// and arrive at the same `f64`.
///
/// SAFETY: callers must order this after the barrier (or completion) that
/// publishes the slot writes.
unsafe fn tree_sum_slots(slots: &[ScalarSlot]) -> f64 {
    unsafe fn rec(slots: &[ScalarSlot], i: usize, span: usize) -> f64 {
        if span == 1 {
            return *slots[i].0.get();
        }
        let half = span / 2;
        let left = rec(slots, i, half);
        if i + half < slots.len() {
            left + rec(slots, i + half, half)
        } else {
            left
        }
    }
    match slots.len() {
        0 => 0.0,
        n => rec(slots, 0, n.next_power_of_two()),
    }
}

/// Shared state of the symmetric scratch reduction.
struct SymShared {
    slots: Vec<ScratchSlot>,
    barrier: RoundBarrier,
}

impl SymShared {
    /// Number of pairwise reduction rounds for `count` scratch buffers.
    fn rounds(count: usize) -> usize {
        let mut rounds = 0usize;
        while (1usize << rounds) < count {
            rounds += 1;
        }
        rounds
    }
}

/// Construction/completion barrier state.
struct Done {
    /// Epoch the counter belongs to (0 during construction).
    epoch: u64,
    /// Workers checked in for `epoch`.
    count: usize,
    /// Workers whose block build failed (populated during construction only).
    failed: usize,
    /// Per-worker materialized block footprints (populated during construction).
    footprints: Vec<usize>,
}

/// Shared synchronization state between the caller and the workers.
struct Shared {
    launch: Mutex<Launch>,
    launch_cv: Condvar,
    done: Mutex<Done>,
    done_cv: Condvar,
    /// Scratch slots + reduction barrier; `Some` only for symmetric engines.
    sym: Option<SymShared>,
    /// Partial-dot slots + phase barrier for the fused solver epochs.
    solver: SolverShared,
    /// Per-worker kernel nanoseconds of the most recent epoch, cache-line
    /// padded so a worker's store never bounces another worker's line. Written
    /// by each worker before its completion check-in (the done mutex orders the
    /// relaxed stores before the caller's read), read and folded caller-side.
    prof: Vec<ProfSlot>,
    /// Whether workers take per-epoch timestamps; off, an epoch pays a single
    /// relaxed load.
    profiling: AtomicBool,
}

/// One worker's last-epoch kernel time, padded to a cache line.
#[repr(align(64))]
struct ProfSlot(AtomicU64);

/// What a worker materializes during construction (on its own thread, for
/// first-touch placement).
enum BlockSpec {
    /// Plain width-compressed CSR running one code variant.
    Plain {
        slice: CsrMatrix,
        rows: Range<usize>,
        variant: KernelVariant,
    },
    /// A fully tuned thread block described by a [`ThreadPlan`].
    Planned { slice: CsrMatrix, plan: ThreadPlan },
}

impl BlockSpec {
    fn build(self) -> Result<PreparedBlock> {
        match self {
            BlockSpec::Plain {
                slice,
                rows,
                variant,
            } => Ok(PreparedBlock::plain(&slice, rows, variant)),
            BlockSpec::Planned { slice, plan } => PreparedBlock::materialize(&slice, &plan),
        }
    }
}

/// The engine's materialized-footprint report: how many bytes each persistent
/// worker's first-touch-materialized thread block occupies.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineFootprint {
    /// Sum of the workers' materialized block footprints.
    pub total_bytes: usize,
    /// Bytes of worker `i`'s first-touch-materialized thread block.
    pub per_worker_bytes: Vec<usize>,
}

/// One worker's share of the profiled work: its nonzeros and its cumulative
/// kernel and barrier-wait time.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    /// Logical nonzeros of the worker's thread block.
    pub nnz: usize,
    /// Cumulative nanoseconds this worker spent computing epochs (for solver
    /// and symmetric epochs this includes the in-epoch reduction rounds).
    pub kernel_ns: u64,
    /// Cumulative nanoseconds this worker spent finished-but-waiting for the
    /// slowest worker of each epoch — the per-epoch load imbalance, measured
    /// as `max_over_workers(kernel) - own kernel` and summed across epochs.
    pub barrier_ns: u64,
}

/// The engine's runtime telemetry report, the companion of
/// [`EngineFootprint`]: where the epochs' cycles went, per worker.
///
/// Per-epoch worker kernel times are taken by the workers themselves
/// (two monotonic-clock reads per worker per epoch, ~50ns, off unless
/// profiling is enabled — see [`SpmvEngine::set_profiling`]); the caller folds
/// them after each completion barrier, so reading the profile never touches
/// the workers.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineProfile {
    /// Total completed epochs (all commands).
    pub epochs: u64,
    /// Epochs that ran [`SpmvEngine::spmv`].
    pub spmv_epochs: u64,
    /// Epochs that ran [`SpmvEngine::spmm`].
    pub spmm_epochs: u64,
    /// Fused-solver epochs (CG/power init, step batches and state loads).
    pub solver_epochs: u64,
    /// Per-worker nonzeros and cumulative kernel/barrier-wait time.
    pub workers: Vec<WorkerProfile>,
    /// Histogram of whole-epoch wall nanoseconds (launch to completion), as
    /// observed by the calling thread.
    pub epoch_ns: HistogramSnapshot,
}

impl EngineProfile {
    /// Sum of all workers' kernel nanoseconds.
    pub fn kernel_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.kernel_ns).sum()
    }

    /// Sum of all workers' barrier-wait nanoseconds.
    pub fn barrier_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.barrier_ns).sum()
    }

    /// Time imbalance: the slowest worker's cumulative kernel time over the
    /// mean (1.0 = perfectly balanced, 0.0 before any profiled epoch).
    pub fn time_imbalance(&self) -> f64 {
        let total: u64 = self.kernel_ns();
        if total == 0 || self.workers.is_empty() {
            return 0.0;
        }
        let max = self.workers.iter().map(|w| w.kernel_ns).max().unwrap_or(0);
        max as f64 * self.workers.len() as f64 / total as f64
    }

    /// Structural imbalance: the largest thread block's nonzeros over the mean
    /// (what the balanced row partitioner minimized at construction).
    pub fn nnz_imbalance(&self) -> f64 {
        let total: usize = self.workers.iter().map(|w| w.nnz).sum();
        if total == 0 || self.workers.is_empty() {
            return 0.0;
        }
        let max = self.workers.iter().map(|w| w.nnz).max().unwrap_or(0);
        max as f64 * self.workers.len() as f64 / total as f64
    }
}

/// Caller-side epoch telemetry accumulators (plain fields: every entry point
/// takes `&mut self`, and the completion barrier already ordered the workers'
/// slot writes before the fold).
struct EngineTelemetry {
    enabled: bool,
    epochs: u64,
    spmv_epochs: u64,
    spmm_epochs: u64,
    solver_epochs: u64,
    worker_kernel_ns: Vec<u64>,
    worker_barrier_ns: Vec<u64>,
    epoch_hist: Histogram,
}

impl EngineTelemetry {
    fn new(nworkers: usize, enabled: bool) -> Self {
        EngineTelemetry {
            enabled,
            epochs: 0,
            spmv_epochs: 0,
            spmm_epochs: 0,
            solver_epochs: 0,
            worker_kernel_ns: vec![0; nworkers],
            worker_barrier_ns: vec![0; nworkers],
            epoch_hist: Histogram::new(),
        }
    }
}

/// Whether engines profile by default: yes, unless `SPMV_PROF=off` (or `0`).
/// The overhead ablation in `spmv-bench` measures exactly this toggle.
fn profiling_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let raw = std::env::var("SPMV_PROF").unwrap_or_default();
        let val = raw.trim();
        !(val == "0" || val.eq_ignore_ascii_case("off"))
    })
}

/// A persistent, NUMA-placed, fully-tuned parallel SpMV engine for one matrix.
pub struct SpmvEngine {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    partition: RowPartition,
    /// The single code variant of a plain engine; `None` for tuned engines, whose
    /// kernels are bound per cache block by the plan.
    variant: Option<KernelVariant>,
    /// Whether the workers run the symmetric scratch-reduction path.
    symmetric: bool,
    footprint_bytes: usize,
    per_worker_bytes: Vec<usize>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    epoch: u64,
    /// Resident solver slabs, allocated on first solver use (`None` until then).
    solver: Option<Box<SolverVectors>>,
    /// Per-worker nonzeros (the balanced partition's actual split).
    per_worker_nnz: Vec<usize>,
    /// Caller-side epoch telemetry (see [`SpmvEngine::profile`]).
    telemetry: EngineTelemetry,
}

impl SpmvEngine {
    /// Build a plain (untuned) engine: partition rows balancing nonzeros, spawn one
    /// persistent worker per partition, and let **each worker construct its own
    /// compressed block** (index width chosen once per block) so first-touch places
    /// the pages locally.
    pub fn new(csr: &CsrMatrix, nthreads: usize) -> Self {
        Self::with_variant(csr, nthreads, KernelVariant::SingleLoop)
    }

    /// [`SpmvEngine::new`] with an explicit CSR kernel variant for the steady state.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads == 0` or the variant is not a CSR code variant.
    pub fn with_variant(csr: &CsrMatrix, nthreads: usize, variant: KernelVariant) -> Self {
        assert!(nthreads > 0, "engine requires at least one worker");
        assert!(
            variant.runs_on_csr(),
            "engine variants run on CSR thread blocks"
        );
        let partition = partition_rows_balanced(csr, nthreads);
        let specs = partition
            .ranges
            .iter()
            .map(|r| BlockSpec::Plain {
                slice: csr.row_slice(r.start, r.end),
                rows: r.clone(),
                variant,
            })
            .collect();
        Self::build(csr, partition, Some(variant), specs, false)
            .expect("plain block construction is infallible")
    }

    /// Build a **fully tuned** engine: run the footprint heuristic per thread block
    /// and have each worker materialize its register-blocked, index-compressed,
    /// cache/TLB-blocked, prefetch-annotated structure first-touch.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads == 0`.
    pub fn tuned(csr: &CsrMatrix, nthreads: usize, config: &TuningConfig) -> Result<Self> {
        assert!(nthreads > 0, "engine requires at least one worker");
        Self::from_plan(csr, &TunePlan::new(csr, nthreads, config))
    }

    /// Materialize an existing [`TunePlan`] (typically produced earlier or loaded
    /// from a saved profile) into a running engine. Fails if the plan does not
    /// match the matrix or a worker cannot build its block.
    pub fn from_plan(csr: &CsrMatrix, plan: &TunePlan) -> Result<Self> {
        plan.validate_for(csr)?;
        if plan.num_threads() == 0 {
            return Err(Error::InvalidStructure(
                "plan has no thread blocks".to_string(),
            ));
        }
        let partition = plan.row_partition();
        let specs = plan
            .threads
            .iter()
            .map(|t| BlockSpec::Planned {
                slice: csr.row_slice(t.rows.start, t.rows.end),
                plan: t.clone(),
            })
            .collect();
        Self::build(csr, partition, None, specs, plan.symmetric)
    }

    /// Common construction: spawn one worker per spec, wait for every block build,
    /// and surface build failures as an error instead of a hang.
    fn build(
        csr: &CsrMatrix,
        partition: RowPartition,
        variant: Option<KernelVariant>,
        specs: Vec<BlockSpec>,
        symmetric: bool,
    ) -> Result<Self> {
        let nworkers = specs.len();
        let per_worker_nnz: Vec<usize> = specs
            .iter()
            .map(|spec| match spec {
                BlockSpec::Plain { slice, .. } => slice.nnz(),
                BlockSpec::Planned { slice, .. } => slice.nnz(),
            })
            .collect();
        let shared = Arc::new(Shared {
            launch: Mutex::new(Launch {
                epoch: 0,
                command: Command::Spmv,
                operands: Operands::EMPTY,
                solver: SolverOps::EMPTY,
            }),
            launch_cv: Condvar::new(),
            done: Mutex::new(Done {
                epoch: 0,
                count: 0,
                failed: 0,
                footprints: vec![0; nworkers],
            }),
            done_cv: Condvar::new(),
            sym: symmetric.then(|| SymShared {
                slots: (0..nworkers)
                    .map(|_| ScratchSlot(std::cell::UnsafeCell::new(Vec::new())))
                    .collect(),
                barrier: RoundBarrier::new(nworkers),
            }),
            solver: SolverShared {
                slots_a: (0..nworkers)
                    .map(|_| ScalarSlot(std::cell::UnsafeCell::new(0.0)))
                    .collect(),
                slots_b: (0..nworkers)
                    .map(|_| ScalarSlot(std::cell::UnsafeCell::new(0.0)))
                    .collect(),
                barrier: RoundBarrier::new(nworkers),
            },
            prof: (0..nworkers).map(|_| ProfSlot(AtomicU64::new(0))).collect(),
            profiling: AtomicBool::new(profiling_default()),
        });

        let mut workers = Vec::with_capacity(nworkers);
        for (tid, spec) in specs.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("spmv-engine-{tid}"))
                .spawn(move || worker_loop(shared, tid, spec))
                .expect("spawn engine worker");
            workers.push(handle);
        }

        // Construction handshake: workers signal block readiness (or build
        // failure) through `done` as pseudo-epoch-0 completions, reporting their
        // block's footprint so the engine can account bytes without owning blocks.
        let (failed, per_worker_bytes) = {
            let mut done = shared.done.lock().unwrap();
            while done.count < workers.len() {
                done = shared.done_cv.wait(done).unwrap();
            }
            done.count = 0;
            (done.failed, done.footprints.clone())
        };

        let engine = SpmvEngine {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            partition,
            variant,
            symmetric,
            footprint_bytes: per_worker_bytes.iter().sum(),
            per_worker_bytes,
            shared,
            workers,
            epoch: 0,
            solver: None,
            per_worker_nnz,
            telemetry: EngineTelemetry::new(nworkers, profiling_default()),
        };
        if failed > 0 {
            // Dropping joins the surviving workers; the failed ones already exited.
            drop(engine);
            return Err(Error::InvalidStructure(format!(
                "{failed} engine worker(s) failed to build their thread block"
            )));
        }
        Ok(engine)
    }

    /// Number of persistent workers.
    pub fn num_threads(&self) -> usize {
        self.workers.len()
    }

    /// Rows of the served matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the served matrix.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The row partition in use.
    pub fn partition(&self) -> &RowPartition {
        &self.partition
    }

    /// Logical nonzeros of the full matrix.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The steady-state kernel variant of a plain engine; `None` for tuned
    /// engines (their kernels are bound per cache block by the plan).
    pub fn variant(&self) -> Option<KernelVariant> {
        self.variant
    }

    /// Whether the engine serves the matrix from symmetric (lower-triangle)
    /// storage, with per-worker scratch destinations and the deterministic tree
    /// reduction.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Total bytes of the workers' materialized thread blocks.
    pub fn footprint_bytes(&self) -> usize {
        self.footprint_bytes
    }

    /// The full footprint report: total and per-worker block bytes.
    pub fn footprint(&self) -> EngineFootprint {
        EngineFootprint {
            total_bytes: self.footprint_bytes,
            per_worker_bytes: self.per_worker_bytes.clone(),
        }
    }

    /// Publish one epoch (operands + current solver slab views), bump, and wait
    /// for the completion barrier. The single launch/wait round-trip every
    /// steady-state entry point shares.
    fn launch_and_wait(&mut self, command: Command, operands: Operands) {
        let solver = match self.solver.as_mut() {
            Some(s) => SolverOps {
                x: s.x.as_mut_ptr(),
                r: s.r.as_mut_ptr(),
                p: s.p.as_mut_ptr(),
                w: s.w.as_mut_ptr(),
                n: s.x.len(),
            },
            None => SolverOps::EMPTY,
        };
        self.epoch += 1;
        let t0 = self.telemetry.enabled.then(Instant::now);
        {
            let mut launch = self.shared.launch.lock().unwrap();
            launch.epoch = self.epoch;
            launch.command = command;
            launch.operands = operands;
            launch.solver = solver;
            self.shared.launch_cv.notify_all();
        }
        {
            let mut done = self.shared.done.lock().unwrap();
            while !(done.epoch == self.epoch && done.count == self.workers.len()) {
                done = self.shared.done_cv.wait(done).unwrap();
            }
        }
        if let Some(t0) = t0 {
            self.observe_epoch(command, spmv_obs::saturating_nanos(t0.elapsed()));
        }
    }

    /// Fold the finished epoch into the telemetry accumulators: per-worker
    /// kernel time from the profiling slots, barrier wait as the gap to the
    /// epoch's slowest worker, and the whole-epoch wall time histogram.
    fn observe_epoch(&mut self, command: Command, wall_ns: u64) {
        let t = &mut self.telemetry;
        t.epochs += 1;
        let cmd_code: u64 = match command {
            Command::Spmv => {
                t.spmv_epochs += 1;
                0
            }
            Command::Spmm => {
                t.spmm_epochs += 1;
                1
            }
            _ => {
                t.solver_epochs += 1;
                2
            }
        };
        // The completion barrier ordered every worker's slot store before this
        // read, and no epoch runs concurrently with the fold (`&mut self`).
        let mut max = 0u64;
        for (i, slot) in self.shared.prof.iter().enumerate() {
            let ns = slot.0.load(Ordering::Relaxed);
            t.worker_kernel_ns[i] += ns;
            max = max.max(ns);
        }
        for (i, slot) in self.shared.prof.iter().enumerate() {
            let ns = slot.0.load(Ordering::Relaxed);
            t.worker_barrier_ns[i] += max - ns;
        }
        t.epoch_hist.record(wall_ns);
        spmv_obs::trace::trace(TraceKind::EngineEpoch, cmd_code, wall_ns);
    }

    /// Enable or disable per-epoch profiling. Off, workers skip their two
    /// monotonic-clock reads per epoch and the caller skips the fold — the
    /// "uninstrumented" side of the bench overhead ablation. The default is
    /// on (overridable process-wide with `SPMV_PROF=off`).
    pub fn set_profiling(&mut self, on: bool) {
        self.telemetry.enabled = on;
        self.shared.profiling.store(on, Ordering::Relaxed);
    }

    /// Whether per-epoch profiling is currently enabled.
    pub fn profiling(&self) -> bool {
        self.telemetry.enabled
    }

    /// The runtime telemetry report accumulated so far (see [`EngineProfile`]).
    pub fn profile(&self) -> EngineProfile {
        let t = &self.telemetry;
        EngineProfile {
            epochs: t.epochs,
            spmv_epochs: t.spmv_epochs,
            spmm_epochs: t.spmm_epochs,
            solver_epochs: t.solver_epochs,
            workers: (0..self.workers.len())
                .map(|i| WorkerProfile {
                    nnz: self.per_worker_nnz[i],
                    kernel_ns: t.worker_kernel_ns[i],
                    barrier_ns: t.worker_barrier_ns[i],
                })
                .collect(),
            epoch_ns: t.epoch_hist.snapshot(),
        }
    }

    /// `y ← y + A·x`, steady state: publish operands, bump the epoch, wait for the
    /// completion barrier. No allocation, no locks in the compute loop.
    pub fn spmv(&mut self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "source vector length mismatch");
        assert_eq!(y.len(), self.nrows, "destination vector length mismatch");
        let operands = Operands {
            x_ptr: x.as_ptr(),
            x_len: x.len(),
            y_ptr: y.as_mut_ptr(),
            y_len: y.len(),
            k: 1,
            x_ld: self.ncols,
            y_ld: self.nrows,
        };
        self.launch_and_wait(Command::Spmv, operands);
    }

    /// Batched steady state: `Y ← Y + A·X` for a column-major block of `x.k()`
    /// vectors. Same epoch protocol and the same precomputed disjoint y-slices
    /// as [`SpmvEngine::spmv`] — each worker writes its row range of every
    /// column — with zero per-call allocation. Output is bit-identical to the
    /// serial [`spmv_core::tuning::prepared::PreparedMatrix::spmm`] of the same
    /// plan, and (for planned engines) per column bit-identical to
    /// [`SpmvEngine::spmv`] on that column alone.
    pub fn spmm(&mut self, x: &MultiVec, y: &mut MultiVec) {
        assert_eq!(x.ld(), self.ncols, "source block row count mismatch");
        assert_eq!(y.ld(), self.nrows, "destination block row count mismatch");
        assert_eq!(x.k(), y.k(), "source and destination vector counts differ");
        if x.k() == 0 {
            return;
        }
        let operands = Operands {
            x_ptr: x.data().as_ptr(),
            x_len: x.data().len(),
            y_ptr: y.data_mut().as_mut_ptr(),
            y_len: y.data().len(),
            k: x.k(),
            x_ld: self.ncols,
            y_ld: self.nrows,
        };
        self.launch_and_wait(Command::Spmm, operands);
    }

    /// Allocate the resident solver slabs if absent. The `vec![0.0; n]`
    /// allocations are lazy zero pages; the workers' first writes (in the init
    /// epochs) are what actually touch — and therefore place — them.
    fn ensure_solver(&mut self) {
        assert_eq!(
            self.nrows, self.ncols,
            "in-engine iterative solvers require a square matrix"
        );
        if self.solver.is_none() {
            let n = self.nrows;
            self.solver = Some(Box::new(SolverVectors {
                x: vec![0.0; n],
                r: vec![0.0; n],
                p: vec![0.0; n],
                w: vec![0.0; n],
            }));
        }
    }

    /// Whether the resident solver slabs are allocated (some solver epoch ran).
    pub fn solver_resident(&self) -> bool {
        self.solver.is_some()
    }

    /// Start fused conjugate gradient on the resident slabs: `x ← 0`,
    /// `r ← p ← b`. Returns the initial squared residual `r·r` to thread into
    /// [`SpmvEngine::cg_step`]. One epoch.
    pub fn cg_init(&mut self, b: &[f64]) -> f64 {
        assert_eq!(b.len(), self.ncols, "right-hand side length mismatch");
        self.ensure_solver();
        let operands = Operands {
            x_ptr: b.as_ptr(),
            x_len: b.len(),
            ..Operands::EMPTY
        };
        self.launch_and_wait(Command::CgInit, operands);
        // SAFETY: the completion wait above ordered every slot write before us.
        unsafe { tree_sum_slots(&self.shared.solver.slots_b) }
    }

    /// `steps` whole fused CG iterations — SpMV, both dot products, both
    /// vector updates each — under a **single** launch/completion epoch. `rr`
    /// is the squared residual from the previous step (or
    /// [`SpmvEngine::cg_init`]); returns the one after the last iteration.
    /// Bit-identical to `steps` calls of
    /// [`spmv_core::solver::SerialCg::step`] on the same plan: every worker
    /// folds the same scalar tree after each phase barrier and carries the
    /// recurrence locally, so batching changes no arithmetic — it only
    /// amortizes the launch/completion round-trip.
    pub fn cg_step(&mut self, steps: u64, rr: f64) -> f64 {
        assert!(
            self.solver.is_some(),
            "cg_step requires cg_init (or cg_load) first"
        );
        if steps == 0 {
            return rr;
        }
        self.launch_and_wait(Command::CgStep { steps, rr }, Operands::EMPTY);
        // SAFETY: as in cg_init.
        unsafe { tree_sum_slots(&self.shared.solver.slots_b) }
    }

    /// Re-seed the resident CG state (after a [`SpmvEngine::swap_with`] hot
    /// swap): workers copy their row slices of `x`, `r`, `p` so the pages stay
    /// first-touch placed. The caller carries `r·r` across the swap itself.
    pub fn cg_load(&mut self, x: &[f64], r: &[f64], p: &[f64]) {
        let n = self.nrows;
        assert!(
            x.len() == n && r.len() == n && p.len() == n,
            "solver state length mismatch"
        );
        self.ensure_solver();
        let mut buf = Vec::with_capacity(3 * n);
        buf.extend_from_slice(x);
        buf.extend_from_slice(r);
        buf.extend_from_slice(p);
        let operands = Operands {
            x_ptr: buf.as_ptr(),
            x_len: buf.len(),
            ..Operands::EMPTY
        };
        self.launch_and_wait(Command::CgLoad, operands);
    }

    /// Start fused power iteration: `q ← v0/‖v0‖` on the resident slabs
    /// (`q` lives in the `p` slab). One epoch.
    pub fn power_init(&mut self, v0: &[f64]) {
        assert_eq!(v0.len(), self.ncols, "start vector length mismatch");
        self.ensure_solver();
        let operands = Operands {
            x_ptr: v0.as_ptr(),
            x_len: v0.len(),
            ..Operands::EMPTY
        };
        self.launch_and_wait(Command::PowerInit, operands);
    }

    /// One fused power-iteration step (`w ← A·q`, Rayleigh + norm partials,
    /// `q ← w/‖w‖`) under a single epoch; returns the Rayleigh estimate
    /// `λ = qᵀAq`. Bit-identical to [`spmv_core::solver::SerialPower::step`]
    /// on the same plan.
    pub fn power_step(&mut self) -> f64 {
        assert!(
            self.solver.is_some(),
            "power_step requires power_init first"
        );
        self.launch_and_wait(Command::PowerStep, Operands::EMPTY);
        // SAFETY: as in cg_init.
        unsafe { tree_sum_slots(&self.shared.solver.slots_a) }
    }

    /// Read the resident solver state `(x, r, p)` — the extraction point of a
    /// stateful session (and the donor side of a hot swap). The last epoch's
    /// completion wait ordered all worker writes before this read.
    pub fn solver_state(&self) -> Option<(&[f64], &[f64], &[f64])> {
        self.solver
            .as_ref()
            .map(|s| (s.x.as_slice(), s.r.as_slice(), s.p.as_slice()))
    }

    /// Swap `replacement` into this engine slot and return the engine that was
    /// serving, in O(1) and without touching either engine's workers — the
    /// hot-swap primitive of the serve layer's background retuning: build the
    /// replacement off the serving lock (the expensive part: tuning search +
    /// first-touch materialization), take the lock, `swap_with`, release, and
    /// drop the returned engine *after* releasing so joining the old workers
    /// never stalls a request.
    pub fn swap_with(&mut self, replacement: SpmvEngine) -> SpmvEngine {
        spmv_obs::trace::trace(
            TraceKind::EngineSwap,
            replacement.nnz as u64,
            replacement.num_threads() as u64,
        );
        std::mem::replace(self, replacement)
    }
}

impl Drop for SpmvEngine {
    fn drop(&mut self) {
        {
            let mut launch = self.shared.launch.lock().unwrap();
            launch.epoch = self.epoch + 1;
            launch.command = Command::Shutdown;
            self.shared.launch_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker body: materialize the block (first touch), signal readiness — or a
/// build failure, so construction errors instead of hanging — then serve epochs
/// until shutdown.
fn worker_loop(shared: Arc<Shared>, tid: usize, spec: BlockSpec) {
    // First-touch construction: the block's index and value pages are allocated
    // and written on this thread. Both clean `Err`s and panics inside the build
    // are reported through the handshake.
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.build()));
    let block = match built {
        Ok(Ok(block)) => Some(block),
        _ => None,
    };

    // Readiness: count into the epoch-0 completion barrier.
    {
        let mut done = shared.done.lock().unwrap();
        match &block {
            Some(b) => done.footprints[tid] = b.footprint_bytes(),
            None => done.failed += 1,
        }
        done.count += 1;
        shared.done_cv.notify_all();
    }
    let Some(block) = block else {
        return;
    };
    let rows = block.rows();
    let row_offset = rows.start;
    let row_count = rows.end - rows.start;

    // Symmetric workers own a full-length scratch destination; allocate it here
    // so first-touch places its pages on this worker's node. (SpMM batches grow
    // it on first use of a wider batch — steady state allocates nothing.)
    let sym_shared = shared.sym.as_ref().filter(|_| block.is_symmetric());
    if let Some(sym) = sym_shared {
        // SAFETY: no other thread touches this worker's slot until the first
        // epoch's reduction rounds, which happen strictly later.
        unsafe { *sym.slots[tid].0.get() = vec![0.0; block.ncols()] };
    }

    let mut seen_epoch = 0u64;
    loop {
        // Wait for the next epoch. The mutex is held only across the epoch check,
        // never across the compute.
        let (command, operands, solver_ops) = {
            let mut launch = shared.launch.lock().unwrap();
            while launch.epoch == seen_epoch {
                launch = shared.launch_cv.wait(launch).unwrap();
            }
            seen_epoch = launch.epoch;
            (launch.command, launch.operands, launch.solver)
        };
        let prof_t0 = shared.profiling.load(Ordering::Relaxed).then(Instant::now);
        match command {
            Command::Shutdown => return,
            cmd if cmd.is_solver() => {
                solver_epoch(
                    &shared,
                    sym_shared,
                    tid,
                    &block,
                    cmd,
                    &solver_ops,
                    &operands,
                );
            }
            Command::Spmv if sym_shared.is_some() => {
                let sym = sym_shared.expect("checked by the guard");
                // SAFETY: this worker owns its slot outside the reduction
                // rounds; the caller's x view is valid for this epoch.
                let scratch = unsafe { &mut *sym.slots[tid].0.get() };
                let need = operands.y_len;
                if scratch.len() < need {
                    scratch.resize(need, 0.0);
                }
                scratch[..need].fill(0.0);
                let x = unsafe { std::slice::from_raw_parts(operands.x_ptr, operands.x_len) };
                block.execute_full(x, &mut scratch[..need]);
                sym_reduce(sym, tid, need, &operands);
            }
            Command::Spmm if sym_shared.is_some() => {
                let sym = sym_shared.expect("checked by the guard");
                // SAFETY: as above; x column `j` is the contiguous slice at
                // `x_ptr + j*x_ld` of x_ld (= ncols) elements.
                let scratch = unsafe { &mut *sym.slots[tid].0.get() };
                let need = operands.y_ld * operands.k;
                if scratch.len() < need {
                    scratch.resize(need, 0.0);
                }
                scratch[..need].fill(0.0);
                for j in 0..operands.k {
                    let x_col = unsafe {
                        std::slice::from_raw_parts(
                            operands.x_ptr.add(j * operands.x_ld),
                            operands.x_ld,
                        )
                    };
                    block.execute_full(
                        x_col,
                        &mut scratch[j * operands.y_ld..(j + 1) * operands.y_ld],
                    );
                }
                sym_reduce(sym, tid, need, &operands);
            }
            Command::Spmv => {
                // SAFETY: the caller published valid x/y views for exactly this
                // epoch and blocks on the completion barrier below before
                // reclaiming them; this worker writes only its precomputed
                // disjoint row range of y.
                let (x, y_block) = unsafe {
                    let x = std::slice::from_raw_parts(operands.x_ptr, operands.x_len);
                    debug_assert!(row_offset + row_count <= operands.y_len);
                    let y_block =
                        std::slice::from_raw_parts_mut(operands.y_ptr.add(row_offset), row_count);
                    (x, y_block)
                };
                block.execute(x, y_block);
            }
            Command::Spmm => {
                // SAFETY: same epoch/barrier argument as above. The worker's
                // write set is its row range of every column — the column ranges
                // `y_ptr[row_offset + j*y_ld ..][..row_count]` — which are
                // disjoint from every other worker's because the row partition
                // is disjoint and row_count ≤ y_ld.
                let x = unsafe { std::slice::from_raw_parts(operands.x_ptr, operands.x_len) };
                debug_assert!(row_offset + row_count <= operands.y_ld);
                let mut y_cols = unsafe {
                    MultiVecMut::from_raw_parts(
                        operands.y_ptr.add(row_offset),
                        operands.y_ld,
                        row_count,
                        operands.k,
                    )
                };
                block.spmm(x, operands.x_ld, &mut y_cols);
            }
            // Solver commands are consumed by the `is_solver` guard arm above.
            _ => unreachable!("solver command escaped the is_solver guard"),
        }

        // Kernel time for this epoch (includes in-epoch reduction rounds on
        // the symmetric and solver paths — the time the worker was busy, which
        // is what the imbalance report wants). The relaxed store is ordered
        // before the caller's read by the done mutex below.
        if let Some(t0) = prof_t0 {
            shared.prof[tid]
                .0
                .store(spmv_obs::saturating_nanos(t0.elapsed()), Ordering::Relaxed);
        }

        // Completion barrier: last worker of the epoch wakes the caller.
        let mut done = shared.done.lock().unwrap();
        if done.epoch != seen_epoch {
            done.epoch = seen_epoch;
            done.count = 0;
        }
        done.count += 1;
        shared.done_cv.notify_all();
    }
}

/// The symmetric epilogue every worker runs after computing its scratch
/// contribution: the deterministic pairwise tree reduction, then worker 0
/// accumulates the root scratch into the caller's destination.
///
/// The schedule — stride 1, 2, 4, … while `stride < workers`; in each round
/// buffer `i` (with `i % (2·stride) == 0`, `i + stride < workers`) absorbs
/// buffer `i + stride` — is **exactly** the order the serial
/// [`spmv_core::tuning::prepared::PreparedMatrix`] applies, so the parallel
/// result is bit-identical to the serial one. A [`RoundBarrier::wait`] opens
/// every round: the first separates compute from reduction, the later ones
/// order round `r`'s reads after round `r-1`'s writes.
fn sym_reduce(sym: &SymShared, tid: usize, len: usize, operands: &Operands) {
    let count = sym.slots.len();
    let mut stride = 1usize;
    for _ in 0..SymShared::rounds(count) {
        sym.barrier.wait();
        if tid.is_multiple_of(2 * stride) && tid + stride < count {
            // SAFETY: the partner finished writing its slot before arriving at
            // this round's barrier and does not touch it again this epoch.
            let src = unsafe { &*sym.slots[tid + stride].0.get() };
            let dst = unsafe { &mut *sym.slots[tid].0.get() };
            spmv_core::tuning::reduce_into(&mut dst[..len], &src[..len]);
        }
        stride *= 2;
    }
    if tid == 0 {
        // SAFETY: every other worker's last access to slot 0 (none) and to y
        // (none on the symmetric path) is ordered before this; the caller's y
        // view stays valid until the completion barrier below.
        let root = unsafe { &*sym.slots[0].0.get() };
        let y = unsafe { std::slice::from_raw_parts_mut(operands.y_ptr, len) };
        spmv_core::tuning::reduce_into(y, &root[..len]);
    }
}

/// Phase A of a fused solver step: `w ← A·p` over the resident slabs (`p`
/// doubles as the power iterate `q`).
///
/// General engines write disjoint row slices of `w` exactly like an SpMV epoch.
/// Symmetric engines compute into their scratch slots, run the same
/// deterministic pairwise tree rounds as [`sym_reduce`], have worker 0 rebuild
/// the full `w` from the root scratch, and pay **one extra barrier** so every
/// worker's subsequent dot reads the finished `w`. Both paths mirror
/// [`spmv_core::solver::SerialCg`]'s apply op-for-op, so the fused step stays
/// bit-identical to the serial reference.
fn solver_apply(
    solver: &SolverShared,
    sym_shared: Option<&SymShared>,
    tid: usize,
    block: &PreparedBlock,
    ops: &SolverOps,
) {
    let n = ops.n;
    let rows = block.rows();
    // SAFETY (for all raw derefs here): the caller published valid slab views
    // for exactly this epoch and blocks on the completion barrier before
    // reclaiming them; `p` is only read during this phase (its writers run
    // strictly later, after the phase barriers), and `w` writes are either
    // disjoint row slices or the barrier-ordered worker-0 rebuild.
    let p = unsafe { std::slice::from_raw_parts(ops.p as *const f64, n) };
    match sym_shared {
        None => {
            let w_s = unsafe {
                std::slice::from_raw_parts_mut(ops.w.add(rows.start), rows.end - rows.start)
            };
            w_s.fill(0.0);
            block.execute(p, w_s);
        }
        Some(sym) => {
            let count = sym.slots.len();
            {
                // SAFETY: this worker owns its slot outside the reduction rounds.
                let scratch = unsafe { &mut *sym.slots[tid].0.get() };
                if scratch.len() < n {
                    scratch.resize(n, 0.0);
                }
                scratch[..n].fill(0.0);
                block.execute_full(p, &mut scratch[..n]);
            }
            let mut stride = 1usize;
            for _ in 0..SymShared::rounds(count) {
                solver.barrier.wait();
                if tid.is_multiple_of(2 * stride) && tid + stride < count {
                    // SAFETY: as in sym_reduce — the partner finished its slot
                    // before this round's barrier and won't touch it again.
                    let src = unsafe { &*sym.slots[tid + stride].0.get() };
                    let dst = unsafe { &mut *sym.slots[tid].0.get() };
                    spmv_core::tuning::reduce_into(&mut dst[..n], &src[..n]);
                }
                stride *= 2;
            }
            if tid == 0 {
                // SAFETY: the last round's barrier ordered every write to slot 0;
                // no other worker touches `w` until the barrier below.
                let root = unsafe { &*sym.slots[0].0.get() };
                let w = unsafe { std::slice::from_raw_parts_mut(ops.w, n) };
                w.fill(0.0);
                spmv_core::tuning::reduce_into(w, &root[..n]);
            }
            // The extra sync the symmetric path pays: the dots that follow read
            // the full `w` worker 0 just rebuilt.
            solver.barrier.wait();
        }
    }
}

/// One fused solver epoch on this worker: the entire CG (or power-iteration)
/// step — SpMV, both dot products, both vector updates — between a single
/// launch and a single completion barrier. Scalar partials travel through the
/// cache-line-padded [`ScalarSlot`]s; after each phase barrier **every** worker
/// folds them with the same deterministic [`tree_sum_slots`] order and derives
/// α/β (or the normalizer) locally, so no scalar broadcast is needed and the
/// arithmetic matches [`spmv_core::solver::SerialCg`] /
/// [`spmv_core::solver::SerialPower`] op-for-op.
fn solver_epoch(
    shared: &Shared,
    sym_shared: Option<&SymShared>,
    tid: usize,
    block: &PreparedBlock,
    command: Command,
    ops: &SolverOps,
    operands: &Operands,
) {
    use spmv_core::solver::kernels;
    let solver = &shared.solver;
    let n = ops.n;
    let rows = block.rows();
    debug_assert!(rows.end <= n);
    let len = rows.end - rows.start;
    // Worker-owned row slices of the resident slabs, re-derived per use so no
    // two live references overlap. SAFETY: the caller's slab views are valid
    // for this epoch; row ranges are disjoint across workers, and full-slab
    // reads (`p` in solver_apply, `w` after its barrier) are phase-ordered.
    macro_rules! own_mut {
        ($ptr:expr) => {
            unsafe { std::slice::from_raw_parts_mut($ptr.add(rows.start), len) }
        };
    }
    macro_rules! own_ref {
        ($ptr:expr) => {
            unsafe { std::slice::from_raw_parts($ptr.add(rows.start) as *const f64, len) }
        };
    }
    match command {
        Command::CgInit => {
            // x ← 0, r ← p ← b, w ← 0; partial r·r into slot b. These writes
            // are the slabs' first touch, placing each page on its row owner.
            let b = unsafe { std::slice::from_raw_parts(operands.x_ptr, operands.x_len) };
            let b_s = &b[rows.start..rows.end];
            own_mut!(ops.x).fill(0.0);
            own_mut!(ops.w).fill(0.0);
            own_mut!(ops.r).copy_from_slice(b_s);
            own_mut!(ops.p).copy_from_slice(b_s);
            // SAFETY: slot `tid` is ours; read only after the completion barrier.
            unsafe { *solver.slots_b[tid].0.get() = kernels::dot(b_s, b_s) };
        }
        Command::CgLoad => {
            // Re-seed from the concatenated [x; r; p] (3·n) in operands.x,
            // copying on the owning worker so pages stay first-touch placed.
            let src = unsafe { std::slice::from_raw_parts(operands.x_ptr, operands.x_len) };
            debug_assert_eq!(src.len(), 3 * n);
            own_mut!(ops.x).copy_from_slice(&src[rows.start..rows.end]);
            own_mut!(ops.r).copy_from_slice(&src[n + rows.start..n + rows.end]);
            own_mut!(ops.p).copy_from_slice(&src[2 * n + rows.start..2 * n + rows.end]);
            own_mut!(ops.w).fill(0.0);
        }
        Command::CgStep { steps, rr } => {
            let mut rr = rr;
            for it in 0..steps {
                if it > 0 {
                    // Orders every worker's p update (the xpby below) before
                    // this iteration's full-slab read of p in solver_apply.
                    // Within one epoch this replaces the completion+launch
                    // round-trip that separated single-step epochs.
                    solver.barrier.wait();
                }
                // Phase A: w ← A·p, partial p·w.
                solver_apply(solver, sym_shared, tid, block, ops);
                let pw_partial = kernels::dot(own_ref!(ops.p), own_ref!(ops.w));
                // SAFETY: slot `tid` is ours; partners read it only after the
                // barrier (and overwrite it only after two more barriers).
                unsafe { *solver.slots_a[tid].0.get() = pw_partial };
                solver.barrier.wait();
                // Phase B: every worker folds the same tree, derives the same
                // α, then fuses x += α·p, r -= α·w with the partial r·r.
                // SAFETY: the barrier ordered all slot-a writes before these reads.
                let pw = unsafe { tree_sum_slots(&solver.slots_a) };
                let alpha = rr / pw;
                let rr_partial = kernels::cg_update(
                    alpha,
                    own_ref!(ops.p),
                    own_ref!(ops.w),
                    own_mut!(ops.x),
                    own_mut!(ops.r),
                );
                unsafe { *solver.slots_b[tid].0.get() = rr_partial };
                solver.barrier.wait();
                // Phase C: same folded rr′ everywhere, p ← r + β·p on own
                // rows; the scalar recurrence carries to the next iteration
                // locally (the caller reads the final slots after completion).
                let rr_new = unsafe { tree_sum_slots(&solver.slots_b) };
                let beta = rr_new / rr;
                kernels::xpby(own_ref!(ops.r), beta, own_mut!(ops.p));
                rr = rr_new;
            }
        }
        Command::PowerInit => {
            // q ← v0/‖v0‖ (q lives in the p slab); zero the other slabs for
            // first-touch placement.
            let v0 = unsafe { std::slice::from_raw_parts(operands.x_ptr, operands.x_len) };
            let v0_s = &v0[rows.start..rows.end];
            own_mut!(ops.x).fill(0.0);
            own_mut!(ops.r).fill(0.0);
            own_mut!(ops.w).fill(0.0);
            // SAFETY: slot writes before / tree reads after the barrier.
            unsafe { *solver.slots_b[tid].0.get() = kernels::dot(v0_s, v0_s) };
            solver.barrier.wait();
            let inv = 1.0 / unsafe { tree_sum_slots(&solver.slots_b) }.sqrt();
            kernels::scale_from(v0_s, inv, own_mut!(ops.p));
        }
        Command::PowerStep => {
            // w ← A·q, Rayleigh partial q·w and norm partial w·w, then every
            // worker derives the same normalizer and writes q ← w/‖w‖.
            solver_apply(solver, sym_shared, tid, block, ops);
            let (q_s, w_s) = (own_ref!(ops.p), own_ref!(ops.w));
            // SAFETY: slot writes before / tree reads after the barrier; the
            // caller reads slot a (λ) only after the completion barrier.
            unsafe {
                *solver.slots_a[tid].0.get() = kernels::dot(q_s, w_s);
                *solver.slots_b[tid].0.get() = kernels::dot(w_s, w_s);
            }
            solver.barrier.wait();
            let inv = 1.0 / unsafe { tree_sum_slots(&solver.slots_b) }.sqrt();
            kernels::scale_from(own_ref!(ops.w), inv, own_mut!(ops.p));
        }
        _ => unreachable!("solver_epoch dispatched on a non-solver command"),
    }
}

/// Convenience: run `iterations` accumulating SpMVs on a fresh engine (used by the
/// benchmark harness; the engine build cost is paid once, like a solver would).
pub fn run_steady_state(
    csr: &CsrMatrix,
    nthreads: usize,
    variant: KernelVariant,
    x: &[f64],
    y: &mut [f64],
    iterations: usize,
) {
    let mut engine = SpmvEngine::with_variant(csr, nthreads, variant);
    for _ in 0..iterations {
        engine.spmv(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spmv_core::dense::max_abs_diff;
    use spmv_core::formats::{CooMatrix, SpMv};
    use spmv_core::tuning::prepared::PreparedMatrix;

    fn random_csr(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(nrows, ncols);
        for _ in 0..nnz {
            coo.push(
                rng.random_range(0..nrows),
                rng.random_range(0..ncols),
                rng.random_range(-1.0..1.0),
            );
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn swap_with_replaces_the_serving_engine_mid_stream() {
        let csr = random_csr(300, 280, 4000, 77);
        let x: Vec<f64> = (0..280).map(|i| (i as f64 * 0.03).cos()).collect();
        let plan_a = TunePlan::new(&csr, 2, &TuningConfig::full());
        let plan_b = TunePlan::new(&csr, 3, &TuningConfig::naive());
        let ref_a = PreparedMatrix::materialize(&csr, &plan_a)
            .unwrap()
            .spmv_alloc(&x);
        let ref_b = PreparedMatrix::materialize(&csr, &plan_b)
            .unwrap()
            .spmv_alloc(&x);

        let mut engine = SpmvEngine::from_plan(&csr, &plan_a).unwrap();
        let mut y = vec![0.0; 300];
        engine.spmv(&x, &mut y);
        assert_eq!(y, ref_a, "pre-swap output is the old plan's");

        // Build the replacement off to the side, swap it in, and keep serving:
        // the old engine stays joinable and the slot serves the new plan.
        let replacement = SpmvEngine::from_plan(&csr, &plan_b).unwrap();
        let mut old = engine.swap_with(replacement);
        assert_eq!(engine.num_threads(), 3);
        assert_eq!(old.num_threads(), 2);
        let mut y2 = vec![0.0; 300];
        engine.spmv(&x, &mut y2);
        assert_eq!(y2, ref_b, "post-swap output is the new plan's");
        // The returned engine still works until dropped (joins its workers).
        let mut y3 = vec![0.0; 300];
        old.spmv(&x, &mut y3);
        assert_eq!(y3, ref_a);
    }

    #[test]
    fn engine_matches_serial_reference() {
        let csr = random_csr(400, 350, 5000, 1);
        let x: Vec<f64> = (0..350).map(|i| (i as f64 * 0.01).sin()).collect();
        let reference = csr.spmv_alloc(&x);
        for threads in [1, 2, 3, 4, 8] {
            let mut engine = SpmvEngine::new(&csr, threads);
            let mut y = vec![0.0; 400];
            engine.spmv(&x, &mut y);
            assert!(max_abs_diff(&reference, &y) < 1e-12, "threads={threads}");
        }
    }

    #[test]
    fn engine_is_reusable_and_accumulates() {
        let csr = random_csr(200, 200, 2000, 2);
        let x: Vec<f64> = (0..200).map(|i| (i % 5) as f64).collect();
        let mut expected = vec![0.0; 200];
        for _ in 0..4 {
            csr.spmv(&x, &mut expected);
        }
        let mut engine = SpmvEngine::new(&csr, 4);
        let mut y = vec![0.0; 200];
        for _ in 0..4 {
            engine.spmv(&x, &mut y);
        }
        assert!(max_abs_diff(&expected, &y) < 1e-12);
    }

    #[test]
    fn engine_supports_every_csr_variant() {
        let csr = random_csr(150, 120, 1500, 3);
        let x: Vec<f64> = (0..120).map(|i| i as f64 * 0.1 - 6.0).collect();
        let reference = csr.spmv_alloc(&x);
        for variant in KernelVariant::all() {
            let mut engine = SpmvEngine::with_variant(&csr, 3, variant);
            let mut y = vec![0.0; 150];
            engine.spmv(&x, &mut y);
            assert!(
                max_abs_diff(&reference, &y) < 1e-9,
                "variant {}",
                variant.name()
            );
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let csr = random_csr(3, 3, 6, 4);
        let x = vec![1.0, 2.0, 3.0];
        let reference = csr.spmv_alloc(&x);
        let mut engine = SpmvEngine::new(&csr, 8);
        let mut y = vec![0.0; 3];
        engine.spmv(&x, &mut y);
        assert!(max_abs_diff(&reference, &y) < 1e-12);
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::from_coo(&CooMatrix::new(10, 10));
        let mut engine = SpmvEngine::new(&csr, 2);
        let mut y = vec![1.0; 10];
        engine.spmv(&[2.0; 10], &mut y);
        assert_eq!(y, vec![1.0; 10]);
    }

    #[test]
    fn steady_state_helper_runs() {
        let csr = random_csr(100, 100, 900, 5);
        let x = vec![1.0; 100];
        let mut y = vec![0.0; 100];
        run_steady_state(&csr, 2, KernelVariant::Unrolled4, &x, &mut y, 3);
        let mut expected = vec![0.0; 100];
        for _ in 0..3 {
            csr.spmv(&x, &mut expected);
        }
        assert!(max_abs_diff(&expected, &y) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        SpmvEngine::new(&random_csr(4, 4, 4, 6), 0);
    }

    #[test]
    fn reports_shape_and_partition() {
        let csr = random_csr(64, 64, 600, 7);
        let engine = SpmvEngine::with_variant(&csr, 4, KernelVariant::Unrolled4);
        assert_eq!(engine.num_threads(), 4);
        assert_eq!(engine.nnz(), csr.nnz());
        assert_eq!(engine.variant(), Some(KernelVariant::Unrolled4));
        assert!(engine.partition().covers(64));
        let report = engine.footprint();
        assert_eq!(report.total_bytes, engine.footprint_bytes());
        assert_eq!(report.per_worker_bytes.len(), 4);
        assert_eq!(
            report.per_worker_bytes.iter().sum::<usize>(),
            report.total_bytes
        );
        assert!(report.per_worker_bytes.iter().all(|&b| b > 0));
    }

    // --- tuned-engine tests: the two-phase pipeline behind the same engine ---

    /// The tuned engine must be **bit-identical** to the serial tuned reference
    /// (the same plan materialized and executed on one thread), at every thread
    /// count including degenerate ones.
    #[test]
    fn tuned_engine_bit_identical_to_serial_prepared_reference() {
        let nrows = 157;
        let csr = random_csr(nrows, 140, 2100, 8);
        let x: Vec<f64> = (0..140).map(|i| (i as f64 * 0.013).cos() * 3.0).collect();
        for threads in [1, 2, nrows, nrows + 3] {
            let plan = TunePlan::new(&csr, threads, &TuningConfig::full());
            let serial = PreparedMatrix::materialize(&csr, &plan).unwrap();
            let mut expected = vec![0.25; nrows];
            serial.spmv(&x, &mut expected);

            let mut engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
            let mut y = vec![0.25; nrows];
            engine.spmv(&x, &mut y);
            assert_eq!(expected, y, "threads={threads} must be bit-identical");
        }
    }

    #[test]
    fn tuned_engine_handles_empty_matrix_and_empty_rows() {
        // Fully empty matrix.
        let empty = CsrMatrix::from_coo(&CooMatrix::new(9, 9));
        let mut engine = SpmvEngine::tuned(&empty, 3, &TuningConfig::full()).unwrap();
        let mut y = vec![7.0; 9];
        engine.spmv(&[1.0; 9], &mut y);
        assert_eq!(y, vec![7.0; 9]);

        // A matrix with many empty rows (exercises GCSR/BCOO choices).
        let coo = CooMatrix::from_triplets(
            64,
            64,
            vec![(0, 0, 1.0), (31, 2, -2.0), (31, 60, 4.0), (63, 63, 0.5)],
        )
        .unwrap();
        let sparse = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        for threads in [1, 2, 64, 67] {
            let plan = TunePlan::new(&sparse, threads, &TuningConfig::full());
            let serial = PreparedMatrix::materialize(&sparse, &plan).unwrap();
            let mut expected = vec![0.0; 64];
            serial.spmv(&x, &mut expected);
            let mut engine = SpmvEngine::from_plan(&sparse, &plan).unwrap();
            let mut y = vec![0.0; 64];
            engine.spmv(&x, &mut y);
            assert_eq!(expected, y, "threads={threads}");
        }
    }

    #[test]
    fn tuned_engine_matches_plain_reference_within_tolerance() {
        let csr = random_csr(500, 430, 7000, 9);
        let x: Vec<f64> = (0..430).map(|i| (i % 11) as f64 * 0.5 - 2.0).collect();
        let reference = csr.spmv_alloc(&x);
        for config in [
            TuningConfig::naive(),
            TuningConfig::register_only(),
            TuningConfig::full(),
        ] {
            let mut engine = SpmvEngine::tuned(&csr, 4, &config).unwrap();
            let mut y = vec![0.0; 500];
            engine.spmv(&x, &mut y);
            assert!(
                max_abs_diff(&reference, &y) < 1e-9,
                "config {config:?} diverged"
            );
            assert_eq!(engine.variant(), None);
            assert!(engine.footprint_bytes() > 0);
        }
    }

    #[test]
    fn engine_from_saved_plan_round_trips() {
        let csr = random_csr(220, 190, 2600, 10);
        let plan = TunePlan::new(&csr, 3, &TuningConfig::full());
        let reloaded = TunePlan::from_text(&plan.to_text()).unwrap();
        let x: Vec<f64> = (0..190).map(|i| (i as f64).sqrt()).collect();
        let mut a = vec![0.0; 220];
        SpmvEngine::from_plan(&csr, &plan).unwrap().spmv(&x, &mut a);
        let mut b = vec![0.0; 220];
        SpmvEngine::from_plan(&csr, &reloaded)
            .unwrap()
            .spmv(&x, &mut b);
        assert_eq!(a, b, "a reloaded plan must execute identically");
    }

    /// A worker that cannot build its block must surface as a construction error,
    /// not a hang (regression test for the construction handshake).
    #[test]
    fn failed_block_build_errors_instead_of_hanging() {
        let wide = random_csr(6, 70_000, 60, 11);
        let mut plan = TunePlan::new(&wide, 2, &TuningConfig::naive());
        // Corrupt one thread's decision: u16 indices cannot span 70k columns.
        for d in &mut plan.threads[1].decisions {
            d.choice.width = spmv_core::formats::IndexWidth::U16;
        }
        match SpmvEngine::from_plan(&wide, &plan) {
            Err(e) => assert!(e.to_string().contains("failed to build their thread block")),
            Ok(_) => panic!("corrupt plan must fail construction"),
        }
    }

    #[test]
    fn from_plan_rejects_mismatched_matrix() {
        let csr = random_csr(100, 100, 1000, 12);
        let plan = TunePlan::new(&csr, 2, &TuningConfig::full());
        let other = random_csr(100, 100, 900, 13);
        assert!(SpmvEngine::from_plan(&other, &plan).is_err());
    }

    // --- batched (SpMM) apply -------------------------------------------------

    /// A deterministic k-column source block.
    fn test_xblock(ncols: usize, k: usize) -> MultiVec {
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                (0..ncols)
                    .map(|i| ((i * 29 + j * 13 + 3) % 89) as f64 * 0.25 - 9.0)
                    .collect()
            })
            .collect();
        let views: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        MultiVec::from_columns(&views)
    }

    /// The engine's batched apply must be bit-identical per column to the serial
    /// tuned SpMV of the same plan, at every thread count including degenerate
    /// ones, for every batch width the microkernels are generated for (and one
    /// odd width exercising the chunk decomposition).
    #[test]
    fn engine_spmm_bit_identical_to_k_serial_tuned_spmv_calls() {
        let nrows = 113;
        let csr = random_csr(nrows, 97, 1600, 20);
        for threads in [1, 2, nrows + 3] {
            let plan = TunePlan::new(&csr, threads, &TuningConfig::full());
            let serial = PreparedMatrix::materialize(&csr, &plan).unwrap();
            let mut engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
            for k in [1, 2, 4, 8, 5] {
                let x = test_xblock(97, k);
                let mut y = MultiVec::zeros(nrows, k);
                y.fill(0.5);
                engine.spmm(&x, &mut y);
                for j in 0..k {
                    let mut expected = vec![0.5; nrows];
                    serial.spmv(x.col(j), &mut expected);
                    assert_eq!(y.col(j), &expected[..], "threads={threads} k={k} col {j}");
                }
            }
        }
    }

    #[test]
    fn engine_spmm_accumulates_and_interleaves_with_spmv() {
        let csr = random_csr(90, 90, 1100, 21);
        let mut engine = SpmvEngine::tuned(&csr, 3, &TuningConfig::full()).unwrap();
        let x = test_xblock(90, 4);
        let mut y = MultiVec::zeros(90, 4);
        engine.spmm(&x, &mut y);
        engine.spmm(&x, &mut y); // accumulate a second application
        let mut single = vec![0.0; 90];
        engine.spmv(x.col(2), &mut single); // interleaved single-vector call
        engine.spmv(x.col(2), &mut single);
        assert_eq!(y.col(2), &single[..]);
    }

    #[test]
    fn engine_spmm_on_empty_matrix_leaves_y_untouched() {
        let csr = CsrMatrix::from_coo(&CooMatrix::new(7, 7));
        let mut engine = SpmvEngine::tuned(&csr, 2, &TuningConfig::full()).unwrap();
        let x = MultiVec::zeros(7, 3);
        let mut y = MultiVec::zeros(7, 3);
        y.fill(4.5);
        engine.spmm(&x, &mut y);
        assert_eq!(y.data(), &[4.5; 21]);
    }

    // --- symmetric engines ----------------------------------------------------

    use spmv_testutil::random_symmetric_csr as random_symmetric;

    /// A symmetric plan's engine must route through the scratch reduction and
    /// stay **bit-identical** to the serial symmetric reference at every thread
    /// count, including degenerate ones — the property the mirrored tree
    /// reduction exists to provide.
    #[test]
    fn symmetric_engine_bit_identical_to_serial_symmetric_reference() {
        let n = 143;
        let csr = random_symmetric(n, 900, 31);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.017).cos() * 2.5).collect();
        for threads in [1, 2, 3, 8, n + 3] {
            let plan = TunePlan::new(&csr, threads, &TuningConfig::full());
            assert!(
                plan.symmetric,
                "threads={threads}: symmetry must be detected"
            );
            let serial = PreparedMatrix::materialize(&csr, &plan).unwrap();
            let mut expected = vec![0.125; n];
            serial.spmv(&x, &mut expected);

            let mut engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
            assert!(engine.is_symmetric());
            let mut y = vec![0.125; n];
            engine.spmv(&x, &mut y);
            assert_eq!(expected, y, "threads={threads} must be bit-identical");
            // Reusability: a second epoch accumulates identically.
            engine.spmv(&x, &mut y);
            serial.spmv(&x, &mut expected);
            assert_eq!(expected, y, "threads={threads} second epoch");
        }
    }

    /// Symmetric storage must also agree with the *general* reference (within
    /// tolerance — the summation order differs) and report a smaller footprint.
    #[test]
    fn symmetric_engine_matches_general_reference_and_halves_footprint() {
        let n = 120;
        let csr = random_symmetric(n, 1400, 32);
        let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.5 - 3.0).collect();
        let reference = csr.spmv_alloc(&x);
        let mut engine = SpmvEngine::tuned(&csr, 4, &TuningConfig::full()).unwrap();
        let mut y = vec![0.0; n];
        engine.spmv(&x, &mut y);
        assert!(max_abs_diff(&reference, &y) < 1e-9);

        let general = TuningConfig {
            exploit_symmetry: false,
            ..TuningConfig::full()
        };
        let general_engine = SpmvEngine::tuned(&csr, 4, &general).unwrap();
        assert!(!general_engine.is_symmetric());
        assert!(
            (engine.footprint_bytes() as f64) < 0.75 * general_engine.footprint_bytes() as f64,
            "sym {} bytes vs general {} bytes",
            engine.footprint_bytes(),
            general_engine.footprint_bytes()
        );
    }

    /// Symmetric SpMM: bit-identical per column to the serial symmetric SpMM and
    /// to k single-vector engine calls, with batch widths exceeding the first
    /// epoch's scratch size (exercises the grow-once path).
    #[test]
    fn symmetric_engine_spmm_bit_identical_to_serial() {
        let n = 97;
        let csr = random_symmetric(n, 600, 33);
        for threads in [1, 3, n + 3] {
            let plan = TunePlan::new(&csr, threads, &TuningConfig::full());
            let serial = PreparedMatrix::materialize(&csr, &plan).unwrap();
            let mut engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
            for k in [1, 2, 5, 8] {
                let x = test_xblock(n, k);
                let mut y = MultiVec::zeros(n, k);
                y.fill(0.25);
                engine.spmm(&x, &mut y);
                let mut expected = MultiVec::zeros(n, k);
                expected.fill(0.25);
                serial.spmm(&x, &mut expected);
                assert_eq!(y, expected, "threads={threads} k={k}");
                // Per column identical to the single-vector path too.
                for j in 0..k {
                    let mut single = vec![0.25; n];
                    engine.spmv(x.col(j), &mut single);
                    let mut single_serial = vec![0.25; n];
                    serial.spmv(x.col(j), &mut single_serial);
                    assert_eq!(single, single_serial, "threads={threads} k={k} col {j}");
                }
            }
        }
    }

    #[test]
    fn symmetric_plan_round_trips_into_identical_engine_results() {
        let csr = random_symmetric(76, 500, 34);
        let plan = TunePlan::new(&csr, 3, &TuningConfig::full());
        assert!(plan.symmetric);
        let reloaded = TunePlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(plan, reloaded);
        let x: Vec<f64> = (0..76).map(|i| (i as f64).sqrt() - 4.0).collect();
        let mut a = vec![0.0; 76];
        SpmvEngine::from_plan(&csr, &plan).unwrap().spmv(&x, &mut a);
        let mut b = vec![0.0; 76];
        SpmvEngine::from_plan(&csr, &reloaded)
            .unwrap()
            .spmv(&x, &mut b);
        assert_eq!(a, b);
    }
}
