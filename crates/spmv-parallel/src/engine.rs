//! The zero-overhead steady-state SpMV engine.
//!
//! An iterative solver calls SpMV thousands of times on the *same* matrix; the paper
//! drives per-iteration parallel overhead to (near) zero by keeping Pthreads alive,
//! giving each a fixed thread block in node-local memory, and writing disjoint
//! destination slices so the steady state needs no locks and no allocation. This
//! module reproduces that execution model exactly, now unified with the tuning
//! ladder through the two-phase `TunePlan` → [`PreparedBlock`] pipeline:
//!
//! * **Persistent workers, and the caller is one of them** — an engine of `n`
//!   thread blocks spawns `n − 1` workers once (joined on drop); the thread that
//!   calls [`SpmvEngine::spmv`] is participant 0 of that epoch and runs block 0
//!   itself. A one-block engine spawns nothing and an epoch is a plain call.
//! * **First-touch placement** — each participant *materializes its own*
//!   [`PreparedBlock`] on its own thread during construction, so on a
//!   first-touch NUMA OS the pages of that block land on that thread's node. A
//!   tuned engine's blocks are register-blocked, index-compressed, cache/TLB
//!   blocked, and prefetch-annotated, exactly as the footprint heuristic decided.
//! * **Precomputed disjoint `y` slices** — the row partition is fixed at
//!   construction; each steady-state call just offsets the destination pointer.
//! * **Atomics-only epochs, no per-call allocation** — the caller writes one
//!   `Op` (the operation and raw views of the vectors it touches), stores an
//!   epoch word and unparks whoever sleeps (the private `sync` module); workers
//!   wait for the next epoch with a short spin before they park, so
//!   back-to-back epochs never enter the kernel. The compute loop dispatches
//!   straight into the prepared, monomorphized kernels.
//! * **Claimed blocks** — in an SpMV/SpMM epoch of a general plan a block is run
//!   by whoever claims it first (one `fetch_max`): its owner when it wakes, or
//!   the caller once block 0 is done. An epoch therefore costs at most the
//!   serial time plus one claim per block however late a worker's CPU arrives,
//!   and the output is the same bit for bit: whoever runs block *i* writes the
//!   same rows with the same kernel. Symmetric and fused-solver epochs need
//!   every participant (they meet at a barrier), so there seat *i* runs block *i*.
//! * **Batched apply** — [`SpmvEngine::spmm`] runs the multi-vector (SpMM)
//!   kernels over the same disjoint y-slices: each worker writes its row range
//!   of every column of a column-major k-vector block, amortizing all index
//!   traffic across the batch with zero per-call allocation.
//! * **Symmetric execution** — a symmetric plan's workers hold lower-triangle
//!   slabs whose transposed writes scatter *outside* their row ranges, so the
//!   disjoint-slice contract no longer holds. Each symmetric worker instead
//!   computes into its own full-length scratch vector (allocated first-touch at
//!   construction, grown once for wider SpMM batches, zero steady-state
//!   allocation). Then **one barrier, then a row-split fold**: each
//!   participant adds every scratch's rows of its own range into its own rows
//!   of `y`, by the deterministic pairwise tree of
//!   [`spmv_core::tuning::fold_rows`] — the serial `PreparedMatrix`'s fold —
//!   so symmetric parallel output stays bit-identical to the symmetric serial
//!   reference. SpMV, SpMM and the fused solvers' `w ← A·p` all run this one
//!   apply.
//! * **Always-on profiling** — whoever runs a block reads the monotonic clock
//!   twice around it, and the caller folds the per-block times after each
//!   epoch into [`SpmvEngine::profile`]; there is no switch.
//!
//! One way to build one, [`SpmvEngine::from_plan`]: materialize a [`TunePlan`]
//! (fresh, or loaded via [`TunePlan::load`] to amortize tuning cost across
//! program runs). [`SpmvEngine::tuned`] plans with the timed tuner first, and
//! [`SpmvEngine::new`] with the naive config — plain CSR blocks, the untuned
//! baseline.

use crate::sync::{epoch_word, EpochGate, EpochKind, Padded, Turn};
use spmv_core::error::{Error, Result};
use spmv_core::formats::CsrMatrix;
use spmv_core::multivec::{MultiVec, MultiVecMut};
use spmv_core::partition::row::RowPartition;
use spmv_core::solver::kernels;
use spmv_core::tuning::plan::{ThreadPlan, TunePlan};
use spmv_core::tuning::prepared::PreparedBlock;
use spmv_core::tuning::{fold_rows, TuningConfig};
use spmv_core::MatrixShape;
use spmv_obs::{Histogram, HistogramSnapshot, TraceKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// What one epoch asks of whoever runs a block: the operation and raw views of
/// exactly the vectors it reads and writes. Lengths are not carried; they
/// follow from the engine's shape and the block. The kernel is not here either:
/// it was bound into each [`PreparedBlock`] at construction.
///
/// A participant dereferences these views only while it holds an unchecked-in
/// share of the epoch, during which the caller's borrows are live (the caller
/// cannot leave the epoch, even by unwinding, before every share is checked in).
#[derive(Clone, Copy)]
enum Op {
    /// `y ← y + A·x`.
    Spmv { x: *const f64, y: *mut f64 },
    /// `Y ← Y + A·X` over column-major blocks of `k` vectors (leading
    /// dimensions `ncols` and `nrows`): each block writes its row range of
    /// every column.
    Spmm {
        x: *const f64,
        y: *mut f64,
        k: usize,
    },
    /// Fused CG start: `x ← 0`, `r ← p ← b`, `w ← 0`, per-participant `r·r`
    /// partials. The first writes double as first-touch placement.
    CgInit { b: *const f64, slabs: Slabs },
    /// Re-seed the resident CG state after a hot swap: each owner copies its
    /// row slices of `x`, `r`, `p`, so the pages stay first-touch placed.
    CgLoad {
        x: *const f64,
        r: *const f64,
        p: *const f64,
        slabs: Slabs,
    },
    /// `steps` whole fused CG iterations (SpMV + both dots + both vector
    /// updates each); `rr` is the `r·r` entering the first. Every participant
    /// carries the recurrence scalar locally across the in-epoch iterations,
    /// so batching costs no extra communication — just one ordering barrier
    /// between consecutive iterations.
    CgStep { slabs: Slabs, steps: u64, rr: f64 },
    /// Fused power-iteration start: `q ← v0/‖v0‖`.
    PowerInit { v0: *const f64, slabs: Slabs },
    /// One fused power-iteration step: `w ← A·q`, Rayleigh + norm partials,
    /// `q ← w/‖w‖`.
    PowerStep { slabs: Slabs },
}

// SAFETY: an `Op` is plain pointers and scalars. The epoch gate (epoch-word
// store happens-before a participant's read; its check-in happens-before the
// caller's return) orders every access, and participants write only disjoint
// row slices or barrier-ordered phases.
unsafe impl Send for Op {}

/// Base pointers of the engine-resident solver vectors ([`SolverVectors`]),
/// each `nrows` long, published with every solver op.
#[derive(Clone, Copy)]
struct Slabs {
    x: *mut f64,
    r: *mut f64,
    p: *mut f64,
    w: *mut f64,
}

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

/// One worker's full-length scratch destination for the symmetric path.
///
/// The vector is allocated (and grown, for wider SpMM batches) *by its owning
/// worker*, so first-touch places the pages on that worker's node. Other
/// workers only read it during the fold, after the barrier that ends compute.
struct ScratchSlot(std::cell::UnsafeCell<Vec<f64>>);

// SAFETY: access is disciplined by the fold protocol. Before the apply's one
// barrier, a slot is resized, zeroed and written only by its owning seat.
// After it, until the seats next meet at a barrier or the epoch completes, no
// slot is written, and each participant reads only its own row range of
// every slot.
unsafe impl Sync for ScratchSlot {}

/// One zeroed word per participant, each on its own cache line so one
/// participant's store never bounces another's line.
fn padded_words(n: usize) -> Vec<Padded<AtomicU64>> {
    (0..n).map(|_| Padded(AtomicU64::new(0))).collect()
}

/// One scalar partial per participant for a fused solver phase. Participant
/// `i` writes slot `i` before a phase barrier (or its check-in); after it,
/// every participant and the caller fold all slots locally and arrive at the
/// same `f64`, so no scalar is ever broadcast.
struct Partials(Vec<Padded<AtomicU64>>);

impl Partials {
    // Relaxed: the phase barrier or the epoch's completion orders every store
    // before the loads that follow it.
    fn set(&self, i: usize, value: f64) {
        self.0[i].0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The slots folded in [`kernels::tree_sum`]'s deterministic order.
    fn sum(&self) -> f64 {
        kernels::tree_sum(self.0.len(), |i| {
            f64::from_bits(self.0[i].0.load(Ordering::Relaxed))
        })
    }
}

/// State shared by the caller and the workers.
struct Shared {
    /// The epoch protocol: publication, claims, check-in, barrier.
    gate: EpochGate<Op>,
    /// Thread block `i`, set once by participant `i` during construction (first
    /// touch) and read by whoever runs block `i` afterwards. Unset = its build
    /// failed.
    blocks: Vec<OnceLock<PreparedBlock>>,
    /// Rows of the matrix: the length of each `y` column.
    nrows: usize,
    /// Per-participant scratch destinations; `Some` only for symmetric engines.
    sym: Option<Vec<ScratchSlot>>,
    /// First solver partial: `pᵀw` (CG) or the Rayleigh `qᵀw` (power).
    dots_a: Partials,
    /// Second solver partial: `rᵀr` (CG) or `wᵀw` (power).
    dots_b: Partials,
    /// Kernel nanoseconds block `i` took in the most recent epoch. Written by
    /// whoever ran the block before its check-in, read and folded caller-side
    /// after the epoch completes.
    prof: Vec<Padded<AtomicU64>>,
}

/// What a participant materializes during construction (on its own thread, for
/// first-touch placement): its row slice of the matrix and the plan for it.
type BlockSpec = (CsrMatrix, ThreadPlan);

/// The engine's materialized-footprint report: how many bytes each persistent
/// worker's first-touch-materialized thread block occupies.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineFootprint {
    /// Sum of the workers' materialized block footprints.
    pub total_bytes: usize,
    /// Bytes of worker `i`'s first-touch-materialized thread block.
    pub per_worker_bytes: Vec<usize>,
}

/// One thread block's share of the profiled work: its nonzeros and its
/// cumulative kernel and barrier-wait time. Slot `i` describes block `i`,
/// whichever thread ran it in a given epoch (its owner, or the caller).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    /// Logical nonzeros of the thread block.
    pub nnz: usize,
    /// Cumulative nanoseconds spent computing this block (for solver and
    /// symmetric epochs this includes the in-epoch scratch fold).
    pub kernel_ns: u64,
    /// Cumulative nanoseconds this block was finished-but-waiting for the
    /// slowest block of each epoch — the per-epoch load imbalance, measured
    /// as `max_over_blocks(kernel) - own kernel` and summed across epochs.
    pub barrier_ns: u64,
}

/// The engine's runtime telemetry report, the companion of
/// [`EngineFootprint`]: where the epochs' cycles went, per worker.
///
/// Per-epoch block kernel times are taken by whoever runs the block (two
/// monotonic-clock reads per block per epoch, ~50ns, always on); the caller
/// folds them after each epoch completes, so reading the profile never
/// touches the workers.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineProfile {
    /// Total completed epochs (all operations).
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
    /// Waits (for the next epoch, for completion, at a barrier) that outlasted
    /// the spin and yield phases and parked the thread, over all participants.
    pub parks: u64,
    /// Waits that ended while the waiter was still spinning.
    pub spin_hits: u64,
    /// Blocks other than block 0 that the calling thread ran because their
    /// owner had not claimed them by the time the caller got to them.
    pub stolen_blocks: u64,
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
/// takes `&mut self`, and the epoch's completion already ordered the block
/// runners' slot writes before the fold).
struct EngineTelemetry {
    epochs: u64,
    spmv_epochs: u64,
    spmm_epochs: u64,
    solver_epochs: u64,
    worker_kernel_ns: Vec<u64>,
    worker_barrier_ns: Vec<u64>,
    epoch_hist: Histogram,
    stolen_blocks: u64,
}

impl EngineTelemetry {
    fn new(nworkers: usize) -> Self {
        EngineTelemetry {
            epochs: 0,
            spmv_epochs: 0,
            spmm_epochs: 0,
            solver_epochs: 0,
            worker_kernel_ns: vec![0; nworkers],
            worker_barrier_ns: vec![0; nworkers],
            epoch_hist: Histogram::new(),
            stolen_blocks: 0,
        }
    }
}

/// A persistent, NUMA-placed, fully-tuned parallel SpMV engine for one matrix.
pub struct SpmvEngine {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    partition: RowPartition,
    /// Whether the workers run the symmetric scratch-fold path.
    symmetric: bool,
    footprint_bytes: usize,
    per_worker_bytes: Vec<usize>,
    shared: Arc<Shared>,
    /// The spawned participants `1..n`; the caller of each epoch is participant 0.
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
    /// Build an untuned engine: [`SpmvEngine::from_plan`] over the
    /// [`TuningConfig::naive`] plan, one plain CSR block per thread over a
    /// nonzero-balanced row partition.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads == 0`.
    pub fn new(csr: &CsrMatrix, nthreads: usize) -> Self {
        assert!(nthreads > 0, "engine requires at least one worker");
        Self::from_plan(
            csr,
            &TunePlan::heuristic(csr, nthreads, &TuningConfig::naive()),
        )
        .expect("a fresh plan fits its matrix")
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
    /// from a saved profile) into a running engine: spawn a worker for every
    /// thread block but the first, build block 0 here, wait for every block
    /// build. Fails if the plan does not match the matrix or a worker cannot
    /// build its block (an error, never a hang).
    pub fn from_plan(csr: &CsrMatrix, plan: &TunePlan) -> Result<Self> {
        plan.validate_for(csr)?;
        if plan.num_threads() == 0 {
            return Err(Error::InvalidStructure(
                "plan has no thread blocks".to_string(),
            ));
        }
        let specs: Vec<BlockSpec> = plan
            .threads
            .iter()
            .map(|t| (csr.row_slice(t.rows.start, t.rows.end), t.clone()))
            .collect();
        let n = specs.len();
        let per_worker_nnz: Vec<usize> = specs.iter().map(|(slice, _)| slice.nnz()).collect();
        let idle = Op::Spmv {
            x: std::ptr::null(),
            y: std::ptr::null_mut(),
        };
        let shared = Arc::new(Shared {
            gate: EpochGate::new(n, idle),
            blocks: (0..n).map(|_| OnceLock::new()).collect(),
            nrows: csr.nrows(),
            sym: plan.symmetric.then(|| {
                (0..n)
                    .map(|_| ScratchSlot(std::cell::UnsafeCell::new(Vec::new())))
                    .collect()
            }),
            dots_a: Partials(padded_words(n)),
            dots_b: Partials(padded_words(n)),
            prof: padded_words(n),
        });

        let mut specs = specs.into_iter();
        let own_spec = specs.next().expect("checked: the plan has thread blocks");
        let workers = specs
            .enumerate()
            .map(|(i, spec)| {
                let (tid, shared) = (i + 1, Arc::clone(&shared));
                std::thread::Builder::new()
                    .name(format!("spmv-engine-{tid}"))
                    .spawn(move || worker_loop(shared, tid, spec))
                    .expect("spawn engine worker")
            })
            .collect();
        // Block 0 is built here, alongside the workers building theirs; the
        // gate's construction handshake then waits for every worker.
        build_block(&shared, 0, own_spec);
        shared.gate.wait_ready();

        let per_worker_bytes: Vec<usize> = shared
            .blocks
            .iter()
            .map(|b| b.get().map_or(0, PreparedBlock::footprint_bytes))
            .collect();
        let failed = shared.blocks.iter().filter(|b| b.get().is_none()).count();
        let engine = SpmvEngine {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            partition: plan.row_partition(),
            symmetric: plan.symmetric,
            footprint_bytes: per_worker_bytes.iter().sum(),
            per_worker_bytes,
            shared,
            workers,
            epoch: 0,
            solver: None,
            per_worker_nnz,
            telemetry: EngineTelemetry::new(n),
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

    /// Number of thread blocks, and of threads an epoch can occupy: the spawned
    /// workers plus the calling thread.
    pub fn num_threads(&self) -> usize {
        self.shared.blocks.len()
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

    /// Whether the engine serves the matrix from symmetric (lower-triangle)
    /// storage, with per-worker scratch destinations and the deterministic
    /// row-split fold.
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

    /// Run one epoch: publish `op`, take part as participant 0, and return
    /// once every block is checked in. The single round-trip every
    /// steady-state entry point shares.
    fn launch_and_wait(&mut self, op: Op) {
        self.epoch += 1;
        let t0 = Instant::now();
        let shared = &*self.shared;
        // Symmetric and solver epochs need every participant at their in-epoch
        // barriers, so seat i runs block i; plain ones are claimed. Block 0 is
        // the caller's either way (nobody else claims it).
        let (kind, claimable) = match op {
            Op::Spmv { .. } | Op::Spmm { .. } if !self.symmetric => {
                (EpochKind::Claim, shared.blocks.len())
            }
            _ => (EpochKind::Rendezvous, 1),
        };
        {
            // The guard waits, when dropped, for every share of the epoch —
            // also if a kernel below unwinds — so the views in `op` cannot be
            // released under a running worker.
            let mut epoch = shared.gate.open(epoch_word(self.epoch, kind), op);
            for block in 0..claimable {
                if epoch.claim(block) {
                    run_block(shared, block, op);
                    self.telemetry.stolen_blocks += (block > 0) as u64;
                }
            }
        }
        self.observe_epoch(op, spmv_obs::saturating_nanos(t0.elapsed()));
    }

    /// Fold the finished epoch into the telemetry accumulators: per-block
    /// kernel time from the profiling slots, barrier wait as the gap to the
    /// epoch's slowest block, and the whole-epoch wall time histogram.
    fn observe_epoch(&mut self, op: Op, wall_ns: u64) {
        let t = &mut self.telemetry;
        t.epochs += 1;
        let op_code: u64 = match op {
            Op::Spmv { .. } => {
                t.spmv_epochs += 1;
                0
            }
            Op::Spmm { .. } => {
                t.spmm_epochs += 1;
                1
            }
            _ => {
                t.solver_epochs += 1;
                2
            }
        };
        // Relaxed: each runner's check-in ordered its slot store before the
        // completion this thread observed, and no epoch runs concurrently with
        // the fold (`&mut self`).
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
        spmv_obs::trace::trace(TraceKind::EngineEpoch, op_code, wall_ns);
    }

    /// The runtime telemetry report accumulated so far (see [`EngineProfile`]).
    pub fn profile(&self) -> EngineProfile {
        let t = &self.telemetry;
        let waits = self.shared.gate.wait_counts();
        EngineProfile {
            epochs: t.epochs,
            spmv_epochs: t.spmv_epochs,
            spmm_epochs: t.spmm_epochs,
            solver_epochs: t.solver_epochs,
            workers: (0..self.num_threads())
                .map(|i| WorkerProfile {
                    nnz: self.per_worker_nnz[i],
                    kernel_ns: t.worker_kernel_ns[i],
                    barrier_ns: t.worker_barrier_ns[i],
                })
                .collect(),
            epoch_ns: t.epoch_hist.snapshot(),
            parks: waits.parks,
            spin_hits: waits.spin_hits,
            stolen_blocks: t.stolen_blocks,
        }
    }

    /// `y ← y + A·x`, steady state: publish the views, open the epoch, run
    /// block 0 (and any block left unclaimed), wait for the rest. No
    /// allocation, no locks in the compute loop.
    pub fn spmv(&mut self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "source vector length mismatch");
        assert_eq!(y.len(), self.nrows, "destination vector length mismatch");
        self.launch_and_wait(Op::Spmv {
            x: x.as_ptr(),
            y: y.as_mut_ptr(),
        });
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
        self.launch_and_wait(Op::Spmm {
            x: x.data().as_ptr(),
            y: y.data_mut().as_mut_ptr(),
            k: x.k(),
        });
    }

    /// The resident solver slabs, allocated on first use. The `vec![0.0; n]`
    /// allocations are lazy zero pages; the workers' first writes (in the init
    /// epochs) are what actually touch — and therefore place — them.
    fn slabs(&mut self) -> Slabs {
        assert_eq!(
            self.nrows, self.ncols,
            "in-engine iterative solvers require a square matrix"
        );
        let n = self.nrows;
        let s = self.solver.get_or_insert_with(|| {
            Box::new(SolverVectors {
                x: vec![0.0; n],
                r: vec![0.0; n],
                p: vec![0.0; n],
                w: vec![0.0; n],
            })
        });
        Slabs {
            x: s.x.as_mut_ptr(),
            r: s.r.as_mut_ptr(),
            p: s.p.as_mut_ptr(),
            w: s.w.as_mut_ptr(),
        }
    }

    /// Start fused conjugate gradient on the resident slabs: `x ← 0`,
    /// `r ← p ← b`. Returns the initial squared residual `r·r` to thread into
    /// [`SpmvEngine::cg_step`]. One epoch.
    pub fn cg_init(&mut self, b: &[f64]) -> f64 {
        assert_eq!(b.len(), self.ncols, "right-hand side length mismatch");
        let slabs = self.slabs();
        self.launch_and_wait(Op::CgInit {
            b: b.as_ptr(),
            slabs,
        });
        self.shared.dots_b.sum()
    }

    /// `steps` whole fused CG iterations — SpMV, both dot products, both
    /// vector updates each — under a **single** epoch. `rr`
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
        let slabs = self.slabs();
        self.launch_and_wait(Op::CgStep { slabs, steps, rr });
        self.shared.dots_b.sum()
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
        let slabs = self.slabs();
        self.launch_and_wait(Op::CgLoad {
            x: x.as_ptr(),
            r: r.as_ptr(),
            p: p.as_ptr(),
            slabs,
        });
    }

    /// Start fused power iteration: `q ← v0/‖v0‖` on the resident slabs
    /// (`q` lives in the `p` slab). One epoch.
    pub fn power_init(&mut self, v0: &[f64]) {
        assert_eq!(v0.len(), self.ncols, "start vector length mismatch");
        let slabs = self.slabs();
        self.launch_and_wait(Op::PowerInit {
            v0: v0.as_ptr(),
            slabs,
        });
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
        let slabs = self.slabs();
        self.launch_and_wait(Op::PowerStep { slabs });
        self.shared.dots_a.sum()
    }

    /// Read the resident solver state `(x, r, p)` — the extraction point of a
    /// stateful session (and the donor side of a hot swap). The last epoch's
    /// completion ordered all participants' writes before this read.
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

/// Handles on the schedule hook for the stress tests in `sync`.
#[cfg(test)]
impl SpmvEngine {
    pub(crate) fn set_chaos(&self, seed: u64, starve_owners: bool) {
        self.shared.gate.set_chaos(seed, starve_owners);
    }

    pub(crate) fn parked_workers(&self) -> usize {
        self.shared.gate.parked_workers()
    }
}

impl Drop for SpmvEngine {
    fn drop(&mut self) {
        self.shared
            .gate
            .shutdown(epoch_word(self.epoch + 1, EpochKind::Shutdown));
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Materialize block `i` on the calling thread (first touch) and publish it;
/// a build that fails or panics leaves the slot unset, which construction
/// reports as an error. Symmetric participants also allocate their full-length
/// scratch destination here, so its pages land on the same node. (SpMM batches
/// grow it on first use of a wider batch — steady state allocates nothing.)
fn build_block(shared: &Shared, i: usize, (slice, plan): BlockSpec) -> bool {
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        PreparedBlock::materialize(&slice, &plan)
    }));
    let Ok(Ok(block)) = built else {
        return false;
    };
    debug_assert_eq!(block.is_symmetric(), shared.sym.is_some());
    if let Some(slots) = &shared.sym {
        // SAFETY: no other thread touches slot `i` before the first epoch's
        // fold, which construction's handshake precedes.
        unsafe { *slots[i].0.get() = vec![0.0; block.ncols()] };
    }
    shared.blocks[i].set(block).is_ok()
}

/// The worker body: materialize the block (first touch), check in to the
/// construction handshake — also after a failed build, so construction errors
/// instead of hanging — then serve epochs until shutdown.
fn worker_loop(shared: Arc<Shared>, tid: usize, spec: BlockSpec) {
    let built = build_block(&shared, tid, spec);
    shared.gate.check_in(tid, 1);
    if !built {
        return;
    }
    let mut seen = 0u64;
    loop {
        match shared.gate.next_turn(tid, &mut seen) {
            Turn::Shutdown => return,
            Turn::Stolen => {}
            Turn::Run(op) => {
                run_block(&shared, tid, op);
                shared.gate.check_in(tid, 1);
            }
        }
    }
}

/// One block's share of an epoch, on whichever thread claimed block `i` (or
/// sits in seat `i` of a rendezvous epoch).
///
/// A solver op runs its entire step — SpMV, both dot products, both vector
/// updates — inside this one share. Scalar partials travel through
/// [`Partials`]; after each phase barrier **every** participant folds them in
/// the same deterministic order and derives α/β (or the normalizer) locally,
/// so the arithmetic matches [`spmv_core::solver::SerialCg`] /
/// [`spmv_core::solver::SerialPower`] op-for-op.
fn run_block(shared: &Shared, i: usize, op: Op) {
    let block = shared.blocks[i]
        .get()
        .expect("construction fails unless every block is built");
    let t0 = Instant::now();
    let rows = block.rows();
    let len = rows.len();
    // This participant's row slices of a solver vector, re-derived per use so
    // no two live references overlap. SAFETY: the caller's views are valid for
    // this epoch; row ranges are disjoint across participants, and full-length
    // reads (`p` in apply) are phase-ordered.
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
    match op {
        Op::Spmv { x, y } => apply(shared, i, block, x, y, 1, false),
        Op::Spmm { x, y, k } => apply(shared, i, block, x, y, k, false),
        Op::CgInit { b, slabs } => {
            // x ← 0, r ← p ← b, w ← 0; partial r·r. These writes are the
            // slabs' first touch, placing each page on its row owner.
            let b_s = own_ref!(b);
            own_mut!(slabs.x).fill(0.0);
            own_mut!(slabs.w).fill(0.0);
            own_mut!(slabs.r).copy_from_slice(b_s);
            own_mut!(slabs.p).copy_from_slice(b_s);
            shared.dots_b.set(i, kernels::dot(b_s, b_s));
        }
        Op::CgLoad { x, r, p, slabs } => {
            own_mut!(slabs.x).copy_from_slice(own_ref!(x));
            own_mut!(slabs.r).copy_from_slice(own_ref!(r));
            own_mut!(slabs.p).copy_from_slice(own_ref!(p));
            own_mut!(slabs.w).fill(0.0);
        }
        Op::CgStep {
            slabs,
            steps,
            mut rr,
        } => {
            for it in 0..steps {
                if it > 0 {
                    // Orders every participant's p update (the xpby below)
                    // before this iteration's full-length read of p in
                    // apply. Within one epoch this replaces the
                    // completion+launch round-trip of single-step epochs.
                    shared.gate.barrier(i);
                }
                // Phase A: w ← A·p, partial p·w. A partner overwrites its
                // slot only two barriers after everyone folded it.
                apply(shared, i, block, slabs.p, slabs.w, 1, true);
                shared
                    .dots_a
                    .set(i, kernels::dot(own_ref!(slabs.p), own_ref!(slabs.w)));
                shared.gate.barrier(i);
                // Phase B: every participant folds the same tree, derives the
                // same α, then fuses x += α·p, r -= α·w with the partial r·r.
                let alpha = rr / shared.dots_a.sum();
                let rr_partial = kernels::cg_update(
                    alpha,
                    own_ref!(slabs.p),
                    own_ref!(slabs.w),
                    own_mut!(slabs.x),
                    own_mut!(slabs.r),
                );
                shared.dots_b.set(i, rr_partial);
                shared.gate.barrier(i);
                // Phase C: same folded rr′ everywhere, p ← r + β·p on own
                // rows; the recurrence carries to the next iteration locally
                // (the caller folds the final slots after completion).
                let rr_new = shared.dots_b.sum();
                kernels::xpby(own_ref!(slabs.r), rr_new / rr, own_mut!(slabs.p));
                rr = rr_new;
            }
        }
        Op::PowerInit { v0, slabs } => {
            // q ← v0/‖v0‖ (q lives in the p slab); zero the other slabs for
            // first-touch placement.
            let v0_s = own_ref!(v0);
            own_mut!(slabs.x).fill(0.0);
            own_mut!(slabs.r).fill(0.0);
            own_mut!(slabs.w).fill(0.0);
            shared.dots_b.set(i, kernels::dot(v0_s, v0_s));
            shared.gate.barrier(i);
            let inv = 1.0 / shared.dots_b.sum().sqrt();
            kernels::scale_from(v0_s, inv, own_mut!(slabs.p));
        }
        Op::PowerStep { slabs } => {
            // w ← A·q, Rayleigh partial q·w and norm partial w·w, then every
            // participant derives the same normalizer and writes q ← w/‖w‖.
            // The caller folds slot a (λ) after the epoch completes.
            apply(shared, i, block, slabs.p, slabs.w, 1, true);
            let (q_s, w_s) = (own_ref!(slabs.p), own_ref!(slabs.w));
            shared.dots_a.set(i, kernels::dot(q_s, w_s));
            shared.dots_b.set(i, kernels::dot(w_s, w_s));
            shared.gate.barrier(i);
            let inv = 1.0 / shared.dots_b.sum().sqrt();
            kernels::scale_from(own_ref!(slabs.w), inv, own_mut!(slabs.p));
        }
    }
    // Kernel time for this epoch (includes the in-epoch scratch fold on the
    // symmetric and solver paths — the time the runner was busy, which is
    // what the imbalance report wants). Relaxed: the check-in (or, on the
    // caller, program order) orders the store before the caller's fold.
    shared.prof[i]
        .0
        .store(spmv_obs::saturating_nanos(t0.elapsed()), Ordering::Relaxed);
}

/// Block `i`'s share of `y ← y + A·x` over `k` column-major vectors (`x` of
/// leading dimension `ncols`, `y` of `nrows`): the one apply behind SpMV and
/// SpMM epochs and the fused solvers' `w ← A·p`. With `overwrite` it computes
/// `y ← A·x` instead: whoever writes a part of `y` zeroes it right before.
///
/// A general block writes its own row range of every column. A symmetric slab
/// computes into seat `i`'s zeroed scratch; after one barrier, every seat
/// folds all scratches' rows of its own range into its own rows of `y`, so
/// its own reads of those rows (the solvers' dots) need no further barrier.
fn apply(
    shared: &Shared,
    i: usize,
    block: &PreparedBlock,
    x: *const f64,
    y: *mut f64,
    k: usize,
    overwrite: bool,
) {
    let (nrows, ncols) = (shared.nrows, block.ncols());
    let rows = block.rows();
    // SAFETY: the caller published `x` (ncols·k elements) and `y` (nrows·k)
    // for exactly this epoch and cannot leave it before this share is checked
    // in; nobody writes `x` during the epoch.
    let x = unsafe { std::slice::from_raw_parts(x, ncols * k) };
    match &shared.sym {
        None => {
            // SAFETY: block `i` is run by exactly one thread per epoch, and its
            // write set — its row range of every column, `rows.len() ≤ nrows`
            // apart — is disjoint from every other block's.
            let mut y_rows =
                unsafe { MultiVecMut::from_raw_parts(y.add(rows.start), nrows, rows.len(), k) };
            if overwrite {
                (0..k).for_each(|j| y_rows.col_mut(j).fill(0.0));
            }
            if k == 1 {
                block.execute(x, y_rows.col_mut(0));
            } else {
                block.spmm(x, ncols, &mut y_rows);
            }
        }
        Some(slots) => {
            // SAFETY: seat `i` owns its slot before the barrier below.
            let scratch = unsafe { zeroed_scratch(slots, i, nrows * k) };
            for j in 0..k {
                block.execute_full(
                    &x[j * ncols..(j + 1) * ncols],
                    &mut scratch[j * nrows..(j + 1) * nrows],
                );
            }
            shared.gate.barrier(i);
            for j in 0..k {
                let own = j * nrows + rows.start..j * nrows + rows.end;
                // SAFETY: as on the general path, seat `i`'s rows of column
                // `j` are written by nobody else this epoch.
                let y = unsafe { std::slice::from_raw_parts_mut(y.add(own.start), own.len()) };
                if overwrite {
                    y.fill(0.0);
                }
                // SAFETY: past the barrier every slot is complete and, until
                // the seats meet again, read-only (`ScratchSlot`'s protocol).
                let seg = |s: usize| unsafe { &(&*slots[s].0.get())[own.clone()] };
                fold_rows(slots.len(), seg, y);
            }
        }
    }
}

/// Seat `i`'s scratch destination, grown to `need` if a wider batch asks for it
/// (once; steady state allocates nothing) and zeroed.
///
/// # Safety
///
/// Only seat `i` may call this, and only before the apply's barrier, when no
/// partner reads the slot.
#[allow(clippy::mut_from_ref)]
unsafe fn zeroed_scratch(slots: &[ScratchSlot], i: usize, need: usize) -> &mut [f64] {
    let scratch = &mut *slots[i].0.get();
    if scratch.len() < need {
        scratch.resize(need, 0.0);
    }
    scratch[..need].fill(0.0);
    &mut scratch[..need]
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

    /// The caller is participant 0: a one-block engine spawns nothing and an
    /// `n`-block engine spawns `n − 1` workers.
    #[test]
    fn one_thread_engine_holds_no_join_handle() {
        let csr = random_csr(50, 50, 400, 14);
        let mut single = SpmvEngine::tuned(&csr, 1, &TuningConfig::full()).unwrap();
        assert!(single.workers.is_empty());
        assert_eq!(single.num_threads(), 1);
        let x = vec![1.5; 50];
        let mut y = vec![0.0; 50];
        single.spmv(&x, &mut y);
        assert_eq!(y, {
            let plan = TunePlan::new(&csr, 1, &TuningConfig::full());
            PreparedMatrix::materialize(&csr, &plan)
                .unwrap()
                .spmv_alloc(&x)
        });
        assert_eq!(SpmvEngine::new(&csr, 4).workers.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        SpmvEngine::new(&random_csr(4, 4, 4, 6), 0);
    }

    #[test]
    fn reports_shape_and_partition() {
        let csr = random_csr(64, 64, 600, 7);
        let engine = SpmvEngine::new(&csr, 4);
        assert_eq!(engine.num_threads(), 4);
        assert_eq!(engine.nnz(), csr.nnz());
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
