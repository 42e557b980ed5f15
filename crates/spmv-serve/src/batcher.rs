//! Request coalescing: concurrent single-vector requests → SpMM batches.
//!
//! Clients submit ordinary `y = A·x` requests one vector at a time. The batcher
//! queues them and serves the queue in multi-vector batches under a
//! **work-conserving** policy: the moment the service is free and the queue is
//! non-empty it cuts a batch of whatever is waiting, up to `max_batch`. No
//! request is ever held back to wait for company — coalescing comes from the
//! requests that queued while the previous batch ran, so an idle service adds
//! no latency and a busy one batches exactly as wide as its backlog. Each batch
//! is one [`SpmvEngine::spmm`](spmv_parallel::SpmvEngine) call, so the index
//! traffic of the matrix is read once for the whole batch; and because the SpMM
//! kernels are bit-identical per vector to the tuned SpMV path, batching is
//! invisible to clients in every bit of the result.
//!
//! A caller that multiplexes many tickets from one thread (the network shard)
//! passes a **batch-done callback** ([`Batcher::with_batch_done`]): it runs once
//! per batch, after the last reply of that batch has been sent, so the caller
//! can block on its own wake-up primitive instead of polling
//! [`Ticket::try_wait`].
//!
//! Two driving modes:
//!
//! * [`Batcher::spawn`] — a background service thread owns the loop (the
//!   production shape). Dropping the batcher flushes the queue and joins it.
//! * [`Batcher::manual`] — no thread; the caller drives with
//!   [`Batcher::run_once`]. Deterministic, used by tests and benchmarks.
//!
//! ## Failure paths
//!
//! A networked front-end cannot afford the in-process luxury of "a panic
//! tears the process down anyway", so the batcher's failure semantics are
//! explicit:
//!
//! * **A panic during batch execution** (a kernel bug, an injected fault) is
//!   caught; every request of that batch fails with a typed
//!   [`ServeError::BatchPanicked`] delivered through its [`Ticket`], the
//!   failure is counted ([`ServeStats::failed_batches`]), and the queue stays
//!   fully usable — later submits are served normally. Queue locks recover
//!   from poisoning (the queue's invariants hold at every await point), so a
//!   panicked peer can never wedge `submit`/`pending`.
//! * **Close** ([`Batcher::close`], or drop) flips the queue shut under the
//!   lock; a concurrent [`Batcher::submit`] observes it atomically and gets
//!   [`ServeError::Closed`] — there is no window in which a request can be
//!   enqueued after the final flush decision. Everything enqueued *before*
//!   close is drained by the service loop's final flush; anything still
//!   pending when the batcher drops (manual mode, or a dead service thread)
//!   is explicitly failed with `Closed` rather than silently dropped.

use crate::registry::ServedMatrix;
use crate::stats::ServeStats;
use crate::{Result, ServeError};
use spmv_core::multivec::MultiVec;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How wide a batch may be. When one is cut is not a policy: a free service
/// with a non-empty queue cuts at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests coalesced into one SpMM batch.
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    /// Eight-wide batches, the widest generated microkernel chunk. A kernel
    /// splits a batch into chunks by its register budget, one pass over the
    /// matrix each: a batch of 8 is one pass over sliced ELL, scalar CSR and
    /// BCSR r = 1, and two over BCSR r = 2 and r = 4 on AVX2 (r = 3 and 4 when
    /// scalar) and over the AVX2 CSR kernel.
    fn default() -> Self {
        BatchPolicy { max_batch: 8 }
    }
}

/// Runs once per served batch, after its last reply was sent.
type BatchDone = Arc<dyn Fn() + Send + Sync>;

/// One queued request.
struct Request {
    x: Vec<f64>,
    reply: mpsc::Sender<Result<Vec<f64>>>,
    submitted: Instant,
}

/// A handle to a submitted request's eventual result.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Vec<f64>>>,
}

impl Ticket {
    /// Block until the result arrives. Errors with [`ServeError::Closed`] if
    /// the batcher shut down before serving the request, or with the typed
    /// error the service loop recorded (e.g. [`ServeError::BatchPanicked`]).
    pub fn wait(self) -> Result<Vec<f64>> {
        self.rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Block up to `timeout` for the result: `None` if it has not arrived.
    /// The failure-path analogue of [`Ticket::wait`] for callers that must
    /// bound their stall (a networked front-end, a no-hang test harness).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<f64>>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }

    /// Non-blocking poll: `Some(result)` once served (or failed).
    pub fn try_wait(&self) -> Option<Result<Vec<f64>>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }
}

struct Queue {
    pending: VecDeque<Request>,
    open: bool,
}

struct SharedQueue {
    state: Mutex<Queue>,
    cv: Condvar,
}

impl SharedQueue {
    /// Lock the queue, recovering from poisoning: every mutation of `Queue`
    /// (push/drain/flag flip) leaves it consistent at every panic point, so a
    /// peer that panicked while holding the lock cannot have torn it — and a
    /// served fleet must keep accepting work after one bad batch.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        self.cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }
}

/// The batching front-end of one served matrix.
pub struct Batcher {
    matrix: Arc<ServedMatrix>,
    policy: BatchPolicy,
    queue: Arc<SharedQueue>,
    stats: Arc<ServeStats>,
    /// Fault injection for the failure-path tests: each pending count makes
    /// one batch execution panic inside the caught region.
    fail_injector: Arc<AtomicU64>,
    batch_done: BatchDone,
    worker: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Start a batcher with a background service thread.
    pub fn spawn(matrix: Arc<ServedMatrix>, policy: BatchPolicy) -> Batcher {
        let mut batcher = Self::manual(matrix, policy);
        batcher.start_service();
        batcher
    }

    /// A batcher with no service thread: the caller drives it with
    /// [`Batcher::run_once`]. Deterministic batch composition for tests.
    ///
    /// Statistics are shared with the served matrix (see
    /// [`ServedMatrix::serve_stats`]), so a registry-wide metrics scrape sees
    /// the batcher's occupancy and latency histograms without holding a
    /// reference to the batcher itself.
    pub fn manual(matrix: Arc<ServedMatrix>, policy: BatchPolicy) -> Batcher {
        let stats = Arc::clone(matrix.serve_stats());
        Self::with_stats(matrix, policy, stats)
    }

    /// A batcher recording into a **private** [`ServeStats`] instead of the
    /// served matrix's shared instance, so [`Batcher::stats`] reports exactly
    /// this batcher's window — for measurement harnesses that replay several
    /// workloads over one registry and need per-replay reports. No service
    /// thread; call [`Batcher::start_service`] for the production shape.
    pub fn isolated(matrix: Arc<ServedMatrix>, policy: BatchPolicy) -> Batcher {
        Self::with_stats(matrix, policy, Arc::new(ServeStats::new()))
    }

    fn with_stats(
        matrix: Arc<ServedMatrix>,
        policy: BatchPolicy,
        stats: Arc<ServeStats>,
    ) -> Batcher {
        assert!(policy.max_batch > 0, "batch policy needs max_batch >= 1");
        Batcher {
            matrix,
            policy,
            queue: Arc::new(SharedQueue {
                state: Mutex::new(Queue {
                    pending: VecDeque::new(),
                    open: true,
                }),
                cv: Condvar::new(),
            }),
            stats,
            fail_injector: Arc::new(AtomicU64::new(0)),
            batch_done: Arc::new(|| {}),
            worker: None,
        }
    }

    /// Run `batch_done` once per batch, on the thread that served it, after
    /// the last reply of that batch was sent (results or typed failures
    /// alike): every ticket the batch resolves is ready by the time it runs,
    /// so a caller holding many tickets can block on what it signals instead
    /// of polling them. Keep it short — the next batch waits for it.
    ///
    /// # Panics
    ///
    /// If the service thread is already running: it would never see it.
    pub fn with_batch_done(mut self, batch_done: impl Fn() + Send + Sync + 'static) -> Batcher {
        assert!(
            self.worker.is_none(),
            "set the batch-done callback before start_service"
        );
        self.batch_done = Arc::new(batch_done);
        self
    }

    /// Attach the background service thread to a manually-constructed batcher
    /// (idempotent — a running service is left in place).
    pub fn start_service(&mut self) {
        if self.worker.is_some() {
            return;
        }
        let queue = Arc::clone(&self.queue);
        let matrix = Arc::clone(&self.matrix);
        let stats = Arc::clone(&self.stats);
        let injector = Arc::clone(&self.fail_injector);
        let batch_done = Arc::clone(&self.batch_done);
        let max_batch = self.policy.max_batch;
        self.worker = Some(
            std::thread::Builder::new()
                .name(format!("spmv-serve-{}", matrix.name()))
                .spawn(move || loop {
                    let Some(batch) = next_batch(&queue, max_batch) else {
                        return;
                    };
                    execute_batch(&matrix, batch, &stats, &injector, &*batch_done);
                })
                .expect("spawn batcher service thread"),
        );
    }

    /// The served matrix this batcher fronts.
    pub fn matrix(&self) -> &Arc<ServedMatrix> {
        &self.matrix
    }

    /// The batching policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// The serve statistics (shared with the service loop).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Requests currently waiting.
    pub fn pending(&self) -> usize {
        self.queue.lock().pending.len()
    }

    /// Make the next `n` batch executions panic inside the caught region —
    /// the fault-injection hook behind the failure-path tests. Not intended
    /// for production use.
    #[doc(hidden)]
    pub fn inject_batch_panics(&self, n: u64) {
        self.fail_injector.fetch_add(n, Ordering::Relaxed);
    }

    /// Enqueue one request, returning a [`Ticket`] for its result.
    ///
    /// Fails with [`ServeError::Closed`] once the batcher has been closed:
    /// the open flag is checked under the same lock the closer flips it, so a
    /// submit racing [`Batcher::close`] either lands before the flip (and is
    /// covered by the final flush) or errors — never strands.
    pub fn submit(&self, x: Vec<f64>) -> Result<Ticket> {
        self.submit_bounded(x, usize::MAX)
    }

    /// [`Batcher::submit`] with admission control: when `max_pending` requests
    /// are already waiting, the submit is refused with
    /// [`ServeError::Overloaded`] (and counted in [`ServeStats::sheds`])
    /// instead of growing the queue without bound. The check happens under the
    /// queue lock, so the bound is exact even under concurrent submitters —
    /// the load-shed primitive of the networked front-end.
    pub fn submit_bounded(&self, x: Vec<f64>, max_pending: usize) -> Result<Ticket> {
        let mut tickets = self.submit_block_bounded(vec![x], max_pending)?;
        Ok(tickets.pop().expect("one ticket per admitted column"))
    }

    /// Admit a block of columns **all or nothing**: under one queue lock
    /// either every column gets a slot (tickets come back in column order,
    /// queued contiguously) or none does — when fewer than `columns.len()` of
    /// the `max_pending` slots are free the whole block is refused with one
    /// [`ServeError::Overloaded`] and one counted shed, and the queue is left
    /// exactly as it was. A refused block therefore costs the engine nothing.
    pub fn submit_block_bounded(
        &self,
        columns: Vec<Vec<f64>>,
        max_pending: usize,
    ) -> Result<Vec<Ticket>> {
        if let Some(bad) = columns.iter().find(|x| x.len() != self.matrix.ncols()) {
            return Err(ServeError::DimensionMismatch {
                expected: self.matrix.ncols(),
                found: bad.len(),
            });
        }
        let now = Instant::now();
        let mut tickets = Vec::with_capacity(columns.len());
        {
            let mut state = self.queue.lock();
            if !state.open {
                return Err(ServeError::Closed);
            }
            let pending = state.pending.len();
            if pending.saturating_add(columns.len()) > max_pending {
                drop(state);
                self.stats.record_shed();
                return Err(ServeError::Overloaded { pending });
            }
            for x in columns {
                let (tx, rx) = mpsc::channel();
                state.pending.push_back(Request {
                    x,
                    reply: tx,
                    submitted: now,
                });
                tickets.push(Ticket { rx });
            }
            self.queue.cv.notify_all();
        }
        self.stats.record_submit(now);
        Ok(tickets)
    }

    /// Blocking convenience: submit and wait.
    pub fn apply(&self, x: Vec<f64>) -> Result<Vec<f64>> {
        self.submit(x)?.wait()
    }

    /// Close the queue: subsequent [`Batcher::submit`] calls error with
    /// [`ServeError::Closed`]; requests already queued are still served (the
    /// service loop's final flush, or the caller's remaining
    /// [`Batcher::run_once`] calls in manual mode). Idempotent.
    pub fn close(&self) {
        let mut state = self.queue.lock();
        state.open = false;
        self.queue.cv.notify_all();
    }

    /// Drain up to `max_batch` currently-waiting requests and serve them as one
    /// SpMM batch *on the calling thread*. Returns the batch width (0 when the
    /// queue was empty). This is the manual driving mode; with a background
    /// service thread it is still safe, but batch composition becomes racy.
    pub fn run_once(&self) -> usize {
        let batch = {
            let mut state = self.queue.lock();
            drain_batch(&mut state.pending, self.policy.max_batch)
        };
        execute_batch(
            &self.matrix,
            batch,
            &self.stats,
            &self.fail_injector,
            &*self.batch_done,
        )
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.close();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
        // Manual mode (or a service thread that died before its final flush):
        // explicitly fail anything still pending so no ticket ever hangs.
        let leftovers: Vec<Request> = self.queue.lock().pending.drain(..).collect();
        if leftovers.is_empty() {
            return;
        }
        for request in leftovers {
            let _ = request.reply.send(Err(ServeError::Closed));
        }
        (self.batch_done)();
    }
}

/// Take up to `max_batch` requests off the front of the queue.
fn drain_batch(pending: &mut VecDeque<Request>, max_batch: usize) -> Vec<Request> {
    let n = pending.len().min(max_batch);
    pending.drain(..n).collect()
}

/// Consume one injected fault, if any are pending.
fn take_injected_panic(injector: &AtomicU64) -> bool {
    injector
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
        .is_ok()
}

/// Serve one drained batch: assemble the column-major source block, run one
/// engine SpMM, reply per request, record stats, then run `batch_done`.
/// Returns the batch width.
///
/// A one-request batch — what an unloaded service cuts almost every time —
/// *moves* its vector into the block and its result out of it; wider batches
/// copy columns in and out. Either way the kernel sees the same block, so the
/// result is bit-identical.
///
/// A panic anywhere in the execution (kernel bug or injected fault) is caught
/// here: the batch's requests are failed with [`ServeError::BatchPanicked`],
/// the failure is counted, and the caller — service loop or manual driver —
/// continues serving.
fn execute_batch(
    matrix: &ServedMatrix,
    mut batch: Vec<Request>,
    stats: &ServeStats,
    injector: &AtomicU64,
    batch_done: &dyn Fn(),
) -> usize {
    let k = batch.len();
    if k == 0 {
        return 0;
    }
    let drained = Instant::now();
    for request in &batch {
        stats.record_queue_wait(drained.saturating_duration_since(request.submitted));
    }
    let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if take_injected_panic(injector) {
            panic!("injected batch execution failure");
        }
        let x = match &mut batch[..] {
            [only] => MultiVec::from_vec(std::mem::take(&mut only.x), matrix.ncols(), 1),
            many => {
                let columns: Vec<&[f64]> = many.iter().map(|r| r.x.as_slice()).collect();
                MultiVec::from_columns(&columns)
            }
        };
        let mut y = MultiVec::zeros(matrix.nrows(), k);
        let exec = matrix.spmm_into(&x, &mut y);
        (y, exec)
    }));
    match executed {
        Ok((y, exec)) => {
            stats.record_batch(k, (2 * matrix.nnz() * k) as f64, exec);
            let reply = |request: Request, y: Vec<f64>| {
                // Record before replying: the reply wakes the waiter, and a
                // caller snapshotting stats right after `wait` returns must
                // already see this request counted.
                stats.record_request(request.submitted.elapsed());
                // A client that gave up (dropped its ticket) just discards the send.
                let _ = request.reply.send(Ok(y));
            };
            if k == 1 {
                reply(batch.pop().expect("k == 1"), y.into_vec());
            } else {
                for (j, request) in batch.into_iter().enumerate() {
                    reply(request, y.col(j).to_vec());
                }
            }
        }
        Err(_) => {
            stats.record_batch_failure();
            for request in batch {
                let _ = request.reply.send(Err(ServeError::BatchPanicked));
            }
        }
    }
    batch_done();
    k
}

/// The service thread's wait: block until the queue is non-empty, then cut
/// whatever is there (up to `max_batch`) — the thread calling this is by
/// construction free, so there is nothing to wait for beyond the first
/// request. `None` once the queue is closed **and** empty: every request
/// enqueued before the close has been flushed, and `submit` checks the open
/// flag under the same lock, so nothing can be enqueued afterwards.
fn next_batch(queue: &SharedQueue, max_batch: usize) -> Option<Vec<Request>> {
    let mut state = queue.lock();
    while state.pending.is_empty() {
        if !state.open {
            return None;
        }
        state = queue.wait(state);
    }
    Some(drain_batch(&mut state.pending, max_batch))
}
