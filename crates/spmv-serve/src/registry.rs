//! The matrix registry: named matrices, their tune plans, and running engines.
//!
//! A serving deployment holds a small set of hot matrices, each tuned once
//! (possibly offline — plans round-trip through the plain-text profile format of
//! [`TunePlan::save`]/[`TunePlan::load`]) and then applied millions of times.
//! [`MatrixRegistry`] owns that mapping: inserting a matrix plans it (or adopts
//! a supplied/loaded plan), spins up the persistent [`SpmvEngine`], and hands
//! out [`ServedMatrix`] handles that batchers and direct callers share.
//!
//! Inserts plan with [`TunePlan::new`], the timed tuner. One cache makes that a
//! one-time cost: with [`MatrixRegistry::with_cache`], plans persist in a
//! [`TuneCache`] keyed by matrix fingerprint × platform × thread count, so
//! re-inserting a known matrix (same process or a later one) skips the planner
//! entirely and produces a ready [`ServedMatrix`] straight from the cached plan.
//!
//! Serving never blocks on the planner: [`ServedMatrix::retune`] (and the
//! registry's [`MatrixRegistry::retune_background`]) rerun it and the
//! first-touch engine build **off** the serving lock, then hot-swap the new
//! engine in with one O(1) [`SpmvEngine::swap_with`] under the lock. In-flight
//! requests finish on the old engine; the next request runs on the new one.

use crate::stats::ServeStats;
use crate::{Result, ServeError};
use spmv_core::formats::CsrMatrix;
use spmv_core::multivec::MultiVec;
use spmv_core::tuning::autotune::{MatrixFingerprint, TuneCache};
use spmv_core::tuning::plan::TunePlan;
use spmv_core::tuning::TuningConfig;
use spmv_core::MatrixShape;
use spmv_obs::{Counter, MetricsSnapshot, TraceKind};
use spmv_parallel::engine::{EngineFootprint, EngineProfile};
use spmv_parallel::SpmvEngine;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;

/// One registered matrix: its identity, its (hot-swappable) tune plan, and the
/// running persistent engine that serves it. The matrix itself is retained
/// (shared, not copied — insert via [`MatrixRegistry::insert_arc`] to avoid
/// even the one-time clone) so background retunes can rebuild the engine
/// without the caller keeping the CSR alive, and its structural fingerprint
/// is computed once at build time for every cache interaction after.
pub struct ServedMatrix {
    name: String,
    csr: Arc<CsrMatrix>,
    fingerprint: MatrixFingerprint,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    config: TuningConfig,
    /// The plan the serving engine was materialized from. Updated under the
    /// engine lock by [`ServedMatrix::swap_plan`], so plan and engine never
    /// disagree.
    plan: RwLock<TunePlan>,
    engine: Mutex<SpmvEngine>,
    retunes: AtomicU64,
    /// Serve-loop statistics, shared with every batcher over this matrix so
    /// the registry can scrape latency/occupancy without batcher handles.
    stats: Arc<ServeStats>,
    /// Solver sessions opened over this matrix.
    solver_sessions: Counter,
    /// Solver iterations (CG steps / power iterations) executed.
    solver_iterations: Counter,
    /// Solver resyncs after an engine hot-swap mid-session.
    solver_resyncs: Counter,
    /// LRU stamp: the registry clock value of the most recent access. Only
    /// meaningful for matrices currently resident in a registry's hot set.
    touch: AtomicU64,
}

impl ServedMatrix {
    fn build(
        name: &str,
        csr: Arc<CsrMatrix>,
        plan: TunePlan,
        config: TuningConfig,
        stats: Arc<ServeStats>,
    ) -> Result<ServedMatrix> {
        let engine = SpmvEngine::from_plan(&csr, &plan)?;
        Ok(ServedMatrix {
            name: name.to_string(),
            fingerprint: MatrixFingerprint::compute(&csr),
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            csr,
            config,
            plan: RwLock::new(plan),
            engine: Mutex::new(engine),
            retunes: AtomicU64::new(0),
            stats,
            solver_sessions: Counter::new(),
            solver_iterations: Counter::new(),
            solver_resyncs: Counter::new(),
            touch: AtomicU64::new(0),
        })
    }

    /// Lock the serving engine, recovering from poisoning: a panic inside a
    /// kernel call happens before or after an epoch (the engine launches and
    /// joins workers per call), so the resident state a later caller sees is
    /// consistent — and a serving fleet must not let one panicked request
    /// wedge every future `spmv_now` on the matrix.
    fn engine(&self) -> MutexGuard<'_, SpmvEngine> {
        self.engine.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn plan_read(&self) -> RwLockReadGuard<'_, TunePlan> {
        self.plan.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The matrix's structural fingerprint (computed once at registration).
    pub fn fingerprint(&self) -> MatrixFingerprint {
        self.fingerprint
    }

    /// Persist the currently-serving plan into `cache`, keyed by this
    /// matrix's fingerprint, the plan's own thread count, and the tuning
    /// config it was planned under — the single store path the registry's
    /// retune entry points share.
    fn store_plan_in(&self, cache: &TuneCache) -> Result<()> {
        let plan = self.plan();
        cache
            .store(&self.fingerprint, plan.num_threads(), &self.config, &plan)
            .map_err(ServeError::Build)
    }

    /// Registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rows of the served matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the served matrix (the request vector length).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Logical nonzeros (2 flops each per request).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The tune plan currently serving (a snapshot — a concurrent retune may
    /// swap in a new one right after this returns).
    pub fn plan(&self) -> TunePlan {
        self.plan_read().clone()
    }

    /// Whether the matrix is currently served from symmetric (lower-triangle)
    /// storage — chosen automatically when the tuning config exploits symmetry
    /// and the inserted matrix is detected symmetric.
    pub fn is_symmetric(&self) -> bool {
        self.plan_read().symmetric
    }

    /// Whether any worker of the serving plan runs the vectorized (SIMD)
    /// kernels. Plans loaded from a tune cache can only say yes on hosts
    /// whose detected feature set matches the cache's platform key, so this
    /// is also an operational probe for "did the SIMD plan survive the trip".
    pub fn uses_simd(&self) -> bool {
        self.plan_read().threads.iter().any(|t| t.simd)
    }

    /// How many engine hot-swaps this matrix has completed.
    pub fn retune_count(&self) -> u64 {
        self.retunes.load(Ordering::Relaxed)
    }

    /// The serve statistics shared by every batcher over this matrix.
    /// Batchers record into this instance, so a registry-level metrics scrape
    /// sees latency/queue-wait/occupancy without holding batcher handles.
    pub fn serve_stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// Solver sessions opened over this matrix.
    pub fn solver_sessions(&self) -> u64 {
        self.solver_sessions.get()
    }

    /// Solver iterations executed across all sessions over this matrix.
    pub fn solver_iterations(&self) -> u64 {
        self.solver_iterations.get()
    }

    /// Solver resyncs (sessions rebuilt after an engine hot-swap).
    pub fn solver_resyncs(&self) -> u64 {
        self.solver_resyncs.get()
    }

    /// Count one opened solver session.
    pub(crate) fn note_solver_session(&self) {
        self.solver_sessions.inc();
    }

    /// Count `n` solver iterations.
    pub(crate) fn note_solver_iterations(&self, n: u64) {
        self.solver_iterations.add(n);
    }

    /// Count one solver resync.
    pub(crate) fn note_solver_resync(&self) {
        self.solver_resyncs.inc();
    }

    /// The serving engine's telemetry profile: epochs by kind, per-worker
    /// kernel/barrier time and nnz, and the epoch wall-time distribution.
    pub fn engine_profile(&self) -> EngineProfile {
        self.engine().profile()
    }

    /// The shared matrix storage (for building session-private engines).
    pub(crate) fn csr_arc(&self) -> &Arc<CsrMatrix> {
        &self.csr
    }

    /// The engine's footprint report (total and per-worker bytes).
    pub fn footprint(&self) -> EngineFootprint {
        self.engine().footprint()
    }

    /// Apply the matrix to one vector immediately, bypassing any batching.
    pub fn spmv_now(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(ServeError::DimensionMismatch {
                expected: self.ncols,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.nrows];
        self.engine().spmv(x, &mut y);
        Ok(y)
    }

    /// Apply the matrix to a column-major block of vectors immediately.
    pub fn spmm_now(&self, x: &MultiVec) -> Result<MultiVec> {
        if x.ld() != self.ncols {
            return Err(ServeError::DimensionMismatch {
                expected: self.ncols,
                found: x.ld(),
            });
        }
        let mut y = MultiVec::zeros(self.nrows, x.k());
        self.engine().spmm(x, &mut y);
        Ok(y)
    }

    /// Apply a prebuilt block into a caller-owned destination (the batcher's
    /// zero-copy path), timing only the engine execution.
    pub(crate) fn spmm_into(&self, x: &MultiVec, y: &mut MultiVec) -> std::time::Duration {
        let mut engine = self.engine();
        let t0 = std::time::Instant::now();
        engine.spmm(x, y);
        t0.elapsed()
    }

    /// Hot-swap the serving engine to `plan`. The replacement engine is built
    /// **before** the serving lock is taken (planning and first-touch
    /// materialization are the expensive parts), the swap itself is one O(1)
    /// pointer exchange under the lock, and the old engine's workers are
    /// joined only after the lock is released — so concurrent `spmv_now` /
    /// `spmm_now` callers observe either the old engine or the new one,
    /// never a stall and never a torn state.
    pub fn swap_plan(&self, plan: TunePlan) -> Result<()> {
        let replacement = SpmvEngine::from_plan(&self.csr, &plan)?;
        let old = {
            let mut engine = self.engine();
            let old = engine.swap_with(replacement);
            // Plan updated under the engine lock: a reader holding a fresh
            // plan() snapshot is looking at the engine that serves it.
            *self.plan.write().unwrap_or_else(|e| e.into_inner()) = plan;
            old
        };
        drop(old);
        let swaps = self.retunes.fetch_add(1, Ordering::Relaxed) + 1;
        spmv_obs::trace::trace(TraceKind::Retune, self.fingerprint.hash, swaps);
        Ok(())
    }

    /// Rerun [`TunePlan::new`] at the serving plan's thread count (off the
    /// serving lock) and hot-swap its plan in if it differs from the current
    /// one. Returns whether a swap happened. Serving continues uninterrupted
    /// throughout.
    pub fn retune(&self) -> Result<bool> {
        let nthreads = self.plan_read().num_threads();
        let plan = TunePlan::new(&self.csr, nthreads, &self.config);
        if plan == *self.plan_read() {
            return Ok(false);
        }
        self.swap_plan(plan)?;
        Ok(true)
    }
}

impl std::fmt::Debug for ServedMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedMatrix")
            .field("name", &self.name)
            .field("nrows", &self.nrows)
            .field("ncols", &self.ncols)
            .field("nnz", &self.nnz)
            .field("retunes", &self.retune_count())
            .finish()
    }
}

/// One registry entry: resident (engine running, workers live) or demoted to
/// the cold tier (engine torn down; see [`ColdEntry`] for what survives).
enum Slot {
    Hot(Arc<ServedMatrix>),
    Cold(ColdEntry),
}

/// What an eviction retains: enough to rematerialize the served handle with
/// no tuning search (the matrix and the plan it was serving), plus the serve
/// statistics and lifetime counters so every exported counter family stays
/// monotonic across demote/rematerialize cycles — a Prometheus counter that
/// jumps backwards reads as a process restart.
struct ColdEntry {
    csr: Arc<CsrMatrix>,
    plan: TunePlan,
    stats: Arc<ServeStats>,
    retunes: u64,
    solver_sessions: u64,
    solver_iterations: u64,
    solver_resyncs: u64,
}

/// Named matrices → tuned, running engines, with an optional LRU hot set.
///
/// By default every registered matrix keeps its engine resident. A serving
/// fleet whose catalogue exceeds memory caps residency instead:
/// [`MatrixRegistry::with_hot_capacity`] bounds the number of **hot** (engine
/// running) matrices; registering or touching a matrix beyond the cap demotes
/// the least-recently-used hot entry to a cold tier that retains the matrix,
/// its tune plan, and its statistics but tears the engine (and its worker
/// threads) down. A [`MatrixRegistry::get`] on a cold entry rematerializes
/// the engine from the retained plan — no tuning search — and re-enters it in
/// the hot set, demoting someone else if needed. Outstanding
/// `Arc<ServedMatrix>` handles (a batcher mid-flight on an evicted matrix)
/// keep their engine alive until dropped, so eviction never interrupts
/// in-flight work; the handle a later `get` returns is simply a fresh one.
pub struct MatrixRegistry {
    matrices: RwLock<HashMap<String, Slot>>,
    nthreads: usize,
    config: TuningConfig,
    cache: Option<Arc<TuneCache>>,
    /// Max hot (engine-resident) matrices; `None` = unbounded (every entry hot).
    hot_capacity: Option<usize>,
    /// LRU clock: bumped on every insert/touch; hot entries carry the stamp
    /// of their most recent access in [`ServedMatrix::touch`].
    clock: AtomicU64,
    evictions: Counter,
    cold_rebuilds: Counter,
}

impl MatrixRegistry {
    /// A registry whose engines run `nthreads` workers, tuned with `config`
    /// by [`TunePlan::new`]. No cache; see [`MatrixRegistry::with_cache`].
    pub fn new(nthreads: usize, config: TuningConfig) -> MatrixRegistry {
        assert!(nthreads > 0, "registry engines need at least one worker");
        MatrixRegistry {
            matrices: RwLock::new(HashMap::new()),
            nthreads,
            config,
            cache: None,
            hot_capacity: None,
            clock: AtomicU64::new(0),
            evictions: Counter::new(),
            cold_rebuilds: Counter::new(),
        }
    }

    /// Cap the hot set at `capacity` engine-resident matrices. Registering or
    /// touching a matrix beyond the cap demotes the least-recently-used hot
    /// entry (engine torn down, matrix + plan + stats retained); a later
    /// [`MatrixRegistry::get`] rematerializes it from the retained plan.
    pub fn with_hot_capacity(mut self, capacity: usize) -> MatrixRegistry {
        assert!(capacity > 0, "hot set needs room for at least one matrix");
        self.hot_capacity = Some(capacity);
        self
    }

    /// Persist (and reuse) plans through `cache`: an insert whose matrix
    /// fingerprint is already cached skips the planner entirely and serves
    /// from the cached plan; misses plan and store the result. Share one
    /// [`TuneCache`] across registries (and processes pointing at the same
    /// directory) to amortize tuning globally.
    pub fn with_cache(mut self, cache: Arc<TuneCache>) -> MatrixRegistry {
        self.cache = Some(cache);
        self
    }

    /// The tune cache, when one is attached.
    pub fn cache(&self) -> Option<&Arc<TuneCache>> {
        self.cache.as_ref()
    }

    /// Produce the plan an insert of `csr` should serve: cache hit → cached
    /// plan; miss or no cache → [`TunePlan::new`] (stored when a cache is
    /// attached).
    fn plan_for(&self, csr: &CsrMatrix) -> Result<TunePlan> {
        match &self.cache {
            Some(cache) => cache
                .plan(csr, self.nthreads, &self.config)
                .map_err(ServeError::Build),
            None => Ok(TunePlan::new(csr, self.nthreads, &self.config)),
        }
    }

    /// Tune `csr` with the registry's configuration (planned, or served from
    /// the cache when one is attached) and register it under
    /// `name`, returning the served handle. Clones the matrix once so the
    /// served handle can retune without the caller keeping it alive; pass an
    /// [`MatrixRegistry::insert_arc`] when the caller already holds an `Arc`
    /// and the copy matters (large matrices).
    pub fn insert(&self, name: &str, csr: &CsrMatrix) -> Result<Arc<ServedMatrix>> {
        self.insert_arc(name, Arc::new(csr.clone()))
    }

    /// [`MatrixRegistry::insert`] without the clone: the served handle shares
    /// the caller's `Arc<CsrMatrix>`.
    pub fn insert_arc(&self, name: &str, csr: Arc<CsrMatrix>) -> Result<Arc<ServedMatrix>> {
        let plan = self.plan_for(&csr)?;
        self.insert_arc_with_plan(name, csr, plan)
    }

    /// Register `csr` under `name` with an already-built [`TunePlan`] (e.g. one
    /// produced by an offline tuning pass). The plan is validated against the
    /// matrix by engine construction.
    pub fn insert_with_plan(
        &self,
        name: &str,
        csr: &CsrMatrix,
        plan: TunePlan,
    ) -> Result<Arc<ServedMatrix>> {
        self.insert_arc_with_plan(name, Arc::new(csr.clone()), plan)
    }

    /// [`MatrixRegistry::insert_with_plan`] without the clone.
    pub fn insert_arc_with_plan(
        &self,
        name: &str,
        csr: Arc<CsrMatrix>,
        plan: TunePlan,
    ) -> Result<Arc<ServedMatrix>> {
        // Cheap duplicate check first: building the engine materializes the
        // whole matrix and spawns workers, which a taken name must not cost.
        if self.read_map().contains_key(name) {
            return Err(ServeError::AlreadyRegistered(name.to_string()));
        }
        let served = Arc::new(ServedMatrix::build(
            name,
            csr,
            plan,
            self.config,
            Arc::new(ServeStats::new()),
        )?);
        served.touch.store(self.next_stamp(), Ordering::Relaxed);
        let mut map = self.write_map();
        // Re-check under the write lock: a racing insert may have won the name
        // while this one was building.
        if map.contains_key(name) {
            return Err(ServeError::AlreadyRegistered(name.to_string()));
        }
        map.insert(name.to_string(), Slot::Hot(Arc::clone(&served)));
        self.enforce_capacity(&mut map);
        Ok(served)
    }

    /// Register `csr` under `name` with a plan loaded from a plain-text profile
    /// (the `spmv-tune-plan v2` format). A profile whose share cells do not
    /// cover the matrix exactly once is refused ([`TunePlan::validate_for`]).
    pub fn insert_from_profile(
        &self,
        name: &str,
        csr: &CsrMatrix,
        path: impl AsRef<Path>,
    ) -> Result<Arc<ServedMatrix>> {
        let plan = TunePlan::load(path).map_err(|e| ServeError::Profile(e.to_string()))?;
        self.insert_with_plan(name, csr, plan)
    }

    /// Save the registered matrix's current tune plan as a plain-text profile,
    /// so a later process can skip the tuning pass.
    pub fn save_profile(&self, name: &str, path: impl AsRef<Path>) -> Result<()> {
        let served = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownMatrix(name.to_string()))?;
        served
            .plan()
            .save(path)
            .map_err(|e| ServeError::Profile(e.to_string()))
    }

    /// Synchronously retune `name` and hot-swap the new plan in if it differs
    /// from the serving one (see [`ServedMatrix::retune`]; serving never
    /// blocks on the planner). The serving plan is persisted when a cache is
    /// attached — keyed by the served plan's own thread count, which can
    /// legitimately differ from the registry's (plans adopted via
    /// `insert_with_plan` or swapped in directly). Returns whether a swap
    /// happened.
    pub fn retune(&self, name: &str) -> Result<bool> {
        let served = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownMatrix(name.to_string()))?;
        let swapped = served.retune()?;
        if let Some(cache) = &self.cache {
            served.store_plan_in(cache)?;
        }
        Ok(swapped)
    }

    /// [`MatrixRegistry::retune`] on a background thread: returns immediately
    /// with a handle; serving continues on the current engine until the
    /// planner finishes and the new engine hot-swaps in.
    pub fn retune_background(&self, name: &str) -> Result<JoinHandle<Result<bool>>> {
        let served = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownMatrix(name.to_string()))?;
        let cache = self.cache.clone();
        let handle = std::thread::Builder::new()
            .name(format!("spmv-retune-{name}"))
            .spawn(move || {
                let swapped = served.retune()?;
                if let Some(cache) = cache {
                    served.store_plan_in(&cache)?;
                }
                Ok(swapped)
            })
            .expect("spawn retune thread");
        Ok(handle)
    }

    /// Lock the registry map for reading, recovering from poisoning: the map
    /// is consistent at every panic point (slot replacement is a single
    /// `insert`), and a serving fleet must keep resolving names after one
    /// panicked peer.
    fn read_map(&self) -> RwLockReadGuard<'_, HashMap<String, Slot>> {
        self.matrices.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_map(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Slot>> {
        self.matrices.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The next LRU clock value (monotonic, never 0 after first use).
    fn next_stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Look up a served matrix by name, rematerializing it from the cold tier
    /// if a bounded hot set evicted it (see [`MatrixRegistry::with_hot_capacity`]).
    /// Every hit — hot or rebuilt — counts as an LRU touch.
    pub fn get(&self, name: &str) -> Option<Arc<ServedMatrix>> {
        {
            let map = self.read_map();
            match map.get(name) {
                Some(Slot::Hot(served)) => {
                    served.touch.store(self.next_stamp(), Ordering::Relaxed);
                    return Some(Arc::clone(served));
                }
                Some(Slot::Cold(_)) => {}
                None => return None,
            }
        }
        self.rematerialize(name)
    }

    /// Rebuild a cold entry's engine from its retained plan (no tuning
    /// search) and promote it back into the hot set. The engine build — the
    /// expensive part — runs off the registry lock; concurrent `get`s on the
    /// same cold name may race the build, and the first to take the write
    /// lock wins (the losers adopt the winner's handle, their spare engine
    /// drops).
    fn rematerialize(&self, name: &str) -> Option<Arc<ServedMatrix>> {
        let cold = {
            let map = self.read_map();
            match map.get(name) {
                Some(Slot::Cold(c)) => ColdEntry {
                    csr: Arc::clone(&c.csr),
                    plan: c.plan.clone(),
                    stats: Arc::clone(&c.stats),
                    retunes: c.retunes,
                    solver_sessions: c.solver_sessions,
                    solver_iterations: c.solver_iterations,
                    solver_resyncs: c.solver_resyncs,
                },
                // Raced: someone else already rebuilt (or the name vanished).
                Some(Slot::Hot(served)) => {
                    served.touch.store(self.next_stamp(), Ordering::Relaxed);
                    return Some(Arc::clone(served));
                }
                None => return None,
            }
        };
        // The retained plan validated against this matrix when it first
        // served, so the rebuild is infallible in practice; a genuine failure
        // (resource exhaustion) reads as "not found" rather than a panic.
        let served = ServedMatrix::build(name, cold.csr, cold.plan, self.config, cold.stats)
            .ok()
            .map(Arc::new)?;
        served.retunes.store(cold.retunes, Ordering::Relaxed);
        served.solver_sessions.add(cold.solver_sessions);
        served.solver_iterations.add(cold.solver_iterations);
        served.solver_resyncs.add(cold.solver_resyncs);
        served.touch.store(self.next_stamp(), Ordering::Relaxed);
        let mut map = self.write_map();
        match map.get(name) {
            Some(Slot::Cold(_)) => {}
            Some(Slot::Hot(winner)) => {
                winner.touch.store(self.next_stamp(), Ordering::Relaxed);
                return Some(Arc::clone(winner));
            }
            None => return None,
        }
        map.insert(name.to_string(), Slot::Hot(Arc::clone(&served)));
        self.cold_rebuilds.inc();
        spmv_obs::trace::trace(
            TraceKind::ColdRebuild,
            served.fingerprint.hash,
            self.cold_rebuilds.get(),
        );
        self.enforce_capacity(&mut map);
        Some(served)
    }

    /// Demote least-recently-used hot entries until the hot set fits the cap.
    /// Called with the write lock held, right after a promotion/insert.
    fn enforce_capacity(&self, map: &mut HashMap<String, Slot>) {
        let Some(capacity) = self.hot_capacity else {
            return;
        };
        loop {
            let mut hot = 0usize;
            let mut victim: Option<(String, u64)> = None;
            for (name, slot) in map.iter() {
                if let Slot::Hot(served) = slot {
                    hot += 1;
                    let stamp = served.touch.load(Ordering::Relaxed);
                    if victim.as_ref().is_none_or(|(_, s)| stamp < *s) {
                        victim = Some((name.clone(), stamp));
                    }
                }
            }
            if hot <= capacity {
                return;
            }
            let (name, _) = victim.expect("hot > capacity >= 1 implies a victim");
            self.demote(map, &name);
        }
    }

    /// Demote one hot entry to the cold tier: snapshot what must survive
    /// (matrix, serving plan, stats, lifetime counters), then replace the
    /// slot. Dropping the map's `Arc` tears the engine down unless an
    /// outstanding handle (a batcher mid-flight) still holds it — in-flight
    /// work always completes on the engine it started on.
    fn demote(&self, map: &mut HashMap<String, Slot>, name: &str) {
        let Some(Slot::Hot(served)) = map.get(name) else {
            return;
        };
        let cold = ColdEntry {
            csr: Arc::clone(&served.csr),
            plan: served.plan(),
            stats: Arc::clone(&served.stats),
            retunes: served.retune_count(),
            solver_sessions: served.solver_sessions(),
            solver_iterations: served.solver_iterations(),
            solver_resyncs: served.solver_resyncs(),
        };
        let fingerprint = served.fingerprint.hash;
        map.insert(name.to_string(), Slot::Cold(cold));
        self.evictions.inc();
        spmv_obs::trace::trace(TraceKind::Evict, fingerprint, self.evictions.get());
    }

    /// Registered names (hot and cold), sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read_map().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered matrices, hot and cold.
    pub fn len(&self) -> usize {
        self.read_map().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.read_map().is_empty()
    }

    /// Matrices currently hot (engine resident). Equals [`MatrixRegistry::len`]
    /// unless a hot-capacity cap demoted someone.
    pub fn hot_len(&self) -> usize {
        self.read_map()
            .values()
            .filter(|slot| matches!(slot, Slot::Hot(_)))
            .count()
    }

    /// Whether `name` is currently hot (false when cold or absent).
    pub fn is_hot(&self, name: &str) -> bool {
        matches!(self.read_map().get(name), Some(Slot::Hot(_)))
    }

    /// Hot-set evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Cold entries rematerialized (engine rebuilt from the retained plan).
    pub fn cold_rebuilds(&self) -> u64 {
        self.cold_rebuilds.get()
    }

    /// Remove a matrix. Existing `Arc<ServedMatrix>` handles (and batchers
    /// holding them) stay valid; the name becomes free for re-registration.
    /// Returns the served handle when the entry was hot; removing a cold
    /// entry frees the name but has no engine to return.
    pub fn remove(&self, name: &str) -> Option<Arc<ServedMatrix>> {
        match self.write_map().remove(name) {
            Some(Slot::Hot(served)) => Some(served),
            Some(Slot::Cold(_)) | None => None,
        }
    }

    /// Hot served handles sorted by name — a stable iteration order for
    /// scrapes, snapshotted so the registry lock is not held while engines
    /// are probed. Cold entries have no engine; their serve statistics are
    /// folded into [`MatrixRegistry::metrics_snapshot`] separately.
    fn served_sorted(&self) -> Vec<Arc<ServedMatrix>> {
        let mut served: Vec<Arc<ServedMatrix>> = self
            .read_map()
            .values()
            .filter_map(|slot| match slot {
                Slot::Hot(served) => Some(Arc::clone(served)),
                Slot::Cold(_) => None,
            })
            .collect();
        served.sort_by(|a, b| a.name().cmp(b.name()));
        served
    }

    /// Aggregate resident bytes across every served engine: the fleet-wide
    /// sum of per-matrix [`EngineFootprint::total_bytes`]. Each engine is
    /// probed outside the registry lock, so a scrape never blocks inserts.
    pub fn fleet_resident_bytes(&self) -> usize {
        self.served_sorted()
            .iter()
            .map(|m| m.footprint().total_bytes)
            .sum()
    }

    /// One point-in-time [`MetricsSnapshot`] covering every layer the registry
    /// can see: per-matrix engine telemetry (epochs, kernel/barrier time,
    /// imbalance, resident bytes, retunes), serve-loop statistics (requests,
    /// batches, latency / queue-wait / occupancy distributions), solver
    /// counters, and — registry-wide — tune-cache hit/miss/search counters
    /// plus the fleet resident-byte aggregate.
    ///
    /// Metric names carry the matrix as a Prometheus-style label
    /// (`spmv_engine_epochs_total{matrix="name"}`); both exporters
    /// ([`MetricsSnapshot::to_prometheus`] / [`MetricsSnapshot::to_json`])
    /// preserve it.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let mut fleet_bytes = 0u64;

        // Serve-loop stats per matrix, hot or cold: a cold entry's engine is
        // gone but its counters live on (the stats Arc rides the ColdEntry),
        // so requests/sheds stay monotonic across demote/rematerialize.
        enum Scrape {
            Hot(Arc<ServedMatrix>),
            Cold {
                stats: Arc<ServeStats>,
                retunes: u64,
                solver_sessions: u64,
                solver_iterations: u64,
                solver_resyncs: u64,
            },
        }
        let mut entries: Vec<(String, Scrape)> = {
            let map = self.read_map();
            map.iter()
                .map(|(name, slot)| {
                    let scrape = match slot {
                        Slot::Hot(served) => Scrape::Hot(Arc::clone(served)),
                        Slot::Cold(c) => Scrape::Cold {
                            stats: Arc::clone(&c.stats),
                            retunes: c.retunes,
                            solver_sessions: c.solver_sessions,
                            solver_iterations: c.solver_iterations,
                            solver_resyncs: c.solver_resyncs,
                        },
                    };
                    (name.clone(), scrape)
                })
                .collect()
        };
        entries.sort_by(|a, b| a.0.cmp(&b.0));

        let mut hot = 0u64;
        for (name, entry) in &entries {
            let tag = |metric: &str| format!("{metric}{{matrix=\"{name}\"}}");
            let (stats, retunes, sessions, iterations, resyncs) = match entry {
                Scrape::Hot(m) => {
                    hot += 1;
                    // Engines are probed outside the registry lock (the map
                    // guard dropped when `entries` was built), so a scrape
                    // never blocks inserts.
                    let profile = m.engine_profile();
                    let footprint = m.footprint();
                    fleet_bytes += footprint.total_bytes as u64;

                    snap.counter(tag("spmv_engine_epochs_total"), profile.epochs);
                    snap.counter(tag("spmv_engine_spmv_epochs_total"), profile.spmv_epochs);
                    snap.counter(tag("spmv_engine_spmm_epochs_total"), profile.spmm_epochs);
                    snap.counter(
                        tag("spmv_engine_solver_epochs_total"),
                        profile.solver_epochs,
                    );
                    snap.counter(tag("spmv_engine_kernel_ns_total"), profile.kernel_ns());
                    snap.counter(tag("spmv_engine_barrier_ns_total"), profile.barrier_ns());
                    snap.counter(tag("spmv_engine_parks_total"), profile.parks);
                    snap.counter(
                        tag("spmv_engine_stolen_blocks_total"),
                        profile.stolen_blocks,
                    );
                    snap.gauge(tag("spmv_engine_time_imbalance"), profile.time_imbalance());
                    snap.gauge(tag("spmv_engine_nnz_imbalance"), profile.nnz_imbalance());
                    snap.gauge(tag("spmv_engine_workers"), profile.workers.len() as f64);
                    snap.gauge(
                        tag("spmv_engine_resident_bytes"),
                        footprint.total_bytes as f64,
                    );
                    snap.histogram(tag("spmv_engine_epoch_ns"), profile.epoch_ns);
                    snap.gauge(tag("spmv_registry_hot"), 1.0);
                    (
                        Arc::clone(m.serve_stats()),
                        m.retune_count(),
                        m.solver_sessions(),
                        m.solver_iterations(),
                        m.solver_resyncs(),
                    )
                }
                Scrape::Cold {
                    stats,
                    retunes,
                    solver_sessions,
                    solver_iterations,
                    solver_resyncs,
                } => {
                    snap.gauge(tag("spmv_registry_hot"), 0.0);
                    (
                        Arc::clone(stats),
                        *retunes,
                        *solver_sessions,
                        *solver_iterations,
                        *solver_resyncs,
                    )
                }
            };
            snap.counter(tag("spmv_retunes_total"), retunes);
            snap.counter(tag("spmv_serve_requests_total"), stats.requests());
            snap.counter(tag("spmv_serve_batches_total"), stats.batches());
            snap.counter(tag("spmv_serve_sheds_total"), stats.sheds());
            snap.counter(
                tag("spmv_serve_failed_batches_total"),
                stats.failed_batches(),
            );
            snap.histogram(tag("spmv_serve_latency_ns"), stats.latency_histogram());
            snap.histogram(
                tag("spmv_serve_queue_wait_ns"),
                stats.queue_wait_histogram(),
            );
            snap.histogram(
                tag("spmv_serve_batch_occupancy"),
                stats.occupancy_histogram(),
            );

            snap.counter(tag("spmv_solver_sessions_total"), sessions);
            snap.counter(tag("spmv_solver_iterations_total"), iterations);
            snap.counter(tag("spmv_solver_resyncs_total"), resyncs);
        }
        if let Some(cache) = &self.cache {
            snap.counter("spmv_tune_cache_hits_total", cache.hit_count());
            snap.counter("spmv_tune_cache_misses_total", cache.miss_count());
            snap.counter("spmv_tune_cache_searches_total", cache.search_count());
            snap.counter("spmv_tune_search_ns_total", cache.search_nanos());
        }
        snap.counter("spmv_registry_evictions_total", self.evictions());
        snap.counter("spmv_registry_cold_rebuilds_total", self.cold_rebuilds());
        snap.gauge("spmv_registry_hot_matrices", hot as f64);
        snap.gauge(
            "spmv_registry_cold_matrices",
            (entries.len() as u64 - hot) as f64,
        );
        snap.gauge("spmv_fleet_matrices", entries.len() as f64);
        snap.gauge("spmv_fleet_resident_bytes", fleet_bytes as f64);
        snap
    }

    /// The metrics snapshot rendered as Prometheus-style exposition text —
    /// the scrape endpoint body for this registry.
    pub fn metrics(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }
}

impl std::fmt::Debug for MatrixRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixRegistry")
            .field("names", &self.names())
            .field("nthreads", &self.nthreads)
            .field("cached", &self.cache.is_some())
            .finish()
    }
}
