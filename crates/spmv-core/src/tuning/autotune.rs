//! Measured whole-plan autotuning with a persistent tune cache.
//!
//! The paper's one-pass footprint heuristic picks the smallest structure, and
//! [`TunePlan::new`] times only the handful of grids that heuristic proposes
//! per thread share. OSKI's position — and the ablation the paper reports
//! against it — is that a *measured* search over the full optimization ladder
//! is what closes the last gap to machine peak. This module implements that
//! search at the granularity the two-phase pipeline already speaks: complete
//! candidate [`TunePlan`]s (format kind including the symmetric slabs,
//! register block shape, index width, SIMD knob) are materialized and timed
//! with the same helper the per-share ladder uses ([`time_spmv`]), and the
//! fastest whole plan wins. The default plan is always a candidate, so the
//! search can never pick something it measured as slower than it.
//!
//! Because a measured search costs real time, winners persist: a [`TuneCache`]
//! stores the winning plan's plain-text profile (the `spmv-tune-plan v1`
//! format of [`TunePlan::to_text`]) keyed by [`MatrixFingerprint`] × platform
//! × thread count, so a matrix seen twice never pays for the search twice.
//! Cache entries carry a checksum over the profile text; a tampered or
//! truncated entry is rejected and treated as a miss.

use crate::blocking::register::{estimate_fill, register_block_candidates};
use crate::error::{Error, Result};
use crate::formats::coo::CooMatrix;
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexWidth;
use crate::formats::traits::{MatrixShape, SpMv};
use crate::partition::row::partition_rows_balanced;
use crate::tuning::footprint::{gcsr_bytes, sym_csr_bytes, FormatChoice, FormatKind};
use crate::tuning::heuristic::{BlockDecision, TuningConfig};
use crate::tuning::plan::{ThreadPlan, TunePlan};
use crate::tuning::prepared::PreparedMatrix;
use crate::tuning::search::time_spmv;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// How much of the candidate space a measured search may spend time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchBudget {
    /// No whole-plan search: the default plan of [`TunePlan::new`] (the one-pass
    /// footprint heuristic and its per-share ladder, so a share past the cache
    /// is timed) — the cheapest insert path. Not [`TunePlan::heuristic`], which
    /// is that planner without the clock.
    Heuristic,
    /// Time the default plan against single-knob toggles of the config
    /// (symmetry, index width, SIMD) — a handful of complete plans. The
    /// blocking and format rungs are the default plan's own ladder.
    Pruned,
    /// [`SearchBudget::Pruned`] plus every forced whole-plan shape: each
    /// register block shape as BCSR/BCOO, plain CSR and GCSR at both index
    /// widths, and the symmetric slab encodings when the matrix is symmetric
    /// (the OSKI-style exhaustive sweep).
    Exhaustive,
}

/// Default per-candidate timing budget in milliseconds (each candidate is
/// timed as the fastest of [`TIMING_RUNS`] batched runs inside this budget).
pub const DEFAULT_EVAL_MS: u64 = 2;

/// Timed runs per candidate; the fastest is kept, so one scheduler hiccup
/// cannot crown the wrong plan.
pub const TIMING_RUNS: usize = 3;

/// One timed candidate of a search, for reporting/ablation output.
#[derive(Debug, Clone)]
pub struct CandidateTiming {
    /// Candidate label (`heuristic`, `naive`, `bcsr4x4`, `symcsr-u16`, ...).
    pub label: String,
    /// Median seconds per single whole-plan SpMV.
    pub secs_per_spmv: f64,
    /// The candidate plan's predicted storage bytes.
    pub planned_bytes: usize,
}

/// The outcome of a (possibly cached) whole-plan search.
#[derive(Debug, Clone)]
pub struct Autotuned {
    /// The winning plan.
    pub plan: TunePlan,
    /// Label of the winning candidate (`"cache"` for a cache hit).
    pub label: String,
    /// Whether the plan came from a [`TuneCache`] hit (no search ran).
    pub from_cache: bool,
    /// Every timed candidate, in generation order (empty for
    /// [`SearchBudget::Heuristic`] and for cache hits).
    pub candidates: Vec<CandidateTiming>,
}

// ---------------------------------------------------------------------------
// Candidate generation
// ---------------------------------------------------------------------------

/// The non-symmetric format a forced whole-plan candidate binds everywhere.
#[derive(Debug, Clone, Copy)]
enum ForcedKind {
    Csr(IndexWidth),
    Gcsr(IndexWidth),
    Bcsr(usize, usize),
    Bcoo(usize, usize),
}

/// The forced choice for one thread's whole row slice, or `None` when the
/// combination is inadmissible (e.g. 16-bit indices on a too-wide block).
fn forced_choice(local: &CsrMatrix, kind: ForcedKind) -> Option<FormatChoice> {
    let fits16 = |span: usize| IndexWidth::U16.fits(span);
    Some(match kind {
        ForcedKind::Csr(width) => {
            if width == IndexWidth::U16 && !fits16(local.ncols()) {
                return None;
            }
            FormatChoice::csr(local, width)
        }
        ForcedKind::Gcsr(width) => {
            if width == IndexWidth::U16 && !(fits16(local.nrows()) && fits16(local.ncols())) {
                return None;
            }
            FormatChoice {
                kind: FormatKind::Gcsr,
                r: 1,
                c: 1,
                width,
                bytes: gcsr_bytes(local, width),
                fill_ratio: 1.0,
            }
        }
        ForcedKind::Bcsr(r, c) | ForcedKind::Bcoo(r, c) => {
            let est = estimate_fill(local, r, c);
            let nbr = local.nrows().div_ceil(r);
            let nbc = local.ncols().div_ceil(c);
            let width = if fits16(nbr) && fits16(nbc) {
                IndexWidth::U16
            } else {
                IndexWidth::U32
            };
            let (fkind, bytes) = match kind {
                ForcedKind::Bcsr(..) => (FormatKind::Bcsr, est.bcsr_bytes(local.nrows(), width)),
                ForcedKind::Bcoo(..) => (FormatKind::Bcoo, est.bcoo_bytes(width)),
                _ => unreachable!(),
            };
            FormatChoice {
                kind: fkind,
                r,
                c,
                width,
                bytes,
                fill_ratio: if est.fill_ratio.is_finite() {
                    est.fill_ratio
                } else {
                    1.0
                },
            }
        }
    })
}

/// A complete plan binding `kind` for every thread's whole row slice (one
/// decision per thread, prefetch annotated by the same footprint rule the
/// heuristic planner uses).
fn forced_general_plan(
    csr: &CsrMatrix,
    nthreads: usize,
    config: &TuningConfig,
    kind: ForcedKind,
) -> Option<TunePlan> {
    let partition = partition_rows_balanced(csr, nthreads);
    let mut threads = Vec::with_capacity(partition.ranges.len());
    for range in &partition.ranges {
        let local = csr.row_slice(range.start, range.end);
        let decisions = if local.nnz() == 0 {
            Vec::new()
        } else {
            vec![BlockDecision {
                rows: 0..local.nrows(),
                cols: 0..local.ncols(),
                choice: forced_choice(&local, kind)?,
                nnz: local.nnz(),
            }]
        };
        threads.push(ThreadPlan::annotated(range.clone(), decisions, config));
    }
    Some(TunePlan {
        nrows: csr.nrows(),
        ncols: csr.ncols(),
        nnz: csr.nnz(),
        symmetric: false,
        threads,
    })
}

/// A complete symmetric plan binding one forced slab encoding per thread.
/// The caller has already established exact symmetry.
fn forced_symmetric_plan(
    csr: &CsrMatrix,
    nthreads: usize,
    kind: FormatKind,
    r: usize,
    c: usize,
    width: IndexWidth,
) -> Option<TunePlan> {
    let n = csr.ncols();
    let admissible = match kind {
        FormatKind::SymCsr => width != IndexWidth::U16 || IndexWidth::U16.fits(n),
        FormatKind::SymBcsr => width != IndexWidth::U16 || IndexWidth::U16.fits(n.div_ceil(c)),
        _ => false,
    };
    if !admissible {
        return None;
    }
    let partition = partition_rows_balanced(csr, nthreads);
    let threads = partition
        .ranges
        .iter()
        .map(|range| {
            let local = csr.row_slice(range.start, range.end);
            let mut lower_coo = CooMatrix::new(local.nrows(), local.ncols());
            for (i, j, v) in local.iter() {
                if j < range.start + i {
                    lower_coo.push(i, j, v);
                }
            }
            let lower = CsrMatrix::from_coo(&lower_coo);
            let choice = match kind {
                FormatKind::SymCsr => FormatChoice {
                    kind,
                    r: 1,
                    c: 1,
                    width,
                    bytes: sym_csr_bytes(local.nrows(), lower.nnz(), width),
                    fill_ratio: 1.0,
                },
                FormatKind::SymBcsr => {
                    let est = estimate_fill(&lower, r, c);
                    FormatChoice {
                        kind,
                        r,
                        c,
                        width,
                        bytes: crate::tuning::footprint::sym_bcsr_bytes(local.nrows(), &est, width),
                        fill_ratio: if est.fill_ratio.is_finite() {
                            est.fill_ratio
                        } else {
                            1.0
                        },
                    }
                }
                _ => unreachable!("admissibility check rejects other kinds"),
            };
            ThreadPlan {
                rows: range.clone(),
                prefetch_distance: 0,
                nta_hint: false,
                simd: false,
                decisions: vec![BlockDecision {
                    rows: 0..local.nrows(),
                    cols: 0..local.ncols(),
                    choice,
                    nnz: local.nnz(),
                }],
            }
        })
        .collect();
    Some(TunePlan {
        nrows: csr.nrows(),
        ncols: csr.ncols(),
        nnz: csr.nnz(),
        symmetric: true,
        threads,
    })
}

/// Generate the labelled candidate plans a search at `budget` would time.
/// The heuristic plan is always first; every returned plan validates against
/// `csr` and duplicates (identical plans reached through different knobs) are
/// dropped.
pub fn candidate_plans(
    csr: &CsrMatrix,
    nthreads: usize,
    config: &TuningConfig,
    budget: SearchBudget,
) -> Vec<(String, TunePlan)> {
    let mut out: Vec<(String, TunePlan)> = Vec::new();
    let push = |label: String, plan: Option<TunePlan>, out: &mut Vec<(String, TunePlan)>| {
        if let Some(plan) = plan {
            if plan.validate_for(csr).is_ok() && !out.iter().any(|(_, p)| *p == plan) {
                out.push((label, plan));
            }
        }
    };
    push(
        "heuristic".to_string(),
        Some(TunePlan::new(csr, nthreads, config)),
        &mut out,
    );
    if budget == SearchBudget::Heuristic {
        return out;
    }

    // Single-knob toggles of the caller's config. The naive / register-only /
    // register+cache / no-prefetch rungs of the optimization ladder are not
    // re-planned here: `TunePlan::new` already timed them, share by share.
    let (mut no_symmetry, mut u32_indices, mut simd) = (*config, *config, *config);
    no_symmetry.exploit_symmetry = false;
    u32_indices.allow_u16_indices = false;
    // The SIMD knob the other way: measured, never assumed. On hosts whose
    // feature probe fails the plan is the default one (the knob degrades at
    // planning time) and dedup drops it.
    simd.simd = !config.simd;
    let simd_label = if config.simd { "no-simd" } else { "simd" };
    let toggles = [
        ("no-symmetry", no_symmetry),
        ("u32-indices", u32_indices),
        (simd_label, simd),
    ];
    for (label, cfg) in toggles {
        push(
            label.to_string(),
            Some(TunePlan::new(csr, nthreads, &cfg)),
            &mut out,
        );
    }
    if budget == SearchBudget::Pruned {
        return out;
    }

    // Exhaustive: force every whole-plan shape. Index width is the narrowest
    // admissible (the heuristic's own rule); CSR additionally sweeps both.
    for (r, c) in register_block_candidates() {
        push(
            format!("bcsr{r}x{c}"),
            forced_general_plan(csr, nthreads, config, ForcedKind::Bcsr(r, c)),
            &mut out,
        );
        push(
            format!("bcoo{r}x{c}"),
            forced_general_plan(csr, nthreads, config, ForcedKind::Bcoo(r, c)),
            &mut out,
        );
    }
    for width in [IndexWidth::U16, IndexWidth::U32] {
        let w = match width {
            IndexWidth::U16 => "u16",
            IndexWidth::U32 => "u32",
        };
        push(
            format!("csr-{w}"),
            forced_general_plan(csr, nthreads, config, ForcedKind::Csr(width)),
            &mut out,
        );
        push(
            format!("gcsr-{w}"),
            forced_general_plan(csr, nthreads, config, ForcedKind::Gcsr(width)),
            &mut out,
        );
    }
    // Symmetric slab encodings, when the heuristic established symmetry (the
    // first candidate is the heuristic plan).
    if out[0].1.symmetric {
        for width in [IndexWidth::U16, IndexWidth::U32] {
            let w = match width {
                IndexWidth::U16 => "u16",
                IndexWidth::U32 => "u32",
            };
            push(
                format!("symcsr-{w}"),
                forced_symmetric_plan(csr, nthreads, FormatKind::SymCsr, 1, 1, width),
                &mut out,
            );
            for (r, c) in [(2, 2), (3, 3), (4, 4)] {
                push(
                    format!("symbcsr{r}x{c}-{w}"),
                    forced_symmetric_plan(csr, nthreads, FormatKind::SymBcsr, r, c, width),
                    &mut out,
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Timed evaluation
// ---------------------------------------------------------------------------

/// Seconds per single whole-plan SpMV of `plan` ([`time_spmv`]: the fastest of
/// [`TIMING_RUNS`] batches that share `eval_ms`), executed serially through
/// [`PreparedMatrix`] (the bit-identical reference of the parallel engine, so
/// the ranking transfers). Returns `None` when the plan fails to materialize.
pub fn time_plan(csr: &CsrMatrix, plan: &TunePlan, eval_ms: u64) -> Option<f64> {
    let prepared = PreparedMatrix::materialize(csr, plan).ok()?;
    let (nrows, ncols) = (csr.nrows(), csr.ncols());
    let time = |runs, reps| time_spmv(nrows, ncols, runs, reps, |x, y| prepared.spmv(x, y));
    // Calibrate the batch size on one call, so each timed run spans roughly a
    // third of the budget.
    let batch_secs = eval_ms.max(1) as f64 / 1e3 / TIMING_RUNS as f64;
    let reps = (batch_secs / time(1, 1)).ceil().clamp(1.0, 1e6) as usize;
    Some(time(TIMING_RUNS, reps))
}

/// Run the measured whole-plan search with the default per-candidate budget.
pub fn autotune(
    csr: &CsrMatrix,
    nthreads: usize,
    config: &TuningConfig,
    budget: SearchBudget,
) -> Autotuned {
    autotune_timed(csr, nthreads, config, budget, DEFAULT_EVAL_MS)
}

/// [`autotune`] with an explicit per-candidate timing budget (milliseconds).
/// The heuristic plan is always a candidate, so the winner is never a plan the
/// search measured as slower than the heuristic.
pub fn autotune_timed(
    csr: &CsrMatrix,
    nthreads: usize,
    config: &TuningConfig,
    budget: SearchBudget,
    eval_ms: u64,
) -> Autotuned {
    let plans = candidate_plans(csr, nthreads, config, budget);
    if budget == SearchBudget::Heuristic || plans.len() == 1 {
        let (label, plan) = plans.into_iter().next().expect("heuristic always present");
        return Autotuned {
            plan,
            label,
            from_cache: false,
            candidates: Vec::new(),
        };
    }
    let mut candidates = Vec::with_capacity(plans.len());
    let mut best: Option<(usize, f64)> = None;
    for (i, (label, plan)) in plans.iter().enumerate() {
        let Some(secs) = time_plan(csr, plan, eval_ms) else {
            continue;
        };
        candidates.push(CandidateTiming {
            label: label.clone(),
            secs_per_spmv: secs,
            planned_bytes: plan.planned_bytes(),
        });
        if best.is_none_or(|(_, b)| secs < b) {
            best = Some((i, secs));
        }
    }
    let idx = best.map_or(0, |(i, _)| i);
    let (label, plan) = plans[idx].clone();
    Autotuned {
        plan,
        label,
        from_cache: false,
        candidates,
    }
}

// ---------------------------------------------------------------------------
// Matrix fingerprints
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a, the checksum/fingerprint hash of this module (stable,
/// dependency-free, endianness-independent over the byte stream we feed it).
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A structural identity for a matrix: dimensions, nonzero count, and a hash
/// over the row-length sequence, every stored `(column, value-bits)` pair, and
/// quantized 2×2/4×4 block-fill estimates. Two reads of the same file
/// fingerprint identically; permuting rows or perturbing any value changes the
/// fingerprint. Computing it is one O(nnz) pass — the same cost class as the
/// tuning passes it gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixFingerprint {
    /// Rows of the fingerprinted matrix.
    pub nrows: usize,
    /// Columns of the fingerprinted matrix.
    pub ncols: usize,
    /// Logical nonzeros of the fingerprinted matrix.
    pub nnz: usize,
    /// The structural hash.
    pub hash: u64,
}

impl MatrixFingerprint {
    /// Fingerprint `csr`.
    pub fn compute(csr: &CsrMatrix) -> MatrixFingerprint {
        let mut h = fnv1a(FNV_OFFSET, b"spmv-fp-v1");
        for dim in [csr.nrows(), csr.ncols(), csr.nnz()] {
            h = fnv1a(h, &(dim as u64).to_le_bytes());
        }
        // Row-length sequence (order-sensitive: a row permutation changes it
        // unless the permuted rows are structurally identical — the entry
        // stream below catches those too).
        for i in 0..csr.nrows() {
            h = fnv1a(h, &(csr.row_nnz(i) as u32).to_le_bytes());
        }
        // Every stored entry: column index and exact value bits.
        for (_, j, v) in csr.iter() {
            h = fnv1a(h, &(j as u32).to_le_bytes());
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
        // Block-fill samples: the register-blocking profile at 2×2 and 4×4,
        // quantized so the fingerprint stays exact-arithmetic-stable.
        for (r, c) in [(2, 2), (4, 4)] {
            let est = estimate_fill(csr, r, c);
            let q = if est.fill_ratio.is_finite() {
                (est.fill_ratio * 4096.0).round() as u64
            } else {
                u64::MAX
            };
            h = fnv1a(h, &q.to_le_bytes());
        }
        MatrixFingerprint {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            hash: h,
        }
    }

    /// The filesystem-safe key string (`<hash>-<rows>x<cols>-<nnz>`).
    pub fn key(&self) -> String {
        format!(
            "{:016x}-{}x{}-{}",
            self.hash, self.nrows, self.ncols, self.nnz
        )
    }
}

// ---------------------------------------------------------------------------
// The persistent tune cache
// ---------------------------------------------------------------------------

/// A directory of winning tune plans, keyed by fingerprint × platform ×
/// thread count × tuning-config digest. Entries are the plain-text
/// `spmv-tune-plan v1` profile wrapped in a checksummed header; anything that
/// fails the checksum, the key match, or plan validation is rejected. The
/// config digest in the key means registries with different tuning policies
/// (symmetry off, different blocking budgets) can safely share one cache
/// without serving each other plans their own config forbids. Hit/miss/search
/// counters let tests (and operators) prove a warm cache skips the measured
/// search entirely.
#[derive(Debug)]
pub struct TuneCache {
    dir: PathBuf,
    platform: String,
    hits: AtomicU64,
    misses: AtomicU64,
    searches: AtomicU64,
    search_ns: AtomicU64,
}

impl TuneCache {
    /// Open (creating if needed) a cache directory for this host's platform.
    pub fn open(dir: impl AsRef<Path>) -> Result<TuneCache> {
        Self::with_platform(dir, Self::host_platform())
    }

    /// [`TuneCache::open`] with an explicit platform key (profiles measured on
    /// one machine must not be served to another).
    pub fn with_platform(dir: impl AsRef<Path>, platform: impl Into<String>) -> Result<TuneCache> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::Parse(format!("tune cache: cannot create {dir:?}: {e}")))?;
        Ok(TuneCache {
            dir,
            platform: platform.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            searches: AtomicU64::new(0),
            search_ns: AtomicU64::new(0),
        })
    }

    /// The host platform key (`<arch>-<os>+<features>`). The detected vector
    /// feature set is part of the key: a cache written on an AVX2 host must
    /// never hand a SIMD plan to a host without it (entries written before the
    /// feature token existed simply miss — different file name, no corruption).
    pub fn host_platform() -> String {
        format!(
            "{}-{}+{}",
            std::env::consts::ARCH,
            std::env::consts::OS,
            crate::kernels::simd::feature_suffix()
        )
    }

    /// The platform key entries are stored under.
    pub fn platform(&self) -> &str {
        &self.platform
    }

    /// The digest a [`TuningConfig`] contributes to the entry key: plans
    /// searched under one policy (e.g. symmetry on) must not be served to a
    /// registry tuned under another.
    pub fn config_key(config: &TuningConfig) -> String {
        format!(
            "{:016x}",
            fnv1a(FNV_OFFSET, format!("{config:?}").as_bytes())
        )
    }

    /// The file a `(fingerprint, thread count, tuning config)` entry lives in.
    pub fn entry_path(
        &self,
        fp: &MatrixFingerprint,
        nthreads: usize,
        config: &TuningConfig,
    ) -> PathBuf {
        self.dir.join(format!(
            "{}-{}-t{}-c{}.plan",
            fp.key(),
            self.platform,
            nthreads,
            Self::config_key(config)
        ))
    }

    /// Cache hits observed so far (validated lookups).
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses observed so far (absent, unreadable, or rejected entries).
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Measured searches this cache has had to run (the counter hook the
    /// cache-hit tests assert on: a warm hit must not increment it).
    pub fn search_count(&self) -> u64 {
        self.searches.load(Ordering::Relaxed)
    }

    /// Total wall nanoseconds spent inside measured searches (the
    /// search-duration half of the cache's telemetry: together with
    /// [`TuneCache::search_count`] it yields mean search cost, and a warm
    /// cache proves itself by this number staying flat).
    pub fn search_nanos(&self) -> u64 {
        self.search_ns.load(Ordering::Relaxed)
    }

    /// Persist `plan` as the winner for `(fp, nthreads, config)` on this
    /// platform. The write is staged to a temp file and renamed, so concurrent
    /// readers never observe a torn entry.
    pub fn store(
        &self,
        fp: &MatrixFingerprint,
        nthreads: usize,
        config: &TuningConfig,
        plan: &TunePlan,
    ) -> Result<()> {
        let plan_text = plan.to_text();
        let text = format!(
            "spmv-tune-cache v1\nkey {} platform {} threads {} config {}\nchecksum {:016x}\n{}",
            fp.key(),
            self.platform,
            nthreads,
            Self::config_key(config),
            fnv1a(FNV_OFFSET, plan_text.as_bytes()),
            plan_text
        );
        let path = self.entry_path(fp, nthreads, config);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, text)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| Error::Parse(format!("tune cache: cannot write {path:?}: {e}")))
    }

    /// Strictly load the entry for `(fp, nthreads, config)`: `Ok(None)` when
    /// absent, `Err` when present but tampered/truncated/mismatched. Does not
    /// touch the hit/miss counters — [`TuneCache::lookup`] is the counting
    /// path.
    pub fn load_entry(
        &self,
        fp: &MatrixFingerprint,
        nthreads: usize,
        config: &TuningConfig,
    ) -> Result<Option<TunePlan>> {
        let path = self.entry_path(fp, nthreads, config);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(Error::Parse(format!(
                    "tune cache: cannot read {path:?}: {e}"
                )))
            }
        };
        let bad = |msg: &str| Error::Parse(format!("tune cache entry {path:?}: {msg}"));
        let mut parts = text.splitn(4, '\n');
        let header = parts.next().unwrap_or("");
        if header != "spmv-tune-cache v1" {
            return Err(bad("unknown header"));
        }
        let key_line: Vec<&str> = parts.next().unwrap_or("").split_whitespace().collect();
        if key_line.len() != 8
            || key_line[0] != "key"
            || key_line[1] != fp.key()
            || key_line[2] != "platform"
            || key_line[3] != self.platform
            || key_line[4] != "threads"
            || key_line[5] != nthreads.to_string()
            || key_line[6] != "config"
            || key_line[7] != Self::config_key(config)
        {
            return Err(bad("key line does not match the requested entry"));
        }
        let checksum_line: Vec<&str> = parts.next().unwrap_or("").split_whitespace().collect();
        let [_, declared] = checksum_line[..] else {
            return Err(bad("malformed checksum line"));
        };
        let plan_text = parts.next().ok_or_else(|| bad("missing plan body"))?;
        let actual = format!("{:016x}", fnv1a(FNV_OFFSET, plan_text.as_bytes()));
        if declared != actual {
            return Err(bad("checksum mismatch (entry tampered or truncated)"));
        }
        let plan = TunePlan::from_text(plan_text)?;
        if plan.num_threads() != nthreads {
            return Err(bad("plan thread count does not match the entry key"));
        }
        Ok(Some(plan))
    }

    /// Look up a validated plan for `csr` tuned under `config`: a hit requires
    /// a well-formed entry whose plan validates against the matrix; everything
    /// else (absent, tampered, stale) counts as a miss and returns `None`.
    pub fn lookup(
        &self,
        fp: &MatrixFingerprint,
        nthreads: usize,
        config: &TuningConfig,
        csr: &CsrMatrix,
    ) -> Option<TunePlan> {
        match self.load_entry(fp, nthreads, config) {
            Ok(Some(plan)) if plan.validate_for(csr).is_ok() => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                spmv_obs::trace::trace(spmv_obs::TraceKind::TuneHit, fp.hash, 0);
                Some(plan)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                spmv_obs::trace::trace(spmv_obs::TraceKind::TuneMiss, fp.hash, 0);
                None
            }
        }
    }

    /// The cached search entry point: fingerprint, look up, and only on a miss
    /// run the measured search (counting it) and persist the winner.
    pub fn autotune(
        &self,
        csr: &CsrMatrix,
        nthreads: usize,
        config: &TuningConfig,
        budget: SearchBudget,
    ) -> Result<Autotuned> {
        self.autotune_timed(csr, nthreads, config, budget, DEFAULT_EVAL_MS)
    }

    /// [`TuneCache::autotune`] with an explicit per-candidate timing budget.
    pub fn autotune_timed(
        &self,
        csr: &CsrMatrix,
        nthreads: usize,
        config: &TuningConfig,
        budget: SearchBudget,
        eval_ms: u64,
    ) -> Result<Autotuned> {
        let fp = MatrixFingerprint::compute(csr);
        if let Some(plan) = self.lookup(&fp, nthreads, config, csr) {
            return Ok(Autotuned {
                plan,
                label: "cache".to_string(),
                from_cache: true,
                candidates: Vec::new(),
            });
        }
        self.searches.fetch_add(1, Ordering::Relaxed);
        let t0 = std::time::Instant::now();
        let outcome = autotune_timed(csr, nthreads, config, budget, eval_ms);
        let elapsed = spmv_obs::saturating_nanos(t0.elapsed());
        self.search_ns.fetch_add(elapsed, Ordering::Relaxed);
        spmv_obs::trace::trace(spmv_obs::TraceKind::TuneSearch, elapsed, 0);
        self.store(&fp, nthreads, config, &outcome.plan)?;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn symmetric_csr(n: usize, lower_nnz: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        for _ in 0..lower_nnz {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..=i);
            let v = rng.random_range(-2.0..2.0);
            coo.push(i, j, v);
            if i != j {
                coo.push(j, i, v);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spmv_tune_cache_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn heuristic_budget_skips_timing() {
        let csr = random_csr(120, 100, 1200, 1);
        let outcome = autotune(&csr, 2, &TuningConfig::full(), SearchBudget::Heuristic);
        assert_eq!(outcome.label, "heuristic");
        assert!(outcome.candidates.is_empty());
        assert_eq!(outcome.plan, TunePlan::new(&csr, 2, &TuningConfig::full()));
    }

    #[test]
    fn every_candidate_plan_is_valid_and_round_trips() {
        for (csr, threads) in [
            (random_csr(150, 130, 1500, 2), 3),
            (symmetric_csr(90, 400, 3), 2),
        ] {
            let plans = candidate_plans(
                &csr,
                threads,
                &TuningConfig::full(),
                SearchBudget::Exhaustive,
            );
            assert!(plans.len() > 10, "exhaustive sweep is broad");
            assert_eq!(plans[0].0, "heuristic");
            for (label, plan) in &plans {
                plan.validate_for(&csr)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let back =
                    TunePlan::from_text(&plan.to_text()).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(*plan, back, "{label}: profile round trip");
                PreparedMatrix::materialize(&csr, plan).unwrap_or_else(|e| panic!("{label}: {e}"));
            }
        }
    }

    #[test]
    fn search_winner_is_never_measured_slower_than_heuristic() {
        let csr = random_csr(200, 180, 2500, 4);
        let outcome = autotune_timed(&csr, 1, &TuningConfig::full(), SearchBudget::Pruned, 1);
        let heuristic = outcome
            .candidates
            .iter()
            .find(|c| c.label == "heuristic")
            .expect("heuristic always timed");
        let winner = outcome
            .candidates
            .iter()
            .find(|c| c.label == outcome.label)
            .expect("winner was timed");
        assert!(winner.secs_per_spmv <= heuristic.secs_per_spmv);
    }

    #[test]
    fn fingerprints_are_deterministic_and_structure_sensitive() {
        let a = random_csr(60, 50, 500, 7);
        assert_eq!(
            MatrixFingerprint::compute(&a),
            MatrixFingerprint::compute(&a.clone())
        );
        // A different seed, a perturbed value, and a row swap all change it.
        let b = random_csr(60, 50, 500, 8);
        assert_ne!(
            MatrixFingerprint::compute(&a),
            MatrixFingerprint::compute(&b)
        );
        let mut coo = a.to_coo();
        let perturbed: Vec<(usize, usize, f64)> = coo
            .entries()
            .iter()
            .enumerate()
            .map(|(k, t)| (t.row, t.col, if k == 0 { t.val + 1e-12 } else { t.val }))
            .collect();
        coo = CooMatrix::from_triplets(60, 50, perturbed).unwrap();
        assert_ne!(
            MatrixFingerprint::compute(&a),
            MatrixFingerprint::compute(&CsrMatrix::from_coo(&coo))
        );
    }

    #[test]
    fn cache_round_trips_and_counts() {
        let dir = temp_dir("round_trip");
        let cache = TuneCache::with_platform(&dir, "test-plat").unwrap();
        let csr = random_csr(80, 70, 800, 9);
        let fp = MatrixFingerprint::compute(&csr);
        let config = TuningConfig::full();
        assert!(cache.lookup(&fp, 2, &config, &csr).is_none());
        assert_eq!(cache.miss_count(), 1);

        let plan = TunePlan::new(&csr, 2, &config);
        cache.store(&fp, 2, &config, &plan).unwrap();
        let back = cache.lookup(&fp, 2, &config, &csr).expect("warm hit");
        assert_eq!(back, plan);
        assert_eq!(cache.hit_count(), 1);
        // A different thread count is a different entry, and so is a
        // different tuning config: a policy that forbids what the cached plan
        // uses must not be served it.
        assert!(cache.lookup(&fp, 3, &config, &csr).is_none());
        assert!(cache.lookup(&fp, 2, &TuningConfig::naive(), &csr).is_none());
        assert_ne!(
            TuneCache::config_key(&config),
            TuneCache::config_key(&TuningConfig::naive())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn platform_digest_includes_the_detected_feature_set() {
        // The platform component of the cache key carries the SIMD feature
        // suffix, so an AVX2-host cache can never hand a SIMD plan to a host
        // that only detects scalar: the filenames simply differ.
        let plat = TuneCache::host_platform();
        let suffix = crate::kernels::simd::feature_suffix();
        assert!(
            plat.ends_with(&format!("+{suffix}")),
            "host platform {plat:?} must end with +{suffix}"
        );
        assert_eq!(plat.matches('+').count(), 1);
    }

    #[test]
    fn old_platform_entries_become_clean_misses_after_feature_key_change() {
        // Entries written under the pre-feature-suffix platform string must be
        // invisible — a clean miss, never a corruption error — once the cache
        // keys on the detected feature set.
        let dir = temp_dir("feature_migration");
        let csr = random_csr(80, 70, 800, 21);
        let fp = MatrixFingerprint::compute(&csr);
        let config = TuningConfig::full();
        let plan = TunePlan::new(&csr, 2, &config);

        // Simulate a cache populated before the key change: bare arch-os.
        let old = TuneCache::with_platform(&dir, "x86_64-linux").unwrap();
        old.store(&fp, 2, &config, &plan).unwrap();
        assert!(old.lookup(&fp, 2, &config, &csr).is_some());

        // Reopening the same directory with the feature-suffixed platform
        // sees a different entry path: strict load reports absent (no error)
        // and lookup counts a miss rather than tripping validation.
        let new = TuneCache::with_platform(&dir, "x86_64-linux+avx2fma").unwrap();
        assert_ne!(
            old.entry_path(&fp, 2, &config),
            new.entry_path(&fp, 2, &config)
        );
        assert!(matches!(new.load_entry(&fp, 2, &config), Ok(None)));
        assert!(new.lookup(&fp, 2, &config, &csr).is_none());
        assert_eq!(new.miss_count(), 1);

        // The old handle still hits its own entry, and the new platform can
        // populate its own slot alongside without clobbering the old one.
        new.store(&fp, 2, &config, &plan).unwrap();
        assert!(new.lookup(&fp, 2, &config, &csr).is_some());
        assert!(old.lookup(&fp, 2, &config, &csr).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_entries_are_rejected() {
        let dir = temp_dir("tamper");
        let cache = TuneCache::with_platform(&dir, "test-plat").unwrap();
        let csr = random_csr(50, 50, 400, 10);
        let fp = MatrixFingerprint::compute(&csr);
        let config = TuningConfig::full();
        let plan = TunePlan::new(&csr, 1, &config);
        cache.store(&fp, 1, &config, &plan).unwrap();

        let path = cache.entry_path(&fp, 1, &config);
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside the plan body without touching the checksum.
        let tampered = text.replacen("thread 0 ", "thread 1 ", 1);
        assert_ne!(text, tampered, "tampering must change the entry");
        std::fs::write(&path, tampered).unwrap();
        assert!(
            cache.load_entry(&fp, 1, &config).is_err(),
            "checksum must reject"
        );
        assert!(
            cache.lookup(&fp, 1, &config, &csr).is_none(),
            "lookup treats it as a miss"
        );

        // Truncation is rejected too.
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.load_entry(&fp, 1, &config).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_autotune_searches_once() {
        let dir = temp_dir("once");
        let cache = TuneCache::with_platform(&dir, "test-plat").unwrap();
        let csr = random_csr(100, 90, 900, 11);
        let first = cache
            .autotune_timed(&csr, 2, &TuningConfig::full(), SearchBudget::Pruned, 1)
            .unwrap();
        assert!(!first.from_cache);
        assert_eq!(cache.search_count(), 1);
        let second = cache
            .autotune_timed(&csr, 2, &TuningConfig::full(), SearchBudget::Pruned, 1)
            .unwrap();
        assert!(second.from_cache);
        assert_eq!(second.label, "cache");
        assert_eq!(second.plan, first.plan);
        assert_eq!(cache.search_count(), 1, "warm hit must not search again");
        std::fs::remove_dir_all(&dir).ok();
    }
}
