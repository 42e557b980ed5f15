//! The serializable tune-time plan of the two-phase pipeline.
//!
//! Phase one (*tune*) runs the blocking passes and the footprint heuristic, lets
//! each thread share's timed ladder pick among what they propose ([`ShareLadder`]),
//! and records every decision — row partition, per-cache-block format kind,
//! register block shape, index width, and the per-thread SIMD choice — in a
//! [`TunePlan`]. Phase two (*prepare*, [`crate::tuning::prepared`]) materializes a
//! plan into kernel-bound storage, ideally on the thread that will execute it so
//! first-touch places the pages locally.
//!
//! Separating the two phases buys what OSKI's save/restore buys without its search
//! cost: the plan is a small plain-text profile (`TunePlan::to_text` /
//! `TunePlan::from_text`), so the one-pass tuning cost can be amortized across
//! program runs, while materialization stays where the data must live.

use crate::error::{Error, Result};
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexWidth;
use crate::formats::traits::MatrixShape;
use crate::partition::row::{partition_rows_balanced, RowPartition};
use crate::tuning::footprint::{FormatChoice, FormatKind};
use crate::tuning::heuristic::{ladder_rungs, BlockDecision, TuningConfig};
use crate::tuning::prepared::{PreparedBlock, PreparedMatrix};
use crate::tuning::search::time_spmv;
use std::collections::BTreeMap;
use std::ops::Range;

/// Timed `execute` calls per ladder rung, after one warm-up; the fastest counts.
pub const LADDER_RUNS: usize = 5;

/// The first line of a plan profile; a profile with any other header is refused.
const PLAN_HEADER: &str = "spmv-tune-plan v2";

/// A challenger displaces the ladder's incumbent only when it needs at most this
/// share of the incumbent's time: a smaller difference is this host's noise.
pub const LADDER_MARGIN: f64 = 0.95;

/// One thread's share of the plan: its global row range, the cache-block decisions
/// for that range (in block-local row coordinates), and its SIMD choice.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadPlan {
    /// Global row range this thread block owns.
    pub rows: Range<usize>,
    /// Execute this block with the explicit SIMD microkernels
    /// ([`crate::kernels::simd`]). Only ever planned `true` on hosts whose
    /// runtime feature probe succeeds; loading a profile that requests SIMD on
    /// a host without it degrades to `false` with a warning.
    pub simd: bool,
    /// Per-cache-block decisions, rows/cols local to the thread block.
    pub decisions: Vec<BlockDecision>,
}

impl ThreadPlan {
    /// A share's plan from its decisions, annotated by the planner's SIMD rule:
    /// SIMD when the config asks and the host can.
    pub fn annotated(
        rows: Range<usize>,
        decisions: Vec<BlockDecision>,
        config: &TuningConfig,
    ) -> ThreadPlan {
        ThreadPlan {
            rows,
            simd: plans_simd(config),
            decisions,
        }
    }

    /// Predicted bytes of the materialized block (sum of the chosen encodings).
    pub fn planned_bytes(&self) -> usize {
        self.decisions.iter().map(|d| d.choice.bytes).sum()
    }

    /// Logical nonzeros covered by the plan's decisions.
    pub fn planned_nnz(&self) -> usize {
        self.decisions.iter().map(|d| d.nnz).sum()
    }
}

/// The planner's SIMD rule, for general shares and symmetric slabs alike: the
/// knob is only planned on when the config asks and the host can execute it,
/// so a freshly tuned plan always round-trips exactly.
fn plans_simd(config: &TuningConfig) -> bool {
    config.simd && crate::kernels::simd::available()
}

/// One candidate structure of a thread share (a rung of
/// [`crate::tuning::heuristic::ladder_rungs`]) and what the clock said about it.
#[derive(Debug, Clone)]
pub struct LadderRung {
    /// `A`, `S` or `B`.
    pub label: &'static str,
    /// The share's plan, were this rung chosen.
    pub plan: ThreadPlan,
    /// Fastest seconds of one `execute`; `None` when the rung failed to
    /// materialize.
    pub seconds: Option<f64>,
}

/// A thread share's ladder: its rungs, fewest blocks first, and the one chosen.
#[derive(Debug, Clone)]
pub struct ShareLadder {
    /// The candidates, as [`ladder_rungs`] proposed them without a grid.
    pub rungs: Vec<LadderRung>,
    /// Index into `rungs` of the share's plan.
    pub chosen: usize,
}

/// The ladder's decision over the rungs' seconds (fewest blocks first; `None`: not
/// materialized). The first timed rung is the incumbent and a later one takes its
/// place only by [`LADDER_MARGIN`], so ties go to fewer blocks and the winner
/// never ran slower than rung `A`. Nothing timed keeps the last rung.
pub fn choose_rung(seconds: &[Option<f64>]) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (i, s) in seconds.iter().enumerate() {
        if let Some(s) = *s {
            if best.is_none_or(|(_, b)| s <= b * LADDER_MARGIN) {
                best = Some((i, s));
            }
        }
    }
    best.map_or(seconds.len().saturating_sub(1), |(i, _)| i)
}

/// The pipeline choice for a symmetric matrix: whether the general plan, whose
/// shares' chosen rungs took `shares` seconds, displaces the lower-triangle
/// plan, whose serial apply took `symmetric` seconds (`None`: it failed to
/// materialize). Symmetric storage is [`choose_rung`]'s incumbent, so the
/// general plan needs the ladder's margin; a share without a reading (its
/// rungs failed to materialize) keeps the incumbent.
pub fn general_beats_symmetric(symmetric: Option<f64>, shares: &[Option<f64>]) -> bool {
    let general: Option<f64> = shares.iter().copied().sum();
    general.is_some() && choose_rung(&[symmetric, general]) == 1
}

impl ShareLadder {
    /// The timed plan of one thread share. Its ladder cuts no cache or TLB
    /// grid: rungs `A`, `S` and `B` are materialized once each and timed,
    /// whatever the share's size, and a lone rung is timed too.
    fn timed(local: &CsrMatrix, rows: &Range<usize>, config: &TuningConfig) -> Self {
        let ungridded = TuningConfig {
            cache_blocking: None,
            tlb_blocking: None,
            ..*config
        };
        let (nrows, ncols) = (local.nrows(), local.ncols());
        let rungs: Vec<LadderRung> = ladder_rungs(local, &ungridded, false)
            .iter()
            .map(|proposal| {
                let plan =
                    ThreadPlan::annotated(rows.clone(), proposal.decisions.clone(), &ungridded);
                let seconds = proposal.materialize().ok().map(|blocks| {
                    let block = PreparedBlock::from_blocks(&plan, ncols, blocks);
                    time_spmv(nrows, ncols, LADDER_RUNS, 1, |x, y| block.execute(x, y))
                });
                LadderRung {
                    label: proposal.label,
                    plan,
                    seconds,
                }
            })
            .collect();
        let seconds: Vec<_> = rungs.iter().map(|r| r.seconds).collect();
        ShareLadder {
            chosen: choose_rung(&seconds),
            rungs,
        }
    }
}

/// A complete tune-time plan: the row partition plus one [`ThreadPlan`] per thread.
#[derive(Debug, Clone, PartialEq)]
pub struct TunePlan {
    /// Rows of the matrix the plan was produced for.
    pub nrows: usize,
    /// Columns of the matrix the plan was produced for.
    pub ncols: usize,
    /// Logical nonzeros of the matrix the plan was produced for.
    pub nnz: usize,
    /// Whether the plan stores only the lower triangle (symmetric pipeline):
    /// every thread holds exactly one `SymCsr`/`SymBcsr` slab decision, and
    /// execution needs full-length destinations plus the deterministic scratch
    /// reduction (`PreparedMatrix` serial, `SpmvEngine` parallel).
    pub symmetric: bool,
    /// Per-thread plans, in thread order; their row ranges tile `0..nrows`.
    pub threads: Vec<ThreadPlan>,
}

impl TunePlan {
    /// Plan `csr` for `nthreads` threads: partition rows balancing nonzeros, then
    /// tune every thread block in isolation, exactly as the paper tunes each
    /// thread's share: the one-pass footprint heuristic proposes, the share's
    /// timed ladder ([`ShareLadder`]) decides.
    ///
    /// When the config enables [`TuningConfig::exploit_symmetry`] and the matrix
    /// is detected square-and-symmetric, the lower-triangle plan (Section 4.2's
    /// symmetry optimization: halved value/index traffic) is the incumbent and
    /// the clock decides between the two pipelines: the symmetric plan's serial
    /// apply against the sum of the general shares' chosen rungs
    /// ([`general_beats_symmetric`]). Every share and every symmetric plan is
    /// timed, whatever its size; [`TunePlan::heuristic`] is the untimed
    /// planner, and [`TunePlan::new_symmetric`] the way to insist on symmetric
    /// storage.
    pub fn new(csr: &CsrMatrix, nthreads: usize, config: &TuningConfig) -> TunePlan {
        Self::with_ladders(csr, nthreads, config).0
    }

    /// [`TunePlan::new`] together with the ladder of every thread share, for
    /// reports: the general pipeline's ladders, even when the symmetric plan
    /// won. Each ladder lists rungs `A`, `S` and `B` only ([`ShareLadder`]).
    pub fn with_ladders(
        csr: &CsrMatrix,
        nthreads: usize,
        config: &TuningConfig,
    ) -> (TunePlan, Vec<ShareLadder>) {
        Self::plan(csr, nthreads, config, true)
    }

    /// [`TunePlan::new`] without the clock: every share keeps the byte minimum of
    /// the finest grid (its ladder's rung `D`). A function of matrix and config
    /// alone, as the code that models the paper's machines needs.
    pub fn heuristic(csr: &CsrMatrix, nthreads: usize, config: &TuningConfig) -> TunePlan {
        Self::plan(csr, nthreads, config, false).0
    }

    fn plan(
        csr: &CsrMatrix,
        nthreads: usize,
        config: &TuningConfig,
        timed: bool,
    ) -> (TunePlan, Vec<ShareLadder>) {
        let ranges = partition_rows_balanced(csr, nthreads).ranges;
        if !config.exploit_symmetry || csr.nnz() == 0 || !crate::formats::symcsr::is_symmetric(csr)
        {
            return Self::general_plan(csr, &ranges, config, timed);
        }
        let symmetric = Self::symmetric_plan(csr, &ranges, config);
        if !timed {
            return (symmetric, Vec::new());
        }
        let (general, ladders) = Self::general_plan(csr, &ranges, config, true);
        let shares: Vec<_> = ladders.iter().map(|l| l.rungs[l.chosen].seconds).collect();
        // Timed as the serial apply runs it: zeroed scratch, slabs, tree
        // reduction, accumulate.
        let seconds = PreparedMatrix::materialize(csr, &symmetric).ok().map(|m| {
            let mut scratch = Vec::new();
            time_spmv(csr.nrows(), csr.ncols(), LADDER_RUNS, 1, |x, y| {
                m.apply(x, y, &mut scratch)
            })
        });
        let plan = if general_beats_symmetric(seconds, &shares) {
            general
        } else {
            symmetric
        };
        (plan, ladders)
    }

    /// Plan a matrix the caller *declares* symmetric. Verifies the declaration
    /// (exact pattern-and-value symmetry) and fails otherwise, instead of
    /// silently producing wrong products.
    pub fn new_symmetric(
        csr: &CsrMatrix,
        nthreads: usize,
        config: &TuningConfig,
    ) -> Result<TunePlan> {
        if !crate::formats::symcsr::is_symmetric(csr) {
            return Err(Error::InvalidStructure(
                "matrix declared symmetric is not (pattern or values differ from transpose)"
                    .to_string(),
            ));
        }
        let partition = partition_rows_balanced(csr, nthreads);
        Ok(Self::symmetric_plan(csr, &partition.ranges, config))
    }

    /// The symmetric planning pass: one lower-triangle slab decision per thread,
    /// chosen by footprint among `SymCsr`/`SymBcsr` × shapes × index widths.
    /// The caller has already established symmetry.
    fn symmetric_plan(csr: &CsrMatrix, ranges: &[Range<usize>], config: &TuningConfig) -> TunePlan {
        Self::plan_over_partition(csr, ranges, true, |local, range| {
            let decision =
                crate::tuning::heuristic::plan_symmetric_thread(local, range.start, config);
            // A `SymBcsr` r×4 slab runs the vector kernel under the general rule.
            ThreadPlan::annotated(range.clone(), vec![decision], config)
        })
    }

    /// Plan `csr` over an explicit row partition (general pipeline only), for
    /// callers that balance rows by something other than nonzero count.
    pub fn from_partition(
        csr: &CsrMatrix,
        ranges: &[Range<usize>],
        config: &TuningConfig,
    ) -> TunePlan {
        Self::general_plan(csr, ranges, config, true).0
    }

    fn general_plan(
        csr: &CsrMatrix,
        ranges: &[Range<usize>],
        config: &TuningConfig,
        timed: bool,
    ) -> (TunePlan, Vec<ShareLadder>) {
        let mut ladders = Vec::with_capacity(ranges.len());
        let plan = Self::plan_over_partition(csr, ranges, false, |local, range| {
            if !timed {
                // The finest grid's byte minimum: the full ladder's last rung.
                let rungs = ladder_rungs(local, config, true);
                let finest = rungs.last().expect("rung A is always proposed");
                return ThreadPlan::annotated(range.clone(), finest.decisions.clone(), config);
            }
            let ladder = ShareLadder::timed(local, range, config);
            let plan = ladder.rungs[ladder.chosen].plan.clone();
            ladders.push(ladder);
            plan
        });
        (plan, ladders)
    }

    /// The planning sequence the general and symmetric pipelines share: slice
    /// the matrix along the row partition, run `plan_thread` on every local
    /// block (the paper tunes each thread's share in isolation), and assemble
    /// the per-thread plans with the matrix's shape metadata.
    fn plan_over_partition(
        csr: &CsrMatrix,
        ranges: &[Range<usize>],
        symmetric: bool,
        mut plan_thread: impl FnMut(&CsrMatrix, &Range<usize>) -> ThreadPlan,
    ) -> TunePlan {
        let threads = ranges
            .iter()
            .map(|range| {
                let local = csr.row_slice(range.start, range.end);
                plan_thread(&local, range)
            })
            .collect();
        TunePlan {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            symmetric,
            threads,
        }
    }

    /// Number of thread blocks the plan describes.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The row partition the plan encodes.
    pub fn row_partition(&self) -> RowPartition {
        RowPartition {
            ranges: self.threads.iter().map(|t| t.rows.clone()).collect(),
        }
    }

    /// Predicted bytes of the fully materialized structure.
    pub fn planned_bytes(&self) -> usize {
        self.threads.iter().map(|t| t.planned_bytes()).sum()
    }

    /// Check the plan matches `csr`: same shape and nonzero count, a row
    /// partition that tiles the matrix, and general shares whose cells cover
    /// each share's nonzeros exactly once. A plan loaded from disk must pass
    /// this before materialization.
    pub fn validate_for(&self, csr: &CsrMatrix) -> Result<()> {
        if self.nrows != csr.nrows() || self.ncols != csr.ncols() {
            return Err(Error::DimensionMismatch {
                expected: self.nrows,
                found: csr.nrows(),
                what: "plan matrix shape",
            });
        }
        if self.nnz != csr.nnz() {
            return Err(Error::InvalidStructure(format!(
                "plan expects {} nonzeros, matrix has {}",
                self.nnz,
                csr.nnz()
            )));
        }
        // Well-formed ranges first: `RowPartition::covers` assumes ordered ranges,
        // so a reversed range from a hand-edited profile must be caught here (it
        // would otherwise panic deep inside `row_slice`/`sub_block`).
        for t in &self.threads {
            if t.rows.start > t.rows.end {
                return Err(Error::InvalidStructure(format!(
                    "plan thread range {:?} is reversed",
                    t.rows
                )));
            }
            for d in &t.decisions {
                if d.rows.start > d.rows.end || d.cols.start > d.cols.end {
                    return Err(Error::InvalidStructure(format!(
                        "plan block range {:?}x{:?} is reversed",
                        d.rows, d.cols
                    )));
                }
                check_sell(&d.choice, self.symmetric)?;
            }
        }
        if !self.row_partition().covers(self.nrows) {
            return Err(Error::InvalidStructure(
                "plan row partition does not tile the matrix".to_string(),
            ));
        }
        // Symmetric plans: square matrix, exactly one lower-triangle slab
        // decision per thread; general plans must not carry symmetric kinds
        // (a hand-edited profile mixing the two would break the executors'
        // disjoint-write/scratch-reduction assumptions).
        if self.symmetric {
            if self.nrows != self.ncols {
                return Err(Error::InvalidStructure(
                    "symmetric plan requires a square matrix".to_string(),
                ));
            }
            for t in &self.threads {
                if t.decisions.len() != 1 || !t.decisions[0].choice.kind.is_symmetric() {
                    return Err(Error::InvalidStructure(
                        "symmetric plan threads must hold exactly one symmetric slab decision"
                            .to_string(),
                    ));
                }
            }
        } else {
            for t in &self.threads {
                if t.decisions.iter().any(|d| d.choice.kind.is_symmetric()) {
                    return Err(Error::InvalidStructure(
                        "symmetric slab decisions appear in a plan not marked symmetric"
                            .to_string(),
                    ));
                }
                check_cover(t, csr)?;
            }
        }
        Ok(())
    }

    /// Serialize as the plain-text profile format (see module docs). The format is
    /// line-oriented and versioned; floats use Rust's shortest round-trip notation.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{PLAN_HEADER}");
        let _ = writeln!(out, "matrix {} {} {}", self.nrows, self.ncols, self.nnz);
        let _ = writeln!(out, "threads {}", self.threads.len());
        if self.symmetric {
            out.push_str("symmetric\n");
        }
        for t in &self.threads {
            let simd = if t.simd { " simd" } else { "" };
            let _ = writeln!(out, "thread {} {}{simd}", t.rows.start, t.rows.end);
            for d in &t.decisions {
                let _ = writeln!(
                    out,
                    "block {} {} {} {} {} {} {} {} {} {} {}",
                    d.rows.start,
                    d.rows.end,
                    d.cols.start,
                    d.cols.end,
                    kind_name(d.choice.kind),
                    d.choice.r,
                    d.choice.c,
                    width_name(d.choice.width),
                    d.nnz,
                    d.choice.bytes,
                    d.choice.fill_ratio
                );
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parse the plain-text profile format written by [`TunePlan::to_text`].
    ///
    /// A `simd` annotation in the profile is honored only when this host's
    /// runtime feature probe succeeds; otherwise the plan degrades to the
    /// scalar kernels with a warning (never a panic, never a silent
    /// miscompute — the scalar ladder computes the same product).
    pub fn from_text(text: &str) -> Result<TunePlan> {
        Self::from_text_with_simd_support(text, crate::kernels::simd::available())
    }

    /// [`TunePlan::from_text`] with the host capability made explicit, so the
    /// degrade path is testable on any machine.
    pub fn from_text_with_simd_support(text: &str, simd_supported: bool) -> Result<TunePlan> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let header = lines.next().ok_or_else(|| parse_err("empty plan"))?;
        if header != PLAN_HEADER {
            return Err(parse_err(&format!(
                "unknown plan header '{header}' (expected '{PLAN_HEADER}')"
            )));
        }
        let matrix = fields(
            lines
                .next()
                .ok_or_else(|| parse_err("missing matrix line"))?,
        )?;
        let [nrows, ncols, nnz] = expect_tag(&matrix, "matrix", 3)?[..] else {
            unreachable!("expect_tag returned 3 fields")
        };
        let thread_count_line = fields(
            lines
                .next()
                .ok_or_else(|| parse_err("missing threads line"))?,
        )?;
        let [nthreads] = expect_tag(&thread_count_line, "threads", 1)?[..] else {
            unreachable!("expect_tag returned 1 field")
        };

        let mut threads: Vec<ThreadPlan> = Vec::with_capacity(nthreads);
        let mut symmetric = false;
        let mut saw_end = false;
        let mut warned_simd = false;
        for line in lines {
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks[0] {
                "symmetric" => {
                    if !threads.is_empty() {
                        return Err(parse_err("'symmetric' must precede the thread lines"));
                    }
                    symmetric = true;
                }
                "thread" => {
                    let simd_tok = match toks.len() {
                        3 => false,
                        4 if toks[3] == "simd" => true,
                        _ => return Err(parse_err(&format!("malformed thread line '{line}'"))),
                    };
                    if simd_tok && !simd_supported && !warned_simd {
                        eprintln!(
                            "spmv: plan profile requests SIMD kernels this host lacks; \
                             degrading to the scalar kernel ladder"
                        );
                        warned_simd = true;
                    }
                    threads.push(ThreadPlan {
                        rows: parse_usize(toks[1])?..parse_usize(toks[2])?,
                        simd: simd_tok && simd_supported,
                        decisions: Vec::new(),
                    });
                }
                "block" => {
                    if toks.len() != 12 {
                        return Err(parse_err(&format!("malformed block line '{line}'")));
                    }
                    let thread = threads
                        .last_mut()
                        .ok_or_else(|| parse_err("block line before any thread line"))?;
                    let choice = FormatChoice {
                        kind: parse_kind(toks[5])?,
                        r: parse_usize(toks[6])?,
                        c: parse_usize(toks[7])?,
                        width: parse_width(toks[8])?,
                        bytes: parse_usize(toks[10])?,
                        fill_ratio: toks[11]
                            .parse::<f64>()
                            .map_err(|e| parse_err(&e.to_string()))?,
                    };
                    check_sell(&choice, symmetric)?;
                    thread.decisions.push(BlockDecision {
                        rows: parse_usize(toks[1])?..parse_usize(toks[2])?,
                        cols: parse_usize(toks[3])?..parse_usize(toks[4])?,
                        choice,
                        nnz: parse_usize(toks[9])?,
                    });
                }
                "end" => {
                    saw_end = true;
                    break;
                }
                other => return Err(parse_err(&format!("unknown plan directive '{other}'"))),
            }
        }
        if !saw_end {
            return Err(parse_err("plan is truncated (missing 'end')"));
        }
        if threads.len() != nthreads {
            return Err(parse_err(&format!(
                "plan declares {} threads but lists {}",
                nthreads,
                threads.len()
            )));
        }
        Ok(TunePlan {
            nrows,
            ncols,
            nnz,
            symmetric,
            threads,
        })
    }

    /// Write the plan profile to `path`.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Load a plan profile from `path`.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<TunePlan> {
        let text = std::fs::read_to_string(path).map_err(|e| Error::Parse(e.to_string()))?;
        TunePlan::from_text(&text)
    }
}

/// A general share's cells must cover its nonzeros exactly once: each inside
/// the share, no two overlapping, their nonzeros summing to the share's. Each
/// cell's own count is checked at materialization, so a dropped or repeated
/// cell would otherwise pass and compute a wrong product.
fn check_cover(t: &ThreadPlan, csr: &CsrMatrix) -> Result<()> {
    let refuse = |what: String| {
        Err(Error::InvalidStructure(format!(
            "plan thread {:?}: {what}",
            t.rows
        )))
    };
    let (nrows, ncols) = (t.rows.end - t.rows.start, csr.ncols());
    if let Some(d) = t
        .decisions
        .iter()
        .find(|d| d.rows.end > nrows || d.cols.end > ncols)
    {
        return refuse(format!(
            "block {:?}x{:?} lies outside the share",
            d.rows, d.cols
        ));
    }
    // Checked: the counts come from the profile text.
    let planned = t
        .decisions
        .iter()
        .try_fold(0usize, |sum, d| sum.checked_add(d.nnz));
    let share_nnz = csr.row_ptr()[t.rows.end] - csr.row_ptr()[t.rows.start];
    if planned != Some(share_nnz) {
        return refuse(format!(
            "block nonzeros do not sum to the share's {share_nnz}"
        ));
    }
    // Sweep the cells by first row: the cells still open at that row all span
    // it, so they are column-disjoint, and a new cell overlaps one of them only
    // if its column-order predecessor reaches into it or one starts inside it.
    let mut cells: Vec<&BlockDecision> = t
        .decisions
        .iter()
        .filter(|d| !d.rows.is_empty() && !d.cols.is_empty())
        .collect();
    cells.sort_by_key(|d| d.rows.start);
    let mut open: BTreeMap<usize, (usize, usize)> = BTreeMap::new(); // col start -> (col end, row end)
    for d in cells {
        open.retain(|_, &mut (_, row_end)| row_end > d.rows.start);
        let reached = open.range(..=d.cols.start).next_back();
        if reached.is_some_and(|(_, &(col_end, _))| col_end > d.cols.start)
            || open.range(d.cols.clone()).next().is_some()
        {
            return refuse(format!("block {:?}x{:?} overlaps another", d.rows, d.cols));
        }
        open.insert(d.cols.start, (d.cols.end, d.rows.end));
    }
    Ok(())
}

/// Sliced ELL has no register shape and no symmetric form: a profile that says
/// otherwise is refused, at load and again before materialization.
fn check_sell(choice: &FormatChoice, symmetric: bool) -> Result<()> {
    if choice.kind == FormatKind::Sell && (symmetric || (choice.r, choice.c) != (1, 1)) {
        return Err(Error::InvalidStructure(format!(
            "sell block planned {}x{} (symmetric plan: {symmetric}): sliced ELL is 1x1, general plans only",
            choice.r, choice.c
        )));
    }
    Ok(())
}

fn kind_name(kind: FormatKind) -> &'static str {
    kind.token()
}

fn width_name(width: IndexWidth) -> &'static str {
    match width {
        IndexWidth::U16 => "u16",
        IndexWidth::U32 => "u32",
    }
}

fn parse_kind(tok: &str) -> Result<FormatKind> {
    FormatKind::from_token(tok).ok_or_else(|| parse_err(&format!("unknown format kind '{tok}'")))
}

fn parse_width(tok: &str) -> Result<IndexWidth> {
    Ok(match tok {
        "u16" => IndexWidth::U16,
        "u32" => IndexWidth::U32,
        other => return Err(parse_err(&format!("unknown index width '{other}'"))),
    })
}

fn parse_err(msg: &str) -> Error {
    Error::Parse(format!("tune plan: {msg}"))
}

fn parse_usize(tok: &str) -> Result<usize> {
    tok.parse::<usize>().map_err(|e| parse_err(&e.to_string()))
}

fn fields(line: &str) -> Result<Vec<String>> {
    Ok(line.split_whitespace().map(str::to_string).collect())
}

fn expect_tag(toks: &[String], tag: &str, args: usize) -> Result<Vec<usize>> {
    if toks.len() != args + 1 || toks[0] != tag {
        return Err(parse_err(&format!(
            "expected '{tag}' line with {args} fields"
        )));
    }
    toks[1..].iter().map(|t| parse_usize(t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::CooMatrix;
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

    #[test]
    fn plan_partitions_and_covers() {
        let csr = random_csr(400, 300, 5000, 1);
        let plan = TunePlan::new(&csr, 4, &TuningConfig::full());
        assert_eq!(plan.num_threads(), 4);
        assert!(plan.row_partition().covers(400));
        assert!(plan.validate_for(&csr).is_ok());
        assert_eq!(
            plan.threads.iter().map(|t| t.planned_nnz()).sum::<usize>(),
            csr.nnz()
        );
        assert!(plan.planned_bytes() > 0);
    }

    #[test]
    fn text_round_trip_is_exact() {
        let csr = random_csr(250, 180, 3000, 2);
        for config in [
            TuningConfig::naive(),
            TuningConfig::register_only(),
            TuningConfig::full(),
        ] {
            let plan = TunePlan::new(&csr, 3, &config);
            let back = TunePlan::from_text(&plan.to_text()).expect("round trip parses");
            assert_eq!(plan, back, "config {config:?}");
        }
    }

    #[test]
    fn save_load_round_trip() {
        let csr = random_csr(120, 90, 900, 3);
        let plan = TunePlan::new(&csr, 2, &TuningConfig::full());
        let path = std::env::temp_dir().join("spmv_tune_plan_test.profile");
        plan.save(&path).expect("save plan");
        let back = TunePlan::load(&path).expect("load plan");
        std::fs::remove_file(&path).ok();
        assert_eq!(plan, back);
    }

    #[test]
    fn parser_rejects_malformed_profiles() {
        assert!(TunePlan::from_text("").is_err());
        assert!(TunePlan::from_text("not-a-plan v1\n").is_err());
        let parse = |body: &str| TunePlan::from_text(&format!("{PLAN_HEADER}\n{body}"));
        assert!(parse("matrix 1 1 0\nthreads 1\n").is_err()); // truncated
        assert!(parse("matrix 1 1 0\nthreads 2\nthread 0 1\nend\n").is_err()); // thread count mismatch
        assert!(
            parse("matrix 1 1 0\nthreads 1\nblock 0 1 0 1 csr 1 1 u32 0 0 1.0\nend\n").is_err()
        ); // block before thread
    }

    #[test]
    fn validate_rejects_mismatched_matrix() {
        let csr = random_csr(100, 100, 800, 4);
        let plan = TunePlan::new(&csr, 2, &TuningConfig::full());
        let other = random_csr(100, 100, 700, 5);
        assert!(plan.validate_for(&other).is_err());
        let wrong_shape = random_csr(90, 100, 800, 6);
        assert!(plan.validate_for(&wrong_shape).is_err());
    }

    #[test]
    fn validate_rejects_reversed_ranges() {
        // A hand-edited profile with a reversed thread range must fail validation
        // cleanly (not panic later inside row_slice/sub_block).
        let csr = random_csr(10, 10, 40, 9);
        let text = format!(
            "{PLAN_HEADER}\nmatrix 10 10 {}\nthreads 3\n\
             thread 0 5\nthread 5 2\nthread 2 10\nend\n",
            csr.nnz()
        );
        let text = text.as_str();
        let plan = TunePlan::from_text(text).expect("syntactically valid");
        assert!(plan.validate_for(&csr).is_err());

        // Reversed block-decision ranges are rejected too.
        let mut plan = TunePlan::new(&csr, 1, &TuningConfig::naive());
        for d in &mut plan.threads[0].decisions {
            d.rows = d.rows.end..d.rows.start;
        }
        assert!(plan.validate_for(&csr).is_err());
    }

    #[test]
    fn simd_annotation_round_trips_on_capable_hosts() {
        let csr = random_csr(200, 150, 2500, 10);
        let plan = TunePlan::new(&csr, 2, &TuningConfig::full());
        let expect_simd = crate::kernels::simd::available();
        assert!(plan.threads.iter().all(|t| t.simd == expect_simd));
        let text = plan.to_text();
        assert_eq!(text.contains(" simd"), expect_simd);
        let back = TunePlan::from_text(&text).expect("round trip parses");
        assert_eq!(plan, back);
    }

    #[test]
    fn simd_profile_degrades_to_scalar_on_unsupported_hosts() {
        // The load must not panic and must not keep the knob on: a host without
        // the feature set silently running the vector path would miscompute (or
        // crash on illegal instructions); the scalar ladder computes the same
        // product, so degrading is always safe.
        let csr = random_csr(60, 60, 500, 11);
        let mut plan = TunePlan::new(&csr, 2, &TuningConfig::naive());
        for t in &mut plan.threads {
            t.simd = true;
        }
        let text = plan.to_text();
        assert!(text.contains(" simd"));

        let degraded =
            TunePlan::from_text_with_simd_support(&text, false).expect("degrades, not errors");
        assert!(degraded.threads.iter().all(|t| !t.simd));
        assert!(degraded.validate_for(&csr).is_ok());

        let kept = TunePlan::from_text_with_simd_support(&text, true).expect("parses");
        assert!(kept.threads.iter().all(|t| t.simd));
        assert_eq!(kept, plan);
    }

    #[test]
    fn malformed_simd_token_is_rejected() {
        let text = format!("{PLAN_HEADER}\nmatrix 1 1 0\nthreads 1\nthread 0 1 vectorize\nend\n");
        assert!(TunePlan::from_text(&text).is_err());
    }

    #[test]
    fn empty_matrix_plans_empty_threads() {
        let csr = CsrMatrix::from_coo(&CooMatrix::new(0, 10));
        let plan = TunePlan::new(&csr, 3, &TuningConfig::full());
        assert_eq!(plan.num_threads(), 3);
        assert!(plan.threads.iter().all(|t| t.decisions.is_empty()));
        assert!(plan.validate_for(&csr).is_ok());
        let back = TunePlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(plan, back);
    }
}
