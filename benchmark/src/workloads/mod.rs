//! The four workloads and what they share: the run context, timed set-up
//! repetition and matrix construction.

pub mod cg_solve;
pub mod net_common;
pub mod net_interference;
pub mod net_open;
pub mod spmv_lib;

use crate::constants::SETUP_REPS;
use crate::host::{Host, Roof};
use crate::inputs::make_spd;
use crate::stats::median;
use spmv_core::formats::CsrMatrix;
use spmv_matrices::{Scale, SuiteMatrix};
use std::time::Instant;

/// Everything a workload is told about the run.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics, spans and the ladder instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// `--smoke`: `Scale::Tiny` everywhere and one set-up.
    pub smoke: bool,
    pub host: Host,
    /// Measured only in traced runs.
    pub roof: Option<Roof>,
    /// The run's clock: samples are stamped against it so that they can be
    /// summarized slice by slice.
    pub clock: Instant,
}

impl Ctx {
    pub fn scale(&self, committed: Scale) -> Scale {
        if self.smoke {
            Scale::Tiny
        } else {
            committed
        }
    }

    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    /// `t` in seconds on the run's clock.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.clock).as_secs_f64()
    }

    /// Engine threads of the in-process workloads.
    pub fn nproc(&self) -> usize {
        self.host.nproc
    }
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Set the workload up `ctx.setup_reps()` times and run `measure` on **each**
/// set-up for an equal share of the window, tearing each down before the next.
///
/// Measuring on every set-up, not only the last, is what keeps runs
/// comparable: where a set-up's pages land decides its cache conflicts for as
/// long as it lives, so one set-up per run would make that draw a per-run
/// constant (±10 % on the two-thread paths of the seed). Samples pooled over
/// the set-ups average it out.
///
/// `measure(fixture, seconds)` receives its share of `ctx.seconds`. Returns
/// the last fixture (for layer probes), the median wall time of a set-up
/// (`setup_s`) and the per-step medians (each set-up reports its steps in the
/// same order).
pub fn measure_over_setups<F>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> (F, Vec<f64>),
    mut measure: impl FnMut(&mut F, f64),
) -> (F, f64, Vec<f64>) {
    let reps = ctx.setup_reps();
    let mut totals = Vec::with_capacity(reps);
    let mut steps: Vec<Vec<f64>> = Vec::new();
    let mut fixture = None;
    for _ in 0..reps {
        // Tear the previous set-up down first (outside the timed region), so
        // no two are ever resident and every repetition starts the same.
        drop(fixture.take());
        let ((mut f, step_times), total) = timed(&mut setup);
        totals.push(total);
        steps.push(step_times);
        measure(&mut f, ctx.seconds / reps as f64);
        fixture = Some(f);
    }
    let step_medians = (0..steps[0].len())
        .map(|i| median(&mut steps.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .collect();
    (
        fixture.expect("at least one set-up repetition"),
        median(&mut totals),
        step_medians,
    )
}

/// Generate a suite matrix and convert it to CSR; returns the seconds spent.
pub fn generate_csr(matrix: SuiteMatrix, scale: Scale) -> (CsrMatrix, f64) {
    timed(|| CsrMatrix::from_coo(&matrix.generate(scale)))
}

/// The symmetric variant of a suite matrix made positive definite (see
/// [`make_spd`]), as CSR.
pub fn generate_spd_csr(matrix: SuiteMatrix, scale: Scale, dominance: f64) -> (CsrMatrix, f64) {
    timed(|| {
        let sym = matrix
            .generate_symmetric(scale)
            .expect("the committed solver matrix is symmetric in Table 3");
        CsrMatrix::from_coo(&make_spd(&sym, dominance))
    })
}
