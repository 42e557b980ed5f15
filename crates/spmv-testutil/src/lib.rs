//! # spmv-testutil
//!
//! Shared test utilities for the SpMV workspace, extracted from the helpers the
//! integration tests used to copy-paste:
//!
//! * **Seeded deterministic generators** — general/rectangular random matrices,
//!   exactly-symmetric matrices, banded matrices, empty-row patterns, and the
//!   pathological single-row/single-column shapes that break kernels.
//! * **Dense references** — triplet-driven SpMV/SpMM products no sparse format
//!   can get wrong, for agreement checks.
//! * **Comparison helpers** — max-abs-diff (re-exported from `spmv_core`),
//!   ULP distance for tight relative-tolerance checks, and exact bit-identity
//!   assertions for the paths that guarantee it.
//! * **Plan helpers** — tune-plan equivalence assertions (two plans for the
//!   same matrix must compute the same products) and compact golden-snapshot
//!   rendering for the autotuning suites.
//!
//! Everything is deterministic in the seed, so failures reproduce.

//! The [`netfault`] module adds a deterministic fault-injecting TCP proxy
//! for the networked serving tests.

pub mod netfault;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_core::multivec::MultiVec;
use spmv_core::tuning::plan::TunePlan;
use spmv_core::tuning::prepared::PreparedMatrix;

pub use spmv_core::dense::max_abs_diff;

// ---------------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------------

/// Random rectangular matrix with up to `nnz` entries (duplicates collapse).
pub fn random_coo(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(nrows, ncols);
    for _ in 0..nnz {
        coo.push(
            rng.random_range(0..nrows),
            rng.random_range(0..ncols),
            rng.random_range(-1.0..1.0),
        );
    }
    coo
}

/// [`random_coo`] converted to CSR — the generator every integration test used
/// to re-implement.
pub fn random_csr(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    CsrMatrix::from_coo(&random_coo(nrows, ncols, nnz, seed))
}

/// Exactly-symmetric `n × n` matrix: `lower_nnz` random lower-triangle entries,
/// each off-diagonal one mirrored with the identical value, so
/// `spmv_core::formats::is_symmetric` holds bitwise.
pub fn random_symmetric_csr(n: usize, lower_nnz: usize, seed: u64) -> CsrMatrix {
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

/// Banded matrix: every entry within `half_bandwidth` of the diagonal, with a
/// guaranteed nonzero diagonal. Symmetric when `symmetric` is set (mirrored
/// values), the FEM/stencil profile register blocking likes.
pub fn banded_csr(n: usize, half_bandwidth: usize, symmetric: bool, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0 + rng.random_range(0.0..1.0));
        let lo = i.saturating_sub(half_bandwidth);
        for j in lo..i {
            if rng.random_range(0.0..1.0) < 0.6 {
                let v = rng.random_range(-1.0..1.0);
                coo.push(i, j, v);
                if symmetric {
                    coo.push(j, i, v);
                } else if rng.random_range(0.0..1.0) < 0.6 {
                    coo.push(j, i, rng.random_range(-1.0..1.0));
                }
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// A matrix whose rows are mostly empty (exercises the GCSR/BCOO choices and
/// every kernel's empty-row handling).
pub fn empty_row_csr(nrows: usize, ncols: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(nrows, ncols);
    coo.push(0, 0, 1.5);
    coo.push(0, ncols - 1, -2.0);
    coo.push(nrows / 2, 2 % ncols, 4.0);
    coo.push(nrows / 2, 3 % ncols, 0.5);
    coo.push(nrows - 1, ncols / 2, 3.0);
    CsrMatrix::from_coo(&coo)
}

/// Pathological single-row matrix (`1 × ncols`, dense-ish row).
pub fn single_row_csr(ncols: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(1, ncols);
    for j in 0..ncols {
        if rng.random_range(0.0..1.0) < 0.7 {
            coo.push(0, j, rng.random_range(-3.0..3.0));
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Pathological single-column matrix (`nrows × 1`).
pub fn single_col_csr(nrows: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(nrows, 1);
    for i in 0..nrows {
        if rng.random_range(0.0..1.0) < 0.7 {
            coo.push(i, 0, rng.random_range(-3.0..3.0));
        }
    }
    CsrMatrix::from_coo(&coo)
}

// ---------------------------------------------------------------------------
// Random-case harness (the property tests' fuzz driver)
// ---------------------------------------------------------------------------

/// One random test case: possibly rectangular, possibly with empty
/// rows/columns, as raw triplets so a dense reference needs no sparse code.
pub struct Case {
    /// Rows of the case matrix.
    pub nrows: usize,
    /// Columns of the case matrix.
    pub ncols: usize,
    /// `(row, col, value)` triplets; duplicates are legal (they sum).
    pub entries: Vec<(usize, usize, f64)>,
}

impl Case {
    /// The case as a COO matrix.
    pub fn coo(&self) -> CooMatrix {
        CooMatrix::from_triplets(self.nrows, self.ncols, self.entries.iter().copied())
            .expect("case entries are in range by construction")
    }

    /// The case as a CSR matrix.
    pub fn csr(&self) -> CsrMatrix {
        CsrMatrix::from_coo(&self.coo())
    }

    /// Dense reference product computed straight from the triplets.
    pub fn dense_reference(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        for &(r, c, v) in &self.entries {
            y[r] += v * x[c];
        }
        y
    }
}

/// Deterministic random cases, biased toward the shapes that break kernels:
/// rectangular matrices, rows at the boundary of a register block, empty rows,
/// single-row/single-column shapes, and the empty matrix itself.
pub fn cases(count: usize, seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count + 4);
    // Always include the pathological fixed cases.
    out.push(Case {
        nrows: 1,
        ncols: 1,
        entries: vec![],
    });
    out.push(Case {
        nrows: 7,
        ncols: 3,
        entries: vec![(0, 0, 1.0), (6, 2, -2.0)], // first/last rows only
    });
    out.push(Case {
        nrows: 1,
        ncols: 9,
        entries: vec![(0, 0, 2.0), (0, 8, -1.0)], // single row
    });
    out.push(Case {
        nrows: 9,
        ncols: 1,
        entries: vec![(3, 0, 4.0), (8, 0, 0.5)], // single column
    });
    for _ in 0..count {
        let nrows = rng.random_range(1..40usize);
        let ncols = rng.random_range(1..40usize);
        let nnz = rng.random_range(0..200usize);
        let mut entries = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            entries.push((
                rng.random_range(0..nrows),
                rng.random_range(0..ncols),
                rng.random_range(-10.0..10.0),
            ));
        }
        out.push(Case {
            nrows,
            ncols,
            entries,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Deterministic operands
// ---------------------------------------------------------------------------

/// A source vector with deterministic, non-trivial contents.
pub fn test_x(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect()
}

/// A deterministic column-major `ncols × k` source block for SpMM tests.
pub fn xblock(ncols: usize, k: usize) -> MultiVec {
    let cols: Vec<Vec<f64>> = (0..k)
        .map(|j| {
            (0..ncols)
                .map(|i| ((i * 31 + j * 17 + 5) % 97) as f64 * 0.125 - 6.0)
                .collect()
        })
        .collect();
    let views: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    MultiVec::from_columns(&views)
}

// ---------------------------------------------------------------------------
// Dense references
// ---------------------------------------------------------------------------

/// Dense SpMV reference straight off a CSR structure: `y = A·x` (allocating).
pub fn dense_spmv(csr: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; csr.row_ptr().len() - 1];
    for (r, c, v) in csr.iter() {
        y[r] += v * x[c];
    }
    y
}

/// Dense SpMM reference: column `j` of the result is [`dense_spmv`] of column
/// `j` of the source block.
pub fn dense_spmm(csr: &CsrMatrix, x: &MultiVec) -> MultiVec {
    let nrows = csr.row_ptr().len() - 1;
    let mut y = MultiVec::zeros(nrows, x.k());
    for j in 0..x.k() {
        let col = dense_spmv(csr, x.col(j));
        y.col_mut(j).copy_from_slice(&col);
    }
    y
}

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

/// ULP distance between two doubles (0 = bit-identical equality, `u64::MAX`
/// when either value is NaN). Opposite-sign pairs measure *through* zero
/// (distance-to-zero of each magnitude, saturating), so two near-zero
/// cancellation results of opposite sign count as a tiny distance rather than
/// an automatic failure.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0; // covers +0.0 vs -0.0 too
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    let ia = a.abs().to_bits();
    let ib = b.abs().to_bits();
    if (a < 0.0) != (b < 0.0) {
        ia.saturating_add(ib)
    } else {
        ia.abs_diff(ib)
    }
}

/// Largest element-wise ULP distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_ulp_distance(a: &[f64], b: &[f64]) -> u64 {
    assert_eq!(a.len(), b.len(), "ULP comparison of unequal-length vectors");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ulp_distance(x, y))
        .max()
        .unwrap_or(0)
}

/// Assert two vectors are element-wise within `max_ulps` ULPs, with context.
///
/// # Panics
///
/// Panics (test failure) when any element pair is farther apart.
pub fn assert_ulps_within(a: &[f64], b: &[f64], max_ulps: u64, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let d = ulp_distance(x, y);
        assert!(
            d <= max_ulps,
            "{context}: element {i} differs by {d} ULPs ({x} vs {y})"
        );
    }
}

/// Assert two vectors are **bit-identical**, with context — for the paths
/// (serial vs parallel of the same plan) that guarantee it.
///
/// # Panics
///
/// Panics (test failure) on the first differing element.
pub fn assert_bit_identical(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{context}: element {i} not bit-identical ({x:?} vs {y:?})"
        );
    }
}

// ---------------------------------------------------------------------------
// Tune-plan helpers
// ---------------------------------------------------------------------------

/// Materialize `plan` serially and return its SpMV output on [`test_x`] and
/// its SpMM output on a 3-column [`xblock`] — the observable behaviour two
/// equivalent plans must share.
pub fn plan_outputs(csr: &CsrMatrix, plan: &TunePlan) -> (Vec<f64>, MultiVec) {
    use spmv_core::{MatrixShape, SpMv};
    let prepared = PreparedMatrix::materialize(csr, plan).expect("plan matches its matrix");
    let x = test_x(csr.ncols());
    let mut y = vec![0.0; csr.nrows()];
    prepared.spmv(&x, &mut y);
    let xs = xblock(csr.ncols(), 3);
    let mut ys = MultiVec::zeros(csr.nrows(), 3);
    prepared.spmm(&xs, &mut ys);
    (y, ys)
}

/// One plan decision flattened to global coordinates with the properties that
/// determine floating-point accumulation order: block boundaries, format
/// kind, register block shape, and the owning thread's SIMD knob (the vector
/// kernels use FMA and reassociate row sums, so SIMD and scalar executions of
/// the same decisions are different accumulation classes). Index width is
/// deliberately excluded — it changes bytes, never arithmetic.
type DecisionSignature = (
    usize,
    usize,
    usize,
    usize,
    spmv_core::tuning::FormatKind,
    usize,
    usize,
    bool,
);

fn decision_signature(plan: &TunePlan) -> Vec<DecisionSignature> {
    plan.threads
        .iter()
        .flat_map(|t| {
            t.decisions.iter().map(move |d| {
                (
                    t.rows.start + d.rows.start,
                    t.rows.start + d.rows.end,
                    d.cols.start,
                    d.cols.end,
                    d.choice.kind,
                    d.choice.r,
                    d.choice.c,
                    t.simd,
                )
            })
        })
        .collect()
}

/// Whether two plans are in the same *accumulation class*, i.e. their serial
/// executions perform the identical element-wise additions in the identical
/// order, making their outputs bit-identical: the flattened block decisions
/// (boundaries, format kind, register shape, SIMD knob) must match —
/// different formats reassociate a row's partial sums (tile-local
/// accumulators, block splits), and the SIMD microkernels contract
/// multiply-adds through FMA — and symmetric plans must additionally share
/// the row partition (the scratch tree reduction depends on slab count and
/// boundaries). Index width never changes the arithmetic, so it may differ.
pub fn same_accumulation_class(a: &TunePlan, b: &TunePlan) -> bool {
    if a.symmetric != b.symmetric {
        return false;
    }
    if a.symmetric && a.row_partition().ranges != b.row_partition().ranges {
        return false;
    }
    decision_signature(a) == decision_signature(b)
}

/// Assert two plans for the same matrix compute equivalent products:
/// **bit-identical** when [`same_accumulation_class`] holds, within a scaled
/// absolute tolerance otherwise (crossing the symmetric/general boundary
/// reassociates sums).
///
/// # Panics
///
/// Panics (test failure) when the outputs diverge.
pub fn assert_plans_equivalent(csr: &CsrMatrix, a: &TunePlan, b: &TunePlan, context: &str) {
    let (ya, sa) = plan_outputs(csr, a);
    let (yb, sb) = plan_outputs(csr, b);
    if same_accumulation_class(a, b) {
        assert_bit_identical(&ya, &yb, &format!("{context}: spmv"));
        assert_bit_identical(sa.data(), sb.data(), &format!("{context}: spmm"));
    } else {
        let scale = ya.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let tol = 1e-12 * scale;
        assert!(
            max_abs_diff(&ya, &yb) <= tol,
            "{context}: spmv diverged beyond {tol:e}"
        );
        assert!(
            max_abs_diff(sa.data(), sb.data()) <= tol,
            "{context}: spmm diverged beyond {tol:e}"
        );
    }
}

/// A compact, deterministic, human-diffable rendering of a plan for golden
/// tests: one header line plus one line per thread listing its row range and
/// every block decision as
/// `kind[rxc]/width@rows x cols`.
pub fn plan_snapshot(plan: &TunePlan) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "plan {}x{} nnz={} threads={} symmetric={}",
        plan.nrows,
        plan.ncols,
        plan.nnz,
        plan.num_threads(),
        plan.symmetric
    );
    for (i, t) in plan.threads.iter().enumerate() {
        let blocks: Vec<String> = t
            .decisions
            .iter()
            .map(|d| {
                let shape = if d.choice.r == 1 && d.choice.c == 1 {
                    String::new()
                } else {
                    format!("{}x{}", d.choice.r, d.choice.c)
                };
                let width = match d.choice.width {
                    spmv_core::formats::IndexWidth::U16 => "u16",
                    spmv_core::formats::IndexWidth::U32 => "u32",
                };
                format!(
                    "{}{shape}/{width}@{}..{}x{}..{}",
                    d.choice.kind.token(),
                    d.rows.start,
                    d.rows.end,
                    d.cols.start,
                    d.cols.end
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "  t{i} rows={}..{} blocks=[{}]",
            t.rows.start,
            t.rows.end,
            blocks.join(", ")
        );
    }
    out
}

/// Assert `plan`'s snapshot equals `golden` (whitespace-trimmed per line),
/// printing both renderings on mismatch.
///
/// # Panics
///
/// Panics (test failure) when the snapshots differ.
pub fn assert_plan_snapshot(plan: &TunePlan, golden: &str, context: &str) {
    let actual = plan_snapshot(plan);
    let norm = |s: &str| -> Vec<String> {
        s.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        norm(&actual),
        norm(golden),
        "{context}: plan snapshot drifted\n--- actual ---\n{actual}\n--- golden ---\n{golden}"
    );
}

// ---------------------------------------------------------------------------
// Solver helpers (BLAS-1 references + SPD convergence checks)
// ---------------------------------------------------------------------------

/// Naive sequential dot product — the order-obvious reference the fused solver
/// kernels (which use a fixed 4-lane schedule) are checked against within
/// tolerance.
pub fn reference_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of unequal-length vectors");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Naive `y += alpha * x` reference.
pub fn reference_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy of unequal-length vectors");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Naive Euclidean norm reference.
pub fn reference_norm(x: &[f64]) -> f64 {
    reference_dot(x, x).sqrt()
}

/// A symmetric positive-definite system with a *known* solution: random
/// exactly-symmetric pattern shifted to strict diagonal dominance (hence SPD),
/// paired with `x* = 1, 2, …, n` scaled to O(1) and `b = A·x*`. Deterministic
/// in the seed.
pub struct SpdSystem {
    /// The SPD matrix `A`.
    pub matrix: CsrMatrix,
    /// The known solution `x*`.
    pub solution: Vec<f64>,
    /// The right-hand side `b = A·x*`.
    pub rhs: Vec<f64>,
}

/// Build a deterministic SPD test system of order `n` (see [`SpdSystem`]).
pub fn spd_system(n: usize, seed: u64) -> SpdSystem {
    assert!(n > 0, "SPD system needs at least one row");
    spd_from(&random_symmetric_csr(n, 3 * n, seed))
}

/// [`spd_system`] over a *full* band: every entry within `half_bandwidth` of
/// the diagonal is stored, so lower-triangle tiles fill well and, on a SIMD
/// host, the planner stores its slabs as `SymBcsr` r×4, the shapes the vector
/// symmetric kernel covers.
pub fn banded_spd_system(n: usize, half_bandwidth: usize, seed: u64) -> SpdSystem {
    assert!(n > 0, "SPD system needs at least one row");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        for j in i.saturating_sub(half_bandwidth)..i {
            let v = rng.random_range(-1.0..1.0);
            coo.push(i, j, v);
            coo.push(j, i, v);
        }
    }
    spd_from(&CsrMatrix::from_coo(&coo))
}

/// `base` (exactly symmetric, order `n`) made SPD, with its known solution.
fn spd_from(base: &CsrMatrix) -> SpdSystem {
    use spmv_core::{MatrixShape, SpMv};
    let n = base.nrows();
    // Shift the diagonal beyond the largest absolute row sum: strict diagonal
    // dominance with positive diagonal ⇒ symmetric positive definite.
    let mut row_abs = vec![0.0f64; n];
    for (r, _, v) in base.iter() {
        row_abs[r] += v.abs();
    }
    let shift = row_abs.iter().fold(1.0f64, |m, s| m.max(*s)) + 1.0;
    let mut coo = CooMatrix::new(n, n);
    for (r, c, v) in base.iter() {
        coo.push(r, c, v);
    }
    for i in 0..n {
        coo.push(i, i, shift);
    }
    let matrix = CsrMatrix::from_coo(&coo);
    let solution: Vec<f64> = (1..=n).map(|i| i as f64 / n as f64).collect();
    let rhs = matrix.spmv_alloc(&solution);
    SpdSystem {
        matrix,
        solution,
        rhs,
    }
}

impl SpdSystem {
    /// The true residual norm `‖b − A·x‖₂` of a candidate iterate, recomputed
    /// from scratch (no recurrence) so solver drift cannot hide.
    pub fn residual_norm(&self, x: &[f64]) -> f64 {
        use spmv_core::SpMv;
        let ax = self.matrix.spmv_alloc(x);
        let mut r = self.rhs.clone();
        reference_axpy(-1.0, &ax, &mut r);
        reference_norm(&r)
    }

    /// Max-abs error of a candidate iterate against the known solution.
    pub fn solution_error(&self, x: &[f64]) -> f64 {
        max_abs_diff(x, &self.solution)
    }
}

/// Assert a solver's iterate actually solves the system: the recomputed true
/// residual and the known-solution error must both be under `tol`.
///
/// # Panics
///
/// Panics (test failure) when either check is violated.
pub fn assert_solved(system: &SpdSystem, x: &[f64], tol: f64, context: &str) {
    let res = system.residual_norm(x);
    assert!(res <= tol, "{context}: true residual {res:e} > {tol:e}");
    let err = system.solution_error(x);
    assert!(err <= tol, "{context}: solution error {err:e} > {tol:e}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::formats::is_symmetric;
    use spmv_core::{MatrixShape, SpMv};

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        assert_eq!(random_csr(20, 30, 100, 7), random_csr(20, 30, 100, 7));
        assert_ne!(random_csr(20, 30, 100, 7), random_csr(20, 30, 100, 8));
        assert_eq!(
            random_symmetric_csr(15, 40, 3),
            random_symmetric_csr(15, 40, 3)
        );
        assert_eq!(
            banded_csr(25, 3, true, 1).nnz(),
            banded_csr(25, 3, true, 1).nnz()
        );
    }

    #[test]
    fn symmetric_generator_is_exactly_symmetric() {
        for seed in 0..5 {
            assert!(is_symmetric(&random_symmetric_csr(30, 120, seed)));
        }
        assert!(is_symmetric(&banded_csr(40, 4, true, 2)));
    }

    #[test]
    fn pathological_shapes_have_expected_dims() {
        assert_eq!(empty_row_csr(16, 8).nrows(), 16);
        assert!(empty_row_csr(16, 8).empty_rows() > 10);
        assert_eq!(single_row_csr(12, 0).nrows(), 1);
        assert_eq!(single_col_csr(12, 0).ncols(), 1);
    }

    #[test]
    fn dense_references_agree_with_csr_spmv() {
        let csr = random_csr(25, 18, 200, 11);
        let x = test_x(18);
        assert_eq!(dense_spmv(&csr, &x), csr.spmv_alloc(&x));
        let xs = xblock(18, 3);
        let y = dense_spmm(&csr, &xs);
        for j in 0..3 {
            assert_eq!(y.col(j), &dense_spmv(&csr, xs.col(j))[..]);
        }
    }

    #[test]
    fn cases_cover_pathologies() {
        let cs = cases(10, 0xAB);
        assert!(cs.iter().any(|c| c.entries.is_empty()));
        assert!(cs.iter().any(|c| c.nrows == 1));
        assert!(cs.iter().any(|c| c.ncols == 1));
        for c in &cs {
            let x = test_x(c.ncols);
            // Duplicate triplets sum in a different order than CSR construction,
            // so the agreement is tight-tolerance, not bitwise.
            assert!(max_abs_diff(&c.dense_reference(&x), &c.csr().spmv_alloc(&x)) < 1e-9);
        }
    }

    #[test]
    fn plan_helpers_compare_and_snapshot() {
        use spmv_core::tuning::TuningConfig;
        let csr = random_csr(40, 30, 300, 5);
        let a = TunePlan::new(&csr, 1, &TuningConfig::full());
        // Identical decisions at a different index width stay in the same
        // accumulation class (width never changes the arithmetic) ...
        let mut widened = a.clone();
        for t in &mut widened.threads {
            for d in &mut t.decisions {
                d.choice.width = spmv_core::formats::IndexWidth::U32;
            }
        }
        assert!(same_accumulation_class(&a, &widened));
        assert_plans_equivalent(&csr, &a, &widened, "width-only change");
        // ... while a different partition or format sequence leaves it, and
        // the comparison falls back to the tolerance path.
        let b = TunePlan::new(&csr, 3, &TuningConfig::naive());
        assert!(!same_accumulation_class(&a, &b));
        assert_plans_equivalent(&csr, &a, &b, "general plans, different decisions");
        let snap = plan_snapshot(&a);
        assert!(snap.starts_with("plan 40x30"), "{snap}");
        assert_plan_snapshot(&a, &snap, "self-snapshot");

        let sym = random_symmetric_csr(30, 100, 6);
        let symmetric = || TunePlan::new_symmetric(&sym, 2, &TuningConfig::full()).unwrap();
        let sa = symmetric();
        assert!(sa.symmetric);
        assert!(same_accumulation_class(&sa, &symmetric()));
        let general = TunePlan::new(
            &sym,
            2,
            &TuningConfig {
                exploit_symmetry: false,
                ..TuningConfig::full()
            },
        );
        assert!(!same_accumulation_class(&sa, &general));
        assert_plans_equivalent(&sym, &sa, &general, "symmetric vs general");
    }

    #[test]
    fn spd_system_is_spd_with_consistent_rhs() {
        for seed in 0..4 {
            let sys = spd_system(32, seed);
            assert!(is_symmetric(&sys.matrix));
            // Strict diagonal dominance with positive diagonal.
            let mut diag = vec![0.0f64; 32];
            let mut off = vec![0.0f64; 32];
            for (r, c, v) in sys.matrix.iter() {
                if r == c {
                    diag[r] += v;
                } else {
                    off[r] += v.abs();
                }
            }
            for i in 0..32 {
                assert!(diag[i] > off[i], "row {i} not dominant (seed {seed})");
            }
            // The known solution really is a solution.
            assert!(sys.residual_norm(&sys.solution) < 1e-12);
            assert_eq!(sys.solution_error(&sys.solution), 0.0);
            assert_solved(&sys, &sys.solution, 1e-12, "known solution");
        }
    }

    #[test]
    fn blas1_references_behave() {
        let a = vec![1.0, -2.0, 3.0];
        let b = vec![0.5, 4.0, -1.0];
        assert_eq!(reference_dot(&a, &b), 1.0 * 0.5 - 2.0 * 4.0 - 3.0);
        let mut y = b.clone();
        reference_axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![2.5, 0.0, 5.0]);
        assert_eq!(reference_norm(&[3.0, 4.0]), 5.0);
        // The fused solver kernels must agree with the naive order within
        // reassociation tolerance.
        let x = test_x(257);
        let z: Vec<f64> = x.iter().map(|v| v * 0.25 + 1.0).collect();
        let fused = spmv_core::solver::kernels::dot(&x, &z);
        assert!((fused - reference_dot(&x, &z)).abs() < 1e-9);
    }

    #[test]
    fn ulp_distance_properties() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        // Opposite signs measure through zero: enormous for ±1.0, tiny for the
        // smallest-magnitude cancellation residues.
        assert_eq!(ulp_distance(1.0, -1.0), 2 * 1.0f64.to_bits());
        assert_eq!(ulp_distance(f64::from_bits(1), -f64::from_bits(1)), 2);
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
        assert_eq!(max_ulp_distance(&[1.0, 2.0], &[1.0, 2.0]), 0);
        assert_ulps_within(&[1.0], &[1.0], 0, "identical");
        assert_bit_identical(&[0.5, -0.25], &[0.5, -0.25], "identical");
    }
}
