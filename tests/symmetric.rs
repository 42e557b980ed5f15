//! The symmetric-subsystem property/fuzz suite.
//!
//! Four pillars, per the symmetric-pipeline acceptance bar:
//!
//! 1. **Agreement** — symmetric storage (`SymCsr`/`SymBcsr`) must match the
//!    eagerly-expanded general CSR within tight tolerance, across index widths
//!    {u16, u32, usize}, every register block shape ≤ 4×4, and fuzzed matrices
//!    (random symmetric, banded, diagonal-heavy, empty).
//! 2. **Bit-identity** — serial symmetric (`PreparedMatrix`) vs parallel
//!    symmetric (`SpmvEngine`) must be *bit-identical* at thread counts
//!    {1, 2, nrows+3}, for SpMV and SpMM alike, because both run the same
//!    kernels and the same deterministic tree reduction.
//! 3. **Plan round-trip** — a `Symmetric` decision survives the plain-text
//!    profile save/load and drives identical materialization.
//! 4. **MatrixMarket regression** — symmetric `.mtx` files read via `mmio`
//!    produce a `SymCsr` whose SpMV matches the expanded general CSR on every
//!    symmetric Table-3 suite matrix.
//! 5. **The vector `SymBcsr` r×4 kernel** — on ragged slabs and hostile `x` it
//!    agrees with CSR and keeps the scalar kernel's NaN/∞ positions; a banded
//!    SPD plan whose slabs it runs keeps engine ≡ serial for SpMV, SpMM and CG;
//!    its `simd` annotation round-trips and degrades to the scalar kernel.

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_core::formats::bcsr::ALLOWED_BLOCK_DIMS;
use spmv_multicore::spmv_core::formats::{is_symmetric, IndexStorage, SymBcsr, SymCsr};
use spmv_multicore::spmv_core::kernels::simd::{self, bcsr_simd_shape, spmv_sym_bcsr_simd};
use spmv_multicore::spmv_core::kernels::symmetric::spmv_sym_bcsr;
use spmv_multicore::spmv_core::solver::SerialCg;
use spmv_multicore::spmv_core::tuning::FormatKind;
use spmv_multicore::spmv_matrices::mmio::{
    read_matrix_market_ex, write_matrix_market_ex, Symmetry, ValueField,
};
use spmv_multicore::spmv_parallel::{FusedCg, SpmvEngine};
use spmv_testutil::{
    assert_bit_identical, assert_ulps_within, banded_csr, banded_spd_system, max_abs_diff,
    plan_snapshot, random_symmetric_csr, test_x, xblock,
};
use std::ops::Range;

/// The fuzz corpus: seeded symmetric matrices of varied shape and density.
fn symmetric_corpus() -> Vec<(String, CsrMatrix)> {
    let mut corpus: Vec<(String, CsrMatrix)> = Vec::new();
    for (n, lower_nnz, seed) in [(1usize, 1usize, 1u64), (7, 5, 2), (33, 90, 3), (64, 700, 4)] {
        corpus.push((
            format!("random-{n}x{n}-seed{seed}"),
            random_symmetric_csr(n, lower_nnz, seed),
        ));
    }
    for (n, bw, seed) in [(24usize, 2usize, 5u64), (50, 7, 6)] {
        corpus.push((format!("banded-{n}-bw{bw}"), banded_csr(n, bw, true, seed)));
    }
    // Diagonal-only and empty matrices.
    corpus.push(("diagonal".to_string(), {
        let mut coo = CooMatrix::new(19, 19);
        for i in 0..19 {
            coo.push(i, i, i as f64 - 9.0);
        }
        CsrMatrix::from_coo(&coo)
    }));
    corpus.push((
        "empty".to_string(),
        CsrMatrix::from_coo(&CooMatrix::new(11, 11)),
    ));
    corpus
}

/// Pillar 1a: `SymCsr` at every index width agrees with the expanded general
/// form within 2 ULPs per element-pair count (the only difference is summation
/// order, so the tolerance is tight, not loose).
#[test]
fn sym_csr_agrees_with_expanded_general_across_widths() {
    for (name, csr) in symmetric_corpus() {
        assert!(is_symmetric(&csr), "{name}: corpus must be symmetric");
        let x = test_x(csr.ncols());
        let reference = csr.spmv_alloc(&x);
        let y16 = SymCsr::<u16>::from_csr(&csr).unwrap().spmv_alloc(&x);
        let y32 = SymCsr::<u32>::from_csr(&csr).unwrap().spmv_alloc(&x);
        let yus = SymCsr::<usize>::from_csr(&csr).unwrap().spmv_alloc(&x);
        // All widths run the same arithmetic: bit-identical to each other.
        assert_bit_identical(&y16, &y32, &format!("{name}: u16 vs u32"));
        assert_bit_identical(&y32, &yus, &format!("{name}: u32 vs usize"));
        // And tightly close to the general reference.
        assert!(
            max_abs_diff(&reference, &y32) < 1e-9,
            "{name}: symmetric diverged from expanded general"
        );
    }
}

/// Pillar 1b: `SymBcsr` at every block shape ≤ 4×4 and width agrees with both
/// the expanded general form and the pointwise symmetric form.
#[test]
fn sym_bcsr_agrees_across_shapes_and_widths() {
    for (name, csr) in symmetric_corpus() {
        let x = test_x(csr.ncols());
        let reference = csr.spmv_alloc(&x);
        for &r in &ALLOWED_BLOCK_DIMS {
            for &c in &ALLOWED_BLOCK_DIMS {
                let y16 = SymBcsr::<u16>::from_csr(&csr, r, c).unwrap().spmv_alloc(&x);
                let y32 = SymBcsr::<u32>::from_csr(&csr, r, c).unwrap().spmv_alloc(&x);
                let yus = SymBcsr::<usize>::from_csr(&csr, r, c)
                    .unwrap()
                    .spmv_alloc(&x);
                assert_bit_identical(&y16, &y32, &format!("{name} {r}x{c}: u16 vs u32"));
                assert_bit_identical(&y32, &yus, &format!("{name} {r}x{c}: u32 vs usize"));
                assert!(
                    max_abs_diff(&reference, &y32) < 1e-9,
                    "{name} {r}x{c}: symmetric blocked diverged"
                );
            }
        }
    }
}

/// Pillar 2: serial symmetric vs parallel symmetric **bit-identity** at thread
/// counts {1, 2, nrows+3}, SpMV and SpMM, with accumulation into non-zero y.
#[test]
fn serial_vs_parallel_symmetric_bit_identity() {
    for (name, csr) in symmetric_corpus() {
        if csr.nnz() == 0 {
            continue; // zero matrices plan as general (nothing to store)
        }
        let n = csr.nrows();
        let x = test_x(n);
        for threads in [1, 2, n + 3] {
            let plan = TunePlan::new_symmetric(&csr, threads, &TuningConfig::full())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let serial = PreparedMatrix::materialize(&csr, &plan).unwrap();
            assert!(serial.is_symmetric());
            let mut expected = vec![0.375; n];
            serial.spmv(&x, &mut expected);

            let mut engine = SpmvEngine::from_plan(&csr, &plan).unwrap();
            let mut y = vec![0.375; n];
            engine.spmv(&x, &mut y);
            assert_bit_identical(&expected, &y, &format!("{name} threads={threads} spmv"));

            for k in [1usize, 3, 8] {
                let xs = xblock(n, k);
                let mut ys = MultiVec::zeros(n, k);
                ys.fill(-0.5);
                engine.spmm(&xs, &mut ys);
                let mut expected_s = MultiVec::zeros(n, k);
                expected_s.fill(-0.5);
                serial.spmm(&xs, &mut expected_s);
                assert_bit_identical(
                    expected_s.data(),
                    ys.data(),
                    &format!("{name} threads={threads} spmm k={k}"),
                );
            }
        }
    }
}

/// Pillar 3: the `Symmetric` decision survives the plain-text profile
/// round-trip exactly, and a reloaded plan materializes to identical bits.
#[test]
fn symmetric_plan_save_load_round_trip() {
    let csr = random_symmetric_csr(45, 300, 77);
    for threads in [1, 3] {
        let plan = TunePlan::new_symmetric(&csr, threads, &TuningConfig::full()).unwrap();
        assert!(plan.symmetric);
        for t in &plan.threads {
            assert_eq!(t.decisions.len(), 1);
            assert!(matches!(
                t.decisions[0].choice.kind,
                FormatKind::SymCsr | FormatKind::SymBcsr
            ));
        }
        // Text round trip is exact.
        let text = plan.to_text();
        assert!(text.contains("symmetric\n"), "flag must serialize");
        let reloaded = TunePlan::from_text(&text).unwrap();
        assert_eq!(plan, reloaded);

        // File round trip drives identical materialization.
        let path = std::env::temp_dir().join(format!("spmv_sym_plan_{threads}.profile"));
        plan.save(&path).unwrap();
        let loaded = TunePlan::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let a = PreparedMatrix::materialize(&csr, &plan).unwrap();
        let b = PreparedMatrix::materialize(&csr, &loaded).unwrap();
        let x = test_x(45);
        assert_bit_identical(
            &a.spmv_alloc(&x),
            &b.spmv_alloc(&x),
            &format!("threads={threads}: reloaded symmetric plan"),
        );
        assert_eq!(a.footprint_bytes(), b.footprint_bytes());
    }
}

/// A hand-tampered symmetric profile (mixed with a general decision) must be
/// rejected at validation rather than silently executed.
#[test]
fn tampered_symmetric_profiles_are_rejected() {
    let csr = random_symmetric_csr(20, 80, 78);
    let plan = TunePlan::new_symmetric(&csr, 2, &TuningConfig::full()).unwrap();
    assert!(plan.symmetric);

    // Strip the symmetric flag: the sym decisions are now inconsistent.
    let text = plan.to_text().replace("symmetric\n", "");
    let stripped = TunePlan::from_text(&text).unwrap();
    assert!(stripped.validate_for(&csr).is_err());

    // Flip a decision kind to general inside a symmetric plan.
    let mut mixed = plan.clone();
    mixed.threads[0].decisions[0].choice.kind = FormatKind::Csr;
    assert!(mixed.validate_for(&csr).is_err());
}

/// Pillar 1c (threads × tolerance): the symmetric engine agrees with the
/// expanded general engine within a few ULPs of headroom per element.
#[test]
fn symmetric_engine_agrees_with_general_engine_within_ulps() {
    let csr = random_symmetric_csr(80, 900, 79);
    let x = test_x(80);
    let general_cfg = TuningConfig {
        exploit_symmetry: false,
        ..TuningConfig::full()
    };
    for threads in [1, 2, 83] {
        let sym_plan = TunePlan::new_symmetric(&csr, threads, &TuningConfig::full()).unwrap();
        let mut sym_engine = SpmvEngine::from_plan(&csr, &sym_plan).unwrap();
        let mut gen_engine = SpmvEngine::tuned(&csr, threads, &general_cfg).unwrap();
        assert!(sym_engine.is_symmetric() && !gen_engine.is_symmetric());
        let mut ys = vec![0.0; 80];
        sym_engine.spmv(&x, &mut ys);
        let mut yg = vec![0.0; 80];
        gen_engine.spmv(&x, &mut yg);
        // Different summation orders: tight relative tolerance, expressed in
        // ULPs scaled by the row lengths involved (generous but meaningful).
        assert_ulps_within(&ys, &yg, 1 << 16, &format!("threads={threads}"));
    }
}

/// Pillar 4 (regression): every symmetric Table-3 suite matrix, symmetrized,
/// written as a symmetric MatrixMarket file, read back via `mmio`, must produce
/// a `SymCsr` whose SpMV matches the eagerly-expanded general CSR — and whose
/// footprint shows the halved index/value traffic.
#[test]
fn symmetric_matrix_market_round_trip_matches_expanded_general() {
    let symmetric_suite: Vec<SuiteMatrix> = SuiteMatrix::all()
        .into_iter()
        .filter(|m| m.is_symmetric_in_table3())
        .collect();
    assert_eq!(symmetric_suite.len(), 6, "Table 3 lists six .rsa matrices");
    for matrix in symmetric_suite {
        let sym_coo = matrix
            .generate_symmetric(Scale::Tiny)
            .expect("symmetric Table-3 matrices symmetrize");
        let mut buf = Vec::new();
        write_matrix_market_ex(&sym_coo, Symmetry::Symmetric, ValueField::Real, &mut buf)
            .expect("write symmetric mtx");

        let file = read_matrix_market_ex(&buf[..]).expect("read symmetric mtx");
        assert_eq!(file.symmetry, Symmetry::Symmetric, "{}", matrix.id());
        let sym: SymCsr<u32> = file.to_sym_csr().expect("lower triangle converts");
        let expanded = CsrMatrix::from_coo(&file.expand());

        let x = test_x(expanded.ncols());
        assert!(
            max_abs_diff(&sym.spmv_alloc(&x), &expanded.spmv_alloc(&x)) < 1e-9,
            "{}: SymCsr from mmio diverged from expanded CSR",
            matrix.id()
        );
        assert_eq!(sym.nnz(), expanded.nnz(), "{}", matrix.id());
        assert!(
            sym.footprint_bytes() < expanded.footprint_bytes() * 3 / 4,
            "{}: symmetric storage must be well below general ({} vs {} bytes)",
            matrix.id(),
            sym.footprint_bytes(),
            expanded.footprint_bytes()
        );
    }
}

/// The symmetrize → tune → serve pipeline detects symmetry automatically:
/// `TunePlan::new` times the lower-triangle plan against the general one, and
/// whichever it keeps is the declared symmetric plan or a timed general plan
/// that agrees with it. Symmetric storage shrinks the footprint.
#[test]
fn tuner_picks_up_symmetry_automatically_on_suite_matrices() {
    let full = TuningConfig::full();
    let general_config = TuningConfig {
        exploit_symmetry: false,
        ..full
    };
    for matrix in [SuiteMatrix::FemCantilever, SuiteMatrix::FemShip] {
        let sym_coo = matrix.generate_symmetric(Scale::Tiny).unwrap();
        let csr = CsrMatrix::from_coo(&sym_coo);
        let declared = TunePlan::new_symmetric(&csr, 1, &full).unwrap();
        assert!(
            TunePlan::heuristic(&csr, 1, &full).symmetric,
            "{}",
            matrix.id()
        );
        let (plan, ladders) = TunePlan::with_ladders(&csr, 1, &full);
        assert_eq!(ladders.len(), 1, "{}: the general ladder", matrix.id());
        let ladder = &ladders[0];
        assert!(
            ladder.rungs[ladder.chosen].seconds.is_some(),
            "{}",
            matrix.id()
        );
        if plan.symmetric {
            assert_eq!(plan, declared, "{}", matrix.id());
        } else {
            let kept = &ladder.rungs[ladder.chosen].plan;
            assert_eq!(plan.threads[0], *kept, "{}", matrix.id());
        }
        let chosen = PreparedMatrix::materialize(&csr, &plan).unwrap();
        let tuned = PreparedMatrix::materialize(&csr, &declared).unwrap();
        assert!(tuned.is_symmetric(), "{}", matrix.id());
        let general =
            PreparedMatrix::materialize(&csr, &TunePlan::new(&csr, 1, &general_config)).unwrap();
        assert!(
            tuned.footprint_bytes() < general.footprint_bytes() * 3 / 4,
            "{}: symmetric tuning must shrink the footprint ({} vs {})",
            matrix.id(),
            tuned.footprint_bytes(),
            general.footprint_bytes()
        );
        let x = test_x(csr.ncols());
        let y = tuned.spmv_alloc(&x);
        assert!(
            max_abs_diff(&y, &general.spmv_alloc(&x)) < 1e-9,
            "{}",
            matrix.id()
        );
        assert!(
            max_abs_diff(&y, &chosen.spmv_alloc(&x)) < 1e-9,
            "{}",
            matrix.id()
        );
    }
}

// --- the vector SymBcsr r×4 kernel ------------------------------------------

type SymKernel<I> = fn(&SymBcsr<I>, &[f64], &mut [f64]);

/// The whole matrix as one slab, and three slabs whose offsets are off the
/// 4-column grid and whose heights leave most block-row grids a ragged last
/// block row.
fn slabbings(n: usize) -> [Vec<Range<usize>>; 2] {
    let (a, b) = (n / 5 + 2, n / 2 + 1);
    [std::iter::once(0..n).collect(), vec![0..a, a..b, b..n]]
}

/// `y = A·x` assembled slab by slab from `r×4` `SymBcsr` slabs at width `I`.
fn slab_product<I: IndexStorage>(
    csr: &CsrMatrix,
    r: usize,
    slabs: &[Range<usize>],
    x: &[f64],
    kernel: SymKernel<I>,
) -> Vec<f64> {
    let mut y = vec![0.0; csr.nrows()];
    for rows in slabs {
        let local = csr.row_slice(rows.start, rows.end);
        let slab = SymBcsr::<I>::from_slab_unchecked(&local, rows.start, r, 4).unwrap();
        kernel(&slab, x, &mut y);
    }
    y
}

/// The vector kernel against plain CSR: r ∈ {1, 2, 4}, both widths,
/// `n mod 4 ∈ {0, 1, 3}` (a ragged right edge), whole matrices and ragged
/// slabs; two runs give the same bits, and so do the two widths.
#[test]
fn simd_sym_bcsr_kernel_matches_csr_on_ragged_slabs() {
    for n in [36usize, 37, 39] {
        let matrices = [
            ("random", random_symmetric_csr(n, 4 * n, n as u64)),
            ("banded", banded_csr(n, 6, true, n as u64)),
        ];
        for (name, csr) in matrices {
            let x = test_x(n);
            let reference = csr.spmv_alloc(&x);
            let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for r in [1usize, 2, 4] {
                for slabs in slabbings(n) {
                    let ctx = format!("{name} n={n} {r}x4 slabs={slabs:?}");
                    let y16 = slab_product::<u16>(&csr, r, &slabs, &x, spmv_sym_bcsr_simd);
                    let y32 = slab_product::<u32>(&csr, r, &slabs, &x, spmv_sym_bcsr_simd);
                    assert!(
                        max_abs_diff(&reference, &y32) <= 1e-12 * scale,
                        "{ctx}: diverged from CSR"
                    );
                    assert_bit_identical(&y16, &y32, &format!("{ctx}: u16 vs u32"));
                    let again = slab_product::<u32>(&csr, r, &slabs, &x, spmv_sym_bcsr_simd);
                    assert_bit_identical(&y32, &again, &format!("{ctx}: rerun"));
                }
            }
        }
    }
}

/// `test_x` with NaN payloads, ±∞, −0.0 and subnormals spread through it, and
/// a NaN on the first row past the first of [`slabbings`]' ragged slabs.
fn hostile_x(n: usize) -> Vec<f64> {
    let mut x = test_x(n);
    let specials = [
        f64::from_bits(0x7ff8_0000_0000_0bad),
        f64::INFINITY,
        -0.0,
        f64::from_bits(0xfff0_0000_0000_0001),
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 8.0,
        -f64::MIN_POSITIVE / 3.0,
    ];
    for (k, v) in specials.into_iter().enumerate() {
        x[(k * 29 + 5) % n] = v;
    }
    x[slabbings(n)[1][1].start] = f64::NAN;
    x
}

/// What a hostile input may legitimately leave in an output element: NaN, an
/// infinity of one sign, or a finite value.
fn class(v: f64) -> (bool, bool, bool) {
    (v.is_nan(), v.is_infinite(), v.is_infinite() && v > 0.0)
}

/// Hostile `x`: the vector kernel leaves NaN and ∞ exactly where the scalar
/// symmetric kernel does (ragged slabs and edges included), and a plan running
/// it keeps serial ≡ engine by `to_bits` at every thread count.
#[test]
fn simd_sym_bcsr_keeps_scalar_nan_and_inf_positions() {
    let n = 203;
    let x = hostile_x(n);
    for (name, csr) in [
        ("random", random_symmetric_csr(n, 2 * n, 5)),
        ("banded", banded_csr(n, 3, true, 6)),
    ] {
        for r in [1usize, 2, 4] {
            for slabs in slabbings(n) {
                let ctx = format!("{name} {r}x4 slabs={slabs:?}");
                let scalar = slab_product::<u32>(&csr, r, &slabs, &x, spmv_sym_bcsr);
                let vector = slab_product::<u32>(&csr, r, &slabs, &x, spmv_sym_bcsr_simd);
                assert!(scalar.iter().any(|v| v.is_finite()), "{ctx}: all poisoned");
                assert!(
                    scalar.iter().any(|v| !v.is_finite()),
                    "{ctx}: none poisoned"
                );
                for (i, (s, v)) in scalar.iter().zip(&vector).enumerate() {
                    assert_eq!(class(*s), class(*v), "{ctx}: row {i}: {s:?} vs {v:?}");
                }
            }
        }
    }
    let sys = banded_spd_system(n, 15, 7);
    for threads in 1..=5 {
        let plan = TunePlan::new_symmetric(&sys.matrix, threads, &TuningConfig::full()).unwrap();
        let serial = PreparedMatrix::materialize(&sys.matrix, &plan).unwrap();
        let mut expected = vec![-0.0; n];
        serial.spmv(&x, &mut expected);
        let mut engine = SpmvEngine::from_plan(&sys.matrix, &plan).unwrap();
        let mut y = vec![-0.0; n];
        engine.spmv(&x, &mut y);
        assert_bit_identical(&expected, &y, &format!("hostile x, threads={threads}"));
    }
}

/// Assert that on a SIMD host every slab of `plan` is a `SymBcsr` r×4 slab
/// annotated `simd` — so a test built on it cannot silently stop covering the
/// vector kernel there. (A scalar host plans the byte minimum, unannotated.)
fn assert_vector_sym_slabs(plan: &TunePlan, context: &str) {
    assert!(plan.symmetric, "{context}: symmetric plan expected");
    for t in &plan.threads {
        let c = &t.decisions[0].choice;
        assert_eq!(t.simd, simd::available(), "{context}: simd annotation");
        assert!(
            !t.simd || (c.kind == FormatKind::SymBcsr && bcsr_simd_shape(c.r, c.c)),
            "{context}: slab is not SymBcsr r×4:\n{}",
            plan_snapshot(plan)
        );
    }
}

/// A banded SPD matrix planned onto vector `SymBcsr` slabs: at 1..=5 threads
/// the engine equals `PreparedMatrix` for SpMV, its SpMM equals SpMV column by
/// column, and `FusedCg` follows `SerialCg` bit for bit for ten steps.
#[test]
fn vector_sym_slabs_keep_engine_spmm_and_cg_bit_identical() {
    let n = 203;
    let sys = banded_spd_system(n, 15, 11);
    let x = test_x(n);
    for threads in 1..=5 {
        let ctx = format!("threads={threads}");
        let plan = TunePlan::new_symmetric(&sys.matrix, threads, &TuningConfig::full()).unwrap();
        assert_vector_sym_slabs(&plan, &ctx);
        let serial = PreparedMatrix::materialize(&sys.matrix, &plan).unwrap();
        let mut expected = vec![0.375; n];
        serial.spmv(&x, &mut expected);
        let mut engine = SpmvEngine::from_plan(&sys.matrix, &plan).unwrap();
        let mut y = vec![0.375; n];
        engine.spmv(&x, &mut y);
        assert_bit_identical(&expected, &y, &format!("{ctx} spmv"));

        for k in [1usize, 3, 8] {
            let xs = xblock(n, k);
            let mut ys = MultiVec::zeros(n, k);
            engine.spmm(&xs, &mut ys);
            for j in 0..k {
                let mut col = vec![0.0; n];
                engine.spmv(xs.col(j), &mut col);
                assert_bit_identical(ys.col(j), &col, &format!("{ctx} spmm k={k} col {j}"));
            }
        }

        let mut reference = SerialCg::new(serial, &sys.rhs).unwrap();
        let mut fused = FusedCg::new(engine, &sys.rhs);
        for step in 0..10 {
            reference.step();
            fused.step();
            let (a, b) = (reference.rr(), fused.rr());
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx} cg step {step} rr");
        }
        assert_bit_identical(
            reference.solution(),
            fused.solution(),
            &format!("{ctx} cg x"),
        );
    }
}

/// A symmetric `simd` plan round-trips through its text; loaded on a host
/// without SIMD it degrades to the scalar symmetric kernel, bit for bit.
#[test]
fn symmetric_simd_plan_round_trips_and_degrades_to_the_scalar_kernel() {
    let sys = banded_spd_system(101, 15, 13);
    let plan = TunePlan::new_symmetric(&sys.matrix, 1, &TuningConfig::full()).unwrap();
    assert_vector_sym_slabs(&plan, "one thread");
    let text = plan.to_text();
    assert_eq!(text.contains(" simd"), simd::available());
    assert_eq!(TunePlan::from_text(&text).unwrap(), plan);

    let degraded = TunePlan::from_text_with_simd_support(&text, false).unwrap();
    assert!(degraded.threads.iter().all(|t| !t.simd));
    let x = test_x(101);
    let y = PreparedMatrix::materialize(&sys.matrix, &degraded)
        .unwrap()
        .spmv_alloc(&x);
    let c = &plan.threads[0].decisions[0].choice;
    let slab = SymBcsr::<u32>::from_csr(&sys.matrix, c.r, c.c).unwrap();
    let mut scalar = vec![0.0; 101];
    spmv_sym_bcsr(&slab, &x, &mut scalar);
    assert_bit_identical(&y, &scalar, "degraded plan runs the scalar kernel");
}
