//! The tuner's per-share ladder: one pass proposes, the clock disposes.
//!
//! * **The chooser** is a pure function over the rungs' seconds: the incumbent
//!   survives a 4 % loss and falls to a 6 % one, ties go to fewer blocks, a
//!   rung that failed to materialize is skipped.
//! * **Every rung** the planner proposes — not only the one a run happens to
//!   choose — is a valid plan: it validates, round-trips through the profile
//!   text, computes what plain CSR computes, and holds no format its config
//!   disallows (sliced ELL, rung `S`, only where the share runs SIMD). So whichever rung the clock picks on whichever host, the
//!   product is right.
//! * **The two rewritten passes** equal what they replaced: the one-pass fill
//!   estimate against the BCSR matrix it predicts, shape by shape, the
//!   CSR-direct cell cut against the COO round trip.
//! * **One rule for every share**: `TunePlan::new` times every share,
//!   whatever its size, on rungs `A`, `S` and `B` (the timed ladder cuts no
//!   cache or TLB grid), so no share keeps a rung the clock measured slower
//!   than `A`. Only `TunePlan::heuristic` stays untimed and deterministic.
//! * **The timed plan computes what the untimed one does**: over seeded
//!   matrices and thread counts, `TunePlan::new` agrees with
//!   `TunePlan::heuristic` by the accumulation-class rule, and its engine is
//!   bit-identical to its own serial `PreparedMatrix` — the guarantee the
//!   serve layer's hot swap leans on.
//! * **The pipeline choice**: on a streaming symmetric matrix the
//!   lower-triangle plan is the incumbent inside the same margin; whichever
//!   pipeline the clock keeps is a valid plan that computes plain CSR's
//!   product and runs bit-identically on the engine (SpMV, SpMM, fused CG),
//!   while the untimed planner, a declaration and the opt-out ask no clock.

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_core::blocking::register::{
    estimate_all_shapes, estimate_fill, register_block_candidates,
};
use spmv_multicore::spmv_core::formats::{BcsrMatrix, IndexWidth};
use spmv_multicore::spmv_core::partition::row::partition_rows_balanced;
use spmv_multicore::spmv_core::solver::SerialCg;
use spmv_multicore::spmv_core::tuning::{
    choose_rung, general_beats_symmetric, ladder_rungs, FormatKind, Rung, ThreadPlan, TuningConfig,
};
use spmv_multicore::spmv_parallel::FusedCg;
use spmv_testutil::{
    assert_bit_identical, assert_plans_equivalent, plan_outputs, random_csr, random_symmetric_csr,
    test_x, xblock,
};

#[test]
fn timed_plans_agree_with_the_heuristic_reference() {
    // u16-index territory, u32-index territory (wide columns), tall/thin,
    // symmetric.
    let suite = [
        ("small-u16", random_csr(80, 60, 700, 1)),
        ("square-u16", random_csr(200, 200, 2000, 2)),
        ("wide-u32", random_csr(40, 70_000, 1200, 3)),
        ("tall", random_csr(900, 30, 1800, 4)),
        ("symmetric", random_symmetric_csr(120, 600, 5)),
    ];
    let config = TuningConfig::full();
    for (id, csr) in &suite {
        for threads in [1, 2, 5] {
            let ctx = format!("{id} threads={threads}");
            let plan = TunePlan::new(csr, threads, &config);
            let heuristic = TunePlan::heuristic(csr, threads, &config);
            assert_plans_equivalent(csr, &plan, &heuristic, &ctx);
            let (y_serial, s_serial) = plan_outputs(csr, &plan);
            let mut engine = SpmvEngine::from_plan(csr, &plan)
                .unwrap_or_else(|e| panic!("{ctx}: engine build: {e}"));
            let mut y = vec![0.0; csr.nrows()];
            engine.spmv(&test_x(csr.ncols()), &mut y);
            assert_bit_identical(&y_serial, &y, &format!("{ctx}: engine spmv"));
            let mut ys = MultiVec::zeros(csr.nrows(), 3);
            engine.spmm(&xblock(csr.ncols(), 3), &mut ys);
            assert_bit_identical(s_serial.data(), ys.data(), &format!("{ctx}: engine spmm"));
        }
    }
}

#[test]
fn the_chooser_keeps_the_incumbent_inside_the_margin() {
    assert_eq!(choose_rung(&[Some(1.00), Some(0.96)]), 0, "a 4 % loss");
    assert_eq!(choose_rung(&[Some(1.00), Some(0.94)]), 1, "a 6 % loss");
    // The displacer is the new incumbent: B beat A, C does not beat B.
    assert_eq!(choose_rung(&[Some(1.00), Some(0.94), Some(0.90)]), 1);
    assert_eq!(choose_rung(&[Some(1.00), Some(0.94), Some(0.88)]), 2);
    // Rungs come fewest blocks first, so a tie goes to fewer blocks.
    assert_eq!(
        choose_rung(&[Some(0.5), Some(0.5), Some(0.5), Some(0.5)]),
        0
    );
    // A rung that failed to materialize neither wins nor blocks the others.
    assert_eq!(choose_rung(&[None, Some(1.0), Some(0.97)]), 1);
    assert_eq!(choose_rung(&[Some(1.0), None, Some(0.5)]), 2);
    // Nothing timed: the finest rung, which is the untimed planner's plan.
    assert_eq!(choose_rung(&[None, None, None]), 2);
    assert_eq!(choose_rung(&[None]), 0);
}

/// The index of the rung the untimed planner keeps: the finest grid, which is
/// the last rung that is not `S`.
fn finest(rungs: &[Rung]) -> usize {
    let at = rungs.iter().rposition(|r| r.label != "S");
    at.expect("rung A is always proposed")
}

/// The whole-matrix plans "every share takes its k-th rung" (a share with
/// fewer rungs takes its finest), labelled by the first share's rung; after
/// them, "every share takes its finest".
fn rung_plans(
    csr: &CsrMatrix,
    threads: usize,
    config: &TuningConfig,
) -> Vec<(&'static str, TunePlan)> {
    let ranges = partition_rows_balanced(csr, threads).ranges;
    let locals: Vec<CsrMatrix> = ranges
        .iter()
        .map(|r| csr.row_slice(r.start, r.end))
        .collect();
    let shares: Vec<_> = locals
        .iter()
        .map(|l| ladder_rungs(l, config, false))
        .collect();
    let depth = shares.iter().map(Vec::len).max().unwrap_or(0);
    (0..=depth)
        .map(|k| {
            let pick = |rungs: &[Rung]| if k < rungs.len() { k } else { finest(rungs) };
            let share_plans = ranges.iter().zip(&shares).map(|(range, rungs)| {
                let rung = &rungs[pick(rungs)];
                ThreadPlan::annotated(range.clone(), rung.decisions.clone(), config)
            });
            let plan = TunePlan {
                nrows: csr.nrows(),
                ncols: csr.ncols(),
                nnz: csr.nnz(),
                symmetric: false,
                threads: share_plans.collect(),
            };
            (shares[0][pick(&shares[0])].label, plan)
        })
        .collect()
}

#[test]
fn every_rung_of_every_suite_matrix_is_a_valid_plan_that_agrees_with_csr() {
    // Symmetry detection off: the ladder belongs to the general pipeline, and
    // the suite's symmetric members would otherwise bypass it.
    let config = TuningConfig {
        exploit_symmetry: false,
        ..TuningConfig::full()
    };
    for matrix in SuiteMatrix::all() {
        for scale in [Scale::Tiny, Scale::Small] {
            let csr = CsrMatrix::from_coo(&matrix.generate(scale));
            for threads in [1, 2, 3] {
                let plain = TunePlan::heuristic(&csr, threads, &TuningConfig::naive());
                let plans = rung_plans(&csr, threads, &config);
                assert!((2..=6).contains(&plans.len()));
                let finest = &plans.last().expect("at least one rung").1;
                assert_eq!(
                    *finest,
                    TunePlan::heuristic(&csr, threads, &config),
                    "{}: every share's finest grid is the untimed planner's plan",
                    matrix.id()
                );
                for (label, plan) in &plans {
                    let ctx = format!("{} {scale:?} threads={threads} rung {label}", matrix.id());
                    plan.validate_for(&csr)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let back = TunePlan::from_text(&plan.to_text())
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(*plan, back, "{ctx}: profile round trip");
                    assert_plans_equivalent(&csr, plan, &plain, &ctx);
                }
            }
        }
    }
}

#[test]
fn no_rung_holds_a_format_its_config_disallows() {
    let full = TuningConfig::full();
    let configs = [
        TuningConfig::naive(),
        TuningConfig::register_only(),
        TuningConfig::register_and_cache(),
        full,
        TuningConfig {
            allow_bcoo: false,
            allow_gcsr: false,
            ..full
        },
        TuningConfig {
            allow_u16_indices: false,
            register_blocking: false,
            ..full
        },
        TuningConfig {
            simd: false,
            ..full
        },
    ];
    let simd_host = spmv_multicore::spmv_core::kernels::simd::available();
    let matrices = [
        random_csr(300, 9_000, 6_000, 1),
        random_csr(40, 70_000, 1_200, 2),
        CsrMatrix::from_coo(&SuiteMatrix::Lp.generate(Scale::Tiny)),
        CsrMatrix::from_coo(&SuiteMatrix::Webbase.generate(Scale::Tiny)),
    ];
    for config in &configs {
        for csr in &matrices {
            let rungs = ladder_rungs(csr, config, false);
            assert!((1..=5).contains(&rungs.len()));
            // Identical rungs dedupe; the naive config has nothing to choose.
            for (i, a) in rungs.iter().enumerate() {
                assert!(rungs[..i].iter().all(|b| b.decisions != a.decisions));
            }
            if *config == TuningConfig::naive() {
                assert_eq!(rungs.len(), 1);
            }
            // Rung S is proposed exactly when the share would run SIMD, second,
            // and is never the rung the untimed planner keeps.
            let s_at = rungs.iter().position(|r| r.label == "S");
            assert_eq!(s_at, (config.simd && simd_host).then_some(1), "{config:?}");
            for rung in &rungs {
                let ctx = format!("{config:?} rung {}", rung.label);
                if config.cache_blocking.is_none() {
                    assert!(rung.decisions.len() <= 1, "{ctx}: a grid without blocking");
                }
                assert_eq!(
                    rung.decisions.iter().map(|d| d.nnz).sum::<usize>(),
                    csr.nnz(),
                    "{ctx}: the cells cover the share"
                );
                for d in &rung.decisions {
                    let c = &d.choice;
                    assert!(!c.kind.is_symmetric(), "{ctx}");
                    assert!(config.register_blocking || (c.r, c.c) == (1, 1), "{ctx}");
                    assert!(
                        config.allow_u16_indices || c.width == IndexWidth::U32,
                        "{ctx}"
                    );
                    assert!(config.allow_bcoo || c.kind != FormatKind::Bcoo, "{ctx}");
                    assert!(config.allow_gcsr || c.kind != FormatKind::Gcsr, "{ctx}");
                    assert_eq!(c.kind == FormatKind::Sell, rung.label == "S", "{ctx}");
                }
            }
        }
    }
}

#[test]
fn a_malformed_sell_block_is_refused_with_an_error_not_a_panic() {
    // A wide share: rung S is planned at u32.
    let csr = random_csr(40, 70_000, 1_200, 2);
    let s_plan = |csr: &CsrMatrix| {
        let rungs = ladder_rungs(csr, &TuningConfig::full(), false);
        let s = rungs.iter().find(|r| r.label == "S");
        let decisions = s.map(|r| r.decisions.clone()).unwrap_or_default();
        let thread = ThreadPlan::annotated(0..csr.nrows(), decisions, &TuningConfig::full());
        TunePlan {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            nnz: csr.nnz(),
            symmetric: false,
            threads: vec![thread],
        }
    };
    let plan = s_plan(&csr);
    if plan.threads[0].decisions.is_empty() {
        return; // no SIMD on this host: no rung S to malform
    }
    assert_eq!(plan.threads[0].decisions[0].choice.width, IndexWidth::U32);
    plan.validate_for(&csr)
        .expect("the rung as proposed is valid");
    let text = plan.to_text();

    // A register shape: refused at load and by validation.
    let shaped = text.replace(" sell 1 1 ", " sell 2 4 ");
    assert_ne!(shaped, text);
    assert!(TunePlan::from_text(&shaped).is_err());
    let mut bad = plan.clone();
    bad.threads[0].decisions[0].choice.r = 2;
    assert!(bad.validate_for(&csr).is_err());

    // Inside a symmetric plan: likewise.
    let symmetric = text.replace("threads 1\n", "threads 1\nsymmetric\n");
    assert_ne!(symmetric, text);
    assert!(TunePlan::from_text(&symmetric).is_err());
    let square = random_csr(50, 50, 300, 3);
    let mut bad = s_plan(&square);
    bad.symmetric = true;
    assert!(bad.validate_for(&square).is_err());

    // A width the columns do not fit: materialization fails, nothing panics.
    let mut narrow = plan.clone();
    narrow.threads[0].decisions[0].choice.width = IndexWidth::U16;
    narrow
        .validate_for(&csr)
        .expect("validation does not look at widths");
    assert!(PreparedMatrix::materialize(&csr, &narrow).is_err());
    assert!(SpmvEngine::from_plan(&csr, &narrow).is_err());
}

#[test]
fn one_pass_fill_estimates_equal_the_per_shape_pass() {
    let mut matrices = vec![
        random_csr(1, 1, 1, 3),
        random_csr(97, 61, 900, 4),
        random_csr(64, 5_000, 3_000, 5),
        random_csr(501, 13, 2_000, 6),
        CsrMatrix::from_coo(&CooMatrix::new(9, 9)),
    ];
    matrices.extend(
        SuiteMatrix::all()
            .iter()
            .map(|m| CsrMatrix::from_coo(&m.generate(Scale::Tiny))),
    );
    // The estimate at every shape against the BCSR matrix it predicts.
    for (i, csr) in matrices.iter().enumerate() {
        let estimates = estimate_all_shapes(csr);
        let shapes = register_block_candidates();
        assert_eq!(estimates.len(), shapes.len(), "matrix {i}");
        for (e, (r, c)) in estimates.iter().zip(shapes) {
            let ctx = format!("matrix {i} at {r}x{c}");
            assert_eq!((e.r, e.c), (r, c), "{ctx}");
            assert_eq!(estimate_fill(csr, r, c), *e, "{ctx}");
            let bcsr = BcsrMatrix::<u32>::from_csr(csr, r, c).expect("every shape builds");
            let occupied = bcsr.block_row_ptr().windows(2).filter(|w| w[0] < w[1]);
            assert_eq!(e.tiles, bcsr.num_blocks(), "{ctx}: tiles");
            assert_eq!(e.occupied_block_rows, occupied.count(), "{ctx}: block rows");
            assert_eq!(e.fill_ratio.to_bits(), bcsr.fill_ratio().to_bits(), "{ctx}");
        }
    }
}

#[test]
fn csr_direct_cell_cut_equals_the_coo_round_trip() {
    for (seed, (nrows, ncols, nnz)) in [(40, 30, 300), (7, 900, 500), (300, 5, 700), (1, 1, 1)]
        .into_iter()
        .enumerate()
    {
        let csr = random_csr(nrows, ncols, nnz, seed as u64 + 10);
        let coo = csr.to_coo();
        let row_cuts = [0, nrows / 3, nrows / 2, nrows];
        let col_cuts = [0, ncols / 4, ncols / 2, ncols];
        for (ri, &r0) in row_cuts.iter().enumerate() {
            for &r1 in &row_cuts[ri..] {
                for (ci, &c0) in col_cuts.iter().enumerate() {
                    for &c1 in &col_cuts[ci..] {
                        let via_coo = CsrMatrix::from_coo(&coo.sub_block(r0..r1, c0..c1));
                        assert_eq!(csr.sub_block(r0..r1, c0..c1), via_coo);
                    }
                }
            }
        }
    }
}

#[test]
fn every_share_is_timed_and_never_keeps_a_rung_slower_than_a() {
    // Shares of every size: the golden 64×48 matrix of `tests/tune_cache.rs`,
    // a larger one, three wide ones whose finest grid has several cells, and
    // `economics` and `circuit` at Quarter in eight shares of under 512 KiB
    // each. The ladders are timed serially, so no thread starts.
    let config = TuningConfig::full();
    let quarter = |m: SuiteMatrix| CsrMatrix::from_coo(&m.generate(Scale::Quarter));
    let cases = [
        ("64x48", random_csr(64, 48, 512, 42), 2),
        ("900x700", random_csr(900, 700, 20_000, 43), 2),
        ("64x70000", random_csr(64, 70_000, 1_200, 44), 2),
        ("2000x65000", random_csr(2_000, 65_000, 48_000, 7), 1),
        ("400x70000", random_csr(400, 70_000, 44_000, 7), 1),
        ("economics", quarter(SuiteMatrix::Economics), 8),
        ("circuit", quarter(SuiteMatrix::Circuit), 8),
    ];
    for (id, csr, threads) in &cases {
        let (plan, ladders) = TunePlan::with_ladders(csr, *threads, &config);
        assert_eq!(ladders.len(), *threads, "{id}: one ladder per share");
        for (t, ladder) in ladders.iter().enumerate() {
            let ctx = format!("{id} share {t}");
            assert_eq!(ladder.rungs[0].label, "A", "{ctx}");
            let a = ladder.rungs[0].seconds;
            let chosen = &ladder.rungs[ladder.chosen];
            assert!(
                chosen.seconds.is_some(),
                "{ctx}: rung {} untimed",
                chosen.label
            );
            assert!(
                chosen.seconds <= a,
                "{ctx}: rung {} slower than A",
                chosen.label
            );
            assert_eq!(chosen.plan, plan.threads[t], "{ctx}: the chosen rung");
        }
        let plain = TunePlan::heuristic(csr, *threads, &TuningConfig::naive());
        assert_plans_equivalent(csr, &plan, &plain, id);
    }
}

#[test]
fn a_streaming_share_is_timed_and_never_loses_to_its_incumbent() {
    // Past the threshold on one thread, so the clock decides: `fem_cantilever`
    // times A against B on both legs, `economics` A against S on a SIMD host
    // (on a scalar one its timed ladder is rung A alone). Whatever the clock
    // decides, the winner was not measured slower than rung A, the chosen rung
    // is the share's plan, and the product is plain CSR's.
    let simd_host = spmv_multicore::spmv_core::kernels::simd::available();
    let config = TuningConfig::full();
    for matrix in [SuiteMatrix::FemCantilever, SuiteMatrix::Economics] {
        if matrix == SuiteMatrix::Economics && !simd_host {
            continue;
        }
        let ctx = format!("{}, timed ladder", matrix.id());
        let csr = CsrMatrix::from_coo(&matrix.generate(Scale::Small));
        let (plan, ladders) = TunePlan::with_ladders(&csr, 1, &config);
        assert_eq!(ladders.len(), 1);
        let ladder = &ladders[0];
        assert!(ladder.rungs.len() > 1, "{ctx}: a rung to refuse");
        assert_eq!(ladder.rungs[0].label, "A");
        assert_eq!(ladder.rungs[1].label == "S", simd_host, "S is timed second");
        assert!(ladder.rungs.iter().all(|r| r.seconds.is_some()), "{ctx}");
        assert!(ladder.rungs[ladder.chosen].seconds <= ladder.rungs[0].seconds);
        assert_eq!(ladder.rungs[ladder.chosen].plan, plan.threads[0]);
        let plain = TunePlan::heuristic(&csr, 1, &TuningConfig::naive());
        assert_plans_equivalent(&csr, &plan, &plain, &ctx);
    }
}

#[test]
fn the_timed_ladder_cuts_no_grid() {
    // One streaming share at Small: `webbase` proposes both grids, `economics`
    // the TLB grid (its cache grid is one cell, so it is rung B). Each is
    // planned with and without SIMD.
    let scalar = TuningConfig {
        simd: false,
        ..TuningConfig::full()
    };
    let cases = [(SuiteMatrix::Webbase, "CD"), (SuiteMatrix::Economics, "D")];
    for ((matrix, grids), config) in cases
        .into_iter()
        .flat_map(|case| [(case, TuningConfig::full()), (case, scalar)])
    {
        let ctx = format!("{} simd {}", matrix.id(), config.simd);
        let csr = CsrMatrix::from_coo(&matrix.generate(Scale::Small));
        let proposed = ladder_rungs(&csr, &config, false);
        let all: String = proposed.iter().map(|r| r.label).collect();
        assert!(all.ends_with(grids), "{ctx} proposes {all}");
        // The untimed planner still keeps the finest grid.
        let heuristic = TunePlan::heuristic(&csr, 1, &config);
        let finest = &proposed[finest(&proposed)];
        assert_eq!(heuristic.threads[0].decisions, finest.decisions, "{ctx}");

        let (plan, ladders) = TunePlan::with_ladders(&csr, 1, &config);
        let timed: String = ladders[0].rungs.iter().map(|r| r.label).collect();
        assert_eq!(timed, all.replace(['C', 'D'], ""), "{ctx}");
        assert_eq!(plan.threads[0].decisions.len(), 1, "{ctx}: no grid chosen");
        // Every rung the clock sees is the proposal of the same name, so a
        // pick among A, S and B is the plan the full ladder would have made.
        for rung in &ladders[0].rungs {
            let same = proposed.iter().find(|p| p.label == rung.label);
            let same = same.expect("a timed rung was proposed").decisions.clone();
            let annotated = ThreadPlan::annotated(0..csr.nrows(), same, &config);
            assert_eq!(rung.plan, annotated, "{ctx}: rung {}", rung.label);
        }
    }
}

#[test]
fn the_symmetric_plan_keeps_its_place_inside_the_margin() {
    let general = |shares: &[Option<f64>]| general_beats_symmetric(Some(1.0), shares);
    assert!(!general(&[Some(0.5), Some(0.5)]), "a tie");
    assert!(!general(&[Some(0.48), Some(0.48)]), "a 4 % loss");
    assert!(general(&[Some(0.47), Some(0.47)]), "a 6 % loss");
    assert!(
        !general(&[Some(0.1), None]),
        "a share that failed to materialize"
    );
}

#[test]
fn the_clock_picks_the_pipeline_of_a_streaming_symmetric_matrix() {
    let twin = SuiteMatrix::FemCantilever.generate_symmetric(Scale::Small);
    let csr = CsrMatrix::from_coo(&twin.expect("fem_cantilever has a symmetric twin"));
    let (n, x) = (csr.nrows(), test_x(csr.nrows()));
    let config = TuningConfig::full();
    for threads in [1, 2] {
        let ctx = format!("fem_cantilever twin, threads={threads}");
        let (plan, ladders) = TunePlan::with_ladders(&csr, threads, &config);
        assert_eq!(ladders.len(), threads, "{ctx}: the general ladders");
        for ladder in &ladders {
            assert!(
                ladder.rungs[ladder.chosen].seconds.is_some(),
                "{ctx}: a share untimed"
            );
        }
        plan.validate_for(&csr)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let back = TunePlan::from_text(&plan.to_text()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(plan, back, "{ctx}: profile round trip");
        let plain = TunePlan::heuristic(&csr, threads, &TuningConfig::naive());
        assert_plans_equivalent(&csr, &plan, &plain, &ctx);

        let prepared = PreparedMatrix::materialize(&csr, &plan).expect("a fresh plan fits");
        let mut engine = SpmvEngine::from_plan(&csr, &plan).expect("a fresh plan fits");
        let (mut y_serial, mut y) = (vec![0.5; n], vec![0.5; n]);
        prepared.spmv(&x, &mut y_serial);
        engine.spmv(&x, &mut y);
        assert_bit_identical(&y_serial, &y, &format!("{ctx}: engine spmv"));
        for k in [1, 3] {
            let (mut s_serial, mut s) = (MultiVec::zeros(n, k), MultiVec::zeros(n, k));
            prepared.spmm(&xblock(n, k), &mut s_serial);
            engine.spmm(&xblock(n, k), &mut s);
            let what = format!("{ctx}: engine spmm k={k}");
            assert_bit_identical(s_serial.data(), s.data(), &what);
        }
        let mut serial = SerialCg::new(prepared, &x).expect("the twin is square");
        let mut fused = FusedCg::new(engine, &x);
        for step in 0..10 {
            serial.step();
            fused.step();
            let (a, b) = (serial.rr().to_bits(), fused.rr().to_bits());
            assert_eq!(a, b, "{ctx}: rr at step {step}");
        }
        assert_bit_identical(serial.solution(), fused.solution(), &format!("{ctx}: CG"));

        // The untimed planner, a declaration and the opt-out ask no clock.
        assert!(
            TunePlan::heuristic(&csr, threads, &config).symmetric,
            "{ctx}"
        );
        let declared = TunePlan::new_symmetric(&csr, threads, &config);
        assert!(declared.expect("the twin is symmetric").symmetric, "{ctx}");
        let general = TuningConfig {
            exploit_symmetry: false,
            ..config
        };
        assert!(!TunePlan::new(&csr, threads, &general).symmetric, "{ctx}");
    }
}
