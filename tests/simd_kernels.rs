//! The SIMD microkernel property/fuzz suite (paper Section 4.3 rung).
//!
//! Three pillars, per the vectorization acceptance bar:
//!
//! 1. **Kernel equivalence** — every vectorized kernel (BCSR r×4 for
//!    r ∈ {1, 2, 4}, the gather-free CSR row kernel, and their multivec
//!    variants) × every index width {u16, u32, usize} matches the dense
//!    triplet reference on the seeded case generator, which is biased toward
//!    the shapes that break vector code: rectangular matrices, empty rows,
//!    single-row/column shapes, and remainder columns (ncols % 4 ≠ 0) that
//!    exercise the zero-padded ragged edge. The explicit scalar dispatch arm
//!    is swept alongside the host arm, so the fallback is tested everywhere.
//! 2. **SpMM ≡ k × SpMV** — the vectorized multivec kernels perform, per
//!    column, the identical operation sequence as the single-vector kernels,
//!    so the products are bit-identical for every swept k (the invariant the
//!    batching service relies on).
//! 3. **Plans across threads** — SIMD plans, the tuner's own, one that
//!    stores every share as sliced ELL and one that mixes sliced-ELL shares
//!    with the tuner's CSR or BCSR ones, materialize and run on the parallel
//!    engine at 1, 2, 3 and oversubscribed (n + 3) thread counts with output
//!    bit-identical to the plan's own serial `PreparedMatrix` oracle, and
//!    within accumulation tolerance of the dense reference.
//!
//! 4. **Routing** — a plan decision of every kind, register block shape,
//!    index width and SIMD choice, materialized through `PreparedMatrix`,
//!    answers SpMV and SpMM with the bits of its own typed kernel called
//!    directly on the same typed matrix.
//!
//! Sliced ELL rides the same sweeps under a stricter rule: lane = row, so a
//! row's sum is one in-order FMA chain and the vector arm, the `mul_add` arm
//! and that chain written out on plain CSR agree **bit for bit** — also when
//! `x` holds NaN, ±Inf, −0.0 and subnormals at the column padding points to.

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_core::formats::bcsr::{BcsrMatrix, ALLOWED_BLOCK_DIMS};
use spmv_multicore::spmv_core::formats::{
    BcooMatrix, GcsrMatrix, IndexStorage, IndexWidth, SellMatrix, SymBcsr, SymCsr,
};
use spmv_multicore::spmv_core::kernels::multivec::{spmm_bcoo, spmm_bcsr, spmm_csr, spmm_gcsr};
use spmv_multicore::spmv_core::kernels::simd::{
    self, bcsr_simd_shape, spmm_bcsr_simd, spmm_csr_simd, spmm_csr_simd_at, spmm_sell_at,
    spmv_bcsr_simd, spmv_csr_simd, spmv_csr_simd_at, spmv_sell_at, spmv_sym_bcsr_simd, SimdLevel,
};
use spmv_multicore::spmv_core::kernels::single_loop::spmv_single_loop;
use spmv_multicore::spmv_core::partition::row::partition_rows_balanced;
use spmv_multicore::spmv_core::tuning::{
    BlockDecision, FormatChoice, FormatKind, ShareLadder, ThreadPlan,
};
use spmv_multicore::spmv_core::MultiVecMut;
use spmv_testutil::{
    assert_bit_identical, cases, empty_row_csr, max_abs_diff, plan_outputs, random_csr,
    single_col_csr, single_row_csr, test_x, xblock, Case,
};

/// The case pool every kernel sweep runs over: the seeded generator (already
/// biased toward rectangular/empty/boundary shapes) plus fixed cases that pin
/// the SIMD-specific hazards — remainder columns for every covered lane
/// count, and rows that end exactly on a vector boundary.
fn simd_cases() -> Vec<Case> {
    let mut pool = cases(40, 0x51D);
    // Remainder columns: ncols % 4 ∈ {1, 2, 3} forces the zero-padded edge.
    for (ncols, seed) in [(5usize, 1u64), (6, 2), (7, 3), (13, 4)] {
        let csr = random_csr(12, ncols, 12 * ncols / 2, seed);
        pool.push(Case {
            nrows: 12,
            ncols,
            entries: csr.iter().collect(),
        });
    }
    // Exact multiples: every row a whole number of 4-lane groups.
    let csr = random_csr(16, 16, 120, 5);
    pool.push(Case {
        nrows: 16,
        ncols: 16,
        entries: csr.iter().collect(),
    });
    pool
}

fn dense_reference(case: &Case, x: &[f64]) -> Vec<f64> {
    case.dense_reference(x)
}

/// Pillar 1, CSR: the gather-free vector row kernel × width × dispatch arm.
#[test]
fn csr_simd_matches_dense_reference_across_widths() {
    for (i, case) in simd_cases().iter().enumerate() {
        let csr = case.csr();
        let x = test_x(case.ncols);
        let expected = dense_reference(case, &x);
        let levels = [simd::detect(), SimdLevel::Scalar];

        let c16 = csr.reindex::<u16>();
        let c32 = csr.reindex::<u32>().expect("u32 always fits the cases");
        let cus = csr.reindex::<usize>().expect("usize always fits");
        for level in levels {
            if let Ok(m) = &c16 {
                let mut y = vec![0.0; case.nrows];
                spmv_csr_simd_at(level, m, &x, &mut y);
                assert!(
                    max_abs_diff(&y, &expected) < 1e-9,
                    "csr<u16> {level:?} case {i}"
                );
            }
            let mut y = vec![0.0; case.nrows];
            spmv_csr_simd_at(level, &c32, &x, &mut y);
            assert!(
                max_abs_diff(&y, &expected) < 1e-9,
                "csr<u32> {level:?} case {i}"
            );
            let mut y = vec![0.0; case.nrows];
            spmv_csr_simd_at(level, &cus, &x, &mut y);
            assert!(
                max_abs_diff(&y, &expected) < 1e-9,
                "csr<usize> {level:?} case {i}"
            );
        }
        // The entry point a plan binds dispatches the same kernels.
        let mut y = vec![0.0; case.nrows];
        match &c16 {
            Ok(m) => spmv_csr_simd(m, &x, &mut y),
            Err(_) => spmv_csr_simd(&c32, &x, &mut y),
        }
        assert!(max_abs_diff(&y, &expected) < 1e-9, "narrowest csr case {i}");
    }
}

/// Pillar 1, BCSR: covered vector shapes and scalar-fallback shapes alike
/// match the reference at every width; uncovered shapes are *bitwise* the
/// scalar kernel (the dispatch must not silently reroute them).
#[test]
fn bcsr_simd_matches_dense_reference_across_widths_and_shapes() {
    for (i, case) in simd_cases().iter().enumerate() {
        let csr = case.csr();
        let x = test_x(case.ncols);
        let expected = dense_reference(case, &x);
        for (r, c) in [(1, 4), (2, 4), (4, 4), (3, 4), (2, 2), (4, 2)] {
            macro_rules! check_width {
                ($I:ty, $tag:literal) => {
                    if let Ok(b) = BcsrMatrix::<$I>::from_csr(&csr, r, c) {
                        let mut y = vec![0.0; case.nrows];
                        spmv_bcsr_simd(&b, &x, &mut y);
                        assert!(
                            max_abs_diff(&y, &expected) < 1e-9,
                            "bcsr<{}> {r}x{c} case {i}",
                            $tag
                        );
                        if !bcsr_simd_shape(r, c) {
                            // Uncovered shape: the dispatcher must hand the
                            // exact scalar result through, bit for bit.
                            let mut ys = vec![0.0; case.nrows];
                            b.spmv(&x, &mut ys);
                            assert_bit_identical(
                                &y,
                                &ys,
                                &format!("bcsr<{}> {r}x{c} fallback case {i}", $tag),
                            );
                        }
                    }
                };
            }
            check_width!(u16, "u16");
            check_width!(u32, "u32");
            check_width!(usize, "usize");
        }
    }
}

/// `to_bits` equality, except that a NaN matches any NaN. Rust leaves the sign
/// and payload of a NaN result unspecified: where a row meets two NaNs (a
/// payload NaN and ∞ − ∞), the scalar leg's SpMM and SpMV keep different ones.
/// A NaN that leaks into another column or row still fails, since there the
/// reference is not NaN.
fn assert_bits_or_both_nan(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{context}: element {i} differs ({x:?} vs {y:?})"
        );
    }
}

/// Pillar 2: vectorized SpMM is bit-identical to k single-vector SIMD calls,
/// per width, per k (every remainder after the kernels' 8-, 4- and 2-wide
/// chunks). Each block runs once as is and once with a hostile column (a NaN
/// payload, ±Inf, −0.0, a subnormal) that must stay in its own column.
#[test]
fn simd_spmm_is_bit_identical_to_k_spmv_across_widths() {
    // 4×4 tiles over a ragged bottom (nrows % 4 ∈ {1, 2, 3}: the last block
    // row stores only some of its rows) and a padded x window (ncols % 4 ≠ 0),
    // both inside the 4-wide chunks.
    let ragged =
        [(21usize, 16usize, 1u64), (22, 19, 2), (23, 13, 3)].map(|(nrows, ncols, seed)| {
            let csr = random_csr(nrows, ncols, nrows * ncols / 2, seed);
            Case {
                nrows,
                ncols,
                entries: csr.iter().collect(),
            }
        });
    let hostile = [
        f64::from_bits(0x7ff8_0000_0000_beef),
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        5e-324,
    ];
    for (i, case) in simd_cases().iter().step_by(3).chain(&ragged).enumerate() {
        let csr = case.csr();
        for k in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 11, 16] {
            let mut bad = xblock(case.ncols, k);
            let n = hostile.len().min(case.ncols);
            bad.col_mut(k / 2)[..n].copy_from_slice(&hostile[..n]);
            for (xtag, xb) in [("benign", xblock(case.ncols, k)), ("hostile", bad)] {
                let same: fn(&[f64], &[f64], &str) = if xtag == "benign" {
                    assert_bit_identical
                } else {
                    assert_bits_or_both_nan
                };
                let ctx = |what: String, j| format!("{what} spmm k={k} col {j} {xtag} x case {i}");

                // CSR at each width.
                macro_rules! check_csr {
                    ($m:expr, $tag:literal) => {{
                        let m = $m;
                        let mut ym = MultiVec::zeros(case.nrows, k);
                        spmm_csr_simd(m, xb.data(), xb.ld(), &mut ym.view_mut());
                        for j in 0..k {
                            let mut y = vec![0.0; case.nrows];
                            spmv_csr_simd(m, xb.col(j), &mut y);
                            let what = format!("csr<{}>", $tag);
                            same(ym.col(j), &y, &ctx(what, j));
                        }
                    }};
                }
                if let Ok(m) = csr.reindex::<u16>() {
                    check_csr!(&m, "u16");
                }
                check_csr!(&csr.reindex::<usize>().unwrap(), "usize");

                // BCSR covered shapes (each has a different K-chunking scheme).
                macro_rules! check_bcsr {
                    ($I:ty, $tag:literal) => {
                        for r in [1, 2, 4] {
                            if let Ok(b) = BcsrMatrix::<$I>::from_csr(&csr, r, 4) {
                                let mut ym = MultiVec::zeros(case.nrows, k);
                                spmm_bcsr_simd(&b, xb.data(), xb.ld(), &mut ym.view_mut());
                                for j in 0..k {
                                    let mut y = vec![0.0; case.nrows];
                                    spmv_bcsr_simd(&b, xb.col(j), &mut y);
                                    let what = format!("bcsr<{}> {r}x4", $tag);
                                    same(ym.col(j), &y, &ctx(what, j));
                                }
                            }
                        }
                    };
                }
                check_bcsr!(u16, "u16");
                check_bcsr!(u32, "u32");
            }
        }
    }
}

/// The explicit scalar arm of the multivec dispatch agrees with the scalar
/// single-vector arm bitwise — so the fallback path upholds the same SpMM
/// contract as the vector path, on every host.
#[test]
fn scalar_fallback_spmm_upholds_the_same_contract() {
    let csr = random_csr(30, 23, 260, 0xFA);
    let m = csr.reindex::<u32>().unwrap();
    for k in [1usize, 3, 6] {
        let xb = xblock(23, k);
        let mut ym = MultiVec::zeros(30, k);
        spmm_csr_simd_at(
            SimdLevel::Scalar,
            &m,
            xb.data(),
            xb.ld(),
            &mut ym.view_mut(),
        );
        for j in 0..k {
            let mut y = vec![0.0; 30];
            spmv_csr_simd_at(SimdLevel::Scalar, &m, xb.col(j), &mut y);
            assert_bit_identical(ym.col(j), &y, &format!("scalar spmm k={k} col {j}"));
        }
    }
}

/// Pillar 1, boundary structures: the shapes the generator can only hit by
/// luck, pinned explicitly.
#[test]
fn simd_kernels_handle_degenerate_structures() {
    for (tag, csr) in [
        ("empty-rows", empty_row_csr(10, 8)),
        ("single-row", single_row_csr(9, 7)),
        ("single-col", single_col_csr(9, 8)),
        ("empty", empty_row_csr(1, 1)),
    ] {
        let x = test_x(csr.ncols());
        let expected = spmv_testutil::dense_spmv(&csr, &x);
        let mut y = vec![0.0; csr.nrows()];
        spmv_csr_simd(&csr.reindex::<u32>().unwrap(), &x, &mut y);
        assert!(max_abs_diff(&y, &expected) < 1e-12, "{tag}: csr");
        for (r, c) in [(1, 4), (4, 4)] {
            if let Ok(b) = BcsrMatrix::<u32>::from_csr(&csr, r, c) {
                let mut y = vec![0.0; csr.nrows()];
                spmv_bcsr_simd(&b, &x, &mut y);
                assert!(max_abs_diff(&y, &expected) < 1e-12, "{tag}: bcsr {r}x{c}");
            }
        }
        // SIMD kernels accumulate: a pre-filled destination is added into.
        let mut y = vec![1.5; csr.nrows()];
        spmv_csr_simd(&csr.reindex::<u32>().unwrap(), &x, &mut y);
        for (i, (&got, &e)) in y.iter().zip(&expected).enumerate() {
            assert!((got - (e + 1.5)).abs() < 1e-12, "{tag}: accumulate row {i}");
        }
    }
}

/// Sliced ELL's accumulation rule written out on plain CSR: per row one
/// in-order `mul_add` chain from `+0.0`, added into a zero destination.
fn csr_fma_chain(csr: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    let (row_ptr, cols, vals) = (csr.row_ptr(), csr.col_idx(), csr.values());
    let chain = |r: usize| {
        (row_ptr[r]..row_ptr[r + 1]).fold(0.0, |acc, p| vals[p].mul_add(x[cols[p] as usize], acc))
    };
    (0..csr.nrows()).map(|r| 0.0 + chain(r)).collect()
}

/// The structures sliced ELL has to get right beyond the shared pool: a row
/// count off the chunk size, rows sorted across three windows, one 1 000-long
/// row among 3-long ones (a chunk that is nearly all padding), empty rows, no
/// entries at all, and a column span only 32-bit indices reach.
fn sell_cases() -> Vec<(String, CsrMatrix)> {
    let mut long_row = CooMatrix::new(37, 1200);
    for row in 0..37 {
        let len = if row == 5 { 1000 } else { 3 };
        (0..len).for_each(|j| long_row.push(row, (row * 13 + j) % 1200, 0.5 + j as f64));
    }
    let mut pool = vec![
        ("long-row".to_string(), CsrMatrix::from_coo(&long_row)),
        ("three-windows".to_string(), random_csr(1101, 300, 4400, 31)),
        ("empty-rows".to_string(), empty_row_csr(10, 8)),
        (
            "all-empty".to_string(),
            CsrMatrix::from_coo(&CooMatrix::new(9, 9)),
        ),
        ("wide-u32".to_string(), random_csr(30, 70_000, 900, 23)),
    ];
    let shared = simd_cases().into_iter().enumerate();
    pool.extend(shared.map(|(i, case)| (format!("case {i}"), case.csr())));
    pool
}

/// Vector arm == `mul_add` arm == the chain on plain CSR, and SpMM over k
/// columns == k SpMV calls, all bit for bit, at one index width.
fn check_sell<I: IndexStorage>(tag: &str, csr: &CsrMatrix, x: &[f64]) {
    let Ok(sell) = SellMatrix::<I>::from_csr(csr) else {
        assert!(!I::fits(csr.ncols()), "{tag}: only a wide span may refuse");
        return;
    };
    let expected = csr_fma_chain(csr, x);
    for level in [simd::detect(), SimdLevel::Scalar] {
        let ctx = format!("{tag} sell<{}> {level:?}", I::NAME);
        let mut y = vec![0.0; csr.nrows()];
        spmv_sell_at(level, &sell, x, &mut y);
        assert_bit_identical(&y, &expected, &ctx);
        for k in [1usize, 3, 7, 8] {
            let mut xb = xblock(csr.ncols(), k);
            xb.col_mut(k - 1).copy_from_slice(x);
            let mut ym = MultiVec::zeros(csr.nrows(), k);
            spmm_sell_at(level, &sell, xb.data(), xb.ld(), &mut ym.view_mut());
            for j in 0..k {
                let expected = csr_fma_chain(csr, xb.col(j));
                assert_bit_identical(ym.col(j), &expected, &format!("{ctx} spmm k={k} col {j}"));
            }
        }
    }
}

/// Pillars 1 and 2 for sliced ELL, under its stricter rule.
#[test]
fn sell_is_the_fma_chain_bit_for_bit_on_both_arms() {
    for (tag, csr) in sell_cases() {
        let x = test_x(csr.ncols());
        check_sell::<u16>(&tag, &csr, &x);
        check_sell::<u32>(&tag, &csr, &x);
    }
}

/// Padded entries carry column 0 and every hostile value sits in a column only
/// some rows reference: a row that references none of them must come out with
/// the bits the chain on plain CSR gives it, and one that does with exactly
/// the NaN/Inf the chain produces.
#[test]
fn sell_padding_never_leaks_hostile_x_into_other_rows() {
    let hostile = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        5e-324,
        1e-310,
    ];
    let mut coo = CooMatrix::new(42, 64);
    for row in 0..42 {
        // One possibly-hostile column (0..8) first, then 0..=4 benign ones: the
        // chunk's rows differ in length, so every chunk pads.
        coo.push(row, row % 8, 1.5 - row as f64);
        (0..row % 5)
            .for_each(|j| coo.push(row, 8 + (row * 11 + j * 7) % 56, 0.25 * (j + 1) as f64));
    }
    let csr = CsrMatrix::from_coo(&coo);
    let mut x = test_x(64);
    x[..6].copy_from_slice(&hostile);
    check_sell::<u16>("hostile", &csr, &x);
    check_sell::<u32>("hostile", &csr, &x);
    for (row, y) in csr_fma_chain(&csr, &x).iter().enumerate() {
        assert_eq!(y.is_finite(), !(0..3).contains(&(row % 8)), "row {row}");
    }
}

/// The plan that stores every thread share as one sliced-ELL block — what rung
/// `S` proposes — whether or not this host's clock would choose it.
fn sell_plan(csr: &CsrMatrix, threads: usize) -> TunePlan {
    let config = TuningConfig::full();
    let width = IndexWidth::narrowest_for(csr.ncols());
    let shares = partition_rows_balanced(csr, threads).ranges.into_iter();
    let plans = shares.map(|rows| {
        let local = csr.row_slice(rows.start, rows.end);
        let block = BlockDecision {
            rows: 0..local.nrows(),
            cols: 0..local.ncols(),
            choice: FormatChoice::sell(&local, width),
            nnz: local.nnz(),
        };
        let decisions = if local.nnz() == 0 {
            vec![]
        } else {
            vec![block]
        };
        ThreadPlan::annotated(rows, decisions, &config)
    });
    TunePlan {
        nrows: csr.nrows(),
        ncols: csr.ncols(),
        nnz: csr.nnz(),
        symmetric: false,
        threads: plans.collect(),
    }
}

/// The tuned plan with rung S put on every other share: a mix of sliced ELL
/// and the CSR or BCSR rungs that the clock may also pick.
fn mixed_plan(tuned: &TunePlan, ladders: &[ShareLadder]) -> TunePlan {
    let mut plan = tuned.clone();
    for (share, ladder) in plan.threads.iter_mut().zip(ladders).step_by(2) {
        if let Some(s) = ladder.rungs.iter().find(|r| r.label == "S") {
            *share = s.plan.clone();
        }
    }
    plan
}

/// A sliced-ELL plan answers with the bits of its serial `PreparedMatrix` at
/// every layer above the engine too: through the batcher (requests coalesced
/// into one SpMM) and over the loopback wire.
#[test]
fn sell_plans_keep_their_bits_through_the_batcher_and_the_wire() {
    use spmv_multicore::spmv_net::{NetClient, ServerConfig, ShardedNetServer};
    let csr = random_csr(1101, 300, 4400, 31);
    let plan = sell_plan(&csr, 2);
    let serial = PreparedMatrix::materialize(&csr, &plan).expect("plan matches its matrix");
    let xb = xblock(300, 3);
    let expected: Vec<Vec<f64>> = (0..3).map(|j| serial.spmv_alloc(xb.col(j))).collect();

    let registry = std::sync::Arc::new(MatrixRegistry::new(2, TuningConfig::full()));
    let served = registry.insert_with_plan("s", &csr, plan).unwrap();
    let batcher = Batcher::manual(served, BatchPolicy { max_batch: 4 });
    let tickets: Vec<_> = (0..3)
        .map(|j| batcher.submit(xb.col(j).to_vec()).unwrap())
        .collect();
    assert_eq!(batcher.run_once(), 3, "one coalesced batch");
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        assert_bit_identical(&ticket.wait().unwrap(), want, "batcher");
    }

    let server = ShardedNetServer::bind(registry, "127.0.0.1:0", ServerConfig::default(), 1);
    let mut handle = server
        .expect("bind loopback")
        .spawn()
        .expect("spawn server");
    let mut client = NetClient::connect(handle.addr()).unwrap();
    assert_bit_identical(&client.spmv("s", xb.col(0)).unwrap(), &expected[0], "wire");
    let cols: Vec<Vec<f64>> = (0..3).map(|j| xb.col(j).to_vec()).collect();
    for (got, want) in client.spmm("s", &cols).unwrap().iter().zip(&expected) {
        assert_bit_identical(got, want, "wire spmm");
    }
    handle.shutdown();
}

/// Pillar 3: SIMD plans across thread counts {1, 2, 3, n + 3}. The parallel
/// engine must stay bit-identical to the plan's serial `PreparedMatrix`
/// oracle (partition boundaries, not thread interleaving, fix the arithmetic)
/// and within accumulation tolerance of the dense reference.
#[test]
fn simd_plans_run_bit_identical_across_thread_counts() {
    let oversubscribed = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        + 3;
    let suite = [
        ("dense-u16", random_csr(64, 48, 64 * 30, 21)),
        ("sparse-u16", random_csr(150, 90, 900, 22)),
        ("wide-u32", random_csr(30, 70_000, 900, 23)),
        ("remainder", random_csr(61, 43, 1100, 24)),
    ];
    for (tag, csr) in &suite {
        let x = test_x(csr.ncols());
        let expected = spmv_testutil::dense_spmv(csr, &x);
        let scale = expected.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let xb = xblock(csr.ncols(), 3);
        let expected_cols: Vec<Vec<f64>> = (0..3)
            .map(|j| spmv_testutil::dense_spmv(csr, xb.col(j)))
            .collect();
        let plans = [1usize, 2, 3, oversubscribed]
            .into_iter()
            .flat_map(|threads| {
                let (tuned, ladders) = TunePlan::with_ladders(csr, threads, &TuningConfig::full());
                let mixed = mixed_plan(&tuned, &ladders);
                [
                    (threads, tuned),
                    (threads, sell_plan(csr, threads)),
                    (threads, mixed),
                ]
            });
        for (threads, plan) in plans {
            assert_eq!(
                plan.threads.iter().any(|t| t.simd),
                simd::available(),
                "{tag}: the full config plans SIMD exactly when the host has it"
            );
            let prepared =
                PreparedMatrix::materialize(csr, &plan).expect("plan matches its matrix");
            assert_eq!(plan.planned_bytes(), prepared.footprint_bytes(), "{tag}");
            // A plan loaded where the vector arm is missing runs sliced ELL on
            // the `mul_add` arm: other kernels, the same bits. The clock may
            // give one share of the tuned plan rung S and another a CSR or
            // BCSR rung, whose vector kernels reassociate; the rows of every
            // sliced-ELL share keep their bits, and every row stays within
            // accumulation tolerance of the dense reference.
            let text = plan.to_text();
            assert_eq!(TunePlan::from_text(&text).as_ref(), Ok(&plan), "{tag}");
            if text.contains(" sell ") {
                let degraded = TunePlan::from_text_with_simd_support(&text, false).unwrap();
                assert!(degraded.threads.iter().all(|t| !t.simd));
                let (y, ym) = plan_outputs(csr, &degraded);
                let (y_simd, ym_simd) = plan_outputs(csr, &plan);
                assert!(
                    max_abs_diff(&y, &expected) <= 1e-12 * scale,
                    "{tag}@{threads}: degraded spmv drifted from the dense reference"
                );
                for (j, want) in expected_cols.iter().enumerate() {
                    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                    assert!(
                        max_abs_diff(ym.col(j), want) <= 1e-12 * scale,
                        "{tag}@{threads}: degraded spmm col {j} drifted from the dense reference"
                    );
                }
                let sell_shares = plan.threads.iter().filter(|t| {
                    t.decisions
                        .iter()
                        .all(|d| d.choice.kind == FormatKind::Sell)
                });
                for share in sell_shares {
                    let rows = share.rows.clone();
                    let ctx = format!("{tag}@{threads}: degraded rows {rows:?}");
                    assert_bit_identical(&y[rows.clone()], &y_simd[rows.clone()], &ctx);
                    for j in 0..3 {
                        let (col, col_simd) = (ym.col(j), ym_simd.col(j));
                        let ctx = format!("{ctx}, spmm col {j}");
                        assert_bit_identical(&col[rows.clone()], &col_simd[rows.clone()], &ctx);
                    }
                }
            }
            let mut y_serial = vec![0.0; csr.nrows()];
            prepared.spmv(&x, &mut y_serial);
            assert!(
                max_abs_diff(&y_serial, &expected) <= 1e-12 * scale,
                "{tag}@{threads}: serial SIMD drifted from the dense reference"
            );

            let mut engine = SpmvEngine::from_plan(csr, &plan).expect("plan matches its matrix");
            let mut y_par = vec![0.0; csr.nrows()];
            engine.spmv(&x, &mut y_par);
            assert_bit_identical(&y_par, &y_serial, &format!("{tag}@{threads}: spmv"));

            let mut ys = MultiVec::zeros(csr.nrows(), 3);
            prepared.spmm(&xb, &mut ys);
            let mut yp = MultiVec::zeros(csr.nrows(), 3);
            engine.spmm(&xb, &mut yp);
            assert_bit_identical(yp.data(), ys.data(), &format!("{tag}@{threads}: spmm"));
            // And the multivec path agrees with per-column SpMV bitwise.
            for j in 0..3 {
                let mut y = vec![0.0; csr.nrows()];
                prepared.spmv(xb.col(j), &mut y);
                assert_bit_identical(ys.col(j), &y, &format!("{tag}@{threads}: spmm col {j}"));
            }
        }
    }
}

/// A kernel called on its own: `y ← y + A·x`.
type Spmv<'a> = &'a dyn Fn(&[f64], &mut [f64]);
/// Its multivec twin: `Y ← Y + A·X` over a strided column-major source.
type Spmm<'a> = &'a dyn Fn(&[f64], usize, &mut MultiVecMut);

/// `plan` materialized through `PreparedMatrix` answers SpMV on `test_x` and
/// SpMM on a 3-column `xblock` with the bits `spmv` and `spmm` give from the
/// same zeroed destinations.
fn assert_routes(csr: &CsrMatrix, plan: &TunePlan, ctx: &str, spmv: Spmv, spmm: Spmm) {
    let (y, ym) = plan_outputs(csr, plan);
    let mut want = vec![0.0; csr.nrows()];
    spmv(&test_x(csr.ncols()), &mut want);
    assert_bit_identical(&y, &want, &format!("{ctx}: spmv"));
    let mut want = MultiVec::zeros(csr.nrows(), 3);
    spmm(
        xblock(csr.ncols(), 3).data(),
        csr.ncols(),
        &mut want.view_mut(),
    );
    assert_bit_identical(ym.data(), want.data(), &format!("{ctx}: spmm"));
}

/// The one-thread plan of `csr` (a symmetric one for `sym`) with its decision
/// set to `kind` at `r × c` and width `I`, and SIMD bound to `simd`.
fn routed_plan<I: IndexStorage>(
    csr: &CsrMatrix,
    sym: bool,
    simd: bool,
    (kind, r, c): (FormatKind, usize, usize),
) -> TunePlan {
    let mut plan = if sym {
        TunePlan::new_symmetric(csr, 1, &TuningConfig::naive()).unwrap()
    } else {
        TunePlan::heuristic(csr, 1, &TuningConfig::naive())
    };
    let share = &mut plan.threads[0];
    share.simd = simd;
    let choice = &mut share.decisions[0].choice;
    (choice.kind, choice.r, choice.c) = (kind, r, c);
    choice.width = I::WIDTH.expect("a stored width");
    plan
}

/// Every general kind and shape and both symmetric slabs at width `I`.
fn check_routing<I: IndexStorage>(csr: &CsrMatrix, sym: &CsrMatrix, simd: bool) {
    let level = if simd {
        simd::detect()
    } else {
        SimdLevel::Scalar
    };
    let ctx = |what: &str| format!("{what}<{}> simd={simd}", I::NAME);
    let general = |kind| routed_plan::<I>(csr, false, simd, kind);
    let slab = |kind| routed_plan::<I>(sym, true, simd, kind);

    let m = csr.reindex::<I>().unwrap();
    let (spmv, spmm): (Spmv, Spmm) = if simd {
        (&|x, y| spmv_csr_simd(&m, x, y), &|x, ld, y| {
            spmm_csr_simd(&m, x, ld, y)
        })
    } else {
        (&|x, y| spmv_single_loop(&m, x, y), &|x, ld, y| {
            spmm_csr(&m, x, ld, y)
        })
    };
    assert_routes(
        csr,
        &general((FormatKind::Csr, 1, 1)),
        &ctx("csr"),
        spmv,
        spmm,
    );

    let m = GcsrMatrix::<I>::from_csr(csr).unwrap();
    let plan = general((FormatKind::Gcsr, 1, 1));
    let spmm: Spmm = &|x, ld, y| spmm_gcsr(&m, x, ld, y);
    assert_routes(csr, &plan, &ctx("gcsr"), &|x, y| m.spmv(x, y), spmm);

    let m = SellMatrix::<I>::from_csr(csr).unwrap();
    let plan = general((FormatKind::Sell, 1, 1));
    let spmv: Spmv = &|x, y| spmv_sell_at(level, &m, x, y);
    let spmm: Spmm = &|x, ld, y| spmm_sell_at(level, &m, x, ld, y);
    assert_routes(csr, &plan, &ctx("sell"), spmv, spmm);

    let m = SymCsr::<I>::from_csr(sym).unwrap();
    let spmm: Spmm = &|x, ld, y| {
        (0..y.k()).for_each(|j| m.spmv_full(&x[j * ld..][..ld], y.col_mut(j)));
    };
    let plan = slab((FormatKind::SymCsr, 1, 1));
    assert_routes(sym, &plan, &ctx("symcsr"), &|x, y| m.spmv_full(x, y), spmm);

    for r in ALLOWED_BLOCK_DIMS {
        for c in ALLOWED_BLOCK_DIMS {
            let m = BcsrMatrix::<I>::from_csr(csr, r, c).unwrap();
            let (spmv, spmm): (Spmv, Spmm) = if simd {
                (&|x, y| spmv_bcsr_simd(&m, x, y), &|x, ld, y| {
                    spmm_bcsr_simd(&m, x, ld, y)
                })
            } else {
                (&|x, y| m.spmv(x, y), &|x, ld, y| spmm_bcsr(&m, x, ld, y))
            };
            let plan = general((FormatKind::Bcsr, r, c));
            assert_routes(csr, &plan, &ctx(&format!("bcsr {r}x{c}")), spmv, spmm);

            let m = BcooMatrix::<I>::from_csr(csr, r, c).unwrap();
            let plan = general((FormatKind::Bcoo, r, c));
            let spmm: Spmm = &|x, ld, y| spmm_bcoo(&m, x, ld, y);
            let what = ctx(&format!("bcoo {r}x{c}"));
            assert_routes(csr, &plan, &what, &|x, y| m.spmv(x, y), spmm);

            let m = SymBcsr::<I>::from_csr(sym, r, c).unwrap();
            let spmv: Spmv = if simd {
                &|x, y| spmv_sym_bcsr_simd(&m, x, y)
            } else {
                &|x, y| m.spmv_full(x, y)
            };
            let spmm: Spmm = &|x, ld, y| {
                (0..y.k()).for_each(|j| spmv(&x[j * ld..][..ld], y.col_mut(j)));
            };
            let plan = slab((FormatKind::SymBcsr, r, c));
            assert_routes(sym, &plan, &ctx(&format!("symbcsr {r}x{c}")), spmv, spmm);
        }
    }
}

/// Pillar 4, routing: CSR, BCSR and BCOO at every shape up to 4×4, GCSR,
/// sliced ELL and both symmetric slabs, at both index widths, with SIMD bound
/// on and off, each reach their own kernel through `PreparedMatrix`.
#[test]
fn every_kind_width_and_simd_arm_reaches_its_own_kernel() {
    let csr = random_csr(61, 43, 900, 26);
    let sym = spmv_testutil::random_symmetric_csr(57, 500, 27);
    for simd in [false, true] {
        check_routing::<u16>(&csr, &sym, simd);
        check_routing::<u32>(&csr, &sym, simd);
    }
}
