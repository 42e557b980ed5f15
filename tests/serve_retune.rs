//! Serve-layer retuning suite: hot-swap correctness under fire.
//!
//! 1. **Stress** — N client threads hammer `spmv_now`/`spmm_now` while the
//!    engine hot-swaps to a new plan mid-stream: no torn reads, every result
//!    bit-identical to the serial reference of either the old or the new plan
//!    (symmetric plans at different thread counts make the two references
//!    bitwise distinct, so a torn engine cannot hide).
//! 2. **Warm cache** — a `TuneCache` hit produces a ready `ServedMatrix`
//!    without invoking the planner (counter-proven), across registries.
//! 3. **Background retune** — `retune_background` reruns the timed planner
//!    off the serving path while requests keep flowing, then answers from
//!    its plan.

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_serve::TuneCache;
use spmv_testutil::{random_csr, random_symmetric_csr, test_x, xblock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Serial reference outputs (SpMV on `test_x`, SpMM on a 3-column block) of
/// one plan.
fn references(csr: &CsrMatrix, plan: &TunePlan) -> (Vec<f64>, Vec<f64>) {
    let prepared = PreparedMatrix::materialize(csr, plan).expect("plan matches");
    let x = test_x(csr.ncols());
    let mut y = vec![0.0; csr.nrows()];
    prepared.spmv(&x, &mut y);
    let xs = xblock(csr.ncols(), 3);
    let mut ys = MultiVec::zeros(csr.nrows(), 3);
    prepared.spmm(&xs, &mut ys);
    (y, ys.data().to_vec())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn hammering_clients_survive_a_hot_swap_bit_identically() {
    // A symmetric matrix: its plans at different thread counts reduce their
    // scratch slabs through different trees, so the old and new references
    // are bitwise distinct and a half-swapped engine cannot masquerade as
    // either.
    let csr = random_symmetric_csr(80, 500, 21);
    let symmetric = |threads| TunePlan::new_symmetric(&csr, threads, &TuningConfig::full());
    let registry = MatrixRegistry::new(2, TuningConfig::full());
    let served = registry
        .insert_with_plan("hot", &csr, symmetric(2).unwrap())
        .unwrap();
    let old_plan = served.plan();
    let new_plan = symmetric(5).unwrap();
    assert_ne!(old_plan, new_plan);

    let (y_old, s_old) = references(&csr, &old_plan);
    let (y_new, s_new) = references(&csr, &new_plan);
    assert_ne!(
        bits(&y_old),
        bits(&y_new),
        "different reduction trees must be observable bitwise"
    );

    let x = test_x(csr.ncols());
    let xs = xblock(csr.ncols(), 3);
    let stop = AtomicBool::new(false);
    let saw = std::sync::Mutex::new((false, false)); // (old seen, new seen)
    std::thread::scope(|scope| {
        for client in 0..4 {
            let served = Arc::clone(&served);
            let (stop, saw) = (&stop, &saw);
            let (x, xs) = (&x, &xs);
            let (y_old, y_new, s_old, s_new) = (&y_old, &y_new, &s_old, &s_new);
            scope.spawn(move || {
                let mut iter = 0usize;
                while !stop.load(Ordering::Relaxed) || iter < 10 {
                    iter += 1;
                    let y = served.spmv_now(x).expect("spmv_now");
                    let from_old = bits(&y) == bits(y_old);
                    let from_new = bits(&y) == bits(y_new);
                    assert!(
                        from_old || from_new,
                        "client {client} iter {iter}: spmv result matches neither plan's \
                         serial reference — torn read"
                    );
                    let ys = served.spmm_now(xs).expect("spmm_now");
                    let sm_old = bits(ys.data()) == bits(s_old);
                    let sm_new = bits(ys.data()) == bits(s_new);
                    assert!(
                        sm_old || sm_new,
                        "client {client} iter {iter}: spmm result matches neither reference"
                    );
                    let mut seen = saw.lock().unwrap();
                    seen.0 |= from_old;
                    seen.1 |= from_new;
                }
            });
        }
        // Let the clients pile on, then hot-swap mid-stream.
        std::thread::sleep(std::time::Duration::from_millis(30));
        served.swap_plan(new_plan.clone()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(served.retune_count(), 1);
    assert_eq!(served.plan(), new_plan);
    let seen = saw.lock().unwrap();
    assert!(seen.1, "post-swap results must come from the new plan");
    // Post-swap steady state answers from the new plan only.
    assert_eq!(bits(&served.spmv_now(&x).unwrap()), bits(&y_new));
}

#[test]
fn general_matrix_stress_with_repeated_swaps() {
    // The general pipeline under repeated back-and-forth swaps: every answer
    // must match one of the two serial references exactly.
    let csr = random_csr(150, 120, 2000, 22);
    let registry = MatrixRegistry::new(3, TuningConfig::full());
    let served = registry.insert("gen", &csr).unwrap();
    let plan_a = served.plan();
    let plan_b = TunePlan::new(&csr, 2, &TuningConfig::naive());
    let (y_a, _) = references(&csr, &plan_a);
    let (y_b, _) = references(&csr, &plan_b);

    let x = test_x(csr.ncols());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let served = Arc::clone(&served);
            let (stop, x, y_a, y_b) = (&stop, &x, &y_a, &y_b);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let y = served.spmv_now(x).expect("spmv_now");
                    assert!(
                        bits(&y) == bits(y_a) || bits(&y) == bits(y_b),
                        "torn read under repeated swaps"
                    );
                }
            });
        }
        for round in 0..6 {
            let next = if round % 2 == 0 { &plan_b } else { &plan_a };
            served.swap_plan(next.clone()).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(served.retune_count(), 6);
}

#[test]
fn warm_cache_produces_a_ready_served_matrix_without_searching() {
    let dir = std::env::temp_dir().join(format!("spmv_serve_retune_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = Arc::new(TuneCache::with_platform(&dir, "suite-plat").unwrap());
    let csr = random_csr(100, 90, 1100, 23);

    // Cold insert: one timed planner run, its plan persisted.
    let cold = MatrixRegistry::new(2, TuningConfig::full()).with_cache(Arc::clone(&cache));
    let a = cold.insert("m", &csr).unwrap();
    assert_eq!(cache.search_count(), 1);

    // Warm insert in a fresh registry: ready ServedMatrix, zero searches.
    let warm = MatrixRegistry::new(2, TuningConfig::full()).with_cache(Arc::clone(&cache));
    let b = warm.insert("m", &csr).unwrap();
    assert_eq!(
        cache.search_count(),
        1,
        "the warm insert must not invoke the search"
    );
    assert!(cache.hit_count() >= 1);
    assert_eq!(a.plan(), b.plan());
    let x = test_x(csr.ncols());
    assert_eq!(
        bits(&a.spmv_now(&x).unwrap()),
        bits(&b.spmv_now(&x).unwrap())
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_retune_keeps_serving_and_lands_the_winner() {
    let dir = std::env::temp_dir().join(format!("spmv_serve_retune_bg_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = Arc::new(TuneCache::with_platform(&dir, "suite-plat").unwrap());
    let registry = MatrixRegistry::new(2, TuningConfig::full()).with_cache(Arc::clone(&cache));
    let csr = random_csr(120, 100, 1500, 24);
    let served = registry.insert("m", &csr).unwrap();
    let x = test_x(csr.ncols());
    let before = served.spmv_now(&x).unwrap();

    let handle = registry.retune_background("m").unwrap();
    // Requests keep being answered while the planner runs in the background.
    for _ in 0..20 {
        let y = served.spmv_now(&x).unwrap();
        assert_eq!(y.len(), csr.nrows());
    }
    handle.join().expect("retune thread").unwrap();

    // The served plan is the planner's conclusion and the cache holds it; the
    // answer still matches the serial reference of the served plan exactly.
    let plan = served.plan();
    let (reference, _) = references(&csr, &plan);
    assert_eq!(bits(&served.spmv_now(&x).unwrap()), bits(&reference));
    let fp = spmv_multicore::spmv_serve::MatrixFingerprint::compute(&csr);
    assert_eq!(
        cache.lookup(&fp, 2, &TuningConfig::full(), &csr),
        Some(plan)
    );
    drop(before);
    std::fs::remove_dir_all(&dir).ok();
}
