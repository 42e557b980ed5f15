//! `MatrixRegistry` / `ServedMatrix`: insert/get/remove, direct applies,
//! profile round trips, the tune cache, hot swap and background retune, the
//! LRU hot set, and the metrics export. Public API only (see
//! `tests/batcher.rs`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_core::multivec::MultiVec;
use spmv_core::tuning::{TunePlan, TuningConfig};
use spmv_core::{MatrixShape, SpMv};
use spmv_serve::{BatchPolicy, Batcher, MatrixFingerprint, MatrixRegistry, ServeError, TuneCache};
use std::sync::Arc;

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

fn temp_cache(tag: &str) -> (std::path::PathBuf, Arc<TuneCache>) {
    let dir = std::env::temp_dir().join(format!("spmv_registry_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = Arc::new(TuneCache::with_platform(&dir, "test-plat").unwrap());
    (dir, cache)
}

#[test]
fn insert_get_and_direct_apply() {
    let registry = MatrixRegistry::new(2, TuningConfig::full());
    let csr = random_csr(60, 50, 600, 1);
    let served = registry.insert("m", &csr).unwrap();
    assert_eq!(registry.names(), vec!["m".to_string()]);
    assert_eq!(served.nnz(), csr.nnz());
    let x: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
    let y = served.spmv_now(&x).unwrap();
    let mut expected = vec![0.0; 60];
    csr.spmv(&x, &mut expected);
    let diff = y
        .iter()
        .zip(&expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(diff < 1e-9);
    assert!(served.footprint().total_bytes > 0);
    assert_eq!(registry.get("m").unwrap().name(), "m");
    assert!(registry.get("absent").is_none());
}

#[test]
fn duplicate_names_rejected_and_remove_frees_them() {
    let registry = MatrixRegistry::new(1, TuningConfig::naive());
    let csr = random_csr(10, 10, 30, 2);
    registry.insert("m", &csr).unwrap();
    assert!(matches!(
        registry.insert("m", &csr),
        Err(ServeError::AlreadyRegistered(_))
    ));
    assert!(registry.remove("m").is_some());
    assert!(registry.is_empty());
    registry.insert("m", &csr).unwrap();
    assert_eq!(registry.len(), 1);
}

#[test]
fn simd_plans_serve_and_report_their_kernel_class() {
    // Dense-ish matrix under the full config: on a host with a detected
    // SIMD level the heuristic plan enables the vectorized kernels, and
    // the served handle reports it. Results stay within accumulation
    // tolerance of the plain serial kernel (FMA reassociates).
    let registry = MatrixRegistry::new(2, TuningConfig::full());
    let csr = random_csr(96, 64, 96 * 40, 17);
    let served = registry.insert("dense", &csr).unwrap();
    assert_eq!(
        served.uses_simd(),
        spmv_core::kernels::simd::available(),
        "full() plans vectorized kernels exactly when the host has them"
    );
    let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
    let y = served.spmv_now(&x).unwrap();
    let mut expected = vec![0.0; 96];
    csr.spmv(&x, &mut expected);
    let scale = expected.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (a, b) in y.iter().zip(&expected) {
        assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b}");
    }
    // A registry that forbids SIMD must never plan it, host or not.
    let scalar_registry = MatrixRegistry::new(2, TuningConfig::naive());
    let scalar = scalar_registry.insert("dense", &csr).unwrap();
    assert!(!scalar.uses_simd());
}

#[test]
fn profile_round_trip_through_registry() {
    let registry = MatrixRegistry::new(2, TuningConfig::full());
    let csr = random_csr(80, 70, 900, 3);
    registry.insert("m", &csr).unwrap();
    let path = std::env::temp_dir().join("spmv_serve_registry_test.profile");
    registry.save_profile("m", &path).unwrap();

    let fresh = MatrixRegistry::new(2, TuningConfig::naive());
    let reloaded = fresh.insert_from_profile("m2", &csr, &path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.plan(), registry.get("m").unwrap().plan());

    // A profile for a different matrix must be rejected.
    let other = random_csr(80, 70, 800, 4);
    let plan = TunePlan::new(&csr, 2, &TuningConfig::full());
    assert!(matches!(
        fresh.insert_with_plan("bad", &other, plan),
        Err(ServeError::Build(_))
    ));
}

#[test]
fn spmm_now_matches_per_column_spmv() {
    let registry = MatrixRegistry::new(3, TuningConfig::full());
    let csr = random_csr(40, 30, 300, 5);
    let served = registry.insert("m", &csr).unwrap();
    let cols: Vec<Vec<f64>> = (0..5)
        .map(|j| (0..30).map(|i| (i * (j + 1)) as f64 * 0.05).collect())
        .collect();
    let views: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let x = MultiVec::from_columns(&views);
    let y = served.spmm_now(&x).unwrap();
    for j in 0..5 {
        assert_eq!(y.col(j), &served.spmv_now(x.col(j)).unwrap()[..]);
    }
}

#[test]
fn dimension_mismatches_are_reported() {
    let registry = MatrixRegistry::new(1, TuningConfig::naive());
    let csr = random_csr(8, 6, 20, 6);
    let served = registry.insert("m", &csr).unwrap();
    assert!(matches!(
        served.spmv_now(&[1.0; 5]),
        Err(ServeError::DimensionMismatch {
            expected: 6,
            found: 5
        })
    ));
    assert!(registry.save_profile("absent", "/tmp/x").is_err());
}

#[test]
fn cached_insert_skips_the_search_on_the_second_registry() {
    let (dir, cache) = temp_cache("warm_hit");
    let csr = random_csr(70, 60, 700, 7);

    let first = MatrixRegistry::new(2, TuningConfig::full()).with_cache(Arc::clone(&cache));
    let a = first.insert("m", &csr).unwrap();
    assert_eq!(cache.search_count(), 1);

    // A fresh registry sharing the cache serves the same plan with no
    // second search — the warm hit produces a ready ServedMatrix.
    let second = MatrixRegistry::new(2, TuningConfig::full()).with_cache(Arc::clone(&cache));
    let b = second.insert("m", &csr).unwrap();
    assert_eq!(cache.search_count(), 1, "warm insert must not search");
    assert_eq!(cache.hit_count(), 1);
    assert_eq!(a.plan(), b.plan());
    let x: Vec<f64> = (0..60).map(|i| (i % 7) as f64).collect();
    assert_eq!(a.spmv_now(&x).unwrap(), b.spmv_now(&x).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swap_plan_hot_swaps_the_engine() {
    let registry = MatrixRegistry::new(2, TuningConfig::full());
    let csr = random_csr(50, 50, 500, 8);
    let served = registry.insert("m", &csr).unwrap();
    assert_eq!(served.retune_count(), 0);
    let before = served.plan();

    let alt = TunePlan::new(&csr, 3, &TuningConfig::naive());
    assert_ne!(alt, before);
    served.swap_plan(alt.clone()).unwrap();
    assert_eq!(served.retune_count(), 1);
    assert_eq!(served.plan(), alt);
    let x: Vec<f64> = (0..50).map(|i| (i % 5) as f64 * 0.5).collect();
    let mut expected = vec![0.0; 50];
    csr.spmv(&x, &mut expected);
    let y = served.spmv_now(&x).unwrap();
    let diff = y
        .iter()
        .zip(&expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(diff < 1e-9);

    // A plan for a different matrix must be rejected and leave the old
    // engine serving.
    let other = random_csr(50, 50, 400, 9);
    let bad = TunePlan::new(&other, 2, &TuningConfig::full());
    assert!(served.swap_plan(bad).is_err());
    assert_eq!(served.retune_count(), 1);
    assert_eq!(served.plan(), alt);
}

#[test]
fn retune_background_completes_and_keeps_serving() {
    let (dir, cache) = temp_cache("retune_bg");
    let registry = MatrixRegistry::new(2, TuningConfig::full()).with_cache(Arc::clone(&cache));
    let csr = random_csr(90, 80, 1000, 10);
    let served = registry.insert("m", &csr).unwrap();

    let handle = registry.retune_background("m").unwrap();
    // Serving stays live while the planner runs.
    let x: Vec<f64> = (0..80).map(|i| (i % 9) as f64).collect();
    let _ = served.spmv_now(&x).unwrap();
    let swapped = handle.join().expect("retune thread").unwrap();
    // Whatever the planner concluded, the served plan is its plan and the
    // cache holds it.
    let fp = MatrixFingerprint::compute(&csr);
    assert_eq!(fp, served.fingerprint());
    let cached = cache
        .lookup(&fp, 2, &TuningConfig::full(), &csr)
        .expect("plan persisted");
    assert_eq!(cached, served.plan());
    if swapped {
        assert_eq!(served.retune_count(), 1);
    } else {
        assert_eq!(served.retune_count(), 0);
    }
    assert!(registry.retune_background("absent").is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lru_eviction_demotes_and_rematerializes() {
    let registry = MatrixRegistry::new(1, TuningConfig::naive()).with_hot_capacity(2);
    let a = random_csr(30, 20, 200, 20);
    let b = random_csr(30, 20, 220, 21);
    let c = random_csr(30, 20, 240, 22);
    let served_a = registry.insert("a", &a).unwrap();
    let plan_a = served_a.plan();
    registry.insert("b", &b).unwrap();
    assert_eq!(registry.hot_len(), 2);
    assert_eq!(registry.evictions(), 0);

    // Touch "a" so "b" becomes the LRU victim when "c" arrives.
    registry.get("a").unwrap();
    registry.insert("c", &c).unwrap();
    assert_eq!(registry.len(), 3, "cold entries stay registered");
    assert_eq!(registry.hot_len(), 2);
    assert_eq!(registry.evictions(), 1);
    assert!(registry.is_hot("a") && registry.is_hot("c"));
    assert!(!registry.is_hot("b"));
    assert!(registry.names().contains(&"b".to_string()));

    // A get on the cold name rebuilds the engine from the retained plan
    // (no search) and demotes the new LRU ("a" is older than "c").
    let revived = registry.get("b").unwrap();
    assert_eq!(registry.cold_rebuilds(), 1);
    assert!(registry.is_hot("b") && !registry.is_hot("a"));
    let x: Vec<f64> = (0..20).map(|i| (i % 4) as f64).collect();
    let mut expected = vec![0.0; 30];
    b.spmv(&x, &mut expected);
    let y = revived.spmv_now(&x).unwrap();
    assert!(y.iter().zip(&expected).all(|(p, q)| (p - q).abs() < 1e-9));

    // "a" survives its own demote/revive round-trip with plan intact.
    let revived_a = registry.get("a").unwrap();
    assert_eq!(revived_a.plan(), plan_a);
    assert_eq!(registry.cold_rebuilds(), 2);
    assert_eq!(registry.hot_len(), 2);

    // Removing a cold entry frees the name (no engine to return).
    assert!(!registry.is_hot("c") || !registry.is_hot("b"));
    let cold_name = if registry.is_hot("b") { "c" } else { "b" };
    assert!(registry.remove(cold_name).is_none());
    assert_eq!(registry.len(), 2);
}

#[test]
fn eviction_with_inflight_batcher_completes_and_keeps_stats() {
    let registry = MatrixRegistry::new(1, TuningConfig::naive()).with_hot_capacity(1);
    let a = random_csr(24, 16, 150, 30);
    let served_a = registry.insert("a", &a).unwrap();
    let batcher = Batcher::manual(Arc::clone(&served_a), BatchPolicy::default());
    let x: Vec<f64> = (0..16).map(|i| (i % 5) as f64 * 0.25).collect();
    let ticket = batcher.submit(x.clone()).unwrap();

    // Registering "b" evicts "a" while its batch is still queued. The
    // batcher's Arc keeps the evicted engine alive; the batch completes
    // on it bit-identically.
    let b = random_csr(24, 16, 150, 31);
    registry.insert("b", &b).unwrap();
    assert!(!registry.is_hot("a"));
    assert_eq!(registry.evictions(), 1);
    assert_eq!(batcher.run_once(), 1);
    let y = ticket.wait().unwrap();
    let mut expected = vec![0.0; 24];
    a.spmv(&x, &mut expected);
    assert!(y.iter().zip(&expected).all(|(p, q)| (p - q).abs() < 1e-9));
    drop(batcher);

    // The request recorded after the eviction is visible through the
    // rematerialized handle: the stats instance rode the cold entry.
    let revived = registry.get("a").unwrap();
    assert_eq!(registry.cold_rebuilds(), 1);
    assert_eq!(revived.serve_stats().requests(), 1);
    assert!(
        !Arc::ptr_eq(&served_a, &revived),
        "fresh handle, same stats"
    );
}

#[test]
fn metrics_expose_lru_and_failure_counters() {
    let registry = MatrixRegistry::new(1, TuningConfig::naive()).with_hot_capacity(1);
    let a = random_csr(20, 20, 100, 40);
    let b = random_csr(20, 20, 100, 41);
    registry.insert("a", &a).unwrap();
    registry.insert("b", &b).unwrap();
    let text = registry.metrics();
    assert!(text.contains("spmv_registry_evictions_total 1"));
    assert!(text.contains("spmv_registry_cold_rebuilds_total 0"));
    assert!(text.contains("spmv_registry_hot_matrices 1"));
    assert!(text.contains("spmv_registry_cold_matrices 1"));
    // Cold entries still export their serve counters, and the load-shed /
    // failed-batch families are present per matrix.
    assert!(text.contains("spmv_serve_requests_total{matrix=\"a\"} 0"));
    assert!(text.contains("spmv_serve_sheds_total{matrix=\"a\"} 0"));
    assert!(text.contains("spmv_serve_failed_batches_total{matrix=\"b\"} 0"));
    assert!(text.contains("spmv_registry_hot{matrix=\"a\"} 0"));
    assert!(text.contains("spmv_registry_hot{matrix=\"b\"} 1"));
}
