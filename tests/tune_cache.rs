//! The tune cache and the fingerprints that key it.
//!
//! 1. **Fingerprints** — identical matrices fingerprint identically
//!    (including two reads of the same MatrixMarket stream); row-permuted and
//!    value-perturbed variants differ, and so do the variants a hash of the
//!    CSR arrays alone (no block-fill samples) must still tell apart: the same
//!    column and value streams cut into other rows, a transpose, `-0.0`
//!    against `+0.0`. A served matrix carries the fingerprint `compute` gives.
//! 2. **Cache** — a warm `TuneCache` hit provably skips the timed planner
//!    (counter hook), and tampered cache entries are rejected.
//! 3. **Profiles** — a `v1` profile is refused by its header, older cache
//!    entries are misses that plan again, and a profile whose block lines
//!    drop, repeat or overlap a share's nonzeros is refused, not served.
//! 4. **Golden plan** — the untimed `TunePlan::heuristic` plan for a fixed
//!    seeded matrix matches a committed snapshot, so silent planner drift
//!    fails loudly.

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_matrices::mmio::read_matrix_market;
use spmv_multicore::spmv_matrices::mmio::write_matrix_market;
use spmv_testutil::{assert_plan_snapshot, plan_snapshot, random_csr};

#[test]
fn fingerprints_identify_matrices_read_twice_from_matrix_market() {
    let csr = random_csr(50, 40, 400, 7);
    let mut buf = Vec::new();
    write_matrix_market(&csr.to_coo(), &mut buf).unwrap();
    let once = CsrMatrix::from_coo(&read_matrix_market(&buf[..]).unwrap());
    let twice = CsrMatrix::from_coo(&read_matrix_market(&buf[..]).unwrap());
    assert_eq!(
        MatrixFingerprint::compute(&once),
        MatrixFingerprint::compute(&twice),
        "two reads of the same stream must fingerprint identically"
    );
}

#[test]
fn fingerprints_differ_for_permuted_and_perturbed_variants() {
    let base = random_csr(60, 60, 500, 8);
    let fp = MatrixFingerprint::compute(&base);

    // Row permutation: swap the first two (structurally distinct) rows.
    let permuted: Vec<(usize, usize, f64)> = base
        .iter()
        .map(|(i, j, v)| {
            let row = match i {
                0 => 1,
                1 => 0,
                other => other,
            };
            (row, j, v)
        })
        .collect();
    let permuted = CsrMatrix::from_coo(&CooMatrix::from_triplets(60, 60, permuted).unwrap());
    assert_ne!(base, permuted, "swap must change the matrix");
    assert_ne!(fp, MatrixFingerprint::compute(&permuted), "row permutation");

    // Value perturbation: nudge every stored value's last bit in turn — any
    // single perturbation must change the fingerprint.
    for k in [0, base.nnz() / 2, base.nnz() - 1] {
        let perturbed: Vec<(usize, usize, f64)> = base
            .iter()
            .enumerate()
            .map(|(idx, (i, j, v))| {
                let v = if idx == k {
                    f64::from_bits(v.to_bits() ^ 1)
                } else {
                    v
                };
                (i, j, v)
            })
            .collect();
        let perturbed = CsrMatrix::from_coo(&CooMatrix::from_triplets(60, 60, perturbed).unwrap());
        assert_ne!(
            fp,
            MatrixFingerprint::compute(&perturbed),
            "value perturbation at stored entry {k}"
        );
    }
}

#[test]
fn fingerprints_tell_apart_what_the_csr_arrays_tell_apart() {
    let fp = |csr: &CsrMatrix| MatrixFingerprint::compute(csr);

    // The same column and value streams, cut into rows of other lengths.
    let cols = vec![0, 1, 2, 3, 0, 3];
    let vals = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    let even = CsrMatrix::from_raw(3, 4, vec![0, 2, 4, 6], cols.clone(), vals.clone()).unwrap();
    let ragged = CsrMatrix::from_raw(3, 4, vec![0, 1, 4, 6], cols, vals).unwrap();
    assert_eq!(even.col_idx(), ragged.col_idx());
    assert_eq!(even.values(), ragged.values());
    assert_ne!(fp(&even), fp(&ragged), "row lengths");

    // A non-symmetric square matrix and its transpose.
    let a = random_csr(40, 40, 300, 21);
    let at = CsrMatrix::from_coo(&a.to_coo().transpose());
    assert_ne!(a, at, "the sample must not be symmetric");
    assert_eq!(
        (a.nrows(), a.ncols(), a.nnz()),
        (at.nrows(), at.ncols(), at.nnz())
    );
    assert_ne!(fp(&a), fp(&at), "transpose");

    // Signed zeros are different bits.
    let zero = |v: f64| CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, v]);
    assert_ne!(fp(&zero(0.0).unwrap()), fp(&zero(-0.0).unwrap()), "-0.0");

    // Empty matrices fingerprint without panicking, by their shape.
    for (r, c) in [(0, 0), (0, 5), (5, 0), (3, 3)] {
        let empty = CsrMatrix::from_coo(&CooMatrix::new(r, c));
        let f = fp(&empty);
        assert_eq!((f.nrows, f.ncols, f.nnz), (r, c, 0));
        assert_eq!(f, fp(&empty.clone()));
    }
    let empty = |r, c| fp(&CsrMatrix::from_coo(&CooMatrix::new(r, c)));
    assert_ne!(empty(0, 5).hash, empty(5, 0).hash, "empty shapes");

    // A served matrix carries exactly the fingerprint `compute` gives.
    let registry = MatrixRegistry::new(1, TuningConfig::naive());
    let served = registry.insert("a", &a).unwrap();
    assert_eq!(served.fingerprint(), fp(&a));
}

#[test]
fn warm_cache_hit_skips_the_search_and_tampering_is_rejected() {
    let dir = std::env::temp_dir().join(format!("spmv_tune_cache_suite_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = TuneCache::with_platform(&dir, "suite-plat").unwrap();
    let csr = random_csr(90, 80, 900, 9);
    let config = TuningConfig::full();

    let first = cache.plan(&csr, 2, &config).unwrap();
    assert_eq!(cache.search_count(), 1);

    let second = cache.plan(&csr, 2, &config).unwrap();
    assert_eq!(cache.hit_count(), 1, "second plan must be a warm hit");
    assert_eq!(second, first);
    assert_eq!(cache.search_count(), 1, "the planner must not run twice");

    // Tamper with the stored entry: the checksum rejects it, the lookup
    // treats it as a miss, and the next plan runs the planner again.
    let fp = MatrixFingerprint::compute(&csr);
    let path = cache.entry_path(&fp, 2, &config);
    let text = std::fs::read_to_string(&path).unwrap();
    let tampered = text.replacen("block 0", "block 1", 1);
    assert_ne!(text, tampered);
    std::fs::write(&path, tampered).unwrap();
    assert!(
        cache.load_entry(&fp, 2, &config).is_err(),
        "tampered entry must error"
    );
    assert!(cache.lookup(&fp, 2, &config, &csr).is_none());
    cache.plan(&csr, 2, &config).unwrap();
    assert_eq!(cache.search_count(), 2, "tampered entry forces a re-plan");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn entries_from_the_previous_format_are_misses_and_get_replanned() {
    // Only the entry header is rewritten: the body and its checksum stay
    // valid, so the older header alone must turn the entry into a miss that
    // is planned again, never an error.
    let dir = std::env::temp_dir().join(format!("spmv_tune_cache_v3_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = TuneCache::with_platform(&dir, "suite-plat").unwrap();
    let csr = random_csr(70, 70, 600, 10);
    let config = TuningConfig::full();
    cache.plan(&csr, 2, &config).unwrap();
    assert_eq!(cache.search_count(), 1);

    let fp = MatrixFingerprint::compute(&csr);
    let path = cache.entry_path(&fp, 2, &config);
    let current = std::fs::read_to_string(&path).unwrap();
    assert!(
        current.starts_with("spmv-tune-cache v4\n"),
        "entries are written as v4"
    );
    for (searches, older) in [(2, "spmv-tune-cache v2"), (3, "spmv-tune-cache v3")] {
        std::fs::write(&path, current.replacen("spmv-tune-cache v4", older, 1)).unwrap();
        assert!(
            cache.lookup(&fp, 2, &config, &csr).is_none(),
            "a {older} entry is a miss"
        );

        cache.plan(&csr, 2, &config).unwrap();
        assert_eq!(
            cache.search_count(),
            searches,
            "the {older} entry forces exactly one re-plan"
        );
        let restored = std::fs::read_to_string(&path).unwrap();
        assert!(
            restored.starts_with("spmv-tune-cache v4\n"),
            "the re-plan is stored as v4"
        );
        assert!(cache.lookup(&fp, 2, &config, &csr).is_some());
        assert_eq!(cache.search_count(), searches);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_v1_profile_is_refused_by_its_header() {
    let text = "spmv-tune-plan v1\nmatrix 1 1 1\nthreads 1\n\
                thread 0 1 prefetch 64 nta\nblock 0 1 0 1 csr 1 1 u16 1 12 1\nend\n";
    let err = TunePlan::from_text(text).expect_err("v1 is not parsed");
    assert!(
        err.to_string().contains("spmv-tune-plan v1"),
        "the error names the header: {err}"
    );
}

/// The untimed scalar plan of Tiny `webbase` on one thread: two block lines,
/// the share's columns cut in two.
fn webbase_profile() -> (CsrMatrix, TuningConfig, Vec<String>) {
    let csr = CsrMatrix::from_coo(&SuiteMatrix::Webbase.generate(Scale::Tiny));
    let scalar = TuningConfig {
        simd: false,
        ..TuningConfig::full()
    };
    let text = TunePlan::heuristic(&csr, 1, &scalar).to_text();
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.iter().filter(|l| l.starts_with("block ")).count(), 2);
    (csr, scalar, lines)
}

#[test]
fn a_profile_whose_blocks_miss_or_repeat_nonzeros_is_refused() {
    let (csr, scalar, lines) = webbase_profile();
    let at = |k: usize| lines.iter().position(|l| l.starts_with("block ")).unwrap() + k;
    let (first, second) = (at(0), at(1));
    let fields = |i: usize| -> Vec<usize> {
        lines[i]
            .split(' ')
            .skip(1)
            .take(4)
            .map(|t| t.parse().unwrap())
            .collect()
    };
    let [rows0, rows1, c0, c1] = fields(second)[..] else {
        unreachable!()
    };
    assert_eq!(fields(first)[3], c0, "the cells split the share's columns");

    // Shift the second cell left by `k` columns to where it holds the same
    // number of nonzeros: its own count still matches the matrix, the counts
    // still sum to the share's, but it repeats the first cell's last columns
    // and drops its own last ones.
    let mut per_col = vec![0usize; csr.ncols()];
    for (_, j, _) in csr.iter() {
        per_col[j] += 1;
    }
    let count = |cols: std::ops::Range<usize>| per_col[cols].iter().sum::<usize>();
    let k = (1..c0)
        .find(|&k| count(c0 - k..c0) > 0 && count(c0 - k..c1 - k) == count(c0..c1))
        .expect("a shift that keeps the cell's count");
    let mut shifted = lines.clone();
    let tail: Vec<&str> = lines[second].split(' ').skip(5).collect();
    shifted[second] = format!(
        "block {rows0} {rows1} {} {} {}",
        c0 - k,
        c1 - k,
        tail.join(" ")
    );

    let mut dropped = lines.clone();
    dropped.remove(second);
    let mut repeated = lines.clone();
    repeated.insert(second, lines[first].clone());

    let registry = MatrixRegistry::new(1, scalar);
    let path = std::env::temp_dir().join(format!("spmv_cover_{}.profile", std::process::id()));
    for (what, profile) in [
        ("dropped", dropped),
        ("repeated", repeated),
        ("shifted", shifted),
    ] {
        let text = profile.join("\n") + "\n";
        let plan = TunePlan::from_text(&text).expect("the text itself is well formed");
        assert!(plan.validate_for(&csr).is_err(), "{what}: validate_for");
        std::fs::write(&path, &text).unwrap();
        assert!(
            registry.insert_from_profile(what, &csr, &path).is_err(),
            "{what}: insert_from_profile"
        );
    }
    std::fs::remove_file(&path).ok();
    // The untouched profile still serves.
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    assert!(registry.insert_from_profile("intact", &csr, &path).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn heuristic_plan_matches_the_golden_snapshot() {
    // A fixed seeded matrix whose plan is committed below: planner drift (new
    // formats, changed thresholds) must be a conscious edit here, never a
    // silent behaviour change.
    let csr = random_csr(64, 48, 512, 42);
    let plan = TunePlan::heuristic(&csr, 2, &TuningConfig::full());
    assert_plan_snapshot(&plan, GOLDEN_PLAN_64X48, "seed-42 heuristic plan");
    // And the snapshot itself is stable across renderings.
    assert_eq!(plan_snapshot(&plan), plan_snapshot(&plan.clone()));
}

/// Golden plan for `random_csr(64, 48, 512, 42)` at 2 threads,
/// `TuningConfig::full()`. Regenerate with `plan_snapshot` if the planner
/// changes intentionally.
const GOLDEN_PLAN_64X48: &str = "\
plan 64x48 nnz=467 threads=2 symmetric=false
  t0 rows=0..31 blocks=[csr/u16@0..31x0..48]
  t1 rows=31..64 blocks=[csr/u16@0..33x0..48]
";
