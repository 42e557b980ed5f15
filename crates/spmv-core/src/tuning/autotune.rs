//! The persistent tune cache: plans keyed by matrix fingerprint.
//!
//! [`TunePlan::new`] is the one timed search: the one-pass footprint heuristic
//! proposes per thread share, the share's ladder times the proposals. That
//! costs real time on every share past the cache, so its plans persist: a
//! [`TuneCache`] stores a plan's plain-text profile (the `spmv-tune-plan v2`
//! format of [`TunePlan::to_text`]) keyed by [`MatrixFingerprint`] × platform
//! × thread count × tuning config, so a matrix seen twice is planned once.
//! Cache entries carry a checksum over the profile text; a tampered or
//! truncated entry is rejected and treated as a miss.
//!
//! The fingerprint hashes the matrix's dimensions and its stored CSR arrays
//! (`row_ptr`, `col_idx`, value bits) a 64-bit word at a time on four
//! independent lanes, and nothing derived from them: block-fill samples are a
//! function of those arrays and add no identity. Every matrix registered for
//! serving is fingerprinted, cache or no cache, so this one streaming pass is
//! part of every registration's set-up. Keys carry the tag `spmv-fp-v2`; keys
//! of the earlier byte-wise hash (`v1`) simply miss.

use crate::error::{Error, Result};
use crate::formats::csr::CsrMatrix;
use crate::formats::traits::MatrixShape;
use crate::tuning::heuristic::TuningConfig;
use crate::tuning::plan::TunePlan;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Matrix fingerprints
// ---------------------------------------------------------------------------

/// First line of a cache entry. `v1` entries predate the vector `SymBcsr`
/// kernel, so for a symmetric matrix on a SIMD host they hold a pipeline or
/// slab the planner would no longer choose. `v2` entries predate timing every
/// share: a share or symmetric plan under 512 KiB holds an untimed plan, which
/// may be a cache/TLB grid slower than plain CSR. `v3` entries hold a
/// `spmv-tune-plan v1` profile, whose thread lines carry the retired
/// software-prefetch tokens; dropping the prefetch field of [`TuningConfig`]
/// also changed every config key, so those entries are no longer even opened,
/// and the `v4` header keeps them misses should a key ever collide. Each bump
/// makes the older entries misses.
const ENTRY_HEADER: &str = "spmv-tune-cache v4";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a, the checksum hash of this module (stable, dependency-free,
/// endianness-independent over the byte stream we feed it). One multiply per
/// byte, each waiting on the last: fine for a plan's text, too slow for a
/// matrix, which [`WordHash`] fingerprints.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The multipliers of [`WordHash`]'s round and avalanche: xxHash64's primes.
const WORD_PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const WORD_PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const WORD_PRIME_3: u64 = 0x1656_67b1_9e37_79f9;

/// The fingerprint hash: a stream of 64-bit words dealt round-robin to four
/// independent lanes (xxHash64's round: add the word times a prime, rotate,
/// multiply), so the four multiplies of a block do not wait on each other.
/// For a fixed word each round is a bijection of its lane, so two streams
/// that differ in one word leave that lane, and almost surely the result,
/// different. [`WordHash::finish`] folds the lanes and avalanches.
struct WordHash([u64; 4]);

impl WordHash {
    fn new(seed: u64) -> WordHash {
        WordHash([
            seed.wrapping_add(WORD_PRIME_1).wrapping_add(WORD_PRIME_2),
            seed.wrapping_add(WORD_PRIME_2),
            seed,
            seed.wrapping_sub(WORD_PRIME_1),
        ])
    }

    #[inline(always)]
    fn round(&mut self, words: [u64; 4]) {
        for (lane, word) in self.0.iter_mut().zip(words) {
            *lane = lane
                .wrapping_add(word.wrapping_mul(WORD_PRIME_2))
                .rotate_left(31)
                .wrapping_mul(WORD_PRIME_1);
        }
    }

    /// Absorb `items`, `per_word` of them packed into each word by `word`. A
    /// short last block is padded with zero words: the caller has hashed the
    /// lengths, so the padding is unambiguous.
    #[inline(always)]
    fn absorb<T>(&mut self, items: &[T], per_word: usize, word: impl Fn(&[T]) -> u64) {
        let mut blocks = items.chunks_exact(4 * per_word);
        for block in &mut blocks {
            self.round(std::array::from_fn(|l| {
                word(&block[l * per_word..(l + 1) * per_word])
            }));
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut words = tail.chunks(per_word);
            self.round(std::array::from_fn(|_| words.next().map_or(0, &word)));
        }
    }

    fn finish(self) -> u64 {
        let [a, b, c, d] = self.0;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        h ^= h >> 33;
        h = h.wrapping_mul(WORD_PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(WORD_PRIME_3);
        h ^ (h >> 32)
    }
}

/// A structural identity for a matrix: dimensions, nonzero count, and a hash
/// of its three CSR arrays as they are stored: `row_ptr`, `col_idx` (two
/// indices to a word) and the exact value bits. Two reads of the same file
/// fingerprint identically; changing a row length, a column, or a value's
/// bits (`-0.0` against `+0.0` included) changes the fingerprint, and so
/// does transposing a non-symmetric matrix or permuting rows that differ.
///
/// Nothing derived from the arrays is hashed: block-fill estimates (2×2,
/// 4×4) are a function of the row lengths and columns already in the hash,
/// so they would add no identity, only a second pass over the matrix.
/// Computing the fingerprint is one streaming read of the CSR arrays, a word
/// at a time on four lanes ([`WordHash`]).
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
        let (nrows, ncols, nnz) = (csr.nrows(), csr.ncols(), csr.nnz());
        let mut h = WordHash::new(fnv1a(FNV_OFFSET, b"spmv-fp-v2"));
        h.absorb(&[nrows, ncols, nnz], 1, |d| d[0] as u64);
        h.absorb(csr.row_ptr(), 1, |p| p[0] as u64);
        h.absorb(csr.col_idx(), 2, |pair| {
            pair.iter().rev().fold(0, |w, &j| w << 32 | u64::from(j))
        });
        h.absorb(csr.values(), 1, |v| v[0].to_bits());
        MatrixFingerprint {
            nrows,
            ncols,
            nnz,
            hash: h.finish(),
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

/// A directory of tune plans, keyed by fingerprint × platform × thread count ×
/// tuning-config digest. Entries are the plain-text `spmv-tune-plan v2`
/// profile wrapped in a checksummed header; anything that fails the checksum,
/// the key match, or plan validation is rejected. The config digest in the key
/// means registries with different tuning policies (symmetry off, different
/// blocking budgets) can safely share one cache without serving each other
/// plans their own config forbids. Hit/miss/search counters let tests (and
/// operators) prove a warm cache skips the planner entirely.
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
    /// made under one policy (e.g. symmetry on) must not be served to a
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

    /// Timed planner runs this cache has had to pay for (the counter hook the
    /// cache-hit tests assert on: a warm hit must not increment it).
    pub fn search_count(&self) -> u64 {
        self.searches.load(Ordering::Relaxed)
    }

    /// Total wall nanoseconds spent inside those planner runs (together with
    /// [`TuneCache::search_count`] it yields mean planning cost, and a warm
    /// cache proves itself by this number staying flat).
    pub fn search_nanos(&self) -> u64 {
        self.search_ns.load(Ordering::Relaxed)
    }

    /// Persist `plan` for `(fp, nthreads, config)` on this platform. The write
    /// is staged to a temp file and renamed, so concurrent readers never
    /// observe a torn entry. Every call stages under its own name, so
    /// concurrent stores of one entry never rename each other's file away.
    pub fn store(
        &self,
        fp: &MatrixFingerprint,
        nthreads: usize,
        config: &TuningConfig,
        plan: &TunePlan,
    ) -> Result<()> {
        static STAGED: AtomicU64 = AtomicU64::new(0);
        let plan_text = plan.to_text();
        let text = format!(
            "{ENTRY_HEADER}\nkey {} platform {} threads {} config {}\nchecksum {:016x}\n{}",
            fp.key(),
            self.platform,
            nthreads,
            Self::config_key(config),
            fnv1a(FNV_OFFSET, plan_text.as_bytes()),
            plan_text
        );
        let path = self.entry_path(fp, nthreads, config);
        let staged = STAGED.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp{}-{staged}", std::process::id()));
        std::fs::write(&tmp, text)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| {
                std::fs::remove_file(&tmp).ok();
                Error::Parse(format!("tune cache: cannot write {path:?}: {e}"))
            })
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
        if header != ENTRY_HEADER {
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

    /// The cached planning entry point: fingerprint, look up, and only on a
    /// miss run [`TunePlan::new`] (counting it) and persist its plan.
    pub fn plan(
        &self,
        csr: &CsrMatrix,
        nthreads: usize,
        config: &TuningConfig,
    ) -> Result<TunePlan> {
        let fp = MatrixFingerprint::compute(csr);
        if let Some(plan) = self.lookup(&fp, nthreads, config, csr) {
            return Ok(plan);
        }
        self.searches.fetch_add(1, Ordering::Relaxed);
        let t0 = std::time::Instant::now();
        let plan = TunePlan::new(csr, nthreads, config);
        let elapsed = spmv_obs::saturating_nanos(t0.elapsed());
        self.search_ns.fetch_add(elapsed, Ordering::Relaxed);
        spmv_obs::trace::trace(spmv_obs::TraceKind::TuneSearch, elapsed, 0);
        self.store(&fp, nthreads, config, &plan)?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::coo::CooMatrix;
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spmv_tune_cache_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
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
    fn concurrent_stores_of_one_entry_all_succeed() {
        let dir = temp_dir("concurrent_store");
        let cache = TuneCache::with_platform(&dir, "test-plat").unwrap();
        let csr = random_csr(60, 50, 500, 12);
        let fp = MatrixFingerprint::compute(&csr);
        let config = TuningConfig::full();
        let plan = TunePlan::new(&csr, 2, &config);
        let errors: usize = std::thread::scope(|scope| {
            let stores: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        (0..200)
                            .filter(|_| cache.store(&fp, 2, &config, &plan).is_err())
                            .count()
                    })
                })
                .collect();
            stores.into_iter().map(|s| s.join().unwrap()).sum()
        });
        assert_eq!(errors, 0, "no store may lose its staging file to another");
        assert_eq!(cache.lookup(&fp, 2, &config, &csr), Some(plan));
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
    fn cached_plan_searches_once() {
        let dir = temp_dir("once");
        let cache = TuneCache::with_platform(&dir, "test-plat").unwrap();
        let csr = random_csr(100, 90, 900, 11);
        let first = cache.plan(&csr, 2, &TuningConfig::full()).unwrap();
        assert_eq!(cache.search_count(), 1);
        let second = cache.plan(&csr, 2, &TuningConfig::full()).unwrap();
        assert_eq!(second, first);
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.search_count(), 1, "warm hit must not search again");
        std::fs::remove_dir_all(&dir).ok();
    }
}
