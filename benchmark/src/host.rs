//! Host descriptor and the bandwidth roof.
//!
//! The descriptor (hardware threads, cache sizes, SIMD level) is read in every
//! run and embedded in every output file. The roof — a STREAM-style read and
//! triad over arrays far larger than the last-level cache — takes seconds and
//! gigabytes, so only traced runs measure it; it is what `kernels.pct_of_roof`
//! divides by, measured in the same run as the kernels.

use std::time::Instant;

/// Per-array cap of the roof probe, so a host with a huge LLC or little memory
/// cannot turn the probe into the longest part of the run.
const MAX_PROBE_ARRAY_BYTES: usize = 1 << 30;
/// Array size when no cache size can be read: large against any private cache.
const FALLBACK_PROBE_ARRAY_BYTES: usize = 256 << 20;
const PROBE_PASSES: usize = 3;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    /// Largest per-core private (non-last) unified cache, bytes; `None` when
    /// sysfs does not say.
    pub l2_bytes: Option<usize>,
    /// Last-level cache, bytes; `None` when sysfs does not say.
    pub llc_bytes: Option<usize>,
    /// `spmv_core`'s runtime SIMD detection (`"avx2fma"`, `"neon"`, `"scalar"`).
    pub simd: &'static str,
    pub mem_available_bytes: Option<usize>,
}

/// The measured bandwidth roof, with the array size it was taken at.
#[derive(Debug, Clone, Copy)]
pub struct Roof {
    pub read_gbps: f64,
    pub triad_gbps: f64,
    pub array_bytes: usize,
}

fn parse_size(text: &str) -> Option<usize> {
    let t = text.trim();
    let (digits, mult) = match t.as_bytes().last()? {
        b'K' => (&t[..t.len() - 1], 1 << 10),
        b'M' => (&t[..t.len() - 1], 1 << 20),
        b'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * mult)
}

/// `(level, bytes)` of every data or unified cache of cpu0.
fn cpu0_caches() -> Vec<(u32, usize)> {
    let mut caches = Vec::new();
    let Ok(dir) = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return caches;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let read = |name: &str| std::fs::read_to_string(path.join(name)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        if let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(&size)) {
            caches.push((level, bytes));
        }
    }
    caches.sort_unstable();
    caches
}

fn mem_available() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb << 10)
}

impl Host {
    pub fn detect() -> Host {
        let caches = cpu0_caches();
        let llc = caches.last().copied();
        let l2 = caches
            .iter()
            .rev()
            .find(|(level, _)| Some(*level) != llc.map(|c| c.0) && *level >= 2)
            .map(|c| c.1);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l2_bytes: l2,
            llc_bytes: llc.map(|c| c.1),
            simd: spmv_core::kernels::simd::feature_suffix(),
            mem_available_bytes: mem_available(),
        }
    }

    /// Lanes of f64 the detected SIMD level processes per instruction (1 for
    /// scalar): the numeric form of `simd` for the metrics table.
    pub fn simd_f64_lanes(&self) -> usize {
        match spmv_core::kernels::simd::detect() {
            spmv_core::kernels::simd::SimdLevel::Avx2Fma => 4,
            spmv_core::kernels::simd::SimdLevel::Neon => 2,
            spmv_core::kernels::simd::SimdLevel::Scalar => 1,
        }
    }

    /// Bytes per roof-probe array: four times the last-level cache (so no pass
    /// is served from it), bounded by an eighth of available memory. `--smoke`
    /// takes the 8 MiB floor: it checks that the probe runs, not the roof.
    pub fn probe_array_bytes(&self, smoke: bool) -> usize {
        if smoke {
            return 8 << 20;
        }
        let want = self
            .llc_bytes
            .map_or(FALLBACK_PROBE_ARRAY_BYTES, |llc| 4 * llc);
        let mem_bound = self.mem_available_bytes.map_or(usize::MAX, |m| m / 8);
        want.min(mem_bound).clamp(8 << 20, MAX_PROBE_ARRAY_BYTES)
    }

    /// STREAM-style read (`sum += a[i]`) and triad (`a[i] = b[i] + s·c[i]`) on
    /// `nproc` threads, best of [`PROBE_PASSES`]. Counts the bytes the loops
    /// name (8 per element read, 24 per triad element), not write-allocate
    /// traffic.
    pub fn measure_roof(&self, smoke: bool) -> Roof {
        let n = self.probe_array_bytes(smoke) / 8;
        let threads = self.nproc.max(1);
        let chunk = n.div_ceil(threads);
        let mut a = vec![0.0f64; n];
        let mut b = vec![0.0f64; n];
        let mut c = vec![0.0f64; n];
        // First touch on the threads that will stream the chunk.
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks_mut(chunk))
                .zip(c.chunks_mut(chunk))
            {
                s.spawn(move || {
                    a.fill(1.0);
                    b.fill(2.0);
                    c.fill(0.5);
                });
            }
        });

        let mut read_s = f64::INFINITY;
        let mut triad_s = f64::INFINITY;
        for _ in 0..PROBE_PASSES {
            let t = Instant::now();
            let total: f64 = std::thread::scope(|s| {
                let handles: Vec<_> = b
                    .chunks(chunk)
                    .map(|part| s.spawn(move || sum8(part)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("roof read thread panicked"))
                    .sum()
            });
            read_s = read_s.min(t.elapsed().as_secs_f64());
            std::hint::black_box(total);

            let t = Instant::now();
            std::thread::scope(|s| {
                for ((a, b), c) in a
                    .chunks_mut(chunk)
                    .zip(b.chunks(chunk))
                    .zip(c.chunks(chunk))
                {
                    s.spawn(move || {
                        for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                            *a = b + 3.0 * c;
                        }
                    });
                }
            });
            triad_s = triad_s.min(t.elapsed().as_secs_f64());
            std::hint::black_box(&a);
        }
        Roof {
            read_gbps: (n * 8) as f64 / read_s / 1e9,
            triad_gbps: (n * 24) as f64 / triad_s / 1e9,
            array_bytes: n * 8,
        }
    }

    /// The descriptor as a JSON object (embedded in every output file).
    pub fn to_json(&self, roof: Option<&Roof>) -> String {
        let opt = |v: Option<usize>| v.map_or("\"unknown\"".to_string(), |b| b.to_string());
        let mut s = format!(
            "{{\"nproc\": {}, \"l2_bytes\": {}, \"llc_bytes\": {}, \"simd\": \"{}\", \"mem_available_bytes\": {}",
            self.nproc,
            opt(self.l2_bytes),
            opt(self.llc_bytes),
            self.simd,
            opt(self.mem_available_bytes),
        );
        if let Some(r) = roof {
            s.push_str(&format!(
                ", \"roof_read_gbps\": {}, \"roof_triad_gbps\": {}, \"probe_array_bytes\": {}",
                r.read_gbps, r.triad_gbps, r.array_bytes
            ));
        }
        s.push('}');
        s
    }
}

/// Sum with eight independent accumulators, so the loop is bound by memory
/// rather than by one floating-point add chain.
fn sum8(v: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let chunks = v.chunks_exact(8);
    let rest = chunks.remainder();
    for c in chunks {
        for (a, x) in acc.iter_mut().zip(c) {
            *a += x;
        }
    }
    acc.iter().sum::<f64>() + rest.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("big"), None);
    }

    #[test]
    fn probe_arrays_respect_llc_memory_and_cap() {
        let mut h = Host {
            nproc: 2,
            l2_bytes: Some(2 << 20),
            llc_bytes: Some(32 << 20),
            simd: "scalar",
            mem_available_bytes: Some(16 << 30),
        };
        assert_eq!(h.probe_array_bytes(false), 128 << 20);
        assert_eq!(h.probe_array_bytes(true), 8 << 20);
        h.mem_available_bytes = Some(512 << 20);
        assert_eq!(h.probe_array_bytes(false), 64 << 20);
        h.mem_available_bytes = Some(64 << 30);
        h.llc_bytes = Some(512 << 20);
        assert_eq!(h.probe_array_bytes(false), MAX_PROBE_ARRAY_BYTES);
        h.llc_bytes = None;
        assert_eq!(h.probe_array_bytes(false), FALLBACK_PROBE_ARRAY_BYTES);
        assert_eq!(sum8(&[1.0; 19]), 19.0);
    }
}
