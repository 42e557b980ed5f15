//! Sample summaries: nearest-rank percentiles, the "highest percentile with at
//! least ten samples beyond it" tail rule, geometric means, and the
//! quiet-slice summary every end-to-end timing is reported through.
//!
//! **Why quiet slices.** The seed's host is two virtual CPUs of a shared
//! machine. Each virtual CPU runs, independently of the other and for seconds
//! at a time, up to 30 % slower than at its best (a register-only chain of
//! dependent multiply-adds was measured at 0.29–0.41 ms per 200 000 steps),
//! and how much of a run is spent slow changes from minute to minute. The
//! median over a whole run therefore measures the host's load: identical code
//! gave whole-run medians 20–25 % apart whatever the run's length (12, 24 and
//! 40 s were tried). The code's own speed is the floor under that, so a run is
//! cut into one-second slices, each slice is summarized on its own (median and
//! tail percentile), and the run reports a slice near the quiet end.

use crate::constants::SLICE_SECONDS;

/// Samples beyond the reported tail percentile that the tail rule demands.
pub const TAIL_BEYOND: usize = 10;

/// Tail percentiles tried from the top; the first that leaves at least
/// [`TAIL_BEYOND`] samples above it is reported.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// with at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// `ceil(p/100 · n)`, with a guard so that a product that is a whole number in
/// exact arithmetic (99.9 % of 10 000) is not pushed up one by rounding.
fn nearest_rank(p: f64, n: usize) -> usize {
    (p.clamp(0.0, 100.0) * n as f64 / 100.0 - 1e-9)
        .ceil()
        .max(0.0) as usize
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`TAIL_BEYOND`]
/// samples strictly beyond its nearest rank, for a sample of `n`.
pub fn tail_percentile(n: usize) -> f64 {
    for &p in &TAIL_LADDER {
        if n >= nearest_rank(p, n) + TAIL_BEYOND {
            return p;
        }
    }
    50.0
}

/// A timing sample summarized the way every metric of this benchmark is:
/// median, one tail percentile and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    /// Which percentile `tail` is (e.g. 99.0).
    pub tail_p: f64,
    pub n: usize,
}

impl Summary {
    /// Whether the sample is large enough for `tail_p` under the
    /// ten-samples-beyond rule. Each workload fixes its tail percentile in
    /// `constants.rs` (a percentile that moved with the sample count would
    /// jump between runs); this flags a run too short to support it.
    pub fn tail_supported(&self) -> bool {
        tail_percentile(self.n) >= self.tail_p
    }
}

/// Summarize `samples` (any order; sorted in place) with the tail taken at
/// `tail_p`. All-zero when empty, which callers treat as "nothing measured".
pub fn summarize(samples: &mut [f64], tail_p: f64) -> Summary {
    samples.sort_by(|a, b| a.total_cmp(b));
    Summary {
        p50: percentile(samples, 50.0).unwrap_or(0.0),
        tail: percentile(samples, tail_p).unwrap_or(0.0),
        tail_p,
        n: samples.len(),
    }
}

/// One timed operation: when it ended (or, in an open loop, was due), in
/// seconds on the run's clock, and what was measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub at: f64,
    pub value: f64,
}

/// Which slice of a run a quiet summary reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rank {
    /// The slice with the lowest value. For operations that meet the host's
    /// quiet state often enough for every run to hold such a second.
    Quietest,
    /// The slice a tenth of the way up from the lowest. For the two-thread
    /// lock-step calls of `spmv-lib`, which are fast only while *both* virtual
    /// CPUs are: some runs hold such a second and some do not, so the quietest
    /// slice jumped between runs (23 %) where the lower decile did not (7 %).
    LowerDecile,
}

impl Rank {
    /// The chosen element of an ascending-sorted, non-empty slice.
    fn pick(self, ascending: &[f64]) -> f64 {
        match self {
            Rank::Quietest => ascending[0],
            Rank::LowerDecile => ascending[(ascending.len() - 1) / 10],
        }
    }
}

/// Cut `samples` into slices of [`SLICE_SECONDS`] by their `at`; slices with
/// fewer than half the median slice's samples (the ragged ends of a phase) are
/// dropped. Values are sorted ascending within each slice.
fn slices(samples: &[Sample]) -> Vec<Vec<f64>> {
    let mut by_slice = std::collections::BTreeMap::<i64, Vec<f64>>::new();
    for s in samples {
        by_slice
            .entry((s.at / SLICE_SECONDS).floor() as i64)
            .or_default()
            .push(s.value);
    }
    let mut counts: Vec<f64> = by_slice.values().map(|v| v.len() as f64).collect();
    let enough = median(&mut counts) / 2.0;
    by_slice
        .into_values()
        .filter(|v| v.len() as f64 >= enough)
        .map(|mut v| {
            v.sort_by(|a, b| a.total_cmp(b));
            v
        })
        .collect()
}

/// Summarize `samples` slice by slice and report the `rank` slice of each
/// statistic: `p50` is that slice of the per-slice medians, `tail` that slice
/// of the per-slice `tail_p` percentiles (the two may come from different
/// slices). `n` counts every sample. All-zero when empty.
pub fn quiet_summary(samples: &[Sample], tail_p: f64, rank: Rank) -> Summary {
    let slices = slices(samples);
    let across = |p: f64| -> f64 {
        let mut per_slice: Vec<f64> = slices.iter().filter_map(|s| percentile(s, p)).collect();
        per_slice.sort_by(|a, b| a.total_cmp(b));
        if per_slice.is_empty() {
            0.0
        } else {
            rank.pick(&per_slice)
        }
    };
    Summary {
        p50: across(50.0),
        tail: across(tail_p),
        tail_p,
        n: samples.len(),
    }
}

/// Work completed per second in the quiet slice: `samples` are completions
/// (`value` = the work each one carried), summed per slice; only slices with a
/// sampled slice on both sides count as whole. The busiest whole slice is the
/// quietest second of the host. A window too short to hold a whole slice (a
/// traced or smoke run) gives the rate over its span instead; 0.0 when empty.
pub fn quiet_rate(samples: &[Sample]) -> f64 {
    let mut work = std::collections::BTreeMap::<i64, f64>::new();
    for s in samples {
        *work
            .entry((s.at / SLICE_SECONDS).floor() as i64)
            .or_default() += s.value;
    }
    let busiest = work
        .iter()
        .filter(|(i, _)| work.contains_key(&(*i - 1)) && work.contains_key(&(*i + 1)))
        .map(|(_, w)| w / SLICE_SECONDS)
        .fold(0.0, f64::max);
    if busiest > 0.0 {
        return busiest;
    }
    let (first, last) = samples.iter().fold((f64::MAX, f64::MIN), |(lo, hi), s| {
        (lo.min(s.at), hi.max(s.at))
    });
    if last > first {
        samples.iter().map(|s| s.value).sum::<f64>() / (last - first)
    } else {
        0.0
    }
}

/// Median of `samples` (sorted in place); 0.0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Geometric mean of strictly positive values; 0.0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 has rank 990: exactly ten beyond. One fewer falls to p95.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(60), 80.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&mut v, 99.0);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, 990.0);
        assert!(s.tail_supported());
        assert!(!summarize(&mut v[..999], 99.0).tail_supported());
        assert_eq!(summarize(&mut [], 99.0).n, 0);
    }

    /// A host that is slow for most of a run moves the whole-run median, not
    /// the quiet slice; the lower decile skips a lone lucky slice.
    #[test]
    fn quiet_summary_reports_the_floor_under_a_slow_host() {
        let mut samples = Vec::new();
        for second in 0..20 {
            // Seconds 3 and 11 are quiet (1.0), second 7 is a lone lucky one
            // (0.5), the rest run 30 % slow; every tenth sample is a 2× tail.
            let level = match second {
                3 | 11 => 1.0,
                7 => 0.5,
                _ => 1.3,
            };
            for i in 0..100 {
                samples.push(Sample {
                    at: second as f64 + i as f64 / 100.0,
                    value: if i % 10 == 9 { 2.0 * level } else { level },
                });
            }
        }
        // A ragged slice with too few samples to count, however fast.
        samples.push(Sample {
            at: 20.001,
            value: 0.1,
        });
        let whole = summarize(
            &mut samples.iter().map(|s| s.value).collect::<Vec<_>>(),
            95.0,
        );
        assert_eq!(whole.p50, 1.3);
        let quiet = quiet_summary(&samples, 95.0, Rank::Quietest);
        assert_eq!((quiet.p50, quiet.tail, quiet.n), (0.5, 1.0, 2001));
        // 20 slices: the lower decile is the second lowest.
        let decile = quiet_summary(&samples, 95.0, Rank::LowerDecile);
        assert_eq!((decile.p50, decile.tail), (1.0, 2.0));
        assert_eq!(quiet_summary(&[], 95.0, Rank::Quietest).n, 0);
    }

    #[test]
    fn quiet_rate_is_the_busiest_whole_slice() {
        // 50, 80, 120, 60 completions in seconds 0..4; the ends are not whole.
        let mut done = Vec::new();
        for (second, count) in [50, 80, 120, 60].into_iter().enumerate() {
            for i in 0..count {
                done.push(Sample {
                    at: second as f64 + i as f64 / count as f64,
                    value: 2.0,
                });
            }
        }
        assert_eq!(quiet_rate(&done), 240.0);
        // No whole slice: 60 completions of 2.0 over the 1.1 s they span.
        assert!((quiet_rate(&done[..60]) - 120.0 / 1.1125).abs() < 1e-9);
        assert_eq!(quiet_rate(&[]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
