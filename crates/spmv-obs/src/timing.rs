//! The one measurement primitive every timed decision in the workspace uses.
//!
//! [`min_timing`] is the reps-stable minimum for *comparisons* (the OSKI dense
//! profile, the tuner's per-share ladder): everything a
//! shared host does to a run makes it slower, so the fastest of a few runs is the
//! run least disturbed, and a preempted one cannot flip a decision.

use std::time::Duration;

/// Fold a [`Duration`] to whole nanoseconds as `u64`, saturating at
/// `u64::MAX` (≈584 years) instead of silently truncating the high bits the
/// way `as_nanos() as u64` would. Every timing counter and histogram in the
/// workspace stores nanoseconds in `u64` slots; this is the one conversion
/// they share.
pub fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Run `time_once` `runs` times (at least once) and return the minimum elapsed seconds.
pub fn min_timing(runs: usize, mut time_once: impl FnMut() -> f64) -> f64 {
    (0..runs.max(1))
        .map(|_| time_once())
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_nanos_clamps_instead_of_truncating() {
        assert_eq!(saturating_nanos(Duration::ZERO), 0);
        assert_eq!(saturating_nanos(Duration::from_nanos(123)), 123);
        // u64::MAX ns is ~584 years; Duration::MAX overflows u64 and must
        // clamp, not wrap to a small value.
        assert_eq!(saturating_nanos(Duration::MAX), u64::MAX);
        let over = Duration::from_secs(u64::MAX / 1_000_000_000 + 1);
        assert_eq!(saturating_nanos(over), u64::MAX);
    }

    #[test]
    fn min_is_order_insensitive() {
        let samples = [5.0, 1.0, 3.0];
        let mut i = 0;
        let m = min_timing(3, || {
            let v = samples[i];
            i += 1;
            v
        });
        assert_eq!(m, 1.0);
    }

    #[test]
    fn min_of_zero_runs_still_measures_once() {
        let mut calls = 0;
        let m = min_timing(0, || {
            calls += 1;
            2.0
        });
        assert_eq!(calls, 1);
        assert_eq!(m, 2.0);
    }
}
