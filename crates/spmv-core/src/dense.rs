//! Dense vector constants and the comparison helper the tests share.
//!
//! SpMV streams the matrix once but repeatedly touches the source and destination
//! vectors, so the paper's cache-blocking analysis counts *cache lines* of vector
//! data; `blocking::cache` sizes its panels in [`DOUBLES_PER_LINE`] units.

/// Cache line size assumed throughout the crate (bytes). All platforms evaluated in
/// the paper (Opteron, Clovertown, Niagara L2, Cell) use 64-byte lines except the
/// Niagara L1 (16 bytes).
pub const CACHE_LINE_BYTES: usize = 64;

/// Number of `f64` elements per 64-byte cache line.
pub const DOUBLES_PER_LINE: usize = CACHE_LINE_BYTES / std::mem::size_of::<f64>();

/// Maximum absolute difference between two vectors, used by tests to compare kernel
/// variants against the reference implementation.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "compared vectors must have equal length");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_diff_detects_largest_gap() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 2.5, 2.0];
        assert_eq!(max_abs_diff(&a, &b), 1.0);
    }
}
