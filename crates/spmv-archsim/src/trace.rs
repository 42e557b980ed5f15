//! Memory-traffic estimation for SpMV executions.
//!
//! The analytic performance model needs to know how many bytes of DRAM traffic one
//! SpMV generates: the matrix structure is streamed exactly once (compulsory), but
//! source-vector traffic depends on how well the cache (or Cell local store) captures
//! reuse — which is precisely what cache blocking controls. This module provides the
//! closed-form estimate the paper itself uses in Section 5.1 (e.g. the 0.11 flop:byte
//! computation for Epidemiology).

/// DRAM traffic generated by one SpMV, split by stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSummary {
    /// Bytes of matrix data streamed (values + indices + pointers); always compulsory.
    pub matrix_bytes: u64,
    /// Bytes of source-vector traffic (cache misses on `x`).
    pub source_bytes: u64,
    /// Bytes of destination-vector traffic (write-allocate fills plus writebacks).
    pub dest_bytes: u64,
    /// Useful flops (2 per logical nonzero).
    pub flops: u64,
}

impl TrafficSummary {
    /// Total DRAM bytes.
    pub fn total_bytes(&self) -> u64 {
        self.matrix_bytes + self.source_bytes + self.dest_bytes
    }

    /// Effective flop:byte ratio of the whole SpMV.
    pub fn flop_byte(&self) -> f64 {
        if self.total_bytes() == 0 {
            0.0
        } else {
            self.flops as f64 / self.total_bytes() as f64
        }
    }
}

/// The closed-form traffic estimate the paper uses in Section 5.1: matrix bytes are
/// compulsory; the source vector is read once if it fits in the available cache (or
/// if cache blocking is applied), otherwise every indexed load is charged a miss with
/// a probability that grows with how badly the working set overflows; the destination
/// is charged 16 bytes per element (write-allocate fill + writeback).
pub fn analytic_traffic(
    nnz: usize,
    nrows: usize,
    ncols: usize,
    matrix_bytes: usize,
    cache_bytes_available: usize,
    cache_blocked: bool,
) -> TrafficSummary {
    let source_working_set = ncols * 8;
    let source_bytes = if cache_blocked || source_working_set <= cache_bytes_available {
        // Compulsory only.
        source_working_set as u64
    } else {
        // Fraction of indexed loads that miss grows as the working set overflows.
        let overflow = source_working_set as f64 / cache_bytes_available.max(1) as f64;
        let miss_fraction = (1.0 - 1.0 / overflow).clamp(0.0, 1.0);
        // Each miss charges one 64-byte line; adjacent columns share lines, so divide
        // by a modest spatial-locality factor.
        let spatial = 2.0;
        (source_working_set as f64 + (nnz as f64 * miss_fraction * 64.0 / spatial)) as u64
    };
    let dest_bytes = (nrows * 16) as u64;
    TrafficSummary {
        matrix_bytes: matrix_bytes as u64,
        source_bytes,
        dest_bytes,
        flops: 2 * nnz as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_matches_paper_epidemiology_example() {
        // Section 5.1: 526K rows, 2.1M nnz, 12 bytes per nnz of matrix data,
        // 8 bytes per source element, 16 per destination element => flop:byte ≈ 0.11.
        let nnz = 2_100_000;
        let n = 526_000;
        let matrix_bytes = 12 * nnz;
        let t = analytic_traffic(nnz, n, n, matrix_bytes, 1 << 20, true);
        assert!(
            (t.flop_byte() - 0.11).abs() < 0.015,
            "flop:byte = {}",
            t.flop_byte()
        );
    }

    #[test]
    fn analytic_overflow_increases_traffic() {
        let fits = analytic_traffic(1_000_000, 10_000, 10_000, 12_000_000, 4 << 20, false);
        let thrash = analytic_traffic(1_000_000, 1_000_000, 1_000_000, 12_000_000, 1 << 20, false);
        assert!(thrash.total_bytes() > fits.total_bytes());
        let blocked = analytic_traffic(1_000_000, 1_000_000, 1_000_000, 12_000_000, 1 << 20, true);
        assert!(blocked.total_bytes() < thrash.total_bytes());
    }

    #[test]
    fn dense_matrix_flop_byte_approaches_quarter() {
        // Dense in sparse format with 16-bit-index register blocking approaches the
        // 0.25 flop:byte upper bound the paper quotes; with plain CSR it is ~0.16.
        let n = 512;
        let nnz = n * n;
        // 10 bytes per nonzero (8B value + 2B index) is what the tuned structure achieves.
        let t = analytic_traffic(nnz, n, n, 10 * nnz, 4 << 20, true);
        assert!(
            t.flop_byte() > 0.19 && t.flop_byte() < 0.25,
            "{}",
            t.flop_byte()
        );
    }

    #[test]
    fn traffic_summary_accessors() {
        let t = TrafficSummary {
            matrix_bytes: 100,
            source_bytes: 50,
            dest_bytes: 50,
            flops: 40,
        };
        assert_eq!(t.total_bytes(), 200);
        assert!((t.flop_byte() - 0.2).abs() < 1e-12);
    }
}
