//! Autotuning report: for every matrix in the paper's suite, show what the
//! footprint-minimizing heuristic chose (register block shapes, index widths,
//! formats), how much smaller the structure got, and how the OSKI-style search
//! baseline compares.
//!
//! Run with:
//! ```text
//! cargo run --release --example autotune_report
//! ```

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_core::stats::MatrixStats;
use spmv_multicore::spmv_core::tuning::footprint::csr_bytes;
use spmv_multicore::spmv_core::tuning::search::DenseProfile;
use std::collections::BTreeMap;

fn main() {
    println!(
        "{:<16} {:>10} {:>9} {:>12} {:>12} {:>10} {:>12}",
        "matrix", "nnz", "nnz/row", "tuned MB", "CSR MB", "ratio", "OSKI blocks"
    );
    for matrix in SuiteMatrix::all() {
        let coo = matrix.generate(Scale::Small);
        let csr = CsrMatrix::from_coo(&coo);
        let stats = MatrixStats::compute(&csr);
        let plan = TunePlan::new(&csr, 1, &TuningConfig::full());
        let tuned = PreparedMatrix::materialize(&csr, &plan).expect("fresh plan fits");
        let decisions = &plan.threads[0].decisions;
        let oski = OskiMatrix::tune_with_profile(&csr, &DenseProfile::synthetic());

        println!(
            "{:<16} {:>10} {:>9.1} {:>12.2} {:>12.2} {:>10.2} {:>9}x{}",
            matrix.spec().name,
            csr.nnz(),
            stats.nnz_per_row_mean,
            tuned.footprint_bytes() as f64 / 1e6,
            csr_bytes(&csr) as f64 / 1e6,
            tuned.footprint_bytes() as f64 / csr_bytes(&csr) as f64,
            oski.block_shape.0,
            oski.block_shape.1,
        );

        // Detail line: which block formats and register shapes dominate.
        let mut shape_counts: Vec<((usize, usize), usize)> = Vec::new();
        let mut formats = BTreeMap::new();
        for d in decisions {
            let key = (d.choice.r, d.choice.c);
            match shape_counts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, c)) => *c += 1,
                None => shape_counts.push((key, 1)),
            }
            *formats.entry(d.choice.kind.token()).or_insert(0usize) += 1;
        }
        shape_counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let shapes: Vec<String> = shape_counts
            .iter()
            .take(3)
            .map(|((r, c), n)| format!("{n}x {r}x{c}"))
            .collect();
        println!(
            "    register shapes: {} | block formats: {:?}",
            shapes.join(", "),
            formats
        );
    }
    println!();
    println!("ratio = tuned bytes / CSR bytes (lower is better; the paper's heuristic");
    println!("minimizes exactly this quantity because SpMV is memory bound).");
}
