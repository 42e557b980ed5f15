//! PageRank over the synthetic web-connectivity matrix — the "webbase" workload that
//! motivates the paper's interest in short-row, power-law matrices.
//!
//! The power iteration is dominated by SpMV with the (column-normalized) adjacency
//! matrix, so the tuned data structures and the BCOO/GCSR empty-row handling are
//! exactly what gets exercised.
//!
//! Run with:
//! ```text
//! cargo run --release --example pagerank
//! ```

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_core::tuning::footprint::csr_bytes;
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    // Synthetic web graph with the webbase-1M structural profile (power-law degrees,
    // ~3 nonzeros per row), at a laptop-friendly scale.
    let adjacency = SuiteMatrix::Webbase.generate(Scale::Small);
    let n = adjacency.nrows();

    // Column-normalize: PageRank iterates x ← d·Pᵀx + (1-d)/n, where P is the
    // row-stochastic link matrix. Build Pᵀ directly as a CSR matrix.
    let csr = CsrMatrix::from_coo(&adjacency);
    let mut out_degree = vec![0usize; n];
    for (row, _, _) in csr.iter() {
        out_degree[row] += 1;
    }
    let mut pt = CooMatrix::new(n, n);
    for (row, col, _) in csr.iter() {
        // Link row -> col contributes to col's rank, weighted by row's out-degree.
        pt.push(col, row, 1.0 / out_degree[row] as f64);
    }
    let pt = CsrMatrix::from_coo(&pt);
    println!(
        "web graph: {} pages, {} links, {} dangling pages",
        n,
        pt.nnz(),
        out_degree.iter().filter(|&&d| d == 0).count()
    );

    // Tune the transition matrix: short rows and many empty rows mean the tuner
    // should pick BCOO/GCSR-style storage for most cache blocks.
    let plan = TunePlan::new(&pt, 1, &TuningConfig::full());
    let tuned = PreparedMatrix::materialize(&pt, &plan).expect("fresh plan fits");
    let mut formats = BTreeMap::new();
    for d in &plan.threads[0].decisions {
        *formats.entry(d.choice.kind.token()).or_insert(0usize) += 1;
    }
    println!(
        "tuned footprint {:.2} MB (CSR {:.2} MB); block formats: {:?}",
        tuned.footprint_bytes() as f64 / 1e6,
        csr_bytes(&pt) as f64 / 1e6,
        formats
    );

    let damping = 0.85;
    let mut rank = vec![1.0 / n as f64; n];
    let dangling_mass = |rank: &[f64]| -> f64 {
        rank.iter()
            .zip(out_degree.iter())
            .filter(|(_, &d)| d == 0)
            .map(|(r, _)| r)
            .sum::<f64>()
    };

    let start = Instant::now();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut next = vec![(1.0 - damping) / n as f64; n];
        // Dangling pages distribute their rank uniformly.
        let dangle = damping * dangling_mass(&rank) / n as f64;
        for v in next.iter_mut() {
            *v += dangle;
        }
        // next += damping * Pᵀ * rank, using the tuned SpMV.
        let contribution = tuned.spmv_alloc(&rank);
        for (v, c) in next.iter_mut().zip(contribution.iter()) {
            *v += damping * c;
        }
        let delta: f64 = next
            .iter()
            .zip(rank.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        rank = next;
        if delta < 1e-10 || iterations >= 100 {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    // Report the top pages.
    let mut indexed: Vec<(usize, f64)> = rank.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("converged in {iterations} power iterations ({elapsed:.3} s)");
    println!(
        "total rank mass = {:.6} (should be ~1)",
        rank.iter().sum::<f64>()
    );
    println!("top 5 pages by rank:");
    for (page, score) in indexed.iter().take(5) {
        println!("  page {page:>8}  rank {score:.3e}");
    }
    assert!((rank.iter().sum::<f64>() - 1.0).abs() < 1e-6);
}
