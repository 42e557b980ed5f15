//! Quickstart: build a sparse matrix, tune it with the paper's footprint-minimizing
//! heuristic, and compare naive, tuned, and parallel SpMV.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_core::tuning::footprint::csr_bytes;
use std::collections::BTreeMap;
use std::time::Instant;

fn time_gflops<F: FnMut()>(nnz: usize, reps: usize, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    let secs = start.elapsed().as_secs_f64().max(1e-12);
    (2 * nnz * reps) as f64 / secs / 1e9
}

fn main() {
    // A mid-sized FEM-style matrix from the paper's evaluation suite.
    let coo = SuiteMatrix::FemCantilever.generate(Scale::Small);
    let csr = CsrMatrix::from_coo(&coo);
    println!(
        "matrix: {} rows x {} cols, {} nonzeros ({:.1} per row)",
        csr.nrows(),
        csr.ncols(),
        csr.nnz(),
        csr.nnz() as f64 / csr.nrows() as f64
    );

    // Tune: register blocking + 16-bit indices + cache/TLB blocking, chosen per
    // cache block by the one-pass footprint heuristic. The serial tuned form is
    // a one-thread plan, materialized.
    let serial_plan = TunePlan::new(&csr, 1, &TuningConfig::full());
    let tuned = PreparedMatrix::materialize(&csr, &serial_plan).expect("fresh plan fits");
    println!(
        "tuned footprint: {:.2} MB vs CSR {:.2} MB  (compression {:.2}x)",
        tuned.footprint_bytes() as f64 / 1e6,
        csr_bytes(&csr) as f64 / 1e6,
        csr_bytes(&csr) as f64 / tuned.footprint_bytes() as f64
    );
    let decisions = &serial_plan.threads[0].decisions;
    println!("cache blocks: {}", decisions.len());
    let mut formats = BTreeMap::new();
    for d in decisions {
        *formats.entry(d.choice.kind.token()).or_insert(0usize) += 1;
    }
    for (format, count) in formats {
        println!("  {count:>4} blocks stored as {format}");
    }

    // Verify correctness against the reference kernel, then measure.
    let x: Vec<f64> = (0..csr.ncols()).map(|i| (i as f64 * 0.01).sin()).collect();
    let y_ref = csr.spmv_alloc(&x);
    let y_tuned = tuned.spmv_alloc(&x);
    let max_err = y_ref
        .iter()
        .zip(&y_tuned)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |tuned - reference| = {max_err:.2e}");

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let reps = 20;
    let mut y = vec![0.0; csr.nrows()];
    let naive = time_gflops(csr.nnz(), reps, || csr.spmv(&x, &mut y));
    let mut y = vec![0.0; csr.nrows()];
    let tuned_rate = time_gflops(csr.nnz(), reps, || tuned.spmv(&x, &mut y));

    // The steady-state path: plan once (serializable — see TunePlan::save/load),
    // then a persistent engine whose workers materialize their fully tuned blocks
    // first-touch and run them with zero per-call overhead.
    let plan = TunePlan::new(&csr, threads, &TuningConfig::full());
    let mut engine = SpmvEngine::from_plan(&csr, &plan).expect("fresh plan fits");
    let mut y = vec![0.0; csr.nrows()];
    let engine_rate = time_gflops(csr.nnz(), reps, || engine.spmv(&x, &mut y));

    println!("naive CSR:        {naive:.2} Gflop/s");
    println!("tuned (serial):   {tuned_rate:.2} Gflop/s");
    println!("engine ({threads} threads): {engine_rate:.2} Gflop/s (persistent workers)");
}
