//! Autotuning report: for every matrix in the paper's suite (or the ones named
//! on the command line), show what the tuner chose (register block shapes, index
//! widths, formats), how much smaller the structure got, how the OSKI-style
//! search baseline compares, and the ladder each thread share was chosen from:
//! what the one-pass heuristic proposed and what the clock said about it. For a
//! matrix with a symmetric twin (`SuiteMatrix::generate_symmetric`) it also
//! prints the pipeline `TunePlan::new` chose for the twin, lower-triangle or
//! general storage, next to both plans' serial times.
//!
//! Run with:
//! ```text
//! cargo run --release --example autotune_report [-- <matrix id>...]
//! ```
//!
//! Exits 1 when a share's chosen rung has no clock reading, a share shows no
//! time for rung `S` on a SIMD host, or a share chose a rung the clock
//! measured slower than rung `A` — CI's ladder smoke.

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_core::kernels::simd;
use spmv_multicore::spmv_core::stats::MatrixStats;
use spmv_multicore::spmv_core::tuning::footprint::csr_bytes;
use spmv_multicore::spmv_core::tuning::search::{time_spmv, DenseProfile};
use std::collections::BTreeMap;

fn main() {
    println!(
        "{:<16} {:>10} {:>9} {:>12} {:>12} {:>10} {:>12}",
        "matrix", "nnz", "nnz/row", "tuned MB", "CSR MB", "ratio", "OSKI blocks"
    );
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| SuiteMatrix::all().iter().all(|m| m.id() != w.as_str()))
    {
        eprintln!("unknown matrix id '{unknown}'");
        std::process::exit(2);
    }
    let mut broken = false;
    for matrix in SuiteMatrix::all() {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == matrix.id()) {
            continue;
        }
        let coo = matrix.generate(Scale::Small);
        let csr = CsrMatrix::from_coo(&coo);
        let stats = MatrixStats::compute(&csr);
        let (plan, ladders) = TunePlan::with_ladders(&csr, 1, &TuningConfig::full());
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

        // The ladder of every thread share.
        for (t, ladder) in ladders.iter().enumerate() {
            for (i, rung) in ladder.rungs.iter().enumerate() {
                println!(
                    "    share {t} rung {} {:>5} blocks {:>6.2} B/nnz {:>9} {}",
                    rung.label,
                    rung.plan.decisions.len(),
                    rung.plan.planned_bytes() as f64 / rung.plan.planned_nnz().max(1) as f64,
                    rung.seconds
                        .map_or("untimed".to_string(), |s| format!("{:.3} ms", s * 1e3)),
                    if i == ladder.chosen { "<- chosen" } else { "" }
                );
            }
            let seconds = |label| {
                let rung = ladder.rungs.iter().find(|r| r.label == label);
                rung.and_then(|r| r.seconds)
            };
            let chosen = ladder.rungs[ladder.chosen].seconds;
            if chosen.is_none() || chosen > seconds("A") {
                eprintln!("    share {t}: the chosen rung is untimed or slower than A");
                broken = true;
            }
            if simd::available() && seconds("S").is_none() {
                eprintln!("    share {t}: rung S untimed on a SIMD host");
                broken = true;
            }
        }

        if let Some(twin) = matrix.generate_symmetric(Scale::Small) {
            let twin = CsrMatrix::from_coo(&twin);
            let full = TuningConfig::full();
            let chosen = TunePlan::new(&twin, 1, &full);
            let other = if chosen.symmetric {
                let general = TuningConfig {
                    exploit_symmetry: false,
                    ..full
                };
                TunePlan::new(&twin, 1, &general)
            } else {
                TunePlan::new_symmetric(&twin, 1, &full).expect("the twin is symmetric")
            };
            let ms = |plan: &TunePlan| {
                let prepared = PreparedMatrix::materialize(&twin, plan).expect("fresh plan fits");
                1e3 * time_spmv(twin.nrows(), twin.ncols(), 5, 10, |x, y| {
                    prepared.spmv(x, y)
                })
            };
            let name = |plan: &TunePlan| {
                if plan.symmetric {
                    "symmetric"
                } else {
                    "general"
                }
            };
            println!(
                "    symmetric twin: TunePlan::new chose {} ({:.3} ms serial); {} {:.3} ms",
                name(&chosen),
                ms(&chosen),
                name(&other),
                ms(&other)
            );
        }
    }
    println!();
    println!("ratio = tuned bytes / CSR bytes (lower is better; the paper's heuristic");
    println!("minimizes exactly this quantity because SpMV is memory bound). Every share,");
    println!("whatever its size, is chosen by the clock from rungs A (one compressed-CSR");
    println!("block), S (one sliced-ELL block, SIMD hosts only) and B (byte-minimal formats,");
    println!("no grid). The cache and TLB grids (C, D) are cut only for TunePlan::heuristic,");
    println!("the untimed plan of the paper reproductions.");
    if broken {
        std::process::exit(1);
    }
}
