//! Regenerate paper Table 2: the optimization × architecture capability matrix,
//! annotated with the module of this reproduction implementing each row.

use spmv_bench::format::{parse_scale_arg, render_table};
use spmv_core::tuning::optimizations::{table2, Applicability, OptimizationClass};

fn mark(a: Applicability) -> &'static str {
    match a {
        Applicability::Applied => "X",
        Applicability::NoSpeedup => "(x)",
        Applicability::NotApplicable => "N/A",
        Applicability::NotAttempted => "-",
    }
}

fn main() {
    // Table 2 does not depend on the scale; the argument is still checked, so a
    // typo fails the same way in all six binaries.
    parse_scale_arg(spmv_matrices::suite::Scale::Small);
    for class in [
        OptimizationClass::Code,
        OptimizationClass::DataStructure,
        OptimizationClass::Parallelization,
    ] {
        let rows: Vec<Vec<String>> = table2()
            .into_iter()
            .filter(|e| e.class == class)
            .map(|e| {
                vec![
                    e.name.to_string(),
                    mark(e.applicability[0]).to_string(),
                    mark(e.applicability[1]).to_string(),
                    mark(e.applicability[2]).to_string(),
                    e.module.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!("Table 2: {}", class.label()),
                &["Optimization", "x86", "Niagara", "Cell", "Implemented in"],
                &rows
            )
        );
    }
    println!("Legend: X = applied, (x) = implemented but no significant speedup,");
    println!("        N/A = not applicable, - = not attempted (matches the paper's footnotes).");
}
