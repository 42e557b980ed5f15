//! Machine-readable form of the paper's Table 2: which optimization applies to which
//! architecture family, and with what caveat.

/// The architecture families of Table 2's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchFamily {
    /// AMD Opteron X2 and Intel Clovertown (out-of-order superscalar x86).
    X86,
    /// Sun Niagara (in-order, heavily multithreaded).
    Niagara,
    /// STI Cell SPEs (in-order SIMD with software-managed local store).
    Cell,
}

impl ArchFamily {
    /// All families, in the paper's column order.
    pub fn all() -> [ArchFamily; 3] {
        [ArchFamily::X86, ArchFamily::Niagara, ArchFamily::Cell]
    }

    /// Column label used by the Table 2 report.
    pub fn label(&self) -> &'static str {
        match self {
            ArchFamily::X86 => "x86",
            ArchFamily::Niagara => "Niagara",
            ArchFamily::Cell => "Cell",
        }
    }
}

/// The three optimization classes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizationClass {
    /// Low-level code optimizations (no data-structure change).
    Code,
    /// Data structure optimizations.
    DataStructure,
    /// Parallelization optimizations.
    Parallelization,
}

impl OptimizationClass {
    /// Section heading used by the report.
    pub fn label(&self) -> &'static str {
        match self {
            OptimizationClass::Code => "Code Optimization",
            OptimizationClass::DataStructure => "Data Structure Optimization",
            OptimizationClass::Parallelization => "Parallelization Optimization",
        }
    }
}

/// Whether an optimization was applied on an architecture, per Table 2's footnotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applicability {
    /// Applied and beneficial (a check mark in Table 2).
    Applied,
    /// Implemented but gave no significant speedup (footnote 8).
    NoSpeedup,
    /// Not applicable on this architecture (e.g. SIMDization on Niagara).
    NotApplicable,
    /// Not attempted.
    NotAttempted,
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct OptimizationEntry {
    /// Human-readable optimization name as printed in the paper.
    pub name: &'static str,
    /// Which of the three classes it belongs to.
    pub class: OptimizationClass,
    /// Applicability on (x86, Niagara, Cell) in that order.
    pub applicability: [Applicability; 3],
    /// Which modules of this reproduction implement it: full paths joined by
    /// `" / "`, or `"not implemented"`.
    pub module: &'static str,
}

const NOT_IMPLEMENTED: &str = "not implemented";

/// The full contents of Table 2, with a pointer from every row to the module of this
/// codebase that implements it.
pub fn table2() -> Vec<OptimizationEntry> {
    use Applicability::*;
    use OptimizationClass::*;
    vec![
        OptimizationEntry {
            name: "Software pipelining",
            class: Code,
            applicability: [NoSpeedup, Applied, Applied],
            module: NOT_IMPLEMENTED,
        },
        OptimizationEntry {
            name: "Branchless / segmented scan",
            class: Code,
            applicability: [NoSpeedup, Applied, Applied],
            module: NOT_IMPLEMENTED,
        },
        OptimizationEntry {
            name: "SIMDization",
            class: Code,
            applicability: [Applied, NotApplicable, Applied],
            module: "spmv_core::kernels::simd",
        },
        OptimizationEntry {
            name: "Pointer arithmetic",
            class: Code,
            applicability: [NoSpeedup, Applied, NotAttempted],
            module: "spmv_core::kernels::single_loop",
        },
        OptimizationEntry {
            name: "Prefetch/DMA values & indices",
            class: Code,
            applicability: [Applied, Applied, Applied],
            module: "spmv_core::kernels::prefetch",
        },
        OptimizationEntry {
            name: "Prefetch/DMA pointers & vectors",
            class: Code,
            applicability: [NotAttempted, NotAttempted, Applied],
            module: NOT_IMPLEMENTED,
        },
        OptimizationEntry {
            name: "Block coordinate (BCOO) storage",
            class: DataStructure,
            applicability: [Applied, Applied, NotAttempted],
            module: "spmv_core::formats::bcoo",
        },
        OptimizationEntry {
            name: "16-bit indices",
            class: DataStructure,
            applicability: [Applied, Applied, Applied],
            module: "spmv_core::formats::index",
        },
        OptimizationEntry {
            name: "32-bit indices",
            class: DataStructure,
            applicability: [Applied, Applied, NotAttempted],
            module: "spmv_core::formats::index",
        },
        OptimizationEntry {
            name: "Register blocking",
            class: DataStructure,
            applicability: [Applied, Applied, NotAttempted],
            module: "spmv_core::formats::bcsr / spmv_core::blocking::register",
        },
        OptimizationEntry {
            name: "Cache blocking",
            class: DataStructure,
            applicability: [Applied, Applied, Applied],
            module: "spmv_core::blocking::cache",
        },
        OptimizationEntry {
            name: "TLB blocking",
            class: DataStructure,
            applicability: [Applied, Applied, NotAttempted],
            module: "spmv_core::blocking::tlb",
        },
        OptimizationEntry {
            name: "Threading",
            class: Parallelization,
            applicability: [Applied, Applied, Applied],
            module: "spmv_parallel::engine",
        },
        OptimizationEntry {
            name: "Row parallelization",
            class: Parallelization,
            applicability: [Applied, Applied, Applied],
            module: "spmv_core::partition::row",
        },
        OptimizationEntry {
            name: "NUMA-aware mapping",
            class: Parallelization,
            applicability: [Applied, NotAttempted, NoSpeedup],
            module: "spmv_parallel::engine",
        },
        OptimizationEntry {
            name: "Process affinity",
            class: Parallelization,
            applicability: [Applied, NoSpeedup, Applied],
            module: NOT_IMPLEMENTED,
        },
        OptimizationEntry {
            name: "Memory affinity",
            class: Parallelization,
            applicability: [Applied, NotApplicable, Applied],
            module: "spmv_parallel::engine",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_all_three_classes() {
        let t = table2();
        for class in [
            OptimizationClass::Code,
            OptimizationClass::DataStructure,
            OptimizationClass::Parallelization,
        ] {
            assert!(
                t.iter().any(|e| e.class == class),
                "missing class {class:?}"
            );
        }
        assert!(t.len() >= 15);
    }

    /// Every `spmv_<c>::a::b` a row names is a source file of this workspace:
    /// `crates/spmv-<c>/src/a/b.rs` or `crates/spmv-<c>/src/a/b/mod.rs`.
    #[test]
    fn every_module_path_names_a_source_file() {
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for e in table2().iter().filter(|e| e.module != NOT_IMPLEMENTED) {
            for path in e.module.split(" / ") {
                let mut parts = path.split("::");
                let krate = parts.next().unwrap();
                assert!(
                    krate.starts_with("spmv_"),
                    "{}: `{path}` is not a full path",
                    e.name
                );
                let module = crates
                    .join(krate.replace('_', "-"))
                    .join("src")
                    .join(parts.collect::<Vec<_>>().join("/"));
                assert!(
                    module.with_extension("rs").is_file() || module.join("mod.rs").is_file(),
                    "{}: `{path}` names no source file",
                    e.name
                );
            }
        }
    }

    #[test]
    fn simd_not_applicable_on_niagara() {
        let t = table2();
        let simd = t.iter().find(|e| e.name == "SIMDization").unwrap();
        assert_eq!(simd.applicability[1], Applicability::NotApplicable);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ArchFamily::X86.label(), "x86");
        assert_eq!(ArchFamily::all().len(), 3);
        assert_eq!(OptimizationClass::Code.label(), "Code Optimization");
    }
}
