//! Optimization ladders and workload-profile construction.
//!
//! This module turns one (platform, matrix, optimization rung) triple into a
//! [`Prediction`]: it builds the *actual* tuned data structure with `spmv-core`,
//! derives the DRAM traffic and inner-loop lengths the structure implies, and feeds
//! them to the `spmv-archsim` performance model. The rung definitions mirror the bar
//! orderings of the paper's Figure 1 panels.

use spmv_archsim::perfmodel::{
    OptimizationLevel, ParallelScope, PerformanceModel, Prediction, WorkloadProfile,
};
use spmv_archsim::platforms::{Platform, PlatformId};
use spmv_archsim::trace::analytic_traffic;
use spmv_baseline::oski::OskiMatrix;
use spmv_baseline::petsc::OskiPetsc;
use spmv_core::formats::CsrMatrix;
use spmv_core::tuning::search::DenseProfile;
use spmv_core::tuning::{PreparedMatrix, TunePlan, TuningConfig};
use spmv_core::MatrixShape;
use spmv_matrices::suite::SuiteMatrix;

/// Column span of the Cell implementation's fixed dense cache blocks (the paper's
/// Section 5.1 arithmetic uses 17K columns per block).
pub const CELL_CACHE_BLOCK_COLS: usize = 17_000;

/// One bar of a Figure 1 panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungKind {
    /// Naive serial CSR on one core.
    Naive1Core,
    /// One core with software prefetch.
    Prefetch1Core,
    /// One core with prefetch + register blocking.
    PrefetchRegister1Core,
    /// One core with prefetch + register + cache/TLB blocking.
    PrefetchRegisterCache1Core,
    /// All cores of one socket, every optimization.
    FullSocket,
    /// The whole system (all sockets, cores and hardware threads), every optimization.
    FullSystem,
    /// Niagara-specific: 8 cores with the given number of hardware threads per core.
    NiagaraThreads(usize),
    /// Cell-specific: the given number of SPEs spread over the given sockets.
    CellSpes(usize, usize),
    /// Serial OSKI baseline.
    Oski,
    /// Parallel OSKI-PETSc baseline over all cores.
    OskiPetsc,
}

/// A labelled rung.
#[derive(Debug, Clone)]
pub struct Rung {
    /// What configuration it is.
    pub kind: RungKind,
    /// Label used in figure/table output.
    pub label: &'static str,
}

/// The result of evaluating one rung on one matrix and platform.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Platform evaluated.
    pub platform: PlatformId,
    /// Matrix evaluated.
    pub matrix: SuiteMatrix,
    /// Rung label (e.g. "1 Core [PF,RB]").
    pub rung: &'static str,
    /// Predicted effective Gflop/s.
    pub gflops: f64,
    /// DRAM bandwidth consumed at that rate, GB/s.
    pub consumed_gbs: f64,
    /// Whether memory bandwidth was the binding constraint.
    pub bandwidth_bound: bool,
    /// Matrix-structure footprint in bytes.
    pub footprint_bytes: usize,
    /// Effective flop:byte ratio including vector traffic.
    pub flop_byte: f64,
    /// The full model output.
    pub prediction: Prediction,
}

/// The Figure 1 bar ladder for a platform, in plotting order.
pub fn ladder_for(platform: PlatformId) -> Vec<Rung> {
    match platform {
        PlatformId::AmdX2 | PlatformId::Clovertown => vec![
            Rung {
                kind: RungKind::Naive1Core,
                label: "1 Core - Naive",
            },
            Rung {
                kind: RungKind::Prefetch1Core,
                label: "1 Core [PF]",
            },
            Rung {
                kind: RungKind::PrefetchRegister1Core,
                label: "1 Core [PF,RB]",
            },
            Rung {
                kind: RungKind::PrefetchRegisterCache1Core,
                label: "1 Core [PF,RB,CB]",
            },
            Rung {
                kind: RungKind::FullSocket,
                label: "1 Socket [*]",
            },
            Rung {
                kind: RungKind::FullSystem,
                label: "Full System [*]",
            },
            Rung {
                kind: RungKind::Oski,
                label: "OSKI",
            },
            Rung {
                kind: RungKind::OskiPetsc,
                label: "OSKI-PETSc",
            },
        ],
        PlatformId::Niagara => vec![
            Rung {
                kind: RungKind::Naive1Core,
                label: "1 Core - Naive",
            },
            Rung {
                kind: RungKind::Prefetch1Core,
                label: "1 Core [PF]",
            },
            Rung {
                kind: RungKind::PrefetchRegister1Core,
                label: "1 Core [PF,RB]",
            },
            Rung {
                kind: RungKind::PrefetchRegisterCache1Core,
                label: "1 Core [PF,RB,CB]",
            },
            Rung {
                kind: RungKind::NiagaraThreads(1),
                label: "8 Cores x 1 Thread [*]",
            },
            Rung {
                kind: RungKind::NiagaraThreads(2),
                label: "8 Cores x 2 Threads [*]",
            },
            Rung {
                kind: RungKind::NiagaraThreads(4),
                label: "8 Cores x 4 Threads [*]",
            },
        ],
        PlatformId::CellPs3 => vec![
            Rung {
                kind: RungKind::CellSpes(1, 1),
                label: "1 SPE (PS3)",
            },
            Rung {
                kind: RungKind::CellSpes(6, 1),
                label: "6 SPEs (PS3)",
            },
        ],
        PlatformId::CellBlade => vec![
            Rung {
                kind: RungKind::CellSpes(1, 1),
                label: "1 SPE",
            },
            Rung {
                kind: RungKind::CellSpes(8, 1),
                label: "8 SPEs",
            },
            Rung {
                kind: RungKind::CellSpes(16, 2),
                label: "Dual Socket x 8 SPEs",
            },
        ],
    }
}

/// Extrapolation from the synthetic instance (possibly generated at reduced scale)
/// to the paper's full Table 3 dimensions.
///
/// The synthetic suite preserves *structural* properties (nonzeros per row, block
/// substructure, aspect ratio) at any scale, but cache-residency effects depend on
/// the *absolute* sizes the paper ran: a quarter-scale Economics fits in Clovertown's
/// 16 MB of L2 even though the real one does not. The harness therefore measures
/// structure on the generated instance and scales row/column/nonzero counts (and the
/// footprint, which is proportional to nonzeros) up to the Table 3 sizes before
/// asking the performance model for a prediction.
#[derive(Debug, Clone, Copy)]
struct Extrapolation {
    row_factor: f64,
    col_factor: f64,
    nnz_factor: f64,
}

impl Extrapolation {
    fn for_matrix(matrix: SuiteMatrix, csr: &CsrMatrix) -> Self {
        let spec = matrix.spec();
        Extrapolation {
            row_factor: (spec.rows as f64 / csr.nrows().max(1) as f64).max(1.0),
            col_factor: (spec.cols as f64 / csr.ncols().max(1) as f64).max(1.0),
            nnz_factor: (spec.nnz as f64 / csr.nnz().max(1) as f64).max(1.0),
        }
    }

    fn rows(&self, n: usize) -> usize {
        (n as f64 * self.row_factor) as usize
    }

    fn cols(&self, n: usize) -> usize {
        (n as f64 * self.col_factor) as usize
    }

    fn nnz(&self, n: usize) -> usize {
        (n as f64 * self.nnz_factor) as usize
    }

    fn bytes(&self, b: usize) -> usize {
        (b as f64 * self.nnz_factor) as usize
    }
}

/// On-chip bytes available to the active configuration, used to decide whether the
/// source vector stays resident (the condition behind cache-blocking's benefit).
fn onchip_bytes(platform: &Platform, scope: &ParallelScope) -> usize {
    match &platform.cache {
        Some(c) => {
            // Each active core brings its share of an L2 domain.
            let domains_active = (scope.cores)
                .div_ceil(c.l2_shared_by.max(1))
                .max(1)
                .min(platform.total_cores() / c.l2_shared_by.max(1));
            c.l2_bytes * domains_active.max(1)
        }
        None => platform.local_store_bytes.unwrap_or(0) * scope.cores.max(1),
    }
}

/// Average nonzeros per row per cache block of a tuned matrix — the inner-loop trip
/// count the in-core model amortizes loop overhead over.
fn avg_row_nnz_per_block(csr: &CsrMatrix, tuned_decisions: usize, row_panels: usize) -> f64 {
    let occupied_rows = (csr.nrows() - csr.empty_rows()).max(1);
    let col_blocks_per_panel = (tuned_decisions as f64 / row_panels.max(1) as f64).max(1.0);
    csr.nnz() as f64 / (occupied_rows as f64 * col_blocks_per_panel)
}

/// Build the workload profile for a cache-based platform at a given tuning level.
fn cache_platform_workload(
    csr: &CsrMatrix,
    platform: &Platform,
    config: &TuningConfig,
    scope: &ParallelScope,
    ex: &Extrapolation,
) -> (WorkloadProfile, usize) {
    // The serial tuned form: a one-thread plan, materialized. The untimed
    // planner: the tables model the paper's machines, not this host's clock.
    let plan = TunePlan::heuristic(csr, 1, config);
    let tuned = PreparedMatrix::materialize(csr, &plan).expect("fresh plan matches its matrix");
    let footprint = ex.bytes(tuned.footprint_bytes());
    let block_decisions = &plan.threads[0].decisions;
    let decisions = block_decisions.len().max(1);
    let row_panels = {
        let mut starts: Vec<usize> = block_decisions.iter().map(|d| d.rows.start).collect();
        starts.sort_unstable();
        starts.dedup();
        starts.len().max(1)
    };
    let fill = tuned.stored_entries() as f64 / csr.nnz().max(1) as f64;
    let cache_blocked = config.cache_blocking.is_some();
    let onchip = onchip_bytes(platform, scope);
    let (nnz, nrows, ncols) = (
        ex.nnz(csr.nnz()),
        ex.rows(csr.nrows()),
        ex.cols(csr.ncols()),
    );
    let traffic = analytic_traffic(nnz, nrows, ncols, footprint, onchip, cache_blocked);
    let inner = avg_row_nnz_per_block(csr, decisions, row_panels);
    (
        WorkloadProfile::from_traffic(nnz as u64, nrows, ncols, &traffic, inner, fill),
        footprint,
    )
}

/// Build the workload profile for the Cell implementation (dense cache blocks,
/// 16-bit indices, no register blocking — the partially-optimized kernel of §4.4).
fn cell_workload(
    csr: &CsrMatrix,
    platform: &Platform,
    scope: &ParallelScope,
    ex: &Extrapolation,
) -> (WorkloadProfile, usize) {
    let nnz = ex.nnz(csr.nnz());
    let nrows = ex.rows(csr.nrows());
    let ncols = ex.cols(csr.ncols());
    // 8-byte value + 2-byte column index within the 17K-column cache block, plus a
    // per-row-per-block descriptor amortized away.
    let footprint = nnz * 10 + nrows * 2;
    let col_blocks = ncols.div_ceil(CELL_CACHE_BLOCK_COLS).max(1);
    let occupied_fraction =
        (csr.nrows() - csr.empty_rows()).max(1) as f64 / csr.nrows().max(1) as f64;
    let occupied_rows = (nrows as f64 * occupied_fraction).max(1.0);
    let inner = nnz as f64 / (occupied_rows * col_blocks as f64);
    let onchip = onchip_bytes(platform, scope);
    let traffic = analytic_traffic(nnz, nrows, ncols, footprint, onchip, true);
    (
        WorkloadProfile::from_traffic(nnz as u64, nrows, ncols, &traffic, inner, 1.0),
        footprint,
    )
}

/// Evaluate one rung for `matrix`/`csr` on `platform_id`.
pub fn run_rung(
    platform_id: PlatformId,
    matrix: SuiteMatrix,
    csr: &CsrMatrix,
    rung: &Rung,
) -> ExperimentResult {
    let platform = platform_id.platform();
    let model = PerformanceModel::new(&platform);
    let ex = Extrapolation::for_matrix(matrix, csr);

    let (workload, footprint, opt, scope) = match rung.kind {
        RungKind::Naive1Core => {
            let scope = ParallelScope::single_core();
            let (w, f) =
                cache_platform_workload(csr, &platform, &TuningConfig::naive(), &scope, &ex);
            (w, f, OptimizationLevel::naive(), scope)
        }
        RungKind::Prefetch1Core => {
            let scope = ParallelScope::single_core();
            let (w, f) =
                cache_platform_workload(csr, &platform, &TuningConfig::naive(), &scope, &ex);
            (w, f, OptimizationLevel::prefetch(), scope)
        }
        RungKind::PrefetchRegister1Core => {
            let scope = ParallelScope::single_core();
            let (w, f) = cache_platform_workload(
                csr,
                &platform,
                &TuningConfig::register_only(),
                &scope,
                &ex,
            );
            (w, f, OptimizationLevel::prefetch_register(), scope)
        }
        RungKind::PrefetchRegisterCache1Core => {
            let scope = ParallelScope::single_core();
            let (w, f) = cache_platform_workload(
                csr,
                &platform,
                &TuningConfig::register_and_cache(),
                &scope,
                &ex,
            );
            (w, f, OptimizationLevel::prefetch_register_cache(), scope)
        }
        RungKind::FullSocket => {
            let scope = ParallelScope::single_socket(&platform);
            let (w, f) =
                cache_platform_workload(csr, &platform, &TuningConfig::full(), &scope, &ex);
            (w, f, OptimizationLevel::full(), scope)
        }
        RungKind::FullSystem => {
            let scope = ParallelScope::full_system(&platform);
            let (w, f) =
                cache_platform_workload(csr, &platform, &TuningConfig::full(), &scope, &ex);
            (w, f, OptimizationLevel::full(), scope)
        }
        RungKind::NiagaraThreads(threads) => {
            let scope = ParallelScope {
                cores: platform.cores_per_socket,
                sockets: 1,
                threads_per_core: threads,
                load_imbalance: 1.0,
            };
            let (w, f) =
                cache_platform_workload(csr, &platform, &TuningConfig::full(), &scope, &ex);
            (w, f, OptimizationLevel::full(), scope)
        }
        RungKind::CellSpes(spes, sockets) => {
            let scope = ParallelScope {
                cores: spes,
                sockets,
                threads_per_core: 1,
                load_imbalance: 1.0,
            };
            let (w, f) = cell_workload(csr, &platform, &scope, &ex);
            // The paper's Cell kernel: DMA yes, register blocking no, cache blocking
            // yes (dense), branchless no, NUMA no (pages interleaved on the blade).
            let opt = OptimizationLevel {
                software_prefetch: true,
                register_blocking: false,
                cache_blocking: true,
                code_optimized: false,
                numa_aware: false,
            };
            (w, f, opt, scope)
        }
        RungKind::Oski => {
            let scope = ParallelScope::single_core();
            let oski = OskiMatrix::tune_with_profile(csr, &DenseProfile::synthetic());
            let footprint = ex.bytes(oski.footprint_bytes());
            let onchip = onchip_bytes(&platform, &scope);
            let (nnz, nrows, ncols) = (
                ex.nnz(csr.nnz()),
                ex.rows(csr.nrows()),
                ex.cols(csr.ncols()),
            );
            let traffic = analytic_traffic(nnz, nrows, ncols, footprint, onchip, false);
            let inner = csr.nnz() as f64 / (csr.nrows() - csr.empty_rows()).max(1) as f64;
            let w = WorkloadProfile::from_traffic(
                nnz as u64,
                nrows,
                ncols,
                &traffic,
                inner,
                oski.fill_ratio(),
            );
            // OSKI register-blocks but has no explicit prefetch, cache blocking by
            // default, SIMD intrinsics, or NUMA awareness.
            let opt = OptimizationLevel {
                software_prefetch: false,
                register_blocking: true,
                cache_blocking: false,
                code_optimized: false,
                numa_aware: false,
            };
            (w, footprint, opt, scope)
        }
        RungKind::OskiPetsc => {
            let nprocs = platform.total_cores();
            let petsc = OskiPetsc::new(csr, nprocs, &DenseProfile::synthetic());
            let stats = petsc.comm_stats();
            let scope = ParallelScope {
                cores: platform.total_cores(),
                sockets: platform.memory.sockets,
                threads_per_core: 1,
                load_imbalance: stats.load_imbalance,
            };
            let onchip = onchip_bytes(&platform, &scope);
            let (nnz, nrows, ncols) = (
                ex.nnz(csr.nnz()),
                ex.rows(csr.nrows()),
                ex.cols(csr.ncols()),
            );
            let matrix_bytes = ex.bytes(stats.matrix_bytes);
            let mut traffic = analytic_traffic(nnz, nrows, ncols, matrix_bytes, onchip, false);
            // The halo exchange is realized as explicit copies through shared memory:
            // written once by the owner and read once by the consumer.
            traffic.source_bytes += 2 * ex.bytes(stats.bytes_copied) as u64;
            let inner = csr.nnz() as f64 / (csr.nrows() - csr.empty_rows()).max(1) as f64;
            let w = WorkloadProfile::from_traffic(nnz as u64, nrows, ncols, &traffic, inner, 1.1);
            let opt = OptimizationLevel {
                software_prefetch: false,
                register_blocking: true,
                cache_blocking: false,
                code_optimized: false,
                numa_aware: false,
            };
            (w, matrix_bytes, opt, scope)
        }
    };

    let prediction = model.predict(&workload, &opt, &scope);
    ExperimentResult {
        platform: platform_id,
        matrix,
        rung: rung.label,
        gflops: prediction.gflops,
        consumed_gbs: prediction.consumed_gbs,
        bandwidth_bound: prediction.bandwidth_bound,
        footprint_bytes: footprint,
        flop_byte: workload.flop_byte(),
        prediction,
    }
}

/// Evaluate the whole ladder of `platform_id` on one matrix.
pub fn run_ladder(
    platform_id: PlatformId,
    matrix: SuiteMatrix,
    csr: &CsrMatrix,
) -> Vec<ExperimentResult> {
    ladder_for(platform_id)
        .iter()
        .map(|rung| run_rung(platform_id, matrix, csr, rung))
        .collect()
}

/// Median of a slice (average of the two central elements for even lengths).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in results"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrices::suite::Scale;

    fn csr_for(matrix: SuiteMatrix) -> CsrMatrix {
        CsrMatrix::from_coo(&matrix.generate(Scale::Tiny))
    }

    #[test]
    fn ladders_have_expected_shapes() {
        assert_eq!(ladder_for(PlatformId::AmdX2).len(), 8);
        assert_eq!(ladder_for(PlatformId::Clovertown).len(), 8);
        assert_eq!(ladder_for(PlatformId::Niagara).len(), 7);
        assert_eq!(ladder_for(PlatformId::CellPs3).len(), 2);
        assert_eq!(ladder_for(PlatformId::CellBlade).len(), 3);
    }

    #[test]
    fn amd_ladder_is_monotone_through_parallel_rungs() {
        let csr = csr_for(SuiteMatrix::FemCantilever);
        let results = run_ladder(PlatformId::AmdX2, SuiteMatrix::FemCantilever, &csr);
        let by_label = |label: &str| {
            results
                .iter()
                .find(|r| r.rung == label)
                .map(|r| r.gflops)
                .expect("rung present")
        };
        let naive = by_label("1 Core - Naive");
        let pf = by_label("1 Core [PF]");
        let full_socket = by_label("1 Socket [*]");
        let full_system = by_label("Full System [*]");
        assert!(pf >= naive);
        assert!(full_socket >= pf * 0.95);
        assert!(full_system >= full_socket);
        for r in &results {
            assert!(
                r.gflops.is_finite() && r.gflops > 0.0,
                "{}: {}",
                r.rung,
                r.gflops
            );
        }
    }

    #[test]
    fn tuned_full_system_beats_oski_petsc() {
        let csr = csr_for(SuiteMatrix::Protein);
        let results = run_ladder(PlatformId::AmdX2, SuiteMatrix::Protein, &csr);
        let full = results
            .iter()
            .find(|r| r.rung == "Full System [*]")
            .unwrap();
        let petsc = results.iter().find(|r| r.rung == "OSKI-PETSc").unwrap();
        let oski = results.iter().find(|r| r.rung == "OSKI").unwrap();
        assert!(full.gflops > petsc.gflops);
        assert!(full.gflops > oski.gflops);
    }

    #[test]
    fn niagara_thread_scaling_is_strong() {
        let csr = csr_for(SuiteMatrix::FemHarbor);
        let results = run_ladder(PlatformId::Niagara, SuiteMatrix::FemHarbor, &csr);
        let one = results.iter().find(|r| r.rung == "1 Core - Naive").unwrap();
        let t32 = results
            .iter()
            .find(|r| r.rung == "8 Cores x 4 Threads [*]")
            .unwrap();
        let t8 = results
            .iter()
            .find(|r| r.rung == "8 Cores x 1 Thread [*]")
            .unwrap();
        assert!(t8.gflops > 4.0 * one.gflops);
        assert!(t32.gflops > t8.gflops);
    }

    #[test]
    fn cell_blade_scales_with_spes() {
        let csr = csr_for(SuiteMatrix::Dense);
        let results = run_ladder(PlatformId::CellBlade, SuiteMatrix::Dense, &csr);
        assert!(results[1].gflops > 4.0 * results[0].gflops);
        assert!(results[2].gflops > results[1].gflops);
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
