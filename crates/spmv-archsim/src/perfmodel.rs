//! Analytic SpMV performance model.
//!
//! The paper's own analysis (Sections 5.1 and 6.1) predicts SpMV performance as the
//! interplay of two bounds:
//!
//! * a **bandwidth bound** — sustained memory bandwidth for the active core/socket
//!   configuration times the flop:byte ratio of the (tuned) data structure plus
//!   vector traffic; and
//! * an **in-core bound** — how fast the kernel can retire nonzeros given per-nonzero
//!   instruction cost (reduced by register blocking and SIMD), per-row loop overhead
//!   and branch mispredictions (painful for short-row matrices, removed by the
//!   branchless kernel), and the memory latency an in-order core cannot hide without
//!   enough threads or DMA.
//!
//! [`PerformanceModel::predict`] evaluates both bounds for a given platform,
//! optimization level, and parallel scope, and returns the minimum — exactly the
//! reasoning the paper uses to explain every row of Table 4 and every bar of
//! Figure 1.

use crate::dram::{MemoryModel, Placement};
use crate::platforms::{CoreKind, Platform};
use crate::trace::TrafficSummary;

/// Which optimizations are enabled — the rungs of Figure 1's per-platform ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizationLevel {
    /// Software prefetch (x86/Niagara) or double-buffered DMA (Cell).
    pub software_prefetch: bool,
    /// Register blocking (BCSR/BCOO tiles): fewer index bytes and less index
    /// arithmetic per nonzero.
    pub register_blocking: bool,
    /// Cache/TLB blocking: bounds the source-vector working set (the caller reflects
    /// this in the [`WorkloadProfile`]'s traffic numbers and per-block row length).
    pub cache_blocking: bool,
    /// Low-level code optimization: SIMDization, software pipelining, branchless
    /// inner loops.
    pub code_optimized: bool,
    /// NUMA-aware placement of matrix blocks (process + memory affinity).
    pub numa_aware: bool,
}

impl OptimizationLevel {
    /// The naive implementation: nothing enabled.
    pub fn naive() -> Self {
        OptimizationLevel {
            software_prefetch: false,
            register_blocking: false,
            cache_blocking: false,
            code_optimized: false,
            numa_aware: false,
        }
    }

    /// Figure 1's `+PF` rung.
    pub fn prefetch() -> Self {
        OptimizationLevel {
            software_prefetch: true,
            ..Self::naive()
        }
    }

    /// Figure 1's `+PF,RB` rung.
    pub fn prefetch_register() -> Self {
        OptimizationLevel {
            register_blocking: true,
            ..Self::prefetch()
        }
    }

    /// Figure 1's `+PF,RB,CB` rung.
    pub fn prefetch_register_cache() -> Self {
        OptimizationLevel {
            cache_blocking: true,
            ..Self::prefetch_register()
        }
    }

    /// Everything on (the `*` bars of Figure 1).
    pub fn full() -> Self {
        OptimizationLevel {
            software_prefetch: true,
            register_blocking: true,
            cache_blocking: true,
            code_optimized: true,
            numa_aware: true,
        }
    }
}

/// How many cores/sockets/threads participate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelScope {
    /// Total active cores (SPEs on Cell).
    pub cores: usize,
    /// Sockets those cores are spread over.
    pub sockets: usize,
    /// Hardware threads per core in use (only >1 on Niagara).
    pub threads_per_core: usize,
    /// Static load imbalance: maximum thread load over mean thread load (≥ 1.0).
    /// The paper's nonzero-balanced partitioning keeps this near 1; OSKI-PETSc's
    /// equal-rows partitioning does not (Section 6.2's FEM-Accel example).
    pub load_imbalance: f64,
}

impl ParallelScope {
    /// One core, one thread.
    pub fn single_core() -> Self {
        ParallelScope {
            cores: 1,
            sockets: 1,
            threads_per_core: 1,
            load_imbalance: 1.0,
        }
    }

    /// Every core of one socket.
    pub fn single_socket(platform: &Platform) -> Self {
        ParallelScope {
            cores: platform.cores_per_socket,
            sockets: 1,
            threads_per_core: 1,
            load_imbalance: 1.0,
        }
    }

    /// The whole system, all hardware threads.
    pub fn full_system(platform: &Platform) -> Self {
        ParallelScope {
            cores: platform.total_cores(),
            sockets: platform.memory.sockets,
            threads_per_core: platform.concurrency.threads_per_core,
            load_imbalance: 1.0,
        }
    }

    /// Total hardware threads engaged.
    pub fn total_threads(&self) -> usize {
        self.cores * self.threads_per_core
    }
}

/// Description of one SpMV workload after tuning: how many bytes move and how long
/// the inner loops are. Produced by the benchmark harness from the real tuned data
/// structures (spmv-core) and traffic estimates (this crate's [`crate::trace`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Logical nonzeros.
    pub nnz: u64,
    /// Rows of the matrix.
    pub nrows: usize,
    /// Columns of the matrix.
    pub ncols: usize,
    /// Bytes of matrix data streamed per SpMV (the tuned structure's footprint).
    pub matrix_bytes: u64,
    /// Bytes of source-vector DRAM traffic per SpMV.
    pub source_bytes: u64,
    /// Bytes of destination-vector DRAM traffic per SpMV.
    pub dest_bytes: u64,
    /// Average nonzeros per row *per cache block* — the inner-loop trip count that
    /// determines how well loop overhead is amortized (Section 5.1).
    pub avg_row_nnz_per_block: f64,
    /// Stored entries (including register-blocking fill) over logical nonzeros.
    pub fill_ratio: f64,
}

impl WorkloadProfile {
    /// Build a profile from a traffic summary.
    pub fn from_traffic(
        nnz: u64,
        nrows: usize,
        ncols: usize,
        traffic: &TrafficSummary,
        avg_row_nnz_per_block: f64,
        fill_ratio: f64,
    ) -> Self {
        WorkloadProfile {
            nnz,
            nrows,
            ncols,
            matrix_bytes: traffic.matrix_bytes,
            source_bytes: traffic.source_bytes,
            dest_bytes: traffic.dest_bytes,
            avg_row_nnz_per_block,
            fill_ratio,
        }
    }

    /// Useful flops per SpMV.
    pub fn flops(&self) -> f64 {
        2.0 * self.nnz as f64
    }

    /// Total DRAM bytes per SpMV.
    pub fn total_bytes(&self) -> f64 {
        (self.matrix_bytes + self.source_bytes + self.dest_bytes) as f64
    }

    /// Effective flop:byte ratio.
    pub fn flop_byte(&self) -> f64 {
        if self.total_bytes() == 0.0 {
            0.0
        } else {
            self.flops() / self.total_bytes()
        }
    }

    /// Whether the source and destination vectors fit in `onchip_bytes` of aggregate
    /// cache — the condition behind the Clovertown Economics super-linearity
    /// (Section 6.3).
    pub fn vectors_fit_onchip(&self, onchip_bytes: usize) -> bool {
        (self.nrows + self.ncols) * 8 <= onchip_bytes
    }
}

/// The model's output for one (platform, workload, optimization, scope) combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted effective performance in Gflop/s (2 flops per logical nonzero).
    pub gflops: f64,
    /// The bandwidth-bound limit in Gflop/s.
    pub bandwidth_limit_gflops: f64,
    /// The in-core (compute) limit in Gflop/s.
    pub compute_limit_gflops: f64,
    /// DRAM bandwidth actually consumed at the predicted rate, GB/s.
    pub consumed_gbs: f64,
    /// Whether the bandwidth bound was the binding constraint.
    pub bandwidth_bound: bool,
    /// Time for one SpMV in seconds.
    pub time_s: f64,
}

/// Analytic model for one platform.
#[derive(Debug, Clone)]
pub struct PerformanceModel {
    platform: Platform,
    memory: MemoryModel,
}

impl PerformanceModel {
    /// Build the model for a platform.
    pub fn new(platform: &Platform) -> Self {
        PerformanceModel {
            platform: platform.clone(),
            memory: MemoryModel::new(platform),
        }
    }

    /// The platform being modelled.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Cycles each core spends per stored nonzero in the steady state of the inner
    /// loop (excluding per-row overhead and exposed memory latency).
    fn issue_cycles_per_entry(&self, opt: &OptimizationLevel) -> f64 {
        match self.platform.core_kind {
            CoreKind::OutOfOrderX86 => {
                // Loads of value/index/x, convert, multiply, add, pointer update:
                // the out-of-order window overlaps most of it.
                let base = 2.3;
                let rb = if opt.register_blocking { 0.85 } else { 1.0 };
                let simd = if opt.code_optimized { 0.80 } else { 1.0 };
                base * rb * simd
            }
            CoreKind::InOrderMultithreaded => {
                // Single-issue: every instruction is a cycle. ~10 instructions per
                // nonzero; pointer arithmetic / pipelining shaves a little.
                let base = 10.0;
                let rb = if opt.register_blocking { 0.9 } else { 1.0 };
                let code = if opt.code_optimized { 0.9 } else { 1.0 };
                base * rb * code
            }
            CoreKind::SpeLocalStore => {
                // Half-pumped, partially pipelined DP: one SIMD DP op every 7 cycles
                // plus the quadword shuffles to gather x values. The paper's Cell
                // kernel sustains ~0.65 Gflop/s per SPE on the dense matrix, i.e.
                // roughly 10 cycles per nonzero.
                let base = 11.0;
                let code = if opt.code_optimized { 0.88 } else { 1.0 };
                base * code
            }
        }
    }

    /// Cycles of exposed memory latency per nonzero that the core cannot hide.
    fn exposed_latency_cycles(&self, opt: &OptimizationLevel, scope: &ParallelScope) -> f64 {
        match self.platform.core_kind {
            CoreKind::OutOfOrderX86 => {
                // The reorder window plus hardware prefetch hides essentially all of
                // it; software prefetch removes the residual L2 latency.
                if opt.software_prefetch {
                    0.0
                } else {
                    0.6
                }
            }
            CoreKind::InOrderMultithreaded => {
                // Section 6.1: 23–48 cycles of memory latency per nonzero for one
                // thread. Additional hardware threads on the core hide it
                // proportionally; prefetch (L2-only) helps little.
                let base = if opt.software_prefetch { 36.0 } else { 40.0 };
                base / scope.threads_per_core.max(1) as f64
            }
            CoreKind::SpeLocalStore => {
                // Double-buffered DMA hides DRAM latency entirely; without it the SPE
                // waits for each buffer.
                if opt.software_prefetch {
                    0.0
                } else {
                    6.0
                }
            }
        }
    }

    /// Cycles of per-row loop overhead (startup, pointer bookkeeping, and the branch
    /// misprediction the paper blames for Economics/Circuit on Cell).
    fn row_overhead_cycles(&self, opt: &OptimizationLevel) -> f64 {
        match self.platform.core_kind {
            CoreKind::OutOfOrderX86 => {
                // Branchless gave no benefit on x86 (Section 4.1): overhead is modest
                // either way.
                9.0
            }
            CoreKind::InOrderMultithreaded => {
                if opt.code_optimized {
                    8.0
                } else {
                    14.0
                }
            }
            CoreKind::SpeLocalStore => {
                // "Without perfect branch prediction or a branchless implementation,
                // matrices with few nonzeros per row are heavily penalized by the
                // loop overhead including the branch misprediction penalty" (§6.5).
                if opt.code_optimized {
                    14.0
                } else {
                    30.0
                }
            }
        }
    }

    /// The in-core (compute) bound in Gflop/s for the given configuration.
    pub fn compute_limit_gflops(
        &self,
        workload: &WorkloadProfile,
        opt: &OptimizationLevel,
        scope: &ParallelScope,
    ) -> f64 {
        let issue = self.issue_cycles_per_entry(opt);
        let exposed = self.exposed_latency_cycles(opt, scope);
        let row_overhead = self.row_overhead_cycles(opt);
        let inner_len = workload.avg_row_nnz_per_block.max(0.25);
        // Stored entries include register-blocking fill: the kernel processes them
        // all even though only the logical nonzeros contribute useful flops.
        let fill = workload.fill_ratio.max(1.0);
        let cycles_per_logical_nnz = (issue + exposed) * fill + row_overhead / inner_len;
        let per_core_gnnz = self.platform.clock_ghz / cycles_per_logical_nnz;
        let cores = scope.cores.min(self.platform.total_cores()) as f64;
        // Imbalance: finish time is set by the most loaded thread.
        2.0 * per_core_gnnz * cores / scope.load_imbalance.max(1.0)
    }

    /// The bandwidth bound in Gflop/s for the given configuration.
    pub fn bandwidth_limit_gflops(
        &self,
        workload: &WorkloadProfile,
        opt: &OptimizationLevel,
        scope: &ParallelScope,
    ) -> f64 {
        let placement = if !self.platform.memory.numa || opt.numa_aware {
            Placement::NumaAware
        } else if scope.sockets > 1 {
            Placement::Interleaved
        } else {
            Placement::NumaAware
        };
        // If the whole problem (vectors included) fits in the aggregate on-chip
        // storage, repeated SpMV calls stream from cache, not DRAM: the bandwidth
        // bound effectively disappears (Clovertown/Economics superlinearity). The
        // matrix itself must also fit for that to apply.
        let onchip = self.platform.total_onchip_bytes();
        let problem_bytes = workload.total_bytes();
        if problem_bytes <= onchip as f64 {
            return f64::INFINITY;
        }
        let estimate = self.memory.sustained_gbs(
            scope.cores,
            scope.sockets,
            scope.threads_per_core,
            opt.software_prefetch,
            placement,
        );
        estimate.sustained_gbs * workload.flop_byte() / scope.load_imbalance.max(1.0)
    }

    /// Predict performance: the minimum of the two bounds.
    pub fn predict(
        &self,
        workload: &WorkloadProfile,
        opt: &OptimizationLevel,
        scope: &ParallelScope,
    ) -> Prediction {
        let compute = self.compute_limit_gflops(workload, opt, scope);
        let bandwidth = self.bandwidth_limit_gflops(workload, opt, scope);
        let gflops = compute.min(bandwidth);
        let time_s = if gflops > 0.0 {
            workload.flops() / (gflops * 1e9)
        } else {
            f64::INFINITY
        };
        let consumed_gbs = if time_s.is_finite() && time_s > 0.0 {
            workload.total_bytes() / time_s / 1e9
        } else {
            0.0
        };
        Prediction {
            gflops,
            bandwidth_limit_gflops: bandwidth,
            compute_limit_gflops: compute,
            consumed_gbs,
            bandwidth_bound: bandwidth <= compute,
            time_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::PlatformId;

    /// The dense 2K x 2K matrix stored in tuned sparse format on a cache platform:
    /// ~8.2 bytes per nonzero of matrix data plus compulsory vector traffic.
    fn dense_workload_x86() -> WorkloadProfile {
        let n = 2_000u64;
        let nnz = n * n;
        WorkloadProfile {
            nnz,
            nrows: n as usize,
            ncols: n as usize,
            matrix_bytes: (nnz as f64 * 8.2) as u64,
            source_bytes: n * 8,
            dest_bytes: n * 16,
            avg_row_nnz_per_block: 2_000.0,
            fill_ratio: 1.0,
        }
    }

    /// The same dense matrix with the Cell implementation's 10 bytes per nonzero
    /// (value + 16-bit indices, dense cache blocks).
    fn dense_workload_cell() -> WorkloadProfile {
        let w = dense_workload_x86();
        WorkloadProfile {
            matrix_bytes: w.nnz * 10,
            ..w
        }
    }

    fn model(id: PlatformId) -> PerformanceModel {
        PerformanceModel::new(&id.platform())
    }

    #[test]
    fn table4_amd_x2_dense() {
        let m = model(PlatformId::AmdX2);
        let w = dense_workload_x86();
        let opt = OptimizationLevel::full();
        let p = m.platform().clone();
        let one = m.predict(&w, &opt, &ParallelScope::single_core());
        let socket = m.predict(&w, &opt, &ParallelScope::single_socket(&p));
        let system = m.predict(&w, &opt, &ParallelScope::full_system(&p));
        // Paper Table 4: 1.33 / 1.63 / 3.09 Gflop/s.
        assert!((one.gflops - 1.33).abs() < 0.35, "one core {}", one.gflops);
        assert!(
            (socket.gflops - 1.63).abs() < 0.45,
            "socket {}",
            socket.gflops
        );
        assert!(
            (system.gflops - 3.09).abs() < 0.8,
            "system {}",
            system.gflops
        );
        assert!(one.bandwidth_bound);
        assert!(system.gflops > socket.gflops && socket.gflops > one.gflops);
    }

    #[test]
    fn table4_clovertown_dense() {
        let m = model(PlatformId::Clovertown);
        let w = dense_workload_x86();
        let opt = OptimizationLevel::full();
        let p = m.platform().clone();
        let one = m.predict(&w, &opt, &ParallelScope::single_core());
        let socket = m.predict(&w, &opt, &ParallelScope::single_socket(&p));
        let system = m.predict(&w, &opt, &ParallelScope::full_system(&p));
        // Paper Table 4: 0.89 / 1.62 / 2.18 Gflop/s.
        assert!((one.gflops - 0.89).abs() < 0.3, "one core {}", one.gflops);
        assert!(
            (socket.gflops - 1.62).abs() < 0.45,
            "socket {}",
            socket.gflops
        );
        assert!(
            (system.gflops - 2.18).abs() < 0.6,
            "system {}",
            system.gflops
        );
        // The full Clovertown system gains little over one socket (FSB-bound).
        assert!(system.gflops < 1.6 * socket.gflops);
    }

    #[test]
    fn table4_niagara_dense() {
        let m = model(PlatformId::Niagara);
        let w = dense_workload_x86();
        let opt = OptimizationLevel::full();
        let p = m.platform().clone();
        let one = m.predict(&w, &opt, &ParallelScope::single_core());
        let socket = m.predict(&w, &opt, &ParallelScope::single_socket(&p));
        let system = m.predict(&w, &opt, &ParallelScope::full_system(&p));
        // Paper Table 4: 0.065 / 0.51 / 1.24 Gflop/s.
        assert!(one.gflops < 0.12, "one thread {}", one.gflops);
        assert!(
            (socket.gflops - 0.51).abs() < 0.2,
            "socket {}",
            socket.gflops
        );
        assert!(
            (system.gflops - 1.24).abs() < 0.45,
            "system {}",
            system.gflops
        );
        // Thread scaling is the whole story on Niagara.
        assert!(system.gflops > 10.0 * one.gflops);
    }

    #[test]
    fn table4_cell_dense() {
        let ps3 = model(PlatformId::CellPs3);
        let blade = model(PlatformId::CellBlade);
        let w = dense_workload_cell();
        // The paper's Cell implementation is "partially optimized": DMA and dense
        // cache blocks, but no NUMA awareness (the blade interleaves pages).
        let opt = OptimizationLevel {
            numa_aware: false,
            ..OptimizationLevel::full()
        };
        let one = ps3.predict(&w, &opt, &ParallelScope::single_core());
        let ps3_socket = ps3.predict(&w, &opt, &ParallelScope::single_socket(ps3.platform()));
        let blade_socket = blade.predict(&w, &opt, &ParallelScope::single_socket(blade.platform()));
        let blade_system = blade.predict(&w, &opt, &ParallelScope::full_system(blade.platform()));
        // Paper Table 4: 0.65 / 3.67 (PS3) / 4.64 (blade socket) / 6.30 (blade).
        assert!((one.gflops - 0.65).abs() < 0.2, "one SPE {}", one.gflops);
        assert!(
            (ps3_socket.gflops - 3.67).abs() < 0.9,
            "PS3 {}",
            ps3_socket.gflops
        );
        assert!(
            (blade_socket.gflops - 4.64).abs() < 1.0,
            "blade socket {}",
            blade_socket.gflops
        );
        assert!(
            (blade_system.gflops - 6.30).abs() < 1.6,
            "blade {}",
            blade_system.gflops
        );
        // One SPE is compute bound; a full blade socket is memory bound (91% of peak).
        assert!(!one.bandwidth_bound);
        assert!(blade_socket.bandwidth_bound);
    }

    #[test]
    fn cell_blade_outperforms_x86_at_full_system() {
        let w_x86 = dense_workload_x86();
        let w_cell = dense_workload_cell();
        let opt = OptimizationLevel::full();
        let amd = model(PlatformId::AmdX2);
        let clover = model(PlatformId::Clovertown);
        let blade = model(PlatformId::CellBlade);
        let amd_sys = amd.predict(&w_x86, &opt, &ParallelScope::full_system(amd.platform()));
        let clover_sys =
            clover.predict(&w_x86, &opt, &ParallelScope::full_system(clover.platform()));
        let blade_sys = blade.predict(&w_cell, &opt, &ParallelScope::full_system(blade.platform()));
        assert!(blade_sys.gflops > amd_sys.gflops);
        assert!(blade_sys.gflops > clover_sys.gflops);
    }

    #[test]
    fn short_rows_hurt_cell_more_than_x86() {
        // Economics-like: ~6 nonzeros per row overall, but the Cell implementation's
        // fixed dense cache blocks leave only a couple of nonzeros per row per block
        // (the FEM-Accelerator arithmetic of Section 5.1), and its inner loop is not
        // branchless, so each short row pays the misprediction penalty.
        let w = WorkloadProfile {
            nnz: 1_270_000,
            nrows: 207_000,
            ncols: 207_000,
            matrix_bytes: 1_270_000 * 12,
            source_bytes: 207_000 * 8,
            dest_bytes: 207_000 * 16,
            avg_row_nnz_per_block: 2.0,
            fill_ratio: 1.0,
        };
        let dense = dense_workload_cell();
        let cell = model(PlatformId::CellBlade);
        let opt = OptimizationLevel {
            code_optimized: false,
            numa_aware: false,
            ..OptimizationLevel::full()
        };
        let scope = ParallelScope::single_socket(cell.platform());
        let short = cell.predict(&w, &opt, &scope);
        let long = cell.predict(&dense, &opt, &scope);
        // The loop-overhead penalty must show up clearly for short rows.
        assert!(short.gflops < 0.75 * long.gflops);
        assert!(!short.bandwidth_bound);
    }

    #[test]
    fn prefetch_helps_amd_more_than_clovertown() {
        // Section 6.3: Clovertown's hardware prefetchers already do the job.
        let w = dense_workload_x86();
        let amd = model(PlatformId::AmdX2);
        let clover = model(PlatformId::Clovertown);
        let scope = ParallelScope::single_core();
        let amd_gain = amd
            .predict(&w, &OptimizationLevel::prefetch(), &scope)
            .gflops
            / amd.predict(&w, &OptimizationLevel::naive(), &scope).gflops;
        let clover_gain = clover
            .predict(&w, &OptimizationLevel::prefetch(), &scope)
            .gflops
            / clover
                .predict(&w, &OptimizationLevel::naive(), &scope)
                .gflops;
        assert!(amd_gain >= clover_gain);
        assert!(amd_gain > 1.05);
    }

    #[test]
    fn numa_awareness_matters_on_dual_socket_numa_systems() {
        let w = dense_workload_x86();
        let amd = model(PlatformId::AmdX2);
        let scope = ParallelScope::full_system(amd.platform());
        let with = amd.predict(&w, &OptimizationLevel::full(), &scope);
        let without = amd.predict(
            &w,
            &OptimizationLevel {
                numa_aware: false,
                ..OptimizationLevel::full()
            },
            &scope,
        );
        assert!(with.gflops > without.gflops);
    }

    #[test]
    fn load_imbalance_reduces_throughput() {
        let w = dense_workload_x86();
        let amd = model(PlatformId::AmdX2);
        let balanced = ParallelScope::full_system(amd.platform());
        let imbalanced = ParallelScope {
            load_imbalance: 2.0,
            ..balanced
        };
        let a = amd.predict(&w, &OptimizationLevel::full(), &balanced);
        let b = amd.predict(&w, &OptimizationLevel::full(), &imbalanced);
        assert!((b.gflops - a.gflops / 2.0).abs() < 0.3 * a.gflops);
    }

    #[test]
    fn small_problem_escapes_the_bandwidth_bound() {
        // A matrix + vectors fitting in Clovertown's 16MB of L2: the paper measured
        // 12 Gflop/s on an in-cache matrix (Section 6.1).
        let w = WorkloadProfile {
            nnz: 500_000,
            nrows: 10_000,
            ncols: 10_000,
            matrix_bytes: 500_000 * 10,
            source_bytes: 10_000 * 8,
            dest_bytes: 10_000 * 16,
            avg_row_nnz_per_block: 50.0,
            fill_ratio: 1.0,
        };
        let clover = model(PlatformId::Clovertown);
        let p = clover.predict(
            &w,
            &OptimizationLevel::full(),
            &ParallelScope::full_system(clover.platform()),
        );
        assert!(!p.bandwidth_bound);
        assert!(p.bandwidth_limit_gflops.is_infinite());
        assert!(p.gflops > 4.0);
    }

    #[test]
    fn workload_profile_accessors() {
        let w = dense_workload_x86();
        assert_eq!(w.flops(), 2.0 * 4_000_000.0);
        assert!(w.flop_byte() > 0.2 && w.flop_byte() < 0.25);
        assert!(w.vectors_fit_onchip(16 << 20));
        assert!(!w.vectors_fit_onchip(8_000));
    }

    #[test]
    fn prediction_time_and_bandwidth_consistency() {
        let w = dense_workload_x86();
        let amd = model(PlatformId::AmdX2);
        let p = amd.predict(
            &w,
            &OptimizationLevel::full(),
            &ParallelScope::single_core(),
        );
        let expected_time = w.flops() / (p.gflops * 1e9);
        assert!((p.time_s - expected_time).abs() < 1e-9);
        assert!((p.consumed_gbs - w.total_bytes() / p.time_s / 1e9).abs() < 1e-6);
    }
}
