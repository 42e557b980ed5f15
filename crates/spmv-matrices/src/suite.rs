//! The 14-matrix evaluation suite (paper Table 3).
//!
//! [`SuiteMatrix`] enumerates the suite in the paper's order; [`SuiteMatrix::spec`]
//! returns the Table 3 row (dimensions, nonzeros, notes) and
//! [`SuiteMatrix::generate`] synthesizes a matrix with the same structural profile at
//! the requested [`Scale`]. Reduced scales shrink the dimensions but preserve the
//! properties that drive performance (nonzeros per row, block substructure, aspect
//! ratio, diagonal concentration), so the benchmark *shapes* survive scaling.

use crate::generators::dense::dense_matrix;
use crate::generators::fem::{fem_block_matrix, FemParams};
use crate::generators::graph::{power_law_graph, random_scatter, GraphParams};
use crate::generators::lp::{lp_constraint_matrix, LpParams};
use crate::generators::stencil::{banded_stencil, StencilParams};
use spmv_core::formats::CooMatrix;
use spmv_core::MatrixShape;

/// Make a square matrix exactly symmetric by folding every entry onto the lower
/// triangle (summing collisions) and mirroring the result back up.
///
/// The fold preserves the structural profile the suite generators aim for
/// (bandwidth, block substructure, nonzeros per row stay within a factor of ~2)
/// while guaranteeing `spmv_core::formats::is_symmetric` holds bitwise — the
/// precondition of the `SymCsr`/`SymBcsr` pipeline.
///
/// Entry `(i, j)` folds onto `(max, min)`. Collisions are summed left to right
/// in input order, as [`CooMatrix::sum_duplicates`] on the folded list would
/// sum them, so every value is the same to the bit.
///
/// The output lists the summed lower triangle in `(row, col)` order, each
/// entry followed by its mirror (a diagonal entry once): entry for entry the
/// list that folding, [`CooMatrix::sum_duplicates`] and mirroring would
/// build. Every row therefore lists its columns in increasing order, its
/// lower part before its mirrored part, so a consumer that accumulates a row
/// in entry order (a diagonal built from a row's off-diagonal sum) adds in
/// column order, and a CSR built from the output is the same to the bit.
///
/// No intermediate triplet list is built: the folded rows are counted
/// straight from the input and `(col, val)` scattered stably into them, then
/// each row is stably sorted, summed and emitted with its mirror.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn symmetrize(coo: &CooMatrix) -> CooMatrix {
    assert_eq!(
        coo.nrows(),
        coo.ncols(),
        "symmetrize requires a square matrix"
    );
    let n = coo.nrows();
    // The folded lower triangle's rows: counted, then `(col, val)` scattered
    // stably, so each row keeps its collisions in input order.
    let mut lower_ptr = vec![0usize; n + 1];
    for t in coo.entries() {
        lower_ptr[t.row.max(t.col) + 1] += 1;
    }
    for i in 0..n {
        lower_ptr[i + 1] += lower_ptr[i];
    }
    let mut lower = vec![(0usize, 0.0f64); coo.nnz()];
    let mut cursor = lower_ptr.clone();
    for t in coo.entries() {
        let i = t.row.max(t.col);
        lower[cursor[i]] = (t.row.min(t.col), t.val);
        cursor[i] += 1;
    }
    let mut sym = CooMatrix::with_capacity(n, n, 2 * coo.nnz());
    let mut start = 0;
    for i in 0..n {
        let end = lower_ptr[i + 1];
        let row = &mut lower[start..end];
        row.sort_by_key(|&(j, _)| j);
        let mut k = 0;
        while k < row.len() {
            let (j, mut v) = row[k];
            k += 1;
            while k < row.len() && row[k].0 == j {
                v += row[k].1;
                k += 1;
            }
            sym.push(i, j, v);
            if j != i {
                sym.push(j, i, v);
            }
        }
        start = end;
    }
    sym
}

/// Static description of one Table 3 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixSpec {
    /// Display name used in the paper's figures.
    pub name: &'static str,
    /// Original file name in Table 3.
    pub filename: &'static str,
    /// Rows at full scale.
    pub rows: usize,
    /// Columns at full scale.
    pub cols: usize,
    /// Nonzeros at full scale.
    pub nnz: usize,
    /// Average nonzeros per row reported by the paper.
    pub nnz_per_row: f64,
    /// Table 3's "Notes" column.
    pub notes: &'static str,
}

/// Generation scale. The paper runs at full scale; tests and quick demos use the
/// reduced scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Full Table 3 dimensions.
    Full,
    /// Dimensions divided by 4.
    Quarter,
    /// Dimensions divided by 16.
    Small,
    /// Dimensions divided by 64 (sub-second generation, used by unit tests).
    Tiny,
}

impl Scale {
    /// Divisor applied to the full-scale dimensions.
    pub fn divisor(&self) -> usize {
        match self {
            Scale::Full => 1,
            Scale::Quarter => 4,
            Scale::Small => 16,
            Scale::Tiny => 64,
        }
    }

    /// Scale a full-scale dimension down, keeping a sane minimum.
    pub fn apply(&self, dim: usize) -> usize {
        (dim / self.divisor()).max(64)
    }
}

/// The 14 matrices of the evaluation suite, in Table 3 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteMatrix {
    /// Dense matrix in sparse format.
    Dense,
    /// Protein data bank 1HYS.
    Protein,
    /// FEM concentric spheres.
    FemSpheres,
    /// FEM cantilever.
    FemCantilever,
    /// Pressurized wind tunnel.
    WindTunnel,
    /// 3D CFD of Charleston harbor.
    FemHarbor,
    /// Quark propagators (QCD/LGT).
    Qcd,
    /// Ship section/detail.
    FemShip,
    /// Macroeconomic model.
    Economics,
    /// 2D Markov model of epidemic.
    Epidemiology,
    /// Accelerator cavity design.
    FemAccelerator,
    /// Motorola circuit simulation.
    Circuit,
    /// Web connectivity matrix.
    Webbase,
    /// Railways set cover constraint matrix.
    Lp,
}

impl SuiteMatrix {
    /// Every matrix, in the order the paper's figures use.
    pub fn all() -> [SuiteMatrix; 14] {
        [
            SuiteMatrix::Dense,
            SuiteMatrix::Protein,
            SuiteMatrix::FemSpheres,
            SuiteMatrix::FemCantilever,
            SuiteMatrix::WindTunnel,
            SuiteMatrix::FemHarbor,
            SuiteMatrix::Qcd,
            SuiteMatrix::FemShip,
            SuiteMatrix::Economics,
            SuiteMatrix::Epidemiology,
            SuiteMatrix::FemAccelerator,
            SuiteMatrix::Circuit,
            SuiteMatrix::Webbase,
            SuiteMatrix::Lp,
        ]
    }

    /// The Table 3 row for this matrix.
    pub fn spec(&self) -> MatrixSpec {
        match self {
            SuiteMatrix::Dense => MatrixSpec {
                name: "Dense",
                filename: "dense2.pua",
                rows: 2_000,
                cols: 2_000,
                nnz: 4_000_000,
                nnz_per_row: 2_000.0,
                notes: "Dense matrix in sparse format",
            },
            SuiteMatrix::Protein => MatrixSpec {
                name: "Protein",
                filename: "pdb1HYS.rsa",
                rows: 36_000,
                cols: 36_000,
                nnz: 4_300_000,
                nnz_per_row: 119.0,
                notes: "Protein data bank 1HYS",
            },
            SuiteMatrix::FemSpheres => MatrixSpec {
                name: "FEM/Spheres",
                filename: "consph.rsa",
                rows: 83_000,
                cols: 83_000,
                nnz: 6_000_000,
                nnz_per_row: 72.2,
                notes: "FEM concentric spheres",
            },
            SuiteMatrix::FemCantilever => MatrixSpec {
                name: "FEM/Cantilever",
                filename: "cant.rsa",
                rows: 62_000,
                cols: 62_000,
                nnz: 4_000_000,
                nnz_per_row: 64.5,
                notes: "FEM cantilever",
            },
            SuiteMatrix::WindTunnel => MatrixSpec {
                name: "Wind Tunnel",
                filename: "pwtk.rsa",
                rows: 218_000,
                cols: 218_000,
                nnz: 11_600_000,
                nnz_per_row: 53.2,
                notes: "Pressurized wind tunnel",
            },
            SuiteMatrix::FemHarbor => MatrixSpec {
                name: "FEM/Harbor",
                filename: "rma10.pua",
                rows: 47_000,
                cols: 47_000,
                nnz: 2_370_000,
                nnz_per_row: 50.4,
                notes: "3D CFD of Charleston harbor",
            },
            SuiteMatrix::Qcd => MatrixSpec {
                name: "QCD",
                filename: "qcd5-4.pua",
                rows: 49_000,
                cols: 49_000,
                nnz: 1_900_000,
                nnz_per_row: 38.8,
                notes: "Quark propagators (QCD/LGT)",
            },
            SuiteMatrix::FemShip => MatrixSpec {
                name: "FEM/Ship",
                filename: "shipsec1.rsa",
                rows: 141_000,
                cols: 141_000,
                nnz: 3_980_000,
                nnz_per_row: 28.2,
                notes: "Ship section/detail",
            },
            SuiteMatrix::Economics => MatrixSpec {
                name: "Economics",
                filename: "mac-econ.rua",
                rows: 207_000,
                cols: 207_000,
                nnz: 1_270_000,
                nnz_per_row: 6.1,
                notes: "Macroeconomic model",
            },
            SuiteMatrix::Epidemiology => MatrixSpec {
                name: "Epidemiology",
                filename: "mc2depi.rua",
                rows: 526_000,
                cols: 526_000,
                nnz: 2_100_000,
                nnz_per_row: 4.0,
                notes: "2D Markov model of epidemic",
            },
            SuiteMatrix::FemAccelerator => MatrixSpec {
                name: "FEM/Accelerator",
                filename: "cop20k-A.rsa",
                rows: 121_000,
                cols: 121_000,
                nnz: 2_620_000,
                nnz_per_row: 21.7,
                notes: "Accelerator cavity design",
            },
            SuiteMatrix::Circuit => MatrixSpec {
                name: "Circuit",
                filename: "scircuit.rua",
                rows: 171_000,
                cols: 171_000,
                nnz: 959_000,
                nnz_per_row: 5.6,
                notes: "Motorola circuit simulation",
            },
            SuiteMatrix::Webbase => MatrixSpec {
                name: "webbase",
                filename: "webbase-1M.rua",
                rows: 1_000_000,
                cols: 1_000_000,
                nnz: 3_100_000,
                nnz_per_row: 3.1,
                notes: "Web connectivity matrix",
            },
            SuiteMatrix::Lp => MatrixSpec {
                name: "LP",
                filename: "rail4284.pua",
                rows: 4_000,
                cols: 1_100_000,
                nnz: 11_300_000,
                nnz_per_row: 2_825.0,
                notes: "Railways set cover constraint matrix",
            },
        }
    }

    /// Short name usable as an identifier (benchmark ids, file names).
    pub fn id(&self) -> &'static str {
        match self {
            SuiteMatrix::Dense => "dense",
            SuiteMatrix::Protein => "protein",
            SuiteMatrix::FemSpheres => "fem_spheres",
            SuiteMatrix::FemCantilever => "fem_cantilever",
            SuiteMatrix::WindTunnel => "wind_tunnel",
            SuiteMatrix::FemHarbor => "fem_harbor",
            SuiteMatrix::Qcd => "qcd",
            SuiteMatrix::FemShip => "fem_ship",
            SuiteMatrix::Economics => "economics",
            SuiteMatrix::Epidemiology => "epidemiology",
            SuiteMatrix::FemAccelerator => "fem_accelerator",
            SuiteMatrix::Circuit => "circuit",
            SuiteMatrix::Webbase => "webbase",
            SuiteMatrix::Lp => "lp",
        }
    }

    /// Whether the original Table-3 matrix is symmetric (the Rutherford-Boeing
    /// `.rsa` files — real symmetric assembled). These are the matrices the
    /// paper's symmetry optimization applies to.
    pub fn is_symmetric_in_table3(&self) -> bool {
        self.spec().filename.ends_with(".rsa")
    }

    /// Synthesize the **symmetric** variant of the matrix at the requested
    /// scale: [`SuiteMatrix::generate`] folded through [`symmetrize`], so the
    /// structural profile survives while exact symmetry holds. Returns `None`
    /// for matrices that are not symmetric in Table 3 (or not square).
    pub fn generate_symmetric(&self, scale: Scale) -> Option<CooMatrix> {
        if !self.is_symmetric_in_table3() {
            return None;
        }
        let coo = self.generate(scale);
        if coo.nrows() != coo.ncols() {
            return None;
        }
        Some(symmetrize(&coo))
    }

    /// Synthesize the matrix at the requested scale.
    ///
    /// The generator family and its parameters are chosen to reproduce the
    /// structural profile of the original matrix (dense block substructure for the
    /// FEM family, power-law rows for webbase, extreme aspect ratio for LP, ...).
    pub fn generate(&self, scale: Scale) -> CooMatrix {
        let spec = self.spec();
        let seed = 0x5eed_0000 + *self as u64;
        match self {
            SuiteMatrix::Dense => {
                // Scale the dimension so nnz scales quadratically, like the original.
                dense_matrix(scale.apply(spec.rows))
            }
            SuiteMatrix::Protein => fem_block_matrix(&FemParams {
                nodes: scale.apply(spec.rows) / 6,
                dof: 6,
                neighbors: 20,
                bandwidth: 60,
                seed,
            }),
            SuiteMatrix::FemSpheres => fem_block_matrix(&FemParams {
                nodes: scale.apply(spec.rows) / 6,
                dof: 6,
                neighbors: 12,
                bandwidth: 40,
                seed,
            }),
            SuiteMatrix::FemCantilever => fem_block_matrix(&FemParams {
                nodes: scale.apply(spec.rows) / 4,
                dof: 4,
                neighbors: 16,
                bandwidth: 30,
                seed,
            }),
            SuiteMatrix::WindTunnel => fem_block_matrix(&FemParams {
                nodes: scale.apply(spec.rows) / 4,
                dof: 4,
                neighbors: 13,
                bandwidth: 25,
                seed,
            }),
            SuiteMatrix::FemHarbor => fem_block_matrix(&FemParams {
                nodes: scale.apply(spec.rows) / 4,
                dof: 4,
                neighbors: 13,
                bandwidth: 80,
                seed,
            }),
            SuiteMatrix::Qcd => fem_block_matrix(&FemParams {
                nodes: scale.apply(spec.rows) / 4,
                dof: 4,
                neighbors: 10,
                bandwidth: 200,
                seed,
            }),
            SuiteMatrix::FemShip => fem_block_matrix(&FemParams {
                nodes: scale.apply(spec.rows) / 4,
                dof: 4,
                neighbors: 7,
                bandwidth: 50,
                seed,
            }),
            SuiteMatrix::Economics => random_scatter(&GraphParams {
                n: scale.apply(spec.rows),
                avg_degree: 5.1,
                diagonal: true,
                seed,
            }),
            SuiteMatrix::Epidemiology => {
                banded_stencil(&StencilParams::epidemiology(scale.apply(spec.rows)))
            }
            SuiteMatrix::FemAccelerator => random_scatter(&GraphParams {
                n: scale.apply(spec.rows),
                avg_degree: 20.7,
                diagonal: true,
                seed,
            }),
            SuiteMatrix::Circuit => random_scatter(&GraphParams {
                n: scale.apply(spec.rows),
                avg_degree: 4.6,
                diagonal: true,
                seed,
            }),
            SuiteMatrix::Webbase => power_law_graph(&GraphParams {
                n: scale.apply(spec.rows),
                avg_degree: 3.1,
                diagonal: false,
                seed,
            }),
            SuiteMatrix::Lp => lp_constraint_matrix(&LpParams {
                rows: scale.apply(spec.rows),
                cols: scale.apply(spec.cols),
                // Keep the per-row density in proportion to the shrunken column
                // space so the working-set-per-row property is preserved.
                nnz_per_row: (spec.nnz_per_row as usize / scale.divisor()).max(64),
                seed,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::formats::CsrMatrix;
    use spmv_core::stats::MatrixStats;
    use spmv_core::MatrixShape;

    #[test]
    fn spec_matches_table3_totals() {
        // Spot-check the Table 3 numbers that drive the paper's analysis.
        assert_eq!(SuiteMatrix::Dense.spec().nnz, 4_000_000);
        assert_eq!(SuiteMatrix::WindTunnel.spec().rows, 218_000);
        assert_eq!(SuiteMatrix::Webbase.spec().rows, 1_000_000);
        assert_eq!(SuiteMatrix::Lp.spec().cols, 1_100_000);
        assert!(SuiteMatrix::Lp.spec().nnz_per_row > 2_000.0);
        assert_eq!(SuiteMatrix::all().len(), 14);
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = SuiteMatrix::all().iter().map(|m| m.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 14);
    }

    #[test]
    fn tiny_scale_generates_every_matrix() {
        for m in SuiteMatrix::all() {
            let coo = m.generate(Scale::Tiny);
            assert!(coo.nnz() > 0, "{} generated empty", m.id());
            assert!(coo.nrows() >= 64);
        }
    }

    #[test]
    fn fem_family_has_block_structure_at_small_scale() {
        for m in [
            SuiteMatrix::Protein,
            SuiteMatrix::FemCantilever,
            SuiteMatrix::FemShip,
        ] {
            let coo = m.generate(Scale::Small);
            let stats = MatrixStats::compute(&CsrMatrix::from_coo(&coo));
            assert!(
                stats.fill_2x2 < 1.5,
                "{} should show dense block substructure, fill_2x2={}",
                m.id(),
                stats.fill_2x2
            );
        }
    }

    #[test]
    fn short_row_family_profile() {
        for m in [
            SuiteMatrix::Economics,
            SuiteMatrix::Circuit,
            SuiteMatrix::Webbase,
            SuiteMatrix::Epidemiology,
        ] {
            let coo = m.generate(Scale::Small);
            let stats = MatrixStats::compute(&CsrMatrix::from_coo(&coo));
            assert!(
                stats.nnz_per_row_mean < 8.0,
                "{} should have short rows, got {}",
                m.id(),
                stats.nnz_per_row_mean
            );
        }
    }

    #[test]
    fn lp_preserves_aspect_ratio_under_scaling() {
        let coo = SuiteMatrix::Lp.generate(Scale::Small);
        let stats = MatrixStats::compute(&CsrMatrix::from_coo(&coo));
        assert!(stats.aspect_ratio > 50.0, "aspect {}", stats.aspect_ratio);
        assert!(stats.nnz_per_row_mean > 100.0);
    }

    #[test]
    fn epidemiology_is_nearly_diagonal() {
        let coo = SuiteMatrix::Epidemiology.generate(Scale::Small);
        let stats = MatrixStats::compute(&CsrMatrix::from_coo(&coo));
        assert!(stats.diagonal_fraction > 0.7);
    }

    #[test]
    fn scale_divisors() {
        assert_eq!(Scale::Full.divisor(), 1);
        assert_eq!(Scale::Tiny.divisor(), 64);
        assert_eq!(Scale::Small.apply(16_000), 1_000);
        assert_eq!(Scale::Tiny.apply(100), 64);
    }

    #[test]
    fn symmetric_table3_rows_are_the_rsa_files() {
        let symmetric: Vec<&str> = SuiteMatrix::all()
            .iter()
            .filter(|m| m.is_symmetric_in_table3())
            .map(|m| m.id())
            .collect();
        assert_eq!(
            symmetric,
            vec![
                "protein",
                "fem_spheres",
                "fem_cantilever",
                "wind_tunnel",
                "fem_ship",
                "fem_accelerator"
            ]
        );
    }

    #[test]
    fn generate_symmetric_is_exactly_symmetric_and_preserves_profile() {
        for m in SuiteMatrix::all() {
            match m.generate_symmetric(Scale::Tiny) {
                None => assert!(!m.is_symmetric_in_table3() || m.spec().rows != m.spec().cols),
                Some(sym) => {
                    let csr = CsrMatrix::from_coo(&sym);
                    assert!(
                        spmv_core::formats::is_symmetric(&csr),
                        "{}: symmetrized matrix must be exactly symmetric",
                        m.id()
                    );
                    let general = CsrMatrix::from_coo(&m.generate(Scale::Tiny));
                    let ratio = csr.nnz() as f64 / general.nnz() as f64;
                    assert!(
                        ratio > 0.5 && ratio < 2.5,
                        "{}: symmetrization changed nnz by {ratio}",
                        m.id()
                    );
                }
            }
        }
    }

    #[test]
    fn symmetrize_folds_and_mirrors() {
        let coo =
            CooMatrix::from_triplets(3, 3, vec![(0, 1, 2.0), (1, 0, 3.0), (2, 2, 1.0)]).unwrap();
        let sym = symmetrize(&coo);
        let d = sym.to_dense();
        assert_eq!(d[0][1], 5.0); // folded sum mirrored
        assert_eq!(d[1][0], 5.0);
        assert_eq!(d[2][2], 1.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SuiteMatrix::Circuit.generate(Scale::Tiny);
        let b = SuiteMatrix::Circuit.generate(Scale::Tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn nnz_per_row_tracks_spec_for_mid_density_matrices() {
        // The structural property the analysis needs is nonzeros per row; check the
        // synthetic versions land within a factor of ~2 of Table 3 at small scale.
        for m in [
            SuiteMatrix::Protein,
            SuiteMatrix::Qcd,
            SuiteMatrix::FemHarbor,
        ] {
            let spec = m.spec();
            let coo = m.generate(Scale::Small);
            let stats = MatrixStats::compute(&CsrMatrix::from_coo(&coo));
            let ratio = stats.nnz_per_row_mean / spec.nnz_per_row;
            assert!(
                ratio > 0.4 && ratio < 2.0,
                "{}: synthetic {} vs spec {}",
                m.id(),
                stats.nnz_per_row_mean,
                spec.nnz_per_row
            );
        }
    }
}
