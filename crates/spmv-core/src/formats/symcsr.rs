//! Symmetric CSR: diagonal plus strictly-lower triangle, each off-diagonal entry
//! applied twice.
//!
//! Williams et al. report that exploiting symmetry is one of the largest single
//! wins in their optimization ladder: storing only the lower triangle halves both
//! value and index traffic, and the kernel recovers the upper triangle by applying
//! every stored off-diagonal entry once directly (`y[i] += a_ij * x[j]`) and once
//! transposed (`y[j] += a_ij * x[i]`) in the same pass. [`SymCsr`] is that storage:
//! a dense diagonal array plus a CSR structure over the strictly-lower entries,
//! monomorphized over the column-index width [`IndexStorage`] exactly like
//! [`CsrMatrix`].
//!
//! A `SymCsr` can also represent a **row slab** of a larger symmetric matrix
//! (global rows `[row_offset, row_offset + local_rows)`, column indices global):
//! this is how the two-phase tuning pipeline hands each engine worker its share.
//! A slab's transposed contributions land at `y[j]` for arbitrary `j < row`, i.e.
//! *outside* the slab's own row range — which is exactly why the parallel engine
//! gives symmetric workers full-length scratch destinations and a deterministic
//! tree reduction (see `spmv_parallel::SpmvEngine`).

use crate::error::{Error, Result};
use crate::formats::coo::CooMatrix;
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexStorage;
use crate::formats::traits::{check_dims, MatrixShape, SpMv};
use crate::{INDEX32_BYTES, VALUE_BYTES};

/// Whether `csr` is square and exactly symmetric (pattern *and* values).
///
/// The check is exact (`a_ij == a_ji` bitwise on the summed-duplicate form), which
/// is the condition under which symmetric storage reproduces the general SpMV up
/// to summation order. Matrices containing NaNs report `false`.
pub fn is_symmetric(csr: &CsrMatrix) -> bool {
    if csr.nrows() != csr.ncols() {
        return false;
    }
    // A transpose fused with the comparison, so the first entry without an equal
    // mirror ends the check: rows are visited in order and columns are sorted per
    // row, so when `(i, j)` comes up, the first entry of row `j` no earlier row
    // has claimed must be `(j, i)`. Every entry claiming a distinct mirror makes
    // the claim map a bijection, i.e. the matrix equals its transpose.
    let (row_ptr, col_idx, values) = (csr.row_ptr(), csr.col_idx(), csr.values());
    let mut next = row_ptr[..csr.nrows()].to_vec();
    for i in 0..csr.nrows() {
        for k in row_ptr[i]..row_ptr[i + 1] {
            let j = col_idx[k] as usize;
            let mirror = next[j];
            if mirror == row_ptr[j + 1]
                || col_idx[mirror] as usize != i
                || values[mirror] != values[k]
            {
                return false;
            }
            next[j] += 1;
        }
    }
    true
}

/// Symmetric storage: dense diagonal plus strictly-lower triangle in CSR form.
///
/// The struct covers global rows `[row_offset, row_offset + local_rows)` of an
/// `n × n` symmetric matrix; column indices are global. A whole-matrix instance
/// has `row_offset == 0` and `local_rows == n`.
///
/// Because the diagonal is dense, an *explicitly stored* `0.0` diagonal entry
/// is indistinguishable from an absent one: products are unaffected, but
/// [`SymCsr::expand`] emits only nonzero diagonal entries, so the expanded
/// pattern can be a subset of an input that listed explicit diagonal zeros.
#[derive(Debug, Clone, PartialEq)]
pub struct SymCsr<I: IndexStorage = u32> {
    /// Global (square) matrix dimension.
    n: usize,
    /// First global row this slab covers.
    row_offset: usize,
    /// Dense diagonal for the covered rows (zeros where the diagonal is absent).
    diag: Vec<f64>,
    /// Row pointer over the strictly-lower entries (`local_rows + 1` entries),
    /// 32-bit: the 4 bytes per entry the planner counts.
    row_ptr: Vec<u32>,
    /// Global column indices of the strictly-lower entries, sorted per row.
    col_idx: Vec<I>,
    /// Values of the strictly-lower entries.
    values: Vec<f64>,
    /// General-form (expanded) nonzeros of the covered rows, for flop accounting.
    logical_nnz: usize,
}

impl<I: IndexStorage> SymCsr<I> {
    /// Build from a general CSR matrix, verifying it is square and symmetric.
    pub fn from_csr(csr: &CsrMatrix) -> Result<SymCsr<I>> {
        if csr.nrows() != csr.ncols() {
            return Err(Error::InvalidStructure(format!(
                "symmetric storage requires a square matrix, got {}x{}",
                csr.nrows(),
                csr.ncols()
            )));
        }
        if !is_symmetric(csr) {
            return Err(Error::InvalidStructure(
                "matrix is not symmetric (pattern or values differ from transpose)".to_string(),
            ));
        }
        Self::from_slab_unchecked(csr, 0)
    }

    /// Build a row slab from rows `[row_offset, row_offset + local.nrows())` of a
    /// symmetric matrix, keeping the diagonal and strictly-lower entries and
    /// discarding the (redundant) strictly-upper ones.
    ///
    /// The caller asserts symmetry of the *full* matrix: a slab cannot verify that
    /// its upper entries mirror lower entries owned by other slabs. The tuning
    /// pipeline only takes this path after [`is_symmetric`] passed on the full
    /// matrix at plan time.
    pub fn from_slab_unchecked(local: &CsrMatrix, row_offset: usize) -> Result<SymCsr<I>> {
        let n = local.ncols();
        if !I::fits(n) {
            return Err(Error::IndexWidthOverflow { dimension: n });
        }
        let local_rows = local.nrows();
        if row_offset + local_rows > n {
            return Err(Error::InvalidStructure(format!(
                "slab rows {}..{} exceed the {n}-dimensional symmetric matrix",
                row_offset,
                row_offset + local_rows
            )));
        }
        let mut diag = vec![0.0f64; local_rows];
        let mut row_ptr = Vec::with_capacity(local_rows + 1);
        row_ptr.push(0u32);
        let mut col_idx: Vec<I> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for (i, d) in diag.iter_mut().enumerate() {
            let gi = row_offset + i;
            for k in local.row_ptr()[i]..local.row_ptr()[i + 1] {
                let j = local.col_idx()[k].to_usize();
                let v = local.values()[k];
                if j == gi {
                    *d = v;
                } else if j < gi {
                    col_idx.push(I::try_from_usize(j)?);
                    values.push(v);
                }
                // j > gi: the mirror of a lower entry owned by row j's slab.
            }
            row_ptr.push(u32::try_from_usize(col_idx.len())?);
        }
        Ok(SymCsr {
            n,
            row_offset,
            diag,
            row_ptr,
            col_idx,
            values,
            logical_nnz: local.nnz(),
        })
    }

    /// Build from the *stored* (lower-triangle) entries of a symmetric matrix —
    /// the representation a symmetric MatrixMarket file lists. Every entry must
    /// satisfy `row >= col`; the result covers the whole matrix.
    pub fn from_lower_coo(lower: &CooMatrix) -> Result<SymCsr<I>> {
        if lower.nrows() != lower.ncols() {
            return Err(Error::InvalidStructure(format!(
                "symmetric storage requires a square matrix, got {}x{}",
                lower.nrows(),
                lower.ncols()
            )));
        }
        for t in lower.entries() {
            if t.col > t.row {
                return Err(Error::InvalidStructure(format!(
                    "strictly-upper entry ({}, {}) in lower-triangle input",
                    t.row, t.col
                )));
            }
        }
        let csr = CsrMatrix::from_coo(lower);
        let mut sym = Self::from_slab_unchecked(&csr, 0)?;
        // The lower-coo nnz counts stored entries; the logical (expanded) count
        // doubles the off-diagonal ones. Diagonal entries are counted as
        // *stored* (even explicit 0.0 ones, which FEM exports sometimes list),
        // so the count matches what the eagerly-expanded general CSR reports.
        let diag_stored = csr.iter().filter(|&(i, j, _)| i == j).count();
        sym.logical_nnz = diag_stored + 2 * sym.values.len();
        Ok(sym)
    }

    /// Re-encode the column indices at width `J`.
    pub fn reindex<J: IndexStorage>(&self) -> Result<SymCsr<J>> {
        if !J::fits(self.n) {
            return Err(Error::IndexWidthOverflow { dimension: self.n });
        }
        Ok(SymCsr {
            n: self.n,
            row_offset: self.row_offset,
            diag: self.diag.clone(),
            row_ptr: self.row_ptr.clone(),
            col_idx: self
                .col_idx
                .iter()
                .map(|&c| J::try_from_usize(c.to_usize()))
                .collect::<Result<Vec<J>>>()?,
            values: self.values.clone(),
            logical_nnz: self.logical_nnz,
        })
    }

    /// Expand back to a general CSR matrix (whole-matrix instances only).
    pub fn expand(&self) -> Result<CsrMatrix> {
        if !self.is_full() {
            return Err(Error::InvalidStructure(
                "cannot expand a row slab without its sibling slabs".to_string(),
            ));
        }
        let mut coo = CooMatrix::with_capacity(self.n, self.n, 2 * self.values.len() + self.n);
        for (i, &d) in self.diag.iter().enumerate() {
            if d != 0.0 {
                coo.push(i, i, d);
            }
        }
        for i in 0..self.local_rows() {
            for k in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                let j = self.col_idx[k].to_usize();
                let v = self.values[k];
                coo.push(i, j, v);
                coo.push(j, i, v);
            }
        }
        Ok(CsrMatrix::from_coo(&coo))
    }

    /// Whether this instance covers the whole matrix (not a row slab).
    pub fn is_full(&self) -> bool {
        self.row_offset == 0 && self.diag.len() == self.n
    }

    /// Global matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// First global row covered.
    pub fn row_offset(&self) -> usize {
        self.row_offset
    }

    /// Number of covered rows.
    pub fn local_rows(&self) -> usize {
        self.diag.len()
    }

    /// Dense diagonal of the covered rows.
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// Row pointer over the strictly-lower entries.
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Global column indices of the strictly-lower entries.
    pub fn col_idx(&self) -> &[I] {
        &self.col_idx
    }

    /// Values of the strictly-lower entries.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Stored strictly-lower nonzeros.
    pub fn lower_nnz(&self) -> usize {
        self.values.len()
    }

    /// `y ← y + A_slab·x` over **full-length** global vectors (`x.len() == n`,
    /// `y.len() == n`): every stored lower entry is applied directly and
    /// transposed, the diagonal once. Accumulation order is fixed (row-major over
    /// the slab, transpose write before the row sum lands), so two executions are
    /// bit-identical.
    pub fn spmv_full(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "source vector length mismatch");
        assert_eq!(y.len(), self.n, "destination vector length mismatch");
        crate::kernels::symmetric::spmv_sym_csr(self, x, y);
    }
}

impl<I: IndexStorage> MatrixShape for SymCsr<I> {
    fn nrows(&self) -> usize {
        self.local_rows()
    }
    fn ncols(&self) -> usize {
        self.n
    }
    fn stored_entries(&self) -> usize {
        self.diag.len() + self.values.len()
    }
    fn nnz(&self) -> usize {
        self.logical_nnz
    }
    fn footprint_bytes(&self) -> usize {
        self.diag.len() * VALUE_BYTES
            + self.values.len() * (VALUE_BYTES + I::BYTES)
            + self.row_ptr.len() * INDEX32_BYTES
    }
}

impl<I: IndexStorage> SpMv for SymCsr<I> {
    /// Whole-matrix SpMV; row slabs must use [`SymCsr::spmv_full`] with
    /// full-length destinations instead.
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert!(
            self.is_full(),
            "SpMv::spmv is defined for whole-matrix SymCsr; slabs use spmv_full"
        );
        check_dims(self.n, self.n, x, y);
        self.spmv_full(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::max_abs_diff;

    fn sym_coo() -> CooMatrix {
        // [ 2 -1  0  3 ]
        // [-1  0  5  0 ]
        // [ 0  5  1  0 ]
        // [ 3  0  0 -4 ]
        CooMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (0, 3, 3.0),
                (3, 0, 3.0),
                (1, 2, 5.0),
                (2, 1, 5.0),
                (2, 2, 1.0),
                (3, 3, -4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn detects_symmetry_exactly() {
        let csr = CsrMatrix::from_coo(&sym_coo());
        assert!(is_symmetric(&csr));
        let asym = CsrMatrix::from_coo(&CooMatrix::from_triplets(2, 2, vec![(1, 0, 3.0)]).unwrap());
        assert!(!is_symmetric(&asym));
        let rect = CsrMatrix::from_coo(&CooMatrix::from_triplets(2, 3, vec![(0, 0, 1.0)]).unwrap());
        assert!(!is_symmetric(&rect));
        // Same pattern, different values: not symmetric.
        let near = CsrMatrix::from_coo(
            &CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.5)]).unwrap(),
        );
        assert!(!is_symmetric(&near));
    }

    #[test]
    fn stores_diagonal_plus_lower_only() {
        let csr = CsrMatrix::from_coo(&sym_coo());
        let sym: SymCsr<u32> = SymCsr::from_csr(&csr).unwrap();
        assert_eq!(sym.diag(), &[2.0, 0.0, 1.0, -4.0]);
        assert_eq!(sym.lower_nnz(), 3); // (1,0), (2,1), (3,0)
        assert_eq!(sym.nnz(), csr.nnz());
        assert!(sym.is_full());
        // Halved off-diagonal storage: footprint strictly below general CSR.
        assert!(sym.footprint_bytes() < csr.footprint_bytes());
    }

    #[test]
    fn spmv_matches_expanded_general_form() {
        let csr = CsrMatrix::from_coo(&sym_coo());
        let x = vec![1.0, -2.0, 0.5, 4.0];
        let reference = csr.spmv_alloc(&x);
        for y in [
            SymCsr::<u16>::from_csr(&csr).unwrap().spmv_alloc(&x),
            SymCsr::<u32>::from_csr(&csr).unwrap().spmv_alloc(&x),
            SymCsr::<usize>::from_csr(&csr).unwrap().spmv_alloc(&x),
        ] {
            assert!(max_abs_diff(&reference, &y) < 1e-12);
        }
    }

    #[test]
    fn from_csr_rejects_asymmetric_input() {
        let asym = CsrMatrix::from_coo(&CooMatrix::from_triplets(3, 3, vec![(2, 0, 1.0)]).unwrap());
        assert!(SymCsr::<u32>::from_csr(&asym).is_err());
    }

    #[test]
    fn slab_decomposition_sums_to_full_product() {
        let csr = CsrMatrix::from_coo(&sym_coo());
        let x = vec![0.5, 1.5, -1.0, 2.0];
        let reference = csr.spmv_alloc(&x);
        let mut y = vec![0.0; 4];
        for (start, end) in [(0usize, 2usize), (2, 4)] {
            let local = csr.row_slice(start, end);
            let slab: SymCsr<u32> = SymCsr::from_slab_unchecked(&local, start).unwrap();
            assert!(!slab.is_full());
            slab.spmv_full(&x, &mut y);
        }
        assert!(max_abs_diff(&reference, &y) < 1e-12);
    }

    #[test]
    fn expand_round_trips() {
        let csr = CsrMatrix::from_coo(&sym_coo());
        let sym: SymCsr<u32> = SymCsr::from_csr(&csr).unwrap();
        assert_eq!(sym.expand().unwrap(), csr);
        let local = csr.row_slice(1, 3);
        let slab: SymCsr<u32> = SymCsr::from_slab_unchecked(&local, 1).unwrap();
        assert!(slab.expand().is_err());
    }

    #[test]
    fn from_lower_coo_counts_explicit_zero_diagonal_entries() {
        // FEM exports sometimes list explicit 0.0 diagonal entries; the logical
        // count must match the eagerly-expanded general CSR, which stores them.
        let lower =
            CooMatrix::from_triplets(3, 3, vec![(0, 0, 0.0), (1, 1, 2.0), (2, 1, -1.0)]).unwrap();
        let sym: SymCsr<u32> = SymCsr::from_lower_coo(&lower).unwrap();
        let mut expanded_coo = lower.clone();
        expanded_coo.push(1, 2, -1.0);
        let expanded = CsrMatrix::from_coo(&expanded_coo);
        assert_eq!(sym.nnz(), expanded.nnz());
    }

    #[test]
    fn from_lower_coo_builds_logical_counts() {
        let lower =
            CooMatrix::from_triplets(3, 3, vec![(0, 0, 2.0), (2, 0, -1.0), (2, 2, 4.0)]).unwrap();
        let sym: SymCsr<u16> = SymCsr::from_lower_coo(&lower).unwrap();
        assert_eq!(sym.nnz(), 4); // two diagonal + one mirrored pair
        assert_eq!(sym.lower_nnz(), 1);
        let expanded = sym.expand().unwrap();
        let x = vec![1.0, 2.0, 3.0];
        assert!(max_abs_diff(&sym.spmv_alloc(&x), &expanded.spmv_alloc(&x)) < 1e-12);
        // Upper entries are rejected.
        let upper = CooMatrix::from_triplets(3, 3, vec![(0, 2, 1.0)]).unwrap();
        assert!(SymCsr::<u32>::from_lower_coo(&upper).is_err());
    }

    #[test]
    fn reindex_preserves_product() {
        let csr = CsrMatrix::from_coo(&sym_coo());
        let sym: SymCsr<u32> = SymCsr::from_csr(&csr).unwrap();
        let narrow: SymCsr<u16> = sym.reindex().unwrap();
        let x = vec![3.0, -1.0, 2.0, 0.25];
        assert_eq!(sym.spmv_alloc(&x), narrow.spmv_alloc(&x));
        assert_eq!(
            sym.footprint_bytes() - narrow.footprint_bytes(),
            2 * sym.lower_nnz()
        );
    }

    #[test]
    fn footprint_is_the_bytes_it_stores() {
        use std::mem::size_of_val;
        let sym: SymCsr<u16> = SymCsr::from_csr(&CsrMatrix::from_coo(&sym_coo())).unwrap();
        let held = size_of_val(&sym.diag[..])
            + size_of_val(&sym.row_ptr[..])
            + size_of_val(&sym.col_idx[..])
            + size_of_val(&sym.values[..]);
        assert_eq!(sym.footprint_bytes(), held);
    }

    #[test]
    fn empty_symmetric_matrix() {
        let csr = CsrMatrix::from_coo(&CooMatrix::new(3, 3));
        let sym: SymCsr<u32> = SymCsr::from_csr(&csr).unwrap();
        assert_eq!(sym.spmv_alloc(&[1.0; 3]), vec![0.0; 3]);
        assert_eq!(sym.nnz(), 0);
    }
}
