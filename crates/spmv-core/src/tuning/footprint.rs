//! Footprint models for candidate storage formats.
//!
//! Given the fill estimates produced by [`crate::blocking::register::estimate_fill`],
//! these routines compute the exact byte cost of every (format, block shape, index
//! width) combination so the heuristic can pick the minimum without materializing
//! anything.

use crate::blocking::register::{estimate_all_shapes, FillEstimate};
use crate::formats::csr::CsrMatrix;
use crate::formats::index::IndexWidth;
use crate::formats::sell::{sell_stored_entries, SELL_CHUNK};
use crate::formats::traits::MatrixShape;
use crate::{INDEX32_BYTES, VALUE_BYTES};

/// Which storage family a choice refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatKind {
    /// Plain CSR (1×1, 32-bit indices, full row pointer).
    Csr,
    /// Register-blocked CSR.
    Bcsr,
    /// Block coordinate.
    Bcoo,
    /// Generalized CSR (occupied rows only, no register blocking).
    Gcsr,
    /// Row-sorted sliced ELL ([`crate::formats::SellMatrix`]): proposed only as
    /// the ladder's rung `S`, never by the byte count.
    Sell,
    /// Symmetric CSR: dense diagonal + strictly-lower triangle, each
    /// off-diagonal entry applied twice (chosen only for symmetric matrices).
    SymCsr,
    /// Symmetric register-blocked CSR: dense diagonal + strictly-lower tiles.
    SymBcsr,
}

impl FormatKind {
    /// Whether this kind stores only the lower triangle and needs the symmetric
    /// execution path (full-length destinations, scratch reduction in parallel).
    pub fn is_symmetric(self) -> bool {
        matches!(self, FormatKind::SymCsr | FormatKind::SymBcsr)
    }

    /// The stable lower-case token used by the plain-text plan profile and the
    /// plan snapshots ([`FormatKind::from_token`] is its inverse).
    pub fn token(self) -> &'static str {
        match self {
            FormatKind::Csr => "csr",
            FormatKind::Bcsr => "bcsr",
            FormatKind::Bcoo => "bcoo",
            FormatKind::Gcsr => "gcsr",
            FormatKind::Sell => "sell",
            FormatKind::SymCsr => "symcsr",
            FormatKind::SymBcsr => "symbcsr",
        }
    }

    /// Parse a [`FormatKind::token`] back into the kind.
    pub fn from_token(tok: &str) -> Option<FormatKind> {
        Some(match tok {
            "csr" => FormatKind::Csr,
            "bcsr" => FormatKind::Bcsr,
            "bcoo" => FormatKind::Bcoo,
            "gcsr" => FormatKind::Gcsr,
            "sell" => FormatKind::Sell,
            "symcsr" => FormatKind::SymCsr,
            "symbcsr" => FormatKind::SymBcsr,
            _ => return None,
        })
    }
}

/// A fully-specified storage decision for one matrix or cache block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormatChoice {
    /// Storage family.
    pub kind: FormatKind,
    /// Register block rows (1 for CSR/GCSR).
    pub r: usize,
    /// Register block columns (1 for CSR/GCSR).
    pub c: usize,
    /// Index width.
    pub width: IndexWidth,
    /// Predicted storage bytes.
    pub bytes: usize,
    /// Predicted fill ratio (stored / logical nonzeros).
    pub fill_ratio: f64,
}

impl FormatChoice {
    /// Plain CSR over the whole of `csr` with column indices stored at `width`.
    pub fn csr(csr: &CsrMatrix, width: IndexWidth) -> FormatChoice {
        FormatChoice {
            kind: FormatKind::Csr,
            r: 1,
            c: 1,
            width,
            bytes: csr_bytes_at(csr, width),
            fill_ratio: 1.0,
        }
    }

    /// Sliced ELL over the whole of `csr`; `fill_ratio` is its padding.
    pub fn sell(csr: &CsrMatrix, width: IndexWidth) -> FormatChoice {
        let stored = sell_stored_entries(csr);
        FormatChoice {
            kind: FormatKind::Sell,
            r: 1,
            c: 1,
            width,
            bytes: sell_bytes(csr.nrows(), stored, width),
            fill_ratio: stored as f64 / csr.nnz().max(1) as f64,
        }
    }
}

/// Exact CSR byte cost (the naive reference format, 32-bit column indices).
pub fn csr_bytes(csr: &CsrMatrix) -> usize {
    csr_bytes_at(csr, IndexWidth::U32)
}

/// Exact CSR byte cost with column indices stored at `width` (the paper's index
/// compression applied to plain CSR; the row pointer stays 32-bit).
pub fn csr_bytes_at(csr: &CsrMatrix, width: IndexWidth) -> usize {
    csr.nnz() * (VALUE_BYTES + width.bytes()) + (csr.nrows() + 1) * INDEX32_BYTES
}

/// Exact GCSR byte cost at a given index width.
pub fn gcsr_bytes(csr: &CsrMatrix, width: IndexWidth) -> usize {
    let occupied = csr.nrows() - csr.empty_rows();
    csr.nnz() * VALUE_BYTES
        + csr.nnz() * width.bytes()
        + occupied * width.bytes()
        + (occupied + 1) * INDEX32_BYTES
}

/// Exact [`crate::formats::SellMatrix`] byte cost for `nrows` rows holding `stored`
/// entries (padding included): per entry a value and a column, per row slot a
/// 32-bit length and a 16-bit in-window offset, per chunk a 32-bit offset.
pub fn sell_bytes(nrows: usize, stored: usize, width: IndexWidth) -> usize {
    let chunks = nrows.div_ceil(SELL_CHUNK);
    stored * (VALUE_BYTES + width.bytes())
        + chunks * SELL_CHUNK * (INDEX32_BYTES + 2)
        + (chunks + 1) * INDEX32_BYTES
}

/// Exact [`crate::formats::SymCsr`] byte cost for a slab with `local_rows` rows
/// and `lower_nnz` strictly-lower entries (dense diagonal + lower CSR).
pub fn sym_csr_bytes(local_rows: usize, lower_nnz: usize, width: IndexWidth) -> usize {
    local_rows * VALUE_BYTES
        + lower_nnz * (VALUE_BYTES + width.bytes())
        + (local_rows + 1) * INDEX32_BYTES
}

/// Exact [`crate::formats::SymBcsr`] byte cost given a lower-triangle fill
/// estimate (dense diagonal + tiles + one block-column index per tile).
pub fn sym_bcsr_bytes(local_rows: usize, est: &FillEstimate, width: IndexWidth) -> usize {
    let nblock_rows = local_rows.div_ceil(est.r);
    local_rows * VALUE_BYTES
        + est.tiles * est.r * est.c * VALUE_BYTES
        + est.tiles * width.bytes()
        + (nblock_rows + 1) * INDEX32_BYTES
}

/// Enumerate every admissible symmetric `FormatChoice` for a row slab of a
/// symmetric matrix. `lower` is the slab's strictly-lower triangle as a CSR
/// matrix (local rows, global columns); `n` is the global dimension. The
/// `fill_ratio` recorded in each choice describes the lower-triangle tiling.
pub fn enumerate_symmetric_choices(
    lower: &CsrMatrix,
    n: usize,
    opts: &CandidateOptions,
) -> Vec<FormatChoice> {
    let local_rows = lower.nrows();
    let lower_nnz = lower.nnz();
    let mut out = Vec::new();

    let widths = |span: usize| -> Vec<IndexWidth> {
        let mut w = vec![IndexWidth::U32];
        if opts.allow_u16 && IndexWidth::U16.fits(span) {
            w.push(IndexWidth::U16);
        }
        w
    };

    // Pointwise symmetric CSR is always admissible (columns span the full
    // global dimension).
    for width in widths(n) {
        out.push(FormatChoice {
            kind: FormatKind::SymCsr,
            r: 1,
            c: 1,
            width,
            bytes: sym_csr_bytes(local_rows, lower_nnz, width),
            fill_ratio: 1.0,
        });
    }

    let mut estimates = estimate_all_shapes(lower);
    if !opts.register_blocking {
        estimates.truncate(1); // 1×1 leads the candidates
    }
    for est in &estimates {
        let nblock_cols = n.div_ceil(est.c);
        for width in widths(nblock_cols) {
            out.push(FormatChoice {
                kind: FormatKind::SymBcsr,
                r: est.r,
                c: est.c,
                width,
                bytes: sym_bcsr_bytes(local_rows, est, width),
                fill_ratio: est.fill_ratio,
            });
        }
    }
    out
}

/// Pick the smallest-footprint symmetric choice for a slab (ties toward the
/// simpler pointwise format, which is listed first), under [`best_choice`]'s
/// SIMD-shape rule.
pub fn best_symmetric_choice(lower: &CsrMatrix, n: usize, opts: &CandidateOptions) -> FormatChoice {
    pick(enumerate_symmetric_choices(lower, n, opts), opts)
}

/// Options controlling which candidates [`enumerate_choices`] considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateOptions {
    /// Consider register block shapes other than 1×1.
    pub register_blocking: bool,
    /// Consider 16-bit indices when the span fits.
    pub allow_u16: bool,
    /// Consider BCOO storage.
    pub allow_bcoo: bool,
    /// Consider GCSR storage.
    pub allow_gcsr: bool,
    /// Steer [`best_choice`] toward shapes the runtime SIMD dispatcher covers:
    /// a covered candidate whose footprint is within [`SIMD_SHAPE_SLACK`] of
    /// the smallest candidate wins over a slightly smaller uncovered one.
    pub prefer_simd_shapes: bool,
}

impl Default for CandidateOptions {
    fn default() -> Self {
        CandidateOptions {
            register_blocking: true,
            allow_u16: true,
            allow_bcoo: true,
            allow_gcsr: true,
            prefer_simd_shapes: false,
        }
    }
}

/// Footprint slack granted to SIMD-covered candidates when
/// [`CandidateOptions::prefer_simd_shapes`] is set. The footprint model prices
/// bytes streamed, not multiplies retired; when the plan will run vector
/// microkernels, a covered shape repays up to ~10% extra padding traffic many
/// times over, so the pure byte minimum is the wrong objective by exactly that
/// margin.
pub const SIMD_SHAPE_SLACK: f64 = 1.10;

/// True when the runtime SIMD dispatcher has a vector microkernel for this
/// choice: the CSR row kernel, sliced ELL, or a BCSR or `SymBcsr` tile shape in
/// the covered set (`c == 4`, `r ∈ {1, 2, 4}`). GCSR, BCOO and `SymCsr` blocks
/// always take the scalar ladder, as do uncovered tile shapes.
pub fn simd_covered(choice: &FormatChoice) -> bool {
    match choice.kind {
        FormatKind::Csr | FormatKind::Sell => true,
        FormatKind::Bcsr | FormatKind::SymBcsr => {
            crate::kernels::simd::bcsr_simd_shape(choice.r, choice.c)
        }
        _ => false,
    }
}

/// Enumerate every admissible `FormatChoice` for `csr` under `opts`.
pub fn enumerate_choices(csr: &CsrMatrix, opts: &CandidateOptions) -> Vec<FormatChoice> {
    let mut out = Vec::new();
    let nrows = csr.nrows();
    let ncols = csr.ncols();

    let widths = |span_r: usize, span_c: usize| -> Vec<IndexWidth> {
        let mut w = vec![IndexWidth::U32];
        if opts.allow_u16 && IndexWidth::U16.fits(span_r) && IndexWidth::U16.fits(span_c) {
            w.push(IndexWidth::U16);
        }
        w
    };

    // Plain CSR is always admissible (the fallback the paper's heuristic starts
    // from), optionally with 16-bit column-index compression.
    for width in widths(1, ncols) {
        out.push(FormatChoice::csr(csr, width));
    }

    if opts.allow_gcsr {
        for width in widths(nrows, ncols) {
            out.push(FormatChoice {
                kind: FormatKind::Gcsr,
                r: 1,
                c: 1,
                width,
                bytes: gcsr_bytes(csr, width),
                fill_ratio: 1.0,
            });
        }
    }

    let mut estimates = estimate_all_shapes(csr);
    if !opts.register_blocking {
        estimates.truncate(1); // 1×1 leads the candidates
    }

    for est in &estimates {
        let nblock_rows = nrows.div_ceil(est.r);
        let nblock_cols = ncols.div_ceil(est.c);
        for width in widths(nblock_rows, nblock_cols) {
            out.push(FormatChoice {
                kind: FormatKind::Bcsr,
                r: est.r,
                c: est.c,
                width,
                bytes: est.bcsr_bytes(nrows, width),
                fill_ratio: est.fill_ratio,
            });
            if opts.allow_bcoo {
                out.push(FormatChoice {
                    kind: FormatKind::Bcoo,
                    r: est.r,
                    c: est.c,
                    width,
                    bytes: est.bcoo_bytes(width),
                    fill_ratio: est.fill_ratio,
                });
            }
        }
    }
    out
}

/// Pick the smallest-footprint choice (ties broken toward simpler formats because
/// `enumerate_choices` lists them first). With `prefer_simd_shapes` set, a
/// SIMD-covered candidate within [`SIMD_SHAPE_SLACK`] of the byte minimum
/// displaces an uncovered winner.
pub fn best_choice(csr: &CsrMatrix, opts: &CandidateOptions) -> FormatChoice {
    pick(enumerate_choices(csr, opts), opts)
}

/// The byte minimum of `choices` (the first on ties), displaced by the smallest
/// SIMD-covered candidate within [`SIMD_SHAPE_SLACK`] when `opts` prefers them.
fn pick(choices: Vec<FormatChoice>, opts: &CandidateOptions) -> FormatChoice {
    let best = choices
        .iter()
        .min_by(|a, b| a.bytes.cmp(&b.bytes))
        .cloned()
        .expect("every enumeration lists its pointwise candidate");
    if opts.prefer_simd_shapes && !simd_covered(&best) {
        let limit = (best.bytes as f64 * SIMD_SHAPE_SLACK) as usize;
        if let Some(covered) = choices
            .into_iter()
            .filter(|c| simd_covered(c) && c.bytes <= limit)
            .min_by(|a, b| a.bytes.cmp(&b.bytes))
        {
            return covered;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::CooMatrix;

    fn diag(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        CsrMatrix::from_coo(&coo)
    }

    fn block44(nblocks: usize) -> CsrMatrix {
        let n = nblocks * 4;
        let mut coo = CooMatrix::new(n, n);
        for b in 0..nblocks {
            for i in 0..4 {
                for j in 0..4 {
                    coo.push(b * 4 + i, b * 4 + j, 1.0);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn block_structured_matrix_prefers_4x4_blocks() {
        let csr = block44(64);
        let choice = best_choice(&csr, &CandidateOptions::default());
        // With exactly one tile per block row, BCOO (two 2-byte coordinates per tile)
        // edges out BCSR (one coordinate plus a 4-byte pointer per block row); either
        // way the winner must use 4x4 tiles with compressed indices and no fill.
        assert!(matches!(choice.kind, FormatKind::Bcsr | FormatKind::Bcoo));
        assert_eq!((choice.r, choice.c), (4, 4));
        assert_eq!(choice.width, IndexWidth::U16);
        assert!((choice.fill_ratio - 1.0).abs() < 1e-12);
        assert!(choice.bytes < csr_bytes(&csr));
    }

    #[test]
    fn diagonal_matrix_does_not_pay_fill() {
        let csr = diag(1000);
        let choice = best_choice(&csr, &CandidateOptions::default());
        // Best encoding of a diagonal keeps 1x1 tiles (no fill) — either BCSR or
        // BCOO with 16-bit indices.
        assert_eq!((choice.r, choice.c), (1, 1));
        assert!((choice.fill_ratio - 1.0).abs() < 1e-12);
        assert_eq!(choice.width, IndexWidth::U16);
    }

    #[test]
    fn mostly_empty_rows_prefer_bcoo_or_gcsr() {
        let coo = CooMatrix::from_triplets(
            50_000,
            50_000,
            vec![(0, 0, 1.0), (10, 20, 2.0), (49_999, 3, 3.0)],
        )
        .unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let choice = best_choice(&csr, &CandidateOptions::default());
        assert!(matches!(choice.kind, FormatKind::Bcoo | FormatKind::Gcsr));
        assert!(choice.bytes < csr_bytes(&csr) / 100);
    }

    #[test]
    fn disabling_register_blocking_restricts_shapes() {
        let csr = block44(16);
        let opts = CandidateOptions {
            register_blocking: false,
            ..Default::default()
        };
        for ch in enumerate_choices(&csr, &opts) {
            assert_eq!((ch.r, ch.c), (1, 1));
        }
    }

    #[test]
    fn disabling_u16_restricts_widths() {
        let csr = diag(100);
        let opts = CandidateOptions {
            allow_u16: false,
            ..Default::default()
        };
        for ch in enumerate_choices(&csr, &opts) {
            assert_eq!(ch.width, IndexWidth::U32);
        }
    }

    #[test]
    fn csr_candidate_always_present() {
        let csr = diag(10);
        let opts = CandidateOptions {
            register_blocking: false,
            allow_u16: false,
            allow_bcoo: false,
            allow_gcsr: false,
            prefer_simd_shapes: false,
        };
        let choices = enumerate_choices(&csr, &opts);
        assert!(choices.iter().any(|c| c.kind == FormatKind::Csr));
        // Only CSR and the single 1x1 BCSR candidate remain.
        assert_eq!(choices.len(), 2);
    }

    #[test]
    fn simd_preference_flips_to_covered_shapes_within_slack() {
        // A dense 27x27 block: 3x3 tiles pad nothing, 4x4 tiles pad the edge
        // to 28 and pay ~6% more bytes — inside SIMD_SHAPE_SLACK, so the
        // preference flips the winner to the vector-covered shape.
        let mut coo = CooMatrix::new(27, 27);
        for i in 0..27 {
            for j in 0..27 {
                coo.push(i, j, 1.0);
            }
        }
        let csr = CsrMatrix::from_coo(&coo);
        let scalar = best_choice(&csr, &CandidateOptions::default());
        assert!(
            !simd_covered(&scalar),
            "byte minimum should be an uncovered shape, got {scalar:?}"
        );
        let opts = CandidateOptions {
            prefer_simd_shapes: true,
            ..Default::default()
        };
        let vectored = best_choice(&csr, &opts);
        assert!(
            simd_covered(&vectored),
            "expected a covered shape, got {vectored:?}"
        );
        assert_eq!(
            (vectored.kind, vectored.r, vectored.c),
            (FormatKind::Bcsr, 4, 4)
        );
        assert!(vectored.bytes as f64 <= scalar.bytes as f64 * SIMD_SHAPE_SLACK);
    }

    #[test]
    fn simd_preference_never_displaces_a_clear_byte_winner() {
        // Mostly-empty rows: Bcoo/Gcsr beat the covered CSR candidate by far
        // more than the slack, so the preference must leave the plan alone.
        let coo = CooMatrix::from_triplets(
            50_000,
            50_000,
            vec![(0, 0, 1.0), (10, 20, 2.0), (49_999, 3, 3.0)],
        )
        .unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let opts = CandidateOptions {
            prefer_simd_shapes: true,
            ..Default::default()
        };
        let choice = best_choice(&csr, &opts);
        assert!(
            !simd_covered(&choice),
            "Bcoo/Gcsr must keep winning when covered formats cost far more"
        );
        assert_eq!(choice, best_choice(&csr, &CandidateOptions::default()));
    }

    #[test]
    fn gcsr_bytes_accounts_for_occupied_rows_only() {
        let coo = CooMatrix::from_triplets(1000, 100, vec![(5, 5, 1.0), (6, 6, 1.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let g16 = gcsr_bytes(&csr, IndexWidth::U16);
        // 2 values(16) + 2 col idx(4) + 2 row ids(4) + 3 row ptr entries(12)
        assert_eq!(g16, 16 + 4 + 4 + 12);
    }
}
