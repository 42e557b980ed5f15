//! Tile discovery for the register-blocked builders (BCSR, `SymBcsr`, BCOO).
//!
//! A block row's nonzeros sit in at most four CSR rows, each sorted by column.
//! Merging those rows by block column visits the block row's occupied tiles in
//! ascending block-column order, each once, and fills each tile as it is
//! visited: one pass over the nonzeros, with no sort, no search and nothing
//! allocated per block row.

use crate::formats::csr::CsrMatrix;
use std::ops::Range;

/// The entry spans of block row `brow` at height `r ≤ 4`: span `k` holds
/// `csr`'s row `brow * r + k`; spans past `r` or past the matrix are empty.
pub(crate) fn block_row(csr: &CsrMatrix, brow: usize, r: usize) -> [Range<usize>; 4] {
    let ptr = csr.row_ptr();
    std::array::from_fn(|k| match brow * r + k {
        i if k < r && i + 1 < ptr.len() => ptr[i]..ptr[i + 1],
        _ => 0..0,
    })
}

/// Append the tiles of one block row to `tiles` (`r × c` values each,
/// row-major, zero fill) in ascending block-column order, calling `open` with
/// each tile's block column before filling it. `rows[k]` is the span of `csr`
/// entries tiled into the tile's row `k`. Each slot starts at `0.0` and adds
/// its entries in CSR order.
pub(crate) fn push_tiles(
    csr: &CsrMatrix,
    mut rows: [Range<usize>; 4],
    r: usize,
    c: usize,
    tiles: &mut Vec<f64>,
    mut open: impl FnMut(usize),
) {
    let (cols, vals) = (csr.col_idx(), csr.values());
    // The smallest block column at the rows' heads is the next tile.
    while let Some(bc) = rows
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| cols[s.start] as usize / c)
        .min()
    {
        open(bc);
        let base = tiles.len();
        tiles.resize(base + r * c, 0.0);
        let (lo, hi) = (bc * c, bc * c + c);
        for (k, s) in rows.iter_mut().enumerate() {
            while s.start < s.end && (cols[s.start] as usize) < hi {
                tiles[base + k * c + cols[s.start] as usize - lo] += vals[s.start];
                s.start += 1;
            }
        }
    }
}
