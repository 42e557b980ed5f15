//! One oracle for every set-up pass: the tile builders (BCSR, `SymBcsr`,
//! BCOO), the fill estimates, the COO merge and the suite's `symmetrize`.
//!
//! The reference tiles a matrix through a `BTreeMap<(block row, block col),
//! tile>`, adding each entry into its slot in CSR order, so its tiles come out
//! in (block row, block column) order by construction. Every builder at every
//! `r, c ∈ {1, 2, 3, 4}` and both index widths must equal it bit for bit
//! (`to_bits`), and so must `estimate_all_shapes`, `estimate_fill` and the
//! stable `CooMatrix::sort`/`sum_duplicates` (against a stable global sort).
//! `symmetrize` is held to a map that folds each entry onto the lower
//! triangle in insertion order: its output is the map's entries in
//! `(row, col)` order, each followed by its mirror, bit for bit. It is also
//! entry for entry the plain fold → `sum_duplicates` → mirror construction,
//! and so is its CSR before and after a diagonal built from each row's
//! off-diagonal sum.
//! The inputs are the cases a linear pass gets wrong first: duplicates whose
//! sum depends on their order, signed zeros and NaN payloads, empty rows and
//! matrices, ragged edges, the 16-bit column edge and a `SymBcsr` slab that
//! starts mid-matrix.

use spmv_multicore::prelude::*;
use spmv_multicore::spmv_core::blocking::register::{estimate_all_shapes, estimate_fill};
use spmv_multicore::spmv_core::formats::coo::Triplet;
use spmv_multicore::spmv_core::formats::{BcooMatrix, BcsrMatrix, IndexStorage, SymBcsr};
use spmv_multicore::spmv_matrices::symmetrize;
use spmv_testutil::random_coo;
use std::collections::BTreeMap;

const DIMS: [usize; 4] = [1, 2, 3, 4];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Reference tiling: `(block row, block col) -> r × c tile`, row-major.
struct Tiles {
    row_ptr: Vec<usize>,
    rows: Vec<usize>,
    cols: Vec<usize>,
    values: Vec<f64>,
}

impl Tiles {
    fn new(
        entries: impl Iterator<Item = (usize, usize, f64)>,
        nrows: usize,
        r: usize,
        c: usize,
    ) -> Tiles {
        let mut map: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
        for (i, j, v) in entries {
            map.entry((i / r, j / c))
                .or_insert_with(|| vec![0.0; r * c])[i % r * c + j % c] += v;
        }
        let mut row_ptr = vec![0; nrows.div_ceil(r) + 1];
        for &(br, _) in map.keys() {
            row_ptr[br + 1] += 1;
        }
        for b in 1..row_ptr.len() {
            row_ptr[b] += row_ptr[b - 1];
        }
        Tiles {
            row_ptr,
            rows: map.keys().map(|&(br, _)| br).collect(),
            cols: map.keys().map(|&(_, bc)| bc).collect(),
            values: map.into_values().flatten().collect(),
        }
    }

    fn occupied_block_rows(&self) -> usize {
        self.row_ptr.windows(2).filter(|w| w[1] > w[0]).count()
    }
}

fn check_bcsr<I: IndexStorage>(csr: &CsrMatrix, r: usize, c: usize, want: &Tiles, ctx: &str) {
    let got = BcsrMatrix::<I>::from_csr(csr, r, c);
    if !I::fits(csr.ncols().div_ceil(c)) {
        assert!(got.is_err(), "{ctx}: BCSR past its width");
        return;
    }
    let got = got.unwrap();
    let ptr: Vec<usize> = got.block_row_ptr().iter().map(|&p| p as usize).collect();
    assert_eq!(ptr, want.row_ptr, "{ctx}: BCSR block_row_ptr");
    let cols: Vec<usize> = got.block_col_idx().iter().map(|b| b.to_usize()).collect();
    assert_eq!(cols, want.cols, "{ctx}: BCSR block_col_idx");
    assert_eq!(
        bits(got.tile_values()),
        bits(&want.values),
        "{ctx}: BCSR tiles"
    );
    assert_eq!(got.nnz(), csr.nnz(), "{ctx}: BCSR nnz");
}

fn check_bcoo<I: IndexStorage>(csr: &CsrMatrix, r: usize, c: usize, want: &Tiles, ctx: &str) {
    let got = BcooMatrix::<I>::from_csr(csr, r, c);
    if !I::fits(csr.nrows().div_ceil(r)) || !I::fits(csr.ncols().div_ceil(c)) {
        assert!(got.is_err(), "{ctx}: BCOO past its width");
        return;
    }
    let got = got.unwrap();
    let n = got.num_blocks();
    let rows: Vec<usize> = (0..n).map(|t| got.block_row_coord(t)).collect();
    let cols: Vec<usize> = (0..n).map(|t| got.block_col_coord(t)).collect();
    assert_eq!(rows, want.rows, "{ctx}: BCOO rows at {}", I::NAME);
    assert_eq!(cols, want.cols, "{ctx}: BCOO cols at {}", I::NAME);
    assert_eq!(
        bits(got.tile_values()),
        bits(&want.values),
        "{ctx}: BCOO tiles"
    );
}

/// Every builder and estimate of `csr` at every shape.
fn check_general(csr: &CsrMatrix, name: &str) {
    let all = estimate_all_shapes(csr);
    assert_eq!(all.len(), DIMS.len() * DIMS.len(), "{name}");
    for (k, (r, c)) in DIMS
        .iter()
        .flat_map(|&r| DIMS.iter().map(move |&c| (r, c)))
        .enumerate()
    {
        let ctx = format!("{name} {r}x{c}");
        let want = Tiles::new(csr.iter(), csr.nrows(), r, c);
        check_bcsr::<u16>(csr, r, c, &want, &ctx);
        check_bcsr::<u32>(csr, r, c, &want, &ctx);
        check_bcoo::<u16>(csr, r, c, &want, &ctx);
        check_bcoo::<u32>(csr, r, c, &want, &ctx);

        let est = all[k];
        assert_eq!((est.r, est.c), (r, c), "{ctx}: estimate order");
        assert_eq!(est.tiles, want.cols.len(), "{ctx}: estimated tiles");
        assert_eq!(
            est.occupied_block_rows,
            want.occupied_block_rows(),
            "{ctx}: occupied block rows"
        );
        let fill = if csr.nnz() == 0 {
            1.0
        } else {
            want.values.len() as f64 / csr.nnz() as f64
        };
        assert_eq!(
            est.fill_ratio.to_bits(),
            fill.to_bits(),
            "{ctx}: fill ratio"
        );
        assert_eq!(estimate_fill(csr, r, c), est, "{ctx}: estimate_fill");
    }
}

/// `SymBcsr` over rows `row_offset..` of a square matrix whose slab is
/// `local`, at every shape and both widths.
fn check_slab(local: &CsrMatrix, row_offset: usize, name: &str) {
    for r in DIMS {
        for c in DIMS {
            let ctx = format!("{name} slab@{row_offset} {r}x{c}");
            check_sym::<u16>(local, row_offset, r, c, &ctx);
            check_sym::<u32>(local, row_offset, r, c, &ctx);
        }
    }
}

fn check_sym<I: IndexStorage>(local: &CsrMatrix, row_offset: usize, r: usize, c: usize, ctx: &str) {
    let lower = || local.iter().filter(move |&(i, j, _)| j < row_offset + i);
    let want = Tiles::new(lower(), local.nrows(), r, c);
    let mut diag = vec![0.0f64; local.nrows()];
    for (i, j, v) in local.iter() {
        if j == row_offset + i {
            diag[i] = v;
        }
    }
    let got = SymBcsr::<I>::from_slab_unchecked(local, row_offset, r, c);
    if !I::fits(local.ncols().div_ceil(c)) {
        assert!(got.is_err(), "{ctx}: SymBcsr past its width");
        return;
    }
    let got = got.unwrap();
    let ptr: Vec<usize> = got.block_row_ptr().iter().map(|&p| p as usize).collect();
    assert_eq!(ptr, want.row_ptr, "{ctx}: SymBcsr block_row_ptr");
    let cols: Vec<usize> = got.block_col_idx().iter().map(|b| b.to_usize()).collect();
    assert_eq!(cols, want.cols, "{ctx}: SymBcsr block_col_idx");
    assert_eq!(
        bits(got.tile_values()),
        bits(&want.values),
        "{ctx}: SymBcsr tiles"
    );
    assert_eq!(bits(got.diag()), bits(&diag), "{ctx}: SymBcsr diagonal");
    assert_eq!(got.lower_nnz(), lower().count(), "{ctx}: SymBcsr lower_nnz");
}

fn triplets(entries: &[Triplet]) -> Vec<(usize, usize, u64)> {
    entries
        .iter()
        .map(|t| (t.row, t.col, t.val.to_bits()))
        .collect()
}

/// `sort` is a stable `(row, col)` sort; `sum_duplicates` folds each run of
/// that order left to right; `CsrMatrix::from_coo` holds the same sums.
fn check_coo(coo: &CooMatrix, name: &str) {
    let mut stable = coo.entries().to_vec();
    stable.sort_by_key(|t| (t.row, t.col));
    let mut sorted = coo.clone();
    sorted.sort();
    assert_eq!(
        triplets(sorted.entries()),
        triplets(&stable),
        "{name}: sort"
    );

    let mut folded: Vec<Triplet> = Vec::new();
    for t in stable {
        match folded.last_mut() {
            Some(last) if (last.row, last.col) == (t.row, t.col) => last.val += t.val,
            _ => folded.push(t),
        }
    }
    let mut summed = coo.clone();
    summed.sum_duplicates();
    assert_eq!(
        triplets(summed.entries()),
        triplets(&folded),
        "{name}: sums"
    );

    let csr = CsrMatrix::from_coo(coo);
    let from_csr: Vec<(usize, usize, u64)> =
        csr.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect();
    assert_eq!(from_csr, triplets(&folded), "{name}: CSR from COO");
}

/// Values the linear passes must carry through untouched or add in order.
fn hostile(nrows: usize, ncols: usize, seed: u64) -> CooMatrix {
    let mut coo = random_coo(nrows, ncols, 3 * nrows, seed);
    let (last_r, last_c) = (nrows - 1, ncols - 1);
    // Order-dependent duplicates: (1e16 + 1) - 1e16 = 0, 1e16 - 1e16 + 1 = 1.
    for v in [1e16, 1.0, -1e16] {
        coo.push(0, last_c, v);
    }
    for v in [1.0, 1e16, -1e16] {
        coo.push(last_r, 0, v);
    }
    coo.push(last_r / 2, last_c / 2, 0.0);
    coo.push(last_r / 2, last_c / 3, -0.0);
    coo.push(last_r, last_c, f64::from_bits(0x7ff8_0000_0000_1234));
    coo.push(0, 0, f64::from_bits(0xfff0_0000_dead_beef));
    coo
}

/// A CSR matrix whose rows repeat columns (sorted, as `from_raw` admits):
/// a tile slot then adds several entries, and their order decides the sum.
fn repeated_columns() -> CsrMatrix {
    let nan = f64::from_bits(0x7ff8_0000_0000_0042);
    CsrMatrix::from_raw(
        5,
        6,
        vec![0, 4, 4, 7, 9, 10],
        vec![1, 1, 1, 4, 0, 5, 5, 2, 2, 3],
        vec![1e16, 1.0, -1e16, 2.0, -0.0, 1.0, 1e16, nan, 1.0, -0.0],
    )
    .unwrap()
}

/// Drop every entry of the rows in `rows` (empty rows for the builders).
fn without_rows(coo: &CooMatrix, rows: impl Fn(usize) -> bool) -> CooMatrix {
    let mut out = CooMatrix::new(coo.nrows(), coo.ncols());
    for t in coo.entries().iter().filter(|t| !rows(t.row)) {
        out.push(t.row, t.col, t.val);
    }
    out
}

#[test]
fn the_coo_merge_is_a_stable_sort_and_a_left_to_right_sum() {
    check_coo(&hostile(17, 23, 1), "hostile");
    check_coo(&random_coo(40, 7, 400, 2), "crowded");
    check_coo(&CooMatrix::new(0, 0), "empty 0x0");
    check_coo(&CooMatrix::new(5, 3), "no entries");
    check_coo(
        &CooMatrix::from_triplets(1, 1, [(0, 0, 1e16), (0, 0, 1.0), (0, 0, -1e16)]).unwrap(),
        "1x1 duplicates",
    );
    let mut order = CooMatrix::new(3, 70_000);
    for (i, j, v) in [
        (2, 69_999, 1.0),
        (0, 5, 1e16),
        (2, 69_999, 1e16),
        (0, 5, 1.0),
    ] {
        order.push(i, j, v);
    }
    order.push(2, 69_999, -1e16);
    order.push(0, 5, -1e16);
    check_coo(&order, "wide duplicates");
    // Rows long enough that an unstable sort would reorder equal columns.
    let long = (0..300).map(|k| {
        let v = [1e16, 1.0, -1e16, 0.25][k % 4] * (1.0 + k as f64);
        (k % 3, (k * 7) % 11, v)
    });
    check_coo(&CooMatrix::from_triplets(3, 11, long).unwrap(), "long rows");
}

#[test]
fn general_builders_and_estimates_equal_the_oracle() {
    let cases = [
        ("hostile 17x23", hostile(17, 23, 3)),
        ("hostile 30x30", hostile(30, 30, 4)),
        (
            "empty rows",
            without_rows(&hostile(21, 19, 5), |i| i % 3 != 1),
        ),
        ("no entries", CooMatrix::new(6, 9)),
        ("empty 0x0", CooMatrix::new(0, 0)),
        (
            "1x1",
            CooMatrix::from_triplets(1, 1, [(0, 0, 2.5), (0, 0, -0.0)]).unwrap(),
        ),
        (
            "1x1 negative zero",
            CooMatrix::from_triplets(1, 1, [(0, 0, -0.0)]).unwrap(),
        ),
    ];
    for (name, coo) in &cases {
        check_general(&CsrMatrix::from_coo(coo), name);
    }
    check_general(&repeated_columns(), "repeated columns");
}

#[test]
fn the_16_bit_column_edge_is_the_same_for_every_builder() {
    // 65,536 block columns fit u16 at c = 1; 65,537 do not.
    for ncols in [65_535, 65_536, 65_537] {
        let mut coo = hostile(9, ncols, ncols as u64);
        for (i, j) in [(1, ncols - 2), (3, ncols - 4), (8, 65_535 % ncols), (4, 0)] {
            coo.push(i, j, 0.5 + j as f64);
        }
        let csr = CsrMatrix::from_coo(&coo);
        check_general(&csr, &format!("{ncols} cols"));
        // A slab at the bottom of a square matrix this wide.
        let local = CsrMatrix::from_coo(&without_rows(&coo, |i| i > 6));
        let local = local.row_slice(0, 7);
        check_slab(&local, ncols - 7, &format!("{ncols} cols"));
    }
}

#[test]
fn symmetric_slabs_equal_the_oracle() {
    // Entries on, below and above the global diagonal, duplicates included,
    // in slabs that start at 0 and mid-matrix with a ragged last block row.
    let n = 31;
    let mut coo = hostile(n, n, 7);
    for i in 0..n {
        coo.push(i, i, 1.0 + i as f64);
        coo.push(i, i / 2, -(i as f64));
    }
    let full = CsrMatrix::from_coo(&coo);
    for (start, end) in [(0, n), (0, 10), (7, 18), (13, 31), (29, 31), (30, 31)] {
        let local = full.row_slice(start, end);
        check_slab(&local, start, &format!("rows {start}..{end}"));
        let sparse = CsrMatrix::from_coo(&without_rows(&local.to_coo(), |i| i % 4 == 1));
        check_slab(&sparse, start, &format!("rows {start}..{end}, empty rows"));
    }
    check_slab(&repeated_columns(), 1, "repeated columns");
    check_slab(&CsrMatrix::from_coo(&CooMatrix::new(0, 5)), 5, "no rows");
    check_slab(
        &CsrMatrix::from_coo(&CooMatrix::from_triplets(1, 1, [(0, 0, -0.0)]).unwrap()),
        0,
        "1x1",
    );
}

/// The plain symmetrization: fold onto the lower triangle, `sum_duplicates`,
/// then push each entry followed by its mirror.
fn fold_sum_mirror(coo: &CooMatrix) -> CooMatrix {
    let mut folded = CooMatrix::new(coo.nrows(), coo.ncols());
    for t in coo.entries() {
        folded.push(t.row.max(t.col), t.row.min(t.col), t.val);
    }
    folded.sum_duplicates();
    let mut sym = CooMatrix::new(coo.nrows(), coo.ncols());
    for t in folded.entries() {
        sym.push(t.row, t.col, t.val);
        if t.row != t.col {
            sym.push(t.col, t.row, t.val);
        }
    }
    sym
}

/// A diagonal of `1.02 ×` each row's off-diagonal absolute sum, taken in
/// entry order (1.0 for a row with none), over the nonzero off-diagonals.
fn with_dominant_diagonal(sym: &CooMatrix) -> CooMatrix {
    let n = sym.nrows();
    let mut sums = vec![0.0f64; n];
    let mut out = CooMatrix::new(n, n);
    for t in sym.entries() {
        if t.row != t.col && t.val != 0.0 {
            sums[t.row] += t.val.abs();
            out.push(t.row, t.col, t.val);
        }
    }
    for (i, sum) in sums.into_iter().enumerate() {
        out.push(i, i, if sum > 0.0 { 1.02 * sum } else { 1.0 });
    }
    out
}

fn csr_bits(coo: &CooMatrix) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
    let csr = CsrMatrix::from_coo(coo);
    let values = bits(csr.values());
    (csr.row_ptr().to_vec(), csr.col_idx().to_vec(), values)
}

fn check_symmetrize(coo: &CooMatrix, name: &str) {
    let mut lower: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for t in coo.entries() {
        let slot = (t.row.max(t.col), t.row.min(t.col));
        lower
            .entry(slot)
            .and_modify(|v| *v += t.val)
            .or_insert(t.val);
    }
    let mut want = Vec::new();
    for (&(i, j), &v) in &lower {
        want.push((i, j, v.to_bits()));
        if i != j {
            want.push((j, i, v.to_bits()));
        }
    }

    let got = symmetrize(coo);
    assert_eq!(
        (got.nrows(), got.ncols()),
        (coo.nrows(), coo.ncols()),
        "{name}"
    );
    assert_eq!(
        triplets(got.entries()),
        want,
        "{name}: the lower triangle in (row, col) order, each entry and its mirror"
    );
    let plain = fold_sum_mirror(coo);
    assert_eq!(
        triplets(got.entries()),
        triplets(plain.entries()),
        "{name}: the plain construction's entries"
    );
    assert_eq!(csr_bits(&got), csr_bits(&plain), "{name}: CSR");
    assert_eq!(
        csr_bits(&with_dominant_diagonal(&got)),
        csr_bits(&with_dominant_diagonal(&plain)),
        "{name}: CSR after the diagonal step"
    );
}

#[test]
fn symmetrize_equals_the_fold_and_mirror_oracle() {
    for matrix in SuiteMatrix::all()
        .into_iter()
        .filter(SuiteMatrix::is_symmetric_in_table3)
    {
        check_symmetrize(&matrix.generate(Scale::Tiny), matrix.id());
    }
    // Order-dependent collisions from both triangles and the diagonal, signed
    // and explicit zeros, NaN payloads, and (by `without_rows`) empty rows.
    let mut coo = hostile(19, 19, 11);
    for (i, j, v) in [(2, 9, 1e16), (9, 2, 1.0), (2, 9, -1e16), (9, 2, 0.5)] {
        coo.push(i, j, v);
    }
    for (i, j, v) in [(4, 4, 1e16), (4, 4, 1.0), (4, 4, -1e16)] {
        coo.push(i, j, v);
    }
    for (i, j, v) in [
        (7, 3, -0.0),
        (3, 7, -0.0),
        (8, 1, -0.0),
        (1, 8, 0.0),
        (6, 5, 0.0),
    ] {
        coo.push(i, j, v);
    }
    check_symmetrize(&coo, "hostile");
    check_symmetrize(&without_rows(&coo, |i| i % 5 == 2), "hostile, empty rows");
    let no_col_3: Vec<_> = coo
        .entries()
        .iter()
        .filter(|t| t.row != 3 && t.col != 3)
        .map(|t| (t.row, t.col, t.val))
        .collect();
    let no_col_3 = CooMatrix::from_triplets(19, 19, no_col_3).unwrap();
    check_symmetrize(&no_col_3, "an empty row and column");
    check_symmetrize(&random_coo(30, 30, 900, 12), "crowded");
    check_symmetrize(
        &CooMatrix::from_triplets(1, 1, [(0, 0, 1e16), (0, 0, 1.0), (0, 0, -1e16)]).unwrap(),
        "1x1 duplicates",
    );
    check_symmetrize(&CooMatrix::new(1, 1), "1x1 empty");
    check_symmetrize(&CooMatrix::new(0, 0), "empty 0x0");
}
