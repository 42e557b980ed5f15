//! Fused BLAS-1 micro-kernels for the iterative solvers, plus the deterministic
//! scalar tree reduction.
//!
//! ## Bit-stability contract
//!
//! Every reducing kernel here (dot products, the fused CG update) uses a **fixed
//! four-lane accumulator schedule**: lane `j` accumulates elements `j, j+4, j+8, …`
//! with plain multiply-then-add (no FMA contraction), the lanes combine as
//! `(l0 + l1) + (l2 + l3)`, and a sequential tail handles the final `len % 4`
//! elements. The AVX2 and NEON variants implement *exactly* that schedule with
//! `mul`/`add` instructions (deliberately not FMA), so scalar and SIMD builds are
//! **bit-identical** — unlike the SpMV kernels, where FMA contraction makes the
//! vector leg a different accumulation class, the solver's vector arithmetic never
//! changes with the `SPMV_SIMD` knob. Element-wise kernels (`xpby`, `scale_from`)
//! are trivially order-independent per element.
//!
//! [`tree_sum`] folds per-thread partial scalars in the same pairwise order as
//! [`crate::tuning::fold_rows`] folds per-thread vectors, so every worker (and
//! the serial reference) derives the same `f64` from the same slots without any
//! extra communication.

use crate::kernels::simd::{detect, SimdLevel};

/// Dot product with the fixed four-lane accumulator schedule.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    match detect() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { dot_avx2(a, b) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { dot_neon(a, b) },
        _ => dot_scalar(a, b),
    }
}

/// The fused CG interior update, one pass over the slice:
/// `x += alpha·p`, `r -= alpha·w`, returning the partial `r·r` of the updated
/// residual slice under the same four-lane schedule as [`dot`].
pub fn cg_update(alpha: f64, p: &[f64], w: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    let n = p.len();
    assert!(
        w.len() == n && x.len() == n && r.len() == n,
        "cg_update operands must have equal length"
    );
    match detect() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { cg_update_avx2(alpha, p, w, x, r) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { cg_update_neon(alpha, p, w, x, r) },
        _ => cg_update_scalar(alpha, p, w, x, r),
    }
}

/// The CG direction update `p ← x + beta·p` (element-wise).
pub fn xpby(x: &[f64], beta: f64, p: &mut [f64]) {
    assert_eq!(x.len(), p.len(), "xpby operands must have equal length");
    for (pi, xi) in p.iter_mut().zip(x.iter()) {
        *pi = xi + beta * *pi;
    }
}

/// `dst ← s·src` (element-wise; the power-iteration normalization step).
pub fn scale_from(src: &[f64], s: f64, dst: &mut [f64]) {
    assert_eq!(
        src.len(),
        dst.len(),
        "scale operands must have equal length"
    );
    for (di, si) in dst.iter_mut().zip(src.iter()) {
        *di = si * s;
    }
}

/// Deterministic pairwise tree sum over `count` per-thread partial scalars,
/// `at(i)` being partial `i`.
///
/// Folds in exactly the order [`crate::tuning::fold_rows`] folds per-thread
/// vectors (stride 1, 2, 4, …; partial `i` with `i % (2·stride) == 0` absorbs
/// partial `i + stride` when it exists), expressed allocation-free as a
/// recursion over the accessor, so the serial references fold a slice and
/// every engine worker folds the shared slots locally after a barrier — and
/// all arrive at the same scalar.
pub fn tree_sum(count: usize, at: impl Fn(usize) -> f64) -> f64 {
    fn rec(at: &impl Fn(usize) -> f64, count: usize, i: usize, span: usize) -> f64 {
        if span == 1 {
            return at(i);
        }
        let half = span / 2;
        let left = rec(at, count, i, half);
        if i + half < count {
            left + rec(at, count, i + half, half)
        } else {
            left
        }
    }
    match count {
        0 => 0.0,
        n => rec(&at, n, 0, n.next_power_of_two()),
    }
}

fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let main = n - n % 4;
    let (mut l0, mut l1, mut l2, mut l3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut i = 0;
    while i < main {
        l0 += a[i] * b[i];
        l1 += a[i + 1] * b[i + 1];
        l2 += a[i + 2] * b[i + 2];
        l3 += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut tail = 0.0f64;
    while i < n {
        tail += a[i] * b[i];
        i += 1;
    }
    ((l0 + l1) + (l2 + l3)) + tail
}

fn cg_update_scalar(alpha: f64, p: &[f64], w: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    let n = p.len();
    let main = n - n % 4;
    let (mut l0, mut l1, mut l2, mut l3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut i = 0;
    while i < main {
        x[i] += alpha * p[i];
        x[i + 1] += alpha * p[i + 1];
        x[i + 2] += alpha * p[i + 2];
        x[i + 3] += alpha * p[i + 3];
        r[i] -= alpha * w[i];
        r[i + 1] -= alpha * w[i + 1];
        r[i + 2] -= alpha * w[i + 2];
        r[i + 3] -= alpha * w[i + 3];
        l0 += r[i] * r[i];
        l1 += r[i + 1] * r[i + 1];
        l2 += r[i + 2] * r[i + 2];
        l3 += r[i + 3] * r[i + 3];
        i += 4;
    }
    let mut tail = 0.0f64;
    while i < n {
        x[i] += alpha * p[i];
        r[i] -= alpha * w[i];
        tail += r[i] * r[i];
        i += 1;
    }
    ((l0 + l1) + (l2 + l3)) + tail
}

/// AVX2 dot with the scalar schedule: one 4-lane vector accumulator, `mul`+`add`
/// (no FMA, so each lane matches the scalar lane bit-for-bit), lanes combined in
/// the scalar order, sequential tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len();
    let main = n - n % 4;
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i < main {
        let va = _mm256_loadu_pd(a.as_ptr().add(i));
        let vb = _mm256_loadu_pd(b.as_ptr().add(i));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut tail = 0.0f64;
    while i < n {
        tail += a[i] * b[i];
        i += 1;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cg_update_avx2(alpha: f64, p: &[f64], w: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = p.len();
    let main = n - n % 4;
    let va = _mm256_set1_pd(alpha);
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i < main {
        let vp = _mm256_loadu_pd(p.as_ptr().add(i));
        let vw = _mm256_loadu_pd(w.as_ptr().add(i));
        let vx = _mm256_loadu_pd(x.as_ptr().add(i));
        let vr = _mm256_loadu_pd(r.as_ptr().add(i));
        let nx = _mm256_add_pd(vx, _mm256_mul_pd(va, vp));
        let nr = _mm256_sub_pd(vr, _mm256_mul_pd(va, vw));
        _mm256_storeu_pd(x.as_mut_ptr().add(i), nx);
        _mm256_storeu_pd(r.as_mut_ptr().add(i), nr);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(nr, nr));
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut tail = 0.0f64;
    while i < n {
        x[i] += alpha * p[i];
        r[i] -= alpha * w[i];
        tail += r[i] * r[i];
        i += 1;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// NEON dot with the scalar schedule: two 2-lane accumulators standing in for
/// lanes {0,1} and {2,3} of the four-lane schedule, `mul`+`add` (no FMA).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot_neon(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::aarch64::*;
    let n = a.len();
    let main = n - n % 4;
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    let mut i = 0;
    while i < main {
        let a01 = vld1q_f64(a.as_ptr().add(i));
        let a23 = vld1q_f64(a.as_ptr().add(i + 2));
        let b01 = vld1q_f64(b.as_ptr().add(i));
        let b23 = vld1q_f64(b.as_ptr().add(i + 2));
        acc01 = vaddq_f64(acc01, vmulq_f64(a01, b01));
        acc23 = vaddq_f64(acc23, vmulq_f64(a23, b23));
        i += 4;
    }
    let mut tail = 0.0f64;
    while i < n {
        tail += a[i] * b[i];
        i += 1;
    }
    let l01 = vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1);
    let l23 = vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1);
    (l01 + l23) + tail
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn cg_update_neon(alpha: f64, p: &[f64], w: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    use std::arch::aarch64::*;
    let n = p.len();
    let main = n - n % 4;
    let va = vdupq_n_f64(alpha);
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    let mut i = 0;
    while i < main {
        let p01 = vld1q_f64(p.as_ptr().add(i));
        let p23 = vld1q_f64(p.as_ptr().add(i + 2));
        let w01 = vld1q_f64(w.as_ptr().add(i));
        let w23 = vld1q_f64(w.as_ptr().add(i + 2));
        let x01 = vaddq_f64(vld1q_f64(x.as_ptr().add(i)), vmulq_f64(va, p01));
        let x23 = vaddq_f64(vld1q_f64(x.as_ptr().add(i + 2)), vmulq_f64(va, p23));
        let r01 = vsubq_f64(vld1q_f64(r.as_ptr().add(i)), vmulq_f64(va, w01));
        let r23 = vsubq_f64(vld1q_f64(r.as_ptr().add(i + 2)), vmulq_f64(va, w23));
        vst1q_f64(x.as_mut_ptr().add(i), x01);
        vst1q_f64(x.as_mut_ptr().add(i + 2), x23);
        vst1q_f64(r.as_mut_ptr().add(i), r01);
        vst1q_f64(r.as_mut_ptr().add(i + 2), r23);
        acc01 = vaddq_f64(acc01, vmulq_f64(r01, r01));
        acc23 = vaddq_f64(acc23, vmulq_f64(r23, r23));
        i += 4;
    }
    let mut tail = 0.0f64;
    while i < n {
        x[i] += alpha * p[i];
        r[i] -= alpha * w[i];
        tail += r[i] * r[i];
        i += 1;
    }
    let l01 = vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1);
    let l23 = vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1);
    (l01 + l23) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * seed + 0.37).sin()).collect()
    }

    #[test]
    fn dot_matches_scalar_schedule_bitwise() {
        for n in [0, 1, 3, 4, 7, 8, 33, 257] {
            let a = series(n, 0.11);
            let b = series(n, 0.23);
            // Whatever leg `dot` dispatches to must equal the scalar schedule
            // bit-for-bit — the contract that keeps SPMV_SIMD out of the
            // solver's accumulation class.
            assert_eq!(dot(&a, &b).to_bits(), dot_scalar(&a, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn cg_update_matches_scalar_schedule_bitwise() {
        for n in [0, 1, 5, 16, 129] {
            let p = series(n, 0.13);
            let w = series(n, 0.29);
            let (mut x1, mut r1) = (series(n, 0.41), series(n, 0.53));
            let (mut x2, mut r2) = (x1.clone(), r1.clone());
            let d1 = cg_update(0.7321, &p, &w, &mut x1, &mut r1);
            let d2 = cg_update_scalar(0.7321, &p, &w, &mut x2, &mut r2);
            assert_eq!(d1.to_bits(), d2.to_bits(), "n={n}");
            for i in 0..n {
                assert_eq!(x1[i].to_bits(), x2[i].to_bits());
                assert_eq!(r1[i].to_bits(), r2[i].to_bits());
            }
        }
    }

    #[test]
    fn cg_update_is_the_fused_axpy_axpy_dot() {
        let n = 37;
        let p = series(n, 0.17);
        let w = series(n, 0.19);
        let (mut x, mut r) = (series(n, 0.31), series(n, 0.43));
        let (mut x_ref, mut r_ref) = (x.clone(), r.clone());
        let rr = cg_update(1.25, &p, &w, &mut x, &mut r);
        for i in 0..n {
            x_ref[i] += 1.25 * p[i];
            r_ref[i] -= 1.25 * w[i];
        }
        assert_eq!(x, x_ref);
        assert_eq!(r, r_ref);
        assert!((rr - r_ref.iter().map(|v| v * v).sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn tree_sum_matches_reduce_tree_schedule() {
        // Folding scalars must follow the exact pairwise order reduce_tree
        // applies to length-1 per-thread vectors.
        for count in 1..=17 {
            let slots: Vec<f64> = (0..count).map(|i| ((i as f64) * 0.77).tan()).collect();
            let mut scratch = slots.clone();
            crate::tuning::prepared::reduce_tree(&mut scratch, 1, count);
            assert_eq!(
                tree_sum(count, |i| slots[i]).to_bits(),
                scratch[0].to_bits(),
                "count={count}"
            );
        }
        assert_eq!(tree_sum(0, |_| 1.0), 0.0);
    }

    #[test]
    fn elementwise_kernels() {
        let x = series(9, 0.21);
        let y = series(9, 0.33);
        let mut p = y.clone();
        xpby(&x, 0.5, &mut p);
        for i in 0..9 {
            assert_eq!(p[i], x[i] + 0.5 * y[i]);
        }
        let mut dst = vec![0.0; 9];
        scale_from(&x, 3.0, &mut dst);
        for i in 0..9 {
            assert_eq!(dst[i], x[i] * 3.0);
        }
    }
}
