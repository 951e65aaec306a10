//! Free functions on `&[f64]` vectors.
//!
//! These are the hot inner kernels of the eigensolvers, kept as plain slice
//! functions so the compiler can vectorize them and callers avoid any
//! wrapper-type overhead.
//!
//! # Lane-unrolled reductions and the canonical order
//!
//! Reductions ([`dot`], [`norm2`]) run [`LANES`]-wide: lane `l` accumulates
//! the terms whose element index is `≡ l (mod LANES)`, in ascending index
//! order, and the lane partials are combined by the **fixed reduction tree**
//! in [`reduce_lanes`]. That order — not "whatever the optimizer picked" —
//! is the canonical reduction order of this crate, the same contract the
//! PR 4 chunk merges established one level up: the schedule is a pure
//! function of the input length, so the result is bit-identical on every
//! machine and at every thread-pool width. Inputs shorter than [`LANES`]
//! reduce by the plain left-to-right fold ([`dot_seq`]), which keeps the
//! short vectors that dominate road-graph CSR rows (2–6 stored entries)
//! bit-stable against the historical scalar kernels.
//!
//! The audit's `float-determinism` rule blesses these helpers as the one
//! sanctioned fixed-order reduction primitive (see
//! `crates/audit/src/rules.rs::FLOAT_REDUCE_EXEMPT_FILES`); every other hot
//! kernel is expected to route through them or use an explicit indexed loop.

/// Accumulator-lane width of the unrolled reductions. Eight 64-bit lanes
/// fill two 4-wide AVX2 registers (or four 2-wide NEON registers) and give
/// the out-of-order core enough independent add chains to hide FMA latency;
/// benchmarks against a 4-lane variant are recorded in DESIGN.md ("SIMD &
/// memory layout").
pub const LANES: usize = 8;

/// Combines [`LANES`] lane partials with the blessed fixed reduction tree
/// `((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))`.
///
/// The tree shape is part of the bit-identity contract: every lane-unrolled
/// reduction in the workspace must combine its partials exactly this way so
/// results stay reproducible across kernels and refactors.
#[inline]
pub fn reduce_lanes(acc: &[f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Plain left-to-right scalar dot product — the historical kernel, kept as
/// the reference arm for the scalar-vs-lanes differential tests and
/// benchmarks, and as the short-input path of [`dot`].
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot_seq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Explicit left-to-right loop: the accumulation order is part of the
    // bit-identity contract (and what the float-determinism audit checks),
    // not an iterator implementation detail.
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Dot product of two equal-length slices in the canonical lane order (see
/// the module docs): [`LANES`] interleaved accumulator chains combined by
/// the fixed reduction tree, with a left-to-right fold for inputs shorter
/// than [`LANES`].
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < LANES {
        return dot_seq(a, b);
    }
    let mut acc = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    // Tail elements at global index m·LANES + l belong to lane l, appended
    // after the full blocks — exactly the strided canonical order.
    for (l, (x, y)) in chunks_a
        .remainder()
        .iter()
        .zip(chunks_b.remainder())
        .enumerate()
    {
        acc[l] += x * y;
    }
    reduce_lanes(&acc)
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean norm in the historical left-to-right order ([`dot_seq`]).
/// Reference arm for the scalar-vs-lanes differentials.
#[inline]
pub fn norm2_seq(a: &[f64]) -> f64 {
    dot_seq(a, a).sqrt()
}

/// `y += alpha * x`.
///
/// Elementwise — every output bit is independent of the iteration schedule,
/// so the [`LANES`]-wide unroll below is trivially bit-identical to the
/// scalar loop; it exists purely to hand the vectorizer full blocks.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let mut yc = y.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (yb, xb) in yc.by_ref().zip(xc.by_ref()) {
        for l in 0..LANES {
            yb[l] += alpha * xb[l];
        }
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` in place (elementwise; schedule-independent like [`axpy`]).
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    let mut xc = x.chunks_exact_mut(LANES);
    for xb in xc.by_ref() {
        for xi in xb {
            *xi *= alpha;
        }
    }
    for xi in xc.into_remainder() {
        *xi *= alpha;
    }
}

/// `out[i] = s[i] * x[i]` — the elementwise diagonal-scaling kernel of the
/// normalized-cut operator (schedule-independent like [`axpy`]).
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn mul_into(s: &[f64], x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(s.len(), x.len());
    debug_assert_eq!(s.len(), out.len());
    let mut oc = out.chunks_exact_mut(LANES);
    let mut sc = s.chunks_exact(LANES);
    let mut xc = x.chunks_exact(LANES);
    for ((ob, sb), xb) in oc.by_ref().zip(sc.by_ref()).zip(xc.by_ref()) {
        for l in 0..LANES {
            ob[l] = sb[l] * xb[l];
        }
    }
    for ((oi, si), xi) in oc
        .into_remainder()
        .iter_mut()
        .zip(sc.remainder())
        .zip(xc.remainder())
    {
        *oi = si * xi;
    }
}

/// `y[i] = sign * s[i] * y[i] + shift * x[i]` — the output-side combine of
/// the diag-scaled operator (elementwise; schedule-independent like
/// [`axpy`]).
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn diag_combine(sign: f64, s: &[f64], shift: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(s.len(), x.len());
    debug_assert_eq!(s.len(), y.len());
    let mut yc = y.chunks_exact_mut(LANES);
    let mut sc = s.chunks_exact(LANES);
    let mut xc = x.chunks_exact(LANES);
    for ((yb, sb), xb) in yc.by_ref().zip(sc.by_ref()).zip(xc.by_ref()) {
        for l in 0..LANES {
            yb[l] = sign * sb[l] * yb[l] + shift * xb[l];
        }
    }
    for ((yi, si), xi) in yc
        .into_remainder()
        .iter_mut()
        .zip(sc.remainder())
        .zip(xc.remainder())
    {
        *yi = sign * si * *yi + shift * xi;
    }
}

/// Normalizes `x` to unit L2 norm in place and returns the original norm.
///
/// A zero vector is left untouched and `0.0` is returned.
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Sum of all entries.
#[inline]
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Arithmetic mean; `0.0` for an empty slice.
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        sum(a) / a.len() as f64
    }
}

/// Population variance around `mu`; `0.0` for an empty slice.
#[inline]
pub fn variance_around(a: &[f64], mu: f64) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    a.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / a.len() as f64
}

/// `sqrt(a^2 + b^2)` without undue overflow or underflow.
#[inline]
pub fn hypot(a: f64, b: f64) -> f64 {
    a.hypot(b)
}

/// True if any entry is NaN or infinite.
#[inline]
pub fn has_non_finite(a: &[f64]) -> bool {
    a.iter().any(|x| !x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
    }

    /// Scalar model of the documented canonical lane order, used to pin the
    /// optimized kernel to its spec rather than to itself.
    fn dot_lane_model(a: &[f64], b: &[f64]) -> f64 {
        if a.len() < LANES {
            return dot_seq(a, b);
        }
        let mut acc = [0.0f64; LANES];
        for i in 0..a.len() {
            acc[i % LANES] += a[i] * b[i];
        }
        reduce_lanes(&acc)
    }

    #[test]
    fn dot_matches_canonical_model_at_every_remainder() {
        for n in 0..=4 * LANES {
            let a: Vec<f64> = (0..n).map(|i| 0.3 + 1.7 * i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.1 - 0.9 * i as f64).collect();
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_lane_model(&a, &b).to_bits(),
                "length {n}"
            );
        }
    }

    #[test]
    fn short_dot_matches_sequential_fold() {
        for n in 0..LANES {
            let a: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 0.5).collect();
            assert_eq!(dot(&a, &a).to_bits(), dot_seq(&a, &a).to_bits());
            assert_eq!(norm2(&a).to_bits(), norm2_seq(&a).to_bits());
        }
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);
    }

    #[test]
    fn elementwise_kernels_cover_blocks_and_remainders() {
        for n in [0, 1, LANES - 1, LANES, LANES + 3, 3 * LANES + 5] {
            let x: Vec<f64> = (0..n).map(|i| 0.25 * i as f64 - 1.0).collect();
            let mut y: Vec<f64> = (0..n).map(|i| 2.0 - 0.5 * i as f64).collect();
            let expect: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| yi + 1.5 * xi).collect();
            axpy(1.5, &x, &mut y);
            assert_eq!(y, expect);

            let mut z = x.clone();
            scale(-2.0, &mut z);
            let expect: Vec<f64> = x.iter().map(|xi| xi * -2.0).collect();
            assert_eq!(z, expect);

            let mut out = vec![0.0; n];
            mul_into(&x, &y, &mut out);
            let expect: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| xi * yi).collect();
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn normalize_unit_norm() {
        let mut x = [3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_untouched() {
        let mut x = [0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, [0.0, 0.0]);
    }

    #[test]
    fn mean_and_variance() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&a), 2.5);
        assert!((variance_around(&a, 2.5) - 1.25).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance_around(&[], 0.0), 0.0);
    }

    #[test]
    fn non_finite_detection() {
        assert!(!has_non_finite(&[1.0, 2.0]));
        assert!(has_non_finite(&[1.0, f64::NAN]));
        assert!(has_non_finite(&[f64::INFINITY]));
    }
}
