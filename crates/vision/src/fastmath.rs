//! Deterministic polynomial kernels for the counter-based noise field.
//!
//! The fast render path needs `ln`, `sin` and `cos` per Box–Muller pair.
//! Calling libm would tie frame bytes to the host's math library; these
//! pure-arithmetic kernels (exponent split + atanh series for `ln`,
//! quarter-phase Taylor polynomials for sin/cos) make the fast path a
//! function of IEEE-754 arithmetic alone, so frames are bit-identical
//! across platforms as well as across tile sizes and thread counts.
//!
//! Accuracy: |relative error| < 1e-10 for `ln` on (0, 1], absolute error
//! < 1e-7 for the phase functions — noise is applied at sigma ~6e-3 in
//! linear light, so these errors sit far below the 8-bit quantization
//! floor (the noise field stays statistically indistinguishable from an
//! exact Box–Muller transform; the detector-accuracy gate enforces it).
//!
//! [`grid_index`] is the exact float-to-index conversion the renderer's
//! well lookup and the Hough vote share.

use std::f64::consts::{FRAC_PI_2, LN_2, SQRT_2};

/// Natural log for `x` in (0, 1] (normal, finite).
#[inline]
pub(crate) fn fast_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x <= 1.0);
    let bits = x.to_bits();
    let mut e = ((bits >> 52) as i64 - 1023) as f64;
    // Mantissa in [1, 2), then renormalized into (1/sqrt2, sqrt2] so the
    // atanh argument stays small.
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    if m > SQRT_2 {
        m *= 0.5;
        e += 1.0;
    }
    // ln m = 2 atanh(t), t = (m-1)/(m+1), |t| <= 0.1716.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let series = 2.0
        * t
        * (1.0
            + t2 * (1.0 / 3.0
                + t2 * (1.0 / 5.0 + t2 * (1.0 / 7.0 + t2 * (1.0 / 9.0 + t2 * (1.0 / 11.0))))));
    e * LN_2 + series
}

/// `(sin, cos)` of `2π·u` for `u` in [0, 1).
///
/// The quadrant selection is written as data-dependent selects rather than
/// a `match` so the whole function if-converts and stays vectorizable
/// inside the renderer's noise passes.
#[inline]
pub(crate) fn fast_sincos_2pi(u: f64) -> (f64, f64) {
    debug_assert!((0.0..1.0).contains(&u));
    // Quarter-phase reduction: 2πu = (π/2)(q + f), q in 0..4, f in [0, 1).
    let s = u * 4.0;
    // u < 1 so q in 0..=3, where `as i32` and `as u32` agree and `i32`
    // converts in vector registers.
    let q = s as i32;
    let f = s - q as f64;
    let (sp, cp) = quarter_sincos(f);
    // q=0: ( sp,  cp)   q=1: ( cp, -sp)   q=2: (-sp, -cp)   q=3: (-cp, sp)
    let swap = q & 1 == 1;
    let (a, b) = if swap { (cp, sp) } else { (sp, cp) };
    let sin_sign = if q >= 2 { -1.0 } else { 1.0 };
    let cos_sign = if q == 1 || q == 2 { -1.0 } else { 1.0 };
    (a * sin_sign, b * cos_sign)
}

/// `(sin, cos)` of `(π/2)·f` for `f` in [0, 1): Taylor polynomials in `f²`.
#[inline]
fn quarter_sincos(f: f64) -> (f64, f64) {
    const A: f64 = FRAC_PI_2;
    const A2: f64 = A * A;
    // sin(af) = af · Σ (-a²f²)^k / (2k+1)!   truncated past (af)^13
    const S1: f64 = A;
    const S3: f64 = -A * A2 / 6.0;
    const S5: f64 = A * A2 * A2 / 120.0;
    const S7: f64 = -A * A2 * A2 * A2 / 5040.0;
    const S9: f64 = A * A2 * A2 * A2 * A2 / 362_880.0;
    const S11: f64 = -A * A2 * A2 * A2 * A2 * A2 / 39_916_800.0;
    const S13: f64 = A * A2 * A2 * A2 * A2 * A2 * A2 / 6_227_020_800.0;
    // cos(af) = Σ (-a²f²)^k / (2k)!          truncated past (af)^14
    const C0: f64 = 1.0;
    const C2: f64 = -A2 / 2.0;
    const C4: f64 = A2 * A2 / 24.0;
    const C6: f64 = -A2 * A2 * A2 / 720.0;
    const C8: f64 = A2 * A2 * A2 * A2 / 40_320.0;
    const C10: f64 = -A2 * A2 * A2 * A2 * A2 / 3_628_800.0;
    const C12: f64 = A2 * A2 * A2 * A2 * A2 * A2 / 479_001_600.0;
    const C14: f64 = -A2 * A2 * A2 * A2 * A2 * A2 * A2 / 87_178_291_200.0;

    let f2 = f * f;
    let sp = f * (S1 + f2 * (S3 + f2 * (S5 + f2 * (S7 + f2 * (S9 + f2 * (S11 + f2 * S13))))));
    let cp =
        C0 + f2 * (C2 + f2 * (C4 + f2 * (C6 + f2 * (C8 + f2 * (C10 + f2 * (C12 + f2 * C14))))));
    (sp, cp)
}

/// An integer-valued `v` in `[0, 2^52)` as an index: the integer sits in
/// the low mantissa bits of `v + 2^52`. Same value as `v as usize`, without
/// the per-value saturating-conversion sequence that cast compiles to.
#[inline]
pub(crate) fn grid_index(v: f64) -> usize {
    debug_assert!((0.0..TWO_POW_52).contains(&v) && v.fract() == 0.0);
    ((v + TWO_POW_52).to_bits() - TWO_POW_52.to_bits()) as usize
}

const TWO_POW_52: f64 = (1u64 << 52) as f64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_tracks_std_over_the_unit_interval() {
        // Includes the Box–Muller extremes: the smallest uniform the
        // counter stream can produce (2^-53) and exactly 1.0.
        let mut worst = 0.0f64;
        for i in 1..=100_000u64 {
            let x = i as f64 / 100_000.0;
            let rel = (fast_ln(x) - x.ln()).abs() / x.ln().abs().max(1e-300);
            worst = worst.max(rel);
        }
        assert!(worst < 1e-10, "worst relative error {worst:e}");
        let tiny = (1.0f64 / (1u64 << 53) as f64).ln();
        assert!((fast_ln(1.0 / (1u64 << 53) as f64) - tiny).abs() / tiny.abs() < 1e-12);
        assert_eq!(fast_ln(1.0), 0.0);
        assert_eq!(fast_ln(0.5), -LN_2);
    }

    #[test]
    fn sincos_tracks_std_over_the_phase_circle() {
        let mut worst = 0.0f64;
        for i in 0..400_000u64 {
            let u = i as f64 / 400_000.0;
            let (s, c) = fast_sincos_2pi(u);
            let a = 2.0 * std::f64::consts::PI * u;
            worst = worst.max((s - a.sin()).abs()).max((c - a.cos()).abs());
        }
        assert!(worst < 1e-7, "worst absolute error {worst:e}");
        // Exact quadrant corners.
        assert_eq!(fast_sincos_2pi(0.0), (0.0, 1.0));
        assert_eq!(fast_sincos_2pi(0.25), (1.0, -0.0));
        assert_eq!(fast_sincos_2pi(0.5), (-0.0, -1.0));
        assert_eq!(fast_sincos_2pi(0.75), (-1.0, 0.0));
    }

    #[test]
    fn grid_index_is_the_integer_cast() {
        for v in [0.0, 1.0, 7.0, 11.0, 639.0, 4095.0, 1e9, 4_503_599_627_370_495.0] {
            assert_eq!(grid_index(v), v as usize, "{v}");
        }
    }

    #[test]
    fn unit_circle_identity_holds() {
        for i in 0..10_000u64 {
            let u = (i as f64 + 0.37) / 10_000.0;
            let (s, c) = fast_sincos_2pi(u);
            assert!((s * s + c * c - 1.0).abs() < 1e-7, "u = {u}");
        }
    }
}
