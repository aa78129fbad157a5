//! Deterministic kernels for the counter-based noise field.
//!
//! The fast render path draws each Box–Muller pair from two words of a
//! 32-bit counter hash ([`noise_hash`]) and needs `ln`, `sqrt`, `sin` and
//! `cos` per pair. Calling libm would tie frame bytes to the host's math
//! library; these pure-arithmetic f32 kernels (exponent split + atanh
//! series for `ln`, eighth-turn Taylor polynomials for sin/cos) make the
//! fast path a function of IEEE-754 single-precision arithmetic alone, so
//! frames are bit-identical across platforms as well as across tile sizes
//! and thread counts. Everything is 32 bits wide, so the renderer's noise
//! passes run 8 lanes per AVX2 register: the hash's `u32` multiplies are
//! one `vpmulld` each, where a 64-bit multiply costs three `vpmuludq`.
//!
//! Accuracy: |relative error| < 3e-7 for [`ln_f32`] on (0, 1], absolute
//! error < 2e-7 for [`sincos_2pi_f32`]. Noise is applied at sigma ~6e-3
//! in linear light, so these errors sit far below the 8-bit quantization
//! floor; the sampler's statistics are pinned by a test in `render.rs` and
//! the detector-accuracy gate bounds its effect on readings.
//!
//! [`grid_index`] is the exact float-to-index conversion the renderer's
//! well lookup and the Hough vote share.

use std::f32::consts::{LN_2, SQRT_2};
use std::f64::consts::FRAC_PI_2;

/// Word `n` of the noise stream keyed by `key` (the two halves of a
/// frame seed): two xorshift-multiply rounds (the `lowbias32` mixers of
/// Wellons' hash-prospector), with one key half entering before each.
/// Each round is a bijection of `u32`, so distinct counters never collide
/// within a frame.
#[inline]
pub(crate) fn noise_hash(key: [u32; 2], n: u32) -> u32 {
    let mut x = n ^ key[0];
    x ^= x >> 16;
    x = x.wrapping_mul(0x21f0_aaad);
    x ^= x >> 15;
    x = x.wrapping_mul(0x735a_2d97);
    x ^= x >> 15;
    x ^= key[1];
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^ (x >> 16)
}

/// Natural log for `x` in (0, 1] (normal, finite).
#[inline]
pub(crate) fn ln_f32(x: f32) -> f32 {
    debug_assert!(x > 0.0 && x <= 1.0);
    let bits = x.to_bits();
    let mut e = ((bits >> 23) as i32 - 127) as f32;
    // Mantissa in [1, 2), then renormalized into (1/sqrt2, sqrt2] so the
    // atanh argument stays small.
    let mut m = f32::from_bits((bits & 0x007f_ffff) | 0x3f80_0000);
    if m > SQRT_2 {
        m *= 0.5;
        e += 1.0;
    }
    // ln m = 2 atanh(t), t = (m-1)/(m+1), |t| <= 0.1716: the series past
    // t^9 adds under 7e-10.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let series =
        2.0 * t * (1.0 + t2 * (1.0 / 3.0 + t2 * (1.0 / 5.0 + t2 * (1.0 / 7.0 + t2 * (1.0 / 9.0)))));
    e * LN_2 + series
}

/// `(sin, cos)` of `2π·k / 2^24` for a 24-bit phase `k`.
///
/// The quarter turn is taken from `k`'s integer bits, and the quadrant
/// select is a lane-wise swap and two sign-bit flips, so the function
/// if-converts and stays in vector registers inside the renderer's noise
/// pass.
#[inline]
pub(crate) fn sincos_2pi_f32(k: u32) -> (f32, f32) {
    debug_assert!(k < 1 << 24);
    // 2π·k/2^24 = (π/2)(q + f): the nearest quarter turn q (4 is a whole
    // turn, so only q mod 4 matters) and f in [-1/2, 1/2), both exact.
    let q = (k + (1 << 21)) >> 22;
    let f = (k as i32 - (q << 22) as i32) as f32 * (1.0 / (1 << 22) as f32);
    let (sp, cp) = eighth_sincos(f);
    // q=0: ( sp,  cp)   q=1: ( cp, -sp)   q=2: (-sp, -cp)   q=3: (-cp, sp)
    let (a, b) = if q & 1 == 0 { (sp, cp) } else { (cp, sp) };
    let sin_sign = (q & 2) << 30;
    let cos_sign = ((q + 1) & 2) << 30;
    (f32::from_bits(a.to_bits() ^ sin_sign), f32::from_bits(b.to_bits() ^ cos_sign))
}

/// `(sin, cos)` of `(π/2)·f` for `f` in [-1/2, 1/2]: Taylor polynomials in
/// `f²`, truncated where the next term at `|x| = π/4` is below 3e-8.
#[inline]
fn eighth_sincos(f: f32) -> (f32, f32) {
    const A: f64 = FRAC_PI_2;
    const A2: f64 = A * A;
    // sin(af) = af · Σ (-a²f²)^k / (2k+1)!   truncated past (af)^9
    const S1: f32 = A as f32;
    const S3: f32 = (-A * A2 / 6.0) as f32;
    const S5: f32 = (A * A2 * A2 / 120.0) as f32;
    const S7: f32 = (-A * A2 * A2 * A2 / 5040.0) as f32;
    const S9: f32 = (A * A2 * A2 * A2 * A2 / 362_880.0) as f32;
    // cos(af) = Σ (-a²f²)^k / (2k)!          truncated past (af)^8
    const C2: f32 = (-A2 / 2.0) as f32;
    const C4: f32 = (A2 * A2 / 24.0) as f32;
    const C6: f32 = (-A2 * A2 * A2 / 720.0) as f32;
    const C8: f32 = (A2 * A2 * A2 * A2 / 40_320.0) as f32;

    let f2 = f * f;
    let sp = f * (S1 + f2 * (S3 + f2 * (S5 + f2 * (S7 + f2 * S9))));
    let cp = 1.0 + f2 * (C2 + f2 * (C4 + f2 * (C6 + f2 * C8)));
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
    fn noise_hash_is_pinned() {
        // Every fast and lowres frame's noise comes from this hash: a
        // change to it re-pins `golden_campaign_fast.fp`, the fast lines
        // of `vision_frames.golden` and `export_portal.golden`.
        let got: Vec<u32> = [([0, 0], 0), ([0, 0], 1), ([0x5eed, 0], 0), ([0, 0x5eed], 0)]
            .into_iter()
            .chain((0..4).map(|n| ([0xdead_beef, 0x0123_4567], n)))
            .map(|(key, n)| noise_hash(key, n))
            .collect();
        assert_eq!(got, PINNED, "{got:#010x?}");
    }

    #[test]
    fn noise_hash_avalanches_in_counter_and_key() {
        // Flipping one input bit flips about half of the 32 output bits.
        let (mut counter_flips, mut key_flips) = (0u32, 0u32);
        for n in 0..4096u32 {
            let h = noise_hash([7, 9], n);
            let bit = 1 << (n % 32);
            counter_flips += (h ^ noise_hash([7, 9], n ^ bit)).count_ones();
            key_flips += (h ^ noise_hash([7 ^ bit, 9], n)).count_ones();
            key_flips += (h ^ noise_hash([7, 9 ^ bit], n)).count_ones();
        }
        let counter_mean = counter_flips as f64 / 4096.0;
        let key_mean = key_flips as f64 / 8192.0;
        assert!((15.5..16.5).contains(&counter_mean), "counter avalanche {counter_mean}");
        assert!((15.5..16.5).contains(&key_mean), "key avalanche {key_mean}");
    }

    #[test]
    fn ln_tracks_std_over_the_unit_interval() {
        // Every 24-bit uniform the sampler feeds it, k·2^-24 for k in
        // 1..=2^24, on a dense stride that includes both ends.
        let mut worst = 0.0f64;
        for k in (1..=1u32 << 24).step_by(61).chain([1, 2, 3, (1 << 24) - 1, 1 << 24]) {
            let x = k as f32 / (1u32 << 24) as f32;
            let want = (x as f64).ln();
            let rel = (ln_f32(x) as f64 - want).abs() / want.abs().max(f64::MIN_POSITIVE);
            worst = worst.max(rel);
        }
        assert!(worst < 3e-7, "worst relative error {worst:e}");
        assert_eq!(ln_f32(1.0), 0.0);
        assert_eq!(ln_f32(0.5), -LN_2);
    }

    #[test]
    fn sincos_tracks_std_over_the_phase_circle() {
        let mut worst = 0.0f64;
        for k in (0..1u32 << 24).step_by(7).chain([(1 << 24) - 1]) {
            let (s, c) = sincos_2pi_f32(k);
            let a = 2.0 * std::f64::consts::PI * k as f64 / (1u32 << 24) as f64;
            worst = worst.max((s as f64 - a.sin()).abs()).max((c as f64 - a.cos()).abs());
        }
        assert!(worst < 2e-7, "worst absolute error {worst:e}");
        // Exact quarter turns.
        assert_eq!(sincos_2pi_f32(0), (0.0, 1.0));
        assert_eq!(sincos_2pi_f32(1 << 22), (1.0, -0.0));
        assert_eq!(sincos_2pi_f32(2 << 22), (-0.0, -1.0));
        assert_eq!(sincos_2pi_f32(3 << 22), (-1.0, 0.0));
    }

    #[test]
    fn unit_circle_identity_holds() {
        for k in (0..1u32 << 24).step_by(1663) {
            let (s, c) = sincos_2pi_f32(k);
            assert!((s * s + c * c - 1.0).abs() < 3e-7, "k = {k}");
        }
    }

    #[test]
    fn grid_index_is_the_integer_cast() {
        for v in [0.0, 1.0, 7.0, 11.0, 639.0, 4095.0, 1e9, 4_503_599_627_370_495.0] {
            assert_eq!(grid_index(v), v as usize, "{v}");
        }
    }

    const PINNED: [u32; 8] = [
        0x0000_0000,
        0xe1d8_1207,
        0xdaae_0a37,
        0x247a_23f6,
        0xfef9_7a71,
        0xb671_cf41,
        0xe278_1c75,
        0x27b7_fd28,
    ];
}
