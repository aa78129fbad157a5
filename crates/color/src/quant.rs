//! Table-driven sRGB byte encoding.
//!
//! `(linear_to_srgb(l) * 255.0).round() as u8` is a monotonic step function
//! of linear light: as `l` sweeps `[0, 1]` the output byte only ever steps
//! upward, through exactly 255 transition points. [`SrgbQuantizer`]
//! precomputes those transition points — the *cutpoints* — once, after
//! which encoding a channel is a table lookup plus one comparison instead
//! of a transcendental `powf`. The construction is provably bit-exact: each
//! cutpoint is found by bisecting the f64 bit lattice against the reference
//! expression itself, so the table cannot drift from the closed form (and
//! the exhaustive boundary test keeps it honest).
//!
//! This is what lets the measurement renderer drop its dominant per-pixel
//! cost (three `powf` calls) without relaxing the encode semantics at all.

use crate::rgb::{linear_to_srgb, LinRgb, Rgb8};

/// Bins in the direct-index acceleration table. The tightest cutpoint
/// spacing is at the dark (linear) end of the curve, `1 / (255 * 12.92)`
/// ≈ `3.04e-4`; 4096 bins are `2.44e-4` wide, so no bin ever contains more
/// than one cutpoint and a lookup resolves with at most one comparison.
const BINS: usize = 4096;

/// `2^52`: adding it to an integer-valued f64 in `[0, 2^52)` leaves that
/// integer in the low mantissa bits.
const TWO_POW_52: f64 = (1u64 << 52) as f64;

/// The reference encode this table reproduces exactly.
#[inline]
fn reference_encode(l: f64) -> u8 {
    (linear_to_srgb(l) * 255.0).round() as u8
}

/// Precomputed cutpoint table for the linear-light → sRGB-byte encode.
#[derive(Debug, Clone)]
pub struct SrgbQuantizer {
    /// `cut[k]` is the smallest f64 in `[0, 1]` that encodes to a byte
    /// strictly greater than `k`; `cut[255]` is the `+∞` sentinel.
    cut: Box<[f64; 256]>,
    /// `index[i]` is the encode of the left edge of bin `i` — the starting
    /// guess a lookup refines with a single cutpoint comparison.
    index: Box<[u8; BINS]>,
    /// `bin_cut[i]` is `cut[index[i]]`, the one cutpoint a lookup in bin
    /// `i` compares against: stored per bin, it loads independently of
    /// `index[i]` instead of through it.
    bin_cut: Box<[f64; BINS]>,
}

impl Default for SrgbQuantizer {
    fn default() -> Self {
        SrgbQuantizer::new()
    }
}

impl SrgbQuantizer {
    /// Build the table (255 bisections of the f64 bit lattice; ~16 µs).
    pub fn new() -> SrgbQuantizer {
        let mut cut = Box::new([f64::INFINITY; 256]);
        for (k, slot) in cut.iter_mut().enumerate().take(255) {
            *slot = smallest_encoding_above(k as u8);
        }
        let mut index = Box::new([0u8; BINS]);
        let mut bin_cut = Box::new([0.0; BINS]);
        for (i, (slot, c)) in index.iter_mut().zip(bin_cut.iter_mut()).enumerate() {
            *slot = reference_encode(i as f64 / BINS as f64);
            *c = cut[*slot as usize];
        }
        SrgbQuantizer { cut, index, bin_cut }
    }

    /// The cutpoints (ascending; the last entry is the `+∞` sentinel).
    pub fn cutpoints(&self) -> &[f64; 256] {
        &self.cut
    }

    /// Encode one clamped linear channel (`l` must be in `[0, 1]`).
    /// Bit-identical to `(linear_to_srgb(l) * 255.0).round() as u8`.
    #[inline]
    pub fn encode_channel(&self, l: f64) -> u8 {
        // The bin is `l · BINS` truncated and clamped to the table (NaN and
        // negatives to 0), as `(x as usize).min(BINS - 1)` would give. A
        // saturating float-to-int `as` cast compiles to a scalar sequence
        // per value; clamping and flooring in floats, then reading the
        // integer out of the mantissa of `f + 2^52`, stays in vector
        // registers.
        let f = (l * BINS as f64).max(0.0).min((BINS - 1) as f64).floor();
        let bin = (f + TWO_POW_52).to_bits() as usize & (BINS - 1);
        // At most one cutpoint lies inside a bin, so one comparison
        // finishes the job; the sentinel makes a bin that starts at 255
        // safe.
        self.index[bin] + (l >= self.bin_cut[bin]) as u8
    }

    /// Encode a row of clamped linear channels: `out[i]` is
    /// `encode_channel(lin[i])`.
    pub fn encode_row(&self, lin: &[f64], out: &mut [u8]) {
        assert_eq!(lin.len(), out.len(), "one output byte per channel");
        for (o, &l) in out.iter_mut().zip(lin) {
            *o = self.encode_channel(l);
        }
    }

    /// Encode a linear color (clamping out-of-gamut values), bit-identical
    /// to [`LinRgb::to_srgb`].
    #[inline]
    pub fn encode(&self, c: LinRgb) -> Rgb8 {
        let c = c.clamped();
        Rgb8::new(self.encode_channel(c.r), self.encode_channel(c.g), self.encode_channel(c.b))
    }
}

/// The smallest f64 in `[0, 1]` whose reference encode exceeds `k`, found
/// by bisecting the (monotonic) non-negative f64 bit lattice.
fn smallest_encoding_above(k: u8) -> f64 {
    debug_assert!(k < 255);
    // For non-negative floats the bit pattern orders identically to the
    // value, so bisection over bits finds the exact transition ULP.
    let mut lo = 0u64; // encodes to <= k (0.0 encodes to 0)
    let mut hi = 1.0f64.to_bits(); // encodes to 255 > k
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reference_encode(f64::from_bits(mid)) > k {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    f64::from_bits(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutpoints_are_strictly_monotonic() {
        let q = SrgbQuantizer::new();
        for k in 1..255 {
            assert!(
                q.cutpoints()[k] > q.cutpoints()[k - 1],
                "cutpoints must ascend: cut[{k}] = {} <= cut[{}] = {}",
                q.cutpoints()[k],
                k - 1,
                q.cutpoints()[k - 1]
            );
        }
        assert!(q.cutpoints()[255].is_infinite());
    }

    #[test]
    fn bins_never_straddle_two_cutpoints() {
        // The one-comparison lookup is only exact if no bin contains more
        // than one cutpoint; verify the spacing claim directly.
        let q = SrgbQuantizer::new();
        for k in 1..255 {
            let a = (q.cutpoints()[k - 1] * BINS as f64) as usize;
            let b = (q.cutpoints()[k] * BINS as f64) as usize;
            assert!(b > a, "cutpoints {k}-1 and {k} share bin {a}");
        }
    }

    #[test]
    fn exhaustive_bit_exactness_at_cutpoint_boundaries() {
        // For every transition: the cutpoint itself, one ULP below, and a
        // spread of ULPs on both sides must all agree with the reference.
        let q = SrgbQuantizer::new();
        for k in 0..255usize {
            let c = q.cutpoints()[k];
            for step in [1u64, 2, 17, 1024] {
                for bits in
                    [c.to_bits() - step, c.to_bits(), (c.to_bits() + step).min(1.0f64.to_bits())]
                {
                    let l = f64::from_bits(bits);
                    assert_eq!(
                        q.encode_channel(l),
                        reference_encode(l),
                        "mismatch at cutpoint {k}, l = {l:e}"
                    );
                }
            }
        }
        // Endpoints and exact bin edges.
        for i in 0..=BINS {
            let l = i as f64 / BINS as f64;
            assert_eq!(q.encode_channel(l), reference_encode(l), "bin edge {i}");
        }
    }

    #[test]
    fn dense_sweep_matches_reference() {
        let q = SrgbQuantizer::new();
        for i in 0..=200_000u64 {
            let l = i as f64 / 200_000.0;
            assert_eq!(q.encode_channel(l), reference_encode(l), "l = {l}");
        }
    }

    #[test]
    fn encode_row_matches_the_reference_including_out_of_range_input() {
        let q = SrgbQuantizer::new();
        let lin: Vec<f64> = (0..=4200).map(|i| i as f64 / 4096.0 - 0.01).collect();
        let mut out = vec![0u8; lin.len()];
        q.encode_row(&lin, &mut out);
        for (&l, &byte) in lin.iter().zip(&out) {
            assert_eq!(byte, q.encode_channel(l), "l = {l}");
            assert_eq!(byte, reference_encode(l.clamp(0.0, 1.0)), "l = {l}");
        }
    }

    #[test]
    fn encode_matches_to_srgb_including_out_of_gamut() {
        let q = SrgbQuantizer::new();
        for (r, g, b) in [
            (0.0, 0.5, 1.0),
            (-0.3, 1.7, 0.003_130_8),
            (0.1874, 0.0031, 0.999_999),
            (f64::MIN_POSITIVE, 1.0 - f64::EPSILON, 0.5),
        ] {
            let c = LinRgb::new(r, g, b);
            assert_eq!(q.encode(c), c.to_srgb(), "{c:?}");
        }
    }
}
