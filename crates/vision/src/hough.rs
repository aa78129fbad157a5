//! Circular Hough transform for well detection.
//!
//! "With the HoughCircles algorithm from OpenCV, we can detect circular
//! features in the image to precisely identify the center of wells. As this
//! method is prone to false negatives…" (paper §2.4). This implementation
//! follows the gradient-voting variant: Sobel edges vote along their
//! gradient direction at the candidate radii; peaks above a vote threshold
//! become circles, with non-maximum suppression at the well pitch.

use crate::fastmath::grid_index;
use crate::image::ImageRgb8;

/// A detected circle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center x, px.
    pub cx: f64,
    /// Center y, px.
    pub cy: f64,
    /// Radius used for the vote, px.
    pub r: f64,
    /// Accumulated votes (higher = stronger evidence).
    pub votes: u32,
}

/// Tuning for [`hough_circles`].
#[derive(Debug, Clone, PartialEq)]
pub struct HoughParams {
    /// Minimum candidate radius, px.
    pub r_min: f64,
    /// Maximum candidate radius, px.
    pub r_max: f64,
    /// Sobel magnitude below which a pixel is not an edge (0–255 scale).
    pub gradient_threshold: f64,
    /// Fraction of the theoretical maximum votes (circle circumference in
    /// px) a peak must reach.
    pub vote_fraction: f64,
    /// Minimum distance between accepted centers, px.
    pub min_center_dist: f64,
    /// Upper bound on returned circles.
    pub max_circles: usize,
}

impl Default for HoughParams {
    fn default() -> Self {
        HoughParams {
            r_min: 9.0,
            r_max: 14.0,
            gradient_threshold: 40.0,
            vote_fraction: 0.45,
            min_center_dist: 18.0,
            max_circles: 128,
        }
    }
}

/// Reusable buffers for [`hough_circles_with`]: the full-frame vote plane
/// and per-row Sobel, blur and peak buffers. The vote plane dominates the
/// detector's per-frame allocations, so the measurement loop keeps one of
/// these per worker.
#[derive(Debug, Clone, Default)]
pub struct HoughScratch {
    acc: Vec<u32>,
    hsum: Vec<u32>,
    pooled: Vec<u32>,
    peaks: Vec<(u32, usize, usize)>,
    radii: Vec<f64>,
    signed_radii: Vec<f64>,
    gx: Vec<i32>,
    gy: Vec<i32>,
    mag2: Vec<i32>,
}

/// Detect circles, strongest first.
pub fn hough_circles(img: &ImageRgb8, params: &HoughParams) -> Vec<Circle> {
    hough_circles_with(img, params, &img.to_luma(), &mut HoughScratch::default())
}

/// [`hough_circles`] over a precomputed luma plane and caller-owned scratch
/// buffers. The buffers are fully re-zeroed, so results are identical to a
/// fresh-allocation run.
pub fn hough_circles_with(
    img: &ImageRgb8,
    params: &HoughParams,
    luma: &[u8],
    scratch: &mut HoughScratch,
) -> Vec<Circle> {
    let w = img.width();
    let h = img.height();
    assert_eq!(luma.len(), w * h, "luma plane must match the frame");
    // Frames smaller than the 3×3 kernel have no interior pixels: no votes
    // and no peaks.
    if w < 3 || h < 3 {
        return Vec::new();
    }

    // Accumulate votes over all radii into one plane; radius resolution is
    // not needed because the wells share a known radius band.
    let acc = &mut scratch.acc;
    acc.clear();
    acc.resize(w * h, 0);
    let r_mid = (params.r_min + params.r_max) / 2.0;
    let radii = &mut scratch.radii;
    radii.clear();
    {
        let mut r = params.r_min;
        while r <= params.r_max + 1e-9 {
            radii.push(r);
            r += 1.0;
        }
    }

    // The Sobel taps are small integers (exact in f64), so the historical
    // float filter can run in integer registers as long as the threshold
    // decision stays the *exact* float predicate `sqrt(gx²+gy²)/4 < t`.
    // Precompute the smallest squared magnitude that passes it; the hot
    // loop then compares integers and only touches floats on real edges.
    let s_cut = {
        let passes = |s: i32| (s as f64).sqrt() / 4.0 >= params.gradient_threshold;
        const S_MAX: i32 = 2 * 1020 * 1020; // both gradients saturated
        if passes(0) {
            0
        } else if !passes(S_MAX) {
            S_MAX + 1 // nothing can pass
        } else {
            let (mut lo, mut hi) = (0i32, S_MAX); // lo fails, hi passes
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if passes(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        }
    };

    // Signed radii `[-r0, r0, -r1, r1, …]`: each edge votes on both sides
    // (dark–light polarity varies between liquid/wall and wall/plate
    // transitions). Negation is exact, so `(sign·r)·u` is `sign·r·u` bit
    // for bit.
    let signed_radii = &mut scratch.signed_radii;
    signed_radii.clear();
    signed_radii.extend(radii.iter().flat_map(|&r| [-r, r]));

    // Row pass: Sobel over the whole row from equal-length tap slices
    // (branch-free, no bounds checks), then votes at edge pixels only.
    let n = w - 2;
    let (gx, gy, mag2) = (&mut scratch.gx, &mut scratch.gy, &mut scratch.mag2);
    for buf in [&mut *gx, &mut *gy, &mut *mag2] {
        buf.clear();
        buf.resize(n, 0);
    }
    let (wf, hf) = (w as f64, h as f64);
    for y in 1..h - 1 {
        let (above, row, below) =
            (&luma[(y - 1) * w..y * w], &luma[y * w..(y + 1) * w], &luma[(y + 1) * w..(y + 2) * w]);
        let (a, b, c) = (&above[..n], &above[1..n + 1], &above[2..n + 2]);
        let (d, e) = (&row[..n], &row[2..n + 2]);
        let (f, g, k) = (&below[..n], &below[1..n + 1], &below[2..n + 2]);
        let (gx, gy, mag2) = (&mut gx[..n], &mut gy[..n], &mut mag2[..n]);
        for i in 0..n {
            // Sobel, in integer registers (bit-identical to the f64 taps).
            let (a, b, c) = (a[i] as i32, b[i] as i32, c[i] as i32);
            let (d, e) = (d[i] as i32, e[i] as i32);
            let (f, g, k) = (f[i] as i32, g[i] as i32, k[i] as i32);
            let sx = c + 2 * e + k - a - 2 * d - f;
            let sy = f + 2 * g + k - a - 2 * b - c;
            gx[i] = sx;
            gy[i] = sy;
            mag2[i] = sx * sx + sy * sy;
        }
        for (i, &s) in mag2.iter().enumerate() {
            if s < s_cut {
                continue;
            }
            // `mag * 4.0` of the float formulation is exactly `sqrt(s)`
            // (the /4 and *4 only move the exponent), so the vote geometry
            // below is unchanged bit for bit.
            let sqrt_s = (s as f64).sqrt();
            let ux = gx[i] as f64 / sqrt_s;
            let uy = gy[i] as f64 / sqrt_s;
            let (xf, yf) = ((i + 1) as f64, y as f64);
            for &r in signed_radii.iter() {
                let cx = xf + r * ux;
                let cy = yf + r * uy;
                // For `c >= 0`, `(c as usize) < w` holds exactly when
                // `c < w`, so the range test runs in floats.
                if cx >= 0.0 && cx < wf && cy >= 0.0 && cy < hf {
                    acc[grid_index(cy.floor()) * w + grid_index(cx.floor())] += 1;
                }
            }
        }
    }

    // Blur the accumulator lightly (3×3 box) so near-miss votes pool, and
    // pick peaks from each pooled row as it is made. The vote ceiling for a
    // perfect circle is roughly its circumference (one vote per edge pixel
    // per matching radius), pooled over the 3×3 window and the radius band.
    let ceiling = 2.0 * std::f64::consts::PI * r_mid * radii.len() as f64;
    let threshold = ((params.vote_fraction * ceiling) as u32).max(1);
    let peaks = &mut scratch.peaks;
    peaks.clear();
    // Separable form: horizontal sums over a ring of three rows, then their
    // vertical sum. u32 adds are exact in any association, so each pooled
    // value is the direct 9-tap window's.
    let hsum = &mut scratch.hsum;
    hsum.clear();
    hsum.resize(3 * n, 0);
    let pooled = &mut scratch.pooled;
    pooled.clear();
    pooled.resize(n, 0);
    for y in 0..h {
        let row = &acc[y * w..(y + 1) * w];
        let (l, m, r) = (&row[..n], &row[1..n + 1], &row[2..n + 2]);
        let slot = &mut hsum[(y % 3) * n..(y % 3 + 1) * n];
        for (i, out) in slot.iter_mut().enumerate() {
            *out = l[i] + m[i] + r[i];
        }
        if y < 2 {
            continue;
        }
        // Pooled row `y - 1`, whose pixel `x` is at index `x - 1`.
        let (h0, h1, h2) = (&hsum[..n], &hsum[n..2 * n], &hsum[2 * n..]);
        for (i, out) in pooled.iter_mut().enumerate() {
            *out = h0[i] + h1[i] + h2[i];
        }
        for (i, &v) in pooled.iter().enumerate() {
            if v >= threshold {
                peaks.push((v, i + 1, y - 1));
            }
        }
    }
    peaks.sort_by(|a, b| b.0.cmp(&a.0).then(a.2.cmp(&b.2)).then(a.1.cmp(&b.1)));

    let mut out: Vec<Circle> = Vec::new();
    let min_d2 = params.min_center_dist * params.min_center_dist;
    for &(votes, x, y) in peaks.iter() {
        if out.len() >= params.max_circles {
            break;
        }
        let (xf, yf) = (x as f64, y as f64);
        if out.iter().any(|c| {
            let dx = c.cx - xf;
            let dy = c.cy - yf;
            dx * dx + dy * dy < min_d2
        }) {
            continue;
        }
        out.push(Circle { cx: xf, cy: yf, r: r_mid, votes });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::{fill_circle, stroke_circle};
    use sdl_color::Rgb8;

    fn params() -> HoughParams {
        HoughParams { r_min: 9.0, r_max: 13.0, ..HoughParams::default() }
    }

    #[test]
    fn finds_a_single_strong_circle() {
        let mut img = ImageRgb8::new(100, 100, Rgb8::new(200, 200, 200));
        fill_circle(&mut img, 50.0, 50.0, 11.0, Rgb8::new(30, 30, 120));
        let found = hough_circles(&img, &params());
        assert_eq!(found.len(), 1, "found {found:?}");
        assert!((found[0].cx - 50.0).abs() <= 2.0);
        assert!((found[0].cy - 50.0).abs() <= 2.0);
    }

    #[test]
    fn finds_a_grid_of_circles() {
        let mut img = ImageRgb8::new(300, 200, Rgb8::new(210, 210, 210));
        let mut expected = Vec::new();
        for row in 0..3 {
            for col in 0..5 {
                let cx = 50.0 + col as f64 * 50.0;
                let cy = 40.0 + row as f64 * 55.0;
                stroke_circle(&mut img, cx, cy, 11.0, 2.0, Rgb8::new(40, 40, 40));
                fill_circle(&mut img, cx, cy, 10.0, Rgb8::new(90, 60, 140));
                expected.push((cx, cy));
            }
        }
        let found = hough_circles(&img, &params());
        assert_eq!(found.len(), expected.len(), "found {}", found.len());
        for (cx, cy) in expected {
            assert!(
                found.iter().any(|c| (c.cx - cx).abs() <= 2.5 && (c.cy - cy).abs() <= 2.5),
                "missing circle at ({cx},{cy})"
            );
        }
    }

    #[test]
    fn low_contrast_circle_is_missed() {
        // The false-negative mode the paper's grid alignment compensates for.
        let mut img = ImageRgb8::new(100, 100, Rgb8::new(200, 200, 200));
        fill_circle(&mut img, 50.0, 50.0, 11.0, Rgb8::new(212, 212, 212));
        let found = hough_circles(&img, &params());
        assert!(found.is_empty(), "near-invisible circle should be missed: {found:?}");
    }

    #[test]
    fn blank_image_yields_nothing() {
        let img = ImageRgb8::new(64, 64, Rgb8::new(128, 128, 128));
        assert!(hough_circles(&img, &params()).is_empty());
    }

    #[test]
    fn frames_smaller_than_the_kernel_yield_nothing() {
        for (w, h) in [(1, 1), (1, 40), (2, 40), (40, 1), (40, 2)] {
            let img = ImageRgb8::new(w, h, Rgb8::new(90, 90, 90));
            assert!(hough_circles(&img, &params()).is_empty(), "{w}x{h}");
        }
    }

    #[test]
    fn nms_respects_min_distance() {
        let mut img = ImageRgb8::new(100, 100, Rgb8::new(220, 220, 220));
        fill_circle(&mut img, 48.0, 50.0, 11.0, Rgb8::new(20, 20, 20));
        let found = hough_circles(&img, &params());
        // One physical circle must never be reported twice.
        assert_eq!(found.len(), 1, "{found:?}");
    }
}
