//! The frozen pre-optimization renderer — the runnable baseline.
//!
//! This is the sequential-RNG measurement renderer exactly as it stood
//! before the counter-based rework (the `RefGp` precedent from the solver
//! optimization PR): one RNG stream drawn pixel by pixel, per-pixel
//! Box–Muller with the sine variate discarded, a per-pixel
//! `linear_to_srgb` and `round`, and per-pixel rectangle re-testing in
//! `material_at`. It is the `Fidelity::Full` render path, the baseline
//! the render accuracy gate compares the fast path against, and the
//! behavior the pre-refactor golden campaign fingerprints pin — do not
//! optimize it.

use crate::aruco::cell_is_white;
use crate::image::ImageRgb8;
use crate::render::{
    PlateScene, BENCH, EMPTY_WELL, MARKER_BLACK, MARKER_WHITE, PLATE_BODY, WALL_MM, WELL_WALL,
};
use rand::Rng;
use sdl_color::{linear_to_srgb, LinRgb, Rgb8};

/// Minimal normal sampler (Box–Muller) so we do not need an extra crate.
mod rand_distr_normal {
    use rand::Rng;

    /// One standard-normal draw.
    pub fn sample_normal(rng: &mut impl Rng) -> f64 {
        // Box–Muller; u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

use rand_distr_normal::sample_normal;

/// Render the scene to an 8-bit frame through the frozen reference path.
pub fn render_reference(scene: &PlateScene, rng: &mut impl Rng) -> ImageRgb8 {
    let mut img = ImageRgb8::new(scene.camera.width_px, scene.camera.height_px, Rgb8::default());
    render_reference_into(scene, rng, &mut img);
    img
}

/// [`render_reference`] into an existing frame buffer (resized as needed).
/// Every pixel is overwritten and the RNG is consumed identically, so the
/// frame is bit-identical to a freshly allocated render.
pub(crate) fn render_reference_into(scene: &PlateScene, rng: &mut impl Rng, img: &mut ImageRgb8) {
    let cam = &scene.camera;
    let w = cam.width_px;
    let h = cam.height_px;
    if img.width() != w || img.height() != h {
        img.reset(w, h, Rgb8::default());
    }
    let cx = w as f64 / 2.0 + scene.pose.dx_px;
    let cy = h as f64 / 2.0 + scene.pose.dy_px;
    let s = cam.px_per_mm;
    let theta = scene.pose.rot_deg.to_radians();
    let (sin_t, cos_t) = theta.sin_cos();
    let corner_d2 = {
        let dx = w as f64 / 2.0;
        let dy = h as f64 / 2.0;
        dx * dx + dy * dy
    };

    for py in 0..h {
        for px in 0..w {
            // Inverse map pixel -> scene mm (rotate then unscale).
            let rx = px as f64 + 0.5 - cx;
            let ry = py as f64 + 0.5 - cy;
            let mm_x = (rx * cos_t + ry * sin_t) / s + cam.look_at_mm.0;
            let mm_y = (-rx * sin_t + ry * cos_t) / s + cam.look_at_mm.1;
            let base = material_at(scene, mm_x, mm_y);

            // Ring-light vignette (quadratic falloff from frame center).
            let d2 = rx * rx + ry * ry;
            let gain = scene.lighting.gain * (1.0 - scene.lighting.vignette * d2 / corner_d2);

            let noisy = LinRgb::new(
                base.r * gain + scene.lighting.noise_sigma * sample_normal(rng),
                base.g * gain + scene.lighting.noise_sigma * sample_normal(rng),
                base.b * gain + scene.lighting.noise_sigma * sample_normal(rng),
            )
            .clamped();
            img.put(
                px as i64,
                py as i64,
                Rgb8::new(
                    (linear_to_srgb(noisy.r) * 255.0).round() as u8,
                    (linear_to_srgb(noisy.g) * 255.0).round() as u8,
                    (linear_to_srgb(noisy.b) * 255.0).round() as u8,
                ),
            );
        }
    }
}

/// The material color at a scene point (plate-local mm coordinates).
/// Crate-visible so the `SceneIndex` equivalence test compares against the
/// actual frozen geometry rather than a copy.
pub(crate) fn material_at(scene: &PlateScene, x: f64, y: f64) -> LinRgb {
    // Marker backing card (one-cell quiet zone) and cells.
    let mk = &scene.marker;
    let cell = mk.size_mm / 6.0;
    let bx = mk.offset_x_mm - cell;
    let by = mk.offset_y_mm - cell;
    let bsize = mk.size_mm + 2.0 * cell;
    if x >= bx && x < bx + bsize && y >= by && y < by + bsize {
        let ix = x - mk.offset_x_mm;
        let iy = y - mk.offset_y_mm;
        if ix >= 0.0 && ix < mk.size_mm && iy >= 0.0 && iy < mk.size_mm {
            let col = (ix / cell) as usize;
            let row = (iy / cell) as usize;
            return if cell_is_white(scene.marker_id, row.min(5), col.min(5)) {
                MARKER_WHITE
            } else {
                MARKER_BLACK
            };
        }
        return MARKER_WHITE; // quiet zone
    }

    // Plate.
    let p = &scene.plate;
    if x >= 0.0 && x < p.width_mm && y >= 0.0 && y < p.height_mm {
        // Nearest well.
        let col_f = (x - p.a1_x_mm) / p.pitch_mm;
        let row_f = (y - p.a1_y_mm) / p.pitch_mm;
        let col = col_f.round().clamp(0.0, (p.cols - 1) as f64) as usize;
        let row = row_f.round().clamp(0.0, (p.rows - 1) as f64) as usize;
        let (wx, wy) = p.well_center_mm(row, col);
        let dx = x - wx;
        let dy = y - wy;
        let d = (dx * dx + dy * dy).sqrt();
        let idx = row * p.cols + col;
        match scene.well_colors.get(idx).copied().flatten() {
            Some(liquid) => {
                if d <= p.well_radius_mm {
                    return liquid;
                }
                if d <= p.well_radius_mm + WALL_MM {
                    return WELL_WALL;
                }
            }
            None => {
                if d <= p.well_radius_mm {
                    return EMPTY_WELL;
                }
            }
        }
        return PLATE_BODY;
    }

    BENCH
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reference_render_is_seed_reproducible() {
        let scene = PlateScene::empty_plate();
        let a = render_reference(&scene, &mut StdRng::seed_from_u64(1));
        let b = render_reference(&scene, &mut StdRng::seed_from_u64(1));
        let c = render_reference(&scene, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn reference_into_recycled_buffer_is_bit_identical() {
        let scene = PlateScene::empty_plate();
        let fresh = render_reference(&scene, &mut StdRng::seed_from_u64(5));
        let mut buf = ImageRgb8::new(3, 2, Rgb8::new(9, 9, 9));
        render_reference_into(&scene, &mut StdRng::seed_from_u64(5), &mut buf);
        assert_eq!(buf, fresh);
    }
}
