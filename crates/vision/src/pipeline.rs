//! The full image-processing pipeline of paper §2.4:
//! ArUco marker → approximate plate bounds → HoughCircles → grid alignment
//! → per-well color extraction.

use crate::aruco::{detect_markers_with, ArucoParams, ArucoScratch, MarkerDetection};
use crate::grid::{fit_grid, GridModel};
use crate::hough::{hough_circles_with, Circle, HoughParams, HoughScratch};
use crate::image::ImageRgb8;
use crate::layout::{MarkerLayout, PlateLayout};
use sdl_color::Rgb8;
use std::fmt;

/// One well's extracted reading.
#[derive(Debug, Clone, PartialEq)]
pub struct WellReading {
    /// Row index (0 = A).
    pub row: usize,
    /// Column index (0 = 1).
    pub col: usize,
    /// Mean color sampled at the predicted center.
    pub color: Rgb8,
    /// Predicted center, px.
    pub center_px: (f64, f64),
    /// Whether HoughCircles found this well directly (false = recovered by
    /// the grid).
    pub found_by_hough: bool,
}

impl WellReading {
    /// "A1"-style label.
    pub fn label(&self) -> String {
        format!("{}{}", (b'A' + self.row as u8) as char, self.col + 1)
    }
}

/// Result of processing one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct PlateReading {
    /// The fiducial detection that anchored the plate.
    pub marker: MarkerDetection,
    /// All wells, row-major.
    pub wells: Vec<WellReading>,
    /// Circles HoughCircles reported inside the plate region.
    pub hough_hits: usize,
    /// Wells whose centers came from grid prediction only.
    pub grid_recovered: usize,
    /// RMS residual of the grid fit, px (NaN when the fallback model was
    /// used).
    pub grid_rms_px: f64,
}

impl PlateReading {
    /// Reading for a given (row, col).
    pub fn well(&self, row: usize, col: usize) -> Option<&WellReading> {
        self.wells.iter().find(|w| w.row == row && w.col == col)
    }
}

/// Pipeline failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VisionError {
    /// No fiducial marker could be decoded in the frame.
    MarkerNotFound,
    /// The fitted grid disagreed wildly with the rig geometry.
    ImplausibleGrid,
}

impl fmt::Display for VisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VisionError::MarkerNotFound => write!(f, "no ArUco marker detected in frame"),
            VisionError::ImplausibleGrid => write!(f, "grid fit inconsistent with rig geometry"),
        }
    }
}

impl std::error::Error for VisionError {}

/// Detector configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorParams {
    /// Plate geometry (shared rig knowledge).
    pub plate: PlateLayout,
    /// Marker geometry and placement.
    pub marker: MarkerLayout,
    /// ArUco detector tuning.
    pub aruco: ArucoParams,
    /// Hough tuning; radius bounds are rescaled from the marker size at run
    /// time, so the defaults here only matter as ratios.
    pub hough: HoughParams,
    /// Fraction of the well radius sampled for the color mean.
    pub sample_fraction: f64,
    /// Disable grid alignment (E8 ablation: raw Hough detections only).
    pub grid_alignment: bool,
    /// Flat-field correction: divide each well reading by the local plate
    /// body shade (normalized to the plate-wide mean), canceling most of the
    /// ring-light vignette. Off by default to mirror the paper's pipeline.
    pub flat_field: bool,
}

impl Default for DetectorParams {
    fn default() -> Self {
        DetectorParams {
            plate: PlateLayout::default(),
            marker: MarkerLayout::default(),
            aruco: ArucoParams::default(),
            hough: HoughParams::default(),
            sample_fraction: 0.55,
            grid_alignment: true,
            flat_field: false,
        }
    }
}

/// Reusable working memory for [`Detector::detect_with`]: the shared luma
/// plane (computed once per frame instead of once per stage), the Hough
/// vote planes and the ArUco labelling buffers — several megabytes that the
/// measurement loop would otherwise reallocate per frame. One instance per
/// campaign worker thread.
#[derive(Debug, Clone, Default)]
pub struct DetectorScratch {
    luma: Vec<u8>,
    hough: HoughScratch,
    aruco: ArucoScratch,
    centers: Vec<(f64, f64)>,
    patches: Vec<sdl_color::LinRgb>,
}

/// The §2.4 pipeline.
#[derive(Debug, Clone, Default)]
pub struct Detector {
    /// Configuration.
    pub params: DetectorParams,
}

impl Detector {
    /// Build with explicit parameters.
    pub fn new(params: DetectorParams) -> Detector {
        Detector { params }
    }

    /// Process one frame into per-well readings.
    pub fn detect(&self, img: &ImageRgb8) -> Result<PlateReading, VisionError> {
        self.detect_with(img, &mut DetectorScratch::default())
    }

    /// [`Detector::detect`] over reusable scratch buffers. Readings are
    /// identical to the allocating path; only the allocation traffic
    /// differs.
    pub fn detect_with(
        &self,
        img: &ImageRgb8,
        scratch: &mut DetectorScratch,
    ) -> Result<PlateReading, VisionError> {
        let p = &self.params;
        img.luma_into(&mut scratch.luma);

        // 1. Fiducial: gives scale and the approximate plate origin.
        let markers = detect_markers_with(img, &p.aruco, &scratch.luma, &mut scratch.aruco);
        let marker = markers.into_iter().next().ok_or(VisionError::MarkerNotFound)?;
        let px_per_mm = marker.size_px / p.marker.size_mm;

        // Marker center in plate-local mm.
        let marker_center_mm = (
            p.marker.offset_x_mm + p.marker.size_mm / 2.0,
            p.marker.offset_y_mm + p.marker.size_mm / 2.0,
        );
        let plate_origin_px = (
            marker.center.0 - marker_center_mm.0 * px_per_mm,
            marker.center.1 - marker_center_mm.1 * px_per_mm,
        );

        // 2. Approximate (unrotated) grid from rig geometry.
        let approx = GridModel {
            origin: (
                plate_origin_px.0 + p.plate.a1_x_mm * px_per_mm,
                plate_origin_px.1 + p.plate.a1_y_mm * px_per_mm,
            ),
            u: (p.plate.pitch_mm * px_per_mm, 0.0),
            v: (0.0, p.plate.pitch_mm * px_per_mm),
        };

        // 3. HoughCircles over the well radius band, restricted to a margin
        // around the approximate plate bounds.
        let well_r_px = p.plate.well_radius_mm * px_per_mm;
        let hough = HoughParams {
            r_min: well_r_px * 0.8,
            r_max: well_r_px * 1.25,
            min_center_dist: p.plate.pitch_mm * px_per_mm * 0.6,
            max_circles: p.plate.well_count() + 16,
            ..p.hough.clone()
        };
        let circles = hough_circles_with(img, &hough, &scratch.luma, &mut scratch.hough);
        // One well pitch around the plate, in plate-local mm.
        let margin = p.plate.pitch_mm;
        let in_plate = |c: &Circle| {
            let x_mm = (c.cx - plate_origin_px.0) / px_per_mm;
            let y_mm = (c.cy - plate_origin_px.1) / px_per_mm;
            x_mm > -margin
                && y_mm > -margin
                && x_mm < p.plate.width_mm + margin
                && y_mm < p.plate.height_mm + margin
        };
        scratch.centers.clear();
        scratch.centers.extend(circles.iter().filter(|c| in_plate(c)).map(|c| (c.cx, c.cy)));
        let centers: &[(f64, f64)] = &scratch.centers;

        // 4. Grid alignment (the false-negative correction).
        let (model, rms) = if p.grid_alignment {
            match fit_grid(centers, p.plate.rows, p.plate.cols, &approx, 3) {
                Some(fit) => {
                    let pitch_ok =
                        (fit.model.pitch_px() / (p.plate.pitch_mm * px_per_mm) - 1.0).abs() < 0.12;
                    if !pitch_ok {
                        return Err(VisionError::ImplausibleGrid);
                    }
                    (fit.model, fit.rms_px)
                }
                None => (approx, f64::NAN),
            }
        } else {
            (approx, f64::NAN)
        };

        // 5. Extraction at every predicted center (optionally flat-field
        // corrected against the local plate body shade).
        let sample_r = well_r_px * p.sample_fraction;
        let body = if p.flat_field {
            // Plate body patches at the diagonal midpoints between wells.
            let patches = &mut scratch.patches;
            patches.clear();
            patches.reserve(p.plate.well_count());
            for row in 0..p.plate.rows {
                for col in 0..p.plate.cols {
                    let (ax, ay) = model.predict(row, col);
                    let (bx, by) =
                        (ax + (model.u.0 + model.v.0) / 2.0, ay + (model.u.1 + model.v.1) / 2.0);
                    let (c, n) = img.mean_disk(bx, by, well_r_px * 0.25);
                    if n > 0 {
                        patches.push(c.to_linear());
                    } else {
                        patches.push(sdl_color::LinRgb::new(1.0, 1.0, 1.0));
                    }
                }
            }
            // Correct against the known plate-body reflectance (the rig's
            // built-in white reference), not just the plate-wide mean.
            Some((&scratch.patches, crate::render::PLATE_BODY_REFLECTANCE))
        } else {
            None
        };
        let near = |cx: f64, cy: f64| {
            centers.iter().any(|&(x, y)| {
                let dx = x - cx;
                let dy = y - cy;
                (dx * dx + dy * dy).sqrt() < well_r_px * 0.8
            })
        };
        let mut wells = Vec::with_capacity(p.plate.well_count());
        let mut recovered = 0usize;
        for row in 0..p.plate.rows {
            for col in 0..p.plate.cols {
                let (cx, cy) = model.predict(row, col);
                let (mut color, _n) = img.mean_disk(cx, cy, sample_r);
                if let Some((patches, reference)) = &body {
                    let local = patches[row * p.plate.cols + col];
                    let lin = color.to_linear();
                    let corrected = sdl_color::LinRgb::new(
                        lin.r * (reference.r / local.r.max(1e-4)),
                        lin.g * (reference.g / local.g.max(1e-4)),
                        lin.b * (reference.b / local.b.max(1e-4)),
                    );
                    color = corrected.to_srgb();
                }
                let by_hough = near(cx, cy);
                if !by_hough {
                    recovered += 1;
                }
                wells.push(WellReading {
                    row,
                    col,
                    color,
                    center_px: (cx, cy),
                    found_by_hough: by_hough,
                });
            }
        }

        Ok(PlateReading {
            marker,
            hough_hits: centers.len(),
            grid_recovered: recovered,
            grid_rms_px: rms,
            wells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::{render, PlateScene, Pose};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdl_color::LinRgb;

    fn scene_with_samples(n: usize) -> PlateScene {
        let mut scene = PlateScene::empty_plate();
        let colors = [
            LinRgb::new(0.35, 0.08, 0.08),
            LinRgb::new(0.07, 0.25, 0.10),
            LinRgb::new(0.08, 0.10, 0.40),
            LinRgb::new(0.18, 0.18, 0.19),
        ];
        for i in 0..n {
            let row = i / 12;
            let col = i % 12;
            scene.set_well(row, col, colors[i % colors.len()]);
        }
        scene
    }

    #[test]
    fn full_pipeline_reads_filled_wells() {
        let scene = scene_with_samples(24);
        let img = render(&scene, &mut StdRng::seed_from_u64(7));
        let reading = Detector::default().detect(&img).unwrap();
        assert_eq!(reading.wells.len(), 96);
        assert_eq!(reading.marker.id, 0);
        // Filled wells must be found by Hough directly.
        let first = reading.well(0, 0).unwrap();
        assert!(first.found_by_hough, "filled A1 should be a Hough hit");
        // A dark red well reads as dark red.
        assert!(first.color.r > first.color.g + 30, "A1 color {}", first.color);
        assert_eq!(first.label(), "A1");
    }

    #[test]
    fn empty_wells_are_recovered_by_grid() {
        let scene = scene_with_samples(12);
        let img = render(&scene, &mut StdRng::seed_from_u64(8));
        let reading = Detector::default().detect(&img).unwrap();
        // 84 empty wells have weak edges; most must come from grid recovery.
        // Hough finds nearly every filled well (the odd marginal miss is
        // noise-realization luck on either render path).
        assert!(reading.grid_recovered > 40, "recovered {}", reading.grid_recovered);
        assert!(reading.hough_hits >= 11, "hough hits {}", reading.hough_hits);
        let empty = reading.well(7, 11).unwrap();
        assert!(!empty.found_by_hough);
        assert!(empty.color.r > 180, "empty well color {}", empty.color);
    }

    #[test]
    fn pose_jitter_is_compensated() {
        let mut scene = scene_with_samples(48);
        scene.pose = Pose { dx_px: 5.0, dy_px: -4.0, rot_deg: 1.0 };
        let img = render(&scene, &mut StdRng::seed_from_u64(9));
        let reading = Detector::default().detect(&img).unwrap();
        assert!(reading.grid_rms_px < 2.0, "rms {}", reading.grid_rms_px);
        // Reading a known well still returns its color despite the shift.
        let w = reading.well(0, 0).unwrap();
        assert!(w.color.r > w.color.g + 30, "A1 under jitter: {}", w.color);
    }

    #[test]
    fn reused_scratch_reproduces_fresh_detection() {
        let det = Detector::new(DetectorParams { flat_field: true, ..DetectorParams::default() });
        let mut scratch = DetectorScratch::default();
        for seed in [31u64, 32, 33] {
            let mut scene = scene_with_samples(30);
            scene.pose = Pose { dx_px: 2.0, dy_px: -1.0, rot_deg: 0.4 };
            let img = render(&scene, &mut StdRng::seed_from_u64(seed));
            let fresh = det.detect(&img).unwrap();
            let reused = det.detect_with(&img, &mut scratch).unwrap();
            assert_eq!(fresh, reused, "seed {seed}");
        }
    }

    #[test]
    fn circles_beyond_one_pitch_outside_the_plate_are_not_hits() {
        // A strong well-sized ring on the bench 12–20 mm above or below the
        // plate: Hough finds it, but it lies more than one pitch (9 mm)
        // outside the plate, so it must not count as a hit. Each ring is a
        // dark stroke on a light disk 8 px wider than the ring, so both
        // stroke edges vote. (A dark stroke straight on the dark bench
        // leaves only its inner edge: 204 votes against a threshold of 203,
        // found or lost with the noise draw.) The drawn disk covers every
        // pixel whose edge votes, so the counts do not move with the seed.
        let det = Detector::default();
        for seed in 12..16 {
            let scene = scene_with_samples(24);
            let clean = render(&scene, &mut StdRng::seed_from_u64(seed));
            let base = det.detect(&clean).unwrap();
            let cam = &scene.camera;
            let px_per_mm = base.marker.size_px / det.params.marker.size_mm;
            let well_r_px = det.params.plate.well_radius_mm * px_per_mm;
            let hough = HoughParams {
                r_min: well_r_px * 0.8,
                r_max: well_r_px * 1.25,
                min_center_dist: det.params.plate.pitch_mm * px_per_mm * 0.6,
                max_circles: det.params.plate.well_count() + 16,
                ..HoughParams::default()
            };
            // The vote threshold `hough_circles` applies: a fraction of the
            // circumference at the mid radius times the radius count.
            let radii = (0..).take_while(|&k| hough.r_min + k as f64 <= hough.r_max + 1e-9).count();
            let threshold =
                hough.vote_fraction * 2.0 * std::f64::consts::PI * (hough.r_min + hough.r_max)
                    / 2.0
                    * radii as f64;
            let plate_h = det.params.plate.height_mm;
            for (x_mm, y_mm) in
                [(60.0, -12.5), (35.0, -19.0), (80.0, plate_h + 13.0), (50.0, plate_h + 20.0)]
            {
                let px = (x_mm - cam.look_at_mm.0) * cam.px_per_mm + cam.width_px as f64 / 2.0;
                let py = (y_mm - cam.look_at_mm.1) * cam.px_per_mm + cam.height_px as f64 / 2.0;
                let mut img = clean.clone();
                let light = Rgb8::new(210, 210, 210);
                crate::draw::fill_circle(&mut img, px, py, well_r_px + 8.0, light);
                crate::draw::stroke_circle(&mut img, px, py, well_r_px, 2.0, Rgb8::new(10, 10, 10));
                let found = crate::hough::hough_circles(&img, &hough);
                let ring = found
                    .iter()
                    .find(|c| (c.cx - px).abs() <= 2.0 && (c.cy - py).abs() <= 2.0)
                    .unwrap_or_else(|| {
                        panic!("seed {seed}: Hough must find the ring at ({x_mm}, {y_mm}) mm")
                    });
                assert!(
                    ring.votes as f64 >= 1.5 * threshold,
                    "seed {seed}: ring at ({x_mm}, {y_mm}) mm has {} votes, threshold {threshold}",
                    ring.votes
                );
                let reading = det.detect(&img).unwrap();
                assert_eq!(reading.hough_hits, base.hough_hits, "ring at ({x_mm}, {y_mm}) mm");
            }
        }
    }

    #[test]
    fn missing_marker_is_an_error() {
        let mut scene = scene_with_samples(4);
        // Point the camera far away from the marker.
        scene.camera.look_at_mm = (400.0, 400.0);
        let img = render(&scene, &mut StdRng::seed_from_u64(10));
        assert_eq!(Detector::default().detect(&img), Err(VisionError::MarkerNotFound));
    }

    #[test]
    fn flat_field_correction_reduces_vignette_error() {
        // Strong vignette: readings at plate corners darken; flat-field
        // correction should pull them back toward the truth.
        let mut scene = scene_with_samples(96);
        scene.lighting.vignette = 0.18;
        let img = render(&scene, &mut StdRng::seed_from_u64(21));

        let plain = Detector::default().detect(&img).unwrap();
        let ff_params = DetectorParams { flat_field: true, ..DetectorParams::default() };
        let corrected = Detector::new(ff_params).detect(&img).unwrap();

        let mut err_plain = 0.0;
        let mut err_ff = 0.0;
        for (i, truth) in scene.well_colors.iter().enumerate() {
            let t = truth.unwrap().to_srgb();
            let (row, col) = (i / 12, i % 12);
            err_plain += plain.well(row, col).unwrap().color.distance(t);
            err_ff += corrected.well(row, col).unwrap().color.distance(t);
        }
        assert!(
            err_ff < err_plain,
            "flat field should help under heavy vignette: {err_ff:.0} vs {err_plain:.0}"
        );
    }

    #[test]
    fn ablation_without_grid_alignment_misreads_under_jitter() {
        let mut scene = scene_with_samples(96);
        scene.pose = Pose { dx_px: 0.0, dy_px: 0.0, rot_deg: 1.2 };
        let img = render(&scene, &mut StdRng::seed_from_u64(11));

        let aligned = Detector::default().detect(&img).unwrap();
        let raw_params = DetectorParams { grid_alignment: false, ..DetectorParams::default() };
        let raw = Detector::new(raw_params).detect(&img).unwrap();

        // Compare color error at the far corner (H12), where rotation bites:
        // alignment must beat the naive fixed grid.
        let truth = scene.well_colors[95].unwrap().to_srgb();
        let e_aligned = aligned.well(7, 11).unwrap().color.distance(truth);
        let e_raw = raw.well(7, 11).unwrap().color.distance(truth);
        assert!(
            e_aligned < e_raw,
            "alignment should help at the corner: aligned {e_aligned:.1} vs raw {e_raw:.1}"
        );
    }
}
