//! Detector-accuracy regression gate for the counter-based render path.
//!
//! The fast renderer is only allowed to differ from the frozen reference
//! by its noise realization — never systematically. This gate renders a
//! seeded 16-scenario matrix (fill patterns × poses × lighting) through
//! both paths, runs the unchanged §2.4 detection pipeline on each frame,
//! and requires the per-well readings to agree within a tolerance far
//! below the solver-visible signal. A bias in the fast path's transfer
//! curve, noise amplitude, vignette or geometry shows up here as a mean
//! shift long before it would corrupt a campaign.

use sdl_lab::color::LinRgb;
use sdl_lab::desim::RngHub;
use sdl_lab::vision::{
    render_reference, render_tiled, CameraGeometry, Detector, Fidelity, ImageRgb8, PlateScene, Pose,
};

/// One gate scenario: a deterministic scene derived from its index.
fn scenario(i: u64) -> PlateScene {
    use rand::Rng as _;
    let mut scene = PlateScene::empty_plate();
    let mut rng = RngHub::new(0xC0FFEE + i).stream("gate.scene");
    // 24–96 filled wells with varied colors.
    let filled = 24 + (i as usize * 5) % 73;
    for w in 0..filled {
        let color = LinRgb::new(
            rng.gen_range(0.02..0.7),
            rng.gen_range(0.02..0.7),
            rng.gen_range(0.02..0.7),
        );
        scene.set_well(w / 12, w % 12, color);
    }
    scene.pose = Pose {
        dx_px: rng.gen_range(-5.0..=5.0),
        dy_px: rng.gen_range(-5.0..=5.0),
        rot_deg: rng.gen_range(-1.0..=1.0),
    };
    scene.lighting.vignette = rng.gen_range(0.04..0.12);
    scene
}

#[test]
fn fast_path_detections_match_reference_within_tolerance() {
    let detector = Detector::default();
    let mut worst_well = 0.0f64;
    let mut total_mean = 0.0f64;
    for i in 0..16u64 {
        let scene = scenario(i);
        let mut rng = RngHub::new(0xBEEF + i).stream("gate.noise");
        let reference = detector.detect(&render_reference(&scene, &mut rng)).unwrap_or_else(|e| {
            panic!("scenario {i}: reference frame undetectable: {e}");
        });
        let mut fast_frame = ImageRgb8::new(1, 1, Default::default());
        render_tiled(&scene, 0x5EED ^ i, &mut fast_frame, 32);
        let fast = detector.detect(&fast_frame).unwrap_or_else(|e| {
            panic!("scenario {i}: fast frame undetectable: {e}");
        });

        let mut mean = 0.0f64;
        for (r, f) in reference.wells.iter().zip(&fast.wells) {
            assert_eq!((r.row, r.col), (f.row, f.col));
            let d = r.color.distance(f.color);
            worst_well = worst_well.max(d);
            mean += d;
        }
        mean /= reference.wells.len() as f64;
        total_mean += mean;
        assert!(
            mean < 2.0,
            "scenario {i}: mean per-well deviation {mean:.2} RGB units (noise-only \
             disagreement should stay well under 2)"
        );
    }
    total_mean /= 16.0;
    // Independent noise realizations at sigma 0.006 move a ~100-px well
    // mean by a fraction of an RGB unit; systematic render bias would not.
    assert!(total_mean < 1.0, "matrix-wide mean deviation {total_mean:.2}");
    assert!(worst_well < 8.0, "worst single-well deviation {worst_well:.2}");
}

#[test]
fn lowres_profile_degrades_gracefully_not_catastrophically() {
    let detector = Detector::default();
    for i in 0..4u64 {
        let mut scene = scenario(i);
        scene.camera = CameraGeometry::for_fidelity(Fidelity::Lowres);
        let mut frame = ImageRgb8::new(1, 1, Default::default());
        render_tiled(&scene, 0xA5 ^ i, &mut frame, 32);
        let reading = detector
            .detect(&frame)
            .unwrap_or_else(|e| panic!("scenario {i}: lowres frame undetectable: {e}"));
        // Accuracy loosens at quarter resolution but stays usable: compare
        // against scene ground truth.
        let mut mean = 0.0f64;
        let mut n = 0usize;
        for (idx, truth) in scene.well_colors.iter().enumerate() {
            let Some(truth) = truth else { continue };
            let well = reading.well(idx / 12, idx % 12).unwrap();
            mean += well.color.distance(truth.to_srgb());
            n += 1;
        }
        mean /= n as f64;
        assert!(mean < 25.0, "scenario {i}: lowres mean truth error {mean:.1}");
    }
}
