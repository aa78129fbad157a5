//! Property tests for the imaging substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdl_color::{LinRgb, Rgb8};
use sdl_vision::{
    fit_grid, render, render_tiled, Detector, GridModel, ImageRgb8, PlateScene, Pose,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The counter-based render is a pure function of (scene, frame seed):
    /// bit-identical at every tile size, for arbitrary scenes, poses and
    /// odd/even frame widths.
    #[test]
    fn counter_render_is_tile_independent(
        frame_seed in any::<u64>(),
        width in 37usize..96,
        height in 23usize..64,
        dx in -4.0..4.0f64,
        dy in -4.0..4.0f64,
        rot in -1.2..1.2f64,
        fills in proptest::collection::vec((0usize..96, 0.0..0.6f64), 0..6),
    ) {
        let mut scene = PlateScene::empty_plate();
        scene.camera.width_px = width;
        scene.camera.height_px = height;
        scene.pose = Pose { dx_px: dx, dy_px: dy, rot_deg: rot };
        for (idx, shade) in fills {
            scene.set_well(idx / 12, idx % 12, LinRgb::new(shade, 0.1, 0.4 - shade / 2.0));
        }
        let mut baseline = ImageRgb8::new(1, 1, Rgb8::default());
        render_tiled(&scene, frame_seed, &mut baseline, 1);
        for tile_rows in [7usize, 64] {
            let mut img = ImageRgb8::new(3, 5, Rgb8::new(9, 9, 9));
            render_tiled(&scene, frame_seed, &mut img, tile_rows);
            prop_assert_eq!(&img, &baseline, "tile_rows={} diverged", tile_rows);
        }
    }

    /// PPM round-trips any image contents.
    #[test]
    fn ppm_roundtrip(
        w in 1usize..24,
        h in 1usize..24,
        bytes in proptest::collection::vec(any::<u8>(), 3),
    ) {
        let mut img = ImageRgb8::new(w, h, Rgb8::new(bytes[0], bytes[1], bytes[2]));
        img.put(0, 0, Rgb8::new(bytes[2], bytes[0], bytes[1]));
        let back = ImageRgb8::from_ppm(&img.to_ppm()).unwrap();
        prop_assert_eq!(back, img);
    }

    /// BMP output always has the declared file size and magic.
    #[test]
    fn bmp_size_is_consistent(w in 1usize..24, h in 1usize..24) {
        let img = ImageRgb8::new(w, h, Rgb8::new(1, 2, 3));
        let bmp = img.to_bmp();
        prop_assert_eq!(&bmp[0..2], b"BM");
        let declared = u32::from_le_bytes([bmp[2], bmp[3], bmp[4], bmp[5]]) as usize;
        prop_assert_eq!(declared, bmp.len());
    }

    /// Grid fit recovers a known affine grid from noiseless full detections,
    /// for any modest rotation/pitch/origin.
    #[test]
    fn grid_fit_recovers_exactly(
        ox in 80.0..160.0f64,
        oy in 60.0..120.0f64,
        pitch in 25.0..35.0f64,
        rot_deg in -1.5..1.5f64,
    ) {
        let th = rot_deg.to_radians();
        let truth = GridModel {
            origin: (ox, oy),
            u: (pitch * th.cos(), pitch * th.sin()),
            v: (-pitch * th.sin(), pitch * th.cos()),
        };
        let pts: Vec<(f64, f64)> = (0..8)
            .flat_map(|r| (0..12).map(move |c| (r, c)))
            .map(|(r, c)| truth.predict(r, c))
            .collect();
        let approx = GridModel { origin: (ox - 4.0, oy + 4.0), u: (pitch, 0.0), v: (0.0, pitch) };
        let fit = fit_grid(&pts, 8, 12, &approx, 3).unwrap();
        prop_assert!(fit.rms_px < 1e-6, "rms {}", fit.rms_px);
        let (px, py) = fit.model.predict(7, 11);
        let (tx, ty) = truth.predict(7, 11);
        prop_assert!((px - tx).abs() < 1e-6 && (py - ty).abs() < 1e-6);
    }

    /// The full pipeline reads back what the renderer drew: for arbitrary
    /// liquid colors and small poses, every filled well's reading stays
    /// within sensor-noise distance of the truth.
    #[test]
    fn render_detect_roundtrip(
        seed in 0u64..500,
        dx in -4.0..4.0f64,
        dy in -4.0..4.0f64,
        rot in -0.8..0.8f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let mut scene = PlateScene::empty_plate();
        let mut truth = Vec::new();
        for i in 0..24 {
            let c = LinRgb::new(
                rng.gen_range(0.03..0.5),
                rng.gen_range(0.03..0.5),
                rng.gen_range(0.03..0.5),
            );
            scene.set_well(i / 12, i % 12, c);
            truth.push(c);
        }
        scene.pose = Pose { dx_px: dx, dy_px: dy, rot_deg: rot };
        let img = render(&scene, &mut rng);
        let reading = Detector::default().detect(&img).unwrap();
        for (i, t) in truth.iter().enumerate() {
            let w = reading.well(i / 12, i % 12).unwrap();
            let err = w.color.distance(t.to_srgb());
            prop_assert!(err < 25.0, "well {} read {} vs truth {} (err {err:.1})",
                w.label(), w.color, t.to_srgb());
        }
    }
}
