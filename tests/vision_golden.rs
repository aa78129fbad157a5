//! Rendered frames and detector readings, pinned byte for byte.
//!
//! The campaign goldens see only well scores, so a render or detector
//! change that moves pixels, marker fits or Hough votes without moving a
//! score would pass them. `tests/data/vision_frames.golden` holds one line
//! per frame of a fixed matrix (fills, every marker id, poses up to the
//! ablation's jitter, each drift kind, heavy vignette and noise, every
//! fidelity, a frame without the marker). Each line records:
//!
//! * a 64-bit FNV-1a digest of the frame bytes;
//! * the `detect_markers` list;
//! * `hough_circles` at the pipeline's parameters;
//! * `Detector::detect`'s reading (marker, `hough_hits`, grid recovery and
//!   RMS, and each well's color, center and Hough flag) or its error.
//!
//! Floats are written as their IEEE bit patterns, so a line matches only
//! when every value is bit-identical. On a mismatch the test writes the
//! whole computed file next to the test binaries and names its path.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdl_lab::color::LinRgb;
use sdl_lab::vision::{
    detect_markers, hough_circles, render, ArucoParams, CameraGeometry, Detector, DetectorParams,
    DriftSpec, Fidelity, HoughParams, ImageRgb8, PlateReading, PlateScene, Pose, VisionError,
};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("data/vision_frames.golden");

/// A scene with `fill` wells filled (row-major from A1) in a fixed palette.
fn filled(fill: usize) -> PlateScene {
    let palette = [
        LinRgb::new(0.35, 0.08, 0.08),
        LinRgb::new(0.07, 0.25, 0.10),
        LinRgb::new(0.08, 0.10, 0.40),
        LinRgb::new(0.18, 0.18, 0.19),
        LinRgb::new(0.55, 0.45, 0.05),
        LinRgb::new(0.03, 0.03, 0.04),
    ];
    let mut scene = PlateScene::empty_plate();
    for i in 0..fill {
        scene.set_well(i / 12, i % 12, palette[i % palette.len()]);
    }
    scene
}

/// The frame matrix: a name and a scene per frame.
fn frames() -> Vec<(String, PlateScene)> {
    let mut out = Vec::new();
    for fill in [0, 4, 24, 60, 96] {
        out.push((format!("fill{fill}"), filled(fill)));
    }
    for id in 1..8 {
        let mut s = filled(24);
        s.marker_id = id;
        out.push((format!("marker{id}"), s));
    }
    // The camera's maximum jitter (±5 px, ±1°), then ablation_vision's.
    for (name, dx, dy, rot) in [
        ("pose_cam_a", 5.0, -5.0, 1.0),
        ("pose_cam_b", -5.0, 5.0, -1.0),
        ("pose_ablation_a", 6.0, -6.0, 1.2),
        ("pose_ablation_b", -6.0, 6.0, -1.2),
    ] {
        let mut s = filled(48);
        s.pose = Pose { dx_px: dx, dy_px: dy, rot_deg: rot };
        out.push((name.to_string(), s));
    }
    for (name, spec) in [
        ("drift_wb", DriftSpec::WB),
        ("drift_gain", DriftSpec::GAIN),
        ("drift_wb_gain", DriftSpec::WB_GAIN),
    ] {
        let mut s = filled(36);
        s.lighting.channel_gain = spec.channel_gain(77, 5);
        out.push((name.to_string(), s));
    }
    let mut heavy = filled(60);
    heavy.lighting.vignette = 0.18;
    heavy.lighting.noise_sigma = 0.03;
    heavy.pose = Pose { dx_px: 2.0, dy_px: -3.0, rot_deg: 0.5 };
    out.push(("heavy_vignette_noise".to_string(), heavy));
    for (name, fill, pose) in [
        ("lowres_fill24", 24, Pose::IDENTITY),
        ("lowres_fill96_pose", 96, Pose { dx_px: -3.0, dy_px: 2.0, rot_deg: -0.7 }),
    ] {
        let mut s = filled(fill);
        s.camera = CameraGeometry::for_fidelity(Fidelity::Lowres);
        s.pose = pose;
        out.push((name.to_string(), s));
    }
    for (name, fill, pose) in [
        ("full_fill24", 24, Pose::IDENTITY),
        ("full_fill60_pose", 60, Pose { dx_px: 4.0, dy_px: 3.0, rot_deg: -0.8 }),
    ] {
        let mut s = filled(fill);
        s.camera = CameraGeometry::for_fidelity(Fidelity::Full);
        s.pose = pose;
        out.push((name.to_string(), s));
    }
    // The camera looks right of the plate's center: the plate stays in
    // view, the marker (left of the plate) does not.
    let mut no_marker = filled(24);
    no_marker.camera.look_at_mm = (90.0, 43.0);
    out.push(("marker_out_of_view".to_string(), no_marker));
    out
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// The Hough parameters `Detector::detect` derives from a marker's size,
/// or from the camera's nominal scale when no marker is decoded.
fn pipeline_hough(params: &DetectorParams, px_per_mm: f64) -> HoughParams {
    let well_r_px = params.plate.well_radius_mm * px_per_mm;
    HoughParams {
        r_min: well_r_px * 0.8,
        r_max: well_r_px * 1.25,
        min_center_dist: params.plate.pitch_mm * px_per_mm * 0.6,
        max_circles: params.plate.well_count() + 16,
        ..params.hough.clone()
    }
}

fn reading_text(result: &Result<PlateReading, VisionError>) -> String {
    let r = match result {
        Ok(r) => r,
        Err(e) => return format!("err={e:?}"),
    };
    let m = &r.marker;
    let mut s = format!(
        "marker={}:{}:{}:{}:{}\though_hits={}\tgrid_recovered={}\tgrid_rms={}\twells=",
        m.id,
        bits(m.center.0),
        bits(m.center.1),
        bits(m.size_px),
        m.rotation,
        r.hough_hits,
        r.grid_recovered,
        bits(r.grid_rms_px)
    );
    for w in &r.wells {
        let _ = write!(
            s,
            "{}{:02x}{:02x}{:02x}:{}:{}:{} ",
            w.label(),
            w.color.r,
            w.color.g,
            w.color.b,
            bits(w.center_px.0),
            bits(w.center_px.1),
            if w.found_by_hough { 'H' } else { 'g' }
        );
    }
    s
}

fn frame_line(name: &str, img: &ImageRgb8, scene: &PlateScene) -> String {
    let params = DetectorParams::default();
    let markers = detect_markers(img, &ArucoParams::default());
    let mut line = format!("{name}\tfnv={:016x}\tmarkers=", fnv1a64(img.bytes()));
    for m in &markers {
        let _ = write!(
            line,
            "{}:{}:{}:{}:{} ",
            m.id,
            bits(m.center.0),
            bits(m.center.1),
            bits(m.size_px),
            m.rotation
        );
    }
    let px_per_mm =
        markers.first().map_or(scene.camera.px_per_mm, |m| m.size_px / params.marker.size_mm);
    let hough = pipeline_hough(&params, px_per_mm);
    let _ = write!(line, "\tcircles@{}=", bits(hough.r_min));
    for c in hough_circles(img, &hough) {
        let _ = write!(line, "{},{},{} ", c.cx, c.cy, c.votes);
    }
    line.push('\t');
    line.push_str(&reading_text(&Detector::new(params).detect(img)));
    line
}

fn computed() -> String {
    let mut out = String::new();
    for (i, (name, scene)) in frames().into_iter().enumerate() {
        let img = render(&scene, &mut StdRng::seed_from_u64(0x5EED_0000 + i as u64));
        out.push_str(frame_line(&name, &img, &scene).trim_end());
        out.push('\n');
    }
    out
}

#[test]
fn frames_and_readings_match_the_recorded_golden() {
    let got = computed();
    if got != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("vision_frames.golden");
        std::fs::write(&path, &got).expect("write the computed golden");
        for (i, (want, have)) in GOLDEN.lines().zip(got.lines()).enumerate() {
            assert_eq!(
                have,
                want,
                "line {} of the vision golden (computed file: {})",
                i + 1,
                path.display()
            );
        }
        assert_eq!(
            got.lines().count(),
            GOLDEN.lines().count(),
            "frame count (computed file: {})",
            path.display()
        );
    }
}
