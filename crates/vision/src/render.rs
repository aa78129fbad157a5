//! Synthetic plate-scene renderer — the webcam substitute.
//!
//! Renders what the Logitech camera with its ring light would see: a
//! microplate on a dark bench next to an ArUco marker on white backing,
//! with ring-light vignetting, sensor noise and small pose jitter. The
//! detection pipeline (§2.4) runs unchanged on these frames.
//!
//! # Two render paths
//!
//! The default path ([`Fidelity::Fast`] / [`Fidelity::Lowres`]) derives
//! each pixel's Gaussian noise from `(frame_seed, pixel, channel)` through
//! a 32-bit counter hash keyed by both halves of the frame seed, instead
//! of one sequential RNG stream. Rendering is therefore embarrassingly
//! parallel: [`render_tiled`] splits the frame into row tiles and produces
//! bit-identical bytes at any tile size and thread count. Each Box–Muller
//! pair takes two 24-bit uniforms from the hash, and its `ln`, `sqrt` and
//! sin/cos run in f32 with the pure-arithmetic kernels of
//! `crate::fastmath`, 8 lanes per AVX2 register; the variates are widened
//! to f64 for the light pass. The 24-bit `u1` bounds every variate at
//! `|z| <= 5.77` (an exact normal exceeds that with probability ~8e-9,
//! about 0.007 of a 640×480 frame's 921,600 normals). The per-pixel costs
//! of the old path are gone too — both Box–Muller variates of each pair
//! are consumed, the sRGB encode goes through the [`SrgbQuantizer`]
//! cutpoint table instead of `powf`, and marker/well geometry is hoisted
//! into a per-scene [`SceneIndex`] that colours each row by runs: one span
//! for the marker card, one for the plate split into one run per well
//! cell, with the radius tests only inside a run.
//!
//! The frozen pre-optimization path ([`Fidelity::Full`]) lives in
//! [`crate::reference`] and remains bit-identical to the historical
//! renderer; [`render`] dispatches on [`CameraGeometry::fidelity`].

use crate::aruco::cell_is_white;
use crate::fastmath::{grid_index, ln_f32, noise_hash, sincos_2pi_f32};
use crate::image::ImageRgb8;
use crate::layout::{CameraGeometry, Fidelity, MarkerLayout, PlateLayout};
use crate::reference::render_reference_into;
use rand::Rng;
use sdl_color::{LinRgb, Rgb8, SrgbQuantizer};
use std::ops::Range;
use std::sync::OnceLock;

/// Camera pose jitter for one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Horizontal translation, px.
    pub dx_px: f64,
    /// Vertical translation, px.
    pub dy_px: f64,
    /// In-plane rotation, degrees.
    pub rot_deg: f64,
}

impl Pose {
    /// The unjittered pose.
    pub const IDENTITY: Pose = Pose { dx_px: 0.0, dy_px: 0.0, rot_deg: 0.0 };

    /// Draw a random small pose ("to account for potential shifting in the
    /// camera position", §2.4).
    pub fn jittered(rng: &mut impl Rng, max_shift_px: f64, max_rot_deg: f64) -> Pose {
        Pose {
            dx_px: rng.gen_range(-max_shift_px..=max_shift_px),
            dy_px: rng.gen_range(-max_shift_px..=max_shift_px),
            rot_deg: rng.gen_range(-max_rot_deg..=max_rot_deg),
        }
    }
}

/// Lighting and sensor model.
#[derive(Debug, Clone, PartialEq)]
pub struct Lighting {
    /// Quadratic vignette strength at the frame corner (0 = flat field).
    pub vignette: f64,
    /// Gaussian noise sigma in linear light (per channel).
    pub noise_sigma: f64,
    /// Global illumination gain.
    pub gain: f64,
    /// Per-channel illumination gains (white balance × sensor gain), the
    /// hook the deterministic drift axes ([`crate::DriftSpec`]) set per
    /// frame. `[1.0; 3]` is bit-exactly the undrifted frame; the frozen
    /// [`Fidelity::Full`] reference path ignores this field.
    pub channel_gain: [f64; 3],
}

impl Default for Lighting {
    fn default() -> Self {
        Lighting { vignette: 0.08, noise_sigma: 0.006, gain: 1.0, channel_gain: [1.0; 3] }
    }
}

/// Everything needed to render one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct PlateScene {
    /// True liquid colors by well index (row-major, A1 = 0); `None` = empty.
    pub well_colors: Vec<Option<LinRgb>>,
    /// Which dictionary marker is printed on the rig.
    pub marker_id: usize,
    /// Frame pose jitter.
    pub pose: Pose,
    /// Lighting model.
    pub lighting: Lighting,
    /// Plate geometry.
    pub plate: PlateLayout,
    /// Marker placement.
    pub marker: MarkerLayout,
    /// Camera geometry.
    pub camera: CameraGeometry,
}

impl PlateScene {
    /// A scene with every well empty.
    pub fn empty_plate() -> PlateScene {
        let plate = PlateLayout::default();
        PlateScene {
            well_colors: vec![None; plate.well_count()],
            marker_id: 0,
            pose: Pose::IDENTITY,
            lighting: Lighting::default(),
            plate,
            marker: MarkerLayout::default(),
            camera: CameraGeometry::default(),
        }
    }

    /// Set one well's liquid color.
    pub fn set_well(&mut self, row: usize, col: usize, color: LinRgb) {
        let idx = row * self.plate.cols + col;
        self.well_colors[idx] = Some(color);
    }
}

// Scene material colors, in linear light.
pub(crate) const BENCH: LinRgb = LinRgb::new(0.022, 0.023, 0.025);
/// Reflectance of the plate body material — rig knowledge usable as a
/// white-balance reference by the detector's flat-field correction.
pub const PLATE_BODY_REFLECTANCE: LinRgb = LinRgb::new(0.62, 0.62, 0.64);
pub(crate) const PLATE_BODY: LinRgb = PLATE_BODY_REFLECTANCE;
pub(crate) const EMPTY_WELL: LinRgb = LinRgb::new(0.75, 0.75, 0.76);
pub(crate) const WELL_WALL: LinRgb = LinRgb::new(0.045, 0.045, 0.048);
pub(crate) const MARKER_WHITE: LinRgb = LinRgb::new(0.92, 0.92, 0.92);
pub(crate) const MARKER_BLACK: LinRgb = LinRgb::new(0.012, 0.012, 0.012);

/// Width of the dark rim drawn around *filled* wells, mm. Empty wells get no
/// rim, which is what makes HoughCircles prone to false negatives on them.
pub(crate) const WALL_MM: f64 = 0.7;

/// Default row-tile height for the counter-based path: tall enough to
/// amortize dispatch, short enough to load-balance across a worker pool.
const DEFAULT_TILE_ROWS: usize = 32;

/// The process-wide sRGB cutpoint table (built once, ~16 µs).
fn quantizer() -> &'static SrgbQuantizer {
    static Q: OnceLock<SrgbQuantizer> = OnceLock::new();
    Q.get_or_init(SrgbQuantizer::new)
}

/// Worker threads the default render entry points use for tiling: the
/// `SDL_RENDER_THREADS` environment variable, else 1. Campaign workers
/// already saturate the cores with whole scenarios, so intra-frame
/// parallelism is opt-in; frames are bit-identical at any setting.
fn configured_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("SDL_RENDER_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

/// Render the scene to an 8-bit frame.
///
/// Dispatches on [`CameraGeometry::fidelity`]: `full` runs the frozen
/// sequential reference path (consuming `rng` exactly as the historical
/// renderer did); `fast`/`lowres` draw one `frame_seed` word from `rng`
/// and evaluate the counter-based noise field.
pub fn render(scene: &PlateScene, rng: &mut impl Rng) -> ImageRgb8 {
    let mut img = ImageRgb8::new(scene.camera.width_px, scene.camera.height_px, Rgb8::default());
    render_into(scene, rng, &mut img);
    img
}

/// Render the scene into an existing frame buffer (resized as needed),
/// avoiding the per-frame megabyte allocation of [`render`]. Every pixel is
/// overwritten and the RNG is consumed identically, so the frame is
/// bit-identical to a freshly allocated render.
pub fn render_into(scene: &PlateScene, rng: &mut impl Rng, img: &mut ImageRgb8) {
    match scene.camera.fidelity {
        Fidelity::Full => render_reference_into(scene, rng, img),
        Fidelity::Fast | Fidelity::Lowres => {
            let frame_seed = rng.next_u64();
            render_tiled(scene, frame_seed, img, DEFAULT_TILE_ROWS, configured_threads());
        }
    }
}

/// The counter-based render path with explicit tiling: split the frame
/// into `tile_rows`-row tiles and render them across `threads` workers.
///
/// The output is a pure function of `(scene, frame_seed)` — **bit-identical
/// for every `tile_rows` ≥ 1 and `threads` ≥ 1** — because each pixel's
/// noise comes from the order-independent counter field, not from a shared
/// sequential stream. This is the property the tile/order-independence
/// suite pins.
pub fn render_tiled(
    scene: &PlateScene,
    frame_seed: u64,
    img: &mut ImageRgb8,
    tile_rows: usize,
    threads: usize,
) {
    let w = scene.camera.width_px;
    let h = scene.camera.height_px;
    if img.width() != w || img.height() != h {
        img.reset(w, h, Rgb8::default());
    }
    let tile_rows = tile_rows.max(1);
    let frame = FramePlan::new(scene, frame_seed);

    let tile_bytes = tile_rows * w * 3;
    if threads <= 1 || h <= tile_rows {
        for (t, tile) in img.bytes_mut().chunks_mut(tile_bytes).enumerate() {
            frame.render_rows(t * tile_rows, tile);
        }
        return;
    }

    // Deal tiles round-robin onto the workers: consecutive tiles land on
    // different threads, which load-balances the (slightly) cheaper bench
    // rows at the frame edges.
    let mut buckets: Vec<Vec<(usize, &mut [u8])>> = (0..threads).map(|_| Vec::new()).collect();
    for (t, tile) in img.bytes_mut().chunks_mut(tile_bytes).enumerate() {
        buckets[t % threads].push((t, tile));
    }
    std::thread::scope(|scope| {
        for bucket in buckets {
            let frame = &frame;
            scope.spawn(move || {
                for (t, tile) in bucket {
                    frame.render_rows(t * tile_rows, tile);
                }
            });
        }
    });
}

/// What the counter path derives once per frame and every tile reads: the
/// scene index, the pose transform, the lighting constants and the
/// row-independent column factors.
struct FramePlan<'a> {
    scene: &'a PlateScene,
    index: SceneIndex,
    quant: &'static SrgbQuantizer,
    /// The frame seed's low and high halves, which key the noise hash.
    noise_key: [u32; 2],
    /// Frame-center offset after the pose shift, px.
    cx: f64,
    cy: f64,
    sin_t: f64,
    cos_t: f64,
    /// Vignette strength over the squared corner distance.
    vig_b: f64,
    /// Per output byte `3·px + c`: the vignette term `vig_b·rx²` of column
    /// `px`. `rx` advances by the same `+= 1.0` steps on every row, so the
    /// term is row-independent.
    col_vig: Vec<f64>,
    /// Per output byte `3·px + c`: the illumination gain of channel `c`.
    col_gain: Vec<f64>,
}

impl<'a> FramePlan<'a> {
    fn new(scene: &'a PlateScene, frame_seed: u64) -> FramePlan<'a> {
        let w = scene.camera.width_px;
        let h = scene.camera.height_px;
        let cx = w as f64 / 2.0 + scene.pose.dx_px;
        let cy = h as f64 / 2.0 + scene.pose.dy_px;
        let (sin_t, cos_t) = scene.pose.rot_deg.to_radians().sin_cos();
        let corner_d2 = {
            let dx = w as f64 / 2.0;
            let dy = h as f64 / 2.0;
            dx * dx + dy * dy
        };
        // Vignette gain as a row-constant minus a pure rx² term.
        let vig_b = scene.lighting.gain * scene.lighting.vignette / corner_d2;
        let mut col_vig = Vec::with_capacity(3 * w);
        let mut rx = 0.5 - cx;
        for _ in 0..w {
            let q = vig_b * rx * rx;
            col_vig.extend([q; 3]);
            rx += 1.0;
        }
        let col_gain = scene.lighting.channel_gain.repeat(w);
        FramePlan {
            scene,
            index: SceneIndex::new(scene),
            quant: quantizer(),
            noise_key: [frame_seed as u32, (frame_seed >> 32) as u32],
            cx,
            cy,
            sin_t,
            cos_t,
            vig_b,
            col_vig,
            col_gain,
        }
    }

    /// The scene point (plate-local mm) of each pixel center of the row at
    /// `ry` px below the shifted frame center: walking one pixel right
    /// moves the point by a fixed mm step, accumulated by `+=` (the frame
    /// bytes depend on these exact sums).
    fn row_positions(&self, ry: f64, xs: &mut [f64], ys: &mut [f64]) {
        let cam = &self.scene.camera;
        let inv_s = 1.0 / cam.px_per_mm;
        let (sin_t, cos_t) = (self.sin_t, self.cos_t);
        let (step_x, step_y) = (cos_t * inv_s, -sin_t * inv_s);
        let rx0 = 0.5 - self.cx;
        let mut mm_x = (rx0 * cos_t + ry * sin_t) * inv_s + cam.look_at_mm.0;
        let mut mm_y = (-rx0 * sin_t + ry * cos_t) * inv_s + cam.look_at_mm.1;
        for (x, y) in xs.iter_mut().zip(ys) {
            (*x, *y) = (mm_x, mm_y);
            mm_x += step_x;
            mm_y += step_y;
        }
    }

    /// Render rows `[row0, row0 + rows)` of the frame into `out` (the
    /// tile's interleaved RGB bytes; its length determines the row count).
    ///
    /// Each row first fills its base colours by runs
    /// ([`SceneIndex::fill_row`]). It is then cut into segments of
    /// [`SEGMENT_BYTES`] output bytes, and each segment runs three passes:
    /// noise, a branch-free light pass, then the sRGB encode. A segment's
    /// buffers stay in L1 between passes.
    fn render_rows(&self, row0: usize, out: &mut [u8]) {
        let scene = self.scene;
        let cam = &scene.camera;
        let w = cam.width_px;
        debug_assert_eq!(out.len() % (w * 3), 0);
        let sigma = scene.lighting.noise_sigma;

        // Noise indexing: channel `c` of pixel `(px, py)` consumes standard
        // normal `3·px + c` of row `py`; Box–Muller pair `j` of a row yields
        // normals `2j` and `2j + 1` (both variates used), and rows advance
        // the global pair counter by a fixed stride. Rows are never split
        // across tiles, so every tile can evaluate its rows' pairs
        // independently.
        let pairs_per_row = (3 * w).div_ceil(2);
        let mut z = [0.0f64; SEGMENT_BYTES];
        let mut lin = [0.0f64; SEGMENT_BYTES];
        let (mut xs, mut ys) = (vec![0.0f64; w], vec![0.0f64; w]);
        let mut base = vec![0.0f64; 3 * w];

        for (r, row_bytes) in out.chunks_exact_mut(w * 3).enumerate() {
            let py = row0 + r;
            let row_base = py as u64 * pairs_per_row as u64;
            let ry = py as f64 + 0.5 - self.cy;
            self.row_positions(ry, &mut xs, &mut ys);
            self.index.fill_row(&xs, &ys, &mut base);
            let gain_row = scene.lighting.gain - self.vig_b * ry * ry;

            for (s, seg_bytes) in row_bytes.chunks_mut(SEGMENT_BYTES).enumerate() {
                let n = seg_bytes.len();
                let first_pair = row_base + (s * SEGMENT_BYTES / 2) as u64;
                let chunks =
                    z[..n.next_multiple_of(2 * NOISE_CHUNK)].chunks_exact_mut(2 * NOISE_CHUNK);
                for (ci, chunk) in chunks.enumerate() {
                    noise_chunk(
                        self.noise_key,
                        first_pair + (ci * NOISE_CHUNK) as u64,
                        chunk.try_into().expect("chunk size"),
                    );
                }

                let cols = s * SEGMENT_BYTES..s * SEGMENT_BYTES + n;
                let (vig, gain) = (&self.col_vig[cols.clone()], &self.col_gain[cols.clone()]);
                let (lin, base, z) = (&mut lin[..n], &base[cols], &z[..n]);
                for i in 0..n {
                    lin[i] =
                        (base[i] * (gain_row - vig[i]) * gain[i] + sigma * z[i]).clamp(0.0, 1.0);
                }
                self.quant.encode_row(lin, seg_bytes);
            }
        }
    }
}

/// Output bytes per row segment: whole pixels (a multiple of 3) and whole
/// noise chunks (a multiple of `2 · NOISE_CHUNK` normals).
const SEGMENT_BYTES: usize = 3 * 2 * NOISE_CHUNK;

/// Box–Muller pairs per generation chunk: large enough that the hash,
/// log/sqrt and phase passes each auto-vectorize over plain arrays.
const NOISE_CHUNK: usize = 64;

/// Evaluate counter-stream Box–Muller pairs `j0 .. j0 + NOISE_CHUNK`,
/// writing both variates of pair `k` to `z[2k]` / `z[2k + 1]`.
///
/// Pair `j` takes 24 bits of hash words `2j` and `2j + 1` (counters mod
/// 2^32): `u1 = (a + 1)·2^-24` in (0, 1] and the phase `b·2^-24` in
/// [0, 1). Three branch-free array passes (hash, radius, phase) run in
/// f32 and 8 lanes per AVX2 register; the variates are widened to f64 for
/// the light pass. The smallest `u1` bounds every variate at
/// `|z| <= sqrt(48·ln 2) ≈ 5.77`.
#[inline]
fn noise_chunk(key: [u32; 2], j0: u64, z: &mut [f64; 2 * NOISE_CHUNK]) {
    let c0 = (j0 as u32).wrapping_mul(2);
    let mut u1 = [0.0f32; NOISE_CHUNK];
    let mut phase = [0u32; NOISE_CHUNK];
    for (k, (u1, phase)) in u1.iter_mut().zip(&mut phase).enumerate() {
        let c = c0.wrapping_add(2 * k as u32);
        // At most 2^24, so the conversion is exact and takes the signed form.
        *u1 = ((noise_hash(key, c) >> 8) + 1) as i32 as f32 * (1.0 / (1 << 24) as f32);
        *phase = noise_hash(key, c.wrapping_add(1)) >> 8;
    }
    let mut radius = [0.0f32; NOISE_CHUNK];
    for (r, u1) in radius.iter_mut().zip(&u1) {
        *r = (-2.0 * ln_f32(*u1)).sqrt();
    }
    for (k, (phase, r)) in phase.iter().zip(&radius).enumerate() {
        let (s, c) = sincos_2pi_f32(*phase);
        z[2 * k] = (r * c) as f64;
        z[2 * k + 1] = (r * s) as f64;
    }
}

/// Per-scene geometry hoisted out of the pixel loop: marker cells resolved
/// into a flat color grid, wells into squared-radius material spans. Built
/// once per frame; [`SceneIndex::fill_row`] then colours a row by runs,
/// without rectangle re-tests, divisions or square roots per pixel.
struct SceneIndex {
    // Marker backing card (quiet zone included): an 8×8 color grid.
    mk_x: f64,
    mk_y: f64,
    mk_size: f64,
    mk_inv_cell: f64,
    mk_grid: [LinRgb; 64],
    // Plate bounds and well grid.
    plate_w: f64,
    plate_h: f64,
    a1_x: f64,
    a1_y: f64,
    inv_pitch: f64,
    max_col: f64,
    max_row: f64,
    cols: usize,
    wells: Vec<WellSpan>,
}

/// One well's precomputed material data.
#[derive(Clone, Copy)]
struct WellSpan {
    cx: f64,
    cy: f64,
    /// Squared liquid/empty-well radius.
    r2_inner: f64,
    /// Squared outer wall radius (== `r2_inner` for empty wells, which
    /// draw no rim).
    r2_wall: f64,
    inner: LinRgb,
}

impl SceneIndex {
    fn new(scene: &PlateScene) -> SceneIndex {
        let mk = &scene.marker;
        let cell = mk.size_mm / 6.0;
        let mut mk_grid = [MARKER_WHITE; 64];
        for row in 0..6 {
            for col in 0..6 {
                mk_grid[(row + 1) * 8 + (col + 1)] = if cell_is_white(scene.marker_id, row, col) {
                    MARKER_WHITE
                } else {
                    MARKER_BLACK
                };
            }
        }

        let p = &scene.plate;
        let r2_inner = p.well_radius_mm * p.well_radius_mm;
        let r_wall = p.well_radius_mm + WALL_MM;
        let mut wells = Vec::with_capacity(p.well_count());
        for row in 0..p.rows {
            for col in 0..p.cols {
                let (cx, cy) = p.well_center_mm(row, col);
                let (inner, r2_wall) =
                    match scene.well_colors.get(row * p.cols + col).copied().flatten() {
                        Some(liquid) => (liquid, r_wall * r_wall),
                        None => (EMPTY_WELL, r2_inner),
                    };
                wells.push(WellSpan { cx, cy, r2_inner, r2_wall, inner });
            }
        }

        SceneIndex {
            mk_x: mk.offset_x_mm - cell,
            mk_y: mk.offset_y_mm - cell,
            mk_size: mk.size_mm + 2.0 * cell,
            mk_inv_cell: 1.0 / cell,
            mk_grid,
            plate_w: p.width_mm,
            plate_h: p.height_mm,
            a1_x: p.a1_x_mm,
            a1_y: p.a1_y_mm,
            inv_pitch: 1.0 / p.pitch_mm,
            max_col: (p.cols - 1) as f64,
            max_row: (p.rows - 1) as f64,
            cols: p.cols,
            wells,
        }
    }

    /// Fill one row's base colours, `base[3·i + c]` for pixel `i`, with
    /// the material at scene point `(xs[i], ys[i])`: exactly
    /// `material(xs[i], ys[i])` for every pixel.
    ///
    /// Along a row each coordinate moves by one fixed step (a `+=` chain,
    /// and `fl(v + step)` is monotone in `v`), so every bound test below is
    /// monotone in `i` and holds on a prefix or a suffix of the row. The
    /// marker card and the plate therefore cover one span each, found by
    /// binary search. The nearest-well column and row are monotone too, so
    /// the plate span splits into one run per well cell, and only inside a
    /// run do the radius tests run per pixel.
    fn fill_row(&self, xs: &[f64], ys: &[f64], base: &mut [f64]) {
        let n = xs.len();
        let marker = [
            holds_on(xs, |x| x - self.mk_x >= 0.0),
            holds_on(xs, |x| x - self.mk_x < self.mk_size),
            holds_on(ys, |y| y - self.mk_y >= 0.0),
            holds_on(ys, |y| y - self.mk_y < self.mk_size),
        ]
        .into_iter()
        .fold(0..n, meet);
        let plate = [
            holds_on(xs, |x| x >= 0.0),
            holds_on(xs, |x| x < self.plate_w),
            holds_on(ys, |y| y >= 0.0),
            holds_on(ys, |y| y < self.plate_h),
        ]
        .into_iter()
        .fold(0..n, meet);

        // The marker card takes precedence over the plate.
        for part in [0..marker.start, marker.end..n] {
            let on_plate = meet(part.clone(), plate.clone());
            fill(&mut base[3 * part.start..3 * on_plate.start], BENCH);
            self.fill_plate(xs, ys, on_plate.clone(), base);
            fill(&mut base[3 * on_plate.end..3 * part.end], BENCH);
        }
        for i in marker {
            let gx = (((xs[i] - self.mk_x) * self.mk_inv_cell) as usize).min(7);
            let gy = (((ys[i] - self.mk_y) * self.mk_inv_cell) as usize).min(7);
            let m = self.mk_grid[gy * 8 + gx];
            base[3 * i..3 * i + 3].copy_from_slice(&[m.r, m.g, m.b]);
        }
    }

    /// The plate part of [`SceneIndex::fill_row`]: pixels `span` all lie on
    /// the plate and off the marker card.
    fn fill_plate(&self, xs: &[f64], ys: &[f64], span: Range<usize>, base: &mut [f64]) {
        if span.is_empty() {
            return;
        }
        // Well pitches moved per pixel, to guess where each run ends.
        let n = xs.len();
        let per_px = |vs: &[f64]| (vs[n - 1] - vs[0]) / (n - 1) as f64 * self.inv_pitch;
        let (du, dv) = (per_px(xs), per_px(ys));
        let mut i = span.start;
        while i < span.end {
            // One run: the pixels from `i` on whose nearest well is `i`'s.
            // `same` holds on a prefix of `i..span.end`; a guess from the
            // geometry lands within a pixel or two of its end, and walking
            // from the guess finds the exact end.
            let (col, row) = (self.col_of(xs[i]), self.row_of(ys[i]));
            let same = |k: usize| self.col_of(xs[k]) == col && self.row_of(ys[k]) == row;
            let ahead =
                pixels_to_next_cell((xs[i] - self.a1_x) * self.inv_pitch, col, self.max_col, du)
                    .min(pixels_to_next_cell(
                        (ys[i] - self.a1_y) * self.inv_pitch,
                        row,
                        self.max_row,
                        dv,
                    ))
                    .min((span.end - i) as f64);
            let mut end = (i + ahead.ceil() as usize).clamp(i + 1, span.end);
            while end < span.end && same(end) {
                end += 1;
            }
            while end > i + 1 && !same(end - 1) {
                end -= 1;
            }
            let well = &self.wells[grid_index(row) * self.cols + grid_index(col)];
            // Liquid (or empty-well) disk, wall ring, or plate body: with
            // `r2_inner <= r2_wall`, the number of radii a pixel lies beyond
            // picks the material without a branch.
            let palette = [well.inner, WELL_WALL, PLATE_BODY];
            let run = (&xs[i..end], &ys[i..end]);
            for (px, (x, y)) in
                base[3 * i..3 * end].chunks_exact_mut(3).zip(run.0.iter().zip(run.1))
            {
                let dx = x - well.cx;
                let dy = y - well.cy;
                let d2 = dx * dx + dy * dy;
                let m = palette[(d2 > well.r2_inner) as usize + (d2 > well.r2_wall) as usize];
                px.copy_from_slice(&[m.r, m.g, m.b]);
            }
            i = end;
        }
    }

    /// The nearest well column of scene x-coordinate `x` on the plate, as
    /// an integer-valued float.
    #[inline]
    fn col_of(&self, x: f64) -> f64 {
        ((x - self.a1_x) * self.inv_pitch).round().clamp(0.0, self.max_col)
    }

    /// The nearest well row of scene y-coordinate `y` on the plate, as an
    /// integer-valued float.
    #[inline]
    fn row_of(&self, y: f64) -> f64 {
        ((y - self.a1_y) * self.inv_pitch).round().clamp(0.0, self.max_row)
    }

    /// The material color at a scene point (plate-local mm coordinates),
    /// one point at a time: the oracle [`SceneIndex::fill_row`] is tested
    /// against.
    #[cfg(test)]
    fn material(&self, x: f64, y: f64) -> LinRgb {
        // Marker backing card (cells and quiet zone share the grid).
        let ux = x - self.mk_x;
        let uy = y - self.mk_y;
        if ux >= 0.0 && ux < self.mk_size && uy >= 0.0 && uy < self.mk_size {
            let gx = ((ux * self.mk_inv_cell) as usize).min(7);
            let gy = ((uy * self.mk_inv_cell) as usize).min(7);
            return self.mk_grid[gy * 8 + gx];
        }

        // Plate: nearest well by grid rounding, then squared-distance spans.
        if x >= 0.0 && x < self.plate_w && y >= 0.0 && y < self.plate_h {
            let (col, row) = (grid_index(self.col_of(x)), grid_index(self.row_of(y)));
            let well = &self.wells[row * self.cols + col];
            let dx = x - well.cx;
            let dy = y - well.cy;
            let d2 = dx * dx + dy * dy;
            if d2 <= well.r2_inner {
                return well.inner;
            }
            if d2 <= well.r2_wall {
                return WELL_WALL;
            }
            return PLATE_BODY;
        }

        BENCH
    }
}

/// The index range of `vs` where `pred` holds, for a monotone sequence
/// `vs` and a `pred` monotone in its argument: such a `pred` holds on a
/// prefix or on a suffix of `vs`, so its ends decide which.
fn holds_on(vs: &[f64], pred: impl Fn(f64) -> bool) -> Range<usize> {
    match (vs.first().map(|&v| pred(v)), vs.last().map(|&v| pred(v))) {
        (Some(true), Some(true)) => 0..vs.len(),
        (Some(true), Some(false)) => 0..vs.partition_point(|&v| pred(v)),
        (Some(false), Some(true)) => vs.partition_point(|&v| !pred(v))..vs.len(),
        _ => 0..0,
    }
}

/// Pixels until the cell index `c` of a point at cell coordinate `u`
/// changes, moving `du` cells per pixel, where indices round to the nearest
/// integer and clamp to `0..=max`; infinite when it never changes.
fn pixels_to_next_cell(u: f64, c: f64, max: f64, du: f64) -> f64 {
    if du > 0.0 && c < max {
        (c + 0.5 - u) / du
    } else if du < 0.0 && c > 0.0 {
        (c - 0.5 - u) / du
    } else {
        f64::INFINITY
    }
}

/// The intersection of two index ranges, as a sub-range of `a` (empty
/// ranges keep a start inside `a`).
fn meet(a: Range<usize>, b: Range<usize>) -> Range<usize> {
    let start = a.start.max(b.start).min(a.end);
    start..a.end.min(b.end).max(start)
}

/// Fill interleaved RGB floats with one colour.
fn fill(base: &mut [f64], m: LinRgb) {
    for px in base.chunks_exact_mut(3) {
        px.copy_from_slice(&[m.r, m.g, m.b]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::render_reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn renders_expected_frame_size() {
        let scene = PlateScene::empty_plate();
        let img = render(&scene, &mut rng());
        assert_eq!(img.width(), 640);
        assert_eq!(img.height(), 480);
    }

    #[test]
    fn well_centers_show_liquid_color() {
        let mut scene = PlateScene::empty_plate();
        scene.lighting.noise_sigma = 0.0;
        scene.lighting.vignette = 0.0;
        // A strongly red liquid in well C4 (row 2, col 3).
        scene.set_well(2, 3, LinRgb::new(0.5, 0.05, 0.05));
        let img = render(&scene, &mut rng());
        // Project the well center to pixels at identity pose.
        let cam = &scene.camera;
        let (mx, my) = scene.plate.well_center_mm(2, 3);
        let px = (mx - cam.look_at_mm.0) * cam.px_per_mm + cam.width_px as f64 / 2.0;
        let py = (my - cam.look_at_mm.1) * cam.px_per_mm + cam.height_px as f64 / 2.0;
        let (mean, n) = img.mean_disk(px, py, 5.0);
        assert!(n > 50);
        assert!(mean.r > 150 && mean.g < 100, "well color {mean}");
    }

    #[test]
    fn empty_wells_are_light() {
        let mut scene = PlateScene::empty_plate();
        scene.lighting.noise_sigma = 0.0;
        let img = render(&scene, &mut rng());
        let cam = &scene.camera;
        let (mx, my) = scene.plate.well_center_mm(0, 0);
        let px = (mx - cam.look_at_mm.0) * cam.px_per_mm + cam.width_px as f64 / 2.0;
        let py = (my - cam.look_at_mm.1) * cam.px_per_mm + cam.height_px as f64 / 2.0;
        let (mean, _) = img.mean_disk(px, py, 4.0);
        assert!(mean.r > 180, "empty well should be light, got {mean}");
    }

    #[test]
    fn marker_appears_black_and_white() {
        let scene = PlateScene::empty_plate();
        let img = render(&scene, &mut rng());
        let found = crate::aruco::detect_markers(&img, &crate::aruco::ArucoParams::default());
        assert_eq!(found.len(), 1, "marker must be detectable in a rendered frame");
        assert_eq!(found[0].id, 0);
    }

    #[test]
    fn pose_jitter_moves_the_marker() {
        let mut scene = PlateScene::empty_plate();
        let img1 = render(&scene, &mut rng());
        // Pure translation: rotation would additionally swing the marker,
        // which sits far from the frame center.
        scene.pose = Pose { dx_px: 8.0, dy_px: -5.0, rot_deg: 0.0 };
        let img2 = render(&scene, &mut rng());
        let p = crate::aruco::ArucoParams::default();
        let m1 = &crate::aruco::detect_markers(&img1, &p)[0];
        let m2 = &crate::aruco::detect_markers(&img2, &p)[0];
        assert!((m2.center.0 - m1.center.0 - 8.0).abs() < 2.5);
        assert!((m2.center.1 - m1.center.1 + 5.0).abs() < 2.5);
    }

    #[test]
    fn noise_changes_between_frames_but_seed_reproduces() {
        let scene = PlateScene::empty_plate();
        let a = render(&scene, &mut StdRng::seed_from_u64(1));
        let b = render(&scene, &mut StdRng::seed_from_u64(1));
        let c = render(&scene, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn render_into_recycled_buffer_is_bit_identical() {
        let scene = PlateScene::empty_plate();
        let fresh = render(&scene, &mut StdRng::seed_from_u64(5));
        // A stale buffer of the wrong shape and garbage contents.
        let mut buf = ImageRgb8::new(3, 2, Rgb8::new(9, 9, 9));
        render_into(&scene, &mut StdRng::seed_from_u64(5), &mut buf);
        assert_eq!(buf, fresh);
        // Re-render into the now right-sized buffer: still identical.
        render_into(&scene, &mut StdRng::seed_from_u64(5), &mut buf);
        assert_eq!(buf, fresh);
    }

    #[test]
    fn unit_channel_gain_is_bit_identical_to_the_undrifted_frame() {
        // `x * 1.0` is an exact IEEE identity, so the drift hook at its
        // neutral setting must not change a single byte — this is what
        // keeps default campaigns golden-stable.
        let mut scene = PlateScene::empty_plate();
        scene.set_well(2, 3, LinRgb::new(0.5, 0.05, 0.05));
        let baseline = render(&scene, &mut StdRng::seed_from_u64(11));
        scene.lighting.channel_gain = [1.0, 1.0, 1.0];
        assert_eq!(render(&scene, &mut StdRng::seed_from_u64(11)), baseline);
    }

    #[test]
    fn channel_gain_tints_the_frame() {
        let mut scene = PlateScene::empty_plate();
        scene.lighting.noise_sigma = 0.0;
        let neutral = render(&scene, &mut StdRng::seed_from_u64(11));
        scene.lighting.channel_gain = [1.1, 1.0, 0.9];
        let tinted = render(&scene, &mut StdRng::seed_from_u64(11));
        assert_ne!(neutral, tinted);
        // The plate body (a near-neutral gray) must read warmer.
        let (n_mean, _) = neutral.mean_disk(320.0, 240.0, 30.0);
        let (t_mean, _) = tinted.mean_disk(320.0, 240.0, 30.0);
        assert!(t_mean.r >= n_mean.r && t_mean.b <= n_mean.b, "{n_mean} -> {t_mean}");
        assert!(t_mean.r as i32 - t_mean.b as i32 > n_mean.r as i32 - n_mean.b as i32);
    }

    #[test]
    fn pose_jitter_is_bounded() {
        let mut r = rng();
        for _ in 0..100 {
            let p = Pose::jittered(&mut r, 6.0, 1.2);
            assert!(p.dx_px.abs() <= 6.0 && p.dy_px.abs() <= 6.0 && p.rot_deg.abs() <= 1.2);
        }
    }

    #[test]
    fn full_fidelity_dispatches_to_the_reference_path() {
        let mut scene = PlateScene::empty_plate();
        scene.camera = CameraGeometry::for_fidelity(Fidelity::Full);
        let via_dispatch = render(&scene, &mut StdRng::seed_from_u64(9));
        let direct = render_reference(&scene, &mut StdRng::seed_from_u64(9));
        assert_eq!(via_dispatch, direct);
        // And the fast path differs (statistically equivalent, not equal).
        scene.camera.fidelity = Fidelity::Fast;
        assert_ne!(render(&scene, &mut StdRng::seed_from_u64(9)), direct);
    }

    #[test]
    fn lowres_profile_renders_quarter_frames_the_detector_still_reads() {
        let mut scene = PlateScene::empty_plate();
        scene.camera = CameraGeometry::for_fidelity(Fidelity::Lowres);
        scene.set_well(2, 3, LinRgb::new(0.5, 0.05, 0.05));
        let img = render(&scene, &mut rng());
        assert_eq!((img.width(), img.height()), (320, 240));
        let reading = crate::pipeline::Detector::default().detect(&img).unwrap();
        let well = reading.well(2, 3).unwrap();
        assert!(well.color.r > well.color.g + 40, "C4 at lowres: {}", well.color);
    }

    #[test]
    fn row_runs_match_the_per_pixel_material_lookup() {
        // Random plates (0–96 filled wells), poses far past the camera's
        // jitter (±40 px, ±30°) and every third frame at lowres: each row's
        // run fill must equal the per-pixel lookup at every pixel.
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(0x5CA1E);
        let (mut checked, mut marker_rows) = (0usize, 0usize);
        for f in 0..96 {
            let mut scene = PlateScene::empty_plate();
            if f % 3 == 2 {
                scene.camera = CameraGeometry::for_fidelity(Fidelity::Lowres);
            }
            scene.marker_id = f % 8;
            for w in 0..rng.gen_range(0..=96usize) {
                let c = LinRgb::new(rng.gen_range(0.0..0.7), rng.gen_range(0.0..0.7), 0.2);
                scene.set_well(w / 12, w % 12, c);
            }
            scene.pose = Pose::jittered(&mut rng, 40.0, 30.0);
            let plan = FramePlan::new(&scene, 0);
            let w = scene.camera.width_px;
            let (mut xs, mut ys, mut base) = (vec![0.0; w], vec![0.0; w], vec![0.0; 3 * w]);
            for py in 0..scene.camera.height_px {
                plan.row_positions(py as f64 + 0.5 - plan.cy, &mut xs, &mut ys);
                plan.index.fill_row(&xs, &ys, &mut base);
                let mut on_marker = false;
                for (i, px) in base.chunks_exact(3).enumerate() {
                    let m = plan.index.material(xs[i], ys[i]);
                    assert_eq!(px, [m.r, m.g, m.b], "frame {f}, pixel ({i}, {py})");
                    on_marker |= m == MARKER_BLACK;
                }
                marker_rows += on_marker as usize;
                checked += w;
            }
        }
        assert!(checked > 15_000_000 && marker_rows > 1000, "{checked} px, {marker_rows}");
    }

    /// The standard normal CDF, through the Chebyshev fit of `erfc` in
    /// Numerical Recipes (fractional error below 1.2e-7).
    fn normal_cdf(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let erfc = t * poly.exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn noise_sampler_matches_the_standard_normal() {
        // 2^22 normals from each of two frame seeds, in the order a row
        // consumes them. Each statistic is bounded at about five standard
        // errors of its value under an exact N(0, 1) sample, so a biased
        // hash, a wrong kernel or a lost variate fails, and noise does not.
        const N: usize = 1 << 22;
        let se = |v: f64| 5.0 * (v / N as f64).sqrt();
        for seed in [0x5EED_0000_0000_0001u64, 0x0123_4567_89ab_cdef] {
            let key = [seed as u32, (seed >> 32) as u32];
            let mut zs = Vec::with_capacity(N);
            let mut chunk = [0.0; 2 * NOISE_CHUNK];
            for j0 in (0..N / 2).step_by(NOISE_CHUNK) {
                noise_chunk(key, j0 as u64, &mut chunk);
                zs.extend_from_slice(&chunk);
            }
            let n = N as f64;
            let mean = zs.iter().sum::<f64>() / n;
            let moment = |p: i32| zs.iter().map(|z| (z - mean).powi(p)).sum::<f64>() / n;
            let var = moment(2);
            let skew = moment(3) / var.powf(1.5);
            let kurt = moment(4) / (var * var);
            let tail = |t: f64| zs.iter().filter(|z| z.abs() > t).count() as f64 / n;
            let (tail2, tail3) = (tail(2.0), tail(3.0));
            let lag = |l: usize| {
                zs.iter().zip(&zs[l..]).map(|(a, b)| (a - mean) * (b - mean)).sum::<f64>()
                    / ((n - l as f64) * var)
            };
            let (lag1, lag3) = (lag(1), lag(3));
            let (p2, p3) = (2.0 * normal_cdf(-2.0), 2.0 * normal_cdf(-3.0));
            // Kolmogorov–Smirnov distance, taken at bin edges 2^-13 apart
            // over [-6, 6] (every |z| is below 5.78): at most one bin's
            // mass, under 5e-5, below the distance over all points.
            const BINS_PER_UNIT: f64 = 8192.0;
            let mut counts = vec![0u32; (12.0 * BINS_PER_UNIT) as usize];
            for z in &zs {
                counts[((z + 6.0) * BINS_PER_UNIT) as usize] += 1;
            }
            let (mut below, mut ks) = (0u64, 0.0f64);
            for (b, count) in counts.iter().enumerate() {
                below += *count as u64;
                let edge = (b + 1) as f64 / BINS_PER_UNIT - 6.0;
                ks = ks.max((below as f64 / n - normal_cdf(edge)).abs());
            }
            let (lo, hi) = zs.iter().fold((0.0f64, 0.0f64), |(lo, hi), &z| (lo.min(z), hi.max(z)));
            let stats = format!(
                "seed {seed:#x}: mean {mean:.5} var {var:.5} skew {skew:.5} kurt {kurt:.4} \
                 P(|z|>2) {tail2:.5} P(|z|>3) {tail3:.5} lag1 {lag1:.5} lag3 {lag3:.5} KS {ks:.5}"
            );
            eprintln!("{stats}");
            assert!(mean.abs() < se(1.0), "{stats}");
            assert!((var - 1.0).abs() < se(2.0), "{stats}");
            assert!(skew.abs() < se(6.0), "{stats}");
            assert!((kurt - 3.0).abs() < se(24.0), "{stats}");
            assert!((tail2 - p2).abs() < se(p2 * (1.0 - p2)), "{stats}");
            assert!((tail3 - p3).abs() < se(p3 * (1.0 - p3)), "{stats}");
            assert!(lag1.abs() < se(1.0) && lag3.abs() < se(1.0), "{stats}");
            // Kolmogorov: P(sqrt(n)·D > 2.7) ≈ 2·exp(-2·2.7²) ≈ 1e-6.
            assert!(ks * n.sqrt() < 2.7, "{stats}");
            // The tail the 24-bit `u1` allows: sqrt(-2 ln 2^-24).
            let bound = (48.0 * std::f64::consts::LN_2).sqrt() + 1e-6;
            assert!(lo >= -bound && hi <= bound, "{lo} {hi}");
        }
    }

    #[test]
    fn scene_index_matches_reference_materials_off_boundaries() {
        // Sample the scene densely at points away from exact span edges:
        // the hoisted index must agree with the frozen per-pixel geometry.
        let mut scene = PlateScene::empty_plate();
        scene.set_well(0, 0, LinRgb::new(0.3, 0.1, 0.1));
        scene.set_well(7, 11, LinRgb::new(0.1, 0.3, 0.1));
        scene.lighting.noise_sigma = 0.0;
        let idx = SceneIndex::new(&scene);
        let mut checked = 0usize;
        for iy in 0..600 {
            for ix in 0..900 {
                let x = ix as f64 * 0.171 - 40.0;
                let y = iy as f64 * 0.163 - 10.0;
                let got = idx.material(x, y);
                let want = crate::reference::material_at(&scene, x, y);
                if got != want {
                    // Tolerate float-boundary flips only within a hair of a
                    // geometric edge.
                    panic!("material mismatch at ({x}, {y}): {got:?} vs {want:?}");
                }
                checked += 1;
            }
        }
        assert!(checked > 500_000);
    }
}
