//! ArUco-style fiducial markers: generation and detection.
//!
//! The rig locates the plate via an ArUco marker (paper §2.4, citing
//! Garrido-Jurado et al.). This module implements a compatible scheme from
//! scratch: a deterministic 4×4-bit dictionary with guaranteed Hamming
//! separation under rotation, a renderer, and a detector based on
//! thresholding, connected components and 6×6 cell sampling.

use crate::image::ImageRgb8;
use sdl_color::Rgb8;
use std::sync::OnceLock;

/// Number of codes in the built-in dictionary.
pub const DICT_SIZE: usize = 8;
/// Minimum Hamming distance enforced between any two dictionary codes under
/// any relative rotation (and between distinct rotations of one code).
pub const MIN_HAMMING: u32 = 5;

/// Rotate a 4×4 bit pattern 90° clockwise.
fn rot90(code: u16) -> u16 {
    let mut out = 0u16;
    for r in 0..4 {
        for c in 0..4 {
            // new[r][c] = old[3-c][r]
            if code & (1 << ((3 - c) * 4 + r)) != 0 {
                out |= 1 << (r * 4 + c);
            }
        }
    }
    out
}

/// All four rotations of a code.
fn rotations(code: u16) -> [u16; 4] {
    let r1 = rot90(code);
    let r2 = rot90(r1);
    let r3 = rot90(r2);
    [code, r1, r2, r3]
}

fn hamming(a: u16, b: u16) -> u32 {
    (a ^ b).count_ones()
}

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The marker dictionary: generated greedily and deterministically so the
/// renderer and detector always agree, with [`MIN_HAMMING`] separation
/// between all rotations of all codes (making orientation unambiguous).
pub fn dictionary() -> &'static [u16; DICT_SIZE] {
    static DICT: OnceLock<[u16; DICT_SIZE]> = OnceLock::new();
    DICT.get_or_init(|| {
        let mut codes: Vec<u16> = Vec::new();
        let mut state = 0x5eed_c0de_u64;
        while codes.len() < DICT_SIZE {
            let cand = (splitmix(&mut state) & 0xffff) as u16;
            let cand_rots = rotations(cand);
            // Self-distance: all rotations distinct enough to identify
            // orientation.
            let self_ok = (1..4).all(|i| hamming(cand_rots[0], cand_rots[i]) >= MIN_HAMMING);
            let cross_ok = codes.iter().all(|&existing| {
                rotations(existing)
                    .iter()
                    .all(|&er| cand_rots.iter().all(|&cr| hamming(er, cr) >= MIN_HAMMING))
            });
            if self_ok && cross_ok {
                codes.push(cand);
            }
        }
        codes.try_into().expect("exact dictionary size")
    })
}

/// Is cell (row, col) of the 6×6 marker grid white for marker `id`?
/// Border cells are always black; inner 4×4 cells carry the code bits
/// (bit set = white).
pub fn cell_is_white(id: usize, row: usize, col: usize) -> bool {
    if row == 0 || row == 5 || col == 0 || col == 5 {
        return false;
    }
    let code = dictionary()[id];
    code & (1 << ((row - 1) * 4 + (col - 1))) != 0
}

/// Render marker `id` into a `cells_px`-per-cell image (with a one-cell white
/// quiet zone), for documentation and tests.
pub fn render_marker(id: usize, cell_px: usize) -> ImageRgb8 {
    let size = 8 * cell_px; // 6 cells + quiet zone on each side
    let mut img = ImageRgb8::new(size, size, Rgb8::new(255, 255, 255));
    for row in 0..6 {
        for col in 0..6 {
            let c = if cell_is_white(id, row, col) {
                Rgb8::new(255, 255, 255)
            } else {
                Rgb8::new(0, 0, 0)
            };
            crate::draw::fill_rect(
                &mut img,
                ((col + 1) * cell_px) as i64,
                ((row + 1) * cell_px) as i64,
                cell_px as i64,
                cell_px as i64,
                c,
            );
        }
    }
    img
}

/// A detected marker.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkerDetection {
    /// Dictionary index.
    pub id: usize,
    /// Marker center, px.
    pub center: (f64, f64),
    /// Side length, px (mean of the bounding box sides).
    pub size_px: f64,
    /// Number of 90° clockwise rotations applied to match the dictionary.
    pub rotation: usize,
}

/// Detector tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct ArucoParams {
    /// Luma threshold below which a pixel counts as marker-black.
    pub black_threshold: u8,
    /// Smallest plausible marker component area, px².
    pub min_area: usize,
    /// Largest plausible marker component area, px².
    pub max_area: usize,
    /// Maximum Hamming distance accepted when matching codes.
    pub max_code_errors: u32,
}

impl Default for ArucoParams {
    fn default() -> Self {
        ArucoParams { black_threshold: 90, min_area: 300, max_area: 40_000, max_code_errors: 1 }
    }
}

/// Reusable component-labelling buffers for [`detect_markers_with`]: the
/// frame's dark runs, their union-find forest and the components.
#[derive(Debug, Clone, Default)]
pub struct ArucoScratch {
    runs: Vec<Run>,
    parent: Vec<u32>,
    comps: Vec<Component>,
}

/// A maximal horizontal run `x0..=x1` of below-threshold pixels on row `y`.
#[derive(Debug, Clone, Copy)]
struct Run {
    y: usize,
    x0: usize,
    x1: usize,
}

/// One 4-connected component: its pixel count and bounding box.
#[derive(Debug, Clone, Copy)]
struct Component {
    area: usize,
    minx: usize,
    maxx: usize,
    miny: usize,
    maxy: usize,
}

/// Find markers in the frame. Returns detections sorted by component size
/// (largest first).
pub fn detect_markers(img: &ImageRgb8, params: &ArucoParams) -> Vec<MarkerDetection> {
    detect_markers_with(img, params, &img.to_luma(), &mut ArucoScratch::default())
}

/// [`detect_markers`] over a precomputed luma plane and caller-owned
/// scratch buffers; results are identical to a fresh-allocation run.
pub fn detect_markers_with(
    img: &ImageRgb8,
    params: &ArucoParams,
    luma: &[u8],
    scratch: &mut ArucoScratch,
) -> Vec<MarkerDetection> {
    let w = img.width();
    assert_eq!(luma.len(), w * img.height(), "luma plane must match the frame");
    let mut detections = Vec::new();
    for c in label_components(luma, w, params.black_threshold, scratch) {
        if c.area < params.min_area || c.area > params.max_area {
            continue;
        }
        let bw = (c.maxx - c.minx + 1) as f64;
        let bh = (c.maxy - c.miny + 1) as f64;
        let aspect = bw / bh;
        if !(0.75..=1.33).contains(&aspect) {
            continue;
        }
        if let Some(det) = decode_candidate(img, params, c.minx, c.miny, bw, bh) {
            detections.push((c.area, det));
        }
    }
    // Stable: equal areas keep the components' raster order.
    detections.sort_by_key(|(area, _)| std::cmp::Reverse(*area));
    detections.into_iter().map(|(_, d)| d).collect()
}

/// The 4-connected components of `luma < threshold` in a `w`-wide plane,
/// in raster order of each component's first pixel.
///
/// Each row is cut into maximal dark runs; runs on adjacent rows whose
/// x-intervals overlap share an edge, so they are united (4-connectivity:
/// diagonal contact does not join). A union keeps the smaller run index as
/// the root, so every root is its component's first run in raster order
/// and walking runs in order emits components in that order.
fn label_components<'s>(
    luma: &[u8],
    w: usize,
    threshold: u8,
    scratch: &'s mut ArucoScratch,
) -> &'s [Component] {
    let ArucoScratch { runs, parent, comps } = scratch;
    runs.clear();
    parent.clear();
    comps.clear();
    let mut prev = 0..0;
    for (y, row) in luma.chunks_exact(w).enumerate() {
        let start = runs.len();
        let mut x = 0;
        while x < w {
            if row[x] >= threshold {
                x += 1;
                continue;
            }
            let x0 = x;
            while x < w && row[x] < threshold {
                x += 1;
            }
            parent.push(runs.len() as u32);
            runs.push(Run { y, x0, x1: x - 1 });
        }
        // Sweep the two sorted run lists, uniting each overlapping pair.
        let (mut i, mut j) = (prev.start, start);
        while i < prev.end && j < runs.len() {
            let (a, b) = (runs[i], runs[j]);
            if a.x0 <= b.x1 && b.x0 <= a.x1 {
                let (ra, rb) = (find(parent, i as u32), find(parent, j as u32));
                parent[ra.max(rb) as usize] = ra.min(rb);
            }
            if a.x1 < b.x1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        prev = start..runs.len();
    }

    // A parent always has a smaller index than its child, so in one
    // ascending pass every run's parent already holds its component label
    // (written over the parent index) when the run is reached. A run that
    // is its own parent is a root and opens the next component.
    for (k, run) in runs.iter().enumerate() {
        let p = parent[k] as usize;
        let label = if p == k {
            comps.push(Component { area: 0, minx: run.x0, maxx: run.x1, miny: run.y, maxy: run.y });
            comps.len() - 1
        } else {
            parent[p] as usize
        };
        parent[k] = label as u32;
        let c = &mut comps[label];
        c.area += run.x1 - run.x0 + 1;
        c.minx = c.minx.min(run.x0);
        c.maxx = c.maxx.max(run.x1);
        c.maxy = run.y;
    }
    comps
}

/// Union-find root of run `i`, halving the path on the way.
fn find(parent: &mut [u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        let grand = parent[parent[i as usize] as usize];
        parent[i as usize] = grand;
        i = grand;
    }
    i
}

/// Sample the 6×6 grid inside a candidate bounding box and match the code.
fn decode_candidate(
    img: &ImageRgb8,
    params: &ArucoParams,
    minx: usize,
    miny: usize,
    bw: f64,
    bh: f64,
) -> Option<MarkerDetection> {
    let cell_w = bw / 6.0;
    let cell_h = bh / 6.0;
    let mut bits = [[false; 6]; 6];
    for (row, bits_row) in bits.iter_mut().enumerate() {
        for (col, bit) in bits_row.iter_mut().enumerate() {
            let cx = minx as f64 + (col as f64 + 0.5) * cell_w;
            let cy = miny as f64 + (row as f64 + 0.5) * cell_h;
            // Average a small patch at the cell center for noise immunity.
            let (mean, n) = img.mean_disk(cx, cy, (cell_w.min(cell_h) * 0.3).max(1.0));
            if n == 0 {
                return None;
            }
            let l = (77 * mean.r as u32 + 150 * mean.g as u32 + 29 * mean.b as u32) >> 8;
            *bit = l as u8 >= params.black_threshold;
        }
    }
    // Border must be black.
    let border_white: usize = (0..6)
        .flat_map(|i| [(0usize, i), (5, i), (i, 0), (i, 5)])
        .filter(|&(r, c)| bits[r][c])
        .count();
    if border_white > 2 {
        return None;
    }
    // Pack inner bits.
    let mut code = 0u16;
    for r in 0..4 {
        for c in 0..4 {
            if bits[r + 1][c + 1] {
                code |= 1 << (r * 4 + c);
            }
        }
    }
    // Match against the dictionary under rotation.
    let mut best: Option<(usize, usize, u32)> = None;
    for (id, &dict_code) in dictionary().iter().enumerate() {
        for (rot, &rotated) in rotations(dict_code).iter().enumerate() {
            let d = hamming(code, rotated);
            if best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((id, rot, d));
            }
        }
    }
    let (id, rotation, dist) = best?;
    if dist > params.max_code_errors {
        return None;
    }
    Some(MarkerDetection {
        id,
        center: (minx as f64 + bw / 2.0, miny as f64 + bh / 2.0),
        size_px: (bw + bh) / 2.0,
        rotation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::fill_rect;

    #[test]
    fn dictionary_is_deterministic_and_separated() {
        let d1 = dictionary();
        let d2 = dictionary();
        assert_eq!(d1, d2);
        for (i, &a) in d1.iter().enumerate() {
            let ra = rotations(a);
            for k in 1..4 {
                assert!(hamming(ra[0], ra[k]) >= MIN_HAMMING, "code {i} self-rotation");
            }
            for (j, &b) in d1.iter().enumerate().skip(i + 1) {
                for &x in &rotations(a) {
                    for &y in &rotations(b) {
                        assert!(hamming(x, y) >= MIN_HAMMING, "codes {i}/{j}");
                    }
                }
            }
        }
    }

    #[test]
    fn rot90_has_period_four() {
        for &code in dictionary() {
            assert_eq!(rot90(rot90(rot90(rot90(code)))), code);
        }
    }

    #[test]
    fn rendered_marker_is_detected() {
        for id in 0..DICT_SIZE {
            let marker = render_marker(id, 10);
            // Paste into a larger gray frame.
            let mut frame = ImageRgb8::new(200, 160, Rgb8::new(120, 120, 120));
            fill_rect(&mut frame, 40, 30, 80, 80, Rgb8::new(255, 255, 255));
            for y in 0..marker.height() {
                for x in 0..marker.width() {
                    frame.put(44 + x as i64, 34 + y as i64, marker.pixel(x, y));
                }
            }
            let found = detect_markers(&frame, &ArucoParams::default());
            assert_eq!(found.len(), 1, "marker {id} not found");
            assert_eq!(found[0].id, id);
            assert_eq!(found[0].rotation, 0);
            // 6 cells × 10 px: center at 44+10+30, 34+10+30.
            assert!((found[0].center.0 - 84.0).abs() < 2.0);
            assert!((found[0].center.1 - 74.0).abs() < 2.0);
            assert!((found[0].size_px - 60.0).abs() < 3.0);
        }
    }

    #[test]
    fn rotated_marker_reports_rotation() {
        let marker = render_marker(3, 10);
        // Rotate the marker image 90° clockwise before pasting.
        let mut frame = ImageRgb8::new(200, 160, Rgb8::new(255, 255, 255));
        let n = marker.width();
        for y in 0..n {
            for x in 0..n {
                let p = marker.pixel(x, y);
                // (x,y) -> (n-1-y, x) is a 90° clockwise image rotation.
                frame.put(40 + (n - 1 - y) as i64, 40 + x as i64, p);
            }
        }
        let found = detect_markers(&frame, &ArucoParams::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id, 3);
        assert_ne!(found[0].rotation, 0);
    }

    #[test]
    fn plain_black_square_is_rejected() {
        let mut frame = ImageRgb8::new(200, 160, Rgb8::new(255, 255, 255));
        fill_rect(&mut frame, 50, 40, 60, 60, Rgb8::new(0, 0, 0));
        let found = detect_markers(&frame, &ArucoParams::default());
        assert!(found.is_empty(), "solid square must not decode");
    }

    #[test]
    fn no_marker_in_noise_free_background() {
        let frame = ImageRgb8::new(100, 100, Rgb8::new(200, 200, 200));
        assert!(detect_markers(&frame, &ArucoParams::default()).is_empty());
    }

    /// The reference labeller: a per-pixel 4-connected BFS seeded in raster
    /// order, returning `(area, minx, maxx, miny, maxy)` per component.
    fn bfs_components(plane: &[u8], w: usize, threshold: u8) -> Vec<[usize; 5]> {
        let h = plane.len() / w;
        let mut seen = vec![false; plane.len()];
        let mut out = Vec::new();
        for seed in 0..plane.len() {
            if seen[seed] || plane[seed] >= threshold {
                continue;
            }
            seen[seed] = true;
            let mut queue = std::collections::VecDeque::from([seed]);
            let mut c = [0, seed % w, seed % w, seed / w, seed / w];
            while let Some(i) = queue.pop_front() {
                let (x, y) = (i % w, i / w);
                c = [c[0] + 1, c[1].min(x), c[2].max(x), c[3].min(y), c[4].max(y)];
                let up = (y > 0).then(|| i - w);
                let down = (y + 1 < h).then(|| i + w);
                let left = (x > 0).then(|| i - 1);
                let right = (x + 1 < w).then(|| i + 1);
                for j in [up, down, left, right].into_iter().flatten() {
                    if !seen[j] && plane[j] < threshold {
                        seen[j] = true;
                        queue.push_back(j);
                    }
                }
            }
            out.push(c);
        }
        out
    }

    /// A `w`×`h` plane (dark = 0, light = 255) painted with the shapes that
    /// stress a run labeller: diagonal-only contacts, U-shapes whose arms
    /// merge on a later row, spirals, edge-touching borders, single pixels,
    /// equal-area squares and random speckle.
    fn painted_plane(seed: u64, w: usize, h: usize) -> Vec<u8> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut plane = vec![255u8; w * h];
        let dark = |plane: &mut Vec<u8>, x: usize, y: usize| {
            if x < w && y < h {
                plane[y * w + x] = 0;
            }
        };
        for _ in 0..rng.gen_range(1..8) {
            let (x0, y0) = (rng.gen_range(0..w), rng.gen_range(0..h));
            let size = rng.gen_range(1..12);
            match rng.gen_range(0..7) {
                // Diagonal staircase: pixels touch only at corners.
                0 => (0..size).for_each(|k| dark(&mut plane, x0 + k, y0 + k)),
                // U-shape: two arms that only meet on the bottom row.
                1 => {
                    for k in 0..size {
                        dark(&mut plane, x0, y0 + k);
                        dark(&mut plane, x0 + size, y0 + k);
                    }
                    (0..=size).for_each(|k| dark(&mut plane, x0 + k, y0 + size));
                }
                // Square spiral, one pixel wide with one-pixel gaps.
                2 => {
                    let (mut x, mut y) = (x0 as i64, y0 as i64);
                    let mut len = 2;
                    for (turn, (dx, dy)) in
                        [(1, 0), (0, 1), (-1, 0), (0, -1)].iter().cycle().take(size).enumerate()
                    {
                        for _ in 0..len {
                            if x >= 0 && y >= 0 {
                                dark(&mut plane, x as usize, y as usize);
                            }
                            x += dx;
                            y += dy;
                        }
                        len += 2 * (turn % 2);
                    }
                }
                // A border ring touching every frame edge.
                3 => {
                    (0..w).for_each(|x| {
                        dark(&mut plane, x, 0);
                        dark(&mut plane, x, h - 1);
                    });
                    (0..h).for_each(|y| {
                        dark(&mut plane, 0, y);
                        dark(&mut plane, w - 1, y);
                    });
                }
                // Isolated single pixels.
                4 => (0..size).for_each(|_| {
                    dark(&mut plane, rng.gen_range(0..w), rng.gen_range(0..h));
                }),
                // Equal-area squares in a row (ties for the area sort).
                5 => (0..3).for_each(|k| {
                    for dy in 0..3 {
                        for dx in 0..3 {
                            dark(&mut plane, x0 + 5 * k + dx, y0 + dy);
                        }
                    }
                }),
                // Random speckle.
                _ => {
                    let p = rng.gen_range(0.1..0.6);
                    for v in plane.iter_mut() {
                        if rng.gen_bool(p) {
                            *v = rng.gen_range(0..128);
                        }
                    }
                }
            }
        }
        plane
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Run labelling finds exactly the BFS components — same area,
        /// bounding box and emission order (raster order of each
        /// component's first pixel).
        #[test]
        fn run_labelling_matches_a_pixel_bfs(
            seed in proptest::prelude::any::<u64>(),
            w in 1usize..48,
            h in 1usize..40,
        ) {
            let plane = painted_plane(seed, w, h);
            let mut scratch = ArucoScratch::default();
            let got: Vec<[usize; 5]> = label_components(&plane, w, 128, &mut scratch)
                .iter()
                .map(|c| [c.area, c.minx, c.maxx, c.miny, c.maxy])
                .collect();
            proptest::prop_assert_eq!(got, bfs_components(&plane, w, 128));
        }
    }
}
