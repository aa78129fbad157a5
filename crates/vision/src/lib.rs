//! `sdl-vision` — the imaging substrate: a synthetic webcam and the paper's
//! image-processing pipeline.
//!
//! The physical rig photographs the microplate with a Logitech webcam and
//! locates wells via an ArUco marker, HoughCircles, and grid alignment
//! (paper §2.4). This crate supplies both sides of that interface:
//!
//! * [`ImageRgb8`] — an 8-bit raster with PPM I/O;
//! * [`render`] / [`PlateScene`] — the camera substitute: renders the plate,
//!   marker, ring-light vignette, sensor noise and pose jitter;
//! * [`detect_markers`] — ArUco-style fiducial detection over a
//!   deterministic 4×4 dictionary;
//! * [`hough_circles`] — gradient-voting circular Hough transform;
//! * [`fit_grid`] — the affine grid alignment that recovers wells Hough
//!   missed;
//! * [`Detector`] — the full pipeline producing [`PlateReading`]s.
//!
//! The detector never sees scene ground truth — only the frame and the rig
//! geometry ([`PlateLayout`], [`MarkerLayout`]), exactly like the original.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aruco;
pub mod draw;
mod drift;
mod fastmath;
mod grid;
mod hough;
mod image;
mod layout;
mod pipeline;
mod reference;
mod render;

pub use aruco::{
    detect_markers, detect_markers_with, ArucoParams, ArucoScratch, MarkerDetection, DICT_SIZE,
};
pub use drift::DriftSpec;
pub use grid::{fit_grid, GridFit, GridModel};
pub use hough::{hough_circles, hough_circles_with, Circle, HoughParams, HoughScratch};
pub use image::ImageRgb8;
pub use layout::{CameraGeometry, Fidelity, MarkerLayout, PlateLayout};
pub use pipeline::{
    Detector, DetectorParams, DetectorScratch, PlateReading, VisionError, WellReading,
};
pub use reference::render_reference;
pub use render::{
    render, render_into, render_tiled, Lighting, PlateScene, Pose, PLATE_BODY_REFLECTANCE,
};
