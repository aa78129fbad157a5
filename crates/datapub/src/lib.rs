//! `sdl-datapub` — the data-publication substrate (paper §2.3, Figure 3).
//!
//! "The publication step engages a Globus flow to publish data to the ALCF
//! Community Data Co-Op (ACDC) data portal." This crate substitutes both
//! halves:
//!
//! * [`publish`] — the three flow steps (Transfer → Ingest → Index) for
//!   one batch, run on the caller's thread and counted into [`FlowStats`];
//! * [`AcdcPortal`] — a searchable record index rendering the Figure-3
//!   summary and run-detail views, with JSON-lines import/export;
//! * [`BlobStore`] — content-addressed storage for raw plate images;
//! * [`SampleRecord`] / [`ExperimentRecord`] — the published schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;
mod html;
mod portal;
mod record;
mod store;

pub use flow::{publish, FlowStats};
pub use html::{base64, render_html, render_run_html, render_summary_html, url_encode};
pub use portal::{field_matches, AcdcPortal};
pub use record::{ExperimentRecord, SampleRecord};
pub use store::{BlobRef, BlobStore};
