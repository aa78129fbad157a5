//! `sdl-portal-server` — the HTTP serving layer for the ACDC portal.
//!
//! The paper publishes every run to the ACDC data portal so people and
//! tools outside the lab process can watch campaigns as they execute
//! (§2.3, Figure 3). This crate is that front door: an HTTP/1.1 server
//! over [`std::net::TcpListener`], one thread per admitted connection up
//! to a connection cap, exposing a live
//! [`AcdcPortal`](sdl_datapub::AcdcPortal) and
//! [`BlobStore`](sdl_datapub::BlobStore):
//!
//! | endpoint | serves |
//! |---|---|
//! | `GET /records` | JSON-lines stream; dotted-path query filters, `limit`/`offset` paging |
//! | `GET /events` | campaign event log as JSON lines; `from`/`limit` paging, `timeout_ms` long-poll |
//! | `GET /events/stream` | the same log as a server-sent-events stream |
//! | `GET /summary` | the Figure-3 experiment summary (HTML) |
//! | `GET /runs/<run>` | the Figure-3 run detail table (HTML) |
//! | `GET /blobs/<ref>` | raw plate images from the blob store |
//! | `GET /healthz` | liveness + portal size (JSON) |
//! | `GET /metrics` | Prometheus text: request counts, latency histogram, portal gauges |
//! | `POST /v1/experiments` · `/v1/batch` · `/v1/close` | the batch-execution API: remote experiment sessions drive hosted simulated labs (see [`LabHost`]) |
//!
//! Built only on `std` — no external HTTP dependency — so the offline
//! build stays self-contained. The portal and store are shared `Arc`s:
//! a campaign runner can keep publishing records while the server is
//! answering requests, which is what `sdl-lab serve --campaign` does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod http;
mod lab;
mod metrics;
mod server;

pub use http::{percent_decode, Request, Response};
pub use lab::{LabHost, LabMetrics, QuotaPolicy, SESSION_TTL};
pub use metrics::{route_label, ServerMetrics};
pub use server::{spawn, PortalServer, ServerConfig, ServerHandle};

/// The keep-alive HTTP client for tests, tools and the load generators:
/// the one client in [`sdl_core::http`], which reads responses with the
/// same bounded head reader as the server reads requests.
pub mod client {
    pub use sdl_core::http::{get, post, HttpClient, HttpResponse};
}
