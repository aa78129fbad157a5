//! Server-side observability: request counters and a latency histogram,
//! rendered in the Prometheus text exposition format at `GET /metrics`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds, seconds.
const BUCKETS: [f64; 12] =
    [0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1.0];

/// Routes tracked individually (everything else lands in `other`).
const ROUTES: [&str; 10] = [
    "/", "/healthz", "/records", "/events", "/summary", "/runs", "/blobs", "/metrics", "/v1",
    "other",
];

/// Lock-free request metrics shared by all worker threads.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    by_route: [AtomicU64; ROUTES.len()],
    by_class: [AtomicU64; 5],
    latency_buckets: [AtomicU64; BUCKETS.len() + 1],
    latency_count: AtomicU64,
    latency_sum_us: AtomicU64,
    connections: AtomicU64,
    conns_active: AtomicU64,
    conn_sheds: AtomicU64,
    bytes_sent: AtomicU64,
}

/// Map a request path to its tracked route label.
pub fn route_label(path: &str) -> &'static str {
    ROUTES
        .iter()
        .find(|r| {
            path == **r
                || (r.len() > 1 && path.starts_with(**r) && path.as_bytes()[r.len()] == b'/')
        })
        .copied()
        .unwrap_or("other")
}

impl ServerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Record one accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        self.conns_active.fetch_add(1, Ordering::AcqRel);
    }

    /// Record one connection finishing (accepted earlier).
    pub fn record_connection_closed(&self) {
        self.conns_active.fetch_sub(1, Ordering::AcqRel);
    }

    /// Connections accepted and not yet finished (includes ones still
    /// queued for a pool worker).
    pub fn active_connections(&self) -> u64 {
        self.conns_active.load(Ordering::Acquire)
    }

    /// Record one connection refused at accept because the live-connection
    /// cap was reached (answered `503` + `Retry-After`, never queued).
    pub fn record_conn_shed(&self) {
        self.conn_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections shed over the cap so far.
    pub fn conn_sheds(&self) -> u64 {
        self.conn_sheds.load(Ordering::Relaxed)
    }

    /// Record one completed request.
    pub fn record_request(&self, path: &str, status: u16, latency: Duration, body_bytes: usize) {
        let label = route_label(path);
        let route_idx = ROUTES.iter().position(|r| *r == label).unwrap_or(ROUTES.len() - 1);
        self.by_route[route_idx].fetch_add(1, Ordering::Relaxed);
        let class = (status as usize / 100).clamp(1, 5) - 1;
        self.by_class[class].fetch_add(1, Ordering::Relaxed);

        let secs = latency.as_secs_f64();
        let bucket = BUCKETS.iter().position(|&ub| secs <= ub).unwrap_or(BUCKETS.len());
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
        self.bytes_sent.fetch_add(body_bytes as u64, Ordering::Relaxed);
    }

    /// Total requests observed.
    pub fn requests_total(&self) -> u64 {
        self.latency_count.load(Ordering::Relaxed)
    }

    /// Render the Prometheus text format. `portal_records` / `blob_count` /
    /// `blob_bytes` are gauges sampled by the caller at scrape time.
    pub fn render_prometheus(
        &self,
        portal_records: usize,
        blob_count: usize,
        blob_bytes: usize,
        uptime: Duration,
    ) -> String {
        let mut out = String::with_capacity(2048);
        let p = "sdl_portal";

        let _ = writeln!(out, "# HELP {p}_requests_total Requests served, by route.");
        let _ = writeln!(out, "# TYPE {p}_requests_total counter");
        for (i, route) in ROUTES.iter().enumerate() {
            let _ = writeln!(
                out,
                "{p}_requests_total{{route=\"{route}\"}} {}",
                self.by_route[i].load(Ordering::Relaxed)
            );
        }

        let _ = writeln!(out, "# HELP {p}_responses_total Responses, by status class.");
        let _ = writeln!(out, "# TYPE {p}_responses_total counter");
        for (i, class) in ["1xx", "2xx", "3xx", "4xx", "5xx"].iter().enumerate() {
            let _ = writeln!(
                out,
                "{p}_responses_total{{class=\"{class}\"}} {}",
                self.by_class[i].load(Ordering::Relaxed)
            );
        }

        let _ = writeln!(out, "# HELP {p}_request_seconds Request latency histogram.");
        let _ = writeln!(out, "# TYPE {p}_request_seconds histogram");
        let mut cumulative = 0u64;
        for (i, ub) in BUCKETS.iter().enumerate() {
            cumulative += self.latency_buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{p}_request_seconds_bucket{{le=\"{ub}\"}} {cumulative}");
        }
        cumulative += self.latency_buckets[BUCKETS.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{p}_request_seconds_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(
            out,
            "{p}_request_seconds_sum {}",
            self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "{p}_request_seconds_count {}",
            self.latency_count.load(Ordering::Relaxed)
        );

        let _ = writeln!(out, "# HELP {p}_connections_total Connections accepted.");
        let _ = writeln!(out, "# TYPE {p}_connections_total counter");
        let _ = writeln!(out, "{p}_connections_total {}", self.connections.load(Ordering::Relaxed));

        let _ = writeln!(out, "# HELP {p}_conns_active Connections accepted and not yet closed.");
        let _ = writeln!(out, "# TYPE {p}_conns_active gauge");
        let _ = writeln!(out, "{p}_conns_active {}", self.conns_active.load(Ordering::Acquire));

        let _ = writeln!(
            out,
            "# HELP {p}_conn_sheds_total Connections refused over the live-connection cap."
        );
        let _ = writeln!(out, "# TYPE {p}_conn_sheds_total counter");
        let _ = writeln!(out, "{p}_conn_sheds_total {}", self.conn_sheds.load(Ordering::Relaxed));

        let _ = writeln!(out, "# HELP {p}_body_bytes_sent_total Body bytes written.");
        let _ = writeln!(out, "# TYPE {p}_body_bytes_sent_total counter");
        let _ =
            writeln!(out, "{p}_body_bytes_sent_total {}", self.bytes_sent.load(Ordering::Relaxed));

        let _ = writeln!(out, "# HELP {p}_records Records currently in the portal.");
        let _ = writeln!(out, "# TYPE {p}_records gauge");
        let _ = writeln!(out, "{p}_records {portal_records}");
        let _ = writeln!(out, "# HELP {p}_blobs Blobs currently in the store.");
        let _ = writeln!(out, "# TYPE {p}_blobs gauge");
        let _ = writeln!(out, "{p}_blobs {blob_count}");
        let _ = writeln!(out, "# HELP {p}_blob_bytes In-memory blob bytes.");
        let _ = writeln!(out, "# TYPE {p}_blob_bytes gauge");
        let _ = writeln!(out, "{p}_blob_bytes {blob_bytes}");
        let _ = writeln!(out, "# HELP {p}_uptime_seconds Seconds since the server started.");
        let _ = writeln!(out, "# TYPE {p}_uptime_seconds gauge");
        let _ = writeln!(out, "{p}_uptime_seconds {:.3}", uptime.as_secs_f64());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_labels_cover_known_paths() {
        assert_eq!(route_label("/"), "/");
        assert_eq!(route_label("/healthz"), "/healthz");
        assert_eq!(route_label("/records"), "/records");
        assert_eq!(route_label("/events"), "/events");
        assert_eq!(route_label("/events/stream"), "/events");
        assert_eq!(route_label("/runs/3"), "/runs");
        assert_eq!(route_label("/blobs/blob:abc"), "/blobs");
        assert_eq!(route_label("/v1/batch"), "/v1");
        assert_eq!(route_label("/nope"), "other");
        assert_eq!(route_label("/recordsnot"), "other");
    }

    #[test]
    fn histogram_counts_cumulative() {
        let m = ServerMetrics::new();
        m.record_request("/records", 200, Duration::from_micros(300), 10);
        m.record_request("/records", 200, Duration::from_millis(30), 20);
        m.record_request("/nope", 404, Duration::from_secs(2), 5);
        let text = m.render_prometheus(7, 2, 100, Duration::from_secs(1));
        assert!(text.contains("sdl_portal_requests_total{route=\"/records\"} 2"));
        assert!(text.contains("sdl_portal_requests_total{route=\"other\"} 1"));
        assert!(text.contains("sdl_portal_responses_total{class=\"2xx\"} 2"));
        assert!(text.contains("sdl_portal_responses_total{class=\"4xx\"} 1"));
        assert!(text.contains("sdl_portal_request_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("sdl_portal_request_seconds_count 3"));
        assert!(text.contains("sdl_portal_records 7"));
        assert!(text.contains("sdl_portal_blobs 2"));
        assert_eq!(m.requests_total(), 3);
    }
}
