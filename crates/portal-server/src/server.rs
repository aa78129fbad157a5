//! Routing and the accept/serve loop.

use crate::http::{self, DeadlineStream, ParseError, Request, Response};
use crate::lab::LabHost;
use crate::metrics::ServerMetrics;
use crate::pool::ThreadPool;
use sdl_conf::{to_json, Value};
use sdl_core::{EventLog, EventRecord, ProgressModel};
use sdl_datapub::{
    field_matches, render_run_html, render_summary_html, AcdcPortal, BlobRef, BlobStore,
};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Records returned by `/records` when no `limit` is given.
const DEFAULT_PAGE: usize = 1000;
/// Hard ceiling on one `/records` page.
const MAX_PAGE: usize = 100_000;
/// Events returned by `/events` when no `limit` is given.
const DEFAULT_EVENT_PAGE: usize = 1000;
/// Hard ceiling on one `/events` page.
const MAX_EVENT_PAGE: usize = 100_000;
/// Ceiling on a `/events` long-poll timeout. Kept well under the 30 s
/// read timeout of [`crate::client::get`] so a patient poll still
/// returns a well-formed (possibly empty) response instead of a client
/// error.
const MAX_POLL: Duration = Duration::from_secs(25);
/// How often the SSE writer wakes to check for shutdown while idle.
const SSE_SLICE: Duration = Duration::from_millis(250);

/// How the server binds, sizes and bounds itself.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections. The model is
    /// thread-per-connection: a keep-alive connection occupies its worker
    /// until the peer closes or goes idle (~10 s), so size this at or
    /// above the number of concurrent clients you expect.
    pub threads: usize,
    /// Live-connection cap (`0` = unlimited): connections accepted past it
    /// are answered `503` + `Retry-After` in the accept thread and closed,
    /// never queued — the work queue stays bounded under any client load.
    pub max_conns: usize,
    /// Requests served per keep-alive connection before the server closes
    /// it (`Connection: close`); `0` = unlimited. Bounds the lifetime a
    /// single client can pin one pool worker.
    pub max_requests_per_conn: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before it is reaped.
    pub idle_timeout: Duration,
    /// Once the first byte of a request arrives, the whole head + body
    /// must land within this deadline — a trickling client (slow loris)
    /// gets `408` and the connection closed, not a parked worker.
    pub request_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 8,
            max_conns: 256,
            max_requests_per_conn: 10_000,
            idle_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(10),
        }
    }
}

/// The per-connection slice of [`ServerConfig`] handed to every handler.
#[derive(Debug, Clone, Copy)]
struct ConnLimits {
    max_requests: usize,
    idle_timeout: Duration,
    request_deadline: Duration,
}

/// The portal front-end: routes requests against a live [`AcdcPortal`] and
/// [`BlobStore`]. Routing is a pure function of the shared state, so the
/// same instance is driven concurrently by every pool worker.
#[derive(Debug)]
pub struct PortalServer {
    portal: Arc<AcdcPortal>,
    store: Arc<BlobStore>,
    metrics: Arc<ServerMetrics>,
    lab: Option<Arc<LabHost>>,
    events: Option<Arc<EventLog>>,
    /// Incremental `/metrics` fold of the event log: (next seq to read,
    /// progress so far). Folding from a cursor keeps scrapes O(new
    /// events) instead of O(log length).
    watch: Mutex<(u64, ProgressModel)>,
    /// Set by [`ServerHandle`] teardown so streaming responses
    /// (`/events/stream`) let go of their pool worker promptly.
    closing: AtomicBool,
    /// Set by [`PortalServer::begin_drain`]: new sessions are refused,
    /// in-flight work finishes, keep-alive connections close after their
    /// next response.
    draining: AtomicBool,
    /// The accept pool's queue-depth gauge, wired up by [`spawn`] (stays
    /// zero for a routing-only server that was never spawned).
    queue_depth: Arc<std::sync::atomic::AtomicUsize>,
    started: Instant,
}

impl PortalServer {
    /// A server over a portal and blob store (both may keep growing while
    /// the server runs — live campaign streaming relies on that).
    pub fn new(portal: Arc<AcdcPortal>, store: Arc<BlobStore>) -> PortalServer {
        PortalServer {
            portal,
            store,
            metrics: Arc::new(ServerMetrics::new()),
            lab: None,
            events: None,
            watch: Mutex::new((1, ProgressModel::default())),
            closing: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            queue_depth: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            started: Instant::now(),
        }
    }

    /// Enter drain mode: the lab host (when present) refuses new sessions
    /// with `503` + `Retry-After`, in-flight batches run to completion, and
    /// every keep-alive connection is closed after its next response.
    /// Irreversible; used by `sdl-lab serve` on SIGTERM before shutdown.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        if let Some(lab) = &self.lab {
            lab.begin_drain();
        }
    }

    /// True once [`PortalServer::begin_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Builder: also host the `POST /v1/*` batch-execution API, making
    /// this server a lab worker for remote experiment sessions.
    pub fn with_lab(mut self, lab: Arc<LabHost>) -> PortalServer {
        self.lab = Some(lab);
        self
    }

    /// Builder: expose a campaign event log at `GET /events` (long-poll)
    /// and `GET /events/stream` (server-sent events), and fold it into
    /// the `sdl_lab_campaign_*` gauges on `/metrics`.
    pub fn with_events(mut self, events: Arc<EventLog>) -> PortalServer {
        self.events = Some(events);
        self
    }

    /// The hosted lab sessions, when batch execution is enabled.
    pub fn lab(&self) -> Option<&Arc<LabHost>> {
        self.lab.as_ref()
    }

    /// The campaign event log being streamed, when one is attached.
    pub fn events(&self) -> Option<&Arc<EventLog>> {
        self.events.as_ref()
    }

    /// The portal being served.
    pub fn portal(&self) -> &Arc<AcdcPortal> {
        &self.portal
    }

    /// The blob store being served.
    pub fn store(&self) -> &Arc<BlobStore> {
        &self.store
    }

    /// Request metrics (shared with `/metrics`).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Route one request to its response.
    pub fn handle(&self, req: &Request) -> Response {
        // The batch-execution API owns the /v1/ namespace (and is the only
        // place POST is meaningful).
        if req.path.starts_with("/v1/") {
            return match &self.lab {
                Some(lab) => lab.handle(req),
                None => Response::error(404, "batch execution is not enabled on this server"),
            };
        }
        if req.method != "GET" && req.method != "HEAD" {
            return Response::error(405, &format!("method {} not allowed", req.method))
                .with_header("Allow", "GET, HEAD");
        }
        match req.path.as_str() {
            "/" => self.index(),
            "/healthz" => self.healthz(),
            "/records" => self.records(req),
            "/events" => self.events_page(req),
            "/summary" => self.summary(req),
            "/metrics" => self.prometheus(),
            path if path.starts_with("/runs/") => self.run_detail(req, &path["/runs/".len()..]),
            path if path.starts_with("/blobs/") => self.blob(&path["/blobs/".len()..]),
            _ => Response::error(404, "not found"),
        }
    }

    fn index(&self) -> Response {
        let mut body = String::from(
            "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>sdl-portal</title></head>\
             <body><h1>ACDC portal server</h1><ul>\
             <li><a href=\"/records\">/records</a> — JSON-lines record stream \
             (dotted-path filters, <code>limit</code>/<code>offset</code>)</li>\
             <li><a href=\"/events\">/events</a> — campaign event log \
             (<code>from</code>/<code>limit</code>/<code>timeout_ms</code> long-poll; \
             <code>/events/stream</code> for server-sent events)</li>\
             <li><a href=\"/summary\">/summary</a> — experiment summary (Figure 3, left)</li>\
             <li>/runs/&lt;run&gt; — run detail (Figure 3, right)</li>\
             <li>/blobs/&lt;ref&gt; — raw plate images</li>\
             <li><a href=\"/healthz\">/healthz</a> — liveness</li>\
             <li><a href=\"/metrics\">/metrics</a> — Prometheus metrics</li></ul>",
        );
        let experiments = self.portal.experiments();
        if !experiments.is_empty() {
            body.push_str("<h2>experiments</h2><ul>");
            for id in experiments {
                // Percent-encode the id inside the URL; entity-escape it
                // (quotes included) in the link text.
                let text = id
                    .replace('&', "&amp;")
                    .replace('<', "&lt;")
                    .replace('>', "&gt;")
                    .replace('"', "&quot;");
                body.push_str(&format!(
                    "<li><a href=\"/summary?experiment={}\">{text}</a></li>",
                    sdl_datapub::url_encode(&id)
                ));
            }
            body.push_str("</ul>");
        }
        body.push_str("</body></html>");
        Response::html(body)
    }

    fn healthz(&self) -> Response {
        let mut v = Value::map();
        v.set("status", "ok");
        v.set("records", self.portal.len() as i64);
        v.set("blobs", self.store.len() as i64);
        v.set("uptime_s", self.started.elapsed().as_secs_f64());
        Response::json(to_json(&v))
    }

    fn records(&self, req: &Request) -> Response {
        let mut limit = DEFAULT_PAGE;
        let mut offset = 0usize;
        let mut filters: Vec<(&str, &str)> = Vec::new();
        for (key, value) in &req.query {
            match key.as_str() {
                "limit" => match value.parse::<usize>() {
                    Ok(n) => limit = n.min(MAX_PAGE),
                    Err(_) => return Response::error(400, &format!("bad limit '{value}'")),
                },
                "offset" => match value.parse::<usize>() {
                    Ok(n) => offset = n,
                    Err(_) => return Response::error(400, &format!("bad offset '{value}'")),
                },
                _ => filters.push((key, value)),
            }
        }
        let (page, total) = self.portal.search_page(
            |r| filters.iter().all(|(path, value)| field_matches(r, path, value)),
            offset,
            limit,
        );
        let mut body = String::new();
        for r in &page {
            body.push_str(&to_json(r));
            body.push('\n');
        }
        Response::new(200, "application/x-ndjson", body)
            .with_header("X-Total-Count", total)
            .with_header("X-Offset", offset)
    }

    /// `GET /events?from=<seq>&limit=<n>&timeout_ms=<t>` — the campaign
    /// event log as JSON lines, starting at sequence `from` (1-based,
    /// default 1). With `timeout_ms` the request long-polls: it blocks
    /// until the log grows past `from - 1`, closes, or the (capped)
    /// timeout lapses, then returns whatever is there — possibly an
    /// empty body. Response headers carry the cursor so clients never
    /// parse lines just to find their place: `X-Next-Seq` (pass as the
    /// next `from`), `X-Event-Head` (current log length), and
    /// `X-Log-Closed` (`true` once `campaign_closed` landed).
    fn events_page(&self, req: &Request) -> Response {
        let Some(log) = &self.events else {
            return Response::error(404, "no campaign event log is attached to this server");
        };
        let mut from = 1u64;
        let mut limit = DEFAULT_EVENT_PAGE;
        let mut timeout = Duration::ZERO;
        for (key, value) in &req.query {
            match key.as_str() {
                "from" => match value.parse::<u64>() {
                    Ok(n) => from = n.max(1),
                    Err(_) => return Response::error(400, &format!("bad from '{value}'")),
                },
                "limit" => match value.parse::<usize>() {
                    Ok(n) => limit = n.min(MAX_EVENT_PAGE),
                    Err(_) => return Response::error(400, &format!("bad limit '{value}'")),
                },
                "timeout_ms" => match value.parse::<u64>() {
                    Ok(ms) => timeout = Duration::from_millis(ms).min(MAX_POLL),
                    Err(_) => return Response::error(400, &format!("bad timeout_ms '{value}'")),
                },
                other => return Response::error(400, &format!("unknown parameter '{other}'")),
            }
        }
        let (lines, head, closed) = if timeout.is_zero() {
            log.lines_from(from, limit)
        } else {
            log.wait_from(from, limit, timeout)
        };
        let next = lines.last().map(|(seq, _)| seq + 1).unwrap_or(from);
        let mut body = String::new();
        for (_, line) in &lines {
            body.push_str(line);
            body.push('\n');
        }
        Response::new(200, "application/x-ndjson", body)
            .with_header("X-Next-Seq", next)
            .with_header("X-Event-Head", head)
            .with_header("X-Log-Closed", closed)
    }

    /// The experiment named in the query, or the portal's first one.
    fn experiment_for(&self, req: &Request) -> Option<String> {
        match req.query_param("experiment") {
            Some(id) => Some(id.to_string()),
            None => self.portal.experiments().into_iter().next(),
        }
    }

    fn summary(&self, req: &Request) -> Response {
        let Some(id) = self.experiment_for(req) else {
            return Response::error(404, "no experiment records in the portal");
        };
        Response::html(render_summary_html(&self.portal, &id))
    }

    fn run_detail(&self, req: &Request, run: &str) -> Response {
        let Ok(run) = run.parse::<u32>() else {
            return Response::error(400, &format!("bad run number '{run}'"));
        };
        let Some(id) = self.experiment_for(req) else {
            return Response::error(404, "no experiment records in the portal");
        };
        Response::html(render_run_html(&self.portal, &id, run))
    }

    fn blob(&self, raw: &str) -> Response {
        // Accept `blob:<hex>`, the filesystem-safe `blob_<hex>`, and bare
        // `<hex>` forms.
        let normalized = if let Some(hex) = raw.strip_prefix("blob:") {
            format!("blob:{hex}")
        } else if let Some(hex) = raw.strip_prefix("blob_") {
            format!("blob:{hex}")
        } else {
            format!("blob:{raw}")
        };
        match self.store.get(&BlobRef(normalized)) {
            Some(bytes) => {
                let content_type =
                    if bytes.starts_with(b"BM") { "image/bmp" } else { "application/octet-stream" };
                Response::new(200, content_type, bytes.to_vec())
            }
            None => Response::error(404, &format!("no blob '{raw}'")),
        }
    }

    fn prometheus(&self) -> Response {
        let mut text = self.metrics.render_prometheus(
            self.portal.len(),
            self.store.len(),
            self.store.total_bytes(),
            self.started.elapsed(),
        );
        {
            use std::fmt::Write as _;
            let _ = writeln!(
                text,
                "# HELP sdl_portal_queue_depth Connections queued for a pool worker."
            );
            let _ = writeln!(text, "# TYPE sdl_portal_queue_depth gauge");
            let _ = writeln!(
                text,
                "sdl_portal_queue_depth {}",
                self.queue_depth.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                text,
                "# HELP sdl_portal_draining 1 while the server drains for shutdown."
            );
            let _ = writeln!(text, "# TYPE sdl_portal_draining gauge");
            let _ =
                writeln!(text, "sdl_portal_draining {}", if self.is_draining() { 1 } else { 0 });
            let _ = writeln!(
                text,
                "# HELP sdl_portal_blob_evictions_total Blobs evicted from memory to spill files."
            );
            let _ = writeln!(text, "# TYPE sdl_portal_blob_evictions_total counter");
            let _ = writeln!(text, "sdl_portal_blob_evictions_total {}", self.store.evictions());
            let _ = writeln!(
                text,
                "# HELP sdl_portal_blob_reloads_total Evicted blobs reloaded from spill files."
            );
            let _ = writeln!(text, "# TYPE sdl_portal_blob_reloads_total counter");
            let _ = writeln!(text, "sdl_portal_blob_reloads_total {}", self.store.reloads());
        }
        // Worker mode: the batch-execution dispatch metrics ride along.
        if let Some(lab) = &self.lab {
            text.push_str(&lab.render_prometheus());
        }
        if let Some(gauges) = self.campaign_gauges() {
            text.push_str(&gauges);
        }
        Response::new(200, "text/plain; version=0.0.4; charset=utf-8", text)
    }

    /// Fold any new event-log lines into the cached [`ProgressModel`] and
    /// render the `sdl_lab_campaign_*` gauge block.
    fn campaign_gauges(&self) -> Option<String> {
        let log = self.events.as_ref()?;
        let mut watch = self.watch.lock().unwrap();
        loop {
            let (lines, _, _) = log.lines_from(watch.0, DEFAULT_EVENT_PAGE);
            if lines.is_empty() {
                break;
            }
            for (seq, line) in &lines {
                // Lines come straight from the append path, so a parse
                // failure is a bug — but a torn recovery suffix must not
                // take /metrics down with it.
                if let Ok(rec) = EventRecord::from_line(line) {
                    watch.1.apply(rec.seq, &rec.event);
                }
                watch.0 = seq + 1;
            }
        }
        let p = watch.1.clone();
        drop(watch);

        let mut out = String::new();
        use std::fmt::Write as _;
        let label =
            format!("campaign=\"{}\"", p.campaign.replace('\\', "\\\\").replace('"', "\\\""));
        let _ = writeln!(out, "# HELP sdl_lab_campaign_scenarios_total Scenarios in the campaign.");
        let _ = writeln!(out, "# TYPE sdl_lab_campaign_scenarios_total gauge");
        let _ = writeln!(out, "sdl_lab_campaign_scenarios_total{{{label}}} {}", p.total);
        let _ = writeln!(
            out,
            "# HELP sdl_lab_campaign_scenarios_done Scenarios finished (ok or failed)."
        );
        let _ = writeln!(out, "# TYPE sdl_lab_campaign_scenarios_done gauge");
        let _ = writeln!(out, "sdl_lab_campaign_scenarios_done{{{label}}} {}", p.done + p.failed);
        let _ = writeln!(out, "# HELP sdl_lab_campaign_scenarios_failed Scenarios that failed.");
        let _ = writeln!(out, "# TYPE sdl_lab_campaign_scenarios_failed gauge");
        let _ = writeln!(out, "sdl_lab_campaign_scenarios_failed{{{label}}} {}", p.failed);
        let _ = writeln!(out, "# HELP sdl_lab_campaign_samples_published Samples graded so far.");
        let _ = writeln!(out, "# TYPE sdl_lab_campaign_samples_published gauge");
        let _ = writeln!(out, "sdl_lab_campaign_samples_published{{{label}}} {}", p.samples);
        let _ =
            writeln!(out, "# HELP sdl_lab_campaign_event_seq Highest event-log sequence folded.");
        let _ = writeln!(out, "# TYPE sdl_lab_campaign_event_seq gauge");
        let _ = writeln!(out, "sdl_lab_campaign_event_seq{{{label}}} {}", p.seq);
        let _ = writeln!(
            out,
            "# HELP sdl_lab_campaign_worker_lag Event-seq lag of the slowest worker."
        );
        let _ = writeln!(out, "# TYPE sdl_lab_campaign_worker_lag gauge");
        let _ = writeln!(out, "sdl_lab_campaign_worker_lag{{{label}}} {}", p.slowest_worker_lag());
        let _ = writeln!(out, "# HELP sdl_lab_campaign_closed 1 once campaign_closed was logged.");
        let _ = writeln!(out, "# TYPE sdl_lab_campaign_closed gauge");
        let _ =
            writeln!(out, "sdl_lab_campaign_closed{{{label}}} {}", if p.closed { 1 } else { 0 });
        if let Some(best) = p.best {
            let _ = writeln!(out, "# HELP sdl_lab_campaign_best_score Best score seen so far.");
            let _ = writeln!(out, "# TYPE sdl_lab_campaign_best_score gauge");
            let _ = writeln!(out, "sdl_lab_campaign_best_score{{{label}}} {best}");
        }
        Some(out)
    }
}

/// A running server: bound address plus shutdown control. Dropping the
/// handle shuts the server down and joins every thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    server: Arc<PortalServer>,
}

impl ServerHandle {
    /// The bound socket address (real port even when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port` for this server.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// The shared server state (portal, store, metrics).
    pub fn server(&self) -> &Arc<PortalServer> {
        &self.server
    }

    /// Stop accepting, drain in-flight requests, join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Block the calling thread until the accept loop exits (i.e. another
    /// thread calls no one — this is for foreground `serve` use where the
    /// process lives as long as the server).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    fn stop(&mut self) {
        if self.accept_thread.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // Streaming responses watch this flag between frames; without it
        // an idle /events/stream subscriber would hold its pool worker
        // (and therefore the join below) until its peer went away.
        self.server.closing.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection. A wildcard
        // bind address (0.0.0.0 / ::) is not connectable on every
        // platform, so aim at the loopback equivalent instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind and start serving on background threads.
pub fn spawn(server: PortalServer, config: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let pool = ThreadPool::new(config.threads);
    let mut server = server;
    server.queue_depth = pool.depth_gauge();
    let server = Arc::new(server);
    let shutdown = Arc::new(AtomicBool::new(false));
    let max_conns = config.max_conns;
    let limits = ConnLimits {
        max_requests: config.max_requests_per_conn,
        idle_timeout: config.idle_timeout,
        request_deadline: config.request_deadline,
    };

    let accept_server = Arc::clone(&server);
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread =
        std::thread::Builder::new().name("portal-accept".to_string()).spawn(move || {
            for conn in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Admission control: past the live-connection cap the
                // accept thread itself answers an immediate 503 +
                // Retry-After and hangs up — the connection never queues,
                // so memory and queue depth stay bounded however many
                // clients pile in.
                if max_conns > 0 && accept_server.metrics.active_connections() >= max_conns as u64 {
                    accept_server.metrics.record_conn_shed();
                    let resp =
                        Response::shed(503, "connection limit reached", Duration::from_secs(1));
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                    let mut writer = BufWriter::new(&stream);
                    if http::write_response(&mut writer, &resp, false, true).is_ok() {
                        // Drain the request bytes the client already sent
                        // (briefly, bounded) so closing sends a clean FIN
                        // rather than an RST that races the 503 off the
                        // peer's socket before it can read it.
                        use std::io::Read as _;
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                        let mut sink = [0u8; 1024];
                        for _ in 0..8 {
                            match (&stream).read(&mut sink) {
                                Ok(n) if n > 0 => continue,
                                _ => break,
                            }
                        }
                    }
                    continue;
                }
                accept_server.metrics.record_connection();
                let server = Arc::clone(&accept_server);
                pool.execute(move || {
                    handle_connection(&server, stream, limits);
                    server.metrics.record_connection_closed();
                });
            }
            // Dropping the pool joins every worker, so `shutdown` returns
            // only after in-flight requests finish.
        })?;

    Ok(ServerHandle { addr, shutdown, accept_thread: Some(accept_thread), server })
}

/// Serve one connection: keep-alive loop of request → route → response,
/// bounded by [`ConnLimits`] — idle reaping, a whole-request deadline
/// (slow-loris protection), and a max-requests-per-connection cap.
fn handle_connection(server: &PortalServer, stream: TcpStream, limits: ConnLimits) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    // Idle keep-alive connections are reaped, and once a request's first
    // byte arrives the whole head + body must land within the deadline —
    // a trickling peer cannot park this worker.
    let mut reader =
        BufReader::new(DeadlineStream::new(&stream, limits.idle_timeout, limits.request_deadline));
    let mut writer = BufWriter::new(write_half);
    let mut served = 0usize;

    loop {
        reader.get_mut().start_request();
        let req = match http::read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => break,
            Err(ParseError::Io(_)) => {
                if reader.get_ref().deadline_expired() {
                    // A started-but-never-finished request: tell the slow
                    // loris why it was cut off, then hang up.
                    let resp = Response::error(408, "request read deadline exceeded");
                    server.metrics.record_request("bad", 408, Duration::ZERO, resp.body.len());
                    let _ = http::write_response(&mut writer, &resp, false, true);
                }
                break;
            }
            Err(e) => {
                let status = if matches!(e, ParseError::TooLarge) { 431 } else { 400 };
                let resp = Response::error(status, &e.to_string());
                server.metrics.record_request("bad", status, Duration::ZERO, resp.body.len());
                let _ = http::write_response(&mut writer, &resp, false, true);
                break;
            }
        };

        let started = Instant::now();
        let head_only = req.method == "HEAD";
        // Server-sent events cannot be Content-Length-framed, so the
        // stream route bypasses handle() and writes the socket directly.
        if req.path == "/events/stream" && req.method == "GET" {
            serve_event_stream(server, &req, &mut writer, started);
            break;
        }
        let resp = server.handle(&req);
        if resp.hangup {
            // Chaos kill: drop the socket without writing a byte, exactly
            // like a worker process dying mid-request. The client sees a
            // closed connection, not an error response.
            break;
        }
        // Bodies within bounds are fully read by read_request, so even 4xx
        // responses keep the connection in sync; only oversized/garbage
        // requests close, and those are handled in the parse-error branch
        // above.
        served += 1;
        let close = req.wants_close()
            || server.is_draining()
            || (limits.max_requests > 0 && served >= limits.max_requests);
        let sent = if head_only { 0 } else { resp.body.len() };
        server.metrics.record_request(&req.path, resp.status, started.elapsed(), sent);
        if http::write_response(&mut writer, &resp, head_only, close).is_err() || close {
            break;
        }
    }
}

/// `GET /events/stream` — the event log as a server-sent-events stream.
///
/// Frames are `id: <seq>` / `data: <log line>` pairs; `?from=<seq>`
/// resumes mid-log (SSE `Last-Event-ID` semantics, query-param form).
/// The stream ends when the log closes (`event: close` frame), the
/// server shuts down, or the peer disconnects; the connection always
/// closes afterwards — SSE is not resumable in-place.
fn serve_event_stream(
    server: &PortalServer,
    req: &Request,
    writer: &mut impl Write,
    started: Instant,
) {
    let finish = |status: u16, sent: usize| {
        server.metrics.record_request(&req.path, status, started.elapsed(), sent);
    };
    let Some(log) = server.events() else {
        let resp = Response::error(404, "no campaign event log is attached to this server");
        finish(404, resp.body.len());
        let _ = http::write_response(writer, &resp, false, true);
        return;
    };
    let mut from = match req.query_param("from").map(|v| v.parse::<u64>()) {
        None => 1,
        Some(Ok(n)) => n.max(1),
        Some(Err(_)) => {
            let resp = Response::error(400, "bad from");
            finish(400, resp.body.len());
            let _ = http::write_response(writer, &resp, false, true);
            return;
        }
    };
    if write!(
        writer,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n"
    )
    .and_then(|_| writer.flush())
    .is_err()
    {
        finish(500, 0);
        return;
    }

    let mut sent = 0usize;
    loop {
        if server.closing.load(Ordering::SeqCst) {
            break;
        }
        // Short slices rather than one long wait so shutdown is honored
        // within ~SSE_SLICE even while the log is quiet.
        let (lines, head, closed) = log.wait_from(from, DEFAULT_EVENT_PAGE, SSE_SLICE);
        let mut frame = String::new();
        for (seq, line) in &lines {
            use std::fmt::Write as _;
            let _ = write!(frame, "id: {seq}\ndata: {line}\n\n");
            from = seq + 1;
        }
        let done = closed && from > head;
        if done {
            frame.push_str("event: close\ndata: end of log\n\n");
        }
        if !frame.is_empty() {
            sent += frame.len();
            if writer.write_all(frame.as_bytes()).and_then(|_| writer.flush()).is_err() {
                break;
            }
        }
        if done {
            break;
        }
    }
    finish(200, sent);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(server: &PortalServer, target: &str) -> Response {
        let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
        let req = http::read_request(&mut BufReader::new(raw.as_bytes())).unwrap().unwrap();
        server.handle(&req)
    }

    fn test_server() -> PortalServer {
        let portal = Arc::new(AcdcPortal::new());
        let mut v = Value::map();
        v.set("kind", "experiment");
        v.set("experiment_id", "e1");
        v.set("name", "ColorPickerRPL");
        portal.ingest(v);
        for i in 0..5i64 {
            let mut v = Value::map();
            v.set("kind", "note");
            v.set("i", i);
            portal.ingest(v);
        }
        let store = Arc::new(BlobStore::in_memory());
        store.put(bytes::Bytes::from_static(b"BMbitmapdata"));
        PortalServer::new(portal, store)
    }

    #[test]
    fn index_escapes_hostile_experiment_ids() {
        let portal = Arc::new(AcdcPortal::new());
        let mut v = Value::map();
        v.set("kind", "experiment");
        v.set("experiment_id", "a&b\"<x>");
        portal.ingest(v);
        let server = PortalServer::new(portal, Arc::new(BlobStore::in_memory()));
        let body = String::from_utf8(get(&server, "/").body).unwrap();
        // The href percent-encodes the id; the link text entity-escapes it.
        assert!(body.contains("href=\"/summary?experiment=a%26b%22%3Cx%3E\""), "{body}");
        assert!(body.contains(">a&amp;b&quot;&lt;x&gt;</a>"), "{body}");
        assert!(!body.contains("experiment=a&b"), "raw & must not split the query");
    }

    #[test]
    fn routes_resolve() {
        let server = test_server();
        assert_eq!(get(&server, "/").status, 200);
        assert_eq!(get(&server, "/healthz").status, 200);
        assert_eq!(get(&server, "/records").status, 200);
        assert_eq!(get(&server, "/summary").status, 200);
        assert_eq!(get(&server, "/runs/1").status, 200);
        assert_eq!(get(&server, "/metrics").status, 200);
        assert_eq!(get(&server, "/nope").status, 404);
        assert_eq!(get(&server, "/runs/xyz").status, 400);
        assert_eq!(get(&server, "/records?limit=zzz").status, 400);
        assert_eq!(get(&server, "/blobs/missing").status, 404);
    }

    #[test]
    fn records_filters_and_paginates() {
        let server = test_server();
        let all = get(&server, "/records");
        assert_eq!(String::from_utf8(all.body).unwrap().lines().count(), 6);
        let notes = get(&server, "/records?kind=note");
        assert_eq!(String::from_utf8(notes.body).unwrap().lines().count(), 5);
        let page = get(&server, "/records?kind=note&limit=2&offset=4");
        let body = String::from_utf8(page.body).unwrap();
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"i\": 4") || body.contains("\"i\":4"), "{body}");
        assert!(page.headers.iter().any(|(k, v)| k == "X-Total-Count" && v == "5"));
        let one = get(&server, "/records?i=3");
        assert_eq!(String::from_utf8(one.body).unwrap().lines().count(), 1);
    }

    fn event_log_with_two_scenarios() -> Arc<EventLog> {
        use sdl_core::{CampaignEvent, ScenarioSummary};
        let log = Arc::new(EventLog::in_memory());
        log.append(&CampaignEvent::CampaignOpened {
            campaign: "camp\"x\"".to_string(),
            executor: "runner".to_string(),
            workers: vec!["local-0".to_string()],
            specs: vec![Value::map(), Value::map()],
        });
        log.append(&CampaignEvent::ScenarioStarted {
            index: 0,
            label: "a".to_string(),
            attempt: 0,
            worker: "local-0".to_string(),
        });
        log.append(&CampaignEvent::ScenarioFinished {
            index: 0,
            label: "a".to_string(),
            attempt: 0,
            worker: "local-0".to_string(),
            summary: ScenarioSummary {
                best_score: 12.5,
                duration: sdl_desim::SimDuration::from_micros(5000),
                samples: 4,
                plates: 1,
                robotic_commands: 9,
                solver_fallbacks: 0,
                single: None,
                multi: None,
            },
        });
        log
    }

    #[test]
    fn events_route_pages_and_reports_cursor() {
        let log = event_log_with_two_scenarios();
        let server = test_server().with_events(Arc::clone(&log));

        let all = get(&server, "/events");
        assert_eq!(all.status, 200);
        assert_eq!(all.content_type, "application/x-ndjson");
        let body = String::from_utf8(all.body).unwrap();
        assert_eq!(body.lines().count(), 3);
        assert!(body.lines().all(|l| EventRecord::from_line(l).is_ok()), "{body}");
        assert!(all.headers.iter().any(|(k, v)| k == "X-Next-Seq" && v == "4"));
        assert!(all.headers.iter().any(|(k, v)| k == "X-Event-Head" && v == "3"));
        assert!(all.headers.iter().any(|(k, v)| k == "X-Log-Closed" && v == "false"));

        let page = get(&server, "/events?from=2&limit=1");
        let body = String::from_utf8(page.body).unwrap();
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("scenario_started"), "{body}");
        assert!(page.headers.iter().any(|(k, v)| k == "X-Next-Seq" && v == "3"));

        // Past the head: empty body, cursor unchanged.
        let empty = get(&server, "/events?from=9");
        assert!(empty.body.is_empty());
        assert!(empty.headers.iter().any(|(k, v)| k == "X-Next-Seq" && v == "9"));

        assert_eq!(get(&server, "/events?from=zero").status, 400);
        assert_eq!(get(&server, "/events?nope=1").status, 400);
        assert_eq!(get(&test_server(), "/events").status, 404);
    }

    #[test]
    fn events_long_poll_returns_on_append() {
        use sdl_core::CampaignEvent;
        let log = event_log_with_two_scenarios();
        let server = Arc::new(test_server().with_events(Arc::clone(&log)));
        let poller = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || get(&server, "/events?from=4&timeout_ms=5000"))
        };
        std::thread::sleep(Duration::from_millis(50));
        log.append(&CampaignEvent::WorkerReadmitted { worker: "local-0".to_string() });
        let resp = poller.join().unwrap();
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("worker_readmitted"), "{body}");
    }

    #[test]
    fn campaign_gauges_render_on_metrics() {
        let log = event_log_with_two_scenarios();
        let server = test_server().with_events(log);
        let text = String::from_utf8(get(&server, "/metrics").body).unwrap();
        let label = "campaign=\"camp\\\"x\\\"\"";
        assert!(text.contains(&format!("sdl_lab_campaign_scenarios_total{{{label}}} 2")), "{text}");
        assert!(text.contains(&format!("sdl_lab_campaign_scenarios_done{{{label}}} 1")), "{text}");
        assert!(text.contains(&format!("sdl_lab_campaign_event_seq{{{label}}} 3")), "{text}");
        assert!(text.contains(&format!("sdl_lab_campaign_best_score{{{label}}} 12.5")), "{text}");
        assert!(text.contains(&format!("sdl_lab_campaign_closed{{{label}}} 0")), "{text}");
        // The fold is incremental: a second scrape after no growth reads
        // nothing new and renders the same gauges.
        let again = String::from_utf8(get(&server, "/metrics").body).unwrap();
        assert!(again.contains(&format!("sdl_lab_campaign_event_seq{{{label}}} 3")), "{again}");
        // No log attached → no campaign block at all.
        let bare = String::from_utf8(get(&test_server(), "/metrics").body).unwrap();
        assert!(!bare.contains("sdl_lab_campaign_"), "{bare}");
    }

    #[test]
    fn event_stream_writes_sse_frames_until_close() {
        use sdl_core::CampaignEvent;
        let log = event_log_with_two_scenarios();
        log.append(&CampaignEvent::CampaignClosed {
            scenarios: 2,
            failed: 0,
            best_score: Some(12.5),
            scheduler: None,
        });
        let server = test_server().with_events(log);
        let raw = "GET /events/stream?from=2 HTTP/1.1\r\n\r\n";
        let req = http::read_request(&mut BufReader::new(raw.as_bytes())).unwrap().unwrap();
        let mut out = Vec::new();
        serve_event_stream(&server, &req, &mut out, Instant::now());
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: text/event-stream"), "{text}");
        assert!(!text.contains("Content-Length"), "{text}");
        assert!(text.contains("id: 2\ndata: "), "{text}");
        assert!(text.contains("id: 4\ndata: "), "{text}");
        assert!(!text.contains("id: 1\n"), "from=2 must skip seq 1: {text}");
        assert!(text.ends_with("event: close\ndata: end of log\n\n"), "{text}");
    }

    #[test]
    fn blob_content_type_sniffs_bmp() {
        let server = test_server();
        let r = server.store().refs().pop().unwrap();
        let resp = get(&server, &format!("/blobs/{}", r.0));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "image/bmp");
        assert_eq!(resp.body, b"BMbitmapdata");
        // Filesystem-safe and bare-hex forms resolve to the same blob.
        let alt = get(&server, &format!("/blobs/{}", r.0.replace(':', "_")));
        assert_eq!(alt.status, 200);
        let bare = get(&server, &format!("/blobs/{}", r.0.strip_prefix("blob:").unwrap()));
        assert_eq!(bare.status, 200);
    }
}
