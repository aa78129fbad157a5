//! The batch-execution API: simulated labs hosted behind `POST /v1/*`.
//!
//! A [`LabHost`] turns this server into a lab *worker*: a remote
//! `Experiment` session (see `sdl_core::RemoteBackend`) creates a
//! [`sdl_core::SimBackend`] here from a shipped scenario configuration,
//! submits batches against it, and closes it for final telemetry. All
//! payloads are encoded by `sdl_core::wire`, the single protocol
//! definition shared with the client.
//!
//! Routes (JSON bodies, except the plate frame of a `/v1/batch` reply):
//!
//! * `POST /v1/experiments` — body: an application config document; opens a
//!   lab session, responds `{session, plate_capacity, dye_channels, …}`.
//! * `POST /v1/batch?session=ID` — body: `{run, ratios}`; executes one
//!   batch, responds with the head `{measurements, elapsed_us, timing?,
//!   image_len?}`, then `\n` and the raw BMP frame when there is one
//!   (`sdl_core::wire::encode_result`).
//! * `POST /v1/close?session=ID` — body: `{samples}`; disposes the plate,
//!   responds the final telemetry, deletes the session.
//! * `GET  /v1/sessions` — live session ids (diagnostics).
//!
//! Batch submission is **idempotent per run number**: the host caches each
//! session's last encoded response body, and resubmitting the same `run`
//! replays those bytes instead of re-executing the lab. That makes the
//! client's resend-on-lost-connection safe even when the worker read a
//! request but failed before the response got out. Sessions abandoned by a crashed
//! client are evicted after [`SESSION_TTL`] of inactivity.

use crate::http::{Request, Response};
use parking_lot::Mutex;
use sdl_conf::{from_json, to_json, Value, ValueExt};
use sdl_core::{
    wire, AppConfig, AppError, ChaosClock, ChaosPolicy, LabBackend, SimBackend, WorkerFault,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle time after which an abandoned lab session is evicted (a driving
/// process that crashed without posting `/v1/close` must not leak a
/// simulated workcell in the worker forever).
pub const SESSION_TTL: Duration = Duration::from_secs(30 * 60);

/// Most token buckets kept before idle ones are pruned (a tenant id churn
/// attack must not grow the quota table unboundedly).
const MAX_TENANTS: usize = 1024;

/// Per-tenant token-bucket quota: `rate` requests per second refilling a
/// bucket of `burst` tokens; each admitted `/v1` POST costs one token.
///
/// The tenant key is the lab session id (`?session=`), so every open
/// session — one scenario attempt of one campaign — gets its own bucket;
/// session creation itself draws from a shared `"open"` bucket, which is
/// what bounds how fast new tenants can appear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaPolicy {
    /// Sustained refill rate, tokens (requests) per second.
    pub rate: f64,
    /// Bucket capacity — the tolerated burst above the sustained rate.
    pub burst: f64,
}

impl QuotaPolicy {
    /// Parse `"RATE"` or `"RATE:BURST"` (e.g. `"5"`, `"2.5:20"`).
    pub fn parse(spec: &str) -> Result<QuotaPolicy, String> {
        let (rate, burst) = match spec.split_once(':') {
            Some((r, b)) => (r, Some(b)),
            None => (spec, None),
        };
        let rate: f64 =
            rate.trim().parse().map_err(|_| format!("bad quota rate '{}'", rate.trim()))?;
        if !rate.is_finite() || rate <= 0.0 {
            return Err(format!("quota rate must be positive, got {rate}"));
        }
        let burst = match burst {
            Some(b) => {
                let b: f64 =
                    b.trim().parse().map_err(|_| format!("bad quota burst '{}'", b.trim()))?;
                if !b.is_finite() || b < 1.0 {
                    return Err(format!("quota burst must be >= 1, got {b}"));
                }
                b
            }
            None => rate.max(1.0),
        };
        Ok(QuotaPolicy { rate, burst })
    }
}

/// One tenant's token bucket.
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// One hosted lab: the simulated backend plus idempotency bookkeeping.
struct LabSession {
    backend: SimBackend,
    /// The last executed batch's `(run, response body)` — replayed
    /// verbatim if the client resends the same run after a lost response.
    last_batch: Option<(u32, Vec<u8>)>,
    last_used: Instant,
}

/// Closed-session responses kept for lost-response replay.
const CLOSED_CACHE: usize = 64;

/// A `/v1/batch` reply is a JSON head followed by raw frame bytes, so it is
/// not labelled as JSON.
const BATCH_CONTENT_TYPE: &str = "application/octet-stream";

/// Lock-free dispatch counters for the batch-execution API, rendered next
/// to the route metrics at `GET /metrics` (`sdl_lab_*`). These are what a
/// campaign scheduler's per-worker view looks like from the worker's side:
/// in-flight batches, replayed (client-retried) runs, session churn.
#[derive(Debug, Default)]
pub struct LabMetrics {
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    sessions_evicted: AtomicU64,
    batches_executed: AtomicU64,
    /// Duplicate-run resubmissions answered from the idempotency cache —
    /// each one is a scheduler/client retry observed on this worker.
    batch_replays: AtomicU64,
    /// Batches currently executing (gauge).
    batches_inflight: AtomicU64,
    /// Chaos-injected request stalls (`--chaos stall=…`).
    chaos_stalls: AtomicU64,
    /// Chaos-injected 500 responses (`--chaos error=…`).
    chaos_errors: AtomicU64,
    /// Chaos-injected connection hangups (`--chaos kill=…`).
    chaos_kills: AtomicU64,
    /// Chaos-injected 429 sheds (`--chaos shed=…`).
    chaos_sheds: AtomicU64,
    /// Every `/v1` request refused with 429/503 instead of being served
    /// (quota, in-flight cap, drain, and chaos sheds combined).
    shed_total: AtomicU64,
    /// Requests refused because the tenant's token bucket ran dry (429).
    quota_denials: AtomicU64,
    /// Batches refused because the in-flight cap was reached (503).
    capacity_denials: AtomicU64,
    /// Session-open requests refused because the host is draining (503).
    drain_denials: AtomicU64,
}

impl LabMetrics {
    /// Batches currently executing.
    pub fn inflight(&self) -> u64 {
        self.batches_inflight.load(Ordering::Relaxed)
    }

    /// Duplicate-run replays served (observed client retries).
    pub fn replays(&self) -> u64 {
        self.batch_replays.load(Ordering::Relaxed)
    }

    /// Batches executed (idempotent replays excluded).
    pub fn executed(&self) -> u64 {
        self.batches_executed.load(Ordering::Relaxed)
    }

    /// Sessions evicted after [`SESSION_TTL`] of inactivity.
    pub fn evicted(&self) -> u64 {
        self.sessions_evicted.load(Ordering::Relaxed)
    }

    /// Total chaos faults this worker injected into its own requests.
    pub fn chaos_injected(&self) -> u64 {
        self.chaos_stalls.load(Ordering::Relaxed)
            + self.chaos_errors.load(Ordering::Relaxed)
            + self.chaos_kills.load(Ordering::Relaxed)
            + self.chaos_sheds.load(Ordering::Relaxed)
    }

    /// Requests refused with 429/503 instead of served (all causes).
    pub fn shed(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Requests refused because a tenant's token bucket ran dry.
    pub fn quota_denials(&self) -> u64 {
        self.quota_denials.load(Ordering::Relaxed)
    }

    /// Batches refused at the in-flight cap.
    pub fn capacity_denials(&self) -> u64 {
        self.capacity_denials.load(Ordering::Relaxed)
    }

    /// Session opens refused while draining.
    pub fn drain_denials(&self) -> u64 {
        self.drain_denials.load(Ordering::Relaxed)
    }

    fn count_shed(&self, cause: &AtomicU64) {
        cause.fetch_add(1, Ordering::Relaxed);
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }
}

/// Decrements the in-flight gauge even when a handler early-returns.
struct InflightGuard<'a>(&'a AtomicU64);

impl<'a> InflightGuard<'a> {
    fn enter(gauge: &'a AtomicU64) -> InflightGuard<'a> {
        gauge.fetch_add(1, Ordering::Relaxed);
        InflightGuard(gauge)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Hosts simulated-lab sessions for remote experiment drivers.
#[derive(Default)]
pub struct LabHost {
    sessions: Mutex<BTreeMap<String, Arc<Mutex<LabSession>>>>,
    /// Final responses of recently closed sessions, so a client that lost
    /// the `/v1/close` response can resend and still collect its telemetry
    /// (bounded FIFO of [`CLOSED_CACHE`] entries).
    closed: Mutex<Vec<(String, Value)>>,
    next_id: AtomicU64,
    metrics: LabMetrics,
    /// Worker-side fault injection (`sdl-lab serve --chaos`): rolled once
    /// per `/v1` request in arrival order.
    chaos: Option<ChaosClock>,
    /// Per-tenant admission quota (`serve --quota`); `None` admits all.
    quota: Option<QuotaPolicy>,
    /// Live token buckets, keyed by tenant (session id, or `"open"` for
    /// session creation).
    buckets: Mutex<BTreeMap<String, Bucket>>,
    /// Most batches executing at once before `/v1/batch` sheds with 503;
    /// 0 = unbounded.
    max_inflight: u64,
    /// Graceful drain: refuse new sessions, finish in-flight work.
    draining: AtomicBool,
}

impl std::fmt::Debug for LabHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabHost").field("sessions", &self.len()).finish()
    }
}

impl LabHost {
    /// An empty host (no sessions).
    pub fn new() -> LabHost {
        LabHost::default()
    }

    /// Attach worker-side chaos: every `/v1` request rolls `policy`'s
    /// `stall`/`error`/`kill` faults before being served. Health probes
    /// (`/healthz`) are unaffected — a chaos'd worker stays observable, so
    /// eviction and readmission still work. A no-op policy attaches
    /// nothing.
    pub fn with_chaos(mut self, policy: ChaosPolicy) -> LabHost {
        self.chaos = if policy.is_noop() { None } else { Some(ChaosClock::new(policy)) };
        self
    }

    /// Enforce a per-tenant token-bucket quota on `/v1` POSTs: over-quota
    /// requests get an immediate `429` with `Retry-After` instead of
    /// queuing.
    pub fn with_quota(mut self, quota: QuotaPolicy) -> LabHost {
        self.quota = Some(quota);
        self
    }

    /// Cap concurrently executing batches; past the cap `/v1/batch` sheds
    /// with `503` + `Retry-After` instead of piling more lab work onto the
    /// connection threads. 0 (the default) means unbounded: then only the
    /// server's connection cap bounds concurrent batches.
    pub fn with_max_inflight(mut self, max: u64) -> LabHost {
        self.max_inflight = max;
        self
    }

    /// Enter drain mode: new sessions are refused with `503`, in-flight
    /// batches and closes on existing sessions keep being served so no
    /// accepted work is lost.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// True once [`LabHost::begin_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Charge one token to `tenant`'s bucket; on an empty bucket, the
    /// error is how long until one token refills (the `Retry-After` hint).
    fn admit(&self, tenant: &str) -> Result<(), Duration> {
        let Some(quota) = self.quota else { return Ok(()) };
        let now = Instant::now();
        let mut buckets = self.buckets.lock();
        if buckets.len() >= MAX_TENANTS && !buckets.contains_key(tenant) {
            // Prune buckets that have fully refilled — they carry no state
            // a fresh bucket wouldn't have.
            buckets.retain(|_, b| {
                b.tokens + b.last.elapsed().as_secs_f64() * quota.rate < quota.burst
            });
        }
        let bucket = buckets
            .entry(tenant.to_string())
            .or_insert_with(|| Bucket { tokens: quota.burst, last: now });
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * quota.rate).min(quota.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            Err(Duration::from_secs_f64((1.0 - bucket.tokens) / quota.rate))
        }
    }

    /// Live token buckets (quota tenants currently tracked).
    pub fn quota_tenants(&self) -> usize {
        self.buckets.lock().len()
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.sessions.lock().len()
    }

    /// True when no lab sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The host's dispatch counters.
    pub fn metrics(&self) -> &LabMetrics {
        &self.metrics
    }

    /// Render the batch-execution metrics in the Prometheus text format
    /// (appended to the portal route metrics at `GET /metrics`).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        let p = "sdl_lab";
        let m = &self.metrics;
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {p}_{name} {help}");
            let _ = writeln!(out, "# TYPE {p}_{name} gauge");
            let _ = writeln!(out, "{p}_{name} {v}");
        };
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {p}_{name} {help}");
            let _ = writeln!(out, "# TYPE {p}_{name} counter");
            let _ = writeln!(out, "{p}_{name} {v}");
        };
        gauge(&mut out, "sessions_open", "Live lab sessions.", self.len() as u64);
        gauge(
            &mut out,
            "batches_inflight",
            "Batches currently executing.",
            m.batches_inflight.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "sessions_opened_total",
            "Lab sessions created.",
            m.sessions_opened.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "sessions_closed_total",
            "Lab sessions closed by the client.",
            m.sessions_closed.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "sessions_evicted_total",
            "Abandoned sessions evicted after the idle TTL.",
            m.sessions_evicted.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "batches_executed_total",
            "Batches mixed and measured.",
            m.batches_executed.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "batch_replays_total",
            "Duplicate-run resubmissions answered from the idempotency cache (client retries).",
            m.batch_replays.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "chaos_stalls_total",
            "Chaos-injected request stalls (`--chaos stall=`).",
            m.chaos_stalls.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "chaos_errors_total",
            "Chaos-injected HTTP 500 responses (`--chaos error=`).",
            m.chaos_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "chaos_kills_total",
            "Chaos-injected connection hangups (`--chaos kill=`).",
            m.chaos_kills.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "chaos_sheds_total",
            "Chaos-injected 429 sheds (`--chaos shed=`).",
            m.chaos_sheds.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "shed_total",
            "Requests refused with 429/503 instead of served (all causes).",
            m.shed_total.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "quota_denials_total",
            "Requests refused because the tenant's token bucket ran dry (429).",
            m.quota_denials.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "capacity_denials_total",
            "Batches refused at the in-flight cap (503).",
            m.capacity_denials.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "drain_denials_total",
            "Session opens refused while draining (503).",
            m.drain_denials.load(Ordering::Relaxed),
        );
        gauge(&mut out, "quota_tenants", "Live quota token buckets.", self.quota_tenants() as u64);
        gauge(
            &mut out,
            "draining",
            "1 while the host is draining (refusing new sessions).",
            self.is_draining() as u64,
        );
        out
    }

    /// Route one `/v1/*` request.
    pub fn handle(&self, req: &Request) -> Response {
        self.evict_idle();
        if let Some(clock) = &self.chaos {
            match clock.decide() {
                WorkerFault::None => {}
                WorkerFault::Stall(wait) => {
                    // Slow is not wrong: serve normally after the nap.
                    self.metrics.chaos_stalls.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(wait);
                }
                WorkerFault::Error => {
                    self.metrics.chaos_errors.fetch_add(1, Ordering::Relaxed);
                    return Response::error(500, "chaos: injected worker error");
                }
                WorkerFault::Kill => {
                    self.metrics.chaos_kills.fetch_add(1, Ordering::Relaxed);
                    return Response::hangup();
                }
                WorkerFault::Shed => {
                    // Deterministic overload: refuse exactly like a real
                    // quota denial so client backpressure handling is
                    // exercised on a replayable schedule.
                    self.metrics.chaos_sheds.fetch_add(1, Ordering::Relaxed);
                    self.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
                    return Response::shed(429, "chaos: injected shed", Duration::from_secs(1));
                }
            }
        }
        // Per-tenant admission: every POST costs one token from the
        // session's bucket (session creation draws from a shared "open"
        // bucket). GETs are diagnostics and stay free.
        if req.method == "POST" && req.path.starts_with("/v1/") {
            let tenant = req.query_param("session").unwrap_or("open");
            if let Err(retry_after) = self.admit(tenant) {
                self.metrics.count_shed(&self.metrics.quota_denials);
                return Response::shed(
                    429,
                    &format!("quota exceeded for tenant '{tenant}'"),
                    retry_after,
                );
            }
        }
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/experiments") => self.create(req),
            ("POST", "/v1/batch") => self.batch(req),
            ("POST", "/v1/close") => self.close(req),
            ("GET", "/v1/sessions") => self.list(),
            ("GET" | "HEAD", _) => Response::error(405, "batch-execution routes want POST")
                .with_header("Allow", "POST"),
            _ => Response::error(404, "unknown /v1 route"),
        }
    }

    fn create(&self, req: &Request) -> Response {
        if self.is_draining() {
            self.metrics.count_shed(&self.metrics.drain_denials);
            return Response::shed(
                503,
                "draining: not accepting new sessions",
                Duration::from_secs(2),
            );
        }
        let doc = match from_json(&req.body_text()) {
            Ok(doc) => doc,
            Err(e) => return Response::error(400, &format!("bad config JSON: {e}")),
        };
        let config = match AppConfig::from_value(&doc) {
            Ok(config) => config,
            Err(e) => return Response::error(400, &format!("bad config: {e}")),
        };
        let mut backend = match SimBackend::new(&config) {
            Ok(backend) => backend,
            Err(e) => return Response::error(400, &format!("cannot build lab: {e}")),
        };
        // An out-of-plates failure at open is a *termination criterion*,
        // not a setup error: register the session anyway (so the client
        // can `/v1/close` it for telemetry, mirroring the in-process flow)
        // and tunnel the structured error alongside the capabilities.
        let (caps, open_error) = match backend.open() {
            Ok(caps) => (caps, None),
            Err(e) if is_out_of_plates(&e) => {
                let caps = backend.capabilities().expect("sim capabilities are static");
                (caps, Some(e))
            }
            Err(e) => return lab_error(e),
        };
        let id = format!("lab-{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let session = LabSession { backend, last_batch: None, last_used: Instant::now() };
        self.sessions.lock().insert(id.clone(), Arc::new(Mutex::new(session)));
        self.metrics.sessions_opened.fetch_add(1, Ordering::Relaxed);
        let mut v = wire::caps_to_value(&caps);
        v.set("session", id.as_str());
        if let Some(e) = open_error {
            v.set("error_kind", "out_of_plates");
            v.set("error", e.to_string().as_str());
        }
        Response::json(to_json(&v))
    }

    /// Drop sessions idle past [`SESSION_TTL`] (a busy session — one whose
    /// lock is held by an in-flight request — is by definition not idle).
    fn evict_idle(&self) {
        let mut evicted = 0u64;
        self.sessions.lock().retain(|_, s| match s.try_lock() {
            Some(state) => {
                let keep = state.last_used.elapsed() < SESSION_TTL;
                if !keep {
                    evicted += 1;
                }
                keep
            }
            None => true,
        });
        if evicted > 0 {
            self.metrics.sessions_evicted.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    fn session(&self, req: &Request) -> Result<Arc<Mutex<LabSession>>, Response> {
        let Some(id) = req.query_param("session") else {
            return Err(Response::error(400, "missing ?session=ID"));
        };
        self.sessions
            .lock()
            .get(id)
            .cloned()
            .ok_or_else(|| Response::error(404, &format!("no lab session '{id}'")))
    }

    fn batch(&self, req: &Request) -> Response {
        let session = match self.session(req) {
            Ok(session) => session,
            Err(resp) => return resp,
        };
        let batch = match from_json(&req.body_text())
            .map_err(|e| e.to_string())
            .and_then(|doc| wire::batch_from_value(&doc).map_err(|e| e.to_string()))
        {
            Ok(batch) => batch,
            Err(e) => return Response::error(400, &format!("bad batch: {e}")),
        };
        // Bounded in-flight work: past the cap, shed instead of queuing
        // more lab execution behind the session locks.
        if self.max_inflight > 0
            && self.metrics.batches_inflight.load(Ordering::Relaxed) >= self.max_inflight
        {
            self.metrics.count_shed(&self.metrics.capacity_denials);
            return Response::shed(503, "batch capacity reached", Duration::from_secs(1));
        }
        // Sessions are driven by one client at a time; the per-session lock
        // serializes stray concurrent submissions without blocking other
        // sessions.
        let _inflight = InflightGuard::enter(&self.metrics.batches_inflight);
        let mut state = session.lock();
        state.last_used = Instant::now();
        // Idempotent resend: a client that lost the response re-posts the
        // same run; replay the cached response instead of mixing the batch
        // a second time.
        if let Some((run, cached)) = &state.last_batch {
            if *run == batch.run {
                self.metrics.batch_replays.fetch_add(1, Ordering::Relaxed);
                return Response::new(200, BATCH_CONTENT_TYPE, cached.clone());
            }
        }
        let result = state.backend.submit_batch(&batch);
        match result {
            Ok(result) => {
                self.metrics.batches_executed.fetch_add(1, Ordering::Relaxed);
                let body = wire::encode_result(&result);
                state.last_batch = Some((batch.run, body.clone()));
                Response::new(200, BATCH_CONTENT_TYPE, body)
            }
            Err(e) => lab_error(e),
        }
    }

    fn close(&self, req: &Request) -> Response {
        let Some(id) = req.query_param("session").map(str::to_string) else {
            return Response::error(400, "missing ?session=ID");
        };
        let Some(session) = self.sessions.lock().remove(&id) else {
            // Lost-response replay: the session may already be closed —
            // resending `/v1/close` must return the telemetry, not a 404.
            let closed = self.closed.lock();
            return match closed.iter().find(|(cid, _)| *cid == id) {
                Some((_, cached)) => Response::json(to_json(cached)),
                None => Response::error(404, &format!("no lab session '{id}'")),
            };
        };
        let samples = from_json(&req.body_text())
            .ok()
            .and_then(|doc| doc.opt_i64("samples"))
            .unwrap_or(0)
            .max(0) as u32;
        let result = session.lock().backend.close(samples);
        match result {
            Ok(close) => {
                self.metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
                let v = wire::close_to_value(&close);
                let body = to_json(&v);
                let mut closed = self.closed.lock();
                if closed.len() >= CLOSED_CACHE {
                    closed.remove(0);
                }
                closed.push((id, v));
                Response::json(body)
            }
            Err(e) => lab_error(e),
        }
    }

    fn list(&self) -> Response {
        let mut ids = Value::seq();
        for id in self.sessions.lock().keys() {
            ids.push(id.as_str());
        }
        let mut v = Value::map();
        v.set("sessions", ids);
        Response::json(to_json(&v))
    }
}

/// Is this the sciclops running dry — a termination criterion rather than
/// a failure?
fn is_out_of_plates(e: &AppError) -> bool {
    matches!(
        e,
        AppError::Wei(sdl_wei::WeiError::CommandAborted {
            cause: sdl_instruments::InstrumentError::OutOfPlates,
            ..
        })
    )
}

/// Encode a lab-side failure. Out-of-plates is a *structured* error (a
/// termination criterion client-side), everything else a plain 500.
fn lab_error(e: AppError) -> Response {
    if is_out_of_plates(&e) {
        let mut v = Value::map();
        v.set("error_kind", "out_of_plates");
        v.set("error", e.to_string().as_str());
        return Response::json(to_json(&v));
    }
    Response::error(500, &format!("lab error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_request;
    use std::io::BufReader;

    fn post(host: &LabHost, target: &str, body: &str) -> Response {
        let raw = format!("POST {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        let req = read_request(&mut BufReader::new(raw.as_bytes())).unwrap().unwrap();
        host.handle(&req)
    }

    fn json(resp: &Response) -> Value {
        from_json(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    fn batch_result(resp: &Response) -> sdl_core::BatchResult {
        match wire::decode_result(&resp.body).unwrap() {
            wire::BatchReply::Done(result) => result,
            wire::BatchReply::OutOfPlates => panic!("unexpected out-of-plates reply"),
        }
    }

    #[test]
    fn full_session_lifecycle() {
        let host = LabHost::new();
        let created = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        assert_eq!(created.status, 200, "{}", String::from_utf8_lossy(&created.body));
        let v = json(&created);
        let session = v.opt_str("session").unwrap().to_string();
        assert_eq!(v.opt_i64("plate_capacity"), Some(96));
        assert_eq!(host.len(), 1);

        let batch = post(
            &host,
            &format!("/v1/batch?session={session}"),
            r#"{"run": 1, "ratios": [[0.5, 0.25, 0.0, 0.1], [0.0, 0.0, 0.0, 1.0]]}"#,
        );
        assert_eq!(batch.status, 200, "{}", String::from_utf8_lossy(&batch.body));
        let result = batch_result(&batch);
        assert_eq!(result.measurements.len(), 2);
        assert!(result.elapsed.as_micros() > 0);

        let closed = post(&host, &format!("/v1/close?session={session}"), r#"{"samples": 2}"#);
        assert_eq!(closed.status, 200);
        let telemetry = json(&closed);
        assert!(telemetry.opt_i64("duration_us").unwrap() > 0);
        assert_eq!(telemetry.opt_i64("plates_used"), Some(1));
        assert!(host.is_empty(), "close deletes the session");
    }

    #[test]
    fn duplicate_run_replays_cached_response_without_reexecuting() {
        let host = LabHost::new();
        let created = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        let session = json(&created).opt_str("session").unwrap().to_string();
        let body = r#"{"run": 1, "ratios": [[0.5, 0.25, 0.0, 0.1], [0.0, 0.0, 0.0, 1.0]]}"#;
        let first = post(&host, &format!("/v1/batch?session={session}"), body);
        assert_eq!(first.status, 200);
        // A resend of the same run (lost-response recovery) must not mix a
        // second batch: identical response, identical lab clock.
        let second = post(&host, &format!("/v1/batch?session={session}"), body);
        assert_eq!(second.status, 200);
        assert_eq!(first.body, second.body, "duplicate run must replay, not re-execute");
        let e1 = batch_result(&first).elapsed;
        let e2 = batch_result(&second).elapsed;
        assert_eq!(e1, e2);
        // The next run executes normally and advances the clock.
        let third = post(
            &host,
            &format!("/v1/batch?session={session}"),
            r#"{"run": 2, "ratios": [[0.1, 0.2, 0.3, 0.4], [0.2, 0.2, 0.2, 0.2]]}"#,
        );
        assert_eq!(third.status, 200);
        assert!(batch_result(&third).elapsed > e1);
    }

    #[test]
    fn dispatch_metrics_count_sessions_batches_and_replays() {
        let host = LabHost::new();
        let created = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        let session = json(&created).opt_str("session").unwrap().to_string();
        let body = r#"{"run": 1, "ratios": [[0.5, 0.25, 0.0, 0.1], [0.0, 0.0, 0.0, 1.0]]}"#;
        post(&host, &format!("/v1/batch?session={session}"), body);
        post(&host, &format!("/v1/batch?session={session}"), body); // idempotent replay
        post(&host, &format!("/v1/close?session={session}"), r#"{"samples": 2}"#);
        assert_eq!(host.metrics().executed(), 1, "replay must not count as execution");
        assert_eq!(host.metrics().replays(), 1);
        assert_eq!(host.metrics().inflight(), 0, "gauge returns to zero");
        assert_eq!(host.metrics().evicted(), 0);
        let text = host.render_prometheus();
        assert!(text.contains("sdl_lab_sessions_open 0"));
        assert!(text.contains("sdl_lab_sessions_opened_total 1"));
        assert!(text.contains("sdl_lab_sessions_closed_total 1"));
        assert!(text.contains("sdl_lab_batches_executed_total 1"));
        assert!(text.contains("sdl_lab_batch_replays_total 1"));
        assert!(text.contains("sdl_lab_batches_inflight 0"));
    }

    #[test]
    fn worker_chaos_faults_fire_on_schedule() {
        // kill=1: every /v1 request is a hangup, and /metrics says so.
        let host = LabHost::new().with_chaos(ChaosPolicy::parse("seed=1,kill=1").unwrap());
        let resp = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        assert!(resp.hangup);
        assert_eq!(host.metrics().chaos_injected(), 1);
        assert!(host.render_prometheus().contains("sdl_lab_chaos_kills_total 1"));

        // error=1: every request answers a real 500.
        let host = LabHost::new().with_chaos(ChaosPolicy::parse("seed=1,error=1").unwrap());
        let resp = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        assert_eq!(resp.status, 500);
        assert!(!resp.hangup);
        assert!(host.render_prometheus().contains("sdl_lab_chaos_errors_total 1"));

        // stall=1 with a tiny nap: the request still succeeds.
        let host =
            LabHost::new().with_chaos(ChaosPolicy::parse("seed=1,stall=1,stall_ms=1").unwrap());
        let resp = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        assert_eq!(resp.status, 200);
        assert!(host.render_prometheus().contains("sdl_lab_chaos_stalls_total 1"));

        // A no-op policy attaches no clock at all.
        let host = LabHost::new().with_chaos(ChaosPolicy::default());
        let resp = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        assert_eq!(resp.status, 200);
        assert_eq!(host.metrics().chaos_injected(), 0);
    }

    #[test]
    fn errors_are_4xx() {
        let host = LabHost::new();
        assert_eq!(post(&host, "/v1/experiments", "not json").status, 400);
        assert_eq!(post(&host, "/v1/experiments", r#"{"samples": -3}"#).status, 400);
        assert_eq!(post(&host, "/v1/batch", "{}").status, 400);
        assert_eq!(post(&host, "/v1/batch?session=nope", r#"{"run":1,"ratios":[]}"#).status, 404);
        assert_eq!(post(&host, "/v1/close?session=nope", "{}").status, 404);
        assert_eq!(post(&host, "/v1/nothing", "{}").status, 404);
    }

    fn retry_after(resp: &Response) -> Option<u64> {
        resp.headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case("retry-after"))
            .and_then(|(_, value)| value.parse().ok())
    }

    #[test]
    fn quota_sheds_over_budget_with_retry_after() {
        // burst 1 at a slow refill: the first session creation drains the
        // shared "open" bucket, the second is shed with a back-off hint.
        let host = LabHost::new().with_quota(QuotaPolicy { rate: 0.5, burst: 1.0 });
        let first = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        assert_eq!(first.status, 200, "{}", String::from_utf8_lossy(&first.body));
        let session = json(&first).opt_str("session").unwrap().to_string();

        let second = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        assert_eq!(second.status, 429, "{}", String::from_utf8_lossy(&second.body));
        assert!(retry_after(&second).unwrap() >= 1, "shed must carry a Retry-After hint");
        assert_eq!(host.metrics().quota_denials(), 1);
        assert_eq!(host.metrics().shed(), 1);

        // The open session is a *different tenant*: its own bucket still
        // holds a token, so its batch is admitted.
        let batch = post(
            &host,
            &format!("/v1/batch?session={session}"),
            r#"{"run": 1, "ratios": [[0.5, 0.25, 0.0, 0.1], [0.0, 0.0, 0.0, 1.0]]}"#,
        );
        assert_eq!(batch.status, 200, "{}", String::from_utf8_lossy(&batch.body));
        assert!(host.quota_tenants() >= 2, "per-tenant buckets, not one global");

        let text = host.render_prometheus();
        assert!(text.contains("sdl_lab_shed_total 1"), "{text}");
        assert!(text.contains("sdl_lab_quota_denials_total 1"), "{text}");
    }

    #[test]
    fn inflight_cap_sheds_batches_as_503() {
        let host = LabHost::new().with_max_inflight(1);
        let created = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        let session = json(&created).opt_str("session").unwrap().to_string();
        // Simulate a batch already executing on another connection.
        host.metrics.batches_inflight.fetch_add(1, Ordering::Relaxed);
        let shed = post(
            &host,
            &format!("/v1/batch?session={session}"),
            r#"{"run": 1, "ratios": [[0.5, 0.25, 0.0, 0.1], [0.0, 0.0, 0.0, 1.0]]}"#,
        );
        assert_eq!(shed.status, 503, "{}", String::from_utf8_lossy(&shed.body));
        assert!(retry_after(&shed).is_some());
        assert_eq!(host.metrics().capacity_denials(), 1);
        // Capacity frees up: the same batch is admitted and executes.
        host.metrics.batches_inflight.fetch_sub(1, Ordering::Relaxed);
        let ok = post(
            &host,
            &format!("/v1/batch?session={session}"),
            r#"{"run": 1, "ratios": [[0.5, 0.25, 0.0, 0.1], [0.0, 0.0, 0.0, 1.0]]}"#,
        );
        assert_eq!(ok.status, 200, "{}", String::from_utf8_lossy(&ok.body));
    }

    #[test]
    fn drain_refuses_new_sessions_but_finishes_in_flight_work() {
        let host = LabHost::new();
        let created = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        let session = json(&created).opt_str("session").unwrap().to_string();

        host.begin_drain();
        assert!(host.is_draining());
        let refused = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        assert_eq!(refused.status, 503, "{}", String::from_utf8_lossy(&refused.body));
        assert!(retry_after(&refused).is_some());
        assert_eq!(host.metrics().drain_denials(), 1);

        // Sessions accepted before the drain run to completion.
        let batch = post(
            &host,
            &format!("/v1/batch?session={session}"),
            r#"{"run": 1, "ratios": [[0.5, 0.25, 0.0, 0.1], [0.0, 0.0, 0.0, 1.0]]}"#,
        );
        assert_eq!(batch.status, 200, "{}", String::from_utf8_lossy(&batch.body));
        let closed = post(&host, &format!("/v1/close?session={session}"), r#"{"samples": 2}"#);
        assert_eq!(closed.status, 200);
        assert!(host.render_prometheus().contains("sdl_lab_draining 1"));
    }

    #[test]
    fn shed_chaos_is_a_retryable_429() {
        let host = LabHost::new().with_chaos(ChaosPolicy::parse("seed=1,shed=1").unwrap());
        let resp = post(&host, "/v1/experiments", r#"{"samples": 4, "batch": 2}"#);
        assert_eq!(resp.status, 429);
        assert!(retry_after(&resp).is_some());
        assert!(host.render_prometheus().contains("sdl_lab_chaos_sheds_total 1"));
    }

    #[test]
    fn quota_policy_parses_rate_and_burst() {
        assert_eq!(QuotaPolicy::parse("5").unwrap(), QuotaPolicy { rate: 5.0, burst: 5.0 });
        assert_eq!(QuotaPolicy::parse("2.5:20").unwrap(), QuotaPolicy { rate: 2.5, burst: 20.0 });
        assert_eq!(QuotaPolicy::parse("0.5").unwrap().burst, 1.0, "burst floor of one token");
        assert!(QuotaPolicy::parse("0").is_err());
        assert!(QuotaPolicy::parse("-1").is_err());
        assert!(QuotaPolicy::parse("5:0.2").is_err());
        assert!(QuotaPolicy::parse("nope").is_err());
    }
}
