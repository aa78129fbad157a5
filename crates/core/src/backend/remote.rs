//! Farming batches out to a worker process over HTTP.
//!
//! [`RemoteBackend`] speaks the `POST /v1/*` batch-execution protocol that
//! `sdl-lab serve` hosts (see `sdl-portal-server`): `open` creates a
//! simulated-lab session on the worker from this scenario's configuration,
//! `submit_batch` round-trips one batch of proposals for one batch of
//! measurements (and the plate frame, as raw bytes after the reply's JSON
//! head), and `close` tears the session down and collects the final
//! telemetry. All payloads go through [`crate::backend::wire`], so a
//! campaign executed remotely is bit-identical to the same campaign
//! executed in-process.
//!
//! The embedded HTTP client is deliberately tiny (std-only, keep-alive,
//! `Content-Length`-framed — the dialect the portal server speaks).

use crate::app::AppError;
use crate::backend::wire::{self, BatchReply};
use crate::backend::RetryPolicy;
use crate::backend::{BackendCaps, BackendClose, Batch, BatchResult, LabBackend};
use crate::chaos::{ChaosPolicy, ChaosStream};
use crate::config::AppConfig;
use sdl_conf::{from_json, to_json, Value, ValueExt};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Largest response body accepted from a worker. A `/v1/batch` reply
/// carries one plate frame (~0.9 MB at 640×480); a `Content-Length` past
/// this is a broken or hostile peer, refused before allocating for it.
const MAX_RESPONSE: usize = 64 * 1024 * 1024;

/// A lab backend executing on a remote `sdl-lab serve` worker.
pub struct RemoteBackend {
    addr: String,
    config: AppConfig,
    retry: RetryPolicy,
    stats: RemoteStats,
    conn: Option<Conn>,
    session: Option<String>,
    caps: Option<BackendCaps>,
    chaos: Option<ChaosStream>,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Wire-level accounting for one [`RemoteBackend`]: how many requests went
/// out and how much retrying it took to get them answered. The campaign
/// scheduler folds these into its per-worker [`SchedulerReport`] counters.
///
/// [`SchedulerReport`]: crate::SchedulerReport
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Requests answered (each counted once, however many resends it took).
    pub posts: u64,
    /// Requests resent on a fresh connection after a provably-unread send.
    pub resends: u64,
    /// TCP connect attempts that failed and were retried in-budget.
    pub reconnects: u64,
    /// Chaos-injected connect refusals ([`ChaosPolicy::connect`]).
    pub chaos_connects: u64,
    /// Chaos-injected post-send disconnects ([`ChaosPolicy::disconnect`]).
    pub chaos_disconnects: u64,
    /// Chaos-injected read timeouts ([`ChaosPolicy::timeout`]).
    pub chaos_timeouts: u64,
    /// Chaos-synthesized HTTP 500s ([`ChaosPolicy::http500`]).
    pub chaos_http500s: u64,
    /// Chaos-discarded responses forcing replay ([`ChaosPolicy::replay`]).
    pub chaos_replays: u64,
    /// Chaos-trickled request writes ([`ChaosPolicy::slow_reader`]).
    pub chaos_slow_reads: u64,
    /// Load-shed responses received (429/503 + `Retry-After`): the worker
    /// was alive but over capacity, and this client backed off.
    pub sheds: u64,
}

impl RemoteStats {
    /// Total faults injected into this backend by its chaos stream.
    pub fn injected(&self) -> u64 {
        self.chaos_connects
            + self.chaos_disconnects
            + self.chaos_timeouts
            + self.chaos_http500s
            + self.chaos_replays
            + self.chaos_slow_reads
    }
}

/// Whether a failed POST is safe to resend: `Unsent` means the worker
/// provably never read the request; `Injected` is a chaos fault on a
/// provably resend-safe path (never sent, or sent where the worker's
/// idempotent replay cache absorbs the duplicate); `Throttled` is a
/// 429/503 load shed — the worker answered, is healthy, and asked us to
/// slow down (always resend-safe: the request was refused, not executed).
enum PostError {
    Unsent(AppError),
    Injected(AppError),
    Throttled(AppError),
    Fatal(AppError),
}

impl RemoteBackend {
    /// A backend talking to `addr` (`host:port`, optionally prefixed with
    /// `http://`). The configuration is shipped to the worker at open.
    pub fn new(addr: impl AsRef<str>, config: AppConfig) -> RemoteBackend {
        let addr =
            addr.as_ref().trim().trim_start_matches("http://").trim_end_matches('/').to_string();
        RemoteBackend {
            addr,
            config,
            retry: RetryPolicy::default(),
            stats: RemoteStats::default(),
            conn: None,
            session: None,
            caps: None,
            chaos: None,
        }
    }

    /// Replace the default [`RetryPolicy`] (connect/read timeouts and the
    /// retry budget for both connecting and resending unread requests).
    pub fn with_retry(mut self, retry: RetryPolicy) -> RemoteBackend {
        self.retry = retry;
        self
    }

    /// Attach a chaos stream: every request rolls `policy`'s client-side
    /// faults in a fixed order, deterministically in `(policy.seed, key)`.
    /// Key the stream with [`crate::chaos::stream_key`] so each
    /// worker × scenario × attempt gets an independent, replayable fault
    /// schedule. A no-op policy attaches nothing.
    pub fn with_chaos(mut self, policy: ChaosPolicy, key: u64) -> RemoteBackend {
        self.chaos = if policy.is_noop() { None } else { Some(policy.stream(key)) };
        self
    }

    /// The worker address this backend talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Wire-level request/retry accounting so far.
    pub fn stats(&self) -> RemoteStats {
        self.stats
    }

    /// Establish (or reuse) the keep-alive connection. Connect failures are
    /// retried within the policy budget with exponential backoff; an
    /// exhausted budget is a *transport* error — the worker never saw any
    /// request, so a scheduler may safely hand the work elsewhere.
    fn connect(&mut self) -> Result<&mut Conn, AppError> {
        if self.conn.is_none() {
            let stream = self.connect_stream()?;
            stream.set_nodelay(true).ok();
            stream
                .set_read_timeout(Some(self.retry.read_timeout))
                .map_err(|e| AppError::Transport(e.to_string()))?;
            let reader =
                BufReader::new(stream.try_clone().map_err(|e| AppError::Transport(e.to_string()))?);
            self.conn = Some(Conn { reader, writer: stream });
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    fn connect_stream(&mut self) -> Result<TcpStream, AppError> {
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..self.retry.attempts() {
            std::thread::sleep(self.retry.backoff(attempt));
            if attempt > 0 {
                self.stats.reconnects += 1;
            }
            // Chaos: refuse this connect attempt on schedule. The refusal
            // burns budget exactly like a real ECONNREFUSED.
            if let Some(chaos) = self.chaos.as_mut() {
                let p = chaos.policy().connect;
                if chaos.fires(p) {
                    self.stats.chaos_connects += 1;
                    last = Some(std::io::Error::new(
                        std::io::ErrorKind::ConnectionRefused,
                        "chaos: injected connect refusal",
                    ));
                    continue;
                }
            }
            // Resolve per attempt: a worker restarting behind a DNS name may
            // come back on a different address.
            let addrs = match self.addr.to_socket_addrs() {
                Ok(addrs) => addrs,
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            };
            for addr in addrs {
                match TcpStream::connect_timeout(&addr, self.retry.connect_timeout) {
                    Ok(stream) => return Ok(stream),
                    Err(e) => last = Some(e),
                }
            }
        }
        let cause = last.map(|e| e.to_string()).unwrap_or_else(|| "no addresses resolved".into());
        Err(AppError::Transport(format!(
            "connect {}: {cause} (after {} attempts)",
            self.addr,
            self.retry.attempts()
        )))
    }

    /// POST `body` to `path`, return the response body.
    ///
    /// The worker reaps idle keep-alive connections, so a request that
    /// provably never reached it — the write failed, or the connection
    /// closed before a single response byte — is resent on a fresh
    /// connection, up to the policy's retry budget with exponential
    /// backoff. Anything after the first response byte is never retried.
    /// (Resending is additionally safe on the worker side: the lab host
    /// replays a duplicate run number's cached response instead of
    /// executing the batch twice.)
    fn post(&mut self, path: &str, body: &Value) -> Result<Vec<u8>, AppError> {
        let payload = to_json(body);
        let mut retry = 0u32;
        loop {
            match self.try_post(path, &payload) {
                Ok(v) => {
                    self.stats.posts += 1;
                    return Ok(v);
                }
                Err(PostError::Unsent(_)) | Err(PostError::Injected(_))
                    if retry < self.retry.retries =>
                {
                    retry += 1;
                    self.stats.resends += 1;
                    self.conn = None; // reconnect and resend
                    std::thread::sleep(self.retry.backoff(retry));
                }
                Err(PostError::Throttled(e)) if retry < self.retry.retries => {
                    // Load shed: the worker answered 429/503, so the
                    // keep-alive connection is still in sync — wait out the
                    // server's Retry-After (clamped by the policy) and
                    // resend on the same connection.
                    retry += 1;
                    std::thread::sleep(self.retry.backpressure_delay(e.retry_after(), retry));
                }
                Err(PostError::Unsent(e))
                | Err(PostError::Injected(e))
                | Err(PostError::Throttled(e))
                | Err(PostError::Fatal(e)) => {
                    self.conn = None;
                    return Err(e);
                }
            }
        }
    }

    /// POST `body` to `path`, parse the JSON response.
    fn post_json(&mut self, path: &str, body: &Value) -> Result<Value, AppError> {
        let body = self.post(path, body)?;
        from_json(&String::from_utf8_lossy(&body))
            .map_err(|e| AppError::Backend(format!("{}{path}: bad response JSON: {e}", self.addr)))
    }

    fn try_post(&mut self, path: &str, payload: &str) -> Result<Vec<u8>, PostError> {
        let addr = self.addr.clone();
        // Chaos rolls happen up front, in a fixed order, every try — five
        // counter ticks per post whatever the outcome — so a fault schedule
        // is a pure function of the request sequence, not of timing.
        let (inject_timeout, inject_500, inject_disconnect, inject_replay, inject_slow) =
            match self.chaos.as_mut() {
                Some(chaos) => {
                    let p = *chaos.policy();
                    (
                        chaos.fires(p.timeout),
                        chaos.fires(p.http500),
                        chaos.fires(p.disconnect),
                        chaos.fires(p.replay),
                        chaos.fires(p.slow_reader),
                    )
                }
                None => (false, false, false, false, false),
            };
        if inject_timeout {
            // A silent worker: surfaces as a transport error so the
            // scheduler evicts and re-drives the scenario elsewhere.
            self.stats.chaos_timeouts += 1;
            self.conn = None;
            return Err(PostError::Fatal(AppError::Transport(format!(
                "{addr}{path}: chaos: injected read timeout"
            ))));
        }
        if inject_500 {
            // Synthesized *instead of* sending, so the resend is a plain
            // first send — retry-safe by construction, unlike a real 5xx.
            self.stats.chaos_http500s += 1;
            return Err(PostError::Injected(AppError::Transport(format!(
                "{addr}{path}: chaos: injected HTTP 500"
            ))));
        }
        // Socket-level failures are transport errors: whether the request
        // completed is unknowable from here, but idempotent replay on the
        // worker makes a re-drive safe.
        let err = |e: std::io::Error| AppError::Transport(format!("{addr}{path}: {e}"));
        let stall = self.chaos.as_ref().map(|c| Duration::from_millis(c.policy().stall_ms));
        if inject_slow {
            self.stats.chaos_slow_reads += 1;
        }
        let conn = self.connect().map_err(PostError::Unsent)?;
        if inject_slow {
            // A slow reader: trickle the request out in two halves with a
            // stall in between, exercising the worker's header/body read
            // deadlines. The request still completes, so this is
            // retry-safe by construction.
            let head = format!(
                "POST {path} HTTP/1.1\r\nHost: lab\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n",
                payload.len()
            );
            let (first, rest) = payload.as_bytes().split_at(payload.len() / 2);
            conn.writer.write_all(head.as_bytes()).map_err(|e| PostError::Unsent(err(e)))?;
            conn.writer.write_all(first).map_err(|e| PostError::Unsent(err(e)))?;
            conn.writer.flush().map_err(|e| PostError::Unsent(err(e)))?;
            std::thread::sleep(stall.unwrap_or(Duration::from_millis(25)));
            conn.writer.write_all(rest).map_err(|e| PostError::Unsent(err(e)))?;
        } else {
            write!(
                conn.writer,
                "POST {path} HTTP/1.1\r\nHost: lab\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{payload}",
                payload.len()
            )
            .map_err(|e| PostError::Unsent(err(e)))?;
        }
        conn.writer.flush().map_err(|e| PostError::Unsent(err(e)))?;

        if inject_disconnect {
            // Drop the connection after the request went out but before
            // reading the answer: the worker executes the batch, and the
            // resend exercises its duplicate-response replay cache.
            self.conn = None;
            self.stats.chaos_disconnects += 1;
            return Err(PostError::Injected(AppError::Transport(format!(
                "{addr}{path}: chaos: injected mid-body disconnect"
            ))));
        }

        // Status line. A clean close (or reset) before the first byte means
        // the worker reaped the idle connection without seeing the request.
        let mut line = String::new();
        match conn.reader.read_line(&mut line) {
            Ok(0) => {
                return Err(PostError::Unsent(AppError::Transport(format!(
                    "{addr}{path}: connection closed before request was read"
                ))))
            }
            Ok(_) => {}
            Err(e)
                if line.is_empty()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::UnexpectedEof
                    ) =>
            {
                return Err(PostError::Unsent(err(e)))
            }
            Err(e) => return Err(PostError::Fatal(err(e))),
        }
        let status: u16 =
            line.split_ascii_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                PostError::Fatal(AppError::Backend(format!("{addr}{path}: bad status line")))
            })?;
        // Headers: Content-Length frames the body; Retry-After (seconds
        // form) is the server's backoff hint on a load shed.
        let mut length: Option<usize> = None;
        let mut retry_after: Option<u64> = None;
        loop {
            let mut header = String::new();
            conn.reader.read_line(&mut header).map_err(|e| PostError::Fatal(err(e)))?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().ok();
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after = value.trim().parse().ok();
                }
            }
        }
        let length = length.ok_or_else(|| {
            PostError::Fatal(AppError::Backend(format!("{addr}{path}: missing content-length")))
        })?;
        if length > MAX_RESPONSE {
            return Err(PostError::Fatal(AppError::Backend(format!(
                "{addr}{path}: response of {length} bytes exceeds the {MAX_RESPONSE}-byte limit"
            ))));
        }
        let mut body = vec![0u8; length];
        conn.reader.read_exact(&mut body).map_err(|e| PostError::Fatal(err(e)))?;
        if inject_replay {
            // Throw the (perfectly good) response away and ask again: the
            // worker must serve the duplicate from its replay cache, not
            // re-execute the batch.
            self.conn = None;
            self.stats.chaos_replays += 1;
            return Err(PostError::Injected(AppError::Transport(format!(
                "{addr}{path}: chaos: discarded response to force replay"
            ))));
        }
        // Only error bodies are read as text: a batch reply's frame is
        // binary, and a lossy copy of it would be wasted work.
        let text = || String::from_utf8_lossy(&body).trim().to_string();
        if status == 429 || status == 503 {
            // A load shed, not a failure: the worker is alive and asked us
            // to slow down. Surfaced as backpressure so the caller throttles
            // this worker instead of evicting it.
            self.stats.sheds += 1;
            return Err(PostError::Throttled(AppError::Backpressure {
                message: format!("{addr}{path}: HTTP {status}: {}", text()),
                retry_after: retry_after.map(Duration::from_secs),
            }));
        }
        if status >= 400 {
            return Err(PostError::Fatal(AppError::Backend(format!(
                "{addr}{path}: HTTP {status}: {}",
                text()
            ))));
        }
        Ok(body)
    }

    fn session_path(&self, route: &str) -> Result<String, AppError> {
        let session =
            self.session.as_ref().ok_or_else(|| AppError::Backend("backend not opened".into()))?;
        Ok(format!("/v1/{route}?session={session}"))
    }
}

impl LabBackend for RemoteBackend {
    fn kind(&self) -> &'static str {
        "remote"
    }

    fn open(&mut self) -> Result<BackendCaps, AppError> {
        if let Some(caps) = self.caps {
            return Ok(caps);
        }
        // The worker instantiates a simulated lab from the scenario config.
        // The solver never runs worker-side, so a custom registered solver
        // name (which the worker process may not know) is sent as its
        // built-in fallback kind.
        let mut config = self.config.to_value();
        config.set("solver", self.config.solver.name());
        let response = self.post_json("/v1/experiments", &config)?;
        let session = response
            .opt_str("session")
            .ok_or_else(|| AppError::Backend("worker returned no session id".into()))?
            .to_string();
        let caps = wire::caps_from_value(&response)
            .map_err(|e| AppError::Backend(format!("bad capabilities: {e}")))?;
        self.session = Some(session);
        self.caps = Some(caps);
        // The worker registers the session even when the very first plate
        // fetch ran the crane dry, tunneling the abort as a structured
        // error: surface it as the same termination criterion the
        // in-process backend raises (the session stays open for `close`).
        if response.opt_str("error_kind") == Some("out_of_plates") {
            return Err(out_of_plates_error());
        }
        Ok(caps)
    }

    fn capabilities(&self) -> Option<BackendCaps> {
        self.caps
    }

    fn submit_batch(&mut self, batch: &Batch) -> Result<BatchResult, AppError> {
        let path = self.session_path("batch")?;
        let body = self.post(&path, &wire::batch_to_value(batch))?;
        match wire::decode_result(&body) {
            Ok(BatchReply::Done(result)) => Ok(result),
            // Lab-side aborts tunnel through as structured errors so the
            // session can map them onto termination criteria.
            Ok(BatchReply::OutOfPlates) => Err(out_of_plates_error()),
            Err(e) => Err(AppError::Backend(format!("bad batch result: {e}"))),
        }
    }

    fn close(&mut self, samples_measured: u32) -> Result<BackendClose, AppError> {
        let path = self.session_path("close")?;
        let mut body = Value::map();
        body.set("samples", samples_measured as i64);
        let response = self.post_json(&path, &body)?;
        self.session = None;
        wire::close_from_value(&response)
            .map_err(|e| AppError::Backend(format!("bad close result: {e}")))
    }
}

impl Drop for RemoteBackend {
    fn drop(&mut self) {
        // Best-effort teardown of an abandoned session so the worker does
        // not accumulate leaked labs. Never burn the retry budget on it —
        // if the worker is gone, its sessions died with it anyway.
        if self.session.is_some() {
            self.retry.retries = 0;
            self.retry.connect_timeout = self.retry.connect_timeout.min(Duration::from_secs(1));
            if let Ok(path) = self.session_path("close") {
                let mut body = Value::map();
                body.set("samples", 0i64);
                let _ = self.post(&path, &body);
            }
        }
    }
}

/// The wire equivalent of the sciclops running dry: reconstructed so
/// `Experiment::run_on` maps it onto `TerminationReason::OutOfPlates`
/// exactly as it does for the in-process backend.
fn out_of_plates_error() -> AppError {
    AppError::Wei(sdl_wei::WeiError::CommandAborted {
        step: "get_plate".into(),
        module: "sciclops".into(),
        attempts: 1,
        cause: sdl_instruments::InstrumentError::OutOfPlates,
    })
}
