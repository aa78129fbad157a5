//! The `portal-read` workload: a historical portal served the way
//! `sdl-lab serve --import … --blob-dir …` serves it, read by 2 keep-alive
//! clients in a closed loop.
//!
//! The portal is exported from the seed by the code under test (two
//! campaigns with `publish_records`: `fast` scenarios with plate images and
//! `lowres` scenarios without), outside the timed window.

use crate::measure::{
    cpu_seconds, median, ms, peak_rss_mb, quantile, ratio, reset_peak_rss, Metric, Outcome,
    ServerTotals, Source,
};
use crate::trace::{Recorder, Trace};
use crate::Run;
use rand::{Rng, SeedableRng};
use sdl_conf::{from_json, to_json, ValueExt};
use sdl_core::{CampaignConfig, CampaignRunner};
use sdl_datapub::{
    field_matches, render_run_html, render_summary_html, AcdcPortal, BlobRef, BlobStore,
};
use sdl_portal_server::client::{HttpClient, HttpResponse};
use sdl_portal_server::{spawn, LabHost, PortalServer, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Portal shape: (seeds per solver, samples) for the imaged `fast`
/// campaign and for the image-less `lowres` campaign.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub fast: (u32, u32),
    pub lowres: (u32, u32),
}

/// 8 `fast` scenarios of 96 samples (192 plate images, ~170 MB) plus 48
/// `lowres` scenarios of 128 samples: ~7k records over 56 experiments.
pub const FULL: Shape = Shape { fast: (4, 96), lowres: (24, 128) };
/// The self-test's portal: 2 + 2 scenarios of 8 samples.
pub const TINY: Shape = Shape { fast: (1, 8), lowres: (1, 8) };

/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Records per `/records` page.
const PAGE: usize = 50;
/// Requests in each client's seeded cycle.
const CYCLE: usize = 4096;
/// Keep-alive clients.
const CLIENTS: usize = 2;
/// Equal slices of the timed load; throughput and latency are medians
/// over them.
const WINDOWS: usize = 20;

fn documents(seed: u64, shape: Shape) -> [String; 2] {
    let doc =
        |name: &str, fidelity: &str, (seeds, samples): (u32, u32), images: bool, seed: u64| {
            format!(
                "name: {name}\nexperiment: {name}\nseed: {seed}\nsamples: {samples}\nbatch: 4\n\
             fidelity: {fidelity}\nsolvers: [bayesian, genetic]\nseeds: {seeds}\nthreads: 2\n\
             publish_images: {images}\n"
            )
        };
    [
        doc("portal-fast", "fast", shape.fast, true, seed),
        doc("portal-lowres", "lowres", shape.lowres, false, seed.wrapping_add(1)),
    ]
}

/// Produce the portal export in `dir`: `portal.jsonl`, the spilled plate
/// images under `blobs/`, and `blobs.tsv` (reference, length).
pub fn export(seed: u64, shape: Shape, dir: &Path) -> Result<(), String> {
    let portal = Arc::new(AcdcPortal::new());
    let store = Arc::new(BlobStore::with_spill_dir(dir.join("blobs")));
    for doc in documents(seed, shape) {
        let cfg = CampaignConfig::from_yaml(&doc).map_err(|e| e.to_string())?;
        let report = CampaignRunner::new()
            .threads(cfg.threads.unwrap_or(2))
            .with_portal(Arc::clone(&portal))
            .with_store(Arc::clone(&store))
            .publish_records(true)
            .name(&cfg.name)
            .run(cfg.scenarios());
        if let Some(r) = report.results.iter().find(|r| r.outcome.is_err()) {
            return Err(format!("export scenario {} failed", r.spec.label));
        }
    }
    portal.export_jsonl(&dir.join("portal.jsonl")).map_err(|e| e.to_string())?;
    let mut manifest = String::new();
    for (r, bytes) in store.entries() {
        let _ = writeln!(manifest, "{}\t{}", r.0, bytes.len());
    }
    std::fs::write(dir.join("blobs.tsv"), manifest).map_err(|e| e.to_string())
}

/// What the export says the server must answer.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// (experiment id, sample records, runs).
    pub experiments: Vec<(String, usize, u32)>,
    /// (blob path segment, byte length).
    pub blobs: Vec<(String, usize)>,
    /// Best score of every scenario the portal summarises.
    pub best_scores: Vec<f64>,
}

impl Expected {
    pub fn load(dir: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(dir.join("portal.jsonl")).map_err(|e| e.to_string())?;
        let mut samples: BTreeMap<String, (usize, u32)> = BTreeMap::new();
        let mut order = Vec::new();
        let mut out = Expected::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = from_json(line).map_err(|e| e.to_string())?;
            match v.opt_str("kind") {
                Some("experiment") => {
                    let id = v.opt_str("experiment_id").unwrap_or_default().to_string();
                    samples.entry(id.clone()).or_default();
                    order.push(id);
                }
                Some("sample") => {
                    let id = v.opt_str("experiment_id").unwrap_or_default().to_string();
                    let e = samples.entry(id).or_default();
                    e.0 += 1;
                    e.1 = e.1.max(v.opt_i64("run").unwrap_or(0) as u32);
                }
                Some("campaign_scenario") => {
                    out.best_scores.extend(v.opt_f64("best_score"));
                }
                _ => {}
            }
        }
        out.experiments =
            order.into_iter().map(|id| (id.clone(), samples[&id].0, samples[&id].1)).collect();
        let manifest = std::fs::read_to_string(dir.join("blobs.tsv")).map_err(|e| e.to_string())?;
        for line in manifest.lines() {
            let (r, len) = line.split_once('\t').ok_or("bad blobs.tsv line")?;
            let len = len.parse::<usize>().map_err(|e| e.to_string())?;
            out.blobs.push((r.replace(':', "_"), len));
        }
        out.blobs.sort();
        if out.experiments.is_empty() || out.blobs.is_empty() {
            return Err("export holds no experiments or no blobs".into());
        }
        Ok(out)
    }
}

/// One request of the cycle.
#[derive(Debug, Clone)]
pub enum Req {
    Records { exp: usize, offset: usize },
    Summary { exp: usize },
    Run { exp: usize, run: u32 },
    Blob { blob: usize },
}

impl Req {
    pub fn path(&self, x: &Expected) -> String {
        match self {
            Req::Records { exp, offset } => format!(
                "/records?kind=sample&experiment_id={}&limit={PAGE}&offset={offset}",
                x.experiments[*exp].0
            ),
            Req::Summary { exp } => format!("/summary?experiment={}", x.experiments[*exp].0),
            Req::Run { exp, run } => format!("/runs/{run}?experiment={}", x.experiments[*exp].0),
            Req::Blob { blob } => format!("/blobs/{}", x.blobs[*blob].0),
        }
    }
}

/// The seeded request cycle of one client: 60% `/records` pages, 15%
/// `/summary`, 15% `/runs/<n>`, 10% `/blobs/<ref>`.
pub fn cycle(seed: u64, client: usize, x: &Expected, len: usize) -> Vec<(Req, String)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (0x5eed_0000 + client as u64));
    (0..len)
        .map(|_| {
            let exp = rng.gen_range(0..x.experiments.len());
            let roll: f64 = rng.gen_range(0.0..1.0);
            let req = if roll < 0.60 {
                let pages = x.experiments[exp].1.div_ceil(PAGE).max(1);
                Req::Records { exp, offset: rng.gen_range(0..pages) * PAGE }
            } else if roll < 0.75 {
                Req::Summary { exp }
            } else if roll < 0.90 {
                Req::Run { exp, run: rng.gen_range(1..=x.experiments[exp].2.max(1)) }
            } else {
                Req::Blob { blob: rng.gen_range(0..x.blobs.len()) }
            };
            let path = req.path(x);
            (req, path)
        })
        .collect()
}

/// Check one response against the export. `Err` names what was wrong.
pub fn check(req: &Req, resp: &HttpResponse, x: &Expected) -> Result<usize, String> {
    if resp.status != 200 {
        return Err(format!("status {}", resp.status));
    }
    match req {
        Req::Records { exp, offset } => {
            let total = x.experiments[*exp].1;
            let header = resp.header("x-total-count").and_then(|v| v.parse::<usize>().ok());
            if header != Some(total) {
                return Err(format!("X-Total-Count {header:?}, export has {total}"));
            }
            let want = total.saturating_sub(*offset).min(PAGE);
            let lines = resp.body.iter().filter(|&&b| b == b'\n').count();
            if lines != want || (want > 0 && resp.body.last() != Some(&b'\n')) {
                return Err(format!("{lines} records in the page, expected {want}"));
            }
            Ok(lines)
        }
        Req::Summary { exp } | Req::Run { exp, .. } => {
            let id = x.experiments[*exp].0.as_bytes();
            let has_id = resp.body.windows(id.len()).any(|w| w == id);
            if !resp.body.starts_with(b"<!DOCTYPE html") || !has_id {
                return Err("HTML view does not name its experiment".into());
            }
            Ok(0)
        }
        Req::Blob { blob } => {
            let want = x.blobs[*blob].1;
            if resp.body.len() != want {
                return Err(format!("blob of {} bytes, export has {want}", resp.body.len()));
            }
            Ok(0)
        }
    }
}

/// One client's tally.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// (seconds since the load started, latency ms) of every checked
    /// response.
    pub latencies_ms: Vec<(f64, f64)>,
    pub sent: u64,
    pub ok: u64,
    pub reconnects: u64,
    pub records_requests: u64,
    pub records_returned: u64,
    pub problems: Vec<String>,
}

/// Drive one keep-alive connection through `reqs` (cyclically) until
/// `deadline`. A `Connection: close` from the server (its per-connection
/// request cap) or a broken connection means reconnect; only the latter is
/// a failure. With `trace`, each request is a span followed by probes
/// that re-run the server's layers on the request's own data.
pub fn client_loop(
    addr: SocketAddr,
    reqs: &[(Req, String)],
    x: &Expected,
    (start, deadline): (Instant, Instant),
    mut trace: Option<(&mut Recorder, &PortalServer)>,
) -> ClientStats {
    let mut stats = ClientStats::default();
    let mut conn = HttpClient::connect(addr).ok();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let (req, path) = &reqs[i % reqs.len()];
        i += 1;
        stats.sent += 1;
        let Some(c) = conn.as_mut() else {
            if stats.problems.len() < 5 {
                stats.problems.push(format!("connect to {addr} failed"));
            }
            conn = HttpClient::connect(addr).ok();
            continue;
        };
        let t0 = Instant::now();
        let resp = c.get(path);
        let t1 = Instant::now();
        let scope = if trace.is_some() { format!("r{i}") } else { String::new() };
        let call = trace.as_mut().map(|(rec, _)| rec.push("portal.request", None, &scope, t0, t1));
        let close = match &resp {
            Ok(r) => r.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")),
            Err(_) => true,
        };
        match resp.map_err(|e| e.to_string()).and_then(|r| check(req, &r, x)) {
            Ok(returned) => {
                stats.ok += 1;
                stats.latencies_ms.push(((t1 - start).as_secs_f64(), ms(t1 - t0)));
                if let Req::Records { .. } = req {
                    stats.records_requests += 1;
                    stats.records_returned += returned as u64;
                }
            }
            Err(e) => {
                if stats.problems.len() < 5 {
                    stats.problems.push(format!("{path}: {e}"));
                }
            }
        }
        if let (Some((rec, server)), Some(call)) = (trace.as_mut(), call) {
            probe(rec, call, &scope, server, req, x);
        }
        if close {
            stats.reconnects += 1;
            conn = HttpClient::connect(addr).ok();
        }
    }
    stats.problems.truncate(5);
    stats
}

/// Re-run the layers behind one request on its own data.
fn probe(
    rec: &mut Recorder,
    call: usize,
    scope: &str,
    server: &PortalServer,
    req: &Req,
    x: &Expected,
) {
    let portal = server.portal();
    match req {
        Req::Records { exp, offset } => {
            let id = x.experiments[*exp].0.as_str();
            let (page, _) = rec.probe("datapub.search", Some(call), scope, || {
                portal.search_page(
                    |r| field_matches(r, "kind", "sample") && field_matches(r, "experiment_id", id),
                    *offset,
                    PAGE,
                )
            });
            rec.probe("conf.encode", Some(call), scope, || {
                page.iter().map(|r| to_json(r).len() + 1).sum::<usize>()
            });
        }
        Req::Summary { exp } => {
            rec.probe("datapub.html", Some(call), scope, || {
                render_summary_html(portal, &x.experiments[*exp].0).len()
            });
        }
        Req::Run { exp, run } => {
            rec.probe("datapub.html", Some(call), scope, || {
                render_run_html(portal, &x.experiments[*exp].0, *run).len()
            });
        }
        Req::Blob { blob } => {
            let r = BlobRef(x.blobs[*blob].0.replacen('_', ":", 1));
            rec.probe("datapub.blob_get", Some(call), scope, || {
                server.store().get(&r).map(|b| b.len())
            });
        }
    }
}

/// Import, reopen the blob spill dir, spawn the server and see `/healthz`.
fn serve(dir: &Path) -> Result<(ServerHandle, Duration), String> {
    let t0 = Instant::now();
    let portal = AcdcPortal::new();
    portal.import_jsonl(&dir.join("portal.jsonl")).map_err(|e| e.to_string())?;
    let store = BlobStore::open_spill_dir(dir.join("blobs")).map_err(|e| e.to_string())?;
    let server =
        PortalServer::new(Arc::new(portal), Arc::new(store)).with_lab(Arc::new(LabHost::new()));
    let handle = spawn(server, &ServerConfig::default()).map_err(|e| e.to_string())?;
    let health =
        sdl_portal_server::client::get(handle.addr(), "/healthz").map_err(|e| e.to_string())?;
    if health.status != 200 {
        return Err(format!("/healthz answered {}", health.status));
    }
    Ok((handle, t0.elapsed()))
}

/// Every client's tally plus the window's wall time and process CPU.
struct Load {
    clients: Vec<ClientStats>,
    wall: Duration,
    cpu_s: f64,
    recorders: Vec<Recorder>,
}

impl Load {
    fn sum(&self, f: impl Fn(&ClientStats) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }

    /// Checked responses per second and latency quantiles (p50, p90,
    /// p99) of each of [`WINDOWS`] equal slices of the load, so one
    /// transient stall moves one window, not the run's figures.
    fn windows(&self) -> (Vec<f64>, [Vec<f64>; 3]) {
        let width = self.wall.as_secs_f64() / WINDOWS as f64;
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
        for &(at, ms) in self.clients.iter().flat_map(|c| &c.latencies_ms) {
            lat[((at / width) as usize).min(WINDOWS - 1)].push(ms);
        }
        let rates = lat.iter().map(|w| w.len() as f64 / width).collect();
        let q = |p: f64| lat.iter().map(|w| quantile(w, p)).collect::<Vec<f64>>();
        (rates, [q(0.5), q(0.9), q(0.99)])
    }
}

fn load(
    handle: &ServerHandle,
    cycles: &[Vec<(Req, String)>],
    x: &Expected,
    seconds: f64,
    traced: bool,
) -> Load {
    let addr = handle.addr();
    let server = handle.server();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(ClientStats, Option<Recorder>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = cycles
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                scope.spawn(move || {
                    if traced {
                        let mut rec = Recorder::new(c);
                        let stats =
                            client_loop(addr, reqs, x, (start, deadline), Some((&mut rec, server)));
                        rec.finish();
                        (stats, Some(rec))
                    } else {
                        (client_loop(addr, reqs, x, (start, deadline), None), None)
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let (wall, cpu_s) = (start.elapsed(), cpu_seconds() - cpu0);
    let (clients, recorders): (Vec<_>, Vec<_>) = per_client.into_iter().unzip();
    Load { clients, wall, cpu_s, recorders: recorders.into_iter().flatten().collect() }
}

fn tally(out: &mut Outcome, l: &Load) {
    out.attempted += l.sum(|c| c.sent);
    out.failed += l.sum(|c| c.sent - c.ok);
    out.problems.extend(l.clients.iter().flat_map(|c| c.problems.iter().cloned()).take(10));
}

/// Set up [`SETUP_REPS`] times, keeping the last server.
fn setup(out: &mut Outcome, dir: &Path) -> Option<(ServerHandle, Vec<f64>)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        match serve(dir) {
            Ok((h, took)) => {
                times.push(took.as_secs_f64());
                last = Some(h);
            }
            Err(e) => {
                out.check(false, || format!("serving the export failed: {e}"));
                return None;
            }
        }
    }
    last.map(|h| (h, times))
}

fn cycles(run: &Run, x: &Expected) -> Vec<Vec<(Req, String)>> {
    (0..CLIENTS).map(|c| cycle(run.seed, c, x, CYCLE)).collect()
}

/// Timed run: the 2-client closed loop for `run.seconds`.
pub fn timed(run: &Run, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let x = match Expected::load(dir) {
        Ok(x) => x,
        Err(e) => {
            out.check(false, || format!("export unreadable: {e}"));
            return out;
        }
    };
    // Peak RSS counts from here, whatever ran earlier in this process.
    let reset = reset_peak_rss();
    let Some((handle, setups)) = setup(&mut out, dir) else { return out };

    // The served portal must summarise the same scenarios as the export.
    let served = sdl_portal_server::client::get(
        handle.addr(),
        "/records?kind=campaign_scenario&limit=100000",
    )
    .map(|r| r.text())
    .unwrap_or_default();
    let best: Vec<f64> = served
        .lines()
        .filter_map(|l| from_json(l).ok())
        .filter_map(|v| v.opt_f64("best_score"))
        .collect();
    out.check(best == x.best_scores, || "served scenario summaries differ from the export".into());

    let l = load(&handle, &cycles(run, &x), &x, run.seconds, false);
    drop(handle);
    tally(&mut out, &l);
    let ok = l.sum(|c| c.ok);
    let sent = l.sum(|c| c.sent);
    let (rates, [p50, p90, p99]) = l.windows();
    let n = ok / WINDOWS as u64;
    out.push(Metric::new("ops_per_s", "1/s", median(&rates), Source::Timed).note(format!(
        "req_per_s: median of {WINDOWS} windows; {ok} checked responses in {:.2}s",
        l.wall.as_secs_f64()
    )));
    let note = format!("request, median of {WINDOWS} windows of ~{n}");
    out.push(Metric::new("latency_p50_ms", "ms", median(&p50), Source::Timed).note(note.clone()));
    out.push(Metric::new("latency_p90_ms", "ms", median(&p90), Source::Timed).note(note));
    out.notes.push(format!(
        "latency_p99_ms {:.3} ms (ungated tail: median of {WINDOWS} windows, ~{} beyond each)",
        median(&p99),
        n / 100
    ));
    out.push(
        Metric::new("cpu_ms_per_op", "ms", ratio(l.cpu_s * 1e3, sent as f64), Source::Timed)
            .note("process CPU per request"),
    );
    out.push(
        Metric::new("success_rate", "frac", ratio(ok as f64, sent as f64), Source::Count)
            .note(format!("{ok}/{sent} responses checked against the export")),
    );
    out.push(
        Metric::new("setup_s", "s", median(&setups), Source::Timed)
            .note(format!("median of {} import + spill-dir + spawn", setups.len())),
    );
    out.push(Metric::new("peak_rss_mb", "MB", peak_rss_mb(), Source::Timed).note(if reset {
        "peak from set-up to the end of the load"
    } else {
        "process lifetime"
    }));
    out
}

/// Traced run: half the time timed (counts), half traced (layer times).
pub fn traced(run: &Run, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let x = match Expected::load(dir) {
        Ok(x) => x,
        Err(e) => {
            out.check(false, || format!("export unreadable: {e}"));
            return out;
        }
    };
    let handle = match serve(dir) {
        Ok((h, _)) => h,
        Err(e) => {
            out.check(false, || format!("serving the export failed: {e}"));
            return out;
        }
    };
    let addr = handle.addr().to_string();
    let cycles = cycles(run, &x);
    let half = (run.seconds / 2.0).max(0.5);

    let before = ServerTotals::scrape(&[&addr]);
    let timed = load(&handle, &cycles, &x, half, false);
    let mid = ServerTotals::scrape(&[&addr]);
    let traced = load(&handle, &cycles, &x, half, true);
    let after = ServerTotals::scrape(&[&addr]);
    let store_mb = handle.server().store().total_bytes() as f64 / 1048576.0;
    let portal_len = handle.server().portal().len() as f64;
    drop(handle);
    tally(&mut out, &timed);
    tally(&mut out, &traced);
    let traced_sent = traced.sum(|c| c.sent);
    let traced_secs = traced.wall.as_secs_f64();

    let trace = Trace { recorders: traced.recorders };
    let st = trace.self_times();
    let mean = |name: &str| st.get(name).map(|a| a.mean_ms()).unwrap_or(0.0);
    let counts = mid.since(before);
    let server = after.since(mid);
    let handle_ms = ratio(server.seconds * 1e3, server.requests);

    out.push(Metric::new("solvers.propose_ms", "ms", 0.0, Source::OffPath));
    out.push(
        Metric::new("solvers.best_score_p50", "score", median(&x.best_scores), Source::Count)
            .note(format!("median over {} scenario summaries in the export", x.best_scores.len())),
    );
    for (name, unit) in [
        ("backend.submit_ms", "ms"),
        ("vision.render_ms", "ms"),
        ("vision.detect_ms", "ms"),
        ("vision.bmp_ms", "ms"),
        ("vision.wells_used_frac", "frac"),
        ("wei.other_ms", "ms"),
        ("experiment.tell_ms", "ms"),
        ("datapub.flow_drain_ms", "ms"),
    ] {
        out.push(Metric::new(name, unit, 0.0, Source::OffPath));
    }
    out.push(
        Metric::new("datapub.blob_mb", "MB", store_mb, Source::Count).note("served blob store"),
    );
    for (name, unit) in [
        ("events.appends_per_sample", "count"),
        ("events.bytes_per_sample", "B"),
        ("wire.encode_ms", "ms"),
        ("wire.decode_ms", "ms"),
        ("wire.response_kb", "KB"),
        ("wire.resends_per_post", "ratio"),
        ("scheduler.busy_frac", "frac"),
        ("scheduler.steals", "count"),
    ] {
        out.push(Metric::new(name, unit, 0.0, Source::OffPath));
    }
    out.push(
        Metric::new("portal_server.handle_ms", "ms", handle_ms, Source::Count)
            .note("/metrics request seconds sum / count over the traced half"),
    );
    out.push(
        Metric::new(
            "portal_server.wait_ms",
            "ms",
            mean("portal.request") - handle_ms,
            Source::Derived,
        )
        .note("client request span - handle_ms"),
    );
    out.push(Metric::new(
        "portal_server.bytes_per_req",
        "B",
        ratio(counts.body_bytes, counts.requests),
        Source::Count,
    ));
    out.push(
        Metric::new(
            "portal_server.reconnects",
            "count",
            timed.sum(|c| c.reconnects) as f64,
            Source::Count,
        )
        .note("client reconnects after Connection: close"),
    );
    out.push(Metric::new("datapub.search_ms", "ms", mean("datapub.search"), Source::Probe));
    out.push(
        Metric::new(
            "datapub.scan_per_hit",
            "ratio",
            ratio(
                timed.sum(|c| c.records_requests) as f64 * portal_len,
                timed.sum(|c| c.records_returned) as f64,
            ),
            Source::Count,
        )
        .note(format!("every /records request scans all {portal_len} records")),
    );
    out.push(Metric::new("datapub.html_ms", "ms", mean("datapub.html"), Source::Probe));
    out.push(Metric::new("datapub.blob_get_ms", "ms", mean("datapub.blob_get"), Source::Probe));
    out.push(Metric::new("conf.encode_ms", "ms", mean("conf.encode"), Source::Probe));
    out.push(
        Metric::new(
            "trace.unattributed_frac",
            "frac",
            trace.unattributed_frac(true),
            Source::Derived,
        )
        .note("1 - request span time / client-thread wall"),
    );
    let per_req = |wall: f64, n: u64| ratio(wall, n as f64);
    let traced_wall = CLIENTS as f64 * traced_secs - trace.probe_time().as_secs_f64();
    let overhead = ratio(
        per_req(traced_wall, traced_sent),
        per_req(CLIENTS as f64 * timed.wall.as_secs_f64(), timed.sum(|c| c.sent)),
    ) - 1.0;
    out.push(
        Metric::new("trace.overhead_frac", "frac", overhead, Source::Derived)
            .note("client time per request, traced less probes vs timed"),
    );
    let total = |name: &str| st.get(name).map(|a| a.total.as_secs_f64()).unwrap_or(0.0);
    let scan = ratio(total("datapub.search"), total("portal.request"));
    out.notes.push(format!(
        "prediction: indexed portal scan (search cost -> 0) -> req_per_s x{:.2} (search is {:.0}% of request time)",
        1.0 / (1.0 - scan),
        scan * 100.0
    ));
    out.notes
        .push("prediction: 2x faster vision or a binary /v1 body -> no change (off path)".into());

    let path = run.out_dir.join(format!("trace-{}-seed{}.jsonl", run.workload, run.seed));
    let origin = trace.recorders.first().map(|r| r.started).unwrap_or_else(Instant::now);
    if let Err(e) = trace.write_jsonl(&path, origin) {
        out.check(false, || format!("writing {}: {e}", path.display()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    fn expected() -> Expected {
        Expected {
            experiments: vec![("exp-a".into(), 96, 24)],
            blobs: vec![("blob_00".into(), 10)],
            best_scores: vec![1.0],
        }
    }

    /// A server that answers every request with a `/records` head
    /// announcing 50 records but sends only part of the body, then hangs up.
    fn truncating_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for conn in listener.incoming().take(2) {
                let Ok(mut s) = conn else { continue };
                let mut line = String::new();
                let mut r = BufReader::new(s.try_clone().unwrap());
                while r.read_line(&mut line).map(|n| n > 2).unwrap_or(false) {
                    line.clear();
                }
                let body = "{\"kind\":\"sample\"}\n".repeat(50);
                let _ = write!(
                    s,
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nX-Total-Count: 96\r\n\r\n{}",
                    body.len(),
                    &body[..body.len() / 2]
                );
            }
        });
        (addr, server)
    }

    #[test]
    fn a_truncated_records_body_is_a_failure() {
        let x = expected();
        let reqs = vec![(Req::Records { exp: 0, offset: 0 }, "/records".to_string())];
        let deadline = Instant::now() + Duration::from_millis(300);
        let (addr, server) = truncating_server();
        let stats = client_loop(addr, &reqs, &x, (Instant::now(), deadline), None);
        server.join().unwrap();
        assert!(stats.sent >= 2);
        assert_eq!(stats.ok, 0, "a truncated body passed the check");
    }

    #[test]
    fn page_and_blob_checks() {
        let x = expected();
        let resp = |status, body: &str, total: &str| HttpResponse {
            status,
            headers: vec![("x-total-count".into(), total.into())],
            body: body.as_bytes().to_vec(),
        };
        let page = Req::Records { exp: 0, offset: 50 };
        let full = "{}\n".repeat(46);
        assert_eq!(check(&page, &resp(200, &full, "96"), &x), Ok(46));
        assert!(check(&page, &resp(200, &full, "95"), &x).is_err());
        assert!(check(&page, &resp(200, &full[..full.len() - 3], "96"), &x).is_err());
        assert!(check(&page, &resp(503, &full, "96"), &x).is_err());
        let blob = Req::Blob { blob: 0 };
        assert!(check(&blob, &resp(200, "0123456789", ""), &x).is_ok());
        assert!(check(&blob, &resp(200, "012345678", ""), &x).is_err());
    }

    #[test]
    fn cycle_mix_and_determinism() {
        let x = Expected {
            experiments: (0..10).map(|i| (format!("e{i}"), 96, 24)).collect(),
            ..expected()
        };
        let a = cycle(7, 0, &x, 4000);
        let b = cycle(7, 0, &x, 4000);
        assert!(a.iter().zip(&b).all(|(p, q)| p.1 == q.1));
        let records = a.iter().filter(|(r, _)| matches!(r, Req::Records { .. })).count();
        assert!((2200..2600).contains(&records), "{records}");
        assert!(a.iter().any(|(_, p)| p.starts_with("/blobs/blob_00")));
    }
}
