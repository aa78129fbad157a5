//! The `campaign-local` and `campaign-remote` workloads.
//!
//! Both run one seeded campaign document — solvers {bayesian, genetic} ×
//! 4 seeds, 96 samples, batch 4, `fast` fidelity, default `rgb` objective
//! and `publish_images: true` — with a durable [`EventLog`] attached, the
//! way `sdl-lab campaign --config … --event-log …` runs it.
//! campaign-local executes it on [`CampaignRunner`] at 2 threads;
//! campaign-remote executes it on [`CampaignScheduler`] over 2 loopback
//! workers built the way `sdl-lab serve` builds them. The lab work is the
//! same, so the difference between the two isolates the `/v1/batch` path.

use crate::measure::{
    cpu_seconds, latency, median, ms, peak_rss_mb, ratio, reset_peak_rss, Metric, Outcome,
    ServerTotals, Source,
};
use crate::trace::{Recorder, Trace};
use crate::Run;
use rand::{RngCore, SeedableRng};
use sdl_conf::{from_json, to_json};
use sdl_core::{
    wire, AppConfig, BackendSpec, BatchResult, CampaignConfig, CampaignEvent, CampaignReport,
    CampaignRunner, CampaignScheduler, EventLog, EventRecord, EventScope, Experiment,
    ScenarioOutcome, ScenarioSpec, ScenarioSummary, SchedulerReport,
};
use sdl_datapub::BlobStore;
use sdl_portal_server::{client, spawn, LabHost, PortalServer, ServerConfig, ServerHandle};
use sdl_vision::{Detector, DetectorParams, DetectorScratch, ImageRgb8, PlateScene};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Campaign shape: seeds per solver and samples per scenario.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub seeds: u32,
    pub samples: u32,
}

/// The measured campaign: 2 solvers × 4 seeds × 96 samples.
pub const FULL: Shape = Shape { seeds: 4, samples: 96 };
/// The self-test's campaign: 2 solvers × 1 seed × 8 samples.
pub const TINY: Shape = Shape { seeds: 1, samples: 8 };

/// Set-ups before each campaign; the campaign runs on the last one. The
/// host's speed drifts over seconds, so `setup_s` is the median over set-ups
/// spread across the whole run rather than a burst at its start.
const SETUPS_PER_CAMPAIGN: usize = 25;
/// The same on campaign-remote, where each set-up also spawns 2 workers.
const REMOTE_SETUPS_PER_CAMPAIGN: usize = 5;

/// The campaign document generated from the seed.
pub fn document(seed: u64, shape: Shape) -> String {
    format!(
        "name: bench-{seed}\n\
         experiment: bench\n\
         seed: {seed}\n\
         samples: {samples}\n\
         batch: 4\n\
         fidelity: fast\n\
         solvers: [bayesian, genetic]\n\
         seeds: {seeds}\n\
         threads: 2\n",
        samples = shape.samples,
        seeds = shape.seeds,
    )
}

/// Where the campaign executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Local,
    Remote,
}

/// Per-scenario fingerprint lines of the reference execution: the same
/// document on a plain 2-thread [`CampaignRunner`] with no event log.
pub fn reference_fingerprint(doc: &str) -> Result<String, String> {
    let cfg = CampaignConfig::from_yaml(doc).map_err(|e| e.to_string())?;
    let report = CampaignRunner::new().threads(2).run(cfg.scenarios());
    Ok(report.fingerprint())
}

/// One lab worker, built the way `sdl-lab serve` builds it.
fn spawn_worker() -> Result<ServerHandle, String> {
    let server = PortalServer::new(
        Arc::new(sdl_datapub::AcdcPortal::new()),
        Arc::new(BlobStore::in_memory()),
    )
    .with_lab(Arc::new(LabHost::new()));
    spawn(server, &ServerConfig::default()).map_err(|e| format!("worker bind: {e}"))
}

fn healthy(handle: &ServerHandle) -> bool {
    client::get(handle.addr(), "/healthz").map(|r| r.status == 200).unwrap_or(false)
}

/// What one set-up produced: the parsed scenarios and a fresh log.
struct Prepared {
    cfg: CampaignConfig,
    scenarios: Vec<ScenarioSpec>,
    log: Arc<EventLog>,
    log_path: PathBuf,
    took: Duration,
}

/// Parse the document and create its log: the campaign set-up. An old
/// log at `log_path` is removed first, untimed, so every set-up creates a
/// new file rather than truncating one of varying size.
fn prepare(doc: &str, log_path: &Path) -> Result<Prepared, String> {
    let _ = std::fs::remove_file(log_path);
    let t0 = Instant::now();
    let cfg = CampaignConfig::from_yaml(doc).map_err(|e| e.to_string())?;
    let scenarios = cfg.scenarios();
    let log = Arc::new(EventLog::create(log_path).map_err(|e| e.to_string())?);
    let took = t0.elapsed();
    Ok(Prepared { cfg, scenarios, log, log_path: log_path.to_path_buf(), took })
}

/// Follows the log through [`EventLog::wait_from`] — the API `/events` and
/// `sdl-lab watch` use — and times every loop iteration: consecutive
/// `batch_told` events of one scenario, the first from `scenario_started`.
fn follow(log: Arc<EventLog>) -> std::thread::JoinHandle<Vec<f64>> {
    std::thread::spawn(move || {
        let mut from = 1u64;
        let mut last: HashMap<usize, Instant> = HashMap::new();
        let mut iterations = Vec::new();
        loop {
            let (lines, _, closed) = log.wait_from(from, usize::MAX, Duration::from_millis(250));
            let now = Instant::now();
            for (seq, line) in &lines {
                from = seq + 1;
                let Ok(rec) = EventRecord::from_line(line) else { continue };
                match rec.event {
                    CampaignEvent::ScenarioStarted { index, .. } => {
                        last.insert(index, now);
                    }
                    CampaignEvent::BatchTold { index, .. } => {
                        if let Some(t) = last.get_mut(&index) {
                            iterations.push(ms(now - *t));
                            *t = now;
                        }
                    }
                    _ => {}
                }
            }
            if closed && lines.is_empty() {
                return iterations;
            }
        }
    })
}

/// What one timed campaign measured.
struct TimedPass {
    wall: Duration,
    cpu_s: f64,
    samples: u64,
    iterations_ms: Vec<f64>,
    fingerprint: String,
    /// (best score, samples measured) per scenario, input order.
    scenarios: Vec<Option<(f64, u32)>>,
    sched: Option<SchedulerReport>,
    log_head: u64,
    log_bytes: u64,
    blob_bytes: usize,
}

fn timed_pass(p: Prepared, workers: &[String]) -> TimedPass {
    let follower = follow(Arc::clone(&p.log));
    let store = Arc::new(BlobStore::in_memory());
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let (report, sched) = if workers.is_empty() {
        let mut runner = CampaignRunner::new()
            .with_events(Arc::clone(&p.log))
            .with_store(Arc::clone(&store))
            .name(&p.cfg.name);
        if let Some(t) = p.cfg.threads {
            runner = runner.threads(t);
        }
        (runner.run(p.scenarios), None)
    } else {
        let (report, sched) = CampaignScheduler::new(workers.to_vec())
            .with_events(Arc::clone(&p.log))
            .with_store(Arc::clone(&store))
            .name(&p.cfg.name)
            .run(p.scenarios);
        (report, Some(sched))
    };
    let wall = start.elapsed();
    let cpu_s = cpu_seconds() - cpu0;
    let iterations_ms = follower.join().unwrap_or_default();
    TimedPass {
        wall,
        cpu_s,
        samples: samples_of(&report),
        iterations_ms,
        fingerprint: report.fingerprint(),
        scenarios: per_scenario(&report),
        sched,
        log_head: p.log.head(),
        log_bytes: std::fs::metadata(&p.log_path).map(|m| m.len()).unwrap_or(0),
        blob_bytes: store.total_bytes(),
    }
}

fn samples_of(report: &CampaignReport) -> u64 {
    report
        .results
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|o| o.samples_measured() as u64)
        .sum()
}

fn per_scenario(report: &CampaignReport) -> Vec<Option<(f64, u32)>> {
    report
        .results
        .iter()
        .map(|r| r.outcome.as_ref().ok().map(|o| (o.best_score(), o.samples_measured())))
        .collect()
}

/// Check one campaign against the reference: each scenario must measure
/// its full budget and reproduce the reference fingerprint line. Returns
/// the number of scenarios that passed.
pub fn check_scenarios(
    out: &mut Outcome,
    fingerprint: &str,
    reference: &str,
    scenarios: &[Option<(f64, u32)>],
    budget: u32,
) -> u64 {
    let got: Vec<&str> = fingerprint.lines().collect();
    let want: Vec<&str> = reference.lines().collect();
    out.check(got.len() == want.len(), || {
        format!("{} scenarios, reference has {}", got.len(), want.len())
    });
    let mut ok = 0;
    for (i, s) in scenarios.iter().enumerate() {
        out.attempted += 1;
        let full = matches!(s, Some((best, n)) if *n == budget && best.is_finite());
        let same = got.get(i).is_some() && got.get(i) == want.get(i);
        out.check(full, || format!("scenario {i} did not measure its {budget}-sample budget"));
        out.check(same, || format!("scenario {i} fingerprint differs from the reference"));
        if full && same {
            ok += 1;
        }
    }
    ok
}

/// Workers of one campaign-remote run, torn down on drop.
struct Pool {
    handles: Vec<ServerHandle>,
}

impl Pool {
    fn urls(&self) -> Vec<String> {
        self.handles.iter().map(|h| h.addr().to_string()).collect()
    }
}

/// The campaign-remote set-up beyond parse-and-log: 2 workers up and
/// answering `/healthz`.
fn start_pool() -> Result<Pool, String> {
    let handles = vec![spawn_worker()?, spawn_worker()?];
    for h in &handles {
        if !healthy(h) {
            return Err(format!("worker {} failed /healthz", h.addr()));
        }
    }
    Ok(Pool { handles })
}

/// One campaign set-up: parse the document and create its log, and on
/// campaign-remote also start 2 workers answering `/healthz`. Returns the
/// set-up and how long it took.
fn set_up(mode: Mode, doc: &str, log_path: &Path) -> Result<(Prepared, Option<Pool>, f64), String> {
    let p = prepare(doc, log_path).map_err(|e| format!("set-up failed: {e}"))?;
    let mut took = p.took;
    let pool = match mode {
        Mode::Remote => {
            let t0 = Instant::now();
            let pool = start_pool()?;
            took += t0.elapsed();
            Some(pool)
        }
        Mode::Local => None,
    };
    Ok((p, pool, took.as_secs_f64()))
}

/// Timed run: campaigns back to back until `run.seconds` have passed.
pub fn timed(run: &Run, mode: Mode, shape: Shape, reference: &str) -> Outcome {
    let mut out = Outcome::default();
    let doc = document(run.seed, shape);
    let log_path = run.work_dir.join("events.jsonl");
    let per_campaign =
        if mode == Mode::Remote { REMOTE_SETUPS_PER_CAMPAIGN } else { SETUPS_PER_CAMPAIGN };

    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    // Per campaign: samples/s, CPU ms per sample and peak RSS; iteration
    // latencies are pooled over the run's campaigns.
    let (mut rates, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let mut iterations = Vec::new();
    let (mut samples, mut passed, mut total) = (0u64, 0u64, 0u64);
    loop {
        let mut last = None;
        for _ in 0..per_campaign {
            drop(last.take());
            match set_up(mode, &doc, &log_path) {
                Ok((p, pool, took)) => {
                    setups.push(took);
                    last = Some((p, pool));
                }
                Err(e) => {
                    out.check(false, || e);
                    break;
                }
            }
        }
        let Some((p, pool)) = last else { break };
        let workers = pool.as_ref().map(Pool::urls).unwrap_or_default();
        let reset = reset_peak_rss();
        let pass = timed_pass(p, &workers);
        drop(pool);
        rss.push(if reset { peak_rss_mb() } else { f64::NAN });
        rates.push(pass.samples as f64 / pass.wall.as_secs_f64());
        cpu.push(ratio(pass.cpu_s * 1e3, pass.samples as f64));
        iterations.extend_from_slice(&pass.iterations_ms);
        samples += pass.samples;
        total += pass.scenarios.len() as u64;
        passed +=
            check_scenarios(&mut out, &pass.fingerprint, reference, &pass.scenarios, shape.samples);
        if Instant::now() >= deadline {
            break;
        }
    }
    if rates.is_empty() {
        return out;
    }

    let reps = rates.len();
    let own = if mode == Mode::Local { "samples_per_s" } else { "samples_per_s (remote)" };
    out.push(
        Metric::new("ops_per_s", "1/s", median(&rates), Source::Timed).note(format!(
            "{own}: median of {reps} campaigns of {} samples",
            samples / reps as u64
        )),
    );
    let (p50, p90, p99, n) = latency(&iterations);
    let it = format!("loop iteration, n={n} over {reps} campaigns");
    out.push(Metric::new("latency_p50_ms", "ms", p50, Source::Timed).note(it.clone()));
    out.push(Metric::new("latency_p90_ms", "ms", p90, Source::Timed).note(it));
    out.notes.push(format!("latency_p99_ms {p99:.3} ms (ungated tail, {} beyond)", n / 100));
    out.push(
        Metric::new("cpu_ms_per_op", "ms", median(&cpu), Source::Timed)
            .note("process CPU per sample, median of campaigns"),
    );
    out.push(
        Metric::new("success_rate", "frac", ratio(passed as f64, total as f64), Source::Count)
            .note(format!("{passed}/{total} scenarios full budget + reference fingerprint")),
    );
    out.push(
        Metric::new("setup_s", "s", median(&setups), Source::Timed).note(format!(
            "median of {} set-ups, {per_campaign} before each campaign",
            setups.len()
        )),
    );
    // Without a resettable peak, fall back to the whole process's.
    let (peak, how) = if rss.iter().all(|v| v.is_finite()) {
        (median(&rss), format!("median over {reps} campaigns of the peak during each"))
    } else {
        (peak_rss_mb(), "process lifetime".to_string())
    };
    out.push(Metric::new("peak_rss_mb", "MB", peak, Source::Timed).note(how));
    out
}

/// Tracks the wells filled on the current plate so a probe can render the
/// frame the camera saw for this batch.
struct VisionProbe {
    detector: Detector,
    scratch: DetectorScratch,
    frame: ImageRgb8,
    scene: PlateScene,
    last_well: Option<usize>,
}

impl VisionProbe {
    fn new(config: &AppConfig) -> VisionProbe {
        let mut scene = PlateScene::empty_plate();
        scene.camera.fidelity = config.fidelity;
        VisionProbe {
            detector: Detector::new(DetectorParams {
                flat_field: config.flat_field,
                ..DetectorParams::default()
            }),
            scratch: DetectorScratch::default(),
            frame: ImageRgb8::new(
                scene.camera.width_px,
                scene.camera.height_px,
                Default::default(),
            ),
            scene,
            last_well: None,
        }
    }

    /// Render, detect and BMP-encode this batch's frame, each in its own
    /// probe span. Returns wells used ÷ wells read, or `None` when the
    /// detector rejected the frame.
    fn run(
        &mut self,
        rec: &mut Recorder,
        parent: usize,
        scope: &str,
        frame_seed: u64,
        result: &BatchResult,
    ) -> Option<f64> {
        let cols = self.scene.plate.cols;
        let first = result.measurements.first().map(|m| m.well.row * cols + m.well.col)?;
        if self.last_well.is_some_and(|l| first <= l) {
            // A fresh plate was staged for this batch.
            self.scene.well_colors.iter_mut().for_each(|w| *w = None);
        }
        for m in &result.measurements {
            self.scene.set_well(m.well.row, m.well.col, m.color.to_linear());
            self.last_well = Some(m.well.row * cols + m.well.col);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(frame_seed);
        let (scene, frame) = (&self.scene, &mut self.frame);
        rec.probe("vision.render", Some(parent), scope, || {
            sdl_vision::render_into(scene, &mut rng, frame)
        });
        let (detector, scratch, frame) = (&self.detector, &mut self.scratch, &self.frame);
        let reading = rec.probe("vision.detect", Some(parent), scope, || {
            detector.detect_with(frame, scratch).is_ok()
        });
        let bmp = rec.probe("vision.bmp", Some(parent), scope, || frame.to_bmp().len());
        (reading && bmp > 0)
            .then(|| result.measurements.len() as f64 / self.scene.plate.well_count() as f64)
    }
}

/// Sums a traced run accumulates besides its spans.
#[derive(Debug, Default)]
struct TraceTotals {
    wells_frac: Vec<f64>,
    response_bytes: u64,
    encodes: u64,
    probe_failures: u64,
}

impl TraceTotals {
    fn merge(&mut self, other: TraceTotals) {
        self.wells_frac.extend(other.wells_frac);
        self.response_bytes += other.response_bytes;
        self.encodes += other.encodes;
        self.probe_failures += other.probe_failures;
    }
}

/// What one traced campaign produced.
struct TracedPass {
    trace: Trace,
    /// (best score, samples measured) per scenario, input order.
    scenarios: Vec<Option<(f64, u32)>>,
    totals: TraceTotals,
    wall: Duration,
    store: Arc<BlobStore>,
}

/// Traced run: the calls `CampaignRunner` makes for each scenario, each in
/// a span, on 2 driver threads (one per worker on campaign-remote).
fn traced_pass(p: Prepared, workers: &[String], seed: u64) -> TracedPass {
    let n = p.scenarios.len();
    let threads = if workers.is_empty() { p.cfg.threads.unwrap_or(2) } else { workers.len() };
    let log = p.log;
    log.append(&CampaignEvent::CampaignOpened {
        campaign: p.cfg.name.clone(),
        executor: if workers.is_empty() { "runner" } else { "scheduler" }.to_string(),
        workers: workers.to_vec(),
        specs: p.scenarios.iter().map(|s| s.to_value()).collect(),
    });
    let scenarios = &p.scenarios;
    let next = AtomicUsize::new(0);
    let store = Arc::new(BlobStore::in_memory());
    let start = Instant::now();
    let per_thread = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (log, next, store) = (&log, &next, &store);
                let backend_spec = match workers.get(w) {
                    Some(url) => BackendSpec::Remote(url.clone()),
                    None => BackendSpec::Sim,
                };
                scope.spawn(move || {
                    let mut rec = Recorder::new(w);
                    let mut scratch = DetectorScratch::default();
                    let mut totals = TraceTotals::default();
                    let mut done = Vec::new();
                    let me = format!("trace-{w}");
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let spec = &scenarios[i];
                        let s = format!("s{i}");
                        let root = rec.open("scenario", None, &s);
                        rec.span("events.append", Some(root), &s, || {
                            log.append(&CampaignEvent::ScenarioClaimed {
                                index: i,
                                worker: me.clone(),
                                claim: "own".to_string(),
                                queue_depth: n.saturating_sub(i + 1),
                            });
                            log.append(&CampaignEvent::ScenarioStarted {
                                index: i,
                                label: spec.label.clone(),
                                attempt: 0,
                                worker: me.clone(),
                            })
                        });
                        let outcome = drive_scenario(
                            &mut rec,
                            root,
                            &s,
                            spec,
                            &backend_spec,
                            EventScope::new(Arc::clone(log), i, 0),
                            &mut scratch,
                            &mut totals,
                            seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        );
                        let event = match outcome {
                            Ok(o) => {
                                done.push((i, (o.best_score, o.samples_measured)));
                                rec.span("datapub.merge", Some(root), &s, || {
                                    o.store.merge_into(store)
                                });
                                CampaignEvent::ScenarioFinished {
                                    index: i,
                                    label: spec.label.clone(),
                                    attempt: 0,
                                    worker: me.clone(),
                                    summary: ScenarioSummary::of(&ScenarioOutcome::Single(o)),
                                }
                            }
                            Err(error) => CampaignEvent::ScenarioFailed {
                                index: i,
                                label: spec.label.clone(),
                                attempt: 0,
                                worker: me.clone(),
                                error,
                            },
                        };
                        rec.span("events.append", Some(root), &s, || log.append(&event));
                        rec.close(root);
                    }
                    rec.finish();
                    (rec, done, totals)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced driver thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed();
    let mut pass = TracedPass {
        trace: Trace::default(),
        scenarios: vec![None; n],
        totals: TraceTotals::default(),
        wall,
        store,
    };
    for (rec, done, totals) in per_thread {
        pass.trace.recorders.push(rec);
        pass.totals.merge(totals);
        for (i, r) in done {
            pass.scenarios[i] = Some(r);
        }
    }
    log.append(&CampaignEvent::CampaignClosed {
        scenarios: n,
        failed: pass.scenarios.iter().filter(|r| r.is_none()).count(),
        best_score: pass.scenarios.iter().flatten().map(|r| r.0).reduce(f64::min),
        scheduler: None,
    });
    pass
}

/// One scenario, call by call: `Experiment::new`, `attach_events`,
/// `BackendSpec::build`, `open`, then `ask` / `submit_batch` / `tell` per
/// batch, then `close` and `outcome`.
#[allow(clippy::too_many_arguments)]
fn drive_scenario(
    rec: &mut Recorder,
    root: usize,
    s: &str,
    spec: &ScenarioSpec,
    backend_spec: &BackendSpec,
    events: EventScope,
    scratch: &mut DetectorScratch,
    totals: &mut TraceTotals,
    frame_seed: u64,
) -> Result<Box<sdl_core::ExperimentOutcome>, String> {
    let config = &spec.config;
    let (session, _) =
        rec.span("experiment.new", Some(root), s, || Experiment::new(config.clone()));
    let mut session = session.map_err(|e| e.to_string())?;
    session.attach_events(events);
    let (backend, _) = rec.span("backend.build", Some(root), s, || backend_spec.build(config));
    let mut backend = backend.map_err(|e| e.to_string())?;
    backend.swap_scratch(scratch);
    rec.span("experiment.announce", Some(root), s, || session.announce());
    let (caps, _) = rec.span("backend.open", Some(root), s, || backend.open());
    let caps = caps.map_err(|e| e.to_string())?;
    let mut vision = VisionProbe::new(config);
    let remote = matches!(backend_spec, BackendSpec::Remote(_));
    let mut rng = rand::rngs::StdRng::seed_from_u64(frame_seed);
    loop {
        let (batch, _) = rec.span("solvers.propose", Some(root), s, || session.ask(&caps));
        let Some(batch) = batch else { break };
        let b = format!("{s}/b{}", batch.run);
        let (result, call) =
            rec.span("backend.submit", Some(root), &b, || backend.submit_batch(&batch));
        let result = result.map_err(|e| e.to_string())?;
        match vision.run(rec, call, &b, rng.next_u64(), &result) {
            Some(frac) => totals.wells_frac.push(frac),
            None => totals.probe_failures += 1,
        }
        if remote {
            let json = rec
                .probe("wire.encode", Some(call), &b, || to_json(&wire::result_to_value(&result)));
            let back = rec.probe("wire.decode", Some(call), &b, || {
                from_json(&json).ok().and_then(|v| wire::result_from_value(&v).ok())
            });
            if back.map(|r| r.measurements) != Some(result.measurements.clone()) {
                totals.probe_failures += 1;
            }
            totals.response_bytes += json.len() as u64;
            totals.encodes += 1;
        }
        let (told, _) =
            rec.span("experiment.tell", Some(root), &b, || session.tell(&batch, result));
        told.map_err(|e| e.to_string())?;
    }
    let (close, _) =
        rec.span("backend.close", Some(root), s, || backend.close(session.samples_measured()));
    backend.swap_scratch(scratch);
    let close = close.map_err(|e| e.to_string())?;
    let (outcome, _) = rec.span("datapub.flow_drain", Some(root), s, || session.outcome(close));
    Ok(Box::new(outcome))
}

/// Traced run: one timed campaign for the counts, then one traced
/// campaign on the same inputs for the per-layer times.
pub fn traced(run: &Run, mode: Mode, shape: Shape, reference: &str) -> Outcome {
    let mut out = Outcome::default();
    let doc = document(run.seed, shape);
    let log_path = run.work_dir.join("events.jsonl");
    let pool = match mode {
        Mode::Remote => match start_pool() {
            Ok(p) => Some(p),
            Err(e) => {
                out.check(false, || e);
                return out;
            }
        },
        Mode::Local => None,
    };
    let workers = pool.as_ref().map(Pool::urls).unwrap_or_default();

    let timed = match prepare(&doc, &log_path) {
        Ok(p) => timed_pass(p, &workers),
        Err(e) => {
            out.check(false, || format!("set-up failed: {e}"));
            return out;
        }
    };
    check_scenarios(&mut out, &timed.fingerprint, reference, &timed.scenarios, shape.samples);

    let before = ServerTotals::scrape(&workers);
    let traced_log = run.work_dir.join("events-traced.jsonl");
    let TracedPass { trace, scenarios: results, totals, wall: traced_wall, store } =
        match prepare(&doc, &traced_log) {
            Ok(p) => traced_pass(p, &workers, run.seed),
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                return out;
            }
        };
    let server = ServerTotals::scrape(&workers).since(before);
    drop(pool);

    // Same inputs, same answers: best score and sample count per scenario.
    for (i, (t, r)) in timed.scenarios.iter().zip(&results).enumerate() {
        out.attempted += 1;
        let same = match (t, r) {
            (Some((a, n)), Some((b, m))) => a.to_bits() == b.to_bits() && n == m,
            _ => false,
        };
        out.check(same, || format!("traced scenario {i} differs from the timed run"));
    }
    out.check(totals.probe_failures == 0, || {
        format!("{} probes failed to reproduce their call's data", totals.probe_failures)
    });

    let st = trace.self_times();
    let mean = |name: &str| st.get(name).map(|a| a.mean_ms()).unwrap_or(0.0);
    let submit = mean("backend.submit");
    let (render, detect, bmp) = (mean("vision.render"), mean("vision.detect"), mean("vision.bmp"));
    let (encode, decode) = (mean("wire.encode"), mean("wire.decode"));
    // The server's request seconds cover every /v1 request: per scenario one
    // open, its batches and one close. Divided by the batches, the open and
    // close are amortised in; their client-side time bounds that share.
    let agg = |name: &str| st.get(name).copied().unwrap_or_default();
    let batches = agg("backend.submit").count as f64;
    let handle = ratio(server.seconds * 1e3, batches);
    let amortised = ratio(
        (agg("backend.open").total + agg("backend.close").total).as_secs_f64() * 1e3,
        batches,
    );
    let samples = timed.samples as f64;
    let remote = mode == Mode::Remote;
    let on = |yes: bool, src: Source| if yes { src } else { Source::OffPath };

    out.push(
        Metric::new("solvers.propose_ms", "ms", mean("solvers.propose"), Source::Span)
            .note("self time of Experiment::ask per batch"),
    );
    let best: Vec<f64> = timed.scenarios.iter().flatten().map(|(b, _)| *b).collect();
    out.push(
        Metric::new("solvers.best_score_p50", "score", median(&best), Source::Count)
            .note(format!("median over {} scenarios of the best score", best.len())),
    );
    out.push(
        Metric::new("backend.submit_ms", "ms", submit, Source::Span)
            .note("LabBackend::submit_batch per batch"),
    );
    out.push(Metric::new("vision.render_ms", "ms", render, Source::Probe).note("render_into"));
    out.push(Metric::new("vision.detect_ms", "ms", detect, Source::Probe).note("detect_with"));
    out.push(Metric::new("vision.bmp_ms", "ms", bmp, Source::Probe).note("ImageRgb8::to_bmp"));
    out.push(
        Metric::new("vision.wells_used_frac", "frac", median(&totals.wells_frac), Source::Count)
            .note("wells the batch uses / wells the detector reads"),
    );
    let other = if remote {
        handle - render - detect - bmp - encode
    } else {
        submit - render - detect - bmp
    };
    out.push(Metric::new("wei.other_ms", "ms", other, Source::Derived).note(if remote {
        "handle_ms - render - detect - bmp - wire.encode"
    } else {
        "submit - render - detect - bmp"
    }));
    out.push(
        Metric::new("experiment.tell_ms", "ms", mean("experiment.tell"), Source::Span)
            .note("self time of Experiment::tell per batch"),
    );
    out.push(
        Metric::new("datapub.flow_drain_ms", "ms", mean("datapub.flow_drain"), Source::Span)
            .note("Experiment::outcome per scenario"),
    );
    out.push(
        Metric::new("datapub.blob_mb", "MB", timed.blob_bytes as f64 / 1048576.0, Source::Count)
            .note(format!("campaign store at the end (traced: {} MB)", store.total_bytes() >> 20)),
    );
    out.push(Metric::new(
        "events.appends_per_sample",
        "count",
        ratio(timed.log_head as f64, samples),
        Source::Count,
    ));
    out.push(Metric::new(
        "events.bytes_per_sample",
        "B",
        ratio(timed.log_bytes as f64, samples),
        Source::Count,
    ));
    out.push(Metric::new("wire.encode_ms", "ms", encode, on(remote, Source::Probe)));
    out.push(Metric::new("wire.decode_ms", "ms", decode, on(remote, Source::Probe)));
    out.push(Metric::new(
        "wire.response_kb",
        "KB",
        ratio(totals.response_bytes as f64 / 1024.0, totals.encodes as f64),
        on(remote, Source::Count),
    ));
    let stats = timed.sched.as_ref();
    let (posts, resends, reconnects) = stats
        .map(|s| {
            s.workers.iter().fold((0u64, 0u64, 0u64), |a, w| {
                (a.0 + w.wire_posts, a.1 + w.wire_resends, a.2 + w.wire_reconnects)
            })
        })
        .unwrap_or_default();
    out.push(Metric::new(
        "wire.resends_per_post",
        "ratio",
        ratio(resends as f64, posts as f64),
        on(remote, Source::Count),
    ));
    let busy = stats
        .map(|s| {
            let busy: f64 = s.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
            ratio(busy, s.workers.len() as f64 * s.wall.as_secs_f64())
        })
        .unwrap_or(0.0);
    out.push(Metric::new("scheduler.busy_frac", "frac", busy, on(remote, Source::Count)));
    out.push(Metric::new(
        "scheduler.steals",
        "count",
        stats.map(|s| s.total_steals() as f64).unwrap_or(0.0),
        on(remote, Source::Count),
    ));
    let handle_note = if remote {
        format!(
            "/metrics request seconds sum / traced /v1/batch posts; open and close \
             amortised in (at most {amortised:.3} ms per batch)"
        )
    } else {
        String::new()
    };
    out.push(
        Metric::new("portal_server.handle_ms", "ms", handle, on(remote, Source::Count))
            .note(handle_note),
    );
    out.push(
        Metric::new(
            "portal_server.wait_ms",
            "ms",
            if remote { submit - handle - decode } else { 0.0 },
            on(remote, Source::Derived),
        )
        .note("backend.submit - handle_ms - wire.decode"),
    );
    out.push(Metric::new(
        "portal_server.bytes_per_req",
        "B",
        ratio(server.body_bytes, server.requests),
        on(remote, Source::Count),
    ));
    out.push(
        Metric::new(
            "portal_server.reconnects",
            "count",
            reconnects as f64,
            on(remote, Source::Count),
        )
        .note("RemoteBackend reconnects"),
    );
    for name in ["datapub.search_ms", "datapub.scan_per_hit", "datapub.html_ms"] {
        let unit = if name.ends_with("_ms") { "ms" } else { "ratio" };
        out.push(Metric::new(name, unit, 0.0, Source::OffPath));
    }
    out.push(Metric::new("datapub.blob_get_ms", "ms", 0.0, Source::OffPath));
    out.push(Metric::new("conf.encode_ms", "ms", 0.0, Source::OffPath));
    out.push(
        Metric::new(
            "trace.unattributed_frac",
            "frac",
            trace.unattributed_frac(false),
            Source::Derived,
        )
        .note("1 - layer-call time / driver-thread wall"),
    );
    let probes_per_thread = trace.probe_time().as_secs_f64() / trace.recorders.len().max(1) as f64;
    let overhead =
        ratio(traced_wall.as_secs_f64() - probes_per_thread, timed.wall.as_secs_f64()) - 1.0;
    out.push(Metric::new("trace.overhead_frac", "frac", overhead, Source::Derived).note(format!(
        "traced wall {:.2}s less probes vs timed wall {:.2}s",
        traced_wall.as_secs_f64(),
        timed.wall.as_secs_f64()
    )));
    // Amdahl predictions from the measured shares of driver-thread time.
    let total = |names: &[&str]| -> f64 {
        names.iter().filter_map(|n| st.get(n)).map(|a| a.total.as_secs_f64()).sum::<f64>()
    };
    let wall = trace.driver_wall();
    let vision = ratio(total(&["vision.render", "vision.detect", "vision.bmp"]), wall);
    out.notes.push(format!(
        "prediction: 2x faster vision -> samples_per_s x{:.2} (vision is {:.0}% of driver-thread time)",
        1.0 / (1.0 - vision / 2.0),
        vision * 100.0
    ));
    if remote {
        let wire = ratio(total(&["wire.encode", "wire.decode"]), wall);
        out.notes.push(format!(
            "prediction: binary /v1 body (wire codec cost -> 0) -> samples_per_s x{:.2} (wire is {:.0}%)",
            1.0 / (1.0 - wire),
            wire * 100.0
        ));
    } else {
        out.notes.push("prediction: binary /v1 body -> no change (wire is off path)".into());
    }
    out.notes
        .push("prediction: indexed portal scan -> no change (datapub search is off path)".into());

    let path: PathBuf = run.out_dir.join(format!("trace-{}-seed{}.jsonl", run.workload, run.seed));
    if let Err(e) = trace
        .write_jsonl(&path, trace.recorders.first().map(|r| r.started).unwrap_or_else(Instant::now))
    {
        out.check(false, || format!("writing {}: {e}", path.display()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_fingerprint_is_a_failure() {
        let reference = "0|a|best=1\n1|b|best=2\n";
        let scenarios = vec![Some((1.0, 8)), Some((2.0, 8))];
        let mut out = Outcome::default();
        assert_eq!(check_scenarios(&mut out, reference, reference, &scenarios, 8), 2);
        assert!(out.correct());

        let mut out = Outcome::default();
        let wrong = "0|a|best=1\n1|b|best=3\n";
        assert_eq!(check_scenarios(&mut out, wrong, reference, &scenarios, 8), 1);
        assert_eq!(out.failed, 1);
        assert!(!out.correct());
    }

    #[test]
    fn a_short_scenario_is_a_failure() {
        let reference = "0|a|best=1\n";
        let mut out = Outcome::default();
        assert_eq!(check_scenarios(&mut out, reference, reference, &[Some((1.0, 7))], 8), 0);
        assert!(!out.correct());
    }
}
