//! The parallel campaign executor.

use crate::app::AppError;
use crate::backend::BackendSpec;
use crate::campaign::events::{CampaignEvent, EventLog, EventScope, ScenarioSummary};
use crate::campaign::publish::InOrderMerge;
use crate::campaign::report::{CampaignReport, ScenarioOutcome, ScenarioResult};
use crate::campaign::spec::{RunMode, ScenarioSpec};
use crate::experiment::Experiment;
use crate::multi::run_multi_ot2;
use sdl_conf::Value;
use sdl_datapub::{AcdcPortal, BlobStore};
use sdl_vision::DetectorScratch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Executes scenario lists across an OS-thread pool.
///
/// Every scenario is an isolated simulated lab whose randomness derives
/// entirely from its own spec (`config.seed`), so the report is a pure
/// function of the scenario list: **bit-identical regardless of the number
/// of worker threads** and of completion order. Scenario summaries stream
/// into the runner's [`AcdcPortal`] in input order as prefixes complete.
pub struct CampaignRunner {
    pub(crate) threads: usize,
    pub(crate) portal: Arc<AcdcPortal>,
    pub(crate) store: Arc<BlobStore>,
    pub(crate) progress: bool,
    pub(crate) publish_records: bool,
    pub(crate) events: Option<Arc<EventLog>>,
    pub(crate) name: String,
}

impl Default for CampaignRunner {
    fn default() -> Self {
        CampaignRunner::new()
    }
}

impl CampaignRunner {
    /// A runner with one worker per available core.
    pub fn new() -> CampaignRunner {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        CampaignRunner {
            threads,
            portal: Arc::new(AcdcPortal::new()),
            store: Arc::new(BlobStore::in_memory()),
            progress: false,
            publish_records: false,
            events: None,
            name: "campaign".to_string(),
        }
    }

    /// Builder: append every lifecycle event to `log` (the campaign's
    /// append-only source of truth; see [`EventLog`]).
    pub fn with_events(mut self, log: Arc<EventLog>) -> CampaignRunner {
        self.events = Some(log);
        self
    }

    /// Builder: the campaign name recorded in the `campaign_opened` event.
    pub fn name(mut self, name: impl Into<String>) -> CampaignRunner {
        self.name = name.into();
        self
    }

    /// Builder: use exactly `n` worker threads.
    pub fn threads(mut self, n: usize) -> CampaignRunner {
        self.threads = n.max(1);
        self
    }

    /// Builder: print one progress line per completed scenario to stderr.
    pub fn progress(mut self, on: bool) -> CampaignRunner {
        self.progress = on;
        self
    }

    /// Builder: stream scenario summaries into an existing portal instead
    /// of a fresh one.
    pub fn with_portal(mut self, portal: Arc<AcdcPortal>) -> CampaignRunner {
        self.portal = portal;
        self
    }

    /// The portal scenario summaries stream into.
    pub fn portal(&self) -> &Arc<AcdcPortal> {
        &self.portal
    }

    /// Builder: collect published plate images into an existing blob store
    /// (e.g. one a portal server is concurrently serving `/blobs/` from).
    pub fn with_store(mut self, store: Arc<BlobStore>) -> CampaignRunner {
        self.store = store;
        self
    }

    /// Builder: also stream each scenario's *full* record set (experiment
    /// metadata and per-sample records) into the campaign portal, not just
    /// the scenario summary. This is what a live portal server wants: the
    /// Figure-3 summary and run-detail views become available per
    /// experiment as each scenario completes.
    pub fn publish_records(mut self, on: bool) -> CampaignRunner {
        self.publish_records = on;
        self
    }

    /// The blob store scenario plate images merge into.
    pub fn store(&self) -> &Arc<BlobStore> {
        &self.store
    }

    /// The number of worker threads `run` will use.
    pub fn worker_threads(&self) -> usize {
        self.threads
    }

    /// Execute every scenario, returning per-scenario results in input
    /// order.
    pub fn run(&self, scenarios: Vec<ScenarioSpec>) -> CampaignReport {
        let n = scenarios.len();
        if n == 0 {
            return CampaignReport {
                results: Vec::new(),
                portal: Arc::clone(&self.portal),
                threads: self.threads,
            };
        }
        if let Some(log) = &self.events {
            log.append(&CampaignEvent::CampaignOpened {
                campaign: self.name.clone(),
                executor: "runner".to_string(),
                workers: Vec::new(),
                specs: scenarios.iter().map(|s| s.to_value()).collect(),
            });
        }
        let mut merge = self.merge(n);
        let todo: Vec<(usize, u32)> = (0..n).map(|i| (i, 0)).collect();
        self.drive(&scenarios, &todo, self.events.as_ref(), &mut merge);
        let (results, _) = merge.finish();
        if let Some(log) = &self.events {
            log.append(&closed_event(&results, None));
        }
        CampaignReport { results, portal: Arc::clone(&self.portal), threads: self.threads }
    }

    /// The in-order merge into this runner's portal and blob store.
    pub(crate) fn merge(&self, n: usize) -> InOrderMerge<'_> {
        InOrderMerge::new(n, &self.portal, &self.store, self.publish_records, self.progress)
    }

    /// The pool loop: run each `(index, attempt)` of `todo` as one attempt
    /// of `specs[index]` on this runner's threads, and feed every result to
    /// `merge` on the calling thread as it completes.
    pub(crate) fn drive(
        &self,
        specs: &[ScenarioSpec],
        todo: &[(usize, u32)],
        events: Option<&Arc<EventLog>>,
        merge: &mut InOrderMerge<'_>,
    ) {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<ScenarioResult>();
        std::thread::scope(|scope| {
            for w in 0..self.threads.min(todo.len()) {
                let (next, tx) = (&next, tx.clone());
                scope.spawn(move || {
                    // One scratch arena per worker thread: detector buffers
                    // (several MB) are reused across every scenario this
                    // worker executes instead of reallocated per run.
                    let mut scratch = DetectorScratch::default();
                    let me = format!("local-{w}");
                    loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(i, attempt)) = todo.get(pos) else { break };
                        let depth = todo.len() - (pos + 1);
                        let result = run_attempt(
                            &specs[i],
                            i,
                            attempt,
                            (&me, "own", depth),
                            &mut scratch,
                            events,
                        );
                        if tx.send(result).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for result in rx {
                merge.push(result);
            }
        });
    }
}

/// One execution attempt of scenario `index`, logged the same way by every
/// executor that runs scenarios in this process: `scenario_claimed` by
/// `(worker, claim, queue depth)`, `scenario_started`, the session's batch
/// and sample events, then [`finish_event`]'s terminal event.
pub(crate) fn run_attempt(
    spec: &ScenarioSpec,
    index: usize,
    attempt: u32,
    (worker, claim, queue_depth): (&str, &str, usize),
    scratch: &mut DetectorScratch,
    events: Option<&Arc<EventLog>>,
) -> ScenarioResult {
    if let Some(log) = events {
        log.append(&CampaignEvent::ScenarioClaimed {
            index,
            worker: worker.to_string(),
            claim: claim.to_string(),
            queue_depth,
        });
        log.append(&CampaignEvent::ScenarioStarted {
            index,
            label: spec.label.clone(),
            attempt,
            worker: worker.to_string(),
        });
    }
    let scope = events.map(|log| EventScope::new(Arc::clone(log), index, attempt));
    let outcome = execute(spec, scratch, scope);
    if let Some(log) = events {
        log.append(&finish_event(index, spec, attempt, worker, &outcome));
    }
    ScenarioResult { spec: spec.clone(), index, outcome }
}

/// The terminal per-scenario event for one execution attempt.
pub(crate) fn finish_event(
    index: usize,
    spec: &ScenarioSpec,
    attempt: u32,
    worker: &str,
    outcome: &Result<ScenarioOutcome, AppError>,
) -> CampaignEvent {
    match outcome {
        Ok(o) => CampaignEvent::ScenarioFinished {
            index,
            label: spec.label.clone(),
            attempt,
            worker: worker.to_string(),
            summary: ScenarioSummary::of(o),
        },
        Err(e) => CampaignEvent::ScenarioFailed {
            index,
            label: spec.label.clone(),
            attempt,
            worker: worker.to_string(),
            error: e.to_string(),
        },
    }
}

/// The `campaign_closed` event for a campaign's results; `best_score` is
/// the lowest score across successful scenarios, if any.
pub(crate) fn closed_event(results: &[ScenarioResult], scheduler: Option<Value>) -> CampaignEvent {
    CampaignEvent::CampaignClosed {
        scenarios: results.len(),
        failed: results.iter().filter(|r| r.outcome.is_err()).count(),
        best_score: results
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|o| o.best_score())
            .reduce(f64::min),
        scheduler,
    }
}

/// Run one scenario to completion ([`run_attempt`] calls this): an
/// [`Experiment`] session driven on the scenario's configured lab backend.
/// `scratch` is the worker's reusable detector arena, loaned to backends
/// with a detection pipeline. With `events`, the session appends
/// batch/sample events as it goes (multi-OT2 scenarios log only their
/// lifecycle; their summary carries the close telemetry).
pub(crate) fn execute(
    spec: &ScenarioSpec,
    scratch: &mut DetectorScratch,
    events: Option<EventScope>,
) -> Result<ScenarioOutcome, AppError> {
    match spec.mode {
        RunMode::Single => {
            let mut session = Experiment::new(spec.config.clone())?;
            if let Some(scope) = events {
                session.attach_events(scope);
            }
            let mut backend = spec.backend.build(&spec.config)?;
            backend.swap_scratch(scratch);
            let outcome = session.run_on(backend.as_mut());
            backend.swap_scratch(scratch);
            outcome.map(|o| ScenarioOutcome::Single(Box::new(o)))
        }
        RunMode::MultiOt2(n) => {
            if spec.backend != BackendSpec::Sim {
                return Err(AppError::Setup(format!(
                    "multi-OT2 scenarios only run on the sim backend (got '{}')",
                    spec.backend
                )));
            }
            run_multi_ot2(&spec.config, n).map(ScenarioOutcome::MultiOt2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AppConfig;
    use sdl_conf::ValueExt;

    fn spec(label: &str, seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            label,
            AppConfig {
                sample_budget: 4,
                batch: 2,
                seed,
                publish_images: false,
                ..AppConfig::default()
            },
        )
    }

    #[test]
    fn results_come_back_in_input_order() {
        let report =
            CampaignRunner::new().threads(4).run(vec![spec("a", 1), spec("b", 2), spec("c", 3)]);
        assert_eq!(report.len(), 3);
        let labels: Vec<&str> = report.results.iter().map(|r| r.label()).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        for r in &report.results {
            assert_eq!(r.expect_outcome().samples_measured(), 4, "{}", r.label());
        }
    }

    #[test]
    fn portal_receives_stream_in_order() {
        let report = CampaignRunner::new().threads(8).run(vec![
            spec("s0", 1),
            spec("s1", 2),
            spec("s2", 3),
            spec("s3", 4),
        ]);
        let records = report.portal.find("kind", "campaign_scenario");
        assert_eq!(records.len(), 4);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.opt_i64("index"), Some(i as i64), "stream out of order");
        }
        assert_eq!(report.portal.find("kind", "campaign").len(), 1);
    }

    #[test]
    fn full_records_and_blobs_stream_into_shared_sinks() {
        let portal = Arc::new(AcdcPortal::new());
        let store = Arc::new(BlobStore::in_memory());
        let mut with_images = spec("imaged", 7);
        with_images.config.publish_images = true;
        let report = CampaignRunner::new()
            .threads(2)
            .with_portal(Arc::clone(&portal))
            .with_store(Arc::clone(&store))
            .publish_records(true)
            .run(vec![with_images, spec("plain", 8)]);
        assert_eq!(report.len(), 2);
        // Full per-sample records from both scenarios landed in the shared
        // portal alongside the scenario summaries.
        assert_eq!(portal.find("kind", "experiment").len(), 2);
        assert_eq!(portal.find("kind", "sample").len(), 8);
        assert_eq!(portal.find("kind", "campaign_scenario").len(), 2);
        // The imaged scenario's plate frames were merged into the shared
        // blob store under their original references.
        assert!(!store.is_empty(), "publish_images scenario produced no blobs");
        let sample_with_image = portal
            .search(|r| r.opt_str("kind") == Some("sample") && r.opt_str("image_ref").is_some());
        let r = sample_with_image[0].opt_str("image_ref").unwrap();
        assert!(store.get(&sdl_datapub::BlobRef(r.to_string())).is_some());
    }

    #[test]
    fn summaries_only_without_publish_records() {
        let report = CampaignRunner::new().threads(2).run(vec![spec("s", 9)]);
        assert_eq!(report.portal.find("kind", "sample").len(), 0);
        assert_eq!(report.portal.find("kind", "campaign_scenario").len(), 1);
    }

    #[test]
    fn multi_ot2_scenarios_execute() {
        let base =
            AppConfig { sample_budget: 6, batch: 2, publish_images: false, ..AppConfig::default() };
        let report =
            CampaignRunner::new().threads(2).run(vec![ScenarioSpec::multi_ot2("m2", base, 2)]);
        let out = report.results[0].expect_outcome();
        assert_eq!(out.samples_measured(), 6);
        assert_eq!(out.as_multi().n_ot2, 2);
    }

    #[test]
    fn empty_campaign_is_fine() {
        let report = CampaignRunner::new().run(Vec::new());
        assert!(report.is_empty());
        assert_eq!(report.fingerprint(), "");
    }

    #[test]
    fn event_log_captures_the_full_lifecycle() {
        let log = Arc::new(EventLog::in_memory());
        let report = CampaignRunner::new()
            .threads(2)
            .name("lifecycle")
            .with_events(Arc::clone(&log))
            .run(vec![spec("a", 1), spec("b", 2)]);
        assert_eq!(report.len(), 2);

        let (lines, head, closed) = log.lines_from(1, usize::MAX);
        assert_eq!(lines.len() as u64, head);
        assert!(closed, "campaign_closed must mark the log closed");
        let events: Vec<CampaignEvent> = lines
            .iter()
            .map(|(_, l)| crate::campaign::EventRecord::from_line(l).unwrap().event)
            .collect();
        assert!(
            matches!(&events[0], CampaignEvent::CampaignOpened { campaign, specs, .. }
                if campaign == "lifecycle" && specs.len() == 2),
            "first event must be campaign_opened"
        );
        assert!(matches!(
            events.last(),
            Some(CampaignEvent::CampaignClosed { scenarios: 2, failed: 0, .. })
        ));
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("scenario_claimed"), 2);
        assert_eq!(count("scenario_started"), 2);
        assert_eq!(count("scenario_finished"), 2);
        // 4 samples per scenario in batches of 2 → 2 asks, 2 tells each.
        assert_eq!(count("batch_asked"), 4);
        assert_eq!(count("batch_told"), 4);
        assert_eq!(count("sample_published"), 8);
        // Every batch is asked before it is told, per scenario.
        for idx in 0..2usize {
            let mut asked = 0u32;
            for e in &events {
                match e {
                    CampaignEvent::BatchAsked { index, run, .. } if *index == idx => {
                        asked = *run;
                    }
                    CampaignEvent::BatchTold { index, run, .. } if *index == idx => {
                        assert!(*run <= asked, "told run {run} before it was asked");
                    }
                    _ => {}
                }
            }
        }
    }
}
