//! The ask/tell experiment session (inversion of the paper's Figure-2
//! loop).
//!
//! [`Experiment`] owns the decision and data side of a run — solver,
//! measurement history, trajectory, termination criteria and portal
//! publication — and knows nothing about *how* batches get executed. A
//! driver asks it for proposals and tells it results:
//!
//! ```
//! use sdl_core::{AppConfig, Experiment, LabBackend, SimBackend};
//!
//! let config = AppConfig { sample_budget: 4, batch: 2, publish_images: false, ..AppConfig::default() };
//! let mut backend = SimBackend::new(&config).unwrap();
//! let mut session = Experiment::new(config).unwrap();
//! let caps = backend.open().unwrap();
//! while let Some(batch) = session.ask(&caps) {
//!     let result = backend.submit_batch(&batch).unwrap();
//!     session.tell(&batch, result).unwrap();
//! }
//! let close = backend.close(session.samples_measured()).unwrap();
//! let outcome = session.outcome(close);
//! assert_eq!(outcome.samples_measured, 4);
//! ```
//!
//! [`Experiment::run_on`] packages that loop (including out-of-plates
//! mapping) for any [`LabBackend`].

use crate::app::{AppError, ExperimentOutcome, TrajectoryPoint};
use crate::backend::{BackendCaps, BackendClose, Batch, BatchResult, LabBackend};
use crate::campaign::{CampaignEvent, EventScope};
use crate::config::AppConfig;
use crate::termination::TerminationReason;
use rand::rngs::StdRng;
use sdl_color::Rgb8;
use sdl_datapub::{
    AcdcPortal, BlobStore, ExperimentRecord, FlowJob, FlowStats, PublishFlow, SampleRecord,
};
use sdl_desim::RngHub;
use sdl_solvers::{ColorSolver, Observation};
use std::sync::Arc;

/// An in-flight experiment: proposals out, measurements in.
pub struct Experiment {
    config: AppConfig,
    solver: Box<dyn ColorSolver>,
    solver_rng: StdRng,
    history: Vec<Observation>,
    trajectory: Vec<TrajectoryPoint>,
    samples_done: u32,
    runs: u32,
    portal: Arc<AcdcPortal>,
    store: Arc<BlobStore>,
    flow: Option<PublishFlow>,
    announced: bool,
    termination: Option<TerminationReason>,
    events: Option<EventScope>,
}

impl Experiment {
    /// Start a session: build the solver, derive its RNG stream, open the
    /// publication flow.
    pub fn new(config: AppConfig) -> Result<Experiment, AppError> {
        let solver =
            config.build_solver(config.dyes.len()).map_err(|e| AppError::Setup(e.to_string()))?;
        let hub = RngHub::new(config.seed);
        let portal = Arc::new(AcdcPortal::new());
        let store = Arc::new(BlobStore::in_memory());
        let flow = PublishFlow::start(Arc::clone(&portal), Arc::clone(&store));
        Ok(Experiment {
            solver,
            solver_rng: hub.stream("app.solver"),
            history: Vec::new(),
            trajectory: Vec::new(),
            samples_done: 0,
            runs: 0,
            portal,
            store,
            flow: Some(flow),
            announced: false,
            termination: None,
            events: None,
            config,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &AppConfig {
        &self.config
    }

    /// The measurement history accumulated so far.
    pub fn history(&self) -> &[Observation] {
        &self.history
    }

    /// The best-so-far trajectory accumulated so far.
    pub fn trajectory(&self) -> &[TrajectoryPoint] {
        &self.trajectory
    }

    /// Samples measured so far.
    pub fn samples_measured(&self) -> u32 {
        self.samples_done
    }

    /// Why the session stopped, once it has.
    pub fn termination(&self) -> Option<&TerminationReason> {
        self.termination.as_ref()
    }

    /// True once a termination criterion has been met.
    pub fn is_done(&self) -> bool {
        self.termination.is_some()
    }

    /// The portal every record publishes into.
    pub fn portal(&self) -> &Arc<AcdcPortal> {
        &self.portal
    }

    /// Swap in a custom decision procedure before the first [`ask`]
    /// (the solver RNG stream is unchanged). Used by the equivalence tests
    /// and the `hotpath` bench to pin a solver variant.
    ///
    /// [`ask`]: Experiment::ask
    pub fn replace_solver(&mut self, solver: Box<dyn ColorSolver>) {
        self.solver = solver;
    }

    /// Attach a campaign event-log scope: every subsequent ask/tell appends
    /// `batch_asked` / `batch_told` / `sample_published` events *before*
    /// the session acts on the data. Campaign executors attach this; a bare
    /// session stays silent.
    pub fn attach_events(&mut self, scope: EventScope) {
        self.events = Some(scope);
    }

    /// Resume an interrupted experiment from previously published records.
    ///
    /// Restores the measurement history (ratios, measured colors, scores)
    /// and the sample/iteration counters from `records`, so a crashed
    /// control host can continue where it stopped: the solver sees the full
    /// history and the budget accounting picks up at the right sample. The
    /// physical plate is gone after a crash, so the loop starts on a fresh
    /// plate; elapsed time restarts at the recovery (TWH semantics: the
    /// crash was an intervention).
    pub fn restore_from_records(&mut self, records: &[SampleRecord]) {
        let mut records: Vec<&SampleRecord> = records.iter().collect();
        records.sort_by_key(|r| r.sample);
        for r in &records {
            self.history.push(Observation {
                ratios: r.ratios.clone(),
                measured: Rgb8::new(r.measured[0], r.measured[1], r.measured[2]),
                score: r.score,
            });
        }
        self.samples_done = records.last().map(|r| r.sample).unwrap_or(0);
        self.runs = records.last().map(|r| r.run).unwrap_or(0);
        self.trajectory = records
            .iter()
            .map(|r| TrajectoryPoint {
                sample: r.sample,
                elapsed_min: r.elapsed_s / 60.0,
                score: r.score,
                best: r.best_so_far,
            })
            .collect();
    }

    /// Announce the experiment on the portal (idempotent; the first `ask`
    /// does it automatically).
    pub fn announce(&mut self) {
        if self.announced {
            return;
        }
        self.announced = true;
        if let Some(flow) = &self.flow {
            flow.publish(FlowJob {
                records: vec![ExperimentRecord {
                    experiment_id: self.config.experiment_id(),
                    name: self.config.experiment_name.clone(),
                    date: self.config.date.clone(),
                    target: self.config.target.channels(),
                    solver: self.config.solver_label().to_string(),
                    batch: self.config.batch,
                    sample_budget: self.config.sample_budget,
                }
                .to_value()],
                image: None,
            });
        }
    }

    /// Propose the next batch, or `None` once a termination criterion is
    /// met (the reason is then available via [`Experiment::termination`]).
    pub fn ask(&mut self, caps: &BackendCaps) -> Option<Batch> {
        if self.termination.is_some() {
            return None;
        }
        self.announce();

        // Loop check: enough wells in budget? (Figure 2) Saturating:
        // restoring records from a larger-budget run must terminate, not
        // underflow.
        let remaining = self.config.sample_budget.saturating_sub(self.samples_done);
        if remaining == 0 {
            self.termination = Some(TerminationReason::BudgetExhausted);
            return None;
        }

        // Batches are never split across plates, so a batch is never larger
        // than the executor's plate.
        let b = remaining.min(self.config.batch).min(caps.plate_capacity.max(1)) as usize;

        // Solver proposes (Figure 2: Solver.Run_Iteration).
        let proposed_at = self.events.as_ref().map(|_| std::time::Instant::now());
        // A moving target chases `target_to`: the solver is pointed at the
        // target of the *next* sample to be measured.
        let target = self.config.target_at(self.samples_done);
        let ratios = self.solver.propose(target, &self.history, b, &mut self.solver_rng);
        debug_assert_eq!(ratios.len(), b);
        self.runs += 1;
        if let (Some(scope), Some(t)) = (&self.events, proposed_at) {
            scope.emit(&CampaignEvent::BatchAsked {
                index: scope.index,
                attempt: scope.attempt,
                run: self.runs,
                size: b,
                propose_us: t.elapsed().as_micros() as u64,
            });
        }
        Some(Batch { run: self.runs, ratios })
    }

    /// Feed one executed batch back: grade each measurement, extend the
    /// history and trajectory, publish the batch's sample records (one
    /// flow job carrying the batch's frame), and evaluate the
    /// match-threshold termination criterion.
    pub fn tell(&mut self, batch: &Batch, result: BatchResult) -> Result<(), AppError> {
        if result.measurements.len() != batch.ratios.len() {
            return Err(AppError::Setup(format!(
                "backend measured {} wells for a batch of {} proposals",
                result.measurements.len(),
                batch.ratios.len()
            )));
        }
        if let Some(scope) = &self.events {
            scope.emit(&CampaignEvent::BatchTold {
                index: scope.index,
                attempt: scope.attempt,
                run: batch.run,
                size: batch.ratios.len(),
                elapsed_us: result.elapsed.as_micros(),
                batch_wall_us: result.batch_wall.as_micros(),
            });
        }
        let mut records = Vec::with_capacity(batch.ratios.len());
        for (i, (ratio, m)) in batch.ratios.iter().zip(&result.measurements).enumerate() {
            let measured = m.color;
            let target_now = self.config.target_at(self.samples_done);
            let score = self.config.score_measurement(measured, self.samples_done);
            self.history.push(Observation { ratios: ratio.clone(), measured, score });
            self.samples_done += 1;
            let best =
                sdl_solvers::best_observation(&self.history).map(|o| o.score).unwrap_or(score);
            self.trajectory.push(TrajectoryPoint {
                sample: self.samples_done,
                elapsed_min: result.elapsed.as_minutes(),
                score,
                best,
            });
            if let Some(scope) = &self.events {
                scope.emit(&CampaignEvent::SamplePublished {
                    index: scope.index,
                    attempt: scope.attempt,
                    run: batch.run,
                    sample: self.samples_done,
                    well: m.well.to_string(),
                    ratios: ratio.clone(),
                    measured: measured.channels(),
                    score,
                    best,
                    elapsed_us: result.elapsed.as_micros(),
                    batch_wall_us: result.batch_wall.as_micros(),
                });
            }
            if self.flow.is_some() {
                let volumes = sdl_color::Recipe::from_ratios(ratio, &self.config.dyes)
                    .map(|r| r.volumes_ul().to_vec())
                    .unwrap_or_default();
                let mut record = SampleRecord {
                    experiment_id: self.config.experiment_id(),
                    run: batch.run,
                    sample: self.samples_done,
                    well: m.well.to_string(),
                    ratios: ratio.clone(),
                    volumes_ul: volumes,
                    measured: measured.channels(),
                    target: target_now.channels(),
                    score,
                    best_so_far: best,
                    elapsed_s: result.elapsed.as_secs_f64(),
                    batch_wall_s: Some(result.batch_wall.as_secs_f64()),
                    image_ref: None,
                }
                .to_value();
                // "The data created includes … the timing of each step"
                // (§2.3): the iteration's workflow log rides with its first
                // sample.
                if i == 0 {
                    if let Some(timing) = &result.timing {
                        record.set("timing", timing.clone());
                    }
                }
                records.push(record);
            }
        }
        if let Some(flow) = &self.flow {
            flow.publish(FlowJob { records, image: result.image });
        }

        // Check: target matched?
        if let Some(threshold) = self.config.match_threshold {
            let best = sdl_solvers::best_observation(&self.history).map(|o| o.score);
            if let Some(best) = best {
                if best <= threshold {
                    self.termination = Some(TerminationReason::TargetMatched { score: best });
                }
            }
        }
        Ok(())
    }

    /// Force a termination reason (drivers use this to record lab-side
    /// aborts such as plate-storage exhaustion).
    pub fn terminate(&mut self, reason: TerminationReason) {
        self.termination.get_or_insert(reason);
    }

    /// Finish the session: close the publication flow and combine the
    /// session's state with the backend's final accounting.
    pub fn outcome(&mut self, close: BackendClose) -> ExperimentOutcome {
        let flow_stats = match self.flow.take() {
            Some(flow) => flow.close(),
            None => FlowStats::default(),
        };
        let best = sdl_solvers::best_observation(&self.history);
        let (best_score, best_ratios) =
            best.map(|o| (o.score, o.ratios.clone())).unwrap_or((f64::INFINITY, Vec::new()));
        ExperimentOutcome {
            experiment_id: self.config.experiment_id(),
            termination: self.termination.clone().unwrap_or(TerminationReason::BudgetExhausted),
            best_score,
            best_ratios,
            samples_measured: self.samples_done,
            duration: close.duration,
            trajectory: self.trajectory.clone(),
            metrics: close.metrics,
            counters: close.counters,
            plates_used: close.plates_used,
            solver_fallbacks: self.solver.degenerate_fallbacks(),
            portal: Arc::clone(&self.portal),
            store: Arc::clone(&self.store),
            flow_stats,
        }
    }

    /// Drive the session to completion on `backend`: the ask/tell loop,
    /// out-of-plates mapping, and final close, exactly as the pre-redesign
    /// `ColorPickerApp::run` behaved.
    pub fn run_on(&mut self, backend: &mut dyn LabBackend) -> Result<ExperimentOutcome, AppError> {
        // Announce before the lab starts, mirroring the legacy run order
        // (the experiment record precedes every lab action, even a failed
        // first plate fetch).
        self.announce();
        let caps = match backend.open() {
            Ok(caps) => caps,
            Err(e) if is_out_of_plates(&e) => {
                self.terminate(TerminationReason::OutOfPlates);
                let close = backend.close(self.samples_done)?;
                return Ok(self.outcome(close));
            }
            Err(e) => return Err(e),
        };
        while let Some(batch) = self.ask(&caps) {
            match backend.submit_batch(&batch) {
                Ok(result) => self.tell(&batch, result)?,
                Err(e) if is_out_of_plates(&e) => {
                    self.terminate(TerminationReason::OutOfPlates);
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        let close = backend.close(self.samples_done)?;
        Ok(self.outcome(close))
    }
}

/// Did the lab abort because the plate crane ran dry? (The one lab-side
/// error that is a termination criterion rather than a failure.)
fn is_out_of_plates(e: &AppError) -> bool {
    matches!(
        e,
        AppError::Wei(sdl_wei::WeiError::CommandAborted {
            cause: sdl_instruments::InstrumentError::OutOfPlates,
            ..
        })
    )
}
