//! The append-only campaign event log: the source of truth for what a
//! campaign did, in the order it did it.
//!
//! Every state transition of a running campaign — opening, each scenario
//! claim/start/finish, every batch asked and told, every published sample,
//! worker evictions and steals, the final close — is appended to an
//! [`EventLog`] *before* the transition is acted on. The log is therefore
//! sufficient to
//!
//! * **resume** an interrupted campaign (replaying finished scenarios
//!   bit-exactly and re-driving only unfinished ones),
//! * **watch** a live campaign (the portal serves the log tail over
//!   `GET /events` and SSE; `sdl-lab watch` renders it), and
//! * **audit** a finished one (every line is checksummed and ordered).
//!
//! ## Wire format
//!
//! One JSON object per line (JSONL). Each line carries its 1-based
//! sequence number and an FNV-1a-64 checksum of the event body:
//!
//! ```text
//! {"event":"scenario_started","index":3,"label":"genetic/b2/s7","attempt":0,
//!  "worker":"local-1","seq":17,"crc":"9f8a441bb1c00d3e"}
//! ```
//!
//! `crc` covers the serialized event *without* the `seq`/`crc` envelope
//! keys (maps are insertion-ordered, so the covered bytes are exactly the
//! prefix that was hashed at append time). The recovery scan accepts the
//! longest prefix of lines that are newline-terminated, contiguous in
//! `seq`, and checksum-clean; everything after the first torn or corrupt
//! line is discarded. Appends flush to the OS per event (a killed process
//! loses at most the line it was writing) and fsync in batches, forcing a
//! sync at scenario and campaign boundaries.

use crate::app::AppError;
use crate::campaign::report::ScenarioOutcome;
use crate::config::{need_u32, parse_rgb_triple, AppConfig};
use crate::multi::MultiOt2Outcome;
use crate::termination::TerminationReason;
use sdl_conf::{from_json, to_json, Value, ValueExt};
use sdl_datapub::SampleRecord;
use sdl_desim::SimDuration;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Seek, SeekFrom, Write as _};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Fsync no less often than once per this many appends (scenario and
/// campaign boundary events always sync immediately).
const FSYNC_BATCH: u32 = 64;

/// Authoritative end-of-scenario telemetry, embedded in
/// [`CampaignEvent::ScenarioFinished`]. Carries exactly the accounting a
/// resume cannot reconstruct from the sample stream alone (robotic command
/// totals, the virtual-clock close, TWH/CCWH, the termination reason), so
/// a resumed campaign's fingerprint is bit-identical to the uninterrupted
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Best score achieved.
    pub best_score: f64,
    /// Virtual-clock duration.
    pub duration: SimDuration,
    /// Samples measured.
    pub samples: u32,
    /// Plates consumed.
    pub plates: u32,
    /// Robotic commands completed.
    pub robotic_commands: u64,
    /// Degenerate-surrogate fallbacks.
    pub solver_fallbacks: u64,
    /// Single-loop extras (present iff the scenario ran single-loop).
    pub single: Option<SingleTelemetry>,
    /// Multi-OT2 extras (present iff the scenario ran multi-OT2).
    pub multi: Option<MultiTelemetry>,
}

/// Single-loop close telemetry that replay cannot reconstruct.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleTelemetry {
    /// Why the run stopped.
    pub termination: TerminationReason,
    /// Total workcell hours (Table 1).
    pub twh: SimDuration,
    /// Completed-command workcell hours numerator.
    pub ccwh: u64,
}

/// Multi-OT2 outcome fields beyond the shared summary.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTelemetry {
    /// Liquid handlers that shared the budget.
    pub n_ot2: usize,
    /// All commands issued (completed or not).
    pub total_commands: u64,
    /// Samples measured per handler.
    pub per_handler_samples: Vec<u32>,
    /// Virtual time per color mixed.
    pub time_per_color: SimDuration,
}

impl ScenarioSummary {
    /// Capture the summary of a finished scenario.
    pub fn of(outcome: &ScenarioOutcome) -> ScenarioSummary {
        let mut s = ScenarioSummary {
            best_score: outcome.best_score(),
            duration: outcome.duration(),
            samples: outcome.samples_measured(),
            plates: outcome.plates_used(),
            robotic_commands: outcome.robotic_commands(),
            solver_fallbacks: outcome.solver_fallbacks(),
            single: None,
            multi: None,
        };
        match outcome {
            ScenarioOutcome::Single(o) => {
                s.single = Some(SingleTelemetry {
                    termination: o.termination.clone(),
                    twh: o.metrics.twh,
                    ccwh: o.metrics.ccwh,
                });
            }
            ScenarioOutcome::MultiOt2(m) => {
                s.multi = Some(MultiTelemetry {
                    n_ot2: m.n_ot2,
                    total_commands: m.total_commands,
                    per_handler_samples: m.per_handler_samples.clone(),
                    time_per_color: m.time_per_color,
                });
            }
        }
        s
    }

    /// Rebuild a multi-OT2 outcome from the summary (multi scenarios have
    /// no per-sample state beyond it).
    pub fn to_multi_outcome(&self) -> Option<MultiOt2Outcome> {
        let m = self.multi.as_ref()?;
        Some(MultiOt2Outcome {
            n_ot2: m.n_ot2,
            samples_measured: self.samples,
            duration: self.duration,
            robotic_commands: self.robotic_commands,
            total_commands: m.total_commands,
            best_score: self.best_score,
            per_handler_samples: m.per_handler_samples.clone(),
            plates_used: self.plates,
            time_per_color: m.time_per_color,
            solver_fallbacks: self.solver_fallbacks,
        })
    }

    fn to_value(&self) -> Value {
        let mut v = Value::map();
        v.set("best_score", self.best_score);
        v.set("duration_us", self.duration.as_micros() as i64);
        v.set("samples", self.samples);
        v.set("plates", self.plates);
        v.set("robotic_commands", self.robotic_commands as i64);
        v.set("solver_fallbacks", self.solver_fallbacks as i64);
        if let Some(t) = &self.single {
            let mut single = Value::map();
            single.set("termination", termination_to_value(&t.termination));
            single.set("twh_us", t.twh.as_micros() as i64);
            single.set("ccwh", t.ccwh as i64);
            v.set("single", single);
        }
        if let Some(m) = &self.multi {
            let mut multi = Value::map();
            multi.set("n_ot2", m.n_ot2);
            multi.set("total_commands", m.total_commands as i64);
            multi.set("per_handler", m.per_handler_samples.clone());
            multi.set("time_per_color_us", m.time_per_color.as_micros() as i64);
            v.set("multi", multi);
        }
        v
    }

    fn from_value(v: &Value) -> Result<ScenarioSummary, String> {
        let single = match v.get("single") {
            None => None,
            Some(s) => Some(SingleTelemetry {
                termination: termination_from_value(
                    s.get("termination").ok_or("single.termination missing")?,
                )?,
                twh: SimDuration::from_micros(need_u64(s, "twh_us")?),
                ccwh: need_u64(s, "ccwh")?,
            }),
        };
        let multi = match v.get("multi") {
            None => None,
            Some(m) => Some(MultiTelemetry {
                n_ot2: need_u64(m, "n_ot2")? as usize,
                total_commands: need_u64(m, "total_commands")?,
                per_handler_samples: m
                    .get("per_handler")
                    .and_then(Value::as_seq)
                    .ok_or("multi.per_handler missing")?
                    .iter()
                    .map(|x| need_u32(Some(x), "per_handler entry"))
                    .collect::<Result<Vec<u32>, _>>()?,
                time_per_color: SimDuration::from_micros(need_u64(m, "time_per_color_us")?),
            }),
        };
        Ok(ScenarioSummary {
            best_score: need_f64(v, "best_score")?,
            duration: SimDuration::from_micros(need_u64(v, "duration_us")?),
            samples: need_u32(v.get("samples"), "samples")?,
            plates: need_u32(v.get("plates"), "plates")?,
            robotic_commands: need_u64(v, "robotic_commands")?,
            solver_fallbacks: need_u64(v, "solver_fallbacks")?,
            single,
            multi,
        })
    }
}

fn termination_to_value(t: &TerminationReason) -> Value {
    let mut v = Value::map();
    match t {
        TerminationReason::BudgetExhausted => {
            v.set("kind", "budget");
        }
        TerminationReason::TargetMatched { score } => {
            v.set("kind", "matched");
            v.set("score", *score);
        }
        TerminationReason::OutOfPlates => {
            v.set("kind", "plates");
        }
    }
    v
}

fn termination_from_value(v: &Value) -> Result<TerminationReason, String> {
    match v.opt_str("kind") {
        Some("budget") => Ok(TerminationReason::BudgetExhausted),
        Some("matched") => Ok(TerminationReason::TargetMatched { score: need_f64(v, "score")? }),
        Some("plates") => Ok(TerminationReason::OutOfPlates),
        other => Err(format!("unknown termination kind {other:?}")),
    }
}

/// One campaign state transition. Field names match the JSONL keys.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// The campaign started; embeds every scenario spec so a log is a
    /// self-contained resume artifact.
    CampaignOpened {
        /// Campaign name.
        campaign: String,
        /// `"runner"` (thread pool) or `"scheduler"` (distributed).
        executor: String,
        /// Remote worker addresses (empty for the runner).
        workers: Vec<String>,
        /// `ScenarioSpec::to_value` for every scenario, input order.
        specs: Vec<Value>,
    },
    /// A worker claimed a scenario off the queue.
    ScenarioClaimed {
        /// Scenario input-order index.
        index: usize,
        /// Claiming worker's identity (URL or `local-N`).
        worker: String,
        /// `own` / `retry` / `stolen` / `local` / `fallback`.
        claim: String,
        /// Scenarios still queued after this claim.
        queue_depth: usize,
    },
    /// Scenario execution began.
    ScenarioStarted {
        /// Scenario input-order index.
        index: usize,
        /// Scenario label.
        label: String,
        /// 0 for the first execution; retries and resumes increment.
        attempt: u32,
        /// Executing worker's identity.
        worker: String,
    },
    /// The solver proposed a batch (appended before the lab acts on it).
    BatchAsked {
        /// Scenario input-order index.
        index: usize,
        /// Execution attempt.
        attempt: u32,
        /// 1-based iteration number.
        run: u32,
        /// Proposals in the batch.
        size: usize,
        /// Wall time the solver spent proposing, microseconds.
        propose_us: u64,
    },
    /// A batch's measurements came back (appended before grading).
    BatchTold {
        /// Scenario input-order index.
        index: usize,
        /// Execution attempt.
        attempt: u32,
        /// 1-based iteration number.
        run: u32,
        /// Measurements in the batch.
        size: usize,
        /// Virtual clock at measurement, microseconds.
        elapsed_us: u64,
        /// Virtual wall time the batch spent in the lab, microseconds.
        batch_wall_us: u64,
    },
    /// One graded sample, with everything replay verification needs.
    SamplePublished {
        /// Scenario input-order index.
        index: usize,
        /// Execution attempt.
        attempt: u32,
        /// 1-based iteration number.
        run: u32,
        /// Global 1-based sample number within the scenario.
        sample: u32,
        /// Well the sample was mixed in.
        well: String,
        /// Proposed dye ratios (bit-exact).
        ratios: Vec<f64>,
        /// Measured RGB.
        measured: [u8; 3],
        /// This sample's score.
        score: f64,
        /// Best score so far.
        best: f64,
        /// Virtual clock at measurement, microseconds.
        elapsed_us: u64,
        /// Virtual wall time of the enclosing batch, microseconds.
        batch_wall_us: u64,
    },
    /// A scenario completed; `summary` is authoritative for resume.
    ScenarioFinished {
        /// Scenario input-order index.
        index: usize,
        /// Scenario label.
        label: String,
        /// Execution attempt that completed.
        attempt: u32,
        /// Executing worker's identity.
        worker: String,
        /// Close telemetry.
        summary: ScenarioSummary,
    },
    /// A scenario failed for a non-transport reason.
    ScenarioFailed {
        /// Scenario input-order index.
        index: usize,
        /// Scenario label.
        label: String,
        /// Execution attempt that failed.
        attempt: u32,
        /// Executing worker's identity.
        worker: String,
        /// The error's display form (restored verbatim on resume).
        error: String,
    },
    /// A worker became unreachable; its in-flight scenario was requeued.
    WorkerEvicted {
        /// The evicted worker.
        worker: String,
        /// Index of the scenario returned to the queue.
        requeued: usize,
    },
    /// A previously evicted worker answered its health probe again.
    WorkerReadmitted {
        /// The readmitted worker.
        worker: String,
    },
    /// A scenario was stolen from a slower worker's queue.
    WorkerStolenFrom {
        /// The worker the scenario was dealt to.
        victim: String,
        /// The worker that took it.
        thief: String,
        /// The stolen scenario's index.
        index: usize,
    },
    /// A resume took over this log: `replayed` scenarios were restored
    /// from the log, `redriven` will re-execute below.
    CampaignResumed {
        /// Scenarios restored without re-execution.
        replayed: usize,
        /// Scenarios re-driven live.
        redriven: usize,
    },
    /// Terminal event: the campaign is over and the log is complete.
    CampaignClosed {
        /// Total scenarios.
        scenarios: usize,
        /// Scenarios that failed.
        failed: usize,
        /// Best score across successful scenarios.
        best_score: Option<f64>,
        /// Scheduler report (`SchedulerReport::to_value`) for distributed
        /// campaigns, including phase timings.
        scheduler: Option<Value>,
    },
}

impl CampaignEvent {
    /// The event's kind tag as written to the log.
    pub fn kind(&self) -> &'static str {
        match self {
            CampaignEvent::CampaignOpened { .. } => "campaign_opened",
            CampaignEvent::ScenarioClaimed { .. } => "scenario_claimed",
            CampaignEvent::ScenarioStarted { .. } => "scenario_started",
            CampaignEvent::BatchAsked { .. } => "batch_asked",
            CampaignEvent::BatchTold { .. } => "batch_told",
            CampaignEvent::SamplePublished { .. } => "sample_published",
            CampaignEvent::ScenarioFinished { .. } => "scenario_finished",
            CampaignEvent::ScenarioFailed { .. } => "scenario_failed",
            CampaignEvent::WorkerEvicted { .. } => "worker_evicted",
            CampaignEvent::WorkerReadmitted { .. } => "worker_readmitted",
            CampaignEvent::WorkerStolenFrom { .. } => "worker_stolen_from",
            CampaignEvent::CampaignResumed { .. } => "campaign_resumed",
            CampaignEvent::CampaignClosed { .. } => "campaign_closed",
        }
    }

    /// The portal record of a `sample_published` event in a scenario run
    /// under `config` (`None` for every other kind). The config supplies
    /// the experiment id, the sample's target (`target_at(sample − 1)`) and
    /// the dyes that turn ratios into volumes. The batch's `timing` log and
    /// `image_ref` are not in the event; the publisher adds them.
    pub fn sample_record(&self, config: &AppConfig) -> Option<SampleRecord> {
        let CampaignEvent::SamplePublished {
            run,
            sample,
            well,
            ratios,
            measured,
            score,
            best,
            elapsed_us,
            batch_wall_us,
            ..
        } = self
        else {
            return None;
        };
        Some(SampleRecord {
            experiment_id: config.experiment_id(),
            run: *run,
            sample: *sample,
            well: well.clone(),
            ratios: ratios.clone(),
            volumes_ul: sdl_color::Recipe::from_ratios(ratios, &config.dyes)
                .map(|r| r.volumes_ul().to_vec())
                .unwrap_or_default(),
            measured: *measured,
            target: config.target_at(sample.saturating_sub(1)).channels(),
            score: *score,
            best_so_far: *best,
            elapsed_s: *elapsed_us as f64 / 1e6,
            batch_wall_s: Some(*batch_wall_us as f64 / 1e6),
            image_ref: None,
        })
    }

    /// True for events that force an immediate fsync: losing them would
    /// cost a resume more than re-running a batch.
    fn is_boundary(&self) -> bool {
        matches!(
            self,
            CampaignEvent::CampaignOpened { .. }
                | CampaignEvent::ScenarioFinished { .. }
                | CampaignEvent::ScenarioFailed { .. }
                | CampaignEvent::WorkerEvicted { .. }
                | CampaignEvent::CampaignResumed { .. }
                | CampaignEvent::CampaignClosed { .. }
        )
    }

    /// Encode as an `sdl-conf` value tree (the `event` key leads).
    pub fn to_value(&self) -> Value {
        let mut v = Value::map();
        v.set("event", self.kind());
        match self {
            CampaignEvent::CampaignOpened { campaign, executor, workers, specs } => {
                v.set("campaign", campaign.as_str());
                v.set("executor", executor.as_str());
                v.set("workers", workers.clone());
                v.set("specs", Value::Seq(specs.clone()));
            }
            CampaignEvent::ScenarioClaimed { index, worker, claim, queue_depth } => {
                v.set("index", *index);
                v.set("worker", worker.as_str());
                v.set("claim", claim.as_str());
                v.set("queue_depth", *queue_depth);
            }
            CampaignEvent::ScenarioStarted { index, label, attempt, worker } => {
                v.set("index", *index);
                v.set("label", label.as_str());
                v.set("attempt", *attempt);
                v.set("worker", worker.as_str());
            }
            CampaignEvent::BatchAsked { index, attempt, run, size, propose_us } => {
                v.set("index", *index);
                v.set("attempt", *attempt);
                v.set("run", *run);
                v.set("size", *size);
                v.set("propose_us", *propose_us as i64);
            }
            CampaignEvent::BatchTold { index, attempt, run, size, elapsed_us, batch_wall_us } => {
                v.set("index", *index);
                v.set("attempt", *attempt);
                v.set("run", *run);
                v.set("size", *size);
                v.set("elapsed_us", *elapsed_us as i64);
                v.set("batch_wall_us", *batch_wall_us as i64);
            }
            CampaignEvent::SamplePublished {
                index,
                attempt,
                run,
                sample,
                well,
                ratios,
                measured,
                score,
                best,
                elapsed_us,
                batch_wall_us,
            } => {
                v.set("index", *index);
                v.set("attempt", *attempt);
                v.set("run", *run);
                v.set("sample", *sample);
                v.set("well", well.as_str());
                v.set("ratios", ratios.clone());
                v.set("measured", measured.iter().map(|c| *c as i64).collect::<Vec<i64>>());
                v.set("score", *score);
                v.set("best", *best);
                v.set("elapsed_us", *elapsed_us as i64);
                v.set("batch_wall_us", *batch_wall_us as i64);
            }
            CampaignEvent::ScenarioFinished { index, label, attempt, worker, summary } => {
                v.set("index", *index);
                v.set("label", label.as_str());
                v.set("attempt", *attempt);
                v.set("worker", worker.as_str());
                v.set("summary", summary.to_value());
            }
            CampaignEvent::ScenarioFailed { index, label, attempt, worker, error } => {
                v.set("index", *index);
                v.set("label", label.as_str());
                v.set("attempt", *attempt);
                v.set("worker", worker.as_str());
                v.set("error", error.as_str());
            }
            CampaignEvent::WorkerEvicted { worker, requeued } => {
                v.set("worker", worker.as_str());
                v.set("requeued", *requeued);
            }
            CampaignEvent::WorkerReadmitted { worker } => {
                v.set("worker", worker.as_str());
            }
            CampaignEvent::WorkerStolenFrom { victim, thief, index } => {
                v.set("victim", victim.as_str());
                v.set("thief", thief.as_str());
                v.set("index", *index);
            }
            CampaignEvent::CampaignResumed { replayed, redriven } => {
                v.set("replayed", *replayed);
                v.set("redriven", *redriven);
            }
            CampaignEvent::CampaignClosed { scenarios, failed, best_score, scheduler } => {
                v.set("scenarios", *scenarios);
                v.set("failed", *failed);
                if let Some(b) = best_score {
                    v.set("best_score", *b);
                }
                if let Some(s) = scheduler {
                    v.set("scheduler", s.clone());
                }
            }
        }
        v
    }

    /// Decode from the `sdl-conf` form.
    pub fn from_value(v: &Value) -> Result<CampaignEvent, String> {
        let kind = v.opt_str("event").ok_or("missing event kind")?;
        Ok(match kind {
            "campaign_opened" => CampaignEvent::CampaignOpened {
                campaign: need_str(v, "campaign")?,
                executor: need_str(v, "executor")?,
                workers: v
                    .get("workers")
                    .and_then(Value::as_seq)
                    .ok_or("workers missing")?
                    .iter()
                    .map(|w| w.as_str().map(str::to_string).ok_or("workers entry"))
                    .collect::<Result<Vec<String>, _>>()?,
                specs: v.get("specs").and_then(Value::as_seq).ok_or("specs missing")?.to_vec(),
            },
            "scenario_claimed" => CampaignEvent::ScenarioClaimed {
                index: need_u64(v, "index")? as usize,
                worker: need_str(v, "worker")?,
                claim: need_str(v, "claim")?,
                queue_depth: need_u64(v, "queue_depth")? as usize,
            },
            "scenario_started" => CampaignEvent::ScenarioStarted {
                index: need_u64(v, "index")? as usize,
                label: need_str(v, "label")?,
                attempt: need_u32(v.get("attempt"), "attempt")?,
                worker: need_str(v, "worker")?,
            },
            "batch_asked" => CampaignEvent::BatchAsked {
                index: need_u64(v, "index")? as usize,
                attempt: need_u32(v.get("attempt"), "attempt")?,
                run: need_u32(v.get("run"), "run")?,
                size: need_u64(v, "size")? as usize,
                propose_us: need_u64(v, "propose_us")?,
            },
            "batch_told" => CampaignEvent::BatchTold {
                index: need_u64(v, "index")? as usize,
                attempt: need_u32(v.get("attempt"), "attempt")?,
                run: need_u32(v.get("run"), "run")?,
                size: need_u64(v, "size")? as usize,
                elapsed_us: need_u64(v, "elapsed_us")?,
                batch_wall_us: need_u64(v, "batch_wall_us")?,
            },
            "sample_published" => {
                let measured = v.get("measured").ok_or("measured missing")?;
                let measured = parse_rgb_triple(measured, "measured").map_err(|e| e.0)?;
                CampaignEvent::SamplePublished {
                    index: need_u64(v, "index")? as usize,
                    attempt: need_u32(v.get("attempt"), "attempt")?,
                    run: need_u32(v.get("run"), "run")?,
                    sample: need_u32(v.get("sample"), "sample")?,
                    well: need_str(v, "well")?,
                    ratios: v
                        .get("ratios")
                        .and_then(Value::as_seq)
                        .ok_or("ratios missing")?
                        .iter()
                        .map(|r| r.as_f64().ok_or("ratios entry"))
                        .collect::<Result<Vec<f64>, _>>()?,
                    measured: measured.channels(),
                    score: need_f64(v, "score")?,
                    best: need_f64(v, "best")?,
                    elapsed_us: need_u64(v, "elapsed_us")?,
                    batch_wall_us: need_u64(v, "batch_wall_us")?,
                }
            }
            "scenario_finished" => CampaignEvent::ScenarioFinished {
                index: need_u64(v, "index")? as usize,
                label: need_str(v, "label")?,
                attempt: need_u32(v.get("attempt"), "attempt")?,
                worker: need_str(v, "worker")?,
                summary: ScenarioSummary::from_value(v.get("summary").ok_or("summary missing")?)?,
            },
            "scenario_failed" => CampaignEvent::ScenarioFailed {
                index: need_u64(v, "index")? as usize,
                label: need_str(v, "label")?,
                attempt: need_u32(v.get("attempt"), "attempt")?,
                worker: need_str(v, "worker")?,
                error: need_str(v, "error")?,
            },
            "worker_evicted" => CampaignEvent::WorkerEvicted {
                worker: need_str(v, "worker")?,
                requeued: need_u64(v, "requeued")? as usize,
            },
            "worker_readmitted" => {
                CampaignEvent::WorkerReadmitted { worker: need_str(v, "worker")? }
            }
            "worker_stolen_from" => CampaignEvent::WorkerStolenFrom {
                victim: need_str(v, "victim")?,
                thief: need_str(v, "thief")?,
                index: need_u64(v, "index")? as usize,
            },
            "campaign_resumed" => CampaignEvent::CampaignResumed {
                replayed: need_u64(v, "replayed")? as usize,
                redriven: need_u64(v, "redriven")? as usize,
            },
            "campaign_closed" => CampaignEvent::CampaignClosed {
                scenarios: need_u64(v, "scenarios")? as usize,
                failed: need_u64(v, "failed")? as usize,
                best_score: v.opt_f64("best_score"),
                scheduler: v.get("scheduler").cloned(),
            },
            other => return Err(format!("unknown event kind '{other}'")),
        })
    }
}

fn need_str(v: &Value, key: &str) -> Result<String, String> {
    v.opt_str(key).map(str::to_string).ok_or_else(|| format!("{key} missing"))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.opt_i64(key)
        .filter(|i| *i >= 0)
        .map(|i| i as u64)
        .ok_or_else(|| format!("{key} missing or negative"))
}

fn need_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.opt_f64(key).ok_or_else(|| format!("{key} missing"))
}

/// One verified line of the log: sequence number plus decoded event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// 1-based position in the log.
    pub seq: u64,
    /// The decoded event.
    pub event: CampaignEvent,
}

impl EventRecord {
    /// Parse and verify one JSONL line (seq + checksum).
    pub fn from_line(line: &str) -> Result<EventRecord, String> {
        let v = from_json(line).map_err(|e| format!("bad json: {e}"))?;
        let seq = need_u64(&v, "seq")?;
        let crc = need_str(&v, "crc")?;
        let body = match &v {
            Value::Map(entries) => Value::Map(
                entries.iter().filter(|(k, _)| k != "seq" && k != "crc").cloned().collect(),
            ),
            _ => return Err("event line is not an object".into()),
        };
        let expect = format!("{:016x}", fnv1a64(to_json(&body).as_bytes()));
        if expect != crc {
            return Err(format!("checksum mismatch at seq {seq}"));
        }
        Ok(EventRecord { seq, event: CampaignEvent::from_value(&body)? })
    }
}

/// FNV-1a 64-bit, the log's line checksum (chaos also folds worker URLs
/// into stream keys with it).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How a recovery scan ended.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Verified events accepted.
    pub events: usize,
    /// Bytes of the file covered by accepted lines (a resume truncates
    /// the file to this length before appending).
    pub valid_bytes: u64,
    /// Why the scan stopped early, if it did.
    pub torn: Option<String>,
}

struct LogState {
    /// Serialized lines (no trailing newline); `lines[i]` has seq `i + 1`.
    lines: Vec<String>,
    file: Option<BufWriter<File>>,
    unsynced: u32,
    closed: bool,
}

/// The durable, append-only campaign event log.
///
/// Thread-safe: campaign workers append concurrently; HTTP handlers and
/// the dashboard tail it with [`EventLog::wait_from`].
pub struct EventLog {
    state: Mutex<LogState>,
    grew: Condvar,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock().unwrap();
        f.debug_struct("EventLog")
            .field("head", &(s.lines.len() as u64))
            .field("durable", &s.file.is_some())
            .field("closed", &s.closed)
            .finish()
    }
}

impl EventLog {
    /// An in-memory log (no file backing) — used by `serve --campaign`
    /// when no `--event-log` path is given, so `/events` always works.
    pub fn in_memory() -> EventLog {
        EventLog {
            state: Mutex::new(LogState {
                lines: Vec::new(),
                file: None,
                unsynced: 0,
                closed: false,
            }),
            grew: Condvar::new(),
        }
    }

    /// Create (or truncate) a durable log at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<EventLog, AppError> {
        let file = File::create(path.as_ref())
            .map_err(|e| AppError::Setup(format!("event log {}: {e}", path.as_ref().display())))?;
        Ok(EventLog {
            state: Mutex::new(LogState {
                lines: Vec::new(),
                file: Some(BufWriter::new(file)),
                unsynced: 0,
                closed: false,
            }),
            grew: Condvar::new(),
        })
    }

    /// Scan a log file, verifying newline termination, UTF-8 validity, seq
    /// contiguity and checksums; returns the accepted events and where the
    /// scan stopped. The scan is byte-based so corruption anywhere — even
    /// a bit flip that produces invalid UTF-8 — truncates to the clean
    /// prefix instead of failing the whole read.
    pub fn read(path: impl AsRef<Path>) -> Result<(Vec<EventRecord>, RecoveryReport), AppError> {
        let path = path.as_ref();
        let mut raw = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut raw))
            .map_err(|e| AppError::Setup(format!("event log {}: {e}", path.display())))?;
        let mut events = Vec::new();
        let mut report = RecoveryReport { events: 0, valid_bytes: 0, torn: None };
        let mut rest = raw.as_slice();
        while !rest.is_empty() {
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                report.torn = Some("unterminated final line".into());
                break;
            };
            let line = match std::str::from_utf8(&rest[..nl]) {
                Ok(line) => line,
                Err(_) => {
                    report.torn = Some("invalid UTF-8 line".into());
                    break;
                }
            };
            match EventRecord::from_line(line) {
                Ok(rec) if rec.seq == events.len() as u64 + 1 => {
                    events.push(rec);
                    report.valid_bytes += nl as u64 + 1;
                }
                Ok(rec) => {
                    report.torn =
                        Some(format!("seq {} where {} expected", rec.seq, events.len() + 1));
                    break;
                }
                Err(e) => {
                    report.torn = Some(e);
                    break;
                }
            }
            rest = &rest[nl + 1..];
        }
        report.events = events.len();
        Ok((events, report))
    }

    /// Recover a log for appending: scan, truncate any torn tail, and
    /// reopen positioned after the last verified line. Returns the log,
    /// the verified prefix, and the scan report.
    pub fn recover(
        path: impl AsRef<Path>,
    ) -> Result<(EventLog, Vec<EventRecord>, RecoveryReport), AppError> {
        let path = path.as_ref();
        let (events, report) = EventLog::read(path)?;
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| AppError::Setup(format!("event log {}: {e}", path.display())))?;
        file.set_len(report.valid_bytes)
            .and_then(|_| file.seek(SeekFrom::End(0)))
            .map_err(|e| AppError::Setup(format!("event log {}: {e}", path.display())))?;
        let closed =
            matches!(events.last().map(|r| &r.event), Some(CampaignEvent::CampaignClosed { .. }));
        let lines = events.iter().map(|r| to_line(&r.event, r.seq)).collect();
        let log = EventLog {
            state: Mutex::new(LogState {
                lines,
                file: Some(BufWriter::new(file)),
                unsynced: 0,
                closed,
            }),
            grew: Condvar::new(),
        };
        Ok((log, events, report))
    }

    /// Append one event; returns its sequence number. The line reaches the
    /// OS before this returns; fsync happens at least every
    /// `FSYNC_BATCH` (64) appends and immediately at boundary events.
    pub fn append(&self, event: &CampaignEvent) -> u64 {
        let mut s = self.state.lock().unwrap();
        let seq = s.lines.len() as u64 + 1;
        let line = to_line(event, seq);
        if let Some(w) = s.file.as_mut() {
            // Ignore write errors past creation: observability must never
            // sink the campaign itself.
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
            s.unsynced += 1;
            if event.is_boundary() || s.unsynced >= FSYNC_BATCH {
                if let Some(w) = s.file.as_mut() {
                    let _ = w.get_ref().sync_all();
                }
                s.unsynced = 0;
            }
        }
        s.lines.push(line);
        if matches!(event, CampaignEvent::CampaignClosed { .. }) {
            s.closed = true;
        }
        drop(s);
        self.grew.notify_all();
        seq
    }

    /// Force an fsync now.
    pub fn sync(&self) {
        let mut s = self.state.lock().unwrap();
        if let Some(w) = s.file.as_mut() {
            let _ = w.flush();
            let _ = w.get_ref().sync_all();
        }
        s.unsynced = 0;
    }

    /// The highest sequence number appended so far.
    pub fn head(&self) -> u64 {
        self.state.lock().unwrap().lines.len() as u64
    }

    /// True once the terminal `campaign_closed` event was appended.
    pub fn closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }

    /// Lines with `seq >= from` (at most `limit`), plus the current head
    /// and closed flag.
    pub fn lines_from(&self, from: u64, limit: usize) -> (Vec<(u64, String)>, u64, bool) {
        let s = self.state.lock().unwrap();
        let head = s.lines.len() as u64;
        let start = from.max(1) - 1;
        let out = s
            .lines
            .iter()
            .enumerate()
            .skip(start as usize)
            .take(limit)
            .map(|(i, l)| (i as u64 + 1, l.clone()))
            .collect();
        (out, head, s.closed)
    }

    /// Like [`EventLog::lines_from`], but blocks up to `timeout` for the
    /// log to grow past `from - 1` (long-poll primitive).
    pub fn wait_from(
        &self,
        from: u64,
        limit: usize,
        timeout: Duration,
    ) -> (Vec<(u64, String)>, u64, bool) {
        let deadline = std::time::Instant::now() + timeout;
        let mut s = self.state.lock().unwrap();
        loop {
            if s.lines.len() as u64 >= from.max(1) || s.closed {
                break;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            let (next, timed_out) = self.grew.wait_timeout(s, deadline - now).unwrap();
            s = next;
            if timed_out.timed_out() {
                break;
            }
        }
        let head = s.lines.len() as u64;
        let start = (from.max(1) - 1) as usize;
        let out = s
            .lines
            .iter()
            .enumerate()
            .skip(start)
            .take(limit)
            .map(|(i, l)| (i as u64 + 1, l.clone()))
            .collect();
        (out, head, s.closed)
    }
}

/// Serialize an event with its envelope (no trailing newline).
fn to_line(event: &CampaignEvent, seq: u64) -> String {
    let mut v = event.to_value();
    let crc = fnv1a64(to_json(&v).as_bytes());
    v.set("seq", seq as i64);
    v.set("crc", format!("{crc:016x}"));
    to_json(&v)
}

/// A per-scenario handle workers hand to [`Experiment`](crate::Experiment)
/// so ask/tell emit into the campaign log with the right coordinates.
#[derive(Debug, Clone)]
pub struct EventScope {
    log: Arc<EventLog>,
    /// Scenario input-order index.
    pub index: usize,
    /// Execution attempt (0 first; retries and resumes increment).
    pub attempt: u32,
}

impl EventScope {
    /// Bind a log to one scenario execution.
    pub fn new(log: Arc<EventLog>, index: usize, attempt: u32) -> EventScope {
        EventScope { log, index, attempt }
    }

    /// Append one event.
    pub fn emit(&self, event: &CampaignEvent) -> u64 {
        self.log.append(event)
    }

    /// The underlying log.
    pub fn log(&self) -> &Arc<EventLog> {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<CampaignEvent> {
        vec![
            CampaignEvent::CampaignOpened {
                campaign: "t".into(),
                executor: "runner".into(),
                workers: vec![],
                specs: vec![],
            },
            CampaignEvent::ScenarioClaimed {
                index: 0,
                worker: "local-0".into(),
                claim: "own".into(),
                queue_depth: 1,
            },
            CampaignEvent::ScenarioStarted {
                index: 0,
                label: "a".into(),
                attempt: 0,
                worker: "local-0".into(),
            },
            CampaignEvent::BatchAsked { index: 0, attempt: 0, run: 1, size: 2, propose_us: 41 },
            CampaignEvent::SamplePublished {
                index: 0,
                attempt: 0,
                run: 1,
                sample: 1,
                well: "A1".into(),
                ratios: vec![0.25, 0.5, 0.125, 0.125],
                measured: [10, 200, 31],
                score: 12.75,
                best: 12.75,
                elapsed_us: 90_000_000,
                batch_wall_us: 45_000_000,
            },
            CampaignEvent::BatchTold {
                index: 0,
                attempt: 0,
                run: 1,
                size: 2,
                elapsed_us: 90_000_000,
                batch_wall_us: 45_000_000,
            },
            CampaignEvent::ScenarioFinished {
                index: 0,
                label: "a".into(),
                attempt: 0,
                worker: "local-0".into(),
                summary: ScenarioSummary {
                    best_score: 3.5,
                    duration: SimDuration::from_micros(123_456_789),
                    samples: 8,
                    plates: 1,
                    robotic_commands: 99,
                    solver_fallbacks: 0,
                    single: Some(SingleTelemetry {
                        termination: TerminationReason::TargetMatched { score: 3.5 },
                        twh: SimDuration::from_micros(1_000_001),
                        ccwh: 42,
                    }),
                    multi: None,
                },
            },
            CampaignEvent::ScenarioFailed {
                index: 1,
                label: "b".into(),
                attempt: 2,
                worker: "local-1".into(),
                error: "backend error: boom".into(),
            },
            CampaignEvent::WorkerEvicted { worker: "w:1".into(), requeued: 3 },
            CampaignEvent::WorkerReadmitted { worker: "w:1".into() },
            CampaignEvent::WorkerStolenFrom { victim: "w:1".into(), thief: "w:2".into(), index: 4 },
            CampaignEvent::CampaignResumed { replayed: 2, redriven: 3 },
            CampaignEvent::CampaignClosed {
                scenarios: 5,
                failed: 1,
                best_score: Some(3.5),
                scheduler: None,
            },
        ]
    }

    #[test]
    fn every_event_roundtrips_through_value_and_line() {
        for (i, e) in sample_events().iter().enumerate() {
            let back = CampaignEvent::from_value(&e.to_value())
                .unwrap_or_else(|err| panic!("event {i}: {err}"));
            assert_eq!(&back, e, "event {i}");
            let rec = EventRecord::from_line(&to_line(e, 7)).unwrap();
            assert_eq!(rec.seq, 7);
            assert_eq!(&rec.event, e);
        }
    }

    #[test]
    fn out_of_range_counts_and_channels_are_refused_not_wrapped() {
        let published = sample_events()
            .into_iter()
            .find(|e| matches!(e, CampaignEvent::SamplePublished { .. }))
            .unwrap()
            .to_value();
        let with = |key: &str, value: Value| {
            let mut v = published.clone();
            v.set(key, value);
            v
        };
        assert!(CampaignEvent::from_value(&with("sample", Value::Int(u32::MAX as i64))).is_ok());
        for (key, n) in [("attempt", 1i64 << 32), ("run", (1 << 32) + 1), ("sample", (1 << 32) + 2)]
        {
            assert!(CampaignEvent::from_value(&with(key, Value::Int(n))).is_err(), "{key} {n}");
        }
        for measured in [vec![300, -1, 256], vec![300, 0, 0], vec![0, -1, 0], vec![0, 0, 256]] {
            let v = with("measured", Value::from(measured.clone()));
            assert!(CampaignEvent::from_value(&v).is_err(), "measured {measured:?}");
        }

        // A checksummed log line holding such an event is undecodable, so
        // `EventLog::read` stops there.
        let mut line = with("attempt", Value::Int(1 << 32));
        let crc = fnv1a64(to_json(&line).as_bytes());
        line.set("seq", 1i64);
        line.set("crc", format!("{crc:016x}"));
        assert!(EventRecord::from_line(&to_json(&line)).is_err());

        let summary = ScenarioSummary {
            best_score: 1.0,
            duration: SimDuration::from_micros(5),
            samples: 4,
            plates: 1,
            robotic_commands: 9,
            solver_fallbacks: 0,
            single: None,
            multi: Some(MultiTelemetry {
                n_ot2: 2,
                total_commands: 12,
                per_handler_samples: vec![2, 2],
                time_per_color: SimDuration::from_micros(1),
            }),
        }
        .to_value();
        for key in ["samples", "plates"] {
            let mut v = summary.clone();
            v.set(key, (1i64 << 32) + 4);
            assert!(ScenarioSummary::from_value(&v).is_err(), "{key}");
        }
        let mut multi = summary.get("multi").unwrap().clone();
        multi.set("per_handler", Value::from(vec![2i64, (1 << 32) + 2]));
        let mut v = summary;
        v.set("multi", multi);
        assert!(ScenarioSummary::from_value(&v).is_err(), "per_handler");
    }

    #[test]
    fn multi_summary_roundtrips_to_outcome() {
        let summary = ScenarioSummary {
            best_score: 9.25,
            duration: SimDuration::from_micros(777),
            samples: 12,
            plates: 2,
            robotic_commands: 30,
            solver_fallbacks: 1,
            single: None,
            multi: Some(MultiTelemetry {
                n_ot2: 3,
                total_commands: 40,
                per_handler_samples: vec![4, 4, 4],
                time_per_color: SimDuration::from_micros(64),
            }),
        };
        let back = ScenarioSummary::from_value(&summary.to_value()).unwrap();
        assert_eq!(back, summary);
        let out = back.to_multi_outcome().unwrap();
        assert_eq!(out.n_ot2, 3);
        assert_eq!(out.best_score, 9.25);
        assert_eq!(out.per_handler_samples, vec![4, 4, 4]);
    }

    #[test]
    fn score_bits_survive_the_line_format() {
        // Scores travel as JSON floats; the fingerprint compares IEEE bit
        // patterns, so the round trip must be bit-exact even for awkward
        // values.
        for raw in [0.1f64 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 255.0000000001] {
            let e = CampaignEvent::SamplePublished {
                index: 0,
                attempt: 0,
                run: 1,
                sample: 1,
                well: "A1".into(),
                ratios: vec![raw],
                measured: [0, 0, 0],
                score: raw,
                best: raw,
                elapsed_us: 1,
                batch_wall_us: 1,
            };
            match EventRecord::from_line(&to_line(&e, 1)).unwrap().event {
                CampaignEvent::SamplePublished { score, best, ratios, .. } => {
                    assert_eq!(score.to_bits(), raw.to_bits());
                    assert_eq!(best.to_bits(), raw.to_bits());
                    assert_eq!(ratios[0].to_bits(), raw.to_bits());
                }
                other => panic!("wrong event {other:?}"),
            }
        }
    }

    #[test]
    fn only_sample_events_project_onto_records_with_their_own_target() {
        let config = AppConfig {
            sample_budget: 5,
            target_to: Some(sdl_color::Rgb8::new(220, 220, 220)),
            ..AppConfig::default()
        };
        let ratios = vec![0.25, 0.5, 0.0, 1.0];
        let volumes = sdl_color::Recipe::from_ratios(&ratios, &config.dyes).unwrap();
        // The session clock's own conversion to seconds.
        let secs = |us| sdl_desim::SimDuration::from_micros(us).as_secs_f64().to_bits();
        for (sample, us) in [(1u32, 1u64), (3, 123_456_789), (5, u64::MAX / 3)] {
            let e = CampaignEvent::SamplePublished {
                index: 2,
                attempt: 1,
                run: 1,
                sample,
                well: "B7".into(),
                ratios: ratios.clone(),
                measured: [9, 8, 7],
                score: 1.5,
                best: 1.25,
                elapsed_us: us,
                batch_wall_us: us / 7,
            };
            let r = e.sample_record(&config).expect("a sample event projects");
            assert_eq!(r.target, config.target_at(sample - 1).channels());
            assert_eq!(r.volumes_ul, volumes.volumes_ul());
            assert_eq!(r.elapsed_s.to_bits(), secs(us));
            assert_eq!(r.batch_wall_s.map(f64::to_bits), Some(secs(us / 7)));
        }
        for e in sample_events() {
            assert_eq!(e.sample_record(&config).is_some(), e.kind() == "sample_published");
        }
    }

    #[test]
    fn log_appends_and_tails() {
        let log = EventLog::in_memory();
        for e in sample_events() {
            log.append(&e);
        }
        assert_eq!(log.head(), sample_events().len() as u64);
        assert!(log.closed());
        let (lines, head, closed) = log.lines_from(1, 1000);
        assert_eq!(head, log.head());
        assert!(closed);
        assert_eq!(lines.len(), sample_events().len());
        assert_eq!(lines[0].0, 1);
        // Pagination.
        let (page, _, _) = log.lines_from(3, 2);
        assert_eq!(page.iter().map(|(s, _)| *s).collect::<Vec<u64>>(), vec![3, 4]);
        // Past the head: empty, immediate (log is closed).
        let (tail, _, _) = log.wait_from(head + 1, 10, Duration::from_millis(1));
        assert!(tail.is_empty());
    }

    #[test]
    fn wait_from_wakes_on_append() {
        let log = Arc::new(EventLog::in_memory());
        let tailer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || log.wait_from(1, 10, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(20));
        log.append(&CampaignEvent::WorkerReadmitted { worker: "w".into() });
        let (lines, head, _) = tailer.join().unwrap();
        assert_eq!(head, 1);
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn durable_log_recovers_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("sdl-evlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        {
            let log = EventLog::create(&path).unwrap();
            for e in sample_events() {
                log.append(&e);
            }
            log.sync();
        }
        let (events, report) = EventLog::read(&path).unwrap();
        assert_eq!(events.len(), sample_events().len());
        assert!(report.torn.is_none());
        assert_eq!(events.last().unwrap().event, sample_events().last().cloned().unwrap());

        // Flip one byte inside the middle of the file: the scan stops there.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        let corrupt = dir.join("corrupt.jsonl");
        std::fs::write(&corrupt, &bytes).unwrap();
        let (prefix, report) = EventLog::read(&corrupt).unwrap();
        assert!(prefix.len() < sample_events().len());
        assert!(report.torn.is_some(), "corruption went unnoticed");

        // Cut the file mid-line: the torn tail is dropped and recovery
        // resumes appending with a contiguous seq.
        let cut = bytes.len() - 7;
        std::fs::write(&corrupt, &bytes[..cut.min(mid - 1)]).unwrap();
        let (log, prefix, _) = EventLog::recover(&corrupt).unwrap();
        let next = log.append(&CampaignEvent::WorkerReadmitted { worker: "w".into() });
        assert_eq!(next, prefix.len() as u64 + 1);
        log.sync();
        let (events, report) = EventLog::read(&corrupt).unwrap();
        assert!(report.torn.is_none(), "recovered log must verify clean: {report:?}");
        assert_eq!(events.len(), prefix.len() + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_closed_log_reports_closed() {
        let dir = std::env::temp_dir().join(format!("sdl-evclosed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        {
            let log = EventLog::create(&path).unwrap();
            for e in sample_events() {
                log.append(&e);
            }
        }
        let (log, _, _) = EventLog::recover(&path).unwrap();
        assert!(log.closed());
        std::fs::remove_dir_all(&dir).ok();
    }
}
