//! The workflow engine: step dispatch, retries, fault recovery, command
//! accounting.
//!
//! "Workflow steps are translated into commands sent to computers connected
//! to devices, which then call driver functions specific to their attached
//! device" (§2.2). The engine is that translation layer, plus the
//! reliability machinery behind the paper's CCWH metric: commands can be
//! dropped at reception or fail mid-action (per the [`FaultPlan`]), are
//! retried automatically, and fall back to a simulated human operator when
//! retries are exhausted.
//!
//! [`Engine::run_workflow`] runs a workflow step by step on a [`SeqClock`].
//! The multi-OT2 flows call [`Engine::dispatch`] directly and wait out each
//! command's `busy` time on the `sdl-desim` executive, where it can overlap
//! with other flows.

use crate::error::WeiError;
use crate::runlog::{StepRecord, WorkflowRunLog};
use crate::workcell::Workcell;
use crate::workflow::{Payload, Workflow};
use rand::rngs::StdRng;
use sdl_desim::{FaultKind, FaultPlan, RngHub, SimDuration, SimTime};
use sdl_instruments::{ActionArgs, ActionData};
use std::collections::BTreeMap;

/// A free-running sequential clock: the virtual time a workflow run
/// advances step by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqClock(SimTime);

impl SeqClock {
    /// Start at t = 0.
    pub fn new() -> SeqClock {
        SeqClock(SimTime::ZERO)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.0
    }

    /// Let time pass.
    pub fn wait(&mut self, d: SimDuration) {
        self.0 += d;
    }
}

/// Retry and recovery policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Automatic attempts per command before calling a human.
    pub max_attempts: u32,
    /// Time lost when a command is dropped at reception (watchdog timeout).
    pub reception_timeout: SimDuration,
    /// Time lost when an action fails mid-execution before the retry.
    pub action_recovery: SimDuration,
    /// Time a simulated human needs to walk over and fix the module.
    pub human_delay: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            reception_timeout: SimDuration::from_secs(20),
            action_recovery: SimDuration::from_secs(30),
            human_delay: SimDuration::from_mins(5),
        }
    }
}

/// Lifetime command counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Individual dispatch attempts (including faulted ones).
    pub attempts: u64,
    /// Commands completed successfully.
    pub completed: u64,
    /// Completed commands on robotic modules (CCWH numerator).
    pub robotic_completed: u64,
    /// Injected reception drops observed.
    pub reception_faults: u64,
    /// Injected mid-action failures observed.
    pub action_faults: u64,
    /// Times the simulated human was called.
    pub human_interventions: u64,
}

/// Reliability bookkeeping for TWH / CCWH.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Reliability {
    /// Times at which a human intervened.
    pub human_times: Vec<SimTime>,
    /// Robotic commands completed since the last intervention.
    pub robotic_streak: u64,
    /// Longest robotic-command streak seen.
    pub max_robotic_streak: u64,
}

impl Reliability {
    /// Record a human intervention at `at` (finalizes the current robotic
    /// streak). Public so recorded runs can rebuild reliability accounting
    /// offline with the engine's exact bookkeeping.
    pub fn human(&mut self, at: SimTime) {
        self.human_times.push(at);
        self.max_robotic_streak = self.max_robotic_streak.max(self.robotic_streak);
        self.robotic_streak = 0;
    }

    /// Record one completed robotic command.
    pub fn robotic_ok(&mut self) {
        self.robotic_streak += 1;
        self.max_robotic_streak = self.max_robotic_streak.max(self.robotic_streak);
    }

    /// Longest stretch of the run without a human, given start and end.
    pub fn time_without_humans(&self, start: SimTime, end: SimTime) -> SimDuration {
        let mut best = SimDuration::ZERO;
        let mut prev = start;
        for &t in &self.human_times {
            best = best.max(t - prev);
            prev = t;
        }
        best.max(end - prev)
    }

    /// CCWH: the longest streak of robotic commands without intervention.
    pub fn commands_without_humans(&self) -> u64 {
        self.max_robotic_streak
    }
}

/// Result of one dispatched command.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandResult {
    /// How long the module (and any recovery) was busy.
    pub busy: SimDuration,
    /// Attempts made.
    pub attempts: u32,
    /// Whether the human had to step in.
    pub human_intervened: bool,
    /// Data returned by the action.
    pub data: ActionData,
}

/// Output of a full workflow run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Timing log (one record per step).
    pub log: WorkflowRunLog,
    /// Non-trivial data returned by steps, keyed by step name.
    pub data: Vec<(String, ActionData)>,
}

/// The engine.
pub struct Engine {
    /// The live workcell (instruments + world).
    pub workcell: Workcell,
    /// Fault injection plan.
    pub fault_plan: FaultPlan,
    /// Retry policy.
    pub retry: RetryPolicy,
    /// Lifetime counters.
    pub counters: Counters,
    /// TWH/CCWH bookkeeping.
    pub reliability: Reliability,
    /// Completed workflow logs (timings only; data is returned, not stored).
    pub history: Vec<WorkflowRunLog>,
    module_rngs: BTreeMap<String, StdRng>,
    fault_rng: StdRng,
    hub: RngHub,
}

impl Engine {
    /// Build an engine over a workcell.
    pub fn new(workcell: Workcell, hub: RngHub) -> Engine {
        Engine {
            workcell,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            counters: Counters::default(),
            reliability: Reliability::default(),
            history: Vec::new(),
            module_rngs: BTreeMap::new(),
            fault_rng: hub.stream("wei.faults"),
            hub,
        }
    }

    /// Set the fault plan (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Engine {
        self.fault_plan = plan;
        self
    }

    /// Validate that a workflow only references modules and actions this
    /// workcell provides.
    pub fn validate(&self, wf: &Workflow) -> Result<(), WeiError> {
        for m in &wf.modules {
            if !self.workcell.has_module(m) {
                return Err(WeiError::UnknownModule(m.clone()));
            }
        }
        for step in &wf.steps {
            let inst = self
                .workcell
                .instrument(&step.module)
                .ok_or_else(|| WeiError::UnknownModule(step.module.clone()))?;
            if !inst.actions().contains(&step.action.as_str()) {
                return Err(WeiError::UnsupportedAction {
                    module: step.module.clone(),
                    action: step.action.clone(),
                });
            }
        }
        Ok(())
    }

    /// Dispatch one command with retries. Does not wait: the caller advances
    /// its clock by `busy` afterwards (so a multi-OT2 flow holds the shared
    /// engine only for the dispatch, not for the busy time).
    pub fn dispatch(
        &mut self,
        now: SimTime,
        module: &str,
        action: &str,
        args: &ActionArgs,
    ) -> Result<CommandResult, WeiError> {
        if self.workcell.instrument(module).is_none() {
            return Err(WeiError::UnknownModule(module.to_string()));
        }
        let robotic =
            self.workcell.instrument(module).map(|i| i.kind().is_robotic()).unwrap_or(false);
        if !self.module_rngs.contains_key(module) {
            let stream = self.hub.stream(&format!("wei.module.{module}"));
            self.module_rngs.insert(module.to_string(), stream);
        }

        let mut busy = SimDuration::ZERO;
        let mut attempts = 0u32;
        let mut human = false;
        let mut last_err = None;

        loop {
            // A human steps in once automatic retries are exhausted.
            if attempts >= self.retry.max_attempts {
                if human {
                    // Even the human could not fix it.
                    return Err(WeiError::CommandAborted {
                        step: action.to_string(),
                        module: module.to_string(),
                        attempts,
                        cause: last_err.unwrap_or(sdl_instruments::InstrumentError::InjectedFault),
                    });
                }
                human = true;
                busy += self.retry.human_delay;
                self.counters.human_interventions += 1;
                self.reliability.human(now + busy);
                if let Some(inst) = self.workcell.instrument_mut(module) {
                    inst.reset();
                }
                attempts = 0;
            }
            attempts += 1;
            self.counters.attempts += 1;

            // Fault draw (humans supervise their attempt, so no fault then).
            let fault =
                if human { None } else { self.fault_plan.draw(module, &mut self.fault_rng) };
            match fault {
                Some(FaultKind::ReceptionDropped) => {
                    self.counters.reception_faults += 1;
                    busy += self.retry.reception_timeout;
                    last_err = Some(sdl_instruments::InstrumentError::InjectedFault);
                    continue;
                }
                Some(FaultKind::ActionFailed) => {
                    self.counters.action_faults += 1;
                    busy += self.retry.action_recovery;
                    if let Some(inst) = self.workcell.instrument_mut(module) {
                        inst.mark_error();
                        inst.reset(); // automated recovery before the retry
                    }
                    last_err = Some(sdl_instruments::InstrumentError::InjectedFault);
                    continue;
                }
                None => {}
            }

            let rng = self.module_rngs.get_mut(module).expect("inserted above");
            let (inst, world, timing) =
                self.workcell.dispatch_parts(module).expect("module checked above");
            match inst.execute(action, args, world, timing, rng) {
                Ok(outcome) => {
                    busy += outcome.duration;
                    self.counters.completed += 1;
                    if robotic {
                        self.counters.robotic_completed += 1;
                        self.reliability.robotic_ok();
                    }
                    return Ok(CommandResult {
                        busy,
                        attempts,
                        human_intervened: human,
                        data: outcome.data,
                    });
                }
                Err(e) => {
                    // Logical errors (empty towers, reused wells…) will not
                    // heal by retrying; surface them to the application.
                    return Err(WeiError::CommandAborted {
                        step: action.to_string(),
                        module: module.to_string(),
                        attempts,
                        cause: e,
                    });
                }
            }
        }
    }

    /// Write every run log in history to `dir`, one text file per workflow
    /// run ("these files are saved locally to the machine running the
    /// workflow manager", §2.3). Returns the number of files written.
    pub fn export_runlogs(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        for (i, log) in self.history.iter().enumerate() {
            let name = format!("{:04}_{}.log", i + 1, log.workflow);
            std::fs::write(dir.join(name), log.render())?;
        }
        Ok(self.history.len())
    }

    /// Run a whole workflow on the given clock, appending to history.
    pub fn run_workflow(
        &mut self,
        clock: &mut SeqClock,
        wf: &Workflow,
        payload: &Payload,
    ) -> Result<RunOutput, WeiError> {
        self.validate(wf)?;
        let start = clock.now();
        let mut records = Vec::with_capacity(wf.steps.len());
        let mut data = Vec::new();
        for step in &wf.steps {
            let args = Workflow::resolve_args(step, payload)?;
            let t0 = clock.now();
            let result = self.dispatch(t0, &step.module, &step.action, &args)?;
            clock.wait(result.busy);
            records.push(StepRecord {
                name: step.name.clone(),
                module: step.module.clone(),
                action: step.action.clone(),
                start: t0,
                end: clock.now(),
                attempts: result.attempts,
                human_intervened: result.human_intervened,
            });
            if !matches!(result.data, ActionData::None) {
                data.push((step.name.clone(), result.data));
            }
        }
        let log = WorkflowRunLog { workflow: wf.name.clone(), start, end: clock.now(), records };
        self.history.push(log.clone());
        Ok(RunOutput { log, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workcell::{Workcell, WorkcellConfig, RPL_WORKCELL_YAML};
    use sdl_color::{DyeSet, MixKind};
    use sdl_desim::FaultRates;
    use sdl_instruments::{ProtocolSpec, WellDispense, WellIndex};

    fn engine() -> Engine {
        let cfg = WorkcellConfig::from_yaml(RPL_WORKCELL_YAML).unwrap();
        let cell = Workcell::instantiate(cfg, DyeSet::cmyk(), MixKind::BeerLambert).unwrap();
        Engine::new(cell, RngHub::new(11))
    }

    fn newplate_wf() -> Workflow {
        Workflow::from_yaml(
            r#"
name: cp_wf_newplate
modules: [sciclops, pf400, barty]
steps:
  - name: Get plate
    module: sciclops
    action: get_plate
  - name: Stage at camera
    module: pf400
    action: transfer
    args: {source: sciclops.exchange, target: camera.nest}
  - name: Fill reservoirs
    module: barty
    action: fill_colors
"#,
        )
        .unwrap()
    }

    fn mix_wf() -> Workflow {
        Workflow::from_yaml(
            r#"
name: cp_wf_mixcolor
modules: [pf400, ot2, camera]
steps:
  - name: To ot2
    module: pf400
    action: transfer
    args: {source: camera.nest, target: ot2.deck}
  - name: Mix colors
    module: ot2
    action: run_protocol
    args: {protocol: $payload}
  - name: Back to camera
    module: pf400
    action: transfer
    args: {source: ot2.deck, target: camera.nest}
  - name: Take picture
    module: camera
    action: take_picture
"#,
        )
        .unwrap()
    }

    fn one_well_protocol() -> Payload {
        Payload::with_protocol(ProtocolSpec {
            name: "mix_colors".into(),
            dispenses: vec![WellDispense {
                well: WellIndex::new(0, 0),
                volumes_ul: vec![5.0, 5.0, 5.0, 20.0],
            }],
        })
    }

    #[test]
    fn full_iteration_advances_clock_and_counts() {
        let mut e = engine();
        let mut clock = SeqClock::new();
        e.run_workflow(&mut clock, &newplate_wf(), &Payload::none()).unwrap();
        let out = e.run_workflow(&mut clock, &mix_wf(), &one_well_protocol()).unwrap();

        // The mix iteration should take ~228 s (Table 1 calibration).
        let d = out.log.duration().as_secs_f64();
        assert!((d - 228.0).abs() < 12.0, "iteration took {d}");
        // Camera image came back.
        assert_eq!(out.data.len(), 1);
        assert!(matches!(out.data[0].1, ActionData::Image(_)));
        // 3 + 4 commands completed; 6 robotic (camera excluded).
        assert_eq!(e.counters.completed, 7);
        assert_eq!(e.counters.robotic_completed, 6);
        assert_eq!(e.reliability.commands_without_humans(), 6);
        assert_eq!(e.history.len(), 2);
    }

    #[test]
    fn validation_catches_unknown_modules_and_actions() {
        let e = engine();
        let wf = Workflow::from_yaml(
            "name: bad\nmodules: [ot3]\nsteps:\n  - module: ot3\n    action: x\n",
        )
        .unwrap();
        assert_eq!(e.validate(&wf), Err(WeiError::UnknownModule("ot3".into())));
        let wf = Workflow::from_yaml(
            "name: bad\nmodules: [camera]\nsteps:\n  - module: camera\n    action: transfer\n",
        )
        .unwrap();
        assert!(matches!(e.validate(&wf), Err(WeiError::UnsupportedAction { .. })));
    }

    #[test]
    fn reception_faults_cost_time_and_are_retried() {
        let mut e = engine();
        // Fault only the sciclops; always dropped at reception on the first
        // draws, then clean (rate 1.0 would never succeed — use the retry
        // budget: 2 drops then human). Use rate 1.0 to force the human path.
        e.fault_plan = FaultPlan::none().with_module("sciclops", FaultRates::new(1.0, 0.0));
        let mut clock = SeqClock::new();
        let out = e.run_workflow(&mut clock, &newplate_wf(), &Payload::none());
        // Human fixes it after max_attempts drops.
        let out = out.unwrap();
        let first = &out.log.records[0];
        assert!(first.human_intervened);
        assert_eq!(e.counters.human_interventions, 1);
        assert_eq!(e.counters.reception_faults, 3);
        // Time cost: 3 timeouts + human delay + the action itself.
        let d = first.duration().as_secs_f64();
        assert!(d > 3.0 * 20.0 + 300.0, "recovery took {d}");
        // Streak was reset by the human, then counted again.
        assert!(e.reliability.commands_without_humans() >= 2);
        assert_eq!(e.reliability.human_times.len(), 1);
    }

    #[test]
    fn action_faults_mark_module_and_recover() {
        let mut e = engine();
        let mut clock = SeqClock::new();
        // 50% action-failure on the pf400: with 3 attempts the run should
        // still complete (probability of triple failure is 12.5% per
        // command; seed 11 happens to pass — determinism makes this stable).
        e.fault_plan = FaultPlan::none().with_module("pf400", FaultRates::new(0.0, 0.5));
        let result = e.run_workflow(&mut clock, &newplate_wf(), &Payload::none());
        assert!(result.is_ok(), "{result:?}");
        assert!(e.counters.action_faults > 0 || e.counters.attempts == e.counters.completed);
    }

    #[test]
    fn logical_errors_abort_without_retry() {
        let mut e = engine();
        let mut clock = SeqClock::new();
        // Mix without a plate at the camera nest: pf400 transfer fails
        // logically, no retry can help.
        let err = e.run_workflow(&mut clock, &mix_wf(), &one_well_protocol());
        match err {
            Err(WeiError::CommandAborted { attempts, .. }) => assert_eq!(attempts, 1),
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(e.counters.completed, 0);
    }

    #[test]
    fn dispatch_unknown_module_errors() {
        let mut e = engine();
        assert!(matches!(
            e.dispatch(SimTime::ZERO, "ghost", "transfer", &ActionArgs::none()),
            Err(WeiError::UnknownModule(_))
        ));
    }

    #[test]
    fn seq_clock_accumulates() {
        let mut c = SeqClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.wait(SimDuration::from_secs(5));
        c.wait(SimDuration::from_secs(7));
        assert_eq!(c.now(), SimTime::from_secs(12));
    }
}
