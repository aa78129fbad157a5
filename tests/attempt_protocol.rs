//! The attempt protocol across executors: the thread-pool runner, the
//! scheduler's in-process executor and a resume of a cut log must give one
//! fingerprint, write the same per-scenario events, and fold to the
//! progress their reports describe.

use sdl_lab::conf::ValueExt;
use sdl_lab::core::{
    AppConfig, BackendSpec, CampaignReport, CampaignRunner, CampaignScheduler, EventLog,
    ProgressModel, ScenarioOutcome, ScenarioSpec,
};
use sdl_lab::solvers::SolverKind;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Four single-loop scenarios, one multi-OT2, and one multi-OT2 on a
/// `remote:` backend, which fails (multi-OT2 runs only on the sim).
fn campaign() -> Vec<ScenarioSpec> {
    let config = |solver, seed| AppConfig {
        solver,
        sample_budget: 4,
        batch: 2,
        seed,
        publish_images: false,
        ..AppConfig::default()
    };
    let solvers = [SolverKind::Genetic, SolverKind::Random, SolverKind::Bayesian, SolverKind::Grid];
    let mut out: Vec<ScenarioSpec> = solvers
        .iter()
        .zip(60..)
        .map(|(&solver, seed)| ScenarioSpec::new(format!("s{seed}"), config(solver, seed)))
        .collect();
    out.push(ScenarioSpec::multi_ot2("m2", config(SolverKind::Genetic, 70), 2));
    out.push(
        ScenarioSpec::multi_ot2("bad", config(SolverKind::Genetic, 71), 2)
            .with_backend(BackendSpec::Remote("127.0.0.1:1".to_string())),
    );
    out
}

/// Per scenario index, the log's sequence of (event kind, attempt); an
/// event without an attempt (`scenario_claimed`) has `None`.
fn attempts_by_scenario(path: &Path) -> BTreeMap<i64, Vec<(&'static str, Option<i64>)>> {
    let (records, _) = EventLog::read(path).unwrap();
    let mut out: BTreeMap<i64, Vec<_>> = BTreeMap::new();
    for rec in records {
        let v = rec.event.to_value();
        if let Some(index) = v.opt_i64("index") {
            out.entry(index).or_default().push((rec.event.kind(), v.opt_i64("attempt")));
        }
    }
    out
}

/// Fold the log into a [`ProgressModel`] and check it against the report.
fn assert_progress_matches(path: &Path, report: &CampaignReport) {
    let (records, _) = EventLog::read(path).unwrap();
    let mut model = ProgressModel::new();
    for rec in &records {
        model.apply(rec.seq, &rec.event);
    }
    let failed = report.results.iter().filter(|r| r.outcome.is_err()).count();
    assert!(model.closed, "{}", path.display());
    assert_eq!((model.done, model.failed), (report.len() - failed, failed), "{}", path.display());
    // Only single-loop sessions log samples; multi-OT2 logs its lifecycle.
    let samples: u64 = report
        .results
        .iter()
        .filter_map(|r| match &r.outcome {
            Ok(ScenarioOutcome::Single(o)) => Some(o.samples_measured as u64),
            _ => None,
        })
        .sum();
    assert_eq!(model.samples, samples, "{}", path.display());
}

#[test]
fn runner_scheduler_and_resume_write_one_attempt_protocol() {
    let dir = std::env::temp_dir().join(format!("sdl-attempt-protocol-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = |name: &str| {
        let path = dir.join(name);
        (Arc::new(EventLog::create(&path).unwrap()), path)
    };

    let (events, runner_log) = log("runner.events");
    let runner = CampaignRunner::new().threads(2).with_events(events).run(campaign());
    let (events, scheduler_log) = log("scheduler.events");
    let (scheduled, _) = CampaignScheduler::new(Vec::new()).with_events(events).run(campaign());

    // Cut the runner's log right after `campaign_opened`: the resume
    // re-drives every scenario.
    let raw = std::fs::read(&runner_log).unwrap();
    let opened = raw.iter().position(|&b| b == b'\n').unwrap() + 1;
    let resumed_log = dir.join("resumed.events");
    std::fs::write(&resumed_log, &raw[..opened]).unwrap();
    let (resumed, stats) = CampaignRunner::new().threads(2).resume(&resumed_log).unwrap();
    assert_eq!((stats.replayed, stats.redriven), (0, 6));

    assert_eq!(runner.results.iter().filter(|r| r.outcome.is_err()).count(), 1);
    assert_eq!(scheduled.fingerprint(), runner.fingerprint());
    assert_eq!(resumed.fingerprint(), runner.fingerprint());

    let want = attempts_by_scenario(&runner_log);
    assert_eq!(want.len(), 6, "{want:?}");
    assert_eq!(attempts_by_scenario(&scheduler_log), want, "scheduler");
    assert_eq!(attempts_by_scenario(&resumed_log), want, "resume");

    assert_progress_matches(&runner_log, &runner);
    assert_progress_matches(&scheduler_log, &scheduled);
    assert_progress_matches(&resumed_log, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}
