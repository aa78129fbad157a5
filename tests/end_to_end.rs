//! End-to-end integration: the full closed loop on the simulated workcell.

use sdl_lab::core::{run_one, AppConfig, ColorPickerApp, TerminationReason};
use sdl_lab::solvers::SolverKind;

fn quick(samples: u32, batch: u32) -> AppConfig {
    AppConfig { sample_budget: samples, batch, publish_images: false, ..AppConfig::default() }
}

#[test]
fn budget_run_completes_and_improves() {
    let out = run_one(quick(24, 4)).expect("run succeeds");
    assert_eq!(out.termination, TerminationReason::BudgetExhausted);
    assert_eq!(out.samples_measured, 24);
    assert_eq!(out.trajectory.len(), 24);
    // Improvement over the first sample is essentially guaranteed with 24
    // samples against a reachable mid-gray target.
    let first = out.trajectory.first().unwrap().best;
    assert!(out.best_score < first, "no improvement: {first} -> {}", out.best_score);
    assert!(out.best_score < 40.0, "best {}", out.best_score);
    // Trajectory invariants: best is non-increasing, samples numbered 1..N.
    for (i, p) in out.trajectory.iter().enumerate() {
        assert_eq!(p.sample as usize, i + 1);
        if i > 0 {
            assert!(p.best <= out.trajectory[i - 1].best + 1e-12);
            assert!(p.elapsed_min >= out.trajectory[i - 1].elapsed_min);
        }
        assert!(p.best <= p.score + 1e-12);
    }
}

#[test]
fn match_threshold_terminates_early() {
    let mut config = quick(96, 4);
    config.match_threshold = Some(30.0);
    let out = run_one(config).expect("run succeeds");
    match out.termination {
        TerminationReason::TargetMatched { score } => {
            assert!(score <= 30.0);
            assert!(out.samples_measured < 96, "should stop before the budget");
        }
        other => panic!("expected early match, got {other:?}"),
    }
}

#[test]
fn plates_are_consumed_and_swapped() {
    // 20 samples in batches of 15 on 96-well plates: 6 iterations fit per
    // plate at B=15, so two iterations need only one plate; but a batch
    // never splits across plates.
    let out = run_one(quick(45, 15)).expect("run succeeds");
    assert_eq!(out.samples_measured, 45);
    assert_eq!(out.plates_used, 1, "3 x 15 = 45 wells fit one plate");

    let out = run_one(quick(128, 1)).expect("run succeeds");
    assert_eq!(out.plates_used, 2, "128 single wells need two 96-well plates");
}

#[test]
fn out_of_plates_terminates_gracefully() {
    let mut config = quick(500, 96);
    // Tiny inventory: two plates only.
    config.workcell_yaml = config.workcell_yaml.replace("towers: [10, 10, 10, 10]", "towers: [2]");
    let out = run_one(config).expect("graceful termination");
    assert_eq!(out.termination, TerminationReason::OutOfPlates);
    assert_eq!(out.samples_measured, 192, "two full plates of samples");
}

#[test]
fn portal_holds_every_sample_record() {
    let out = run_one(quick(12, 3)).expect("run succeeds");
    let samples = out.portal.samples(&out.experiment_id);
    assert_eq!(samples.len(), 12);
    // Published metadata: exactly one experiment record.
    assert_eq!(out.portal.find("kind", "experiment").len(), 1);
    // Sequence numbers are 1..=12 in order, runs non-decreasing.
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.sample as usize, i + 1);
        assert_eq!(s.target, [120, 120, 120]);
        assert!(s.score >= 0.0);
    }
    assert_eq!(out.flow_stats.published, 13);
    assert_eq!(out.flow_stats.failed, 0);
}

#[test]
fn images_are_archived_when_enabled() {
    let mut config = quick(4, 2);
    config.publish_images = true;
    let out = run_one(config).expect("run succeeds");
    // 2 iterations -> 2 distinct frames in the blob store, each
    // transferred once.
    assert_eq!(out.store.len(), 2);
    assert_eq!(out.flow_stats.blobs, 2);
    let samples = out.portal.samples(&out.experiment_id);
    assert!(samples.iter().all(|s| s.image_ref.is_some()));
    // Samples of the same iteration share a frame.
    assert_eq!(samples[0].image_ref, samples[1].image_ref);
    assert_ne!(samples[0].image_ref, samples[2].image_ref);
}

#[test]
fn runlogs_record_every_workflow() {
    let mut app = ColorPickerApp::new(quick(6, 3)).expect("app builds");
    let out = app.run().expect("run succeeds");
    let history = &app.engine().history;
    // 1 newplate + 2 mixcolor + final trashplate (+ maybe replenish).
    let mix = history.iter().filter(|l| l.workflow == "cp_wf_mixcolor").count();
    assert_eq!(mix, 2);
    assert_eq!(history.iter().filter(|l| l.workflow == "cp_wf_newplate").count(), 1);
    assert_eq!(history.iter().filter(|l| l.workflow == "cp_wf_trashplate").count(), 1);
    // Step records inside a log are contiguous in time.
    for log in history {
        for w in log.records.windows(2) {
            assert!(w[1].start >= w[0].end, "steps overlap in {}", log.workflow);
        }
        assert!(log.render().contains(&log.workflow));
    }
    drop(out);
}

#[test]
fn all_solvers_complete_the_loop() {
    for kind in SolverKind::all() {
        let mut config = quick(8, 4);
        config.solver = kind;
        let out = run_one(config).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_eq!(out.samples_measured, 8, "{}", kind.name());
        // The oracle should essentially nail the target immediately.
        if kind == SolverKind::Analytic {
            assert!(out.best_score < 15.0, "oracle best {}", out.best_score);
        }
    }
}
