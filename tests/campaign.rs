//! Campaign-engine integration: bit-identical results at any worker-thread
//! count, an ordered portal stream, and the declarative scenario matrix.

use proptest::prelude::*;
use sdl_lab::color::{MixKind, Objective, Rgb8};
use sdl_lab::conf::ValueExt;
use sdl_lab::core::{
    run_one, AppConfig, BackendSpec, CampaignConfig, CampaignRunner, RunMode, ScenarioSpec,
};
use sdl_lab::desim::{FaultPlan, FaultRates};
use sdl_lab::solvers::SolverKind;
use sdl_lab::vision::{DriftSpec, Fidelity};

/// A 16-scenario mixed campaign: four solvers x seeds, two batch sizes, a
/// faulty scenario and two multi-OT2 scenarios.
fn mixed_campaign() -> Vec<ScenarioSpec> {
    let mut scenarios = Vec::new();
    let solvers = [SolverKind::Genetic, SolverKind::Bayesian, SolverKind::Random, SolverKind::Grid];
    for (i, &solver) in solvers.iter().enumerate() {
        for seed in 0..3u64 {
            let config = AppConfig {
                sample_budget: 4,
                batch: if seed % 2 == 0 { 2 } else { 4 },
                solver,
                seed: 100 + 17 * i as u64 + seed,
                publish_images: false,
                ..AppConfig::default()
            };
            scenarios.push(ScenarioSpec::new(format!("{}/s{seed}", solver.name()), config));
        }
    }
    let mut faulty = AppConfig {
        sample_budget: 4,
        batch: 2,
        seed: 900,
        publish_images: false,
        ..AppConfig::default()
    };
    faulty.faults = FaultPlan::uniform(FaultRates::new(0.1, 0.05));
    scenarios.push(ScenarioSpec::new("faulty", faulty));

    let multi_base = AppConfig {
        sample_budget: 6,
        batch: 2,
        seed: 901,
        publish_images: false,
        ..AppConfig::default()
    };
    scenarios.push(ScenarioSpec::multi_ot2("ot2x2", multi_base.clone(), 2));
    scenarios.push(ScenarioSpec::multi_ot2("ot2x3", multi_base, 3));

    let threshold = AppConfig {
        sample_budget: 64,
        batch: 4,
        seed: 902,
        match_threshold: Some(25.0),
        publish_images: false,
        ..AppConfig::default()
    };
    scenarios.push(ScenarioSpec::new("early-stop", threshold));
    scenarios
}

#[test]
fn campaign_is_bit_identical_across_thread_counts() {
    let scenarios = mixed_campaign();
    assert_eq!(scenarios.len(), 16);

    let baseline = CampaignRunner::new().threads(1).run(scenarios.clone());
    let two = CampaignRunner::new().threads(2).run(scenarios.clone());
    let eight = CampaignRunner::new().threads(8).run(scenarios);

    // The fingerprint encodes every score's IEEE bit pattern, every
    // duration microsecond and every trajectory point.
    let expected = baseline.fingerprint();
    assert!(!expected.is_empty());
    assert_eq!(expected, two.fingerprint(), "2 threads diverged from 1");
    assert_eq!(expected, eight.fingerprint(), "8 threads diverged from 1");

    // The streamed portal records are identical and in input order too.
    let render = |report: &sdl_lab::core::CampaignReport| -> Vec<String> {
        report.portal.find("kind", "campaign_scenario").iter().map(sdl_lab::conf::to_json).collect()
    };
    assert_eq!(render(&baseline), render(&two));
    assert_eq!(render(&baseline), render(&eight));
}

#[test]
fn campaign_streams_ordered_records_into_the_portal() {
    let report = CampaignRunner::new().threads(4).run(mixed_campaign());
    let records = report.portal.find("kind", "campaign_scenario");
    assert_eq!(records.len(), 16);
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.opt_i64("index"), Some(i as i64));
        assert!(r.opt_f64("best_score").is_some(), "record {i} lacks a score");
    }
    let campaign = report.portal.find("kind", "campaign");
    assert_eq!(campaign.len(), 1);
    assert_eq!(campaign[0].opt_i64("scenarios"), Some(16));
    assert_eq!(campaign[0].opt_i64("failed"), Some(0));
}

#[test]
fn declarative_matrix_runs_end_to_end() {
    let config = CampaignConfig::from_yaml(
        "name: cli-style\nsamples: 4\nbatch: 2\nseed: 7\nsolvers: [genetic, random]\nseeds: 2\n",
    )
    .expect("campaign config parses");
    let scenarios = config.scenarios();
    assert_eq!(scenarios.len(), 4);
    let report = CampaignRunner::new().threads(2).run(scenarios);
    for (label, outcome) in report.expect_all() {
        assert_eq!(outcome.samples_measured(), 4, "{label}");
    }
}

#[test]
fn solver_axis_runs_the_solver_each_label_names() {
    // A built-in axis entry over a base that names a registered custom
    // solver must run the built-in; the custom entry runs the custom one.
    use std::sync::atomic::{AtomicUsize, Ordering};
    static BUILT: AtomicUsize = AtomicUsize::new(0);
    sdl_lab::solvers::register_solver("axis-custom", |dims| {
        BUILT.fetch_add(1, Ordering::SeqCst);
        Box::new(sdl_lab::solvers::RandomSolver::new(dims))
    });
    let config = CampaignConfig::from_yaml(
        "samples: 4\nbatch: 2\nseed: 3\npublish_images: false\nsolver: axis-custom\n\
         solvers: [genetic, bayesian, axis-custom]\n",
    )
    .unwrap();
    let scenarios = config.scenarios();
    let labels: Vec<&str> = scenarios.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, ["genetic/b2/s3", "bayesian/b2/s3", "axis-custom/b2/s3"]);
    for spec in &scenarios {
        let before = BUILT.load(Ordering::SeqCst);
        let outcome = run_one(spec.config.clone()).unwrap();
        let custom_ran = BUILT.load(Ordering::SeqCst) > before;
        assert_eq!(custom_ran, spec.label.starts_with("axis-custom/"), "{}", spec.label);
        if let Some(kind) = SolverKind::parse(spec.label.split('/').next().unwrap()) {
            let plain = AppConfig {
                sample_budget: 4,
                batch: 2,
                seed: 3,
                publish_images: false,
                solver: kind,
                ..AppConfig::default()
            };
            let named = run_one(plain).unwrap();
            assert_eq!(outcome.best_ratios, named.best_ratios, "{}", spec.label);
            assert_eq!(outcome.best_score.to_bits(), named.best_score.to_bits(), "{}", spec.label);
        }
    }
}

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    let solver = prop_oneof![
        Just(SolverKind::Genetic),
        Just(SolverKind::Bayesian),
        Just(SolverKind::Random),
        Just(SolverKind::Grid),
        Just(SolverKind::Analytic),
        Just(SolverKind::Annealing),
    ];
    let objective = prop_oneof![
        Just(Objective::Rgb),
        Just(Objective::Cie76),
        Just(Objective::Cie94),
        Just(Objective::Ciede2000),
        Just(Objective::Cam16Ucs),
    ];
    let mix = prop_oneof![
        Just(MixKind::BeerLambert),
        Just(MixKind::KubelkaMunk),
        Just(MixKind::Linear),
        Just(MixKind::Spectral),
    ];
    (
        (
            "[a-z][a-z0-9 _.-]{0,18}",
            solver,
            objective,
            mix,
            any::<u64>(),
            1u32..512,
            1u32..96,
            (0u8..=255, 0u8..=255, 0u8..=255),
        ),
        (
            0.0..=1.0f64,
            0.0..=1.0f64,
            1usize..5,
            any::<bool>(),
            any::<bool>(),
            0.1..600.0f64,
            proptest::collection::vec(1.0..80.0f64, 0..2),
            prop_oneof![
                Just(BackendSpec::Sim),
                "[a-z0-9.:-]{1,20}".prop_map(BackendSpec::Remote),
                "[a-z0-9._/-]{1,20}".prop_map(BackendSpec::Replay),
            ],
        ),
        (
            prop_oneof![Just(Fidelity::Full), Just(Fidelity::Fast), Just(Fidelity::Lowres)],
            prop_oneof![
                Just(None),
                Just(Some(DriftSpec::WB)),
                Just(Some(DriftSpec::GAIN)),
                Just(Some(DriftSpec::WB_GAIN)),
            ],
            prop_oneof![Just(None), (0u8..=255, 0u8..=255, 0u8..=255).prop_map(Some)],
            proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 0..3),
        ),
    )
        .prop_map(
            |(
                (label, solver, objective, mix, seed, samples, batch, (r, g, b)),
                (f_rec, f_act, n_ot2, publish, flat, compute, threshold, backend),
                (fidelity, drift, target_to, target_set),
            )| {
                let mut config = AppConfig {
                    sample_budget: samples,
                    batch,
                    solver,
                    objective,
                    mix,
                    seed,
                    target: Rgb8::new(r, g, b),
                    target_to: target_to.map(|(r, g, b)| Rgb8::new(r, g, b)),
                    target_set: target_set
                        .into_iter()
                        .map(|(r, g, b)| Rgb8::new(r, g, b))
                        .collect(),
                    drift,
                    publish_images: publish,
                    flat_field: flat,
                    compute_seconds: compute,
                    match_threshold: threshold.first().copied(),
                    fidelity,
                    ..AppConfig::default()
                };
                if f_rec > 0.0 || f_act > 0.0 {
                    config.faults = FaultPlan::uniform(FaultRates::new(f_rec, f_act));
                }
                let spec = if n_ot2 > 1 {
                    ScenarioSpec::multi_ot2(label, config, n_ot2)
                } else {
                    ScenarioSpec::new(label, config)
                };
                spec.with_backend(backend)
            },
        )
}

proptest! {
    /// Every scenario spec survives the declarative sdl-conf round trip,
    /// field for field — including a serialization to YAML text and back.
    #[test]
    fn scenario_spec_roundtrips_through_conf(spec in arb_spec()) {
        let value = spec.to_value();
        let back = ScenarioSpec::from_value(&value).expect("decodes");
        assert_specs_match(&spec, &back);

        // And through the textual YAML form.
        let yaml = sdl_lab::conf::to_yaml(&value);
        let reparsed = ScenarioSpec::from_yaml(&yaml)
            .unwrap_or_else(|e| panic!("yaml reparse failed: {e}\n{yaml}"));
        assert_specs_match(&spec, &reparsed);
    }
}

fn assert_specs_match(a: &ScenarioSpec, b: &ScenarioSpec) {
    assert_eq!(a.label, b.label);
    assert_eq!(a.mode, b.mode);
    assert_eq!(a.backend, b.backend);
    assert_eq!(a.config.custom_solver, b.config.custom_solver);
    let (ca, cb) = (&a.config, &b.config);
    assert_eq!(ca.experiment_name, cb.experiment_name);
    assert_eq!(ca.target, cb.target);
    assert_eq!(ca.sample_budget, cb.sample_budget);
    assert_eq!(ca.batch, cb.batch);
    assert_eq!(ca.solver, cb.solver);
    assert_eq!(ca.objective, cb.objective);
    assert_eq!(ca.target_set, cb.target_set);
    assert_eq!(ca.target_to, cb.target_to);
    assert_eq!(ca.drift, cb.drift);
    assert_eq!(ca.mix, cb.mix);
    assert_eq!(ca.seed, cb.seed);
    assert_eq!(ca.match_threshold, cb.match_threshold);
    assert_eq!(ca.publish_images, cb.publish_images);
    assert_eq!(ca.flat_field, cb.flat_field);
    assert_eq!(ca.fidelity, cb.fidelity);
    assert_eq!(ca.compute_seconds, cb.compute_seconds);
    assert_eq!(ca.dyes.len(), cb.dyes.len());
    assert_eq!(ca.workcell_yaml, cb.workcell_yaml);
    for module in ["ot2", "pf400"] {
        assert_eq!(ca.faults.rates_for(module), cb.faults.rates_for(module));
    }
}

#[test]
fn multi_ot2_mode_roundtrips_as_single_when_one_handler() {
    let spec = ScenarioSpec::new("one", AppConfig::default());
    let back = ScenarioSpec::from_value(&spec.to_value()).unwrap();
    assert_eq!(back.mode, RunMode::Single);
}
