//! E7 — mixing-model ablation (§2.5 notes the problem "admits an analytic
//! solution, given accurate models of how colors combine"): run the GA
//! against the three forward models as one campaign and compare
//! convergence. The naive linear model makes the problem easier than the
//! physical Beer–Lambert chemistry; Kubelka–Munk sits between.
//!
//! Usage: `cargo run --release -p sdl-bench --bin ablation_mixing [--samples 64]`

use sdl_bench::{flag_or, mean, parse_flags, stddev, table};
use sdl_color::MixKind;
use sdl_core::{AppConfig, Arg, CampaignRunner, ScenarioSpec};

const FLAGS: &[(&str, Arg)] = &[("--samples", Arg::Value)];

fn main() {
    let flags = parse_flags(FLAGS);
    let samples: u32 = flag_or(&flags, "--samples", 64);
    let seeds = [1u64, 2, 3];
    let models = [MixKind::BeerLambert, MixKind::KubelkaMunk, MixKind::Spectral, MixKind::Linear];
    let mut scenarios = Vec::new();
    for model in models {
        for seed in seeds {
            let config = AppConfig {
                sample_budget: samples,
                batch: 4,
                mix: model,
                seed,
                publish_images: false,
                ..AppConfig::default()
            };
            scenarios.push(ScenarioSpec::new(format!("{}/{}", model.name(), seed), config));
        }
    }
    eprintln!("running {} experiments...", scenarios.len());
    let report = CampaignRunner::new().run(scenarios);

    let mut rows = Vec::new();
    for model in models {
        let outs: Vec<&sdl_core::ExperimentOutcome> = report
            .results
            .iter()
            .filter(|r| r.label().starts_with(model.name()))
            .map(|r| r.expect_single())
            .collect();
        let finals: Vec<f64> = outs.iter().map(|o| o.best_score).collect();
        let half: Vec<f64> =
            outs.iter().map(|o| o.trajectory[o.trajectory.len() / 2].best).collect();
        rows.push(vec![
            model.name().to_string(),
            format!("{:.2}", mean(&half)),
            format!("{:.2}", mean(&finals)),
            format!("{:.2}", stddev(&finals)),
        ]);
    }
    println!(
        "# Mixing-model ablation — GA convergence under each forward model (B=4, N={samples})"
    );
    println!("{}", table(&["model", "best@N/2", "final best", "sd"], &rows));
}
