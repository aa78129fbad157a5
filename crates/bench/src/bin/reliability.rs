//! E5 — reliability / CCWH study (§4): inject command-reception and
//! mid-action faults at increasing rates and watch the paper's resiliency
//! metrics respond: CCWH (longest robotic-command streak without a human)
//! and TWH (longest stretch of unattended operation). Three seeds per rate,
//! run as one campaign; means reported.
//!
//! Usage: `cargo run --release -p sdl-bench --bin reliability [--samples 48]`

use sdl_bench::{flag_or, mean, parse_flags, table};
use sdl_core::{AppConfig, Arg, CampaignRunner, ScenarioSpec};
use sdl_desim::{FaultPlan, FaultRates};

const FLAGS: &[(&str, Arg)] = &[("--samples", Arg::Value)];

fn main() {
    let flags = parse_flags(FLAGS);
    let samples: u32 = flag_or(&flags, "--samples", 48);
    let rates = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20];
    let seeds = [7u64, 21, 63];
    let mut scenarios = Vec::new();
    for &rate in &rates {
        for &seed in &seeds {
            let mut config = AppConfig {
                sample_budget: samples,
                batch: 1,
                seed,
                publish_images: false,
                ..AppConfig::default()
            };
            config.faults = FaultPlan::uniform(FaultRates::new(rate, rate / 2.0));
            scenarios.push(ScenarioSpec::new(format!("{rate}|{seed}"), config));
        }
    }
    eprintln!("running {} experiments (N={samples}, B=1)...", scenarios.len());
    let report = CampaignRunner::new().run(scenarios);

    let mut rows = Vec::new();
    for &rate in &rates {
        let of = |f: &dyn Fn(&sdl_core::ExperimentOutcome) -> f64| -> f64 {
            let v: Vec<f64> = report
                .results
                .iter()
                .filter(|r| r.label().starts_with(&format!("{rate}|")))
                .map(|r| f(r.expect_single()))
                .collect();
            mean(&v)
        };
        rows.push(vec![
            format!("{:.0}%", rate * 100.0),
            format!("{:.0}", of(&|o| o.metrics.ccwh as f64)),
            format!("{:.1}h", of(&|o| o.metrics.twh.as_secs_f64() / 3600.0)),
            format!(
                "{:.1}",
                of(&|o| (o.counters.reception_faults + o.counters.action_faults) as f64)
            ),
            format!("{:.1}", of(&|o| o.counters.human_interventions as f64)),
            format!("{:.1}h", of(&|o| o.duration.as_secs_f64() / 3600.0)),
            format!("{:.1}", of(&|o| o.best_score)),
        ]);
    }
    println!("# Reliability vs injected command-fault rate (means over {} seeds)", seeds.len());
    println!("  (reception rate shown; mid-action rate = half of it)");
    println!(
        "{}",
        table(&["fault rate", "CCWH", "TWH", "faults", "humans", "duration", "best"], &rows)
    );
    println!("retries absorb sparse faults at a pure time cost; once triple-faults appear");
    println!("the simulated operator steps in, fragmenting CCWH and TWH — while the");
    println!("completed science (best score) stays intact. That asymmetry is the paper's");
    println!("argument for CCWH as a communications-resiliency measure.");
}
