//! E2 — regenerate **Table 1**: the proposed SDL metrics for a B = 1 run,
//! side by side with the paper's reported values. Runs as a one-scenario
//! campaign through the `CampaignRunner`.
//!
//! Usage: `cargo run --release -p sdl-bench --bin table1 [--samples 128]`

use sdl_bench::{flag_or, parse_flags, table};
use sdl_core::{AppConfig, Arg, CampaignRunner, ScenarioSpec};
use sdl_desim::SimDuration;

const FLAGS: &[(&str, Arg)] = &[("--samples", Arg::Value)];

fn main() {
    let flags = parse_flags(FLAGS);
    let samples: u32 = flag_or(&flags, "--samples", 128);
    let config = AppConfig {
        sample_budget: samples,
        batch: 1,
        publish_images: false,
        ..AppConfig::default()
    };
    eprintln!("running B=1 N={samples}...");
    let report = CampaignRunner::new().run(vec![ScenarioSpec::new("table1/B=1", config)]);
    let out = report.results[0].expect_single();
    let m = &out.metrics;

    let hm = |d: SimDuration| d.to_string();
    let rows = vec![
        vec!["Time without humans".into(), "8h 12m".into(), hm(m.twh)],
        vec!["Completed commands without humans".into(), "387".into(), m.ccwh.to_string()],
        vec!["Synthesis time".into(), "5h 10m".into(), hm(m.synthesis)],
        vec!["Transfer time".into(), "3h 02m".into(), hm(m.transfer)],
        vec!["Total colors mixed".into(), "128".into(), m.colors_mixed.to_string()],
        vec!["Time per color".into(), "4 mins".into(), hm(m.time_per_color)],
    ];
    println!("# Table 1 — proposed SDL metrics, B = 1 (paper vs simulated)");
    println!("{}", table(&["Metric", "Paper", "Simulated"], &rows));
    println!(
        "synthesis share of total: paper 63% vs simulated {:.0}%",
        m.synthesis_fraction() * 100.0
    );
    println!("plate/reservoir logistics (outside the paper's two buckets): {}", m.logistics);
    println!(
        "uploads: {} (paper: 128, one per sample)",
        out.flow_stats.published.max(out.samples_measured as u64)
    );
    println!("termination: {}", out.termination);
}
