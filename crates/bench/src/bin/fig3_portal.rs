//! E3 — regenerate **Figure 3**: the ACDC portal views for an experiment of
//! 12 runs × 15 samples (= 180 experiments), as in the paper's 2023-08-16
//! demo. Prints the summary view (left panel) and run #12's detail view
//! (right panel).
//!
//! Usage: `cargo run --release -p sdl-bench --bin fig3_portal`

use sdl_core::{AppConfig, CampaignRunner, ScenarioSpec};

fn main() {
    sdl_bench::parse_flags(&[]);
    // 12 iterations of 15 samples = 180; each iteration is one portal "run".
    let config =
        AppConfig { sample_budget: 180, batch: 15, publish_images: true, ..AppConfig::default() };
    eprintln!("running 12 runs x 15 samples...");
    let report = CampaignRunner::new().run(vec![ScenarioSpec::new("fig3", config)]);
    let out = report.results[0].expect_single();

    println!("# Figure 3 (left): Globus Search portal summary view");
    println!("{}", out.portal.summary_view(&out.experiment_id));
    println!("# Figure 3 (right): detailed data from run #12");
    println!("{}", out.portal.run_detail(&out.experiment_id, 12));
    println!(
        "publication pipeline: {} records published, {} images archived ({} KiB)",
        out.flow_stats.published,
        out.store.len(),
        out.store.total_bytes() / 1024
    );
}
