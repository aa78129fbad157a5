//! E1 — regenerate **Figure 4**: seven experiments, N = 128 samples each,
//! batch sizes B ∈ {1, 2, 4, 8, 16, 32, 64}, target RGB (120,120,120),
//! evolutionary solver, run as one campaign. Prints the best-score-so-far
//! trajectories as CSV, an ASCII rendering of the figure, and the
//! per-series endpoints.
//!
//! Usage: `cargo run --release -p sdl-bench --bin fig4 [--samples 128]`

use sdl_bench::{ascii_plot, csv, flag_or, parse_flags, table, Series};
use sdl_core::{batch_sweep, AppConfig, Arg, CampaignRunner};

const FLAGS: &[(&str, Arg)] = &[("--samples", Arg::Value)];

fn main() {
    let flags = parse_flags(FLAGS);
    let samples: u32 = flag_or(&flags, "--samples", 128);
    let base = AppConfig { sample_budget: samples, publish_images: false, ..AppConfig::default() };
    let batches = [1u32, 2, 4, 8, 16, 32, 64];
    eprintln!("running {} experiments of {samples} samples each...", batches.len());
    let report = CampaignRunner::new().progress(true).run(batch_sweep(&base, &batches));

    let glyphs = ['1', '2', '4', '8', 'x', 'o', '*'];
    let mut series = Vec::new();
    let mut csv_rows = Vec::new();
    let mut endpoint_rows = Vec::new();
    for (result, glyph) in report.results.iter().zip(glyphs) {
        let label = result.label();
        let out = result.expect_single();
        let points: Vec<(f64, f64)> =
            out.trajectory.iter().map(|p| (p.elapsed_min, p.best)).collect();
        for p in &out.trajectory {
            csv_rows.push(vec![
                label.to_string(),
                p.sample.to_string(),
                format!("{:.2}", p.elapsed_min),
                format!("{:.3}", p.score),
                format!("{:.3}", p.best),
            ]);
        }
        let last = out.trajectory.last().expect("non-empty trajectory");
        endpoint_rows.push(vec![
            label.to_string(),
            format!("{:.1}", last.elapsed_min),
            format!("{:.2}", out.best_score),
            out.samples_measured.to_string(),
            out.plates_used.to_string(),
        ]);
        series.push(Series { label: label.to_string(), glyph, points });
    }

    println!("# Figure 4 — best score so far vs elapsed time (simulated)");
    println!("{}", csv(&["batch", "sample", "elapsed_min", "score", "best"], &csv_rows));
    println!("{}", ascii_plot(&series, 100, 24, "elapsed minutes", "best RGB distance"));
    println!("# Endpoints (paper: smaller B -> longer runtime, better final score)");
    println!("{}", table(&["batch", "end_min", "final_best", "samples", "plates"], &endpoint_rows));
}
