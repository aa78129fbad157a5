//! E4 — the §2.5 solver comparison: the paper implemented a Bayesian
//! optimizer but reports it "does not yield a systematic improvement over
//! the genetic algorithm". This harness runs GA, GP-EI, random search and
//! the analytic oracle over multiple seeds as one campaign and reports
//! final-score statistics.
//!
//! Usage: `cargo run --release -p sdl-bench --bin solver_compare
//!         [--samples 64] [--batch 4] [--seeds 5]`

use sdl_bench::{flag_or, mean, median, parse_flags, stddev, table};
use sdl_core::{solver_sweep, AppConfig, Arg, CampaignRunner};
use sdl_solvers::SolverKind;

const FLAGS: &[(&str, Arg)] =
    &[("--samples", Arg::Value), ("--batch", Arg::Value), ("--seeds", Arg::Value)];

fn main() {
    let flags = parse_flags(FLAGS);
    let samples: u32 = flag_or(&flags, "--samples", 64);
    let batch: u32 = flag_or(&flags, "--batch", 4);
    let n_seeds: u64 = flag_or(&flags, "--seeds", 5);
    let base =
        AppConfig { sample_budget: samples, batch, publish_images: false, ..AppConfig::default() };
    let solvers =
        [SolverKind::Genetic, SolverKind::Bayesian, SolverKind::Random, SolverKind::Analytic];
    let seeds: Vec<u64> = (1..=n_seeds).collect();
    eprintln!(
        "running {} experiments ({} solvers x {} seeds, N={samples}, B={batch})...",
        solvers.len() * seeds.len(),
        solvers.len(),
        seeds.len()
    );
    let report = CampaignRunner::new().run(solver_sweep(&base, &solvers, &seeds));

    let mut rows = Vec::new();
    for solver in solvers {
        let finals = report.best_scores_with_prefix(solver.name());
        rows.push(vec![
            solver.name().to_string(),
            format!("{:.2}", mean(&finals)),
            format!("{:.2}", stddev(&finals)),
            format!("{:.2}", median(&finals)),
            format!("{:.2}", finals.iter().cloned().fold(f64::INFINITY, f64::min)),
            format!("{:.2}", finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)),
        ]);
    }
    println!(
        "# Solver comparison — final best score over {n_seeds} seeds (N={samples}, B={batch})"
    );
    println!("{}", table(&["solver", "mean", "sd", "median", "min", "max"], &rows));
    println!("paper claim: bayesian shows no systematic improvement over genetic;");
    println!("the analytic oracle bounds what any black-box method can reach.");
}
