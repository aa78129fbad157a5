//! GA batch-strategy ablation: the paper’s scheme
//! re-measures the elite every generation — under sensor noise that both
//! burns budget and *denoises* the incumbent. This harness isolates the
//! effect on the solver loop (Beer–Lambert objective + Gaussian sensor
//! noise), without the robotics.
//!
//! Usage: `cargo run --release -p sdl-bench --bin ablation_ga`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdl_bench::{mean, parse_flags, stddev, table};
use sdl_color::{BeerLambert, DyeSet, MixModel, Recipe, Rgb8};
use sdl_solvers::{best_observation, ColorSolver, GeneticSolver, Observation};

/// One synthetic closed loop: GA against the true model + noise.
fn run_loop(elite_replication: bool, batch: usize, budget: usize, seed: u64) -> f64 {
    let set = DyeSet::cmyk();
    let model = BeerLambert::default();
    let mut ga = GeneticSolver::new(4);
    ga.elite_replication = elite_replication;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut noise = StdRng::seed_from_u64(seed ^ 0xabcdef);
    let mut history: Vec<Observation> = Vec::new();
    while history.len() < budget {
        let b = batch.min(budget - history.len());
        for ratios in ga.propose(Rgb8::PAPER_TARGET, &history, b, &mut rng) {
            let recipe = Recipe::from_ratios(&ratios, &set).unwrap();
            let c = model.well_color(&set, &recipe).to_srgb();
            // Gaussian sensor noise, sigma ~2.5 RGB units per channel.
            let mut jitter = |v: u8| -> u8 {
                let n: f64 = (0..6).map(|_| noise.gen::<f64>()).sum::<f64>() - 3.0; // ~N(0,1)/1.41
                (v as f64 + 2.5 * n).clamp(0.0, 255.0) as u8
            };
            let measured = Rgb8::new(jitter(c.r), jitter(c.g), jitter(c.b));
            let score = measured.distance(Rgb8::PAPER_TARGET);
            history.push(Observation { ratios, measured, score });
        }
    }
    best_observation(&history).unwrap().score
}

fn main() {
    parse_flags(&[]);
    let seeds: Vec<u64> = (1..=10).collect();
    let mut rows = Vec::new();
    for batch in [4usize, 8, 16] {
        for elite in [true, false] {
            let finals: Vec<f64> = seeds.iter().map(|&s| run_loop(elite, batch, 96, s)).collect();
            rows.push(vec![
                format!("B={batch}"),
                if elite { "elite replicated (paper)" } else { "elite slot mutated" }.to_string(),
                format!("{:.2}", mean(&finals)),
                format!("{:.2}", stddev(&finals)),
            ]);
        }
    }
    println!("# GA elite-replication ablation — final best over 10 seeds (N=96, synthetic loop)");
    println!("{}", table(&["batch", "strategy", "mean best", "sd"], &rows));
    println!("re-measuring the elite costs one sample per generation but repeatedly");
    println!("denoises the incumbent under measurement noise; the net effect is small,");
    println!("which is why the paper's faithful scheme is kept as the default.");
}
