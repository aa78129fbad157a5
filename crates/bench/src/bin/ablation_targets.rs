//! Target-reachability ablation: the paper fixes RGB (120,120,120), which is
//! interior to the CMYK subtractive gamut. Other targets sit near or beyond
//! the gamut boundary; the achievable floor — measured by the analytic
//! oracle and approached by the GA — reveals that boundary. Runs as one
//! campaign (targets × {genetic, analytic}).
//!
//! Usage: `cargo run --release -p sdl-bench --bin ablation_targets [--samples 48]`

use sdl_bench::{flag_or, parse_flags, table};
use sdl_color::Rgb8;
use sdl_core::{AppConfig, Arg, CampaignRunner, ScenarioSpec};
use sdl_solvers::SolverKind;

const FLAGS: &[(&str, Arg)] = &[("--samples", Arg::Value)];

fn main() {
    let flags = parse_flags(FLAGS);
    let samples: u32 = flag_or(&flags, "--samples", 48);
    let targets = [
        ("paper mid-gray", Rgb8::new(120, 120, 120)),
        ("light gray", Rgb8::new(200, 200, 200)),
        ("dark slate", Rgb8::new(60, 70, 80)),
        ("olive", Rgb8::new(128, 128, 64)),
        ("saturated red", Rgb8::new(230, 40, 40)),
    ];
    let mut scenarios = Vec::new();
    for (name, t) in targets {
        for solver in [SolverKind::Genetic, SolverKind::Analytic] {
            let config = AppConfig {
                sample_budget: samples,
                batch: 4,
                target: t,
                solver,
                publish_images: false,
                ..AppConfig::default()
            };
            scenarios.push(ScenarioSpec::new(format!("{name}|{}", solver.name()), config));
        }
    }
    eprintln!("running {} experiments...", scenarios.len());
    let report = CampaignRunner::new().run(scenarios);

    let find = |label: &str| -> f64 {
        report
            .by_label(label)
            .unwrap_or_else(|| panic!("missing scenario {label}"))
            .expect_single()
            .best_score
    };
    let mut rows = Vec::new();
    for (name, t) in targets {
        let oracle = find(&format!("{name}|analytic"));
        let ga = find(&format!("{name}|genetic"));
        rows.push(vec![
            name.to_string(),
            t.to_string(),
            format!("{oracle:.1}"),
            format!("{ga:.1}"),
            if oracle > 20.0 { "outside gamut" } else { "reachable" }.to_string(),
        ]);
    }
    println!("# Target reachability — oracle floor vs GA best (N={samples}, B=4)");
    println!("{}", table(&["target", "RGB", "oracle floor", "GA best", "verdict"], &rows));
    println!("the paper's mid-gray target is comfortably inside the CMYK gamut; strongly");
    println!("saturated targets hit the subtractive-mixing boundary and no solver can close");
    println!("the gap — the benchmark's difficulty is a property of the target choice.");
}
