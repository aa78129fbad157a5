//! Root integration: the §4 future-work experiment across crate boundaries.
//!
//! `tests/data/multi_ot2.golden` pins `run_multi_ot2` bit for bit over a
//! matrix of handler counts, batch sizes, solvers and seeds, plus one case
//! each of command faults, white-balance drift, a moving target, `full`
//! fidelity, a `lowres` run that swaps plates and a batch no plate can
//! hold. Each line records the best score's IEEE bits, the duration,
//! command counts, the per-handler split, plates, time per colour and
//! solver fallbacks, or the run's error text. On a mismatch the test
//! writes the computed file next to the test binaries and names its path.

use sdl_lab::core::{run_multi_ot2, run_one, AppConfig};

const GOLDEN: &str = include_str!("data/multi_ot2.golden");

#[test]
fn two_handlers_cut_twh_without_losing_science() {
    let base =
        AppConfig { sample_budget: 24, batch: 2, publish_images: false, ..AppConfig::default() };
    let single = run_one(base.clone()).expect("single-flow app");
    let dual = run_multi_ot2(&base, 2).expect("dual-handler run");

    assert_eq!(dual.samples_measured, 24);
    // The paper's trade: lower TWH...
    assert!(
        dual.duration.as_secs_f64() < single.duration.as_secs_f64() * 0.8,
        "dual {} vs single {}",
        dual.duration,
        single.duration
    );
    // ...for at least as many commands (CCWH numerator).
    assert!(dual.robotic_commands >= single.counters.robotic_completed);
    // Science quality is in the same band (same solver, shared history).
    assert!(dual.best_score < 60.0);
}

/// The golden matrix: a name, the handler count and the run's settings
/// (a config document over the defaults, images unpublished).
fn cases() -> Vec<(String, usize, String)> {
    let mut out = Vec::new();
    let solvers = ["genetic", "bayesian", "random"];
    let mut k = 0;
    for n_ot2 in 1..=4 {
        for batch in [2, 3] {
            let solver = solvers[k % solvers.len()];
            let seed = 101 + k;
            out.push((
                format!("n{n_ot2}_b{batch}_{solver}"),
                n_ot2,
                format!(
                    "samples: {}\nbatch: {batch}\nsolver: {solver}\nseed: {seed}",
                    batch * (n_ot2 + 1)
                ),
            ));
            k += 1;
        }
    }
    let extra = [
        (
            "faults",
            2,
            "samples: 12\nbatch: 2\nfault_reception: 0.05\nfault_action: 0.03\nseed: 201",
        ),
        ("drift_wb", 2, "samples: 6\nbatch: 3\ndrift: wb\nsolver: bayesian\nseed: 202"),
        ("target_to", 3, "samples: 6\nbatch: 2\ntarget_to: [40, 200, 90]\nseed: 203"),
        ("full", 2, "samples: 4\nbatch: 2\nfidelity: full\nsolver: random\nseed: 204"),
        ("lowres_swap", 2, "samples: 240\nbatch: 40\nfidelity: lowres\nsolver: random\nseed: 205"),
        ("plate_too_small", 2, "samples: 200\nbatch: 100\nseed: 206"),
    ];
    for (name, n_ot2, doc) in extra {
        out.push((name.to_string(), n_ot2, doc.to_string()));
    }
    out
}

fn case_line(name: &str, n_ot2: usize, doc: &str) -> String {
    let mut cfg = AppConfig::from_yaml(doc).expect("case settings");
    cfg.publish_images = false;
    match run_multi_ot2(&cfg, n_ot2) {
        Ok(o) => format!(
            "{name}\tn_ot2={}\tsamples={}\tbest={:016x}\tduration_us={}\tcommands={}/{}\
             \thandlers={:?}\tplates={}\tper_color_us={}\tfallbacks={}",
            o.n_ot2,
            o.samples_measured,
            o.best_score.to_bits(),
            o.duration.as_micros(),
            o.robotic_commands,
            o.total_commands,
            o.per_handler_samples,
            o.plates_used,
            o.time_per_color.as_micros(),
            o.solver_fallbacks,
        ),
        Err(e) => format!("{name}\terror={e}"),
    }
}

fn computed() -> String {
    let mut out = String::new();
    for (name, n_ot2, doc) in cases() {
        out.push_str(&case_line(&name, n_ot2, &doc));
        out.push('\n');
    }
    out
}

#[test]
fn multi_ot2_runs_match_the_recorded_golden() {
    let got = computed();
    if got == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("multi_ot2.golden");
    std::fs::write(&path, &got).expect("write the computed golden");
    for (i, (want, have)) in GOLDEN.lines().zip(got.lines()).enumerate() {
        assert_eq!(
            have,
            want,
            "line {} of multi_ot2.golden (computed file: {})",
            i + 1,
            path.display()
        );
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "case count of multi_ot2.golden (computed file: {})",
        path.display()
    );
}
