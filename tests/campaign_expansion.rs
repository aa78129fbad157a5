//! The campaign matrix expansion, pinned byte for byte.
//!
//! `tests/data/campaign_expansion.golden` holds, for every document below,
//! one line per scenario: its label, a tab, and `to_json(spec.to_value())`.
//! The documents are small matrices that together sweep every axis with at
//! least two values, plus every campaign document in `tests/`, `examples/`,
//! the CI workflow, the README and perfbench. A change to how a campaign
//! document expands (order, labels, or any setting of any scenario) fails
//! here before it can move a fingerprint.

use sdl_lab::conf::to_json;
use sdl_lab::core::CampaignConfig;

const DOCUMENTS: &[(&str, &str)] = &[
    (
        "solvers x batches x seed count",
        "name: m1\nsamples: 8\nseed: 5\n\
         solvers: [genetic, bayesian, random, annealing, grid, analytic]\n\
         batches: [1, 4]\nseeds: 3\n",
    ),
    (
        "targets x mix models x fidelities x seed list",
        "name: m2\nsamples: 8\nbatch: 2\n\
         targets: [[120, 120, 120], [200, 10, 10], [0, 255, 64]]\n\
         mix_models: [beer-lambert, kubelka-munk, linear]\n\
         fidelities: [full, fast, lowres]\nseeds: [1, 0, 9223372036854775807]\n",
    ),
    (
        "objectives x drifts x fault rates x handlers",
        "name: m3\nsamples: 8\nseed: 11\n\
         objectives: [rgb, cie76, cie94, ciede2000, cam16ucs]\n\
         drifts: [none, wb, gain, wb+gain, 'wb=0.03,gain=0.25,period=8']\n\
         fault_rates: [0.0, 0.05, 1]\nn_ot2: [1, 2]\nseeds: 2\n",
    ),
    (
        "single-entry axes over a base that sets every key",
        "name: m4\nexperiment: Full Base\ndate: 2024-01-02\ntarget: [10, 20, 30]\n\
         target_set: [[200, 10, 10], [10, 200, 10]]\ntarget_to: [250, 250, 250]\n\
         samples: 12\nbatch: 3\nsolver: annealing\nmetric: cie76\nmix_model: linear\n\
         seed: -1\nmatch_threshold: 5.0\nrefill_watermark_ul: 1000\npublish_images: false\n\
         compute_seconds: 1.5\nflat_field: true\nfidelity: lowres\ndrift: gain\ndyes: cmy\n\
         workcell_yaml: \"name: tiny\\nmodules: []\\n\"\n\
         fault_reception: 0.2\nfault_action: 0.1\n\
         solvers: [random]\nbatches: [5]\ntargets: [[1, 2, 3]]\nmix_models: [kubelka-munk]\n\
         fidelities: [fast]\nobjectives: [cie94]\ndrifts: [none]\nfault_rates: [0.1]\n\
         n_ot2: [3]\nseeds: [7]\n",
    ),
    ("seeds derived from the largest master seed", "seed: -1\nseeds: 4\nbatch: 2\n"),
    ("derived seeds above i64::MAX", "seed: 42\nseeds: 12\n"),
    (
        "backend and campaign settings",
        "name: m6\nsamples: 4\nbackend: 'remote:127.0.0.1:9'\nthreads: 3\n\
         workers: ['127.0.0.1:1', '127.0.0.1:2']\nshard: 2\nbatches: [1, 2]\n",
    ),
    (
        "empty axes count once",
        "solvers: []\nbatches: []\ntargets: []\nfault_rates: []\nn_ot2: []\nseeds: []\n",
    ),
    ("objective wins over the metric alias", "objective: cam16ucs\nmetric: cie76\nseeds: 2\n"),
    ("metric alias under an objective axis", "metric: cie94\nobjectives: [rgb, cie76]\n"),
    ("base faults under a zero-rate axis", "fault_reception: 0.3\nfault_rates: [0.0, 0.2]\n"),
    ("nothing swept", ""),
    (
        "tests/campaign.rs",
        "name: cli-style\nsamples: 4\nbatch: 2\nseed: 7\nsolvers: [genetic, random]\nseeds: 2\n",
    ),
    (
        "tests/crash_resume.rs crash-resume",
        "name: crash-resume\nsamples: 10\nbatch: 2\nseed: 91\npublish_images: false\n\
         solvers: [genetic, random, bayesian]\nseeds: 3\n",
    ),
    (
        "tests/crash_resume.rs log-fuzz",
        "name: log-fuzz\nsamples: 6\nbatch: 2\nseed: 53\npublish_images: false\n\
         solvers: [genetic, random]\nseeds: 2\n",
    ),
    (
        "tests/chaos.rs",
        "name: watch-me-die\nsamples: 600\nbatch: 1\nseed: 7\npublish_images: false\n\
         solvers: [random]\nseeds: 1\n",
    ),
    (
        "tests/observability.rs",
        "name: observe-me\nsamples: 6\nbatch: 2\nseed: 400\npublish_images: false\n\
         solvers: [genetic, random]\nseeds: 2\n",
    ),
    (
        "examples/fidelity_sweep.rs",
        "name: fidelity-sweep\nsamples: 32\nbatch: 4\nsolver: genetic\nseed: 7\nseeds: 3\n\
         fidelities: [full, fast, lowres]\npublish_images: false\n",
    ),
    (
        "ci.yml distributed smoke",
        "name: smoke\nsamples: 8\nbatch: 2\nsolvers: [genetic, random]\nseeds: 2\n\
         publish_images: false\n",
    ),
    (
        "ci.yml observability smoke",
        "name: obs-smoke\nsamples: 8\nbatch: 2\nseed: 17\nsolvers: [genetic, random]\nseeds: 2\n\
         publish_images: false\n",
    ),
    (
        "ci.yml chaos smoke",
        "name: chaos-smoke\nsamples: 8\nbatch: 2\nseed: 23\nsolvers: [genetic, random]\nseeds: 2\n\
         publish_images: false\n",
    ),
    (
        "ci.yml objective default a",
        "name: obj-default\nsamples: 8\nbatch: 2\nseed: 29\nsolvers: [genetic, random]\nseeds: 2\n\
         publish_images: false\n",
    ),
    (
        "ci.yml objective default b",
        "name: obj-default\nsamples: 8\nbatch: 2\nseed: 29\nobjective: rgb\n\
         solvers: [genetic, random]\nseeds: 2\npublish_images: false\n",
    ),
    (
        "ci.yml overload smoke",
        "name: overload-smoke\nsamples: 4\nbatch: 2\nseed: 31\nsolvers: [random]\nseeds: 2\n\
         publish_images: false\n",
    ),
    (
        "README solver study",
        "name: solver-study\nsamples: 64\nseed: 42            # master seed\n\
         solvers: [genetic, bayesian, random]\n\
         seeds: 32           # 32 per-scenario seeds derived from the master seed\n\
         batches: [1, 4, 16]\nfault_rates: [0.0, 0.05]\n",
    ),
    (
        "README worker pool",
        "workers: ['127.0.0.1:8331', '127.0.0.1:8332']\n\
         shard: 2          # scenarios per deal unit (optional; default auto)\n",
    ),
    (
        "perfbench campaign, seed 1",
        "name: bench-1\nexperiment: bench\nseed: 1\nsamples: 96\nbatch: 4\nfidelity: fast\n\
         solvers: [bayesian, genetic]\nseeds: 4\nthreads: 2\n",
    ),
    (
        "perfbench portal-fast, seed 1",
        "name: portal-fast\nexperiment: portal-fast\nseed: 1\nsamples: 96\nbatch: 4\n\
         fidelity: fast\nsolvers: [bayesian, genetic]\nseeds: 4\nthreads: 2\n\
         publish_images: true\n",
    ),
    (
        "perfbench portal-lowres, seed 2",
        "name: portal-lowres\nexperiment: portal-lowres\nseed: 2\nsamples: 96\nbatch: 4\n\
         fidelity: lowres\nsolvers: [bayesian, genetic]\nseeds: 4\nthreads: 2\n\
         publish_images: false\n",
    ),
];

/// Every document's expansion: a `# name` line, then one line per scenario.
fn expansion() -> String {
    let mut out = String::new();
    for (name, doc) in DOCUMENTS {
        let config = CampaignConfig::from_yaml(doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push_str(&format!("# {name}\n"));
        for spec in config.scenarios() {
            out.push_str(&format!("{}\t{}\n", spec.label, to_json(&spec.to_value())));
        }
    }
    out
}

#[test]
fn campaign_documents_expand_to_the_recorded_scenarios() {
    let golden = include_str!("data/campaign_expansion.golden");
    let expanded = expansion();
    for (i, (want, got)) in golden.lines().zip(expanded.lines()).enumerate() {
        assert_eq!(got, want, "line {} of the expansion golden", i + 1);
    }
    assert_eq!(expanded.lines().count(), golden.lines().count(), "scenario count");
}
