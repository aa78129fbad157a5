//! Application configuration.

use sdl_color::{DyeSet, MixKind, Objective, Rgb8};
use sdl_conf::{from_yaml, Value, ValueExt};
use sdl_desim::{FaultPlan, FaultRates};
use sdl_solvers::SolverKind;
use sdl_vision::{DriftSpec, Fidelity};
use sdl_wei::RPL_WORKCELL_YAML;
use std::fmt;

/// Everything a color-picker experiment needs.
#[derive(Clone)]
pub struct AppConfig {
    /// Experiment name (portal metadata).
    pub experiment_name: String,
    /// Date string recorded in the portal (the paper's demo ran 2023-08-16).
    pub date: String,
    /// Target color. Paper experiments fix RGB (120, 120, 120).
    pub target: Rgb8,
    /// Extra target colors graded alongside `target`: a measurement's
    /// score is the *minimum* over all targets (the multi-target stress
    /// kind). Empty = single-target, the paper's setup.
    pub target_set: Vec<Rgb8>,
    /// Moving-target endpoint: when set, the grading (and solver) target
    /// interpolates from `target` to this color over the sample budget
    /// (the moving-target stress kind).
    pub target_to: Option<Rgb8>,
    /// Total sample budget N. Paper: 128.
    pub sample_budget: u32,
    /// Batch size B (wells per mix iteration). Paper: 1–64.
    pub batch: u32,
    /// Decision procedure (one of the built-in kinds).
    pub solver: SolverKind,
    /// A custom solver registered in the process-wide
    /// [`sdl_solvers::SolverRegistry`]; when set it overrides `solver`.
    /// Lets configs name downstream decision procedures without this crate
    /// (or the `SolverKind` enum) knowing about them.
    pub custom_solver: Option<String>,
    /// Optimization objective — the metric × color space every measurement
    /// is graded in (Figure 4 uses RGB Euclidean distance).
    pub objective: Objective,
    /// Forward mixing model of the simulated chemistry.
    pub mix: MixKind,
    /// Dye stocks.
    pub dyes: DyeSet,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Workcell document to instantiate.
    pub workcell_yaml: String,
    /// Stop early when the best score reaches this value.
    pub match_threshold: Option<f64>,
    /// Run `cp_wf_replenish` when any reservoir falls below this volume (µL).
    pub refill_watermark_ul: f64,
    /// Attach plate images to published records.
    pub publish_images: bool,
    /// Seconds of solver/compute time per iteration (the "Compute" box of
    /// Figure 2).
    pub compute_seconds: f64,
    /// Command-fault injection plan.
    pub faults: FaultPlan,
    /// Enable the detector's flat-field correction (off on the paper's rig).
    pub flat_field: bool,
    /// Camera fidelity profile for simulated measurement (`full` = frozen
    /// reference renderer, `fast` = counter-based default, `lowres` =
    /// counter-based at half resolution). Cameras whose workcell document
    /// pins an explicit `fidelity` keep it.
    pub fidelity: Fidelity,
    /// Deterministic illumination drift applied to simulated cameras
    /// (white-balance wander and sensor-gain perturbation, the stress
    /// axis); `None` = stable illuminant. Cameras whose workcell document
    /// pins an explicit `drift` keep it. Incompatible with the frozen
    /// `full` fidelity.
    pub drift: Option<DriftSpec>,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            experiment_name: "ColorPickerRPL".into(),
            date: "2023-08-16".into(),
            target: Rgb8::PAPER_TARGET,
            target_set: Vec::new(),
            target_to: None,
            sample_budget: 128,
            batch: 1,
            solver: SolverKind::Genetic,
            custom_solver: None,
            objective: Objective::Rgb,
            mix: MixKind::BeerLambert,
            dyes: DyeSet::cmyk(),
            seed: 42,
            workcell_yaml: RPL_WORKCELL_YAML.to_string(),
            match_threshold: None,
            refill_watermark_ul: 2_600.0,
            publish_images: true,
            compute_seconds: 2.0,
            faults: FaultPlan::none(),
            flat_field: false,
            fidelity: Fidelity::default(),
            drift: None,
        }
    }
}

impl fmt::Debug for AppConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppConfig")
            .field("experiment_name", &self.experiment_name)
            .field("target", &self.target)
            .field("sample_budget", &self.sample_budget)
            .field("batch", &self.batch)
            .field("solver", &self.solver_label())
            .field("objective", &self.objective.name())
            .field("mix", &self.mix.name())
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Errors raised while reading an application config document.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Parse an `[r, g, b]` triple of 0-255 integers (shared by the `target`
/// field and the campaign `targets` axis).
pub(crate) fn parse_rgb_triple(v: &Value, what: &str) -> Result<Rgb8, ConfigError> {
    let t =
        v.as_seq().ok_or_else(|| ConfigError(format!("{what} must be a [r, g, b] sequence")))?;
    if t.len() != 3 {
        return Err(ConfigError(format!("{what} must have 3 components")));
    }
    let ch: Vec<i64> = t.iter().filter_map(Value::as_i64).collect();
    if ch.len() != 3 || ch.iter().any(|c| !(0..=255).contains(c)) {
        return Err(ConfigError(format!("{what} components must be 0-255 integers")));
    }
    Ok(Rgb8::new(ch[0] as u8, ch[1] as u8, ch[2] as u8))
}

/// Encode a color as the `[r, g, b]` sequence `parse_rgb_triple` reads.
pub(crate) fn rgb_value(c: Rgb8) -> Value {
    let mut triple = Value::seq();
    for ch in c.channels() {
        triple.push(ch as i64);
    }
    triple
}

impl AppConfig {
    /// Parse an application config document; unspecified fields keep their
    /// defaults.
    ///
    /// ```yaml
    /// experiment: ColorPickerRPL
    /// target: [120, 120, 120]
    /// samples: 128
    /// batch: 4
    /// solver: genetic
    /// objective: rgb
    /// mix_model: beer-lambert
    /// seed: 7
    /// ```
    pub fn from_yaml(src: &str) -> Result<AppConfig, ConfigError> {
        let doc = from_yaml(src).map_err(|e| ConfigError(e.to_string()))?;
        AppConfig::from_value(&doc)
    }

    /// Every top-level key [`AppConfig::from_value`] reads.
    pub(crate) const KEYS: [&'static str; 23] = [
        "experiment",
        "date",
        "target",
        "target_set",
        "target_to",
        "samples",
        "batch",
        "solver",
        "objective",
        "metric",
        "mix_model",
        "seed",
        "match_threshold",
        "refill_watermark_ul",
        "publish_images",
        "compute_seconds",
        "flat_field",
        "fidelity",
        "drift",
        "dyes",
        "workcell_yaml",
        "fault_reception",
        "fault_action",
    ];

    /// Build from an already-parsed `sdl-conf` value tree; unspecified
    /// fields keep their defaults.
    pub fn from_value(doc: &Value) -> Result<AppConfig, ConfigError> {
        let mut cfg = AppConfig::default();
        if let Some(v) = doc.opt_str("experiment") {
            cfg.experiment_name = v.to_string();
        }
        if let Some(v) = doc.opt_str("date") {
            cfg.date = v.to_string();
        }
        if let Some(t) = doc.get("target") {
            cfg.target = parse_rgb_triple(t, "target")?;
        }
        if let Some(t) = doc.get("target_set") {
            let seq = t.as_seq().ok_or_else(|| {
                ConfigError("target_set must be a list of [r, g, b] triples".into())
            })?;
            for e in seq {
                cfg.target_set.push(parse_rgb_triple(e, "target_set entry")?);
            }
        }
        if let Some(t) = doc.get("target_to") {
            cfg.target_to = Some(parse_rgb_triple(t, "target_to")?);
        }
        if let Some(v) = doc.opt_i64("samples") {
            if v <= 0 {
                return Err(ConfigError("samples must be positive".into()));
            }
            cfg.sample_budget = v as u32;
        }
        if let Some(v) = doc.opt_i64("batch") {
            if v <= 0 {
                return Err(ConfigError("batch must be positive".into()));
            }
            cfg.batch = v as u32;
        }
        if let Some(v) = doc.opt_str("solver") {
            match SolverKind::parse(v) {
                Some(kind) => cfg.solver = kind,
                None if sdl_solvers::solver_registered(v) => {
                    cfg.custom_solver = Some(v.to_string());
                }
                None => {
                    return Err(ConfigError(format!(
                        "unknown solver '{v}' (registered solvers: {})",
                        sdl_solvers::registered_names()
                    )))
                }
            }
        }
        // `objective:` names the metric × color space the run optimizes;
        // the historical `metric:` key is accepted as an alias.
        if let Some(v) = doc.opt_str("objective").or_else(|| doc.opt_str("metric")) {
            cfg.objective = Objective::parse(v).ok_or_else(|| {
                ConfigError(format!(
                    "unknown objective '{v}' (valid: {})",
                    Objective::valid_names()
                ))
            })?;
        }
        if let Some(v) = doc.opt_str("mix_model") {
            cfg.mix =
                MixKind::parse(v).ok_or_else(|| ConfigError(format!("unknown mix model '{v}'")))?;
        }
        if let Some(v) = doc.opt_i64("seed") {
            cfg.seed = v as u64;
        }
        if let Some(v) = doc.opt_f64("match_threshold") {
            cfg.match_threshold = Some(v);
        }
        if let Some(v) = doc.opt_f64("refill_watermark_ul") {
            cfg.refill_watermark_ul = v;
        }
        if let Some(v) = doc.opt_bool("publish_images") {
            cfg.publish_images = v;
        }
        if let Some(v) = doc.opt_f64("compute_seconds") {
            cfg.compute_seconds = v;
        }
        if let Some(v) = doc.opt_bool("flat_field") {
            cfg.flat_field = v;
        }
        if let Some(v) = doc.opt_str("fidelity") {
            cfg.fidelity = Fidelity::parse(v).ok_or_else(|| {
                ConfigError(format!("unknown fidelity '{v}' (valid: {})", Fidelity::valid_names()))
            })?;
        }
        if let Some(v) = doc.opt_str("drift") {
            cfg.drift = Some(DriftSpec::parse(v).ok_or_else(|| {
                ConfigError(format!("unknown drift '{v}' (valid: {})", DriftSpec::valid_names()))
            })?);
        }
        if let Some(v) = doc.opt_str("dyes") {
            cfg.dyes = match v {
                "cmyk" => DyeSet::cmyk(),
                "cmy" => DyeSet::cmy(),
                other => return Err(ConfigError(format!("unknown dye set '{other}'"))),
            };
        }
        if let Some(v) = doc.opt_str("workcell_yaml") {
            cfg.workcell_yaml = v.to_string();
        }
        let reception = doc.opt_f64("fault_reception").unwrap_or(0.0);
        let action = doc.opt_f64("fault_action").unwrap_or(0.0);
        if !(0.0..=1.0).contains(&reception) || !(0.0..=1.0).contains(&action) {
            return Err(ConfigError("fault rates must be in [0, 1]".into()));
        }
        if reception > 0.0 || action > 0.0 {
            cfg.faults = FaultPlan::uniform(FaultRates::new(reception, action));
        }
        Ok(cfg)
    }

    /// Encode as an `sdl-conf` value tree (the inverse of
    /// [`AppConfig::from_value`] for everything the declarative form
    /// covers; per-module fault overrides and custom dye chemistry have no
    /// config syntax and round-trip as their uniform/named equivalents).
    pub fn to_value(&self) -> Value {
        let mut v = Value::map();
        v.set("experiment", self.experiment_name.as_str());
        v.set("date", self.date.as_str());
        v.set("target", rgb_value(self.target));
        if !self.target_set.is_empty() {
            let mut set = Value::seq();
            for &t in &self.target_set {
                set.push(rgb_value(t));
            }
            v.set("target_set", set);
        }
        if let Some(t) = self.target_to {
            v.set("target_to", rgb_value(t));
        }
        v.set("samples", self.sample_budget as i64);
        v.set("batch", self.batch as i64);
        v.set("solver", self.solver_label());
        v.set("objective", self.objective.name());
        v.set("mix_model", self.mix.name());
        v.set("seed", self.seed as i64);
        if let Some(t) = self.match_threshold {
            v.set("match_threshold", t);
        }
        v.set("refill_watermark_ul", self.refill_watermark_ul);
        v.set("publish_images", self.publish_images);
        v.set("compute_seconds", self.compute_seconds);
        v.set("flat_field", self.flat_field);
        v.set("fidelity", self.fidelity.name());
        if let Some(d) = self.drift {
            v.set("drift", d.name().as_str());
        }
        match self.dyes.len() {
            3 => v.set("dyes", "cmy"),
            _ => v.set("dyes", "cmyk"),
        };
        if self.workcell_yaml != RPL_WORKCELL_YAML {
            v.set("workcell_yaml", self.workcell_yaml.as_str());
        }
        let rates = self.faults.rates_for("");
        if rates.reception > 0.0 {
            v.set("fault_reception", rates.reception);
        }
        if rates.action > 0.0 {
            v.set("fault_action", rates.action);
        }
        v
    }

    /// Experiment identifier derived from the configuration.
    pub fn experiment_id(&self) -> String {
        format!(
            "{}-b{}-{}-seed{}",
            self.experiment_name.to_lowercase().replace(' ', "-"),
            self.batch,
            self.solver_label(),
            self.seed
        )
    }

    /// The configured solver's name: the custom registered name when set,
    /// otherwise the built-in kind's canonical name.
    pub fn solver_label(&self) -> &str {
        self.custom_solver.as_deref().unwrap_or_else(|| self.solver.name())
    }

    /// Instantiate the configured decision procedure for a `dims`-dye
    /// problem, resolving custom names through the process-wide
    /// [`sdl_solvers::SolverRegistry`]. The solver is told the objective's
    /// score scale so RGB-calibrated thresholds renormalize.
    pub fn build_solver(
        &self,
        dims: usize,
    ) -> Result<Box<dyn sdl_solvers::ColorSolver>, ConfigError> {
        let mut solver = match &self.custom_solver {
            Some(name) => sdl_solvers::build_registered(name, dims).ok_or_else(|| {
                ConfigError(format!(
                    "solver '{name}' is not registered (registered solvers: {})",
                    sdl_solvers::registered_names()
                ))
            })?,
            None => self.solver.build(dims),
        };
        solver.set_score_scale(self.objective.scale());
        Ok(solver)
    }

    /// The grading (and solver) target at 0-based sample index `sample`:
    /// interpolates `target` → `target_to` over the sample budget when a
    /// moving target is configured, otherwise `target`. Samples past the
    /// budget (restored histories from a larger run) grade against the
    /// endpoint.
    pub fn target_at(&self, sample: u32) -> Rgb8 {
        let Some(to) = self.target_to else { return self.target };
        let last = self.sample_budget.saturating_sub(1);
        if last == 0 {
            // A one-sample budget has no trajectory to traverse; the single
            // measurement grades against the endpoint.
            return to;
        }
        let t = sample.min(last) as f64 / last as f64;
        let lerp = |a: u8, b: u8| (a as f64 + (b as f64 - a as f64) * t).round() as u8;
        let [ar, ag, ab] = self.target.channels();
        let [br, bg, bb] = to.channels();
        Rgb8::new(lerp(ar, br), lerp(ag, bg), lerp(ab, bb))
    }

    /// Grade one measurement taken as 0-based sample index `sample`: the
    /// configured objective against the (possibly moving) primary target,
    /// keeping the best score over any extra `target_set` entries.
    pub fn score_measurement(&self, measured: Rgb8, sample: u32) -> f64 {
        let mut best = self.objective.score(measured, self.target_at(sample));
        for &t in &self.target_set {
            best = best.min(self.objective.score(measured, t));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = AppConfig::default();
        assert_eq!(c.target, Rgb8::new(120, 120, 120));
        assert_eq!(c.sample_budget, 128);
        assert_eq!(c.batch, 1);
        assert_eq!(c.solver, SolverKind::Genetic);
        assert_eq!(c.objective, Objective::Rgb);
        assert!(c.target_set.is_empty());
        assert_eq!(c.target_to, None);
        assert_eq!(c.drift, None);
    }

    #[test]
    fn yaml_overrides_fields() {
        let c = AppConfig::from_yaml(
            "experiment: Demo\ntarget: [10, 20, 30]\nsamples: 64\nbatch: 8\nsolver: bayesian\nobjective: ciede2000\nmix_model: linear\nseed: 9\nmatch_threshold: 5.0\n",
        )
        .unwrap();
        assert_eq!(c.experiment_name, "Demo");
        assert_eq!(c.target, Rgb8::new(10, 20, 30));
        assert_eq!(c.sample_budget, 64);
        assert_eq!(c.batch, 8);
        assert_eq!(c.solver, SolverKind::Bayesian);
        assert_eq!(c.objective, Objective::Ciede2000);
        assert_eq!(c.mix, MixKind::Linear);
        assert_eq!(c.seed, 9);
        assert_eq!(c.match_threshold, Some(5.0));
    }

    #[test]
    fn every_encoded_key_is_a_known_key() {
        // Every optional field set, so `to_value` writes every key it can.
        let c = AppConfig {
            target_set: vec![Rgb8::new(200, 10, 10)],
            target_to: Some(Rgb8::new(250, 250, 250)),
            match_threshold: Some(5.0),
            drift: Some(DriftSpec::WB_GAIN),
            workcell_yaml: "modules: []\n".to_string(),
            faults: FaultPlan::uniform(FaultRates::new(0.1, 0.05)),
            ..AppConfig::default()
        };
        let v = c.to_value();
        let entries = v.as_map().unwrap();
        // All keys but the `metric` alias.
        assert_eq!(entries.len(), AppConfig::KEYS.len() - 1);
        for (key, _) in entries {
            assert!(AppConfig::KEYS.contains(&key.as_str()), "'{key}' missing from KEYS");
        }
    }

    #[test]
    fn metric_key_is_an_objective_alias() {
        let c = AppConfig::from_yaml("metric: cie76\n").unwrap();
        assert_eq!(c.objective, Objective::Cie76);
        // An explicit `objective:` wins over the legacy alias.
        let c = AppConfig::from_yaml("objective: cam16ucs\nmetric: cie76\n").unwrap();
        assert_eq!(c.objective, Objective::Cam16Ucs);
        // The encoded form uses the modern key.
        assert_eq!(c.to_value().opt_str("objective"), Some("cam16ucs"));
        assert!(c.to_value().opt_str("metric").is_none());
    }

    #[test]
    fn stress_fields_roundtrip_through_conf() {
        let c = AppConfig::from_yaml(
            "target: [10, 20, 30]\ntarget_set: [[200, 10, 10], [10, 200, 10]]\ntarget_to: [250, 250, 250]\ndrift: wb+gain\n",
        )
        .unwrap();
        assert_eq!(c.target_set, vec![Rgb8::new(200, 10, 10), Rgb8::new(10, 200, 10)]);
        assert_eq!(c.target_to, Some(Rgb8::new(250, 250, 250)));
        assert_eq!(c.drift, Some(DriftSpec::WB_GAIN));
        let back = AppConfig::from_value(&c.to_value()).unwrap();
        assert_eq!(back.target_set, c.target_set);
        assert_eq!(back.target_to, c.target_to);
        assert_eq!(back.drift, c.drift);
        // Defaults keep the stress keys out of the encoded form.
        let v = AppConfig::default().to_value();
        assert!(v.get("target_set").is_none());
        assert!(v.get("target_to").is_none());
        assert!(v.get("drift").is_none());
    }

    #[test]
    fn moving_target_interpolates_over_the_budget() {
        let c = AppConfig {
            target: Rgb8::new(0, 100, 200),
            target_to: Some(Rgb8::new(100, 100, 0)),
            sample_budget: 101,
            ..AppConfig::default()
        };
        assert_eq!(c.target_at(0), Rgb8::new(0, 100, 200));
        assert_eq!(c.target_at(50), Rgb8::new(50, 100, 100));
        assert_eq!(c.target_at(100), Rgb8::new(100, 100, 0));
        // Past-budget samples clamp to the endpoint.
        assert_eq!(c.target_at(10_000), Rgb8::new(100, 100, 0));
        // No endpoint → the target never moves.
        let fixed = AppConfig::default();
        assert_eq!(fixed.target_at(77), fixed.target);
    }

    #[test]
    fn multi_target_scoring_keeps_the_best() {
        let c = AppConfig {
            target: Rgb8::new(0, 0, 0),
            target_set: vec![Rgb8::new(200, 200, 200)],
            ..AppConfig::default()
        };
        let m = Rgb8::new(190, 190, 190);
        assert_eq!(c.score_measurement(m, 0), m.distance(Rgb8::new(200, 200, 200)));
        // With no extra targets the score is exactly the paper's grading.
        let plain = AppConfig::default();
        assert_eq!(plain.score_measurement(m, 0), m.distance(plain.target));
    }

    #[test]
    fn invalid_values_are_rejected() {
        assert!(AppConfig::from_yaml("target: [1, 2]").is_err());
        assert!(AppConfig::from_yaml("target: [1, 2, 900]").is_err());
        assert!(AppConfig::from_yaml("samples: 0").is_err());
        assert!(AppConfig::from_yaml("batch: -1").is_err());
        assert!(AppConfig::from_yaml("solver: quantum").is_err());
        assert!(AppConfig::from_yaml("metric: vibes").is_err());
        let err = AppConfig::from_yaml("objective: vibes").unwrap_err();
        assert!(err.to_string().contains("cam16ucs"), "{err}");
        let err = AppConfig::from_yaml("drift: vibes").unwrap_err();
        assert!(err.to_string().contains("wb+gain"), "{err}");
        assert!(AppConfig::from_yaml("target_set: [[1, 2]]").is_err());
        assert!(AppConfig::from_yaml("target_set: 3").is_err());
        assert!(AppConfig::from_yaml("target_to: [1, 2, 900]").is_err());
    }

    #[test]
    fn experiment_id_is_descriptive() {
        let c = AppConfig::default();
        assert_eq!(c.experiment_id(), "colorpickerrpl-b1-genetic-seed42");
    }

    #[test]
    fn registered_custom_solvers_resolve_in_configs() {
        sdl_solvers::register_solver("config-test-solver", |dims| {
            Box::new(sdl_solvers::RandomSolver::new(dims))
        });
        let c = AppConfig::from_yaml("solver: config-test-solver\n").unwrap();
        assert_eq!(c.custom_solver.as_deref(), Some("config-test-solver"));
        assert_eq!(c.solver_label(), "config-test-solver");
        assert!(c.experiment_id().contains("config-test-solver"));
        assert_eq!(c.build_solver(4).unwrap().name(), "random");
        // The custom name survives the conf round trip.
        let back = AppConfig::from_value(&c.to_value()).unwrap();
        assert_eq!(back.custom_solver.as_deref(), Some("config-test-solver"));
        // Unknown names list the registered set.
        let err = AppConfig::from_yaml("solver: nonexistent\n").unwrap_err();
        assert!(err.to_string().contains("config-test-solver"), "{err}");
        assert!(err.to_string().contains("genetic"), "{err}");
    }
}
