//! Application configuration.

use sdl_color::{DyeSet, MixKind, Objective, Rgb8};
use sdl_conf::{from_yaml, Value};
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

/// Parse an `[r, g, b]` triple of 0-255 integers.
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
fn rgb_value(c: Rgb8) -> Value {
    let mut triple = Value::seq();
    for ch in c.channels() {
        triple.push(ch as i64);
    }
    triple
}

/// The error for a value of the wrong type.
fn expected(key: &str, what: &str, got: &Value) -> ConfigError {
    ConfigError(format!("{key} must be {what}, got {}", got.type_name()))
}

pub(crate) fn string<'v>(key: &str, v: &'v Value) -> Result<&'v str, ConfigError> {
    v.as_str().ok_or_else(|| expected(key, "a string", v))
}

fn number(key: &str, v: &Value) -> Result<f64, ConfigError> {
    v.as_f64().ok_or_else(|| expected(key, "a number", v))
}

fn boolean(key: &str, v: &Value) -> Result<bool, ConfigError> {
    v.as_bool().ok_or_else(|| expected(key, "true or false", v))
}

/// A count in `1..=u32::MAX`; anything else is refused, never wrapped.
pub(crate) fn positive_u32(key: &str, v: &Value) -> Result<u32, ConfigError> {
    let n = v.as_i64().ok_or_else(|| expected(key, "an integer", v))?;
    u32::try_from(n)
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| ConfigError(format!("{key} must be in 1..={}, got {n}", u32::MAX)))
}

/// A count in a decoded `/v1` body or event-log line: an integer in
/// `0..=u32::MAX`. A missing value, another type or an integer outside that
/// range is refused with an error naming `what`, never wrapped.
pub(crate) fn need_u32(v: Option<&Value>, what: &str) -> Result<u32, String> {
    v.and_then(Value::as_i64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("{what} must be an integer in 0..={}", u32::MAX))
}

/// A document's entries in the order they apply: the `metric` alias
/// first, so an explicit `objective` wins wherever it stands. An empty
/// document (YAML `null`) has no entries; any other non-map is refused.
pub(crate) fn entries<'a>(
    doc: &'a Value,
    what: &str,
) -> Result<impl Iterator<Item = (&'a str, &'a Value)>, ConfigError> {
    let map = match doc {
        Value::Null => &[][..],
        _ => doc.as_map().ok_or_else(|| {
            ConfigError(format!("a {what} document must be a map, got {}", doc.type_name()))
        })?,
    };
    let alias = map.iter().filter(|(k, _)| k == "metric");
    Ok(alias.chain(map.iter().filter(|(k, _)| k != "metric")).map(|(k, v)| (k.as_str(), v)))
}

/// The error for an unknown key in a `what` document, naming the closest
/// key that is valid there.
pub(crate) fn unknown_key(what: &str, key: &str, valid: &[&[&str]]) -> ConfigError {
    match closest_name(key, valid.iter().flat_map(|keys| keys.iter().copied())) {
        Some(known) => ConfigError(format!("unknown {what} key '{key}' (did you mean '{known}'?)")),
        None => ConfigError(format!("unknown {what} key '{key}'")),
    }
}

/// The candidate closest to `name` within edit distance 2, if any (ties go
/// to the lexically smallest), for did-you-mean hints.
pub fn closest_name<'a>(
    name: &str,
    candidates: impl IntoIterator<Item = &'a str>,
) -> Option<&'a str> {
    candidates
        .into_iter()
        .map(|known| (edit_distance(name, known), known))
        .filter(|&(d, _)| d <= 2)
        .min()
        .map(|(_, known)| known)
}

/// Levenshtein distance between two strings, in chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            cur.push((prev[j] + usize::from(ca != cb)).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
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

    /// Every key [`AppConfig::set`] accepts.
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
    /// fields keep their defaults. Refuses a document that is not a map and
    /// any key [`AppConfig::set`] does not know.
    pub fn from_value(doc: &Value) -> Result<AppConfig, ConfigError> {
        let mut cfg = AppConfig::default();
        for (key, value) in entries(doc, "config")? {
            cfg.set(key, value)?;
        }
        Ok(cfg)
    }

    /// Set one key from its document value. This is the only place a
    /// setting is parsed and range-checked: config documents, scenario and
    /// campaign documents, campaign axes, the worker's session requests and
    /// the CLI all set keys through it. A `null` value leaves the setting
    /// as it is, like an absent key.
    pub fn set(&mut self, key: &str, value: &Value) -> Result<(), ConfigError> {
        if value.is_null() && Self::KEYS.contains(&key) {
            return Ok(());
        }
        match key {
            "experiment" => self.experiment_name = string(key, value)?.to_string(),
            "date" => self.date = string(key, value)?.to_string(),
            "target" => self.target = parse_rgb_triple(value, key)?,
            "target_set" => {
                let seq = value.as_seq().ok_or_else(|| {
                    ConfigError("target_set must be a list of [r, g, b] triples".into())
                })?;
                self.target_set = seq
                    .iter()
                    .map(|e| parse_rgb_triple(e, "target_set entry"))
                    .collect::<Result<_, _>>()?;
            }
            "target_to" => self.target_to = Some(parse_rgb_triple(value, key)?),
            "samples" => self.sample_budget = positive_u32(key, value)?,
            "batch" => self.batch = positive_u32(key, value)?,
            "solver" => {
                let name = string(key, value)?;
                match SolverKind::parse(name) {
                    Some(kind) => {
                        self.solver = kind;
                        self.custom_solver = None;
                    }
                    None if sdl_solvers::solver_registered(name) => {
                        self.custom_solver = Some(name.to_string());
                    }
                    None => {
                        return Err(ConfigError(format!(
                            "unknown solver '{name}' (registered solvers: {})",
                            sdl_solvers::registered_names()
                        )))
                    }
                }
            }
            // `objective:` names the metric × color space the run optimizes;
            // the historical `metric:` key is an alias (see `entries`).
            "objective" | "metric" => {
                let name = string(key, value)?;
                self.objective = Objective::parse(name).ok_or_else(|| {
                    ConfigError(format!(
                        "unknown objective '{name}' (valid: {})",
                        Objective::valid_names()
                    ))
                })?;
            }
            "mix_model" => {
                let name = string(key, value)?;
                self.mix = MixKind::parse(name)
                    .ok_or_else(|| ConfigError(format!("unknown mix model '{name}'")))?;
            }
            // Any i64; a seed above i64::MAX is written (and read back) as
            // its two's-complement negative.
            "seed" => {
                self.seed = value.as_i64().ok_or_else(|| expected(key, "an integer", value))? as u64
            }
            "match_threshold" => self.match_threshold = Some(number(key, value)?),
            "refill_watermark_ul" => self.refill_watermark_ul = number(key, value)?,
            "publish_images" => self.publish_images = boolean(key, value)?,
            "compute_seconds" => self.compute_seconds = number(key, value)?,
            "flat_field" => self.flat_field = boolean(key, value)?,
            "fidelity" => {
                let name = string(key, value)?;
                self.fidelity = Fidelity::parse(name).ok_or_else(|| {
                    ConfigError(format!(
                        "unknown fidelity '{name}' (valid: {})",
                        Fidelity::valid_names()
                    ))
                })?;
            }
            "drift" => {
                let name = string(key, value)?;
                self.drift = Some(DriftSpec::parse(name).ok_or_else(|| {
                    ConfigError(format!(
                        "unknown drift '{name}' (valid: {})",
                        DriftSpec::valid_names()
                    ))
                })?);
            }
            "dyes" => {
                self.dyes = match string(key, value)? {
                    "cmyk" => DyeSet::cmyk(),
                    "cmy" => DyeSet::cmy(),
                    other => return Err(ConfigError(format!("unknown dye set '{other}'"))),
                }
            }
            "workcell_yaml" => self.workcell_yaml = string(key, value)?.to_string(),
            // The two rates make one uniform plan; zero rates are no plan.
            "fault_reception" | "fault_action" => {
                let rate = number(key, value)?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(ConfigError(format!("{key} must be in [0, 1], got {rate}")));
                }
                let mut rates = self.faults.rates_for("");
                if key == "fault_reception" {
                    rates.reception = rate;
                } else {
                    rates.action = rate;
                }
                self.faults = if rates.reception > 0.0 || rates.action > 0.0 {
                    FaultPlan::uniform(FaultRates::new(rates.reception, rates.action))
                } else {
                    FaultPlan::none()
                };
            }
            _ => return Err(unknown_key("config", key, &[&Self::KEYS])),
        }
        Ok(())
    }

    /// Set `key` from command-line text, read as the document line
    /// `key: text` would be, except that `target` takes `R,G,B` and `seed`
    /// takes any `u64` (stored as the two's-complement `Int` that
    /// [`AppConfig::to_value`] writes).
    pub fn set_text(&mut self, key: &str, text: &str) -> Result<(), ConfigError> {
        let value = match key {
            "seed" => Value::Int(text.trim().parse::<u64>().map_err(|_| {
                ConfigError(format!("seed must be an integer in 0..={}, got '{text}'", u64::MAX))
            })? as i64),
            "target" => from_yaml(&format!("[{text}]")).map_err(|e| ConfigError(e.to_string()))?,
            _ => from_yaml(text).map_err(|e| ConfigError(e.to_string()))?,
        };
        if value.is_null() {
            return Err(ConfigError(format!("{key} needs a value")));
        }
        self.set(key, &value)
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
    use sdl_conf::ValueExt;

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
    fn the_setter_accepts_exactly_its_keys() {
        // A valid value for every key: the encoded form of a config that
        // sets everything, plus the `metric` alias.
        let full = AppConfig {
            target_set: vec![Rgb8::new(200, 10, 10)],
            target_to: Some(Rgb8::new(250, 250, 250)),
            match_threshold: Some(5.0),
            drift: Some(DriftSpec::WB_GAIN),
            workcell_yaml: "modules: []\n".to_string(),
            faults: FaultPlan::uniform(FaultRates::new(0.1, 0.05)),
            ..AppConfig::default()
        };
        let mut values = full.to_value().as_map().unwrap().to_vec();
        values.push(("metric".to_string(), Value::from("cie76")));
        let mut keys: Vec<&str> = values.iter().map(|(k, _)| k.as_str()).collect();
        let mut want = AppConfig::KEYS.to_vec();
        keys.sort_unstable();
        want.sort_unstable();
        assert_eq!(keys, want);
        let mut c = AppConfig::default();
        for (key, value) in &values {
            c.set(key, value).unwrap_or_else(|e| panic!("{key}: {e}"));
        }
        for key in ["solvr", "Samples", "sample", "label", "n_ot2", "solvers", ""] {
            let err = c.set(key, &Value::Int(1)).unwrap_err();
            assert!(err.0.starts_with(&format!("unknown config key '{key}'")), "{err}");
        }
    }

    #[test]
    fn unknown_keys_and_non_maps_are_refused() {
        let err = AppConfig::from_yaml("samples: 4\nsolvr: random\n").unwrap_err();
        assert_eq!(err.0, "unknown config key 'solvr' (did you mean 'solver'?)");
        let err = AppConfig::from_json_text(r#"{"samples": 4, "fidelty": "full"}"#);
        assert!(err.contains("'fidelity'"), "{err}");
        let err = AppConfig::from_yaml("colour: red\n").unwrap_err();
        assert_eq!(err.0, "unknown config key 'colour'");
        for doc in ["42", "[]", "x", "- samples\n- 4\n"] {
            let err = AppConfig::from_yaml(doc).unwrap_err();
            assert!(err.0.contains("must be a map"), "{doc:?}: {err}");
        }
        // An empty document is the default config.
        assert_eq!(AppConfig::from_yaml("# nothing\n").unwrap().sample_budget, 128);
        assert_eq!(closest_name("fidelites", AppConfig::KEYS), Some("fidelity"));
        assert_eq!(closest_name("colour", AppConfig::KEYS), None);
        assert_eq!(edit_distance("fidelites", "fidelities"), 1);
        assert_eq!(edit_distance("", "seed"), 4);
        assert_eq!(edit_distance("batch", "batches"), 2);
    }

    impl AppConfig {
        /// The error text for a JSON config body, as a worker reads it.
        fn from_json_text(body: &str) -> String {
            AppConfig::from_value(&sdl_conf::from_json(body).unwrap()).unwrap_err().to_string()
        }
    }

    #[test]
    fn counts_are_refused_out_of_range_not_wrapped() {
        for key in ["samples", "batch"] {
            for bad in ["0", "-1", "4294967296", "4294967297", "9223372036854775807"] {
                let err = AppConfig::from_yaml(&format!("{key}: {bad}\n")).unwrap_err();
                assert!(err.0.starts_with(&format!("{key} must be in 1..=4294967295")), "{err}");
            }
            let c = AppConfig::from_yaml(&format!("{key}: 4294967295\n")).unwrap();
            assert_eq!(c.sample_budget.max(c.batch), u32::MAX);
        }
        let err = AppConfig::from_json_text(r#"{"samples": 4294967297}"#);
        assert!(err.contains("samples must be in 1..=4294967295"), "{err}");
    }

    #[test]
    fn wrong_types_are_refused_and_null_keeps_the_default() {
        for doc in [
            "samples: '4'\n",
            "samples: 4.5\n",
            "solver: 3\n",
            "publish_images: yes\n",
            "seed: 1.5\n",
            "experiment: [a]\n",
            "compute_seconds: fast\n",
            "fault_action: high\n",
        ] {
            let err = AppConfig::from_yaml(doc).unwrap_err();
            assert!(err.0.contains(" must be "), "{doc:?}: {err}");
        }
        let c = AppConfig::from_yaml("samples: ~\nsolver:\nmatch_threshold: null\n").unwrap();
        assert_eq!(
            (c.sample_budget, c.solver, c.match_threshold),
            (128, SolverKind::Genetic, None)
        );
    }

    #[test]
    fn fault_keys_make_one_uniform_plan() {
        for doc in [
            "fault_reception: 0.1\nfault_action: 0.05\n",
            "fault_action: 0.05\nfault_reception: 0.1\n",
        ] {
            let c = AppConfig::from_yaml(doc).unwrap();
            assert_eq!(c.faults.rates_for("ot2"), FaultRates::new(0.1, 0.05));
        }
        let c = AppConfig::from_yaml("fault_action: 0.2\n").unwrap();
        assert_eq!(c.faults.rates_for("pf400"), FaultRates::new(0.0, 0.2));
        // Zero rates are no plan at all.
        let mut c = AppConfig::from_yaml("fault_reception: 0.0\nfault_action: 0\n").unwrap();
        assert!(c.faults.is_null());
        c.set("fault_reception", &Value::Float(0.3)).unwrap();
        c.set("fault_reception", &Value::Float(0.0)).unwrap();
        assert!(c.faults.is_null() && c.to_value().get("fault_reception").is_none());
        for bad in ["fault_reception: 1.5\n", "fault_action: -0.1\n"] {
            assert!(AppConfig::from_yaml(bad).unwrap_err().0.contains("must be in [0, 1]"));
        }
    }

    #[test]
    fn seeds_above_i64_max_round_trip_as_negative_ints() {
        let c = AppConfig { seed: u64::MAX - 5, ..AppConfig::default() };
        assert_eq!(c.to_value().get("seed"), Some(&Value::Int(-6)));
        assert_eq!(AppConfig::from_value(&c.to_value()).unwrap().seed, u64::MAX - 5);
        assert_eq!(AppConfig::from_yaml("seed: -1\n").unwrap().seed, u64::MAX);
        let mut c = AppConfig::default();
        c.set_text("seed", "18446744073709551615").unwrap();
        assert_eq!(c.seed, u64::MAX);
        // The command line takes seeds as written: no sign, no wrap.
        for bad in ["-1", "18446744073709551616", "1.5", ""] {
            assert!(c.set_text("seed", bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn command_line_text_reads_like_a_document_value() {
        let mut c = AppConfig::default();
        c.set_text("samples", "4").unwrap();
        c.set_text("batch", "2").unwrap();
        c.set_text("target", "10, 20,30").unwrap();
        c.set_text("fidelity", "lowres").unwrap();
        c.set_text("solver", "bayes").unwrap();
        assert_eq!((c.sample_budget, c.batch, c.target), (4, 2, Rgb8::new(10, 20, 30)));
        assert_eq!((c.fidelity, c.solver), (Fidelity::Lowres, SolverKind::Bayesian));
        for (key, bad) in [
            ("samples", "0"),
            ("batch", "0"),
            ("samples", "abc"),
            ("samples", "4294967297"),
            ("target", "1,2"),
            ("target", "300,0,0"),
            ("fidelity", "hd"),
            ("solver", ""),
            ("solver", "#genetic"),
        ] {
            assert!(c.set_text(key, bad).is_err(), "{key} {bad:?}");
        }
        assert_eq!(c.set_text("solver", "").unwrap_err().0, "solver needs a value");
    }

    #[test]
    fn a_builtin_solver_clears_a_custom_one() {
        sdl_solvers::register_solver("config-clear-test", |dims| {
            Box::new(sdl_solvers::RandomSolver::new(dims))
        });
        let mut c = AppConfig::from_yaml("solver: config-clear-test\n").unwrap();
        assert_eq!(c.solver_label(), "config-clear-test");
        c.set("solver", &Value::from("bayesian")).unwrap();
        assert_eq!((c.custom_solver.as_deref(), c.solver_label()), (None, "bayesian"));
        assert_eq!(c.build_solver(4).unwrap().name(), "bayesian");
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
