//! Scenario specifications and the declarative campaign matrix.

use crate::backend::BackendSpec;
use crate::config::{AppConfig, ConfigError};
use sdl_color::{MixKind, Objective, Rgb8};
use sdl_conf::{from_yaml, Value, ValueExt};
use sdl_desim::{FaultPlan, FaultRates, RngHub};
use sdl_solvers::SolverKind;
use sdl_vision::{DriftSpec, Fidelity};

/// How a scenario exercises the workcell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The single closed-loop application (paper Figure 2).
    Single,
    /// The §4 future-work configuration: `n` OT-2s sharing one budget.
    MultiOt2(usize),
}

impl RunMode {
    /// Decode from the `n_ot2` config field. A *present* key always selects
    /// the multi-OT2 flow engine (even for one handler, which is a valid
    /// configuration of that engine); the single-loop app is encoded by the
    /// key's absence, so every mode round-trips.
    fn from_i64(n: i64) -> Result<RunMode, ConfigError> {
        if n >= 1 {
            Ok(RunMode::MultiOt2(n as usize))
        } else {
            Err(ConfigError(format!("n_ot2 must be >= 1, got {n}")))
        }
    }
}

/// One fully specified experiment inside a campaign: target color × solver
/// × seed × batch × sample budget × workcell configuration × fault profile.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Label used in reports and portal records.
    pub label: String,
    /// The full application configuration (workcell, faults, dyes included).
    pub config: AppConfig,
    /// Execution mode.
    pub mode: RunMode,
    /// Which lab executor runs the scenario (`sim`, `remote:<url>`,
    /// `replay:<path>`).
    pub backend: BackendSpec,
}

impl ScenarioSpec {
    /// A single-loop scenario.
    pub fn new(label: impl Into<String>, config: AppConfig) -> ScenarioSpec {
        ScenarioSpec {
            label: label.into(),
            config,
            mode: RunMode::Single,
            backend: BackendSpec::Sim,
        }
    }

    /// A multi-OT2 scenario with `n` liquid handlers.
    pub fn multi_ot2(label: impl Into<String>, config: AppConfig, n: usize) -> ScenarioSpec {
        assert!(n >= 1, "multi_ot2 needs at least one handler");
        ScenarioSpec {
            label: label.into(),
            config,
            mode: RunMode::MultiOt2(n),
            backend: BackendSpec::Sim,
        }
    }

    /// Builder: replace the lab executor.
    pub fn with_backend(mut self, backend: BackendSpec) -> ScenarioSpec {
        self.backend = backend;
        self
    }

    /// Encode as an `sdl-conf` value tree (the inverse of
    /// [`Self::from_value`]): `n_ot2` is present exactly when the scenario
    /// uses the multi-OT2 engine, so `MultiOt2(1)` and `Single` stay
    /// distinct through the round trip.
    pub fn to_value(&self) -> Value {
        let mut v = self.config.to_value();
        v.set("label", self.label.as_str());
        if let RunMode::MultiOt2(n) = self.mode {
            v.set("n_ot2", n as i64);
        }
        if self.backend != BackendSpec::Sim {
            v.set("backend", self.backend.to_string().as_str());
        }
        v
    }

    /// Decode a scenario from its `sdl-conf` form.
    pub fn from_value(v: &Value) -> Result<ScenarioSpec, ConfigError> {
        let config = AppConfig::from_value(v)?;
        let mode = match v.opt_i64("n_ot2") {
            Some(n) => RunMode::from_i64(n)?,
            None => RunMode::Single,
        };
        let backend = match v.opt_str("backend") {
            Some(s) => BackendSpec::parse(s)?,
            None => BackendSpec::Sim,
        };
        let label =
            v.opt_str("label").map(str::to_string).unwrap_or_else(|| config.experiment_id());
        Ok(ScenarioSpec { label, config, mode, backend })
    }

    /// Parse one scenario from a YAML document.
    pub fn from_yaml(src: &str) -> Result<ScenarioSpec, ConfigError> {
        let doc = from_yaml(src).map_err(|e| ConfigError(e.to_string()))?;
        ScenarioSpec::from_value(&doc)
    }
}

/// The most scenarios one campaign document may expand to.
const MAX_SCENARIOS: usize = 100_000;

/// The matrix axes [`CampaignConfig::scenarios`] crosses.
const AXES: [&str; 10] = [
    "solvers",
    "batches",
    "targets",
    "mix_models",
    "fidelities",
    "objectives",
    "drifts",
    "fault_rates",
    "n_ot2",
    "seeds",
];

/// The campaign keys that are not axes.
const SETTINGS: [&str; 5] = ["name", "backend", "threads", "workers", "shard"];

/// The number of scenarios `doc` expands to, `None` past `usize::MAX`: the
/// product of its axis lengths, where `seeds: N` counts N and an absent or
/// empty axis counts once.
fn scenario_count(doc: &Value) -> Option<usize> {
    AXES.iter().try_fold(1usize, |count, &key| {
        let len = match doc.get(key) {
            Some(Value::Int(n)) if key == "seeds" => usize::try_from(*n).unwrap_or(0),
            Some(v) => v.as_seq().map_or(0, <[Value]>::len),
            None => 0,
        };
        count.checked_mul(len.max(1))
    })
}

/// The error for an unknown campaign key, naming the closest known key
/// within edit distance 2.
fn unknown_key(key: &str) -> ConfigError {
    let closest = AppConfig::KEYS
        .iter()
        .chain(&AXES)
        .chain(&SETTINGS)
        .map(|known| (edit_distance(key, known), *known))
        .filter(|&(d, _)| d <= 2)
        .min();
    match closest {
        Some((_, known)) => {
            ConfigError(format!("unknown campaign key '{key}' (did you mean '{known}'?)"))
        }
        None => ConfigError(format!("unknown campaign key '{key}'")),
    }
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

/// A declarative scenario matrix: every combination of the listed axes
/// becomes one [`ScenarioSpec`]. Axes left unspecified use the base
/// configuration's value, so a config that lists nothing describes exactly
/// one scenario.
///
/// ```yaml
/// name: solver-study
/// samples: 64
/// seed: 42            # master seed
/// solvers: [genetic, bayesian]
/// seeds: 8            # 8 per-scenario seeds derived from the master seed
/// batches: [1, 4]
/// targets: [[120, 120, 120], [200, 200, 200]]
/// objectives: [rgb, ciede2000]
/// drifts: [none, wb+gain]
/// fault_rates: [0.0, 0.05]
/// threads: 8
/// ```
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign name (used in labels and the portal campaign record).
    pub name: String,
    /// Base configuration each scenario starts from.
    pub base: AppConfig,
    /// Solver axis.
    pub solvers: Vec<SolverKind>,
    /// Seed axis (explicit values, or derived from the master seed).
    pub seeds: Vec<u64>,
    /// Batch-size axis.
    pub batches: Vec<u32>,
    /// Target-color axis.
    pub targets: Vec<Rgb8>,
    /// Mixing-model axis.
    pub mix_models: Vec<MixKind>,
    /// Camera-fidelity axis (`full` / `fast` / `lowres`), the
    /// resolution/render-path sweep.
    pub fidelities: Vec<Fidelity>,
    /// Objective axis (the perceptual-loss sweep: `rgb`, `cie76`, `cie94`,
    /// `ciede2000`, `cam16ucs`).
    pub objectives: Vec<Objective>,
    /// Illumination-drift axis; a `none` entry means a stable illuminant.
    pub drifts: Vec<Option<DriftSpec>>,
    /// Uniform command-fault-rate axis (reception rate; action = half).
    pub fault_rates: Vec<f64>,
    /// OT-2-count axis (1 = the single-loop app).
    pub n_ot2: Vec<usize>,
    /// Lab executor every scenario runs on (`sim`, `remote:<url>`,
    /// `replay:<path>`).
    pub backend: BackendSpec,
    /// Worker threads (None = one per core).
    pub threads: Option<usize>,
    /// Remote worker pool (`host:port` addresses). Non-empty selects the
    /// distributed [`CampaignScheduler`](crate::CampaignScheduler) instead
    /// of the thread-pool runner.
    pub workers: Vec<String>,
    /// Scheduler shard size (scenarios per deal unit; None = automatic).
    pub shard: Option<usize>,
}

impl CampaignConfig {
    /// A single-axis campaign around `base` (everything fixed).
    pub fn single(name: impl Into<String>, base: AppConfig) -> CampaignConfig {
        CampaignConfig {
            name: name.into(),
            base,
            solvers: Vec::new(),
            seeds: Vec::new(),
            batches: Vec::new(),
            targets: Vec::new(),
            mix_models: Vec::new(),
            fidelities: Vec::new(),
            objectives: Vec::new(),
            drifts: Vec::new(),
            fault_rates: Vec::new(),
            n_ot2: Vec::new(),
            backend: BackendSpec::Sim,
            threads: None,
            workers: Vec::new(),
            shard: None,
        }
    }

    /// Parse a campaign document.
    pub fn from_yaml(src: &str) -> Result<CampaignConfig, ConfigError> {
        let doc = from_yaml(src).map_err(|e| ConfigError(e.to_string()))?;
        CampaignConfig::from_value(&doc)
    }

    /// Decode from an `sdl-conf` value tree. Refuses a key that is neither
    /// an [`AppConfig`] key nor a campaign key, and a matrix of more than
    /// 100,000 scenarios, before allocating any of it.
    pub fn from_value(doc: &Value) -> Result<CampaignConfig, ConfigError> {
        for (key, _) in doc.as_map().unwrap_or_default() {
            let key = key.as_str();
            if !(AppConfig::KEYS.contains(&key) || AXES.contains(&key) || SETTINGS.contains(&key)) {
                return Err(unknown_key(key));
            }
        }
        let count = scenario_count(doc);
        if count.is_none_or(|n| n > MAX_SCENARIOS) {
            let count =
                count.map_or_else(|| format!("more than {}", usize::MAX), |n| n.to_string());
            return Err(ConfigError(format!(
                "campaign expands to {count} scenarios, above the limit of {MAX_SCENARIOS}"
            )));
        }
        let base = AppConfig::from_value(doc)?;
        let mut cfg =
            CampaignConfig::single(doc.opt_str("name").unwrap_or("campaign").to_string(), base);

        // Axis keys must be sequences when present; a scalar is a user
        // mistake that must not silently drop the whole axis.
        let axis = |key: &'static str| -> Result<Option<&[Value]>, ConfigError> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => Ok(Some(v.as_seq().ok_or_else(|| {
                    ConfigError(format!("{key} must be a list, got {}", v.type_name()))
                })?)),
            }
        };

        if let Some(seq) = axis("solvers")? {
            for s in seq {
                let name = s
                    .as_str()
                    .ok_or_else(|| ConfigError("solvers entries must be names".into()))?;
                cfg.solvers.push(SolverKind::parse(name).ok_or_else(|| {
                    ConfigError(format!(
                        "unknown solver '{name}' (valid: {})",
                        SolverKind::valid_names()
                    ))
                })?);
            }
        }
        match doc.get("seeds") {
            Some(Value::Int(count)) => {
                // A bare count derives per-scenario seed streams from the
                // master seed, so the whole campaign remains a pure function
                // of the document.
                if *count <= 0 {
                    return Err(ConfigError("seeds count must be positive".into()));
                }
                let hub = RngHub::new(cfg.base.seed);
                cfg.seeds = (0..*count as u64)
                    .map(|i| hub.child("campaign.seed", i).master_seed())
                    .collect();
            }
            Some(Value::Seq(seq)) => {
                for s in seq {
                    let v = s.as_i64().filter(|v| *v >= 0).ok_or_else(|| {
                        ConfigError("seeds entries must be non-negative integers".into())
                    })?;
                    cfg.seeds.push(v as u64);
                }
            }
            Some(other) => {
                return Err(ConfigError(format!(
                    "seeds must be a count or a list, got {}",
                    other.type_name()
                )))
            }
            None => {}
        }
        if let Some(seq) = axis("batches")? {
            for b in seq {
                let v = b.as_i64().filter(|v| *v > 0).ok_or_else(|| {
                    ConfigError("batches entries must be positive integers".into())
                })?;
                cfg.batches.push(v as u32);
            }
        }
        if let Some(seq) = axis("targets")? {
            for t in seq {
                cfg.targets.push(crate::config::parse_rgb_triple(t, "targets entry")?);
            }
        }
        if let Some(seq) = axis("mix_models")? {
            for m in seq {
                let name = m
                    .as_str()
                    .ok_or_else(|| ConfigError("mix_models entries must be names".into()))?;
                cfg.mix_models.push(
                    MixKind::parse(name)
                        .ok_or_else(|| ConfigError(format!("unknown mix model '{name}'")))?,
                );
            }
        }
        if let Some(seq) = axis("fidelities")? {
            for f in seq {
                let name = f
                    .as_str()
                    .ok_or_else(|| ConfigError("fidelities entries must be names".into()))?;
                cfg.fidelities.push(Fidelity::parse(name).ok_or_else(|| {
                    ConfigError(format!(
                        "unknown fidelity '{name}' (valid: {})",
                        Fidelity::valid_names()
                    ))
                })?);
            }
        }
        if let Some(seq) = axis("objectives")? {
            for o in seq {
                let name = o
                    .as_str()
                    .ok_or_else(|| ConfigError("objectives entries must be names".into()))?;
                cfg.objectives.push(Objective::parse(name).ok_or_else(|| {
                    ConfigError(format!(
                        "unknown objective '{name}' (valid: {})",
                        Objective::valid_names()
                    ))
                })?);
            }
        }
        if let Some(seq) = axis("drifts")? {
            for d in seq {
                let name =
                    d.as_str().ok_or_else(|| ConfigError("drifts entries must be names".into()))?;
                if name == "none" {
                    cfg.drifts.push(None);
                } else {
                    cfg.drifts.push(Some(DriftSpec::parse(name).ok_or_else(|| {
                        ConfigError(format!(
                            "unknown drift '{name}' (valid: none, {})",
                            DriftSpec::valid_names()
                        ))
                    })?));
                }
            }
        }
        if let Some(seq) = axis("fault_rates")? {
            for r in seq {
                let v = r
                    .as_f64()
                    .filter(|v| (0.0..=1.0).contains(v))
                    .ok_or_else(|| ConfigError("fault_rates entries must be in [0, 1]".into()))?;
                cfg.fault_rates.push(v);
            }
        }
        if let Some(seq) = axis("n_ot2")? {
            for n in seq {
                let v = n
                    .as_i64()
                    .filter(|v| *v >= 1)
                    .ok_or_else(|| ConfigError("n_ot2 entries must be >= 1".into()))?;
                cfg.n_ot2.push(v as usize);
            }
        }
        if let Some(b) = doc.opt_str("backend") {
            cfg.backend = BackendSpec::parse(b)?;
        }
        if let Some(t) = doc.opt_i64("threads") {
            if t < 1 {
                return Err(ConfigError("threads must be positive".into()));
            }
            cfg.threads = Some(t as usize);
        }
        if let Some(seq) = axis("workers")? {
            for w in seq {
                let addr = w
                    .as_str()
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .ok_or_else(|| ConfigError("workers entries must be addresses".into()))?;
                cfg.workers.push(addr.to_string());
            }
        }
        if let Some(s) = doc.opt_i64("shard") {
            if s < 1 {
                return Err(ConfigError("shard must be positive".into()));
            }
            cfg.shard = Some(s as usize);
        }
        Ok(cfg)
    }

    /// Expand the matrix into concrete scenarios (row-major over the axes in
    /// declaration order: solver, batch, target, mix model, fidelity,
    /// objective, drift, fault rate, OT-2 count, seed).
    pub fn scenarios(&self) -> Vec<ScenarioSpec> {
        // An unspecified axis contributes exactly the base value.
        let solvers =
            if self.solvers.is_empty() { vec![self.base.solver] } else { self.solvers.clone() };
        let batches =
            if self.batches.is_empty() { vec![self.base.batch] } else { self.batches.clone() };
        let targets =
            if self.targets.is_empty() { vec![self.base.target] } else { self.targets.clone() };
        let mixes =
            if self.mix_models.is_empty() { vec![self.base.mix] } else { self.mix_models.clone() };
        let fidelities = if self.fidelities.is_empty() {
            vec![self.base.fidelity]
        } else {
            self.fidelities.clone()
        };
        let objectives = if self.objectives.is_empty() {
            vec![self.base.objective]
        } else {
            self.objectives.clone()
        };
        let drifts: Vec<Option<DriftSpec>> =
            if self.drifts.is_empty() { vec![self.base.drift] } else { self.drifts.clone() };
        let faults: Vec<Option<f64>> = if self.fault_rates.is_empty() {
            vec![None]
        } else {
            self.fault_rates.iter().copied().map(Some).collect()
        };
        let handlers = if self.n_ot2.is_empty() { vec![1usize] } else { self.n_ot2.clone() };
        let seeds = if self.seeds.is_empty() { vec![self.base.seed] } else { self.seeds.clone() };

        // The full cross product is a 10-deep loop; iterate the flattened
        // index space instead and decode row-major (seed fastest), matching
        // the declaration order above.
        let dims = [
            solvers.len(),
            batches.len(),
            targets.len(),
            mixes.len(),
            fidelities.len(),
            objectives.len(),
            drifts.len(),
            faults.len(),
            handlers.len(),
            seeds.len(),
        ];
        let total: usize = dims.iter().product();
        let mut out = Vec::with_capacity(total);
        for flat in 0..total {
            let mut idx = [0usize; 10];
            let mut rest = flat;
            for (slot, &dim) in idx.iter_mut().zip(&dims).rev() {
                *slot = rest % dim;
                rest /= dim;
            }
            let [si, bi, ti, mi, fi, oi, di, fri, ni, sdi] = idx;
            let (solver, batch, target) = (solvers[si], batches[bi], targets[ti]);
            let (mix, fidelity) = (mixes[mi], fidelities[fi]);
            let (objective, drift) = (objectives[oi], drifts[di]);
            let (fault, n, seed) = (faults[fri], handlers[ni], seeds[sdi]);

            let mut config = self.base.clone();
            config.solver = solver;
            config.batch = batch;
            config.target = target;
            config.mix = mix;
            config.fidelity = fidelity;
            config.objective = objective;
            config.drift = drift;
            config.seed = seed;
            if let Some(rate) = fault {
                config.faults = FaultPlan::uniform(FaultRates::new(rate, rate / 2.0));
            }
            let mut label = format!("{}/b{}", solver.name(), batch);
            if targets.len() > 1 {
                label.push_str(&format!("/t{target}"));
            }
            if mixes.len() > 1 {
                label.push_str(&format!("/{}", mix.name()));
            }
            if fidelities.len() > 1 {
                label.push_str(&format!("/{fidelity}"));
            }
            if objectives.len() > 1 {
                label.push_str(&format!("/{}", objective.name()));
            }
            if drifts.len() > 1 {
                match drift {
                    Some(d) => label.push_str(&format!("/drift-{}", d.name())),
                    None => label.push_str("/no-drift"),
                }
            }
            if let Some(rate) = fault {
                label.push_str(&format!("/f{rate}"));
            }
            if handlers.len() > 1 || n > 1 {
                label.push_str(&format!("/ot2x{n}"));
            }
            label.push_str(&format!("/s{seed}"));
            let mode = if n == 1 { RunMode::Single } else { RunMode::MultiOt2(n) };
            out.push(ScenarioSpec { label, config, mode, backend: self.backend.clone() });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_roundtrips_through_conf() {
        let mut config = AppConfig { sample_budget: 32, batch: 8, seed: 9, ..AppConfig::default() };
        config.solver = SolverKind::Bayesian;
        config.faults = FaultPlan::uniform(FaultRates::new(0.1, 0.05));
        let spec = ScenarioSpec::multi_ot2("dual", config, 2);
        let back = ScenarioSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back.label, "dual");
        assert_eq!(back.mode, RunMode::MultiOt2(2));
        assert_eq!(back.config.sample_budget, 32);
        assert_eq!(back.config.solver, SolverKind::Bayesian);
        assert_eq!(back.config.faults.rates_for("ot2"), FaultRates::new(0.1, 0.05));
    }

    #[test]
    fn backend_axis_roundtrips_through_conf() {
        let spec = ScenarioSpec::new("rem", AppConfig::default())
            .with_backend(BackendSpec::Remote("127.0.0.1:9".into()));
        let back = ScenarioSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back.backend, BackendSpec::Remote("127.0.0.1:9".into()));
        // The default backend stays implicit in the encoded form.
        let plain = ScenarioSpec::new("sim", AppConfig::default());
        assert!(plain.to_value().opt_str("backend").is_none());
        assert_eq!(ScenarioSpec::from_value(&plain.to_value()).unwrap().backend, BackendSpec::Sim);
    }

    #[test]
    fn campaign_backend_field_applies_to_every_scenario() {
        let cfg = CampaignConfig::from_yaml(
            "samples: 8\nbackend: 'remote:127.0.0.1:9'\nbatches: [1, 2]\n",
        )
        .unwrap();
        let scenarios = cfg.scenarios();
        assert_eq!(scenarios.len(), 2);
        assert!(scenarios.iter().all(|s| s.backend == BackendSpec::Remote("127.0.0.1:9".into())));
        assert!(CampaignConfig::from_yaml("backend: quantum\n").is_err());
    }

    #[test]
    fn single_handler_multi_mode_roundtrips() {
        // MultiOt2(1) is a real configuration of the flow engine (not the
        // single-loop app) and must survive the conf round trip.
        let spec = ScenarioSpec::multi_ot2("solo", AppConfig::default(), 1);
        let back = ScenarioSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back.mode, RunMode::MultiOt2(1));
    }

    #[test]
    fn scalar_axis_values_are_rejected() {
        for doc in [
            "n_ot2: 2\n",
            "batches: 4\n",
            "solvers: genetic\n",
            "fault_rates: 0.1\n",
            "targets: 3\n",
        ] {
            assert!(CampaignConfig::from_yaml(doc).is_err(), "accepted scalar axis: {doc}");
        }
    }

    #[test]
    fn fidelity_axis_expands_and_roundtrips() {
        let cfg = CampaignConfig::from_yaml(
            "name: fid\nsamples: 8\nfidelities: [full, fast, lowres]\nseeds: [1, 2]\n",
        )
        .unwrap();
        assert_eq!(cfg.fidelities, vec![Fidelity::Full, Fidelity::Fast, Fidelity::Lowres]);
        let scenarios = cfg.scenarios();
        assert_eq!(scenarios.len(), 6);
        for f in Fidelity::ALL {
            assert_eq!(scenarios.iter().filter(|s| s.config.fidelity == f).count(), 2);
            assert!(scenarios.iter().any(|s| s.label.contains(f.name())), "label axis tag");
        }
        // Scenario specs carry the profile through the conf round trip.
        let back = ScenarioSpec::from_value(&scenarios[0].to_value()).unwrap();
        assert_eq!(back.config.fidelity, scenarios[0].config.fidelity);
        // Bad names are rejected, scalars too.
        assert!(CampaignConfig::from_yaml("fidelities: [hd]\n").is_err());
        assert!(CampaignConfig::from_yaml("fidelities: fast\n").is_err());
        // The base `fidelity:` key seeds an unlisted axis.
        let cfg = CampaignConfig::from_yaml("fidelity: lowres\nbatches: [1, 2]\n").unwrap();
        assert!(cfg.scenarios().iter().all(|s| s.config.fidelity == Fidelity::Lowres));
    }

    #[test]
    fn objective_and_drift_axes_expand_and_roundtrip() {
        let cfg = CampaignConfig::from_yaml(
            "name: stress\nsamples: 8\nobjectives: [rgb, ciede2000]\ndrifts: [none, wb+gain]\n",
        )
        .unwrap();
        assert_eq!(cfg.objectives, vec![Objective::Rgb, Objective::Ciede2000]);
        assert_eq!(cfg.drifts, vec![None, Some(DriftSpec::WB_GAIN)]);
        let scenarios = cfg.scenarios();
        assert_eq!(scenarios.len(), 4);
        // Axis tags appear only when the axis is actually swept.
        assert!(scenarios.iter().any(|s| s.label.contains("/ciede2000")));
        assert!(scenarios.iter().any(|s| s.label.contains("/no-drift")));
        assert!(scenarios.iter().any(|s| s.label.contains("/drift-wb+gain")));
        // Specs carry the new fields through the conf round trip.
        for s in &scenarios {
            let back = ScenarioSpec::from_value(&s.to_value()).unwrap();
            assert_eq!(back.config.objective, s.config.objective);
            assert_eq!(back.config.drift, s.config.drift);
        }
        // An unswept campaign keeps the historical label shape.
        let plain = CampaignConfig::from_yaml("samples: 8\nbatches: [1, 2]\n").unwrap();
        assert!(plain.scenarios().iter().all(|s| !s.label.contains("drift")));
        // Bad entries and scalar axes are rejected.
        assert!(CampaignConfig::from_yaml("objectives: [vibes]\n").is_err());
        assert!(CampaignConfig::from_yaml("drifts: [vibes]\n").is_err());
        assert!(CampaignConfig::from_yaml("objectives: rgb\n").is_err());
        assert!(CampaignConfig::from_yaml("drifts: none\n").is_err());
    }

    #[test]
    fn matrix_expands_the_product() {
        let cfg = CampaignConfig::from_yaml(
            "name: m\nsamples: 8\nsolvers: [genetic, random]\nseeds: [1, 2, 3]\nbatches: [1, 4]\n",
        )
        .unwrap();
        let scenarios = cfg.scenarios();
        assert_eq!(scenarios.len(), 2 * 3 * 2);
        assert!(scenarios.iter().all(|s| s.config.sample_budget == 8));
        // Labels are unique.
        let labels: std::collections::HashSet<&str> =
            scenarios.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels.len(), scenarios.len());
    }

    #[test]
    fn seed_count_derives_from_master_seed() {
        let a = CampaignConfig::from_yaml("seed: 5\nseeds: 4\n").unwrap();
        let b = CampaignConfig::from_yaml("seed: 5\nseeds: 4\n").unwrap();
        let c = CampaignConfig::from_yaml("seed: 6\nseeds: 4\n").unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_ne!(a.seeds, c.seeds);
        assert_eq!(a.seeds.len(), 4);
    }

    #[test]
    fn empty_matrix_is_one_scenario() {
        let cfg = CampaignConfig::from_yaml("samples: 16\n").unwrap();
        assert_eq!(cfg.scenarios().len(), 1);
        assert_eq!(cfg.scenarios()[0].mode, RunMode::Single);
    }

    #[test]
    fn unknown_keys_are_rejected_with_a_hint() {
        let err = CampaignConfig::from_yaml("samples: 8\nfidelites: [fast]\n").unwrap_err();
        assert!(err.0.contains("'fidelites'") && err.0.contains("'fidelities'"), "{err}");
        let err = CampaignConfig::from_yaml("colour: red\n").unwrap_err();
        assert_eq!(err.0, "unknown campaign key 'colour'");
        assert_eq!(edit_distance("fidelites", "fidelities"), 1);
        assert_eq!(edit_distance("", "seed"), 4);
        assert_eq!(edit_distance("batch", "batches"), 2);
    }

    #[test]
    fn oversized_matrices_are_refused_before_allocating() {
        let err = CampaignConfig::from_yaml("seeds: 2000000000\n").unwrap_err();
        assert!(err.0.contains("2000000000 scenarios") && err.0.contains("100000"), "{err}");
        // 20000 seeds x 20 batches x 5 solvers: a short document, 2M scenarios.
        let batches: Vec<String> = (1..=20).map(|b| b.to_string()).collect();
        let doc = format!(
            "samples: 8\nsolvers: [genetic, bayesian, random, grid, annealing]\n\
             batches: [{}]\nseeds: 20000\n",
            batches.join(", ")
        );
        let err = CampaignConfig::from_yaml(&doc).unwrap_err();
        assert!(err.0.contains("2000000 scenarios"), "{err}");
        let huge = "seeds: 9223372036854775807\nbatches: [1, 2, 3]\n";
        assert!(CampaignConfig::from_yaml(huge).unwrap_err().0.contains("more than"));
        // The README's 576-scenario matrix is well inside the limit.
        let readme = "name: solver-study\nsamples: 64\nseed: 42\n\
                      solvers: [genetic, bayesian, random]\nseeds: 32\n\
                      batches: [1, 4, 16]\nfault_rates: [0.0, 0.05]\n";
        assert_eq!(CampaignConfig::from_yaml(readme).unwrap().scenarios().len(), 576);
    }

    #[test]
    fn bad_axis_entries_are_rejected() {
        assert!(CampaignConfig::from_yaml("solvers: [quantum]\n").is_err());
        assert!(CampaignConfig::from_yaml("fault_rates: [2.0]\n").is_err());
        assert!(CampaignConfig::from_yaml("targets: [[1, 2]]\n").is_err());
        assert!(CampaignConfig::from_yaml("seeds: 0\n").is_err());
        assert!(CampaignConfig::from_yaml("n_ot2: [0]\n").is_err());
    }
}
