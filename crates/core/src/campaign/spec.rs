//! Scenario specifications and the declarative campaign matrix.

use crate::backend::BackendSpec;
use crate::config::{entries, positive_u32, string, unknown_key, AppConfig, ConfigError};
use sdl_conf::{from_yaml, Value};
use sdl_desim::RngHub;
use std::fmt::{self, Write as _};

/// How a scenario exercises the workcell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The single closed-loop application (paper Figure 2).
    Single,
    /// The §4 future-work configuration: `n` OT-2s sharing one budget.
    MultiOt2(usize),
}

/// A list-valued key: a scalar is a mistake that must not silently drop the
/// whole axis.
fn list<'v>(key: &str, v: &'v Value) -> Result<&'v [Value], ConfigError> {
    v.as_seq().ok_or_else(|| ConfigError(format!("{key} must be a list, got {}", v.type_name())))
}

/// One row of the campaign matrix: the campaign key, how one of its
/// entries sets a scenario, and the tag that entry adds to the label.
struct Axis {
    key: &'static str,
    set: fn(&mut ScenarioSpec, &Value) -> Result<(), ConfigError>,
    /// Append the label tag, given the scenario, its entry of this axis
    /// (`None` when unswept) and the number of entries the axis lists.
    tag: fn(&mut String, &ScenarioSpec, Option<&Value>, usize) -> fmt::Result,
}

/// The matrix axes in cross-product order: solver slowest, seed fastest.
/// Each maps a campaign key onto the [`AppConfig`] key (or keys) it sets.
const AXES: [Axis; 10] = [
    Axis {
        key: "solvers",
        set: |s, v| s.config.set("solver", v),
        tag: |label, s, _, _| label.write_str(s.config.solver_label()),
    },
    Axis {
        key: "batches",
        set: |s, v| s.config.set("batch", v),
        tag: |label, s, _, _| write!(label, "/b{}", s.config.batch),
    },
    Axis {
        key: "targets",
        set: |s, v| s.config.set("target", v),
        tag: |label, s, _, n| if n > 1 { write!(label, "/t{}", s.config.target) } else { Ok(()) },
    },
    Axis {
        key: "mix_models",
        set: |s, v| s.config.set("mix_model", v),
        tag: |label, s, _, n| {
            if n > 1 {
                write!(label, "/{}", s.config.mix.name())
            } else {
                Ok(())
            }
        },
    },
    Axis {
        key: "fidelities",
        set: |s, v| s.config.set("fidelity", v),
        tag: |label, s, _, n| if n > 1 { write!(label, "/{}", s.config.fidelity) } else { Ok(()) },
    },
    Axis {
        key: "objectives",
        set: |s, v| s.config.set("objective", v),
        tag: |label, s, _, n| {
            if n > 1 {
                write!(label, "/{}", s.config.objective.name())
            } else {
                Ok(())
            }
        },
    },
    // `none` is a stable illuminant here; a document's `drift: none` is
    // refused.
    Axis {
        key: "drifts",
        set: |s, v| match v.as_str() {
            Some("none") => {
                s.config.drift = None;
                Ok(())
            }
            _ => s.config.set("drift", v),
        },
        tag: |label, s, _, n| match s.config.drift {
            _ if n <= 1 => Ok(()),
            Some(d) => write!(label, "/drift-{}", d.name()),
            None => label.write_str("/no-drift"),
        },
    },
    // One uniform rate per entry: reception `r`, action `r / 2`.
    Axis {
        key: "fault_rates",
        set: |s, v| {
            s.config.set("fault_reception", v)?;
            s.config.set("fault_action", &Value::Float(v.as_f64().unwrap_or_default() / 2.0))
        },
        tag: |label, _, entry, _| match entry.and_then(Value::as_f64) {
            Some(rate) => write!(label, "/f{rate}"),
            None => Ok(()),
        },
    },
    // Not an `AppConfig` key: one handler is the single-loop app.
    Axis {
        key: "n_ot2",
        set: |s, v| {
            s.mode = match positive_u32("n_ot2", v)? {
                1 => RunMode::Single,
                n => RunMode::MultiOt2(n as usize),
            };
            Ok(())
        },
        tag: |label, s, _, n| {
            let handlers = match s.mode {
                RunMode::Single => 1,
                RunMode::MultiOt2(h) => h,
            };
            if n > 1 || handlers > 1 {
                write!(label, "/ot2x{handlers}")
            } else {
                Ok(())
            }
        },
    },
    Axis {
        key: "seeds",
        set: |s, v| s.config.set("seed", v),
        tag: |label, s, _, _| write!(label, "/s{}", s.config.seed),
    },
];

/// The `seeds` axis entries: a count derives that many seeds from the
/// master seed, so the whole campaign stays a pure function of the
/// document; a list gives them explicitly.
fn seed_entries(v: &Value, master: u64) -> Result<Vec<Value>, ConfigError> {
    match v {
        Value::Int(count) if *count <= 0 => Err(ConfigError("seeds count must be positive".into())),
        Value::Int(count) => {
            let hub = RngHub::new(master);
            Ok((0..*count as u64)
                .map(|i| Value::Int(hub.child("campaign.seed", i).master_seed() as i64))
                .collect())
        }
        Value::Seq(seq) => {
            if seq.iter().any(|s| s.as_i64().is_none_or(|s| s < 0)) {
                return Err(ConfigError("seeds entries must be non-negative integers".into()));
            }
            Ok(seq.clone())
        }
        other => {
            Err(ConfigError(format!("seeds must be a count or a list, got {}", other.type_name())))
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
    /// The keys a scenario document adds to the [`AppConfig`] keys.
    const KEYS: [&'static str; 3] = ["label", "n_ot2", "backend"];

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

    /// Decode a scenario from its `sdl-conf` form: the [`AppConfig`] keys
    /// plus `label`, `n_ot2` and `backend`. Refuses a document that is not
    /// a map and any other key.
    pub fn from_value(v: &Value) -> Result<ScenarioSpec, ConfigError> {
        let mut spec = ScenarioSpec::new("", AppConfig::default());
        let mut label = None;
        for (key, value) in entries(v, "scenario")? {
            match key {
                _ if AppConfig::KEYS.contains(&key) => spec.config.set(key, value)?,
                _ if !Self::KEYS.contains(&key) => {
                    return Err(unknown_key("scenario", key, &[&AppConfig::KEYS, &Self::KEYS]))
                }
                _ if value.is_null() => {}
                "label" => label = Some(string(key, value)?.to_string()),
                // A present key always selects the multi-OT2 engine, even
                // for one handler; the single-loop app is the key's absence.
                "n_ot2" => spec.mode = RunMode::MultiOt2(positive_u32(key, value)? as usize),
                _ => spec.backend = BackendSpec::parse(string(key, value)?)?,
            }
        }
        spec.label = label.unwrap_or_else(|| spec.config.experiment_id());
        Ok(spec)
    }

    /// Parse one scenario from a YAML document.
    pub fn from_yaml(src: &str) -> Result<ScenarioSpec, ConfigError> {
        let doc = from_yaml(src).map_err(|e| ConfigError(e.to_string()))?;
        ScenarioSpec::from_value(&doc)
    }
}

/// The most scenarios one campaign document may expand to.
const MAX_SCENARIOS: usize = 100_000;

/// The campaign keys that are neither axes nor [`AppConfig`] keys.
const SETTINGS: [&str; 5] = ["name", "backend", "threads", "workers", "shard"];

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
    /// Each axis's entries, in [`AXES`] order, checked when the document
    /// was parsed; an empty list leaves the axis unswept.
    axes: [Vec<Value>; 10],
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
    /// Parse a campaign document.
    pub fn from_yaml(src: &str) -> Result<CampaignConfig, ConfigError> {
        let doc = from_yaml(src).map_err(|e| ConfigError(e.to_string()))?;
        CampaignConfig::from_value(&doc)
    }

    /// Decode from an `sdl-conf` value tree. Refuses a document that is not
    /// a map, a key that is neither an [`AppConfig`] key nor a campaign
    /// key, and a matrix of more than 100,000 scenarios before allocating
    /// any of it. Every axis entry is checked here, once.
    pub fn from_value(doc: &Value) -> Result<CampaignConfig, ConfigError> {
        let mut cfg = CampaignConfig {
            name: "campaign".to_string(),
            base: AppConfig::default(),
            axes: Default::default(),
            backend: BackendSpec::Sim,
            threads: None,
            workers: Vec::new(),
            shard: None,
        };
        let mut listed: [Option<&Value>; 10] = [None; 10];
        for (key, value) in entries(doc, "campaign")? {
            if let Some(i) = AXES.iter().position(|axis| axis.key == key) {
                listed[i] = Some(value);
                continue;
            }
            match key {
                _ if AppConfig::KEYS.contains(&key) => cfg.base.set(key, value)?,
                _ if !SETTINGS.contains(&key) => {
                    let axes = AXES.map(|axis| axis.key);
                    return Err(unknown_key(
                        "campaign",
                        key,
                        &[&AppConfig::KEYS, &axes, &SETTINGS],
                    ));
                }
                "workers" => {
                    cfg.workers = list(key, value)?
                        .iter()
                        .map(|w| {
                            w.as_str()
                                .map(str::trim)
                                .filter(|a| !a.is_empty())
                                .map(str::to_string)
                                .ok_or_else(|| {
                                    ConfigError("workers entries must be addresses".into())
                                })
                        })
                        .collect::<Result<_, _>>()?;
                }
                _ if value.is_null() => {}
                "name" => cfg.name = string(key, value)?.to_string(),
                "backend" => cfg.backend = BackendSpec::parse(string(key, value)?)?,
                "threads" => cfg.threads = Some(positive_u32(key, value)? as usize),
                _ => cfg.shard = Some(positive_u32(key, value)? as usize),
            }
        }

        // The product of the axis lengths, where `seeds: N` counts N and an
        // absent or empty axis counts once; `None` past `usize::MAX`.
        let count = AXES.iter().zip(listed).try_fold(1usize, |count, (axis, value)| {
            let len = match value {
                Some(Value::Int(n)) if axis.key == "seeds" => usize::try_from(*n).unwrap_or(0),
                Some(v) => v.as_seq().map_or(0, <[Value]>::len),
                None => 0,
            };
            count.checked_mul(len.max(1))
        });
        if count.is_none_or(|n| n > MAX_SCENARIOS) {
            let count =
                count.map_or_else(|| format!("more than {}", usize::MAX), |n| n.to_string());
            return Err(ConfigError(format!(
                "campaign expands to {count} scenarios, above the limit of {MAX_SCENARIOS}"
            )));
        }

        let mut probe = ScenarioSpec::new("", cfg.base.clone());
        for ((axis, entries), value) in AXES.iter().zip(&mut cfg.axes).zip(listed) {
            let Some(value) = value else { continue };
            *entries = match axis.key {
                "seeds" => seed_entries(value, cfg.base.seed)?,
                key => list(key, value)?.to_vec(),
            };
            for entry in entries.iter() {
                if entry.is_null() {
                    return Err(ConfigError(format!("{} entries must not be null", axis.key)));
                }
                (axis.set)(&mut probe, entry)
                    .map_err(|e| ConfigError(format!("{} entry: {}", axis.key, e.0)))?;
            }
        }
        Ok(cfg)
    }

    /// Expand the matrix into concrete scenarios, row-major over the axes
    /// (solver, batch, target, mix model, fidelity, objective, drift, fault
    /// rate, OT-2 count, seed): each scenario is the base with one entry of
    /// every swept axis set.
    pub fn scenarios(&self) -> Vec<ScenarioSpec> {
        // An unswept axis counts once and keeps the base value.
        let dims = self.axes.each_ref().map(|entries| entries.len().max(1));
        let total: usize = dims.iter().product();
        let mut out = Vec::with_capacity(total);
        for flat in 0..total {
            let mut picks = [None; 10];
            let mut rest = flat;
            for ((pick, entries), dim) in picks.iter_mut().zip(&self.axes).zip(dims).rev() {
                *pick = entries.get(rest % dim);
                rest /= dim;
            }
            let mut spec = ScenarioSpec::new(String::new(), self.base.clone())
                .with_backend(self.backend.clone());
            for (axis, pick) in AXES.iter().zip(picks) {
                if let Some(entry) = pick {
                    (axis.set)(&mut spec, entry).expect("axis entries are checked when parsed");
                }
            }
            let mut label = String::new();
            for ((axis, entries), pick) in AXES.iter().zip(&self.axes).zip(picks) {
                (axis.tag)(&mut label, &spec, pick, entries.len())
                    .expect("writing to a String cannot fail");
            }
            spec.label = label;
            out.push(spec);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_color::Objective;
    use sdl_conf::ValueExt;
    use sdl_desim::{FaultPlan, FaultRates};
    use sdl_solvers::SolverKind;
    use sdl_vision::{DriftSpec, Fidelity};

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
        let scenarios = cfg.scenarios();
        assert_eq!(scenarios.len(), 6);
        let fidelities: Vec<Fidelity> = scenarios.iter().map(|s| s.config.fidelity).collect();
        assert_eq!(
            fidelities[..],
            [
                Fidelity::Full,
                Fidelity::Full,
                Fidelity::Fast,
                Fidelity::Fast,
                Fidelity::Lowres,
                Fidelity::Lowres
            ]
        );
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
        let scenarios = cfg.scenarios();
        assert_eq!(scenarios.len(), 4);
        let swept: Vec<_> =
            scenarios.iter().map(|s| (s.config.objective, s.config.drift)).collect();
        assert_eq!(
            swept,
            [
                (Objective::Rgb, None),
                (Objective::Rgb, Some(DriftSpec::WB_GAIN)),
                (Objective::Ciede2000, None),
                (Objective::Ciede2000, Some(DriftSpec::WB_GAIN)),
            ]
        );
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
        let seeds = |doc: &str| -> Vec<u64> {
            let cfg = CampaignConfig::from_yaml(doc).unwrap();
            cfg.scenarios().iter().map(|s| s.config.seed).collect()
        };
        let a = seeds("seed: 5\nseeds: 4\n");
        assert_eq!(a, seeds("seed: 5\nseeds: 4\n"));
        assert_ne!(a, seeds("seed: 6\nseeds: 4\n"));
        assert_eq!(a.len(), 4);
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
    fn scenario_and_campaign_documents_are_strict() {
        let err = ScenarioSpec::from_yaml("labl: x\n").unwrap_err();
        assert_eq!(err.0, "unknown scenario key 'labl' (did you mean 'label'?)");
        let err = CampaignConfig::from_yaml("sed: 4\n").unwrap_err();
        assert_eq!(err.0, "unknown campaign key 'sed' (did you mean 'seed'?)");
        for doc in ["42\n", "- samples\n"] {
            let err = ScenarioSpec::from_yaml(doc).unwrap_err();
            assert!(err.0.starts_with("a scenario document must be a map"), "{err}");
            let err = CampaignConfig::from_yaml(doc).unwrap_err();
            assert!(err.0.starts_with("a campaign document must be a map"), "{err}");
        }
        // Axis entries are checked once, at parse time, with the axis named.
        let err = CampaignConfig::from_yaml("solvers: [genetic, quantum]\n").unwrap_err();
        assert!(err.0.starts_with("solvers entry: unknown solver 'quantum'"), "{err}");
        let err = CampaignConfig::from_yaml("batches: [4, 4294967298]\n").unwrap_err();
        assert_eq!(err.0, "batches entry: batch must be in 1..=4294967295, got 4294967298");
        assert!(CampaignConfig::from_yaml("solvers: [null]\n").is_err());
        // `none` means "no drift" only as a drifts axis entry.
        assert!(CampaignConfig::from_yaml("drift: none\n").is_err());
        assert!(CampaignConfig::from_yaml("drifts: [none]\n").is_ok());
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
