//! Workcell configuration and instantiation.
//!
//! "A declarative YAML notation is used to specify how a workcell is
//! configured from a set of modules" (§2.2). [`WorkcellConfig`] is the
//! parsed document; [`Workcell`] is the live thing: instrument simulators
//! plus the shared [`World`].

use crate::error::WeiError;
use sdl_color::{DyeSet, MixKind};
use sdl_conf::{from_yaml, Value, ValueExt};
use sdl_instruments::{
    Barty, CameraGeometry, CameraSim, DriftSpec, Fidelity, Instrument, ModuleKind, Ot2, Pf400,
    ReservoirBank, SciClops, TimingModel, World,
};
use std::collections::BTreeMap;

/// One module entry of a workcell document.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleConfig {
    /// Instance name (unique in the workcell).
    pub name: String,
    /// Device class.
    pub kind: ModuleKind,
    /// Class-specific configuration subtree.
    pub config: Value,
}

/// A parsed workcell document.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkcellConfig {
    /// Workcell name.
    pub name: String,
    /// Modules in declaration order.
    pub modules: Vec<ModuleConfig>,
}

impl WorkcellConfig {
    /// Parse a workcell YAML document.
    pub fn from_yaml(src: &str) -> Result<WorkcellConfig, WeiError> {
        let doc = from_yaml(src)?;
        let name = doc.req_str("name")?.to_string();
        let mut modules = Vec::new();
        for m in doc.req_seq("modules")? {
            let mod_name = m.req_str("name")?.to_string();
            let type_name = m.req_str("type")?;
            let kind = ModuleKind::parse(type_name)
                .ok_or_else(|| WeiError::Invalid(format!("unknown module type '{type_name}'")))?;
            if modules.iter().any(|mc: &ModuleConfig| mc.name == mod_name) {
                return Err(WeiError::Invalid(format!("duplicate module name '{mod_name}'")));
            }
            modules.push(ModuleConfig {
                name: mod_name,
                kind,
                config: m.get("config").cloned().unwrap_or_else(Value::map),
            });
        }
        if modules.is_empty() {
            return Err(WeiError::Invalid(format!("workcell '{name}' has no modules")));
        }
        Ok(WorkcellConfig { name, modules })
    }

    /// Names of modules of a given kind.
    pub fn modules_of(&self, kind: ModuleKind) -> Vec<&str> {
        self.modules.iter().filter(|m| m.kind == kind).map(|m| m.name.as_str()).collect()
    }

    /// Default every camera module that does not specify its own
    /// `fidelity` to the given profile name. This is how an application
    /// config's camera-fidelity axis reaches the instantiated workcell: an
    /// explicit per-camera setting in the workcell document stays
    /// authoritative.
    pub fn default_camera_fidelity(&mut self, fidelity: &str) {
        use sdl_conf::ValueExt as _;
        for m in &mut self.modules {
            if m.kind == ModuleKind::Camera && m.config.opt_str("fidelity").is_none() {
                m.config.set("fidelity", fidelity);
            }
        }
    }

    /// Default every camera module that does not specify its own `drift`
    /// to the given drift profile and random-walk seed. The application
    /// config's illumination-drift axis reaches the instantiated workcell
    /// through here, mirroring [`WorkcellConfig::default_camera_fidelity`];
    /// an explicit per-camera setting in the workcell document stays
    /// authoritative.
    pub fn default_camera_drift(&mut self, drift: &str, seed: u64) {
        use sdl_conf::ValueExt as _;
        for m in &mut self.modules {
            if m.kind == ModuleKind::Camera && m.config.opt_str("drift").is_none() {
                m.config.set("drift", drift);
                m.config.set("drift_seed", seed as i64);
            }
        }
    }
}

/// A live workcell: instrument simulators over a shared world.
pub struct Workcell {
    /// The parsed configuration this cell was built from.
    pub config: WorkcellConfig,
    /// Shared physical state.
    pub world: World,
    /// Calibrated action timings.
    pub timing: TimingModel,
    instruments: BTreeMap<String, Box<dyn Instrument>>,
}

impl Workcell {
    /// Instantiate every module of `config` with the given dye set and
    /// mixing model.
    pub fn instantiate(
        config: WorkcellConfig,
        dyes: DyeSet,
        mix: MixKind,
    ) -> Result<Workcell, WeiError> {
        let mut world = World::new(dyes.clone(), mix);
        world.add_slot("trash");
        let mut instruments: BTreeMap<String, Box<dyn Instrument>> = BTreeMap::new();

        for m in &config.modules {
            let c = &m.config;
            match m.kind {
                ModuleKind::PlateCrane => {
                    let exchange = c
                        .opt_str("exchange")
                        .map(str::to_string)
                        .unwrap_or_else(|| format!("{}.exchange", m.name));
                    let towers: Vec<u32> = match c.get("towers").and_then(Value::as_seq) {
                        Some(seq) => seq
                            .iter()
                            .map(|v| {
                                v.as_i64().map(|n| n.max(0) as u32).ok_or_else(|| {
                                    WeiError::Invalid(format!(
                                        "{}: towers must be integers",
                                        m.name
                                    ))
                                })
                            })
                            .collect::<Result<_, _>>()?,
                        None => vec![10, 10, 10, 10],
                    };
                    world.add_slot(exchange.clone());
                    instruments
                        .insert(m.name.clone(), Box::new(SciClops::new(&m.name, towers, exchange)));
                }
                ModuleKind::Manipulator => {
                    instruments.insert(m.name.clone(), Box::new(Pf400::new(&m.name)));
                }
                ModuleKind::LiquidHandler => {
                    let deck = c
                        .opt_str("deck")
                        .map(str::to_string)
                        .unwrap_or_else(|| format!("{}.deck", m.name));
                    let capacity = c.opt_f64("reservoir_capacity_ul").unwrap_or(4000.0);
                    let tips = c.opt_i64("tips").unwrap_or(960).max(0) as u32;
                    world.add_slot(deck.clone());
                    world.add_bank(m.name.clone(), ReservoirBank::full(&dyes, capacity));
                    instruments.insert(
                        m.name.clone(),
                        Box::new(Ot2::new(&m.name, deck, m.name.clone(), tips)),
                    );
                }
                ModuleKind::LiquidReplenisher => {
                    let feeds = c
                        .opt_str("feeds")
                        .ok_or_else(|| {
                            WeiError::Invalid(format!("{}: needs 'feeds: <ot2 name>'", m.name))
                        })?
                        .to_string();
                    let stock = c.opt_f64("stock_ul").unwrap_or(2_000_000.0);
                    instruments.insert(
                        m.name.clone(),
                        Box::new(Barty::new(&m.name, feeds, vec![stock; dyes.len()])),
                    );
                }
                ModuleKind::Camera => {
                    let nest = c
                        .opt_str("nest")
                        .map(str::to_string)
                        .unwrap_or_else(|| format!("{}.nest", m.name));
                    world.add_slot(nest.clone());
                    let mut cam = CameraSim::new(&m.name, nest);
                    if let Some(v) = c.opt_str("fidelity") {
                        let profile = Fidelity::parse(v).ok_or_else(|| {
                            WeiError::Invalid(format!(
                                "{}: unknown camera fidelity '{v}' (valid: {})",
                                m.name,
                                Fidelity::valid_names()
                            ))
                        })?;
                        cam.camera = CameraGeometry::for_fidelity(profile);
                    }
                    if let Some(v) = c.opt_f64("noise_sigma") {
                        cam.lighting.noise_sigma = v;
                    }
                    if let Some(v) = c.opt_f64("vignette") {
                        cam.lighting.vignette = v;
                    }
                    if let Some(v) = c.opt_f64("max_shift_px") {
                        cam.max_shift_px = v;
                    }
                    if let Some(v) = c.opt_f64("max_rot_deg") {
                        cam.max_rot_deg = v;
                    }
                    if let Some(v) = c.opt_str("drift") {
                        let drift = DriftSpec::parse(v).ok_or_else(|| {
                            WeiError::Invalid(format!(
                                "{}: unknown camera drift '{v}' (valid: {})",
                                m.name,
                                DriftSpec::valid_names()
                            ))
                        })?;
                        if cam.camera.fidelity == Fidelity::Full {
                            return Err(WeiError::Invalid(format!(
                                "{}: illumination drift needs the counter-based renderer \
                                 (fast/lowres); the 'full' reference path is frozen",
                                m.name
                            )));
                        }
                        cam.drift = Some(drift);
                        cam.drift_seed = c.opt_i64("drift_seed").unwrap_or(0) as u64;
                    }
                    instruments.insert(m.name.clone(), Box::new(cam));
                }
            }
        }

        // Validate barty plumbing after all banks exist.
        for m in &config.modules {
            if m.kind == ModuleKind::LiquidReplenisher {
                let feeds = m.config.opt_str("feeds").unwrap_or_default();
                if world.bank(feeds).is_err() {
                    return Err(WeiError::Invalid(format!(
                        "{}: feeds '{feeds}', which is not a liquid handler",
                        m.name
                    )));
                }
            }
        }

        Ok(Workcell { config, world, timing: TimingModel::default(), instruments })
    }

    /// Module names in declaration order.
    pub fn module_names(&self) -> Vec<String> {
        self.config.modules.iter().map(|m| m.name.clone()).collect()
    }

    /// Does this cell have a module with that name?
    pub fn has_module(&self, name: &str) -> bool {
        self.instruments.contains_key(name)
    }

    /// Immutable instrument access.
    pub fn instrument(&self, name: &str) -> Option<&dyn Instrument> {
        self.instruments.get(name).map(|b| b.as_ref())
    }

    /// Mutable instrument access.
    pub fn instrument_mut(&mut self, name: &str) -> Option<&mut Box<dyn Instrument>> {
        self.instruments.get_mut(name)
    }

    /// Split borrow used by the engine: one instrument plus the world.
    pub(crate) fn dispatch_parts(
        &mut self,
        name: &str,
    ) -> Option<(&mut Box<dyn Instrument>, &mut World, &TimingModel)> {
        let Workcell { world, timing, instruments, .. } = self;
        instruments.get_mut(name).map(|inst| (inst, &mut *world, &*timing))
    }
}

/// Render a workcell as an ASCII topology sketch (the Figure-1 equivalent):
/// the crane feeds the arm, the arm shuttles between handler decks and the
/// camera nest, replenishers hang off their handlers.
pub fn workcell_diagram(config: &WorkcellConfig) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "workcell: {}", config.name);
    let of = |kind: ModuleKind| config.modules_of(kind);
    let cranes = of(ModuleKind::PlateCrane);
    let arms = of(ModuleKind::Manipulator);
    let handlers = of(ModuleKind::LiquidHandler);
    let cameras = of(ModuleKind::Camera);
    let arm = arms.first().copied().unwrap_or("-");
    for crane in &cranes {
        let _ = writeln!(out, "  [{crane}] plate towers");
        let _ = writeln!(out, "      |  exchange nest");
    }
    let _ = writeln!(out, "  ({arm}) <== rail: shuttles every plate ==>");
    for h in &handlers {
        let feeder = config
            .modules
            .iter()
            .find(|m| {
                m.kind == ModuleKind::LiquidReplenisher && m.config.opt_str("feeds") == Some(*h)
            })
            .map(|m| m.name.as_str());
        match feeder {
            Some(b) => {
                let _ = writeln!(
                    out,
                    "      |-- [{h}] deck + reservoirs <~~ pumps ~~ [{b}] stock vessels"
                );
            }
            None => {
                let _ = writeln!(out, "      |-- [{h}] deck + reservoirs");
            }
        }
    }
    for cam in &cameras {
        let _ = writeln!(out, "      |-- [{cam}] imaging nest + ring light + ArUco marker");
    }
    let _ = writeln!(out, "      |-- [trash]");
    out
}

/// The default RPL workcell document (paper Figure 1, five modules).
pub const RPL_WORKCELL_YAML: &str = r#"# Argonne RPL workcell, color-picker subset (paper Figure 1)
name: rpl_workcell
modules:
  - name: sciclops
    type: plate_crane
    config:
      towers: [10, 10, 10, 10]
      exchange: sciclops.exchange
  - name: pf400
    type: manipulator
  - name: ot2
    type: liquid_handler
    config:
      deck: ot2.deck
      reservoir_capacity_ul: 4000
      tips: 960
  - name: barty
    type: liquid_replenisher
    config:
      feeds: ot2
      stock_ul: 2000000
  - name: camera
    type: camera
    config:
      nest: camera.nest
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_rpl_workcell() {
        let cfg = WorkcellConfig::from_yaml(RPL_WORKCELL_YAML).unwrap();
        assert_eq!(cfg.name, "rpl_workcell");
        assert_eq!(cfg.modules.len(), 5);
        assert_eq!(cfg.modules_of(ModuleKind::Manipulator), vec!["pf400"]);
        assert_eq!(cfg.modules_of(ModuleKind::LiquidHandler), vec!["ot2"]);
    }

    #[test]
    fn instantiates_instruments_and_slots() {
        let cfg = WorkcellConfig::from_yaml(RPL_WORKCELL_YAML).unwrap();
        let cell = Workcell::instantiate(cfg, DyeSet::cmyk(), MixKind::BeerLambert).unwrap();
        for m in ["sciclops", "pf400", "ot2", "barty", "camera"] {
            assert!(cell.has_module(m), "{m} missing");
        }
        assert!(cell.world.plate_at("ot2.deck").unwrap().is_none());
        assert!(cell.world.plate_at("camera.nest").unwrap().is_none());
        assert!(cell.world.plate_at("trash").unwrap().is_none());
        assert_eq!(cell.world.bank("ot2").unwrap().reservoirs.len(), 4);
        assert_eq!(cell.instrument("ot2").unwrap().kind(), ModuleKind::LiquidHandler);
    }

    #[test]
    fn duplicate_module_names_rejected() {
        let doc = "name: x\nmodules:\n  - name: a\n    type: manipulator\n  - name: a\n    type: camera\n";
        assert!(matches!(WorkcellConfig::from_yaml(doc), Err(WeiError::Invalid(_))));
    }

    #[test]
    fn unknown_type_rejected() {
        let doc = "name: x\nmodules:\n  - name: a\n    type: teleporter\n";
        assert!(matches!(WorkcellConfig::from_yaml(doc), Err(WeiError::Invalid(_))));
    }

    #[test]
    fn barty_must_feed_a_liquid_handler() {
        let doc = "name: x\nmodules:\n  - name: barty\n    type: liquid_replenisher\n    config: {feeds: nowhere}\n";
        let cfg = WorkcellConfig::from_yaml(doc).unwrap();
        assert!(matches!(
            Workcell::instantiate(cfg, DyeSet::cmyk(), MixKind::BeerLambert),
            Err(WeiError::Invalid(_))
        ));
    }

    #[test]
    fn diagram_lists_every_module() {
        let cfg = WorkcellConfig::from_yaml(RPL_WORKCELL_YAML).unwrap();
        let d = workcell_diagram(&cfg);
        for m in ["sciclops", "pf400", "ot2", "barty", "camera"] {
            assert!(d.contains(m), "{m} missing from diagram:\n{d}");
        }
        assert!(d.contains("pumps"));
        assert!(d.contains("trash"));
    }

    #[test]
    fn two_ot2_cell_instantiates() {
        let doc = r#"
name: dual
modules:
  - name: pf400
    type: manipulator
  - name: ot2_a
    type: liquid_handler
  - name: ot2_b
    type: liquid_handler
  - name: camera
    type: camera
"#;
        let cfg = WorkcellConfig::from_yaml(doc).unwrap();
        let cell = Workcell::instantiate(cfg, DyeSet::cmyk(), MixKind::BeerLambert).unwrap();
        assert!(cell.world.bank("ot2_a").is_ok());
        assert!(cell.world.bank("ot2_b").is_ok());
        assert!(cell.world.plate_at("ot2_a.deck").unwrap().is_none());
        assert!(cell.world.plate_at("ot2_b.deck").unwrap().is_none());
    }
}
