//! The module abstraction: "each module is represented by a software
//! abstraction that exposes a single device and, via interface methods, the
//! actions that the device can perform" (paper §2.2).

use crate::labware::WellIndex;
use crate::timing::TimingModel;
use crate::world::{World, WorldError};
use rand::rngs::StdRng;
use sdl_desim::SimDuration;
use sdl_vision::ImageRgb8;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Module lifecycle state, mirroring WEI's module status model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModuleState {
    /// Powered and ready for a command.
    #[default]
    Idle,
    /// Executing a command.
    Busy,
    /// A command failed; requires a reset before new commands.
    Error,
}

impl fmt::Display for ModuleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleState::Idle => write!(f, "IDLE"),
            ModuleState::Busy => write!(f, "BUSY"),
            ModuleState::Error => write!(f, "ERROR"),
        }
    }
}

/// The device class a module belongs to (used for workcell validation and
/// for deciding which commands count as *robotic* in the CCWH metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleKind {
    /// Plate storage/staging (sciclops).
    PlateCrane,
    /// Plate transport arm (pf400).
    Manipulator,
    /// Pipetting robot (ot2).
    LiquidHandler,
    /// Reservoir replenisher (barty).
    LiquidReplenisher,
    /// Imaging station (camera).
    Camera,
}

impl ModuleKind {
    /// Whether commands to this module count as robotic actions (the camera
    /// is a sensor, not a robot).
    pub fn is_robotic(self) -> bool {
        !matches!(self, ModuleKind::Camera)
    }

    /// Name as used in workcell YAML `type:` fields.
    pub fn type_name(self) -> &'static str {
        match self {
            ModuleKind::PlateCrane => "plate_crane",
            ModuleKind::Manipulator => "manipulator",
            ModuleKind::LiquidHandler => "liquid_handler",
            ModuleKind::LiquidReplenisher => "liquid_replenisher",
            ModuleKind::Camera => "camera",
        }
    }

    /// Parse a workcell `type:` field.
    pub fn parse(s: &str) -> Option<ModuleKind> {
        match s {
            "plate_crane" => Some(ModuleKind::PlateCrane),
            "manipulator" => Some(ModuleKind::Manipulator),
            "liquid_handler" => Some(ModuleKind::LiquidHandler),
            "liquid_replenisher" => Some(ModuleKind::LiquidReplenisher),
            "camera" => Some(ModuleKind::Camera),
            _ => None,
        }
    }
}

/// One well's dispense instruction inside an OT-2 protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct WellDispense {
    /// Destination well.
    pub well: WellIndex,
    /// Volume per dye, µL, reservoir order.
    pub volumes_ul: Vec<f64>,
}

/// An OT-2 protocol: the "mix colors" payload referenced in Figure 2.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProtocolSpec {
    /// Protocol name (for run logs; e.g. `combine_colors_384.yaml`).
    pub name: String,
    /// Dispenses to perform.
    pub dispenses: Vec<WellDispense>,
}

impl ProtocolSpec {
    /// Total volume needed per dye, µL.
    pub fn demand_ul(&self, n_dyes: usize) -> Vec<f64> {
        let mut demand = vec![0.0; n_dyes];
        for d in &self.dispenses {
            for (i, v) in d.volumes_ul.iter().enumerate() {
                if i < n_dyes {
                    demand[i] += v;
                }
            }
        }
        demand
    }

    /// Distinct dyes actually used (tips needed).
    pub fn dyes_used(&self, n_dyes: usize) -> usize {
        self.demand_ul(n_dyes).iter().filter(|v| **v > 0.0).count()
    }
}

/// Arguments to a module action: string key/values plus an optional protocol
/// payload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActionArgs {
    /// Simple key/value arguments (locations, tower names…).
    pub kv: BTreeMap<String, String>,
    /// Structured payload for `run_protocol`.
    pub protocol: Option<ProtocolSpec>,
}

impl ActionArgs {
    /// No arguments.
    pub fn none() -> ActionArgs {
        ActionArgs::default()
    }

    /// Builder: add a key/value.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> ActionArgs {
        self.kv.insert(key.into(), value.into());
        self
    }

    /// Builder: attach a protocol.
    pub fn with_protocol(mut self, protocol: ProtocolSpec) -> ActionArgs {
        self.protocol = Some(protocol);
        self
    }

    /// Optional lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.kv.get(key).map(String::as_str)
    }

    /// Required lookup.
    pub fn req(&self, key: &str) -> Result<&str, InstrumentError> {
        self.get(key).ok_or_else(|| InstrumentError::BadArgs(format!("missing argument '{key}'")))
    }
}

/// Data returned by an action.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionData {
    /// Nothing beyond success.
    None,
    /// A camera frame. Shared, so the camera can recycle the pixel buffer
    /// for the next capture once every consumer has dropped its handle, and
    /// so passing frames through workflow outcomes never copies megapixels.
    Image(Arc<ImageRgb8>),
    /// A created plate id.
    Plate(crate::world::PlateId),
}

/// Result of a successful action.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionOutcome {
    /// How long the action occupies the module.
    pub duration: SimDuration,
    /// Returned data.
    pub data: ActionData,
}

impl ActionOutcome {
    /// An outcome with no data.
    pub fn lasting(duration: SimDuration) -> ActionOutcome {
        ActionOutcome { duration, data: ActionData::None }
    }
}

/// Instrument-level failures.
#[derive(Debug, Clone, PartialEq)]
pub enum InstrumentError {
    /// The action name is not in this module's interface.
    UnknownAction(String),
    /// Malformed or missing arguments.
    BadArgs(String),
    /// The module is in ERROR state and needs a reset.
    NeedsReset,
    /// World-state violation (slot occupied, plate missing…).
    World(WorldError),
    /// Labware violation (overflow, reused well…).
    Labware(crate::labware::LabwareError),
    /// The sciclops has no plates left in any tower.
    OutOfPlates,
    /// The OT-2 has no clean tips left.
    OutOfTips,
    /// A reservoir cannot supply the requested volume.
    InsufficientReservoir {
        /// Which dye ran short.
        dye: String,
    },
    /// A barty stock vessel is empty.
    StockEmpty {
        /// Which dye's stock.
        dye: String,
    },
    /// Injected fault: the command failed mid-action.
    InjectedFault,
}

impl fmt::Display for InstrumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstrumentError::UnknownAction(a) => write!(f, "unknown action '{a}'"),
            InstrumentError::BadArgs(m) => write!(f, "bad arguments: {m}"),
            InstrumentError::NeedsReset => write!(f, "module is in ERROR state"),
            InstrumentError::World(e) => write!(f, "{e}"),
            InstrumentError::Labware(e) => write!(f, "{e}"),
            InstrumentError::OutOfPlates => write!(f, "no plates available in storage towers"),
            InstrumentError::OutOfTips => write!(f, "no pipette tips remaining"),
            InstrumentError::InsufficientReservoir { dye } => {
                write!(f, "reservoir '{dye}' cannot supply the requested volume")
            }
            InstrumentError::StockEmpty { dye } => write!(f, "stock vessel '{dye}' is empty"),
            InstrumentError::InjectedFault => write!(f, "injected command fault"),
        }
    }
}

impl std::error::Error for InstrumentError {}

impl From<WorldError> for InstrumentError {
    fn from(e: WorldError) -> Self {
        InstrumentError::World(e)
    }
}

impl From<crate::labware::LabwareError> for InstrumentError {
    fn from(e: crate::labware::LabwareError) -> Self {
        InstrumentError::Labware(e)
    }
}

/// A simulated device exposing WEI-style actions.
pub trait Instrument: Send {
    /// Module instance name (e.g. "pf400").
    fn name(&self) -> &str;

    /// Device class.
    fn kind(&self) -> ModuleKind;

    /// Current lifecycle state.
    fn state(&self) -> ModuleState;

    /// Force the module back to IDLE (operator/automated recovery).
    fn reset(&mut self);

    /// The action names this module accepts.
    fn actions(&self) -> &'static [&'static str];

    /// Execute an action against the shared world. Durations come from the
    /// workcell [`TimingModel`]; stochastic effects draw from `rng`.
    fn execute(
        &mut self,
        action: &str,
        args: &ActionArgs,
        world: &mut World,
        timing: &TimingModel,
        rng: &mut StdRng,
    ) -> Result<ActionOutcome, InstrumentError>;

    /// Put the module into ERROR state (used by fault injection).
    fn mark_error(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for k in [
            ModuleKind::PlateCrane,
            ModuleKind::Manipulator,
            ModuleKind::LiquidHandler,
            ModuleKind::LiquidReplenisher,
            ModuleKind::Camera,
        ] {
            assert_eq!(ModuleKind::parse(k.type_name()), Some(k));
        }
        assert_eq!(ModuleKind::parse("toaster"), None);
        assert!(ModuleKind::Manipulator.is_robotic());
        assert!(!ModuleKind::Camera.is_robotic());
    }

    #[test]
    fn protocol_demand_and_tips() {
        let p = ProtocolSpec {
            name: "mix".into(),
            dispenses: vec![
                WellDispense { well: WellIndex::new(0, 0), volumes_ul: vec![10.0, 0.0, 5.0, 20.0] },
                WellDispense { well: WellIndex::new(0, 1), volumes_ul: vec![0.0, 0.0, 5.0, 10.0] },
            ],
        };
        assert_eq!(p.demand_ul(4), vec![10.0, 0.0, 10.0, 30.0]);
        assert_eq!(p.dyes_used(4), 3);
    }

    #[test]
    fn args_accessors() {
        let args = ActionArgs::none().with("source", "camera.nest").with("target", "ot2.deck");
        assert_eq!(args.get("source"), Some("camera.nest"));
        assert_eq!(args.req("target").unwrap(), "ot2.deck");
        assert!(matches!(args.req("missing"), Err(InstrumentError::BadArgs(_))));
    }
}
