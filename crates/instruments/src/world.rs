//! Shared physical state of the workcell: plates, their locations, and the
//! OT-2 reservoir banks that `barty` refills.
//!
//! Instruments own their internal mechanisms (tips, towers, pumps), but
//! anything two instruments can both touch lives here — the `pf400` hands a
//! plate to the `ot2`, `barty` pumps into the `ot2`'s reservoirs, the camera
//! looks at whatever plate sits in its nest.

use crate::labware::{Microplate, WellIndex};
use sdl_color::{DyeSet, LinRgb, MixEngine, MixKind, Recipe};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a physical plate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlateId(pub u32);

impl fmt::Display for PlateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plate-{}", self.0)
    }
}

/// One dye reservoir on an OT-2 deck.
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir {
    /// Dye name (matches the dye set).
    pub dye: String,
    /// Current volume, µL.
    pub volume_ul: f64,
    /// Capacity, µL.
    pub capacity_ul: f64,
}

impl Reservoir {
    /// Fraction filled, 0–1.
    pub fn fill_fraction(&self) -> f64 {
        if self.capacity_ul <= 0.0 {
            0.0
        } else {
            self.volume_ul / self.capacity_ul
        }
    }
}

/// The bank of dye reservoirs attached to one liquid handler.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservoirBank {
    /// Reservoirs in dye-set order.
    pub reservoirs: Vec<Reservoir>,
}

impl ReservoirBank {
    /// A bank for `dyes`, each reservoir filled to `capacity_ul`.
    pub fn full(dyes: &DyeSet, capacity_ul: f64) -> ReservoirBank {
        ReservoirBank {
            reservoirs: dyes
                .dyes
                .iter()
                .map(|d| Reservoir { dye: d.name.clone(), volume_ul: capacity_ul, capacity_ul })
                .collect(),
        }
    }

    /// Lowest fill fraction across the bank.
    pub fn min_fill(&self) -> f64 {
        self.reservoirs.iter().map(Reservoir::fill_fraction).fold(1.0, f64::min)
    }

    /// Would `volumes_ul` (per dye) be satisfiable right now?
    pub fn can_supply(&self, volumes_ul: &[f64]) -> bool {
        self.reservoirs.len() == volumes_ul.len()
            && self.reservoirs.iter().zip(volumes_ul).all(|(r, &v)| r.volume_ul + 1e-9 >= v)
    }
}

/// Errors on world-state operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// No slot with that name exists in this workcell.
    NoSuchSlot(String),
    /// The slot already holds a plate.
    SlotOccupied(String),
    /// The slot is empty.
    SlotEmpty(String),
    /// Unknown plate id.
    NoSuchPlate(String),
    /// Unknown reservoir bank.
    NoSuchBank(String),
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::NoSuchSlot(s) => write!(f, "no such slot '{s}'"),
            WorldError::SlotOccupied(s) => write!(f, "slot '{s}' is occupied"),
            WorldError::SlotEmpty(s) => write!(f, "slot '{s}' is empty"),
            WorldError::NoSuchPlate(p) => write!(f, "no such plate '{p}'"),
            WorldError::NoSuchBank(b) => write!(f, "no reservoir bank '{b}'"),
        }
    }
}

impl std::error::Error for WorldError {}

/// The shared physical state.
#[derive(Debug, Clone)]
pub struct World {
    /// The dye stocks in play (physical truth for color formation).
    pub dyes: DyeSet,
    /// The mixing model, compiled once at construction — the measurement
    /// hot path evaluates ~96 wells per frame and must not rebuild (or
    /// box) the model per well. Private so the kind and the compiled form
    /// cannot desync; read via [`World::mix`].
    engine: MixEngine,
    plates: BTreeMap<PlateId, Microplate>,
    slots: BTreeMap<String, Option<PlateId>>,
    banks: BTreeMap<String, ReservoirBank>,
    next_plate: u32,
    retired: Vec<PlateId>,
}

impl World {
    /// Fresh world with the given dye set and mixing model.
    pub fn new(dyes: DyeSet, mix: MixKind) -> World {
        World {
            dyes,
            engine: MixEngine::new(mix),
            plates: BTreeMap::new(),
            slots: BTreeMap::new(),
            banks: BTreeMap::new(),
            next_plate: 1,
            retired: Vec::new(),
        }
    }

    /// The forward mixing model in effect.
    pub fn mix(&self) -> MixKind {
        self.engine.kind()
    }

    /// Declare a plate slot (location a plate can occupy).
    pub fn add_slot(&mut self, name: impl Into<String>) {
        self.slots.insert(name.into(), None);
    }

    /// Declare a reservoir bank for a liquid handler.
    pub fn add_bank(&mut self, name: impl Into<String>, bank: ReservoirBank) {
        self.banks.insert(name.into(), bank);
    }

    /// Create a new plate directly in `slot` (the sciclops does this).
    pub fn spawn_plate(&mut self, slot: &str, plate: Microplate) -> Result<PlateId, WorldError> {
        let entry = self.slots.get_mut(slot).ok_or_else(|| WorldError::NoSuchSlot(slot.into()))?;
        if entry.is_some() {
            return Err(WorldError::SlotOccupied(slot.into()));
        }
        let id = PlateId(self.next_plate);
        self.next_plate += 1;
        self.plates.insert(id, plate);
        *entry = Some(id);
        Ok(id)
    }

    /// Which plate occupies `slot`?
    pub fn plate_at(&self, slot: &str) -> Result<Option<PlateId>, WorldError> {
        self.slots.get(slot).copied().ok_or_else(|| WorldError::NoSuchSlot(slot.into()))
    }

    /// Move a plate between slots (the pf400 does this). Moving to the
    /// special `trash` slot retires the plate.
    pub fn move_plate(&mut self, from: &str, to: &str) -> Result<PlateId, WorldError> {
        if to == "trash" {
            return self.retire_plate(from);
        }
        let id = self.plate_at(from)?.ok_or_else(|| WorldError::SlotEmpty(from.into()))?;
        {
            let dest = self.slots.get(to).ok_or_else(|| WorldError::NoSuchSlot(to.into()))?;
            if dest.is_some() {
                return Err(WorldError::SlotOccupied(to.into()));
            }
        }
        self.slots.insert(from.into(), None);
        self.slots.insert(to.into(), Some(id));
        Ok(id)
    }

    /// Remove a plate from the workcell (trash). The plate record is kept in
    /// a retired list for post-hoc analysis.
    pub fn retire_plate(&mut self, slot: &str) -> Result<PlateId, WorldError> {
        let id = self.plate_at(slot)?.ok_or_else(|| WorldError::SlotEmpty(slot.into()))?;
        self.slots.insert(slot.into(), None);
        self.retired.push(id);
        Ok(id)
    }

    /// Plates retired so far.
    pub fn retired_plates(&self) -> &[PlateId] {
        &self.retired
    }

    /// Immutable plate access.
    pub fn plate(&self, id: PlateId) -> Result<&Microplate, WorldError> {
        self.plates.get(&id).ok_or_else(|| WorldError::NoSuchPlate(id.to_string()))
    }

    /// Mutable plate access.
    pub fn plate_mut(&mut self, id: PlateId) -> Result<&mut Microplate, WorldError> {
        self.plates.get_mut(&id).ok_or_else(|| WorldError::NoSuchPlate(id.to_string()))
    }

    /// Immutable bank access.
    pub fn bank(&self, name: &str) -> Result<&ReservoirBank, WorldError> {
        self.banks.get(name).ok_or_else(|| WorldError::NoSuchBank(name.into()))
    }

    /// Mutable bank access.
    pub fn bank_mut(&mut self, name: &str) -> Result<&mut ReservoirBank, WorldError> {
        self.banks.get_mut(name).ok_or_else(|| WorldError::NoSuchBank(name.into()))
    }

    /// The *true* (noise-free) color of a well, per the active mixing model.
    /// `None` for empty wells.
    pub fn well_color(&self, id: PlateId, idx: WellIndex) -> Result<Option<LinRgb>, WorldError> {
        let plate = self.plate(id)?;
        let well = plate.well(idx).map_err(|_| WorldError::NoSuchPlate(idx.to_string()))?;
        if well.is_empty() {
            return Ok(None);
        }
        let recipe = Recipe::new(well.volumes_ul.clone()).expect("stored volumes are valid");
        Ok(Some(self.engine.well_color(&self.dyes, &recipe)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        let mut w = World::new(DyeSet::cmyk(), MixKind::BeerLambert);
        w.add_slot("camera.nest");
        w.add_slot("ot2.deck");
        w.add_slot("sciclops.exchange");
        w.add_bank("ot2", ReservoirBank::full(&DyeSet::cmyk(), 4000.0));
        w
    }

    #[test]
    fn plate_lifecycle() {
        let mut w = world();
        let id = w.spawn_plate("sciclops.exchange", Microplate::standard96()).unwrap();
        assert_eq!(w.plate_at("sciclops.exchange").unwrap(), Some(id));
        w.move_plate("sciclops.exchange", "camera.nest").unwrap();
        assert_eq!(w.plate_at("sciclops.exchange").unwrap(), None);
        assert_eq!(w.plate_at("camera.nest").unwrap(), Some(id));
        let retired = w.retire_plate("camera.nest").unwrap();
        assert_eq!(retired, id);
        assert_eq!(w.retired_plates(), &[id]);
        assert!(w.plate(id).is_ok(), "retired plates remain inspectable");
    }

    #[test]
    fn movement_errors() {
        let mut w = world();
        assert_eq!(
            w.move_plate("camera.nest", "ot2.deck"),
            Err(WorldError::SlotEmpty("camera.nest".into()))
        );
        w.spawn_plate("camera.nest", Microplate::standard96()).unwrap();
        w.spawn_plate("ot2.deck", Microplate::standard96()).unwrap();
        assert_eq!(
            w.move_plate("camera.nest", "ot2.deck"),
            Err(WorldError::SlotOccupied("ot2.deck".into()))
        );
        assert_eq!(
            w.move_plate("nowhere", "ot2.deck"),
            Err(WorldError::NoSuchSlot("nowhere".into()))
        );
        assert_eq!(
            w.spawn_plate("camera.nest", Microplate::standard96()),
            Err(WorldError::SlotOccupied("camera.nest".into()))
        );
    }

    #[test]
    fn bank_supply_checks() {
        let mut w = world();
        {
            let bank = w.bank_mut("ot2").unwrap();
            assert!(bank.can_supply(&[100.0, 100.0, 100.0, 100.0]));
            bank.reservoirs[3].volume_ul = 50.0;
            assert!(!bank.can_supply(&[0.0, 0.0, 0.0, 60.0]));
            assert!(bank.min_fill() < 0.02);
        }
        assert!(w.bank("nope").is_err());
    }

    #[test]
    fn well_color_uses_mix_model() {
        let mut w = world();
        let id = w.spawn_plate("camera.nest", Microplate::standard96()).unwrap();
        let idx = WellIndex::new(0, 0);
        assert_eq!(w.well_color(id, idx).unwrap(), None);
        w.plate_mut(id).unwrap().dispense(idx, &[0.0, 0.0, 0.0, 30.0]).unwrap();
        let c = w.well_color(id, idx).unwrap().unwrap();
        assert!(c.g < 0.25, "black dye darkens the well: {c:?}");
    }
}
