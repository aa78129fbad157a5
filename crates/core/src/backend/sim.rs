//! The in-process simulated workcell behind the [`LabBackend`] seam.
//!
//! This is the instruments stack that used to be welded into
//! `ColorPickerApp::run`: the WEI engine driving the four `cp_wf_*`
//! workflows on a virtual clock, plate lifecycle management, reservoir
//! replenishment, the simulated camera and the §2.4 detection pipeline.
//! Behavior is bit-identical to the pre-redesign closed loop — enforced by
//! the golden-fingerprint equivalence suite.

use crate::app::{AppError, WF_MIXCOLOR, WF_NEWPLATE, WF_REPLENISH, WF_TRASHPLATE};
use crate::backend::{BackendCaps, BackendClose, Batch, BatchResult, LabBackend, WellMeasurement};
use crate::config::AppConfig;
use crate::metrics::SdlMetrics;
use crate::protocol::build_protocol;
use bytes::Bytes;
use rand::rngs::StdRng;
use sdl_desim::{RngHub, SimDuration, SimTime};
use sdl_instruments::{ActionData, Microplate, ModuleKind, WellIndex};
use sdl_vision::{Detector, DetectorScratch};
use sdl_wei::{Engine, Payload, SeqClock, Workcell, WorkcellConfig, Workflow};
use std::collections::BTreeMap;
use std::sync::Arc;

struct AppWorkflows {
    newplate: Workflow,
    mixcolor: Workflow,
    trashplate: Workflow,
    replenish: Workflow,
}

/// The simulated lab: one workcell, one virtual clock, one detector.
pub struct SimBackend {
    config: AppConfig,
    engine: Engine,
    clock: SeqClock,
    compute_rng: StdRng,
    detector: Detector,
    scratch: DetectorScratch,
    workflows: AppWorkflows,
    vars: BTreeMap<String, String>,
    nest_slot: String,
    bank_name: String,
    plates_used: u32,
    start: SimTime,
    opened: bool,
}

impl SimBackend {
    /// Build the simulated lab: instantiate the workcell, resolve module
    /// names, retarget the canonical workflows.
    pub fn new(config: &AppConfig) -> Result<SimBackend, AppError> {
        let config = config.clone();
        let hub = RngHub::new(config.seed);
        let mut cell_cfg = WorkcellConfig::from_yaml(&config.workcell_yaml)?;
        // The config's camera-fidelity axis reaches the camera simulator
        // through its module config; an explicit per-camera `fidelity` in
        // the workcell document wins. The illumination-drift axis rides the
        // same path, seeded by the master seed.
        cell_cfg.default_camera_fidelity(config.fidelity.name());
        if let Some(drift) = config.drift {
            cell_cfg.default_camera_drift(&drift.name(), config.seed);
        }

        // Discover one module of each required kind.
        let need = |kind: ModuleKind| -> Result<&sdl_wei::ModuleConfig, AppError> {
            cell_cfg.modules.iter().find(|m| m.kind == kind).ok_or_else(|| {
                AppError::Setup(format!("workcell lacks a {} module", kind.type_name()))
            })
        };
        let crane = need(ModuleKind::PlateCrane)?;
        let arm = need(ModuleKind::Manipulator)?;
        let handler = need(ModuleKind::LiquidHandler)?;
        let replenisher = need(ModuleKind::LiquidReplenisher)?;
        let camera = need(ModuleKind::Camera)?;

        use sdl_conf::ValueExt as _;
        let exchange = crane
            .config
            .opt_str("exchange")
            .map(str::to_string)
            .unwrap_or_else(|| format!("{}.exchange", crane.name));
        let deck = handler
            .config
            .opt_str("deck")
            .map(str::to_string)
            .unwrap_or_else(|| format!("{}.deck", handler.name));
        let nest = camera
            .config
            .opt_str("nest")
            .map(str::to_string)
            .unwrap_or_else(|| format!("{}.nest", camera.name));

        let mut vars = BTreeMap::new();
        vars.insert("exchange".to_string(), exchange);
        vars.insert("deck".to_string(), deck);
        vars.insert("nest".to_string(), nest.clone());

        // Retarget canonical workflows onto the discovered module names.
        let mut rename = BTreeMap::new();
        rename.insert("sciclops".to_string(), crane.name.clone());
        rename.insert("pf400".to_string(), arm.name.clone());
        rename.insert("ot2".to_string(), handler.name.clone());
        rename.insert("barty".to_string(), replenisher.name.clone());
        rename.insert("camera".to_string(), camera.name.clone());
        let load = |src: &str| -> Result<Workflow, AppError> {
            Ok(Workflow::from_yaml(src)?.retarget(&rename))
        };
        let workflows = AppWorkflows {
            newplate: load(WF_NEWPLATE)?,
            mixcolor: load(WF_MIXCOLOR)?,
            trashplate: load(WF_TRASHPLATE)?,
            replenish: load(WF_REPLENISH)?,
        };
        let bank_name = handler.name.clone();

        let cell = Workcell::instantiate(cell_cfg, config.dyes.clone(), config.mix)?;
        let engine = Engine::new(cell, hub).with_faults(config.faults.clone());
        for wf in
            [&workflows.newplate, &workflows.mixcolor, &workflows.trashplate, &workflows.replenish]
        {
            engine.validate(wf)?;
        }

        let detector = Detector::new(sdl_vision::DetectorParams {
            flat_field: config.flat_field,
            ..sdl_vision::DetectorParams::default()
        });
        Ok(SimBackend {
            compute_rng: hub.stream("app.compute"),
            detector,
            scratch: DetectorScratch::default(),
            workflows,
            vars,
            nest_slot: nest,
            bank_name,
            plates_used: 0,
            start: SimTime::ZERO,
            opened: false,
            engine,
            clock: SeqClock::new(),
            config,
        })
    }

    /// The engine (for inspection in tests and benches).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The active configuration.
    pub fn config(&self) -> &AppConfig {
        &self.config
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            // The crane dispenses standard 96-well plates (its template is
            // not configurable), so capacity is a static capability.
            plate_capacity: Microplate::standard96().well_count() as u32,
            dye_channels: self.config.dyes.len() as u32,
            provides_images: self.config.publish_images,
            real_telemetry: true,
        }
    }

    fn base_payload(&self) -> Payload {
        let mut p = Payload::none();
        for (k, v) in &self.vars {
            p = p.var(k.clone(), v.clone());
        }
        p
    }

    fn fetch_new_plate(&mut self) -> Result<(), sdl_wei::WeiError> {
        let payload = self.base_payload();
        self.engine.run_workflow(&mut self.clock, &self.workflows.newplate, &payload)?;
        self.plates_used += 1;
        Ok(())
    }

    fn trash_plate(&mut self) -> Result<(), sdl_wei::WeiError> {
        let payload = self.base_payload();
        self.engine.run_workflow(&mut self.clock, &self.workflows.trashplate, &payload)?;
        Ok(())
    }

    fn replenish_if_needed(&mut self, demand: &[f64]) -> Result<(), sdl_wei::WeiError> {
        let needs = {
            let bank = self
                .engine
                .workcell
                .world
                .bank(&self.bank_name)
                .expect("bank validated at startup");
            let low = bank.reservoirs.iter().any(|r| r.volume_ul < self.config.refill_watermark_ul);
            low || !bank.can_supply(demand)
        };
        if needs {
            let payload = self.base_payload();
            self.engine.run_workflow(&mut self.clock, &self.workflows.replenish, &payload)?;
        }
        Ok(())
    }

    /// Free wells on the plate currently staged at the camera nest.
    fn staged_plate_free_wells(&self, n: usize) -> Vec<WellIndex> {
        let world = &self.engine.workcell.world;
        match world.plate_at(&self.nest_slot) {
            Ok(Some(id)) => world.plate(id).map(|p| p.next_free(n)).unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// Simulated compute step (solver + image processing on the "Compute"
    /// node of Figure 2).
    fn hold_compute(&mut self) {
        use rand::Rng;
        let jitter = 0.2f64;
        let secs =
            self.config.compute_seconds * (1.0 + self.compute_rng.gen_range(-jitter..=jitter));
        self.clock.wait(SimDuration::from_secs_f64(secs.max(0.0)));
    }
}

impl LabBackend for SimBackend {
    fn kind(&self) -> &'static str {
        "sim"
    }

    fn open(&mut self) -> Result<BackendCaps, AppError> {
        if !self.opened {
            self.start = self.clock.now();
            self.fetch_new_plate()?;
            self.opened = true;
        }
        Ok(self.caps())
    }

    fn capabilities(&self) -> Option<BackendCaps> {
        Some(self.caps())
    }

    fn submit_batch(&mut self, batch: &Batch) -> Result<BatchResult, AppError> {
        let b = batch.ratios.len();
        let batch_start = self.clock.now();

        // Plate lifecycle: batches are never split across plates — a plate
        // without room for a full batch is swapped (the remainder of its
        // wells is wasted), which is how the paper's 12 × 15 portal
        // structure arises on 96-well plates.
        let mut wells = self.staged_plate_free_wells(b);
        if wells.len() < b {
            let capacity = self
                .engine
                .workcell
                .world
                .plate_at(&self.nest_slot)
                .ok()
                .flatten()
                .and_then(|id| self.engine.workcell.world.plate(id).ok())
                .map(|p| p.well_count())
                .unwrap_or(0);
            if wells.len() < b.min(capacity.max(1)) {
                self.trash_plate()?;
                self.fetch_new_plate()?;
                wells = self.staged_plate_free_wells(b);
            }
        }
        if wells.is_empty() {
            return Err(AppError::Setup("fresh plate has no usable wells".into()));
        }
        if wells.len() < b {
            return Err(AppError::Setup(format!(
                "batch of {b} proposals exceeds the plate's {} usable wells",
                wells.len()
            )));
        }
        let wells = &wells[..b];

        let protocol = build_protocol(&batch.ratios, wells, &self.config.dyes)?;

        // Check: refill color?
        let demand = protocol.demand_ul(self.config.dyes.len());
        self.replenish_if_needed(&demand)?;

        // Robotic half of the iteration.
        let payload = self.base_payload().var("iteration", batch.run.to_string());
        let payload = Payload { protocol: Some(protocol), ..payload };
        let out = self.engine.run_workflow(&mut self.clock, &self.workflows.mixcolor, &payload)?;

        // Compute: image processing + next-proposal time.
        self.hold_compute();

        // The frame rides out of the workflow as a shared handle — no pixel
        // copy — and is dropped at the end of this call, which lets the
        // camera recycle its buffer for the next batch.
        let image = out
            .data
            .iter()
            .find_map(|(_, d)| match d {
                ActionData::Image(img) => Some(Arc::clone(img)),
                _ => None,
            })
            .ok_or_else(|| AppError::Setup("camera step returned no image".into()))?;
        let reading = self.detector.detect_with(&image, &mut self.scratch)?;

        let mut measurements = Vec::with_capacity(b);
        for well in wells {
            let color = reading
                .well(well.row, well.col)
                .map(|w| w.color)
                .ok_or_else(|| AppError::Setup(format!("no reading for well {well}")))?;
            measurements.push(WellMeasurement { well: *well, color });
        }
        let image_bytes =
            if self.config.publish_images { Some(Bytes::from(image.to_bmp())) } else { None };

        let elapsed = self.clock.now();
        Ok(BatchResult {
            measurements,
            elapsed,
            batch_wall: elapsed - batch_start,
            timing: Some(out.log.to_value()),
            image: image_bytes,
        })
    }

    fn close(&mut self, samples_measured: u32) -> Result<BackendClose, AppError> {
        // Final trashplate (Figure 2: runs again to finalize) if a plate is
        // still staged.
        if matches!(self.engine.workcell.world.plate_at(&self.nest_slot), Ok(Some(_))) {
            self.trash_plate()?;
        }
        let end = self.clock.now();
        let metrics = SdlMetrics::compute(
            &self.engine.history,
            &self.engine.counters,
            &self.engine.reliability,
            self.start,
            end,
            samples_measured,
        );
        Ok(BackendClose {
            duration: end - self.start,
            metrics,
            counters: self.engine.counters,
            plates_used: self.plates_used,
        })
    }

    fn swap_scratch(&mut self, scratch: &mut DetectorScratch) {
        std::mem::swap(&mut self.scratch, scratch);
    }
}
