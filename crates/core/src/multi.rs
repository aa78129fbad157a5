//! E6 — the paper's future-work experiment (§4): "An interesting future
//! experiment would involve integrating additional OT2s in our workflow, so
//! that multiple plates of colors could be mixed at once. This would lead to
//! an increase in CCWH, but potentially a lower TWH for the same
//! experimental results."
//!
//! Each OT-2 gets its own closed-loop *flow process* on the `sdl-desim`
//! executive: an `async` block that awaits the executive's `hold` and
//! `acquire`, polled with the other flows on the caller's thread. Flows own
//! a plate on their handler's deck and contend for the shared `pf400`,
//! `sciclops` and camera nest exactly as physical plates would on the rail.
//! The engine, solver and sample budget are shared through one
//! `Rc<RefCell<_>>`, borrowed only between awaits, so N samples are split
//! dynamically between handlers.

use crate::app::AppError;
use crate::config::AppConfig;
use crate::protocol::build_protocol;
use sdl_color::Rgb8;
use sdl_desim::{RngHub, SimDuration, SimTime, Simulation};
use sdl_instruments::{ActionArgs, ActionData, WellIndex};
use sdl_solvers::{ColorSolver, Observation};
use sdl_vision::{Detector, DetectorScratch};
use sdl_wei::{Engine, Workcell, WorkcellConfig};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Outcome of a multi-OT2 run.
#[derive(Debug, Clone)]
pub struct MultiOt2Outcome {
    /// Liquid handlers used.
    pub n_ot2: usize,
    /// Samples measured (== budget when plates suffice).
    pub samples_measured: u32,
    /// Wall duration on the virtual clock (the TWH of a fault-free run).
    pub duration: SimDuration,
    /// Robotic commands completed (the CCWH of a fault-free run).
    pub robotic_commands: u64,
    /// All commands completed.
    pub total_commands: u64,
    /// Best score achieved.
    pub best_score: f64,
    /// Samples processed by each handler.
    pub per_handler_samples: Vec<u32>,
    /// Plates consumed.
    pub plates_used: u32,
    /// Mean time per color.
    pub time_per_color: SimDuration,
    /// Degenerate-surrogate fallbacks recorded by the shared solver.
    pub solver_fallbacks: u64,
}

/// Build a workcell document with `n` liquid handlers (each with its own
/// replenisher) sharing one crane, arm and camera.
pub fn multi_ot2_workcell_yaml(n: usize) -> String {
    let mut out = String::from(
        "name: rpl_workcell_multi\nmodules:\n  - name: sciclops\n    type: plate_crane\n    config:\n      towers: [10, 10, 10, 10]\n      exchange: sciclops.exchange\n  - name: pf400\n    type: manipulator\n",
    );
    for i in 1..=n {
        let _ = write!(
            out,
            "  - name: ot2_{i}\n    type: liquid_handler\n    config:\n      deck: ot2_{i}.deck\n      reservoir_capacity_ul: 4000\n      tips: 960\n  - name: barty_{i}\n    type: liquid_replenisher\n    config:\n      feeds: ot2_{i}\n      stock_ul: 2000000\n"
        );
    }
    out.push_str("  - name: camera\n    type: camera\n    config:\n      nest: camera.nest\n");
    out
}

/// Shared state between flow processes.
struct Shared {
    engine: Engine,
    solver: Box<dyn ColorSolver>,
    solver_rng: rand::rngs::StdRng,
    history: Vec<Observation>,
    remaining: u32,
    samples_done: u32,
    plates_used: u32,
    per_handler: Vec<u32>,
    error: Option<String>,
}

/// Run the shared budget over `n_ot2` handlers. Uses `base` for target,
/// solver, budget, batch and seed; the workcell is generated.
pub fn run_multi_ot2(base: &AppConfig, n_ot2: usize) -> Result<MultiOt2Outcome, AppError> {
    assert!(n_ot2 >= 1);
    let hub = RngHub::new(base.seed);
    let yaml = multi_ot2_workcell_yaml(n_ot2);
    let mut cell_cfg = WorkcellConfig::from_yaml(&yaml)?;
    cell_cfg.default_camera_fidelity(base.fidelity.name());
    if let Some(drift) = base.drift {
        cell_cfg.default_camera_drift(&drift.name(), base.seed);
    }
    let cell = Workcell::instantiate(cell_cfg, base.dyes.clone(), base.mix)?;
    let engine = Engine::new(cell, hub).with_faults(base.faults.clone());

    let shared = Rc::new(RefCell::new(Shared {
        engine,
        solver: base.build_solver(base.dyes.len()).map_err(|e| AppError::Setup(e.to_string()))?,
        solver_rng: hub.stream("app.solver"),
        history: Vec::new(),
        remaining: base.sample_budget,
        samples_done: 0,
        plates_used: 0,
        per_handler: vec![0; n_ot2],
        error: None,
    }));

    let mut sim = Simulation::default();
    // One desim resource per contended module; the camera resource guards
    // the whole image turnaround (nest occupancy included).
    let mut res = BTreeMap::new();
    for name in ["sciclops", "pf400", "camera"] {
        res.insert(name.to_string(), sim.resource(1));
    }
    for i in 1..=n_ot2 {
        res.insert(format!("ot2_{i}"), sim.resource(1));
        res.insert(format!("barty_{i}"), sim.resource(1));
    }

    let batch = base.batch;
    let dyes = base.dyes.clone();
    let watermark = base.refill_watermark_ul;
    let compute_s = base.compute_seconds;

    for flow in 1..=n_ot2 {
        let shared = Rc::clone(&shared);
        let res = res.clone();
        let dyes = dyes.clone();
        let cfg = base.clone();
        sim.process(format!("flow-{flow}"), move |mut ctx| async move {
            let ot2 = format!("ot2_{flow}");
            let barty = format!("barty_{flow}");
            let deck = format!("{ot2}.deck");
            let detector = Detector::default();
            let mut scratch = DetectorScratch::default();

            // Dispatch one command while holding the module's resource.
            // Returns the data; records any engine error in `shared`.
            macro_rules! command {
                ($module:expr, $action:expr, $args:expr) => {{
                    let r = res[$module];
                    ctx.acquire(r).await;
                    let result =
                        shared.borrow_mut().engine.dispatch(ctx.now(), $module, $action, &$args);
                    match result {
                        Ok(cmd) => {
                            ctx.hold(cmd.busy).await;
                            ctx.release(r);
                            Some(cmd.data)
                        }
                        Err(e) => {
                            shared.borrow_mut().error.get_or_insert(e.to_string());
                            ctx.release(r);
                            None
                        }
                    }
                }};
            }

            let mut have_plate = false;
            'outer: loop {
                // Reserve a batch from the shared budget.
                let b = {
                    let mut s = shared.borrow_mut();
                    if s.error.is_some() || s.remaining == 0 {
                        break 'outer;
                    }
                    let b = s.remaining.min(batch);
                    s.remaining -= b;
                    b as usize
                };

                // Plate lifecycle: fetch on demand, swap when a full batch
                // no longer fits (same policy as the single-flow app).
                let mut wells: Vec<WellIndex> = Vec::new();
                for _ in 0..2 {
                    if have_plate {
                        let s = shared.borrow();
                        if let Ok(Some(id)) = s.engine.workcell.world.plate_at(&deck) {
                            if let Ok(plate) = s.engine.workcell.world.plate(id) {
                                wells = plate.next_free(b);
                            }
                        }
                    }
                    if wells.len() >= b && have_plate {
                        break;
                    }
                    // Trash the exhausted plate, then fetch a fresh one.
                    if have_plate {
                        let args =
                            ActionArgs::none().with("source", deck.clone()).with("target", "trash");
                        if command!("pf400", "transfer", args).is_none() {
                            break 'outer;
                        }
                    }
                    // sciclops held across the exchange hand-off so flows
                    // cannot collide on the exchange nest.
                    let crane = res["sciclops"];
                    ctx.acquire(crane).await;
                    let got = {
                        let result = shared.borrow_mut().engine.dispatch(
                            ctx.now(),
                            "sciclops",
                            "get_plate",
                            &ActionArgs::none(),
                        );
                        match result {
                            Ok(cmd) => {
                                ctx.hold(cmd.busy).await;
                                true
                            }
                            Err(e) => {
                                shared.borrow_mut().error.get_or_insert(e.to_string());
                                false
                            }
                        }
                    };
                    if !got {
                        ctx.release(crane);
                        break 'outer;
                    }
                    let args = ActionArgs::none()
                        .with("source", "sciclops.exchange")
                        .with("target", deck.clone());
                    let moved = command!("pf400", "transfer", args).is_some();
                    ctx.release(crane);
                    if !moved {
                        break 'outer;
                    }
                    shared.borrow_mut().plates_used += 1;
                    have_plate = true;
                    // Prime this handler's reservoirs.
                    if command!(&barty, "fill_colors", ActionArgs::none()).is_none() {
                        break 'outer;
                    }
                }
                if wells.len() < b {
                    let s = shared.borrow();
                    if let Ok(Some(id)) = s.engine.workcell.world.plate_at(&deck) {
                        if let Ok(plate) = s.engine.workcell.world.plate(id) {
                            wells = plate.next_free(b);
                        }
                    }
                }
                if wells.len() < b {
                    shared.borrow_mut().error.get_or_insert("plate allocation failed".into());
                    break 'outer;
                }
                let wells = &wells[..b];

                // Propose from the shared history.
                let (ratios, protocol) = {
                    let mut s = shared.borrow_mut();
                    let Shared { solver, history, solver_rng, samples_done, .. } = &mut *s;
                    // The shared counter orders concurrent flows, so a
                    // moving target advances identically run to run.
                    let target = cfg.target_at(*samples_done);
                    let ratios = solver.propose(target, history, b, solver_rng);
                    let protocol = match build_protocol(&ratios, wells, &dyes) {
                        Ok(p) => p,
                        Err(e) => {
                            s.error.get_or_insert(e.to_string());
                            break 'outer;
                        }
                    };
                    (ratios, protocol)
                };

                // Replenish this handler's bank when low.
                let needs_refill = {
                    let s = shared.borrow();
                    match s.engine.workcell.world.bank(&ot2) {
                        Ok(bank) => {
                            bank.reservoirs.iter().any(|r| r.volume_ul < watermark)
                                || !bank.can_supply(&protocol.demand_ul(dyes.len()))
                        }
                        Err(_) => false,
                    }
                };
                if needs_refill {
                    if command!(&barty, "drain_colors", ActionArgs::none()).is_none() {
                        break 'outer;
                    }
                    if command!(&barty, "fill_colors", ActionArgs::none()).is_none() {
                        break 'outer;
                    }
                }

                // Mix on this flow's handler (runs concurrently with other
                // flows — the whole point of the experiment).
                let args = ActionArgs::none().with_protocol(protocol);
                if command!(&ot2, "run_protocol", args).is_none() {
                    break 'outer;
                }

                // Image turnaround: hold the camera for the full nest visit.
                let cam = res["camera"];
                ctx.acquire(cam).await;
                let to_nest =
                    ActionArgs::none().with("source", deck.clone()).with("target", "camera.nest");
                if command!("pf400", "transfer", to_nest).is_none() {
                    ctx.release(cam);
                    break 'outer;
                }
                // The camera resource is already held for the whole nest
                // visit; dispatch the capture directly.
                let capture = shared.borrow_mut().engine.dispatch(
                    ctx.now(),
                    "camera",
                    "take_picture",
                    &ActionArgs::none(),
                );
                let image = match capture {
                    Ok(cmd) => {
                        ctx.hold(cmd.busy).await;
                        match cmd.data {
                            ActionData::Image(img) => img,
                            _ => {
                                shared
                                    .borrow_mut()
                                    .error
                                    .get_or_insert("camera returned no image".into());
                                ctx.release(cam);
                                break 'outer;
                            }
                        }
                    }
                    Err(e) => {
                        shared.borrow_mut().error.get_or_insert(e.to_string());
                        ctx.release(cam);
                        break 'outer;
                    }
                };
                let back =
                    ActionArgs::none().with("source", "camera.nest").with("target", deck.clone());
                if command!("pf400", "transfer", back).is_none() {
                    ctx.release(cam);
                    break 'outer;
                }
                ctx.release(cam);

                // Compute: detection + grading.
                ctx.hold(SimDuration::from_secs_f64(compute_s)).await;
                let reading = match detector.detect_with(&image, &mut scratch) {
                    Ok(r) => r,
                    Err(e) => {
                        shared.borrow_mut().error.get_or_insert(e.to_string());
                        break 'outer;
                    }
                };
                let mut s = shared.borrow_mut();
                for (ratio, well) in ratios.iter().zip(wells) {
                    let measured: Rgb8 =
                        reading.well(well.row, well.col).map(|w| w.color).unwrap_or_default();
                    let score = cfg.score_measurement(measured, s.samples_done);
                    s.history.push(Observation { ratios: ratio.clone(), measured, score });
                    s.samples_done += 1;
                    s.per_handler[flow - 1] += 1;
                }
            }
        });
    }

    let end = sim.run().map_err(|e| AppError::Setup(e.to_string()))?;
    let shared = Rc::try_unwrap(shared)
        .map_err(|_| AppError::Setup("flow still holds shared state".into()))?
        .into_inner();
    if let Some(err) = shared.error {
        return Err(AppError::Setup(err));
    }
    let best =
        sdl_solvers::best_observation(&shared.history).map(|o| o.score).unwrap_or(f64::INFINITY);
    let duration = end - SimTime::ZERO;
    let solver_fallbacks = shared.solver.degenerate_fallbacks();
    Ok(MultiOt2Outcome {
        n_ot2,
        samples_measured: shared.samples_done,
        duration,
        robotic_commands: shared.engine.counters.robotic_completed,
        total_commands: shared.engine.counters.completed,
        best_score: best,
        per_handler_samples: shared.per_handler,
        plates_used: shared.plates_used,
        time_per_color: if shared.samples_done > 0 {
            duration / shared.samples_done as u64
        } else {
            SimDuration::ZERO
        },
        solver_fallbacks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(samples: u32, batch: u32) -> AppConfig {
        AppConfig { sample_budget: samples, batch, publish_images: false, ..AppConfig::default() }
    }

    #[test]
    fn yaml_generator_scales() {
        let y = multi_ot2_workcell_yaml(3);
        let cfg = WorkcellConfig::from_yaml(&y).unwrap();
        assert_eq!(cfg.modules.len(), 2 + 3 * 2 + 1);
    }

    #[test]
    fn single_handler_matches_sequential_structure() {
        let out = run_multi_ot2(&base(8, 2), 1).expect("n=1 run");
        assert_eq!(out.samples_measured, 8);
        assert_eq!(out.per_handler_samples, vec![8]);
        assert!(out.best_score.is_finite());
    }

    #[test]
    fn two_handlers_split_work_and_finish_faster() {
        let one = run_multi_ot2(&base(16, 2), 1).expect("n=1");
        let two = run_multi_ot2(&base(16, 2), 2).expect("n=2");
        assert_eq!(two.samples_measured, 16);
        // Both handlers did real work.
        assert!(two.per_handler_samples.iter().all(|&s| s > 0), "{:?}", two.per_handler_samples);
        // The paper's prediction: lower TWH for the same experimental result.
        assert!(
            two.duration.as_secs_f64() < one.duration.as_secs_f64() * 0.75,
            "2 OT2s: {} vs 1 OT2: {}",
            two.duration,
            one.duration
        );
        // Commands at least match the single-handler count (extra plate
        // logistics can only add).
        assert!(two.robotic_commands >= one.robotic_commands.min(16 * 3));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_multi_ot2(&base(12, 3), 2).expect("a");
        let b = run_multi_ot2(&base(12, 3), 2).expect("b");
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.per_handler_samples, b.per_handler_samples);
    }
}
