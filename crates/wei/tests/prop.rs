//! Property tests: the engine's run logs and accounting are internally
//! consistent on randomized plate-logistics workloads.

use proptest::prelude::*;
use sdl_color::{DyeSet, MixKind};
use sdl_desim::{FaultPlan, FaultRates, RngHub, SimTime};
use sdl_wei::{Engine, Payload, SeqClock, Workcell, WorkcellConfig, Workflow, RPL_WORKCELL_YAML};

fn engine(seed: u64, plan: FaultPlan) -> Engine {
    let cfg = WorkcellConfig::from_yaml(RPL_WORKCELL_YAML).unwrap();
    let cell = Workcell::instantiate(cfg, DyeSet::cmyk(), MixKind::BeerLambert).unwrap();
    Engine::new(cell, RngHub::new(seed)).with_faults(plan)
}

/// A plate round trip: fetch, stage, trash. Safe to repeat indefinitely.
fn roundtrip_wf() -> Workflow {
    Workflow::from_yaml(
        "name: roundtrip\nmodules: [sciclops, pf400, barty]\nsteps:\n  - name: Get\n    module: sciclops\n    action: get_plate\n  - name: Stage\n    module: pf400\n    action: transfer\n    args: {source: sciclops.exchange, target: camera.nest}\n  - name: Refill\n    module: barty\n    action: fill_colors\n  - name: Trash\n    module: pf400\n    action: transfer\n    args: {source: camera.nest, target: trash}\n",
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// However many times the workflow runs and whatever the fault rate,
    /// the accounting invariants hold: monotone non-overlapping steps,
    /// attempts >= completions, counters match history.
    #[test]
    fn engine_accounting_invariants(
        runs in 1usize..6,
        fault_pct in 0u32..30,
        seed in 0u64..50,
    ) {
        let rate = fault_pct as f64 / 100.0;
        let mut e = engine(seed, FaultPlan::uniform(FaultRates::new(rate, rate / 2.0)));
        let mut clock = SeqClock::new();
        let wf = roundtrip_wf();
        let mut completed_runs = 0u64;
        for _ in 0..runs {
            if e.run_workflow(&mut clock, &wf, &Payload::none()).is_err() {
                break; // heavy faults can exhaust even the human's patience
            }
            completed_runs += 1;
        }

        // History contains exactly the completed runs.
        prop_assert_eq!(e.history.len() as u64, completed_runs);
        let mut last_end = SimTime::ZERO;
        let mut steps = 0u64;
        for log in &e.history {
            prop_assert!(log.start >= last_end);
            let mut cursor = log.start;
            for r in &log.records {
                prop_assert!(r.start >= cursor, "steps overlap");
                prop_assert!(r.end >= r.start);
                prop_assert!(r.attempts >= 1);
                cursor = r.end;
                steps += 1;
            }
            prop_assert_eq!(cursor, log.end);
            last_end = log.end;
        }
        // Every completed step is a completed command; attempts cover them.
        prop_assert_eq!(e.counters.completed, steps);
        prop_assert!(e.counters.attempts >= e.counters.completed);
        // All four steps are robotic in this workflow.
        prop_assert_eq!(e.counters.robotic_completed, steps);
        // CCWH streak can never exceed total robotic completions.
        prop_assert!(e.reliability.commands_without_humans() <= e.counters.robotic_completed);
        // The clock only moves forward and matches history.
        prop_assert_eq!(clock.now(), last_end);
    }

    /// Fault-free runs have exactly one attempt per command and no humans.
    #[test]
    fn clean_runs_have_clean_counters(runs in 1usize..5, seed in 0u64..50) {
        let mut e = engine(seed, FaultPlan::none());
        let mut clock = SeqClock::new();
        let wf = roundtrip_wf();
        for _ in 0..runs {
            e.run_workflow(&mut clock, &wf, &Payload::none()).unwrap();
        }
        prop_assert_eq!(e.counters.attempts, e.counters.completed);
        prop_assert_eq!(e.counters.human_interventions, 0);
        prop_assert_eq!(e.reliability.commands_without_humans(), e.counters.robotic_completed);
        prop_assert!(e.history.iter().all(|l| l.records.iter().all(|r| r.attempts == 1)));
    }

    /// Workflow retargeting is name-complete: every module reference is
    /// renamed, nothing else changes.
    #[test]
    fn retarget_renames_consistently(suffix in "[a-z]{1,6}") {
        let wf = roundtrip_wf();
        let map: std::collections::BTreeMap<String, String> = wf
            .modules
            .iter()
            .map(|m| (m.clone(), format!("{m}_{suffix}")))
            .collect();
        let renamed = wf.retarget(&map);
        prop_assert_eq!(renamed.steps.len(), wf.steps.len());
        for (old, new) in wf.steps.iter().zip(&renamed.steps) {
            prop_assert_eq!(&new.module, &map[&old.module]);
            prop_assert_eq!(&new.action, &old.action);
            prop_assert_eq!(&new.args, &old.args);
        }
        let tail = format!("_{suffix}");
        for m in &renamed.modules {
            prop_assert!(m.ends_with(&tail), "{} lacks suffix {}", m, tail);
        }
    }
}
