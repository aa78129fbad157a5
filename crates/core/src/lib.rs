//! `sdl-core` — the color-picker application (the paper's primary
//! contribution, Figure 2).
//!
//! [`Experiment`] is the ask/tell session at the heart of the crate: it
//! proposes dye-ratio batches and grades the measurements that come back,
//! while a pluggable [`LabBackend`] executes them — [`SimBackend`] (the
//! simulated workcell driven through the four `cp_wf_*` workflows with the
//! §2.4 detection pipeline, on a virtual clock calibrated to Table 1),
//! [`RemoteBackend`] (a worker process over HTTP), or [`ReplayBackend`]
//! (recorded runs re-driven offline). [`ColorPickerApp`] is the
//! closed-loop compatibility wrapper: one `run()` drives an `Experiment`
//! on a `SimBackend`, publishing every sample to the ACDC-style portal.
//!
//! # Quickstart
//!
//! ```
//! use sdl_core::{AppConfig, ColorPickerApp};
//!
//! let config = AppConfig { sample_budget: 4, batch: 2, publish_images: false, ..AppConfig::default() };
//! let outcome = ColorPickerApp::new(config).unwrap().run().unwrap();
//! assert_eq!(outcome.samples_measured, 4);
//! assert!(outcome.best_score.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod backend;
mod campaign;
pub mod chaos;
mod config;
mod experiment;
mod flags;
mod metrics;
mod multi;
mod protocol;
mod termination;

pub use app::{
    AppError, ColorPickerApp, ExperimentOutcome, TrajectoryPoint, WF_MIXCOLOR, WF_NEWPLATE,
    WF_REPLENISH, WF_TRASHPLATE,
};
pub use backend::{
    wire, BackendCaps, BackendClose, BackendSpec, Batch, BatchResult, LabBackend, RemoteBackend,
    RemoteStats, ReplayBackend, RetryPolicy, SimBackend, WellMeasurement,
};
pub use campaign::{
    batch_sweep, run_one, run_sweep, solver_sweep, CampaignConfig, CampaignEvent, CampaignReport,
    CampaignRunner, CampaignScheduler, EventLog, EventRecord, EventScope, Leaderboard,
    LeaderboardRow, MultiTelemetry, PhaseTimings, ProgressModel, RecoveryReport, ResumeStats,
    RunMode, ScenarioOutcome, ScenarioResult, ScenarioSpec, ScenarioSummary, SchedulerReport,
    SingleTelemetry, StressKind, StressSuite, SweepItem, WorkerProgress, WorkerStats,
};
pub use chaos::{ChaosClock, ChaosPolicy, ChaosStream, WorkerFault};
pub use config::{closest_name, AppConfig, ConfigError};
pub use experiment::Experiment;
pub use flags::{Arg, Flags};
pub use metrics::SdlMetrics;
pub use multi::{multi_ot2_workcell_yaml, run_multi_ot2, MultiOt2Outcome};
pub use protocol::{build_protocol, ProtocolError};
pub use termination::TerminationReason;
