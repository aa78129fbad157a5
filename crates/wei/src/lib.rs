//! `sdl-wei` — the workflow-execution framework (the WEI platform
//! substitute, paper §2.2).
//!
//! * [`WorkcellConfig`] / [`Workcell`] — declarative YAML workcells
//!   instantiated into live instrument fleets over a shared world;
//! * [`Workflow`] / [`Payload`] — declarative workflows with `${var}`
//!   substitution and protocol payload attachment;
//! * [`Engine`] — step dispatch with fault injection, automatic retries,
//!   simulated human recovery, run logs and the command accounting behind
//!   the paper's TWH / CCWH metrics;
//! * [`RPL_WORKCELL_YAML`] — the default five-module RPL cell (Figure 1).
//!
//! Workflows are portable: the same document runs on any workcell providing
//! the referenced module names and actions, which is the paper's central
//! platform claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod runlog;
mod workcell;
mod workflow;

pub use engine::{
    Clock, CommandResult, Counters, Engine, Reliability, RetryPolicy, RunOutput, SeqClock,
};
pub use error::WeiError;
pub use runlog::{StepRecord, WorkflowRunLog};
pub use workcell::{workcell_diagram, ModuleConfig, Workcell, WorkcellConfig, RPL_WORKCELL_YAML};
pub use workflow::{Payload, Workflow, WorkflowStep};
