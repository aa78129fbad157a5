//! `sdl-desim` — deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate that lets the color-picker benchmark replay
//! the paper's eight-hour robotic runs in milliseconds of wall time:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond virtual time;
//! * [`EventQueue`] — a time-ordered queue with FIFO tie-breaking;
//! * [`Simulation`] / [`ProcCtx`] — a *process executive*: workflows are
//!   `async` blocks, polled one at a time on the caller's thread, that
//!   `hold` virtual time and `acquire`/`release` shared resources (the robot
//!   arm, instrument decks);
//! * [`RngHub`] — named deterministic RNG streams, so every stochastic
//!   component is reproducible and independent of event interleaving;
//! * [`FaultPlan`] — per-module command-fault injection for the CCWH
//!   reliability experiments.
//!
//! # Example
//!
//! ```
//! use sdl_desim::{SimDuration, SimTime, Simulation};
//!
//! let mut sim = Simulation::default();
//! let pf400 = sim.resource(1);
//! for i in 0..2 {
//!     sim.process(format!("flow-{i}"), move |mut ctx| async move {
//!         ctx.acquire(pf400).await;
//!         ctx.hold(SimDuration::from_secs(30)).await;
//!         ctx.release(pf400);
//!     });
//! }
//! // The two flows take turns on the arm.
//! assert_eq!(sim.run(), Ok(SimTime::from_secs(60)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod fault;
mod queue;
mod rng;
mod time;

pub use exec::{ProcCtx, ResourceId, SimError, Simulation};
pub use fault::{FaultKind, FaultPlan, FaultRates};
pub use queue::EventQueue;
pub use rng::RngHub;
pub use time::{SimDuration, SimTime, MICROS_PER_SEC};
