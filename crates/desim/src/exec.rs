//! Deterministic process executive.
//!
//! Simulation *processes* are futures: `async` blocks that await
//! [`ProcCtx::hold`] (let simulated time pass) and [`ProcCtx::acquire`]
//! (wait for a shared resource such as a robot arm). [`Simulation::run`]
//! polls them one at a time on the caller's thread, each when its wake pops
//! from an [`EventQueue`], and advances the virtual clock between wakes. So
//! workcell workflows read as straight-line code while the kernel still
//! models real concurrency — two workflows contending for the `pf400` arm
//! queue exactly as they would on the physical rail — and a run starts no
//! thread.
//!
//! Determinism: wakes are ordered by `(time, sequence)`, resource queues
//! are FIFO, and one process runs at a time, so a run is a pure function of
//! the scheduled work.
//!
//! A process may await only its own context's `hold` and `acquire`. The run
//! loop polls with a no-op waker, so a future waiting on anything else is
//! never polled again, and the run ends in [`SimError::Deadlock`].

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Handle to a declared resource (capacity-limited, FIFO-granted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

struct Resource {
    capacity: usize,
    in_use: usize,
    /// Waiting processes, by index, in request order.
    waiters: VecDeque<usize>,
}

/// The scheduler state the run loop shares with every process context.
#[derive(Default)]
struct Kernel {
    now: SimTime,
    wakes: EventQueue<usize>,
    resources: Vec<Resource>,
    /// The units each process holds, by process index.
    held: Vec<Vec<ResourceId>>,
}

impl Kernel {
    /// Pop the next wake and move the clock to it.
    fn next_wake(&mut self) -> Option<usize> {
        let (at, proc) = self.wakes.pop()?;
        self.now = at;
        Some(proc)
    }

    fn hold(&mut self, proc: usize, dur: SimDuration) {
        self.wakes.push(self.now + dur, proc);
    }

    fn acquire(&mut self, proc: usize, res: ResourceId) {
        let state = &mut self.resources[res.0];
        if state.in_use < state.capacity {
            self.grant(proc, res);
        } else {
            state.waiters.push_back(proc);
        }
    }

    /// Give `proc` one unit of `res`. It resumes at the current instant,
    /// after the wakes already queued for that instant.
    fn grant(&mut self, proc: usize, res: ResourceId) {
        self.resources[res.0].in_use += 1;
        self.held[proc].push(res);
        self.wakes.push(self.now, proc);
    }

    fn release(&mut self, proc: usize, res: ResourceId) {
        let held = &mut self.held[proc];
        if let Some(pos) = held.iter().position(|r| *r == res) {
            held.swap_remove(pos);
        }
        let state = &mut self.resources[res.0];
        state.in_use = state.in_use.saturating_sub(1);
        if let Some(waiter) = state.waiters.pop_front() {
            self.grant(waiter, res);
        }
    }

    /// Return the units a finished process still holds, in the order it
    /// holds them.
    fn finish(&mut self, proc: usize) {
        for res in std::mem::take(&mut self.held[proc]) {
            self.release(proc, res);
        }
    }
}

/// Yield to the run loop once: the process is polled again at the wake it
/// queued before yielding.
fn suspend() -> impl Future<Output = ()> {
    let mut yielded = false;
    poll_fn(move |_| {
        if yielded {
            return Poll::Ready(());
        }
        yielded = true;
        Poll::Pending
    })
}

/// A process's handle on the simulation: the virtual clock and the
/// resources.
pub struct ProcCtx {
    id: usize,
    kernel: Rc<RefCell<Kernel>>,
}

impl ProcCtx {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().now
    }

    /// Let `dur` of virtual time pass.
    pub async fn hold(&mut self, dur: SimDuration) {
        self.kernel.borrow_mut().hold(self.id, dur);
        suspend().await
    }

    /// Wait until one unit of `res` is available and take it. Units are
    /// granted in request order. Pair with [`ProcCtx::release`]; units still
    /// held when the process ends are returned automatically.
    pub async fn acquire(&mut self, res: ResourceId) {
        self.kernel.borrow_mut().acquire(self.id, res);
        suspend().await
    }

    /// Return one unit of `res`.
    pub fn release(&mut self, res: ResourceId) {
        self.kernel.borrow_mut().release(self.id, res);
    }
}

/// Errors surfaced by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// All remaining processes are blocked on resources nobody will release.
    Deadlock {
        /// Names of the blocked processes.
        blocked: Vec<String>,
    },
    /// A process body panicked; the panic hook printed its message.
    ProcessPanicked {
        /// Name of the panicked process.
        name: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "simulation deadlocked; blocked processes: {}", blocked.join(", "))
            }
            SimError::ProcessPanicked { name } => write!(f, "process '{name}' panicked"),
        }
    }
}

impl std::error::Error for SimError {}

type Body = Pin<Box<dyn Future<Output = ()>>>;

/// A configured simulation: declare resources and processes, then
/// [`Simulation::run`].
#[derive(Default)]
pub struct Simulation {
    kernel: Rc<RefCell<Kernel>>,
    names: Vec<String>,
    bodies: Vec<Option<Body>>,
}

impl Simulation {
    /// Declare a resource with `capacity` concurrent units.
    pub fn resource(&mut self, capacity: usize) -> ResourceId {
        assert!(capacity > 0, "resource capacity must be positive");
        let resources = &mut self.kernel.borrow_mut().resources;
        resources.push(Resource { capacity, in_use: 0, waiters: VecDeque::new() });
        ResourceId(resources.len() - 1)
    }

    /// Declare a process started at t = 0: `body` receives the process's
    /// context and returns the future the run polls, typically
    /// `move |mut ctx| async move { … }`.
    pub fn process<F: Future<Output = ()> + 'static>(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(ProcCtx) -> F,
    ) {
        let id = self.bodies.len();
        {
            let mut kernel = self.kernel.borrow_mut();
            kernel.held.push(Vec::new());
            kernel.wakes.push(SimTime::ZERO, id);
        }
        let ctx = ProcCtx { id, kernel: Rc::clone(&self.kernel) };
        self.names.push(name.into());
        self.bodies.push(Some(Box::pin(body(ctx))));
    }

    /// Run to completion and return the instant of the last wake. Every
    /// process has been dropped by the time this returns, on success or
    /// error.
    pub fn run(mut self) -> Result<SimTime, SimError> {
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            let next = self.kernel.borrow_mut().next_wake();
            let Some(proc) = next else { break };
            let Some(body) = self.bodies[proc].as_mut() else { continue };
            match catch_unwind(AssertUnwindSafe(|| body.as_mut().poll(&mut cx))) {
                Ok(Poll::Pending) => {}
                Ok(Poll::Ready(())) => {
                    self.bodies[proc] = None;
                    self.kernel.borrow_mut().finish(proc);
                }
                Err(_) => return Err(SimError::ProcessPanicked { name: self.names[proc].clone() }),
            }
        }
        if self.bodies.iter().any(Option::is_some) {
            let blocked = self
                .kernel
                .borrow()
                .resources
                .iter()
                .flat_map(|r| r.waiters.iter().map(|&p| self.names[p].clone()))
                .collect();
            return Err(SimError::Deadlock { blocked });
        }
        let end = self.kernel.borrow().now;
        Ok(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngHub;
    use std::cell::Cell;

    #[test]
    fn single_process_advances_clock() {
        let mut sim = Simulation::default();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        sim.process("p", move |mut ctx| async move {
            ctx.hold(SimDuration::from_secs(10)).await;
            l.borrow_mut().push(ctx.now());
            ctx.hold(SimDuration::from_secs(5)).await;
            l.borrow_mut().push(ctx.now());
        });
        assert_eq!(sim.run(), Ok(SimTime::from_secs(15)));
        assert_eq!(*log.borrow(), vec![SimTime::from_secs(10), SimTime::from_secs(15)]);
    }

    #[test]
    fn resource_contention_serializes() {
        let mut sim = Simulation::default();
        let arm = sim.resource(1);
        let spans = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let spans = spans.clone();
            sim.process(format!("flow-{i}"), move |mut ctx| async move {
                ctx.acquire(arm).await;
                let start = ctx.now();
                ctx.hold(SimDuration::from_secs(10)).await;
                spans.borrow_mut().push((i, start, ctx.now()));
                ctx.release(arm);
            });
        }
        assert_eq!(sim.run(), Ok(SimTime::from_secs(30)));
        // Non-overlapping, granted in request order.
        assert_eq!(
            *spans.borrow(),
            vec![
                (0, SimTime::ZERO, SimTime::from_secs(10)),
                (1, SimTime::from_secs(10), SimTime::from_secs(20)),
                (2, SimTime::from_secs(20), SimTime::from_secs(30)),
            ]
        );
    }

    #[test]
    fn a_free_unit_resumes_behind_the_wakes_already_queued() {
        let mut sim = Simulation::default();
        let arm = sim.resource(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        sim.process("a", move |mut ctx| async move {
            ctx.acquire(arm).await;
            l.borrow_mut().push("a granted");
        });
        let l = log.clone();
        sim.process("b", move |_ctx| async move { l.borrow_mut().push("b started") });
        assert_eq!(sim.run(), Ok(SimTime::ZERO));
        // b's start was queued at t = 0 before a's grant.
        assert_eq!(*log.borrow(), vec!["b started", "a granted"]);
    }

    #[test]
    fn capacity_two_allows_overlap() {
        let mut sim = Simulation::default();
        let bay = sim.resource(2);
        for name in ["a", "b", "c"] {
            sim.process(name, move |mut ctx| async move {
                ctx.acquire(bay).await;
                ctx.hold(SimDuration::from_secs(10)).await;
                ctx.release(bay);
            });
        }
        // Two run together, the third queues: 10 + 10.
        assert_eq!(sim.run(), Ok(SimTime::from_secs(20)));
    }

    /// Counts its drops into a shared cell.
    struct DropCount(Rc<Cell<usize>>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn deadlock_is_reported_after_every_process_is_dropped() {
        let mut sim = Simulation::default();
        let a = sim.resource(1);
        let b = sim.resource(1);
        let dropped = Rc::new(Cell::new(0));
        for (name, first, second) in [("p1", a, b), ("p2", b, a)] {
            let guard = DropCount(dropped.clone());
            sim.process(name, move |mut ctx| async move {
                let _guard = guard;
                ctx.acquire(first).await;
                ctx.hold(SimDuration::from_secs(1)).await;
                ctx.acquire(second).await;
                ctx.release(second);
                ctx.release(first);
            });
        }
        assert_eq!(sim.run(), Err(SimError::Deadlock { blocked: vec!["p2".into(), "p1".into()] }));
        assert_eq!(dropped.get(), 2);
    }

    #[test]
    fn panic_is_reported_after_every_process_is_dropped() {
        let mut sim = Simulation::default();
        let arm = sim.resource(1);
        let dropped = Rc::new(Cell::new(0));
        let guard = DropCount(dropped.clone());
        sim.process("bad", move |mut ctx| async move {
            let _guard = guard;
            ctx.acquire(arm).await;
            ctx.hold(SimDuration::from_secs(1)).await;
            panic!("boom");
        });
        let guard = DropCount(dropped.clone());
        sim.process("waiter", move |mut ctx| async move {
            let _guard = guard;
            ctx.acquire(arm).await;
        });
        assert_eq!(sim.run(), Err(SimError::ProcessPanicked { name: "bad".into() }));
        assert_eq!(dropped.get(), 2);
    }

    #[test]
    fn held_resources_released_on_finish() {
        let mut sim = Simulation::default();
        let r = sim.resource(1);
        sim.process("holder", move |mut ctx| async move {
            ctx.acquire(r).await;
            ctx.hold(SimDuration::from_secs(5)).await;
            // Never releases explicitly.
        });
        sim.process("waiter", move |mut ctx| async move {
            ctx.hold(SimDuration::from_secs(1)).await;
            ctx.acquire(r).await;
            ctx.release(r);
        });
        assert_eq!(sim.run(), Ok(SimTime::from_secs(5)));
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once() -> Vec<(SimTime, String)> {
            let hub = RngHub::new(11);
            let mut sim = Simulation::default();
            let arm = sim.resource(1);
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..5 {
                let log = log.clone();
                let name = format!("f{i}");
                let mut rng = hub.substream("dur", i);
                sim.process(name.clone(), move |mut ctx| async move {
                    use rand::Rng;
                    let d = SimDuration::from_millis(rng.gen_range(100..2_000));
                    ctx.acquire(arm).await;
                    ctx.hold(d).await;
                    log.borrow_mut().push((ctx.now(), name));
                    ctx.release(arm);
                });
            }
            sim.run().unwrap();
            log.take()
        }
        assert_eq!(run_once(), run_once());
    }
}
