//! Property tests for the simulation kernel.

use proptest::prelude::*;
use sdl_desim::{EventQueue, RngHub, SimDuration, SimTime, Simulation};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

proptest! {
    /// Popping the event queue always yields non-decreasing times, and
    /// same-time payloads come out in insertion order.
    #[test]
    fn event_queue_is_stable_ordered(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated for equal times");
                }
            }
            last = Some((t, i));
        }
    }

    /// Time arithmetic: (t + d) - t == d for all representable values.
    #[test]
    fn add_then_subtract_roundtrips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(t);
        let d = SimDuration::from_micros(d);
        prop_assert_eq!((t + d) - t, d);
    }

    /// Named streams are a pure function of (seed, name).
    #[test]
    fn rng_streams_are_pure(seed in any::<u64>(), name in "[a-z]{1,12}") {
        use rand::Rng;
        let a: u64 = RngHub::new(seed).stream(&name).gen();
        let b: u64 = RngHub::new(seed).stream(&name).gen();
        prop_assert_eq!(a, b);
    }

    /// A pipeline of processes contending for one resource always ends at
    /// the sum of their hold times, no matter the individual durations.
    #[test]
    fn serialized_holds_sum(durs in proptest::collection::vec(1u64..5_000u64, 1..12)) {
        let mut sim = Simulation::default();
        let arm = sim.resource(1);
        for (i, &ms) in durs.iter().enumerate() {
            sim.process(format!("p{i}"), move |mut ctx| async move {
                ctx.acquire(arm).await;
                ctx.hold(SimDuration::from_millis(ms)).await;
                ctx.release(arm);
            });
        }
        let total: u64 = durs.iter().sum();
        prop_assert_eq!(sim.run(), Ok(SimTime::ZERO + SimDuration::from_millis(total)));
    }

    /// With capacity >= number of processes there is no queueing: the end
    /// time equals the maximum hold, not the sum.
    #[test]
    fn parallel_holds_max(durs in proptest::collection::vec(1u64..5_000u64, 1..10)) {
        let n = durs.len();
        let mut sim = Simulation::default();
        let bay = sim.resource(n);
        for (i, &ms) in durs.iter().enumerate() {
            sim.process(format!("p{i}"), move |mut ctx| async move {
                ctx.acquire(bay).await;
                ctx.hold(SimDuration::from_millis(ms)).await;
                ctx.release(bay);
            });
        }
        let max = *durs.iter().max().unwrap();
        prop_assert_eq!(sim.run(), Ok(SimTime::ZERO + SimDuration::from_millis(max)));
    }
}

/// Same seed, same program → the same interleaving: every process logs each
/// step with its instant, and two runs write the same log.
#[test]
fn full_log_determinism() {
    fn run() -> String {
        let hub = RngHub::new(123);
        let mut sim = Simulation::default();
        let arm = sim.resource(1);
        let deck = sim.resource(2);
        let log = Rc::new(RefCell::new(String::new()));
        for i in 0..6u64 {
            let log = log.clone();
            let mut rng = hub.substream("d", i);
            sim.process(format!("wf{i}"), move |mut ctx| async move {
                use rand::Rng;
                ctx.acquire(arm).await;
                let _ = writeln!(log.borrow_mut(), "wf{i} arm {}", ctx.now());
                ctx.hold(SimDuration::from_millis(rng.gen_range(10..500))).await;
                ctx.release(arm);
                ctx.acquire(deck).await;
                let _ = writeln!(log.borrow_mut(), "wf{i} deck {}", ctx.now());
                ctx.hold(SimDuration::from_millis(rng.gen_range(10..500))).await;
                ctx.release(deck);
                let _ = writeln!(log.borrow_mut(), "wf{i} done {}", ctx.now());
            });
        }
        let end = sim.run().unwrap();
        let mut s = log.take();
        let _ = writeln!(s, "end {end}");
        s
    }
    assert_eq!(run(), run());
}
