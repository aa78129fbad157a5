//! Deterministic, seeded chaos injection for the distributed stack.
//!
//! Production failures hit three layers — the transport between driver and
//! workers, the worker processes themselves, and the durable event log —
//! and each layer carries a contract (idempotent resends, eviction and
//! readmission, clean-prefix recovery) that is only believable if it is
//! exercised *systematically*. This module makes failure a first-class,
//! reproducible input:
//!
//! * [`ChaosPolicy`] — a parsed fault schedule (`seed=7,connect=0.2,...`)
//!   shared by every layer.
//! * [`ChaosStream`] — the client-side roll stream used by
//!   [`RemoteBackend`](crate::RemoteBackend). Rolls are a pure counter-based
//!   function of `(seed, key, roll index)` via [`rand::counter::hash`], so
//!   a fixed `(chaos_seed, worker, scenario, attempt)` tuple reproduces the
//!   exact same fault interleaving on every run — chaos is replayable, not
//!   merely random.
//! * [`ChaosClock`] — the worker-side shared stream (`sdl-lab serve
//!   --chaos`), rolled once per `/v1` request to stall, error, or hang up
//!   sessions in-process.
//! * [`Corruption`] — an event-log corruption injector (torn tails, bit
//!   flips, truncated boundaries) feeding `EventLog::recover` fuzzing.
//!
//! Faults split into two families. *Retry-safe* faults (connect refusals,
//! pre-read disconnects, injected 5xx, duplicate-response replays, read
//! timeouts) land on paths the stack already guarantees are idempotent —
//! a campaign under any retry-safe schedule must produce a fingerprint
//! bit-identical to the clean run. Everything else (worker kills past the
//! failure budget, hard scenario errors) must degrade *gracefully*: the
//! campaign terminates with deterministic `scenario_failed` results
//! instead of hanging or corrupting the merge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rand::counter;

/// A parsed chaos schedule: per-fault probabilities plus the seed that
/// makes every injection decision reproducible.
///
/// Parsed from a `key=value` spec string (see [`ChaosPolicy::parse`]).
/// Client-side faults (`connect`, `disconnect`, `timeout`, `http500`,
/// `replay`) drive [`ChaosStream`]; worker-side faults (`stall`, `error`,
/// `kill`) drive [`ChaosClock`]. A single policy can carry both families —
/// each layer only rolls the faults it owns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPolicy {
    /// Seed for every injection roll. Same seed, same schedule of faults.
    pub seed: u64,
    /// P(refuse a TCP connect attempt) — client side, retry-safe.
    pub connect: f64,
    /// P(drop the connection after sending, before reading the response) —
    /// client side, retry-safe (the worker's idempotent replay absorbs the
    /// resend).
    pub disconnect: f64,
    /// P(simulate a read timeout) — client side. Surfaces as a transport
    /// error, so the scheduler evicts the worker and re-drives elsewhere;
    /// retry-safe at the campaign level.
    pub timeout: f64,
    /// P(synthesize an HTTP 500 instead of sending the request) — client
    /// side, retry-safe (the request is never sent, so a resend is a plain
    /// first send).
    pub http500: f64,
    /// P(discard a good response and resend, exercising the worker's
    /// duplicate-response replay cache) — client side, retry-safe.
    pub replay: f64,
    /// P(stall a `/v1` request by [`stall_ms`](ChaosPolicy::stall_ms)) —
    /// worker side, retry-safe (slow is not wrong).
    pub stall: f64,
    /// P(answer a `/v1` request with a real HTTP 500) — worker side. Not
    /// retry-safe: surfaces as a deterministic scenario failure.
    pub error: f64,
    /// P(hang up a `/v1` connection without answering) — worker side.
    /// Exercises eviction/readmission/steal; quarantine bounds the damage.
    pub kill: f64,
    /// P(shed a `/v1` request with a 429 + `Retry-After`, as if a quota
    /// had run dry) — worker side, retry-safe (the client treats it as
    /// backpressure and retries the same worker).
    pub shed: f64,
    /// P(trickle the request onto the wire in two halves with a pause
    /// between them, simulating a slow client) — client side, retry-safe
    /// (slower, never wrong; exercises the server's read deadlines).
    pub slow_reader: f64,
    /// How long a `stall` fault sleeps, in milliseconds. Also the pause a
    /// `slow_reader` fault inserts mid-request.
    pub stall_ms: u64,
}

impl Default for ChaosPolicy {
    /// All probabilities zero: a no-op policy that injects nothing.
    fn default() -> ChaosPolicy {
        ChaosPolicy {
            seed: 0,
            connect: 0.0,
            disconnect: 0.0,
            timeout: 0.0,
            http500: 0.0,
            replay: 0.0,
            stall: 0.0,
            error: 0.0,
            kill: 0.0,
            shed: 0.0,
            slow_reader: 0.0,
            stall_ms: 25,
        }
    }
}

impl ChaosPolicy {
    /// Parse a `key=value,key=value` chaos spec, e.g.
    /// `seed=7,connect=0.2,disconnect=0.1,replay=0.1` (client) or
    /// `seed=1,stall=0.3,stall_ms=50,kill=0.05` (worker). Unknown keys and
    /// probabilities outside `[0, 1]` are errors. An empty spec is the
    /// no-op policy.
    pub fn parse(spec: &str) -> Result<ChaosPolicy, String> {
        let mut policy = ChaosPolicy::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec: `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let prob = |slot: &mut f64| -> Result<(), String> {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("chaos spec: `{key}={value}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos spec: `{key}={value}` must be in [0, 1]"));
                }
                *slot = p;
                Ok(())
            };
            match key {
                "seed" => {
                    policy.seed = value
                        .parse()
                        .map_err(|_| format!("chaos spec: `seed={value}` is not a u64"))?;
                }
                "stall_ms" => {
                    policy.stall_ms = value
                        .parse()
                        .map_err(|_| format!("chaos spec: `stall_ms={value}` is not a u64"))?;
                }
                "connect" => prob(&mut policy.connect)?,
                "disconnect" => prob(&mut policy.disconnect)?,
                "timeout" => prob(&mut policy.timeout)?,
                "http500" => prob(&mut policy.http500)?,
                "replay" => prob(&mut policy.replay)?,
                "stall" => prob(&mut policy.stall)?,
                "error" => prob(&mut policy.error)?,
                "kill" => prob(&mut policy.kill)?,
                "shed" => prob(&mut policy.shed)?,
                "slow_reader" => prob(&mut policy.slow_reader)?,
                other => return Err(format!("chaos spec: unknown key `{other}`")),
            }
        }
        Ok(policy)
    }

    /// True when no fault has a non-zero probability (the policy is inert).
    pub fn is_noop(&self) -> bool {
        [
            self.connect,
            self.disconnect,
            self.timeout,
            self.http500,
            self.replay,
            self.stall,
            self.error,
            self.kill,
            self.shed,
            self.slow_reader,
        ]
        .iter()
        .all(|&p| p == 0.0)
    }

    /// True when every client-side fault in the policy is retry-safe, i.e.
    /// the fingerprint-identity contract applies (no worker-side scenario
    /// failures are scheduled).
    pub fn is_retry_safe(&self) -> bool {
        self.error == 0.0 && self.kill == 0.0
    }

    /// A [`ChaosStream`] for one injection site, keyed so distinct sites
    /// (worker × scenario × attempt) roll independent schedules.
    pub fn stream(&self, key: u64) -> ChaosStream {
        ChaosStream { policy: *self, key: counter::hash(self.seed, key), counter: 0 }
    }
}

/// The key identifying one client-side injection site: a pure function of
/// `(worker url, scenario index, attempt)`, so the fault schedule a backend
/// experiences is fixed by where it points and which re-drive it is.
pub fn stream_key(worker: &str, scenario: usize, attempt: u32) -> u64 {
    let url = counter::mix64(fnv1a64(worker.as_bytes()));
    counter::hash(counter::hash(url, scenario as u64), attempt as u64)
}

/// FNV-1a 64-bit — the same tiny hash the event log uses for line
/// checksums, reused here to fold worker URLs into stream keys.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic roll stream for one client-side injection site.
///
/// Each call to [`fires`](ChaosStream::fires) consumes one counter tick;
/// the sequence of decisions is a pure function of `(policy.seed, key)`.
/// [`RemoteBackend`](crate::RemoteBackend) holds one stream per scenario
/// attempt and rolls it at every fault point in a fixed order, so replaying
/// the same attempt replays the same faults.
#[derive(Debug, Clone)]
pub struct ChaosStream {
    policy: ChaosPolicy,
    key: u64,
    counter: u64,
}

impl ChaosStream {
    /// The policy this stream rolls against.
    pub fn policy(&self) -> &ChaosPolicy {
        &self.policy
    }

    /// Roll once: true with probability `p`, deterministically in the
    /// stream's counter sequence. Every call advances the counter whether
    /// or not the fault fires, so fault points stay aligned across runs.
    pub fn fires(&mut self, p: f64) -> bool {
        let bits = counter::hash(self.key, self.counter);
        self.counter = self.counter.wrapping_add(1);
        p > 0.0 && counter::unit_f64(bits) < p
    }
}

/// What a worker decides to do to one incoming `/v1` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Serve it normally.
    None,
    /// Sleep this long first, then serve it (retry-safe: slow ≠ wrong).
    Stall(Duration),
    /// Answer with a real HTTP 500 (a deterministic scenario failure).
    Error,
    /// Hang up without answering (exercises eviction/readmission).
    Kill,
    /// Refuse with a 429 + `Retry-After` (deterministic overload; the
    /// client treats it as backpressure, not a scenario failure).
    Shed,
}

/// The worker-side chaos stream: one shared atomic counter rolled per
/// `/v1` request, so a fixed seed yields a fixed fault sequence in request
/// arrival order. Health probes (`/healthz`) are never chaos'd — a worker
/// under chaos must still be *observable*, or readmission could never run.
#[derive(Debug)]
pub struct ChaosClock {
    policy: ChaosPolicy,
    counter: AtomicU64,
}

impl ChaosClock {
    /// A clock rolling `policy`'s worker-side faults from tick zero.
    pub fn new(policy: ChaosPolicy) -> ChaosClock {
        ChaosClock { policy, counter: AtomicU64::new(0) }
    }

    /// The policy this clock rolls against.
    pub fn policy(&self) -> &ChaosPolicy {
        &self.policy
    }

    /// Roll the next tick into a [`WorkerFault`]. One uniform draw is cut
    /// by cumulative probability — kill, then error, then shed, then
    /// stall — so the per-request fault mix matches the spec exactly (and
    /// a zero-probability family never perturbs the others' schedule).
    pub fn decide(&self) -> WorkerFault {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let u = counter::unit_f64(counter::hash(self.policy.seed, n));
        let p = &self.policy;
        if u < p.kill {
            WorkerFault::Kill
        } else if u < p.kill + p.error {
            WorkerFault::Error
        } else if u < p.kill + p.error + p.shed {
            WorkerFault::Shed
        } else if u < p.kill + p.error + p.shed + p.stall {
            WorkerFault::Stall(Duration::from_millis(p.stall_ms))
        } else {
            WorkerFault::None
        }
    }
}

/// One way to damage an event-log file, as a value — so a corruption
/// schedule can be generated, logged, and replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Cut the file mid-line at byte `cut` (a crash during a write).
    TornTail {
        /// Byte offset to truncate at.
        cut: usize,
    },
    /// Flip one bit (silent media corruption; breaks that line's checksum).
    BitFlip {
        /// Byte offset of the damaged byte.
        offset: usize,
        /// Which bit (0–7) to flip.
        bit: u8,
    },
    /// Keep only the first `keep` complete events (a crash between
    /// fsync batches that loses a whole tail of lines).
    TruncateEvents {
        /// Number of newline-terminated lines to keep.
        keep: usize,
    },
}

/// Apply one [`Corruption`] to a log image, returning the damaged bytes.
/// Out-of-range offsets clamp to the valid range so generated schedules
/// can never panic.
pub fn apply_corruption(bytes: &[u8], c: Corruption) -> Vec<u8> {
    match c {
        Corruption::TornTail { cut } => bytes[..cut.min(bytes.len())].to_vec(),
        Corruption::BitFlip { offset, bit } => {
            let mut out = bytes.to_vec();
            if let Some(b) = out.get_mut(offset.min(bytes.len().saturating_sub(1))) {
                *b ^= 1 << (bit % 8);
            }
            out
        }
        Corruption::TruncateEvents { keep } => {
            let mut end = 0usize;
            let mut lines = 0usize;
            for (i, &b) in bytes.iter().enumerate() {
                if lines == keep {
                    break;
                }
                if b == b'\n' {
                    lines += 1;
                    end = i + 1;
                }
            }
            if lines < keep {
                end = bytes.len();
            }
            bytes[..end].to_vec()
        }
    }
}

/// Generate `count` deterministic corruptions for a log image: a seeded
/// mix of torn tails, bit flips, and whole-event truncations sized to the
/// image. Pure in `(seed, bytes.len(), count)`.
pub fn corruption_schedule(seed: u64, bytes: &[u8], count: usize) -> Vec<Corruption> {
    let len = bytes.len().max(1);
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    (0..count as u64)
        .map(|i| {
            let kind = counter::hash(seed, i * 3);
            let a = counter::hash(seed, i * 3 + 1);
            let b = counter::hash(seed, i * 3 + 2);
            match kind % 3 {
                0 => Corruption::TornTail { cut: (a as usize) % len },
                1 => Corruption::BitFlip { offset: (a as usize) % len, bit: (b % 8) as u8 },
                _ => Corruption::TruncateEvents { keep: (a as usize) % (lines + 1) },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_key() {
        let p = ChaosPolicy::parse(
            "seed=42, connect=0.1, disconnect=0.2, timeout=0.05, http500=0.3, \
             replay=0.15, stall=0.4, error=0.25, kill=0.5, shed=0.35, \
             slow_reader=0.45, stall_ms=75",
        )
        .unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.connect, 0.1);
        assert_eq!(p.disconnect, 0.2);
        assert_eq!(p.timeout, 0.05);
        assert_eq!(p.http500, 0.3);
        assert_eq!(p.replay, 0.15);
        assert_eq!(p.stall, 0.4);
        assert_eq!(p.error, 0.25);
        assert_eq!(p.kill, 0.5);
        assert_eq!(p.shed, 0.35);
        assert_eq!(p.slow_reader, 0.45);
        assert_eq!(p.stall_ms, 75);
        assert!(!p.is_noop());
        assert!(!p.is_retry_safe());
        // The overload family alone is retry-safe: sheds are backpressure,
        // slow reads are just slow.
        let overload = ChaosPolicy::parse("seed=1,shed=0.3,slow_reader=0.2").unwrap();
        assert!(!overload.is_noop());
        assert!(overload.is_retry_safe());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(ChaosPolicy::parse("connect=1.5").is_err());
        assert!(ChaosPolicy::parse("connect=-0.1").is_err());
        assert!(ChaosPolicy::parse("warp=0.5").is_err());
        assert!(ChaosPolicy::parse("connect").is_err());
        assert!(ChaosPolicy::parse("seed=abc").is_err());
        assert!(ChaosPolicy::parse("").unwrap().is_noop());
    }

    #[test]
    fn streams_are_reproducible_and_site_independent() {
        let p = ChaosPolicy::parse("seed=7,disconnect=0.5").unwrap();
        let rolls = |key: u64| -> Vec<bool> {
            let mut s = p.stream(key);
            (0..64).map(|_| s.fires(p.disconnect)).collect()
        };
        // Same (seed, key) → same schedule; different keys → different ones.
        assert_eq!(rolls(1), rolls(1));
        assert_ne!(rolls(1), rolls(2));
        // A different seed reshuffles the same key.
        let p2 = ChaosPolicy::parse("seed=8,disconnect=0.5").unwrap();
        let mut s2 = p2.stream(1);
        let r2: Vec<bool> = (0..64).map(|_| s2.fires(p2.disconnect)).collect();
        assert_ne!(rolls(1), r2);
    }

    #[test]
    fn zero_probability_never_fires_and_one_always_does() {
        let p = ChaosPolicy::default();
        let mut s = p.stream(9);
        assert!((0..256).all(|_| !s.fires(0.0)));
        let mut s = p.stream(9);
        assert!((0..256).all(|_| s.fires(1.0)));
    }

    #[test]
    fn stream_keys_separate_worker_scenario_and_attempt() {
        let k = stream_key("127.0.0.1:8331", 3, 0);
        assert_eq!(k, stream_key("127.0.0.1:8331", 3, 0));
        assert_ne!(k, stream_key("127.0.0.1:8332", 3, 0));
        assert_ne!(k, stream_key("127.0.0.1:8331", 4, 0));
        assert_ne!(k, stream_key("127.0.0.1:8331", 3, 1));
    }

    #[test]
    fn clock_rates_track_the_spec() {
        let p =
            ChaosPolicy::parse("seed=3,kill=0.2,error=0.1,shed=0.15,stall=0.3,stall_ms=5").unwrap();
        let clock = ChaosClock::new(p);
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            match clock.decide() {
                WorkerFault::Kill => counts[0] += 1,
                WorkerFault::Error => counts[1] += 1,
                WorkerFault::Stall(d) => {
                    assert_eq!(d, Duration::from_millis(5));
                    counts[2] += 1;
                }
                WorkerFault::None => counts[3] += 1,
                WorkerFault::Shed => counts[4] += 1,
            }
        }
        let near = |n: usize, p: f64| (n as f64 / 10_000.0 - p).abs() < 0.03;
        assert!(near(counts[0], 0.2), "kill rate {}", counts[0]);
        assert!(near(counts[1], 0.1), "error rate {}", counts[1]);
        assert!(near(counts[2], 0.3), "stall rate {}", counts[2]);
        assert!(near(counts[3], 0.25), "clean rate {}", counts[3]);
        assert!(near(counts[4], 0.15), "shed rate {}", counts[4]);
        // Same seed, fresh clock → identical sequence.
        let a: Vec<WorkerFault> = {
            let c = ChaosClock::new(p);
            (0..32).map(|_| c.decide()).collect()
        };
        let b: Vec<WorkerFault> = {
            let c = ChaosClock::new(p);
            (0..32).map(|_| c.decide()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn corruption_apply_is_total() {
        let log = b"line one\nline two\nline three\n";
        assert_eq!(apply_corruption(log, Corruption::TornTail { cut: 5 }), b"line ".to_vec());
        assert_eq!(apply_corruption(log, Corruption::TornTail { cut: 10_000 }), log.to_vec());
        let flipped = apply_corruption(log, Corruption::BitFlip { offset: 0, bit: 1 });
        assert_eq!(flipped[0], b'l' ^ 0b10);
        assert_eq!(&flipped[1..], &log[1..]);
        assert_eq!(
            apply_corruption(log, Corruption::TruncateEvents { keep: 2 }),
            b"line one\nline two\n".to_vec()
        );
        assert_eq!(apply_corruption(log, Corruption::TruncateEvents { keep: 0 }), Vec::<u8>::new());
        assert_eq!(apply_corruption(log, Corruption::TruncateEvents { keep: 9 }), log.to_vec());
        // Empty input never panics.
        assert_eq!(
            apply_corruption(b"", Corruption::BitFlip { offset: 3, bit: 2 }),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn corruption_schedule_is_deterministic() {
        let log = b"a\nb\nc\nd\n";
        let s1 = corruption_schedule(11, log, 16);
        let s2 = corruption_schedule(11, log, 16);
        assert_eq!(s1, s2);
        assert_ne!(s1, corruption_schedule(12, log, 16));
        // And covers all three kinds over a modest schedule.
        let kinds: Vec<u8> = s1
            .iter()
            .map(|c| match c {
                Corruption::TornTail { .. } => 0,
                Corruption::BitFlip { .. } => 1,
                Corruption::TruncateEvents { .. } => 2,
            })
            .collect();
        assert!(kinds.contains(&0) && kinds.contains(&1) && kinds.contains(&2));
    }
}
