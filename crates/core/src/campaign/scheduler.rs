//! The distributed campaign scheduler: one campaign fanned across a pool
//! of `remote:<url>` workers.
//!
//! # Lifecycle
//!
//! **Shard** — the scenario matrix is split into contiguous index shards
//! dealt round-robin onto per-worker deques ([`ShardQueue`]). **Steal** —
//! a worker that drains its own deque takes from the shared retry lane,
//! then steals from the back of the busiest-looking peer, so fast workers
//! finish slow workers' shards instead of idling. **Retry** — a transport
//! failure ([`AppError::Transport`]) means the worker died, not the
//! scenario: the driver evicts the worker, requeues the index, and starts
//! probing `/healthz` for readmission. **Merge** — results go through the
//! runner's own in-order merge, so the merged [`CampaignReport`] (and its
//! fingerprint) is bit-identical to the single-process run at any worker
//! count, shard size, steal or failure interleaving.
//!
//! # Determinism
//!
//! Every scenario derives all randomness from its own spec: the solver
//! runs *driver-side* inside [`Experiment`], and the worker hosts only the
//! deterministic simulated lab. A scenario re-driven from scratch on a
//! different worker therefore reproduces the exact same batches and
//! measurements, and a failed attempt's partially published records live
//! in a per-session portal that is discarded with the dead session —
//! nothing leaks into the campaign portal except final results, in input
//! order.
//!
//! # Liveness
//!
//! Killed workers degrade throughput, never correctness: their queued and
//! in-flight work re-enters the retry lane, healthy workers absorb it, and
//! if the *entire* pool is dead the driver process itself executes the
//! remainder in-process (the sim backend is the same code the workers
//! run). The campaign therefore always terminates with a full result set.

use crate::app::AppError;
use crate::backend::{BackendSpec, RemoteBackend, RetryPolicy};
use crate::campaign::events::{CampaignEvent, EventLog, EventScope};
use crate::campaign::publish::InOrderMerge;
use crate::campaign::queue::{Claim, ShardQueue};
use crate::campaign::report::{CampaignReport, ScenarioOutcome, ScenarioResult};
use crate::campaign::runner::{closed_event, finish_event, run_attempt};
use crate::campaign::spec::{RunMode, ScenarioSpec};
use crate::chaos::{self, ChaosPolicy};
use crate::experiment::Experiment;
use crate::http::HttpClient;
use sdl_conf::Value;
use sdl_datapub::{AcdcPortal, BlobStore};
use sdl_vision::DetectorScratch;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long an idle driver sleeps between queue polls.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// Per-worker dispatch accounting for one scheduled campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// The worker's address.
    pub url: String,
    /// Scenarios this worker completed (final results).
    pub completed: u64,
    /// Completed scenarios claimed from another worker's deque.
    pub stolen: u64,
    /// Scenario attempts bounced off this worker by a transport failure
    /// (each one was requeued and re-driven elsewhere).
    pub retries: u64,
    /// Times the worker was evicted from the healthy pool.
    pub evictions: u64,
    /// Times a health probe readmitted it.
    pub readmissions: u64,
    /// HTTP requests this worker answered.
    pub wire_posts: u64,
    /// Requests resent after a provably-unread send (reaped keep-alive).
    pub wire_resends: u64,
    /// In-budget TCP reconnect attempts.
    pub wire_reconnects: u64,
    /// Faults the chaos policy injected into this worker's wire traffic.
    pub chaos_injected: u64,
    /// Load-shed responses (429/503) this worker returned at the wire
    /// level; most are absorbed by the backend's in-budget resends.
    pub sheds: u64,
    /// Scenario attempts that surfaced backpressure to the driver, which
    /// then waited out the worker's `Retry-After` and requeued the work
    /// instead of evicting the (alive, merely busy) worker.
    pub throttled: u64,
    /// Scenarios this worker's driver quarantined — failed deterministically
    /// after exhausting the per-scenario failure budget instead of being
    /// requeued forever.
    pub quarantined: u64,
    /// Time spent driving scenarios on this worker.
    pub busy: Duration,
    /// Share of `busy` spent on scenarios stolen from a peer's deque.
    pub steal_busy: Duration,
    /// Share of `busy` wasted on attempts that died with the worker.
    pub retry_busy: Duration,
}

/// Wall-clock time the scheduler spent in each phase of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Partitioning the matrix and dealing shards onto worker deques.
    pub deal: Duration,
    /// Pool-wide time driving scenarios claimed by stealing.
    pub steal: Duration,
    /// Pool-wide time wasted on attempts that bounced off dead workers.
    pub retry: Duration,
    /// Publishing merged results into the campaign portal, input order.
    pub merge: Duration,
}

/// What the scheduler did to finish a campaign: per-worker utilization,
/// steal/retry/eviction counters, and the local fallback's share.
#[derive(Debug, Clone, Default)]
pub struct SchedulerReport {
    /// Per-worker accounting, in pool order.
    pub workers: Vec<WorkerStats>,
    /// Shard size the matrix was dealt with.
    pub shard_size: usize,
    /// Scenarios executed in the driver process because they cannot ship
    /// over `/v1` (multi-OT2, replay, explicitly-remote backends).
    pub local: u64,
    /// Shippable scenarios executed in the driver process because the
    /// whole pool was dead at the time.
    pub fallback: u64,
    /// Wall-clock duration of the scheduled run.
    pub wall: Duration,
    /// Samples measured across all scenarios (throughput numerator).
    pub samples: u64,
    /// Per-phase wall-clock breakdown (deal/steal/retry/merge).
    pub phases: PhaseTimings,
}

impl SchedulerReport {
    /// Scenario attempts bounced off dead workers, pool-wide.
    pub fn total_retries(&self) -> u64 {
        self.workers.iter().map(|w| w.retries).sum()
    }

    /// Completed scenarios that were stolen, pool-wide.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Worker evictions, pool-wide.
    pub fn total_evictions(&self) -> u64 {
        self.workers.iter().map(|w| w.evictions).sum()
    }

    /// Chaos-injected faults, pool-wide.
    pub fn total_chaos_injected(&self) -> u64 {
        self.workers.iter().map(|w| w.chaos_injected).sum()
    }

    /// Scenarios quarantined after exhausting the failure budget.
    pub fn total_quarantined(&self) -> u64 {
        self.workers.iter().map(|w| w.quarantined).sum()
    }

    /// Wire-level load-shed responses (429/503) observed, pool-wide.
    pub fn total_sheds(&self) -> u64 {
        self.workers.iter().map(|w| w.sheds).sum()
    }

    /// Scenario attempts throttled (waited out and requeued), pool-wide.
    pub fn total_throttled(&self) -> u64 {
        self.workers.iter().map(|w| w.throttled).sum()
    }

    /// Measured samples per wall-clock second.
    pub fn samples_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.samples as f64 / s
        } else {
            0.0
        }
    }

    /// Encode for portal records and the CLI (`kind: campaign_scheduler`).
    pub fn to_value(&self) -> Value {
        let mut v = Value::map();
        v.set("kind", "campaign_scheduler");
        v.set("pool", self.workers.len() as i64);
        v.set("shard_size", self.shard_size as i64);
        v.set("local", self.local as i64);
        v.set("fallback", self.fallback as i64);
        v.set("wall_s", self.wall.as_secs_f64());
        v.set("samples", self.samples as i64);
        v.set("samples_per_s", self.samples_per_sec());
        v.set("retries", self.total_retries() as i64);
        v.set("steals", self.total_steals() as i64);
        v.set("evictions", self.total_evictions() as i64);
        v.set("chaos_injected", self.total_chaos_injected() as i64);
        v.set("quarantined", self.total_quarantined() as i64);
        v.set("sheds", self.total_sheds() as i64);
        v.set("throttled", self.total_throttled() as i64);
        let mut phases = Value::map();
        phases.set("deal_s", self.phases.deal.as_secs_f64());
        phases.set("steal_s", self.phases.steal.as_secs_f64());
        phases.set("retry_s", self.phases.retry.as_secs_f64());
        phases.set("merge_s", self.phases.merge.as_secs_f64());
        v.set("phases", phases);
        let mut workers = Value::seq();
        for w in &self.workers {
            let mut e = Value::map();
            e.set("url", w.url.as_str());
            e.set("completed", w.completed as i64);
            e.set("stolen", w.stolen as i64);
            e.set("retries", w.retries as i64);
            e.set("evictions", w.evictions as i64);
            e.set("readmissions", w.readmissions as i64);
            e.set("posts", w.wire_posts as i64);
            e.set("resends", w.wire_resends as i64);
            e.set("reconnects", w.wire_reconnects as i64);
            e.set("chaos", w.chaos_injected as i64);
            e.set("quarantined", w.quarantined as i64);
            e.set("shed", w.sheds as i64);
            e.set("throttled", w.throttled as i64);
            e.set("busy_s", w.busy.as_secs_f64());
            workers.push(e);
        }
        v.set("workers", workers);
        v
    }

    /// One human line per worker, for `--progress` style output.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                let mut line = format!(
                    "worker {}: {} done ({} stolen), {} retries, {} evictions, busy {:.2}s",
                    w.url,
                    w.completed,
                    w.stolen,
                    w.retries,
                    w.evictions,
                    w.busy.as_secs_f64()
                );
                if w.chaos_injected > 0 {
                    line.push_str(&format!(", {} chaos", w.chaos_injected));
                }
                if w.quarantined > 0 {
                    line.push_str(&format!(", {} quarantined", w.quarantined));
                }
                if w.sheds > 0 {
                    line.push_str(&format!(", {} shed", w.sheds));
                }
                if w.throttled > 0 {
                    line.push_str(&format!(", {} throttled", w.throttled));
                }
                line
            })
            .collect();
        out.push(format!(
            "driver: {} local, {} fallback; {:.1} samples/s over {:.2}s",
            self.local,
            self.fallback,
            self.samples_per_sec(),
            self.wall.as_secs_f64()
        ));
        out.push(format!(
            "phases: deal {:.3}s, steal {:.3}s, retry {:.3}s, merge {:.3}s",
            self.phases.deal.as_secs_f64(),
            self.phases.steal.as_secs_f64(),
            self.phases.retry.as_secs_f64(),
            self.phases.merge.as_secs_f64()
        ));
        out
    }
}

/// Fans a campaign across a pool of `sdl-lab serve` workers with work
/// stealing, retry-on-worker-death and a deterministic merge (see the
/// module docs for the full lifecycle).
pub struct CampaignScheduler {
    workers: Vec<String>,
    shard: Option<usize>,
    retry: RetryPolicy,
    probe_budget: u32,
    failure_budget: u32,
    chaos: ChaosPolicy,
    portal: Arc<AcdcPortal>,
    store: Arc<BlobStore>,
    progress: bool,
    events: Option<Arc<EventLog>>,
    name: String,
}

impl CampaignScheduler {
    /// A scheduler over this worker pool (`host:port` or `http://host:port`
    /// addresses). The pool may be empty: everything then runs in-process.
    pub fn new(workers: Vec<String>) -> CampaignScheduler {
        CampaignScheduler {
            workers: workers
                .into_iter()
                .map(|w| w.trim().trim_start_matches("http://").trim_end_matches('/').to_string())
                .collect(),
            shard: None,
            retry: RetryPolicy::failover(),
            probe_budget: 5,
            failure_budget: 10,
            chaos: ChaosPolicy::default(),
            portal: Arc::new(AcdcPortal::new()),
            store: Arc::new(BlobStore::in_memory()),
            progress: false,
            events: None,
            name: "campaign".to_string(),
        }
    }

    /// Builder: append every lifecycle event to `log` (see [`EventLog`]).
    pub fn with_events(mut self, log: Arc<EventLog>) -> CampaignScheduler {
        self.events = Some(log);
        self
    }

    /// Builder: the campaign name recorded in the `campaign_opened` event.
    pub fn name(mut self, name: impl Into<String>) -> CampaignScheduler {
        self.name = name.into();
        self
    }

    /// Builder: shard size (scenarios per deal unit). Default: enough
    /// shards for ~4 steals per worker.
    pub fn shard_size(mut self, n: usize) -> CampaignScheduler {
        self.shard = Some(n.max(1));
        self
    }

    /// Builder: replace the failover [`RetryPolicy`] used for worker
    /// connections and health probes.
    pub fn retry(mut self, retry: RetryPolicy) -> CampaignScheduler {
        self.retry = retry;
        self
    }

    /// Builder: consecutive failed health probes before a dead worker's
    /// driver gives up on readmission entirely.
    pub fn probe_budget(mut self, probes: u32) -> CampaignScheduler {
        self.probe_budget = probes;
        self
    }

    /// Builder: per-scenario failure budget. A scenario whose execution
    /// attempts have *all* died with their worker this many times is
    /// quarantined — finished as a deterministic `scenario_failed` result —
    /// instead of being requeued forever. A scenario that repeatedly kills
    /// whatever worker touches it (a poison pill) therefore terminates the
    /// campaign instead of hanging it. `0` disables the budget (requeue
    /// without limit). Default: 10.
    pub fn failure_budget(mut self, attempts: u32) -> CampaignScheduler {
        self.failure_budget = attempts;
        self
    }

    /// Builder: inject client-side transport chaos into every remote
    /// scenario drive. Each worker × scenario × attempt gets its own
    /// deterministic fault stream keyed by [`chaos::stream_key`], so a
    /// fixed `(chaos seed, schedule)` reproduces the exact same fault
    /// interleaving and counters across runs.
    pub fn chaos(mut self, policy: ChaosPolicy) -> CampaignScheduler {
        self.chaos = policy;
        self
    }

    /// Builder: print one progress line per completed scenario to stderr.
    pub fn progress(mut self, on: bool) -> CampaignScheduler {
        self.progress = on;
        self
    }

    /// Builder: collect plate images into an existing blob store.
    pub fn with_store(mut self, store: Arc<BlobStore>) -> CampaignScheduler {
        self.store = store;
        self
    }

    /// The worker pool.
    pub fn pool(&self) -> &[String] {
        &self.workers
    }

    /// Execute every scenario across the pool. Results come back in input
    /// order; the report's fingerprint is bit-identical to
    /// [`CampaignRunner`](crate::CampaignRunner) on the same scenarios.
    pub fn run(&self, scenarios: Vec<ScenarioSpec>) -> (CampaignReport, SchedulerReport) {
        let n = scenarios.len();
        let started = Instant::now();
        let mut sched = SchedulerReport {
            workers: self
                .workers
                .iter()
                .map(|url| WorkerStats { url: url.clone(), ..WorkerStats::default() })
                .collect(),
            ..SchedulerReport::default()
        };
        if n == 0 {
            sched.shard_size = self.shard.unwrap_or(1);
            return (
                CampaignReport {
                    results: Vec::new(),
                    portal: Arc::clone(&self.portal),
                    threads: self.workers.len().max(1),
                },
                sched,
            );
        }

        if let Some(log) = &self.events {
            log.append(&CampaignEvent::CampaignOpened {
                campaign: self.name.clone(),
                executor: "scheduler".to_string(),
                workers: self.workers.clone(),
                specs: scenarios.iter().map(|s| s.to_value()).collect(),
            });
        }

        // Partition: scenarios shippable over /v1 (single-loop on the sim
        // backend — the worker instantiates the lab from the config) vs
        // everything that must run in the driver process.
        let deal_started = Instant::now();
        let shippable: Vec<usize> = (0..n)
            .filter(|&i| {
                scenarios[i].mode == RunMode::Single && scenarios[i].backend == BackendSpec::Sim
            })
            .collect();
        let local: Vec<usize> = (0..n)
            .filter(|&i| {
                !(scenarios[i].mode == RunMode::Single && scenarios[i].backend == BackendSpec::Sim)
            })
            .collect();

        let pool = self.workers.len();
        let shard_size = self.shard.unwrap_or_else(|| {
            if pool == 0 {
                1
            } else {
                (shippable.len() / (pool * 4)).max(1)
            }
        });
        sched.shard_size = shard_size;

        // With no pool, every scenario is driver-local.
        let (queued, extra_local): (&[usize], &[usize]) =
            if pool == 0 { (&[], &shippable) } else { (&shippable, &[]) };
        let queue = ShardQueue::deal(queued, pool.max(1), shard_size);
        sched.phases.deal = deal_started.elapsed();

        let scenarios = Arc::new(scenarios);
        // Per-scenario execution attempt counter: every start (first try,
        // retry after eviction, local fallback) gets a distinct attempt
        // number in the event log, so resume can tell partial attempts from
        // the one that finished.
        let attempts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        // Drivers currently holding a live worker; the in-process fallback
        // only engages when this reaches zero.
        let healthy = AtomicUsize::new(pool);
        let (tx, rx) = mpsc::channel::<ScenarioResult>();
        let stats: Vec<parking_lot::Mutex<WorkerStats>> =
            sched.workers.drain(..).map(parking_lot::Mutex::new).collect();

        let mut merge = InOrderMerge::new(n, &self.portal, &self.store, false, self.progress);
        std::thread::scope(|scope| {
            // One driver thread per remote worker.
            for (w, url) in self.workers.iter().enumerate() {
                let scenarios = Arc::clone(&scenarios);
                let tx = tx.clone();
                let (queue, healthy, stats) = (&queue, &healthy, &stats[w]);
                let (retry, probe_budget, failure_budget, chaos) =
                    (self.retry, self.probe_budget, self.failure_budget, self.chaos);
                let (events, attempts, pool_urls) =
                    (self.events.as_ref(), &attempts[..], &self.workers[..]);
                scope.spawn(move || {
                    drive_worker(
                        w,
                        url,
                        &scenarios,
                        queue,
                        healthy,
                        stats,
                        &tx,
                        retry,
                        probe_budget,
                        failure_budget,
                        chaos,
                        events,
                        attempts,
                        pool_urls,
                    );
                });
            }

            // The driver process's own executor: runs unshippable scenarios,
            // then stands by as the last-resort fallback for a dead pool.
            {
                let scenarios = Arc::clone(&scenarios);
                let tx = tx.clone();
                let (queue, healthy) = (&queue, &healthy);
                let (events, attempts) = (self.events.as_ref(), &attempts[..]);
                let local = [local, extra_local.to_vec()].concat();
                scope.spawn(move || {
                    let mut scratch = DetectorScratch::default();
                    let mut run_local = |i: usize, claim: &str, depth: usize| {
                        let attempt = attempts[i].fetch_add(1, Ordering::Relaxed);
                        let claimant = ("driver", claim, depth);
                        run_attempt(&scenarios[i], i, attempt, claimant, &mut scratch, events)
                    };
                    for (pos, &i) in local.iter().enumerate() {
                        if tx.send(run_local(i, "local", local.len() - (pos + 1))).is_err() {
                            return;
                        }
                    }
                    // Fallback: only claim shippable work while no driver
                    // holds a healthy worker (otherwise stay out of the
                    // pool's way — throughput scaling is theirs to prove).
                    loop {
                        if queue.outstanding() == 0 {
                            return;
                        }
                        if healthy.load(Ordering::Acquire) > 0 {
                            std::thread::sleep(IDLE_POLL);
                            continue;
                        }
                        let Some(i) = queue.claim_any() else {
                            std::thread::sleep(IDLE_POLL);
                            continue;
                        };
                        let depth = queue.outstanding().saturating_sub(1);
                        let result = run_local(i, "fallback", depth);
                        queue.complete_one();
                        if tx.send(result).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(tx);

            // Deterministic merge: the runner's own, publishing completed
            // prefixes in input order.
            for result in rx {
                merge.push(result);
            }
        });
        let (results, merge_spent) = merge.finish();

        sched.workers = stats.into_iter().map(|m| m.into_inner()).collect();
        let remote_done: u64 = sched.workers.iter().map(|w| w.completed).sum();
        sched.local = local_unshippable_count(&results);
        // Quarantined scenarios were terminated by a remote driver, not run
        // by the in-process fallback — keep them out of its tally.
        sched.fallback =
            (n as u64).saturating_sub(remote_done + sched.local + sched.total_quarantined());
        sched.wall = started.elapsed();
        sched.samples = results
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|o| o.samples_measured() as u64)
            .sum();
        sched.phases.merge = merge_spent;
        sched.phases.steal = sched.workers.iter().map(|w| w.steal_busy).sum();
        sched.phases.retry = sched.workers.iter().map(|w| w.retry_busy).sum();
        self.portal.ingest(sched.to_value());
        if let Some(log) = &self.events {
            log.append(&closed_event(&results, Some(sched.to_value())));
        }

        let report =
            CampaignReport { results, portal: Arc::clone(&self.portal), threads: pool.max(1) };
        (report, sched)
    }
}

/// Scenarios that could never have shipped (the driver-local share that is
/// not fallback work).
fn local_unshippable_count(results: &[ScenarioResult]) -> u64 {
    results
        .iter()
        .filter(|r| !(r.spec.mode == RunMode::Single && r.spec.backend == BackendSpec::Sim))
        .count() as u64
}

/// One remote worker's driver loop: claim → drive remotely → merge or
/// requeue; on transport failure, evict and probe for readmission.
#[allow(clippy::too_many_arguments)]
fn drive_worker(
    me: usize,
    url: &str,
    scenarios: &[ScenarioSpec],
    queue: &ShardQueue,
    healthy: &AtomicUsize,
    stats: &parking_lot::Mutex<WorkerStats>,
    tx: &mpsc::Sender<ScenarioResult>,
    retry: RetryPolicy,
    probe_budget: u32,
    failure_budget: u32,
    chaos: ChaosPolicy,
    events: Option<&Arc<EventLog>>,
    attempts: &[AtomicU32],
    pool: &[String],
) {
    let mut is_healthy = true;
    let mut probe_failures = 0u32;
    loop {
        if queue.outstanding() == 0 {
            break;
        }
        if !is_healthy {
            if probe(url, retry.connect_timeout) {
                is_healthy = true;
                probe_failures = 0;
                healthy.fetch_add(1, Ordering::AcqRel);
                stats.lock().readmissions += 1;
                if let Some(log) = events {
                    log.append(&CampaignEvent::WorkerReadmitted { worker: url.to_string() });
                }
            } else {
                probe_failures += 1;
                if probe_failures > probe_budget {
                    break; // permanently dead; the pool (or fallback) owns the rest
                }
                std::thread::sleep(retry.backoff(probe_failures));
                continue;
            }
        }
        let Some(claim) = queue.claim(me) else {
            std::thread::sleep(IDLE_POLL);
            continue;
        };
        let index = claim.index();
        let spec = scenarios[index].clone();
        let attempt = attempts[index].fetch_add(1, Ordering::Relaxed);
        if let Some(log) = events {
            let kind = match claim {
                Claim::Own(_) => "own",
                Claim::Retry(_) => "retry",
                Claim::Stolen { .. } => "stolen",
            };
            log.append(&CampaignEvent::ScenarioClaimed {
                index,
                worker: url.to_string(),
                claim: kind.to_string(),
                queue_depth: queue.depth(me),
            });
            if let Claim::Stolen { victim, .. } = claim {
                log.append(&CampaignEvent::WorkerStolenFrom {
                    victim: pool[victim].clone(),
                    thief: url.to_string(),
                    index,
                });
            }
            log.append(&CampaignEvent::ScenarioStarted {
                index,
                label: spec.label.clone(),
                attempt,
                worker: url.to_string(),
            });
        }
        let ev = events.map(|log| EventScope::new(Arc::clone(log), index, attempt));
        let started = Instant::now();
        let (outcome, wire) = drive_one(url, &spec, retry, chaos, index, attempt, ev);
        let busy = started.elapsed();
        let stolen = matches!(claim, Claim::Stolen { .. });
        {
            let mut s = stats.lock();
            s.busy += busy;
            if stolen {
                s.steal_busy += busy;
            }
            s.wire_posts += wire.posts;
            s.wire_resends += wire.resends;
            s.wire_reconnects += wire.reconnects;
            s.chaos_injected += wire.injected();
            s.sheds += wire.sheds;
        }
        let outcome = match outcome {
            Err(e) if e.is_backpressure() || e.is_transport() => {
                {
                    let mut s = stats.lock();
                    s.retries += 1;
                    s.retry_busy += busy;
                }
                // `attempts` counts starts, so the load already includes
                // this just-failed attempt.
                let failed_attempts = attempts[index].load(Ordering::Relaxed);
                if failure_budget == 0 || failed_attempts < failure_budget {
                    queue.requeue(index);
                    if e.is_backpressure() {
                        // Backpressure, not death: the worker answered
                        // 429/503 past the backend's in-request retry
                        // budget. It is alive and merely over capacity, so
                        // it stays in the healthy pool (no eviction, no
                        // probing) — the driver waits out the server's
                        // Retry-After and requeues the scenario for a clean
                        // re-drive.
                        stats.lock().throttled += 1;
                        std::thread::sleep(retry.backpressure_delay(e.retry_after(), 1));
                    } else {
                        // Worker death, not scenario failure: the attempt's
                        // session (and its partial records) died with the
                        // worker; requeue for a clean re-drive elsewhere and
                        // start probing.
                        is_healthy = false;
                        healthy.fetch_sub(1, Ordering::AcqRel);
                        stats.lock().evictions += 1;
                        if let Some(log) = events {
                            log.append(&CampaignEvent::WorkerEvicted {
                                worker: url.to_string(),
                                requeued: index,
                            });
                        }
                    }
                    continue;
                }
                // Quarantine: every attempt in this scenario's budget was
                // throttled or took a worker down with it — a poison pill.
                // Requeueing it again would let it hunt the rest of the
                // pool (and then livelock the fallback), so finish it as a
                // *deterministic* failure instead. The worker is not
                // evicted here: its driver stays in rotation and the very
                // next claim decides its health on fresh evidence.
                stats.lock().quarantined += 1;
                let what = if e.is_backpressure() { "throttled" } else { "failed" };
                Err(AppError::Backend(format!(
                    "quarantined after {failed_attempts} {what} attempts (last: {e})"
                )))
            }
            outcome => {
                let mut s = stats.lock();
                s.completed += 1;
                if stolen {
                    s.stolen += 1;
                }
                outcome.map(|o| ScenarioOutcome::Single(Box::new(o)))
            }
        };
        queue.complete_one();
        if let Some(log) = events {
            log.append(&finish_event(index, &spec, attempt, url, &outcome));
        }
        if tx.send(ScenarioResult { spec, index, outcome }).is_err() {
            break;
        }
    }
    if is_healthy {
        healthy.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Drive one shippable scenario on `url`, returning the outcome plus the
/// backend's wire-level retry accounting. With `events`, the driver-side
/// session appends batch/sample events as the remote lab executes. The
/// chaos stream is keyed by `(url, index, attempt)` so every re-drive
/// rolls its own reproducible fault schedule.
#[allow(clippy::too_many_arguments)]
fn drive_one(
    url: &str,
    spec: &ScenarioSpec,
    retry: RetryPolicy,
    chaos: ChaosPolicy,
    index: usize,
    attempt: u32,
    events: Option<EventScope>,
) -> (Result<crate::app::ExperimentOutcome, AppError>, crate::backend::RemoteStats) {
    let mut backend = RemoteBackend::new(url, spec.config.clone())
        .with_retry(retry)
        .with_chaos(chaos, chaos::stream_key(url, index, attempt));
    let outcome = match Experiment::new(spec.config.clone()) {
        Ok(mut session) => {
            if let Some(scope) = events {
                session.attach_events(scope);
            }
            session.run_on(&mut backend)
        }
        Err(e) => Err(e),
    };
    (outcome, backend.stats())
}

/// One cheap liveness probe: `GET /healthz`, with `timeout` to connect
/// and to answer.
fn probe(url: &str, timeout: Duration) -> bool {
    HttpClient::connect_timeout(url, timeout, timeout)
        .and_then(|mut conn| conn.get("/healthz"))
        .is_ok_and(|resp| resp.status < 500)
}
