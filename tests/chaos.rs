//! Chaos-engineering integration tests: deterministic fault injection on
//! the driver-worker wire and inside the worker itself must never corrupt
//! a campaign. Retry-safe fault families leave the fingerprint
//! bit-identical at any pool size; poison-pill scenarios terminate as
//! deterministic quarantined failures instead of livelocking the pool;
//! and the `watch` dashboard gives up cleanly when its server dies.

use sdl_lab::core::{
    AppConfig, CampaignRunner, CampaignScheduler, ChaosPolicy, RetryPolicy, ScenarioSpec,
};
use sdl_lab::datapub::{AcdcPortal, BlobStore};
use sdl_lab::portal_server::{spawn, LabHost, PortalServer, ServerConfig, ServerHandle};
use sdl_lab::solvers::SolverKind;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn worker_server() -> ServerHandle {
    chaotic_worker_on("127.0.0.1:0", ChaosPolicy::default())
}

/// A lab worker whose request handling misbehaves per `policy`.
fn chaotic_worker_on(addr: &str, policy: ChaosPolicy) -> ServerHandle {
    let portal = Arc::new(AcdcPortal::new());
    let store = Arc::new(BlobStore::in_memory());
    let server =
        PortalServer::new(portal, store).with_lab(Arc::new(LabHost::new().with_chaos(policy)));
    spawn(server, &ServerConfig { addr: addr.to_string(), ..ServerConfig::default() })
        .expect("bind worker server")
}

/// An address nothing listens on (bind an ephemeral port, then free it).
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    addr
}

/// Tight backoffs and a generous resend budget: chaos tests inject lots of
/// transient faults and should ride them out quickly.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_secs(30),
        retries: 6,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
    }
}

fn config(solver: SolverKind, samples: u32, batch: u32, seed: u64) -> AppConfig {
    AppConfig {
        solver,
        sample_budget: samples,
        batch,
        seed,
        publish_images: false,
        ..AppConfig::default()
    }
}

fn scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new("g1", config(SolverKind::Genetic, 8, 2, 101)),
        ScenarioSpec::new("b1", config(SolverKind::Bayesian, 6, 3, 102)),
        ScenarioSpec::new("r1", config(SolverKind::Random, 8, 4, 103)),
        ScenarioSpec::new("g2", config(SolverKind::Genetic, 6, 2, 104)),
        ScenarioSpec::new("r2", config(SolverKind::Random, 6, 2, 105)),
        ScenarioSpec::new("b2", config(SolverKind::Bayesian, 8, 2, 106)),
    ]
}

#[test]
fn retry_safe_client_chaos_keeps_fingerprints_bit_identical() {
    let golden = CampaignRunner::new().threads(2).run(scenarios());
    let chaos =
        ChaosPolicy::parse("seed=7,connect=0.1,disconnect=0.1,http500=0.1,replay=0.1").unwrap();
    assert!(chaos.is_retry_safe());
    for pool in [1usize, 2, 4] {
        let handles: Vec<ServerHandle> = (0..pool).map(|_| worker_server()).collect();
        let urls: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
        let (report, sched) = CampaignScheduler::new(urls)
            .retry(chaos_retry())
            .chaos(chaos)
            .failure_budget(0)
            .run(scenarios());
        assert_eq!(
            golden.fingerprint(),
            report.fingerprint(),
            "fingerprint drift under chaos at pool={pool}"
        );
        assert!(sched.total_chaos_injected() > 0, "chaos never fired at pool={pool}: {sched:?}");
        assert_eq!(sched.total_quarantined(), 0, "budget 0 must never quarantine");
        assert!(report.results.iter().all(|r| r.outcome.is_ok()));
        for h in handles {
            h.shutdown();
        }
    }
}

#[test]
fn injected_timeouts_evict_and_redrive_without_corruption() {
    let golden = CampaignRunner::new().threads(2).run(scenarios());
    let handle = worker_server();
    // Timeouts are not resend-safe inside a session (the worker may have
    // executed the batch), so they surface as evictions + full re-drives —
    // which the ordered merge absorbs without a trace.
    let chaos = ChaosPolicy::parse("seed=11,timeout=0.2").unwrap();
    let (report, sched) = CampaignScheduler::new(vec![handle.addr().to_string()])
        .retry(chaos_retry())
        .probe_budget(10_000)
        .chaos(chaos)
        .failure_budget(0)
        .shard_size(1)
        .run(scenarios());
    assert_eq!(golden.fingerprint(), report.fingerprint(), "timeout chaos corrupted the merge");
    assert!(sched.total_chaos_injected() > 0, "timeout chaos never fired: {sched:?}");
    assert!(
        sched.total_evictions() >= 1,
        "an injected read timeout must evict the worker: {sched:?}"
    );
    assert!(report.results.iter().all(|r| r.outcome.is_ok()));
    handle.shutdown();
}

#[test]
fn chaos_schedule_is_reproducible_run_to_run() {
    // The chaos stream is keyed by (seed, worker url, scenario, attempt),
    // so the same pool address + seed must reproduce the exact same fault
    // interleaving — counters included. Rates are chosen well inside the
    // resend budget so no attempt ever escalates to an eviction (which
    // would hand work to the timing-dependent local fallback).
    let addr = dead_addr(); // reserve a port we can bind twice in sequence
    let chaos = ChaosPolicy::parse("seed=42,disconnect=0.08,http500=0.08,replay=0.08").unwrap();
    let run = || {
        let handle = chaotic_worker_on(&addr, ChaosPolicy::default());
        let (report, sched) = CampaignScheduler::new(vec![handle.addr().to_string()])
            .retry(chaos_retry())
            .chaos(chaos)
            .failure_budget(0)
            .run(scenarios());
        handle.shutdown();
        (report.fingerprint(), sched.total_chaos_injected(), sched.total_evictions())
    };
    let (fp1, injected1, evictions1) = run();
    let (fp2, injected2, evictions2) = run();
    assert!(injected1 > 0, "chaos never fired");
    assert_eq!(evictions1, 0, "rates must stay inside the resend budget");
    assert_eq!(fp1, fp2, "same seed, same schedule, different campaign");
    assert_eq!(
        (injected1, evictions1),
        (injected2, evictions2),
        "fault interleaving drifted between identical runs"
    );
}

#[test]
fn worker_side_chaos_degrades_gracefully() {
    let golden = CampaignRunner::new().threads(2).run(scenarios());
    // The worker itself stalls and hangs up mid-campaign. /healthz is never
    // chaos'd, so the scheduler's probe loop keeps readmitting it.
    let policy = ChaosPolicy::parse("seed=5,kill=0.15,stall=0.1,stall_ms=1").unwrap();
    let handle = chaotic_worker_on("127.0.0.1:0", policy);
    let (report, sched) = CampaignScheduler::new(vec![handle.addr().to_string()])
        .retry(chaos_retry())
        .probe_budget(10_000)
        .failure_budget(0)
        .run(scenarios());
    assert_eq!(golden.fingerprint(), report.fingerprint(), "a flaky worker corrupted the campaign");
    assert!(report.results.iter().all(|r| r.outcome.is_ok()));
    assert_eq!(sched.total_quarantined(), 0);
    handle.shutdown();
}

#[test]
fn poison_worker_quarantines_every_scenario_deterministically() {
    // kill=1 drops every /v1 connection: every delivery attempt dies, and
    // with a budget of 1 each scenario is quarantined on its first failed
    // attempt — the driver stays healthy (no eviction), so the local
    // fallback never rescues anything and the failure set is exact.
    let policy = ChaosPolicy::parse("seed=1,kill=1").unwrap();
    let handle = chaotic_worker_on("127.0.0.1:0", policy);
    let (report, sched) = CampaignScheduler::new(vec![handle.addr().to_string()])
        .retry(RetryPolicy {
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_secs(30),
            retries: 1,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
        })
        .failure_budget(1)
        .shard_size(1)
        .run(scenarios());
    assert_eq!(sched.total_quarantined(), scenarios().len() as u64, "{sched:?}");
    assert_eq!(sched.total_evictions(), 0, "quarantine must not evict the driver: {sched:?}");
    assert_eq!(sched.fallback, 0, "the healthy driver must keep the fallback out: {sched:?}");
    for r in &report.results {
        let err = r.outcome.as_ref().expect_err("poisoned scenario must fail");
        let msg = err.to_string();
        assert!(msg.contains("quarantined"), "not a quarantine failure: {msg}");
    }
    handle.shutdown();
}

#[test]
fn watch_gives_up_when_no_server_answers() {
    let bin = env!("CARGO_BIN_EXE_sdl-lab");
    let addr = dead_addr();
    let started = Instant::now();
    let watch = std::process::Command::new(bin)
        .args(["watch", &format!("http://{addr}"), "--interval-ms", "100"])
        .output()
        .expect("run sdl-lab watch");
    assert!(!watch.status.success(), "watch must fail against a dead address");
    let err = String::from_utf8_lossy(&watch.stderr);
    assert!(err.contains("unreachable after"), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "watch took too long to give up: {:?}",
        started.elapsed()
    );
}

#[test]
fn watch_exits_with_an_error_when_its_server_is_killed() {
    use std::io::{BufRead as _, BufReader};
    use std::process::{Command, Stdio};

    let bin = env!("CARGO_BIN_EXE_sdl-lab");
    let dir = std::env::temp_dir().join(format!("sdl-chaos-watch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let yaml = dir.join("campaign.yaml");
    // One slow scenario keeps the event log open long enough to kill the
    // server while watch is mid-poll.
    std::fs::write(
        &yaml,
        "name: watch-me-die\nsamples: 600\nbatch: 1\nseed: 7\npublish_images: false\n\
         solvers: [random]\nseeds: 1\n",
    )
    .unwrap();
    let mut serve = Command::new(bin)
        .args(["serve", "--addr", "127.0.0.1:0", "--campaign"])
        .arg(&yaml)
        .args(["--campaign-threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sdl-lab serve --campaign");
    let mut banner = String::new();
    BufReader::new(serve.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    let addr = banner.trim().strip_prefix("serving on ").unwrap().to_string();

    let mut watch = Command::new(bin)
        .args(["watch", &addr, "--interval-ms", "100"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sdl-lab watch");
    // Let the dashboard connect and start polling, then yank the server.
    std::thread::sleep(Duration::from_millis(700));
    serve.kill().expect("kill serve");
    let _ = serve.wait();

    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = watch.try_wait().expect("poll watch") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = watch.kill();
            let _ = watch.wait();
            panic!("watch kept spinning after its server died");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(!status.success(), "watch must exit nonzero when the server dies");
    let mut err = String::new();
    use std::io::Read as _;
    watch.stderr.take().unwrap().read_to_string(&mut err).unwrap();
    assert!(err.contains("unreachable after") || err.contains("lost the server after"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
