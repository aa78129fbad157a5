//! Distributed-campaign scheduler integration tests: the merged report
//! must be bit-identical to the single-process run at any worker count,
//! shard size, and failure pattern — dead workers degrade throughput,
//! never correctness.

use sdl_lab::core::{AppConfig, CampaignRunner, CampaignScheduler, RetryPolicy, ScenarioSpec};
use sdl_lab::datapub::{AcdcPortal, BlobStore};
use sdl_lab::portal_server::{spawn, LabHost, PortalServer, ServerConfig, ServerHandle};
use sdl_lab::solvers::SolverKind;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn worker_server() -> ServerHandle {
    worker_server_on("127.0.0.1:0")
}

fn worker_server_on(addr: &str) -> ServerHandle {
    let portal = Arc::new(AcdcPortal::new());
    let store = Arc::new(BlobStore::in_memory());
    let server = PortalServer::new(portal, store).with_lab(Arc::new(LabHost::new()));
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

/// A quick-failing policy so dead-worker tests don't wait out real backoff.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_secs(30),
        retries: 1,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
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
fn distributed_fingerprint_is_bit_identical_at_any_pool_and_shard() {
    let golden = CampaignRunner::new().threads(2).run(scenarios());
    for pool in [1usize, 2, 4] {
        let handles: Vec<ServerHandle> = (0..pool).map(|_| worker_server()).collect();
        let urls: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
        for shard in [1usize, 3] {
            let (report, sched) =
                CampaignScheduler::new(urls.clone()).shard_size(shard).run(scenarios());
            assert_eq!(
                golden.fingerprint(),
                report.fingerprint(),
                "fingerprint drift at pool={pool} shard={shard}"
            );
            assert_eq!(sched.total_evictions(), 0, "healthy pool must not evict");
            assert_eq!(sched.fallback, 0, "healthy pool needs no local fallback");
            let remote: u64 = sched.workers.iter().map(|w| w.completed).sum();
            assert_eq!(remote, scenarios().len() as u64, "every scenario ran remotely");
        }
        for h in handles {
            h.shutdown();
        }
    }
}

#[test]
fn scheduler_portal_stream_is_in_input_order() {
    use sdl_lab::conf::ValueExt;
    let handle = worker_server();
    let (report, _) =
        CampaignScheduler::new(vec![handle.addr().to_string()]).shard_size(2).run(scenarios());
    let records = report.portal.find("kind", "campaign_scenario");
    assert_eq!(records.len(), scenarios().len());
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.opt_i64("index"), Some(i as i64), "stream out of order");
    }
    assert_eq!(report.portal.find("kind", "campaign").len(), 1);
    // The scheduler's own accounting record rides along.
    let sched = report.portal.find("kind", "campaign_scheduler");
    assert_eq!(sched.len(), 1);
    assert_eq!(sched[0].opt_i64("pool"), Some(1));
    handle.shutdown();
}

#[test]
fn dead_worker_is_evicted_and_live_worker_absorbs_its_shards() {
    let golden = CampaignRunner::new().threads(2).run(scenarios());
    let live = worker_server();
    let pool = vec![live.addr().to_string(), dead_addr()];
    let (report, sched) = CampaignScheduler::new(pool)
        .shard_size(1)
        .retry(fast_retry())
        .probe_budget(1)
        .run(scenarios());
    assert_eq!(golden.fingerprint(), report.fingerprint(), "dead worker corrupted the merge");
    assert!(sched.total_evictions() >= 1, "dead worker never evicted: {sched:?}");
    assert_eq!(sched.workers[1].completed, 0, "dead worker cannot complete work");
    assert!(
        sched.workers[0].completed + sched.fallback >= scenarios().len() as u64,
        "live worker + fallback must absorb everything: {sched:?}"
    );
    live.shutdown();
}

#[test]
fn fully_dead_pool_falls_back_to_in_process_execution() {
    let golden = CampaignRunner::new().threads(2).run(scenarios());
    let (report, sched) = CampaignScheduler::new(vec![dead_addr(), dead_addr()])
        .retry(fast_retry())
        .probe_budget(1)
        .run(scenarios());
    assert_eq!(
        golden.fingerprint(),
        report.fingerprint(),
        "local fallback must reproduce the campaign exactly"
    );
    assert_eq!(sched.fallback, scenarios().len() as u64);
    assert!(sched.workers.iter().all(|w| w.completed == 0));
    assert!(report.results.iter().all(|r| r.outcome.is_ok()), "no scenario may fail");
}

#[test]
fn unshippable_scenarios_run_locally_alongside_the_pool() {
    let base = config(SolverKind::Random, 6, 2, 201);
    let mut specs = scenarios();
    specs.push(ScenarioSpec::multi_ot2("m2", base, 2));
    let golden = CampaignRunner::new().threads(2).run(specs.clone());

    let handle = worker_server();
    let (report, sched) =
        CampaignScheduler::new(vec![handle.addr().to_string()]).run(specs.clone());
    assert_eq!(golden.fingerprint(), report.fingerprint());
    assert_eq!(sched.local, 1, "the multi-OT2 scenario cannot ship over /v1");
    handle.shutdown();
}

#[test]
fn late_worker_is_readmitted_after_probing() {
    let golden = CampaignRunner::new().threads(2).run(scenarios());
    let live = worker_server();
    // Reserve an address, leave it dead for now.
    let late_addr = dead_addr();
    let pool = vec![live.addr().to_string(), late_addr.clone()];

    let scheduler = CampaignScheduler::new(pool)
        .shard_size(1)
        .retry(fast_retry())
        // Generous probe budget: the late worker must still be probing when
        // it finally comes up.
        .probe_budget(10_000);
    let late = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        worker_server_on(&late_addr)
    });
    let (report, sched) = scheduler.run(scenarios());
    let late = late.join().unwrap();
    assert_eq!(golden.fingerprint(), report.fingerprint());
    assert!(sched.workers[1].evictions >= 1, "late worker starts dead: {sched:?}");
    assert!(report.results.iter().all(|r| r.outcome.is_ok()));
    live.shutdown();
    late.shutdown();
}

#[test]
fn empty_pool_runs_everything_in_process() {
    let golden = CampaignRunner::new().threads(2).run(scenarios());
    let (report, sched) = CampaignScheduler::new(Vec::new()).run(scenarios());
    assert_eq!(golden.fingerprint(), report.fingerprint());
    assert!(sched.workers.is_empty());
}
