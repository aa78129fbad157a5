//! Overload-resilience integration tests: a live server past its
//! connection cap and tenant quotas must shed with `429`/`503` +
//! `Retry-After` (never hang, never grow unboundedly), keep-alive
//! connections must be finite, drain must lose zero accepted batches,
//! and a sharded campaign under shedding must stay bit-identical to the
//! single-process golden run.

use sdl_lab::core::{
    AppConfig, CampaignRunner, CampaignScheduler, ChaosPolicy, RetryPolicy, ScenarioSpec,
};
use sdl_lab::datapub::{AcdcPortal, BlobStore};
use sdl_lab::portal_server::client::{self, HttpClient};
use sdl_lab::portal_server::{
    spawn, LabHost, PortalServer, QuotaPolicy, ServerConfig, ServerHandle,
};
use sdl_lab::solvers::SolverKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn lab_server(lab: LabHost, config: ServerConfig) -> ServerHandle {
    let portal = Arc::new(AcdcPortal::new());
    let store = Arc::new(BlobStore::in_memory());
    let server = PortalServer::new(portal, store).with_lab(Arc::new(lab));
    spawn(server, &config).expect("bind overload test server")
}

fn ephemeral() -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() }
}

const CREATE: &str = r#"{"samples": 4, "batch": 2, "publish_images": false}"#;
const BATCH: &str = r#"{"run": 1, "ratios": [[0.5, 0.25, 0.0, 0.1], [0.0, 0.0, 0.0, 1.0]]}"#;

#[test]
fn quota_sheds_429_with_retry_after_over_real_sockets() {
    // Burst of one token on a slow refill: the second session open must be
    // shed immediately (not queued) with a Retry-After hint.
    let handle =
        lab_server(LabHost::new().with_quota(QuotaPolicy { rate: 0.5, burst: 1.0 }), ephemeral());
    let addr = handle.addr();

    let mut c = HttpClient::connect(addr).unwrap();
    let first = c.post("/v1/experiments", CREATE).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());

    let started = Instant::now();
    let second = c.post("/v1/experiments", CREATE).unwrap();
    assert_eq!(second.status, 429, "{}", second.text());
    let hint: u64 =
        second.header("retry-after").expect("shed carries Retry-After").parse().unwrap();
    assert!(hint >= 1);
    assert!(started.elapsed() < Duration::from_secs(2), "sheds answer immediately, never queue");

    let metrics = client::get(addr, "/metrics").unwrap().text();
    assert!(metrics.contains("sdl_lab_quota_denials_total 1"), "{metrics}");
    let shed_line = metrics.lines().find(|l| l.starts_with("sdl_lab_shed_total")).unwrap();
    assert!(!shed_line.ends_with(" 0"), "{shed_line}");
    handle.shutdown();
}

#[test]
fn connection_cap_sheds_503_and_recovers_when_load_subsides() {
    let handle = lab_server(LabHost::new(), ServerConfig { max_conns: 1, ..ephemeral() });
    let addr = handle.addr();

    // Occupy the single slot with a keep-alive connection (the completed
    // request guarantees it has been accepted, not just SYN-queued).
    let mut occupant = HttpClient::connect(addr).unwrap();
    assert_eq!(occupant.get("/healthz").unwrap().status, 200);

    // Everything past the cap is answered 503 + Retry-After at accept.
    let over = client::get(addr, "/healthz").unwrap();
    assert_eq!(over.status, 503, "{}", over.text());
    assert!(over.header("retry-after").is_some());

    // Release the slot; the server recovers (the worker notices the close
    // asynchronously, so poll briefly).
    drop(occupant);
    let deadline = Instant::now() + Duration::from_secs(5);
    let recovered = loop {
        let resp = client::get(addr, "/healthz").unwrap();
        if resp.status == 200 {
            break resp;
        }
        assert!(Instant::now() < deadline, "server never recovered from the conn cap");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(recovered.status, 200);

    assert!(handle.server().metrics().conn_sheds() >= 1);
    // The /metrics scrape itself competes for the single slot, so poll
    // until it lands.
    let deadline = Instant::now() + Duration::from_secs(5);
    let metrics = loop {
        let resp = client::get(addr, "/metrics").unwrap();
        if resp.status == 200 {
            break resp.text();
        }
        assert!(Instant::now() < deadline, "metrics scrape kept getting shed");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(metrics.contains("sdl_portal_conn_sheds_total"), "{metrics}");
    assert!(metrics.contains("sdl_portal_conns_active"), "{metrics}");
    handle.shutdown();
}

#[test]
fn keep_alive_connections_are_finite() {
    // max_requests_per_conn=2: the second response says Connection: close
    // and the socket actually closes, so one client can't pin a worker
    // thread forever.
    let handle =
        lab_server(LabHost::new(), ServerConfig { max_requests_per_conn: 2, ..ephemeral() });
    let mut c = HttpClient::connect(handle.addr()).unwrap();
    let first = c.get("/healthz").unwrap();
    assert_eq!(first.status, 200);
    assert_ne!(first.header("connection"), Some("close"), "first request keeps the connection");
    let second = c.get("/healthz").unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("connection"), Some("close"));
    assert!(c.get("/healthz").is_err(), "server must close after the per-conn budget");
    handle.shutdown();
}

#[test]
fn drain_finishes_accepted_work_and_refuses_new_sessions() {
    let handle = lab_server(LabHost::new(), ephemeral());
    let addr = handle.addr();

    let mut c = HttpClient::connect(addr).unwrap();
    let created = c.post("/v1/experiments", CREATE).unwrap();
    assert_eq!(created.status, 200, "{}", created.text());
    let session = {
        use sdl_lab::conf::ValueExt;
        sdl_lab::conf::from_json(&created.text()).unwrap().opt_str("session").unwrap().to_string()
    };

    handle.server().begin_drain();

    // New sessions are refused with a Retry-After so schedulers fail over.
    let refused = client::post(addr, "/v1/experiments", CREATE).unwrap();
    assert_eq!(refused.status, 503, "{}", refused.text());
    assert!(refused.header("retry-after").is_some());

    // The accepted session finishes: zero lost batches across the drain.
    // Draining also winds down keep-alive — every response now says
    // Connection: close, so the client reconnects per request.
    let batch = c.post(&format!("/v1/batch?session={session}"), BATCH).unwrap();
    assert_eq!(batch.status, 200, "{}", batch.text());
    assert_eq!(batch.header("connection"), Some("close"));
    let closed =
        client::post(addr, &format!("/v1/close?session={session}"), r#"{"samples": 2}"#).unwrap();
    assert_eq!(closed.status, 200, "{}", closed.text());

    let metrics = client::get(addr, "/metrics").unwrap().text();
    assert!(metrics.contains("sdl_lab_draining 1"), "{metrics}");
    assert!(metrics.contains("sdl_portal_draining 1"), "{metrics}");
    handle.shutdown();
}

#[test]
fn blob_memory_stays_bounded_and_serves_evicted_blobs_from_spill() {
    use bytes::Bytes;
    let dir = std::env::temp_dir().join(format!("sdl-overload-blobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(BlobStore::with_spill_dir(&dir).with_mem_cap(64));
    let blobs: Vec<_> =
        (0..8u8).map(|i| (store.put(Bytes::from(vec![i; 32])), vec![i; 32])).collect();
    assert!(store.total_bytes() <= 64, "cap violated: {} bytes resident", store.total_bytes());
    assert!(store.evictions() > 0, "cap never evicted");

    let server = PortalServer::new(Arc::new(AcdcPortal::new()), Arc::clone(&store));
    let handle = spawn(server, &ephemeral()).unwrap();
    // Every blob — including evicted ones — serves back byte-identical,
    // and serving them never breaks the ceiling.
    for (blob, expected) in &blobs {
        let resp = client::get(handle.addr(), &format!("/blobs/{}", blob.0)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, *expected);
        assert!(store.total_bytes() <= 64);
    }
    assert!(store.reloads() > 0, "evicted blobs must reload from spill");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
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
        ScenarioSpec::new("g1", config(SolverKind::Genetic, 8, 2, 201)),
        ScenarioSpec::new("b1", config(SolverKind::Bayesian, 6, 3, 202)),
        ScenarioSpec::new("r1", config(SolverKind::Random, 8, 4, 203)),
        ScenarioSpec::new("g2", config(SolverKind::Genetic, 6, 2, 204)),
        ScenarioSpec::new("r2", config(SolverKind::Random, 6, 2, 205)),
        ScenarioSpec::new("b2", config(SolverKind::Bayesian, 8, 2, 206)),
    ]
}

/// Tight backoffs so shed/retry cycles don't wait out real Retry-After
/// seconds: the policy clamps server hints to 4x max_backoff.
fn shed_retry() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(30),
        retries: 8,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(10),
    }
}

#[test]
fn scheduler_fingerprint_is_bit_identical_under_shedding() {
    // Workers that deterministically shed ~30% of /v1 requests (chaos
    // `shed=`): the scheduler must throttle and resend — never evict a
    // busy worker, never lose or duplicate a batch — and the merged
    // fingerprint must equal the single-process golden at any pool size.
    let golden = CampaignRunner::new().threads(2).run(scenarios());
    let chaos = ChaosPolicy::parse("seed=9,shed=0.3").unwrap();
    for pool in [1usize, 2, 4] {
        let handles: Vec<ServerHandle> =
            (0..pool).map(|_| lab_server(LabHost::new().with_chaos(chaos), ephemeral())).collect();
        let urls: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
        let (report, sched) =
            CampaignScheduler::new(urls).shard_size(1).retry(shed_retry()).run(scenarios());
        assert_eq!(
            golden.fingerprint(),
            report.fingerprint(),
            "fingerprint drift under shedding at pool={pool}"
        );
        assert!(sched.total_sheds() > 0, "shed chaos never fired at pool={pool}: {sched:?}");
        assert_eq!(sched.total_evictions(), 0, "backpressure must throttle, not evict");
        let remote: u64 = sched.workers.iter().map(|w| w.completed).sum();
        assert_eq!(remote, scenarios().len() as u64, "lost or duplicated scenarios");
        for h in handles {
            h.shutdown();
        }
    }
}
