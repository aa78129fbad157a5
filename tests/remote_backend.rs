//! Backend-interchangeability integration tests: the same scenario run
//! through `SimBackend`, `RemoteBackend` (against an in-process portal
//! server hosting the batch-execution API) and `ReplayBackend` must agree.
//! Fake workers pin the client's wire contract: which failures are
//! resent, and which responses are refused.

use sdl_lab::core::{
    AppConfig, AppError, BackendSpec, CampaignRunner, Experiment, LabBackend, RemoteBackend,
    ReplayBackend, RetryPolicy, ScenarioSpec, SimBackend, TerminationReason,
};
use sdl_lab::datapub::{AcdcPortal, BlobStore};
use sdl_lab::portal_server::{client, spawn, LabHost, PortalServer, ServerConfig};
use sdl_lab::solvers::SolverKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn worker_server() -> sdl_lab::portal_server::ServerHandle {
    let portal = Arc::new(AcdcPortal::new());
    let store = Arc::new(BlobStore::in_memory());
    let server = PortalServer::new(portal, store).with_lab(Arc::new(LabHost::new()));
    spawn(server, &ServerConfig::default()).expect("bind worker server")
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

#[test]
fn remote_campaign_is_bit_identical_to_sim() {
    let handle = worker_server();
    let addr = handle.addr().to_string();

    let scenarios = |backend: BackendSpec| -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new("g", config(SolverKind::Genetic, 10, 2, 21))
                .with_backend(backend.clone()),
            ScenarioSpec::new("b", config(SolverKind::Bayesian, 9, 3, 22))
                .with_backend(backend.clone()),
            ScenarioSpec::new("r", config(SolverKind::Random, 8, 4, 23)).with_backend(backend),
        ]
    };
    let sim = CampaignRunner::new().threads(2).run(scenarios(BackendSpec::Sim));
    let remote = CampaignRunner::new().threads(2).run(scenarios(BackendSpec::Remote(addr)));
    assert_eq!(
        sim.fingerprint(),
        remote.fingerprint(),
        "a remotely executed campaign must be bit-identical to the in-process one"
    );
    // Full telemetry survives the wire, not just the fingerprinted fields.
    for (s, r) in sim.results.iter().zip(&remote.results) {
        let (s, r) = (s.expect_single(), r.expect_single());
        assert_eq!(s.metrics, r.metrics, "metrics drifted over the wire");
        assert_eq!(s.counters, r.counters);
        assert_eq!(s.termination, r.termination);
    }
    handle.shutdown();
}

#[test]
fn remote_run_ships_plate_images_when_asked() {
    let handle = worker_server();
    let mut cfg = config(SolverKind::Random, 4, 2, 31);
    cfg.publish_images = true;

    let mut sim_session = Experiment::new(cfg.clone()).unwrap();
    let mut sim_backend = SimBackend::new(&cfg).unwrap();
    let sim_out = sim_session.run_on(&mut sim_backend).unwrap();

    let mut remote_session = Experiment::new(cfg.clone()).unwrap();
    let mut remote_backend = RemoteBackend::new(handle.addr().to_string(), cfg);
    let remote_out = remote_session.run_on(&mut remote_backend).unwrap();

    assert_eq!(sim_out.best_score.to_bits(), remote_out.best_score.to_bits());
    assert!(!remote_out.store.is_empty(), "plate frames must cross the wire");
    assert_eq!(
        sim_out.store.refs().len(),
        remote_out.store.refs().len(),
        "same number of plate frames"
    );
    // Hash-addressed blob refs match only if the bytes survived exactly.
    let mut sim_refs: Vec<String> = sim_out.store.refs().into_iter().map(|r| r.0).collect();
    let mut remote_refs: Vec<String> = remote_out.store.refs().into_iter().map(|r| r.0).collect();
    sim_refs.sort();
    remote_refs.sort();
    assert_eq!(sim_refs, remote_refs, "plate frames drifted over the wire");
    handle.shutdown();
}

#[test]
fn out_of_plates_terminates_identically_on_sim_and_remote() {
    // The crane runs dry: both executors must report the OutOfPlates
    // termination criterion (not an error), with identical accounting.
    // Columns: crane towers, publish_images, budget, batch, samples measured.
    let cases = [
        // Empty towers: the very first plate fetch, at open, aborts.
        ("[0]", false, 4, 2, 0),
        // One plate: two framed batches fill it, then the third batch's
        // plate fetch aborts and the worker answers with a frameless head.
        ("[1]", true, 100, 48, 96),
    ];
    let handle = worker_server();
    for (towers, publish_images, samples, batch, measured) in cases {
        let mut cfg = config(SolverKind::Random, samples, batch, 51);
        cfg.publish_images = publish_images;
        cfg.workcell_yaml = sdl_lab::wei::RPL_WORKCELL_YAML.replace("[10, 10, 10, 10]", towers);

        let mut sim_session = Experiment::new(cfg.clone()).unwrap();
        let mut sim_lab = SimBackend::new(&cfg).unwrap();
        let sim = sim_session.run_on(&mut sim_lab).unwrap();
        assert_eq!(sim.termination, TerminationReason::OutOfPlates, "towers {towers}");
        assert_eq!(sim.samples_measured, measured, "towers {towers}");

        let mut remote_session = Experiment::new(cfg.clone()).unwrap();
        let mut remote_lab = RemoteBackend::new(handle.addr().to_string(), cfg);
        let remote = remote_session.run_on(&mut remote_lab).unwrap();
        assert_eq!(remote.termination, TerminationReason::OutOfPlates, "towers {towers}");
        assert_eq!(remote.samples_measured, measured, "towers {towers}");
        assert_eq!(sim.duration, remote.duration, "towers {towers}");
        assert_eq!(sim.counters, remote.counters, "towers {towers}");
    }
    handle.shutdown();
}

/// One step a fake worker takes on an accepted connection.
enum Step {
    /// Read one request, head and body.
    Read,
    /// Write these bytes.
    Write(Vec<u8>),
    /// Keep the connection open, saying nothing, until the peer closes it
    /// or this long has passed.
    Hold(Duration),
}

/// A fake worker: one connection per entry of `script`, each running its
/// steps and then closing (an empty entry closes without reading). The
/// thread returns how many connections it accepted, counting any the
/// script did not expect.
fn fake_worker(script: Vec<Vec<Step>>) -> (String, std::thread::JoinHandle<usize>) {
    use std::io::{BufRead, BufReader, Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || {
        for steps in &script {
            let (stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            for step in steps {
                match step {
                    Step::Read => {
                        let mut length = 0;
                        loop {
                            let mut line = String::new();
                            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                break;
                            }
                            match line.trim_end().split_once(':') {
                                Some((name, value))
                                    if name.eq_ignore_ascii_case("content-length") =>
                                {
                                    length = value.trim().parse().unwrap();
                                }
                                _ if line.trim_end().is_empty() => break,
                                _ => {}
                            }
                        }
                        let _ = reader.read_exact(&mut vec![0u8; length]);
                    }
                    Step::Write(bytes) => {
                        let _ = (&stream).write_all(bytes);
                    }
                    Step::Hold(limit) => {
                        stream.set_read_timeout(Some(*limit)).unwrap();
                        let _ = reader.read_to_end(&mut Vec::new());
                    }
                }
            }
        }
        listener.set_nonblocking(true).unwrap();
        script.len() + std::iter::from_fn(|| listener.accept().ok()).count()
    });
    (addr, worker)
}

/// A response with `status`, the extra `head` lines and `body`.
fn reply(status: &str, head: &str, body: &str) -> Vec<u8> {
    format!("HTTP/1.1 {status}\r\n{head}Content-Length: {}\r\n\r\n{body}", body.len()).into_bytes()
}

/// A `/v1/experiments` answer `RemoteBackend::open` accepts.
const OPENED: &str = r#"{"session": "s1", "plate_capacity": 96, "dye_channels": 4}"#;

#[test]
fn oversized_response_length_is_refused_before_allocating() {
    // Allocating a u64::MAX body overflows capacity and panics, and a large
    // finite one can exhaust memory: a worker announcing either must be
    // refused with a backend error before anything is allocated.
    for length in ["18446744073709551615", "67108865"] {
        let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\n");
        let (addr, worker) = fake_worker(vec![vec![Step::Read, Step::Write(head.into_bytes())]]);
        let mut lab = RemoteBackend::new(addr, config(SolverKind::Random, 4, 2, 61));
        let err = lab.open().unwrap_err();
        assert!(
            matches!(&err, AppError::Backend(msg) if msg.contains("exceeds")),
            "Content-Length {length}: {err}"
        );
        worker.join().unwrap();
    }
}

/// Retries fast enough for a test, with a short read timeout.
fn quick_retry() -> RetryPolicy {
    RetryPolicy {
        read_timeout: Duration::from_millis(300),
        retries: 2,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        ..RetryPolicy::default()
    }
}

#[test]
fn a_request_the_worker_never_read_is_resent_once() {
    // The worker closes the first connection without reading a byte: the
    // request provably went unread, so it is resent on a new connection.
    let (addr, worker) =
        fake_worker(vec![vec![], vec![Step::Read, Step::Write(reply("200 OK", "", OPENED))]]);
    let mut lab =
        RemoteBackend::new(addr, config(SolverKind::Random, 4, 2, 62)).with_retry(quick_retry());
    lab.open().unwrap();
    let stats = lab.stats();
    assert_eq!((stats.posts, stats.resends), (1, 1), "{stats:?}");
    drop(lab);
    assert_eq!(worker.join().unwrap(), 2);
}

#[test]
fn a_silent_worker_times_out_without_a_resend() {
    // The worker read the request and may be executing it: a read timeout
    // is a transport failure, never a resend.
    let (addr, worker) = fake_worker(vec![vec![Step::Read, Step::Hold(Duration::from_secs(3))]]);
    let mut lab =
        RemoteBackend::new(addr, config(SolverKind::Random, 4, 2, 63)).with_retry(quick_retry());
    let err = lab.open().unwrap_err();
    assert!(matches!(err, AppError::Transport(_)), "{err}");
    assert_eq!(lab.stats().resends, 0, "{:?}", lab.stats());
    drop(lab);
    assert_eq!(worker.join().unwrap(), 1);
}

#[test]
fn a_shed_request_is_resent_on_the_same_connection() {
    let (addr, worker) = fake_worker(vec![vec![
        Step::Read,
        Step::Write(reply("429 Too Many Requests", "Retry-After: 1\r\n", "slow down\n")),
        Step::Read,
        Step::Write(reply("200 OK", "", OPENED)),
    ]]);
    let mut lab =
        RemoteBackend::new(addr, config(SolverKind::Random, 4, 2, 64)).with_retry(quick_retry());
    lab.open().unwrap();
    let stats = lab.stats();
    assert_eq!((stats.posts, stats.sheds, stats.resends), (1, 1, 0), "{stats:?}");
    drop(lab);
    assert_eq!(worker.join().unwrap(), 1, "the resend must reuse the connection");
}

/// Responses whose framing a client must refuse, each with a valid
/// `OPENED` body so that a client which accepts the framing succeeds.
fn unframeable_responses() -> Vec<(&'static str, Vec<u8>)> {
    let signed = format!("HTTP/1.1 200 OK\r\nContent-Length: +{}\r\n\r\n{OPENED}", OPENED.len());
    let mut endless = b"HTTP/1.1 200 OK\r\nX-Endless: ".to_vec();
    endless.resize(endless.len() + 256 * 1024, b'a');
    let many: String = (0..100).map(|i| format!("X-Header-{i}: {i}\r\n")).collect();
    vec![
        ("a signed Content-Length", signed.into_bytes()),
        ("a header line that never ends", endless),
        ("100 headers", reply("200 OK", &many, OPENED)),
    ]
}

#[test]
fn remote_backend_refuses_unframeable_responses_promptly() {
    for (what, bytes) in unframeable_responses() {
        let script = vec![Step::Read, Step::Write(bytes), Step::Hold(Duration::from_secs(3))];
        let (addr, worker) = fake_worker(vec![script]);
        let mut lab = RemoteBackend::new(addr, config(SolverKind::Random, 4, 2, 65))
            .with_retry(RetryPolicy { read_timeout: Duration::from_secs(30), ..quick_retry() });
        let started = Instant::now();
        let err = lab.open().unwrap_err();
        assert!(matches!(&err, AppError::Backend(_)), "{what}: {err}");
        assert!(started.elapsed() < Duration::from_secs(1), "{what}: took {:?}", started.elapsed());
        assert_eq!(lab.stats().resends, 0, "{what}");
        drop(lab);
        assert_eq!(worker.join().unwrap(), 1, "{what}");
    }
}

#[test]
fn http_client_refuses_unframeable_responses_promptly() {
    for (what, bytes) in unframeable_responses() {
        let script = vec![Step::Read, Step::Write(bytes), Step::Hold(Duration::from_secs(3))];
        let (addr, worker) = fake_worker(vec![script]);
        let started = Instant::now();
        let err = client::get(addr.as_str(), "/healthz").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        assert!(started.elapsed() < Duration::from_secs(1), "{what}: took {:?}", started.elapsed());
        assert_eq!(worker.join().unwrap(), 1, "{what}");
    }
}

#[test]
fn replay_reproduces_a_recorded_run_exactly() {
    let cfg = config(SolverKind::Bayesian, 12, 3, 44);

    let mut live_session = Experiment::new(cfg.clone()).unwrap();
    let mut live_backend = SimBackend::new(&cfg).unwrap();
    let live = live_session.run_on(&mut live_backend).unwrap();
    let records = live.portal.samples(&live.experiment_id);
    assert_eq!(records.len(), 12);

    let mut replay_session = Experiment::new(cfg).unwrap();
    let mut replay = ReplayBackend::from_records(records);
    let replayed = replay_session.run_on(&mut replay).unwrap();

    assert_eq!(replayed.termination, TerminationReason::BudgetExhausted);
    assert_eq!(replayed.samples_measured, live.samples_measured);
    assert_eq!(replayed.best_score.to_bits(), live.best_score.to_bits());
    assert_eq!(replayed.best_ratios, live.best_ratios);
    assert_eq!(replayed.trajectory.len(), live.trajectory.len());
    for (a, b) in live.trajectory.iter().zip(&replayed.trajectory) {
        assert_eq!(a.sample, b.sample);
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "sample {}", a.sample);
        assert_eq!(a.best.to_bits(), b.best.to_bits(), "sample {}", a.sample);
        assert_eq!(
            a.elapsed_min.to_bits(),
            b.elapsed_min.to_bits(),
            "recorded clock must survive sample {}",
            a.sample
        );
    }
}

#[test]
fn replay_survives_a_jsonl_export_roundtrip() {
    let cfg = config(SolverKind::Genetic, 8, 2, 45);
    let mut session = Experiment::new(cfg.clone()).unwrap();
    let mut backend = SimBackend::new(&cfg).unwrap();
    let live = session.run_on(&mut backend).unwrap();

    let dir = std::env::temp_dir().join(format!("sdl-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("export.jsonl");
    live.portal.export_jsonl(&path).unwrap();

    let mut replay_session = Experiment::new(cfg.clone()).unwrap();
    let mut replay = ReplayBackend::from_jsonl(&path, Some(&cfg.experiment_id())).unwrap();
    let replayed = replay_session.run_on(&mut replay).unwrap();
    assert_eq!(replayed.best_score.to_bits(), live.best_score.to_bits());
    assert_eq!(replayed.samples_measured, live.samples_measured);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn wrong_seed_replay_fails_loudly() {
    let cfg = config(SolverKind::Genetic, 6, 2, 46);
    let mut session = Experiment::new(cfg.clone()).unwrap();
    let mut backend = SimBackend::new(&cfg).unwrap();
    let live = session.run_on(&mut backend).unwrap();

    let mut other = cfg;
    other.seed = 47;
    let mut replay_session = Experiment::new(other).unwrap();
    let mut replay = ReplayBackend::from_records(live.portal.samples(&live.experiment_id));
    let err = replay_session.run_on(&mut replay).unwrap_err();
    assert!(err.to_string().contains("diverged"), "{err}");
}
