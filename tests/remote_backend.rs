//! Backend-interchangeability integration tests: the same scenario run
//! through `SimBackend`, `RemoteBackend` (against an in-process portal
//! server hosting the batch-execution API) and `ReplayBackend` must agree.

use sdl_lab::core::{
    AppConfig, AppError, BackendSpec, CampaignRunner, Experiment, LabBackend, RemoteBackend,
    ReplayBackend, ScenarioSpec, SimBackend, TerminationReason,
};
use sdl_lab::datapub::{AcdcPortal, BlobStore};
use sdl_lab::portal_server::{spawn, LabHost, PortalServer, ServerConfig};
use sdl_lab::solvers::SolverKind;
use std::sync::Arc;

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

/// A fake worker that answers the first request with `reply` (a status
/// line and headers), then hangs up.
fn fake_worker(reply: String) -> (String, std::thread::JoinHandle<()>) {
    use std::io::{BufRead, BufReader, Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut length = 0;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            match line.trim_end().split_once(':') {
                Some((name, value)) if name.eq_ignore_ascii_case("content-length") => {
                    length = value.trim().parse().unwrap();
                }
                _ if line.trim_end().is_empty() => break,
                _ => {}
            }
        }
        reader.read_exact(&mut vec![0u8; length]).unwrap();
        (&stream).write_all(reply.as_bytes()).unwrap();
    });
    (addr, worker)
}

#[test]
fn oversized_response_length_is_refused_before_allocating() {
    // Allocating a u64::MAX body overflows capacity and panics, and a large
    // finite one can exhaust memory: a worker announcing either must be
    // refused with a backend error before anything is allocated.
    for length in ["18446744073709551615", "67108865"] {
        let reply = format!("HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\n");
        let (addr, worker) = fake_worker(reply);
        let mut lab = RemoteBackend::new(addr, config(SolverKind::Random, 4, 2, 61));
        let err = lab.open().unwrap_err();
        assert!(
            matches!(&err, AppError::Backend(msg) if msg.contains("exceeds")),
            "Content-Length {length}: {err}"
        );
        worker.join().unwrap();
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
