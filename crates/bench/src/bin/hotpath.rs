//! `hotpath` — the rows the end-to-end benchmark does not cover.
//!
//! `perfbench` (see `BENCHMARK.json`) is the benchmark of record: it times
//! solver propose, render, detect, the `/v1/batch` wire and the scheduler
//! inside real campaigns. This bench keeps only what no perfbench workload
//! measures or gates:
//!
//! 1. `colorspace` — per-op latency of the sRGB→Lab / sRGB→Jab conversions
//!    and the perceptual metrics, one stage at a time (every perfbench
//!    workload scores with the `rgb` objective);
//! 2. `event_log` — mean durable-append latency times the events a batch
//!    emits, as a fraction of the median `SimBackend` batch
//!    (`--check` gates it below 2%);
//! 3. `overload` — offered load at 1×/2×/4× a tiny live-connection cap:
//!    admitted req/s, p50/p99 latency of admitted requests, and the shed
//!    rate (503-at-accept share). The 4× row must actually shed
//!    (`--check` gates it).
//!
//! Writes machine-readable `BENCH_hotpath.json` (repo root when run from
//! there; `--out` to override). `--smoke` runs a fast CI-sized variant;
//! `--check <file>` validates an existing output file and exits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdl_bench::{flag_or, median, parse_flags, percentile};
use sdl_color::{ciede2000, Jab, Lab, Rgb8};
use sdl_conf::{from_json, to_json_pretty, Value, ValueExt};
use sdl_core::{AppConfig, Arg, CampaignEvent, EventLog, Experiment, LabBackend, SimBackend};
use sdl_solvers::SolverKind;
use std::time::Instant;

/// Median per-batch `SimBackend::submit_batch` latency (µs) through an
/// ask/tell session: the lab work one batch costs, and the denominator of
/// the event-log overhead.
fn time_sim_submit(batches: u32, batch: u32) -> f64 {
    let config = AppConfig {
        solver: SolverKind::Random,
        sample_budget: batches * batch,
        batch,
        seed: 13,
        publish_images: false,
        ..AppConfig::default()
    };
    let mut session = Experiment::new(config.clone()).expect("session");
    let mut backend = SimBackend::new(&config).expect("sim backend");
    let caps = backend.open().expect("backend opens");
    let mut samples = Vec::with_capacity(batches as usize);
    while let Some(b) = session.ask(&caps) {
        let t = Instant::now();
        let result = backend.submit_batch(&b).expect("batch executes");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        session.tell(&b, result).expect("tell");
    }
    backend.close(session.samples_measured()).expect("backend closes");
    median(&samples)
}

/// Mean append latency (µs) of a durable, file-backed [`EventLog`] over
/// `n` appends of the hot-loop event (`sample_published`). The mean —
/// not the median — so the periodic fsync batches are amortized in, the
/// way a campaign actually pays them.
fn time_event_append(n: usize) -> f64 {
    let path =
        std::env::temp_dir().join(format!("sdl-hotpath-events-{}.jsonl", std::process::id()));
    let log = EventLog::create(&path).expect("create bench event log");
    let event = CampaignEvent::SamplePublished {
        index: 3,
        attempt: 0,
        run: 7,
        sample: 42,
        well: "D11".to_string(),
        ratios: vec![0.18, 0.16, 0.16, 0.62],
        measured: [120, 121, 119],
        score: 17.25,
        best: 12.5,
        elapsed_us: 123_456,
        batch_wall_us: 15_000,
    };
    let t = Instant::now();
    for _ in 0..n {
        log.append(&event);
    }
    let mean = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    drop(log);
    let _ = std::fs::remove_file(&path);
    mean
}

/// Spawn a portal server capped at `cap` live connections (no lab — the
/// overload sweep measures the admission layer, not the simulator).
fn capped_server(cap: usize) -> sdl_portal_server::ServerHandle {
    use std::sync::Arc;
    let server = sdl_portal_server::PortalServer::new(
        Arc::new(sdl_datapub::AcdcPortal::new()),
        Arc::new(sdl_datapub::BlobStore::in_memory()),
    );
    sdl_portal_server::spawn(
        server,
        &sdl_portal_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: cap.max(1),
            max_conns: cap,
            ..sdl_portal_server::ServerConfig::default()
        },
    )
    .expect("bind overload server")
}

/// One keep-alive client hammering `/healthz` against a capped server:
/// holds its connection while it can, reconnects when shed or closed.
/// Returns (admitted latencies µs, admitted, shed).
fn overload_client(addr: std::net::SocketAddr, attempts: usize) -> (Vec<f64>, u64, u64) {
    use sdl_portal_server::client::HttpClient;
    let mut lat = Vec::with_capacity(attempts);
    let (mut ok, mut shed) = (0u64, 0u64);
    let mut conn: Option<HttpClient> = None;
    for _ in 0..attempts {
        if conn.is_none() {
            conn = HttpClient::connect(addr).ok();
        }
        let Some(c) = conn.as_mut() else {
            shed += 1;
            continue;
        };
        let t0 = Instant::now();
        match c.get("/healthz") {
            Ok(resp) if resp.status == 200 => {
                lat.push(t0.elapsed().as_secs_f64() * 1e6);
                ok += 1;
                if resp.header("connection") == Some("close") {
                    conn = None;
                }
            }
            Ok(_) | Err(_) => {
                // 503-at-accept, or the shed race closing under us:
                // either way this attempt was refused admission.
                shed += 1;
                conn = None;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }
    (lat, ok, shed)
}

/// Median per-operation latency (ns) of one color-space op over a
/// deterministic swatch set. Every scored sample pays these on the
/// perceptual-objective path (sRGB→Lab or sRGB→Jab per endpoint, then the
/// metric), so they bound how much a `ciede2000`/`cam16ucs` campaign can
/// cost over the `rgb` baseline.
fn time_colorspace_op(reps: usize, pairs: usize, f: impl Fn(Rgb8, Rgb8) -> f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(5);
    let swatches: Vec<(Rgb8, Rgb8)> = (0..pairs)
        .map(|_| {
            (Rgb8::new(rng.gen(), rng.gen(), rng.gen()), Rgb8::new(rng.gen(), rng.gen(), rng.gen()))
        })
        .collect();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut acc = 0.0f64;
        let t = Instant::now();
        for &(a, b) in &swatches {
            acc += f(a, b);
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / pairs as f64;
        assert!(acc.is_finite());
        samples.push(ns);
    }
    median(&samples)
}

/// Validate a previously written report; panics (non-zero exit) on
/// missing/malformed files so CI can gate on it.
fn check(path: &str) {
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: cannot read BENCH_hotpath output: {e}"));
    let doc = from_json(&src).unwrap_or_else(|e| panic!("{path}: malformed JSON: {e}"));
    assert_eq!(doc.opt_str("schema"), Some("sdl-hotpath/2"), "{path}: wrong schema tag");
    let event_log = doc.get("event_log").unwrap_or_else(|| panic!("{path}: missing 'event_log'"));
    for key in ["appends", "append_us_mean", "events_per_batch", "batch_wall_us", "overhead_frac"] {
        assert!(event_log.get(key).is_some(), "{path}: event_log missing '{key}'");
    }
    let overhead = event_log.get("overhead_frac").and_then(Value::as_f64).expect("overhead_frac");
    assert!(
        overhead < 0.02,
        "{path}: event-log append overhead is {:.2}% of batch wall time (budget: 2%)",
        100.0 * overhead
    );
    let colorspace = doc.get("colorspace").and_then(Value::as_seq).expect("colorspace section");
    let expected_ops = ["srgb_to_lab", "srgb_to_jab", "delta_e2000", "ucs_distance"];
    for op in expected_ops {
        let row = colorspace
            .iter()
            .find(|r| r.opt_str("op") == Some(op))
            .unwrap_or_else(|| panic!("{path}: colorspace section missing op '{op}'"));
        assert!(
            row.get("ns").and_then(Value::as_f64).is_some_and(|v| v > 0.0),
            "{path}: colorspace op '{op}' needs a positive 'ns'"
        );
    }
    let overload = doc.get("overload").and_then(Value::as_seq).expect("overload section");
    assert!(!overload.is_empty(), "{path}: empty overload section");
    for row in overload {
        for key in
            ["clients", "cap", "attempts", "ok", "sheds", "req_s", "shed_rate", "p50_us", "p99_us"]
        {
            assert!(row.get(key).is_some(), "{path}: overload row missing '{key}'");
        }
        assert!(
            row.get("req_s").and_then(Value::as_f64).is_some_and(|v| v > 0.0),
            "{path}: overload admitted throughput must be positive"
        );
        assert!(
            row.get("shed_rate").and_then(Value::as_f64).is_some_and(|v| (0.0..=1.0).contains(&v)),
            "{path}: overload shed_rate must be a fraction"
        );
    }
    assert!(
        overload.last().and_then(|r| r.get("sheds")).and_then(Value::as_i64).is_some_and(|v| v > 0),
        "{path}: the 4x-cap overload row must actually shed"
    );
    println!("{path}: OK");
}

const FLAGS: &[(&str, Arg)] =
    &[("--check", Arg::OptionalValue), ("--smoke", Arg::Switch), ("--out", Arg::Value)];

fn main() {
    let flags = parse_flags(FLAGS);
    if flags.present("--check") {
        check(&flag_or(&flags, "--check", "BENCH_hotpath.json".to_string()));
        return;
    }
    let smoke = flags.present("--smoke");
    let out_path = flag_or(&flags, "--out", "BENCH_hotpath.json".to_string());

    let mut doc = Value::map();
    doc.set("schema", "sdl-hotpath/2");
    doc.set("mode", if smoke { "smoke" } else { "full" });

    // Color-space conversions and perceptual metrics (the objective
    // subsystem's hot path). The metric rows are end-to-end per scored
    // pair: two sRGB→space conversions plus the distance, exactly what
    // `Objective::score` pays per measurement.
    let cs_pairs = if smoke { 512usize } else { 4096 };
    let cs_reps = if smoke { 3 } else { 9 };
    let mut colorspace = Value::seq();
    type ColorOp = Box<dyn Fn(Rgb8, Rgb8) -> f64>;
    let ops: [(&str, ColorOp); 4] = [
        ("srgb_to_lab", Box::new(|a, _| Lab::from_rgb8(a).l)),
        ("srgb_to_jab", Box::new(|a, _| Jab::from_rgb8(a).j)),
        ("delta_e2000", Box::new(|a, b| ciede2000(Lab::from_rgb8(a), Lab::from_rgb8(b)))),
        ("ucs_distance", Box::new(|a, b| Jab::from_rgb8(a).distance(Jab::from_rgb8(b)))),
    ];
    for (op, f) in ops {
        let ns = time_colorspace_op(cs_reps, cs_pairs, f);
        let mut row = Value::map();
        row.set("op", op);
        row.set("pairs", cs_pairs as i64);
        row.set("ns", ns);
        eprintln!("colorspace {op}: {ns:.0}ns/op");
        colorspace.push(row);
    }
    doc.set("colorspace", colorspace);

    // Event-log overhead: a campaign appends ~(batch + 2) events per
    // executed batch (one asked, one told, one per sample), so
    // overhead_frac is the share of a batch's lab wall time spent logging.
    // --check gates this below 2%.
    let batch = 4;
    let batch_wall_us = time_sim_submit(if smoke { 4 } else { 16 }, batch);
    let appends = if smoke { 512usize } else { 4096 };
    let append_us = time_event_append(appends);
    let events_per_batch = batch + 2;
    let overhead = append_us * events_per_batch as f64 / batch_wall_us;
    let mut event_log = Value::map();
    event_log.set("appends", appends as i64);
    event_log.set("append_us_mean", append_us);
    event_log.set("events_per_batch", events_per_batch as i64);
    event_log.set("batch_wall_us", batch_wall_us);
    event_log.set("overhead_frac", overhead);
    eprintln!(
        "event log: {append_us:.2}µs/append, {events_per_batch}/batch over {batch_wall_us:.0}µs \
         ({:.3}% of batch wall)",
        100.0 * overhead
    );
    doc.set("event_log", event_log);

    // Overload admission: offered load at 1x/2x/4x a tiny live-connection
    // cap. Admission control must keep admitted throughput steady and
    // answer the excess 503-at-accept — req_s counts *admitted* work,
    // shed_rate the refused share of all attempts.
    let overload_cap = 2usize;
    let overload_attempts = if smoke { 40usize } else { 200 };
    let mut overload = Value::seq();
    for mult in [1usize, 2, 4] {
        let clients = overload_cap * mult;
        let server = capped_server(overload_cap);
        let addr = server.addr();
        let wall = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|_| std::thread::spawn(move || overload_client(addr, overload_attempts)))
            .collect();
        let mut lat = Vec::new();
        let (mut ok, mut sheds) = (0u64, 0u64);
        for w in workers {
            let (mut l, o, s) = w.join().expect("overload client");
            lat.append(&mut l);
            ok += o;
            sheds += s;
        }
        let wall_s = wall.elapsed().as_secs_f64();
        server.shutdown();
        lat.sort_by(f64::total_cmp);
        let attempts_total = (clients * overload_attempts) as u64;
        let mut row = Value::map();
        row.set("clients", clients as i64);
        row.set("cap", overload_cap as i64);
        row.set("attempts", attempts_total as i64);
        row.set("ok", ok as i64);
        row.set("sheds", sheds as i64);
        row.set("req_s", ok as f64 / wall_s);
        row.set("shed_rate", sheds as f64 / attempts_total as f64);
        row.set("p50_us", percentile(&lat, 50.0));
        row.set("p99_us", percentile(&lat, 99.0));
        eprintln!(
            "overload {clients} clients vs cap {overload_cap}: {:.0} admitted req/s, \
             p99 {:.0}µs, {:.1}% shed",
            ok as f64 / wall_s,
            percentile(&lat, 99.0),
            100.0 * sheds as f64 / attempts_total as f64
        );
        overload.push(row);
    }
    doc.set("overload", overload);

    std::fs::write(&out_path, to_json_pretty(&doc) + "\n").expect("write bench output");
    println!("wrote {out_path}");
}
