//! S1 — load-test the portal serving layer (the ROADMAP's "serves heavy
//! traffic" axis): spin up an in-process `sdl-portal-server` over a
//! synthetic campaign portal, hammer it from N keep-alive client threads,
//! and report throughput plus p50/p99 latency per endpoint.
//!
//! Usage: `cargo run --release -p sdl-bench --bin portal_load --
//!         [--clients 8] [--requests 500] [--records 5000] [--threads 8]
//!         [--max-conns 0]`
//!
//! `--max-conns N` arms the server's live-connection cap: clients past
//! it are shed `503` at accept and reconnect, and the summary reports
//! the shed rate alongside throughput (the overload sweep in the
//! `hotpath` bench records the same admission behavior in
//! `BENCH_hotpath.json`).

use bytes::Bytes;
use sdl_bench::{flag_or, mean, parse_flags, percentile, table};
use sdl_core::Arg;
use sdl_datapub::{AcdcPortal, BlobStore, ExperimentRecord, SampleRecord};
use sdl_portal_server::client::HttpClient;
use sdl_portal_server::{spawn, PortalServer, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

const FLAGS: &[(&str, Arg)] = &[
    ("--clients", Arg::Value),
    ("--requests", Arg::Value),
    ("--records", Arg::Value),
    ("--threads", Arg::Value),
    ("--max-conns", Arg::Value),
];

fn seed_portal(records: usize) -> (Arc<AcdcPortal>, Arc<BlobStore>, String) {
    let portal = Arc::new(AcdcPortal::new());
    let store = Arc::new(BlobStore::in_memory());
    // One modest "plate image" per run keeps /blobs/ realistic.
    let blob = store.put(Bytes::from(vec![0x42u8; 16 * 1024]));
    portal.ingest(
        ExperimentRecord {
            experiment_id: "load".into(),
            name: "ColorPickerRPL".into(),
            date: "2023-08-16".into(),
            target: [120, 120, 120],
            solver: "genetic".into(),
            batch: 15,
            sample_budget: records as u32,
        }
        .to_value(),
    );
    for i in 0..records as u32 {
        portal.ingest(
            SampleRecord {
                experiment_id: "load".into(),
                run: 1 + i / 15,
                sample: i + 1,
                well: format!("A{}", 1 + i % 12),
                ratios: vec![0.25; 4],
                volumes_ul: vec![8.0; 4],
                measured: [(i % 256) as u8, 119, 122],
                target: [120, 120, 120],
                score: 30.0 - (i % 280) as f64 / 10.0,
                best_so_far: 2.5,
                elapsed_s: i as f64 * 228.0,
                batch_wall_s: None,
                image_ref: Some(blob.0.clone()),
            }
            .to_value(),
        );
    }
    (portal, store, blob.0)
}

const ENDPOINTS: [&str; 5] = ["/records", "/summary", "/runs", "/blobs", "/healthz"];

fn endpoint_for(i: usize, blob: &str, records: usize) -> (usize, String) {
    match i % 6 {
        // /records is the hot path: two slots out of six.
        0 => (0, format!("/records?kind=sample&limit=100&offset={}", (i * 100) % records)),
        1 => (0, format!("/records?kind=sample&run={}&limit=50", 1 + i % 12)),
        2 => (1, "/summary?experiment=load".to_string()),
        3 => (2, format!("/runs/{}?experiment=load", 1 + i % 12)),
        4 => (3, format!("/blobs/{blob}")),
        _ => (4, "/healthz".to_string()),
    }
}

fn main() {
    let flags = parse_flags(FLAGS);
    let clients: usize = flag_or(&flags, "--clients", 8);
    let requests: usize = flag_or(&flags, "--requests", 500);
    let records: usize = flag_or(&flags, "--records", 5000);
    let threads: usize = flag_or(&flags, "--threads", 8);

    if clients > threads {
        eprintln!(
            "warning: {clients} keep-alive clients > {threads} server threads — the server is \
             thread-per-connection, so surplus clients queue behind the pool and latency \
             percentiles will measure the queue, not the server"
        );
    }

    let (portal, store, blob) = seed_portal(records);
    let total_records = portal.len();
    let max_conns: usize = flag_or(&flags, "--max-conns", 0);
    let server = PortalServer::new(portal, store);
    let handle = spawn(
        server,
        &ServerConfig { addr: "127.0.0.1:0".into(), threads, max_conns, ..ServerConfig::default() },
    )
    .expect("bind load-test server");
    let addr = handle.addr();
    eprintln!(
        "portal_load: {total_records} records behind {}, {clients} clients x {requests} \
         requests, {threads} server threads{}",
        handle.url(),
        if max_conns > 0 { format!(", {max_conns}-connection cap") } else { String::new() }
    );

    let wall = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let blob = blob.clone();
            std::thread::spawn(move || {
                let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); ENDPOINTS.len()];
                let mut errors = 0usize;
                let mut sheds = 0usize;
                // With a connection cap in play the client may be shed at
                // accept; reconnect-and-retry is the backpressure contract.
                let mut client: Option<HttpClient> = None;
                for i in 0..requests {
                    // Offset each client's walk so endpoints interleave.
                    let (slot, path) = endpoint_for(c + i, &blob, records);
                    if client.is_none() {
                        client = HttpClient::connect(addr).ok();
                    }
                    let Some(conn) = client.as_mut() else {
                        errors += 1;
                        continue;
                    };
                    let t0 = Instant::now();
                    match conn.get(&path) {
                        Ok(resp) if resp.status == 200 => {
                            latencies[slot].push(t0.elapsed().as_secs_f64() * 1e6)
                        }
                        Ok(resp) if resp.status == 503 || resp.status == 429 => {
                            sheds += 1;
                            client = None;
                        }
                        _ => {
                            errors += 1;
                            client = None;
                        }
                    }
                }
                (latencies, errors, sheds)
            })
        })
        .collect();

    let mut by_endpoint: Vec<Vec<f64>> = vec![Vec::new(); ENDPOINTS.len()];
    let mut errors = 0usize;
    let mut sheds = 0usize;
    for worker in workers {
        let (latencies, errs, shed) = worker.join().expect("client thread");
        errors += errs;
        sheds += shed;
        for (slot, mut l) in latencies.into_iter().enumerate() {
            by_endpoint[slot].append(&mut l);
        }
    }
    let elapsed = wall.elapsed().as_secs_f64();

    let mut all: Vec<f64> = by_endpoint.iter().flatten().copied().collect();
    all.sort_by(f64::total_cmp);
    let total = all.len();

    println!("# portal_load: {clients} clients x {requests} requests, {threads} server threads");
    let mut rows = Vec::new();
    for (slot, name) in ENDPOINTS.iter().enumerate() {
        let mut l = std::mem::take(&mut by_endpoint[slot]);
        if l.is_empty() {
            continue;
        }
        l.sort_by(f64::total_cmp);
        rows.push(vec![
            name.to_string(),
            l.len().to_string(),
            format!("{:.0}", mean(&l)),
            format!("{:.0}", percentile(&l, 50.0)),
            format!("{:.0}", percentile(&l, 99.0)),
            format!("{:.0}", percentile(&l, 100.0)),
        ]);
    }
    rows.push(vec![
        "TOTAL".to_string(),
        total.to_string(),
        format!("{:.0}", mean(&all)),
        format!("{:.0}", percentile(&all, 50.0)),
        format!("{:.0}", percentile(&all, 99.0)),
        format!("{:.0}", percentile(&all, 100.0)),
    ]);
    println!(
        "{}",
        table(&["endpoint", "requests", "mean us", "p50 us", "p99 us", "max us"], &rows)
    );
    println!(
        "throughput: {:.0} req/s over {:.2} s wall ({} ok, {} shed, {} errors; \
         shed rate {:.1}%)",
        total as f64 / elapsed,
        elapsed,
        total,
        sheds,
        errors,
        100.0 * sheds as f64 / (total + sheds + errors).max(1) as f64
    );

    // Cross-check against the server's own accounting.
    let scraped = HttpClient::connect(addr)
        .and_then(|mut c| c.get("/metrics"))
        .map(|r| r.text())
        .unwrap_or_default();
    if let Some(line) = scraped.lines().find(|l| l.starts_with("sdl_portal_request_seconds_count"))
    {
        println!("server-side {line}");
    }
    handle.shutdown();
    assert_eq!(errors, 0, "load run saw {errors} failed requests");
}
