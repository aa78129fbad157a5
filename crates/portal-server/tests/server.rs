//! End-to-end tests against a live in-process server: real sockets, the
//! full request path, concurrent clients.

use bytes::Bytes;
use sdl_conf::{from_json, ValueExt};
use sdl_datapub::{AcdcPortal, BlobStore, ExperimentRecord, SampleRecord};
use sdl_portal_server::client::{self, HttpClient};
use sdl_portal_server::{spawn, PortalServer, ServerConfig};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const PLATE_IMAGE: &[u8] = b"BMplate-image-bytes-for-testing";

fn seeded() -> (Arc<AcdcPortal>, Arc<BlobStore>, String) {
    let portal = Arc::new(AcdcPortal::new());
    let store = Arc::new(BlobStore::in_memory());
    let blob = store.put(Bytes::from_static(PLATE_IMAGE));
    portal.ingest(
        ExperimentRecord {
            experiment_id: "exp-live".into(),
            name: "ColorPickerRPL".into(),
            date: "2023-08-16".into(),
            target: [120, 120, 120],
            solver: "genetic".into(),
            batch: 15,
            sample_budget: 180,
        }
        .to_value(),
    );
    for run in 1..=12u32 {
        for i in 1..=15u32 {
            let sample = (run - 1) * 15 + i;
            portal.ingest(
                SampleRecord {
                    experiment_id: "exp-live".into(),
                    run,
                    sample,
                    well: format!("A{}", (i % 12) + 1),
                    ratios: vec![0.25; 4],
                    volumes_ul: vec![8.0; 4],
                    measured: [120, 119, 122],
                    target: [120, 120, 120],
                    score: 30.0 - sample as f64 / 10.0,
                    best_so_far: 30.0 - sample as f64 / 10.0,
                    elapsed_s: sample as f64 * 228.0,
                    batch_wall_s: None,
                    image_ref: Some(blob.0.clone()),
                }
                .to_value(),
            );
        }
    }
    (portal, store, blob.0)
}

fn live_server() -> (sdl_portal_server::ServerHandle, String) {
    let (portal, store, blob) = seeded();
    let server = PortalServer::new(portal, store);
    let handle =
        spawn(server, &ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() })
            .unwrap();
    (handle, blob)
}

#[test]
fn batch_execution_api_over_real_sockets() {
    // A worker-mode server: the lab host behind POST /v1/*, driven with
    // the crate's own keep-alive client (request bodies over the wire).
    let server = PortalServer::new(Arc::new(AcdcPortal::new()), Arc::new(BlobStore::in_memory()))
        .with_lab(Arc::new(sdl_portal_server::LabHost::new()));
    let handle =
        spawn(server, &ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() })
            .unwrap();
    let addr = handle.addr();

    let mut c = HttpClient::connect(addr).unwrap();
    let created = c
        .post("/v1/experiments", r#"{"samples": 4, "batch": 2, "publish_images": false}"#)
        .unwrap();
    assert_eq!(created.status, 200, "{}", created.text());
    let v = from_json(&created.text()).unwrap();
    let session = v.opt_str("session").unwrap().to_string();
    assert_eq!(v.opt_i64("plate_capacity"), Some(96));

    let batch = c
        .post(
            &format!("/v1/batch?session={session}"),
            r#"{"run": 1, "ratios": [[0.5, 0.25, 0.0, 0.1], [0.0, 0.0, 0.0, 1.0]]}"#,
        )
        .unwrap();
    assert_eq!(batch.status, 200, "{}", batch.text());
    let result = from_json(&batch.text()).unwrap();
    assert_eq!(result.get("measurements").and_then(|m| m.as_seq()).map(<[_]>::len), Some(2));

    // One-shot POST helper over a fresh connection.
    let closed =
        client::post(addr, &format!("/v1/close?session={session}"), r#"{"samples": 2}"#).unwrap();
    assert_eq!(closed.status, 200, "{}", closed.text());
    assert!(from_json(&closed.text()).unwrap().opt_i64("duration_us").unwrap() > 0);

    // Sessions list is empty again; GET on a POST-only route is a 405.
    let sessions = c.get("/v1/sessions").unwrap();
    assert!(sessions.text().contains("[]"), "{}", sessions.text());
    assert_eq!(c.get("/v1/batch").unwrap().status, 405);
    handle.shutdown();
}

#[test]
fn all_endpoints_answer_over_real_sockets() {
    let (handle, blob) = live_server();
    let addr = handle.addr();

    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let v = from_json(&health.text()).unwrap();
    assert_eq!(v.opt_str("status"), Some("ok"));
    assert_eq!(v.opt_i64("records"), Some(181));

    let records = client::get(addr, "/records?kind=sample&run=12&limit=100").unwrap();
    assert_eq!(records.status, 200);
    assert_eq!(records.header("content-type"), Some("application/x-ndjson"));
    assert_eq!(records.header("x-total-count"), Some("15"));
    let lines: Vec<_> = records.text().lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 15);
    for line in &lines {
        let v = from_json(line).unwrap();
        assert_eq!(v.opt_i64("run"), Some(12));
        assert_eq!(v.opt_str("kind"), Some("sample"));
    }

    // Typed float filter through the query string.
    let scored = client::get(addr, "/records?score=29.9").unwrap();
    assert_eq!(scored.text().lines().count(), 1);

    let summary = client::get(addr, "/summary").unwrap();
    assert_eq!(summary.status, 200);
    let body = summary.text();
    assert!(body.contains("exp-live"));
    assert!(body.contains("12 runs"));
    assert!(body.contains("/runs/12?experiment=exp-live"));

    let run = client::get(addr, "/runs/12?experiment=exp-live").unwrap();
    assert_eq!(run.status, 200);
    assert!(run.text().contains("run #12"));
    assert!(run.text().contains("/blobs/"));

    let img = client::get(addr, &format!("/blobs/{blob}")).unwrap();
    assert_eq!(img.status, 200);
    assert_eq!(img.header("content-type"), Some("image/bmp"));
    assert_eq!(img.body, PLATE_IMAGE);

    let metrics = client::get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("sdl_portal_requests_total{route=\"/records\"} 2"), "{text}");
    assert!(text.contains("sdl_portal_request_seconds_bucket{le=\"+Inf\"}"));
    assert!(text.contains("sdl_portal_records 181"));
    assert!(text.contains("sdl_portal_blobs 1"));

    handle.shutdown();
}

/// One parsed sample line of a Prometheus text exposition.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The labels other than `le`: one histogram series.
    fn series(&self) -> Vec<(String, String)> {
        self.labels.iter().filter(|(k, _)| k != "le").cloned().collect()
    }
}

/// Parse `name{k="v",...} value` (label values may hold `\"` and `\\`).
fn parse_sample(line: &str) -> Result<Sample, String> {
    let name_end = line.find(['{', ' ']).ok_or("no value")?;
    let name = &line[..name_end];
    let valid_name = name.chars().enumerate().all(|(i, c)| {
        c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit())
    });
    if name.is_empty() || !valid_name {
        return Err(format!("bad metric name '{name}'"));
    }
    let mut labels = Vec::new();
    let mut rest = &line[name_end..];
    if let Some(body) = rest.strip_prefix('{') {
        let mut chars = body.char_indices();
        let mut key = String::new();
        loop {
            match chars.next().ok_or("unterminated labels")? {
                (i, '}') if key.is_empty() => {
                    rest = &body[i + 1..];
                    break;
                }
                (_, '=') => {
                    if chars.next().map(|(_, c)| c) != Some('"') {
                        return Err("label value is not quoted".into());
                    }
                    let mut value = String::new();
                    loop {
                        match chars.next().ok_or("unterminated label value")?.1 {
                            '"' => break,
                            '\\' => value.push(chars.next().ok_or("dangling escape")?.1),
                            c => value.push(c),
                        }
                    }
                    labels.push((std::mem::take(&mut key), value));
                    match chars.next().ok_or("unterminated labels")? {
                        (_, ',') => {}
                        (i, '}') => {
                            rest = &body[i + 1..];
                            break;
                        }
                        (_, c) => return Err(format!("unexpected '{c}' after a label")),
                    }
                }
                (_, c) if c.is_ascii_alphanumeric() || c == '_' => key.push(c),
                (_, c) => return Err(format!("unexpected '{c}' in a label name")),
            }
        }
    }
    let value = rest.strip_prefix(' ').ok_or("no space before the value")?;
    let value = value.parse::<f64>().map_err(|e| format!("value '{value}': {e}"))?;
    Ok(Sample { name: name.to_string(), labels, value })
}

#[test]
fn metrics_exposition_parses_and_histograms_agree() {
    let (portal, store, blob) = seeded();
    let events = Arc::new(sdl_core::EventLog::in_memory());
    let server = PortalServer::new(portal, store)
        .with_lab(Arc::new(sdl_portal_server::LabHost::new()))
        .with_events(events);
    let handle =
        spawn(server, &ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() })
            .unwrap();
    let mut c = HttpClient::connect(handle.addr()).unwrap();
    let routes = [
        "/",
        "/healthz",
        "/records?kind=sample&limit=3",
        "/events",
        "/summary",
        "/runs/3",
        &format!("/blobs/{blob}"),
        "/metrics",
        "/v1/sessions",
        "/nope",
    ];
    for path in routes {
        c.get(path).unwrap();
    }
    let text = c.get("/metrics").unwrap().text();

    let mut types: std::collections::HashMap<String, String> = Default::default();
    let mut samples = Vec::new();
    for line in text.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (family, kind) = decl.split_once(' ').expect("TYPE names a family and a kind");
            types.insert(family.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let sample = parse_sample(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let typed = types.contains_key(&sample.name)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                sample.name.strip_suffix(suffix).and_then(|f| types.get(f)).map(String::as_str)
                    == Some("histogram")
            });
        assert!(typed, "no # TYPE line before {line}");
        samples.push(sample);
    }

    let histograms: Vec<&String> =
        types.iter().filter(|(_, kind)| *kind == "histogram").map(|(f, _)| f).collect();
    assert!(histograms.len() >= 2, "{text}");
    for family in histograms {
        let count_name = format!("{family}_count");
        let bucket_name = format!("{family}_bucket");
        let counts: Vec<&Sample> = samples.iter().filter(|s| s.name == count_name).collect();
        assert!(!counts.is_empty(), "{family} has no _count");
        for count in counts {
            let buckets: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.name == bucket_name && s.series() == count.labels)
                .collect();
            let les: Vec<f64> =
                buckets.iter().map(|b| b.label("le").unwrap().parse::<f64>().unwrap()).collect();
            assert!(les.windows(2).all(|w| w[0] < w[1]), "{family} le out of order: {les:?}");
            assert!(
                buckets.windows(2).all(|w| w[0].value <= w[1].value),
                "{family} {:?} buckets decrease",
                count.labels
            );
            let last = buckets.last().expect("a histogram series has buckets");
            assert_eq!(last.label("le"), Some("+Inf"));
            assert_eq!(last.value, count.value, "{family} {:?}: +Inf != _count", count.labels);
            let sums = samples.iter().filter(|s| s.name == format!("{family}_sum"));
            assert_eq!(sums.filter(|s| s.labels == count.labels).count(), 1);
        }
    }

    let value = |name: &str, route: Option<&str>| -> f64 {
        let found = samples.iter().find(|s| s.name == name && s.label("route") == route);
        found.unwrap_or_else(|| panic!("no {name} {route:?}")).value
    };
    let per_route: Vec<&Sample> =
        samples.iter().filter(|s| s.name == "sdl_portal_route_request_seconds_count").collect();
    assert_eq!(per_route.len(), 10);
    for s in &per_route {
        let route = s.label("route").unwrap();
        assert_eq!(s.value, 1.0, "route {route} served once");
        assert_eq!(s.value, value("sdl_portal_requests_total", Some(route)));
    }
    let all = value("sdl_portal_request_seconds_count", None);
    assert_eq!(per_route.iter().map(|s| s.value).sum::<f64>(), all);
    assert_eq!(all, routes.len() as f64);
    drop(c);
    handle.shutdown();
}

#[test]
fn eight_concurrent_clients_get_correct_bodies() {
    let (handle, blob) = live_server();
    let addr = handle.addr();

    let threads: Vec<_> = (0..8)
        .map(|worker| {
            let blob = blob.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for round in 0..25 {
                    // Every client walks all endpoints on one keep-alive
                    // connection, offset so requests interleave.
                    let run = 1 + (worker + round) % 12;
                    let page =
                        client.get(&format!("/records?kind=sample&run={run}&limit=100")).unwrap();
                    assert_eq!(page.status, 200);
                    assert_eq!(page.text().lines().count(), 15);

                    let summary = client.get("/summary?experiment=exp-live").unwrap();
                    assert!(summary.text().contains("12 runs"));

                    let detail = client.get(&format!("/runs/{run}")).unwrap();
                    assert!(detail.text().contains(&format!("run #{run}")));

                    let img = client.get(&format!("/blobs/{blob}")).unwrap();
                    assert_eq!(img.body, PLATE_IMAGE);

                    let health = client.get("/healthz").unwrap();
                    assert_eq!(health.status, 200);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }

    // 8 clients * 25 rounds * 5 requests each, all counted (the /metrics
    // scrape renders before its own request is recorded).
    let metrics = client::get(addr, "/metrics").unwrap().text();
    assert!(metrics.contains("sdl_portal_request_seconds_count 1000"), "{metrics}");
    handle.shutdown();
}

#[test]
fn records_stream_live_while_server_runs() {
    let portal = Arc::new(AcdcPortal::new());
    let store = Arc::new(BlobStore::in_memory());
    let handle = spawn(
        PortalServer::new(Arc::clone(&portal), store),
        &ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .unwrap();
    let addr = handle.addr();

    assert_eq!(client::get(addr, "/records").unwrap().header("x-total-count"), Some("0"));
    // A producer publishes while the server is up — the next scrape sees it.
    let mut v = sdl_conf::Value::map();
    v.set("kind", "campaign_scenario");
    v.set("label", "late-arrival");
    portal.ingest(v);
    let resp = client::get(addr, "/records?kind=campaign_scenario").unwrap();
    assert_eq!(resp.header("x-total-count"), Some("1"));
    assert!(resp.text().contains("late-arrival"));
    handle.shutdown();
}

#[test]
fn worker_refuses_bad_session_configs_and_keeps_serving() {
    // A session config is read by the same strict reader as a config file:
    // unknown keys, non-map bodies, wrapped integers and nesting past the
    // parser's limit are 400s, and the worker keeps serving afterwards.
    let server = PortalServer::new(Arc::new(AcdcPortal::new()), Arc::new(BlobStore::in_memory()))
        .with_lab(Arc::new(sdl_portal_server::LabHost::new()));
    let handle =
        spawn(server, &ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() })
            .unwrap();
    let addr = handle.addr();
    let deep = "[".repeat(200_000);
    for (body, why) in [
        (r#"{"samples": 4, "fidelty": "full"}"#, "did you mean 'fidelity'?"),
        ("42", "must be a map, got int"),
        ("[]", "must be a map, got sequence"),
        (r#""x""#, "must be a map, got string"),
        (r#"{"samples": 4294967297}"#, "samples must be in 1..=4294967295"),
        (r#"{"batch": -1}"#, "batch must be in 1..=4294967295"),
        (r#"{"samples": 4, "samples": 5}"#, "duplicate key 'samples'"),
        (deep.as_str(), "nesting deeper than 128 levels"),
    ] {
        let resp = client::post(addr, "/v1/experiments", body).unwrap();
        assert_eq!(resp.status, 400, "{}: {}", &body[..body.len().min(40)], resp.text());
        assert!(resp.text().contains(why), "{}", resp.text());
    }
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    let good = r#"{"samples": 4, "batch": 2, "publish_images": false}"#;
    assert_eq!(client::post(addr, "/v1/experiments", good).unwrap().status, 200);
    handle.shutdown();
}

#[test]
fn protocol_errors_are_4xx() {
    let (handle, _) = live_server();
    let addr = handle.addr();

    // Unknown path.
    assert_eq!(client::get(addr, "/definitely-not-a-route").unwrap().status, 404);
    // Unsupported method, with a body and a pipelined follow-up. The body
    // is fully consumed (request bodies are first-class since the batch
    // API), so the 405 must NOT desync the keep-alive stream: the
    // pipelined GET is parsed cleanly and answered next.
    {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(
            b"DELETE /records HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello\
              GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap(); // close on the 2nd request → EOF
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 405"), "{text}");
        assert_eq!(text.matches("HTTP/1.1").count(), 2, "pipelined GET must be answered");
        assert!(text.contains("HTTP/1.1 200"), "{text}");
    }
    // Garbage on the wire.
    {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = [0u8; 64];
        let n = s.read(&mut buf).unwrap();
        assert!(std::str::from_utf8(&buf[..n]).unwrap().starts_with("HTTP/1.1 400"));
    }
    handle.shutdown();
}

#[test]
fn shutdown_is_clean_and_idempotent_under_drop() {
    let (handle, _) = live_server();
    let addr = handle.addr();
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    drop(handle); // Drop path must also join cleanly.
    assert!(client::get(addr, "/healthz").is_err(), "server still answering after drop");
}

#[test]
fn shutdown_does_not_wait_for_an_idle_keep_alive_client() {
    // A connection thread blocked reading the next request must not hold
    // shutdown for the idle timeout (10 s by default).
    let (handle, _) = live_server();
    let mut idle = HttpClient::connect(handle.addr()).unwrap();
    assert_eq!(idle.get("/healthz").unwrap().status, 200);
    let started = std::time::Instant::now();
    handle.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?} with an idle client");
    drop(idle);
}

#[test]
fn client_refuses_an_oversized_content_length_before_allocating() {
    use std::io::{BufRead, BufReader, Write};
    // A fake server that answers one request with the given length and no
    // body; a client that trusted it would try to allocate it.
    for length in [u64::MAX, 64 * 1024 * 1024 + 1] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                line.clear();
            }
            let mut stream = stream;
            write!(stream, "HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\n").unwrap();
        });
        let err = client::get(addr, "/records").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{length}: {err}");
        assert!(err.to_string().contains("limit"), "{err}");
        fake.join().unwrap();
    }
}

/// Write `request` on a new connection and read the status line of the
/// answer, which must begin within a second. The stream is returned open.
fn status_within_a_second(
    addr: std::net::SocketAddr,
    request: &str,
) -> Result<(u16, TcpStream), String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    (&stream).write_all(request.as_bytes()).unwrap();
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| format!("no status line within 1 s for {request:?}: {e}"))?;
    let status = line.split(' ').nth(1).and_then(|s| s.parse().ok());
    Ok((status.ok_or_else(|| format!("bad status line {line:?}"))?, stream))
}

#[test]
fn event_streams_never_starve_other_requests() {
    // Each admitted connection has its own thread, so event-stream
    // subscribers (dashboards) hold connection slots, never a shared
    // worker: sixteen open streams leave every other route answering.
    let events = Arc::new(sdl_core::EventLog::in_memory());
    let server = PortalServer::new(Arc::new(AcdcPortal::new()), Arc::new(BlobStore::in_memory()))
        .with_lab(Arc::new(sdl_portal_server::LabHost::new()))
        .with_events(events);
    let handle = spawn(server, &ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let streams: Vec<TcpStream> = (0..16)
        .map(|i| {
            let (status, stream) =
                status_within_a_second(addr, "GET /events/stream HTTP/1.1\r\n\r\n")
                    .unwrap_or_else(|e| panic!("stream {i}: {e}"));
            assert_eq!(status, 200, "stream {i}");
            stream
        })
        .collect();
    for request in [
        "GET /healthz HTTP/1.1\r\n\r\n".to_string(),
        "GET /metrics HTTP/1.1\r\n\r\n".to_string(),
        {
            let body = r#"{"samples": 4, "batch": 2, "publish_images": false}"#;
            format!("POST /v1/experiments HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
        },
    ] {
        let (status, _) = status_within_a_second(addr, &request).unwrap();
        assert_eq!(status, 200, "{request}");
    }
    drop(streams);
    handle.shutdown();
}
