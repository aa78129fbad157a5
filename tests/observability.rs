//! Live observability, end to end against the real binary: a serving
//! campaign streams `/events` (long-poll and SSE), exposes the
//! `sdl_lab_campaign_*` gauges, and feeds the `sdl-lab watch` dashboard.

use sdl_lab::core::{EventRecord, ProgressModel};
use sdl_lab::portal_server::client::{self, HttpClient};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const CAMPAIGN_YAML: &str = "name: observe-me\n\
                             samples: 6\n\
                             batch: 2\n\
                             seed: 400\n\
                             publish_images: false\n\
                             solvers: [genetic, random]\n\
                             seeds: 2\n";
const SCENARIOS: usize = 4;
const SAMPLES: u64 = 4 * 6;

struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdl-observability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn `sdl-lab serve --campaign` with a durable event log and parse
/// the banner for the bound address.
fn spawn_serving_campaign(yaml: &PathBuf, log: &PathBuf) -> (ServeGuard, SocketAddr) {
    let bin = env!("CARGO_BIN_EXE_sdl-lab");
    let mut child = Command::new(bin)
        .args(["serve", "--addr", "127.0.0.1:0", "--campaign"])
        .arg(yaml)
        .arg("--event-log")
        .arg(log)
        .args(["--campaign-threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sdl-lab serve --campaign");
    let stdout = child.stdout.take().unwrap();
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .parse()
        .unwrap();
    (ServeGuard(child), addr)
}

#[test]
fn live_campaign_streams_events_gauges_and_dashboard() {
    let dir = workdir();
    let yaml = dir.join("campaign.yaml");
    let log = dir.join("campaign.events");
    std::fs::write(&yaml, CAMPAIGN_YAML).unwrap();
    let (guard, addr) = spawn_serving_campaign(&yaml, &log);

    // 1. Long-poll /events from seq 1 while the campaign runs, folding
    //    every line into a ProgressModel until the log closes.
    let mut model = ProgressModel::new();
    let mut from = 1u64;
    let mut conn = HttpClient::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        assert!(Instant::now() < deadline, "campaign never closed its event log");
        let resp = conn
            .get(&format!("/events?from={from}&limit=1000&timeout_ms=2000"))
            .expect("long-poll /events");
        assert_eq!(resp.status, 200);
        for line in resp.text().lines() {
            let rec = EventRecord::from_line(line).expect("event lines verify");
            assert_eq!(rec.seq, model.seq + 1, "no gaps, no duplicates");
            model.apply(rec.seq, &rec.event);
        }
        from = resp.header("x-next-seq").unwrap().parse().unwrap();
        let head: u64 = resp.header("x-event-head").unwrap().parse().unwrap();
        if resp.header("x-log-closed") == Some("true") && from > head {
            break;
        }
    }
    assert_eq!(model.campaign, "observe-me");
    assert!(model.closed);
    assert_eq!(model.total, SCENARIOS);
    assert_eq!(model.done, SCENARIOS);
    assert_eq!(model.failed, 0);
    assert_eq!(model.samples, SAMPLES);
    assert!(model.best.is_some());

    // 2. The /metrics gauges agree with the folded model.
    let metrics = client::get(addr, "/metrics").expect("/metrics").text();
    let gauge = |name: &str| -> f64 {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("{name}{{campaign=\"observe-me\"}}")))
            .and_then(|l| l.split_ascii_whitespace().last())
            .unwrap_or_else(|| panic!("missing gauge {name} in:\n{metrics}"))
            .parse()
            .unwrap()
    };
    assert_eq!(gauge("sdl_lab_campaign_scenarios_total") as usize, SCENARIOS);
    assert_eq!(gauge("sdl_lab_campaign_scenarios_done") as usize, SCENARIOS);
    assert_eq!(gauge("sdl_lab_campaign_scenarios_failed") as usize, 0);
    assert_eq!(gauge("sdl_lab_campaign_samples_published") as u64, SAMPLES);
    assert_eq!(gauge("sdl_lab_campaign_event_seq") as u64, model.seq);
    assert_eq!(gauge("sdl_lab_campaign_closed") as u64, 1);

    // 3. The SSE stream replays the same log and terminates with a close
    //    frame (raw socket: the client helper is Content-Length-only).
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(stream, "GET /events/stream HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut sse = String::new();
    stream.read_to_string(&mut sse).expect("SSE stream reads to EOF");
    assert!(sse.starts_with("HTTP/1.1 200 OK\r\n"), "{sse}");
    assert!(sse.contains("Content-Type: text/event-stream"), "{sse}");
    // Every frame's "id: N" line is newline-preceded (the first by the
    // blank line ending the headers), so this counts frames exactly.
    let frames = sse.matches("\nid: ").count();
    assert_eq!(frames as u64, model.seq, "one SSE frame per log line");
    assert!(sse.trim_end().ends_with("event: close\ndata: end of log"), "{sse}");

    // 4. The terminal dashboard renders the finished campaign.
    let bin = env!("CARGO_BIN_EXE_sdl-lab");
    let watch = Command::new(bin)
        .args(["watch", &format!("http://{addr}"), "--once"])
        .output()
        .expect("run sdl-lab watch --once");
    let text = String::from_utf8_lossy(&watch.stdout);
    assert!(watch.status.success(), "watch failed: {text}");
    assert!(text.contains("campaign observe-me"), "{text}");
    assert!(text.contains("[closed]"), "{text}");
    assert!(text.contains(&format!("{SCENARIOS}/{SCENARIOS} scenarios")), "{text}");
    assert!(text.contains(&format!("samples {SAMPLES}")), "{text}");

    // 5. The durable log on disk is byte-for-byte what /events served.
    let disk = std::fs::read_to_string(&log).unwrap();
    assert_eq!(disk.lines().count() as u64, model.seq);

    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_refuses_a_server_without_an_event_log() {
    // A bare worker-mode server has no campaign event log: /events is 404
    // and watch reports it cleanly.
    let bin = env!("CARGO_BIN_EXE_sdl-lab");
    let mut child = Command::new(bin)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sdl-lab serve");
    let stdout = child.stdout.take().unwrap();
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).unwrap();
    let addr = banner.trim().strip_prefix("serving on http://").unwrap().to_string();
    let guard = ServeGuard(child);

    let resp = client::get(&*addr, "/events").expect("/events answers");
    assert_eq!(resp.status, 404);
    let watch = Command::new(bin)
        .args(["watch", &format!("http://{addr}"), "--once"])
        .output()
        .expect("run watch");
    assert!(!watch.status.success());
    let err = String::from_utf8_lossy(&watch.stderr);
    assert!(err.contains("no campaign event log"), "{err}");
    drop(guard);
}
