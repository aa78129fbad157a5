//! Process-level chaos test: fan a campaign over real `sdl-lab serve`
//! worker processes, kill one mid-campaign, and assert the merged
//! fingerprint is still bit-identical to the single-process golden run.

use sdl_lab::core::{AppConfig, CampaignRunner, CampaignScheduler, RetryPolicy, ScenarioSpec};
use sdl_lab::portal_server::client;
use sdl_lab::solvers::SolverKind;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Worker {
    child: Child,
    addr: SocketAddr,
}

impl Worker {
    /// Spawn `sdl-lab serve` on an ephemeral port and parse the banner.
    fn spawn() -> Worker {
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
        let addr: SocketAddr = banner
            .trim()
            .strip_prefix("serving on http://")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .parse()
            .unwrap();
        Worker { child, addr }
    }

    /// Sessions this worker has opened so far, per its own /metrics.
    fn sessions_opened(&self) -> u64 {
        let Ok(resp) = client::get(self.addr, "/metrics") else { return 0 };
        resp.text()
            .lines()
            .find(|l| l.starts_with("sdl_lab_sessions_opened_total"))
            .and_then(|l| l.split_ascii_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
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
    (0..10)
        .map(|i| {
            let solver = [SolverKind::Genetic, SolverKind::Random, SolverKind::Bayesian][i % 3];
            ScenarioSpec::new(format!("s{i}"), config(solver, 8, 2, 300 + i as u64))
        })
        .collect()
}

#[test]
fn killing_a_worker_mid_campaign_preserves_the_fingerprint() {
    let golden = CampaignRunner::new().threads(2).run(scenarios());

    let mut workers = vec![Worker::spawn(), Worker::spawn(), Worker::spawn()];
    let urls: Vec<String> = workers.iter().map(|w| w.addr.to_string()).collect();
    let scheduler = CampaignScheduler::new(urls)
        .shard_size(1)
        .retry(RetryPolicy {
            connect_timeout: Duration::from_millis(500),
            retries: 1,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            ..RetryPolicy::default()
        })
        .probe_budget(2);

    // Run the campaign on a thread; from here, wait until some worker has
    // actually opened a session, then kill it while its shards are live.
    let run = std::thread::spawn(move || scheduler.run(scenarios()));
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut killed = false;
    while Instant::now() < deadline {
        if let Some(w) = workers.iter_mut().find(|w| w.sessions_opened() >= 1) {
            let _ = w.child.kill();
            let _ = w.child.wait();
            killed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let (report, sched) = run.join().expect("scheduler thread panicked");
    assert!(killed, "no worker ever opened a session");

    assert_eq!(
        golden.fingerprint(),
        report.fingerprint(),
        "worker death must not change the merged campaign: {sched:?}"
    );
    assert!(report.results.iter().all(|r| r.outcome.is_ok()), "no scenario may fail");
    assert!(sched.total_evictions() >= 1, "the killed worker was never evicted: {sched:?}");
    let done: u64 =
        sched.workers.iter().map(|w| w.completed).sum::<u64>() + sched.fallback + sched.local;
    assert_eq!(done, scenarios().len() as u64);
    drop(workers);
}
