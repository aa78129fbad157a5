//! End-to-end test of `sdl-lab serve`: run an experiment, export its
//! portal + blobs, serve them from the real binary, and query over HTTP.

use sdl_lab::conf::ValueExt;
use sdl_lab::portal_server::client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdl-serve-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn serve_answers_http_over_a_saved_export() {
    let bin = env!("CARGO_BIN_EXE_sdl-lab");
    let dir = workdir("export");
    let export = dir.join("portal.jsonl");
    let blobs = dir.join("blobs");

    // 1. Produce a portal export (with spilled plate images) the normal way.
    let run = Command::new(bin)
        .args([
            "run",
            "--samples",
            "4",
            "--batch",
            "2",
            "--export-portal",
            export.to_str().unwrap(),
            "--blob-dir",
            blobs.to_str().unwrap(),
        ])
        .output()
        .expect("run sdl-lab run");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    assert!(export.exists());

    // 2. Serve it on an ephemeral port; the bound address is printed first.
    let mut child = Command::new(bin)
        .args([
            "serve",
            "--import",
            export.to_str().unwrap(),
            "--blob-dir",
            blobs.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sdl-lab serve");
    let stdout = child.stdout.take().unwrap();
    let guard = ServeGuard(child);
    let mut first_line = String::new();
    BufReader::new(stdout).read_line(&mut first_line).unwrap();
    let addr: SocketAddr = first_line
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {first_line:?}"))
        .parse()
        .unwrap();

    // 3. Drive the live server.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let v = sdl_lab::conf::from_json(&health.text()).unwrap();
    assert_eq!(v.opt_str("status"), Some("ok"));
    assert!(v.opt_i64("records").unwrap() >= 5, "experiment + 4 samples expected");
    assert!(v.opt_i64("blobs").unwrap() >= 1, "spilled plate images must be served");

    let samples = client::get(addr, "/records?kind=sample").unwrap();
    let lines: Vec<String> = samples.text().lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 4);
    // A sample's image_ref resolves through /blobs/ after the spill
    // round-trip (run wrote the dir, serve reloaded it).
    let image_ref = sdl_lab::conf::from_json(&lines[0])
        .unwrap()
        .opt_str("image_ref")
        .expect("sample has image_ref")
        .to_string();
    let img = client::get(addr, &format!("/blobs/{image_ref}")).unwrap();
    assert_eq!(img.status, 200, "blob {image_ref} not served");
    assert!(!img.body.is_empty());

    let summary = client::get(addr, "/summary").unwrap();
    assert_eq!(summary.status, 200);
    assert!(summary.text().contains("ACDC portal"));

    let metrics = client::get(addr, "/metrics").unwrap();
    assert!(metrics.text().contains("sdl_portal_requests_total"));

    drop(guard);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn serve_warns_about_spill_files_that_fail_verification() {
    let bin = env!("CARGO_BIN_EXE_sdl-lab");
    let dir = workdir("skipped");
    let blobs = dir.join("blobs");
    let run = Command::new(bin)
        .args(["run", "--samples", "4", "--batch", "2", "--blob-dir"])
        .arg(&blobs)
        .output()
        .expect("run sdl-lab run");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let spilled: Vec<PathBuf> =
        std::fs::read_dir(&blobs).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(spilled.len(), 2, "one frame per imaged batch");
    // A real frame under a name it does not hash to, as a damaged file or
    // one spilled under an older content hash would be.
    std::fs::copy(&spilled[0], blobs.join("blob_0000000000000000.bin")).unwrap();

    let mut child = Command::new(bin)
        .args(["serve", "--blob-dir"])
        .arg(&blobs)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sdl-lab serve");
    let stdout = child.stdout.take().unwrap();
    let mut stderr = child.stderr.take().unwrap();
    let guard = ServeGuard(child);
    // The blob dir is loaded before the banner is printed.
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).unwrap();
    assert!(banner.starts_with("serving on "), "unexpected banner: {banner:?}");
    drop(guard);
    let mut log = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut log).unwrap();
    assert!(log.contains(&format!("loaded 2 blobs from {}", blobs.display())), "{log}");
    assert!(log.contains("warning: skipped 1 blob file(s)"), "{log}");
    assert!(log.contains("damaged, or spilled before the current content hash"), "{log}");
    let _ = std::fs::remove_dir_all(dir);
}

/// `VmHWM` (peak resident set) of a live process, in bytes.
#[cfg(target_os = "linux")]
fn peak_rss_bytes(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM in /proc/{pid}/status"));
    kb * 1024
}

#[cfg(target_os = "linux")]
#[test]
fn blob_mem_cap_bounds_the_spill_dir_load() {
    use sdl_lab::datapub::BlobStore;
    let bin = env!("CARGO_BIN_EXE_sdl-lab");
    let dir = workdir("memcap");
    let blobs = dir.join("blobs");
    // 24 distinct frame-sized blobs (22 MB), as `run --samples 96
    // --batch 4 --blob-dir` spills.
    const FRAME: usize = 921_654;
    let store = BlobStore::with_spill_dir(&blobs);
    let mut x = 0x9e37_79b9u32;
    for _ in 0..24 {
        let frame: Vec<u8> = (0..FRAME)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        store.put(bytes::Bytes::from(frame));
    }
    drop(store);
    let files: Vec<PathBuf> =
        std::fs::read_dir(&blobs).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 24);

    // Serve the dir with and without a cap; the whole dir is loaded (or
    // left on disk) before the banner, so VmHWM then covers the load.
    let serve = |cap: Option<&str>| {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--blob-dir"]).arg(&blobs).args(["--addr", "127.0.0.1:0"]);
        if let Some(cap) = cap {
            cmd.args(["--blob-mem-cap", cap]);
        }
        let mut child =
            cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().expect("spawn serve");
        let stdout = child.stdout.take().unwrap();
        let stderr = child.stderr.take().unwrap();
        let mut banner = String::new();
        BufReader::new(stdout).read_line(&mut banner).unwrap();
        let addr: SocketAddr = banner
            .trim()
            .strip_prefix("serving on http://")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .parse()
            .unwrap();
        let peak = peak_rss_bytes(child.id());
        let guard = ServeGuard(child);
        (guard, addr, peak, stderr)
    };
    let (guard, _, uncapped, _) = serve(None);
    drop(guard);
    let (guard, addr, capped, mut stderr) = serve(Some("2m"));
    // Every frame is still served byte for byte: at most two from memory,
    // the rest reloaded from disk and verified.
    for f in &files {
        let name = f.file_stem().unwrap().to_str().unwrap();
        let r = name.replacen("blob_", "blob:", 1);
        let got = client::get(addr, &format!("/blobs/{r}")).unwrap();
        assert_eq!(got.status, 200, "{r}");
        assert!(got.body == std::fs::read(f).unwrap(), "{r} served other bytes");
    }
    drop(guard);
    let mut log = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut log).unwrap();
    assert!(log.contains(&format!("loaded 24 blobs from {}", blobs.display())), "{log}");
    assert!(
        uncapped >= capped + 15 * 1024 * 1024,
        "peak RSS {capped} B capped vs {uncapped} B uncapped"
    );
    let _ = std::fs::remove_dir_all(dir);
}
