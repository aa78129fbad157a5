//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign-local --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `campaign-local`  — a seeded campaign on `CampaignRunner`, 2 threads;
//! * `campaign-remote` — the same campaign on `CampaignScheduler` over 2
//!   loopback lab workers;
//! * `portal-read`     — a portal exported from the seed, served and read by
//!   2 keep-alive clients.
//!
//! `--trace 0` times the workload with no spans and prints the end-to-end
//! metrics; `--trace 1` runs it once timed (for counts) and once traced
//! (for per-layer times) and prints the per-layer metrics. Either way the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A human-readable table, the host and the build come first.
//!
//! Everything the benchmark writes stays under `.bench_out/` in the
//! working directory: event logs, span dumps, and a cache of the portal
//! export and reference fingerprints keyed by the benchmark binary's own
//! hash (so a new build of the code under test never reuses them).
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml` is the
//! benchmark's self-test.

mod campaign;
mod measure;
mod portal;
mod trace;

use measure::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Everything one invocation needs.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The self-test's small inputs instead of the measured ones.
    pub tiny: bool,
    /// Logs of the current run.
    pub work_dir: PathBuf,
    /// Span dumps and results.
    pub out_dir: PathBuf,
    /// Inputs reused across runs of the same build.
    pub cache_dir: PathBuf,
}

pub const WORKLOADS: [&str; 3] = ["campaign-local", "campaign-remote", "portal-read"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String], root: &Path) -> Result<Run, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.insert(a.trim_start_matches("--").to_string(), v.clone());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let seed: u64 = flags
        .get("seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer")?;
    // The campaign documents carry the seed as a YAML integer.
    let seed = seed % (i64::MAX as u64);
    let workload = flags.get("workload").ok_or("--workload is required")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) && workload != "all" {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seconds: f64 = flags
        .get("seconds")
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, got '{v}'")),
    };
    let out_dir = root.join(".bench_out");
    Ok(Run {
        work_dir: out_dir.join("work").join(&workload),
        cache_dir: out_dir.join("cache").join(build_key()),
        out_dir,
        workload,
        seed,
        seconds,
        trace,
        tiny: false,
    })
}

/// FNV-1a over the running binary: one key per build of the code under
/// test.
fn build_key() -> String {
    let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// nproc, CPU model, cache sizes, build profile and code generation flags.
pub fn host() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").and_then(|r| r.split_once(':')).map(|(_, m)| m.trim())
        })
        .unwrap_or("unknown");
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        let kind = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        caches.push(format!("L{level}{kind}={size}"));
    }
    let flags = env!("PERFBENCH_RUSTFLAGS");
    let target_cpu =
        flags.split_whitespace().find_map(|f| f.strip_prefix("target-cpu=")).unwrap_or("default");
    format!(
        "nproc={nproc} cpu=\"{model}\" caches=[{}] profile={} target-cpu={target_cpu} rustflags=\"{flags}\"",
        caches.join(" "),
        env!("PERFBENCH_PROFILE"),
    )
}

/// A cached input, produced on a miss into a temporary path and renamed
/// into place once complete. Producing it happens before the workload's
/// timed window: CPU is measured as a delta over that window and the
/// peak RSS is reset at its start, so the preparation shows in neither.
fn cached(run: &Run, what: &str, name: &str) -> Result<PathBuf, String> {
    let path = run.cache_dir.join(name);
    if path.exists() {
        return Ok(path);
    }
    std::fs::create_dir_all(&run.cache_dir).map_err(|e| e.to_string())?;
    let tmp = run.cache_dir.join(format!("{name}.partial"));
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_file(&tmp);
    prepare(what, run, &tmp)?;
    std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Drop caches of other builds, and all but the newest portal exports of
/// this one (each holds ~170 MB of plate images).
fn prune_cache(run: &Run) {
    let Some(root) = run.cache_dir.parent() else { return };
    for entry in std::fs::read_dir(root).into_iter().flatten().flatten() {
        if entry.path() != run.cache_dir {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    let mut exports: Vec<(std::time::SystemTime, PathBuf)> = std::fs::read_dir(&run.cache_dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("portal-"))
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    exports.sort();
    let keep = 2;
    for (_, path) in exports.iter().rev().skip(keep) {
        let _ = std::fs::remove_dir_all(path);
    }
}

/// Execute one benchmark run.
pub fn bench(run: &Run) -> Outcome {
    let mut failed = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(&run.work_dir) {
        failed.check(false, || format!("{}: {e}", run.work_dir.display()));
        return failed;
    }
    let size = if run.tiny { "tiny" } else { "full" };
    match run.workload.as_str() {
        "portal-read" => {
            prune_cache(run);
            let dir = match cached(run, "export", &format!("portal-{size}-{}", run.seed)) {
                Ok(d) => d,
                Err(e) => {
                    failed.check(false, || e);
                    return failed;
                }
            };
            if run.trace {
                portal::traced(run, &dir)
            } else {
                portal::timed(run, &dir)
            }
        }
        workload => {
            let mode = if workload == "campaign-local" {
                campaign::Mode::Local
            } else {
                campaign::Mode::Remote
            };
            let shape = if run.tiny { campaign::TINY } else { campaign::FULL };
            let reference = cached(run, "reference", &format!("reference-{size}-{}.txt", run.seed))
                .and_then(|p| std::fs::read_to_string(p).map_err(|e| e.to_string()));
            let reference = match reference {
                Ok(r) => r,
                Err(e) => {
                    failed.check(false, || e);
                    return failed;
                }
            };
            if run.trace {
                campaign::traced(run, mode, shape, &reference)
            } else {
                campaign::timed(run, mode, shape, &reference)
            }
        }
    }
}

/// Produce one cached input at `out`: the portal export or the reference
/// fingerprint of `run.seed`.
fn prepare(what: &str, run: &Run, out: &Path) -> Result<(), String> {
    match what {
        "export" => {
            std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
            let shape = if run.tiny { portal::TINY } else { portal::FULL };
            portal::export(run.seed, shape, out)
        }
        "reference" => {
            let shape = if run.tiny { campaign::TINY } else { campaign::FULL };
            let fp = campaign::reference_fingerprint(&campaign::document(run.seed, shape))?;
            std::fs::write(out, fp).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown input '{other}'")),
    }
}

/// Run the workload `run` names, or for `all` every workload in turn in
/// this process, and return each one's outcome.
pub fn bench_all(run: &Run) -> Vec<(&'static str, Outcome)> {
    WORKLOADS
        .into_iter()
        .filter(|w| run.workload == "all" || run.workload == *w)
        .map(|w| {
            let run = Run {
                workload: w.to_string(),
                work_dir: run.out_dir.join("work").join(w),
                ..run.clone()
            };
            (w, bench(&run))
        })
        .collect()
}

/// The last line of standard output: the one workload's result, or for
/// `all` every workload's metrics merged under `<workload>.<metric>` names.
pub fn final_line(outcomes: &[(&str, Outcome)]) -> String {
    if let [(_, only)] = outcomes {
        return only.result_line();
    }
    let mut merged = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for (w, outcome) in outcomes {
        correct &= outcome.correct();
        attempted += outcome.attempted;
        failed += outcome.failed;
        merged.extend(outcome.metrics.iter().map(|m| (format!("{w}.{}", m.name), m.unit, m.value)));
    }
    measure::result_line(correct, attempted, failed, &merged)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let run = match parse(&args, &root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let host = host();
    println!("host: {host}");
    let outcomes = bench_all(&run);
    for (w, outcome) in &outcomes {
        println!(
            "# perfbench {w} seed={} seconds={} trace={}",
            run.seed, run.seconds, run.trace as u8
        );
        print!("{}", outcome.table());
        let record = format!(
            "{{\"workload\": \"{w}\", \"seed\": {}, \"trace\": {}, \"host\": {host:?}, \"result\": {}}}\n",
            run.seed,
            run.trace,
            outcome.result_line()
        );
        let log = run.out_dir.join("results.jsonl");
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log)
            .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()))
        {
            eprintln!("perfbench: could not append to {}: {e}", log.display());
        }
    }
    println!("{}", final_line(&outcomes));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_conf::{from_json, ValueExt};

    /// (name, unit) pairs of one `BENCHMARK.json` metric list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let doc = from_json(&text).unwrap();
        doc.get(list)
            .and_then(|v| v.as_seq())
            .unwrap()
            .iter()
            .map(|m| {
                (m.opt_str("name").unwrap().to_string(), m.opt_str("unit").unwrap().to_string())
            })
            .collect()
    }

    /// The workload runs below measure this process's memory, so they run
    /// one at a time.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A run of the self-test's small inputs. Its cache is keyed by this
    /// binary, like a real run's, so inputs are never reused across builds.
    fn tiny_run(workload: &str, trace: bool) -> Run {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_out/selftest");
        Run {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.5,
            trace,
            tiny: true,
            work_dir: out_dir.join("work").join(workload),
            cache_dir: out_dir.join("cache").join(build_key()),
            out_dir,
        }
    }

    /// `--workload all` at tiny size, timed and traced, runs every workload
    /// and each prints exactly the metrics `BENCHMARK.json` names, with
    /// their units, and passes its own correctness checks.
    #[test]
    fn tiny_runs_print_every_declared_metric() {
        let _serial = serial();
        for (list, trace) in [("end_to_end", false), ("per_layer", true)] {
            let want = declared(list);
            let outcomes = bench_all(&tiny_run("all", trace));
            let ran: Vec<&str> = outcomes.iter().map(|(w, _)| *w).collect();
            assert_eq!(ran, WORKLOADS);
            for (workload, out) in &outcomes {
                assert!(out.correct(), "{workload} trace={trace}: {:?}", out.problems);
                assert!(out.attempted > 0);
                let got: Vec<(String, String)> =
                    out.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
                assert_eq!(got, want, "{workload} trace={trace}");
            }
            let line = from_json(&final_line(&outcomes)).unwrap();
            assert_eq!(line.opt_bool("correct"), Some(true));
            let metrics = line.get("metrics").unwrap();
            for w in WORKLOADS {
                for (name, unit) in &want {
                    let m = metrics.get(&format!("{w}.{name}")).unwrap();
                    assert_eq!(m.opt_str("unit"), Some(unit.as_str()), "{w}.{name}");
                }
            }
        }
    }

    /// Under `all`, portal-read runs after the campaigns in one process. Its
    /// `peak_rss_mb` must be its own, not a higher peak the process reached
    /// before it started.
    #[test]
    fn portal_read_reports_its_own_peak_rss() {
        let _serial = serial();
        if !measure::reset_peak_rss() {
            eprintln!("skipped: this kernel cannot reset the peak RSS");
            return;
        }
        let ballast_mb = 160;
        drop(std::hint::black_box(vec![1u8; ballast_mb << 20]));
        let before = measure::peak_rss_mb();
        assert!(before > ballast_mb as f64);
        let outcomes = bench_all(&tiny_run("portal-read", false));
        let [(_, out)] = &outcomes[..] else { panic!("one workload expected") };
        assert!(out.correct(), "{:?}", out.problems);
        let peak = out.metrics.iter().find(|m| m.name == "peak_rss_mb").unwrap().value;
        assert!(
            peak < before - ballast_mb as f64 / 2.0,
            "portal-read reported {peak:.0} MB, the earlier peak was {before:.0} MB"
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let root = Path::new(".");
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        assert!(parse(&args("--workload nope --seed 1 --seconds 1 --trace 0"), root).is_err());
        assert!(
            parse(&args("--workload portal-read --seed 1 --seconds 1 --trace 2"), root).is_err()
        );
        assert!(parse(&args("--workload portal-read --seed x --seconds 1"), root).is_err());
        assert!(parse(&args("--workload portal-read --seed 1 --seconds 1 --bogus"), root).is_err());
        assert!(parse(&args("--workload portal-read --seed 1 --seconds 1 --trace 1"), root).is_ok());
    }
}
