//! The `sdl-lab` binary refuses flags it does not declare, flags missing
//! their value and repeated flags, reads every setting flag through the
//! config setter, so it refuses what a config document refuses, and reads
//! every count flag as strictly.

use std::io::Read;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn sdl_lab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdl-lab")).args(args).output().expect("run sdl-lab")
}

/// Run `args`, expect exit code 1 within 30 s, and return stderr. A
/// command that is not refused (`serve` would serve forever) is killed.
fn refused(args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sdl-lab"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run sdl-lab");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert_eq!(status.and_then(|s| s.code()), Some(1), "{args:?} was not refused: {stderr}");
    stderr
}

#[test]
fn unknown_valueless_and_repeated_flags_are_errors_with_a_hint() {
    let err = refused(&["run", "--sampels", "4"]);
    assert!(err.contains("unknown flag '--sampels'") && err.contains("'--samples'"), "{err}");
    let err = refused(&["run", "--frobnicate"]);
    assert!(err.contains("--samples") && err.contains("--export-portal"), "lists flags: {err}");
    let err = refused(&["run", "--batch", "64", "--samples"]);
    assert!(err.contains("--samples needs a value"), "{err}");
    let err = refused(&["run", "--samples", "--batch", "4"]);
    assert!(err.contains("--samples needs a value"), "{err}");
    let err = refused(&["run", "--samples", "4", "--samples", "8"]);
    assert!(err.contains("--samples is given twice"), "{err}");
    let err = refused(&["run", "stray"]);
    assert!(err.contains("unexpected argument 'stray'"), "{err}");
    // Each command declares its own flags: `--resume` belongs to campaign.
    let err = refused(&["sweep", "--resume", "x.events"]);
    assert!(err.contains("unknown flag '--resume' for 'sweep'"), "{err}");
    let err = refused(&["campaign", "--confg", "c.yaml"]);
    assert!(err.contains("'--config'"), "{err}");
    let err = refused(&["workcell", "--verbose"]);
    assert!(err.contains("takes no flags"), "{err}");
}

#[test]
fn setting_flags_refuse_what_a_config_document_refuses() {
    for (args, why) in [
        (&["run", "--batch", "0"][..], "batch must be in 1..=4294967295, got 0"),
        (&["run", "--samples", "0"], "samples must be in 1..=4294967295, got 0"),
        (&["run", "--samples", "4294967297"], "samples must be in 1..=4294967295"),
        (&["run", "--samples", "many"], "samples must be an integer"),
        (&["run", "--target", "1,2"], "target must have 3 components"),
        (&["run", "--fidelity", "hd"], "unknown fidelity 'hd'"),
        (&["run", "--solver", "quantum"], "unknown solver 'quantum'"),
        // Only `--` marks a flag: `-1` reaches the seed reader as a value.
        (&["run", "--seed", "-1"], "seed must be an integer in 0..=18446744073709551615"),
        (&["sweep", "--batches", "1,0"], "--batches: config error: batch must be in"),
        (&["stress", "--objectives", "rgb,vibes"], "unknown objective 'vibes'"),
    ] {
        let err = refused(args);
        assert!(err.contains(why), "{args:?}: {err}");
    }
    let dir = std::env::temp_dir().join(format!("sdl-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let typo = dir.join("typo.yaml");
    std::fs::write(&typo, "samples: 4\nsolvr: random\n").unwrap();
    let err = refused(&["run", "--config", typo.to_str().unwrap()]);
    assert!(err.contains("unknown config key 'solvr' (did you mean 'solver'?)"), "{err}");
    let wrapped = dir.join("wrapped.yaml");
    std::fs::write(&wrapped, "samples: 4\nbatches: [4294967298]\n").unwrap();
    let err = refused(&["campaign", "--config", wrapped.to_str().unwrap()]);
    assert!(err.contains("batches entry: batch must be in 1..=4294967295"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_setting_flag_sets_its_config_key() {
    let out = sdl_lab(&[
        "run",
        "--samples",
        "2",
        "--batch",
        "2",
        "--solver",
        "random",
        "--seed",
        "18446744073709551615",
        "--target",
        "10,20,30",
        "--fidelity",
        "lowres",
        "--flat-field",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("colorpickerrpl-b2-random-seed18446744073709551615"), "{stdout}");
}

#[test]
fn watch_keeps_its_positional_url() {
    // Nothing listens on port 1: the error is about the server, not the
    // arguments.
    let err = refused(&["watch", "http://127.0.0.1:1", "--once", "--interval-ms", "5"]);
    assert!(!err.contains("flag") && !err.contains("argument"), "{err}");
    let err = refused(&["watch", "http://127.0.0.1:1", "--onse"]);
    assert!(err.contains("'--once'"), "{err}");
    let err = refused(&["watch", "--once"]);
    assert!(err.contains("watch needs a server URL"), "{err}");
}

#[test]
fn count_flags_take_digits_only_from_one_up() {
    for (args, flag) in [
        (&["sweep", "--threads", "0"][..], "--threads"),
        (&["sweep", "--threads", "+2"], "--threads"),
        (&["campaign", "--resume", "x.events", "--threads", "0"], "--threads"),
        (&["campaign", "--config", "c.yaml", "--shard", "0"], "--shard"),
        (&["campaign", "--config", "c.yaml", "--shard", "1.5"], "--shard"),
        (&["stress", "--seeds", "0"], "--seeds"),
        (&["stress", "--seeds", "+1"], "--seeds"),
        (&["stress", "--shard", "0"], "--shard"),
        (&["portal", "--import", "x.jsonl", "--run", "0"], "--run"),
        (&["serve", "--addr", "127.0.0.1:0", "--max-conns", "0"], "--max-conns"),
        (&["serve", "--addr", "127.0.0.1:0", "--max-inflight", "0"], "--max-inflight"),
        (&["serve", "--addr", "127.0.0.1:0", "--campaign-threads", "0"], "--campaign-threads"),
        (&["watch", "http://127.0.0.1:1", "--interval-ms", "0"], "--interval-ms"),
    ] {
        let err = refused(args);
        assert!(
            err.contains(&format!("{flag} must be a whole number of at least 1")),
            "{args:?}: {err}"
        );
    }
    // A failure budget of 0 keeps its meaning, "never quarantine": it is
    // read, and refused only for want of a worker pool.
    for budget in ["0", "-1"] {
        let err = refused(&["campaign", "--config", "c.yaml", "--failure-budget", budget]);
        let count = err.contains("--failure-budget must be a whole number of at least 0");
        assert_eq!(count, budget == "-1", "{budget}: {err}");
    }
}

#[test]
fn serve_refuses_dropped_and_dangling_flags() {
    let err = refused(&["serve", "--addr", "127.0.0.1:0", "--threads", "8"]);
    assert!(err.contains("unknown flag '--threads' for 'serve'"), "{err}");
    let err = refused(&["serve", "--addr", "127.0.0.1:0", "--blob-mem-cap", "64k"]);
    assert!(err.contains("--blob-mem-cap needs --blob-dir"), "{err}");
}
