//! The `sdl-lab` binary refuses flags it does not declare, flags missing
//! their value and repeated flags, and reads every setting flag through
//! the config setter, so it refuses what a config document refuses.

use std::process::{Command, Output};

fn sdl_lab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdl-lab")).args(args).output().expect("run sdl-lab")
}

/// Run `args`, expect exit code 1, and return stderr.
fn refused(args: &[&str]) -> String {
    let out = sdl_lab(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?} was not refused: {stderr}");
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
