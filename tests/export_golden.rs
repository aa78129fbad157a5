//! Portal exports and their spilled plate images, pinned up to blob names.
//!
//! `sdl-lab run --samples 12 --batch 4 --export-portal … --blob-dir …`
//! publishes three plate frames. `tests/data/export_portal.golden` holds the
//! exported JSON lines with every distinct `blob:<hex>` reference replaced
//! by `blob#k` (numbered in order of first appearance), then one line per
//! `k`: the length of the `.bin` file that reference names and a 64-bit
//! FNV-1a digest of its bytes, computed here.
//! `tests/data/campaign_export.golden` pins the campaign path the same way:
//! a `CampaignRunner` with `publish_records(true)` over a spill-dir blob
//! store, as `serve --campaign` runs it, at one and at two threads.
//!
//! The content hash behind `blob:<hex>` can change without touching these
//! files; anything else an export holds (a record byte, which records share
//! a frame, a frame byte) cannot. On a mismatch the test writes the whole
//! computed file next to the test binaries and names its path.

use sdl_lab::core::{AppConfig, CampaignRunner, ScenarioSpec};
use sdl_lab::datapub::BlobStore;
use sdl_lab::prelude::{Rgb8, SolverKind};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

const GOLDEN: &str = include_str!("data/export_portal.golden");
const CAMPAIGN_GOLDEN: &str = include_str!("data/campaign_export.golden");

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdl-export-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `text` with every `"blob:<16 hex>"` replaced by `"blob#k"`, and the
/// distinct references in order of first appearance.
fn number_refs(text: &str) -> (String, Vec<String>) {
    let mut refs: Vec<String> = Vec::new();
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("\"blob:") {
        // `"` + `blob:` + 16 hex digits + `"`.
        let r = rest[at + 1..at + 22].to_string();
        let k = match refs.iter().position(|x| *x == r) {
            Some(i) => i + 1,
            None => {
                refs.push(r);
                refs.len()
            }
        };
        out.push_str(&rest[..at]);
        out.push_str(&format!("\"blob#{k}\""));
        rest = &rest[at + 23..];
    }
    out.push_str(rest);
    (out, refs)
}

fn computed(export: &Path, blobs: &Path) -> String {
    let text = std::fs::read_to_string(export).expect("read the export");
    let (mut out, refs) = number_refs(&text);
    let spilled = std::fs::read_dir(blobs)
        .expect("read the blob dir")
        .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "bin"))
        .count();
    assert_eq!(spilled, refs.len(), "one spilled .bin per distinct image_ref");
    for (i, r) in refs.iter().enumerate() {
        let path = blobs.join(format!("{}.bin", r.replace(':', "_")));
        let data = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{r} names no spilled file {}: {e}", path.display()));
        out.push_str(&format!("blob#{}\t{}\t{:016x}\n", i + 1, data.len(), fnv1a64(&data)));
    }
    out
}

/// Compare `got` with the golden `want` line by line; on a mismatch write
/// `got` to `CARGO_TARGET_TMPDIR/<name>` and name that path.
fn assert_golden(name: &str, want: &str, got: &str) {
    if got == want {
        return;
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, got).expect("write the computed golden");
    for (i, (want, have)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(have, want, "line {} of {name} (computed file: {})", i + 1, path.display());
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "line count of {name} (computed file: {})",
        path.display()
    );
}

#[test]
fn export_and_spilled_frames_match_the_recorded_golden() {
    let dir = workdir("run");
    let export = dir.join("portal.jsonl");
    let blobs = dir.join("blobs");
    let run = Command::new(env!("CARGO_BIN_EXE_sdl-lab"))
        .args(["run", "--samples", "12", "--batch", "4", "--export-portal"])
        .arg(&export)
        .arg("--blob-dir")
        .arg(&blobs)
        .output()
        .expect("run sdl-lab run");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));

    let got = computed(&export, &blobs);
    let _ = std::fs::remove_dir_all(&dir);
    assert_golden("export_portal.golden", GOLDEN, &got);
}

/// Two imaged `fast` scenarios (two frames each) and one without images
/// whose target moves, so every sample record carries its own target.
fn campaign_scenarios() -> Vec<ScenarioSpec> {
    let base = AppConfig { sample_budget: 8, batch: 4, ..AppConfig::default() };
    let imaged = |label: &str, solver: SolverKind, seed: u64| {
        ScenarioSpec::new(label, AppConfig { solver, seed, ..base.clone() })
    };
    let moving = AppConfig {
        seed: 13,
        publish_images: false,
        target_to: Some(Rgb8::new(250, 250, 250)),
        ..base.clone()
    };
    vec![
        imaged("genetic", SolverKind::Genetic, 11),
        imaged("random", SolverKind::Random, 12),
        ScenarioSpec::new("moving-target", moving),
    ]
}

#[test]
fn campaign_export_matches_the_recorded_golden_at_one_and_two_threads() {
    for threads in [1, 2] {
        let dir = workdir(&format!("campaign-{threads}"));
        let export = dir.join("campaign.jsonl");
        let blobs = dir.join("blobs");
        let runner = CampaignRunner::new()
            .threads(threads)
            .publish_records(true)
            .with_store(Arc::new(BlobStore::with_spill_dir(&blobs)));
        let report = runner.run(campaign_scenarios());
        assert!(report.results.iter().all(|r| r.outcome.is_ok()), "every scenario runs");
        runner.portal().export_jsonl(&export).expect("export the campaign portal");

        let got = computed(&export, &blobs);
        let _ = std::fs::remove_dir_all(&dir);
        assert_golden("campaign_export.golden", CAMPAIGN_GOLDEN, &got);
    }
}
