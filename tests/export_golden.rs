//! A portal export and its spilled plate images, pinned up to blob names.
//!
//! `sdl-lab run --samples 12 --batch 4 --export-portal … --blob-dir …`
//! publishes three plate frames. `tests/data/export_portal.golden` holds the
//! exported JSON lines with every distinct `blob:<hex>` reference replaced
//! by `blob#k` (numbered in order of first appearance), then one line per
//! `k`: the length of the `.bin` file that reference names and a 64-bit
//! FNV-1a digest of its bytes, computed here.
//!
//! The content hash behind `blob:<hex>` can change without touching this
//! file; anything else an export holds (a record byte, which records share
//! a frame, a frame byte) cannot. On a mismatch the test writes the whole
//! computed file next to the test binaries and names its path.

use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN: &str = include_str!("data/export_portal.golden");

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdl-export-golden-{}", std::process::id()));
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

#[test]
fn export_and_spilled_frames_match_the_recorded_golden() {
    let dir = workdir();
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
    if got != GOLDEN {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("export_portal.golden");
        std::fs::write(&path, &got).expect("write the computed golden");
        for (i, (want, have)) in GOLDEN.lines().zip(got.lines()).enumerate() {
            assert_eq!(
                have,
                want,
                "line {} of the export golden (computed file: {})",
                i + 1,
                path.display()
            );
        }
        assert_eq!(
            got.lines().count(),
            GOLDEN.lines().count(),
            "line count (computed file: {})",
            path.display()
        );
    }
}
