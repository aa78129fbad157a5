//! The ACDC-style data portal.
//!
//! "The publication step engages a Globus flow to publish data to the ALCF
//! Community Data Co-Op (ACDC) data portal" (§2.3). The portal here is a
//! searchable, insertion-ordered record index with the two views of
//! Figure 3: the experiment summary and the per-run detail table. Records
//! can be exported to and reloaded from JSON-lines files.
//!
//! Reads that filter on `kind` or `experiment_id` start from a posting
//! list built at ingest instead of scanning every record, and each
//! record's compact JSON is encoded once, the first time it is served.

use crate::record::SampleRecord;
use parking_lot::RwLock;
use sdl_conf::{from_json, lookup, to_json, Value, ValueExt};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

/// True when the value at `path` inside `record` matches `raw`.
///
/// `raw` is matched as a string first; when it parses as a number it is
/// also compared against integer and float fields with typed equality, so
/// `find("run", "12")`, `find("score", "2.5")` and `find("run", "12.0")`
/// all behave the way a query-string filter should.
pub fn field_matches(record: &Value, path: &str, raw: &str) -> bool {
    if record.opt_str(path) == Some(raw) {
        return true;
    }
    if let Ok(n) = raw.parse::<i64>() {
        if record.opt_i64(path) == Some(n) {
            return true;
        }
    }
    if let Ok(x) = raw.parse::<f64>() {
        if record.opt_f64(path) == Some(x) {
            return true;
        }
    }
    false
}

/// Posting lists of one indexed field: record ids, ascending.
#[derive(Debug, Default)]
struct Postings {
    /// Records whose field is this string.
    by_str: HashMap<String, Vec<usize>>,
    /// Records whose field is present but not a string. [`field_matches`]
    /// can still match them numerically (`5.0` against `?kind=5`), so
    /// every lookup includes them.
    other: Vec<usize>,
}

impl Postings {
    fn add(&mut self, field: Option<&Value>, id: usize) {
        match field {
            Some(Value::Str(s)) => match self.by_str.get_mut(s.as_str()) {
                Some(ids) => ids.push(id),
                None => {
                    self.by_str.insert(s.clone(), vec![id]);
                }
            },
            Some(_) => self.other.push(id),
            None => {}
        }
    }

    /// Records whose field is exactly the string `s`.
    fn exact(&self, s: &str) -> &[usize] {
        self.by_str.get(s).map_or(&[], Vec::as_slice)
    }

    /// Records `field_matches` may accept for `raw`, ascending: a superset
    /// of the matches, for `field_matches` to decide.
    fn candidates(&self, raw: &str) -> Vec<usize> {
        let mut ids = [self.exact(raw), &self.other].concat();
        if !self.other.is_empty() {
            ids.sort_unstable();
        }
        ids
    }

    fn candidate_count(&self, raw: &str) -> usize {
        self.exact(raw).len() + self.other.len()
    }
}

/// The portal's state under one lock: records in publication order, their
/// JSON, and the posting lists of the fields portal reads filter on.
#[derive(Debug, Default)]
struct Inner {
    records: Vec<Value>,
    /// Each record's compact JSON, encoded the first time it is served:
    /// campaign sessions ingest many records that no one reads.
    json: Vec<OnceLock<Box<str>>>,
    kind: Postings,
    experiment_id: Postings,
}

impl Inner {
    /// The one insert path: `ingest`, `merge_from` and `import_jsonl`.
    fn push(&mut self, record: Value, json: OnceLock<Box<str>>) {
        let id = self.records.len();
        self.kind.add(lookup(&record, "kind"), id);
        self.experiment_id.add(lookup(&record, "experiment_id"), id);
        self.records.push(record);
        self.json.push(json);
    }

    fn json(&self, id: usize) -> &str {
        self.json[id].get_or_init(|| to_json(&self.records[id]).into())
    }

    fn postings(&self, path: &str) -> Option<&Postings> {
        match path {
            "kind" => Some(&self.kind),
            "experiment_id" => Some(&self.experiment_id),
            _ => None,
        }
    }

    /// Ids of the records matching every `(path, raw)` filter, ascending.
    /// The shortest posting list among filters on indexed fields narrows
    /// the candidates; without such a filter every record is one.
    fn matching(&self, filters: &[(&str, &str)]) -> Vec<usize> {
        let hit = |id: &usize| {
            filters.iter().all(|(path, raw)| field_matches(&self.records[*id], path, raw))
        };
        let narrowest = filters
            .iter()
            .filter_map(|&(path, raw)| Some((self.postings(path)?, raw)))
            .min_by_key(|(postings, raw)| postings.candidate_count(raw));
        match narrowest {
            Some((postings, raw)) => postings.candidates(raw).into_iter().filter(hit).collect(),
            None => (0..self.records.len()).filter(hit).collect(),
        }
    }
}

/// Thread-safe searchable record index.
#[derive(Debug, Default)]
pub struct AcdcPortal {
    inner: RwLock<Inner>,
}

impl AcdcPortal {
    /// Empty portal.
    pub fn new() -> AcdcPortal {
        AcdcPortal::default()
    }

    /// Ingest one record (any value tree with a `kind` field).
    pub fn ingest(&self, record: Value) {
        self.inner.write().push(record, OnceLock::new());
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.inner.read().records.len()
    }

    /// True when the portal holds nothing.
    pub fn is_empty(&self) -> bool {
        self.inner.read().records.is_empty()
    }

    /// All records whose value at a dotted path matches `value` (string
    /// equality, or typed i64/f64 equality when `value` parses as a
    /// number — see [`field_matches`]).
    pub fn find(&self, path: &str, value: &str) -> Vec<Value> {
        let inner = self.inner.read();
        inner.matching(&[(path, value)]).into_iter().map(|id| inner.records[id].clone()).collect()
    }

    /// Records matching an arbitrary predicate.
    pub fn search(&self, pred: impl Fn(&Value) -> bool) -> Vec<Value> {
        self.inner.read().records.iter().filter(|r| pred(r)).cloned().collect()
    }

    /// Records matching a predicate, windowed by `offset`/`limit` after
    /// filtering (the portal's paging primitive).
    pub fn search_page(
        &self,
        pred: impl Fn(&Value) -> bool,
        offset: usize,
        limit: usize,
    ) -> (Vec<Value>, usize) {
        let inner = self.inner.read();
        let mut total = 0usize;
        let mut page = Vec::new();
        for r in inner.records.iter().filter(|r| pred(r)) {
            if total >= offset && page.len() < limit {
                page.push(r.clone());
            }
            total += 1;
        }
        (page, total)
    }

    /// One page of the records matching every `(path, raw)` filter (see
    /// [`field_matches`]) as JSON lines, and the number of matches. The
    /// body is the page of [`search_page`](Self::search_page) with each
    /// record's [`to_json`] and a `\n`.
    pub fn records_page(
        &self,
        filters: &[(&str, &str)],
        offset: usize,
        limit: usize,
    ) -> (String, usize) {
        let inner = self.inner.read();
        let ids = inner.matching(filters);
        let mut body = String::new();
        for &id in ids.iter().skip(offset).take(limit) {
            body.push_str(inner.json(id));
            body.push('\n');
        }
        (body, ids.len())
    }

    /// Append every record of `other`, preserving its publication order.
    pub fn merge_from(&self, other: &AcdcPortal) {
        let incoming: Vec<(Value, OnceLock<Box<str>>)> = {
            let other = other.inner.read();
            other.records.iter().cloned().zip(other.json.iter().cloned()).collect()
        };
        let mut inner = self.inner.write();
        for (record, json) in incoming {
            inner.push(record, json);
        }
    }

    /// Experiment ids with a metadata record, in publication order.
    pub fn experiments(&self) -> Vec<String> {
        let inner = self.inner.read();
        inner
            .kind
            .exact("experiment")
            .iter()
            .filter_map(|&id| inner.records[id].opt_str("experiment_id").map(str::to_string))
            .collect()
    }

    /// The first metadata record of one experiment.
    pub fn experiment(&self, experiment_id: &str) -> Option<Value> {
        let inner = self.inner.read();
        inner
            .experiment_id
            .exact(experiment_id)
            .iter()
            .map(|&id| &inner.records[id])
            .find(|r| r.opt_str("kind") == Some("experiment"))
            .cloned()
    }

    /// Sample records of one experiment, in publication order.
    pub fn samples(&self, experiment_id: &str) -> Vec<SampleRecord> {
        let inner = self.inner.read();
        inner
            .experiment_id
            .exact(experiment_id)
            .iter()
            .filter_map(|&id| SampleRecord::from_value(&inner.records[id]))
            .collect()
    }

    /// The Figure-3 left view: experiment summary.
    pub fn summary_view(&self, experiment_id: &str) -> String {
        let meta = self.experiment(experiment_id);
        let samples = self.samples(experiment_id);
        let runs: std::collections::BTreeSet<u32> = samples.iter().map(|s| s.run).collect();
        let best = samples.iter().map(|s| s.score).fold(f64::INFINITY, f64::min);

        let mut out = String::new();
        let _ = writeln!(out, "=== ACDC portal: experiment {experiment_id} ===");
        if let Some(m) = meta {
            let _ = writeln!(
                out,
                "name: {}   date: {}   solver: {}   batch: {}",
                m.opt_str("name").unwrap_or("?"),
                m.opt_str("date").unwrap_or("?"),
                m.opt_str("solver").unwrap_or("?"),
                m.opt_i64("batch").unwrap_or(0),
            );
            if let Some(t) = m.req("target").ok().and_then(Value::as_seq) {
                let t: Vec<String> =
                    t.iter().filter_map(Value::as_i64).map(|v| v.to_string()).collect();
                let _ = writeln!(out, "target color: RGB=({})", t.join(","));
            }
        }
        let _ = writeln!(
            out,
            "{} runs, {} samples total{}",
            runs.len(),
            samples.len(),
            if best.is_finite() { format!(", best score {best:.2}") } else { String::new() }
        );
        for run in runs {
            let in_run: Vec<&SampleRecord> = samples.iter().filter(|s| s.run == run).collect();
            let run_best = in_run.iter().map(|s| s.score).fold(f64::INFINITY, f64::min);
            let _ =
                writeln!(out, "  run #{run:<3} {:>3} samples   best {run_best:>7.2}", in_run.len());
        }
        out
    }

    /// The Figure-3 right view: detailed data from one run.
    pub fn run_detail(&self, experiment_id: &str, run: u32) -> String {
        let samples: Vec<SampleRecord> =
            self.samples(experiment_id).into_iter().filter(|s| s.run == run).collect();
        let mut out = String::new();
        let _ = writeln!(out, "=== ACDC portal: experiment {experiment_id}, run #{run} ===");
        let _ = writeln!(
            out,
            "{:>6} {:>5} {:>15} {:>15} {:>8} {:>8} {:>10}  image",
            "sample", "well", "measured RGB", "target RGB", "score", "best", "elapsed"
        );
        for s in &samples {
            let _ = writeln!(
                out,
                "{:>6} {:>5} {:>15} {:>15} {:>8.2} {:>8.2} {:>9.1}m  {}",
                s.sample,
                s.well,
                format!("({},{},{})", s.measured[0], s.measured[1], s.measured[2]),
                format!("({},{},{})", s.target[0], s.target[1], s.target[2]),
                s.score,
                s.best_so_far,
                s.elapsed_s / 60.0,
                s.image_ref.as_deref().unwrap_or("-"),
            );
        }
        if samples.is_empty() {
            let _ = writeln!(out, "(no samples)");
        }
        out
    }

    /// Export all records as JSON lines.
    pub fn export_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        use std::io::Write;
        let inner = self.inner.read();
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        for id in 0..inner.records.len() {
            w.write_all(inner.json(id).as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()?;
        Ok(inner.records.len())
    }

    /// Load records from a JSON-lines file (appending). Every non-blank
    /// line must be a JSON object with a string `kind`; otherwise the
    /// error names the line (1-based) and nothing is ingested.
    pub fn import_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let text = std::fs::read_to_string(path)?;
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let refuse = |msg: String| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line {}: {msg}", i + 1),
                )
            };
            let record = from_json(line).map_err(|e| refuse(format!("parse error: {}", e.msg)))?;
            if record.opt_str("kind").is_none() {
                return Err(refuse("not a record (a JSON object with a string \"kind\")".into()));
            }
            records.push(record);
        }
        let n = records.len();
        let mut inner = self.inner.write();
        for record in records {
            inner.push(record, OnceLock::new());
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ExperimentRecord;

    fn seed_portal() -> AcdcPortal {
        let portal = AcdcPortal::new();
        portal.ingest(
            ExperimentRecord {
                experiment_id: "exp-1".into(),
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
                        experiment_id: "exp-1".into(),
                        run,
                        sample,
                        well: format!("A{}", (i % 12) + 1),
                        ratios: vec![0.2; 4],
                        volumes_ul: vec![8.0; 4],
                        measured: [120, 119, 122],
                        target: [120, 120, 120],
                        score: 30.0 - sample as f64 / 10.0,
                        best_so_far: 30.0 - sample as f64 / 10.0,
                        elapsed_s: sample as f64 * 228.0,
                        batch_wall_s: None,
                        image_ref: None,
                    }
                    .to_value(),
                );
            }
        }
        portal
    }

    #[test]
    fn figure3_scale_is_reproduced() {
        let portal = seed_portal();
        // 12 runs × 15 samples = 180 experiments, plus 1 metadata record.
        assert_eq!(portal.len(), 181);
        assert_eq!(portal.samples("exp-1").len(), 180);
    }

    #[test]
    fn find_filters_by_field() {
        let portal = seed_portal();
        assert_eq!(portal.find("kind", "experiment").len(), 1);
        assert_eq!(portal.find("run", "12").len(), 15);
        assert_eq!(portal.find("experiment_id", "nope").len(), 0);
    }

    #[test]
    fn find_matches_numbers_with_typed_comparison() {
        let portal = seed_portal();
        // Integer fields match integer-shaped strings and float-shaped
        // strings with the same value.
        assert_eq!(portal.find("run", "12").len(), 15);
        assert_eq!(portal.find("run", "12.0").len(), 15);
        // Float fields match numerically: sample 1 scored 30.0 - 0.1 = 29.9,
        // which as a string is "29.9" but was stored as a Float.
        assert_eq!(portal.find("score", "29.9").len(), 1);
        assert!(portal.find("score", "29.90").len() == 1, "float equality must be typed");
        // Whole floats match integer-shaped queries.
        let p = AcdcPortal::new();
        let mut v = Value::map();
        v.set("x", 5.0);
        p.ingest(v);
        assert_eq!(p.find("x", "5").len(), 1);
        // Non-numeric strings never match numeric fields.
        assert_eq!(portal.find("run", "twelve").len(), 0);
    }

    #[test]
    fn search_page_windows_after_filtering() {
        let portal = seed_portal();
        let is_sample = |r: &Value| r.opt_str("kind") == Some("sample");
        let (page, total) = portal.search_page(is_sample, 0, 10);
        assert_eq!((page.len(), total), (10, 180));
        let (page, total) = portal.search_page(is_sample, 175, 10);
        assert_eq!((page.len(), total), (5, 180));
        assert_eq!(page[0].opt_i64("sample"), Some(176));
        let (page, _) = portal.search_page(is_sample, 500, 10);
        assert!(page.is_empty());
    }

    #[test]
    fn search_with_predicate() {
        let portal = seed_portal();
        let good = portal.search(|r| r.opt_f64("score").map(|s| s < 15.0).unwrap_or(false));
        assert!(!good.is_empty());
        assert!(good.len() < 180);
    }

    #[test]
    fn summary_view_mentions_runs_and_best() {
        let portal = seed_portal();
        let view = portal.summary_view("exp-1");
        assert!(view.contains("12 runs, 180 samples"), "{view}");
        assert!(view.contains("ColorPickerRPL"));
        assert!(view.contains("RGB=(120,120,120)"));
        assert!(view.contains("run #12"));
    }

    #[test]
    fn run_detail_lists_samples() {
        let portal = seed_portal();
        let view = portal.run_detail("exp-1", 12);
        assert_eq!(view.lines().count(), 2 + 15);
        assert!(view.contains("run #12"));
        let empty = portal.run_detail("exp-1", 99);
        assert!(empty.contains("no samples"));
    }

    #[test]
    fn jsonl_roundtrip() {
        let portal = seed_portal();
        let path = std::env::temp_dir().join(format!("sdl-portal-{}.jsonl", std::process::id()));
        let n = portal.export_jsonl(&path).unwrap();
        assert_eq!(n, 181);
        let fresh = AcdcPortal::new();
        let m = fresh.import_jsonl(&path).unwrap();
        assert_eq!(m, 181);
        assert_eq!(fresh.samples("exp-1").len(), 180);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn jsonl_roundtrip_preserves_order_and_fields() {
        let portal = seed_portal();
        let path =
            std::env::temp_dir().join(format!("sdl-portal-fidelity-{}.jsonl", std::process::id()));
        portal.export_jsonl(&path).unwrap();
        let reloaded = AcdcPortal::new();
        reloaded.import_jsonl(&path).unwrap();
        let before = portal.search(|_| true);
        let after = reloaded.search(|_| true);
        assert_eq!(before.len(), after.len());
        // Records come back in the exact order they were published, with
        // every field (including nested sequences and floats) intact.
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(to_json(b), to_json(a), "record {i} changed across the round-trip");
        }
        // Typed views survive too: the same samples parse identically.
        let b = portal.samples("exp-1");
        let a = reloaded.samples("exp-1");
        assert_eq!(b, a);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn experiments_lists_metadata_records() {
        let portal = seed_portal();
        assert_eq!(portal.experiments(), vec!["exp-1".to_string()]);
        assert!(AcdcPortal::new().experiments().is_empty());
    }

    #[test]
    fn records_page_serves_the_scan_page_as_json_lines() {
        let portal = seed_portal();
        let filters = [("kind", "sample"), ("experiment_id", "exp-1"), ("run", "12.0")];
        let (body, total) = portal.records_page(&filters, 3, 5);
        assert_eq!(total, 15);
        let (page, _) = portal.search_page(
            |r| filters.iter().all(|(path, raw)| field_matches(r, path, raw)),
            3,
            5,
        );
        let want: String = page.iter().map(|r| to_json(r) + "\n").collect();
        assert_eq!(body, want);
        assert_eq!(portal.records_page(&[("run", "12")], 0, 100).1, 15, "unindexed: a scan");
        assert_eq!(portal.records_page(&[("kind", "nope")], 0, 100), (String::new(), 0));
    }

    #[test]
    fn experiment_returns_the_first_metadata_record() {
        let portal = seed_portal();
        let mut second = portal.experiment("exp-1").unwrap();
        second.set("name", "later");
        portal.ingest(second);
        assert_eq!(portal.experiment("exp-1").unwrap().opt_str("name"), Some("ColorPickerRPL"));
        assert!(portal.experiment("nope").is_none());
    }

    fn write_lines(tag: &str, lines: &[String]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("sdl-portal-{tag}-{}.jsonl", std::process::id()));
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path
    }

    #[test]
    fn import_names_the_file_line_of_a_parse_error() {
        let good = to_json(&seed_portal().search(|_| true)[1]);
        let mut lines = vec![good; 5000];
        lines.push("{\"kind\": \"sample\", \"run\": }".into());
        let path = write_lines("bad-json", &lines);
        let portal = AcdcPortal::new();
        let err = portal.import_jsonl(&path).unwrap_err().to_string();
        assert!(err.starts_with("line 5001: parse error"), "{err}");
        assert!(portal.is_empty(), "a refused file ingests nothing");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn import_refuses_lines_that_are_not_records() {
        let record = "{\"kind\": \"note\"}".to_string();
        for bad in ["42", "[]", "\"x\"", "{\"no_kind\": 1}", "{\"kind\": 5}"] {
            let path = write_lines("not-a-record", &[record.clone(), String::new(), bad.into()]);
            let portal = AcdcPortal::new();
            let err = portal.import_jsonl(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().starts_with("line 3: not a record"), "{bad}: {err}");
            assert!(portal.is_empty());
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The posting lists answer every read exactly as a scan of every record
/// with [`field_matches`] does, whatever the records hold.
#[cfg(test)]
mod index_props {
    use super::*;
    use crate::record::ExperimentRecord;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const IDS: [&str; 3] = ["e1", "e2", "5"];
    const PATHS: [&str; 6] = ["kind", "experiment_id", "run", "meta.x", "meta", "kind.0"];
    const RAWS: [&str; 17] = [
        "5",
        "5.0",
        "+5",
        "05",
        "-0",
        "0",
        "NaN",
        "inf",
        "9007199254740992",
        "9007199254740993",
        "sample",
        "experiment",
        "e1",
        "e2",
        "",
        "true",
        "null",
    ];

    /// Absent, or one of the shapes `field_matches` treats differently.
    fn arb_field() -> impl Strategy<Value = Option<Value>> {
        let strings = ["sample", "experiment", "note", "e1", "e2", "5", "5.0", "", "NaN"];
        let ints = [0i64, 5, -5, 12, 9_007_199_254_740_993];
        let floats =
            [0.0, -0.0, 5.0, 5.5, f64::NAN, f64::INFINITY, 9_007_199_254_740_993i64 as f64];
        prop_oneof![
            Just(None),
            (0..strings.len()).prop_map(move |i| Some(Value::Str(strings[i].into()))),
            (0..ints.len()).prop_map(move |i| Some(Value::Int(ints[i]))),
            (0..floats.len()).prop_map(move |i| Some(Value::Float(floats[i]))),
            Just(Some(Value::Null)),
            any::<bool>().prop_map(|b| Some(Value::Bool(b))),
            Just(Some(Value::Seq(vec![Value::Int(5), Value::Str("sample".into())]))),
        ]
    }

    fn sample(experiment_id: &str, run: u32, sample: u32) -> Value {
        SampleRecord {
            experiment_id: experiment_id.into(),
            run,
            sample,
            well: "A1".into(),
            ratios: vec![0.25; 4],
            volumes_ul: vec![8.0; 4],
            measured: [1, 2, 3],
            target: [120, 120, 120],
            score: sample as f64,
            best_so_far: 1.0,
            elapsed_s: 60.0,
            batch_wall_s: None,
            image_ref: None,
        }
        .to_value()
    }

    fn experiment(experiment_id: &str, batch: u32) -> Value {
        ExperimentRecord {
            experiment_id: experiment_id.into(),
            name: "ColorPickerRPL".into(),
            date: "2023-08-16".into(),
            target: [120, 120, 120],
            solver: "genetic".into(),
            batch,
            sample_budget: 8,
        }
        .to_value()
    }

    fn arb_record() -> impl Strategy<Value = Value> {
        let non_maps =
            [Value::Int(5), Value::Str("sample".into()), Value::Seq(vec![]), Value::Null];
        prop_oneof![
            (arb_field(), arb_field(), arb_field(), arb_field()).prop_map(
                |(kind, experiment_id, run, nested)| {
                    let mut v = Value::map();
                    for (key, field) in
                        [("kind", kind), ("experiment_id", experiment_id), ("run", run)]
                    {
                        if let Some(field) = field {
                            v.set(key, field);
                        }
                    }
                    if let Some(field) = nested {
                        let mut meta = Value::map();
                        meta.set("x", field);
                        v.set("meta", meta);
                    }
                    v
                }
            ),
            (0..IDS.len(), 0..4u32, 0..4u32).prop_map(|(id, run, i)| sample(IDS[id], run, i)),
            (0..IDS.len(), 0..4u32).prop_map(|(id, batch)| experiment(IDS[id], batch)),
            (0..non_maps.len()).prop_map(move |i| non_maps[i].clone()),
        ]
    }

    type Query = (Vec<(&'static str, &'static str)>, usize, usize);

    fn arb_query() -> impl Strategy<Value = Query> {
        let filter = (0..PATHS.len(), 0..RAWS.len()).prop_map(|(p, r)| (PATHS[p], RAWS[r]));
        (
            proptest::collection::vec(filter, 1..4),
            0..6usize,
            prop_oneof![0..6usize, Just(usize::MAX)],
        )
    }

    /// Debug, not `==`: `NaN != NaN`, and Debug tells `-0.0` from `0.0`.
    fn dbg(v: impl std::fmt::Debug) -> String {
        format!("{v:?}")
    }

    fn assert_index_matches_scan(portal: &AcdcPortal, queries: &[Query]) {
        for (filters, offset, limit) in queries {
            let (page, total) = portal.search_page(
                |r| filters.iter().all(|(path, raw)| field_matches(r, path, raw)),
                *offset,
                *limit,
            );
            let body: String = page.iter().map(|r| to_json(r) + "\n").collect();
            assert_eq!(portal.records_page(filters, *offset, *limit), (body, total), "{filters:?}");
            for (path, raw) in filters {
                let scan = portal.search(|r| field_matches(r, path, raw));
                assert_eq!(dbg(portal.find(path, raw)), dbg(scan), "find({path:?}, {raw:?})");
            }
        }
        let experiments: Vec<String> = portal
            .search(|r| r.opt_str("kind") == Some("experiment"))
            .iter()
            .filter_map(|r| r.opt_str("experiment_id").map(str::to_string))
            .collect();
        assert_eq!(portal.experiments(), experiments);
        for id in IDS.iter().chain(&["missing"]) {
            let of_id = portal.search(|r| r.opt_str("experiment_id") == Some(id));
            let samples: Vec<SampleRecord> =
                of_id.iter().filter_map(SampleRecord::from_value).collect();
            assert_eq!(dbg(portal.samples(id)), dbg(samples), "samples({id:?})");
            let meta = of_id.into_iter().find(|r| r.opt_str("kind") == Some("experiment"));
            assert_eq!(dbg(portal.experiment(id)), dbg(meta), "experiment({id:?})");
        }
    }

    fn temp_path() -> std::path::PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("sdl-portal-props-{}-{n}.jsonl", std::process::id()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn index_answers_every_read_like_the_scan(
            records in proptest::collection::vec(arb_record(), 0..40),
            earlier in proptest::collection::vec(arb_record(), 0..10),
            queries in proptest::collection::vec(arb_query(), 50),
        ) {
            let portal = AcdcPortal::new();
            for r in &records {
                portal.ingest(r.clone());
            }
            assert_index_matches_scan(&portal, &queries);

            // Merged records keep the JSON already encoded for them.
            let merged = AcdcPortal::new();
            for r in &earlier {
                merged.ingest(r.clone());
            }
            merged.merge_from(&portal);
            assert_index_matches_scan(&merged, &queries);

            // An export holding a kind-less record is refused at its line.
            let path = temp_path();
            merged.export_jsonl(&path).unwrap();
            let all: Vec<&Value> = earlier.iter().chain(&records).collect();
            let first_bad = all.iter().position(|r| r.opt_str("kind").is_none());
            match (AcdcPortal::new().import_jsonl(&path), first_bad) {
                (Ok(n), None) => prop_assert_eq!(n, all.len()),
                (Err(e), Some(i)) => {
                    prop_assert!(e.to_string().starts_with(&format!("line {}: ", i + 1)), "{e}")
                }
                (got, want) => panic!("import gave {got:?}, first kind-less record {want:?}"),
            }

            // The importable records survive a round trip with the index intact.
            let kept = AcdcPortal::new();
            for r in all.into_iter().filter(|r| r.opt_str("kind").is_some()) {
                kept.ingest(r.clone());
            }
            kept.export_jsonl(&path).unwrap();
            let reloaded = AcdcPortal::new();
            prop_assert_eq!(reloaded.import_jsonl(&path).unwrap(), kept.len());
            assert_index_matches_scan(&reloaded, &queries);
            let _ = std::fs::remove_file(&path);
        }
    }
}
