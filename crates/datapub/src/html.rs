//! Static-HTML export of the portal — the shareable equivalent of the
//! Globus Search web views in the paper's Figure 3.

use crate::portal::AcdcPortal;
use crate::record::SampleRecord;
use crate::store::{BlobRef, BlobStore};
use sdl_conf::ValueExt;
use std::fmt::Write as _;

/// Standard base64 (RFC 4648, with padding) for data URIs.
pub fn base64(data: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [chunk[0], *chunk.get(1).unwrap_or(&0), *chunk.get(2).unwrap_or(&0)];
        let n = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 { ALPHABET[(n >> 6) as usize & 63] as char } else { '=' });
        out.push(if chunk.len() > 2 { ALPHABET[n as usize & 63] as char } else { '=' });
    }
    out
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Shared `<head>` + opening `<body>` for every portal page.
fn page_head(title: &str) -> String {
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>{title}</title><style>\
         body{{font-family:system-ui,sans-serif;margin:2rem;background:#fafafa;color:#222}}\
         table{{border-collapse:collapse;margin:1rem 0}}\
         th,td{{border:1px solid #ccc;padding:0.3rem 0.6rem;font-size:0.85rem;text-align:right}}\
         th{{background:#eee}}td.well{{text-align:center}}\
         .swatch{{display:inline-block;width:1.1em;height:1.1em;border:1px solid #999;\
         vertical-align:middle;margin-right:0.3em}}\
         img{{border:1px solid #999;max-width:320px;display:block;margin:0.5rem 0}}\
         h2{{margin-top:2rem}}a{{color:#06c}}</style></head><body>",
        title = escape(title)
    )
}

/// Experiment metadata paragraph (name/date/solver/batch + target swatch).
fn meta_block(portal: &AcdcPortal, experiment_id: &str) -> String {
    let Some(m) = portal.experiment(experiment_id) else { return String::new() };
    let mut html = String::new();
    let _ = write!(
        html,
        "<p><b>{}</b> &middot; {} &middot; solver <b>{}</b> &middot; batch {} &middot; budget {}</p>",
        escape(m.opt_str("name").unwrap_or("?")),
        escape(m.opt_str("date").unwrap_or("?")),
        escape(m.opt_str("solver").unwrap_or("?")),
        m.opt_i64("batch").unwrap_or(0),
        m.opt_i64("sample_budget").unwrap_or(0),
    );
    if let Some(t) = m.req("target").ok().and_then(sdl_conf::Value::as_seq) {
        let ch: Vec<i64> = t.iter().filter_map(sdl_conf::Value::as_i64).collect();
        if ch.len() == 3 {
            let _ = write!(
                html,
                "<p>target <span class=\"swatch\" style=\"background:rgb({r},{g},{b})\"></span>RGB ({r}, {g}, {b})</p>",
                r = ch[0],
                g = ch[1],
                b = ch[2]
            );
        }
    }
    html
}

/// Percent-encode everything outside the URL-safe unreserved set (for
/// embedding ids and blob refs in portal URLs).
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// The Figure-3 *left* view as a served HTML page: experiment card plus a
/// per-run index table, each run linking to its `/runs/<run>` detail page.
pub fn render_summary_html(portal: &AcdcPortal, experiment_id: &str) -> String {
    let samples = portal.samples(experiment_id);
    let runs: std::collections::BTreeSet<u32> = samples.iter().map(|s| s.run).collect();
    let best = samples.iter().map(|s| s.score).fold(f64::INFINITY, f64::min);

    let mut html = page_head(&format!("ACDC portal — {experiment_id}"));
    let _ = write!(html, "<h1>ACDC portal — {}</h1>", escape(experiment_id));
    html.push_str(&meta_block(portal, experiment_id));
    let _ = write!(
        html,
        "<p>{} runs &middot; {} samples{}</p>",
        runs.len(),
        samples.len(),
        if best.is_finite() { format!(" &middot; best score {best:.2}") } else { String::new() }
    );
    html.push_str("<table><tr><th>run</th><th>samples</th><th>best score</th></tr>");
    for run in runs {
        let in_run: Vec<_> = samples.iter().filter(|s| s.run == run).collect();
        let run_best = in_run.iter().map(|s| s.score).fold(f64::INFINITY, f64::min);
        let _ = write!(
            html,
            "<tr><td><a href=\"/runs/{run}?experiment={id}\">run #{run}</a></td>\
             <td>{}</td><td>{run_best:.2}</td></tr>",
            in_run.len(),
            id = url_encode(experiment_id),
        );
    }
    html.push_str("</table></body></html>");
    html
}

/// The Figure-3 *right* view as a served HTML page: the detailed sample
/// table of one run. Plate images are referenced through `/blobs/<ref>`
/// URLs for the serving layer to resolve (not inlined).
pub fn render_run_html(portal: &AcdcPortal, experiment_id: &str, run: u32) -> String {
    let samples: Vec<SampleRecord> =
        portal.samples(experiment_id).into_iter().filter(|s| s.run == run).collect();

    let mut html = page_head(&format!("ACDC portal — {experiment_id}, run #{run}"));
    let _ = write!(
        html,
        "<h1>ACDC portal — {} <small>run #{run}</small></h1>\
         <p><a href=\"/summary?experiment={id}\">&larr; experiment summary</a></p>",
        escape(experiment_id),
        id = url_encode(experiment_id),
    );
    html.push_str(&meta_block(portal, experiment_id));
    if let Some(r) = samples.iter().find_map(|s| s.image_ref.clone()) {
        let _ =
            write!(html, "<img alt=\"plate frame, run {run}\" src=\"/blobs/{}\">", url_encode(&r));
    }
    if samples.is_empty() {
        html.push_str("<p>(no samples)</p></body></html>");
        return html;
    }
    html.push_str(
        "<table><tr><th>sample</th><th>well</th><th>measured</th><th>target</th>\
         <th>score</th><th>best</th><th>elapsed (min)</th></tr>",
    );
    for s in &samples {
        let _ = write!(
            html,
            "<tr><td>{}</td><td class=\"well\">{}</td>\
             <td><span class=\"swatch\" style=\"background:rgb({mr},{mg},{mb})\"></span>({mr},{mg},{mb})</td>\
             <td><span class=\"swatch\" style=\"background:rgb({tr},{tg},{tb})\"></span>({tr},{tg},{tb})</td>\
             <td>{:.2}</td><td>{:.2}</td><td>{:.1}</td></tr>",
            s.sample,
            escape(&s.well),
            s.score,
            s.best_so_far,
            s.elapsed_s / 60.0,
            mr = s.measured[0],
            mg = s.measured[1],
            mb = s.measured[2],
            tr = s.target[0],
            tg = s.target[1],
            tb = s.target[2],
        );
    }
    html.push_str("</table></body></html>");
    html
}

/// Render one experiment as a standalone HTML page. When `store` is given,
/// archived plate images (BMP blobs) are inlined as data URIs.
pub fn render_html(portal: &AcdcPortal, experiment_id: &str, store: Option<&BlobStore>) -> String {
    let samples = portal.samples(experiment_id);

    let mut html = page_head(&format!("ACDC portal — {experiment_id}"));
    let _ = write!(html, "<h1>ACDC portal — {}</h1>", escape(experiment_id));
    html.push_str(&meta_block(portal, experiment_id));
    let best = samples.iter().map(|s| s.score).fold(f64::INFINITY, f64::min);
    let runs: std::collections::BTreeSet<u32> = samples.iter().map(|s| s.run).collect();
    let _ = write!(
        html,
        "<p>{} runs &middot; {} samples{}</p>",
        runs.len(),
        samples.len(),
        if best.is_finite() { format!(" &middot; best score {best:.2}") } else { String::new() }
    );

    for run in runs {
        let in_run: Vec<_> = samples.iter().filter(|s| s.run == run).collect();
        let _ = write!(html, "<h2>run #{run} ({} samples)</h2>", in_run.len());
        // One image per run (all samples of a run share the frame).
        if let (Some(store), Some(r)) = (store, in_run.iter().find_map(|s| s.image_ref.clone())) {
            if let Some(bytes) = store.get(&BlobRef(r)) {
                let _ = write!(
                    html,
                    "<img alt=\"plate frame, run {run}\" src=\"data:image/bmp;base64,{}\">",
                    base64(&bytes)
                );
            }
        }
        html.push_str(
            "<table><tr><th>sample</th><th>well</th><th>measured</th><th>target</th>\
             <th>score</th><th>best</th><th>elapsed (min)</th></tr>",
        );
        for s in in_run {
            let _ = write!(
                html,
                "<tr><td>{}</td><td class=\"well\">{}</td>\
                 <td><span class=\"swatch\" style=\"background:rgb({mr},{mg},{mb})\"></span>({mr},{mg},{mb})</td>\
                 <td><span class=\"swatch\" style=\"background:rgb({tr},{tg},{tb})\"></span>({tr},{tg},{tb})</td>\
                 <td>{:.2}</td><td>{:.2}</td><td>{:.1}</td></tr>",
                s.sample,
                escape(&s.well),
                s.score,
                s.best_so_far,
                s.elapsed_s / 60.0,
                mr = s.measured[0],
                mg = s.measured[1],
                mb = s.measured[2],
                tr = s.target[0],
                tg = s.target[1],
                tb = s.target[2],
            );
        }
        html.push_str("</table>");
    }
    html.push_str("</body></html>");
    html
}

impl AcdcPortal {
    /// Write the HTML view of one experiment to `path`.
    pub fn export_html(
        &self,
        path: &std::path::Path,
        experiment_id: &str,
        store: Option<&BlobStore>,
    ) -> std::io::Result<()> {
        std::fs::write(path, render_html(self, experiment_id, store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ExperimentRecord, SampleRecord};
    use bytes::Bytes;

    #[test]
    fn base64_known_vectors() {
        assert_eq!(base64(b""), "");
        assert_eq!(base64(b"f"), "Zg==");
        assert_eq!(base64(b"fo"), "Zm8=");
        assert_eq!(base64(b"foo"), "Zm9v");
        assert_eq!(base64(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn html_contains_samples_and_swatches() {
        let portal = AcdcPortal::new();
        portal.ingest(
            ExperimentRecord {
                experiment_id: "e1".into(),
                name: "ColorPickerRPL".into(),
                date: "2023-08-16".into(),
                target: [120, 120, 120],
                solver: "genetic".into(),
                batch: 2,
                sample_budget: 4,
            }
            .to_value(),
        );
        let store = BlobStore::in_memory();
        let blob = store.put(Bytes::from_static(b"BMfakeimage"));
        for i in 1..=4u32 {
            portal.ingest(
                SampleRecord {
                    experiment_id: "e1".into(),
                    run: i.div_ceil(2),
                    sample: i,
                    well: format!("A{i}"),
                    ratios: vec![0.2; 4],
                    volumes_ul: vec![8.0; 4],
                    measured: [118, 121, 119],
                    target: [120, 120, 120],
                    score: 30.0 / i as f64,
                    best_so_far: 30.0 / i as f64,
                    elapsed_s: i as f64 * 228.0,
                    batch_wall_s: None,
                    image_ref: Some(blob.0.clone()),
                }
                .to_value(),
            );
        }
        let html = render_html(&portal, "e1", Some(&store));
        assert!(html.contains("<h1>ACDC portal — e1</h1>"));
        assert!(html.contains("run #1") && html.contains("run #2"));
        assert!(html.contains("rgb(118,121,119)"));
        assert!(html.contains("data:image/bmp;base64,"));
        assert!(html.contains("ColorPickerRPL"));
        // 4 sample rows.
        assert_eq!(html.matches("<tr><td>").count(), 4);
    }

    #[test]
    fn html_without_store_omits_images() {
        let portal = AcdcPortal::new();
        let html = render_html(&portal, "missing", None);
        assert!(html.contains("0 runs"));
        assert!(!html.contains("data:image"));
    }

    #[test]
    fn escape_neutralizes_markup() {
        assert_eq!(escape("<b>&x"), "&lt;b&gt;&amp;x");
    }

    fn served_portal() -> AcdcPortal {
        let portal = AcdcPortal::new();
        portal.ingest(
            ExperimentRecord {
                experiment_id: "e1".into(),
                name: "ColorPickerRPL".into(),
                date: "2023-08-16".into(),
                target: [120, 120, 120],
                solver: "genetic".into(),
                batch: 2,
                sample_budget: 4,
            }
            .to_value(),
        );
        for i in 1..=4u32 {
            portal.ingest(
                SampleRecord {
                    experiment_id: "e1".into(),
                    run: i.div_ceil(2),
                    sample: i,
                    well: format!("A{i}"),
                    ratios: vec![0.2; 4],
                    volumes_ul: vec![8.0; 4],
                    measured: [118, 121, 119],
                    target: [120, 120, 120],
                    score: 30.0 / i as f64,
                    best_so_far: 30.0 / i as f64,
                    elapsed_s: i as f64 * 228.0,
                    batch_wall_s: None,
                    image_ref: Some("blob:0011aabb".into()),
                }
                .to_value(),
            );
        }
        portal
    }

    #[test]
    fn summary_view_links_runs() {
        let html = render_summary_html(&served_portal(), "e1");
        assert!(html.contains("<h1>ACDC portal — e1</h1>"));
        assert!(html.contains("2 runs &middot; 4 samples"));
        assert!(html.contains("href=\"/runs/1?experiment=e1\""));
        assert!(html.contains("href=\"/runs/2?experiment=e1\""));
        assert!(html.contains("ColorPickerRPL"));
    }

    #[test]
    fn run_view_links_blobs_not_data_uris() {
        let html = render_run_html(&served_portal(), "e1", 2);
        assert!(html.contains("run #2"));
        assert!(html.contains("src=\"/blobs/blob%3A0011aabb\""));
        assert!(!html.contains("data:image"));
        assert_eq!(html.matches("<tr><td>").count(), 2);
        assert!(html.contains("href=\"/summary?experiment=e1\""));
        // Unknown run renders an empty page, not an error.
        let html = render_run_html(&served_portal(), "e1", 99);
        assert!(html.contains("no samples"));
    }

    #[test]
    fn url_encode_escapes_reserved() {
        assert_eq!(url_encode("blob:ab/1 2"), "blob%3Aab%2F1%202");
        assert_eq!(url_encode("safe-Name_0.~"), "safe-Name_0.~");
    }
}
