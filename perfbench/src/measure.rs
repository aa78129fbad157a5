//! Process counters, order statistics and the result format.

use std::fmt::Write as _;
use std::time::Duration;

/// CPU time (user + system) this process has consumed, including threads
/// that already exited. Linux reports it in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name is parenthesised and may hold spaces: split after it.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Return freed heap pages to the OS and restart the peak-RSS counter
/// at the current RSS (Linux `clear_refs` value 5), so the next peak
/// counts memory in use rather than what the allocator kept from earlier
/// work. Returns false where the kernel refuses the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only walks glibc's
        // own allocator state under its locks; any thread may call it.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The `q` quantile (0..=1) of `values`, linearly interpolated between
/// order statistics. `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// How a reported number was obtained, for the human-readable table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed with tracing off.
    Timed,
    /// A span around a public call in the traced run.
    Span,
    /// A probe that re-ran an inner layer's function on the call's data.
    Probe,
    /// Computed from other rows.
    Derived,
    /// A count read from the program or from the run's outputs.
    Count,
    /// The layer does no work on this workload.
    OffPath,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Timed => "timed",
            Source::Span => "span",
            Source::Probe => "probe",
            Source::Derived => "derived",
            Source::Count => "count",
            Source::OffPath => "off path",
        }
    }
}

/// One named figure of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub source: Source,
    /// Free text for the table: sample counts, the workload's own name
    /// for the figure, and so on.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, source: Source) -> Metric {
        Metric { name, unit, value, source, note: String::new() }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failed check (first few kept).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines printed under the table (the traced run's predictions).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one check; a failure lowers `correct` and bumps `failed`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The aligned table printed above the result line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<28} {:>14.6} {:<6} {:<8} {}",
                m.name,
                m.value,
                m.unit,
                m.source.label(),
                m.note
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "  FAILED CHECK: {p}");
        }
        out
    }

    /// The single-line JSON result.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(String, &str, f64)> =
            self.metrics.iter().map(|m| (m.name.to_string(), m.unit, m.value)).collect();
        result_line(self.correct(), self.attempted, self.failed, &metrics)
    }
}

/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
/// on one line. A non-finite value (which `correct` already reports) is
/// written as 0 to keep the line valid JSON.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// Request totals from the `/metrics` of one or more servers, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerTotals {
    pub seconds: f64,
    pub requests: f64,
    pub body_bytes: f64,
}

impl ServerTotals {
    pub fn scrape(addrs: &[impl AsRef<str>]) -> ServerTotals {
        let mut t = ServerTotals::default();
        for addr in addrs {
            let text = sdl_portal_server::client::get(addr.as_ref(), "/metrics")
                .map(|r| r.text())
                .unwrap_or_default();
            let value = |name: &str| {
                text.lines()
                    .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
                    .and_then(|v| v.trim().parse::<f64>().ok())
                    .unwrap_or(0.0)
            };
            t.seconds += value("sdl_portal_request_seconds_sum");
            t.requests += value("sdl_portal_request_seconds_count");
            t.body_bytes += value("sdl_portal_body_bytes_sent_total");
        }
        t
    }

    /// What was added since `before`.
    pub fn since(self, before: ServerTotals) -> ServerTotals {
        ServerTotals {
            seconds: self.seconds - before.seconds,
            requests: self.requests - before.requests,
            body_bytes: self.body_bytes - before.body_bytes,
        }
    }
}

/// Latency summary of `samples_ms`: (p50, p90, p99, count).
pub fn latency(samples_ms: &[f64]) -> (f64, f64, f64, usize) {
    (
        quantile(samples_ms, 0.5),
        quantile(samples_ms, 0.9),
        quantile(samples_ms, 0.99),
        samples_ms.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_counters_read() {
        let spin: u64 = (0..2_000_000u64).fold(0, |a, b| a ^ b.wrapping_mul(31));
        assert!(spin != 1);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn result_line_is_json() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.push(Metric::new("x_ms", "ms", 1.5, Source::Timed));
        o.check(false, || "bad".into());
        let line = o.result_line();
        let v = sdl_conf::from_json(&line).unwrap();
        use sdl_conf::ValueExt;
        assert_eq!(v.opt_bool("correct"), Some(false));
        assert_eq!(v.opt_i64("failed"), Some(1));
    }
}
