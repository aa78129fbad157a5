//! In-memory spans for the traced run.
//!
//! Every driver thread owns a [`Recorder`]; spans are plain records kept in
//! a vector and merged into a [`Trace`] when the thread finishes. Nothing is
//! written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval on one driver thread.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The scenario and batch (`s3/b7`) or request (`c1/r42`) it belongs to.
    pub scope: String,
    /// Probes re-run a layer's function after the real call returned; they
    /// are excluded from self time and from the traced wall time.
    pub probe: bool,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Per-thread span buffer.
#[derive(Debug)]
pub struct Recorder {
    pub thread: usize,
    pub started: Instant,
    pub finished: Option<Instant>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(thread: usize) -> Recorder {
        Recorder { thread, started: Instant::now(), finished: None, spans: Vec::new() }
    }

    /// Run `f` inside a span and return its result and the span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        scope: &str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let i = self.push(name, parent, scope, start, Instant::now());
        (out, i)
    }

    /// Like [`Recorder::span`], marked as a probe.
    pub fn probe<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        scope: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, i) = self.span(name, parent, scope, f);
        self.spans[i].probe = true;
        out
    }

    /// Record a span timed by the caller; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        scope: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span { name, start, end, parent, scope: scope.to_string(), probe: false });
        self.spans.len() - 1
    }

    /// Open a span whose end is filled in by [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, scope: &str) -> usize {
        let now = Instant::now();
        self.push(name, parent, scope, now, now)
    }

    pub fn close(&mut self, i: usize) {
        self.spans[i].end = Instant::now();
    }

    pub fn finish(&mut self) {
        self.finished = Some(Instant::now());
    }
}

/// Sum and count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub total: Duration,
    pub count: u64,
}

impl Agg {
    /// Mean duration per span, ms.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.count as f64
        }
    }
}

/// Every recorder of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    pub recorders: Vec<Recorder>,
}

impl Trace {
    /// Self time by span name: each span's duration minus the part its
    /// non-probe children cover. Probes are aggregated under their own
    /// names and never subtracted (they run after their parent ended).
    pub fn self_times(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for rec in &self.recorders {
            let mut child_time = vec![Duration::ZERO; rec.spans.len()];
            for s in &rec.spans {
                if let (Some(p), false) = (s.parent, s.probe) {
                    child_time[p] += s.duration();
                }
            }
            for (i, s) in rec.spans.iter().enumerate() {
                let agg = out.entry(s.name).or_default();
                agg.total += s.duration().saturating_sub(child_time[i]);
                agg.count += 1;
            }
        }
        out
    }

    /// Total probe time across threads.
    pub fn probe_time(&self) -> Duration {
        self.recorders.iter().flat_map(|r| &r.spans).filter(|s| s.probe).map(Span::duration).sum()
    }

    /// Driver-thread wall time summed over threads, probes taken out, s.
    pub fn driver_wall(&self) -> f64 {
        let mut wall = 0.0;
        for rec in &self.recorders {
            let end = rec.finished.unwrap_or_else(Instant::now);
            let probes: Duration = rec.spans.iter().filter(|s| s.probe).map(Span::duration).sum();
            wall += (end - rec.started).saturating_sub(probes).as_secs_f64();
        }
        wall
    }

    /// `1 − (time in layer spans ÷ driver-thread wall)`, with probe time
    /// taken out of the wall. Layer spans are the non-probe spans whose
    /// parent is a root, or roots themselves when `roots_are_layers`.
    pub fn unattributed_frac(&self, roots_are_layers: bool) -> f64 {
        let wall = self.driver_wall();
        let mut covered = 0.0;
        for rec in &self.recorders {
            for s in rec.spans.iter().filter(|s| !s.probe) {
                let top = match s.parent {
                    None => roots_are_layers,
                    Some(p) => !roots_are_layers && rec.spans[p].parent.is_none(),
                };
                if top {
                    covered += s.duration().as_secs_f64();
                }
            }
        }
        if wall > 0.0 {
            1.0 - covered / wall
        } else {
            0.0
        }
    }

    /// Write every span as one JSON line, times in µs since `origin`.
    pub fn write_jsonl(&self, path: &Path, origin: Instant) -> std::io::Result<()> {
        let mut out = String::new();
        for rec in &self.recorders {
            for (i, s) in rec.spans.iter().enumerate() {
                let us = |t: Instant| t.saturating_duration_since(origin).as_micros();
                let parent = s.parent.map(|p| format!("\"t{}-{p}\"", rec.thread));
                let _ = writeln!(
                    out,
                    "{{\"id\": \"t{}-{i}\", \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \
                     \"parent\": {}, \"scope\": \"{}\", \"probe\": {}}}",
                    rec.thread,
                    s.name,
                    us(s.start),
                    us(s.end),
                    parent.as_deref().unwrap_or("null"),
                    s.scope,
                    s.probe
                );
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_but_not_probes() {
        let mut rec = Recorder::new(0);
        let root = rec.open("scenario", None, "s0");
        let (_, call) = rec.span("call", Some(root), "s0/b1", || {
            std::thread::sleep(Duration::from_millis(2));
        });
        rec.probe("probe", Some(call), "s0/b1", || std::thread::sleep(Duration::from_millis(1)));
        rec.close(root);
        rec.finish();
        let trace = Trace { recorders: vec![rec] };
        let st = trace.self_times();
        assert!(st["call"].total >= Duration::from_millis(2));
        assert!(st["scenario"].total < st["call"].total + Duration::from_millis(2));
        assert_eq!(st["probe"].count, 1);
        let u = trace.unattributed_frac(false);
        assert!((0.0..0.5).contains(&u), "{u}");
    }
}
