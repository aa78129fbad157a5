//! Streaming campaign results into the data portal.
//!
//! Every campaign executor — the thread-pool [`CampaignRunner`], its
//! resume, and the distributed [`CampaignScheduler`] — publishes through
//! one [`InOrderMerge`], so a campaign's portal stream has one shape
//! regardless of where, or in which order, the scenarios executed.
//!
//! [`CampaignRunner`]: crate::CampaignRunner
//! [`CampaignScheduler`]: crate::CampaignScheduler

use crate::campaign::report::{ScenarioOutcome, ScenarioResult};
use crate::campaign::spec::RunMode;
use sdl_conf::Value;
use sdl_datapub::{AcdcPortal, BlobStore};
use std::time::{Duration, Instant};

/// Takes scenario results in any order and publishes them in input order:
/// each result that completes a prefix streams into the portal together
/// with every result queued behind it, so the portal stream is the same at
/// any thread count, worker count or completion order.
pub(crate) struct InOrderMerge<'a> {
    portal: &'a AcdcPortal,
    store: &'a BlobStore,
    publish_records: bool,
    progress: bool,
    slots: Vec<Option<ScenarioResult>>,
    /// Results taken so far.
    done: usize,
    /// First input index not yet published.
    next: usize,
    /// Wall time spent publishing.
    spent: Duration,
}

impl<'a> InOrderMerge<'a> {
    /// A merge of `n` scenarios into `portal` and `store`. With
    /// `publish_records`, each scenario's full record set merges in too;
    /// with `progress`, every result prints one line to stderr.
    pub(crate) fn new(
        n: usize,
        portal: &'a AcdcPortal,
        store: &'a BlobStore,
        publish_records: bool,
        progress: bool,
    ) -> InOrderMerge<'a> {
        InOrderMerge {
            portal,
            store,
            publish_records,
            progress,
            slots: (0..n).map(|_| None).collect(),
            done: 0,
            next: 0,
            spent: Duration::ZERO,
        }
    }

    /// Take one result, then publish the input-order prefix it completes.
    pub(crate) fn push(&mut self, result: ScenarioResult) {
        self.done += 1;
        if self.progress {
            eprintln!(
                "[{}/{}] {} {}",
                self.done,
                self.slots.len(),
                result.spec.label,
                match &result.outcome {
                    Ok(o) => format!("best {:.2} in {}", o.best_score(), o.duration()),
                    Err(e) => format!("FAILED: {e}"),
                }
            );
        }
        let index = result.index;
        self.slots[index] = Some(result);
        let started = Instant::now();
        while let Some(Some(result)) = self.slots.get(self.next) {
            publish_scenario(self.portal, self.store, self.publish_records, result);
            self.next += 1;
        }
        self.spent += started.elapsed();
    }

    /// Publish the closing `campaign` record. Returns every result in input
    /// order and the wall time spent publishing, this record included.
    pub(crate) fn finish(self) -> (Vec<ScenarioResult>, Duration) {
        let results: Vec<ScenarioResult> =
            self.slots.into_iter().map(|s| s.expect("every scenario slot filled")).collect();
        let started = Instant::now();
        publish_campaign_record(self.portal, &results);
        (results, self.spent + started.elapsed())
    }
}

/// Stream one scenario's summary record into the portal, and its plate
/// images into the shared blob store. With `publish_records`, the
/// scenario's full per-sample record set merges in too.
fn publish_scenario(
    portal: &AcdcPortal,
    store: &BlobStore,
    publish_records: bool,
    result: &ScenarioResult,
) {
    if let Ok(ScenarioOutcome::Single(out)) = &result.outcome {
        out.store.merge_into(store);
        if publish_records {
            portal.merge_from(&out.portal);
        }
    }
    let mut v = Value::map();
    v.set("kind", "campaign_scenario");
    v.set("label", result.spec.label.as_str());
    v.set("index", result.index as i64);
    v.set("experiment_id", result.spec.config.experiment_id().as_str());
    v.set("solver", result.spec.config.solver_label());
    v.set("backend", result.spec.backend.to_string().as_str());
    v.set("batch", result.spec.config.batch as i64);
    v.set("seed", result.spec.config.seed as i64);
    v.set("samples", result.spec.config.sample_budget as i64);
    if let RunMode::MultiOt2(n) = result.spec.mode {
        v.set("n_ot2", n as i64);
    }
    match &result.outcome {
        Ok(o) => {
            v.set("best_score", o.best_score());
            v.set("duration_s", o.duration().as_secs_f64());
            v.set("samples_measured", o.samples_measured() as i64);
            v.set("plates_used", o.plates_used() as i64);
            v.set("robotic_commands", o.robotic_commands() as i64);
            v.set("solver_fallbacks", o.solver_fallbacks() as i64);
            if let ScenarioOutcome::Single(out) = o {
                v.set("twh_s", out.metrics.twh.as_secs_f64());
                v.set("ccwh", out.metrics.ccwh as i64);
                v.set("termination", out.termination.to_string().as_str());
            }
        }
        Err(e) => {
            v.set("error", e.to_string().as_str());
        }
    }
    portal.ingest(v);
}

/// One closing record describing the whole campaign.
fn publish_campaign_record(portal: &AcdcPortal, results: &[ScenarioResult]) {
    let mut v = Value::map();
    v.set("kind", "campaign");
    v.set("scenarios", results.len() as i64);
    v.set("failed", results.iter().filter(|r| r.outcome.is_err()).count() as i64);
    let best = results
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(ScenarioOutcome::best_score)
        .fold(f64::INFINITY, f64::min);
    if best.is_finite() {
        v.set("best_score", best);
    }
    portal.ingest(v);
}
