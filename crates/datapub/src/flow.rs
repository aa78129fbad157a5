//! The publication pipeline — the Globus-flow substitute.
//!
//! Publication on the real system is asynchronous: the application fires a
//! flow and keeps running while Globus transfers the image, ingests the
//! record and updates the search index. [`PublishFlow`] reproduces that: a
//! background worker (crossbeam channel + thread) runs the three flow steps
//! — Transfer (blob store), Ingest (JSON validation), Index (portal) — per
//! job, with delivery guaranteed by `flush`/`close`. A job is one batch:
//! its plate frame is transferred (and hashed) once, and every record of
//! the batch carries the same `image_ref`.

use crate::portal::AcdcPortal;
use crate::store::{BlobRef, BlobStore};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use sdl_conf::{from_json, to_json, Value};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One publication job: a batch's records and the batch's plate frame.
#[derive(Debug)]
pub struct FlowJob {
    /// The records to ingest, in order.
    pub records: Vec<Value>,
    /// Optional image payload, transferred once per job; its blob
    /// reference is patched into every record's `image_ref` field.
    pub image: Option<Bytes>,
}

/// Pipeline statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowStats {
    /// Records published end-to-end.
    pub published: u64,
    /// Records that failed validation.
    pub failed: u64,
    /// Blobs transferred: one per job that carried an image.
    pub blobs: u64,
}

enum Msg {
    Job(Box<FlowJob>),
    Flush(Sender<()>),
}

/// A running publication pipeline.
pub struct PublishFlow {
    tx: Sender<Msg>,
    worker: Option<JoinHandle<()>>,
    stats: Arc<Mutex<FlowStats>>,
    /// The destination portal.
    pub portal: Arc<AcdcPortal>,
    /// The destination blob store.
    pub store: Arc<BlobStore>,
}

impl PublishFlow {
    /// Start the pipeline worker.
    pub fn start(portal: Arc<AcdcPortal>, store: Arc<BlobStore>) -> PublishFlow {
        let (tx, rx) = unbounded::<Msg>();
        let stats = Arc::new(Mutex::new(FlowStats::default()));
        let worker_portal = Arc::clone(&portal);
        let worker_store = Arc::clone(&store);
        let worker_stats = Arc::clone(&stats);
        let worker = std::thread::Builder::new()
            .name("publish-flow".into())
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Job(job) => {
                            let mut stats = worker_stats.lock();
                            let _ = run_flow(*job, &worker_portal, &worker_store, &mut stats);
                        }
                        Msg::Flush(done) => {
                            let _ = done.send(());
                        }
                    }
                }
            })
            .expect("spawn publish worker");
        PublishFlow { tx, worker: Some(worker), stats, portal, store }
    }

    /// Enqueue a job (returns immediately).
    pub fn publish(&self, job: FlowJob) {
        let _ = self.tx.send(Msg::Job(Box::new(job)));
    }

    /// Block until every job enqueued so far has been processed.
    pub fn flush(&self) {
        let (done_tx, done_rx) = unbounded();
        if self.tx.send(Msg::Flush(done_tx)).is_ok() {
            let _ = done_rx.recv();
        }
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> FlowStats {
        *self.stats.lock()
    }

    /// Flush, stop the worker and return final statistics.
    pub fn close(self) -> FlowStats {
        self.flush();
        let stats = *self.stats.lock();
        drop(self); // Drop closes the channel and joins the worker.
        stats
    }
}

impl Drop for PublishFlow {
    fn drop(&mut self) {
        if let Some(h) = self.worker.take() {
            let (dummy_tx, _dummy_rx) = unbounded();
            let tx = std::mem::replace(&mut self.tx, dummy_tx);
            drop(tx);
            let _ = h.join();
        }
    }
}

/// The three flow steps for one job, counted into `stats`. Every record
/// is attempted; the first validation failure is returned.
fn run_flow(
    job: FlowJob,
    portal: &AcdcPortal,
    store: &BlobStore,
    stats: &mut FlowStats,
) -> Result<(), String> {
    // Step 1: Transfer — move the image into durable storage, once.
    let image_ref: Option<BlobRef> = job.image.map(|image| {
        stats.blobs += 1;
        store.put(image)
    });

    let mut first_error = None;
    for mut record in job.records {
        if let Some(r) = &image_ref {
            record.set("image_ref", r.0.as_str());
        }
        // Step 2: Ingest — records must survive a serialization roundtrip
        // (the wire format of the real flow).
        match from_json(&to_json(&record)) {
            // Step 3: Index.
            Ok(validated) => {
                portal.ingest(validated);
                stats.published += 1;
            }
            Err(e) => {
                stats.failed += 1;
                first_error.get_or_insert(e.to_string());
            }
        }
    }
    first_error.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_conf::ValueExt;

    fn record(i: i64) -> Value {
        let mut v = Value::map();
        v.set("kind", "sample");
        v.set("experiment_id", "exp-t");
        v.set("sample", i);
        v
    }

    #[test]
    fn background_pipeline_publishes_everything() {
        let portal = Arc::new(AcdcPortal::new());
        let store = Arc::new(BlobStore::in_memory());
        let flow = PublishFlow::start(Arc::clone(&portal), Arc::clone(&store));
        for i in 0..50 {
            flow.publish(FlowJob {
                records: vec![record(i)],
                image: if i % 5 == 0 { Some(Bytes::from(vec![i as u8; 64])) } else { None },
            });
        }
        flow.flush();
        assert_eq!(portal.len(), 50);
        assert_eq!(store.len(), 10);
        let stats = flow.close();
        assert_eq!(stats.published, 50);
        assert_eq!(stats.blobs, 10);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn image_ref_is_patched_into_record() {
        let portal = Arc::new(AcdcPortal::new());
        let store = Arc::new(BlobStore::in_memory());
        run_flow(
            FlowJob { records: vec![record(1)], image: Some(Bytes::from_static(b"img")) },
            &portal,
            &store,
            &mut FlowStats::default(),
        )
        .unwrap();
        let recs = portal.find("sample", "1");
        assert_eq!(recs.len(), 1);
        let blob_ref = recs[0].opt_str("image_ref").unwrap();
        assert!(blob_ref.starts_with("blob:"));
        assert!(store.get(&BlobRef(blob_ref.to_string())).is_some());
    }

    #[test]
    fn one_batch_job_transfers_its_frame_once() {
        let portal = Arc::new(AcdcPortal::new());
        let store = Arc::new(BlobStore::in_memory());
        let flow = PublishFlow::start(Arc::clone(&portal), Arc::clone(&store));
        flow.publish(FlowJob {
            records: vec![record(1), record(2), record(3)],
            image: Some(Bytes::from_static(b"one frame for three samples")),
        });
        let stats = flow.close();
        assert_eq!(store.len(), 1);
        assert_eq!((stats.blobs, stats.published, stats.failed), (1, 3, 0));
        let recs = portal.find("kind", "sample");
        let samples: Vec<i64> = recs.iter().map(|r| r.opt_i64("sample").unwrap()).collect();
        assert_eq!(samples, [1, 2, 3], "records are indexed in job order");
        let refs: Vec<&str> = recs.iter().map(|r| r.opt_str("image_ref").unwrap()).collect();
        assert_eq!(refs, [store.refs()[0].0.as_str(); 3]);
    }

    #[test]
    fn flush_is_a_barrier() {
        let portal = Arc::new(AcdcPortal::new());
        let store = Arc::new(BlobStore::in_memory());
        let flow = PublishFlow::start(Arc::clone(&portal), Arc::clone(&store));
        for i in 0..200 {
            flow.publish(FlowJob { records: vec![record(i)], image: None });
        }
        flow.flush();
        // After flush every record is visible, no sleep needed.
        assert_eq!(portal.len(), 200);
        drop(flow);
    }

    #[test]
    fn drop_joins_the_worker() {
        let portal = Arc::new(AcdcPortal::new());
        let store = Arc::new(BlobStore::in_memory());
        {
            let flow = PublishFlow::start(Arc::clone(&portal), Arc::clone(&store));
            flow.publish(FlowJob { records: vec![record(7)], image: None });
            flow.flush();
        } // drop here must not hang
        assert_eq!(portal.len(), 1);
    }
}
