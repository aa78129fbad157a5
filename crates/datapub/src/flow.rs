//! The publication pipeline — the Globus-flow substitute.
//!
//! On the real system each iteration fires a Globus flow that transfers
//! the plate image, ingests the records and updates the search index.
//! [`publish`] runs those three steps — Transfer (blob store), Ingest
//! (JSON validation), Index (portal) — for one batch on the caller's
//! thread: the batch's plate frame is transferred (and hashed) once, and
//! every record of the batch carries the same `image_ref`.

use crate::portal::AcdcPortal;
use crate::store::BlobStore;
use bytes::Bytes;
use sdl_conf::{from_json, to_json, Value};

/// Pipeline statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowStats {
    /// Records published end-to-end.
    pub published: u64,
    /// Records that failed validation.
    pub failed: u64,
    /// Blobs transferred: one per batch that carried an image.
    pub blobs: u64,
}

/// Publish one batch into `portal` and `store`, counted into `stats`:
/// transfer `image` once, patch its blob reference into every record's
/// `image_ref`, then validate each record by a JSON round trip and index
/// it, in order. A record that fails validation is counted and skipped.
pub fn publish(
    portal: &AcdcPortal,
    store: &BlobStore,
    records: Vec<Value>,
    image: Option<Bytes>,
    stats: &mut FlowStats,
) {
    // Step 1: Transfer — move the image into durable storage, once.
    let image_ref = image.map(|image| {
        stats.blobs += 1;
        store.put(image)
    });
    for mut record in records {
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
            Err(_) => stats.failed += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::BlobRef;
    use sdl_conf::ValueExt;

    fn record(i: i64) -> Value {
        let mut v = Value::map();
        v.set("kind", "sample");
        v.set("experiment_id", "exp-t");
        v.set("sample", i);
        v
    }

    #[test]
    fn image_ref_is_patched_into_record() {
        let portal = AcdcPortal::new();
        let store = BlobStore::in_memory();
        let mut stats = FlowStats::default();
        publish(&portal, &store, vec![record(1)], Some(Bytes::from_static(b"img")), &mut stats);
        let recs = portal.find("sample", "1");
        assert_eq!(recs.len(), 1);
        let blob_ref = recs[0].opt_str("image_ref").unwrap();
        assert!(blob_ref.starts_with("blob:"));
        assert!(store.get(&BlobRef(blob_ref.to_string())).is_some());
    }

    #[test]
    fn one_batch_job_transfers_its_frame_once() {
        let portal = AcdcPortal::new();
        let store = BlobStore::in_memory();
        let mut stats = FlowStats::default();
        let frame = Bytes::from_static(b"one frame for three samples");
        publish(&portal, &store, vec![record(1), record(2), record(3)], Some(frame), &mut stats);
        assert_eq!(store.len(), 1);
        assert_eq!((stats.blobs, stats.published, stats.failed), (1, 3, 0));
        let recs = portal.find("kind", "sample");
        let samples: Vec<i64> = recs.iter().map(|r| r.opt_i64("sample").unwrap()).collect();
        assert_eq!(samples, [1, 2, 3], "records are indexed in job order");
        let refs: Vec<&str> = recs.iter().map(|r| r.opt_str("image_ref").unwrap()).collect();
        assert_eq!(refs, [store.refs()[0].0.as_str(); 3]);
    }
}
