//! Concurrency stress: many producers hammering the publication pipeline
//! and portal at once (the portal is shared with a live reader in the CLI).

use bytes::Bytes;
use sdl_conf::Value;
use sdl_datapub::{AcdcPortal, BlobStore, FlowJob, PublishFlow};
use std::sync::Arc;

fn record(producer: usize, i: usize) -> Value {
    let mut v = Value::map();
    v.set("kind", "sample");
    v.set("experiment_id", format!("exp-{producer}"));
    v.set("sample", i as i64);
    v
}

#[test]
fn parallel_producers_lose_nothing() {
    let portal = Arc::new(AcdcPortal::new());
    let store = Arc::new(BlobStore::in_memory());
    let flow = Arc::new(PublishFlow::start(Arc::clone(&portal), Arc::clone(&store)));

    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 200;
    crossbeam::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let flow = Arc::clone(&flow);
            scope.spawn(move |_| {
                for i in 0..PER_PRODUCER {
                    let image = if i % 10 == 0 {
                        Some(Bytes::from(vec![(p * 31 + i) as u8; 128]))
                    } else {
                        None
                    };
                    flow.publish(FlowJob { records: vec![record(p, i)], image });
                }
            });
        }
    })
    .unwrap();
    flow.flush();

    assert_eq!(portal.len(), PRODUCERS * PER_PRODUCER);
    for p in 0..PRODUCERS {
        assert_eq!(portal.find("experiment_id", &format!("exp-{p}")).len(), PER_PRODUCER);
    }
    let stats = flow.stats();
    assert_eq!(stats.published, (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.blobs, (PRODUCERS * PER_PRODUCER / 10) as u64);
}

#[test]
fn readers_and_writers_interleave_safely() {
    let portal = Arc::new(AcdcPortal::new());
    crossbeam::thread::scope(|scope| {
        // Writer thread.
        let writer_portal = Arc::clone(&portal);
        scope.spawn(move |_| {
            for i in 0..500 {
                writer_portal.ingest(record(0, i));
            }
        });
        // Concurrent readers never observe torn state (they may observe any
        // prefix of the writes).
        for _ in 0..3 {
            let reader_portal = Arc::clone(&portal);
            scope.spawn(move |_| {
                let mut last = 0;
                for _ in 0..200 {
                    let n = reader_portal.len();
                    assert!(n >= last, "record count must be monotone");
                    last = n;
                    let found = reader_portal.find("kind", "sample");
                    assert!(found.len() <= 500);
                }
            });
        }
    })
    .unwrap();
    assert_eq!(portal.len(), 500);
}
