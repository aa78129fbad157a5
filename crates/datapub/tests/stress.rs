//! Concurrency stress: many producers publishing into one portal and
//! blob store at once (the portal is shared with a live reader in the CLI).

use bytes::Bytes;
use sdl_conf::Value;
use sdl_datapub::{publish, AcdcPortal, BlobStore, FlowStats};

fn record(producer: usize, i: usize) -> Value {
    let mut v = Value::map();
    v.set("kind", "sample");
    v.set("experiment_id", format!("exp-{producer}"));
    v.set("sample", i as i64);
    v
}

#[test]
fn parallel_producers_lose_nothing() {
    let portal = AcdcPortal::new();
    let store = BlobStore::in_memory();

    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 200;
    let per_producer: Vec<FlowStats> = std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (portal, store) = (&portal, &store);
                scope.spawn(move || {
                    let mut stats = FlowStats::default();
                    for i in 0..PER_PRODUCER {
                        let image = if i % 10 == 0 {
                            Some(Bytes::from(vec![(p * 31 + i) as u8; 128]))
                        } else {
                            None
                        };
                        publish(portal, store, vec![record(p, i)], image, &mut stats);
                    }
                    stats
                })
            })
            .collect();
        producers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(portal.len(), PRODUCERS * PER_PRODUCER);
    for p in 0..PRODUCERS {
        assert_eq!(portal.find("experiment_id", &format!("exp-{p}")).len(), PER_PRODUCER);
    }
    let total = |count: fn(&FlowStats) -> u64| per_producer.iter().map(count).sum::<u64>();
    assert_eq!(total(|s| s.published), (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(total(|s| s.failed), 0);
    assert_eq!(total(|s| s.blobs), (PRODUCERS * PER_PRODUCER / 10) as u64);
}

#[test]
fn readers_and_writers_interleave_safely() {
    let portal = AcdcPortal::new();
    std::thread::scope(|scope| {
        // Writer thread.
        scope.spawn(|| {
            for i in 0..500 {
                portal.ingest(record(0, i));
            }
        });
        // Concurrent readers never observe torn state (they may observe any
        // prefix of the writes).
        for _ in 0..3 {
            scope.spawn(|| {
                let mut last = 0;
                for _ in 0..200 {
                    let n = portal.len();
                    assert!(n >= last, "record count must be monotone");
                    last = n;
                    let found = portal.find("kind", "sample");
                    assert!(found.len() <= 500);
                }
            });
        }
    });
    assert_eq!(portal.len(), 500);
}
