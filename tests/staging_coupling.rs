//! Cross-crate integration: coupled producer/consumer codes exchanging real
//! solver data through the staging space with version coordination — the
//! DataSpaces usage pattern the adaptation runtime is built on.

use std::sync::Arc;
use xlayer::amr::{Fab, IBox, IntVect};
use xlayer::staging::{AsyncStager, DataObject, DataSpace, Sharding, StageTask};
use xlayer::viz::extract_block;

/// A producer thread stages versioned field slabs through the async
/// transport; a consumer gates on each version's transfers
/// (`wait_processed`, the rendezvous the native workflow's analysis
/// workers use) and extracts an isosurface while later versions are still
/// being enqueued.
#[test]
fn coupled_producer_consumer_via_version_gate() {
    let space = Arc::new(DataSpace::new(4, 64 << 20, Sharding::BboxHash));
    // Two transfer threads and a shallow queue: the producer feels
    // back-pressure, so enqueueing interleaves with the consumer's reads.
    let stager = AsyncStager::new(Arc::clone(&space), 2, 2);
    let stats = stager.stats();
    const VERSIONS: u64 = 8;

    let producer = std::thread::spawn(move || {
        for v in 1..=VERSIONS {
            // A moving spherical field: radius grows with the version.
            let b = IBox::cube(16);
            let mut fab = Fab::new(b, 1);
            for iv in b.cells() {
                let r = ((iv[0] - 8).pow(2) + (iv[1] - 8).pow(2) + (iv[2] - 8).pow(2)) as f64;
                fab.set(iv, 0, r.sqrt() - (2.0 + v as f64 * 0.5));
            }
            // two slabs to exercise multi-object assembly
            let lo = IBox::new(IntVect::new(0, 0, 0), IntVect::new(15, 15, 7));
            let hi = IBox::new(IntVect::new(0, 0, 8), IntVect::new(15, 15, 15));
            stager
                .put_batch(vec![
                    StageTask::Ready(DataObject::from_fab("phi", v, &fab, 0, &lo, 0)),
                    StageTask::Ready(DataObject::from_fab("phi", v, &fab, 0, &hi, 1)),
                ])
                .expect("staging put");
        }
        stager.drain().expect("transfer threads")
    });

    let consumer = {
        let space = Arc::clone(&space);
        std::thread::spawn(move || {
            let mut areas = Vec::new();
            for v in 1..=VERSIONS {
                stats.wait_processed("phi", v, 2);
                let region = IBox::cube(16);
                let (fab, bytes) = space.get_region("phi", v, &region);
                assert!(bytes > 0, "version {v} not found after its transfers");
                let mesh = extract_block(&fab, 0, &region, 0.0, 1.0, [0.0; 3]);
                areas.push(mesh.area());
                space.evict_before("phi", v); // keep memory bounded
            }
            areas
        })
    };

    assert_eq!(producer.join().expect("producer"), (2 * VERSIONS, 0));
    let areas = consumer.join().expect("consumer");
    // The sphere grows ⇒ extracted area grows monotonically.
    for w in areas.windows(2) {
        assert!(w[1] > w[0], "areas not monotone: {areas:?}");
    }
}

#[test]
fn async_stager_with_consumer_drains_cleanly() {
    let space = Arc::new(DataSpace::new(2, 32 << 20, Sharding::BboxHash));
    let stager = AsyncStager::new(Arc::clone(&space), 2, 16);
    let b = IBox::cube(8);
    for v in 1..=20 {
        let fab = Fab::filled(b, 1, v as f64);
        stager
            .put_batch(vec![StageTask::Ready(DataObject::from_fab(
                "u", v, &fab, 0, &b, 0,
            ))])
            .unwrap();
    }
    let (delivered, rejected) = stager.drain().unwrap();
    assert_eq!(delivered + rejected, 20);
    assert_eq!(rejected, 0, "32 MB per server fits 20 × 4 KB objects");
    for v in 1..=20 {
        let objs = space.get("u", v, None);
        assert_eq!(objs.len(), 1);
        let fab = objs[0].to_fab();
        assert_eq!(fab.get(IntVect::ZERO, 0), v as f64);
    }
}

#[test]
fn eviction_under_memory_pressure_keeps_newest() {
    // Server memory fits only ~2 versions; the coupled pattern (evict after
    // consume) keeps the pipeline flowing.
    let b = IBox::cube(16); // 4096 cells = 32 KB
    let space = DataSpace::new(1, 80 << 10, Sharding::BboxHash);
    let fab = Fab::filled(b, 1, 1.0);
    assert!(space
        .put(DataObject::from_fab("u", 1, &fab, 0, &b, 0))
        .is_ok());
    assert!(space
        .put(DataObject::from_fab("u", 2, &fab, 0, &b, 0))
        .is_ok());
    // Third version overflows…
    assert!(space
        .put(DataObject::from_fab("u", 3, &fab, 0, &b, 0))
        .is_err());
    // …until the consumer evicts the consumed version.
    space.evict_before("u", 2);
    assert!(space
        .put(DataObject::from_fab("u", 3, &fab, 0, &b, 0))
        .is_ok());
    assert!(space.get("u", 1, None).is_empty());
    assert_eq!(space.get("u", 3, None).len(), 1);
}
