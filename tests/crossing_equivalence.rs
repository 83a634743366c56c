//! A get filtered by an isovalue (`crossing`) must never change the
//! surface: for every staging layer that evaluates the predicate — the
//! in-process space, a tiered space whose key is spilled (through both the
//! promote and the serve-from-disk branch) and a 2-shard loopback cluster —
//! a filtered get followed by `extract_payload_into` yields the very mesh,
//! every vertex bit and every triangle, that the unfiltered get followed by
//! the same extract does. The fields are built to stress the predicate's
//! edges: NaN, ±∞, values exactly equal to the isovalue, all-NaN objects,
//! constant objects equal to the isovalue, and halos that differ from the
//! core.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use xlayer::amr::{Fab, IBox, IntVect};
use xlayer::net::cluster::{ShardedClient, StagingCluster};
use xlayer::net::service::ServiceConfig;
use xlayer::net::ClientConfig;
use xlayer::staging::{BufferPool, DataObject, DataSpace, Sharding, TierConfig};
use xlayer::viz::{extract_payload_into, TriMesh};

/// Isovalues the cases draw from: ordinary, on the value grid (so field
/// values equal them), and the degenerate ones.
const ISOS: [f64; 8] = [
    0.5,
    0.25,
    1.0,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One sample: a quarter-step value in [-1, 2], so many equal the
/// isovalue exactly, or (one time in five) NaN or an infinity.
fn sample(rng: &mut Lcg, iso: f64) -> f64 {
    match rng.below(20) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => iso,
        _ => rng.below(13) as f64 * 0.25 - 1.0,
    }
}

/// `count` objects of one version, each a random box (halo) with a core
/// inside it, filled one of five ways: all NaN, constant at the isovalue,
/// constant elsewhere, a ramp across the value grid, or noise.
fn version(seed: u64, count: u64, iso: f64, v: u64) -> Vec<DataObject> {
    let mut rng = Lcg(seed);
    (0..count)
        .map(|i| {
            let lo = IntVect::new(i as i64 * 12, rng.below(5) as i64, rng.below(5) as i64);
            let size = IntVect::new(
                2 + rng.below(6) as i64,
                2 + rng.below(6) as i64,
                2 + rng.below(6) as i64,
            );
            let bbox = IBox::new(lo, lo + size - IntVect::UNIT);
            let kind = rng.below(5);
            let constant = rng.below(13) as f64 * 0.25 - 1.0;
            let mut fab = Fab::new(bbox, 1);
            for iv in bbox.cells() {
                let value = match kind {
                    0 => f64::NAN,
                    1 => iso,
                    2 => constant,
                    3 => (iv[0] - lo[0]) as f64 * 0.25 + constant,
                    _ => sample(&mut rng, iso),
                };
                fab.set(iv, 0, value);
            }
            // A core that leaves some of the box as halo on either side.
            let core_lo = lo + IntVect::new(rng.below(2) as i64, rng.below(2) as i64, 0);
            let core = IBox::new(core_lo, bbox.hi() - IntVect::new(0, 0, rng.below(2) as i64));
            DataObject::from_fab("field", v, &fab, 0, &bbox, 0)
                .with_core(&core)
                .with_dx(0.5)
        })
        .collect()
}

/// The worker's extract: every object into one mesh, in fetch order.
fn extract(objects: &[Arc<DataObject>], iso: f64) -> TriMesh {
    let mut mesh = TriMesh::new();
    for obj in objects {
        let d = &obj.desc;
        extract_payload_into(
            &obj.payload,
            &d.bbox,
            &d.core,
            iso,
            d.dx,
            [0.0; 3],
            &mut mesh,
        );
    }
    mesh
}

/// Bit-identical meshes: same vertex bits, same triangles.
fn same_mesh(a: &TriMesh, b: &TriMesh) -> bool {
    let bits =
        |m: &TriMesh| -> Vec<[u64; 3]> { m.vertices.iter().map(|p| p.map(f64::to_bits)).collect() };
    bits(a) == bits(b) && a.triangles == b.triangles
}

static SEQ: AtomicU64 = AtomicU64::new(0);

/// A one-server tiered space with `cap` bytes of memory, under its own
/// temporary directory.
fn tiered(cap: u64) -> (DataSpace, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "xlayer-tierprop-crossing-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let cfg = TierConfig::new(&dir).with_chunk_size(256);
    let space = DataSpace::new_tiered(
        1,
        cap,
        Sharding::BboxHash,
        &cfg,
        Arc::new(BufferPool::new()),
    )
    .expect("tiered space");
    (space, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filtered_gets_extract_the_same_mesh_from_memory_and_from_disk(
        seed in 0u64..1 << 40,
        count in 1u64..7,
        iso_at in 0usize..ISOS.len(),
    ) {
        let iso = ISOS[iso_at];
        let objects = version(seed, count, iso, 1);
        let bytes: u64 = objects.iter().map(|o| o.desc.bytes).sum();

        // In memory, across shards.
        let space = DataSpace::new(3, u64::MAX / 8, Sharding::BboxHash);
        for o in &objects {
            space.put(o.clone()).unwrap();
        }
        let all = space.get("field", 1, None);
        let some = space.get_crossing("field", 1, None, Some(iso));
        prop_assert_eq!(all.len(), objects.len());
        prop_assert!(some.iter().all(|o| o.desc.may_cross(Some(iso))));
        prop_assert!(same_mesh(&extract(&some, iso), &extract(&all, iso)));

        // Spilled, then promoted: memory holds one version, so putting
        // version 2 demotes version 1 whole, and its get promotes it back
        // (demoting version 2). Two identical spaces, one get each, so
        // both reads take the promote branch.
        let promoted = |crossing| {
            let (space, dir) = tiered(bytes);
            for v in [1, 2] {
                for o in version(seed, count, iso, v) {
                    space.put(o).unwrap();
                }
            }
            let got = space.get_crossing("field", 1, None, crossing);
            let tier = space.tier_stats();
            let _ = std::fs::remove_dir_all(dir);
            (got, tier.promoted)
        };
        let (all, promotes_all) = promoted(None);
        let (some, promotes_some) = promoted(Some(iso));
        prop_assert_eq!((promotes_all, promotes_some), (count, count));
        prop_assert!(same_mesh(&extract(&some, iso), &extract(&all, iso)));

        // Spilled and served from disk: memory holds less than one object,
        // so every object lives on disk and the get reads it from there.
        let from_disk = |crossing| {
            let (space, dir) = tiered(0);
            for o in &objects {
                space.put(o.clone()).unwrap();
            }
            let got = space.get_crossing("field", 1, None, crossing);
            let tier = space.tier_stats();
            let _ = std::fs::remove_dir_all(dir);
            (got, tier.promoted, tier.disk_hits)
        };
        let (all, promotes_all, hits_all) = from_disk(None);
        let (some, promotes_some, _) = from_disk(Some(iso));
        prop_assert_eq!((promotes_all, promotes_some, hits_all), (0, 0, 1));
        prop_assert!(same_mesh(&extract(&some, iso), &extract(&all, iso)));
        prop_assert_eq!(some.len(), objects.iter().filter(|o| o.desc.may_cross(Some(iso))).count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn filtered_gets_extract_the_same_mesh_through_a_sharded_cluster(
        seed in 0u64..1 << 40,
        count in 1u64..7,
        iso_at in 0usize..ISOS.len(),
    ) {
        let iso = ISOS[iso_at];
        let cfg = ServiceConfig {
            servers: 1,
            memory_per_server: 64 << 20,
            ..ServiceConfig::default()
        };
        let cluster = StagingCluster::start(2, &cfg).expect("start cluster");
        let client =
            ShardedClient::connect(&cluster.addrs(), 8, ClientConfig::default()).expect("client");
        for o in version(seed, count, iso, 1) {
            client.put(&o).expect("put");
        }
        let fetch = |crossing| -> Vec<Arc<DataObject>> {
            let got = client.get_crossing("field", 1, None, crossing).expect("get");
            got.into_iter().map(Arc::new).collect()
        };
        let (all, some) = (fetch(None), fetch(Some(iso)));
        prop_assert_eq!(all.len() as u64, count);
        prop_assert!(some.iter().all(|o| o.desc.may_cross(Some(iso))));
        prop_assert!(same_mesh(&extract(&some, iso), &extract(&all, iso)));
        client.shutdown_all().expect("shutdown");
        cluster.wait();
    }
}
