//! Loopback tests of the sharded staging cluster: gather parity with a
//! single server, exactly-one-shard routing, reads that see every object
//! whichever client staged it, typed per-shard failures that leave the
//! other shards healthy, and a full home shard that refuses rather than
//! spilling to a sibling.

use std::time::Duration;

use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;
use xlayer_net::client::{ClientConfig, RemoteError};
use xlayer_net::cluster::{ShardedClient, StagingCluster};
use xlayer_net::service::ServiceConfig;
use xlayer_staging::{AsyncStager, DataObject, StageTask, Staging};

fn service_cfg(memory_per_server: u64) -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        servers: 1,
        memory_per_server,
        ..ServiceConfig::default()
    }
}

/// A client that fails fast on dead shards (no backoff waits in tests).
fn fast_cfg() -> ClientConfig {
    ClientConfig {
        max_retries: 0,
        connect_timeout: Duration::from_millis(500),
        ..ClientConfig::default()
    }
}

fn obj_at(name: &str, version: u64, lo: IntVect, n: i64) -> DataObject {
    obj_on(name, version, IBox::cube(n).shift(lo))
}

fn obj_on(name: &str, version: u64, b: IBox) -> DataObject {
    let mut fab = Fab::new(b, 1);
    for iv in b.cells() {
        fab.set(
            iv,
            0,
            (iv[0] * 3 + iv[1] * 5 + iv[2] * 7 + version as i64) as f64,
        );
    }
    DataObject::from_fab(name, version, &fab, 0, &b, 0)
}

/// Deterministic pseudo-random stream (no external RNG in this test:
/// the sequence must be identical on every run).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn key_of(o: &DataObject) -> (String, u64, IntVect, IntVect, usize) {
    (
        o.desc.key.name.clone(),
        o.desc.key.version,
        o.desc.bbox.lo(),
        o.desc.bbox.hi(),
        o.desc.origin_rank,
    )
}

#[test]
fn scatter_gather_matches_single_server() {
    let span = 16i64;
    let four = StagingCluster::start(4, &service_cfg(64 << 20)).expect("start 4-shard cluster");
    let one = StagingCluster::start(1, &service_cfg(64 << 20)).expect("start single");
    let c4 = ShardedClient::connect(&four.addrs(), span, ClientConfig::default()).expect("c4");
    let c1 = ShardedClient::connect(&one.addrs(), span, ClientConfig::default()).expect("c1");

    let mut seed = 0x5eed_cafe_u64;
    let mut objs = Vec::new();
    for _ in 0..60 {
        let lo = IntVect::new(
            (lcg(&mut seed) % 200) as i64 - 100,
            (lcg(&mut seed) % 200) as i64 - 100,
            (lcg(&mut seed) % 200) as i64 - 100,
        );
        let n = 1 + (lcg(&mut seed) % span as u64) as i64;
        objs.push(obj_at("rho", 7, lo, n));
    }
    for o in &objs {
        c4.put(o).expect("sharded put");
        c1.put(o).expect("single put");
    }

    let mut queries = vec![
        IBox::new(IntVect::splat(-100), IntVect::splat(115)), // everything
        IBox::new(IntVect::splat(-10), IntVect::splat(40)),   // multi-shard span
        IBox::new(IntVect::new(-100, 0, -100), IntVect::new(100, 3, 100)), // slab
        IBox::cube(2).shift(IntVect::splat(400)),             // miss
    ];
    // Plus a handful of exact object boxes.
    queries.extend(objs.iter().step_by(13).map(|o| o.desc.bbox));

    for q in &queries {
        let got4 = c4.get("rho", 7, Some(*q)).expect("sharded get");
        let got1 = c1.get("rho", 7, Some(*q)).expect("single get");
        assert_eq!(
            got4.iter().map(key_of).collect::<Vec<_>>(),
            got1.iter().map(key_of).collect::<Vec<_>>(),
            "result sets differ for query {q:?}"
        );
        for (a, b) in got4.iter().zip(&got1) {
            assert_eq!(
                a.payload.as_ref(),
                b.payload.as_ref(),
                "payload differs for {:?}",
                a.desc.bbox
            );
        }
    }

    // Full-version fetch and metadata agree too.
    let all4 = c4.get("rho", 7, None).expect("sharded get all");
    let all1 = c1.get("rho", 7, None).expect("single get all");
    assert_eq!(all4.len(), objs.len());
    assert_eq!(
        all4.iter().map(key_of).collect::<Vec<_>>(),
        all1.iter().map(key_of).collect::<Vec<_>>()
    );
    let d4 = c4.describe("rho", 7).expect("describe");
    assert_eq!(d4.len(), objs.len());

    c4.shutdown_all().expect("shutdown 4");
    c1.shutdown_all().expect("shutdown 1");
    four.wait();
    one.wait();
}

#[test]
fn every_object_routes_to_exactly_one_shard() {
    let cluster = StagingCluster::start(4, &service_cfg(64 << 20)).expect("start cluster");
    let client =
        ShardedClient::connect(&cluster.addrs(), 16, ClientConfig::default()).expect("client");

    let mut seed = 1234_u64;
    let mut total_bytes = 0u64;
    let mut put_shards = Vec::new();
    let mut objs = Vec::new();
    for _ in 0..40 {
        let lo = IntVect::new(
            (lcg(&mut seed) % 160) as i64 - 80,
            (lcg(&mut seed) % 160) as i64 - 80,
            (lcg(&mut seed) % 160) as i64 - 80,
        );
        let o = obj_at("rho", 3, lo, 4);
        total_bytes += o.desc.bytes;
        let s = client.put(&o).expect("put");
        assert_eq!(s, client.map().shard_of(&o.desc.bbox), "no spill expected");
        put_shards.push(s);
        objs.push(o);
    }
    // Server-side accounting: every object counted on exactly one shard.
    let snaps: Vec<_> = cluster.snapshots().into_iter().flatten().collect();
    assert_eq!(snaps.len(), 4);
    assert_eq!(snaps.iter().map(|s| s.puts).sum::<u64>(), 40);
    assert_eq!(snaps.iter().map(|s| s.used).sum::<u64>(), total_bytes);
    for (i, snap) in snaps.iter().enumerate() {
        let expected = put_shards.iter().filter(|&&s| s == i).count() as u64;
        assert_eq!(snap.puts, expected, "shard {i} put count");
    }
    // Client-side: each object is found exactly once by its exact box.
    for o in &objs {
        let got = client
            .get("rho", 3, Some(o.desc.bbox))
            .expect("exact-box get");
        let hits = got.iter().filter(|g| g.desc.bbox == o.desc.bbox).count();
        assert_eq!(hits, 1, "object {:?} seen {hits} times", o.desc.bbox);
    }

    client.shutdown_all().expect("shutdown");
    cluster.wait();
}

#[test]
fn a_second_client_sees_an_oversized_object_it_did_not_stage() {
    let cluster = StagingCluster::start(4, &service_cfg(64 << 20)).expect("start cluster");
    let producer =
        ShardedClient::connect(&cluster.addrs(), 8, ClientConfig::default()).expect("producer");
    let analysis =
        ShardedClient::connect(&cluster.addrs(), 8, ClientConfig::default()).expect("analysis");

    // 32 cells long on a span of 8: placed by its low corner on shard 1,
    // far from the buckets the query below starts in.
    let slab = IBox::new(IntVect::new(0, 0, 0), IntVect::new(31, 3, 3));
    assert_eq!(producer.put(&obj_on("rho", 1, slab)).expect("put"), 1);

    let query = IBox::new(IntVect::new(24, 0, 0), IntVect::new(27, 3, 3));
    for (who, client) in [("producer", &producer), ("analysis", &analysis)] {
        let got = client.get("rho", 1, Some(query)).expect("region get");
        assert_eq!(got.len(), 1, "{who} saw {} objects", got.len());
        assert_eq!(got[0].desc.bbox, slab);
    }

    producer.shutdown_all().expect("shutdown");
    cluster.wait();
}

#[test]
fn shard_down_is_typed_and_leaves_other_shards_healthy() {
    let mut cluster = StagingCluster::start(3, &service_cfg(64 << 20)).expect("start cluster");
    let client = ShardedClient::connect(&cluster.addrs(), 8, fast_cfg()).expect("client");
    let map = *client.map();

    // Deterministically probe for boxes homed on each shard.
    let homed_on = |shard: usize| -> IBox {
        (0..)
            .map(|i| IBox::cube(4).shift(IntVect::splat(i * 8)))
            .find(|b| map.shard_of(b) == shard)
            .expect("some box homes on every shard")
    };
    let on_dead = homed_on(1);
    let on_live = homed_on(0);

    // Warm the surviving shards before the fault.
    for b in [on_live, homed_on(2)] {
        client.put(&obj_on("rho", 1, b)).expect("pre-fault put");
    }

    assert!(cluster.stop_shard(1), "shard 1 was running");

    // Put routed to the dead shard: typed error naming it. Transport
    // faults must NOT spill — a dead shard stays visible.
    let err = client
        .put(&obj_on("rho", 2, on_dead))
        .expect_err("put to dead shard must fail");
    assert_eq!(err.shard, 1);
    assert!(
        matches!(err.source, RemoteError::Io(_)),
        "expected transport error, got {:?}",
        err.source
    );

    // Every read asks every shard: a full-version gather and a region get
    // of a box homed on a live shard both fail typed, naming the dead one.
    let err = client
        .get("rho", 1, None)
        .expect_err("gather across dead shard must fail");
    assert_eq!(err.shard, 1);
    let err = client
        .get("rho", 1, Some(on_live))
        .expect_err("region get across dead shard must fail");
    assert_eq!(err.shard, 1);

    // The live shards' pooled connections were not poisoned.
    client
        .put(&obj_at("rho", 3, on_live.lo(), 4))
        .expect("put to live shard after fault");
    let stats = client
        .shard_client(0)
        .expect("shard 0 client")
        .service_stats()
        .expect("live shard stats after fault");
    assert!(stats.puts >= 1);

    // An eviction past the dead shard still reaches the shards after it,
    // then reports the dead one.
    let used = cluster.used_per_shard();
    assert!(used[0] > 0 && used[2] > 0, "{used:?}");
    let err = client
        .evict_before("rho", 4)
        .expect_err("eviction across dead shard must fail");
    assert_eq!(err.shard, 1);
    assert_eq!(cluster.used_per_shard(), vec![0, 0, 0]);

    client
        .shard_client(0)
        .expect("shard 0")
        .shutdown()
        .expect("shutdown 0");
    client
        .shard_client(2)
        .expect("shard 2")
        .shutdown()
        .expect("shutdown 2");
    cluster.wait();
}

#[test]
fn the_staging_trait_reports_a_dead_shard_instead_of_an_empty_read() {
    // What the workflow's analysis workers call: a read or an eviction
    // that one shard cannot answer is an error naming that shard, never a
    // partial answer passed off as the whole version.
    let mut cluster = StagingCluster::start(3, &service_cfg(64 << 20)).expect("start cluster");
    let client = ShardedClient::connect(&cluster.addrs(), 8, fast_cfg()).expect("client");
    let map = *client.map();
    let on_live = (0..)
        .map(|i| IBox::cube(4).shift(IntVect::splat(i * 8)))
        .find(|b| map.shard_of(b) == 0)
        .expect("some box homes on shard 0");
    client.put(&obj_on("rho", 1, on_live)).expect("put");
    assert!(cluster.used_per_shard()[0] > 0);
    assert!(cluster.stop_shard(1), "shard 1 was running");

    let err = Staging::get(&client, "rho", 1, None, None).expect_err("read across a dead shard");
    assert!(err.0.contains("shard 1"), "{err}");
    let err = Staging::evict_before(&client, "rho", 2).expect_err("evict across a dead shard");
    assert!(err.0.contains("shard 1"), "{err}");
    // The eviction still reached the live shards.
    assert_eq!(cluster.used_per_shard()[0], 0);
    cluster.shutdown();
}

#[test]
fn full_home_shard_refuses_naming_itself() {
    // Two shards, 2 KiB each; 512 B objects sharing one home bucket.
    let cluster = StagingCluster::start(2, &service_cfg(2048)).expect("start cluster");
    let client =
        ShardedClient::connect(&cluster.addrs(), 8, ClientConfig::default()).expect("client");
    let lo = IntVect::ZERO;
    let home = client.map().shard_of(&IBox::cube(4));

    // Four fill the home shard.
    for v in 1..=4 {
        assert_eq!(client.put(&obj_at("rho", v, lo, 4)).expect("fill"), home);
    }
    // The fifth is refused by its home, though the sibling has room:
    // typed OutOfMemory naming that home, so the workflow can fall back
    // per object.
    let err = client.put(&obj_at("rho", 5, lo, 4)).expect_err("home full");
    assert_eq!(err.shard, home, "error must name the home shard");
    assert!(
        matches!(err.source, RemoteError::OutOfMemory { .. }),
        "expected OutOfMemory, got {:?}",
        err.source
    );
    assert!(client.get("rho", 5, None).expect("get").is_empty());
    // Accounting: the home full, nothing on the sibling.
    let mut want = vec![0, 0];
    want[home] = 2048;
    assert_eq!(cluster.used_per_shard(), want);

    client.shutdown_all().expect("shutdown");
    cluster.wait();
}

#[test]
fn stager_over_a_cluster_counts_per_shard_rejections() {
    let cluster = StagingCluster::start(2, &service_cfg(2048)).expect("start cluster");
    let client =
        ShardedClient::connect(&cluster.addrs(), 8, ClientConfig::default()).expect("client");
    let stager = AsyncStager::new(std::sync::Arc::new(client.clone()), 1, 64);

    // 10 × 512 B, one home bucket, into 2 × 2 KiB: 4 delivered to the
    // home shard, 6 rejected by it.
    let tasks: Vec<StageTask> = (1..=10)
        .map(|v| StageTask::Ready(obj_at("rho", v, IntVect::ZERO, 4)))
        .collect();
    use std::sync::atomic::Ordering::Relaxed;
    let stats = stager.stats();
    stager.put_batch(tasks).expect("enqueue");
    // Wait until every task is resolved, then read the per-shard view
    // (drain consumes the stager).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while stats.delivered.load(Relaxed) + stats.rejected.load(Relaxed) + stats.failed.load(Relaxed)
        < 10
    {
        assert!(std::time::Instant::now() < deadline, "stager stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let by_shard: Vec<u64> = client
        .shard_stats()
        .into_iter()
        .map(|s| s.expect("shard stats").rejected_oom)
        .collect();
    let home = client.map().shard_of(&IBox::cube(4));
    let (delivered, rejected) = stager.drain().expect("drain");
    assert_eq!((delivered, rejected), (4, 6));
    assert_eq!(stats.failed.load(Relaxed), 0);
    assert_eq!(by_shard[home], 6, "the home shard counts its rejections");
    assert_eq!(by_shard.iter().sum::<u64>(), 6);
    let mut want = vec![0, 0];
    want[home] = 2048;
    assert_eq!(cluster.used_per_shard(), want);

    client.shutdown_all().expect("shutdown");
    cluster.wait();
}

#[test]
fn headroom_reports_memory_and_disk_tier_from_one_snapshot_per_shard() {
    use xlayer_staging::Staging;
    let dir = std::env::temp_dir().join(format!("xlayer-tier-headroom-{}", std::process::id()));
    const BUDGET: u64 = 1 << 20;
    let cfg = ServiceConfig {
        disk_dir: Some(dir.clone()),
        disk_budget: BUDGET,
        ..service_cfg(2048)
    };
    let cluster = StagingCluster::start(2, &cfg).expect("start tiered cluster");
    let client =
        ShardedClient::connect(&cluster.addrs(), 8, ClientConfig::default()).expect("client");
    assert_eq!(client.headroom(), (2 * 2048, 2 * BUDGET));

    // 8 × 512 B onto one 2 KiB home shard: half of them spill to its disk
    // log, nothing is rejected and nothing leaves the shard.
    for v in 1..=8 {
        client
            .put(&obj_at("rho", v, IntVect::ZERO, 4))
            .expect("tiered put");
    }
    let home = client.map().shard_of(&IBox::cube(4));
    assert_eq!(cluster.used_per_shard()[1 - home], 0);
    let (want_mem, want_disk) = client
        .shard_stats()
        .into_iter()
        .map(|s| s.expect("shard stats"))
        .fold((0, 0), |(m, d), s| {
            (m + (s.capacity - s.used), d + s.tier_disk_headroom)
        });
    assert!(want_disk < 2 * BUDGET, "nothing spilled to the disk tier");
    let (mem, disk) = Staging::headroom(&client);
    assert_eq!((mem, disk), (want_mem, want_disk));
    assert_eq!(client.total_headroom(), want_mem);

    client.shutdown_all().expect("shutdown");
    cluster.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One version of the advect workload as the analysis fetches it: a
/// Gaussian (σ = n/8) at the centre of a 128³ level, staged as 64 objects
/// of a 32³ core plus a one-cell halo. At iso 0.5 its surface crosses the
/// 8 objects around the centre.
fn advect_version(version: u64) -> Vec<DataObject> {
    let (n, side) = (128i64, 32i64);
    let sigma = n as f64 / 8.0;
    let mut objects = Vec::new();
    for bz in 0..n / side {
        for by in 0..n / side {
            for bx in 0..n / side {
                let lo = IntVect::new(bx * side, by * side, bz * side);
                let core = IBox::new(lo, lo + IntVect::splat(side - 1));
                let halo = core.grow(1);
                let mut fab = Fab::new(halo, 1);
                for iv in halo.cells() {
                    let r2: f64 = (0..3)
                        .map(|d| (iv[d] as f64 + 0.5 - n as f64 / 2.0).powi(2))
                        .sum();
                    fab.set(iv, 0, (-r2 / (2.0 * sigma * sigma)).exp());
                }
                objects.push(
                    DataObject::from_fab("field", version, &fab, 0, &halo, 0).with_core(&core),
                );
            }
        }
    }
    objects
}

#[test]
fn a_filtered_get_sends_only_the_objects_the_surface_crosses() {
    use xlayer_net::wire::{Response, ServiceSnapshot, CHUNK, CHUNK_PREFIX_LEN, HEADER_LEN};
    let cluster = StagingCluster::start(2, &service_cfg(64 << 20)).expect("start cluster");
    let client = ShardedClient::connect(&cluster.addrs(), 32, fast_cfg()).expect("client");
    let objects = advect_version(1);
    for o in &objects {
        client.put(o).expect("put");
    }
    let crossing: Vec<&DataObject> = objects
        .iter()
        .filter(|o| o.desc.may_cross(Some(0.5)))
        .collect();
    assert_eq!(crossing.len(), 8);

    // Bytes each shard has written, read over the connection the get used:
    // a shard serves one connection's requests in order, so the `Stats`
    // after a get counts every byte of it.
    let sent = || -> u64 {
        client
            .shard_stats()
            .into_iter()
            .map(|s| s.expect("shard stats").bytes_out)
            .sum()
    };
    let stats_frames = 2 * Response::StatsOk(ServiceSnapshot::default())
        .encode(0)
        .len() as u64;
    let before = sent();
    let got = client
        .get_crossing("field", 1, None, Some(0.5))
        .expect("filtered get");
    let moved = sent() - before - stats_frames;

    let mut want: Vec<&DataObject> = crossing.clone();
    want.sort_by_key(|o| (o.desc.bbox.lo(), o.desc.bbox.hi()));
    assert_eq!(got.len(), 8);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!((&g.desc, &g.payload), (&w.desc, &w.payload));
    }
    // Exactly the 8 objects' payloads and their framing: per shard the
    // stream's descriptor head and end frame, per object its descriptor
    // and its chunks' frame headers and prefixes. Nothing of the other 56.
    let desc_len = (Response::QueryOk(vec![objects[0].desc.clone()])
        .encode(0)
        .len()
        - Response::QueryOk(Vec::new()).encode(0).len()) as u64;
    let per_shard = (HEADER_LEN + 4 + HEADER_LEN + 12) as u64;
    let payload: u64 = crossing.iter().map(|o| o.desc.bytes).sum();
    let chunks: u64 = crossing
        .iter()
        .map(|o| o.desc.bytes.div_ceil(CHUNK as u64))
        .sum();
    assert_eq!(payload, 8 * 34 * 34 * 34 * 8);
    assert_eq!(
        moved,
        2 * per_shard + 8 * desc_len + chunks * (HEADER_LEN + CHUNK_PREFIX_LEN) as u64 + payload
    );

    // The unfiltered get of the same version moves all 64.
    let before = sent();
    assert_eq!(client.get("field", 1, None).expect("get").len(), 64);
    let all = sent() - before - stats_frames;
    assert!(all > 64 * objects[0].desc.bytes, "{all}");

    client.shutdown_all().expect("shutdown");
    cluster.wait();
}
