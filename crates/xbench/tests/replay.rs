//! Loopback replay: every stream of a mixed spec runs on its own thread
//! with its own `ShardedClient` against a two-shard staging cluster, and
//! the services' own counters must match the spec's I/O-free replay
//! (`expected_totals`) exactly — the streams are seeded, so the op counts
//! and the put bytes are known before any socket opens.

use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;
use xlayer_net::service::ServiceConfig;
use xlayer_net::{ClientConfig, ShardedClient, StagingCluster};
use xlayer_staging::DataObject;
use xlayer_xbench::{PlannedOp, SpecTotals, WorkloadSpec};

/// A `side`³ cube with its low corner at `origin · span`, filled with LCG
/// draws seeded by `(seed, version, tag)`.
fn cube(
    spec: &WorkloadSpec,
    name: &str,
    version: u64,
    side: u32,
    origin: [u32; 3],
    tag: usize,
) -> DataObject {
    let lo = IntVect::new(
        i64::from(origin[0]) * spec.span,
        i64::from(origin[1]) * spec.span,
        i64::from(origin[2]) * spec.span,
    );
    let bbox = IBox::new(lo, lo + IntVect::splat(i64::from(side) - 1));
    let mut fab = Fab::new(bbox, 1);
    let mut state = spec.seed ^ (version << 32) ^ tag as u64;
    for v in fab.as_mut_slice() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = (state >> 11) as f64 / (1u64 << 53) as f64;
    }
    DataObject::from_fab(name, version, &fab, 0, &bbox, tag)
}

/// Replay stream `(agent, conn)` through `client`: puts store a seeded cube
/// under a name private to the stream, gets re-read the stream's last put
/// and check it byte for byte, drains evict the last put's name below its
/// latest version. Returns the ops performed and the bytes put.
fn replay(spec: &WorkloadSpec, client: &ShardedClient, agent: u32, conn: u32) -> SpecTotals {
    let tag = (agent * spec.connections + conn) as usize;
    let mut versions = vec![0u64; spec.names as usize];
    let mut last: Option<DataObject> = None;
    let mut done = SpecTotals::default();
    for op in spec.stream(agent, conn, spec.ops_per_conn) {
        match op {
            PlannedOp::Put {
                name_idx,
                side,
                origin,
            } => {
                let version = &mut versions[name_idx as usize];
                *version += 1;
                let name = format!("a{agent}c{conn}n{name_idx}");
                let obj = cube(spec, &name, *version, side, origin, tag);
                client.put(&obj).expect("put");
                done.puts += 1;
                done.put_bytes += obj.desc.bytes;
                last = Some(obj);
            }
            PlannedOp::Get => {
                let want = last.as_ref().expect("a stream starts with a put");
                let key = &want.desc.key;
                // A get through the cluster asks every shard; asking the
                // home shard alone makes the services' `gets` counter the
                // op count, and proves the put landed at home.
                let home = client.map().shard_of(&want.desc.bbox);
                let got = client
                    .shard_client(home)
                    .expect("home shard")
                    .get(&key.name, key.version, Some(want.desc.bbox))
                    .expect("get");
                assert_eq!(got.len(), 1, "{key:?}: exactly the stream's own object");
                assert_eq!(got[0].desc, want.desc);
                assert_eq!(got[0].payload, want.payload, "{key:?}: payload bytes");
                done.gets += 1;
            }
            PlannedOp::Drain => {
                let key = &last.as_ref().expect("a stream starts with a put").desc.key;
                client.evict_before(&key.name, key.version).expect("drain");
                done.drains += 1;
            }
        }
    }
    done
}

#[test]
fn mixed_spec_replays_to_the_exact_expected_totals() {
    let cluster = StagingCluster::start(2, &ServiceConfig::default()).expect("cluster start");
    let spec = WorkloadSpec {
        seed: 11,
        agents: 2,
        connections: 2,
        ops_per_conn: 30,
        side_min: 4,
        side_max: 8,
        names: 3,
        spread: 2,
        ..WorkloadSpec::default()
    };
    assert!(spec.put_weight > 0 && spec.get_weight > 0 && spec.drain_weight > 0);
    let expected = spec.expected_totals();
    assert!(expected.puts > 0 && expected.gets > 0 && expected.drains > 0);

    let addrs = cluster.addrs();
    let done: Vec<SpecTotals> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.agents)
            .flat_map(|agent| (0..spec.connections).map(move |conn| (agent, conn)))
            .map(|(agent, conn)| {
                let (spec, addrs) = (&spec, &addrs);
                s.spawn(move || {
                    let client = ShardedClient::connect(addrs, spec.span, ClientConfig::default())
                        .expect("connect");
                    replay(spec, &client, agent, conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread"))
            .collect()
    });
    let performed = done.iter().fold(SpecTotals::default(), |a, t| SpecTotals {
        puts: a.puts + t.puts,
        gets: a.gets + t.gets,
        drains: a.drains + t.drains,
        put_bytes: a.put_bytes + t.put_bytes,
    });
    assert_eq!(performed, expected);

    // The services saw exactly the replayed ops: every put and get once,
    // every drain once per shard.
    let snaps: Vec<_> = cluster
        .snapshots()
        .into_iter()
        .map(|s| s.expect("shard running"))
        .collect();
    assert_eq!(snaps.iter().map(|s| s.puts).sum::<u64>(), expected.puts);
    assert_eq!(snaps.iter().map(|s| s.gets).sum::<u64>(), expected.gets);
    assert_eq!(
        snaps.iter().map(|s| s.deletes).sum::<u64>(),
        expected.drains * snaps.len() as u64
    );
    assert!(snaps
        .iter()
        .all(|s| s.rejected_oom == 0 && s.wire_errors == 0));
    cluster.shutdown();
}
