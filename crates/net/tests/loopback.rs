//! Integration tests: a real `StagingService` on a loopback socket, driven
//! by `RemoteClient`, by `AsyncStager` over a one-shard `ShardedClient`
//! and, for the malformed-frame cases, by a raw TCP stream.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;
use xlayer_net::client::{ClientConfig, RemoteClient, RemoteError};
use xlayer_net::cluster::ShardedClient;
use xlayer_net::service::{ServiceConfig, StagingService};
use xlayer_net::wire::{
    decode_header, encode_chunk_end, encode_frame, verify_payload, ChunkEnd, ErrorFrame, Frame,
    Opcode, Request, Response, HEADER_LEN, MAGIC,
};
use xlayer_staging::{AsyncStager, Cluster, DataObject, StageTask};

fn obj(name: &str, version: u64, lo: i64, fill: f64) -> DataObject {
    let b = IBox::cube(4).shift(IntVect::splat(lo));
    let fab = Fab::filled(b, 1, fill);
    DataObject::from_fab(name, version, &fab, 0, &b, 0).with_dx(0.25)
}

fn quick_cfg() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Duration::from_secs(5),
        pool_size: 2,
        max_retries: 2,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
    }
}

fn quick_client(addr: &str) -> RemoteClient {
    RemoteClient::connect(addr, quick_cfg()).unwrap()
}

/// The service at `addr` as the stager's backend: a one-shard cluster.
fn one_shard(addr: &str) -> std::sync::Arc<Cluster<RemoteClient>> {
    let client = ShardedClient::connect(&[addr], 64, quick_cfg()).unwrap();
    std::sync::Arc::clone(client.cluster())
}

fn start_service(memory_per_server: u64) -> StagingService {
    StagingService::start(ServiceConfig {
        servers: 2,
        memory_per_server,
        ..ServiceConfig::default()
    })
    .unwrap()
}

#[test]
fn put_get_query_delete_roundtrip() {
    let service = start_service(16 << 20);
    let client = quick_client(&service.local_addr().to_string());

    let a = obj("rho", 3, 0, 1.5);
    let b = obj("rho", 3, 8, -2.25);
    client.put(&a).unwrap();
    client.put(&b).unwrap();

    // Payloads come back bit-identical.
    let got = client.get("rho", 3, None).unwrap();
    assert_eq!(got.len(), 2);
    for o in &got {
        let want = if o.desc.bbox == a.desc.bbox { &a } else { &b };
        assert_eq!(o.desc, want.desc);
        assert_eq!(o.payload.as_ref(), want.payload.as_ref());
    }

    // Spatial query clips to the intersecting object only.
    let clipped = client.get("rho", 3, Some(IBox::cube(4))).unwrap();
    assert_eq!(clipped.len(), 1);
    assert_eq!(clipped[0].desc, a.desc);

    // Metadata-only query.
    let descs = client.describe("rho", 3).unwrap();
    assert_eq!(descs.len(), 2);
    assert!(descs.iter().all(|d| d.key.version == 3));

    // Evict and observe the space drain.
    let freed = client.evict_before("rho", 4).unwrap();
    assert_eq!(freed, a.desc.bytes + b.desc.bytes);
    assert!(client.get("rho", 3, None).unwrap().is_empty());

    let snap = client.service_stats().unwrap();
    assert_eq!(snap.puts, 2);
    assert_eq!(snap.gets, 3);
    assert_eq!(snap.queries, 1);
    assert_eq!(snap.deletes, 1);
    assert_eq!(snap.rejected_oom, 0);
    assert_eq!(snap.used, 0);
    assert!(snap.bytes_in > 0 && snap.bytes_out > 0);

    service.shutdown();
}

#[test]
fn oom_is_typed_and_never_retried() {
    // Space fits one 512 B object per server; a second put to the same
    // shard must come back as OutOfMemory.
    let service = StagingService::start(ServiceConfig {
        servers: 1,
        memory_per_server: 600,
        ..ServiceConfig::default()
    })
    .unwrap();
    let client = quick_client(&service.local_addr().to_string());

    client.put(&obj("rho", 0, 0, 1.0)).unwrap();
    match client.put(&obj("rho", 1, 0, 2.0)) {
        Err(RemoteError::OutOfMemory {
            cap,
            used,
            requested,
        }) => {
            assert_eq!(cap, 600);
            assert_eq!(used, 512);
            assert_eq!(requested, 512);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }

    // The retry loop must NOT have re-sent the rejected put: exactly two
    // put requests reached the service (the client's max_retries is 2, so
    // a retried rejection would show 3+). The refusal came on a healthy,
    // in-step connection, which went back to the pool: the stats call
    // reuses it instead of reconnecting.
    let snap = client.service_stats().unwrap();
    assert_eq!(snap.puts, 2);
    assert_eq!(snap.rejected_oom, 1);
    assert_eq!(snap.conns_accepted, 1, "the refusal dropped the connection");
    service.shutdown();
}

#[test]
fn an_unreadable_spilled_extent_fails_the_read_naming_the_server() {
    // One tiered staging server with memory for one 512 B piece: the
    // second piece of the same version has no colder key to displace, so
    // it goes to disk. One byte of it is then flipped at rest.
    let dir = std::env::temp_dir().join(format!("xlayer-tier-wire-readerr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = StagingService::start(ServiceConfig {
        servers: 1,
        memory_per_server: 600,
        disk_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    let client = quick_client(&service.local_addr().to_string());
    client.put(&obj("rho", 1, 0, 1.0)).unwrap();
    client.put(&obj("rho", 1, 8, 2.0)).unwrap();
    let segment = dir
        .join(format!("svc-{}", service.local_addr().port()))
        .join("server-0.log");
    let mut bytes = std::fs::read(&segment).unwrap();
    let n = bytes.len();
    bytes[n - 9] ^= 0xFF;
    std::fs::write(&segment, &bytes).unwrap();

    // The read fails, naming the server, rather than serving the
    // resident piece as the version; the same read answers the same way.
    for _ in 0..2 {
        let err = match client.get("rho", 1, None) {
            Ok(objs) => panic!("a partial version served: {} objects", objs.len()),
            Err(e) => e,
        };
        assert!(matches!(err, RemoteError::Refused(_)), "{err:?}");
        assert!(err.to_string().contains("server 0"), "{err}");
    }
    // Not retried, and the connection it came on went back to the pool.
    assert_eq!(client.client_stats().total(), 0);
    let snap = client.service_stats().unwrap();
    assert_eq!(snap.gets, 2);
    assert_eq!(snap.conns_accepted, 1, "the refusal dropped the connection");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tiered_service_leaves_no_segment_and_refuses_a_crashed_lifes() {
    let dir = std::env::temp_dir().join(format!("xlayer-tier-wire-life-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = |addr: String| ServiceConfig {
        addr,
        servers: 1,
        memory_per_server: 600,
        disk_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    // One life: of two 512 B pieces, one is resident and one spilled.
    let service = StagingService::start(cfg("127.0.0.1:0".to_string())).unwrap();
    let port = service.local_addr().port();
    let life = dir.join(format!("svc-{port}"));
    let client = quick_client(&service.local_addr().to_string());
    client.put(&obj("rho", 1, 0, 1.0)).unwrap();
    client.put(&obj("rho", 1, 8, 2.0)).unwrap();
    assert!(life.join("server-0.log").exists());
    drop(client);
    // A clean shutdown leaves no segment behind.
    service.shutdown();
    let left: Vec<_> = std::fs::read_dir(&life).unwrap().collect();
    assert!(left.is_empty(), "{left:?}");
    // A crashed life's segment on the same port: the restart fails,
    // naming it, and leaves it as it was.
    let segment = life.join("server-0.log");
    std::fs::write(&segment, b"a crashed life's bytes").unwrap();
    let err = match StagingService::start(cfg(format!("127.0.0.1:{port}"))) {
        Ok(_) => panic!("a service started over a crashed life's segment"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains(&segment.display().to_string()),
        "{err}"
    );
    assert_eq!(std::fs::read(&segment).unwrap(), b"a crashed life's bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_pool_refuses_with_busy() {
    // max_connections = 0: every connection is refused with a typed Busy
    // frame, and the client reports it once retries are exhausted.
    let service = StagingService::start(ServiceConfig {
        servers: 1,
        memory_per_server: 1 << 20,
        max_connections: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    let client = quick_client(&service.local_addr().to_string());
    match client.service_stats() {
        Err(RemoteError::Refused(ErrorFrame::Busy { active, max })) => {
            assert_eq!((active, max), (0, 0));
        }
        other => panic!("expected Busy refusal, got {other:?}"),
    }
    assert!(
        service
            .stats()
            .conns_refused
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    service.shutdown();
}

#[test]
fn malformed_frames_answered_not_dropped() {
    let service = start_service(1 << 20);
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // 1. Corrupted payload under a valid header: BadRequest, connection
    //    survives (length framing is still in sync).
    let mut frame = Request::Delete {
        name: "rho".into(),
        before_version: 1,
    }
    .encode(9);
    let last = frame.len() - 1;
    frame[last] ^= 0xFF; // corrupt payload, checksum now mismatches
    raw.write_all(&frame).unwrap();
    match read_response(&mut raw) {
        Response::Error(ErrorFrame::BadRequest { detail }) => {
            assert!(detail.contains("checksum"), "detail: {detail}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // 2. Same connection still serves valid requests afterwards.
    raw.write_all(&Request::Stats.encode(10)).unwrap();
    match read_response(&mut raw) {
        Response::StatsOk(snap) => assert_eq!(snap.wire_errors, 1),
        other => panic!("expected StatsOk, got {other:?}"),
    }

    // 3. Garbage magic: answered once, then the connection is closed
    //    (framing is unrecoverable).
    let mut garbage = vec![0u8; HEADER_LEN];
    garbage[0] = b'?';
    raw.write_all(&garbage).unwrap();
    match read_response(&mut raw) {
        Response::Error(ErrorFrame::BadRequest { .. }) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let mut probe = [0u8; 1];
    assert_eq!(
        raw.read(&mut probe).unwrap(),
        0,
        "connection should be closed"
    );

    service.shutdown();
}

fn read_response(stream: &mut TcpStream) -> Response {
    let mut header_buf = [0u8; HEADER_LEN];
    stream.read_exact(&mut header_buf).unwrap();
    let header = decode_header(&header_buf).unwrap();
    let mut payload = vec![0u8; header.payload_len as usize];
    stream.read_exact(&mut payload).unwrap();
    verify_payload(&header, &payload).unwrap();
    Response::decode(&Frame {
        opcode: header.opcode,
        request_id: header.request_id,
        payload,
    })
    .unwrap()
}

#[test]
fn resent_put_frame_is_acknowledged_but_stored_once() {
    // A default-config service: two staging servers, one home per box.
    let service = StagingService::start(ServiceConfig::default()).unwrap();
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // What `RemoteClient::call_with` does when a put's reply is lost: the
    // same object goes out again, to the same home server, which
    // recognises its first copy.
    let a = obj("rho", 1, 0, 1.5);
    for id in [71, 72] {
        raw.write_all(&Request::Put(a.clone()).encode(id)).unwrap();
        match read_response(&mut raw) {
            Response::PutOk { .. } => {}
            other => panic!("expected PutOk, got {other:?}"),
        }
    }
    assert_eq!(service.space().get("rho", 1, None).len(), 1);
    assert_eq!(service.space().describe("rho", 1), Ok(vec![a.desc.clone()]));
    assert_eq!(service.space().used(), a.desc.bytes);

    service.shutdown();
}

#[test]
fn racing_resent_puts_store_one_copy() {
    // A re-sent put that overlaps its first copy: two threads released
    // together put the same object into a default-config service's space,
    // a fresh version each round. Both land on the server the box hashes
    // to, whose twin check runs under its store's write lock, so one of
    // the two puts stores nothing.
    const ROUNDS: u64 = 20_000;
    let service = StagingService::start(ServiceConfig::default()).unwrap();
    let space = service.space();
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for v in 0..ROUNDS {
                    let o = obj("rho", v, 0, 1.5);
                    barrier.wait();
                    space.put(o).unwrap();
                }
            });
        }
    });
    let doubled = (0..ROUNDS)
        .filter(|&v| space.get("rho", v, None).len() != 1)
        .count();
    assert_eq!(doubled, 0, "{doubled} of {ROUNDS} versions stored twice");

    service.shutdown();
}

#[test]
fn hostile_chunked_descriptor_sizes_no_allocation() {
    let service = start_service(1 << 20);
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // A descriptor declaring an absurd payload: refused at the head of
    // the stream, before anything is sized from `bytes`.
    let mut desc = obj("rho", 1, 0, 0.0).desc;
    desc.bytes = u64::MAX;
    raw.write_all(&Request::PutChunked { desc }.encode(81))
        .unwrap();
    raw.write_all(&encode_chunk_end(
        81,
        ChunkEnd {
            objects: 1,
            total_bytes: 0,
        },
    ))
    .unwrap();
    match read_response(&mut raw) {
        Response::Error(ErrorFrame::BadRequest { .. }) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    raw.write_all(&Request::Stats.encode(82)).unwrap();
    match read_response(&mut raw) {
        Response::StatsOk(_) => {}
        other => panic!("expected StatsOk, got {other:?}"),
    }

    service.shutdown();
}

#[test]
fn shutdown_opcode_stops_the_service() {
    let service = start_service(1 << 20);
    let addr = service.local_addr().to_string();
    let client = quick_client(&addr);
    client.put(&obj("rho", 0, 0, 1.0)).unwrap();
    client.shutdown().unwrap();
    // wait() returns because a wire-side shutdown stopped the accept loop.
    service.wait();
    // New work is refused (connection refused or reset; retries exhausted).
    let fresh = quick_client(&addr);
    assert!(fresh.service_stats().is_err());
}

#[test]
fn unreachable_service_is_an_io_error_after_retries() {
    // Nothing listens on this address (bind, learn the port, drop).
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let client = quick_client(&format!("127.0.0.1:{port}"));
    match client.service_stats() {
        Err(RemoteError::Io(_)) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
}

#[test]
fn stager_over_one_shard_keeps_the_in_process_contract() {
    let service = start_service(16 << 20);
    let client = quick_client(&service.local_addr().to_string());
    let stager = AsyncStager::new(one_shard(&service.local_addr().to_string()), 3, 8);
    let stats = stager.stats();

    for v in 0..4u64 {
        let parts = (0..3i64).map(|part| StageTask::Ready(obj("field", v, part * 8, v as f64)));
        stager.put_batch(parts.collect()).unwrap();
    }
    // The per-key rendezvous works across the wire exactly as in-process.
    stats.wait_processed("field", 2, 3);
    assert_eq!(client.get("field", 2, None).unwrap().len(), 3);

    let (delivered, rejected) = stager.drain().unwrap();
    assert_eq!((delivered, rejected), (12, 0));
    assert_eq!(stats.failed.load(std::sync::atomic::Ordering::Relaxed), 0);
    // Rendezvous map pruned on drain, same as over an in-process space.
    assert_eq!(stats.tracked_keys(), 0);

    for v in 0..4u64 {
        assert_eq!(client.get("field", v, None).unwrap().len(), 3);
    }
    service.shutdown();
}

#[test]
fn stager_over_one_shard_counts_oom_and_terminal_failures_separately() {
    let service = StagingService::start(ServiceConfig {
        servers: 1,
        memory_per_server: 600,
        ..ServiceConfig::default()
    })
    .unwrap();
    let stager = AsyncStager::new(one_shard(&service.local_addr().to_string()), 1, 4);
    let stats = stager.stats();
    stager
        .put_batch(vec![
            StageTask::Ready(obj("rho", 0, 0, 1.0)),
            StageTask::Ready(obj("rho", 1, 0, 2.0)), // rejected: space is full
        ])
        .unwrap();
    let (delivered, rejected) = stager.drain().unwrap();
    assert_eq!((delivered, rejected), (1, 1));
    assert_eq!(stats.failed.load(std::sync::atomic::Ordering::Relaxed), 0);
    service.shutdown();

    // With the service gone, puts fail terminally — counted as `failed`,
    // never as `rejected` (OOM is a policy signal, failure is not).
    let dead_port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let stager = AsyncStager::new(one_shard(&format!("127.0.0.1:{dead_port}")), 1, 4);
    let stats = stager.stats();
    stager
        .put_batch(vec![StageTask::Ready(obj("rho", 0, 0, 1.0))])
        .unwrap();
    let (delivered, rejected) = stager.drain().unwrap();
    assert_eq!((delivered, rejected), (0, 0));
    assert_eq!(stats.failed.load(std::sync::atomic::Ordering::Relaxed), 1);
}

#[test]
fn frame_magic_is_stable_on_the_wire() {
    // A tripwire for accidental protocol changes: the first bytes a server
    // sees from a conforming client are the literal magic.
    let buf = encode_frame(Opcode::Stats, 1, &[]);
    assert_eq!(&buf[..4], &MAGIC);
}
