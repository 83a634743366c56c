//! Chunked-stream failure modes, learned-chunk-sum correctness, and buffer
//! pool regressions, driven against a real `StagingService` on loopback —
//! partly through `RemoteClient`, partly through a raw TCP stream that
//! speaks the wire format by hand so it can misbehave on purpose.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;
use xlayer_net::client::{ClientConfig, RemoteClient};
use xlayer_net::service::{ServiceConfig, StagingService};
use xlayer_net::wire::{
    chunk_data_parts, decode_chunk_end, decode_chunk_prefix, decode_header, encode_chunk_end,
    encode_frame, verify_payload, ChunkEnd, ErrorFrame, Frame, Opcode, Request, Response, CHUNK,
    CHUNK_PREFIX_LEN, HEADER_LEN,
};
use xlayer_staging::DataObject;

/// Deterministic 64-bit LCG (Knuth's MMIX multiplier).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// An object over `bx` whose payload is LCG noise — every byte matters for
/// the bit-identity checks, unlike a constant fill.
fn noisy_obj(name: &str, version: u64, bx: IBox, seed: u64) -> DataObject {
    let mut fab = Fab::new(bx, 1);
    let mut s = seed;
    for v in fab.as_mut_slice() {
        *v = (lcg(&mut s) >> 11) as f64 * 1e-9;
    }
    DataObject::from_fab(name, version, &fab, 0, &bx, 0)
}

/// A `nx × 64 × 64` box: `nx` × 32 KiB of payload, so `slab(72)` is
/// 2.25 MiB — two full 1 MiB chunks and a short last one — and `slab(136)`
/// is 4.25 MiB, five chunks.
fn slab(nx: i64) -> IBox {
    IBox::new(IntVect::new(0, 0, 0), IntVect::new(nx - 1, 63, 63))
}

fn one_server_service() -> StagingService {
    StagingService::start(ServiceConfig {
        servers: 1,
        memory_per_server: 64 << 20,
        ..ServiceConfig::default()
    })
    .unwrap()
}

/// A client with short backoffs; the tests stream through `put_chunked`.
fn quick_client(addr: &str) -> RemoteClient {
    RemoteClient::connect(
        addr,
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            pool_size: 2,
            max_retries: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
        },
    )
    .unwrap()
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

/// Stream `obj`'s payload as a well-formed chunked put on `raw`, with
/// `corrupt_chunk` (if any) having one data byte flipped *after* its
/// checksum was computed.
fn raw_put_chunked(raw: &mut TcpStream, id: u64, obj: &DataObject, corrupt_chunk: Option<usize>) {
    let chunk = CHUNK;
    let head = Request::PutChunked {
        desc: obj.desc.clone(),
    };
    raw.write_all(&head.encode(id)).unwrap();
    let payload: &[u8] = obj.payload.as_ref();
    let mut off = 0usize;
    let mut k = 0usize;
    while off < payload.len() {
        let n = chunk.min(payload.len() - off);
        let (header, prefix) = chunk_data_parts(id, 0, off as u64, &payload[off..off + n]);
        let mut data = payload[off..off + n].to_vec();
        if corrupt_chunk == Some(k) {
            data[n / 2] ^= 0xFF;
        }
        raw.write_all(&header).unwrap();
        raw.write_all(&prefix).unwrap();
        raw.write_all(&data).unwrap();
        off += n;
        k += 1;
    }
    raw.write_all(&encode_chunk_end(
        id,
        ChunkEnd {
            objects: 1,
            total_bytes: payload.len() as u64,
        },
    ))
    .unwrap();
}

#[test]
fn chunked_roundtrip_bit_identical_and_cache_consistent() {
    let service = one_server_service();
    let client = quick_client(&service.local_addr().to_string());

    // 2.25 MiB of noise = 3 chunks, the last one short.
    let obj = noisy_obj("rho", 7, slab(72), 42);
    client.put_chunked(&obj).unwrap();

    // First chunked get serves the sums the stored object learned during
    // the put stream; the repeat serves the same ones. The client verifies
    // every chunk checksum on receipt, so a stale or misindexed sum fails
    // the call rather than just the comparison.
    let first = client.get("rho", 7, None).unwrap();
    let again = client.get("rho", 7, None).unwrap();
    for got in [&first, &again] {
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].desc, obj.desc);
        assert_eq!(got[0].payload.as_ref(), obj.payload.as_ref());
    }

    service.shutdown();
}

#[test]
fn promoted_object_streams_without_rehash() {
    // 3 MiB of memory over a disk tier: the second 2.25 MiB put pushes the
    // first object out to the log.
    let dir = std::env::temp_dir().join(format!("xlayer-tier-promote-{}", std::process::id()));
    let service = StagingService::start(ServiceConfig {
        servers: 1,
        memory_per_server: 3 << 20,
        disk_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    let client = quick_client(&service.local_addr().to_string());
    let obj = noisy_obj("rho", 1, slab(72), 5);
    client.put_chunked(&obj).unwrap();
    client
        .put_chunked(&noisy_obj("rho", 2, slab(72), 6))
        .unwrap();
    let before = client.service_stats().unwrap();
    assert_eq!(before.tier_spilled, 1, "the first object should be on disk");

    // The object that comes back from the log is a different allocation
    // from the one the put stream assembled, yet it still knows the sums
    // that stream verified: the spill wrote them, the verified read handed
    // them back, and the get stream frames the payload without hashing it.
    let got = client.get("rho", 1, None).unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].desc, obj.desc);
    assert_eq!(got[0].payload.as_ref(), obj.payload.as_ref());
    let after = client.service_stats().unwrap();
    assert_eq!(after.tier_disk_hits, before.tier_disk_hits + 1);
    assert_eq!(after.chunksum_hits, before.chunksum_hits + 1);
    assert_eq!(after.chunksum_misses, before.chunksum_misses);

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_chunk_is_bad_request_and_connection_survives() {
    let service = one_server_service();
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // A mid-stream chunk whose data does not match its checksum: the
    // service drains the rest of the stream, answers BadRequest, and keeps
    // the connection (framing never desynced).
    let obj = noisy_obj("rho", 1, slab(136), 7);
    raw_put_chunked(&mut raw, 21, &obj, Some(3));
    match read_response(&mut raw) {
        Response::Error(ErrorFrame::BadRequest { detail }) => {
            assert!(detail.contains("checksum"), "detail: {detail}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Nothing was committed.
    raw.write_all(
        &Request::Query {
            name: "rho".into(),
            version: 1,
        }
        .encode(22),
    )
    .unwrap();
    match read_response(&mut raw) {
        Response::QueryOk(descs) => assert!(descs.is_empty()),
        other => panic!("expected QueryOk, got {other:?}"),
    }

    // The same connection still takes a clean chunked put.
    raw_put_chunked(&mut raw, 23, &obj, None);
    match read_response(&mut raw) {
        Response::PutChunkedOk { .. } => {}
        other => panic!("expected PutChunkedOk, got {other:?}"),
    }
    raw.write_all(
        &Request::Query {
            name: "rho".into(),
            version: 1,
        }
        .encode(24),
    )
    .unwrap();
    match read_response(&mut raw) {
        Response::QueryOk(descs) => assert_eq!(descs.len(), 1),
        other => panic!("expected QueryOk, got {other:?}"),
    }

    service.shutdown();
}

#[test]
fn interleaved_request_id_is_bad_request() {
    let service = one_server_service();
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    let obj = noisy_obj("rho", 2, slab(72), 11);
    let chunk = CHUNK;
    let payload: &[u8] = obj.payload.as_ref();
    raw.write_all(
        &Request::PutChunked {
            desc: obj.desc.clone(),
        }
        .encode(31),
    )
    .unwrap();
    let mut off = 0usize;
    let mut first = true;
    while off < payload.len() {
        let n = chunk.min(payload.len() - off);
        let data = &payload[off..off + n];
        // First chunk carries a foreign request id, the rest are honest.
        let id = if first { 32 } else { 31 };
        first = false;
        let (header, prefix) = chunk_data_parts(id, 0, off as u64, data);
        raw.write_all(&header).unwrap();
        raw.write_all(&prefix).unwrap();
        raw.write_all(data).unwrap();
        off += n;
    }
    raw.write_all(&encode_chunk_end(
        31,
        ChunkEnd {
            objects: 1,
            total_bytes: payload.len() as u64,
        },
    ))
    .unwrap();
    match read_response(&mut raw) {
        Response::Error(ErrorFrame::BadRequest { detail }) => {
            assert!(detail.contains("interleaved"), "detail: {detail}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Framing survived the rejection: the connection still serves.
    raw.write_all(&Request::Stats.encode(33)).unwrap();
    match read_response(&mut raw) {
        Response::StatsOk(_) => {}
        other => panic!("expected StatsOk, got {other:?}"),
    }

    service.shutdown();
}

#[test]
fn undersized_chunk_frame_is_in_stream_error() {
    let service = one_server_service();
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    let obj = noisy_obj("rho", 3, IBox::cube(8), 13);
    raw.write_all(
        &Request::PutChunked {
            desc: obj.desc.clone(),
        }
        .encode(41),
    )
    .unwrap();
    // A ChunkData frame whose payload is smaller than the 12-byte prefix
    // cannot carry a chunk; the stream fails but stays framed.
    const UNDERSIZED: usize = CHUNK_PREFIX_LEN - 8;
    raw.write_all(&encode_frame(Opcode::ChunkData, 41, &[0u8; UNDERSIZED]))
        .unwrap();
    raw.write_all(&encode_chunk_end(
        41,
        ChunkEnd {
            objects: 1,
            total_bytes: obj.desc.bytes,
        },
    ))
    .unwrap();
    match read_response(&mut raw) {
        Response::Error(ErrorFrame::BadRequest { .. }) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    raw.write_all(&Request::Stats.encode(42)).unwrap();
    match read_response(&mut raw) {
        Response::StatsOk(_) => {}
        other => panic!("expected StatsOk, got {other:?}"),
    }

    service.shutdown();
}

#[test]
fn truncated_stream_commits_nothing_and_service_survives() {
    let service = one_server_service();
    let obj = noisy_obj("rho", 4, slab(72), 17);
    {
        let mut raw = TcpStream::connect(service.local_addr()).unwrap();
        let chunk = CHUNK;
        let payload: &[u8] = obj.payload.as_ref();
        raw.write_all(
            &Request::PutChunked {
                desc: obj.desc.clone(),
            }
            .encode(51),
        )
        .unwrap();
        // Half the stream, then hang up mid-put.
        let mut off = 0usize;
        while off < payload.len() / 2 {
            let n = chunk.min(payload.len() - off);
            let data = &payload[off..off + n];
            let (header, prefix) = chunk_data_parts(51, 0, off as u64, data);
            raw.write_all(&header).unwrap();
            raw.write_all(&prefix).unwrap();
            raw.write_all(data).unwrap();
            off += n;
        }
    }
    // The dropped connection must not have committed a partial object, and
    // the service must keep serving new connections.
    let client = quick_client(&service.local_addr().to_string());
    assert!(client.describe("rho", 4).unwrap().is_empty());
    client.put_chunked(&obj).unwrap();
    let got = client.get("rho", 4, None).unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].payload.as_ref(), obj.payload.as_ref());
    service.shutdown();
}

#[test]
fn chunk_decoders_never_panic_on_fuzz() {
    // LCG-driven structural fuzz over every chunk-stream decoder: any
    // byte soup must come back as Ok or Err, never a panic or a
    // length-dependent slice overrun.
    let mut s = 0x5eed_cafe_u64;
    for round in 0..2048 {
        let len = (lcg(&mut s) % 48) as usize;
        let mut bytes = vec![0u8; len];
        for b in &mut bytes {
            *b = (lcg(&mut s) >> 32) as u8;
        }
        let _ = decode_chunk_end(&bytes);
        if bytes.len() >= HEADER_LEN {
            let mut h = [0u8; HEADER_LEN];
            h.copy_from_slice(&bytes[..HEADER_LEN]);
            let _ = decode_header(&h);
        }
        if bytes.len() >= CHUNK_PREFIX_LEN {
            let mut p = [0u8; CHUNK_PREFIX_LEN];
            p.copy_from_slice(&bytes[..CHUNK_PREFIX_LEN]);
            let (index, offset) = decode_chunk_prefix(&p);
            // Prefix decode is total: round-trips through the encoder.
            let (_, back) = chunk_data_parts(round, index, offset, &[]);
            assert_eq!(back, p);
        }
    }
}

#[test]
fn buffer_pools_return_on_error_paths_and_stay_bounded() {
    let service = one_server_service();
    let addr = service.local_addr().to_string();
    let client = quick_client(&addr);
    let obj = noisy_obj("rho", 5, slab(72), 23);

    // Error paths that route payloads through the service's discard
    // buffers: a corrupt chunk mid-stream and an interleaved stream, each
    // drained from pooled memory.
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw_put_chunked(&mut raw, 61, &obj, Some(1));
    match read_response(&mut raw) {
        Response::Error(ErrorFrame::BadRequest { .. }) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    drop(raw);

    // Churn: repeated puts and gets of the same shapes. Every pooled
    // buffer acquired along the way must be parked again afterwards. (A
    // fresh payload each round: a byte-identical re-put would be a no-op,
    // and the get stream has to keep growing.)
    for round in 0..8u64 {
        client
            .put_chunked(&noisy_obj("rho", 5, slab(72), 23 + round))
            .unwrap();
        let got = client.get("rho", 5, None).unwrap();
        assert_eq!(got.len(), 1 + round as usize);
        let _ = client.service_stats().unwrap();
    }
    client.evict_before("rho", 6).unwrap();

    // The service thread that sent the last reply parks its buffer after the
    // send, so the client can get here first: give it up to two seconds
    // before calling a buffer leaked.
    let deadline = Instant::now() + Duration::from_secs(2);
    while service.pool().outstanding() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(service.pool().outstanding(), 0, "service leaked buffers");
    assert_eq!(
        client.buffer_pool().outstanding(),
        0,
        "client leaked buffers"
    );
    assert!(
        service.pool().parked() <= 64,
        "service pool grew unbounded: {} parked",
        service.pool().parked()
    );

    // The Stats snapshot reconciles with the pool's own counters. The
    // service keeps serving (the stats response itself moves through the
    // pool), so the live counters may run ahead of the snapshot — but
    // never behind it, and nothing stays outstanding.
    let snap = client.service_stats().unwrap();
    assert_eq!(snap.pool_outstanding, 0);
    assert!(snap.pool_hits <= service.pool().hits());
    assert!(snap.pool_misses <= service.pool().misses());
    assert!(snap.bytes_in > 0 && snap.bytes_out > 0);

    // Steady state is allocation-free: one more round of the identical
    // request shapes must be served entirely from parked buffers.
    let misses_before = service.pool().misses();
    client.put_chunked(&obj).unwrap();
    let _ = client.get("rho", 5, None).unwrap();
    let _ = client.service_stats().unwrap();
    assert_eq!(
        service.pool().misses(),
        misses_before,
        "warm request shapes should not allocate new pool buffers"
    );

    service.shutdown();
}

/// ≥512 MiB through the chunked protocol, bit-identically — the
/// large-transfer smoke test. Ignored by default: it allocates multiple
/// half-GiB buffers and moves a gigabyte over loopback.
#[test]
#[ignore = "large-memory smoke test, run by hand"]
fn smoke_512mib_chunked_roundtrip() {
    let service = StagingService::start(ServiceConfig {
        servers: 1,
        memory_per_server: 1 << 30,
        ..ServiceConfig::default()
    })
    .unwrap();
    let client = RemoteClient::connect(
        &service.local_addr().to_string(),
        ClientConfig {
            io_timeout: Duration::from_secs(120),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    // 1024 × 256 × 256 cells × 8 B = 512 MiB of LCG noise.
    let bx = IBox::new(IntVect::new(0, 0, 0), IntVect::new(1023, 255, 255));
    let obj = noisy_obj("big", 1, bx, 97);
    assert_eq!(obj.desc.bytes, 512 << 20);
    client.put(&obj).unwrap();
    let got = client.get("big", 1, None).unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].desc, obj.desc);
    assert!(got[0].payload.as_ref() == obj.payload.as_ref());
    client.evict_before("big", 2).unwrap();
    service.shutdown();
}
