//! The two staging-only workloads: no solver, closed-loop put / get / evict
//! cycles over generated objects, every get checked byte for byte.
//!
//! * `stage_mixed_rw` — two clients on one loopback service; each version
//!   cycle mixes many small whole-frame ops with one chunked bulk object,
//!   reads beside writes.
//! * `tier_churn_4x` — one thread on a tiered in-process space whose memory
//!   holds a quarter of the live versions, so every cycle spills and
//!   promotes through the disk log.
//!
//! The traced run performs the same cycles on one thread with a span around
//! each call, plus reference spans around the checksum and the frame codec
//! applied to the same objects.

use crate::inputs::cube_object;
use crate::measure::{cpu_seconds, ms_since};
use crate::run::{Mode, Rep};
use crate::trace::{span, Tracer};
use std::borrow::Borrow;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xlayer_amr::{IBox, IntVect};
use xlayer_net::wire::{put_frame_parts, Opcode, Request};
use xlayer_net::{ClientConfig, RemoteClient, ServiceConfig, StagingService};
use xlayer_staging::{BufferPool, DataObject, DataSpace, ObjectKey, Sharding, TierConfig};
use xlayer_xbench::{PlannedOp, WorkloadSpec};

/// Sizes of one `stage_mixed_rw` repetition.
#[derive(Clone, Copy)]
pub struct MixSize {
    /// Version cycles per client.
    pub cycles: u64,
    /// Small puts per cycle.
    pub smalls: u64,
    /// Small point gets per cycle.
    pub small_gets: u64,
    /// Cube side of the bulk object, in cells.
    pub bulk_side: u32,
}

/// Cube side of a small object: 8³ cells, 4 KiB, one whole frame.
const SMALL_SIDE: u32 = 8;
/// Distinct payloads a client cycles through per size class.
const SMALL_PROTOS: u64 = 61;
const BULK_PROTOS: u64 = 3;
/// The two closed-loop clients (= `nproc` on the reference machine).
const CLIENTS: u32 = 2;

/// `proto` re-addressed: same payload, new key, position and tag.
fn readdress(
    proto: &DataObject,
    name: &str,
    version: u64,
    origin: [i64; 3],
    tag: usize,
) -> DataObject {
    let lo = IntVect::new(origin[0], origin[1], origin[2]);
    let bbox = IBox::new(lo, lo + proto.desc.bbox.size() - IntVect::UNIT);
    let mut obj = proto.clone();
    obj.desc.key = ObjectKey::new(name, version);
    obj.desc.bbox = bbox;
    obj.desc.core = bbox;
    obj.desc.origin_rank = tag;
    obj
}

/// What one client will do, generated from the seed before the clock
/// starts: payload prototypes and, from the xbench op stream, where each
/// put lands.
struct ClientPlan {
    small_name: String,
    bulk_name: String,
    small_protos: Vec<DataObject>,
    bulk_protos: Vec<DataObject>,
    /// `cycles × smalls` origins, cycle-major.
    small_origins: Vec<[i64; 3]>,
    /// One origin per cycle.
    bulk_origins: Vec<[i64; 3]>,
}

/// The put-only xbench spec of one size class; its streams supply the
/// placement buckets, its totals the expected put count and bytes.
fn put_spec(seed: u64, side: u32, puts_per_client: u64, spread: u32, span: i64) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        agents: 1,
        connections: CLIENTS,
        ops_per_conn: puts_per_client,
        put_weight: 1,
        get_weight: 0,
        drain_weight: 0,
        side_min: side,
        side_max: side,
        names: 1,
        spread,
        span,
        ..WorkloadSpec::default()
    }
}

fn origins(spec: &WorkloadSpec, client: u32) -> Vec<[i64; 3]> {
    spec.stream(0, client, spec.ops_per_conn)
        .filter_map(|op| match op {
            PlannedOp::Put { origin, .. } => Some(origin.map(|o| i64::from(o) * spec.span)),
            _ => None,
        })
        .collect()
}

impl ClientPlan {
    fn new(seed: u64, client: u32, small: &WorkloadSpec, bulk: &WorkloadSpec) -> Self {
        let protos = |class: u64, n: u64, side: u32| {
            (0..n)
                .map(|i| {
                    let stream = (u64::from(client) << 32) | (class << 16) | i;
                    cube_object(seed, stream, "proto", 0, [0; 3], i64::from(side))
                })
                .collect()
        };
        ClientPlan {
            small_name: format!("mix{client}.small"),
            bulk_name: format!("mix{client}.bulk"),
            small_protos: protos(1, SMALL_PROTOS, small.side_min),
            bulk_protos: protos(2, BULK_PROTOS, bulk.side_min),
            small_origins: origins(small, client),
            bulk_origins: origins(bulk, client),
        }
    }

    fn small(&self, size: &MixSize, version: u64, i: u64) -> DataObject {
        let k = (version - 1) * size.smalls + i;
        let proto = &self.small_protos[(k % SMALL_PROTOS) as usize];
        readdress(
            proto,
            &self.small_name,
            version,
            self.small_origins[k as usize],
            i as usize,
        )
    }

    fn bulk(&self, version: u64) -> DataObject {
        let proto = &self.bulk_protos[(version % BULK_PROTOS) as usize];
        readdress(
            proto,
            &self.bulk_name,
            version,
            self.bulk_origins[(version - 1) as usize],
            0,
        )
    }
}

/// Compare what a get returned with what was put there: the same objects,
/// each byte for byte. Returns the number of wrong or missing objects.
fn mismatches<T: Borrow<DataObject>>(got: &[T], want: &[DataObject]) -> u64 {
    let wrong = got
        .iter()
        .map(Borrow::borrow)
        .filter(|g| {
            !want.iter().any(|w| {
                w.desc.origin_rank == g.desc.origin_rank
                    && w.desc.bbox == g.desc.bbox
                    && w.payload == g.payload
            })
        })
        .count();
    (wrong + want.len().saturating_sub(got.len())) as u64
}

/// One version cycle of one client: put the version, read the previous one
/// back three ways, drop the one before, probe the service.
fn mix_cycle(
    plan: &ClientPlan,
    client: &RemoteClient,
    size: &MixSize,
    v: u64,
    tr: &mut Option<&mut Tracer>,
    rep: &mut Rep,
) {
    let t0 = Instant::now();
    let mut attempt = |ok: bool| {
        rep.attempted += 1;
        rep.failed += !ok as u64;
    };
    for i in 0..size.smalls {
        let obj = plan.small(size, v, i);
        let put = span(tr, "net.put_small", v, || {
            (client.put(&obj), obj.desc.bytes, 1)
        });
        attempt(put.is_ok());
        rep.moved_bytes += obj.desc.bytes;
    }
    let bulk = plan.bulk(v);
    let put = span(tr, "net.put_large", v, || {
        (client.put(&bulk), bulk.desc.bytes, 1)
    });
    attempt(put.is_ok());
    rep.moved_bytes += bulk.desc.bytes;
    if let Some(tr) = tr {
        codec_reference(tr, &bulk, v);
        codec_reference(tr, &plan.small(size, v, 0), v);
    }

    if v > 1 {
        let prev: Vec<DataObject> = (0..size.smalls)
            .map(|i| plan.small(size, v - 1, i))
            .collect();
        // Point gets: whatever sits in one small object's bucket.
        for g in 0..size.small_gets {
            let query = prev[(g * size.smalls / size.small_gets) as usize].desc.bbox;
            let want: Vec<DataObject> = prev
                .iter()
                .filter(|o| o.desc.bbox == query)
                .cloned()
                .collect();
            let got = span(tr, "net.get_small", v, || {
                let got = client.get(&plan.small_name, v - 1, Some(query));
                let bytes = got
                    .as_ref()
                    .map_or(0, |g| g.iter().map(|o| o.desc.bytes).sum());
                (got, bytes, 1)
            });
            attempt(got.is_ok_and(|got| mismatches(&got, &want) == 0));
        }
        // Region gather: every small object under the previous bulk box.
        let prev_bulk = plan.bulk(v - 1);
        let region = prev_bulk.desc.bbox;
        let want: Vec<DataObject> = prev
            .into_iter()
            .filter(|o| o.desc.bbox.intersects(&region))
            .collect();
        let got = span(tr, "net.get_region", v, || {
            let got = client.get(&plan.small_name, v - 1, Some(region));
            let (bytes, n) = got.as_ref().map_or((0, 0), |g| {
                (g.iter().map(|o| o.desc.bytes).sum(), g.len() as u64)
            });
            (got, bytes, n)
        });
        attempt(got.is_ok_and(|got| mismatches(&got, &want) == 0));
        // Bulk get: the chunked stream back.
        let got = span(tr, "net.get_large", v, || {
            (
                client.get(&plan.bulk_name, v - 1, Some(region)),
                region.num_cells() * 8,
                1,
            )
        });
        attempt(got.is_ok_and(|got| mismatches(&got, &[prev_bulk]) == 0));
    }
    if v > 2 {
        for name in [&plan.small_name, &plan.bulk_name] {
            let evicted = span(tr, "net.evict", v, || {
                (client.evict_before(name, v - 1), 0, 1)
            });
            attempt(evicted.is_ok_and(|freed| freed > 0));
        }
    }
    let stats = span(tr, "net.stats_rtt", v, || (client.service_stats(), 0, 1));
    attempt(stats.is_ok());
    rep.step_ms.push(ms_since(t0));
    // What the reads returned, folded into the outputs a later repetition
    // must reproduce.
    rep.outputs.push(rep.attempted - rep.failed);
}

/// Reference spans around the checksum and the frame codec for `obj`: what
/// a put spends before the first byte reaches the socket and after the last
/// one left it.
fn codec_reference(tr: &mut Tracer, obj: &DataObject, v: u64) {
    let bytes = obj.desc.bytes;
    let id = tr.begin_ref("staging.checksum", v);
    std::hint::black_box(xlayer_staging::sum::checksum(obj.payload.as_ref()));
    tr.end(id, bytes, 1);
    let mut scratch = Vec::new();
    let id = tr.begin_ref("net.encode", v);
    std::hint::black_box(put_frame_parts(obj, v, &mut scratch));
    tr.end(id, bytes, 1);
    let mut body = Vec::new();
    Request::Put(obj.clone()).encode_body(&mut body);
    let id = tr.begin_ref("net.decode", v);
    let decoded = Request::decode_body(Opcode::Put, &body);
    tr.end(id, bytes, 1);
    assert!(decoded.is_ok(), "a frame this program encoded must decode");
}

/// `stage_mixed_rw`: two closed-loop clients against one loopback service.
pub fn stage_mixed(seed: u64, size: MixSize, mode: Mode<'_>) -> Rep {
    let small = put_spec(seed, SMALL_SIDE, size.cycles * size.smalls, 16, 8);
    let bulk = put_spec(seed ^ 0xB01C, size.bulk_side, size.cycles, 2, 16);
    let plans: Vec<ClientPlan> = (0..CLIENTS)
        .map(|c| ClientPlan::new(seed, c, &small, &bulk))
        .collect();
    let service = match StagingService::start(ServiceConfig {
        servers: 2,
        memory_per_server: 512 << 20,
        ..Default::default()
    }) {
        Ok(s) => s,
        Err(e) => return Rep::broken(format!("cannot start the loopback service: {e}")),
    };
    let addr = service.local_addr().to_string();
    let connect = || RemoteClient::connect(&addr, ClientConfig::default());
    let clients: Vec<RemoteClient> = match (0..CLIENTS).map(|_| connect()).collect() {
        Ok(c) => c,
        Err(e) => return Rep::broken(format!("cannot reach the loopback service: {e}")),
    };

    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut rep = Rep::default();
    match mode {
        Mode::Traced(tr) => {
            let root = tr.begin("rep", 0);
            for v in 1..=size.cycles {
                for (plan, client) in plans.iter().zip(&clients) {
                    let id = tr.begin("step", v);
                    mix_cycle(plan, client, &size, v, &mut Some(&mut *tr), &mut rep);
                    tr.end(id, 0, 0);
                }
            }
            tr.end(root, rep.moved_bytes, size.cycles);
        }
        Mode::Timed | Mode::Checked => {
            let parts: Vec<Rep> = std::thread::scope(|s| {
                let handles: Vec<_> = plans
                    .iter()
                    .zip(&clients)
                    .map(|(plan, client)| {
                        s.spawn(move || {
                            let mut part = Rep::default();
                            for v in 1..=size.cycles {
                                mix_cycle(plan, client, &size, v, &mut None, &mut part);
                            }
                            part
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Rep::broken("a client thread panicked".into()))
                    })
                    .collect()
            });
            for part in parts {
                rep.absorb(part);
            }
        }
    }
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = cpu_seconds() - cpu0;

    // The service's own accounting against the xbench replay of the specs.
    let snap = service.stats().snapshot(service.space(), service.pool());
    let (ts, tb) = (small.expected_totals(), bulk.expected_totals());
    if snap.puts != ts.puts + tb.puts || rep.moved_bytes != ts.put_bytes + tb.put_bytes {
        rep.errors.push(format!(
            "service saw {} puts / client sent {} B, the op streams say {} puts / {} B",
            snap.puts,
            rep.moved_bytes,
            ts.puts + tb.puts,
            ts.put_bytes + tb.put_bytes
        ));
    }
    if ts.gets + ts.drains + tb.gets + tb.drains != 0 {
        rep.errors
            .push("the put-only op streams planned gets or drains".to_string());
    }
    rep.net_counters(&snap);
    let retries: u64 = clients.iter().map(|c| c.client_stats().total()).sum();
    rep.count("net.retries", retries as f64);
    drop(clients);
    service.shutdown();
    rep
}

/// Sizes of one `tier_churn_4x` repetition.
#[derive(Clone, Copy)]
pub struct TierSize {
    /// Version cycles.
    pub cycles: u64,
    /// Objects per version.
    pub objects: u64,
    /// Cube side of an object, in cells.
    pub side: i64,
}

/// Versions alive at once: v−5 ..= v.
const LIVE_VERSIONS: u64 = 6;
/// Versions of distinct payloads cycled through (coprime with the live
/// window, so no two live versions share bytes).
const PROTO_VERSIONS: u64 = 7;
const TIER_VAR: &str = "churn";

/// `tier_churn_4x`: put version v (forcing spill), get v−3 (promote from
/// disk), evict v−6, with memory for a quarter of the live versions.
pub fn tier_churn(seed: u64, size: TierSize, scratch: &Path, mode: Mode<'_>) -> Rep {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = scratch.join(format!(
        "tier-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let version_bytes = size.objects * (size.side.pow(3) as u64) * 8;
    let space = match DataSpace::new_tiered(
        1,
        LIVE_VERSIONS * version_bytes / 4,
        Sharding::BboxHash,
        &TierConfig::new(dir.clone()),
        Arc::new(BufferPool::new()),
    ) {
        Ok(s) => s,
        Err(e) => return Rep::broken(format!("cannot open the disk tier in {dir:?}: {e}")),
    };
    let protos: Vec<DataObject> = (0..PROTO_VERSIONS * size.objects)
        .map(|k| cube_object(seed, k, "proto", 0, [0; 3], size.side))
        .collect();
    // Object i of a version sits at cell (i mod 4, i/4 mod 4, i/16) · side.
    let object = |v: u64, i: u64| {
        let proto = &protos[((v % PROTO_VERSIONS) * size.objects + i) as usize];
        let at = [i % 4, (i / 4) % 4, i / 16].map(|c| c as i64 * size.side);
        readdress(proto, TIER_VAR, v, at, i as usize)
    };

    let mut tr = match mode {
        Mode::Traced(tr) => Some(tr),
        Mode::Timed | Mode::Checked => None,
    };
    let mut rep = Rep::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let root = tr.as_mut().map(|tr| tr.begin("rep", 0));
    for v in 1..=size.cycles {
        let t_cycle = Instant::now();
        let step = tr.as_mut().map(|tr| tr.begin("step", v));
        let mut attempt = |ok: bool| {
            rep.attempted += 1;
            rep.failed += !ok as u64;
        };
        for i in 0..size.objects {
            let obj = object(v, i);
            let bytes = obj.desc.bytes;
            let put = span(&mut tr, "staging.put", v, || (space.put(obj), bytes, 1));
            attempt(put.is_ok());
            rep.moved_bytes += bytes;
        }
        if v > 3 {
            let want: Vec<DataObject> = (0..size.objects).map(|i| object(v - 3, i)).collect();
            let got = span(&mut tr, "staging.get", v, || {
                let got = space.get(TIER_VAR, v - 3, None);
                let bytes = got.iter().map(|o| o.desc.bytes).sum();
                let n = got.len() as u64;
                (got, bytes, n)
            });
            attempt(mismatches(&got, &want) == 0);
            // The same version again, now resident, assembled over one
            // object's box.
            let probe = &want[(v % size.objects) as usize];
            let region = probe.desc.bbox;
            let (fab, read) = span(&mut tr, "staging.get_region", v, || {
                let (fab, read) = space.get_region(TIER_VAR, v - 3, &region);
                ((fab, read), read, 1)
            });
            let back = DataObject::from_fab(TIER_VAR, v - 3, &fab, 0, &region, 0);
            attempt(read == probe.desc.bytes && back.payload == probe.payload);
        }
        if v > LIVE_VERSIONS {
            let freed = span(&mut tr, "staging.evict", v, || {
                let freed = space.evict_before(TIER_VAR, v - LIVE_VERSIONS + 1);
                (freed, freed, 1)
            });
            attempt(freed == version_bytes);
        }
        if let (Some(tr), Some(id)) = (tr.as_mut(), step) {
            tr.end(id, version_bytes, size.objects);
        }
        rep.step_ms.push(ms_since(t_cycle));
        rep.outputs.push(rep.attempted - rep.failed);
    }
    if let (Some(tr), Some(id)) = (tr.as_mut(), root) {
        tr.end(id, rep.moved_bytes, size.cycles);
    }
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = cpu_seconds() - cpu0;

    let tier = space.tier_stats();
    for (key, value) in [
        ("staging.tier_spilled_objs", tier.spilled),
        ("staging.tier_promoted_objs", tier.promoted),
        ("staging.tier_disk_hits", tier.disk_hits),
        ("staging.tier_compactions", tier.compactions),
        ("tier.spilled_bytes", tier.spilled_bytes),
        ("tier.promoted_bytes", tier.promoted_bytes),
    ] {
        rep.count(key, value as f64);
    }
    if size.cycles > LIVE_VERSIONS && (tier.spilled == 0 || tier.promoted == 0) {
        rep.errors
            .push("the tier neither spilled nor promoted: the workload missed it".to_string());
    }
    if tier.compact_errors != 0 {
        rep.errors
            .push("the disk log failed to compact".to_string());
    }
    drop(space);
    let _ = std::fs::remove_dir_all(&dir);
    rep
}
