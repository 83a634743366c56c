//! The xbench agent: a TCP server that executes workload phases.
//!
//! An agent binds one control listener and waits for a controller. Each
//! `Run` command spawns one worker thread per spec'd connection — the
//! thread-per-connection shape of the staging service mirrored on the
//! client side — and every worker owns its own [`ShardedClient`] over the
//! spec's `remote:`-style target list (one target is a one-shard cluster),
//! so its connection pools, retry counters, and latency histograms are
//! private to that connection and sum cleanly into the phase's
//! [`AgentReport`].
//!
//! Workers replay the deterministic per-connection op stream from
//! [`crate::spec`]: puts build AMR-shaped cube objects (the client
//! streams the large ones and frames the rest whole), gets fetch the
//! connection's most recent put through the same scatter/gather path a
//! consumer would use, and drains trim version history with `Delete` ops.
//! Offered load is paced by sleeping whenever delivered put bytes run
//! ahead of the commanded rate.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use xlayer_amr::boxes::IBox;
use xlayer_amr::intvect::IntVect;
use xlayer_net::client::ClientStats;
use xlayer_net::hist::Hist;
use xlayer_net::{ClientConfig, RemoteError, ShardedClient, ShardedError};
use xlayer_staging::{DataObject, ObjectDesc, ObjectKey};

use crate::proto::{
    read_ctl_header, read_ctl_payload, AgentReport, CtlError, CtlRequest, CtlResponse, Phase,
    RunCmd,
};
use crate::spec::{PlannedOp, WorkloadSpec};

/// Nanoseconds since `t0`, saturating (same contract as the net crate's).
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// One staging client for a load worker, configured from the spec.
fn connect(spec: &WorkloadSpec) -> std::io::Result<ShardedClient> {
    let cfg = ClientConfig {
        max_retries: spec.max_retries,
        ..ClientConfig::default()
    };
    ShardedClient::connect(&spec.targets, spec.span, cfg)
}

/// The shared object names the workload cycles through.
fn object_name(name_idx: u32) -> String {
    format!("xb{name_idx}")
}

/// Build the put object for one planned op: a `side³`-cell cube whose
/// box origin lands in span-sized placement bucket `origin`, so puts
/// scatter across a sharded cluster's `ShardMap`.
fn build_object(
    spec: &WorkloadSpec,
    name_idx: u32,
    version: u64,
    side: u32,
    origin: [u32; 3],
    origin_rank: usize,
) -> Option<DataObject> {
    let side = i64::from(side.max(1));
    let [ox, oy, oz] = origin;
    let lo = IntVect::new(
        i64::from(ox) * spec.span,
        i64::from(oy) * spec.span,
        i64::from(oz) * spec.span,
    );
    let bbox = IBox::new(lo, lo + IntVect::splat(side - 1));
    let bytes = bbox.num_cells().checked_mul(8)?;
    let desc = ObjectDesc {
        key: ObjectKey::new(object_name(name_idx), version),
        bbox,
        core: bbox,
        dx: 1.0,
        bytes,
        origin_rank,
    };
    DataObject::from_wire(desc, Bytes::from(vec![0u8; bytes as usize]))
}

/// Everything one connection worker accumulated.
#[derive(Default)]
struct WorkerOut {
    puts: u64,
    gets: u64,
    drains: u64,
    put_bytes: u64,
    get_bytes: u64,
    rejected_oom: u64,
    failed: u64,
    put_ns: Hist,
    get_ns: Hist,
    stats: ClientStats,
}

impl WorkerOut {
    /// Book a failed op under what the report distinguishes: the staging
    /// memory cap rejecting it (a policy signal) or anything else that
    /// outlasted the retries.
    fn fail(&mut self, e: &ShardedError) {
        match e.source {
            RemoteError::OutOfMemory { .. } => self.rejected_oom += 1,
            _ => self.failed += 1,
        }
    }
}

/// Replay one connection's op stream against the cluster.
fn run_worker(
    spec: &WorkloadSpec,
    agent_index: u32,
    conn: u32,
    ops: u64,
    version_base: u64,
    rate_bytes_per_sec: u64,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    let client = match connect(spec) {
        Ok(c) => c,
        Err(_) => {
            out.failed = ops;
            return out;
        }
    };
    let origin_rank = (agent_index as usize) * (spec.connections as usize) + conn as usize;
    // Puts-so-far per name on this connection; version = base + count.
    let mut put_counts: Vec<u64> = vec![0; spec.names as usize];
    let mut last_put: Option<(u32, u64, IBox)> = None;
    let t0 = Instant::now();
    for op in spec.stream(agent_index, conn, ops) {
        match op {
            PlannedOp::Put {
                name_idx,
                side,
                origin,
            } => {
                let count = put_counts.get(name_idx as usize).copied().unwrap_or(0);
                let version = version_base + count;
                let Some(obj) = build_object(spec, name_idx, version, side, origin, origin_rank)
                else {
                    out.failed += 1;
                    continue;
                };
                let bytes = obj.desc.bytes;
                if rate_bytes_per_sec > 0 {
                    // Offered-load pacing: sleep while delivered bytes run
                    // ahead of the commanded rate.
                    let target_ns = (u128::from(out.put_bytes) * 1_000_000_000
                        / u128::from(rate_bytes_per_sec))
                    .min(u64::MAX as u128) as u64;
                    let now_ns = elapsed_ns(t0);
                    if target_ns > now_ns {
                        std::thread::sleep(Duration::from_nanos(target_ns - now_ns));
                    }
                }
                let t = Instant::now();
                match client.put(&obj) {
                    Ok(_) => {
                        out.put_ns.record(elapsed_ns(t));
                        out.puts += 1;
                        out.put_bytes += bytes;
                        if let Some(c) = put_counts.get_mut(name_idx as usize) {
                            *c += 1;
                        }
                        last_put = Some((name_idx, version, obj.desc.bbox));
                    }
                    Err(e) => out.fail(&e),
                }
            }
            PlannedOp::Get => {
                let Some((name_idx, version, bbox)) = last_put else {
                    // Only reachable when this stream's first put failed.
                    out.failed += 1;
                    continue;
                };
                let t = Instant::now();
                match client.get(&object_name(name_idx), version, Some(bbox)) {
                    Ok(objs) => {
                        out.get_ns.record(elapsed_ns(t));
                        out.gets += 1;
                        out.get_bytes += objs.iter().map(|o| o.desc.bytes).sum::<u64>();
                    }
                    Err(e) => out.fail(&e),
                }
            }
            PlannedOp::Drain => {
                // Trim every name this connection wrote down to the spec's
                // retained version window.
                let mut ok = true;
                for (ni, &count) in put_counts.iter().enumerate() {
                    if count <= spec.retain_versions {
                        continue;
                    }
                    let before = version_base + count - spec.retain_versions;
                    if client
                        .evict_before(&object_name(ni as u32), before)
                        .is_err()
                    {
                        ok = false;
                    }
                }
                if ok {
                    out.drains += 1;
                } else {
                    out.failed += 1;
                }
            }
        }
    }
    out.stats = client.client_stats_total();
    out
}

/// Execute one phase and build its report.
fn run_phase(cmd: &RunCmd) -> Result<AgentReport, CtlError> {
    let spec = cmd.spec()?;
    let t0 = Instant::now();
    let mut report = AgentReport::default();
    match cmd.phase {
        Phase::Drain => {
            // One client, evict every workload name wholesale.
            let client = connect(&spec).map_err(CtlError::from)?;
            for ni in 0..spec.names {
                match client.evict_before(&object_name(ni), u64::MAX) {
                    Ok(_) => report.drains += 1,
                    Err(_) => report.failed += 1,
                }
            }
            let stats = client.client_stats_total();
            report.retries_busy = stats.retries_busy;
            report.retries_io = stats.retries_io;
            report.retries_wire = stats.retries_wire;
        }
        Phase::Warmup | Phase::Measure => {
            let ops = match cmd.phase {
                Phase::Warmup => spec.warmup_ops,
                _ => spec.ops_per_conn,
            };
            let rate_per_conn = cmd.rate_bytes_per_sec / u64::from(spec.connections.max(1));
            let outs: Vec<WorkerOut> = std::thread::scope(|s| {
                let spec = &spec;
                let handles: Vec<_> = (0..spec.connections)
                    .map(|conn| {
                        s.spawn(move || {
                            run_worker(
                                spec,
                                cmd.agent_index,
                                conn,
                                ops,
                                cmd.version_base,
                                rate_per_conn,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_default())
                    .collect()
            });
            for w in outs {
                report.puts += w.puts;
                report.gets += w.gets;
                report.drains += w.drains;
                report.put_bytes += w.put_bytes;
                report.get_bytes += w.get_bytes;
                report.rejected_oom += w.rejected_oom;
                report.failed += w.failed;
                report.retries_busy += w.stats.retries_busy;
                report.retries_io += w.stats.retries_io;
                report.retries_wire += w.stats.retries_wire;
                report.put_ns.merge(&w.put_ns);
                report.get_ns.merge(&w.get_ns);
            }
        }
    }
    report.elapsed_ns = elapsed_ns(t0);
    Ok(report)
}

/// A bound xbench agent, ready to serve one controller at a time.
pub struct AgentServer {
    listener: TcpListener,
    addr: SocketAddr,
    name: String,
}

impl AgentServer {
    /// Bind the control listener (port 0 picks an ephemeral port).
    pub fn bind(listen: &str, name: &str) -> std::io::Result<AgentServer> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        Ok(AgentServer {
            listener,
            addr,
            name: name.to_string(),
        })
    }

    /// The bound control address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve controllers until one sends `Stop`. Controller connections
    /// are served one at a time — phases are blocking RPCs, and two
    /// controllers driving one agent would corrupt each other's
    /// measurements anyway.
    pub fn serve(&self) -> std::io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.serve_controller(stream) {
                return Ok(());
            }
        }
    }

    /// Serve one controller connection; `true` means Stop was received.
    fn serve_controller(&self, mut stream: TcpStream) -> bool {
        let _ = stream.set_nodelay(true);
        loop {
            let header = match read_ctl_header(&mut stream) {
                Ok(h) => h,
                // The controller went away; await the next one.
                Err(CtlError::Io { .. }) => return false,
                Err(e) => {
                    // Framing is unrecoverable; answer once and drop.
                    let _ = stream.write_all(
                        &CtlResponse::Error {
                            detail: e.to_string(),
                        }
                        .encode(0),
                    );
                    return false;
                }
            };
            let request = match read_ctl_payload(&mut stream, &header) {
                Err(CtlError::Io { .. }) => return false,
                Err(e) => Err(e),
                Ok(payload) => CtlRequest::decode_body(header.opcode, &payload),
            };
            let (response, stop) = match request {
                Err(e) => (
                    CtlResponse::Error {
                        detail: e.to_string(),
                    },
                    false,
                ),
                Ok(CtlRequest::Hello) => (
                    CtlResponse::HelloOk {
                        agent: self.name.clone(),
                    },
                    false,
                ),
                Ok(CtlRequest::Stop) => (CtlResponse::StopOk, true),
                Ok(CtlRequest::Run(cmd)) => match run_phase(&cmd) {
                    Ok(report) => (CtlResponse::RunOk(Box::new(report)), false),
                    Err(e) => (
                        CtlResponse::Error {
                            detail: e.to_string(),
                        },
                        false,
                    ),
                },
            };
            if stream
                .write_all(&response.encode(header.request_id))
                .is_err()
            {
                return stop;
            }
            if stop {
                return true;
            }
        }
    }
}
