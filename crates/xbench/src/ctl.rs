//! The xbench controller: fan-out, phase sequencing, merging, and the
//! saturation sweep.
//!
//! A controller holds one [`AgentConn`] per agent and drives every phase
//! on all of them concurrently (one driver thread per agent — the control
//! RPC blocks for the whole phase). Phase reports merge by summing
//! counters and folding the log-bucket latency histograms with
//! [`Hist::merge`], so fleet-wide percentiles come from exact bucket
//! counts rather than averaged per-agent quantiles.
//!
//! [`saturation_sweep`] is the closed loop from the paper's evaluation
//! methodology: offered load doubles each step (warmup → measure → drain
//! per step), Busy-frame counts are sampled from every staging shard
//! around the measure window, and the sweep stops once goodput stops
//! improving. The knee — the last offered load that still bought a real
//! goodput increase — is the headline number, alongside saturated
//! goodput and retry amplification (wire ops per completed op).

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use xlayer_net::hist::LatencySnapshot;
use xlayer_net::{ClientConfig, Hist, RemoteClient};

use crate::proto::{
    read_ctl_header, read_ctl_payload, AgentReport, CtlError, CtlRequest, CtlResponse, Phase,
    RunCmd,
};
use crate::spec::WorkloadSpec;

const MIB: f64 = (1u64 << 20) as f64;

/// One controller-side connection to an agent.
pub struct AgentConn {
    stream: TcpStream,
    next_id: u64,
    name: String,
}

impl AgentConn {
    /// Connect and handshake. `hello_timeout` bounds the handshake only;
    /// the read timeout is lifted afterwards because `Run` responses
    /// arrive only when a whole phase finishes.
    pub fn connect(addr: &str, hello_timeout: Duration) -> Result<AgentConn, CtlError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(hello_timeout))?;
        let mut conn = AgentConn {
            stream,
            next_id: 1,
            name: String::new(),
        };
        match conn.call(&CtlRequest::Hello)? {
            CtlResponse::HelloOk { agent } => conn.name = agent,
            CtlResponse::Error { detail } => return Err(CtlError::Remote { detail }),
            _ => {
                return Err(CtlError::Malformed {
                    detail: "hello answered with a non-hello response".to_string(),
                })
            }
        }
        conn.stream.set_read_timeout(None)?;
        Ok(conn)
    }

    /// The name the agent introduced itself with.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn call(&mut self, req: &CtlRequest) -> Result<CtlResponse, CtlError> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&req.encode(id))?;
        let header = read_ctl_header(&mut self.stream)?;
        if header.request_id != id {
            return Err(CtlError::Malformed {
                detail: format!("response id {} for request {id}", header.request_id),
            });
        }
        let payload = read_ctl_payload(&mut self.stream, &header)?;
        CtlResponse::decode_body(header.opcode, &payload)
    }

    /// Run one phase to completion on this agent.
    pub fn run(&mut self, cmd: RunCmd) -> Result<AgentReport, CtlError> {
        match self.call(&CtlRequest::Run(cmd))? {
            CtlResponse::RunOk(report) => Ok(*report),
            CtlResponse::Error { detail } => Err(CtlError::Remote { detail }),
            _ => Err(CtlError::Malformed {
                detail: "run answered with a non-run response".to_string(),
            }),
        }
    }

    /// Tell the agent to exit its serve loop.
    pub fn stop(&mut self) -> Result<(), CtlError> {
        match self.call(&CtlRequest::Stop)? {
            CtlResponse::StopOk => Ok(()),
            CtlResponse::Error { detail } => Err(CtlError::Remote { detail }),
            _ => Err(CtlError::Malformed {
                detail: "stop answered with a non-stop response".to_string(),
            }),
        }
    }
}

/// Fleet-wide totals for one phase across all agents.
#[derive(Debug, Default, Clone)]
pub struct MergedReport {
    /// Reports merged.
    pub agents: usize,
    /// Longest per-agent wall time, ns (agents run concurrently).
    pub elapsed_ns: u64,
    /// Whole objects stored.
    pub puts: u64,
    /// Get round-trips completed.
    pub gets: u64,
    /// Drain (version-trim) rounds completed.
    pub drains: u64,
    /// Payload bytes delivered by puts.
    pub put_bytes: u64,
    /// Payload bytes returned by gets.
    pub get_bytes: u64,
    /// Ops refused by the staging memory cap.
    pub rejected_oom: u64,
    /// Ops that failed for any other reason.
    pub failed: u64,
    /// Retries after Busy refusals.
    pub retries_busy: u64,
    /// Retries after transient I/O errors.
    pub retries_io: u64,
    /// Retries after wire decode errors.
    pub retries_wire: u64,
    /// Merged put latency histogram.
    pub put_ns: Hist,
    /// Merged get latency histogram.
    pub get_ns: Hist,
}

impl MergedReport {
    /// Ops that finished successfully.
    pub fn completed(&self) -> u64 {
        self.puts + self.gets + self.drains
    }

    /// All retries, regardless of cause.
    pub fn retries(&self) -> u64 {
        self.retries_busy + self.retries_io + self.retries_wire
    }

    /// Wire attempts per completed op: `1 + retries / completed`. Exactly
    /// 1.0 means no retry ever fired; the floor keeps the metric positive
    /// for the bench-schema gate.
    pub fn retry_amplification(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            return 1.0;
        }
        1.0 + self.retries() as f64 / completed as f64
    }
}

/// Sum counters and fold histograms across per-agent reports.
pub fn merge_reports(reports: &[AgentReport]) -> MergedReport {
    let mut m = MergedReport {
        agents: reports.len(),
        ..MergedReport::default()
    };
    for r in reports {
        m.elapsed_ns = m.elapsed_ns.max(r.elapsed_ns);
        m.puts += r.puts;
        m.gets += r.gets;
        m.drains += r.drains;
        m.put_bytes += r.put_bytes;
        m.get_bytes += r.get_bytes;
        m.rejected_oom += r.rejected_oom;
        m.failed += r.failed;
        m.retries_busy += r.retries_busy;
        m.retries_io += r.retries_io;
        m.retries_wire += r.retries_wire;
        m.put_ns.merge(&r.put_ns);
        m.get_ns.merge(&r.get_ns);
    }
    m
}

/// Knobs for [`saturation_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Offered put-byte rate per agent at step 0 (doubles each step).
    pub start_rate_bytes_per_sec: u64,
    /// Step ceiling — the sweep usually stops earlier, at the knee.
    pub max_steps: u32,
    /// Minimum fractional goodput improvement that keeps the sweep going.
    pub improve_frac: f64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            start_rate_bytes_per_sec: 8 << 20,
            max_steps: 6,
            improve_frac: 0.05,
        }
    }
}

/// One measured point on the saturation curve.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Offered load across all agents, MiB/s.
    pub offered_mibps: f64,
    /// Delivered put+get payload bytes per second, MiB/s.
    pub goodput_mibps: f64,
    /// Fleet-wide put latency percentiles.
    pub put_lat: LatencySnapshot,
    /// Fleet-wide get latency percentiles.
    pub get_lat: LatencySnapshot,
    /// Busy refusal frames per second across all shards.
    pub busy_per_sec: f64,
    /// Wire attempts per completed op in this step.
    pub retry_amplification: f64,
    /// Ops refused by the staging memory cap.
    pub rejected_oom: u64,
    /// Ops that failed outright.
    pub failed: u64,
}

/// The saturation curve plus its headline numbers.
#[derive(Debug, Clone, Default)]
pub struct SweepResult {
    /// One row per offered-load step, in sweep order.
    pub rows: Vec<SweepRow>,
    /// Offered load at the knee (best-goodput row), MiB/s.
    pub knee_offered_mibps: f64,
    /// Goodput at the knee, MiB/s.
    pub saturation_goodput_mibps: f64,
    /// Wire attempts per completed op across every measure phase.
    pub retry_amplification: f64,
    /// Busy frames counted across all shards over all measure phases.
    pub busy_frames_total: u64,
}

/// Drive `phase` on every agent concurrently and collect the reports.
fn run_phase_on_all(
    agents: &mut [AgentConn],
    phase: Phase,
    spec_text: &str,
    version_base: u64,
    rate_bytes_per_sec: u64,
) -> Result<Vec<AgentReport>, CtlError> {
    let results: Vec<Result<AgentReport, CtlError>> = std::thread::scope(|s| {
        let handles: Vec<_> = agents
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let cmd = RunCmd {
                    phase,
                    agent_index: i as u32,
                    version_base,
                    rate_bytes_per_sec,
                    spec_text: spec_text.to_string(),
                };
                s.spawn(move || conn.run(cmd))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(CtlError::Io {
                        detail: "agent driver thread panicked".to_string(),
                    })
                })
            })
            .collect()
    });
    results.into_iter().collect()
}

/// Busy-frame total across every staging shard right now.
fn busy_frames(stats_clients: &[RemoteClient]) -> u64 {
    stats_clients
        .iter()
        .filter_map(|c| c.service_stats().ok())
        .map(|s| s.busy_frames)
        .sum()
}

/// Step offered load until goodput stops improving.
///
/// Each step runs warmup → measure → drain on every agent; Busy frames
/// are sampled from the shards around the measure window; the knee is
/// the offered load of the best-goodput row. Version bases advance
/// monotonically across phases so no step ever collides with a previous
/// step's keys, and the drain phase empties the store between steps.
pub fn saturation_sweep(
    agents: &mut [AgentConn],
    spec: &WorkloadSpec,
    opts: &SweepOptions,
) -> Result<SweepResult, CtlError> {
    let spec_text = spec.to_text();
    let mut stats_clients = Vec::with_capacity(spec.targets.len());
    for t in &spec.targets {
        stats_clients.push(RemoteClient::connect(t, ClientConfig::default())?);
    }
    // Upper bound on versions one phase can mint per name: its op count.
    let phase_span = spec.warmup_ops.max(spec.ops_per_conn) + 1;
    let mut version_base = 1u64;
    let mut result = SweepResult::default();
    let mut total_retries = 0u64;
    let mut total_completed = 0u64;
    let mut best_goodput = 0.0f64;
    for step in 0..opts.max_steps {
        let rate = opts
            .start_rate_bytes_per_sec
            .checked_shl(step)
            .unwrap_or(u64::MAX);
        run_phase_on_all(agents, Phase::Warmup, &spec_text, version_base, rate)?;
        version_base += phase_span;
        let busy_before = busy_frames(&stats_clients);
        let reports = run_phase_on_all(agents, Phase::Measure, &spec_text, version_base, rate)?;
        let busy_delta = busy_frames(&stats_clients).saturating_sub(busy_before);
        version_base += phase_span;
        run_phase_on_all(agents, Phase::Drain, &spec_text, version_base, 0)?;
        let merged = merge_reports(&reports);
        let elapsed_s = (merged.elapsed_ns.max(1)) as f64 / 1e9;
        let row = SweepRow {
            offered_mibps: rate as f64 * agents.len() as f64 / MIB,
            goodput_mibps: (merged.put_bytes + merged.get_bytes) as f64 / MIB / elapsed_s,
            put_lat: merged.put_ns.snapshot(),
            get_lat: merged.get_ns.snapshot(),
            busy_per_sec: busy_delta as f64 / elapsed_s,
            retry_amplification: merged.retry_amplification(),
            rejected_oom: merged.rejected_oom,
            failed: merged.failed,
        };
        total_retries += merged.retries();
        total_completed += merged.completed();
        result.busy_frames_total += busy_delta;
        let goodput = row.goodput_mibps;
        result.rows.push(row);
        if goodput > best_goodput {
            let improved = goodput >= best_goodput * (1.0 + opts.improve_frac);
            best_goodput = goodput;
            result.saturation_goodput_mibps = goodput;
            result.knee_offered_mibps = rate as f64 * agents.len() as f64 / MIB;
            if !improved && step > 0 {
                break; // gain under the improvement threshold: knee found
            }
        } else if step > 0 {
            break; // goodput flat or falling: past the knee
        }
    }
    result.retry_amplification = if total_completed == 0 {
        1.0
    } else {
        1.0 + total_retries as f64 / total_completed as f64
    };
    Ok(result)
}

/// A finite, positive-friendly rendering for the JSON writer: non-finite
/// values (impossible in a completed sweep, but the writer never panics)
/// clamp to 0.
fn fin(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn push_lat(out: &mut String, key: &str, lat: &LatencySnapshot) {
    out.push_str(&format!(
        "\"{key}\":{{\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
        lat.count, lat.p50_ns, lat.p95_ns, lat.p99_ns, lat.max_ns
    ));
}

/// Render a sweep as bench_summary-style JSON: a `rows` array for the
/// curve and a `benches` object carrying the three pinned xbench keys.
pub fn summary_json(result: &SweepResult) -> String {
    let mut out = String::from("{\n  \"unit\": \"mibps\",\n  \"rows\": [\n");
    for (i, row) in result.rows.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"offered_mibps\":{:.6},\"goodput_mibps\":{:.6},\"busy_per_sec\":{:.6},\
             \"retry_amplification\":{:.6},\"rejected_oom\":{},\"failed\":{},",
            fin(row.offered_mibps),
            fin(row.goodput_mibps),
            fin(row.busy_per_sec),
            fin(row.retry_amplification),
            row.rejected_oom,
            row.failed
        ));
        push_lat(&mut out, "put_lat", &row.put_lat);
        out.push(',');
        push_lat(&mut out, "get_lat", &row.get_lat);
        out.push('}');
        if i + 1 < result.rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"benches\": {\n");
    out.push_str(&format!(
        "    \"xbench_saturation_goodput_mibps\": {:.6},\n",
        fin(result.saturation_goodput_mibps)
    ));
    out.push_str(&format!(
        "    \"xbench_knee_offered_load\": {:.6},\n",
        fin(result.knee_offered_mibps)
    ));
    out.push_str(&format!(
        "    \"xbench_retry_amplification\": {:.6}\n",
        fin(result.retry_amplification)
    ));
    out.push_str("  }\n}\n");
    out
}

/// A loopback fixture: an in-process staging cluster plus in-process
/// agents, swept end to end. Returns the sweep (for assertions or JSON)
/// after stopping the agents and shutting the cluster down.
///
/// This is what `xbench-ctl --smoke` runs in CI: no external processes,
/// ephemeral ports only, a couple of seconds of wall time.
fn run_loopback_sweep(
    shards: usize,
    n_agents: usize,
    spec_base: &WorkloadSpec,
    opts: &SweepOptions,
) -> Result<SweepResult, CtlError> {
    use xlayer_net::service::ServiceConfig;
    use xlayer_net::StagingCluster;

    let cluster = StagingCluster::start(shards, &ServiceConfig::default())?;
    let mut spec = spec_base.clone();
    spec.targets = cluster.addrs();
    let mut servers = Vec::with_capacity(n_agents);
    let mut threads = Vec::with_capacity(n_agents);
    for i in 0..n_agents {
        let server = std::sync::Arc::new(crate::agent::AgentServer::bind(
            "127.0.0.1:0",
            &format!("smoke-{i}"),
        )?);
        let addr = server.local_addr();
        let srv = std::sync::Arc::clone(&server);
        threads.push(std::thread::spawn(move || {
            let _ = srv.serve();
        }));
        servers.push((server, addr));
    }
    let mut agents = Vec::with_capacity(n_agents);
    for (_, addr) in &servers {
        agents.push(AgentConn::connect(
            &addr.to_string(),
            Duration::from_secs(5),
        )?);
    }
    let swept = saturation_sweep(&mut agents, &spec, opts);
    for conn in &mut agents {
        let _ = conn.stop();
    }
    for t in threads {
        let _ = t.join();
    }
    cluster.shutdown();
    swept
}

/// The CI smoke configuration: 2 shards, 2 agents, a small deterministic
/// spec, 2 sweep steps. Checks the invariants the issue pins — rows
/// non-empty, monotone offered load, positive knee and goodput, puts
/// actually landed — and returns the sweep for JSON rendering.
pub fn run_smoke() -> Result<SweepResult, CtlError> {
    let spec = WorkloadSpec {
        seed: 7,
        agents: 2,
        connections: 2,
        ops_per_conn: 30,
        warmup_ops: 5,
        side_min: 4,
        side_max: 8,
        names: 3,
        spread: 2,
        ..WorkloadSpec::default()
    };
    let opts = SweepOptions {
        start_rate_bytes_per_sec: 4 << 20,
        max_steps: 2,
        improve_frac: 0.05,
    };
    let result = run_loopback_sweep(2, 2, &spec, &opts)?;
    let mut checks: Vec<&str> = Vec::new();
    if result.rows.is_empty() {
        checks.push("sweep produced no rows");
    }
    if !result.rows.windows(2).all(|w| {
        w.first().map(|a| a.offered_mibps).unwrap_or(0.0)
            < w.last().map(|b| b.offered_mibps).unwrap_or(0.0)
    }) {
        checks.push("offered load is not monotone across rows");
    }
    // NaN-safe: a non-finite metric must fail these checks too.
    if !result.knee_offered_mibps.is_finite() || result.knee_offered_mibps <= 0.0 {
        checks.push("knee offered load is not positive");
    }
    if !result.saturation_goodput_mibps.is_finite() || result.saturation_goodput_mibps <= 0.0 {
        checks.push("saturation goodput is not positive");
    }
    if !result.retry_amplification.is_finite() || result.retry_amplification < 1.0 {
        checks.push("retry amplification fell below 1.0");
    }
    if !result.rows.iter().any(|r| r.put_lat.count > 0) {
        checks.push("no put latency samples were recorded");
    }
    if let Some(detail) = checks.first() {
        return Err(CtlError::Malformed {
            detail: (*detail).to_string(),
        });
    }
    Ok(result)
}
