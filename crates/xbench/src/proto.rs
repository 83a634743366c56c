//! The xbench control protocol: how a controller drives agents.
//!
//! Frames are the staging wire's — the 24-byte header codec, the
//! bounds-checked little-endian cursors and the frame reader of
//! [`xlayer_net::frame`], with the same total, panic-free decoding
//! discipline — under a distinct magic (`XBCH`), version counter and
//! payload cap, so a control frame aimed at a staging service (or vice
//! versa) is rejected at the first four bytes. Controller and agent both
//! take frames off their sockets with [`read_ctl_header`] +
//! [`read_ctl_payload`]; what a failure means stays with each of them.
//!
//! The protocol is a sequential RPC per agent: `Hello` handshakes,
//! `Run` carries one phase of one workload (the spec travels as its
//! canonical text — both sides share the parser in [`crate::spec`]) and
//! blocks until the agent finishes the phase, answering `RunOk` with an
//! [`AgentReport`]; `Stop` shuts the agent down. Reports carry the
//! latency histograms sparsely: exact max, then `(bucket, count)` pairs
//! — merged controller-side with [`Hist::merge`].

use xlayer_net::frame::{self, FrameSpec, Rd, Wr};
use xlayer_net::hist::Hist;
use xlayer_net::wire::WireError;

use crate::spec::{SpecError, WorkloadSpec};

/// Control-frame magic: first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"XBCH";

/// Control-protocol version; peers refuse any other outright. Version 2
/// changed the function behind the header checksum with the staging wire
/// (`xlayer_staging::sum`), no layout.
pub const VERSION: u16 = 2;

/// Header size in bytes (same layout as the staging wire header).
pub const HEADER_LEN: usize = frame::HEADER_LEN;

/// Largest accepted control payload (16 MiB — reports are small; this
/// bounds a hostile header's allocation).
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// This protocol's parameters for the shared header codec.
const SPEC: FrameSpec = FrameSpec {
    magic: MAGIC,
    version: VERSION,
    max_payload: MAX_PAYLOAD,
};

/// Control-frame opcodes. Requests are low, responses have the top bit
/// set, errors share `0x7F` with the staging wire's convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CtlOpcode {
    /// Controller → agent greeting.
    Hello = 0x01,
    /// Run one phase of a workload.
    Run = 0x02,
    /// Shut the agent down.
    Stop = 0x03,
    /// Greeting answer (carries the agent's name).
    HelloOk = 0x81,
    /// Phase finished; carries an [`AgentReport`].
    RunOk = 0x82,
    /// Stop acknowledged.
    StopOk = 0x83,
    /// Typed failure.
    Error = 0x7F,
}

impl CtlOpcode {
    fn from_u8(b: u8) -> Option<CtlOpcode> {
        Some(match b {
            0x01 => CtlOpcode::Hello,
            0x02 => CtlOpcode::Run,
            0x03 => CtlOpcode::Stop,
            0x81 => CtlOpcode::HelloOk,
            0x82 => CtlOpcode::RunOk,
            0x83 => CtlOpcode::StopOk,
            0x7F => CtlOpcode::Error,
            _ => return None,
        })
    }
}

/// Why a control frame could not be handled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlError {
    /// Wrong magic (not a control frame at all).
    BadMagic,
    /// Version mismatch.
    BadVersion {
        /// The version the peer sent.
        got: u16,
    },
    /// Unknown opcode byte.
    BadOpcode {
        /// The unrecognised byte.
        got: u8,
    },
    /// Payload longer than [`MAX_PAYLOAD`].
    Oversized {
        /// Declared payload length.
        len: u32,
    },
    /// Checksum mismatch between header and payload.
    ChecksumMismatch,
    /// Body ended before its declared contents.
    Truncated,
    /// Body bytes were not valid for the opcode (bad UTF-8, bad
    /// enum tag, out-of-range histogram bucket, embedded spec error…).
    Malformed {
        /// Human-readable diagnosis.
        detail: String,
    },
    /// Transport failure underneath the protocol.
    Io {
        /// Stringified `std::io::Error` (kept owned so the type is `Eq`).
        detail: String,
    },
    /// The peer answered with a typed `Error` frame.
    Remote {
        /// The peer's diagnosis.
        detail: String,
    },
}

impl std::fmt::Display for CtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtlError::BadMagic => write!(f, "not an xbench control frame (bad magic)"),
            CtlError::BadVersion { got } => {
                write!(f, "control protocol version {got} (expected {VERSION})")
            }
            CtlError::BadOpcode { got } => write!(f, "unknown control opcode {got:#04x}"),
            CtlError::Oversized { len } => {
                write!(f, "control payload of {len} B exceeds {MAX_PAYLOAD} B")
            }
            CtlError::ChecksumMismatch => write!(f, "control payload checksum mismatch"),
            CtlError::Truncated => write!(f, "control frame body truncated"),
            CtlError::Malformed { detail } => write!(f, "malformed control body: {detail}"),
            CtlError::Io { detail } => write!(f, "control transport error: {detail}"),
            CtlError::Remote { detail } => write!(f, "peer reported: {detail}"),
        }
    }
}

impl std::error::Error for CtlError {}

impl From<std::io::Error> for CtlError {
    fn from(e: std::io::Error) -> Self {
        CtlError::Io {
            detail: e.to_string(),
        }
    }
}

/// The shared frame layer's failures in this protocol's taxonomy.
impl From<WireError> for CtlError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::BadMagic(_) => CtlError::BadMagic,
            WireError::BadVersion(got) => CtlError::BadVersion { got },
            WireError::Oversize(len) => CtlError::Oversized { len },
            WireError::ChecksumMismatch { .. } => CtlError::ChecksumMismatch,
            WireError::Truncated => CtlError::Truncated,
            WireError::BadUtf8 => CtlError::Malformed {
                detail: "string is not UTF-8".to_string(),
            },
            WireError::TrailingBytes(_) => CtlError::Malformed {
                detail: "trailing bytes after body".to_string(),
            },
            // Staging-body variants; the shared frame layer raises none.
            other => CtlError::Malformed {
                detail: other.to_string(),
            },
        }
    }
}

impl From<SpecError> for CtlError {
    fn from(e: SpecError) -> Self {
        CtlError::Malformed {
            detail: e.to_string(),
        }
    }
}

/// A workload phase. The controller sequences Warmup → Measure → Drain;
/// only Measure results feed the saturation curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Prime connections, pools, and caches; results discarded.
    Warmup = 0,
    /// The timed phase whose counters and histograms are reported.
    Measure = 1,
    /// Evict everything this workload staged, resetting occupancy.
    Drain = 2,
}

impl Phase {
    fn from_u8(b: u8) -> Option<Phase> {
        Some(match b {
            0 => Phase::Warmup,
            1 => Phase::Measure,
            2 => Phase::Drain,
            _ => return None,
        })
    }
}

/// One `Run` command: which phase, which agent slot, and under what
/// pacing.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCmd {
    /// The phase to execute.
    pub phase: Phase,
    /// This agent's index into the spec's `agents` (selects its streams).
    pub agent_index: u32,
    /// Version numbering base for this phase's puts; the controller
    /// advances it between phases so keys never collide across steps.
    pub version_base: u64,
    /// Offered-load pacing for this agent in bytes/second of put payload;
    /// 0 means unpaced (as fast as the wire accepts).
    pub rate_bytes_per_sec: u64,
    /// The workload, as canonical spec text (see
    /// [`WorkloadSpec::to_text`]).
    pub spec_text: String,
}

impl RunCmd {
    /// Parse the embedded spec text.
    pub fn spec(&self) -> Result<WorkloadSpec, SpecError> {
        WorkloadSpec::parse(&self.spec_text)
    }
}

/// A controller → agent request.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlRequest {
    /// Handshake.
    Hello,
    /// Execute one phase.
    Run(RunCmd),
    /// Shut down.
    Stop,
}

/// An agent → controller response.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlResponse {
    /// Handshake answer.
    HelloOk {
        /// The agent's self-reported name.
        agent: String,
    },
    /// Phase finished.
    RunOk(Box<AgentReport>),
    /// Stop acknowledged; the agent exits after sending this.
    StopOk,
    /// Typed failure (the connection stays usable).
    Error {
        /// Human-readable diagnosis.
        detail: String,
    },
}

/// Everything one agent measured in one phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentReport {
    /// Wall time of the phase on the agent, nanoseconds.
    pub elapsed_ns: u64,
    /// Completed put operations.
    pub puts: u64,
    /// Completed get operations.
    pub gets: u64,
    /// Completed drain operations.
    pub drains: u64,
    /// Payload bytes delivered by puts.
    pub put_bytes: u64,
    /// Payload bytes fetched by gets.
    pub get_bytes: u64,
    /// Puts rejected by the staging memory cap (policy signal, not an
    /// error).
    pub rejected_oom: u64,
    /// Operations that failed outright after retries.
    pub failed: u64,
    /// Client retries caused by `Busy` frames.
    pub retries_busy: u64,
    /// Client retries caused by transient transport failures.
    pub retries_io: u64,
    /// Client retries caused by undecodable frames.
    pub retries_wire: u64,
    /// Put latency histogram (successful ops).
    pub put_ns: Hist,
    /// Get latency histogram (successful ops).
    pub get_ns: Hist,
}

impl AgentReport {
    /// Completed operations across all kinds.
    pub fn completed(&self) -> u64 {
        self.puts + self.gets + self.drains
    }

    /// Total client retries across all causes.
    pub fn retries(&self) -> u64 {
        self.retries_busy + self.retries_io + self.retries_wire
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Sparse histogram body: exact max, then `(bucket, count)` pairs.
fn encode_hist(w: &mut Wr, h: &Hist) {
    w.u64(h.max_ns());
    let pairs: Vec<(u16, u64)> = h.nonzero_buckets().collect();
    w.u32(pairs.len() as u32);
    for (idx, n) in pairs {
        w.u16(idx);
        w.u64(n);
    }
}

fn decode_hist(r: &mut Rd<'_>) -> Result<Hist, CtlError> {
    let max = r.u64()?;
    let npairs = r.u32()? as usize;
    let mut h = Hist::new();
    for _ in 0..npairs {
        let idx = r.u16()?;
        let count = r.u64()?;
        if !h.add_bucket(idx, count) {
            return Err(CtlError::Malformed {
                detail: format!("histogram bucket {idx} out of range"),
            });
        }
    }
    h.raise_max(max);
    Ok(h)
}

fn encode_report(w: &mut Wr, r: &AgentReport) {
    for v in [
        r.elapsed_ns,
        r.puts,
        r.gets,
        r.drains,
        r.put_bytes,
        r.get_bytes,
        r.rejected_oom,
        r.failed,
        r.retries_busy,
        r.retries_io,
        r.retries_wire,
    ] {
        w.u64(v);
    }
    encode_hist(w, &r.put_ns);
    encode_hist(w, &r.get_ns);
}

fn decode_report(r: &mut Rd<'_>) -> Result<AgentReport, CtlError> {
    Ok(AgentReport {
        elapsed_ns: r.u64()?,
        puts: r.u64()?,
        gets: r.u64()?,
        drains: r.u64()?,
        put_bytes: r.u64()?,
        get_bytes: r.u64()?,
        rejected_oom: r.u64()?,
        failed: r.u64()?,
        retries_busy: r.u64()?,
        retries_io: r.u64()?,
        retries_wire: r.u64()?,
        put_ns: decode_hist(r)?,
        get_ns: decode_hist(r)?,
    })
}

/// A decoded control-frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlHeader {
    /// Frame opcode.
    pub opcode: CtlOpcode,
    /// Request id (echoed by responses).
    pub request_id: u64,
    /// Declared payload length.
    pub payload_len: u32,
    /// Declared payload checksum.
    pub checksum: u32,
}

/// Build a complete frame for `body` under `opcode`/`request_id`.
pub fn encode_ctl_frame(opcode: CtlOpcode, request_id: u64, body: &[u8]) -> Vec<u8> {
    SPEC.encode(opcode as u8, request_id, body)
}

/// Decode and validate a 24-byte control header.
pub fn decode_ctl_header(h: &[u8; HEADER_LEN]) -> Result<CtlHeader, CtlError> {
    let raw = SPEC.decode_header(h)?;
    let opcode = CtlOpcode::from_u8(raw.opcode).ok_or(CtlError::BadOpcode { got: raw.opcode })?;
    Ok(CtlHeader {
        opcode,
        request_id: raw.request_id,
        payload_len: raw.payload_len,
        checksum: raw.checksum,
    })
}

/// Take one control header off `r` (the shared frame reader under this
/// protocol's header decoder).
pub fn read_ctl_header(r: &mut impl std::io::Read) -> Result<CtlHeader, CtlError> {
    frame::read_header(r, decode_ctl_header)
}

/// Read and verify the payload `header` announced.
pub fn read_ctl_payload(
    r: &mut impl std::io::Read,
    header: &CtlHeader,
) -> Result<Vec<u8>, CtlError> {
    let mut payload = vec![0u8; header.payload_len as usize];
    match frame::read_payload(r, &mut payload, header.checksum) {
        Ok(()) => Ok(payload),
        Err(frame::RecvError::Io(e)) => Err(e.into()),
        Err(frame::RecvError::Wire(e)) => Err(e.into()),
    }
}

impl CtlRequest {
    /// This request's opcode.
    pub fn opcode(&self) -> CtlOpcode {
        match self {
            CtlRequest::Hello => CtlOpcode::Hello,
            CtlRequest::Run(_) => CtlOpcode::Run,
            CtlRequest::Stop => CtlOpcode::Stop,
        }
    }

    /// Encode into a complete frame.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut w = Wr::default();
        if let CtlRequest::Run(cmd) = self {
            w.u8(cmd.phase as u8);
            w.u32(cmd.agent_index);
            w.u64(cmd.version_base);
            w.u64(cmd.rate_bytes_per_sec);
            w.string(&cmd.spec_text);
        }
        encode_ctl_frame(self.opcode(), request_id, &w.buf)
    }

    /// Decode a request body from its opcode and verified payload.
    pub fn decode_body(opcode: CtlOpcode, payload: &[u8]) -> Result<CtlRequest, CtlError> {
        let mut r = Rd::new(payload);
        let req = match opcode {
            CtlOpcode::Hello => CtlRequest::Hello,
            CtlOpcode::Stop => CtlRequest::Stop,
            CtlOpcode::Run => {
                let phase_b = r.u8()?;
                let phase = Phase::from_u8(phase_b).ok_or(CtlError::Malformed {
                    detail: format!("unknown phase {phase_b}"),
                })?;
                CtlRequest::Run(RunCmd {
                    phase,
                    agent_index: r.u32()?,
                    version_base: r.u64()?,
                    rate_bytes_per_sec: r.u64()?,
                    spec_text: r.string()?,
                })
            }
            other => {
                return Err(CtlError::Malformed {
                    detail: format!("opcode {:#04x} is not a request", other as u8),
                })
            }
        };
        r.done()?;
        Ok(req)
    }
}

impl CtlResponse {
    /// This response's opcode.
    pub fn opcode(&self) -> CtlOpcode {
        match self {
            CtlResponse::HelloOk { .. } => CtlOpcode::HelloOk,
            CtlResponse::RunOk(_) => CtlOpcode::RunOk,
            CtlResponse::StopOk => CtlOpcode::StopOk,
            CtlResponse::Error { .. } => CtlOpcode::Error,
        }
    }

    /// Encode into a complete frame echoing `request_id`.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut w = Wr::default();
        match self {
            CtlResponse::HelloOk { agent } => w.string(agent),
            CtlResponse::RunOk(report) => encode_report(&mut w, report),
            CtlResponse::StopOk => {}
            CtlResponse::Error { detail } => w.string(detail),
        }
        encode_ctl_frame(self.opcode(), request_id, &w.buf)
    }

    /// Decode a response body from its opcode and verified payload.
    pub fn decode_body(opcode: CtlOpcode, payload: &[u8]) -> Result<CtlResponse, CtlError> {
        let mut r = Rd::new(payload);
        let resp = match opcode {
            CtlOpcode::HelloOk => CtlResponse::HelloOk { agent: r.string()? },
            CtlOpcode::RunOk => CtlResponse::RunOk(Box::new(decode_report(&mut r)?)),
            CtlOpcode::StopOk => CtlResponse::StopOk,
            CtlOpcode::Error => CtlResponse::Error {
                detail: r.string()?,
            },
            other => {
                return Err(CtlError::Malformed {
                    detail: format!("opcode {:#04x} is not a response", other as u8),
                })
            }
        };
        r.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One whole frame through the readers the controller and agent use.
    fn read_whole(mut frame: &[u8]) -> Result<(CtlHeader, Vec<u8>), CtlError> {
        let header = read_ctl_header(&mut frame)?;
        let payload = read_ctl_payload(&mut frame, &header)?;
        assert!(frame.is_empty(), "frame longer than its header declared");
        Ok((header, payload))
    }

    fn decode_request_whole(frame: &[u8]) -> Result<CtlRequest, CtlError> {
        let (header, payload) = read_whole(frame)?;
        CtlRequest::decode_body(header.opcode, &payload)
    }

    fn decode_response_whole(frame: &[u8]) -> Result<CtlResponse, CtlError> {
        let (header, payload) = read_whole(frame)?;
        CtlResponse::decode_body(header.opcode, &payload)
    }

    #[test]
    fn requests_roundtrip() {
        let spec = crate::spec::WorkloadSpec::default();
        let cases = vec![
            CtlRequest::Hello,
            CtlRequest::Stop,
            CtlRequest::Run(RunCmd {
                phase: Phase::Measure,
                agent_index: 3,
                version_base: 1_000,
                rate_bytes_per_sec: 64 << 20,
                spec_text: spec.to_text(),
            }),
        ];
        for req in cases {
            let back = decode_request_whole(&req.encode(9)).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn responses_roundtrip_including_hists() {
        let mut put_ns = Hist::new();
        let mut get_ns = Hist::new();
        for ns in [120u64, 4_000, 4_001, 9_999_999] {
            put_ns.record(ns);
        }
        get_ns.record(77);
        let report = AgentReport {
            elapsed_ns: 1,
            puts: 2,
            gets: 3,
            drains: 4,
            put_bytes: 5,
            get_bytes: 6,
            rejected_oom: 7,
            failed: 8,
            retries_busy: 9,
            retries_io: 10,
            retries_wire: 11,
            put_ns,
            get_ns,
        };
        let cases = vec![
            CtlResponse::HelloOk {
                agent: "a0".to_string(),
            },
            CtlResponse::StopOk,
            CtlResponse::Error {
                detail: "nope".to_string(),
            },
            CtlResponse::RunOk(Box::new(report.clone())),
        ];
        for resp in cases {
            let back = decode_response_whole(&resp.encode(4)).unwrap();
            match (&resp, &back) {
                (CtlResponse::RunOk(a), CtlResponse::RunOk(b)) => {
                    assert_eq!(a.elapsed_ns, b.elapsed_ns);
                    assert_eq!(a.completed(), b.completed());
                    assert_eq!(a.retries(), b.retries());
                    assert_eq!(a.put_ns.snapshot(), b.put_ns.snapshot());
                    assert_eq!(a.get_ns.snapshot(), b.get_ns.snapshot());
                }
                (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            }
        }
    }

    #[test]
    fn hostile_headers_are_rejected_typed() {
        let good = CtlRequest::Hello.encode(1);
        let mut h = [0u8; HEADER_LEN];
        h.copy_from_slice(&good[..HEADER_LEN]);

        let mut bad = h;
        bad[0] = b'Y';
        assert_eq!(decode_ctl_header(&bad), Err(CtlError::BadMagic));

        let mut bad = h;
        bad[4] = 99;
        assert!(matches!(
            decode_ctl_header(&bad),
            Err(CtlError::BadVersion { got: 99 })
        ));

        // The previous version summed its payloads with FNV-1a-32: such a
        // peer is refused at the header, not retried as a checksum fault.
        let mut bad = h;
        bad[4..6].copy_from_slice(&(VERSION - 1).to_le_bytes());
        assert_eq!(
            decode_ctl_header(&bad),
            Err(CtlError::BadVersion { got: 1 })
        );

        let mut bad = h;
        bad[6] = 0x55;
        assert!(matches!(
            decode_ctl_header(&bad),
            Err(CtlError::BadOpcode { got: 0x55 })
        ));

        let mut bad = h;
        bad[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_ctl_header(&bad),
            Err(CtlError::Oversized { .. })
        ));
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder() {
        // Deterministic fuzz, same spirit as the staging wire's.
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for _ in 0..2000 {
            let mut h = [0u8; HEADER_LEN];
            for b in h.iter_mut() {
                *b = next();
            }
            if let Ok(header) = decode_ctl_header(&h) {
                let payload: Vec<u8> = (0..(header.payload_len.min(64) as usize))
                    .map(|_| next())
                    .collect();
                let _ = CtlRequest::decode_body(header.opcode, &payload);
                let _ = CtlResponse::decode_body(header.opcode, &payload);
            }
        }
    }
}
