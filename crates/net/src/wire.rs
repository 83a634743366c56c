//! The staging wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message — request or response — is one frame, laid out by the
//! header codec in the crate-private `frame` module under this protocol's
//! magic, version and payload cap:
//!
//! ```text
//! offset  size  field
//!      0     4  magic            b"XLNT"
//!      4     2  protocol version u16 LE (currently 7)
//!      6     1  opcode           (see [`Opcode`])
//!      7     1  flags            reserved, must be 0
//!      8     8  request id       u64 LE, echoed by the response
//!     16     4  payload length   u32 LE, bytes after the header
//!     20     4  checksum         `xlayer_staging::sum` over the payload, u32 LE
//!     24     …  payload          opcode-specific body
//! ```
//!
//! Bodies are written and read with `xlayer_staging::codec`'s cursors —
//! the disk tier's spill log uses the same ones, and the same
//! [`ObjectDesc`] layout. Integers are little-endian; floats travel as
//! `to_bits()`; strings are `u32` length + UTF-8 bytes; an [`IBox`] is its
//! two inclusive corners (6 × `i64`); an option is a one-byte tag, then the
//! value if the tag is non-zero. The payload length is capped
//! ([`MAX_PAYLOAD`]) so a hostile header cannot make a peer allocate
//! unbounded memory, and every decode error is a typed [`WireError`] — the
//! codec never panics on malformed bytes (xlint rule P covers this module
//! and the shared codec).

use crate::frame::{self, FrameSpec};
use bytes::Bytes;
use xlayer_amr::boxes::IBox;
use xlayer_staging::codec::{DecodeError, Rd, Wr};
use xlayer_staging::sum::Sum;
use xlayer_staging::{DataObject, ObjectDesc};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"XLNT";

/// Protocol version encoded in every header. Peers refuse any other
/// version outright ([`WireError::BadVersion`]), so a body-layout change
/// MUST bump this — version 2 widened the `StatsOk` body with the tier
/// and cache counters and added error code 5 (a downsample request);
/// version
/// 3 appended the disk-budget pair (`tier_disk_budget`,
/// `tier_disk_headroom`) to `StatsOk`; version 4 appended `busy_frames`
/// (Busy refusals actually written) to `StatsOk` for load-generation
/// accounting; version 5 fixed the chunk size of every stream at
/// [`CHUNK`] (dropping the negotiated size from the bodies of `PutChunked`,
/// `GetChunked` and `GetChunkedOk`) and retired the single-frame `Get` /
/// `GetOk` pair, whose opcode numbers 0x02 / 0x82 stay unassigned; an
/// older peer would misparse the body. Version 6 changed no layout but
/// the function behind every checksum field (byte-serial FNV-1a-32 → the
/// four-lane sum of `xlayer_staging::sum`): without the bump a v5 peer's
/// frames would fail as `ChecksumMismatch` — and be retried — instead of
/// being refused. Version 7 put the object's value range (two `f64`,
/// after `dx`) in every descriptor and an optional isovalue predicate
/// (`crossing`) at the end of the `GetChunked` body. Version 8 retired
/// error code 5, the downsample request (the producer packs at the
/// pressure verdict's factor, so no service asks for one): without the
/// bump a v7 peer's code 5 would fail as `BadErrorCode` instead of the
/// peer being refused as another version. Version 9 added error code 6,
/// `Unreadable` (a server could not read back a spilled extent of the
/// version asked for; code 5 stays unassigned): a v8 client would fail it
/// as `BadErrorCode` and retry a read that cannot succeed. The layout
/// fingerprint is additionally pinned in `xlint.wire` (rule S):
/// regenerate it with `xlint --write-wire-pin` alongside any bump.
pub const VERSION: u16 = 9;

/// Header size in bytes.
pub const HEADER_LEN: usize = frame::HEADER_LEN;

/// Largest accepted payload (256 MiB). Decoders reject longer frames
/// before allocating. Objects above this limit must travel chunked
/// ([`Opcode::PutChunked`]/[`Opcode::GetChunked`]), whose streams are
/// bounded per-frame by [`CHUNK`] and in total by [`MAX_CHUNKED_OBJECT`].
pub const MAX_PAYLOAD: u32 = 256 << 20;

/// This protocol's parameters for the header codec.
const SPEC: FrameSpec = FrameSpec {
    magic: MAGIC,
    version: VERSION,
    max_payload: MAX_PAYLOAD,
};

/// The data bytes of every chunk of a chunked stream but an object's last,
/// which may be shorter (1 MiB). Fixed, not negotiated: it is the size the
/// per-chunk sums an object carries are valid for
/// (`xlayer_staging::sum`).
pub use xlayer_staging::sum::CHUNK;

/// Ceiling on one chunked object's total payload (16 GiB) — the chunked
/// path removes [`MAX_PAYLOAD`]'s per-frame cap, not the principle that a
/// hostile descriptor must not size an unbounded allocation.
pub const MAX_CHUNKED_OBJECT: u64 = 16 << 30;

/// Byte length of the [`Opcode::ChunkData`] body prefix that precedes the
/// chunk's data bytes: `u32` object index + `u64` stream offset.
pub const CHUNK_PREFIX_LEN: usize = 12;

/// The integrity sum carried in each header. The definition lives in
/// `xlayer_staging::sum` — the disk tier checksums its extents with the
/// very same function, so the per-chunk sums an object learned on the wire
/// stay valid on disk and back.
pub use xlayer_staging::sum::checksum;

/// Frame opcodes. Requests occupy `0x01..=0x08` (`0x02`, the retired
/// single-frame get, is unassigned — as is its response `0x82`), their
/// success responses the same code with the high bit set, `0x09`/`0x0A` are the sub-frames
/// of a chunked stream (either direction), and `0x7F` is the typed error
/// response any request can receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Store one [`DataObject`].
    Put = 0x01,
    /// Fetch descriptors only (metadata query).
    Query = 0x03,
    /// Evict versions of a variable older than a watermark.
    Delete = 0x04,
    /// Fetch service statistics.
    Stats = 0x05,
    /// Ask the service to shut down gracefully.
    Shutdown = 0x06,
    /// Open a chunked put stream: descriptor now, payload in
    /// [`Opcode::ChunkData`] sub-frames after.
    PutChunked = 0x07,
    /// Fetch the objects under `(name, version)`, optionally intersecting
    /// a query box, as a chunked stream.
    GetChunked = 0x08,
    /// One sub-frame of payload inside a chunked stream: object index +
    /// stream offset + data, checksummed per chunk by the frame header.
    ChunkData = 0x09,
    /// Terminal frame of a chunked stream, carrying object and byte totals
    /// for an end-to-end cross-check.
    ChunkEnd = 0x0A,
    /// Success response to [`Opcode::Put`].
    PutOk = 0x81,
    /// Success response to [`Opcode::Query`].
    QueryOk = 0x83,
    /// Success response to [`Opcode::Delete`].
    DeleteOk = 0x84,
    /// Success response to [`Opcode::Stats`].
    StatsOk = 0x85,
    /// Success response to [`Opcode::Shutdown`].
    ShutdownOk = 0x86,
    /// Success response to [`Opcode::PutChunked`], sent after the entire
    /// stream has been assembled and stored.
    PutChunkedOk = 0x87,
    /// Response header of a [`Opcode::GetChunked`] stream: descriptors,
    /// followed by `ChunkData`/`ChunkEnd` frames.
    GetChunkedOk = 0x88,
    /// Typed error response (see [`ErrorFrame`]).
    Error = 0x7F,
}

impl Opcode {
    /// Decode an opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            0x01 => Some(Opcode::Put),
            0x03 => Some(Opcode::Query),
            0x04 => Some(Opcode::Delete),
            0x05 => Some(Opcode::Stats),
            0x06 => Some(Opcode::Shutdown),
            0x07 => Some(Opcode::PutChunked),
            0x08 => Some(Opcode::GetChunked),
            0x09 => Some(Opcode::ChunkData),
            0x0A => Some(Opcode::ChunkEnd),
            0x81 => Some(Opcode::PutOk),
            0x83 => Some(Opcode::QueryOk),
            0x84 => Some(Opcode::DeleteOk),
            0x85 => Some(Opcode::StatsOk),
            0x86 => Some(Opcode::ShutdownOk),
            0x87 => Some(Opcode::PutChunkedOk),
            0x88 => Some(Opcode::GetChunkedOk),
            0x7F => Some(Opcode::Error),
            _ => None,
        }
    }
}

/// A decode failure. Every malformed input maps to one of these — the
/// codec is total over arbitrary bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u16),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Reserved flags byte was not zero.
    BadFlags(u8),
    /// Payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// Payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum carried in the header.
        header: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// The buffer ended before the field being decoded.
    Truncated,
    /// Payload bytes remained after the body was fully decoded.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A decoded object's descriptor and payload disagree (lengths or
    /// core/bbox geometry).
    InconsistentObject,
    /// The opcode is valid but not legal in this position (e.g. a response
    /// opcode in a request frame).
    UnexpectedOpcode(u8),
    /// Unknown error-frame code.
    BadErrorCode(u16),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadOpcode(b) => write!(f, "unknown opcode 0x{b:02x}"),
            WireError::BadFlags(b) => write!(f, "nonzero reserved flags 0x{b:02x}"),
            WireError::Oversize(n) => write!(f, "payload of {n} B exceeds cap of {MAX_PAYLOAD} B"),
            WireError::ChecksumMismatch { header, computed } => write!(
                f,
                "payload checksum mismatch: header {header:08x}, computed {computed:08x}"
            ),
            WireError::Truncated => write!(f, "frame truncated mid-field"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::InconsistentObject => {
                write!(f, "object descriptor and payload are inconsistent")
            }
            WireError::UnexpectedOpcode(b) => write!(f, "opcode 0x{b:02x} not legal here"),
            WireError::BadErrorCode(c) => write!(f, "unknown error frame code {c}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::TrailingBytes(n) => WireError::TrailingBytes(n),
            DecodeError::BadUtf8 => WireError::BadUtf8,
        }
    }
}

/// A `Put` body's object: its descriptor, then its payload as a byte
/// string, checked against each other ([`DataObject::from_wire`]).
fn read_object(r: &mut Rd<'_>) -> Result<DataObject, WireError> {
    let desc = r.desc()?;
    let payload = Bytes::copy_from_slice(r.bytes()?);
    DataObject::from_wire(desc, payload).ok_or(WireError::InconsistentObject)
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// A raw frame: opcode + request id + verified payload bytes. The unit the
/// transport reads and writes; [`Request`]/[`Response`] decode the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Frame opcode.
    pub opcode: Opcode,
    /// Request id (responses echo the request's).
    pub request_id: u64,
    /// Opcode-specific body (checksum already verified).
    pub payload: Vec<u8>,
}

/// Encode a complete frame (header + payload) into one buffer.
pub fn encode_frame(opcode: Opcode, request_id: u64, payload: &[u8]) -> Vec<u8> {
    SPEC.encode(opcode as u8, request_id, payload)
}

/// Parsed header fields, prior to payload arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Frame opcode.
    pub opcode: Opcode,
    /// Request id.
    pub request_id: u64,
    /// Payload length in bytes (≤ [`MAX_PAYLOAD`]).
    pub payload_len: u32,
    /// Checksum of the payload.
    pub checksum: u32,
}

/// Decode and validate a 24-byte header.
pub fn decode_header(buf: &[u8; HEADER_LEN]) -> Result<Header, WireError> {
    let raw = SPEC.decode_header(buf)?;
    let opcode = Opcode::from_u8(raw.opcode).ok_or(WireError::BadOpcode(raw.opcode))?;
    if raw.flags != 0 {
        return Err(WireError::BadFlags(raw.flags));
    }
    Ok(Header {
        opcode,
        request_id: raw.request_id,
        payload_len: raw.payload_len,
        checksum: raw.checksum,
    })
}

/// Verify a received payload against its header's checksum.
pub fn verify_payload(header: &Header, payload: &[u8]) -> Result<(), WireError> {
    frame::verify(header.checksum, payload)
}

/// Build a 24-byte frame header for a payload whose bytes are sent
/// separately (the vectored-I/O send path): the caller supplies the total
/// payload length and its checksum (streamed through
/// `xlayer_staging::sum::Sum` when the payload is scattered across
/// buffers).
pub fn frame_header(
    opcode: Opcode,
    request_id: u64,
    payload_len: u32,
    cks: u32,
) -> [u8; HEADER_LEN] {
    SPEC.header(opcode as u8, request_id, payload_len, cks)
}

/// Encode a single-frame `Put` as vectored parts: fills `scratch` with the
/// body minus the payload bytes (descriptor + payload length prefix) and
/// returns the frame header. Sending `[header, scratch, payload]` is
/// byte-identical to `Request::Put(obj).encode(request_id)` but never
/// copies the payload into a contiguous frame.
pub fn put_frame_parts(
    obj: &DataObject,
    request_id: u64,
    scratch: &mut Vec<u8>,
) -> [u8; HEADER_LEN] {
    scratch.clear();
    let mut w = Wr {
        buf: std::mem::take(scratch),
    };
    w.desc(&obj.desc);
    w.u32(obj.payload.len() as u32);
    *scratch = w.buf;
    let total = (scratch.len() + obj.payload.len()) as u32;
    let mut sum = Sum::new();
    sum.update(scratch);
    sum.update(obj.payload.as_ref());
    frame_header(Opcode::Put, request_id, total, sum.finish())
}

// ---------------------------------------------------------------------------
// Chunked stream sub-frames
// ---------------------------------------------------------------------------
//
// The byte encoders of a chunked stream's sub-frames. A stream is opened
// by a `PutChunked` request (client → service) or a `GetChunkedOk` response
// (service → client), and then consists of zero or more `ChunkData` frames
// followed by exactly one `ChunkEnd`, all carrying the stream's request id.
// Each `ChunkData` body is a fixed 12-byte prefix — `u32` object index +
// `u64` stream offset — followed by the chunk's data bytes; the frame
// header's checksum is `checksum(prefix) XOR checksum(data)` — two
// independent passes combined by XOR rather than one streaming
// pass over the concatenation. The XOR split keeps per-chunk integrity
// (either half flipping flips the result) while making the data component
// independent of the prefix, i.e. of the chunk's object index and stream
// offset in *this* response — so an object's chunk sums, computed once by
// whoever hashed it first, frame it in every later stream
// ([`chunk_data_parts_cached`]). Which chunks a receiver accepts — the
// sequencing rule that lets it assemble in place — is `crate::stream`'s.

/// Encode the header + body-prefix pair of a [`Opcode::ChunkData`] frame
/// whose data bytes are written separately (vectored), so the data —
/// typically a slice of an `Arc`-held object payload — is never copied
/// into a frame buffer.
pub fn chunk_data_parts(
    request_id: u64,
    index: u32,
    offset: u64,
    data: &[u8],
) -> ([u8; HEADER_LEN], [u8; CHUNK_PREFIX_LEN]) {
    chunk_data_parts_cached(request_id, index, offset, checksum(data), data.len())
}

/// [`chunk_data_parts`] with the data half of the checksum —
/// `checksum(data)` — supplied by the caller instead of recomputed. The
/// chunk checksum is `checksum(prefix) ^ checksum(data)`, so a sender
/// whose object already knows its per-chunk sums
/// (`DataObject::known_sums`) emits the stream without touching the data
/// bytes beyond the socket write itself.
pub fn chunk_data_parts_cached(
    request_id: u64,
    index: u32,
    offset: u64,
    data_checksum: u32,
    data_len: usize,
) -> ([u8; HEADER_LEN], [u8; CHUNK_PREFIX_LEN]) {
    let mut prefix = [0u8; CHUNK_PREFIX_LEN];
    prefix[..4].copy_from_slice(&index.to_le_bytes());
    prefix[4..12].copy_from_slice(&offset.to_le_bytes());
    let cks = checksum(&prefix) ^ data_checksum;
    let len = (CHUNK_PREFIX_LEN + data_len) as u32;
    (
        frame_header(Opcode::ChunkData, request_id, len, cks),
        prefix,
    )
}

/// Decode the fixed 12-byte [`Opcode::ChunkData`] prefix: which object of
/// the stream the chunk belongs to (0-based; always 0 for a put stream,
/// which carries one object) and its byte offset within that object's
/// payload. The receiver reads the prefix and the data bytes in separate
/// reads — the data lands directly in the destination object buffer — so
/// the prefix is decoded alone.
pub fn decode_chunk_prefix(prefix: &[u8; CHUNK_PREFIX_LEN]) -> (u32, u64) {
    // The array holds both fields, so neither read can fail.
    let mut r = Rd::new(prefix);
    (r.u32().unwrap_or_default(), r.u64().unwrap_or_default())
}

/// Totals carried by a stream's terminal [`Opcode::ChunkEnd`] frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkEnd {
    /// Number of objects the stream carried.
    pub objects: u32,
    /// Total data bytes across all chunks (excluding prefixes).
    pub total_bytes: u64,
}

/// Encode a complete [`Opcode::ChunkEnd`] frame.
pub fn encode_chunk_end(request_id: u64, end: ChunkEnd) -> Vec<u8> {
    let mut w = Wr::default();
    w.u32(end.objects);
    w.u64(end.total_bytes);
    encode_frame(Opcode::ChunkEnd, request_id, &w.buf)
}

/// Decode a [`Opcode::ChunkEnd`] body.
pub fn decode_chunk_end(payload: &[u8]) -> Result<ChunkEnd, WireError> {
    let mut r = Rd::new(payload);
    let objects = r.u32()?;
    let total_bytes = r.u64()?;
    r.done()?;
    Ok(ChunkEnd {
        objects,
        total_bytes,
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Store one object in the staging space.
    Put(DataObject),
    /// Descriptors under `(name, version)` — metadata only.
    Query {
        /// Variable name.
        name: String,
        /// Version (simulation step).
        version: u64,
    },
    /// Evict versions of `name` older than `before_version`.
    Delete {
        /// Variable name.
        name: String,
        /// Versions `< before_version` are dropped.
        before_version: u64,
    },
    /// Fetch service statistics.
    Stats,
    /// Request a graceful service shutdown.
    Shutdown,
    /// Open a chunked put stream: the descriptor travels now, the payload
    /// follows in `ChunkData` sub-frames under the same request id.
    PutChunked {
        /// Descriptor of the object being streamed (carries total length).
        desc: ObjectDesc,
    },
    /// Fetch the objects under `(name, version)`, optionally clipped to a
    /// query box and to the objects an isosurface can cross, as a chunked
    /// stream.
    GetChunked {
        /// Variable name.
        name: String,
        /// Version (simulation step).
        version: u64,
        /// Optional spatial filter.
        query: Option<IBox>,
        /// Optional isovalue predicate (`ObjectDesc::may_cross`).
        crossing: Option<f64>,
    },
}

impl Request {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Put(_) => Opcode::Put,
            Request::Query { .. } => Opcode::Query,
            Request::Delete { .. } => Opcode::Delete,
            Request::Stats => Opcode::Stats,
            Request::Shutdown => Opcode::Shutdown,
            Request::PutChunked { .. } => Opcode::PutChunked,
            Request::GetChunked { .. } => Opcode::GetChunked,
        }
    }

    /// Encode the body (everything after the header) into `out`, which is
    /// cleared first. Split from [`Request::encode`] so send paths can fill
    /// a pooled scratch buffer and write header + body vectored.
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        out.clear();
        let mut w = Wr {
            buf: std::mem::take(out),
        };
        match self {
            Request::Put(obj) => {
                w.desc(&obj.desc);
                w.bytes(obj.payload.as_ref());
            }
            Request::Query { name, version } => {
                w.string(name);
                w.u64(*version);
            }
            Request::Delete {
                name,
                before_version,
            } => {
                w.string(name);
                w.u64(*before_version);
            }
            Request::Stats | Request::Shutdown => {}
            Request::PutChunked { desc } => w.desc(desc),
            Request::GetChunked {
                name,
                version,
                query,
                crossing,
            } => {
                w.string(name);
                w.u64(*version);
                w.opt_ibox(query.as_ref());
                w.opt_f64(*crossing);
            }
        }
        *out = w.buf;
    }

    /// Encode into a complete frame under `request_id`.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut body = Vec::new();
        self.encode_body(&mut body);
        encode_frame(self.opcode(), request_id, &body)
    }

    /// Decode a request body from its opcode and verified payload bytes.
    pub fn decode_body(opcode: Opcode, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Rd::new(payload);
        let req = match opcode {
            Opcode::Put => Request::Put(read_object(&mut r)?),
            Opcode::Query => Request::Query {
                name: r.string()?,
                version: r.u64()?,
            },
            Opcode::Delete => Request::Delete {
                name: r.string()?,
                before_version: r.u64()?,
            },
            Opcode::Stats => Request::Stats,
            Opcode::Shutdown => Request::Shutdown,
            Opcode::PutChunked => Request::PutChunked { desc: r.desc()? },
            Opcode::GetChunked => Request::GetChunked {
                name: r.string()?,
                version: r.u64()?,
                query: r.opt_ibox()?,
                crossing: r.opt_f64()?,
            },
            other => return Err(WireError::UnexpectedOpcode(other as u8)),
        };
        r.done()?;
        Ok(req)
    }

    /// Decode a request body from a verified frame.
    pub fn decode(frame: &Frame) -> Result<Request, WireError> {
        Request::decode_body(frame.opcode, &frame.payload)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of service counters, carried by the `Stats`
/// response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// `Put` and `PutChunked` requests served (including rejected ones).
    pub puts: u64,
    /// `GetChunked` requests served.
    pub gets: u64,
    /// `Query` requests served.
    pub queries: u64,
    /// `Delete` requests served.
    pub deletes: u64,
    /// `Stats` requests served.
    pub stats_calls: u64,
    /// Frames that failed to decode (malformed requests).
    pub wire_errors: u64,
    /// Puts rejected because the staging space was out of memory.
    pub rejected_oom: u64,
    /// Connections accepted into the worker pool.
    pub conns_accepted: u64,
    /// Connections refused because the pool was full.
    pub conns_refused: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
    /// Bytes resident in the staging space.
    pub used: u64,
    /// Total staging capacity in bytes.
    pub capacity: u64,
    /// Wire-buffer acquisitions satisfied from the service's buffer pool.
    pub pool_hits: u64,
    /// Wire-buffer acquisitions that had to allocate fresh memory.
    pub pool_misses: u64,
    /// Pooled buffers currently checked out by service workers.
    pub pool_outstanding: u64,
    /// Objects demoted to the disk tier.
    pub tier_spilled: u64,
    /// Objects promoted from the disk tier back into memory.
    pub tier_promoted: u64,
    /// Live payload bytes currently on the disk tier.
    pub tier_disk_used: u64,
    /// Gets answered (at least partly) from the disk tier.
    pub tier_disk_hits: u64,
    /// Configured disk-tier capacity in bytes, summed across servers
    /// (`u64::MAX`-saturating; 0 when no tier is attached).
    pub tier_disk_budget: u64,
    /// Disk bytes still free under the budget (`budget - used`,
    /// saturating) — the headroom a placement policy steers by.
    pub tier_disk_headroom: u64,
    /// Objects streamed by a chunked get whose per-chunk sums were already
    /// known when the stream began.
    pub chunksum_hits: u64,
    /// Objects streamed by a chunked get that had to be hashed on the way
    /// out.
    pub chunksum_misses: u64,
    /// `Busy` error frames actually written to refused peers (wire
    /// version 4; load generators reconcile this against client-side
    /// Busy-retry counts).
    pub busy_frames: u64,
}

/// A typed error response. `OutOfMemory` mirrors
/// [`xlayer_staging::StagingError`] so the memory-pressure policy signal
/// crosses the wire intact; the others are transport/service conditions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErrorFrame {
    /// The staging space rejected a put (paper Eq. 10's memory cap). This
    /// is a policy signal — clients must NOT retry it.
    OutOfMemory {
        /// Space capacity in bytes.
        cap: u64,
        /// Bytes already resident.
        used: u64,
        /// Size of the rejected object.
        requested: u64,
    },
    /// The request could not be decoded or was not legal.
    BadRequest {
        /// Human-readable diagnosis.
        detail: String,
    },
    /// The connection pool is full; try again later (clients may retry
    /// with backoff).
    Busy {
        /// Connections currently being served.
        active: u32,
        /// The configured pool bound.
        max: u32,
    },
    /// The service is shutting down and takes no new work.
    ShuttingDown,
    /// A read (`GetChunked` or `Query`) needed data the service holds but
    /// could not read back — a spilled extent failed its checksum or its
    /// read. Sent instead of any descriptor: the version is lost, not
    /// partial. Not transient, so clients must NOT retry it.
    Unreadable {
        /// Which staging server, which key, and what its disk tier said.
        detail: String,
    },
}

impl ErrorFrame {
    fn code(&self) -> u16 {
        match self {
            ErrorFrame::OutOfMemory { .. } => 1,
            ErrorFrame::BadRequest { .. } => 2,
            ErrorFrame::Busy { .. } => 3,
            ErrorFrame::ShuttingDown => 4,
            ErrorFrame::Unreadable { .. } => 6,
        }
    }
}

impl std::fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorFrame::OutOfMemory {
                cap,
                used,
                requested,
            } => write!(
                f,
                "staging out of memory: cap {cap} B, used {used} B, requested {requested} B"
            ),
            ErrorFrame::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ErrorFrame::Busy { active, max } => {
                write!(f, "service busy: {active}/{max} connections")
            }
            ErrorFrame::ShuttingDown => write!(f, "service shutting down"),
            ErrorFrame::Unreadable { detail } => write!(f, "unreadable: {detail}"),
        }
    }
}

/// A service response.
#[derive(Clone, Debug)]
pub enum Response {
    /// Put accepted; the shard (server index) the object landed on.
    PutOk {
        /// Index of the staging server that stored the object.
        shard: u32,
    },
    /// Matching descriptors.
    QueryOk(Vec<ObjectDesc>),
    /// Eviction done.
    DeleteOk {
        /// Bytes freed across all servers.
        bytes_freed: u64,
    },
    /// Service statistics.
    StatsOk(ServiceSnapshot),
    /// Shutdown acknowledged; the service stops accepting work.
    ShutdownOk,
    /// Chunked put assembled and stored; the shard it landed on.
    PutChunkedOk {
        /// Index of the staging server that stored the object.
        shard: u32,
    },
    /// Header of a chunked get stream: the matching descriptors.
    /// `ChunkData`/`ChunkEnd` frames with the same request id follow
    /// immediately.
    GetChunkedOk {
        /// Descriptors of the objects about to be streamed, in stream
        /// (object-index) order.
        descs: Vec<ObjectDesc>,
    },
    /// Typed failure.
    Error(ErrorFrame),
}

impl Response {
    /// The opcode this response travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Response::PutOk { .. } => Opcode::PutOk,
            Response::QueryOk(_) => Opcode::QueryOk,
            Response::DeleteOk { .. } => Opcode::DeleteOk,
            Response::StatsOk(_) => Opcode::StatsOk,
            Response::ShutdownOk => Opcode::ShutdownOk,
            Response::PutChunkedOk { .. } => Opcode::PutChunkedOk,
            Response::GetChunkedOk { .. } => Opcode::GetChunkedOk,
            Response::Error(_) => Opcode::Error,
        }
    }

    /// Encode the body (everything after the header) into `out`, which is
    /// cleared first — the scratch-buffer counterpart of
    /// [`Response::encode`].
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        out.clear();
        let mut w = Wr {
            buf: std::mem::take(out),
        };
        match self {
            Response::PutOk { shard } => w.u32(*shard),
            Response::QueryOk(descs) | Response::GetChunkedOk { descs } => w.descs(descs),
            Response::DeleteOk { bytes_freed } => w.u64(*bytes_freed),
            Response::StatsOk(s) => {
                for v in [
                    s.puts,
                    s.gets,
                    s.queries,
                    s.deletes,
                    s.stats_calls,
                    s.wire_errors,
                    s.rejected_oom,
                    s.conns_accepted,
                    s.conns_refused,
                    s.bytes_in,
                    s.bytes_out,
                    s.used,
                    s.capacity,
                    s.pool_hits,
                    s.pool_misses,
                    s.pool_outstanding,
                    s.tier_spilled,
                    s.tier_promoted,
                    s.tier_disk_used,
                    s.tier_disk_hits,
                    s.tier_disk_budget,
                    s.tier_disk_headroom,
                    s.chunksum_hits,
                    s.chunksum_misses,
                    s.busy_frames,
                ] {
                    w.u64(v);
                }
            }
            Response::ShutdownOk => {}
            Response::PutChunkedOk { shard } => w.u32(*shard),
            Response::Error(e) => {
                w.u16(e.code());
                match e {
                    ErrorFrame::OutOfMemory {
                        cap,
                        used,
                        requested,
                    } => {
                        w.u64(*cap);
                        w.u64(*used);
                        w.u64(*requested);
                    }
                    ErrorFrame::BadRequest { detail } | ErrorFrame::Unreadable { detail } => {
                        w.string(detail)
                    }
                    ErrorFrame::Busy { active, max } => {
                        w.u32(*active);
                        w.u32(*max);
                    }
                    ErrorFrame::ShuttingDown => {}
                }
            }
        }
        *out = w.buf;
    }

    /// Encode into a complete frame echoing `request_id`.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut body = Vec::new();
        self.encode_body(&mut body);
        encode_frame(self.opcode(), request_id, &body)
    }

    /// Decode a response body from its opcode and verified payload bytes.
    pub fn decode_body(opcode: Opcode, payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Rd::new(payload);
        let resp = match opcode {
            Opcode::PutOk => Response::PutOk { shard: r.u32()? },
            Opcode::QueryOk => Response::QueryOk(r.descs()?),
            Opcode::DeleteOk => Response::DeleteOk {
                bytes_freed: r.u64()?,
            },
            Opcode::StatsOk => Response::StatsOk(ServiceSnapshot {
                puts: r.u64()?,
                gets: r.u64()?,
                queries: r.u64()?,
                deletes: r.u64()?,
                stats_calls: r.u64()?,
                wire_errors: r.u64()?,
                rejected_oom: r.u64()?,
                conns_accepted: r.u64()?,
                conns_refused: r.u64()?,
                bytes_in: r.u64()?,
                bytes_out: r.u64()?,
                used: r.u64()?,
                capacity: r.u64()?,
                pool_hits: r.u64()?,
                pool_misses: r.u64()?,
                pool_outstanding: r.u64()?,
                tier_spilled: r.u64()?,
                tier_promoted: r.u64()?,
                tier_disk_used: r.u64()?,
                tier_disk_hits: r.u64()?,
                tier_disk_budget: r.u64()?,
                tier_disk_headroom: r.u64()?,
                chunksum_hits: r.u64()?,
                chunksum_misses: r.u64()?,
                busy_frames: r.u64()?,
            }),
            Opcode::ShutdownOk => Response::ShutdownOk,
            Opcode::PutChunkedOk => Response::PutChunkedOk { shard: r.u32()? },
            Opcode::GetChunkedOk => Response::GetChunkedOk { descs: r.descs()? },
            Opcode::Error => {
                let code = r.u16()?;
                let e = match code {
                    1 => ErrorFrame::OutOfMemory {
                        cap: r.u64()?,
                        used: r.u64()?,
                        requested: r.u64()?,
                    },
                    2 => ErrorFrame::BadRequest {
                        detail: r.string()?,
                    },
                    3 => ErrorFrame::Busy {
                        active: r.u32()?,
                        max: r.u32()?,
                    },
                    4 => ErrorFrame::ShuttingDown,
                    6 => ErrorFrame::Unreadable {
                        detail: r.string()?,
                    },
                    c => return Err(WireError::BadErrorCode(c)),
                };
                Response::Error(e)
            }
            other => return Err(WireError::UnexpectedOpcode(other as u8)),
        };
        r.done()?;
        Ok(resp)
    }

    /// Decode a response body from a verified frame.
    pub fn decode(frame: &Frame) -> Result<Response, WireError> {
        Response::decode_body(frame.opcode, &frame.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_amr::fab::Fab;

    fn tiny_object() -> DataObject {
        // One cell at the origin holding the value 3.0.
        let b = IBox::cube(1);
        let fab = Fab::filled(b, 1, 3.0);
        DataObject::from_fab("r", 2, &fab, 0, &b, 1).with_dx(0.5)
    }

    fn decode_whole(buf: &[u8]) -> Frame {
        let mut h = [0u8; HEADER_LEN];
        h.copy_from_slice(&buf[..HEADER_LEN]);
        let header = decode_header(&h).unwrap();
        let payload = buf[HEADER_LEN..].to_vec();
        assert_eq!(payload.len(), header.payload_len as usize);
        verify_payload(&header, &payload).unwrap();
        Frame {
            opcode: header.opcode,
            request_id: header.request_id,
            payload,
        }
    }

    // --- golden byte-level layout pins -------------------------------------

    #[test]
    fn golden_stats_request_bytes() {
        // The empty-payload frame is the header alone; every byte pinned.
        let buf = Request::Stats.encode(7);
        assert_eq!(
            buf,
            vec![
                b'X', b'L', b'N', b'T', // magic
                0x09, 0x00, // version 9 LE
                0x05, // opcode Stats
                0x00, // flags
                0x07, 0, 0, 0, 0, 0, 0, 0, // request id 7 LE
                0x00, 0x00, 0x00, 0x00, // payload length 0
                0xfd, 0x9a, 0x80, 0x65, // checksum of the empty payload
            ]
        );
        assert_eq!(buf.len(), HEADER_LEN);
    }

    #[test]
    fn golden_delete_request_bytes() {
        let buf = Request::Delete {
            name: "rho".into(),
            before_version: 9,
        }
        .encode(1);
        let payload = [
            3, 0, 0, 0, // name length 3
            b'r', b'h', b'o', // name bytes
            9, 0, 0, 0, 0, 0, 0, 0, // before_version 9 LE
        ];
        let mut expect = vec![
            b'X', b'L', b'N', b'T', 0x09, 0x00, 0x04, 0x00, // magic, v9, Delete, flags
            0x01, 0, 0, 0, 0, 0, 0, 0, // request id 1
            15, 0, 0, 0, // payload length 15
        ];
        expect.extend_from_slice(&checksum(&payload).to_le_bytes());
        expect.extend_from_slice(&payload);
        assert_eq!(buf, expect);
    }

    #[test]
    fn golden_put_request_bytes() {
        let buf = Request::Put(tiny_object()).encode(3);
        // Body: name "r", version 2, bbox [0,0]^3, core [0,0]^3, dx 0.5,
        // range [3, 3], bytes 8, origin_rank 1, payload = 3.0f64.
        let mut body = Vec::new();
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'r');
        body.extend_from_slice(&2u64.to_le_bytes());
        for _ in 0..2 {
            // bbox then core: lo = (0,0,0), hi = (0,0,0)
            for v in [0i64, 0, 0, 0, 0, 0] {
                body.extend_from_slice(&v.to_le_bytes());
            }
        }
        body.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        for bound in [3.0f64, 3.0] {
            body.extend_from_slice(&bound.to_bits().to_le_bytes());
        }
        body.extend_from_slice(&8u64.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&8u32.to_le_bytes());
        body.extend_from_slice(&3.0f64.to_le_bytes());
        let mut expect = vec![b'X', b'L', b'N', b'T', 0x09, 0x00, 0x01, 0x00];
        expect.extend_from_slice(&3u64.to_le_bytes());
        expect.extend_from_slice(&(body.len() as u32).to_le_bytes());
        expect.extend_from_slice(&checksum(&body).to_le_bytes());
        expect.extend_from_slice(&body);
        assert_eq!(buf, expect);
    }

    #[test]
    fn checksum_is_the_staging_sum() {
        // The wire's checksum is `xlayer_staging::sum`'s four-lane sum (its
        // own tests pin the definition); these literals pin that the wire
        // did not grow a second function.
        assert_eq!(checksum(b""), 0x6580_9afd);
        assert_eq!(checksum(b"a"), 0x170c_8745);
        assert_eq!(checksum(b"foobar"), 0x2fd2_cfae);
    }

    // --- chunked stream sub-frames -----------------------------------------

    #[test]
    fn golden_chunk_data_bytes() {
        // Header + prefix of a chunk at offset 2^20 of object 1, with the
        // data bytes themselves vectored separately. Every byte pinned.
        let data = [0xAAu8, 0xBB, 0xCC];
        let (header, prefix) = chunk_data_parts(9, 1, 1 << 20, &data);
        let cks = checksum(&prefix) ^ checksum(&data);
        assert_eq!(
            header,
            [
                b'X',
                b'L',
                b'N',
                b'T', // magic
                0x09,
                0x00, // version 9 LE
                0x09, // opcode ChunkData
                0x00, // flags
                0x09,
                0,
                0,
                0,
                0,
                0,
                0,
                0, // request id 9 LE
                15,
                0,
                0,
                0, // payload length 12 + 3
                // checksum(prefix) XOR checksum(data)
                cks.to_le_bytes()[0],
                cks.to_le_bytes()[1],
                cks.to_le_bytes()[2],
                cks.to_le_bytes()[3],
            ]
        );
        // Supplying the data sum ready-made produces the identical frame.
        assert_eq!(
            chunk_data_parts_cached(9, 1, 1 << 20, checksum(&data), data.len()),
            (header, prefix)
        );
        assert_eq!(
            prefix,
            [
                0x01, 0, 0, 0, // object index 1 LE
                0, 0, 0x10, 0, 0, 0, 0, 0, // offset 2^20 LE
            ]
        );
        assert_eq!(decode_chunk_prefix(&prefix), (1, 1 << 20));
    }

    #[test]
    fn golden_chunk_end_bytes() {
        let buf = encode_chunk_end(
            4,
            ChunkEnd {
                objects: 2,
                total_bytes: 0x0102,
            },
        );
        let payload = [
            2, 0, 0, 0, // objects 2 LE
            0x02, 0x01, 0, 0, 0, 0, 0, 0, // total_bytes 0x0102 LE
        ];
        let mut expect = vec![
            b'X', b'L', b'N', b'T', 0x09, 0x00, 0x0A, 0x00, // magic, v9, ChunkEnd, flags
            0x04, 0, 0, 0, 0, 0, 0, 0, // request id 4
            12, 0, 0, 0, // payload length 12
        ];
        expect.extend_from_slice(&checksum(&payload).to_le_bytes());
        expect.extend_from_slice(&payload);
        assert_eq!(buf, expect);
        let end = decode_chunk_end(&payload).unwrap();
        assert_eq!(end.objects, 2);
        assert_eq!(end.total_bytes, 0x0102);
    }

    #[test]
    fn golden_put_chunked_request_bytes() {
        let obj = tiny_object();
        let buf = Request::PutChunked {
            desc: obj.desc.clone(),
        }
        .encode(6);
        // Body: desc (as in golden_put_request_bytes, without payload) and
        // nothing else.
        let mut body = Vec::new();
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'r');
        body.extend_from_slice(&2u64.to_le_bytes());
        for _ in 0..2 {
            for v in [0i64, 0, 0, 0, 0, 0] {
                body.extend_from_slice(&v.to_le_bytes());
            }
        }
        body.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        for bound in [3.0f64, 3.0] {
            body.extend_from_slice(&bound.to_bits().to_le_bytes());
        }
        body.extend_from_slice(&8u64.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        let mut expect = vec![b'X', b'L', b'N', b'T', 0x09, 0x00, 0x07, 0x00];
        expect.extend_from_slice(&6u64.to_le_bytes());
        expect.extend_from_slice(&(body.len() as u32).to_le_bytes());
        expect.extend_from_slice(&checksum(&body).to_le_bytes());
        expect.extend_from_slice(&body);
        assert_eq!(buf, expect);
    }

    #[test]
    fn chunked_request_roundtrips() {
        let obj = tiny_object();
        let frame = decode_whole(
            &Request::PutChunked {
                desc: obj.desc.clone(),
            }
            .encode(8),
        );
        match Request::decode(&frame).unwrap() {
            Request::PutChunked { desc } => assert_eq!(desc, obj.desc),
            other => panic!("wrong request: {other:?}"),
        }
        let crossings = [
            None,
            Some(0.5),
            Some(-0.0),
            Some(f64::NAN),
            Some(f64::INFINITY),
            Some(f64::NEG_INFINITY),
        ];
        for query in [None, Some(IBox::cube(2))] {
            for crossing in crossings {
                let frame = decode_whole(
                    &Request::GetChunked {
                        name: "field".into(),
                        version: 3,
                        query,
                        crossing,
                    }
                    .encode(9),
                );
                match Request::decode(&frame).unwrap() {
                    Request::GetChunked {
                        name,
                        version,
                        query: q,
                        crossing: c,
                    } => {
                        assert_eq!(name, "field");
                        assert_eq!(version, 3);
                        assert_eq!(q, query);
                        // Bits, not `==`: a NaN predicate must arrive NaN.
                        assert_eq!(c.map(f64::to_bits), crossing.map(f64::to_bits));
                    }
                    other => panic!("wrong request: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn golden_get_chunked_request_bytes() {
        let buf = Request::GetChunked {
            name: "f".into(),
            version: 4,
            query: None,
            crossing: Some(0.5),
        }
        .encode(2);
        let mut body = vec![1, 0, 0, 0, b'f']; // name
        body.extend_from_slice(&4u64.to_le_bytes());
        body.push(0); // no query box
        body.push(1); // a crossing predicate ...
        body.extend_from_slice(&0.5f64.to_bits().to_le_bytes()); // ... at 0.5
        let mut expect = vec![b'X', b'L', b'N', b'T', 0x09, 0x00, 0x08, 0x00];
        expect.extend_from_slice(&2u64.to_le_bytes());
        expect.extend_from_slice(&(body.len() as u32).to_le_bytes());
        expect.extend_from_slice(&checksum(&body).to_le_bytes());
        expect.extend_from_slice(&body);
        assert_eq!(buf, expect);
    }

    #[test]
    fn infinite_and_empty_ranges_roundtrip_and_lying_ones_are_refused() {
        let with_range = |range: [f64; 2]| {
            let mut obj = tiny_object();
            obj.desc.range = range;
            obj
        };
        let honest = [
            xlayer_staging::EMPTY_RANGE,
            [f64::NEG_INFINITY, f64::INFINITY],
            [f64::INFINITY, f64::INFINITY],
            [-0.0, 3.0],
        ];
        for range in honest {
            let obj = with_range(range);
            let frame = decode_whole(&Request::Put(obj.clone()).encode(1));
            match Request::decode(&frame).unwrap() {
                Request::Put(back) => {
                    assert_eq!(back.desc.range.map(f64::to_bits), range.map(f64::to_bits))
                }
                other => panic!("wrong request: {other:?}"),
            }
            let frame = decode_whole(&Response::QueryOk(vec![obj.desc.clone()]).encode(1));
            match Response::decode(&frame).unwrap() {
                Response::QueryOk(descs) => assert_eq!(descs, vec![obj.desc]),
                other => panic!("wrong response: {other:?}"),
            }
        }
        // A descriptor whose range has a NaN bound, or is inverted without
        // being the empty sentinel, is refused like an escaped core.
        for range in [
            [f64::NAN, 3.0],
            [3.0, f64::NAN],
            [4.0, 3.0],
            [f64::INFINITY, 3.0],
        ] {
            let frame = decode_whole(&Request::Put(with_range(range)).encode(1));
            assert!(
                matches!(Request::decode(&frame), Err(WireError::InconsistentObject)),
                "{range:?}"
            );
        }
    }

    #[test]
    fn put_frame_parts_matches_whole_encode() {
        let obj = tiny_object();
        let mut scratch = Vec::new();
        let header = put_frame_parts(&obj, 3, &mut scratch);
        let mut vectored = header.to_vec();
        vectored.extend_from_slice(&scratch);
        vectored.extend_from_slice(obj.payload.as_ref());
        assert_eq!(vectored, Request::Put(obj).encode(3));
    }

    #[test]
    fn chunk_stream_frames_not_legal_as_requests_or_responses() {
        for op in [Opcode::ChunkData, Opcode::ChunkEnd] {
            let frame = Frame {
                opcode: op,
                request_id: 0,
                payload: vec![0u8; CHUNK_PREFIX_LEN],
            };
            assert!(matches!(
                Request::decode(&frame),
                Err(WireError::UnexpectedOpcode(_))
            ));
            assert!(matches!(
                Response::decode(&frame),
                Err(WireError::UnexpectedOpcode(_))
            ));
        }
    }

    // --- roundtrips --------------------------------------------------------

    #[test]
    fn put_roundtrip_is_bit_exact() {
        let obj = tiny_object();
        let frame = decode_whole(&Request::Put(obj.clone()).encode(11));
        assert_eq!(frame.request_id, 11);
        match Request::decode(&frame).unwrap() {
            Request::Put(back) => {
                assert_eq!(back.desc, obj.desc);
                assert_eq!(back.payload.as_ref(), obj.payload.as_ref());
                assert_eq!(back.desc.dx.to_bits(), obj.desc.dx.to_bits());
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn response_roundtrips() {
        let descs = vec![tiny_object().desc, tiny_object().desc];
        let snap = ServiceSnapshot {
            puts: 1,
            gets: 2,
            queries: 3,
            deletes: 4,
            stats_calls: 5,
            wire_errors: 6,
            rejected_oom: 7,
            conns_accepted: 8,
            conns_refused: 9,
            bytes_in: 10,
            bytes_out: 11,
            used: 12,
            capacity: 13,
            pool_hits: 14,
            pool_misses: 15,
            pool_outstanding: 16,
            tier_spilled: 17,
            tier_promoted: 18,
            tier_disk_used: 19,
            tier_disk_hits: 20,
            tier_disk_budget: 21,
            tier_disk_headroom: 22,
            chunksum_hits: 23,
            chunksum_misses: 24,
            busy_frames: 25,
        };
        let cases: Vec<Response> = vec![
            Response::PutOk { shard: 3 },
            Response::QueryOk(descs.clone()),
            Response::DeleteOk { bytes_freed: 512 },
            Response::StatsOk(snap),
            Response::ShutdownOk,
            Response::PutChunkedOk { shard: 1 },
            Response::GetChunkedOk { descs },
            Response::Error(ErrorFrame::OutOfMemory {
                cap: 100,
                used: 90,
                requested: 20,
            }),
            Response::Error(ErrorFrame::BadRequest {
                detail: "nope".into(),
            }),
            Response::Error(ErrorFrame::Busy { active: 4, max: 4 }),
            Response::Error(ErrorFrame::ShuttingDown),
            Response::Error(ErrorFrame::Unreadable {
                detail: "server 0".into(),
            }),
        ];
        for resp in cases {
            let frame = decode_whole(&resp.encode(77));
            assert_eq!(frame.request_id, 77);
            let back = Response::decode(&frame).unwrap();
            match (&resp, &back) {
                (Response::PutOk { shard: a }, Response::PutOk { shard: b }) => assert_eq!(a, b),
                (Response::QueryOk(a), Response::QueryOk(b)) => assert_eq!(a, b),
                (Response::DeleteOk { bytes_freed: a }, Response::DeleteOk { bytes_freed: b }) => {
                    assert_eq!(a, b)
                }
                (Response::StatsOk(a), Response::StatsOk(b)) => assert_eq!(a, b),
                (Response::ShutdownOk, Response::ShutdownOk) => {}
                (Response::PutChunkedOk { shard: a }, Response::PutChunkedOk { shard: b }) => {
                    assert_eq!(a, b)
                }
                (Response::GetChunkedOk { descs: a }, Response::GetChunkedOk { descs: b }) => {
                    assert_eq!(a, b)
                }
                (Response::Error(a), Response::Error(b)) => assert_eq!(a, b),
                (a, b) => panic!("mismatched roundtrip: {a:?} vs {b:?}"),
            }
        }
    }

    // --- malformed input ---------------------------------------------------

    #[test]
    fn bad_magic_version_opcode_flags() {
        let good = Request::Stats.encode(0);
        let mut h = [0u8; HEADER_LEN];
        h.copy_from_slice(&good[..HEADER_LEN]);

        let mut bad = h;
        bad[0] = b'Y';
        assert!(matches!(decode_header(&bad), Err(WireError::BadMagic(_))));

        // 5 summed its payloads with FNV-1a-32: refused here, or its frames
        // would fail as `ChecksumMismatch` and be retried. 6 had no range in
        // its descriptors: its bodies would misparse. 7 could answer with
        // error code 5, which no longer decodes. 8 cannot decode error
        // code 6 and would retry an unreadable version.
        for v in [10, 4, 5, 6, 7, 8] {
            let mut bad = h;
            bad[4] = v;
            assert_eq!(decode_header(&bad), Err(WireError::BadVersion(v.into())));
        }

        // 0x02 / 0x82 were `Get` / `GetOk` until version 4; the numbers
        // stay unassigned.
        for op in [0x55, 0x02, 0x82] {
            let mut bad = h;
            bad[6] = op;
            assert_eq!(decode_header(&bad), Err(WireError::BadOpcode(op)));
        }

        let mut bad = h;
        bad[7] = 1;
        assert_eq!(decode_header(&bad), Err(WireError::BadFlags(1)));
    }

    #[test]
    fn oversize_payload_rejected_before_allocation() {
        let good = Request::Stats.encode(0);
        let mut h = [0u8; HEADER_LEN];
        h.copy_from_slice(&good[..HEADER_LEN]);
        h[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(decode_header(&h), Err(WireError::Oversize(MAX_PAYLOAD + 1)));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let buf = Request::Delete {
            name: "rho".into(),
            before_version: 1,
        }
        .encode(0);
        let mut h = [0u8; HEADER_LEN];
        h.copy_from_slice(&buf[..HEADER_LEN]);
        let header = decode_header(&h).unwrap();
        let mut payload = buf[HEADER_LEN..].to_vec();
        payload[0] ^= 0xFF;
        assert!(matches!(
            verify_payload(&header, &payload),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_and_trailing_bodies_rejected() {
        let obj = tiny_object();
        let full = Request::Put(obj).encode(0);
        let frame = decode_whole(&full);
        // Truncate the body at every prefix: must error, never panic.
        for cut in 0..frame.payload.len() {
            let t = Frame {
                opcode: Opcode::Put,
                request_id: 0,
                payload: frame.payload[..cut].to_vec(),
            };
            assert!(Request::decode(&t).is_err(), "prefix {cut} decoded");
        }
        // Trailing garbage after a valid body is also an error.
        let mut p = frame.payload.clone();
        p.push(0);
        let t = Frame {
            opcode: Opcode::Put,
            request_id: 0,
            payload: p,
        };
        match Request::decode(&t) {
            Err(WireError::TrailingBytes(1)) => {}
            other => panic!("expected TrailingBytes(1), got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_object_rejected() {
        // Declare 16 payload bytes for a 1-cell (8-byte) bbox.
        let obj = tiny_object();
        let mut w = Wr::default();
        let mut desc = obj.desc.clone();
        desc.bytes = 16;
        w.desc(&desc);
        w.bytes(&[0u8; 16]);
        let frame = Frame {
            opcode: Opcode::Put,
            request_id: 0,
            payload: w.buf,
        };
        assert!(matches!(
            Request::decode(&frame),
            Err(WireError::InconsistentObject)
        ));
    }

    #[test]
    fn response_opcode_in_request_position_rejected() {
        let frame = Frame {
            opcode: Opcode::PutOk,
            request_id: 0,
            payload: Vec::new(),
        };
        assert!(matches!(
            Request::decode(&frame),
            Err(WireError::UnexpectedOpcode(0x81))
        ));
        let frame = Frame {
            opcode: Opcode::Put,
            request_id: 0,
            payload: Vec::new(),
        };
        assert!(Response::decode(&frame).is_err());
    }

    #[test]
    fn random_range_and_crossing_bits_roundtrip_or_are_refused() {
        // Ranges and predicates drawn as raw bit patterns, a third of them
        // from the edge cases: a range decodes iff it is consistent (and
        // then bit-exact), and every predicate arrives bit-exact.
        let specials = [
            0u64,
            (-0.0f64).to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::NAN.to_bits(),
            0x7ff0_0000_0000_0001, // a signalling NaN
            0xfff8_0000_0000_0000, // a negative quiet NaN
            3.0f64.to_bits(),
        ];
        let mut state: u64 = 0x5eed_0007;
        let mut draw = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match state % 3 {
                0 => specials[(state >> 32) as usize % specials.len()],
                _ => state.rotate_left(17),
            }
        };
        for _ in 0..600 {
            let mut obj = tiny_object();
            obj.desc.range = [f64::from_bits(draw()), f64::from_bits(draw())];
            let frame = decode_whole(&Request::Put(obj.clone()).encode(0));
            match Request::decode(&frame) {
                Ok(Request::Put(back)) => {
                    assert!(obj.desc.is_consistent(), "{:?}", obj.desc.range);
                    assert_eq!(
                        back.desc.range.map(f64::to_bits),
                        obj.desc.range.map(f64::to_bits)
                    );
                }
                Err(WireError::InconsistentObject) => {
                    assert!(!obj.desc.is_consistent(), "{:?}", obj.desc.range)
                }
                other => panic!("unexpected decode {other:?}"),
            }
            let crossing = Some(f64::from_bits(draw()));
            let req = Request::GetChunked {
                name: "f".into(),
                version: 1,
                query: None,
                crossing,
            };
            match Request::decode(&decode_whole(&req.encode(0))).unwrap() {
                Request::GetChunked { crossing: c, .. } => {
                    assert_eq!(c.map(f64::to_bits), crossing.map(f64::to_bits))
                }
                other => panic!("wrong request: {other:?}"),
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder() {
        // A cheap deterministic fuzz: feed pseudo-random bodies to every
        // decoder entry point.
        let mut state: u64 = 0x9e3779b97f4a7c15;
        for len in 0..200usize {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (state >> 56) as u8;
            }
            if len >= HEADER_LEN {
                let mut h = [0u8; HEADER_LEN];
                h.copy_from_slice(&buf[..HEADER_LEN]);
                let _ = decode_header(&h);
            }
            for op in [
                Opcode::Put,
                Opcode::StatsOk,
                Opcode::Error,
                Opcode::PutChunked,
                Opcode::GetChunked,
                Opcode::ChunkData,
                Opcode::ChunkEnd,
                Opcode::PutChunkedOk,
                Opcode::GetChunkedOk,
            ] {
                let frame = Frame {
                    opcode: op,
                    request_id: 0,
                    payload: buf.clone(),
                };
                let _ = Request::decode(&frame);
                let _ = Response::decode(&frame);
            }
            let _ = decode_chunk_end(&buf);
            if len >= CHUNK_PREFIX_LEN {
                let mut p = [0u8; CHUNK_PREFIX_LEN];
                p.copy_from_slice(&buf[..CHUNK_PREFIX_LEN]);
                let _ = decode_chunk_prefix(&p);
            }
        }
    }
}
