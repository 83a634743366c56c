//! The frame header and little-endian cursors shared by every protocol
//! in the workspace.
//!
//! The staging wire ([`crate::wire`], whose module doc draws the 24-byte
//! layout) and the xbench control protocol frame their messages
//! identically — only the magic, the version counter and the payload cap
//! differ, and those are a [`FrameSpec`]. A protocol owns its opcode
//! table and its body layouts; the header codec and the bounds-checked
//! primitive reader/writer live here once. Failures are [`WireError`]s (a
//! protocol with its own taxonomy converts); decoding is total over
//! arbitrary bytes.

use crate::wire::WireError;
use xlayer_staging::sum::checksum;

/// Header size in bytes.
pub const HEADER_LEN: usize = 24;

/// What tells one protocol's frames from another's.
#[derive(Clone, Copy, Debug)]
pub struct FrameSpec {
    /// First four bytes of every frame.
    pub magic: [u8; 4],
    /// The one version peers accept.
    pub version: u16,
    /// Largest accepted payload: decoders reject longer frames before
    /// allocating.
    pub max_payload: u32,
}

/// A header whose magic, version and length passed [`FrameSpec`]'s checks;
/// opcode and flags are still the protocol's to interpret.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawHeader {
    /// Opcode byte.
    pub opcode: u8,
    /// Reserved flags byte.
    pub flags: u8,
    /// Request id.
    pub request_id: u64,
    /// Payload length in bytes (≤ the spec's cap).
    pub payload_len: u32,
    /// FNV-1a-32 checksum of the payload.
    pub checksum: u32,
}

impl FrameSpec {
    /// Build a header for a payload whose bytes are sent separately (the
    /// vectored-I/O send path): the caller supplies the payload's total
    /// length and checksum.
    pub fn header(
        &self,
        opcode: u8,
        request_id: u64,
        payload_len: u32,
        cks: u32,
    ) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[..4].copy_from_slice(&self.magic);
        h[4..6].copy_from_slice(&self.version.to_le_bytes());
        h[6..8].copy_from_slice(&[opcode, 0]); // opcode, reserved flags
        h[8..16].copy_from_slice(&request_id.to_le_bytes());
        h[16..20].copy_from_slice(&payload_len.to_le_bytes());
        h[20..24].copy_from_slice(&cks.to_le_bytes());
        h
    }

    /// Encode a complete frame (header + payload) into one buffer.
    pub fn encode(&self, opcode: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&self.header(
            opcode,
            request_id,
            payload.len() as u32,
            checksum(payload),
        ));
        out.extend_from_slice(payload);
        out
    }

    /// Decode a header, validating magic, version and payload length.
    pub fn decode_header(&self, buf: &[u8; HEADER_LEN]) -> Result<RawHeader, WireError> {
        let mut r = Rd::new(buf);
        let magic = r.array()?;
        if magic != self.magic {
            return Err(WireError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != self.version {
            return Err(WireError::BadVersion(version));
        }
        let (opcode, flags, request_id, payload_len) = (r.u8()?, r.u8()?, r.u64()?, r.u32()?);
        if payload_len > self.max_payload {
            return Err(WireError::Oversize(payload_len));
        }
        Ok(RawHeader {
            opcode,
            flags,
            request_id,
            payload_len,
            checksum: r.u32()?,
        })
    }
}

/// Verify a received payload against the checksum its header carried.
pub fn verify(header_checksum: u32, payload: &[u8]) -> Result<(), WireError> {
    let computed = checksum(payload);
    if computed != header_checksum {
        return Err(WireError::ChecksumMismatch {
            header: header_checksum,
            computed,
        });
    }
    Ok(())
}

/// Append-only little-endian encoder over a byte vector. Floats travel as
/// `to_bits()`; byte strings as `u32` length + bytes.
#[derive(Default)]
pub struct Wr {
    /// The bytes written so far.
    pub buf: Vec<u8>,
}

#[allow(missing_docs)] // one obvious method per primitive
impl Wr {
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Cursor-style little-endian decoder over a byte slice; every read is
/// bounds-checked.
pub struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

#[allow(missing_docs)] // one obvious method per primitive
impl<'a> Rd<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The next `n` bytes, borrowed.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.take(N)?);
        Ok(b)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.array()?))
    }
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array()?))
    }
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32`-length-prefixed byte string, borrowed.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub fn string(&mut self) -> Result<String, WireError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_string)
            .map_err(|_| WireError::BadUtf8)
    }

    /// The body must end exactly here.
    pub fn done(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}
