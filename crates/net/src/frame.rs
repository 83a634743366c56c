//! The frame header codec and the frame reader under the staging wire
//! (crate-private).
//!
//! [`crate::wire`] (whose module doc draws the 24-byte layout) owns the
//! opcode table and the body layouts; the header codec lives here, and
//! reads through the bounds-checked cursor every encoding of the workspace
//! shares (`xlayer_staging::codec::Rd`). The header codec is parameterised
//! by a [`FrameSpec`] — magic, version counter, payload cap — so the tests
//! below frame with a spec of their own. Decoding failures are
//! [`WireError`]s; decoding is total over arbitrary bytes.
//!
//! The I/O half is [`read_header`] + [`read_payload`]: the only code that
//! takes a frame off a reader. Every socket reader of the crate — the
//! staging client and service, the chunk-stream assembler — is these two
//! calls plus its own policy for what a failure means; they fail with
//! [`RecvError`], the transport's `io::Error` or the codec's `WireError`
//! and nothing else.

use std::io::Read;

use crate::wire::WireError;
use xlayer_staging::codec::Rd;
use xlayer_staging::sum::checksum;

/// Header size in bytes.
pub const HEADER_LEN: usize = 24;

/// What tells one protocol's frames from another's: the staging wire's
/// is `wire::SPEC`.
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
    /// Checksum of the payload (`xlayer_staging::sum`).
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

/// Why a frame could not be taken off a reader: the transport failed, or
/// the bytes it delivered are not a valid frame.
#[derive(Debug)]
pub enum RecvError {
    /// The reader failed (EOF mid-frame is `UnexpectedEof`).
    Io(std::io::Error),
    /// The header or the payload checksum did not decode.
    Wire(WireError),
}

impl From<std::io::Error> for RecvError {
    fn from(e: std::io::Error) -> Self {
        RecvError::Io(e)
    }
}

impl From<WireError> for RecvError {
    fn from(e: WireError) -> Self {
        RecvError::Wire(e)
    }
}

/// Take one header off `r`: exactly [`HEADER_LEN`] bytes, handed to the
/// protocol's header decoder ([`FrameSpec::decode_header`] plus its opcode
/// table). Nothing is allocated, so a hostile header — wrong magic, a
/// payload length past the cap — fails here before any buffer is sized
/// from it.
pub fn read_header<H, E: From<std::io::Error>>(
    r: &mut impl Read,
    decode: impl FnOnce(&[u8; HEADER_LEN]) -> Result<H, E>,
) -> Result<H, E> {
    let mut buf = [0u8; HEADER_LEN];
    r.read_exact(&mut buf)?;
    decode(&buf)
}

/// Fill `buf` with the payload a decoded header announced and verify it
/// against the header's checksum. The caller sizes `buf` (from the buffer
/// pool) from a header that passed [`FrameSpec::decode_header`] — that is
/// what bounds the allocation. A checksum failure leaves the reader
/// positioned after the frame, so the caller may keep the connection.
pub fn read_payload(
    r: &mut impl Read,
    buf: &mut [u8],
    header_checksum: u32,
) -> Result<(), RecvError> {
    r.read_exact(buf)?;
    Ok(verify(header_checksum, buf)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{BufferPool, PooledBuf};
    use std::sync::Arc;

    const SPEC: FrameSpec = FrameSpec {
        magic: *b"TEST",
        version: 7,
        max_payload: 1 << 10,
    };

    /// A reader that hands out at most one byte per call — every
    /// `read_exact` inside the frame reader sees short reads.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            let (head, tail) = self.0.split_at(n);
            buf[..n].copy_from_slice(head);
            self.0 = tail;
            Ok(n)
        }
    }

    fn read_one(
        r: &mut impl Read,
        pool: &Arc<BufferPool>,
    ) -> Result<(RawHeader, PooledBuf), RecvError> {
        let header = read_header(r, |b| SPEC.decode_header(b).map_err(RecvError::Wire))?;
        let mut payload = pool.acquire(header.payload_len as usize);
        read_payload(r, &mut payload, header.checksum)?;
        Ok((header, payload))
    }

    #[test]
    fn frames_survive_one_byte_reads() {
        let pool = Arc::new(BufferPool::new());
        let body: Vec<u8> = (0..=200u8).collect();
        let mut bytes = SPEC.encode(0x11, 42, &body);
        bytes.extend(SPEC.encode(0x12, 43, &[]));
        let mut r = Trickle(&bytes);
        let (header, payload) = read_one(&mut r, &pool).unwrap();
        assert_eq!((header.opcode, header.request_id), (0x11, 42));
        assert_eq!(payload.as_slice(), body.as_slice());
        let (header, payload) = read_one(&mut r, &pool).unwrap();
        assert_eq!((header.opcode, header.request_id), (0x12, 43));
        assert!(payload.is_empty());
        // A clean end of stream is the transport's error, not the codec's.
        match read_one(&mut r, &pool) {
            Err(RecvError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn oversize_header_fails_before_any_buffer_is_sized() {
        let pool = Arc::new(BufferPool::new());
        let header = SPEC.header(0x11, 1, SPEC.max_payload + 1, 0);
        match read_one(&mut header.as_slice(), &pool) {
            Err(RecvError::Wire(WireError::Oversize(n))) => assert_eq!(n, SPEC.max_payload + 1),
            other => panic!("expected Oversize, got {other:?}"),
        }
        assert_eq!((pool.hits(), pool.misses(), pool.outstanding()), (0, 0, 0));
    }

    #[test]
    fn corrupt_payload_is_consumed_whole_and_its_buffer_returned() {
        let pool = Arc::new(BufferPool::new());
        let mut bytes = SPEC.encode(0x11, 1, b"payload bytes");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        bytes.extend(SPEC.encode(0x12, 2, b"next"));
        let mut r = bytes.as_slice();
        match read_one(&mut r, &pool) {
            Err(RecvError::Wire(WireError::ChecksumMismatch { .. })) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        assert_eq!(pool.outstanding(), 0);
        // The reader stands at the next frame: the caller may keep going.
        let (header, payload) = read_one(&mut r, &pool).unwrap();
        assert_eq!(header.request_id, 2);
        assert_eq!(payload.as_slice(), b"next");
    }
}
