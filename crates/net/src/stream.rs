//! The chunk stream: how a chunked object moves over a byte stream, in
//! both directions, on both ends.
//!
//! A stream is opened by a `PutChunked` request (client → service) or a
//! `GetChunkedOk` response (service → client) that declares the objects'
//! descriptors, and is then zero or more `ChunkData` frames followed by
//! exactly one `ChunkEnd`, all carrying the opening frame's request id
//! ([`crate::wire`] draws the bytes). The rule that
//! makes a chunk acceptable lives here and nowhere else:
//!
//! * per object, offsets are strictly sequential from 0 — no gap, no
//!   overlap, no rewind — and never run past the declared size;
//! * every chunk is exactly the stream's chunk size — on a socket always
//!   [`crate::wire::CHUNK`], never negotiated — except an object's last,
//!   which ends exactly at the declared size;
//! * a chunk's frame checksum is `checksum(prefix) ^ checksum(data)`;
//! * objects may interleave in any order; `ChunkEnd` carries the object
//!   count and the data-byte total, and every object must be complete.
//!
//! That is what lets [`Assembler`] read each chunk's data straight into
//! its final place in a pre-sized buffer which then *becomes* the object's
//! payload, and [`send_stream`] write each chunk straight out of the
//! payload it slices — no intermediate chunk buffer on either side.
//!
//! Both ends hash every chunk's data anyway — the assembler to verify it,
//! the sender to frame it — so both leave the object knowing its per-chunk
//! sums (`DataObject::learn_sums`), and a sender whose object already
//! knows them frames it without reading the data at all.
//!
//! What to do about a bad chunk is **not** decided here. The assembler
//! consumes the offending frame whole (rejected data drains through a
//! small fixed scratch, never a buffer sized from the frame), so the
//! connection stays framed, and reports a [`Fault`]; the service keeps draining to `ChunkEnd` and answers one
//! typed error on a connection it keeps, the client drops the socket and
//! lets its retry loop classify the fault.

use std::io::{Read, Write};
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use xlayer_staging::{DataObject, ObjectDesc};

use crate::frame::{self, RecvError};
use crate::iovec::write_vectored_all;
use crate::pool::{BufferPool, PooledBuf};
use crate::wire::{
    checksum, chunk_data_parts_cached, decode_chunk_end, decode_chunk_prefix, decode_header,
    encode_chunk_end, ChunkEnd, Header, Opcode, WireError, CHUNK_PREFIX_LEN,
};

/// Take one staging-wire header off `r`.
pub(crate) fn recv_header(r: &mut impl Read) -> Result<Header, RecvError> {
    frame::read_header(r, |buf| decode_header(buf).map_err(RecvError::Wire))
}

/// Read and verify the payload `header` announced into a pooled buffer.
pub(crate) fn recv_payload(
    r: &mut impl Read,
    pool: &Arc<BufferPool>,
    header: &Header,
) -> Result<PooledBuf, RecvError> {
    let mut payload = pool.acquire(header.payload_len as usize);
    frame::read_payload(r, &mut payload, header.checksum)?;
    Ok(payload)
}

/// Send `objects` as the body of chunk stream `request_id`: each payload
/// sliced at `chunk` bytes, every chunk one vectored `[header, prefix,
/// data]` write straight out of the payload, then the `ChunkEnd` totals.
/// An object that knows its sums at `chunk` is framed from them; any other
/// is hashed chunk by chunk as it goes out — so chunk *k* is on the socket
/// while *k+1* is hashed — and knows them once its last chunk has left.
pub(crate) fn send_stream<'a>(
    w: &mut impl Write,
    request_id: u64,
    chunk: usize,
    objects: impl IntoIterator<Item = &'a DataObject>,
) -> std::io::Result<()> {
    let chunk = chunk.max(1);
    let mut end = ChunkEnd {
        objects: 0,
        total_bytes: 0,
    };
    for obj in objects {
        let known = obj.known_sums(chunk);
        let mut hashed = Vec::new();
        for (k, data) in obj.payload.chunks(chunk).enumerate() {
            let sum = match known.and_then(|sums| sums.get(k)) {
                Some(&sum) => sum,
                None => {
                    let sum = checksum(data);
                    hashed.push(sum);
                    sum
                }
            };
            let (header, prefix) = chunk_data_parts_cached(
                request_id,
                end.objects,
                (k * chunk) as u64,
                sum,
                data.len(),
            );
            write_vectored_all(w, &[&header, &prefix, data])?;
        }
        if known.is_none() {
            obj.learn_sums(chunk, hashed.into());
        }
        end.objects += 1;
        end.total_bytes += obj.payload.len() as u64;
    }
    w.write_all(&encode_chunk_end(request_id, end))
}

/// Why a stream frame that arrived whole cannot be accepted. The frame has
/// been consumed, so the connection is still in step.
#[derive(Debug)]
pub(crate) struct Fault {
    /// Set when the *bytes* are at fault — a failed checksum, a stream
    /// that ended short, a payload its descriptor does not fit — rather
    /// than the sequencing: the class a client retries under.
    pub(crate) wire: Option<WireError>,
    /// What exactly is wrong, for a `BadRequest` detail or a protocol
    /// violation.
    pub(crate) detail: String,
}

impl Fault {
    fn sequence(detail: String) -> Fault {
        Fault { wire: None, detail }
    }

    fn corrupt(wire: WireError, detail: String) -> Fault {
        Fault {
            wire: Some(wire),
            detail,
        }
    }
}

/// One frame of an inbound chunk stream, as [`Assembler::recv`] saw it.
#[derive(Debug)]
pub(crate) enum Step {
    /// A chunk passed placement and its checksum and sits in its
    /// destination.
    Chunk,
    /// The stream's terminal frame; hand it to [`Assembler::finish`].
    End(ChunkEnd),
    /// The frame was consumed but not accepted.
    Fault(Fault),
}

/// The receiving end of a chunk stream over a declared list of objects.
pub(crate) struct Assembler {
    descs: Vec<ObjectDesc>,
    chunk: usize,
    /// One destination buffer per object, sized from its descriptor up
    /// front; chunks land in place and the buffer becomes the payload.
    bufs: Vec<Vec<u8>>,
    /// Per object, the offset its next chunk must carry.
    next: Vec<u64>,
    /// Per object, `checksum(data)` of each chunk accepted so far — the
    /// half of the frame checksum that depends only on the stored bytes,
    /// computed to verify the chunk and kept for the object to carry.
    /// Grown as chunks verify, never sized from a descriptor.
    sums: Vec<Vec<u32>>,
}

impl Assembler {
    /// An assembler for the objects `descs` declares, chunked at `chunk`
    /// bytes. Allocates every declared byte: bound `descs` first when it
    /// came from a peer. Over an empty list nothing is allocated and every
    /// chunk is a fault — the shape that drains a stream refused at its
    /// head.
    pub(crate) fn new(descs: Vec<ObjectDesc>, chunk: usize) -> Assembler {
        Assembler {
            bufs: descs.iter().map(|d| vec![0u8; d.bytes as usize]).collect(),
            next: vec![0; descs.len()],
            sums: vec![Vec::new(); descs.len()],
            descs,
            chunk,
        }
    }

    /// Stop accepting and free the destination buffers; every later chunk
    /// is reported as a fault and drained.
    pub(crate) fn abandon(&mut self) {
        *self = Assembler::new(Vec::new(), self.chunk);
    }

    /// Where a chunk of `len` data bytes for object `index` at `offset`
    /// belongs in that object's buffer, if the stream rule admits it.
    fn place(&self, index: u32, offset: u64, len: u64) -> Option<Range<usize>> {
        let i = index as usize;
        let total = self.descs.get(i)?.bytes;
        let end = offset.checked_add(len)?;
        let sequential = self.next.get(i) == Some(&offset) && end <= total;
        let full_or_last = len == self.chunk as u64 || end == total;
        (sequential && full_or_last).then_some(offset as usize..end as usize)
    }

    /// Take the next frame of stream `request_id` off `r`. `Err` means the
    /// transport failed or framing is lost and the connection must go;
    /// every other outcome, [`Step::Fault`] included, leaves `r` at a
    /// frame boundary.
    pub(crate) fn recv(
        &mut self,
        r: &mut impl Read,
        pool: &Arc<BufferPool>,
        request_id: u64,
    ) -> Result<Step, RecvError> {
        let header = recv_header(r)?;
        let foreign = (header.request_id != request_id).then(|| {
            Fault::sequence(format!(
                "frame for request {} interleaved into stream {request_id}",
                header.request_id
            ))
        });
        match (header.payload_len as usize).checked_sub(CHUNK_PREFIX_LEN) {
            Some(data_len) if header.opcode == Opcode::ChunkData => {
                self.recv_chunk(r, &header, data_len, foreign)
            }
            // ChunkEnd, an undersized ChunkData or a foreign opcode: a
            // small payload, read whole.
            _ => recv_terminal(r, pool, &header, foreign),
        }
    }

    /// The rest of a `ChunkData` frame whose header announced `data_len`
    /// data bytes after the prefix.
    fn recv_chunk(
        &mut self,
        r: &mut impl Read,
        header: &Header,
        data_len: usize,
        foreign: Option<Fault>,
    ) -> Result<Step, RecvError> {
        // Prefix and data are two reads into two places: the data goes
        // straight to its destination range.
        let mut prefix = [0u8; CHUNK_PREFIX_LEN];
        r.read_exact(&mut prefix)?;
        let (index, offset) = decode_chunk_prefix(&prefix);
        let dst = match foreign {
            None => self
                .place(index, offset, data_len as u64)
                .and_then(|range| self.bufs.get_mut(index as usize)?.get_mut(range)),
            Some(_) => None,
        };
        let Some(dst) = dst else {
            // Rejected data is drained, not kept: through `io::copy`'s
            // fixed scratch, whatever length the peer announced.
            let drained =
                std::io::copy(&mut r.by_ref().take(data_len as u64), &mut std::io::sink())?;
            if drained != data_len as u64 {
                return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
            }
            return Ok(Step::Fault(foreign.unwrap_or_else(|| {
                Fault::sequence(format!(
                    "chunk (object {index}, offset {offset}, {data_len} B) out of sequence"
                ))
            })));
        };
        r.read_exact(dst)?;
        let data_sum = checksum(dst);
        let computed = checksum(&prefix) ^ data_sum;
        if computed != header.checksum {
            return Ok(Step::Fault(Fault::corrupt(
                WireError::ChecksumMismatch {
                    header: header.checksum,
                    computed,
                },
                format!("chunk (object {index}, offset {offset}) failed its checksum"),
            )));
        }
        if let Some(next) = self.next.get_mut(index as usize) {
            *next = offset + data_len as u64;
        }
        if let Some(sums) = self.sums.get_mut(index as usize) {
            sums.push(data_sum);
        }
        Ok(Step::Chunk)
    }

    /// Reconcile the stream's `ChunkEnd` totals against what was declared
    /// and what arrived, and turn the buffers into the objects, each
    /// knowing the per-chunk sums its chunks were verified with.
    pub(crate) fn finish(self, end: ChunkEnd) -> Result<Vec<DataObject>, Fault> {
        let short = |detail: String| Fault::corrupt(WireError::Truncated, detail);
        let received: u64 = self.next.iter().sum();
        let declared: u64 = self.descs.iter().map(|d| d.bytes).sum();
        if end.objects as usize != self.descs.len() {
            return Err(short(format!(
                "chunk stream ended with {} of {} objects",
                end.objects,
                self.descs.len()
            )));
        }
        if self
            .next
            .iter()
            .zip(&self.descs)
            .any(|(&n, d)| n != d.bytes)
        {
            return Err(short(format!(
                "chunk stream ended after {received} of {declared} bytes"
            )));
        }
        if end.total_bytes != received {
            return Err(short(format!(
                "chunk stream total {} does not match descriptor {declared}",
                end.total_bytes
            )));
        }
        let chunk = self.chunk;
        self.descs
            .into_iter()
            .zip(self.bufs)
            .zip(self.sums)
            .map(|((desc, buf), sums)| {
                let obj = DataObject::from_wire(desc, Bytes::from(buf)).ok_or_else(|| {
                    Fault::corrupt(
                        WireError::InconsistentObject,
                        "assembled object is inconsistent".to_string(),
                    )
                })?;
                obj.learn_sums(chunk, sums.into());
                Ok(obj)
            })
            .collect()
    }
}

/// The rest of a stream frame that is not a chunk: the `ChunkEnd`, or
/// something that has no business in the stream.
fn recv_terminal(
    r: &mut impl Read,
    pool: &Arc<BufferPool>,
    header: &Header,
    foreign: Option<Fault>,
) -> Result<Step, RecvError> {
    let payload = match recv_payload(r, pool, header) {
        Ok(payload) => payload,
        Err(RecvError::Wire(e)) => {
            let detail = format!("chunk stream frame: {e}");
            return Ok(Step::Fault(Fault::corrupt(e, detail)));
        }
        Err(io) => return Err(io),
    };
    if let Some(fault) = foreign {
        return Ok(Step::Fault(fault));
    }
    if header.opcode != Opcode::ChunkEnd {
        return Ok(Step::Fault(Fault::sequence(format!(
            "opcode {:#04x} inside a chunk stream",
            header.opcode as u8
        ))));
    }
    Ok(match decode_chunk_end(&payload) {
        Ok(end) => Step::End(end),
        Err(e) => Step::Fault(Fault::corrupt(e.clone(), e.to_string())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::chunk_data_parts;
    use xlayer_amr::boxes::IBox;
    use xlayer_amr::intvect::IntVect;
    use xlayer_staging::sum::chunk_sums;
    use xlayer_staging::ObjectKey;

    const ID: u64 = 9;
    const CHUNK: usize = 16;

    /// A consistent object of `cells` f64 cells (a row along x) filled
    /// with LCG noise; `cells == 0` is the zero-byte object.
    fn noisy(rank: usize, cells: i64) -> DataObject {
        let bbox = IBox::new(IntVect::new(0, 0, 0), IntVect::new(cells - 1, 0, 0));
        let mut s = 0x5eed_u64 + rank as u64;
        let payload: Vec<u8> = (0..cells * 8)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 33) as u8
            })
            .collect();
        let desc = ObjectDesc {
            key: ObjectKey::new("rho", 1),
            bbox,
            core: bbox,
            dx: 1.0,
            // Noise bytes have no meaningful range; nothing here filters.
            range: xlayer_staging::EMPTY_RANGE,
            bytes: payload.len() as u64,
            origin_rank: rank,
        };
        DataObject::from_wire(desc, Bytes::from(payload)).unwrap()
    }

    fn chunk_frame(id: u64, index: u32, offset: u64, data: &[u8]) -> Vec<u8> {
        let (header, prefix) = chunk_data_parts(id, index, offset, data);
        [&header[..], &prefix[..], data].concat()
    }

    /// Chunk `k` of object `index`, well formed.
    fn chunk_of(objs: &[DataObject], index: usize, k: usize) -> Vec<u8> {
        let data = objs[index].payload.chunks(CHUNK).nth(k).unwrap();
        chunk_frame(ID, index as u32, (k * CHUNK) as u64, data)
    }

    fn end_frame(objects: u32, total_bytes: u64) -> Vec<u8> {
        encode_chunk_end(
            ID,
            ChunkEnd {
                objects,
                total_bytes,
            },
        )
    }

    /// What a whole stream came to: the first fault and the index of the
    /// frame that raised it, or what `finish` made of the `ChunkEnd`.
    #[derive(Debug)]
    enum Outcome {
        Fault(usize, Fault),
        Finished(Result<Vec<DataObject>, Fault>),
    }

    /// Run `frames` through an assembler over `objs`' descriptors. After a
    /// fault the rest of the stream must still parse frame by frame to its
    /// `ChunkEnd` — that is the "consumed whole" half of the contract.
    fn assemble(objs: &[DataObject], frames: &[Vec<u8>]) -> Outcome {
        let pool = Arc::new(BufferPool::new());
        let bytes = frames.concat();
        let mut r = bytes.as_slice();
        let descs = objs.iter().map(|o| o.desc.clone()).collect();
        let mut assembler = Assembler::new(descs, CHUNK);
        let mut first_fault = None;
        for k in 0..frames.len() {
            match assembler
                .recv(&mut r, &pool, ID)
                .expect("stream stays framed")
            {
                Step::Chunk => {}
                Step::Fault(fault) => {
                    first_fault.get_or_insert((k, fault));
                    assembler.abandon();
                }
                Step::End(end) => {
                    assert!(r.is_empty(), "ChunkEnd was not the last frame");
                    assert_eq!(pool.outstanding(), 0);
                    return match first_fault {
                        Some((k, fault)) => Outcome::Fault(k, fault),
                        None => Outcome::Finished(assembler.finish(end)),
                    };
                }
            }
        }
        panic!("stream ended without a ChunkEnd")
    }

    /// Reassembled objects are the originals, and each left the assembler
    /// knowing exactly its payload's per-chunk sums.
    fn assert_identical(got: &[DataObject], want: &[DataObject]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.desc, w.desc);
            assert_eq!(g.payload.as_ref(), w.payload.as_ref());
            assert_eq!(
                g.known_sums(CHUNK).map(|s| s.to_vec()),
                Some(chunk_sums(&g.payload, CHUNK))
            );
        }
    }

    #[test]
    fn malformed_streams_are_reported_not_assembled() {
        // Object 0 is 40 B (chunks of 16, 16, 8), object 1 is 16 B.
        let objs = [noisy(0, 5), noisy(1, 2)];
        let (a0, a1, a2) = (
            chunk_of(&objs, 0, 0),
            chunk_of(&objs, 0, 1),
            chunk_of(&objs, 0, 2),
        );
        let b0 = chunk_of(&objs, 1, 0);
        let payload0: &[u8] = objs[0].payload.as_ref();
        let good_end = end_frame(2, 56);
        let mut flipped = a1.clone();
        flipped[40] ^= 0xFF;

        // (what, frames, index of the faulting frame, retry class, detail)
        type Case<'a> = (&'a str, Vec<Vec<u8>>, usize, Option<WireError>, &'a str);
        let in_stream: Vec<Case> = vec![
            (
                "offset ahead of the sequence",
                vec![
                    a1.clone(),
                    a0.clone(),
                    a2.clone(),
                    b0.clone(),
                    good_end.clone(),
                ],
                0,
                None,
                "chunk (object 0, offset 16, 16 B) out of sequence",
            ),
            (
                "chunk overlapping the one before",
                vec![
                    a0.clone(),
                    chunk_frame(ID, 0, 8, &payload0[8..24]),
                    good_end.clone(),
                ],
                1,
                None,
                "chunk (object 0, offset 8, 16 B) out of sequence",
            ),
            (
                "chunk repeated",
                vec![a0.clone(), a0.clone(), good_end.clone()],
                1,
                None,
                "out of sequence",
            ),
            (
                "short chunk that is not the object's last",
                vec![chunk_frame(ID, 0, 0, &payload0[..8]), good_end.clone()],
                0,
                None,
                "chunk (object 0, offset 0, 8 B) out of sequence",
            ),
            (
                "last chunk running past the declared size",
                vec![
                    a0.clone(),
                    a1.clone(),
                    chunk_frame(ID, 0, 32, &[0u8; 16]),
                    good_end.clone(),
                ],
                2,
                None,
                "out of sequence",
            ),
            (
                "offset + length overflowing u64",
                vec![
                    chunk_frame(ID, 0, u64::MAX - 4, &[0u8; 16]),
                    good_end.clone(),
                ],
                0,
                None,
                "out of sequence",
            ),
            (
                "object index past the descriptor list",
                vec![
                    a0.clone(),
                    chunk_frame(ID, 2, 0, &[0u8; 16]),
                    good_end.clone(),
                ],
                1,
                None,
                "chunk (object 2, offset 0, 16 B) out of sequence",
            ),
            (
                "data that does not match its checksum",
                vec![a0.clone(), flipped.clone(), a2.clone(), good_end.clone()],
                1,
                Some(WireError::ChecksumMismatch {
                    header: 0,
                    computed: 0,
                }),
                "chunk (object 0, offset 16) failed its checksum",
            ),
        ];
        for (what, frames, at, class, detail) in in_stream {
            match assemble(&objs, &frames) {
                Outcome::Fault(k, fault) => {
                    assert_eq!(k, at, "{what}");
                    assert_eq!(
                        fault.wire.as_ref().map(std::mem::discriminant),
                        class.as_ref().map(std::mem::discriminant),
                        "{what}"
                    );
                    assert!(fault.detail.contains(detail), "{what}: {}", fault.detail);
                }
                other => panic!("{what}: expected a fault, got {other:?}"),
            }
        }

        // Streams whose every chunk is fine but whose totals are not: all
        // short-stream faults, the class a client retries.
        let all = [a0.clone(), b0.clone(), a1.clone(), a2.clone()];
        let at_end: Vec<(&str, Vec<Vec<u8>>, &str)> = vec![
            (
                "ChunkEnd counting the wrong number of objects",
                [&all[..], &[end_frame(1, 56)]].concat(),
                "ended with 1 of 2 objects",
            ),
            (
                "ChunkEnd totalling the wrong number of bytes",
                [&all[..], &[end_frame(2, 55)]].concat(),
                "total 55 does not match descriptor 56",
            ),
            (
                "stream ending before an object is complete",
                [&all[..3], &[end_frame(2, 48)]].concat(),
                "ended after 48 of 56 bytes",
            ),
        ];
        for (what, frames, detail) in at_end {
            match assemble(&objs, &frames) {
                Outcome::Finished(Err(fault)) => {
                    assert_eq!(fault.wire, Some(WireError::Truncated), "{what}");
                    assert!(fault.detail.contains(detail), "{what}: {}", fault.detail);
                }
                other => panic!("{what}: expected a short stream, got {other:?}"),
            }
        }
    }

    #[test]
    fn objects_interleaved_in_any_order_reassemble_bit_identically() {
        // 40 B, 0 B, 16 B and 72 B: 3 + 0 + 1 + 5 chunks. The zero-byte
        // object is carried by the ChunkEnd count alone.
        let objs = [noisy(0, 5), noisy(1, 0), noisy(2, 2), noisy(3, 9)];
        let total: u64 = objs.iter().map(|o| o.desc.bytes).sum();
        let mut s = 0xfeed_u64;
        for _ in 0..32 {
            // Deal the chunks out object by object in LCG order; each
            // object's own chunks stay in sequence.
            let mut next = [0usize; 4];
            let mut frames = Vec::new();
            loop {
                let open: Vec<usize> = (0..objs.len())
                    .filter(|&i| next[i] * CHUNK < objs[i].payload.len())
                    .collect();
                if open.is_empty() {
                    break;
                }
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let i = open[(s >> 33) as usize % open.len()];
                frames.push(chunk_of(&objs, i, next[i]));
                next[i] += 1;
            }
            frames.push(end_frame(objs.len() as u32, total));
            match assemble(&objs, &frames) {
                Outcome::Finished(Ok(got)) => assert_identical(&got, &objs),
                other => panic!("expected the objects back, got {other:?}"),
            }
        }
        // A stream of nothing but its end is the zero-byte object alone.
        match assemble(&objs[1..2], &[end_frame(1, 0)]) {
            Outcome::Finished(Ok(got)) => assert_identical(&got, &objs[1..2]),
            other => panic!("expected the empty object back, got {other:?}"),
        }
    }

    #[test]
    fn what_send_stream_writes_the_assembler_accepts() {
        let objs = [noisy(0, 5), noisy(1, 0), noisy(2, 9)];
        let pool = Arc::new(BufferPool::new());
        // Objects nobody has hashed are hashed as they go out and know
        // their sums afterwards; sent again they are framed from what they
        // know. The bytes on the wire are the same.
        let mut unknown = Vec::new();
        send_stream(&mut unknown, ID, CHUNK, &objs).unwrap();
        for o in &objs {
            assert_eq!(
                o.known_sums(CHUNK).map(|s| s.to_vec()),
                Some(chunk_sums(&o.payload, CHUNK))
            );
        }
        let mut known = Vec::new();
        send_stream(&mut known, ID, CHUNK, &objs).unwrap();
        assert_eq!(unknown, known);
        // Known sums go out as they are, the data unread — so an object
        // taught wrong ones fails closed at the receiver.
        let liar = noisy(3, 5);
        liar.learn_sums(CHUNK, vec![0; 3].into());
        let mut wire = Vec::new();
        send_stream(&mut wire, ID, CHUNK, [&liar]).unwrap();
        let mut assembler = Assembler::new(vec![liar.desc.clone()], CHUNK);
        match assembler.recv(&mut wire.as_slice(), &pool, ID).unwrap() {
            Step::Fault(Fault {
                wire: Some(WireError::ChecksumMismatch { .. }),
                ..
            }) => {}
            other => panic!("expected a checksum fault, got {other:?}"),
        }

        let mut r = known.as_slice();
        let descs = objs.iter().map(|o| o.desc.clone()).collect();
        let mut assembler = Assembler::new(descs, CHUNK);
        let end = loop {
            match assembler.recv(&mut r, &pool, ID).unwrap() {
                Step::Chunk => {}
                Step::End(end) => break end,
                Step::Fault(fault) => panic!("{fault:?}"),
            }
        };
        assert_identical(&assembler.finish(end).unwrap(), &objs);
    }
}
