//! The disk tier's object log: spilled versions as chunked, checksummed
//! extents in a log of fixed-size segment files, one log per staging
//! server.
//!
//! Layout of one record (all integers little-endian, written and read with
//! [`crate::codec`]'s cursors):
//!
//! ```text
//! offset  size  field
//!      0     4  magic            "XTL4"
//!      4     4  head_len         u32
//!      8     …  head             the wire's descriptor ([`Wr::desc`]), then
//!                                chunk u32, nsums u32, nsums × u32 sums
//!      …     4  head_sum         [`crate::sum`] over every byte above
//!      …     …  payload          desc.bytes bytes, LE f64 Fortran order
//! ```
//!
//! The open scan bounds what a prefix declares by the bytes the segment
//! still holds before sizing any buffer from it.
//!
//! **Segments.** Records are appended to segment files of at most
//! [`SEGMENT_BYTES`] (a record larger than that gets a segment of its own).
//! Segment `n` is the file `<log path>.<n>`, except segment 0, which *is*
//! the log path — so a log written as one file opens unchanged as
//! segment 0. Appends go to the highest-numbered (active) segment; a record
//! that would push it past the size starts the next number. Each record
//! lies whole inside one segment, and its [`Extent`] names the segment.
//!
//! The in-memory extent index (`BTreeMap<ObjectKey, Vec<Extent>>`) is
//! rebuilt on open by scanning the segments in number order; lookups never
//! touch a file. Each record carries its own integrity evidence:
//! `head_sum` covers the metadata, and the per-chunk payload sums
//! ([`crate::sum`]'s scheme, the one the wire protocol streams with) are
//! re-verified on every read, so a truncated or bit-flipped extent surfaces
//! as a typed [`TierError`] — never as a panic and never as silently wrong
//! data. The sums themselves ride in the object: an append writes the ones
//! the object already knows and hashes only an object nobody has hashed
//! yet, and a verified read hands the extent's sums to the object it
//! rebuilds. A torn or corrupt record (the crash case) is detected during
//! the open scan, reported through [`DiskLog::recovery`], and truncated
//! away with the rest of *its own* segment; the scan goes on with the next
//! segment, and the log appends cleanly again.
//!
//! **Reclamation.** Deletes only mark extents dead in the index.
//! [`DiskLog::maybe_compact`] unlinks every segment left with no live
//! extent (the active one is truncated to empty instead): nothing in it is
//! worth keeping, so there is nothing to copy and nothing to sync. Only
//! once the dead payload in segments that still hold live extents crosses
//! the caller's floor does it rewrite one of them — the one with the most
//! dead bytes — keeping its live records. Versions that are spilled,
//! promoted and evicted together die together, so their segments go whole.
//!
//! **Durability scope.** The log is a spill tier, not a database:
//! appends are written but not fsynced, so records spilled shortly before
//! a *power* failure may be lost (they reappear on reopen as a torn tail
//! and are truncated away); everything already in the page cache survives
//! a *process* crash. The segment rewrite is the one place that syncs —
//! the rewritten file is `sync_all`'d before it atomically replaces the
//! segment (and the directory entry is fsynced best-effort after), so a
//! completed rewrite never loses previously-stable records to power loss.
//! Unlinking or truncating a segment needs no sync: it held dead records
//! only. Deletes are not persisted either: a dead record in a segment that
//! still holds live ones reappears on reopen, as it did when the log was
//! one file; a reclaimed segment's records do not. Spilling is relief
//! for memory pressure, not a power-loss guarantee. Nor does a log
//! survive a *format* change: the record magic names the format (`XTLG`
//! records carried FNV-1a-32 sums, `XTL2` records no value range, `XTL3`
//! records a hand-packed head of their own), there is no migration, and a
//! log written under another magic is reported
//! through [`DiskLog::recovery`] as "bad record magic" at offset 0 and
//! truncated like any other unreadable tail.

use crate::codec::{DecodeError, Rd, Wr};
use crate::object::{DataObject, ObjectDesc, ObjectKey};
use crate::pool::{BufferPool, PooledBuf};
use crate::sum::{checksum, chunk_sums};
use bytes::Bytes;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xlayer_amr::boxes::IBox;

/// Record magic: "XTL4" — the xlayer tier log's fourth format, whose head
/// is the wire's descriptor encoding ("XTL3" packed a head of its own,
/// "XTL2" had no value range, "XTLG" records carried FNV-1a-32 sums
/// instead of [`crate::sum`]'s four-lane sum).
const MAGIC: [u8; 4] = *b"XTL4";
/// Bytes before a record's head: the magic and `head_len`.
const PREFIX: usize = 8;
/// Size a segment grows to before appends move on to the next one.
pub const SEGMENT_BYTES: u64 = 16 << 20;

/// Why a disk-tier operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TierError {
    /// An I/O operation on the log failed.
    Io {
        /// What the log was doing (`"open"`, `"append"`, `"read"`, …).
        op: &'static str,
        /// The underlying error, stringified.
        detail: String,
    },
    /// A record failed its checksum or structural validation — a torn
    /// write, a truncated file, or corruption at rest.
    Corrupt {
        /// Offset of the offending record within its segment file.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// Appending would exceed the disk budget: the spill tier itself is
    /// full, and the server refuses the put.
    DiskFull {
        /// Configured budget for live payload bytes.
        budget: u64,
        /// Live payload bytes already in the log.
        used: u64,
        /// Payload size of the rejected append.
        requested: u64,
    },
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::Io { op, detail } => write!(f, "disk tier {op} failed: {detail}"),
            TierError::Corrupt { offset, detail } => {
                write!(f, "disk tier record at offset {offset} corrupt: {detail}")
            }
            TierError::DiskFull {
                budget,
                used,
                requested,
            } => write!(
                f,
                "disk tier full: budget {budget} B, live {used} B, requested {requested} B"
            ),
        }
    }
}

impl std::error::Error for TierError {}

fn io_err(op: &'static str, e: std::io::Error) -> TierError {
    TierError::Io {
        op,
        detail: e.to_string(),
    }
}

/// One spilled object's location and metadata: everything a lookup needs
/// without touching the file.
#[derive(Clone, Debug)]
pub struct Extent {
    /// Sequence number of the segment holding the record.
    seg: u64,
    /// Offset of the record's first byte within its segment.
    offset: u64,
    /// Total record length (prefix + head + head_sum + payload).
    record_len: u64,
    /// Offset of the payload within its segment.
    payload_off: u64,
    /// The object's descriptor, as stored.
    desc: ObjectDesc,
    /// Chunk size the payload sums were computed at.
    chunk: u32,
    /// Per-chunk payload sums every read is verified against.
    sums: Arc<[u32]>,
}

/// A record's bytes before its payload: prefix, head and `head_sum`
/// (layout in the module doc). Fails only for a head longer than its
/// `u32` length can say.
fn encode_head(desc: &ObjectDesc, chunk: u32, sums: &[u32]) -> Result<Vec<u8>, TierError> {
    let mut head = Wr::default();
    head.desc(desc);
    head.u32(chunk);
    head.u32(sums.len() as u32);
    for &s in sums {
        head.u32(s);
    }
    let head_len = u32::try_from(head.buf.len()).map_err(|_| TierError::Io {
        op: "append",
        detail: format!("a {}-byte record head overflows its length", head.buf.len()),
    })?;
    let mut w = Wr {
        buf: Vec::with_capacity(PREFIX + head.buf.len() + 4),
    };
    w.buf.extend_from_slice(&MAGIC);
    w.u32(head_len);
    w.buf.extend_from_slice(&head.buf);
    w.u32(checksum(&w.buf));
    Ok(w.buf)
}

/// A record's head as [`encode_head`] wrote it — descriptor, chunk size
/// and chunk sums — consumed exactly.
fn decode_head(head: &[u8]) -> Result<(ObjectDesc, u32, Vec<u32>), DecodeError> {
    let mut r = Rd::new(head);
    let desc = r.desc()?;
    let chunk = r.u32()?;
    let nsums = r.u32()? as usize;
    let mut sums = Vec::with_capacity(nsums.min(r.remaining() / 4));
    for _ in 0..nsums {
        sums.push(r.u32()?);
    }
    r.done()?;
    Ok((desc, chunk, sums))
}

/// One segment file and the share of the index that lives in it.
#[derive(Debug)]
struct Segment {
    file: File,
    /// End of the last valid record: where the next append goes.
    len: u64,
    /// Extents the index still holds in this segment.
    live: usize,
    /// Payload bytes of this segment's deleted extents.
    dead: u64,
}

impl Segment {
    fn open(path: &Path, create: bool, op: &'static str) -> Result<Self, TierError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(create)
            .truncate(create)
            .open(path)
            .map_err(|e| io_err(op, e))?;
        Ok(Segment {
            file,
            len: 0,
            live: 0,
            dead: 0,
        })
    }
}

/// `n` for the suffix `n ≥ 1` exactly as [`DiskLog::segment_path`] writes
/// it; anything else in the directory is not a segment.
fn parse_seq(suffix: &str) -> Option<u64> {
    let seq: u64 = suffix.parse().ok()?;
    (seq > 0 && seq.to_string() == suffix).then_some(seq)
}

/// Decode and validate the head of the record at `offset` of segment
/// `seg`, `file_len` bytes long, into its extent; the file cursor is left
/// at the start of the payload, all of which the file holds. The chunk
/// sums are checked against the payload by [`read_payload`].
fn read_head(file: &mut File, seg: u64, offset: u64, file_len: u64) -> Result<Extent, TierError> {
    let corrupt = |detail: String| TierError::Corrupt { offset, detail };
    let mut prefix = [0u8; PREFIX];
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| io_err("scan", e))?;
    file.read_exact(&mut prefix)
        .map_err(|_| corrupt("record head truncated".to_string()))?;
    let mut r = Rd::new(&prefix);
    let head_len = match (r.array::<4>(), r.u32()) {
        (Ok(MAGIC), Ok(len)) => len as usize,
        _ => return Err(corrupt("bad record magic".to_string())),
    };
    // Nothing the record declares is verified yet — head_sum sits behind
    // the head — so it is bounded by the bytes the segment still holds
    // before it sizes a buffer: the head now, the payload once the head
    // has decoded.
    let left = file_len.saturating_sub(offset + PREFIX as u64);
    let fits = |payload: u64| match (head_len as u64 + 4).checked_add(payload) {
        Some(need) if need <= left => Ok(()),
        _ => Err(corrupt(format!(
            "record declares a {head_len}-byte head and {payload} payload bytes, \
             {left} left in the file"
        ))),
    };
    fits(0)?;
    let mut rec = vec![0u8; PREFIX + head_len + 4];
    rec[..PREFIX].copy_from_slice(&prefix);
    file.read_exact(&mut rec[PREFIX..])
        .map_err(|_| corrupt("record head truncated".to_string()))?;
    let (summed, stored) = rec.split_at(PREFIX + head_len);
    if Rd::new(stored).u32() != Ok(checksum(summed)) {
        return Err(corrupt("record head checksum mismatch".to_string()));
    }
    let (desc, chunk, sums) = decode_head(&summed[PREFIX..])
        .map_err(|e| corrupt(format!("record head does not decode: {e}")))?;
    fits(desc.bytes)?;
    if !desc.is_consistent() {
        return Err(corrupt("record descriptor is inconsistent".to_string()));
    }
    let payload_at = (PREFIX + head_len + 4) as u64;
    Ok(Extent {
        seg,
        offset,
        record_len: payload_at + desc.bytes,
        payload_off: offset + payload_at,
        desc,
        chunk: chunk.max(1),
        sums: sums.into(),
    })
}

/// Read one extent's payload from its segment into a pooled buffer,
/// verifying every chunk sum. A mismatch is [`TierError::Corrupt`].
fn read_payload(
    pool: &Arc<BufferPool>,
    file: &mut File,
    ext: &Extent,
) -> Result<PooledBuf, TierError> {
    let mut buf = pool.acquire(ext.desc.bytes as usize);
    file.seek(SeekFrom::Start(ext.payload_off))
        .map_err(|e| io_err("read", e))?;
    file.read_exact(&mut buf).map_err(|e| io_err("read", e))?;
    let chunks = buf.chunks((ext.chunk as usize).max(1));
    if chunks.len() != ext.sums.len() {
        return Err(TierError::Corrupt {
            offset: ext.offset,
            detail: format!(
                "{} sums stored for a payload of {} chunks",
                ext.sums.len(),
                chunks.len()
            ),
        });
    }
    if let Some(k) = chunks
        .zip(ext.sums.iter())
        .position(|(data, &stored)| checksum(data) != stored)
    {
        return Err(TierError::Corrupt {
            offset: ext.offset,
            detail: format!("payload chunk {k} does not match its stored sum"),
        });
    }
    Ok(buf)
}

/// The per-server on-disk object log with its in-memory extent index.
#[derive(Debug)]
pub struct DiskLog {
    /// Segment 0's path; segment `n` is `<path>.<n>`.
    path: PathBuf,
    /// Segments by sequence number; the last is the active one.
    segments: BTreeMap<u64, Segment>,
    index: BTreeMap<ObjectKey, Vec<Extent>>,
    /// Payload bytes referenced by the index.
    live_payload: u64,
    budget: u64,
    chunk: u32,
    recovery: Vec<TierError>,
    compactions: u64,
    pool: Arc<BufferPool>,
}

impl DiskLog {
    /// Open (or create) the log at `path`, scanning the existing segments
    /// into the index. `budget` caps live payload bytes; `chunk` is the
    /// chunk size payload sums are computed at. A torn or corrupt record is
    /// truncated away with the rest of its segment and reported through
    /// [`DiskLog::recovery`]; only an unusable file (unreadable, bad
    /// permissions) fails the open itself.
    pub fn open(
        path: impl Into<PathBuf>,
        budget: u64,
        chunk: u32,
        pool: Arc<BufferPool>,
    ) -> Result<Self, TierError> {
        let mut log = DiskLog {
            path: path.into(),
            segments: BTreeMap::new(),
            index: BTreeMap::new(),
            live_payload: 0,
            budget,
            chunk: chunk.max(1),
            recovery: Vec::new(),
            compactions: 0,
            pool,
        };
        for seq in log.segment_seqs()? {
            log.scan(seq)?;
        }
        if log.segments.is_empty() {
            log.segments
                .insert(0, Segment::open(&log.path, true, "open")?);
        }
        Ok(log)
    }

    /// Errors found while scanning the log on open (empty after a clean
    /// shutdown). Each entry describes one record that had to be dropped.
    pub fn recovery(&self) -> &[TierError] {
        &self.recovery
    }

    /// Live payload bytes (what counts against the budget).
    pub fn live_bytes(&self) -> u64 {
        self.live_payload
    }

    /// Payload bytes of deleted extents not yet reclaimed.
    pub fn dead_bytes(&self) -> u64 {
        self.segments.values().map(|seg| seg.dead).sum()
    }

    /// The live-payload budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Whether `bytes` more payload would fit under the budget.
    pub fn has_room(&self, bytes: u64) -> bool {
        self.live_payload.saturating_add(bytes) <= self.budget
    }

    /// Number of `(name, version)` keys with at least one live extent.
    pub fn num_keys(&self) -> usize {
        self.index.len()
    }

    /// Segment rewrites performed since open (unlinked segments are not
    /// counted: they cost no copy).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether any live extent exists under `key`.
    pub fn contains(&self, key: &ObjectKey) -> bool {
        self.index.contains_key(key)
    }

    /// Descriptors of every live extent under `key` — index only, no I/O.
    pub fn extents_for(&self, key: &ObjectKey) -> Vec<ObjectDesc> {
        self.index
            .get(key)
            .map(|v| v.iter().map(|e| e.desc.clone()).collect())
            .unwrap_or_default()
    }

    /// Every live key, in `(name, version)` order — the deterministic walk
    /// the space's tier accounting and drain paths use.
    pub fn keys(&self) -> Vec<ObjectKey> {
        self.index.keys().cloned().collect()
    }

    /// Append `obj` as a new extent. Fails with [`TierError::DiskFull`]
    /// when the live payload would exceed the budget; the file is only
    /// written after that check, so a rejected append changes nothing.
    pub fn append(&mut self, obj: &DataObject) -> Result<(), TierError> {
        let bytes = obj.desc.bytes;
        if !self.has_room(bytes) {
            return Err(TierError::DiskFull {
                budget: self.budget,
                used: self.live_payload,
                requested: bytes,
            });
        }
        let chunk = self.chunk as usize;
        let sums = match obj.known_sums(chunk) {
            Some(known) => Arc::clone(known),
            None => {
                let fresh: Arc<[u32]> = chunk_sums(obj.payload.as_ref(), chunk).into();
                obj.learn_sums(chunk, Arc::clone(&fresh));
                fresh
            }
        };
        let head = encode_head(&obj.desc, self.chunk, &sums)?;
        let head_len = head.len() as u64;
        let record_len = head_len + bytes;
        // The active segment, unless this record would push it past the
        // size: then the next one. An empty segment takes any record.
        let seq = match self.segments.last_key_value() {
            Some((&seq, seg)) if seg.len == 0 || seg.len + record_len <= SEGMENT_BYTES => seq,
            Some((&seq, _)) => seq + 1,
            None => 0,
        };
        let path = self.segment_path(seq);
        let seg = match self.segments.entry(seq) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Segment::open(&path, true, "append")?),
        };
        let offset = seg.len;
        seg.file
            .seek(SeekFrom::Start(offset))
            .map_err(|e| io_err("append", e))?;
        seg.file.write_all(&head).map_err(|e| io_err("append", e))?;
        seg.file
            .write_all(obj.payload.as_ref())
            .map_err(|e| io_err("append", e))?;
        seg.len = offset + record_len;
        seg.live += 1;
        self.live_payload += bytes;
        self.index
            .entry(obj.desc.key.clone())
            .or_default()
            .push(Extent {
                seg: seq,
                offset,
                record_len,
                payload_off: offset + head_len,
                desc: obj.desc.clone(),
                chunk: self.chunk,
                sums,
            });
        Ok(())
    }

    /// Read one extent's payload back, verifying every chunk sum, and
    /// rebuild the object — which leaves knowing the sums it was just
    /// checked against. A mismatch is [`TierError::Corrupt`].
    fn read_extent(&mut self, ext: &Extent) -> Result<DataObject, TierError> {
        let seg = self
            .segments
            .get_mut(&ext.seg)
            .ok_or_else(|| TierError::Corrupt {
                offset: ext.offset,
                detail: format!("segment {} is gone", ext.seg),
            })?;
        let buf = read_payload(&self.pool, &mut seg.file, ext)?;
        // The buffer becomes the long-lived payload: detach it from the
        // pool rather than copying it out.
        let obj = DataObject::from_wire(ext.desc.clone(), Bytes::from(buf.into_vec())).ok_or(
            TierError::Corrupt {
                offset: ext.offset,
                detail: "stored descriptor is inconsistent with its payload".to_string(),
            },
        )?;
        obj.learn_sums(ext.chunk as usize, Arc::clone(&ext.sums));
        Ok(obj)
    }

    /// Read every live extent under `key` whose bbox intersects `query`
    /// (all of them if `query` is `None`), in append order.
    pub fn read(
        &mut self,
        key: &ObjectKey,
        query: Option<&IBox>,
    ) -> Result<Vec<DataObject>, TierError> {
        self.read_crossing(key, query, None)
    }

    /// [`Self::read`] of only the extents that also pass the `crossing`
    /// predicate ([`ObjectDesc::may_cross`]). Both filters run on the
    /// indexed descriptors: a dropped extent's bytes are never read.
    pub fn read_crossing(
        &mut self,
        key: &ObjectKey,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<DataObject>, TierError> {
        let extents: Vec<Extent> = self
            .index
            .get(key)
            .map(|v| {
                v.iter()
                    .filter(|e| {
                        query.is_none_or(|q| !e.desc.bbox.intersect(q).is_empty())
                            && e.desc.may_cross(crossing)
                    })
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        let mut out = Vec::with_capacity(extents.len());
        for ext in &extents {
            out.push(self.read_extent(ext)?);
        }
        Ok(out)
    }

    /// Whether a live extent under `obj`'s key is a byte-identical twin of
    /// it: an equal descriptor, and a payload that reads back (sums
    /// verified) equal to `obj`'s byte for byte — equal sums alone are not
    /// trusted. Only extents whose descriptor matched are read; one that
    /// cannot be read is no twin. A key with nothing on disk — every fresh
    /// put — costs one index lookup and no I/O.
    pub fn has_twin(&mut self, obj: &DataObject) -> bool {
        let (index, segments, pool) = (&self.index, &mut self.segments, &self.pool);
        index
            .get(&obj.desc.key)
            .into_iter()
            .flatten()
            .filter(|ext| ext.desc == obj.desc)
            .any(|ext| {
                segments.get_mut(&ext.seg).is_some_and(|seg| {
                    read_payload(pool, &mut seg.file, ext)
                        .is_ok_and(|buf| buf[..] == *obj.payload.as_ref())
                })
            })
    }

    /// Drop every live extent under `key` (the bytes become dead weight
    /// until [`DiskLog::maybe_compact`]). Returns payload bytes freed.
    pub fn remove(&mut self, key: &ObjectKey) -> u64 {
        let Some(extents) = self.index.remove(key) else {
            return 0;
        };
        let mut freed = 0;
        for ext in &extents {
            freed += ext.desc.bytes;
            if let Some(seg) = self.segments.get_mut(&ext.seg) {
                seg.live = seg.live.saturating_sub(1);
                seg.dead += ext.desc.bytes;
            }
        }
        self.live_payload = self.live_payload.saturating_sub(freed);
        freed
    }

    /// Drop every extent of variable `name` older than `min_version`.
    /// Returns payload bytes freed.
    pub fn drop_before(&mut self, name: &str, min_version: u64) -> u64 {
        let victims: Vec<ObjectKey> = self
            .index
            .keys()
            .filter(|k| k.name == name && k.version < min_version)
            .cloned()
            .collect();
        victims.iter().map(|k| self.remove(k)).sum()
    }

    /// Reclaim dead space. Every segment left with no live extent goes
    /// first: unlinked, or truncated to empty if it is the active one — no
    /// copy, no sync. Then, once at least `min_dead` payload bytes are dead
    /// in segments that still hold live extents, the one with the most
    /// dead bytes is rewritten without them. Returns whether a rewrite ran.
    pub fn maybe_compact(&mut self, min_dead: u64) -> Result<bool, TierError> {
        self.drop_dead_segments()?;
        // What is still dead now lies in partly-live segments.
        if self.dead_bytes() < min_dead.max(1) {
            return Ok(false);
        }
        let worst = self
            .segments
            .iter()
            .max_by_key(|(_, seg)| seg.dead)
            .map(|(&seq, _)| seq);
        match worst {
            Some(seq) => self.rewrite_segment(seq).map(|()| true),
            None => Ok(false),
        }
    }

    /// Unlink every segment without a live extent, and truncate the active
    /// one if it has none. Nothing they hold is live, so nothing is copied
    /// or synced.
    fn drop_dead_segments(&mut self) -> Result<(), TierError> {
        let active = self.segments.last_key_value().map(|(&seq, _)| seq);
        let dead: Vec<u64> = self
            .segments
            .iter()
            .filter(|&(&seq, seg)| seg.live == 0 && (seg.len > 0 || Some(seq) != active))
            .map(|(&seq, _)| seq)
            .collect();
        for seq in dead {
            if Some(seq) != active {
                if let Err(e) = std::fs::remove_file(self.segment_path(seq)) {
                    // Already gone is what reclaiming it wanted.
                    if e.kind() != std::io::ErrorKind::NotFound {
                        return Err(io_err("reclaim", e));
                    }
                }
                self.segments.remove(&seq);
            } else if let Some(seg) = self.segments.get_mut(&seq) {
                seg.file.set_len(0).map_err(|e| io_err("reclaim", e))?;
                seg.len = 0;
                seg.dead = 0;
            }
        }
        Ok(())
    }

    /// Rewrite segment `seq` with its live records only (raw byte copy in
    /// file order, offsets patched), atomically replacing it.
    fn rewrite_segment(&mut self, seq: u64) -> Result<(), TierError> {
        let seg_path = self.segment_path(seq);
        let tmp_path = self.path.with_extension("compact");
        let Some(seg) = self.segments.get_mut(&seq) else {
            return Ok(());
        };
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| io_err("compact", e))?;
        let mut moved: Vec<&mut Extent> = self
            .index
            .values_mut()
            .flatten()
            .filter(|e| e.seg == seq)
            .collect();
        moved.sort_unstable_by_key(|e| e.offset);
        let mut fresh = Vec::with_capacity(moved.len());
        let mut len = 0u64;
        for ext in &moved {
            seg.file
                .seek(SeekFrom::Start(ext.offset))
                .map_err(|e| io_err("compact", e))?;
            let copied = std::io::copy(&mut Read::take(&mut seg.file, ext.record_len), &mut tmp)
                .map_err(|e| io_err("compact", e))?;
            if copied != ext.record_len {
                return Err(TierError::Corrupt {
                    offset: ext.offset,
                    detail: format!("segment {seq} ends inside a live record"),
                });
            }
            fresh.push(len);
            len += ext.record_len;
        }
        // Flush the rewrite to stable storage BEFORE the rename makes it
        // the segment: rename-over is only atomic for readers; on power
        // loss a renamed-but-unsynced file can come back empty, losing
        // every live record in it. A failure here leaves the old segment
        // untouched.
        tmp.sync_all().map_err(|e| io_err("compact", e))?;
        std::fs::rename(&tmp_path, &seg_path).map_err(|e| io_err("compact", e))?;
        // Persist the rename itself (the directory entry). Best-effort:
        // the data is already safe under either name, and not every
        // filesystem supports fsync on a directory handle.
        if let Some(dir) = seg_path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        for (ext, offset) in moved.into_iter().zip(fresh) {
            ext.payload_off = offset + (ext.payload_off - ext.offset);
            ext.offset = offset;
        }
        seg.file = tmp;
        seg.len = len;
        seg.dead = 0;
        self.compactions += 1;
        Ok(())
    }

    /// Sequence numbers of the segment files on disk, ascending: 0 for the
    /// log path itself, `n` for `<log path>.<n>`.
    fn segment_seqs(&self) -> Result<Vec<u64>, TierError> {
        let dir = match self.path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        let prefix = match self.path.file_name().and_then(|n| n.to_str()) {
            Some(name) => format!("{name}."),
            None => {
                return Err(TierError::Io {
                    op: "open",
                    detail: format!("log path {:?} names no file", self.path),
                })
            }
        };
        let mut seqs = Vec::new();
        if self.path.is_file() {
            seqs.push(0);
        }
        for entry in std::fs::read_dir(dir).map_err(|e| io_err("open", e))? {
            let name = entry.map_err(|e| io_err("open", e))?.file_name();
            if let Some(seq) = name
                .to_str()
                .and_then(|n| n.strip_prefix(&prefix))
                .and_then(parse_seq)
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// The file of segment `seq`.
    fn segment_path(&self, seq: u64) -> PathBuf {
        if seq == 0 {
            return self.path.clone();
        }
        let mut p = self.path.clone().into_os_string();
        p.push(format!(".{seq}"));
        PathBuf::from(p)
    }

    /// Scan segment `seq` on open, adding its records to the index. Stops
    /// at the first invalid record, truncates the segment there, and
    /// records the reason in `recovery` — a torn record must not poison
    /// later appends, nor hide the segments after it.
    fn scan(&mut self, seq: u64) -> Result<(), TierError> {
        let mut seg = Segment::open(&self.segment_path(seq), false, "open")?;
        let file_len = seg.file.metadata().map_err(|e| io_err("open", e))?.len();
        let mut offset = 0u64;
        while offset < file_len {
            // Verify the payload sums now too: a record whose payload was
            // torn mid-write is detected at open, not at first read.
            let checked = read_head(&mut seg.file, seq, offset, file_len)
                .and_then(|ext| read_payload(&self.pool, &mut seg.file, &ext).map(|_| ext));
            let ext = match checked {
                Ok(ext) => ext,
                Err(e @ TierError::Corrupt { .. }) => {
                    self.recovery.push(e);
                    break;
                }
                Err(e) => return Err(e),
            };
            offset += ext.record_len;
            seg.live += 1;
            self.live_payload += ext.desc.bytes;
            self.index
                .entry(ext.desc.key.clone())
                .or_default()
                .push(ext);
        }
        seg.len = offset;
        if offset < file_len {
            // Drop the torn tail so future appends start from a clean edge.
            seg.file.set_len(offset).map_err(|e| io_err("open", e))?;
        }
        self.segments.insert(seq, seg);
        Ok(())
    }

    /// The log's path: segment 0's file, and the stem of every other
    /// segment's.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_amr::fab::Fab;
    use xlayer_amr::intvect::IntVect;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xlayer-disklog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn obj(name: &str, version: u64, lo: i64, n: i64) -> DataObject {
        let b = IBox::cube(n).shift(IntVect::splat(lo));
        let mut fab = Fab::new(b, 1);
        for iv in b.cells() {
            fab.set(
                iv,
                0,
                (iv[0] * 100 + iv[1] * 10 + iv[2] + version as i64) as f64,
            );
        }
        DataObject::from_fab(name, version, &fab, 0, &b, 3).with_dx(0.5)
    }

    fn open(dir: &Path, budget: u64) -> DiskLog {
        DiskLog::open(
            dir.join("test.log"),
            budget,
            256,
            Arc::new(BufferPool::new()),
        )
        .unwrap()
    }

    #[test]
    fn append_read_roundtrip_bit_identical() {
        let dir = tmpdir("roundtrip");
        let mut log = open(&dir, 1 << 20);
        let a = obj("rho", 1, 0, 4);
        let b = obj("rho", 1, 8, 4);
        log.append(&a).unwrap();
        log.append(&b).unwrap();
        let back = log.read(&ObjectKey::new("rho", 1), None).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].payload, a.payload);
        assert_eq!(back[1].payload, b.payload);
        assert_eq!(back[0].desc, a.desc);
        assert_eq!(back[1].desc.dx, 0.5);
        // Spatial filter hits only the intersecting extent.
        let q = IBox::cube(4);
        let hits = log.read(&ObjectKey::new("rho", 1), Some(&q)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].desc.bbox, IBox::cube(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_rebuilds_index() {
        let dir = tmpdir("reopen");
        {
            let mut log = open(&dir, 1 << 20);
            log.append(&obj("rho", 1, 0, 4)).unwrap();
            log.append(&obj("p", 2, 8, 4)).unwrap();
        }
        let mut log = open(&dir, 1 << 20);
        assert!(log.recovery().is_empty());
        assert_eq!(log.num_keys(), 2);
        assert_eq!(log.live_bytes(), 2 * 512);
        let back = log.read(&ObjectKey::new("p", 2), None).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].payload, obj("p", 2, 8, 4).payload);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_detected_and_dropped() {
        let dir = tmpdir("torn");
        let path = dir.join("test.log");
        let full_len = {
            let mut log = open(&dir, 1 << 20);
            log.append(&obj("rho", 1, 0, 4)).unwrap();
            log.append(&obj("rho", 2, 0, 4)).unwrap();
            std::fs::metadata(&path).unwrap().len()
        };
        // Tear the second record's payload: the crash-mid-write case.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full_len - 100).unwrap();
        drop(f);
        let mut log = open(&dir, 1 << 20);
        assert_eq!(log.recovery().len(), 1, "torn tail must be reported");
        assert!(matches!(
            log.recovery().first(),
            Some(TierError::Corrupt { .. })
        ));
        // First record survives, second is gone, file truncated clean.
        assert!(log.contains(&ObjectKey::new("rho", 1)));
        assert!(!log.contains(&ObjectKey::new("rho", 2)));
        let back = log.read(&ObjectKey::new("rho", 1), None).unwrap();
        assert_eq!(back[0].payload, obj("rho", 1, 0, 4).payload);
        // The log appends cleanly after recovery.
        log.append(&obj("rho", 3, 0, 4)).unwrap();
        assert!(log.contains(&ObjectKey::new("rho", 3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crafted_head_sizes_no_allocation() {
        let dir = tmpdir("crafted");
        let path = dir.join("test.log");
        {
            let mut log = open(&dir, 1 << 20);
            log.append(&obj("rho", 1, 0, 4)).unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        // A second record that is nothing but a prefix: valid magic and a
        // ~4 GiB head declared by a file that ends right here.
        let mut huge_head = Wr::default();
        huge_head.buf.extend_from_slice(&MAGIC);
        huge_head.u32(u32::MAX);
        // A second record whose head is whole and correctly summed, but
        // declares an 8 GiB payload (a 1024³ bbox, in 4 GiB chunks) the
        // file does not have.
        let mut desc = obj("rho", 2, 0, 4).desc;
        desc.bbox = IBox::cube(1024);
        desc.core = desc.bbox;
        desc.bytes = 8 << 30;
        let huge_payload = encode_head(&desc, u32::MAX, &[0, 0, 0]).unwrap();
        for (record, declared) in [
            (huge_head.buf, "4294967295-byte head and 0"),
            (huge_payload, "and 8589934592 payload bytes"),
        ] {
            let mut bytes = clean.clone();
            bytes.extend_from_slice(&record);
            std::fs::write(&path, &bytes).unwrap();
            let mut log = open(&dir, 1 << 20);
            match log.recovery() {
                [TierError::Corrupt { detail, .. }] => {
                    assert!(detail.contains(declared), "{detail}");
                    assert!(detail.contains(" left in the file"), "{detail}");
                }
                other => panic!("expected one typed Corrupt, got {other:?}"),
            }
            // The record before it survives and the log appends cleanly.
            assert!(log.contains(&ObjectKey::new("rho", 1)));
            log.append(&obj("rho", 2, 0, 4)).unwrap();
            let back = log.read(&ObjectKey::new("rho", 2), None).unwrap();
            assert_eq!(back[0].payload, obj("rho", 2, 0, 4).payload);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_head_is_the_wire_descriptor() {
        let dir = tmpdir("head");
        let mut log = open(&dir, 1 << 20);
        let a = obj("ρ-density", 7, -3, 4); // 512 B: two 256-byte chunks
        log.append(&a).unwrap();
        let bytes = std::fs::read(dir.join("test.log")).unwrap();
        let mut desc = Wr::default();
        desc.desc(&a.desc);
        let mut r = Rd::new(&bytes);
        assert_eq!(r.array::<4>(), Ok(*b"XTL4"));
        let head_len = r.u32().unwrap() as usize;
        assert_eq!(head_len, desc.buf.len() + 4 + 4 + 2 * 4);
        // After the 8-byte prefix: the descriptor exactly as the wire
        // writes it, then the chunk size, the sum count and the sums.
        assert_eq!(r.take(desc.buf.len()).unwrap(), desc.buf.as_slice());
        assert_eq!((r.u32(), r.u32()), (Ok(256), Ok(2)));
        let sums = chunk_sums(&a.payload, 256);
        assert_eq!([r.u32(), r.u32()], [Ok(sums[0]), Ok(sums[1])]);
        assert_eq!(r.u32(), Ok(checksum(&bytes[..PREFIX + head_len])));
        assert_eq!(r.take(512).unwrap(), a.payload.as_ref());
        r.done().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn long_names_survive_a_reopen() {
        let dir = tmpdir("longname");
        let names = [
            "rho".to_string(),
            "n".repeat(5_000),
            "ñ".repeat(35_000), // 70 000 bytes: past a u16 length
            "p".to_string(),
        ];
        {
            let mut log = open(&dir, 1 << 20);
            for (v, name) in names.iter().enumerate() {
                log.append(&obj(name, v as u64, 0, 4)).unwrap();
            }
        }
        let mut log = open(&dir, 1 << 20);
        assert!(log.recovery().is_empty(), "{:?}", log.recovery());
        assert_eq!(log.num_keys(), 4);
        for (v, name) in names.iter().enumerate() {
            let back = log
                .read(&ObjectKey::new(name.as_str(), v as u64), None)
                .unwrap();
            assert_eq!(back.len(), 1);
            assert_eq!(back[0].desc, obj(name, v as u64, 0, 4).desc);
            assert_eq!(back[0].payload, obj(name, v as u64, 0, 4).payload);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sums_ride_through_append_and_read() {
        let dir = tmpdir("sums");
        let mut log = open(&dir, 1 << 20);
        let a = obj("rho", 1, 0, 4);
        let want = chunk_sums(&a.payload, 256);
        // An unknown object is hashed once and learns; a verified read
        // hands the sums to the object it rebuilds.
        log.append(&a).unwrap();
        assert_eq!(a.known_sums(256).unwrap().as_ref(), &want[..]);
        let back = log.read(&ObjectKey::new("rho", 1), None).unwrap();
        assert_eq!(back[0].known_sums(256).unwrap().as_ref(), &want[..]);
        // Known sums are written as they are, not recomputed: an object
        // taught wrong ones is stored with them — and fails its read closed.
        let liar = obj("rho", 2, 0, 4);
        liar.learn_sums(256, vec![0u32; want.len()].into());
        log.append(&liar).unwrap();
        assert!(matches!(
            log.read(&ObjectKey::new("rho", 2), None),
            Err(TierError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_format_log_is_refused_by_magic() {
        // One record exactly as each earlier format wrote it: a fixed head
        // (with the range after dx only in "XTL3"), then the name, the sums
        // and the head sum, under its own magic and sums — FNV-1a-32 for
        // "XTLG", the four-lane sum for "XTL2" and "XTL3".
        fn fnv(data: &[u8]) -> u32 {
            data.iter().fold(0x811c_9dc5u32, |s, &b| {
                (s ^ b as u32).wrapping_mul(0x0100_0193)
            })
        }
        let a = obj("rho", 1, 0, 4);
        type SumFn = fn(&[u8]) -> u32;
        let formats: [(&[u8; 4], SumFn, bool); 3] = [
            (b"XTLG", fnv, false),
            (b"XTL2", checksum, false),
            (b"XTL3", checksum, true),
        ];
        for (magic, sum, with_range) in formats {
            let sums: Vec<u32> = a.payload.chunks(256).map(sum).collect();
            let d = &a.desc;
            let mut w = Wr::default();
            w.buf.extend_from_slice(magic);
            w.u16(d.key.name.len() as u16);
            w.u64(d.key.version);
            w.ibox(&d.bbox);
            w.ibox(&d.core);
            w.f64(d.dx);
            if with_range {
                w.f64(d.range[0]);
                w.f64(d.range[1]);
            }
            w.u64(d.origin_rank as u64);
            w.u64(d.bytes);
            w.u32(256);
            w.u32(sums.len() as u32);
            w.buf.extend_from_slice(d.key.name.as_bytes());
            for &s in &sums {
                w.u32(s);
            }
            w.u32(sum(&w.buf));
            let mut record = w.buf;
            assert_eq!(
                record.len(),
                if with_range { 158 } else { 142 } + 3 + 2 * 4 + 4
            );
            record.extend_from_slice(&a.payload);
            let dir = tmpdir("oldformat");
            std::fs::write(dir.join("test.log"), &record).unwrap();
            // Not "head checksum mismatch": the format is named by its magic.
            let mut log = open(&dir, 1 << 20);
            match log.recovery() {
                [TierError::Corrupt { offset: 0, detail }] => {
                    assert_eq!(detail, "bad record magic")
                }
                other => panic!("expected one typed Corrupt at offset 0, got {other:?}"),
            }
            // Nothing of it is served, the segment is truncated, and the
            // log starts over cleanly.
            assert_eq!(log.num_keys(), 0);
            assert_eq!(std::fs::metadata(dir.join("test.log")).unwrap().len(), 0);
            log.append(&a).unwrap();
            let back = log.read(&ObjectKey::new("rho", 1), None).unwrap();
            assert_eq!(back[0].payload, a.payload);
            assert_eq!(back[0].desc.range, a.desc.range);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_lying_range_is_dropped_by_the_open_scan() {
        // A record whose head sum is right but whose range has a NaN bound
        // (or is inverted) does not describe its payload: refused like an
        // escaped core.
        for range in [[f64::NAN, 1.0], [2.0, 1.0]] {
            let mut a = obj("rho", 1, 0, 4);
            a.desc.range = range;
            let sums = chunk_sums(&a.payload, 256);
            let mut record = encode_head(&a.desc, 256, &sums).unwrap();
            record.extend_from_slice(&a.payload);
            let dir = tmpdir("lyingrange");
            std::fs::write(dir.join("test.log"), &record).unwrap();
            let log = open(&dir, 1 << 20);
            match log.recovery() {
                [TierError::Corrupt { offset: 0, detail }] => {
                    assert_eq!(detail, "record descriptor is inconsistent")
                }
                other => panic!("expected one typed Corrupt at offset 0, got {other:?}"),
            }
            assert_eq!(log.num_keys(), 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_crossing_read_never_touches_an_extent_it_drops() {
        let dir = tmpdir("crossing");
        let mut log = open(&dir, 1 << 20);
        // Values 100x + 10y + z + v: [1, 334] for v = 1 at lo 0, [889,
        // 1222] at lo 8.
        let low = obj("rho", 1, 0, 4);
        let high = obj("rho", 1, 8, 4);
        log.append(&low).unwrap();
        log.append(&high).unwrap();
        assert_eq!(
            (low.desc.range, high.desc.range),
            ([1.0, 334.0], [889.0, 1222.0])
        );
        let key = ObjectKey::new("rho", 1);
        let read = |log: &mut DiskLog, crossing| log.read_crossing(&key, None, crossing);
        assert_eq!(read(&mut log, None).unwrap().len(), 2);
        assert!(read(&mut log, Some(500.0)).unwrap().is_empty());
        assert!(read(&mut log, Some(f64::NAN)).unwrap().is_empty());
        let hit = read(&mut log, Some(1000.0)).unwrap();
        assert_eq!((hit.len(), &hit[0].payload), (1, &high.payload));
        // Corrupt the low extent's payload (the first record): an
        // unfiltered read now fails, one that drops it never reads it.
        let path = dir.join("test.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let low_end = bytes.len() / 2;
        bytes[low_end - 9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read(&mut log, None),
            Err(TierError::Corrupt { .. })
        ));
        assert_eq!(
            read(&mut log, Some(1000.0)).unwrap()[0].payload,
            high.payload
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_read_names_the_first_bad_chunk() {
        let dir = tmpdir("badchunk");
        let mut log = open(&dir, 1 << 20);
        let a = obj("rho", 1, 0, 4); // 512 B: two 256-byte chunks
        log.append(&a).unwrap();
        let mut bytes = std::fs::read(dir.join("test.log")).unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0xFF;
        std::fs::write(dir.join("test.log"), &bytes).unwrap();
        match log.read(&ObjectKey::new("rho", 1), None) {
            Err(TierError::Corrupt { offset: 0, detail }) => {
                assert!(detail.contains("chunk 1 "), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_payload_is_typed_not_a_panic() {
        let dir = tmpdir("flip");
        let path = dir.join("test.log");
        {
            let mut log = open(&dir, 1 << 20);
            log.append(&obj("rho", 1, 0, 4)).unwrap();
        }
        // Flip a byte in the payload (the record tail).
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // Open-scan verification reports it and drops the record.
        let log = open(&dir, 1 << 20);
        assert_eq!(log.recovery().len(), 1);
        assert!(!log.contains(&ObjectKey::new("rho", 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_enforced_before_any_write() {
        let dir = tmpdir("budget");
        let mut log = open(&dir, 1000);
        log.append(&obj("rho", 1, 0, 4)).unwrap(); // 512 B
        let err = log.append(&obj("rho", 2, 0, 4)).unwrap_err();
        assert!(matches!(
            err,
            TierError::DiskFull {
                budget: 1000,
                used: 512,
                requested: 512,
            }
        ));
        // Removal frees budget; dead bytes await compaction.
        assert_eq!(log.remove(&ObjectKey::new("rho", 1)), 512);
        assert_eq!(log.dead_bytes(), 512);
        log.append(&obj("rho", 2, 0, 4)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_dead_extents() {
        let dir = tmpdir("compact");
        let path = dir.join("test.log");
        let mut log = open(&dir, 1 << 20);
        for v in 1..=4 {
            log.append(&obj("rho", v, 0, 4)).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        assert_eq!(log.drop_before("rho", 3), 2 * 512);
        assert!(!log.maybe_compact(u64::MAX).unwrap(), "below threshold");
        assert!(log.maybe_compact(512).unwrap());
        assert_eq!(log.dead_bytes(), 0);
        assert_eq!(log.compactions(), 1);
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "compaction must shrink the file");
        // Survivors still read back bit-identically through patched offsets.
        for v in [3u64, 4] {
            let back = log.read(&ObjectKey::new("rho", v), None).unwrap();
            assert_eq!(back.len(), 1);
            assert_eq!(back[0].payload, obj("rho", v, 0, 4).payload);
        }
        // And the compacted file reopens cleanly.
        drop(log);
        let log = open(&dir, 1 << 20);
        assert!(log.recovery().is_empty());
        assert_eq!(log.num_keys(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic_key_walk() {
        let dir = tmpdir("order");
        let mut log = open(&dir, 1 << 20);
        log.append(&obj("rho", 2, 0, 4)).unwrap();
        log.append(&obj("p", 9, 0, 4)).unwrap();
        log.append(&obj("rho", 1, 0, 4)).unwrap();
        let keys = log.keys();
        assert_eq!(
            keys,
            vec![
                ObjectKey::new("p", 9),
                ObjectKey::new("rho", 1),
                ObjectKey::new("rho", 2),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An object whose payload alone fills a segment (128³ cells × 8 B):
    /// the record after it starts the next segment.
    fn big(name: &str, version: u64) -> DataObject {
        let o = obj(name, version, 0, 128);
        assert_eq!(o.desc.bytes, SEGMENT_BYTES);
        o
    }

    fn seg_path(dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("test.log.{seq}"))
    }

    #[test]
    fn dead_segment_is_unlinked_not_rewritten() {
        let dir = tmpdir("deadseg");
        let path = dir.join("test.log");
        let mut log = open(&dir, u64::MAX);
        log.append(&big("rho", 1)).unwrap(); // segment 0, full
        log.append(&obj("rho", 2, 0, 4)).unwrap(); // segment 1
        log.append(&obj("rho", 3, 0, 4)).unwrap();
        assert!(path.exists() && seg_path(&dir, 1).exists());
        assert_eq!(log.drop_before("rho", 2), SEGMENT_BYTES);
        // Far below any rewrite floor, the dead segment goes anyway: it
        // holds nothing live, so reclaiming it copies nothing.
        assert!(!log.maybe_compact(u64::MAX).unwrap(), "no rewrite");
        assert!(!path.exists(), "the dead segment is unlinked");
        assert_eq!(log.compactions(), 0);
        assert_eq!(log.dead_bytes(), 0);
        for v in [2u64, 3] {
            let back = log.read(&ObjectKey::new("rho", v), None).unwrap();
            assert_eq!(back.len(), 1);
            assert_eq!(back[0].payload, obj("rho", v, 0, 4).payload);
        }
        // Without segment 0 the log still reopens complete.
        drop(log);
        let mut log = open(&dir, u64::MAX);
        assert!(log.recovery().is_empty());
        assert_eq!(
            log.keys(),
            vec![ObjectKey::new("rho", 2), ObjectKey::new("rho", 3)]
        );
        // The active segment is truncated, not unlinked, once it dies.
        log.drop_before("rho", u64::MAX);
        assert!(!log.maybe_compact(u64::MAX).unwrap());
        assert_eq!(std::fs::metadata(seg_path(&dir, 1)).unwrap().len(), 0);
        assert_eq!(log.compactions(), 0);
        log.append(&obj("rho", 4, 0, 4)).unwrap();
        assert_eq!(log.read(&ObjectKey::new("rho", 4), None).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_segment_reopen_rebuilds_index_and_appends_on() {
        let dir = tmpdir("segreopen");
        {
            let mut log = open(&dir, u64::MAX);
            log.append(&big("rho", 1)).unwrap(); // segment 0
            log.append(&obj("p", 2, 8, 4)).unwrap(); // segment 1
            log.append(&big("rho", 3)).unwrap(); // segment 2
        }
        assert!(seg_path(&dir, 2).exists());
        let mut log = open(&dir, u64::MAX);
        assert!(log.recovery().is_empty());
        assert_eq!(log.num_keys(), 3);
        assert_eq!(log.live_bytes(), 2 * SEGMENT_BYTES + 512);
        assert_eq!(
            log.read(&ObjectKey::new("p", 2), None).unwrap()[0].payload,
            obj("p", 2, 8, 4).payload
        );
        assert_eq!(
            log.read(&ObjectKey::new("rho", 3), None).unwrap()[0].payload,
            big("rho", 3).payload
        );
        // Segment 2 is full: the next append starts segment 3.
        log.append(&obj("p", 4, 8, 4)).unwrap();
        assert!(seg_path(&dir, 3).exists());
        drop(log);
        let mut log = open(&dir, u64::MAX);
        assert!(log.recovery().is_empty());
        assert_eq!(log.num_keys(), 4);
        assert_eq!(
            log.read(&ObjectKey::new("p", 4), None).unwrap()[0].payload,
            obj("p", 4, 8, 4).payload
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_segment_leaves_later_segments_indexed() {
        let dir = tmpdir("segcorrupt");
        {
            let mut log = open(&dir, u64::MAX);
            log.append(&obj("rho", 1, 0, 4)).unwrap(); // segment 0
            log.append(&obj("rho", 2, 0, 4)).unwrap();
            log.append(&big("rho", 3)).unwrap(); // segment 1
            log.append(&obj("rho", 4, 0, 4)).unwrap(); // segment 2
        }
        // Flip a payload byte of the middle segment's only record.
        let middle = seg_path(&dir, 1);
        let mut bytes = std::fs::read(&middle).unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0xFF;
        std::fs::write(&middle, &bytes).unwrap();
        let last_len = std::fs::metadata(seg_path(&dir, 2)).unwrap().len();
        let mut log = open(&dir, u64::MAX);
        match log.recovery() {
            [TierError::Corrupt { offset: 0, detail }] => {
                assert!(detail.contains("does not match its stored sum"), "{detail}")
            }
            other => panic!("expected one typed Corrupt, got {other:?}"),
        }
        // Only the corrupt segment is cut; the ones around it stay whole.
        assert_eq!(std::fs::metadata(&middle).unwrap().len(), 0);
        assert_eq!(
            std::fs::metadata(seg_path(&dir, 2)).unwrap().len(),
            last_len
        );
        assert!(!log.contains(&ObjectKey::new("rho", 3)));
        for v in [1u64, 2, 4] {
            let back = log.read(&ObjectKey::new("rho", v), None).unwrap();
            assert_eq!(back[0].payload, obj("rho", v, 0, 4).payload, "v{v}");
        }
        // The emptied middle segment is reclaimed; appends go on at the end.
        log.maybe_compact(u64::MAX).unwrap();
        assert!(!middle.exists());
        log.append(&obj("rho", 5, 0, 4)).unwrap();
        assert!(std::fs::metadata(seg_path(&dir, 2)).unwrap().len() > last_len);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
