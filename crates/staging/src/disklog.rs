//! The disk tier's object log: spilled versions as chunked, checksummed
//! extents in segment files, one log per staging server.
//!
//! Layout of one record (all integers little-endian, written with
//! [`crate::codec`]'s cursor):
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
//! The head is written, never read: a read takes the descriptor and the
//! chunk sums from the in-memory index. `encode_head`'s doc says why it
//! is still written.
//!
//! **Segments.** A segment holds the records of one `(name, version)`
//! key — the unit the tier spills, promotes and evicts in. A record goes
//! to the segment of its key's last extent while the record fits under
//! [`SEGMENT_BYTES`]; otherwise it starts a fresh segment, numbered one
//! past the highest in use (0 in an empty log). Segment `n` is the file
//! `<log path>.<n>`, except segment 0, which *is* the log path, so the
//! first spill into an empty log lands there. Each record lies whole
//! inside one segment, and its [`Extent`] names the segment. A log holds
//! one open file per spilled key (more only for a key over
//! [`SEGMENT_BYTES`]): a staging server keeps as many descriptors as it
//! has versions on disk.
//!
//! The extent index (`BTreeMap<ObjectKey, Vec<Extent>>`) lives in memory
//! only; lookups never touch a file. It keeps each extent's descriptor
//! and per-chunk payload sums ([`crate::sum`]'s scheme, the one the wire
//! protocol streams with), and every read re-verifies the payload it reads
//! through the segment's open file against them, so a truncated or
//! bit-flipped extent surfaces as a typed [`TierError`] — never as a panic
//! and never as silently wrong data. The sums themselves ride in the
//! object: an append keeps the ones the object already knows and hashes
//! only an object nobody has hashed yet, and a verified read hands the
//! extent's sums to the object it rebuilds.
//!
//! **Reclamation.** Every way an extent leaves the log is whole-key
//! ([`DiskLog::remove`], [`DiskLog::drop_before`]), so a segment is either
//! all live or all dead. [`DiskLog::reclaim`] unlinks every segment left
//! with no live extent: nothing in it is worth keeping, so nothing is
//! copied, rewritten or synced, and a removed key's bytes leave the disk in
//! the sweep after its removal. A segment whose unlink fails stays listed
//! and is tried again on the next sweep. Dropping the log unlinks every
//! segment it still holds.
//!
//! **Durability scope.** A log lives and dies with its process; a crash
//! leaves files that the next open refuses. The log relieves memory
//! pressure within one coupled run, as the in-memory staging area it backs
//! lives for one run: every resident object dies with its process, so a
//! dead log's files could only give partial or stale versions. So
//! [`DiskLog::open`] refuses a path where a segment file exists
//! ([`TierError::InUse`]) and reads, truncates and deletes nothing there;
//! a segment is created only where no file exists, so the log never
//! truncates a file it did not create; and a dropped log unlinks its
//! segments. Nothing is fsynced: spilling is relief for memory pressure,
//! not a durability guarantee.

use crate::codec::Wr;
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

/// Record magic: "XTL4", the xlayer tier log's fourth record format.
/// Written at the start of every record, read by no code.
const MAGIC: [u8; 4] = *b"XTL4";
/// Bytes before a record's head: the magic and `head_len`.
const PREFIX: usize = 8;
/// Size a key's segment grows to before its next record starts a fresh
/// one.
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
    /// A record failed its checksum or structural validation — a
    /// truncated file, or corruption at rest.
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
    /// A segment file already exists where a log would open: another
    /// log's, still open or left by a crashed process. Nothing there was
    /// read or changed.
    InUse {
        /// The segment file found.
        path: PathBuf,
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
            TierError::InUse { path } => write!(
                f,
                "disk tier log is in use: segment file {} already exists",
                path.display()
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
///
/// No code reads these bytes back: the descriptor and the sums a read
/// verifies against live in the index. They are still written so that
/// the bytes on disk, and with them the tier's write cost that the
/// end-to-end benchmark measures, stay as they are; dropping the head is
/// a record-format change to be measured on its own.
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

/// One segment file and the share of the index that lives in it.
#[derive(Debug)]
struct Segment {
    file: File,
    /// End of the last record: where the next append goes.
    len: u64,
    /// Extents the index still holds in this segment.
    live: usize,
}

impl Segment {
    /// Create the segment file at `path`, which must not exist yet: a log
    /// writes only to files it created.
    fn create(path: &Path) -> Result<Self, TierError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| io_err("append", e))?;
        Ok(Segment {
            file,
            len: 0,
            live: 0,
        })
    }
}

/// The first segment file a log at `path` would write that already
/// exists: `path` itself, or a `<path>.<n>` beside it.
fn existing_segment(path: &Path) -> Result<Option<PathBuf>, TierError> {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return Err(TierError::Io {
            op: "open",
            detail: format!("log path {path:?} names no file"),
        });
    };
    if std::fs::symlink_metadata(path).is_ok() {
        return Ok(Some(path.to_path_buf()));
    }
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let prefix = format!("{name}.");
    for entry in std::fs::read_dir(dir).map_err(|e| io_err("open", e))? {
        let entry = entry.map_err(|e| io_err("open", e))?;
        let numbered = entry.file_name().to_str().is_some_and(|n| {
            n.strip_prefix(&prefix)
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        });
        if numbered {
            return Ok(Some(entry.path()));
        }
    }
    Ok(None)
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
    /// Segments by sequence number: every file this log created and has
    /// not unlinked yet.
    segments: BTreeMap<u64, Segment>,
    index: BTreeMap<ObjectKey, Vec<Extent>>,
    /// Payload bytes referenced by the index.
    live_payload: u64,
    budget: u64,
    chunk: u32,
    pool: Arc<BufferPool>,
}

impl DiskLog {
    /// Open an empty log at `path`; no file is created before the first
    /// append. `budget` caps live payload bytes; `chunk` is the chunk size
    /// payload sums are computed at. A path where a segment file already
    /// exists (`path` itself or a `<path>.<n>` beside it) is
    /// [`TierError::InUse`], and nothing there is read or changed; an
    /// unreadable directory is [`TierError::Io`].
    pub fn open(
        path: impl Into<PathBuf>,
        budget: u64,
        chunk: u32,
        pool: Arc<BufferPool>,
    ) -> Result<Self, TierError> {
        let path = path.into();
        if let Some(found) = existing_segment(&path)? {
            return Err(TierError::InUse { path: found });
        }
        Ok(DiskLog {
            path,
            segments: BTreeMap::new(),
            index: BTreeMap::new(),
            live_payload: 0,
            budget,
            chunk: chunk.max(1),
            pool,
        })
    }

    /// Live payload bytes (what counts against the budget).
    pub fn live_bytes(&self) -> u64 {
        self.live_payload
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
        // The segment of this key's last extent while the record fits;
        // else a fresh one past the highest in use.
        let own = self.index.get(&obj.desc.key).and_then(|exts| {
            let seq = exts.last()?.seg;
            (self.segments.get(&seq)?.len + record_len <= SEGMENT_BYTES).then_some(seq)
        });
        let seq = own.unwrap_or_else(|| self.segments.last_key_value().map_or(0, |(&n, _)| n + 1));
        let path = self.segment_path(seq);
        let seg = match self.segments.entry(seq) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Segment::create(&path)?),
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

    /// Drop every live extent under `key` (its segments are unlinked by
    /// the next [`DiskLog::reclaim`]). Returns payload bytes freed.
    pub fn remove(&mut self, key: &ObjectKey) -> u64 {
        let Some(extents) = self.index.remove(key) else {
            return 0;
        };
        let mut freed = 0;
        for ext in &extents {
            freed += ext.desc.bytes;
            if let Some(seg) = self.segments.get_mut(&ext.seg) {
                seg.live = seg.live.saturating_sub(1);
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

    /// Unlink every segment with no live extent. Nothing in one is live,
    /// so nothing is copied or synced. Every dead segment is tried; one
    /// whose unlink fails stays listed for the next sweep, and the first
    /// such failure is returned.
    pub fn reclaim(&mut self) -> Result<(), TierError> {
        let dead: Vec<u64> = self
            .segments
            .iter()
            .filter(|(_, seg)| seg.live == 0)
            .map(|(&seq, _)| seq)
            .collect();
        let mut failed = None;
        for seq in dead {
            match std::fs::remove_file(self.segment_path(seq)) {
                // Already gone is what reclaiming it wanted.
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    failed.get_or_insert(io_err("reclaim", e));
                }
                _ => {
                    self.segments.remove(&seq);
                }
            }
        }
        failed.map_or(Ok(()), Err)
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

    /// The log's path: segment 0's file, and the stem of every other
    /// segment's.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DiskLog {
    /// Unlink every segment the log still holds: it created each one, and
    /// no later log reads them (module doc, Durability scope). A file
    /// whose unlink fails stays behind, and the next open at this path
    /// refuses it.
    fn drop(&mut self) {
        for &seq in self.segments.keys() {
            let _ = std::fs::remove_file(self.segment_path(seq));
        }
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

    fn try_open(dir: &Path, budget: u64) -> Result<DiskLog, TierError> {
        DiskLog::open(
            dir.join("test.log"),
            budget,
            256,
            Arc::new(BufferPool::new()),
        )
    }

    fn open(dir: &Path, budget: u64) -> DiskLog {
        try_open(dir, budget).unwrap()
    }

    /// The file names in `dir`, sorted.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
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
    fn open_refuses_a_used_path_and_changes_nothing() {
        let dir = tmpdir("inuse");
        // Anything at the log path, or a numbered segment beside it, is
        // another log's: refused, typed, and left byte for byte.
        for planted in ["test.log", "test.log.3"] {
            let path = dir.join(planted);
            std::fs::write(&path, b"an earlier run's bytes").unwrap();
            match try_open(&dir, 1 << 20) {
                Err(TierError::InUse { path: found }) => assert_eq!(found, path),
                other => panic!("expected InUse for {planted}, got {other:?}"),
            }
            assert_eq!(std::fs::read(&path).unwrap(), b"an earlier run's bytes");
            std::fs::remove_file(&path).unwrap();
        }
        // Other names beside it are not segments of this log.
        for other in ["test.log2", "test.log.tmp", "other.log", "other.log.1"] {
            std::fs::write(dir.join(other), b"x").unwrap();
        }
        assert!(try_open(&dir, 1 << 20).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_dropped_log_leaves_no_segment_and_a_new_log_opens_there() {
        let dir = tmpdir("cleanrestart");
        {
            let mut log = open(&dir, u64::MAX);
            log.append(&obj("rho", 1, 0, 4)).unwrap(); // segment 0
            log.append(&obj("p", 1, 0, 4)).unwrap(); // segment 1
            assert_eq!(files(&dir), ["test.log", "test.log.1"]);
        }
        assert!(files(&dir).is_empty(), "left behind: {:?}", files(&dir));
        let mut log = try_open(&dir, u64::MAX).expect("a cleanly dropped log's path is free");
        assert_eq!(log.num_keys(), 0);
        log.append(&obj("rho", 2, 0, 4)).unwrap();
        assert_eq!(files(&dir), ["test.log"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_append_never_truncates_a_file_it_did_not_create() {
        let dir = tmpdir("createnew");
        let mut log = open(&dir, u64::MAX);
        // A file appears where the first segment would go.
        let path = dir.join("test.log");
        std::fs::write(&path, b"not this log's").unwrap();
        assert!(matches!(
            log.append(&obj("rho", 1, 0, 4)),
            Err(TierError::Io { op: "append", .. })
        ));
        assert_eq!(log.num_keys(), 0);
        // Nor does dropping the log unlink it.
        drop(log);
        assert_eq!(std::fs::read(&path).unwrap(), b"not this log's");
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
        let mut log = open(&dir, 1 << 20);
        let a = obj("rho", 1, 0, 4);
        log.append(&a).unwrap();
        let key = ObjectKey::new("rho", 1);
        // Flip a byte in the payload (the record tail) under the live
        // log: its read, and the twin check of a reput, meet it typed.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            log.read(&key, None),
            Err(TierError::Corrupt { .. })
        ));
        assert!(!log.has_twin(&a));
        // Cut the file short of the payload: a typed I/O error.
        std::fs::write(&path, &bytes[..n - 100]).unwrap();
        assert!(matches!(
            log.read(&key, None),
            Err(TierError::Io { op: "read", .. })
        ));
        // The extent stays indexed: nothing is dropped silently.
        assert!(log.contains(&key));
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
        // Removal frees budget; the removed key's segment is gone.
        assert_eq!(log.remove(&ObjectKey::new("rho", 1)), 512);
        log.reclaim().unwrap();
        assert!(!dir.join("test.log").exists());
        log.append(&obj("rho", 2, 0, 4)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_removed_key_leaves_the_disk_and_never_reappears() {
        let dir = tmpdir("removed");
        let path = dir.join("test.log");
        let mut log = open(&dir, 1 << 20);
        log.append(&obj("rho", 1, 0, 4)).unwrap(); // 512 B each
        let v2 = obj("rho", 2, 0, 4);
        log.append(&v2).unwrap();
        let v2_record = encode_head(&v2.desc, 256, &chunk_sums(&v2.payload, 256))
            .unwrap()
            .len() as u64
            + 512;
        // v1 leaves as a promote takes it.
        assert_eq!(log.remove(&ObjectKey::new("rho", 1)), 512);
        log.reclaim().unwrap();
        assert!(!path.exists(), "v1's segment is unlinked");
        let on_disk: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        assert_eq!(on_disk, v2_record, "only v2's record is on disk");
        assert_eq!(log.keys(), vec![ObjectKey::new("rho", 2)]);
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
    /// a record of its key after it starts the next segment.
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
        log.append(&big("rho", 1)).unwrap(); // segment 0
        log.append(&obj("rho", 2, 0, 4)).unwrap(); // segment 1
        log.append(&obj("rho", 3, 0, 4)).unwrap(); // segment 2
        assert!(path.exists() && seg_path(&dir, 2).exists());
        assert_eq!(log.drop_before("rho", 2), SEGMENT_BYTES);
        // The dead segment holds nothing live: it is unlinked, not copied.
        log.reclaim().unwrap();
        assert!(!path.exists(), "the dead segment is unlinked");
        for v in [2u64, 3] {
            let back = log.read(&ObjectKey::new("rho", v), None).unwrap();
            assert_eq!(back.len(), 1);
            assert_eq!(back[0].payload, obj("rho", v, 0, 4).payload);
        }
        // A new key goes past the highest segment in use, not into the gap.
        log.append(&obj("p", 1, 0, 4)).unwrap();
        assert!(!path.exists() && seg_path(&dir, 3).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_key_fills_its_own_segments_and_no_other() {
        let dir = tmpdir("ownseg");
        let mut log = open(&dir, u64::MAX);
        let count = || files(&dir).len();
        // A key's records share its segment; another key starts a fresh one.
        log.append(&obj("rho", 1, 0, 4)).unwrap();
        log.append(&obj("rho", 1, 8, 4)).unwrap();
        assert_eq!(count(), 1);
        log.append(&obj("p", 1, 0, 4)).unwrap();
        assert!(seg_path(&dir, 1).exists());
        // Past the size a key rolls into a fresh segment of its own.
        log.append(&big("rho", 1)).unwrap();
        assert!(seg_path(&dir, 2).exists());
        assert_eq!(log.extents_for(&ObjectKey::new("rho", 1)).len(), 3);
        // An empty log starts over at segment 0, the log path.
        log.drop_before("rho", u64::MAX);
        log.drop_before("p", u64::MAX);
        log.reclaim().unwrap();
        assert_eq!(count(), 0);
        log.append(&obj("rho", 2, 0, 4)).unwrap();
        assert!(dir.join("test.log").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
