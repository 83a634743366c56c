//! The policy layer of the disk spill tier: version deadlines and
//! counters over a [`DiskLog`].
//!
//! The staging server owns DRAM; this module owns what happens when DRAM is
//! full. There is one rule, the same on every backend: a put that would
//! exceed the memory budget spills cold versions to the on-disk object log
//! while the server's log has room for it, and is refused (`OutOfMemory`)
//! once it has not. The server reads that room off the log, fresh, at the
//! put, under its store lock. The adaptation engine's pressure verdict
//! decides nothing here: its `Spill` / `Reject` name what this rule will
//! do, and down-sampling is the producer's, which packs at the engine's
//! factor before a byte reaches staging. Per-variable [`ObjectHints`]
//! carry only a version deadline, which orders spill victims and never
//! changes whether a put spills.
//!
//! A [`DiskTier`] has no lock of its own. Each staging server keeps its
//! tier inside its store, under the one store lock that already serialises
//! every resident change, so the answer to "is this key on disk?" — read
//! off `DiskTier::log` — cannot be had without that lock, and cannot
//! change before the caller acts on it. Counters are plain integers
//! bumped under the same lock, surfaced through [`DiskTier::snapshot`] and,
//! one layer up, the networked service's `Stats` opcode (`tier_spilled` /
//! `tier_promoted` / `tier_disk_used` / `tier_disk_hits`).

use crate::disklog::{DiskLog, TierError};
use crate::object::{DataObject, ObjectKey};
use crate::pool::BufferPool;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use xlayer_amr::boxes::IBox;

/// Per-variable placement hints, set once by the workflow layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjectHints {
    /// Version (time step) after which old versions are dead weight: when
    /// choosing spill victims, versions whose `version + deadline` lies at
    /// or before the incoming put's version are demoted first. `None`
    /// means versions never expire.
    pub deadline: Option<u64>,
}

/// Configuration of a space's disk tier.
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// Directory the per-server log files live in (created if absent).
    pub dir: PathBuf,
    /// Per-server cap on live spilled payload bytes.
    pub disk_budget: u64,
    /// Chunk size extents are checksummed at. The record stores it, so a
    /// log reads back at whatever size wrote it; only at the default,
    /// [`crate::sum::CHUNK`], do the sums an object carries from or to the
    /// wire save a spill its hash pass.
    pub chunk_size: u32,
    /// Dead payload bytes, in log segments that still hold live extents,
    /// at which one such segment is rewritten without them. Segments with
    /// no live extent left are unlinked whatever this says: that costs no
    /// copy, so it never waits for a floor.
    pub compact_min_dead: u64,
}

impl TierConfig {
    /// Defaults: unbounded budget, [`crate::sum::CHUNK`] chunks, a segment
    /// rewrite once 64 MiB of dead extents sit in partly-live segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TierConfig {
            dir: dir.into(),
            disk_budget: u64::MAX,
            chunk_size: crate::sum::CHUNK as u32,
            compact_min_dead: 64 << 20,
        }
    }

    /// Cap live spilled payload at `bytes` per server.
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.disk_budget = bytes;
        self
    }

    /// Checksum extents at `bytes`-sized chunks.
    pub fn with_chunk_size(mut self, bytes: u32) -> Self {
        self.chunk_size = bytes.max(1);
        self
    }

    /// Rewrite a partly-live segment once `bytes` of dead extents sit in
    /// such segments.
    pub fn with_compact_min_dead(mut self, bytes: u64) -> Self {
        self.compact_min_dead = bytes.max(1);
        self
    }
}

/// Point-in-time view of the tier counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Objects demoted to disk.
    pub spilled: u64,
    /// Payload bytes demoted to disk.
    pub spilled_bytes: u64,
    /// Objects promoted back into memory.
    pub promoted: u64,
    /// Payload bytes promoted back into memory.
    pub promoted_bytes: u64,
    /// Gets answered (at least partly) from the disk tier.
    pub disk_hits: u64,
    /// Live payload bytes currently on disk.
    pub disk_used: u64,
    /// `(name, version)` keys currently resident on disk.
    pub spilled_keys: u64,
    /// Configured disk capacity in bytes (`u64::MAX` when unbounded).
    pub disk_budget: u64,
    /// Partly-live segment rewrites performed (unlinked dead segments are
    /// not counted: they cost no copy).
    pub compactions: u64,
    /// Opportunistic reclamation sweeps that failed with an I/O error (the
    /// log keeps serving; dead bytes are retried on the next mutation).
    pub compact_errors: u64,
    /// Promotes and serve-from-disk reads that failed — a sum mismatch or
    /// an I/O error — so the get answered `StagingError::Unreadable`
    /// instead of the version. Not on the wire.
    pub read_errors: u64,
}

/// A staging server's disk tier: one [`DiskLog`] plus the placement policy
/// and counters around it. Plain single-owner state: the server keeps it
/// inside its store, so every call runs under the store lock — reads under
/// the read guard, anything that takes `&mut self` under the write guard.
#[derive(Debug)]
pub struct DiskTier {
    log: DiskLog,
    hints: BTreeMap<String, ObjectHints>,
    compact_min_dead: u64,
    /// The event counters. The gauges (`disk_used`, `spilled_keys`,
    /// `disk_budget`, `compactions`) stay zero here: [`Self::snapshot`]
    /// reads them off the log.
    counts: TierSnapshot,
    /// Where the payloads of objects the owning server drops go back to:
    /// the pool the log reads promoted extents into.
    pool: Arc<BufferPool>,
}

impl DiskTier {
    /// Open the tier's log at `path` (budget, chunking and compaction
    /// threshold from `cfg`). Records that fail validation on the open scan
    /// are dropped and reported via [`DiskTier::recovery`].
    pub fn open(
        path: impl Into<PathBuf>,
        cfg: &TierConfig,
        pool: Arc<BufferPool>,
    ) -> Result<Self, TierError> {
        Ok(DiskTier {
            log: DiskLog::open(path, cfg.disk_budget, cfg.chunk_size, Arc::clone(&pool))?,
            hints: BTreeMap::new(),
            compact_min_dead: cfg.compact_min_dead,
            counts: TierSnapshot::default(),
            pool,
        })
    }

    /// Records dropped during open-time recovery (empty after a clean
    /// shutdown).
    pub fn recovery(&self) -> &[TierError] {
        self.log.recovery()
    }

    /// The log: what is on disk, under which key, against which budget.
    pub(crate) fn log(&self) -> &DiskLog {
        &self.log
    }

    /// The pool dropped payloads go back to (see [`recycle`]).
    pub(crate) fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Set (replace) the placement hints for variable `name`.
    pub fn set_hints(&mut self, name: impl Into<String>, hints: ObjectHints) {
        self.hints.insert(name.into(), hints);
    }

    /// Whether `key`'s versions are past their deadline as of the put that
    /// is `now` versions in — such keys are demoted first.
    pub fn past_deadline(&self, key: &ObjectKey, now: u64) -> bool {
        self.hints
            .get(&key.name)
            .and_then(|h| h.deadline)
            .is_some_and(|d| key.version.saturating_add(d) <= now)
    }

    /// Reclaim dead space opportunistically: unlink dead segments, and
    /// rewrite a partly-live one past the floor. Reclamation is pure space
    /// reclamation — a failed sweep leaves every live record intact and
    /// the dead bytes are retried on the next mutation — so its I/O errors
    /// are counted, never propagated: propagating one from a promote or
    /// delete would misreport (or, worse, discard) work that already
    /// succeeded.
    fn compact_best_effort(&mut self) {
        if self.log.maybe_compact(self.compact_min_dead).is_err() {
            self.counts.compact_errors += 1;
        }
    }

    /// Demote `obj` to the log. [`TierError::DiskFull`] means the server's
    /// disk is exhausted too — the caller escalates to `OutOfMemory`: an
    /// object's home is the only server it can live on, so the put is
    /// refused.
    pub fn spill(&mut self, obj: &DataObject) -> Result<(), TierError> {
        self.log.append(obj)?;
        self.counts.spilled += 1;
        self.counts.spilled_bytes += obj.desc.bytes;
        Ok(())
    }

    /// Whether the log holds a byte-identical twin of `obj` (see
    /// [`DiskLog::has_twin`]): the disk half of an idempotent put.
    pub(crate) fn has_twin(&mut self, obj: &DataObject) -> bool {
        self.log.has_twin(obj)
    }

    /// Read `key`'s extents intersecting `query` and passing the
    /// `crossing` predicate without removing them — the serve-from-disk
    /// path when promotion is not worthwhile. An extent either filter
    /// drops is judged by its indexed descriptor and never read. Counts a
    /// disk hit when anything matched.
    pub fn fetch(
        &mut self,
        key: &ObjectKey,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<DataObject>, TierError> {
        let objs = self
            .log
            .read_crossing(key, query, crossing)
            .inspect_err(|_| self.counts.read_errors += 1)?;
        if !objs.is_empty() {
            self.counts.disk_hits += 1;
        }
        Ok(objs)
    }

    /// Promote: drop `key`'s extents from the log now that `objs` — all of
    /// them, as `fetch(key, None, None)` read and verified them under the
    /// same store guard — go back into memory. Counts the promotion (the
    /// fetch counted the disk hit); reclamation runs opportunistically.
    /// This cannot fail: the objects are the only remaining copy, so a
    /// compaction error here must not (and does not) discard them.
    pub fn take(&mut self, key: &ObjectKey, objs: &[DataObject]) {
        self.log.remove(key);
        self.counts.promoted += objs.len() as u64;
        self.counts.promoted_bytes += objs.iter().map(|o| o.desc.bytes).sum::<u64>();
        self.compact_best_effort();
    }

    /// Drop every extent of `name` older than `min_version` (drain path).
    /// Returns payload bytes freed.
    pub fn evict_before(&mut self, name: &str, min_version: u64) -> u64 {
        let freed = self.log.drop_before(name, min_version);
        if freed > 0 {
            self.compact_best_effort();
        }
        freed
    }

    /// The counters, with the gauges read off the log now: one consistent
    /// cut, since nothing changes the tier while `&self` is held.
    pub fn snapshot(&self) -> TierSnapshot {
        TierSnapshot {
            disk_used: self.log.live_bytes(),
            spilled_keys: self.log.num_keys() as u64,
            disk_budget: self.log.budget(),
            compactions: self.log.compactions(),
            ..self.counts
        }
    }
}

/// Give a dropped object's payload buffer back to `pool` when `obj` was its
/// last holder, for the next promote to read into. An object or payload
/// someone else still holds (a reader's handle, a caller's copy) is just
/// released.
pub(crate) fn recycle(pool: &BufferPool, obj: Arc<DataObject>) {
    if let Some(buf) = Arc::try_unwrap(obj)
        .ok()
        .and_then(|o| o.payload.try_into_vec().ok())
    {
        pool.recycle(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_amr::fab::Fab;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xlayer-tier-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn obj(name: &str, version: u64, n: i64) -> DataObject {
        let b = IBox::cube(n);
        let mut fab = Fab::new(b, 1);
        for iv in b.cells() {
            fab.set(iv, 0, (iv[0] + iv[1] + iv[2]) as f64 + version as f64);
        }
        DataObject::from_fab(name, version, &fab, 0, &b, 0)
    }

    fn tier(dir: &std::path::Path, budget: u64) -> DiskTier {
        let cfg = TierConfig::new(dir)
            .with_budget(budget)
            .with_chunk_size(256);
        DiskTier::open(dir.join("tier.log"), &cfg, Arc::new(BufferPool::new())).unwrap()
    }

    /// A promote as the server runs one: read and verify every extent,
    /// then take them off the log.
    fn promote(t: &mut DiskTier, key: &ObjectKey) -> Vec<DataObject> {
        let objs = t.fetch(key, None, None).unwrap();
        t.take(key, &objs);
        objs
    }

    #[test]
    fn default_policy_spills_while_disk_has_room() {
        let dir = tmpdir("policy");
        let mut t = tier(&dir, 600);
        assert!(t.log().has_room(512));
        t.spill(&obj("rho", 1, 4)).unwrap(); // 512 B
                                             // Disk now holds 512 of 600: another 512 would not fit.
        assert!(!t.log().has_room(512));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deadline_hint_does_not_change_the_verdict() {
        use crate::server::{StagingError, StagingServer};
        let dir = tmpdir("hints");
        // Memory holds one 512 B object, the disk none: an expired
        // deadline orders spill victims, it makes no room.
        let s = StagingServer::with_tier(0, 512, tier(&dir, 0));
        s.set_hints("rho", ObjectHints { deadline: Some(1) });
        s.put(obj("rho", 1, 4)).unwrap();
        assert!(matches!(
            s.put(obj("rho", 5, 4)),
            Err(StagingError::OutOfMemory { .. })
        ));
        assert_eq!((s.used(), s.tier_snapshot().unwrap().spilled), (512, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The one rule, as a put over the memory cap sees it.
    #[test]
    fn an_over_cap_put_spills_while_the_log_has_room_then_is_refused() {
        use crate::server::{StagingError, StagingServer};
        let dir = tmpdir("verdict");
        // Memory holds one 512 B object, the disk one more.
        let s = StagingServer::with_tier(0, 512, tier(&dir, 600));
        s.put(obj("rho", 1, 4)).unwrap();
        let oom = |e: Result<(), StagingError>| matches!(e, Err(StagingError::OutOfMemory { .. }));
        let spilled = || s.tier_snapshot().unwrap().spilled;

        // Spill while the log has room, then refuse, leaving memory alone.
        s.put(obj("rho", 2, 4)).unwrap();
        assert_eq!(spilled(), 1);
        assert!(oom(s.put(obj("rho", 3, 4))));
        assert_eq!((spilled(), s.used()), (1, 512));

        // Once the drain has made room on disk, the next put spills again.
        s.evict_before("rho", 3);
        s.put(obj("rho", 3, 4)).unwrap();
        s.put(obj("rho", 4, 4)).unwrap();
        assert_eq!((spilled(), s.used()), (2, 512));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadlines_mark_stale_versions() {
        let dir = tmpdir("deadline");
        let mut t = tier(&dir, 1 << 20);
        t.set_hints("rho", ObjectHints { deadline: Some(3) });
        // Version 5 expires once the put stream reaches version 8.
        assert!(!t.past_deadline(&ObjectKey::new("rho", 5), 7));
        assert!(t.past_deadline(&ObjectKey::new("rho", 5), 8));
        // No deadline hint: never stale.
        assert!(!t.past_deadline(&ObjectKey::new("p", 1), u64::MAX));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_take_roundtrip_updates_counters() {
        let dir = tmpdir("counters");
        let mut t = tier(&dir, 1 << 20);
        let a = obj("rho", 1, 4);
        t.spill(&a).unwrap();
        t.spill(&obj("rho", 2, 4)).unwrap();
        assert_eq!(t.log().num_keys(), 2);
        assert!(t.log().contains(&ObjectKey::new("rho", 1)));
        // Fetch serves without removing.
        let served = t.fetch(&ObjectKey::new("rho", 1), None, None).unwrap();
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].payload, a.payload);
        assert_eq!(t.log().num_keys(), 2);
        // A promote takes it off the disk; counters move.
        let promoted = promote(&mut t, &ObjectKey::new("rho", 1));
        assert_eq!(promoted.len(), 1);
        assert_eq!(promoted[0].payload, a.payload);
        assert_eq!(t.log().num_keys(), 1);
        let s = t.snapshot();
        assert_eq!(s.spilled, 2);
        assert_eq!(s.spilled_bytes, 1024);
        assert_eq!(s.promoted, 1);
        assert_eq!(s.promoted_bytes, 512);
        assert_eq!(s.disk_hits, 2);
        assert_eq!(s.disk_used, 512);
        assert_eq!(s.spilled_keys, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_survives_compaction_failure() {
        let dir = tmpdir("compactfail");
        let cfg = TierConfig::new(&dir)
            .with_budget(1 << 20)
            .with_chunk_size(256)
            .with_compact_min_dead(1);
        let mut t =
            DiskTier::open(dir.join("tier.log"), &cfg, Arc::new(BufferPool::new())).unwrap();
        let a = obj("rho", 1, 4);
        t.spill(&a).unwrap();
        // A second spilled object keeps the segment partly live, so the
        // promote below leaves dead bytes only a rewrite can reclaim.
        t.spill(&obj("rho", 2, 4)).unwrap();
        // Squat the compaction scratch path with a directory so every
        // compaction attempt fails with an I/O error.
        std::fs::create_dir(dir.join("tier.compact")).unwrap();
        // The promote must still hand the objects back: once they are
        // read and unindexed they are the only copy, and compaction is
        // only opportunistic space reclamation.
        let back = promote(&mut t, &ObjectKey::new("rho", 1));
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].payload, a.payload);
        assert!(!t.log().contains(&ObjectKey::new("rho", 1)));
        let s = t.snapshot();
        assert_eq!(s.compact_errors, 1, "the failed sweep is counted");
        assert_eq!(s.compactions, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_churn_unlinks_whole_segments_and_never_rewrites() {
        // The staging pattern: spill every version, promote each two
        // versions later. 2 MiB objects, seven to a segment, so every
        // segment dies whole a few versions after it fills.
        let dir = tmpdir("churn");
        let cfg = TierConfig::new(&dir).with_chunk_size(256);
        let mut t =
            DiskTier::open(dir.join("tier.log"), &cfg, Arc::new(BufferPool::new())).unwrap();
        for v in 1..=24u64 {
            t.spill(&obj("rho", v, 64)).unwrap();
            if v > 2 {
                let back = promote(&mut t, &ObjectKey::new("rho", v - 2));
                assert_eq!(back[0].payload, obj("rho", v - 2, 64).payload);
            }
        }
        let s = t.snapshot();
        assert_eq!((s.compactions, s.compact_errors), (0, 0));
        assert_eq!(s.disk_used, 2 * (64 * 64 * 64 * 8));
        // 24 versions went through four segments; what is left is the
        // active one and at most the one before it.
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert!(files <= 2, "{files} segment files left");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_restores_gauges_and_reports_recovery() {
        let dir = tmpdir("reopen");
        let cfg = TierConfig::new(&dir)
            .with_budget(1 << 20)
            .with_chunk_size(256);
        let path = dir.join("tier.log");
        {
            let mut t = DiskTier::open(&path, &cfg, Arc::new(BufferPool::new())).unwrap();
            t.spill(&obj("rho", 1, 4)).unwrap();
            assert!(t.recovery().is_empty());
        }
        let mut t = DiskTier::open(&path, &cfg, Arc::new(BufferPool::new())).unwrap();
        assert!(t.recovery().is_empty());
        assert_eq!(t.log().num_keys(), 1);
        assert_eq!(t.snapshot().disk_used, 512);
        let back = t.fetch(&ObjectKey::new("rho", 1), None, None).unwrap();
        assert_eq!(back[0].payload, obj("rho", 1, 4).payload);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
