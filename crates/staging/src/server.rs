//! A staging server: one in-transit node's share of the space, with a
//! memory cap (the in-transit memory constraint of paper Eq. 10) and an
//! optional disk spill tier behind it ([`crate::tier`]).
//!
//! A server has one lock. Its store — the resident objects, their
//! accounting and recency ticks, and the disk tier — sits behind one
//! `RwLock`, so which tier holds a key is read and changed under it and
//! nowhere else: the compiler, not a comment, keeps every "is it on disk?"
//! probe inside the guard.

use crate::cluster::Shard;
use crate::index::BucketIndex;
use crate::object::{DataObject, ObjectDesc, ObjectKey};
use crate::pool::BufferPool;
use crate::tier::{recycle, DiskTier, ObjectHints, SpillAction, TierSnapshot};
use crate::TierError;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use xlayer_amr::boxes::IBox;

/// Bucket width of the per-key spatial index (cells).
const INDEX_BUCKET: i64 = 16;

/// Why a server could not do what it was asked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StagingError {
    /// Accepting the object would exceed the server's memory cap (and the
    /// disk tier, if any, could not absorb it either).
    OutOfMemory {
        /// The server's capacity in bytes.
        cap: u64,
        /// Bytes already resident.
        used: u64,
        /// Size of the rejected object.
        requested: u64,
    },
    /// A read needed spilled extents the disk tier could not read back: the
    /// server cannot answer with the whole version, so it answers with
    /// this instead of the part it holds in memory.
    Unreadable {
        /// The server's id.
        server: usize,
        /// The key whose extents failed.
        key: ObjectKey,
        /// What the disk tier reported.
        source: TierError,
    },
}

impl std::fmt::Display for StagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StagingError::OutOfMemory {
                cap,
                used,
                requested,
            } => write!(
                f,
                "staging server out of memory: cap {cap} B, used {used} B, requested {requested} B"
            ),
            StagingError::Unreadable {
                server,
                key,
                source,
            } => write!(
                f,
                "staging server {server} cannot read {} v{}: {source}",
                key.name, key.version
            ),
        }
    }
}

impl std::error::Error for StagingError {}

/// One staging server: an object store with memory accounting.
#[derive(Debug)]
pub struct StagingServer {
    id: usize,
    memory_cap: u64,
    /// The server's one lock, over both tiers: concurrent readers
    /// (`get`/`describe`) share it; mutations of either tier
    /// (`put`/promotion/`evict_before`) take it exclusively.
    inner: RwLock<Store>,
}

#[derive(Debug, Default)]
struct Store {
    // Objects are held behind `Arc` so reads hand out refcounted handles
    // (the payload `Bytes` is itself shared) instead of deep-cloning the
    // descriptor vectors on every get.
    objects: HashMap<ObjectKey, (Vec<Arc<DataObject>>, BucketIndex)>,
    used: u64,
    peak: u64,
    /// Logical access clock and per-key last-touch ticks (puts and tiered
    /// gets advance it) — the recency half of spill-victim ordering. A
    /// `BTreeMap` so victim candidates enumerate deterministically.
    ticks: BTreeMap<ObjectKey, u64>,
    clock: u64,
    /// The disk spill tier, if one is attached. It lives here, under the
    /// store lock, so whether a key is resident or spilled is one
    /// partition that no reader can see half-moved.
    tier: Option<DiskTier>,
}

impl Store {
    /// Mark `key` as touched now (victim recency).
    fn touch(&mut self, key: &ObjectKey) {
        self.clock += 1;
        self.ticks.insert(key.clone(), self.clock);
    }

    /// Make `obj` resident and charge it to memory.
    fn admit(&mut self, obj: Arc<DataObject>) {
        self.used += obj.desc.bytes;
        self.peak = self.peak.max(self.used);
        let entry = self
            .objects
            .entry(obj.desc.key.clone())
            .or_insert_with(|| (Vec::new(), BucketIndex::new(INDEX_BUCKET)));
        entry.1.insert(obj.desc.bbox);
        entry.0.push(obj);
    }
}

impl StagingServer {
    /// A server with `memory_cap` bytes of staging memory and no disk tier
    /// (puts beyond the cap are rejected, the pre-tier behaviour).
    pub fn new(id: usize, memory_cap: u64) -> Self {
        StagingServer {
            id,
            memory_cap,
            inner: RwLock::default(),
        }
    }

    /// A server with `memory_cap` bytes of staging memory backed by a disk
    /// spill tier: puts that exceed the cap demote cold versions to `tier`
    /// (or are refused, per its policy), and gets promote spilled versions
    /// back on access.
    pub fn with_tier(id: usize, memory_cap: u64, tier: DiskTier) -> Self {
        let store = Store {
            tier: Some(tier),
            ..Store::default()
        };
        StagingServer {
            inner: RwLock::new(store),
            ..Self::new(id, memory_cap)
        }
    }

    /// Server id (its index in the staging partition).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Memory capacity in bytes.
    pub fn memory_cap(&self) -> u64 {
        self.memory_cap
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.inner.read().used
    }

    /// High-water mark of resident bytes.
    pub fn peak(&self) -> u64 {
        self.inner.read().peak
    }

    /// The disk tier's counters (`None` without a tier). Taken under the
    /// store lock, so the gauges in it are one consistent cut.
    pub fn tier_snapshot(&self) -> Option<TierSnapshot> {
        self.inner.read().tier.as_ref().map(DiskTier::snapshot)
    }

    /// Set (replace) the disk tier's placement hints — the version
    /// deadline — for variable `name` (a no-op without a tier).
    pub fn set_hints(&self, name: &str, hints: ObjectHints) {
        if let Some(tier) = &mut self.inner.write().tier {
            tier.set_hints(name, hints);
        }
    }

    /// Force the disk tier's pressure decision to `action`; `None`
    /// restores the default, spill while the log has room and reject after
    /// (a no-op without a tier).
    pub fn set_pressure_action(&self, action: Option<SpillAction>) {
        if let Some(tier) = &mut self.inner.write().tier {
            tier.set_forced(action);
        }
    }

    /// Store an object (a plain `DataObject` is wrapped on the way in).
    ///
    /// Under the memory cap this is the pre-tier fast path. Over it, the
    /// attached tier (if any) decides spill or reject: spilling demotes the
    /// coldest resident keys — expired-deadline keys first, then
    /// least-recently-touched, version order breaking ties — to the disk
    /// log until the object fits, falling back to writing the object
    /// itself to disk when the cap is smaller than the object. Only when
    /// the disk is exhausted too (or the policy says reject) does the put
    /// fail with `OutOfMemory`. A refused put has copied no payload.
    ///
    /// A put is idempotent for a byte-identical object: when the server
    /// already holds one with an equal descriptor *and* an equal payload,
    /// in memory or on its disk tier (checked under the same write-lock
    /// hold as the insert), the put answers `Ok` and stores nothing, so a
    /// client that re-sends a put whose reply it lost does not double the
    /// object, wherever its first copy has moved since.
    pub fn put(&self, obj: impl Into<Arc<DataObject>>) -> Result<(), StagingError> {
        let obj = obj.into();
        // xlint: allow(L) -- the disk-twin probe and any spill run under the write lock, so a re-sent put and its first copy's demotion, promote or drain resolve as one serial order
        let mut s = self.inner.write();
        if Self::resident_twin(&s, &obj) || s.tier.as_mut().is_some_and(|t| t.has_twin(&obj)) {
            return Ok(());
        }
        let bytes = obj.desc.bytes;
        if s.used + bytes > self.memory_cap {
            let oom = StagingError::OutOfMemory {
                cap: self.memory_cap,
                used: s.used,
                requested: bytes,
            };
            let verdict = s
                .tier
                .as_ref()
                .map_or(SpillAction::Reject, |t| t.decide(bytes));
            match verdict {
                SpillAction::Reject => return Err(oom),
                SpillAction::Spill => {
                    Self::demote_victims(&mut s, self.memory_cap, bytes, &obj.desc.key)
                }
            }
            if s.used + bytes > self.memory_cap {
                // Demotion could not make room (the cap is smaller than the
                // object, or the disk filled up): spill the incoming object
                // itself.
                if s.tier.as_mut().is_none_or(|t| t.spill(&obj).is_err()) {
                    return Err(oom);
                }
                s.touch(&obj.desc.key);
                return Ok(());
            }
        }
        s.touch(&obj.desc.key);
        s.admit(obj);
        Ok(())
    }

    /// Whether memory already holds a byte-identical twin of `obj`: equal
    /// descriptor (key, bbox, core, dx, bytes, origin rank) and equal
    /// payload. Descriptor equality alone is not enough — two AMR levels
    /// stage grids with the same index-space box and rank at different
    /// `dx` — and the payload is only compared once the descriptor matched.
    /// Candidates come from the key's bucket index, asked only for the
    /// box's low corner: a twin has the same box, so it covers that cell,
    /// and one cell touches one bucket instead of every bucket the box
    /// spans.
    fn resident_twin(s: &Store, obj: &DataObject) -> bool {
        let Some((objs, index)) = s.objects.get(&obj.desc.key) else {
            return false;
        };
        let corner = obj.desc.bbox.lo();
        index
            .query(&IBox::new(corner, corner))
            .into_iter()
            .filter_map(|id| objs.get(id))
            .any(|held| held.desc == obj.desc && held.payload == obj.payload)
    }

    /// Demote whole resident keys to the disk tier until `need` more bytes
    /// fit under `cap` (or no demotable victim remains; a no-op without a
    /// tier). Victim order: keys past their deadline hint first, then
    /// least-recently-touched, with `(name, version)` order breaking ties —
    /// so the coldest, oldest versions leave memory first (LRU-by-version).
    /// The incoming key is never demoted to make room for itself. Demotion
    /// stops early when the disk budget cannot hold the next victim. Each
    /// object leaves memory once it is on disk, and its payload buffer
    /// goes back to the tier's pool. An append that fails for I/O (room was
    /// checked) ends the demotion: the objects of that key already
    /// appended have left memory, the rest stay resident, so every object
    /// is held once, in one tier, and `used` counts the resident ones.
    fn demote_victims(s: &mut Store, cap: u64, need: u64, incoming: &ObjectKey) {
        let Some(tier) = s.tier.as_mut() else {
            return;
        };
        if s.used.saturating_add(need) <= cap {
            return;
        }
        let now = incoming.version;
        let mut victims: Vec<(bool, u64, ObjectKey)> = s
            .objects
            .keys()
            .filter(|k| *k != incoming)
            .map(|k| {
                let fresh = !tier.past_deadline(k, now);
                let tick = s.ticks.get(k).copied().unwrap_or(0); // Option: an untouched key is coldest
                (fresh, tick, k.clone())
            })
            .collect();
        victims.sort();
        for (_, _, key) in victims {
            if s.used.saturating_add(need) <= cap {
                break;
            }
            let Some((objs, index)) = s.objects.get_mut(&key) else {
                continue;
            };
            let key_bytes: u64 = objs.iter().map(|o| o.desc.bytes).sum();
            if !tier.log().has_room(key_bytes) {
                break;
            }
            let on_disk = objs.iter().take_while(|o| tier.spill(o).is_ok()).count();
            let moved: Vec<Arc<DataObject>> = objs.drain(..on_disk).collect();
            let partial = !objs.is_empty();
            if partial {
                // Index ids are positions in `objs`: the first `on_disk` left.
                index.retain(|id| id >= on_disk);
            } else {
                s.objects.remove(&key);
            }
            s.used = s
                .used
                .saturating_sub(moved.iter().map(|o| o.desc.bytes).sum());
            moved.into_iter().for_each(|o| recycle(tier.pool(), o));
            if partial {
                break;
            }
        }
    }

    /// Objects under `key` whose bbox intersects `query` (all, if `query`
    /// is `None`) and that pass the `crossing` predicate
    /// ([`ObjectDesc::may_cross`]). Spatial queries go through the per-key
    /// bucket index. Returns refcounted handles: no descriptor or payload
    /// is copied.
    ///
    /// With a disk tier attached, a key with spilled versions is promoted
    /// back into memory on access (demoting colder keys if the cap is
    /// tight); when promotion cannot fit, the spilled extents are served
    /// straight from disk without residency. While nothing of `key` is
    /// spilled the tier costs one index lookup under the read guard, so
    /// an idle tier keeps RAM-resident gets at parity. A spilled key is
    /// promoted whole whatever `crossing` says, and filtered after; served
    /// from disk, only its matching extents are read.
    ///
    /// A spilled extent the tier cannot read back fails the whole read
    /// ([`StagingError::Unreadable`], counted in the tier's `read_errors`):
    /// the resident part alone is never passed off as the version. Extents
    /// a failed promotion could not read stay on disk.
    pub fn get(
        &self,
        key: &ObjectKey,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<Arc<DataObject>>, StagingError> {
        let s = self.inner.read();
        // The tier lives in the store, so this probe can only run under
        // the guard: a key observed un-spilled here cannot move to disk
        // before the resident match below.
        if !s.tier.as_ref().is_some_and(|t| t.log().contains(key)) {
            return Ok(Self::match_resident(&s, key, query, crossing));
        }
        drop(s);
        // xlint: allow(L) -- promote/serve-from-disk runs under the write lock so a promote racing a drain resolves as one serial order
        let mut s = self.inner.write();
        Self::get_promoting(&mut s, self.memory_cap, key, query, crossing).map_err(|source| {
            StagingError::Unreadable {
                server: self.id,
                key: key.clone(),
                source,
            }
        })
    }

    /// The in-memory matches for `key` under an already-held store lock.
    fn match_resident(
        s: &Store,
        key: &ObjectKey,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Vec<Arc<DataObject>> {
        let Some((objs, index)) = s.objects.get(key) else {
            return Vec::new();
        };
        let keep = |o: &&Arc<DataObject>| o.desc.may_cross(crossing);
        match query {
            None => objs.iter().filter(keep).cloned().collect(),
            Some(q) => index
                .query(q)
                .into_iter()
                // The index is built alongside `objs`, so ids are in range;
                // filter_map keeps a desynced index from panicking a reader.
                .filter_map(|id| objs.get(id))
                .filter(keep)
                .cloned()
                .collect(),
        }
    }

    /// The get slow path: `key` has spilled extents. Promote them into
    /// memory when they fit under `cap` (after demoting colder keys), else
    /// serve them from disk without promotion. Runs under the write lock,
    /// so a promote racing a drain resolves as one of the two serial
    /// orders — never a torn in-between state.
    fn get_promoting(
        s: &mut Store,
        cap: u64,
        key: &ObjectKey,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<Arc<DataObject>>, TierError> {
        let spilled_bytes: u64 = s.tier.as_ref().map_or(0, |t| {
            t.log().extents_for(key).iter().map(|d| d.bytes).sum()
        });
        if spilled_bytes == 0 {
            // A racing promote or drain got here first.
            return Ok(Self::match_resident(s, key, query, crossing));
        }
        Self::demote_victims(s, cap, spilled_bytes, key);
        let Some(tier) = s.tier.as_mut() else {
            return Ok(Self::match_resident(s, key, query, crossing));
        };
        if s.used.saturating_add(spilled_bytes) <= cap {
            // Promote: move the extents into memory, then serve from there.
            let objs = tier.take(key)?;
            s.touch(key);
            objs.into_iter().for_each(|o| s.admit(Arc::new(o)));
            return Ok(Self::match_resident(s, key, query, crossing));
        }
        // Promotion cannot fit even after demotion: serve spilled extents
        // from disk alongside any resident ones, leaving residency alone.
        let disk = tier.fetch(key, query, crossing)?;
        let mut out = Self::match_resident(s, key, query, crossing);
        out.extend(disk.into_iter().map(Arc::new));
        Ok(out)
    }

    /// Descriptors of everything under `key`, across both tiers, under one
    /// read guard: demotions take the write lock, so the resident snapshot
    /// and the disk-side listing describe one consistent partition (an
    /// extent cannot slip between tiers and be missed — or counted twice).
    pub fn describe(&self, key: &ObjectKey) -> Vec<ObjectDesc> {
        let s = self.inner.read();
        let mut out: Vec<ObjectDesc> = s
            .objects
            .get(key)
            .map(|(v, _)| v.iter().map(|o| o.desc.clone()).collect())
            .unwrap_or_default(); // Option: a key with nothing resident lists no resident part
        if let Some(tier) = &s.tier {
            out.extend(tier.log().extents_for(key));
        }
        out
    }

    /// Drop every object older than `min_version` under variable `name`
    /// (the space reclaims consumed time steps), in memory and on disk.
    /// Returns bytes freed across both tiers; the disk tier unlinks the
    /// log segments this leaves without a live extent.
    pub fn evict_before(&self, name: &str, min_version: u64) -> u64 {
        // xlint: allow(L) -- eviction must drop both tiers atomically with the resident map; the store lock serializes tier writers
        let mut s = self.inner.write();
        let stale = |k: &ObjectKey| k.name == name && k.version < min_version;
        let mut dropped = Vec::new();
        s.objects.retain(|k, (v, _)| {
            if stale(k) {
                dropped.append(v);
            }
            !stale(k)
        });
        let mut freed: u64 = dropped.iter().map(|o| o.desc.bytes).sum();
        s.used = s.used.saturating_sub(freed);
        s.ticks.retain(|k, _| !stale(k));
        let pool = s.tier.as_mut().map(|tier| {
            freed += tier.evict_before(name, min_version);
            Arc::clone(tier.pool())
        });
        drop(s);
        Self::recycle_all(pool, dropped);
        freed
    }

    /// Hand dropped objects' payload buffers to the disk tier's `pool`
    /// (see [`recycle`]) once the store lock is released; without a tier
    /// they are simply freed.
    fn recycle_all(pool: Option<Arc<BufferPool>>, dropped: Vec<Arc<DataObject>>) {
        if let Some(pool) = pool {
            dropped.into_iter().for_each(|o| recycle(&pool, o));
        }
    }
}

/// One shard of a [`crate::DataSpace`]. Only a read can fail.
impl Shard for StagingServer {
    type Error = StagingError;

    fn put(&self, obj: Arc<DataObject>) -> Result<(), StagingError> {
        StagingServer::put(self, obj)
    }

    fn get_crossing(
        &self,
        key: &ObjectKey,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<Arc<DataObject>>, StagingError> {
        self.get(key, query, crossing)
    }

    fn describe(&self, key: &ObjectKey) -> Result<Vec<ObjectDesc>, StagingError> {
        Ok(StagingServer::describe(self, key))
    }

    fn evict_before(&self, name: &str, min_version: u64) -> Result<u64, StagingError> {
        Ok(StagingServer::evict_before(self, name, min_version))
    }

    fn headroom(&self) -> Result<(u64, u64), StagingError> {
        let disk = self
            .tier_snapshot()
            .map_or(0, |t| t.disk_budget.saturating_sub(t.disk_used));
        Ok((self.memory_cap.saturating_sub(self.used()), disk))
    }

    fn refuses(err: &StagingError) -> bool {
        matches!(err, StagingError::OutOfMemory { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_amr::fab::Fab;
    use xlayer_amr::intvect::IntVect;

    fn obj(name: &str, version: u64, lo: i64, n: i64) -> DataObject {
        let b = IBox::cube(n).shift(IntVect::splat(lo));
        let fab = Fab::filled(b, 1, 1.0);
        DataObject::from_fab(name, version, &fab, 0, &b, 0)
    }

    #[test]
    fn put_get_roundtrip() {
        let s = StagingServer::new(0, 1 << 20);
        s.put(obj("rho", 1, 0, 4)).unwrap();
        s.put(obj("rho", 1, 8, 4)).unwrap();
        s.put(obj("rho", 2, 0, 4)).unwrap();
        let key = ObjectKey::new("rho", 1);
        assert_eq!(s.get(&key, None, None).unwrap().len(), 2);
        assert_eq!(
            s.get(&ObjectKey::new("rho", 2), None, None).unwrap().len(),
            1
        );
        assert_eq!(s.get(&ObjectKey::new("p", 1), None, None).unwrap().len(), 0);
    }

    #[test]
    fn spatial_query_filters() {
        let s = StagingServer::new(0, 1 << 20);
        s.put(obj("rho", 1, 0, 4)).unwrap();
        s.put(obj("rho", 1, 8, 4)).unwrap();
        let key = ObjectKey::new("rho", 1);
        let q = IBox::cube(4);
        let hits = s.get(&key, Some(&q), None).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].desc.bbox, IBox::cube(4));
    }

    #[test]
    fn memory_cap_enforced() {
        // 64 cells * 8 B = 512 B each. Two different boxes: an identical
        // second put would be recognised as a repeat, not held to the cap.
        let s = StagingServer::new(0, 1000);
        s.put(obj("rho", 1, 0, 4)).unwrap();
        let err = s.put(obj("rho", 1, 8, 4)).unwrap_err();
        assert_eq!(
            err,
            StagingError::OutOfMemory {
                cap: 1000,
                used: 512,
                requested: 512,
            }
        );
    }

    #[test]
    fn eviction_frees_memory() {
        let s = StagingServer::new(0, 1 << 20);
        s.put(obj("rho", 1, 0, 4)).unwrap();
        s.put(obj("rho", 2, 0, 4)).unwrap();
        s.put(obj("p", 1, 0, 4)).unwrap();
        let used0 = s.used();
        let freed = s.evict_before("rho", 2);
        assert_eq!(freed, 512);
        assert_eq!(s.used(), used0 - 512);
        // rho v2 and p v1 survive
        assert_eq!(
            s.get(&ObjectKey::new("rho", 2), None, None).unwrap().len(),
            1
        );
        assert_eq!(s.get(&ObjectKey::new("p", 1), None, None).unwrap().len(), 1);
    }

    #[test]
    fn peak_tracks_high_water() {
        let s = StagingServer::new(0, 1 << 20);
        s.put(obj("rho", 1, 0, 4)).unwrap();
        s.put(obj("rho", 2, 0, 4)).unwrap();
        s.evict_before("rho", u64::MAX);
        assert_eq!(s.used(), 0);
        assert_eq!(s.peak(), 1024);
    }

    mod tiered {
        use super::*;
        use crate::pool::BufferPool;
        use crate::tier::TierConfig;
        use std::path::PathBuf;

        fn tmpdir(tag: &str) -> PathBuf {
            let d = std::env::temp_dir()
                .join(format!("xlayer-tiered-server-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            std::fs::create_dir_all(&d).unwrap();
            d
        }

        fn server(dir: &std::path::Path, cap: u64, disk: u64) -> StagingServer {
            let cfg = TierConfig::new(dir).with_budget(disk).with_chunk_size(256);
            let tier =
                DiskTier::open(dir.join("srv.log"), &cfg, Arc::new(BufferPool::new())).unwrap();
            StagingServer::with_tier(0, cap, tier)
        }

        /// Whether `key` has extents on `s`'s disk tier, read under the
        /// store guard like every other tier probe.
        fn spilled(s: &StagingServer, key: &ObjectKey) -> bool {
            let store = s.inner.read();
            store.tier.as_ref().is_some_and(|t| t.log().contains(key))
        }

        fn snap(s: &StagingServer) -> TierSnapshot {
            s.tier_snapshot().expect("a tiered server")
        }

        /// A distinctive payload per (name, version) so bit-identity checks
        /// mean something.
        fn vobj(name: &str, version: u64) -> DataObject {
            let b = IBox::cube(4);
            let mut fab = Fab::new(b, 1);
            for iv in b.cells() {
                fab.set(
                    iv,
                    0,
                    (iv[0] * 100 + iv[1] * 10 + iv[2]) as f64 + version as f64 * 1e4,
                );
            }
            DataObject::from_fab(name, version, &fab, 0, &b, 0)
        }

        #[test]
        fn pressure_spills_cold_versions_lru_by_version() {
            let dir = tmpdir("lru");
            // Cap fits two 512 B objects; disk takes the overflow.
            let s = server(&dir, 1024, 1 << 20);
            s.put(vobj("rho", 1)).unwrap();
            s.put(vobj("rho", 2)).unwrap();
            s.put(vobj("rho", 3)).unwrap(); // demotes v1 (oldest tick)
            assert_eq!(s.used(), 1024);
            assert!(spilled(&s, &ObjectKey::new("rho", 1)));
            assert!(!spilled(&s, &ObjectKey::new("rho", 3)));
            // The spilled version is still fully readable (promotes back,
            // displacing the now-coldest v2).
            let got = s.get(&ObjectKey::new("rho", 1), None, None).unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].payload, vobj("rho", 1).payload);
            assert!(!spilled(&s, &ObjectKey::new("rho", 1)));
            assert!(spilled(&s, &ObjectKey::new("rho", 2)));
            let snap = snap(&s);
            assert_eq!(snap.promoted, 1);
            assert!(snap.spilled >= 2);
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn object_larger_than_cap_lives_on_disk() {
            let dir = tmpdir("bigobj");
            let s = server(&dir, 100, 1 << 20); // cap < one object
            s.put(vobj("rho", 1)).unwrap();
            assert_eq!(s.used(), 0, "object must not be charged to memory");
            assert_eq!(snap(&s).disk_used, 512);
            // Served straight from disk (cannot promote), bit-identical.
            let got = s.get(&ObjectKey::new("rho", 1), None, None).unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].payload, vobj("rho", 1).payload);
            assert!(spilled(&s, &ObjectKey::new("rho", 1)));
            assert_eq!(snap(&s).disk_hits, 1);
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn both_tiers_full_is_out_of_memory() {
            let dir = tmpdir("full");
            let s = server(&dir, 512, 600); // disk fits one object
            s.put(vobj("rho", 1)).unwrap();
            s.put(vobj("rho", 2)).unwrap(); // v1 demoted, disk now full
            let err = s.put(vobj("rho", 3)).unwrap_err();
            assert!(matches!(err, StagingError::OutOfMemory { .. }));
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn a_demotion_that_fails_partway_holds_each_object_once() {
            // Two 9 MiB objects under one key: the second's append rolls to
            // segment 1, which a directory squats, so demoting the key
            // fails after its first object is on disk.
            let dir = tmpdir("partial");
            let s = server(&dir, 20 << 20, u64::MAX);
            let big = |name: &str, x: i64| {
                let b = IBox::new(IntVect::new(x, 0, 0), IntVect::new(x + 95, 95, 127));
                DataObject::from_fab(name, 1, &Fab::filled(b, 1, x as f64), 0, &b, 0)
            };
            let rho = ObjectKey::new("rho", 1);
            s.put(big("rho", 0)).unwrap();
            s.put(big("rho", 96)).unwrap();
            let squat = dir.join("srv.log.1");
            std::fs::create_dir(&squat).unwrap();

            // `p` demotes "rho": one object moves to disk, the other stays
            // resident, and `p` fits beside it.
            let put_p = s.put(big("p", 0));
            assert_eq!(s.describe(&rho).len(), 2, "a rho object held twice");
            assert_eq!(snap(&s).disk_used, 9 << 20);
            assert_eq!(put_p, Ok(()));
            assert_eq!(s.used(), 18 << 20, "resident: one rho object and p");
            // Promotion cannot make room (p's demotion fails the same
            // way): served from both tiers, each object once.
            let got = s.get(&rho, None, None).unwrap();
            let mut los: Vec<IntVect> = got.iter().map(|o| o.desc.bbox.lo()).collect();
            los.sort();
            assert_eq!(los, vec![IntVect::ZERO, IntVect::new(96, 0, 0)]);

            // With segment 1 free again, the promote goes through: p
            // leaves, rho comes back whole and is charged once.
            std::fs::remove_dir(&squat).unwrap();
            assert_eq!(s.get(&rho, None, None).unwrap().len(), 2);
            assert!(!spilled(&s, &rho));
            assert_eq!(s.used(), 18 << 20);
            assert_eq!(snap(&s).disk_used, 9 << 20);
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn expired_deadlines_are_demoted_first() {
            let dir = tmpdir("deadline");
            let s = server(&dir, 1024, 1 << 20);
            // "old" versions expire 2 steps after production; "rho" never.
            s.set_hints("old", ObjectHints { deadline: Some(2) });
            s.put(vobj("old", 1)).unwrap();
            s.put(vobj("rho", 1)).unwrap();
            // At rho v5, old v1 is expired (1 + 2 <= 5): expiry outranks
            // recency, so the expired key is the one demoted to disk.
            s.put(vobj("rho", 5)).unwrap();
            assert!(spilled(&s, &ObjectKey::new("old", 1)));
            assert!(!spilled(&s, &ObjectKey::new("rho", 1)));
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn describe_and_evict_span_both_tiers() {
            let dir = tmpdir("span");
            let s = server(&dir, 1024, 1 << 20);
            for v in 1..=3 {
                s.put(vobj("rho", v)).unwrap();
            }
            assert!(spilled(&s, &ObjectKey::new("rho", 1)));
            assert_eq!(s.describe(&ObjectKey::new("rho", 1)).len(), 1);
            assert_eq!(s.describe(&ObjectKey::new("rho", 3)).len(), 1);
            // Draining consumed steps reclaims disk extents too.
            let freed = s.evict_before("rho", 3);
            assert_eq!(freed, 1024, "one RAM version + one disk version");
            assert!(!spilled(&s, &ObjectKey::new("rho", 1)));
            assert!(s
                .get(&ObjectKey::new("rho", 1), None, None)
                .unwrap()
                .is_empty());
            assert_eq!(
                s.get(&ObjectKey::new("rho", 3), None, None).unwrap().len(),
                1
            );
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn spatial_queries_reach_spilled_extents() {
            let dir = tmpdir("spatial");
            let s = server(&dir, 100, 1 << 20); // everything on disk
            let b1 = IBox::cube(4);
            let b2 = IBox::cube(4).shift(IntVect::splat(8));
            let f1 = Fab::filled(b1, 1, 1.0);
            let f2 = Fab::filled(b2, 1, 2.0);
            s.put(DataObject::from_fab("rho", 1, &f1, 0, &b1, 0))
                .unwrap();
            s.put(DataObject::from_fab("rho", 1, &f2, 0, &b2, 0))
                .unwrap();
            assert_eq!(snap(&s).spilled, 2);
            let hits = s
                .get(&ObjectKey::new("rho", 1), Some(&IBox::cube(4)), None)
                .unwrap();
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].desc.bbox, b1);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Satellite: a promote racing a drain must resolve as one of the
        /// two serial orders. Whichever wins, the drained versions end up
        /// gone from BOTH tiers and the memory accounting balances.
        #[test]
        fn promote_during_drain_resolves_deterministically() {
            for round in 0..20 {
                let dir = tmpdir(&format!("race-{round}"));
                let s = server(&dir, 1024, 1 << 20);
                for v in 1..=3 {
                    s.put(vobj("rho", v)).unwrap();
                }
                assert!(spilled(&s, &ObjectKey::new("rho", 1)));
                let s = Arc::new(s);
                let getter = {
                    let s = Arc::clone(&s);
                    std::thread::spawn(move || {
                        s.get(&ObjectKey::new("rho", 1), None, None).unwrap()
                    })
                };
                let drainer = {
                    let s = Arc::clone(&s);
                    std::thread::spawn(move || s.evict_before("rho", 2))
                };
                let got = getter.join().expect("getter");
                drainer.join().expect("drainer");
                // Serial order A (promote first): the get saw v1 intact.
                // Serial order B (drain first): the get saw nothing.
                match got.len() {
                    0 => {}
                    1 => assert_eq!(got[0].payload, vobj("rho", 1).payload),
                    n => panic!("impossible interleaving: {n} objects"),
                }
                // Post-state is identical either way: v1 fully gone.
                assert!(s
                    .get(&ObjectKey::new("rho", 1), None, None)
                    .unwrap()
                    .is_empty());
                assert!(!spilled(&s, &ObjectKey::new("rho", 1)));
                // v2 and v3 survive with balanced accounting.
                assert_eq!(
                    s.get(&ObjectKey::new("rho", 2), None, None).unwrap().len(),
                    1
                );
                assert_eq!(
                    s.get(&ObjectKey::new("rho", 3), None, None).unwrap().len(),
                    1
                );
                assert_eq!(s.used() + snap(&s).disk_used, 1024);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }

        #[test]
        fn dropped_payloads_warm_the_next_promote() {
            let dir = tmpdir("recycle");
            let pool = Arc::new(BufferPool::new());
            let cfg = TierConfig::new(&dir).with_chunk_size(256);
            let tier = DiskTier::open(dir.join("srv.log"), &cfg, Arc::clone(&pool)).unwrap();
            // Room for two 1 MiB objects.
            let s = StagingServer::with_tier(0, 2 << 20, tier);
            let mib = |v: u64| {
                let b = IBox::new(IntVect::ZERO, IntVect::new(63, 63, 31));
                DataObject::from_fab("rho", v, &Fab::filled(b, 1, v as f64), 0, &b, 0)
            };
            // The server holds the only handles to what it was given, so a
            // demoted object's buffer goes back to the pool ...
            for v in 1..=3 {
                s.put(mib(v)).unwrap();
            }
            assert!(spilled(&s, &ObjectKey::new("rho", 1)));
            assert_eq!(pool.parked(), 1);
            // ... and so does an evicted one's (v2; v1 is on disk).
            s.evict_before("rho", 3);
            assert_eq!(pool.parked(), 2);
            s.put(mib(4)).unwrap();
            s.put(mib(5)).unwrap(); // demotes v3
            assert_eq!(pool.parked(), 3);
            // The promote of v3 demotes v4 and reads v3 into warm buffers.
            let got = s.get(&ObjectKey::new("rho", 3), None, None).unwrap();
            assert_eq!(got[0].payload, mib(3).payload);
            assert_eq!((pool.hits(), pool.misses()), (1, 0));
            assert_eq!(pool.parked(), 3);
            // A handle a reader still holds is not taken from it.
            let held = s.get(&ObjectKey::new("rho", 3), None, None).unwrap();
            s.evict_before("rho", 4);
            assert_eq!(pool.parked(), 3);
            assert_eq!(held[0].payload, mib(3).payload);
            // A 1 MiB class keeps what a count bound kept, churn or not.
            for v in 6..6 + 3 * BufferPool::MAX_PER_CLASS as u64 {
                s.put(mib(v)).unwrap();
            }
            s.evict_before("rho", u64::MAX);
            assert_eq!(pool.parked(), BufferPool::MAX_PER_CLASS);
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn concurrent_demotion_never_hides_a_stored_key() {
            // Regression: the tier check in get() used to run before the
            // store lock was taken, so a put demoting the requested key in
            // that gap made the get return empty for data that was on
            // disk. Churn puts under a two-object cap so "rho" v1 keeps
            // bouncing between memory and disk while a reader hammers it:
            // every read must see exactly the object that was stored.
            let dir = tmpdir("demote-race");
            let s = server(&dir, 1024, 1 << 30);
            let s = Arc::new(s);
            s.put(vobj("rho", 1)).unwrap();
            let putter = {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for v in 2..2000u64 {
                        s.put(vobj("churn", v)).unwrap();
                    }
                })
            };
            let want = vobj("rho", 1).payload;
            while !putter.is_finished() {
                let got = s.get(&ObjectKey::new("rho", 1), None, None).unwrap();
                assert_eq!(got.len(), 1, "a stored key must never read empty");
                assert_eq!(got[0].payload, want);
            }
            putter.join().expect("putter");
            let got = s.get(&ObjectKey::new("rho", 1), None, None).unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].payload, want);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
