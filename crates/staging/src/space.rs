//! The DataSpace: the in-process staging cluster, a [`Cluster`] of
//! [`StagingServer`]s with the DataSpaces-style `put`/`get`/`query` API
//! over `(variable, version, bbox)`; placement, reads and eviction are
//! [`crate::cluster`]'s. Here is what only an in-process space has: its
//! construction and its disk tiers' hints and counters.

use crate::cluster::{Cluster, ShardError};
use crate::object::DataObject;
use crate::pool::BufferPool;
use crate::server::{StagingError, StagingServer};
use crate::tier::{DiskTier, ObjectHints, TierConfig, TierSnapshot};
use crate::TierError;
use std::sync::Arc;
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;

/// How objects map to servers: one rule, the hash of the object's bbox
/// low corner ([`crate::ShardMap`] at span 1) — spatially deterministic,
/// so a reader can locate an object without a directory (DataSpaces' DHT).
///
/// A one-variant type, kept (with the parameter of [`DataSpace::new`] /
/// [`DataSpace::new_tiered`] that ignores it) only because the frozen
/// `benchmark/` package passes `Sharding::BboxHash`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sharding {
    /// Hash of the object's bbox low corner.
    BboxHash,
}

/// A sharded in-process staging space.
///
/// ```
/// use xlayer_amr::{Fab, IBox};
/// use xlayer_staging::{DataObject, DataSpace, Sharding};
///
/// let space = DataSpace::new(4, 1 << 20, Sharding::BboxHash);
/// let region = IBox::cube(4);
/// let fab = Fab::filled(region, 1, 2.5);
/// space.put(DataObject::from_fab("rho", 1, &fab, 0, &region, 0)).unwrap();
///
/// let (back, bytes) = space.get_region("rho", 1, &region);
/// assert_eq!(bytes, region.num_cells() * 8);
/// assert_eq!(back.get(xlayer_amr::IntVect::ZERO, 0), 2.5);
/// ```
pub type DataSpace = Cluster<StagingServer>;

impl Cluster<StagingServer> {
    /// A space of `nservers` servers, each with `memory_per_server` bytes.
    pub fn new(nservers: usize, memory_per_server: u64, _: Sharding) -> Self {
        let servers = (0..nservers)
            .map(|i| StagingServer::new(i, memory_per_server))
            .collect();
        Cluster::over(servers, 1)
    }

    /// A space whose servers each carry a disk spill tier: puts beyond the
    /// memory budget demote cold versions to per-server object logs under
    /// `tier.dir` (`server-<id>.log`) while the log has room for them,
    /// instead of failing, and spilled data
    /// promotes back into memory on access. One buffer pool feeds every
    /// server's disk I/O; pass the service's pool to share further.
    ///
    /// The tiers start empty and live as long as the space: a directory
    /// where a server's log already has a segment file — a live space's,
    /// or one a crashed run left — is [`TierError::InUse`], and dropping
    /// the space unlinks every segment its logs wrote.
    pub fn new_tiered(
        nservers: usize,
        memory_per_server: u64,
        _: Sharding,
        tier: &TierConfig,
        pool: Arc<BufferPool>,
    ) -> Result<Self, TierError> {
        std::fs::create_dir_all(&tier.dir).map_err(|e| TierError::Io {
            op: "open",
            detail: e.to_string(),
        })?;
        let mut servers = Vec::with_capacity(nservers);
        for i in 0..nservers {
            let t = DiskTier::open(
                tier.dir.join(format!("server-{i}.log")),
                tier,
                Arc::clone(&pool),
            )?;
            servers.push(StagingServer::with_tier(i, memory_per_server, t));
        }
        Ok(Cluster::over(servers, 1))
    }

    /// Set placement hints — the version deadline — for variable `name` on
    /// every server's tier (a no-op without tiers).
    pub fn set_hints(&self, name: &str, hints: ObjectHints) {
        self.shards().iter().for_each(|s| s.set_hints(name, hints));
    }

    /// Aggregate tier counters across servers (zeros without tiers). Each
    /// server's part is one consistent cut, taken under its store lock.
    pub fn tier_stats(&self) -> TierSnapshot {
        let mut agg = TierSnapshot::default();
        for snap in self
            .shards()
            .iter()
            .filter_map(StagingServer::tier_snapshot)
        {
            agg.spilled += snap.spilled;
            agg.spilled_bytes += snap.spilled_bytes;
            agg.promoted += snap.promoted;
            agg.promoted_bytes += snap.promoted_bytes;
            agg.disk_hits += snap.disk_hits;
            agg.disk_used += snap.disk_used;
            agg.spilled_keys += snap.spilled_keys;
            // Budgets saturate: an unbounded tier reports `u64::MAX`, and
            // a sum across servers must stay "unbounded", not wrap.
            agg.disk_budget = agg.disk_budget.saturating_add(snap.disk_budget);
            agg.compact_errors += snap.compact_errors;
            agg.read_errors += snap.read_errors;
        }
        agg
    }

    /// Total bytes resident across servers.
    pub fn used(&self) -> u64 {
        self.shards().iter().map(|s| s.used()).sum()
    }

    /// Total capacity across servers.
    pub fn capacity(&self) -> u64 {
        self.shards().iter().map(|s| s.memory_cap()).sum()
    }

    /// Per-server resident bytes (shard balance diagnostics).
    pub fn used_per_server(&self) -> Vec<u64> {
        self.shards().iter().map(|s| s.used()).collect()
    }

    /// [`Cluster::get_crossing`] of every object under `(name, version)`
    /// intersecting `query`. Panics on [`StagingError::Unreadable`]: it has
    /// no error to return and never returns part of a version, so product
    /// code reads through [`Cluster::get_crossing`] or [`crate::Staging`].
    pub fn get(&self, name: &str, version: u64, query: Option<&IBox>) -> Vec<Arc<DataObject>> {
        whole(self.get_crossing(name, version, query, None))
    }

    /// Assemble a fab over `region` from every stored piece of
    /// `(name, version)` that intersects it. Cells not covered stay 0.
    /// Returns `(fab, bytes_read)`. Panics as [`Self::get`] does.
    pub fn get_region(&self, name: &str, version: u64, region: &IBox) -> (Fab, u64) {
        let mut fab = Fab::new(*region, 1);
        let mut bytes = 0;
        for obj in self.get(name, version, Some(region)) {
            bytes += obj.desc.bbox.intersect(region).num_cells() * 8;
            obj.copy_into(&mut fab);
        }
        (fab, bytes)
    }

    /// [`Cluster::evict`]: versions of `name` older than `min_version`
    /// leave every server; returns total bytes freed. A server's eviction
    /// reads nothing back, so it cannot fail.
    pub fn evict_before(&self, name: &str, min_version: u64) -> u64 {
        whole(self.evict(name, min_version))
    }
}

/// The answer of an in-process read that has no error to return.
fn whole<T>(answer: Result<T, ShardError<StagingError>>) -> T {
    // xlint: allow(P) -- the frozen benchmark names get/get_region/evict_before without a Result, and a lost version must not pass as a partial one; product paths read through Cluster::get_crossing or Staging
    answer.unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Staging;
    use xlayer_amr::intvect::IntVect;

    fn obj(name: &str, version: u64, lo: i64, n: i64) -> DataObject {
        let b = IBox::cube(n).shift(IntVect::splat(lo));
        let mut fab = Fab::new(b, 1);
        for iv in b.cells() {
            fab.set(iv, 0, (iv[0] + iv[1] + iv[2]) as f64);
        }
        DataObject::from_fab(name, version, &fab, 0, &b, 0)
    }

    #[test]
    fn put_get_across_shards() {
        let space = DataSpace::new(4, 1 << 20, Sharding::BboxHash);
        for lo in [0i64, 8, 16, 24] {
            space.put(obj("rho", 5, lo, 4)).unwrap();
        }
        assert_eq!(space.get("rho", 5, None).len(), 4);
        assert_eq!(space.get("rho", 4, None).len(), 0);
    }

    #[test]
    fn bbox_hash_is_deterministic() {
        let a = DataSpace::new(4, 1 << 20, Sharding::BboxHash);
        let b = DataSpace::new(4, 1 << 20, Sharding::BboxHash);
        let s1 = a.put(obj("rho", 1, 8, 4)).unwrap();
        let s2 = b.put(obj("rho", 1, 8, 4)).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn byte_identical_reput_stores_nothing() {
        let space = DataSpace::new(3, 1 << 20, Sharding::BboxHash);
        let first = obj("rho", 1, 0, 4);
        let home = space.put(first.clone()).unwrap();
        let (used, descs) = (space.used(), space.describe("rho", 1));

        // The retry a lost reply causes: same descriptor, same bytes.
        assert_eq!(space.put(first.clone()).unwrap(), home);
        assert_eq!(space.used(), used);
        assert_eq!(space.get("rho", 1, None).len(), 1);
        assert_eq!(space.describe("rho", 1), descs);

        // Same key, box and rank is not enough: another AMR level's
        // grid at a different dx, or different bytes (here inside the
        // same value range), is a new object.
        space.put(first.clone().with_dx(0.5)).unwrap();
        let mut fab = first.to_fab();
        fab.set(first.desc.bbox.lo() + IntVect::UNIT, 0, 4.0);
        let other_bytes = DataObject::from_fab("rho", 1, &fab, 0, &first.desc.bbox, 0);
        assert_eq!(other_bytes.desc, first.desc);
        space.put(other_bytes).unwrap();
        assert_eq!(space.get("rho", 1, None).len(), 3);
        assert_eq!(space.used(), 3 * used);
    }

    fn slab(name: &str, version: u64, xlo: i64, xhi: i64) -> DataObject {
        let b = IBox::new(IntVect::new(xlo, 0, 0), IntVect::new(xhi, 7, 7));
        let mut fab = Fab::new(b, 1);
        for iv in b.cells() {
            fab.set(iv, 0, (iv[0] + iv[1] + iv[2]) as f64);
        }
        DataObject::from_fab(name, version, &fab, 0, &b, 0)
    }

    #[test]
    fn get_region_assembles_pieces() {
        // Two x-slabs tile [0,8)^3; a query straddling the seam must be
        // assembled from both.
        let space = DataSpace::new(2, 1 << 20, Sharding::BboxHash);
        space.put(slab("rho", 1, 0, 3)).unwrap();
        space.put(slab("rho", 1, 4, 7)).unwrap();
        let region = IBox::new(IntVect::splat(2), IntVect::splat(5));
        let (fab, bytes) = space.get_region("rho", 1, &region);
        assert!(bytes > 0);
        for iv in region.cells() {
            assert_eq!(fab.get(iv, 0), (iv[0] + iv[1] + iv[2]) as f64, "at {iv:?}");
        }
    }

    #[test]
    fn full_home_refuses_while_sibling_has_room() {
        // Two 600 B servers; 512 B objects at one box share one home. The
        // second finds its home full and is refused, though the sibling
        // is empty: an object lives at its home or nowhere.
        let space = DataSpace::new(2, 600, Sharding::BboxHash);
        let first = obj("rho", 1, 0, 4);
        let first_payload = first.payload.as_ref().as_ptr();
        let home = space.put(first).unwrap();
        let got = space.get("rho", 1, None);
        assert_eq!(
            got[0].payload.as_ref().as_ptr(),
            first_payload,
            "stored payload is not the caller's allocation (copied on put)"
        );
        let err = space.put(obj("rho", 2, 0, 4)).unwrap_err();
        assert_eq!(
            err,
            ShardError {
                shard: home,
                source: StagingError::OutOfMemory {
                    cap: 600,
                    used: 512,
                    requested: 512,
                }
            }
        );
        assert!(space.get("rho", 2, None).is_empty());
        let per = space.used_per_server();
        assert_eq!(per[home], 512);
        assert_eq!(per[1 - home], 0, "the sibling took the refused object");
    }

    #[test]
    fn eviction_across_servers() {
        // Each version at its own box, so the versions spread over servers.
        let space = DataSpace::new(3, 1 << 20, Sharding::BboxHash);
        for v in 1..=4 {
            space.put(obj("rho", v, v as i64 * 8, 4)).unwrap();
        }
        let holding = space.used_per_server().iter().filter(|&&u| u > 0).count();
        assert!(holding > 1, "versions all on one server");
        let freed = space.evict_before("rho", 3);
        assert_eq!(freed, 2 * 512);
        assert!(space.get("rho", 1, None).is_empty());
        assert!(space.get("rho", 2, None).is_empty());
        assert_eq!(space.get("rho", 3, None).len(), 1);
    }

    #[test]
    fn a_failed_tier_read_is_an_error_naming_the_server_and_is_counted() {
        let dir = std::env::temp_dir().join(format!("xlayer-tier-readerr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TierConfig::new(&dir).with_chunk_size(256);
        // Memory for one 512 B piece: the second piece of the same
        // version has no colder key to displace, so it goes to disk.
        let space = DataSpace::new_tiered(
            1,
            600,
            Sharding::BboxHash,
            &cfg,
            Arc::new(BufferPool::new()),
        )
        .unwrap();
        space.put(obj("rho", 1, 0, 4)).unwrap();
        space.put(obj("rho", 1, 8, 4)).unwrap();
        assert_eq!(space.tier_stats().spilled, 1);
        // Flip a payload byte of the spilled extent in its segment file.
        let segment = dir.join("server-0.log");
        let mut bytes = std::fs::read(&segment).unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0xFF;
        std::fs::write(&segment, &bytes).unwrap();
        // The resident piece alone is not the version: the read fails,
        // naming the server and the key.
        let err = Staging::get(&space, "rho", 1, None, None).unwrap_err();
        assert!(
            err.0.contains("server 0") && err.0.contains("rho v1"),
            "{err}"
        );
        assert_eq!(space.tier_stats().read_errors, 1);
        // The extent stayed on disk: the next read meets it again.
        let again = Staging::get(&space, "rho", 1, None, None);
        assert!(again.is_err(), "{again:?}");
        assert_eq!(space.tier_stats().read_errors, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reput_meets_its_first_copy_on_disk() {
        let dir = std::env::temp_dir().join(format!("xlayer-tier-disktwin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TierConfig::new(&dir).with_chunk_size(256);
        // Memory for one 512 B object: the second version demotes the
        // first to disk.
        let space = DataSpace::new_tiered(
            1,
            600,
            Sharding::BboxHash,
            &cfg,
            Arc::new(BufferPool::new()),
        )
        .unwrap();
        let first = obj("rho", 1, 0, 4);
        space.put(first.clone()).unwrap();
        space.put(obj("rho", 2, 0, 4)).unwrap();
        assert_eq!(space.tier_stats().spilled, 1, "the first copy is on disk");
        let (used, disk_used) = (space.used(), space.tier_stats().disk_used);

        // The retry a lost reply causes stores nothing, in either tier.
        space.put(first.clone()).unwrap();
        assert_eq!(space.describe("rho", 1), Ok(vec![first.desc.clone()]));
        assert_eq!(space.used(), used);
        assert_eq!(space.tier_stats().disk_used, disk_used);

        // An equal descriptor over other bytes is a new object.
        let mut fab = first.to_fab();
        fab.set(first.desc.bbox.lo() + IntVect::UNIT, 0, 4.0);
        let other_bytes = DataObject::from_fab("rho", 1, &fab, 0, &first.desc.bbox, 0);
        assert_eq!(other_bytes.desc, first.desc);
        space.put(other_bytes).unwrap();
        assert_eq!(space.describe("rho", 1).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tier_snapshot_is_one_consistent_cut_under_churn() {
        // Two threads put, get and drain their own variable on one tiered
        // server whose memory holds two objects, so keys keep moving to
        // disk and back (each thread alone spills and promotes every
        // cycle) and the disk keeps emptying; a third thread polls.
        // Every snapshot must pair its gauges: bytes on disk iff keys on
        // disk, and never more than the budget.
        let dir = std::env::temp_dir().join(format!("xlayer-tier-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TierConfig::new(&dir)
            .with_budget(1 << 20)
            .with_chunk_size(256);
        let pool = Arc::new(BufferPool::new());
        let space = DataSpace::new_tiered(1, 1024, Sharding::BboxHash, &cfg, pool).unwrap();
        let space = Arc::new(space);
        let churn = |name: &'static str| {
            let space = Arc::clone(&space);
            std::thread::spawn(move || {
                for v in 1..=1500u64 {
                    space.put(obj(name, v, 0, 4)).unwrap();
                    space.get(name, v.saturating_sub(2), None);
                    if v % 3 == 0 {
                        space.evict_before(name, v + 1);
                    }
                }
            })
        };
        let churners = [churn("a"), churn("b")];
        while !churners.iter().all(|t| t.is_finished()) {
            let t = space.tier_stats();
            assert_eq!(t.disk_used == 0, t.spilled_keys == 0, "torn snapshot {t:?}");
            assert!(t.disk_used <= t.disk_budget, "{t:?}");
        }
        churners.into_iter().for_each(|t| t.join().expect("churn"));
        let t = space.tier_stats();
        assert!(t.spilled > 0 && t.promoted > 0, "{t:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn describe_lists_metadata_without_payload_cost() {
        let space = DataSpace::new(2, 1 << 20, Sharding::BboxHash);
        space.put(obj("rho", 1, 0, 4)).unwrap();
        let descs = space.describe("rho", 1).unwrap();
        assert_eq!(descs.len(), 1);
        assert_eq!(descs[0].bytes, 512);
    }

    /// A second space over a live space's tier directory is refused. Were
    /// it opened, it would serve the part of a version that reached disk
    /// as the version: the resident part lives only in the first space.
    #[test]
    fn a_space_over_a_live_tier_is_refused_not_served_partly() {
        let dir = std::env::temp_dir().join(format!("xlayer-tier-inuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TierConfig::new(&dir).with_chunk_size(256);
        let tiered = || {
            DataSpace::new_tiered(
                1,
                600,
                Sharding::BboxHash,
                &cfg,
                Arc::new(BufferPool::new()),
            )
        };
        // rho v1 as two 512 B pieces: one resident, one spilled.
        let space = tiered().unwrap();
        space.put(obj("rho", 1, 0, 4)).unwrap();
        space.put(obj("rho", 1, 8, 4)).unwrap();
        assert_eq!(space.tier_stats().spilled, 1);
        match tiered() {
            Ok(second) => panic!(
                "a used tier directory opened, and its get returns {} of 2 objects",
                second.get("rho", 1, None).len()
            ),
            Err(e) => assert_eq!(
                e,
                TierError::InUse {
                    path: dir.join("server-0.log")
                }
            ),
        }
        assert_eq!(space.get("rho", 1, None).len(), 2);
        drop(space);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment a crashed run left is refused, typed, and left byte for
    /// byte. Were it opened, its object would be served beside this run's
    /// own under the same key.
    #[test]
    fn a_crashed_runs_segment_is_refused_and_left_as_it_was() {
        let dir = std::env::temp_dir().join(format!("xlayer-tier-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let earlier = dir.join("earlier");
        std::fs::create_dir_all(&earlier).unwrap();
        // The earlier run's rho v1, as its log wrote it.
        let segment = dir.join("server-0.log");
        let planted = {
            let log_path = earlier.join("server-0.log");
            let mut log =
                crate::DiskLog::open(&log_path, u64::MAX, 256, Arc::new(BufferPool::new()))
                    .unwrap();
            log.append(&obj("rho", 1, 0, 4)).unwrap();
            std::fs::read(&log_path).unwrap()
        };
        std::fs::write(&segment, &planted).unwrap();
        let cfg = TierConfig::new(&dir).with_chunk_size(256);
        match DataSpace::new_tiered(
            1,
            1 << 20,
            Sharding::BboxHash,
            &cfg,
            Arc::new(BufferPool::new()),
        ) {
            Ok(space) => {
                // This run's rho v1 is one piece, at another box.
                space.put(obj("rho", 1, 8, 4)).unwrap();
                panic!(
                    "a crashed run's segment opened, and rho v1 reads back as {} objects for this run's 1",
                    space.get("rho", 1, None).len()
                );
            }
            Err(e) => assert_eq!(
                e,
                TierError::InUse {
                    path: segment.clone()
                }
            ),
        }
        assert_eq!(std::fs::read(&segment).unwrap(), planted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
