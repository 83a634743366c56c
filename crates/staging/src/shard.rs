//! Deterministic spatial placement of objects onto staging shards.
//!
//! A [`ShardMap`] assigns every object bounding box to exactly one shard by
//! hashing the box's low corner, coarsened to a placement bucket of
//! `span` cells per side — the same box-hash DHT scheme DataSpaces uses to
//! let any client locate an object without a directory lookup. The map is a
//! pure function of `(nshards, span)`: every process that constructs the
//! same map routes identically, so producers and consumers agree on
//! placement with no coordination.
//!
//! Region queries route with [`ShardMap::query_shards`]: the set of shards
//! owning any placement bucket a matching object's low corner could fall
//! in. For objects whose sides all fit within `span` (see
//! [`ShardMap::fits`]) this set is exact — a scatter/gather over it sees
//! every matching object. Oversized objects are still placed
//! deterministically, but callers that stage them must broaden region
//! queries to all shards. The networked client does this for itself:
//! staging an oversized object is the only thing that sets its `broaden`
//! flag, and only in the client that staged it (and its clones) — another
//! client of the same shards does not learn of it.

use xlayer_amr::boxes::IBox;
use xlayer_amr::intvect::IntVect;

/// Default placement bucket side, in cells. Matches the largest patch the
/// AMR layer produces by default, so whole patches land on one shard.
pub const DEFAULT_SPAN: i64 = 64;

/// A deterministic box-hash placement map over `IBox` regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    nshards: usize,
    span: i64,
}

impl ShardMap {
    /// A map over `nshards` shards with `span`-cell placement buckets.
    /// Both are clamped to at least 1.
    pub fn new(nshards: usize, span: i64) -> Self {
        ShardMap {
            nshards: nshards.max(1),
            span: span.max(1),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.nshards
    }

    /// Placement bucket side, in cells.
    pub fn span(&self) -> i64 {
        self.span
    }

    /// FNV-1a over the three bucket coordinates, little-endian.
    ///
    /// At `span == 1` this is the placement of every in-process
    /// `DataSpace` (which holds a `ShardMap::new(servers, 1)`), so
    /// in-process and networked placement are one function.
    fn hash_bucket(bucket: IntVect) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for d in 0..3 {
            for b in bucket[d].to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    /// The shard owning `bbox`: hash of the low corner's placement bucket.
    /// Total — empty boxes place deterministically too.
    pub fn shard_of(&self, bbox: &IBox) -> usize {
        let bucket = bbox.lo().coarsen(self.span);
        (Self::hash_bucket(bucket) % self.nshards as u64) as usize
    }

    /// True if every side of `bbox` fits within one placement span, i.e.
    /// [`Self::query_shards`] is guaranteed to cover it for any
    /// intersecting query.
    pub fn fits(&self, bbox: &IBox) -> bool {
        bbox.is_empty() || bbox.size().max_component() <= self.span
    }

    /// All shard ids, ascending.
    pub fn all_shards(&self) -> Vec<usize> {
        (0..self.nshards).collect()
    }

    /// Shards that may hold an object (with sides ≤ `span`) intersecting
    /// `query`, ascending and deduped.
    ///
    /// Such an object's low corner lies in `[query.lo - (span-1), query.hi]`,
    /// whose placement buckets are contained in
    /// `[coarsen(query.lo) - 1, coarsen(query.hi)]` — the bucket box walked
    /// here. Once the candidate bucket count dwarfs the shard count the walk
    /// would almost surely hit every shard, so it short-circuits to all.
    pub fn query_shards(&self, query: &IBox) -> Vec<usize> {
        if query.is_empty() {
            return Vec::new();
        }
        if self.nshards == 1 {
            return vec![0];
        }
        let lo = query.lo().coarsen(self.span) - IntVect::UNIT;
        let hi = query.hi().coarsen(self.span);
        let buckets = IBox::new(lo, hi);
        if buckets.num_cells() >= 16 * self.nshards as u64 {
            return self.all_shards();
        }
        let mut hit = vec![false; self.nshards];
        let mut out = Vec::new();
        for cell in buckets.cells() {
            let s = (Self::hash_bucket(cell) % self.nshards as u64) as usize;
            if let Some(flag) = hit.get_mut(s) {
                if !*flag {
                    *flag = true;
                    out.push(s);
                }
            }
            if out.len() == self.nshards {
                break;
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube_at(lo: i64, n: i64) -> IBox {
        IBox::cube(n).shift(IntVect::splat(lo))
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        let map = ShardMap::new(4, 8);
        for lo in -40..40 {
            let b = cube_at(lo, 4);
            let s = map.shard_of(&b);
            assert!(s < 4);
            assert_eq!(s, map.shard_of(&b));
        }
    }

    #[test]
    fn span_one_matches_raw_corner_hash() {
        // span == 1 must reduce to the historical per-corner FNV placement.
        let map = ShardMap::new(4, 1);
        let b = cube_at(8, 4);
        assert_eq!(
            map.shard_of(&b),
            (ShardMap::hash_bucket(b.lo()) % 4) as usize
        );
    }

    #[test]
    fn boxes_in_same_bucket_colocate() {
        let map = ShardMap::new(7, 64);
        let a = cube_at(0, 8);
        let b = cube_at(32, 16); // same 64-bucket as `a`
        assert_eq!(map.shard_of(&a), map.shard_of(&b));
    }

    #[test]
    fn query_shards_covers_every_intersecting_fit_box() {
        let map = ShardMap::new(5, 8);
        let query = IBox::new(IntVect::new(10, 3, -6), IntVect::new(25, 9, 4));
        let routed = map.query_shards(&query);
        // Exhaustively place fitting boxes around the query.
        for x in -5..35 {
            for y in -8..20 {
                let b = IBox::new(IntVect::new(x, y, -8), IntVect::new(x + 7, y + 7, -1));
                assert!(map.fits(&b));
                if b.intersects(&query) {
                    assert!(
                        routed.contains(&map.shard_of(&b)),
                        "box {b:?} routed outside query_shards({query:?}) = {routed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn query_shards_is_sorted_and_deduped() {
        let map = ShardMap::new(3, 4);
        let q = IBox::new(IntVect::splat(-20), IntVect::splat(20));
        let s = map.query_shards(&q);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(s, sorted);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_query_routes_nowhere() {
        let map = ShardMap::new(4, 8);
        assert!(map.query_shards(&IBox::EMPTY).is_empty());
    }

    #[test]
    fn huge_query_falls_back_to_all_shards() {
        let map = ShardMap::new(4, 4);
        let q = IBox::new(IntVect::splat(-1000), IntVect::splat(1000));
        assert_eq!(map.query_shards(&q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn fits_checks_every_side() {
        let map = ShardMap::new(2, 8);
        assert!(map.fits(&IBox::cube(8)));
        assert!(!map.fits(&IBox::new(IntVect::ZERO, IntVect::new(8, 3, 3))));
        assert!(map.fits(&IBox::EMPTY));
    }
}
