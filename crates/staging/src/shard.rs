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
//! Placement is the only thing the map decides: a reader asks every shard
//! (see `xlayer_net::cluster::ShardedClient`), so whatever a box's extent,
//! any client of the same shards sees every stored object its query
//! intersects.

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
}
