//! Property-based tests of the staging substrate: payload fidelity, memory
//! accounting, and query correctness over arbitrary object streams.

use proptest::prelude::*;
use xlayer_amr::{Fab, IBox, IntVect};
use xlayer_staging::{DataObject, DataSpace, ObjectKey, Sharding, StagingServer};

fn arb_box() -> impl Strategy<Value = IBox> {
    ((-8i64..8, -8i64..8, -8i64..8), (1i64..6, 1i64..6, 1i64..6)).prop_map(
        |((x, y, z), (a, b, c))| {
            let lo = IntVect::new(x, y, z);
            IBox::new(lo, lo + IntVect::new(a, b, c))
        },
    )
}

fn coord_fab(b: IBox) -> Fab {
    let mut f = Fab::new(b, 1);
    for iv in b.cells() {
        f.set(iv, 0, (iv[0] * 10007 + iv[1] * 101 + iv[2]) as f64);
    }
    f
}

proptest! {
    #[test]
    fn object_roundtrip_is_exact(b in arb_box(), version in 0u64..100) {
        let fab = coord_fab(b);
        let obj = DataObject::from_fab("u", version, &fab, 0, &b, 3);
        prop_assert_eq!(obj.desc.bytes, b.num_cells() * 8);
        prop_assert_eq!(obj.desc.key.version, version);
        let back = obj.to_fab();
        for iv in b.cells() {
            prop_assert_eq!(back.get(iv, 0), fab.get(iv, 0));
        }
    }

    #[test]
    fn server_memory_accounting_balances(
        boxes in proptest::collection::vec(arb_box(), 1..12),
    ) {
        let server = StagingServer::new(0, u64::MAX / 2);
        let mut expect = 0u64;
        for (v, b) in boxes.iter().enumerate() {
            let fab = coord_fab(*b);
            server.put(DataObject::from_fab("u", v as u64, &fab, 0, b, 0)).unwrap();
            expect += b.num_cells() * 8;
        }
        prop_assert_eq!(server.used(), expect);
        prop_assert_eq!(server.peak(), expect);
        // evicting everything returns to zero
        let freed = server.evict_before("u", u64::MAX);
        prop_assert_eq!(freed, expect);
        prop_assert_eq!(server.used(), 0);
    }

    #[test]
    fn space_query_equals_linear_scan(
        boxes in proptest::collection::vec(arb_box(), 1..16),
        probe in arb_box(),
    ) {
        let space = DataSpace::new(4, u64::MAX / 8, Sharding::BboxHash);
        for b in &boxes {
            let fab = coord_fab(*b);
            space.put(DataObject::from_fab("u", 1, &fab, 0, b, 0)).unwrap();
        }
        let hits = space.get("u", 1, Some(&probe));
        let expect = boxes.iter().filter(|b| b.intersects(&probe)).count();
        prop_assert_eq!(hits.len(), expect);
        for h in hits {
            prop_assert!(h.desc.bbox.intersects(&probe));
        }
    }

    #[test]
    fn get_region_reassembles_disjoint_pieces(
        split_at in 1i64..7,
    ) {
        // Two disjoint x-slabs tile a box: every covered cell reassembles.
        let whole = IBox::cube(8);
        let (lo, hi) = whole.split_at(0, split_at);
        let fab = coord_fab(whole);
        let space = DataSpace::new(3, u64::MAX / 8, Sharding::BboxHash);
        space.put(DataObject::from_fab("u", 1, &fab, 0, &lo, 0)).unwrap();
        space.put(DataObject::from_fab("u", 1, &fab, 0, &hi, 0)).unwrap();
        let (out, bytes) = space.get_region("u", 1, &whole);
        prop_assert_eq!(bytes, whole.num_cells() * 8);
        for iv in whole.cells() {
            prop_assert_eq!(out.get(iv, 0), fab.get(iv, 0));
        }
    }

    #[test]
    fn sharding_preserves_every_object(
        boxes in proptest::collection::vec(arb_box(), 1..20),
    ) {
        let space = DataSpace::new(5, u64::MAX / 8, Sharding::BboxHash);
        let mut total = 0u64;
        for (v, b) in boxes.iter().enumerate() {
            let fab = coord_fab(*b);
            space.put(DataObject::from_fab("u", v as u64, &fab, 0, b, 0)).unwrap();
            total += b.num_cells() * 8;
        }
        prop_assert_eq!(space.used(), total);
        prop_assert_eq!(space.used_per_server().iter().sum::<u64>(), total);
        for v in 0..boxes.len() as u64 {
            prop_assert_eq!(space.get("u", v, None).len(), 1);
        }
    }

    #[test]
    fn eviction_is_exactly_by_version(
        cutoff in 0u64..12,
    ) {
        let space = DataSpace::new(2, u64::MAX / 8, Sharding::BboxHash);
        let b = IBox::cube(4);
        for v in 0..12u64 {
            let fab = coord_fab(b);
            space.put(DataObject::from_fab("u", v, &fab, 0, &b, 0)).unwrap();
        }
        space.evict_before("u", cutoff);
        for v in 0..12u64 {
            let found = !space.get("u", v, None).is_empty();
            prop_assert_eq!(found, v >= cutoff, "version {}", v);
        }
    }

    #[test]
    fn describe_matches_contents(
        boxes in proptest::collection::vec(arb_box(), 1..10),
    ) {
        let space = DataSpace::new(3, u64::MAX / 8, Sharding::BboxHash);
        for b in &boxes {
            let fab = coord_fab(*b);
            space.put(DataObject::from_fab("u", 7, &fab, 0, b, 0)).unwrap();
        }
        let descs = space.describe("u", 7);
        prop_assert_eq!(descs.len(), boxes.len());
        let total: u64 = descs.iter().map(|d| d.bytes).sum();
        prop_assert_eq!(total, boxes.iter().map(|b| b.num_cells() * 8).sum::<u64>());
        for d in &descs {
            prop_assert_eq!(&d.key, &ObjectKey::new("u", 7));
        }
    }
}

/// Satellite coverage: spill → get (promote) → get must be bit-identical
/// for arbitrary object sizes straddling the tier's chunk boundary — the
/// payload survives a round trip through chunked, checksummed disk extents
/// and back into memory unchanged.
mod tier_identity {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use xlayer_staging::{BufferPool, DiskTier, StagingServer, TierConfig};

    static SEQ: AtomicU64 = AtomicU64::new(0);

    proptest! {
        #[test]
        fn spill_get_promote_get_is_bit_identical(
            boxes in proptest::collection::vec(arb_box(), 1..8),
            chunk in 1u32..600,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "xlayer-tierprop-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let total: u64 = boxes.iter().map(|b| b.num_cells() * 8).sum();
            let cfg = TierConfig::new(&dir).with_chunk_size(chunk);
            let tier = DiskTier::open(
                dir.join("t.log"),
                &cfg,
                Arc::new(BufferPool::new()),
            ).unwrap();
            // Half the working set fits in memory: some versions spill,
            // gets promote them back (or serve from disk when oversized).
            let server = StagingServer::with_tier(0, total / 2 + 1, tier);
            let mut want = Vec::new();
            for (v, b) in boxes.iter().enumerate() {
                let fab = coord_fab(*b);
                let obj = DataObject::from_fab("u", v as u64, &fab, 0, b, 0);
                want.push(obj.payload.clone());
                server.put(obj).unwrap();
            }
            for (v, payload) in want.iter().enumerate() {
                // First get may promote from disk; second reads the
                // promoted copy. Both must match the original bytes.
                for round in 0..2 {
                    let got = server.get(&ObjectKey::new("u", v as u64), None, None);
                    prop_assert_eq!(got.len(), 1, "v{} round {}", v, round);
                    prop_assert_eq!(&got[0].payload, payload, "v{} round {}", v, round);
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// The integrity sum over random inputs (`sum.rs`'s own tests pin the
/// known answers and the exhaustive cases): the streaming form is
/// split-invariant; a changed block word and a zero-extension change the
/// sum with certainty, permuted words or blocks but for one chance in 2³².
mod integrity_sum {
    use super::*;
    use xlayer_staging::sum::{checksum, Sum};

    fn arb_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..=255, len)
    }

    proptest! {
        #[test]
        fn streaming_equals_one_shot_over_any_three_way_split(
            data in arb_bytes(0..400),
            cuts in (0usize..401, 0usize..401),
        ) {
            let (i, j) = (cuts.0 % (data.len() + 1), cuts.1 % (data.len() + 1));
            let (i, j) = (i.min(j), i.max(j));
            let mut sum = Sum::new();
            sum.update(&data[..i]);
            sum.update(&data[i..j]);
            sum.update(&data[j..]);
            prop_assert_eq!(sum.finish(), checksum(&data));
        }

        #[test]
        fn a_changed_aligned_word_changes_the_sum(
            data in arb_bytes(16..400),
            at in 0usize..100,
            delta in 1u32..=u32::MAX,
        ) {
            // Certain only inside the full blocks; a word of the byte-serial
            // tail is four steps of the chain, not one.
            let w = at % (data.len() / 16 * 4) * 4;
            let mut bad = data.clone();
            bad[w..w + 4].iter_mut().zip(delta.to_le_bytes()).for_each(|(b, d)| *b ^= d);
            prop_assert_ne!(checksum(&bad), checksum(&data));
        }

        #[test]
        fn permuted_blocks_and_words_change_the_sum(
            data in arb_bytes(32..400),
            blocks in (0usize..25, 0usize..25),
            words in (0usize..4, 0usize..4),
        ) {
            let n = data.len() / 16;
            let (i, j) = (blocks.0 % n, blocks.1 % n);
            // Two 16-byte blocks swapped.
            let mut bad = data.clone();
            for k in 0..16 {
                bad.swap(i * 16 + k, j * 16 + k);
            }
            prop_assert_eq!(checksum(&bad) != checksum(&data), bad != data);
            // Two words of one block swapped between lanes.
            let mut bad = data.clone();
            for k in 0..4 {
                bad.swap(i * 16 + words.0 * 4 + k, i * 16 + words.1 * 4 + k);
            }
            prop_assert_eq!(checksum(&bad) != checksum(&data), bad != data);
        }

        #[test]
        fn zero_extension_changes_the_sum(data in arb_bytes(0..400), extra in 1usize..64) {
            let mut longer = data.clone();
            longer.resize(data.len() + extra, 0);
            prop_assert_ne!(checksum(&longer), checksum(&data));
        }
    }
}
