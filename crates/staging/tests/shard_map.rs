//! Property tests for the deterministic shard placement map: every object
//! routes to exactly one shard, and placement is stable across map
//! instances.

use proptest::prelude::*;
use xlayer_amr::boxes::IBox;
use xlayer_amr::intvect::IntVect;
use xlayer_staging::ShardMap;

fn boxes() -> impl Strategy<Value = IBox> {
    (
        -200i64..200,
        -200i64..200,
        -200i64..200,
        1i64..16,
        1i64..16,
        1i64..16,
    )
        .prop_map(|(x, y, z, sx, sy, sz)| {
            IBox::new(
                IntVect::new(x, y, z),
                IntVect::new(x + sx - 1, y + sy - 1, z + sz - 1),
            )
        })
}

proptest! {
    /// Every object routes to exactly one shard: the placement is total,
    /// in range, and identical across independently constructed maps.
    #[test]
    fn routes_to_exactly_one_shard(b in boxes(), n in 1usize..9, span in 1i64..65) {
        let map = ShardMap::new(n, span);
        let twin = ShardMap::new(n, span);
        let s = map.shard_of(&b);
        prop_assert!(s < n);
        prop_assert_eq!(s, map.shard_of(&b));
        prop_assert_eq!(s, twin.shard_of(&b));
    }
}
