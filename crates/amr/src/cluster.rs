//! Berger–Rigoutsos point clustering: turn a set of tagged cells into a
//! small set of boxes that cover all tags with a minimum fill efficiency.
//!
//! This is the grid-generation algorithm Chombo uses (`BRMeshRefine`):
//! recursively split the bounding box of the tags at holes or inflection
//! points of the tag signatures until every box is efficient enough, then
//! enforce max box size and blocking-factor alignment.

use crate::boxes::IBox;
use crate::intvect::{IntVect, DIM};
use crate::tagging::IntVectSet;

/// Parameters controlling grid generation.
#[derive(Clone, Copy, Debug)]
pub struct ClusterParams {
    /// Minimum fraction of cells in each output box that must be tagged.
    pub fill_ratio: f64,
    /// Maximum side length of an output box.
    pub max_box_size: i64,
    /// Output boxes are refined by this; box corners snap to multiples of it
    /// so the refined grids align (Chombo's blocking factor).
    pub blocking_factor: i64,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            fill_ratio: 0.7,
            max_box_size: 32,
            blocking_factor: 4,
        }
    }
}

/// Cluster tags into covering boxes, clipped to `within`.
///
/// Guarantees:
/// * every tag is covered by exactly one output box,
/// * output boxes are disjoint,
/// * every output box side ≤ `max_box_size` (post-snap it may exceed by at
///   most one blocking factor),
/// * boxes are aligned to `blocking_factor`.
pub fn cluster_tags(tags: &IntVectSet, within: &IBox, params: &ClusterParams) -> Vec<IBox> {
    let clipped: Vec<IntVect> = tags
        .iter()
        .copied()
        .filter(|&iv| within.contains(iv))
        .collect();
    let mut out = Vec::new();
    split_recursive(clipped, params, &mut out);
    // Snap to blocking factor and clip; subtract to keep disjointness after
    // snapping may re-introduce overlap, so merge via subtraction pass.
    let snapped: Vec<IBox> = out
        .into_iter()
        .map(|b| snap_to_blocking(b, params.blocking_factor, within))
        .collect();
    make_disjoint(snapped)
}

/// Cover `tags` with efficient boxes. Each call owns exactly the tags of
/// its box, so a level of the recursion touches every tag once.
fn split_recursive(tags: Vec<IntVect>, params: &ClusterParams, out: &mut Vec<IBox>) {
    let Some(&first) = tags.first() else {
        return;
    };
    let (lo, hi) = tags
        .iter()
        .fold((first, first), |(lo, hi), &iv| (lo.min(iv), hi.max(iv)));
    let bbox = IBox::new(lo, hi);
    let efficiency = tags.len() as f64 / bbox.num_cells() as f64;
    if efficiency >= params.fill_ratio && bbox.longest_side() <= params.max_box_size {
        out.push(bbox);
        return;
    }
    // Find a split plane. Priority: hole in signature > steepest inflection
    // > midpoint of longest direction.
    if let Some((d, at)) = find_split(&tags, &bbox, params) {
        let (l, r): (Vec<IntVect>, Vec<IntVect>) = tags.into_iter().partition(|iv| iv[d] < at);
        split_recursive(l, params, out);
        split_recursive(r, params, out);
    } else {
        // Cannot split further (unit extent everywhere): accept as-is.
        out.push(bbox);
    }
}

/// Tag signatures of a box holding exactly `tags`: per direction, the
/// number of tags in each index plane.
fn signatures(tags: &[IntVect], bbox: &IBox) -> [Vec<usize>; DIM] {
    let mut sigs: [Vec<usize>; DIM] = std::array::from_fn(|d| vec![0; bbox.size()[d] as usize]);
    for iv in tags {
        for (d, sig) in sigs.iter_mut().enumerate() {
            sig[(iv[d] - bbox.lo()[d]) as usize] += 1;
        }
    }
    sigs
}

/// Choose a split plane per Berger–Rigoutsos.
fn find_split(tags: &[IntVect], bbox: &IBox, params: &ClusterParams) -> Option<(usize, i64)> {
    let sigs = signatures(tags, bbox);
    // If longer than max_box_size, just halve the longest direction —
    // splitting at holes first can generate slivers.
    let must_split = bbox.longest_side() > params.max_box_size;

    // 1. Look for holes (zero planes) in the signatures.
    let mut best_hole: Option<(usize, i64, i64)> = None; // (dir, at, dist from edge)
    for (d, sig) in sigs.iter().enumerate() {
        if bbox.size()[d] < 2 {
            continue;
        }
        for (i, &s) in sig.iter().enumerate().skip(1) {
            // split so the plane i is the first of the right half
            if s == 0 || sig[i - 1] == 0 {
                let at = bbox.lo()[d] + i as i64;
                if at > bbox.lo()[d] && at <= bbox.hi()[d] {
                    let dist = (i as i64).min(sig.len() as i64 - i as i64);
                    if best_hole.is_none_or(|(_, _, bd)| dist > bd) {
                        best_hole = Some((d, at, dist));
                    }
                }
            }
        }
    }
    if let Some((d, at, _)) = best_hole {
        return Some((d, at));
    }

    // 2. Steepest second-derivative inflection of the signature.
    let mut best_infl: Option<(usize, i64, i64)> = None; // (dir, at, |delta|)
    for (d, sig) in sigs.iter().enumerate() {
        let n = bbox.size()[d];
        if n < 4 {
            continue;
        }
        let lap: Vec<i64> = (1..sig.len() - 1)
            .map(|i| sig[i - 1] as i64 - 2 * sig[i] as i64 + sig[i + 1] as i64)
            .collect();
        for i in 0..lap.len() - 1 {
            if lap[i].signum() != lap[i + 1].signum() && lap[i] != 0 && lap[i + 1] != 0 {
                let delta = (lap[i] - lap[i + 1]).abs();
                let at = bbox.lo()[d] + i as i64 + 2;
                if at > bbox.lo()[d]
                    && at <= bbox.hi()[d]
                    && best_infl.is_none_or(|(_, _, bd)| delta > bd)
                {
                    best_infl = Some((d, at, delta));
                }
            }
        }
    }
    if let Some((d, at, _)) = best_infl {
        if !must_split {
            return Some((d, at));
        }
    }

    // 3. Halve the longest splittable direction.
    let d = bbox.longest_dir();
    if bbox.size()[d] >= 2 {
        return Some((d, bbox.lo()[d] + bbox.size()[d] / 2));
    }
    // Try any splittable direction.
    (0..DIM)
        .find(|&d| bbox.size()[d] >= 2)
        .map(|d| (d, bbox.lo()[d] + bbox.size()[d] / 2))
}

/// Expand `b` so its corners land on multiples of `bf`, clipped to `within`.
fn snap_to_blocking(b: IBox, bf: i64, within: &IBox) -> IBox {
    if bf <= 1 {
        return b.intersect(within);
    }
    let mut lo = b.lo();
    let mut hi = b.hi();
    for d in 0..DIM {
        lo[d] = lo[d].div_euclid(bf) * bf;
        hi[d] = (hi[d].div_euclid(bf) + 1) * bf - 1;
    }
    IBox::new(lo, hi).intersect(within)
}

/// Make a set of possibly overlapping boxes disjoint while preserving their
/// union (earlier boxes win; later boxes are trimmed around them).
pub fn make_disjoint(boxes: Vec<IBox>) -> Vec<IBox> {
    let mut out: Vec<IBox> = Vec::new();
    for b in boxes {
        let mut pieces = vec![b];
        for kept in &out {
            let mut next = Vec::new();
            for p in pieces {
                next.extend(p.subtract(kept));
            }
            pieces = next;
            if pieces.is_empty() {
                break;
            }
        }
        out.extend(pieces);
    }
    out.retain(|b| !b.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intvect::IntVect;

    fn cover_check(tags: &IntVectSet, boxes: &[IBox]) {
        for iv in tags.iter() {
            assert!(
                boxes.iter().any(|b| b.contains(*iv)),
                "tag {iv:?} not covered"
            );
        }
        for (i, a) in boxes.iter().enumerate() {
            for b in &boxes[i + 1..] {
                assert!(!a.intersects(b), "boxes overlap: {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn shell_clustering_is_pinned() {
        // A thick, perforated spherical shell (a blast front's tags), grown
        // by one cell. The box lists were produced by the clusterer as it
        // was when every recursion rescanned the whole tag set; regridding
        // must keep generating exactly these grids.
        let within = IBox::cube(40);
        let tags: IntVectSet = within
            .cells()
            .filter(|iv| {
                let r2: i64 = (0..3).map(|d| (2 * iv[d] - 37) * (2 * iv[d] - 41)).sum();
                (24 * 24..=30 * 30).contains(&r2) && (iv[0] + 2 * iv[1] + 3 * iv[2]) % 7 != 0
            })
            .collect();
        assert_eq!(tags.len(), 5846);
        let buffered = tags.grow(1, &within);
        for (blocking_factor, max_box_size, fill_ratio, count, pin) in [
            (4, 32, 0.7, 139, 0xc102dc5c633c484a_u64),
            (2, 8, 0.85, 791, 0xfb342bfa98f8c6e8),
            (1, 16, 0.6, 147, 0x638ec13256987b31),
        ] {
            let params = ClusterParams {
                fill_ratio,
                max_box_size,
                blocking_factor,
            };
            let boxes = cluster_tags(&buffered, &within, &params);
            cover_check(&buffered, &boxes);
            let corners = boxes.iter().flat_map(|b| [b.lo().0, b.hi().0]).flatten();
            let hash = corners.fold(0xcbf29ce484222325_u64, |h, v| {
                (h ^ v as u64).wrapping_mul(0x100000001b3)
            });
            assert_eq!((boxes.len(), hash), (count, pin), "bf {blocking_factor}");
        }
    }

    #[test]
    fn empty_tags_yield_no_boxes() {
        let tags = IntVectSet::new();
        let boxes = cluster_tags(&tags, &IBox::cube(32), &ClusterParams::default());
        assert!(boxes.is_empty());
    }

    #[test]
    fn single_cluster_tight_box() {
        let mut tags = IntVectSet::new();
        tags.insert_box(&IBox::new(IntVect::splat(4), IntVect::splat(7)));
        let params = ClusterParams {
            blocking_factor: 1,
            ..Default::default()
        };
        let boxes = cluster_tags(&tags, &IBox::cube(32), &params);
        cover_check(&tags, &boxes);
        assert_eq!(boxes.len(), 1);
        assert_eq!(boxes[0], IBox::new(IntVect::splat(4), IntVect::splat(7)));
    }

    #[test]
    fn two_separated_clusters_split_at_hole() {
        let mut tags = IntVectSet::new();
        tags.insert_box(&IBox::new(IntVect::splat(0), IntVect::splat(3)));
        tags.insert_box(&IBox::new(IntVect::splat(20), IntVect::splat(23)));
        let params = ClusterParams {
            blocking_factor: 1,
            ..Default::default()
        };
        let boxes = cluster_tags(&tags, &IBox::cube(32), &params);
        cover_check(&tags, &boxes);
        assert_eq!(boxes.len(), 2);
        let covered: u64 = boxes.iter().map(|b| b.num_cells()).sum();
        assert_eq!(covered, 2 * 64); // tight boxes, no waste
    }

    #[test]
    fn efficiency_respected() {
        // L-shaped tags force splitting to respect fill ratio.
        let mut tags = IntVectSet::new();
        tags.insert_box(&IBox::new(IntVect::new(0, 0, 0), IntVect::new(15, 3, 3)));
        tags.insert_box(&IBox::new(IntVect::new(0, 4, 0), IntVect::new(3, 15, 3)));
        let params = ClusterParams {
            fill_ratio: 0.85,
            max_box_size: 32,
            blocking_factor: 1,
        };
        let boxes = cluster_tags(&tags, &IBox::cube(32), &params);
        cover_check(&tags, &boxes);
        let covered: u64 = boxes.iter().map(|b| b.num_cells()).sum();
        let ntags = tags.len() as u64;
        assert!(
            covered as f64 <= ntags as f64 / 0.5,
            "covering too wasteful: {covered} cells for {ntags} tags"
        );
    }

    #[test]
    fn max_box_size_enforced() {
        let mut tags = IntVectSet::new();
        tags.insert_box(&IBox::cube(40));
        let params = ClusterParams {
            fill_ratio: 0.7,
            max_box_size: 16,
            blocking_factor: 1,
        };
        let boxes = cluster_tags(&tags, &IBox::cube(64), &params);
        cover_check(&tags, &boxes);
        for b in &boxes {
            assert!(b.longest_side() <= 16 + params.blocking_factor);
        }
    }

    #[test]
    fn blocking_factor_alignment() {
        let mut tags = IntVectSet::new();
        tags.insert(IntVect::new(5, 9, 13));
        let params = ClusterParams {
            fill_ratio: 0.7,
            max_box_size: 32,
            blocking_factor: 4,
        };
        let boxes = cluster_tags(&tags, &IBox::cube(32), &params);
        cover_check(&tags, &boxes);
        for b in &boxes {
            for d in 0..DIM {
                assert_eq!(b.lo()[d] % 4, 0);
                assert_eq!((b.hi()[d] + 1) % 4, 0);
            }
        }
    }

    #[test]
    fn make_disjoint_preserves_union() {
        let a = IBox::cube(8);
        let b = IBox::new(IntVect::splat(4), IntVect::splat(11));
        let dis = make_disjoint(vec![a, b]);
        // union volume = 8^3 + 8^3 - 4^3
        let total: u64 = dis.iter().map(|x| x.num_cells()).sum();
        assert_eq!(total, 512 + 512 - 64);
        for (i, x) in dis.iter().enumerate() {
            for y in &dis[i + 1..] {
                assert!(!x.intersects(y));
            }
        }
    }

    #[test]
    fn scattered_tags_all_covered() {
        // Pseudo-random scatter (deterministic LCG).
        let mut tags = IntVectSet::new();
        let mut state: u64 = 12345;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 33) % 32;
            let y = (state >> 23) % 32;
            let z = (state >> 13) % 32;
            tags.insert(IntVect::new(x as i64, y as i64, z as i64));
        }
        let boxes = cluster_tags(&tags, &IBox::cube(32), &ClusterParams::default());
        cover_check(&tags, &boxes);
    }
}
