//! Load balancing: assign grids to ranks.
//!
//! The paper's workloads suffer erratic, imbalanced memory and compute loads
//! (Fig. 1) precisely because balancing cell counts cannot capture dynamic
//! refinement. We provide the three balancers ablated in DESIGN.md: knapsack
//! (Chombo's default, longest-processing-time), Morton space-filling-curve,
//! and naive round-robin.

use crate::boxes::IBox;

/// Strategy for assigning grids to ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Balancer {
    /// Longest-processing-time-first greedy knapsack on cell counts.
    Knapsack,
    /// Sort grids along a Morton (Z-order) curve and cut into equal-load
    /// contiguous chunks — preserves locality.
    MortonSfc,
    /// Grid `i` goes to rank `i % nranks`.
    RoundRobin,
}

/// Assign each box a rank using `balancer`; returns one rank per box.
pub fn assign_ranks(boxes: &[IBox], nranks: usize, balancer: Balancer) -> Vec<usize> {
    assert!(nranks > 0);
    match balancer {
        Balancer::RoundRobin => (0..boxes.len()).map(|i| i % nranks).collect(),
        Balancer::Knapsack => knapsack(boxes, nranks),
        Balancer::MortonSfc => morton(boxes, nranks),
    }
}

fn knapsack(boxes: &[IBox], nranks: usize) -> Vec<usize> {
    // LPT: sort by descending load, place each on the least-loaded rank.
    let mut order: Vec<usize> = (0..boxes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(boxes[i].num_cells()));
    let mut load = vec![0u64; nranks];
    let mut assign = vec![0usize; boxes.len()];
    for i in order {
        let r = load
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(r, _)| r)
            .expect("nranks > 0");
        assign[i] = r;
        load[r] += boxes[i].num_cells();
    }
    assign
}

fn morton(boxes: &[IBox], nranks: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..boxes.len()).collect();
    order.sort_by_key(|&i| {
        let c = boxes[i].lo() + boxes[i].size() / 2;
        morton_key(c[0], c[1], c[2])
    });
    // Cut the curve into nranks chunks of roughly equal cell count.
    let total: u64 = boxes.iter().map(|b| b.num_cells()).sum();
    let target = total.div_ceil(nranks as u64).max(1);
    let mut assign = vec![0usize; boxes.len()];
    let mut rank = 0usize;
    let mut acc = 0u64;
    for &i in &order {
        if acc >= target && rank + 1 < nranks {
            rank += 1;
            acc = 0;
        }
        assign[i] = rank;
        acc += boxes[i].num_cells();
    }
    assign
}

/// Interleave the low 21 bits of three coordinates into a Morton key.
/// Coordinates are offset to be non-negative first.
fn morton_key(x: i64, y: i64, z: i64) -> u64 {
    const BIAS: i64 = 1 << 20;
    let (x, y, z) = (
        (x + BIAS).max(0) as u64,
        (y + BIAS).max(0) as u64,
        (z + BIAS).max(0) as u64,
    );
    part1by2(x) | (part1by2(y) << 1) | (part1by2(z) << 2)
}

/// Spread the low 21 bits of `v` so consecutive bits are 3 apart.
fn part1by2(mut v: u64) -> u64 {
    v &= 0x1f_ffff;
    v = (v | (v << 32)) & 0x1f00000000ffff;
    v = (v | (v << 16)) & 0x1f0000ff0000ff;
    v = (v | (v << 8)) & 0x100f00f00f00f00f;
    v = (v | (v << 4)) & 0x10c30c30c30c30c3;
    v = (v | (v << 2)) & 0x1249249249249249;
    v
}

/// Max-over-mean load (cells) produced by an assignment.
pub fn imbalance_of(boxes: &[IBox], assign: &[usize], nranks: usize) -> f64 {
    let mut load = vec![0u64; nranks];
    for (b, &r) in boxes.iter().zip(assign) {
        load[r] += b.num_cells();
    }
    let max = *load.iter().max().unwrap_or(&0) as f64;
    let mean = boxes.iter().map(|b| b.num_cells()).sum::<u64>() as f64 / nranks as f64;
    // xlint: allow(F) -- exact zero guard: mean is 0.0 iff there are no cells
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intvect::IntVect;
    use crate::layout::split_box;

    fn mixed_boxes() -> Vec<IBox> {
        // Boxes of very different sizes.
        let mut v = Vec::new();
        for i in 0..16i64 {
            let side = 2 + (i % 5) * 3;
            let lo = IntVect::new(i * 32, 0, 0);
            v.push(IBox::new(lo, lo + IntVect::splat(side - 1)));
        }
        v
    }

    #[test]
    fn knapsack_beats_round_robin_on_skewed_loads() {
        let boxes = mixed_boxes();
        let k = assign_ranks(&boxes, 4, Balancer::Knapsack);
        let rr = assign_ranks(&boxes, 4, Balancer::RoundRobin);
        assert!(imbalance_of(&boxes, &k, 4) <= imbalance_of(&boxes, &rr, 4) + 1e-12);
    }

    #[test]
    fn all_ranks_in_range() {
        let boxes = mixed_boxes();
        for bal in [
            Balancer::Knapsack,
            Balancer::MortonSfc,
            Balancer::RoundRobin,
        ] {
            let a = assign_ranks(&boxes, 3, bal);
            assert_eq!(a.len(), boxes.len());
            assert!(a.iter().all(|&r| r < 3));
        }
    }

    #[test]
    fn knapsack_near_optimal_on_equal_boxes() {
        let boxes = split_box(IBox::cube(32), 8); // 64 equal boxes
        let a = assign_ranks(&boxes, 8, Balancer::Knapsack);
        assert!((imbalance_of(&boxes, &a, 8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn morton_preserves_locality() {
        // Boxes along x should map to contiguous rank blocks.
        let boxes: Vec<IBox> = (0..8)
            .map(|i| IBox::cube(4).shift(IntVect::new(4 * i, 0, 0)))
            .collect();
        let a = assign_ranks(&boxes, 4, Balancer::MortonSfc);
        // Each rank owns a contiguous run.
        let mut seen_last = a[0];
        let mut transitions = 0;
        for &r in &a[1..] {
            if r != seen_last {
                transitions += 1;
                seen_last = r;
            }
        }
        assert_eq!(
            transitions, 3,
            "ranks not contiguous along the curve: {a:?}"
        );
    }

    #[test]
    fn morton_key_orders_quadrants() {
        // (0,0,0) quadrant keys < keys of points far along any axis.
        assert!(morton_key(0, 0, 0) < morton_key(100, 0, 0));
        assert!(morton_key(1, 1, 1) < morton_key(64, 64, 64));
    }

    #[test]
    fn single_rank_degenerate() {
        let boxes = mixed_boxes();
        for bal in [
            Balancer::Knapsack,
            Balancer::MortonSfc,
            Balancer::RoundRobin,
        ] {
            let a = assign_ranks(&boxes, 1, bal);
            assert!(a.iter().all(|&r| r == 0));
        }
    }
}
