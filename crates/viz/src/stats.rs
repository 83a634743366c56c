//! Descriptive statistics and data subsetting: the other two
//! communication-free analysis services the paper names (§5.2.4: "our
//! approach could be extensible to other scalable analysis approaches with
//! no/rare communications, such as descriptive statistic analysis, data
//! subsetting").
//!
//! The compute kernels here walk contiguous flat-offset rows of the fab
//! payload rather than per-cell `IntVect` indexing; `level_stats` fans the
//! per-grid passes out across threads. `crate::reference::block_stats`
//! keeps the per-cell form for the equivalence property tests.

use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;
use xlayer_amr::level_data::LevelData;

/// Streaming descriptive statistics of one block (single pass, Welford).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockStats {
    /// Samples seen.
    pub count: u64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
}

impl BlockStats {
    /// Statistics over `comp` of `fab` restricted to `region`.
    pub fn compute(fab: &Fab, comp: usize, region: &IBox) -> Self {
        let r = region.intersect(&fab.ibox());
        let mut count = 0u64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut mean = 0.0;
        let mut m2 = 0.0;
        if !r.is_empty() {
            let src_box = fab.ibox();
            let src = fab.comp_slice(comp);
            let nx = r.size()[0] as usize;
            for z in r.lo()[2]..=r.hi()[2] {
                for y in r.lo()[1]..=r.hi()[1] {
                    let s0 = src_box.offset(IntVect::new(r.lo()[0], y, z));
                    for &v in &src[s0..s0 + nx] {
                        count += 1;
                        min = min.min(v);
                        max = max.max(v);
                        let d = v - mean;
                        mean += d / count as f64;
                        m2 += d * (v - mean);
                    }
                }
            }
        }
        BlockStats {
            count,
            min: if count == 0 { 0.0 } else { min },
            max: if count == 0 { 0.0 } else { max },
            mean,
            variance: if count == 0 { 0.0 } else { m2 / count as f64 },
        }
    }

    /// Merge two partial statistics (parallel reduction; Chan et al.).
    pub fn merge(a: Self, b: Self) -> Self {
        if a.count == 0 {
            return b;
        }
        if b.count == 0 {
            return a;
        }
        let n = a.count + b.count;
        let delta = b.mean - a.mean;
        let mean = a.mean + delta * b.count as f64 / n as f64;
        let m2 = a.variance * a.count as f64
            + b.variance * b.count as f64
            + delta * delta * a.count as f64 * b.count as f64 / n as f64;
        BlockStats {
            count: n,
            min: a.min.min(b.min),
            max: a.max.max(b.max),
            mean,
            variance: m2 / n as f64,
        }
    }
}

/// Per-grid statistics of a level plus the level-wide merge. The per-grid
/// passes run in parallel (grids are independent); the merge is the usual
/// serial Chan reduction over the ordered per-grid partials.
pub fn level_stats(data: &LevelData, comp: usize) -> (Vec<BlockStats>, BlockStats) {
    use rayon::prelude::*;
    let per: Vec<BlockStats> = (0..data.len())
        .into_par_iter()
        .map(|i| BlockStats::compute(data.fab(i), comp, &data.valid_box(i)))
        .collect();
    let total = per.iter().copied().fold(
        BlockStats {
            count: 0,
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            variance: 0.0,
        },
        BlockStats::merge,
    );
    (per, total)
}

/// A histogram over a fixed value range.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Range low edge.
    pub lo: f64,
    /// Range high edge.
    pub hi: f64,
    /// Per-bin counts.
    pub counts: Vec<u64>,
    /// Samples below `lo` / above `hi`.
    pub outliers: (u64, u64),
}

impl Histogram {
    /// Histogram of `comp` over `region` with `bins` bins spanning
    /// `[lo, hi)`.
    pub fn compute(fab: &Fab, comp: usize, region: &IBox, lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo);
        let r = region.intersect(&fab.ibox());
        let scale = bins as f64 / (hi - lo);
        let mut counts = vec![0u64; bins];
        let mut outliers = (0u64, 0u64);
        if !r.is_empty() {
            let src_box = fab.ibox();
            let src = fab.comp_slice(comp);
            let nx = r.size()[0] as usize;
            for z in r.lo()[2]..=r.hi()[2] {
                for y in r.lo()[1]..=r.hi()[1] {
                    let s0 = src_box.offset(IntVect::new(r.lo()[0], y, z));
                    for &v in &src[s0..s0 + nx] {
                        if v < lo {
                            outliers.0 += 1;
                        } else if v >= hi {
                            outliers.1 += 1;
                        } else {
                            counts[((v - lo) * scale) as usize] += 1;
                        }
                    }
                }
            }
        }
        Histogram {
            lo,
            hi,
            counts,
            outliers,
        }
    }

    /// Total in-range samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Approximate quantile (0–1) via the cumulative histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return self.lo;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                let w = (self.hi - self.lo) / self.counts.len() as f64;
                return self.lo + (i as f64 + 0.5) * w;
            }
        }
        self.hi
    }
}

/// One cell of a subset result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubsetCell {
    /// Cell index.
    pub iv: IntVect,
    /// Value at the cell.
    pub value: f64,
}

/// Data subsetting: the sparse set of cells of `region` whose value lies in
/// `[lo, hi]` — a query-driven reduction whose output size is proportional
/// to the feature, not the domain.
pub fn subset(fab: &Fab, comp: usize, region: &IBox, lo: f64, hi: f64) -> Vec<SubsetCell> {
    let r = region.intersect(&fab.ibox());
    let mut out = Vec::new();
    if r.is_empty() {
        return out;
    }
    let src_box = fab.ibox();
    let src = fab.comp_slice(comp);
    let nx = r.size()[0] as usize;
    for z in r.lo()[2]..=r.hi()[2] {
        for y in r.lo()[1]..=r.hi()[1] {
            let s0 = src_box.offset(IntVect::new(r.lo()[0], y, z));
            for (dx, &v) in src[s0..s0 + nx].iter().enumerate() {
                if (lo..=hi).contains(&v) {
                    out.push(SubsetCell {
                        iv: IntVect::new(r.lo()[0] + dx as i64, y, z),
                        value: v,
                    });
                }
            }
        }
    }
    out
}

/// Bytes of a subset result (index + value per cell).
pub fn subset_bytes(cells: usize) -> u64 {
    (cells * (3 * 8 + 8)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_fab(n: i64) -> Fab {
        let b = IBox::cube(n);
        let mut f = Fab::new(b, 1);
        for iv in b.cells() {
            f.set(iv, 0, iv[0] as f64);
        }
        f
    }

    #[test]
    fn stats_of_a_ramp() {
        let f = ramp_fab(4); // x in {0,1,2,3}, 16 cells each
        let s = BlockStats::compute(&f, 0, &IBox::cube(4));
        assert_eq!(s.count, 64);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 1.5).abs() < 1e-12);
        assert!((s.variance - 1.25).abs() < 1e-12); // Var{0,1,2,3}
    }

    #[test]
    fn flat_matches_reference_bitwise() {
        let b = IBox::new(IntVect::new(-2, 1, -4), IntVect::new(5, 7, 2));
        let mut f = Fab::new(b, 2);
        for iv in b.cells() {
            f.set(iv, 1, ((iv[0] * 7 - iv[1] * 3 + iv[2]) as f64).sin());
        }
        let region = IBox::new(IntVect::new(-1, 2, -3), IntVect::new(9, 9, 9));
        let flat = BlockStats::compute(&f, 1, &region);
        let rf = crate::reference::block_stats(&f, 1, &region);
        assert_eq!(flat, rf);
    }

    #[test]
    fn merge_equals_whole() {
        let f = ramp_fab(8);
        let whole = BlockStats::compute(&f, 0, &IBox::cube(8));
        let (left, right) = IBox::cube(8).split_at(0, 3);
        let merged = BlockStats::merge(
            BlockStats::compute(&f, 0, &left),
            BlockStats::compute(&f, 0, &right),
        );
        assert_eq!(merged.count, whole.count);
        assert!((merged.mean - whole.mean).abs() < 1e-12);
        assert!((merged.variance - whole.variance).abs() < 1e-10);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
    }

    #[test]
    fn empty_region() {
        let f = ramp_fab(4);
        let far = IBox::cube(2).shift(IntVect::splat(100));
        let s = BlockStats::compute(&f, 0, &far);
        assert_eq!(s.count, 0);
        assert_eq!(BlockStats::merge(s, s).count, 0);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let f = ramp_fab(4);
        let h = Histogram::compute(&f, 0, &IBox::cube(4), 0.0, 4.0, 4);
        assert_eq!(h.counts, vec![16, 16, 16, 16]);
        assert_eq!(h.outliers, (0, 0));
        assert_eq!(h.total(), 64);
        // median in the middle of the range
        let med = h.quantile(0.5);
        assert!((1.0..=2.5).contains(&med), "median {med}");
    }

    #[test]
    fn histogram_outliers() {
        let f = ramp_fab(4);
        let h = Histogram::compute(&f, 0, &IBox::cube(4), 1.0, 3.0, 2);
        assert_eq!(h.outliers.0, 16); // x=0
        assert_eq!(h.outliers.1, 16); // x=3
        assert_eq!(h.total(), 32);
    }

    #[test]
    fn subsetting_extracts_feature_cells() {
        let f = ramp_fab(8);
        let cells = subset(&f, 0, &IBox::cube(8), 7.0, 7.0);
        assert_eq!(cells.len(), 64); // the x = 7 plane
        assert!(cells.iter().all(|c| c.value == 7.0));
        // a thin feature's subset is smaller than the full block payload
        assert!(subset_bytes(cells.len()) < 512 * 8);
    }

    #[test]
    fn subset_cells_carry_correct_indices() {
        let f = ramp_fab(4);
        let cells = subset(&f, 0, &IBox::cube(4), 2.0, 2.0);
        assert_eq!(cells.len(), 16);
        assert!(cells.iter().all(|c| c.iv[0] == 2));
        // x-fastest traversal: indices come out in box order
        assert_eq!(cells[0].iv, IntVect::new(2, 0, 0));
        assert_eq!(cells[1].iv, IntVect::new(2, 1, 0));
    }

    #[test]
    fn level_stats_aggregate() {
        use xlayer_amr::domain::ProblemDomain;
        use xlayer_amr::layout::BoxLayout;
        let domain = ProblemDomain::new(IBox::cube(8));
        let layout = BoxLayout::decompose(&domain, 4, 1);
        let mut ld = LevelData::new(layout, domain, 1, 0);
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                fab.set(iv, 0, iv[0] as f64);
            }
        });
        let (per, total) = level_stats(&ld, 0);
        assert_eq!(per.len(), ld.len());
        assert_eq!(total.count, 512);
        assert!((total.mean - 3.5).abs() < 1e-12);
    }
}
