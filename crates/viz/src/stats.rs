//! Descriptive statistics of one block: another communication-free
//! analysis service the paper names (§5.2.4: "our approach could be
//! extensible to other scalable analysis approaches with no/rare
//! communications, such as descriptive statistic analysis"), and the
//! statistics service of the `coupled_codes` example.
//!
//! [`BlockStats::compute`] walks contiguous flat-offset rows of the fab
//! payload rather than per-cell `IntVect` indexing;
//! `crate::reference::block_stats` keeps the per-cell form for the
//! equivalence property tests.

use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;

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
    fn empty_region() {
        let f = ramp_fab(4);
        let far = IBox::cube(2).shift(IntVect::splat(100));
        let s = BlockStats::compute(&f, 0, &far);
        assert_eq!(s.count, 0);
    }
}
