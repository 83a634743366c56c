//! Shannon entropy of data blocks (paper Eq. 11).
//!
//! The entropy-based application-layer adaptation (§5.2.1, Fig. 6) computes,
//! for each AMR data block, `H(X) = -Σ p(x)·log2 p(x)` over a histogram of
//! the block's values, and down-samples aggressively only where H is low.
//!
//! The production kernel walks contiguous flat-offset rows of the fab
//! payload (one fused min/max sweep, then one binning sweep) and reuses a
//! caller-provided histogram buffer, so a level-wide entropy scan performs
//! zero heap allocations after the first grid. The per-cell variant is
//! kept in `crate::reference` for the equivalence property tests.

use std::cell::RefCell;
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;
use xlayer_amr::level_data::LevelData;

/// Number of histogram bins used to estimate p(x). The paper reports
/// entropies of 5.14–9.85 bits at the finest level; 1024 bins (10 bits max)
/// covers that range.
pub const DEFAULT_BINS: usize = 1024;

/// Shannon entropy (bits) of the values of `comp` over `region ∩ fab.box`,
/// estimated from a `bins`-bin histogram over the region's value range.
///
/// Returns 0 for constant or empty regions.
pub fn block_entropy(fab: &Fab, comp: usize, region: &IBox, bins: usize) -> f64 {
    let mut hist = Vec::new();
    block_entropy_scratch(fab, comp, region, bins, &mut hist)
}

/// [`block_entropy`] with a caller-owned histogram buffer, so repeated
/// calls (a level scan) allocate nothing after the first. `hist` is
/// cleared and resized to `bins`; its prior contents are ignored.
pub fn block_entropy_scratch(
    fab: &Fab,
    comp: usize,
    region: &IBox,
    bins: usize,
    hist: &mut Vec<u64>,
) -> f64 {
    assert!(bins >= 2);
    assert!(bins <= 1 << 30, "histogram bin count out of range");
    let r = region.intersect(&fab.ibox());
    let n = r.num_cells();
    if n == 0 {
        return 0.0;
    }
    let src_box = fab.ibox();
    let src = fab.comp_slice(comp);
    let nx = r.size()[0] as usize;
    // Sweep 1 (fused): min and max in a single pass over the rows, with
    // eight independent accumulator lanes so the compare chain vectorizes
    // (min/max are order-independent — ±0.0 ties compare equal and only
    // feed arithmetic, so the entropy is unchanged by the regrouping).
    let mut los = [f64::INFINITY; 8];
    let mut his = [f64::NEG_INFINITY; 8];
    for z in r.lo()[2]..=r.hi()[2] {
        for y in r.lo()[1]..=r.hi()[1] {
            let s0 = src_box.offset(IntVect::new(r.lo()[0], y, z));
            let row = &src[s0..s0 + nx];
            let mut chunks = row.chunks_exact(8);
            for ch in &mut chunks {
                // Select-form compares (not f64::min/max, whose NaN rules
                // cost a fixup sequence) so the lanes compile to packed
                // min/max instructions.
                for k in 0..8 {
                    los[k] = if ch[k] < los[k] { ch[k] } else { los[k] };
                    his[k] = if ch[k] > his[k] { ch[k] } else { his[k] };
                }
            }
            for &v in chunks.remainder() {
                los[0] = if v < los[0] { v } else { los[0] };
                his[0] = if v > his[0] { v } else { his[0] };
            }
        }
    }
    let lo = los.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let hi = his.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    if hi <= lo {
        return 0.0;
    }
    // Sweep 2: bin into the reused histogram, counting into four
    // interleaved lanes so consecutive equal values don't serialize on the
    // same counter; the lanes are folded into the first `bins` slots after
    // the sweep (pure integer counts — the fold is exact).
    let scale = bins as f64 / (hi - lo);
    hist.clear();
    hist.resize(4 * bins, 0);
    // `(v - lo) * scale` lies in [0, bins] (bins is capped well below
    // u32::MAX by the assert above), so the u32 conversion truncates to the
    // same bin as the reference's usize cast at roughly half the
    // saturation-fixup cost.
    let bin_of = |v: f64| (((v - lo) * scale) as u32 as usize).min(bins - 1);
    for z in r.lo()[2]..=r.hi()[2] {
        for y in r.lo()[1]..=r.hi()[1] {
            let s0 = src_box.offset(IntVect::new(r.lo()[0], y, z));
            let row = &src[s0..s0 + nx];
            let mut chunks = row.chunks_exact(4);
            for ch in &mut chunks {
                hist[bin_of(ch[0])] += 1;
                hist[bins + bin_of(ch[1])] += 1;
                hist[2 * bins + bin_of(ch[2])] += 1;
                hist[3 * bins + bin_of(ch[3])] += 1;
            }
            for &v in chunks.remainder() {
                hist[bin_of(v)] += 1;
            }
        }
    }
    for lane in 1..4 {
        for b in 0..bins {
            hist[b] += hist[lane * bins + b];
        }
    }
    hist.truncate(bins);
    let total = n as f64;
    let mut h = 0.0;
    for &c in hist.iter() {
        if c > 0 {
            let p = c as f64 / total;
            h -= p * p.log2();
        }
    }
    h
}

/// Entropy of every grid of a level (bits per grid), computed in parallel;
/// each worker thread reuses one thread-local histogram across the grids it
/// scans.
pub fn level_entropies(data: &LevelData, comp: usize, bins: usize) -> Vec<f64> {
    use rayon::prelude::*;
    thread_local! {
        static HIST: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }
    (0..data.len())
        .into_par_iter()
        .map(|i| {
            HIST.with(|h| {
                block_entropy_scratch(
                    data.fab(i),
                    comp,
                    &data.valid_box(i),
                    bins,
                    &mut h.borrow_mut(),
                )
            })
        })
        .collect()
}

/// Map per-block entropies to per-block down-sampling factors.
///
/// `thresholds` is a sorted list of `(min_entropy, factor)` pairs: a block
/// with entropy ≥ the largest matching `min_entropy` gets that factor. The
/// convention matches §5.2.1: high-entropy blocks keep full resolution
/// (factor 1), low-entropy blocks are reduced aggressively.
pub fn factors_from_entropy(entropies: &[f64], thresholds: &[(f64, u32)]) -> Vec<u32> {
    assert!(!thresholds.is_empty());
    let mut sorted = thresholds.to_vec();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN thresholds"));
    entropies
        .iter()
        .map(|&h| {
            let mut f = sorted[0].1;
            for &(min_h, factor) in &sorted {
                if h >= min_h {
                    f = factor;
                }
            }
            f
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_amr::intvect::IntVect;

    fn fab_with(values: impl Fn(IntVect) -> f64, n: i64) -> Fab {
        let b = IBox::cube(n);
        let mut f = Fab::new(b, 1);
        for iv in b.cells() {
            f.set(iv, 0, values(iv));
        }
        f
    }

    #[test]
    fn constant_block_has_zero_entropy() {
        let f = fab_with(|_| 3.0, 8);
        assert_eq!(block_entropy(&f, 0, &IBox::cube(8), 64), 0.0);
    }

    #[test]
    fn two_equal_halves_have_one_bit() {
        let f = fab_with(|iv| if iv[0] < 4 { 0.0 } else { 1.0 }, 8);
        let h = block_entropy(&f, 0, &IBox::cube(8), 64);
        assert!((h - 1.0).abs() < 1e-12, "H = {h}");
    }

    #[test]
    fn uniform_spread_maximizes_entropy() {
        // 512 distinct values over 512 bins-worth of range → H ≈ log2(bins).
        let f = fab_with(|iv| (iv[0] + 8 * iv[1] + 64 * iv[2]) as f64, 8);
        let h = block_entropy(&f, 0, &IBox::cube(8), 512);
        assert!(h > 8.9, "H = {h}, expected ≈ 9 bits");
    }

    #[test]
    fn entropy_upper_bound_is_log2_bins() {
        let f = fab_with(|iv| (iv[0] * 31 + iv[1] * 57 + iv[2] * 13) as f64, 8);
        for bins in [4usize, 16, 64] {
            let h = block_entropy(&f, 0, &IBox::cube(8), bins);
            assert!(h <= (bins as f64).log2() + 1e-12);
            assert!(h >= 0.0);
        }
    }

    #[test]
    fn empty_region_zero() {
        let f = fab_with(|_| 1.0, 4);
        let far = IBox::cube(4).shift(IntVect::splat(100));
        assert_eq!(block_entropy(&f, 0, &far, 16), 0.0);
    }

    #[test]
    fn flat_matches_reference_bitwise() {
        let f = fab_with(
            |iv| ((iv[0] as f64) * 0.7).sin() * ((iv[1] * 3 - iv[2]) as f64).cos(),
            8,
        );
        for bins in [4usize, 64, DEFAULT_BINS] {
            let flat = block_entropy(&f, 0, &IBox::cube(8), bins);
            let rf = crate::reference::block_entropy(&f, 0, &IBox::cube(8), bins);
            assert_eq!(flat.to_bits(), rf.to_bits(), "bins {bins}");
        }
    }

    #[test]
    fn scratch_buffer_is_resized_per_call() {
        let f = fab_with(|iv| (iv[0] + iv[1]) as f64, 8);
        let mut hist = vec![9u64; 7]; // wrong size, stale contents
        let h = block_entropy_scratch(&f, 0, &IBox::cube(8), 64, &mut hist);
        assert_eq!(hist.len(), 64);
        assert_eq!(
            h.to_bits(),
            block_entropy(&f, 0, &IBox::cube(8), 64).to_bits()
        );
    }

    #[test]
    fn factors_pick_largest_matching_threshold() {
        // High-entropy keeps resolution (factor 1), low gets 4.
        let factors = factors_from_entropy(&[9.2, 5.1, 7.0], &[(0.0, 4), (6.0, 2), (8.0, 1)]);
        assert_eq!(factors, vec![1, 4, 2]);
    }

    #[test]
    fn structured_region_has_higher_entropy_than_flat() {
        // The Fig. 6 scenario: a structured (high-information) block vs a
        // nearly-flat one.
        let structured = fab_with(
            |iv| ((iv[0] as f64) * 0.7).sin() + ((iv[1] as f64) * 1.3).cos() * (iv[2] as f64),
            8,
        );
        let flat = fab_with(|iv| 1.0 + 1e-6 * (iv[0] % 2) as f64, 8);
        let hs = block_entropy(&structured, 0, &IBox::cube(8), DEFAULT_BINS);
        let hf = block_entropy(&flat, 0, &IBox::cube(8), DEFAULT_BINS);
        assert!(hs > hf + 3.0, "structured {hs} vs flat {hf}");
    }
}
