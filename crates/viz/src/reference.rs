//! Retained per-cell reference kernels: what the flat row-walking analysis
//! kernels are tested and benchmarked against, out of the viz API.
//!
//! Every function here resolves each cell through `Fab::get`/`set` and
//! `IBox::cells()`, one cell at a time, in the accumulation order the flat
//! kernel must reproduce bit for bit. Support code for the in-module tests,
//! `tests/prop_viz.rs` and `bench_summary`; nothing in the product calls it.

use crate::stats::BlockStats;
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;

/// The per-cell reference for [`crate::downsample::downsample_region`]:
/// gathers each coarse cell's fine block through `Fab::get`.
pub fn downsample_region(fab: &Fab, comp: usize, region: &IBox, x: u32) -> Fab {
    assert!(x >= 1);
    let x = x as i64;
    let r = region.intersect(&fab.ibox());
    let dst_box = r.coarsen(x);
    let mut out = Fab::new(dst_box, 1);
    for civ in dst_box.cells() {
        let fine = IBox::single(civ).refine(x).intersect(&r);
        let mut acc = 0.0;
        let mut n = 0u64;
        for fiv in fine.cells() {
            acc += fab.get(fiv, comp);
            n += 1;
        }
        out.set(civ, 0, if n > 0 { acc / n as f64 } else { 0.0 });
    }
    out
}

/// The per-cell reference for [`crate::downsample::reconstruction_mse`].
pub fn reconstruction_mse(fab: &Fab, comp: usize, x: u32) -> f64 {
    let ds = downsample_region(fab, comp, &fab.ibox(), x);
    let src_box = fab.ibox();
    let mut acc = 0.0;
    for iv in src_box.cells() {
        let civ = iv.coarsen(x as i64);
        let d = fab.get(iv, comp) - ds.get(civ, 0);
        acc += d * d;
    }
    acc / src_box.num_cells() as f64
}

/// The per-cell reference for [`crate::entropy::block_entropy`].
pub fn block_entropy(fab: &Fab, comp: usize, region: &IBox, bins: usize) -> f64 {
    assert!(bins >= 2);
    let r = region.intersect(&fab.ibox());
    let n = r.num_cells();
    if n == 0 {
        return 0.0;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for iv in r.cells() {
        let v = fab.get(iv, comp);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if hi <= lo {
        return 0.0;
    }
    let scale = bins as f64 / (hi - lo);
    let mut hist = vec![0u64; bins];
    for iv in r.cells() {
        let v = fab.get(iv, comp);
        let b = (((v - lo) * scale) as usize).min(bins - 1);
        hist[b] += 1;
    }
    let total = n as f64;
    let mut h = 0.0;
    for &c in &hist {
        if c > 0 {
            let p = c as f64 / total;
            h -= p * p.log2();
        }
    }
    h
}

/// The per-cell reference for [`BlockStats::compute`].
pub fn block_stats(fab: &Fab, comp: usize, region: &IBox) -> BlockStats {
    let r = region.intersect(&fab.ibox());
    let mut count = 0u64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut mean = 0.0;
    let mut m2 = 0.0;
    for iv in r.cells() {
        let v = fab.get(iv, comp);
        count += 1;
        min = min.min(v);
        max = max.max(v);
        let d = v - mean;
        mean += d / count as f64;
        m2 += d * (v - mean);
    }
    BlockStats {
        count,
        min: if count == 0 { 0.0 } else { min },
        max: if count == 0 { 0.0 } else { max },
        mean,
        variance: if count == 0 { 0.0 } else { m2 / count as f64 },
    }
}
