//! Retained per-cell reference kernels: what the flat row-walking analysis
//! kernels are tested and benchmarked against, out of the viz API.
//!
//! Every statistics kernel here resolves each cell through `Fab::get`/`set`
//! and `IBox::cells()`, one cell at a time, in the accumulation order the
//! flat kernel must reproduce bit for bit; [`extract_block`] is the
//! per-cube marching-cubes walk the classify-first kernel must reproduce
//! vertex for vertex. Support code for the in-module tests,
//! `tests/prop_viz.rs` and `bench_summary`; nothing in the product calls it.

use crate::marching_cubes::{march_tet, CORNERS, TETS};
use crate::mesh::{Point, TriMesh};
use crate::stats::BlockStats;
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;

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

/// The per-cube reference for [`crate::marching_cubes::extract_block`]:
/// every anchored cube gathers its 8 corners and is rejected by two `any`
/// scans when all of them lie on one side of `iso`.
///
/// A cube anchored at cell `iv` spans the cell centers `iv .. iv+1`; it is
/// processed only if all 8 corners are available in `fab` (ghost cells
/// included). Vertices are emitted in physical coordinates
/// `origin + (cell + 0.5) * dx`.
pub fn extract_block(
    fab: &Fab,
    comp: usize,
    region: &IBox,
    iso: f64,
    dx: f64,
    origin: Point,
) -> TriMesh {
    let mut mesh = TriMesh::new();
    let avail = fab.ibox();
    // A cube anchored at iv needs corners iv..iv+1, so the anchor set is the
    // region clipped to avail shrunk by one on the high side — the same cells
    // the per-cell `contains` checks admit, without testing each one.
    let anchors = region.intersect(&IBox::new(avail.lo(), avail.hi() - IntVect::UNIT));
    if anchors.is_empty() {
        return mesh;
    }
    let src = fab.comp_slice(comp);
    let sx = avail.size();
    // Flat offsets of the 8 cube corners relative to the anchor cell.
    let mut corner_off = [0usize; 8];
    for (k, c) in CORNERS.iter().enumerate() {
        corner_off[k] = (c[0] + sx[0] * (c[1] + sx[1] * c[2])) as usize;
    }
    let nx = anchors.size()[0] as usize;
    for z in anchors.lo()[2]..=anchors.hi()[2] {
        for y in anchors.lo()[1]..=anchors.hi()[1] {
            let s0 = avail.offset(IntVect::new(anchors.lo()[0], y, z));
            for i in 0..nx {
                let base = s0 + i;
                let mut vals = [0.0f64; 8];
                for (k, off) in corner_off.iter().enumerate() {
                    vals[k] = src[base + off];
                }
                // Quick reject: all corners on one side.
                let any_in = vals.iter().any(|&v| v >= iso);
                let any_out = vals.iter().any(|&v| v < iso);
                if !(any_in && any_out) {
                    continue;
                }
                let x = anchors.lo()[0] + i as i64;
                let mut pts = [[0.0f64; 3]; 8];
                for (k, c) in CORNERS.iter().enumerate() {
                    pts[k] = [
                        origin[0] + ((x + c[0]) as f64 + 0.5) * dx,
                        origin[1] + ((y + c[1]) as f64 + 0.5) * dx,
                        origin[2] + ((z + c[2]) as f64 + 0.5) * dx,
                    ];
                }
                for tet in &TETS {
                    march_tet(
                        [pts[tet[0]], pts[tet[1]], pts[tet[2]], pts[tet[3]]],
                        [vals[tet[0]], vals[tet[1]], vals[tet[2]], vals[tet[3]]],
                        iso,
                        &mut mesh,
                    );
                }
            }
        }
    }
    mesh
}
