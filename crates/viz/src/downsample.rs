//! Spatial down-sampling: the application-layer data-reduction mechanism
//! (paper §4.1, Eqs. 1–3).
//!
//! `f_data_reduce(S_data, X)` reduces a block by factor `X` per direction
//! (X³ in volume) by block-averaging. The policy's size and memory model
//! (Eqs. 1–2) is `xlayer_core::policy::app`'s, not this module's.
//!
//! The production kernels iterate contiguous flat-offset rows of the fab
//! payload (x-fastest Fortran order) instead of per-cell `IntVect`
//! indexing; the straightforward per-cell variants are kept in
//! `crate::reference`, and property tests assert the flat kernels are
//! bit-identical to them (the accumulation order per coarse cell is the
//! same, so even the floating-point sums match exactly).

use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;

/// Down-sample `comp` of `fab` over its whole box by factor `x` per
/// direction, averaging each x³ block (partial edge blocks average the
/// cells present). The result covers `fab.box().coarsen(x)`.
pub fn downsample_fab(fab: &Fab, comp: usize, x: u32) -> Fab {
    downsample_region(fab, comp, &fab.ibox(), x)
}

/// Down-sample `comp` of `fab` restricted to `region ∩ fab.box()` by
/// factor `x` per direction. The result covers the coarsened clipped
/// region; each coarse cell averages the clipped fine cells it covers.
///
/// This reads the source component in place — reducing one component of a
/// multi-component level fab needs no tight intermediate copy.
pub fn downsample_region(fab: &Fab, comp: usize, region: &IBox, x: u32) -> Fab {
    assert!(x >= 1);
    let x = x as i64;
    let r = region.intersect(&fab.ibox());
    let dst_box = r.coarsen(x);
    let mut out = Fab::new(dst_box, 1);
    if r.is_empty() {
        return out;
    }
    let src_box = fab.ibox();
    let src = fab.comp_slice(comp);
    let nx = r.size()[0] as usize;
    let clo = r.lo().coarsen(x);
    {
        // Pass 1: accumulate fine sums into the coarse cells. The global
        // x-fastest traversal visits the fine cells of each coarse block in
        // exactly the order the per-cell reference sums them; each x-run of
        // a row belongs to one coarse cell, so it is accumulated in a
        // register and flushed once (same FP addition chain, no per-element
        // store). The first run of a row may be partial when the region's
        // low edge is not block-aligned; the common factors get a
        // monomorphized kernel whose fixed-length runs unroll.
        let dst = out.as_mut_slice();
        let first_run = (((clo[0] + 1) * x - r.lo()[0]) as usize).min(nx);
        let row_pass = |row: &[f64], di: usize, dst: &mut [f64]| match x {
            2 => accumulate_runs::<2>(row, first_run, di, dst),
            4 => accumulate_runs::<4>(row, first_run, di, dst),
            8 => accumulate_runs::<8>(row, first_run, di, dst),
            _ => accumulate_runs_generic(row, first_run, x as usize, di, dst),
        };
        for z in r.lo()[2]..=r.hi()[2] {
            let cz = z.div_euclid(x);
            for y in r.lo()[1]..=r.hi()[1] {
                let cy = y.div_euclid(x);
                let s0 = src_box.offset(IntVect::new(r.lo()[0], y, z));
                let di = dst_box.offset(IntVect::new(clo[0], cy, cz));
                row_pass(&src[s0..s0 + nx], di, dst);
            }
        }
    }
    // Pass 2: divide by the per-coarse-cell fine count. The count is
    // separable: (cells in x) × (cells in y) × (cells in z).
    let counts = |d: usize| -> Vec<f64> {
        (clo[d]..=r.hi()[d].div_euclid(x))
            .map(|c| {
                let lo = (c * x).max(r.lo()[d]);
                let hi = (c * x + x - 1).min(r.hi()[d]);
                (hi - lo + 1) as f64
            })
            .collect()
    };
    let (cx, cy, cz) = (counts(0), counts(1), counts(2));
    let dst = out.as_mut_slice();
    let mut di = 0;
    for nz in &cz {
        for ny in &cy {
            for nx in &cx {
                dst[di] /= nx * ny * nz;
                di += 1;
            }
        }
    }
    out
}

/// Accumulate one row's x-runs into `dst[di..]`, run length `X` known at
/// compile time so the per-run addition chain unrolls. `head` is the length
/// of the (possibly partial) first run; runs after it are `X` long except
/// possibly the last.
fn accumulate_runs<const X: usize>(row: &[f64], head: usize, mut di: usize, dst: &mut [f64]) {
    let (first, rest) = row.split_at(head.min(row.len()));
    if !first.is_empty() {
        let mut acc = dst[di];
        for &v in first {
            acc += v;
        }
        dst[di] = acc;
        di += 1;
    }
    let mut chunks = rest.chunks_exact(X);
    for ch in &mut chunks {
        let mut acc = dst[di];
        for &v in ch {
            acc += v;
        }
        dst[di] = acc;
        di += 1;
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut acc = dst[di];
        for &v in tail {
            acc += v;
        }
        dst[di] = acc;
    }
}

/// [`accumulate_runs`] for arbitrary run length.
fn accumulate_runs_generic(row: &[f64], head: usize, x: usize, mut di: usize, dst: &mut [f64]) {
    let mut i = 0usize;
    let mut run = head;
    while i < row.len() {
        let end = (i + run).min(row.len());
        let mut acc = dst[di];
        for &v in &row[i..end] {
            acc += v;
        }
        dst[di] = acc;
        di += 1;
        i = end;
        run = x;
    }
}

/// Mean-squared error between a fab and the reconstruction of its
/// down-sampled version (piecewise-constant upsampling) — quantifies the
/// information lost by factor `x`, the quantity the entropy policy trades
/// against memory.
pub fn reconstruction_mse(fab: &Fab, comp: usize, x: u32) -> f64 {
    let ds = downsample_fab(fab, comp, x);
    let src_box = fab.ibox();
    let src = fab.comp_slice(comp);
    let ds_box = ds.ibox();
    let dsd = ds.as_slice();
    let x = x as i64;
    let nx = src_box.size()[0] as usize;
    let clo0 = src_box.lo()[0].div_euclid(x);
    let first_run = (((clo0 + 1) * x - src_box.lo()[0]) as usize).min(nx);
    let mut acc = 0.0;
    for z in src_box.lo()[2]..=src_box.hi()[2] {
        let cz = z.div_euclid(x);
        for y in src_box.lo()[1]..=src_box.hi()[1] {
            let cy = y.div_euclid(x);
            let s0 = src_box.offset(IntVect::new(src_box.lo()[0], y, z));
            let row = &src[s0..s0 + nx];
            let mut di = ds_box.offset(IntVect::new(clo0, cy, cz));
            // Each x-run of the row compares against one coarse value,
            // loaded once per run; the global accumulation order matches
            // the per-cell reference exactly.
            let mut i = 0usize;
            let mut run = first_run;
            while i < nx {
                let end = (i + run).min(nx);
                let dsv = dsd[di];
                for &v in &row[i..end] {
                    let d = v - dsv;
                    acc += d * d;
                }
                di += 1;
                i = end;
                run = x as usize;
            }
        }
    }
    acc / src_box.num_cells() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn coord_fab(n: i64) -> Fab {
        let b = IBox::cube(n);
        let mut f = Fab::new(b, 1);
        for iv in b.cells() {
            f.set(iv, 0, iv[0] as f64);
        }
        f
    }

    #[test]
    fn factor_one_is_identity() {
        let f = coord_fab(8);
        let d = downsample_fab(&f, 0, 1);
        assert_eq!(d.ibox(), f.ibox());
        for iv in f.ibox().cells() {
            assert_eq!(d.get(iv, 0), f.get(iv, 0));
        }
    }

    #[test]
    fn averaging_preserves_mean() {
        let f = coord_fab(8);
        let d = downsample_fab(&f, 0, 2);
        let mean_src = f.sum_on(&f.ibox(), 0) / f.ibox().num_cells() as f64;
        let mean_dst = d.sum_on(&d.ibox(), 0) / d.ibox().num_cells() as f64;
        assert!((mean_src - mean_dst).abs() < 1e-12);
    }

    #[test]
    fn output_box_coarsens() {
        let f = coord_fab(8);
        let d = downsample_fab(&f, 0, 4);
        assert_eq!(d.ibox(), IBox::cube(2));
        // Each coarse cell holds the average of its 4^3 block:
        // x-average of {0..3} = 1.5, of {4..7} = 5.5.
        assert_eq!(d.get(IntVect::ZERO, 0), 1.5);
        assert_eq!(d.get(IntVect::new(1, 0, 0), 0), 5.5);
    }

    #[test]
    fn nondivisible_extent_averages_partial_blocks() {
        let b = IBox::cube(5);
        let mut f = Fab::new(b, 1);
        for iv in b.cells() {
            f.set(iv, 0, 2.0);
        }
        let d = downsample_fab(&f, 0, 2);
        // 5 coarsened by 2 → 3 cells; all averages are 2.0.
        assert_eq!(d.ibox(), IBox::cube(3));
        for iv in d.ibox().cells() {
            assert_eq!(d.get(iv, 0), 2.0);
        }
    }

    #[test]
    fn flat_matches_reference_on_offset_box() {
        // Negative lows exercise the div_euclid coarse-index arithmetic.
        let b = IBox::new(IntVect::new(-3, -1, -5), IntVect::new(4, 6, 1));
        let mut f = Fab::new(b, 2);
        for iv in b.cells() {
            f.set(iv, 1, (iv[0] * 97 + iv[1] * 31 + iv[2] * 7) as f64 * 0.37);
        }
        for x in [1u32, 2, 3, 4] {
            let flat = downsample_region(&f, 1, &b, x);
            let rf = reference::downsample_region(&f, 1, &b, x);
            assert_eq!(flat.ibox(), rf.ibox());
            assert_eq!(flat.as_slice(), rf.as_slice(), "factor {x}");
        }
    }

    #[test]
    fn region_clipped_by_fab_box() {
        let f = coord_fab(8);
        let region = IBox::new(IntVect::new(2, 2, 2), IntVect::new(20, 20, 20));
        let flat = downsample_region(&f, 0, &region, 2);
        let rf = reference::downsample_region(&f, 0, &region, 2);
        assert_eq!(flat.ibox(), rf.ibox());
        assert_eq!(flat.as_slice(), rf.as_slice());
        assert_eq!(flat.ibox(), IBox::new(IntVect::splat(1), IntVect::splat(3)));
    }

    #[test]
    fn mse_grows_with_factor_on_nonconstant_data() {
        let f = coord_fab(16);
        let m2 = reconstruction_mse(&f, 0, 2);
        let m4 = reconstruction_mse(&f, 0, 4);
        assert!(m2 > 0.0);
        assert!(m4 > m2, "mse(4)={m4} should exceed mse(2)={m2}");
    }

    #[test]
    fn mse_zero_on_constant_data() {
        let b = IBox::cube(8);
        let f = Fab::filled(b, 1, 7.0);
        assert_eq!(reconstruction_mse(&f, 0, 4), 0.0);
    }
}
