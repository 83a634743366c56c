//! `CoarseFill`: a cached schedule for the coarse–fine ghost interpolation,
//! the counterpart of [`crate::copier::ExchangeCopier`] for the ghost cells
//! no same-level grid covers.
//!
//! Which ghost cells of a fine grid are left to the coarser level, and which
//! coarse grid lies under each of them, is box calculus over (fine layout,
//! fine domain, ghost width, coarse layout, ratio): every same-level box and
//! periodic image subtracted from every halo, O(n_grids²), then one coarse
//! grid found per remaining piece. None of that changes between regrids, so
//! the fine level keeps the result — per fine grid, a list of boxes each
//! filled from one coarse fab under one periodic shift — and a fill is row
//! copies, run per grid on the thread pool.

use crate::boxes::IBox;
use crate::domain::ProblemDomain;
use crate::fab::Fab;
use crate::intvect::{IntVect, DIM};
use crate::layout::{BoxLayout, Grid};

/// Fill `region` of a fine grid from coarse grid `src`: fine cell `iv` takes
/// the coarse cell under `iv + shift`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FillOp {
    region: IBox,
    src: usize,
    shift: IntVect,
}

/// The ghost regions of one fine level that its coarser level fills.
#[derive(Debug)]
pub(crate) struct CoarseFill {
    // Validity key: the schedule is a pure function of these.
    fine: Vec<Grid>,
    domain: ProblemDomain,
    nghost: i64,
    coarse: Vec<Grid>,
    ratio: i64,
    /// `per_grid[g]` fills fine fab `g`; regions are disjoint.
    per_grid: Vec<Vec<FillOp>>,
}

impl CoarseFill {
    /// Build the schedule. `domain` is the fine level's.
    pub(crate) fn build(
        fine: &BoxLayout,
        domain: &ProblemDomain,
        nghost: i64,
        coarse: &BoxLayout,
        ratio: i64,
    ) -> CoarseFill {
        let size = domain.domain_box().size();
        assert!(
            (0..DIM).all(|d| !domain.is_periodic(d) || nghost <= size[d]),
            "ghost width {nghost} exceeds a periodic domain extent {size:?}"
        );
        // The shifts that bring a ghost cell into the domain: one domain
        // length either way in each periodic direction, or none.
        let mut wraps = vec![IntVect::ZERO];
        for d in 0..DIM {
            if domain.is_periodic(d) {
                wraps = wraps
                    .iter()
                    .flat_map(|&s| [-1, 0, 1].map(|k| s + IntVect::basis(d) * (k * size[d])))
                    .collect();
            }
        }
        let coarse_cover: Vec<IBox> = coarse.grids().iter().map(|g| g.bx.refine(ratio)).collect();
        let per_grid = (0..fine.len())
            .map(|fi| {
                let mut ops = Vec::new();
                for region in unfilled_ghost_regions(fine, domain, nghost, fi) {
                    for &shift in &wraps {
                        let wrapped = region.shift(shift).intersect(&domain.domain_box());
                        if wrapped.is_empty() {
                            continue;
                        }
                        for (src, cover) in coarse_cover.iter().enumerate() {
                            let under = wrapped.intersect(cover);
                            if !under.is_empty() {
                                ops.push(FillOp {
                                    region: under.shift(-shift),
                                    src,
                                    shift,
                                });
                            }
                        }
                    }
                }
                ops
            })
            .collect();
        CoarseFill {
            fine: fine.grids().to_vec(),
            domain: *domain,
            nghost,
            coarse: coarse.grids().to_vec(),
            ratio,
            per_grid,
        }
    }

    /// True if this schedule was built for exactly this configuration
    /// (grid by grid, like [`crate::copier::ExchangeCopier::matches`]).
    pub(crate) fn matches(
        &self,
        fine: &BoxLayout,
        domain: &ProblemDomain,
        nghost: i64,
        coarse: &BoxLayout,
        ratio: i64,
    ) -> bool {
        self.domain == *domain
            && self.nghost == nghost
            && self.ratio == ratio
            && self.fine == fine.grids()
            && self.coarse == coarse.grids()
    }

    /// Fill fine fab `grid` from the coarse fabs.
    pub(crate) fn apply(&self, grid: usize, fab: &mut Fab, coarse: &[Fab]) {
        for op in &self.per_grid[grid] {
            fill_from_coarse(fab, &op.region, &coarse[op.src], op.shift, self.ratio);
        }
    }
}

/// Ghost cells of fine grid `fi` that no same-level valid box, and no
/// periodic image of one, covers — what the exchange leaves unfilled.
fn unfilled_ghost_regions(
    fine: &BoxLayout,
    domain: &ProblemDomain,
    nghost: i64,
    fi: usize,
) -> Vec<IBox> {
    let valid = fine.ibox(fi);
    let grown = domain.clip(&valid.grow(nghost));
    let mut regions = grown.subtract(&valid);
    for g in fine.grids() {
        let mut cover = vec![g.bx];
        for r in &regions {
            for shift in domain.periodic_shifts(&g.bx, r) {
                cover.push(g.bx.shift(shift));
            }
        }
        for c in cover {
            regions = regions.iter().flat_map(|r| r.subtract(&c)).collect();
        }
    }
    regions
}

/// Piecewise-constant prolongation onto `region` of `fine`: cell `iv` takes
/// every component of the coarse cell `(iv + shift).coarsen(ratio)`, which
/// must lie in `coarse`'s box. One coarse row feeds each fine row, `ratio`
/// cells at a time.
pub(crate) fn fill_from_coarse(
    fine: &mut Fab,
    region: &IBox,
    coarse: &Fab,
    shift: IntVect,
    ratio: i64,
) {
    assert_eq!(fine.ncomp(), coarse.ncomp(), "component count mismatch");
    let nx = region.size()[0] as usize;
    let (fine_cells, coarse_cells) = (fine.comp_stride(), coarse.comp_stride());
    let x0 = region.lo()[0] + shift[0];
    // Fine cells left under the first coarse cell of a row.
    let first_run = (ratio - x0.rem_euclid(ratio)) as usize;
    let src = coarse.as_slice();
    for comp in 0..fine.ncomp() {
        for z in region.lo()[2]..=region.hi()[2] {
            for y in region.lo()[1]..=region.hi()[1] {
                let d0 = fine.cell_offset(IntVect::new(region.lo()[0], y, z)) + comp * fine_cells;
                let under = IntVect::new(x0, y + shift[1], z + shift[2]).coarsen(ratio);
                let mut s = coarse.cell_offset(under) + comp * coarse_cells;
                let row = &mut fine.as_mut_slice()[d0..d0 + nx];
                let (head, rest) = row.split_at_mut(first_run.min(nx));
                head.fill(src[s]);
                for run in rest.chunks_mut(ratio as usize) {
                    s += 1;
                    run.fill(src[s]);
                }
            }
        }
    }
}

/// Conservative restriction onto `region` of `coarse`: each cell becomes the
/// sum of the `ratio³` fine cells it covers — added in Fortran order, x
/// fastest — times `inv`.
pub(crate) fn average_from_fine(coarse: &mut Fab, region: &IBox, fine: &Fab, ratio: i64, inv: f64) {
    assert_eq!(fine.ncomp(), coarse.ncomp(), "component count mismatch");
    let r = ratio as usize;
    let nx = region.size()[0] as usize;
    let (fine_cells, coarse_cells) = (fine.comp_stride(), coarse.comp_stride());
    let src = fine.as_slice();
    let mut rows = Vec::with_capacity(r * r);
    for comp in 0..coarse.ncomp() {
        for z in region.lo()[2]..=region.hi()[2] {
            for y in region.lo()[1]..=region.hi()[1] {
                let lo = IntVect::new(region.lo()[0], y, z);
                let d0 = coarse.cell_offset(lo) + comp * coarse_cells;
                let corner = lo.refine(ratio);
                rows.clear();
                for dz in 0..ratio {
                    for dy in 0..ratio {
                        let at = IntVect::new(corner[0], corner[1] + dy, corner[2] + dz);
                        rows.push(fine.cell_offset(at) + comp * fine_cells);
                    }
                }
                let dst = &mut coarse.as_mut_slice()[d0..d0 + nx];
                for (k, out) in dst.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for &row in &rows {
                        for v in &src[row + k * r..row + (k + 1) * r] {
                            acc += v;
                        }
                    }
                    *out = acc * inv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(bx: IBox, ncomp: usize) -> Fab {
        let mut fab = Fab::new(bx, ncomp);
        for (i, v) in fab.as_mut_slice().iter_mut().enumerate() {
            *v = i as f64;
        }
        fab
    }

    #[test]
    fn fill_reads_the_coarse_cell_under_each_shifted_fine_cell() {
        // Regions that start and end mid coarse cell, negative indices, a
        // shift that is not a multiple of the ratio.
        let coarse = numbered(IBox::new(IntVect::splat(-3), IntVect::splat(4)), 2);
        for ratio in [2, 3, 4] {
            for (lo, hi, shift) in [
                ([-3, -2, 1], [5, 1, 2], [0, 0, 0]),
                ([1, 0, 0], [1, 3, 0], [-5, 2, 7]),
                ([-4, -4, -4], [-1, -3, -4], [3, 1, 0]),
            ] {
                let (region, shift) = (IBox::new(IntVect(lo), IntVect(hi)), IntVect(shift));
                let mut fine = Fab::filled(region.grow(1), 2, -1.0);
                fill_from_coarse(&mut fine, &region, &coarse, shift, ratio);
                for comp in 0..2 {
                    for iv in fine.ibox().cells() {
                        let want = if region.contains(iv) {
                            coarse.get((iv + shift).coarsen(ratio), comp)
                        } else {
                            -1.0
                        };
                        assert_eq!(fine.get(iv, comp), want, "ratio {ratio} at {iv:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn average_sums_the_covered_fine_cells_in_fortran_order() {
        for ratio in [2i64, 3] {
            let region = IBox::new(IntVect::new(-2, 0, 1), IntVect::new(1, 1, 1));
            let mut fine = numbered(region.refine(ratio).grow(1), 2);
            for v in fine.as_mut_slice() {
                *v = 1.0 / (*v + 3.0);
            }
            let inv = 1.0 / ratio.pow(3) as f64;
            let mut coarse = Fab::filled(region.grow(1), 2, -1.0);
            average_from_fine(&mut coarse, &region, &fine, ratio, inv);
            for comp in 0..2 {
                for iv in coarse.ibox().cells() {
                    let want = if region.contains(iv) {
                        let mut acc = 0.0;
                        for f in IBox::single(iv).refine(ratio).cells() {
                            acc += fine.get(f, comp);
                        }
                        acc * inv
                    } else {
                        -1.0
                    };
                    assert_eq!(coarse.get(iv, comp).to_bits(), want.to_bits());
                }
            }
        }
    }
}
