//! `LevelData`: distributed data over a `BoxLayout` with ghost cells and a
//! ghost-exchange operation (Chombo's `LevelData<FArrayBox>` + `exchange()`).

use crate::boxes::IBox;
use crate::coarse_fine::CoarseFill;
use crate::copier::{self, ExchangeCopier};
use crate::domain::ProblemDomain;
use crate::fab::Fab;
use crate::layout::{BoxLayout, CopyOp};

/// Cell data on every grid of a layout, each fab grown by `nghost` cells.
#[derive(Debug)]
pub struct LevelData {
    layout: BoxLayout,
    domain: ProblemDomain,
    nghost: i64,
    ncomp: usize,
    fabs: Vec<Fab>,
    /// Cached exchange schedule, built lazily on the first [`Self::exchange`]
    /// and revalidated against (layout, domain, nghost, ncomp) on every use.
    /// Regridding replaces the whole `LevelData`, which drops the cache.
    copier: Option<ExchangeCopier>,
    /// Cached coarse–fine ghost schedule, kept like `copier` and revalidated
    /// against both levels' layouts on every [`Self::fill_ghosts_from_coarse`].
    coarse_fill: Option<CoarseFill>,
}

impl LevelData {
    /// Allocate zero-initialized data for every grid of `layout`.
    pub fn new(layout: BoxLayout, domain: ProblemDomain, ncomp: usize, nghost: i64) -> Self {
        assert!(nghost >= 0);
        let fabs = layout
            .grids()
            .iter()
            .map(|g| Fab::new(domain.clip(&g.bx.grow(nghost)), ncomp))
            .collect();
        LevelData {
            layout,
            domain,
            nghost,
            ncomp,
            fabs,
            copier: None,
            coarse_fill: None,
        }
    }

    /// The underlying layout.
    pub fn layout(&self) -> &BoxLayout {
        &self.layout
    }

    /// The level's problem domain.
    pub fn domain(&self) -> &ProblemDomain {
        &self.domain
    }

    /// Ghost width.
    pub fn nghost(&self) -> i64 {
        self.nghost
    }

    /// Components per cell.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Number of grids.
    pub fn len(&self) -> usize {
        self.fabs.len()
    }

    /// True if there are no grids.
    pub fn is_empty(&self) -> bool {
        self.fabs.is_empty()
    }

    /// The fab of grid `i` (covers the grown, domain-clipped box).
    pub fn fab(&self, i: usize) -> &Fab {
        &self.fabs[i]
    }

    /// Mutable fab of grid `i`.
    pub fn fab_mut(&mut self, i: usize) -> &mut Fab {
        &mut self.fabs[i]
    }

    /// The valid (un-grown) region of grid `i`.
    pub fn valid_box(&self, i: usize) -> IBox {
        self.layout.ibox(i)
    }

    /// Total payload bytes across all fabs.
    pub fn bytes(&self) -> u64 {
        self.fabs.iter().map(|f| f.bytes()).sum()
    }

    /// Payload bytes held by each rank.
    pub fn bytes_per_rank(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.layout.nranks()];
        for (i, f) in self.fabs.iter().enumerate() {
            v[self.layout.rank(i)] += f.bytes();
        }
        v
    }

    /// Fill all fabs (valid + ghost) with `v`.
    pub fn fill(&mut self, v: f64) {
        for f in &mut self.fabs {
            f.fill(v);
        }
    }

    /// Apply `f(valid_box, fab)` to every grid, mutably.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(IBox, &mut Fab)) {
        for i in 0..self.fabs.len() {
            let vb = self.layout.ibox(i);
            f(vb, &mut self.fabs[i]);
        }
    }

    /// Apply `f(grid_index, valid_box, fab)` to every grid in parallel.
    ///
    /// Grids are disjoint, so per-grid kernels (solver sweeps, extraction,
    /// reduction) are embarrassingly parallel; this is the in-node
    /// parallelism of the native execution mode. Grids are handed to the
    /// pool largest first: a refined level mixes grids of a few hundred and
    /// a hundred thousand cells, and the big one claimed last would leave
    /// every other thread idle behind it.
    pub fn par_for_each_mut(&mut self, f: impl Fn(usize, IBox, &mut Fab) + Sync) {
        use rayon::prelude::*;
        let mut tasks: Vec<(usize, IBox, &mut Fab)> = self
            .fabs
            .iter_mut()
            .enumerate()
            .map(|(i, fab)| (i, self.layout.ibox(i), fab))
            .collect();
        tasks.sort_by_key(|t| std::cmp::Reverse(t.1.num_cells()));
        tasks
            .par_iter_mut()
            .for_each(|(i, valid, fab)| f(*i, *valid, fab));
    }

    /// Compute the list of copies needed to fill every grid's ghost region
    /// from other grids' valid regions, including periodic images.
    pub fn exchange_plan(&self) -> Vec<CopyOp> {
        copier::exchange_plan(&self.layout, &self.domain, self.nghost)
    }

    /// Fill ghost cells from neighboring grids' valid data (and periodic
    /// images). Returns the number of bytes logically moved between ranks
    /// (copies whose src and dst grids live on different ranks), which the
    /// platform model charges as network traffic.
    ///
    /// The exchange schedule is cached: the first call builds an
    /// [`ExchangeCopier`] and later calls reuse it as long as the
    /// (layout, domain, nghost, ncomp) configuration is unchanged, skipping
    /// the O(n_grids²) replanning entirely. See [`Self::exchange_uncached`]
    /// for the replanning baseline.
    pub fn exchange(&mut self) -> u64 {
        let mut copier = match self.copier.take() {
            Some(c) if c.matches(&self.layout, &self.domain, self.nghost, self.ncomp) => c,
            _ => ExchangeCopier::build(&self.layout, &self.domain, self.nghost, self.ncomp),
        };
        let cross_rank_bytes = copier.apply(&mut self.fabs);
        self.copier = Some(copier);
        cross_rank_bytes
    }

    /// Fill the ghost cells the exchange leaves — those no same-level grid
    /// or periodic image covers — with the value of the cell of `coarse`
    /// (the next coarser level, `ratio` times coarser) under each.
    pub(crate) fn fill_ghosts_from_coarse(&mut self, coarse: &LevelData, ratio: i64) {
        if self.nghost == 0 {
            return;
        }
        let plan = match self.coarse_fill.take() {
            Some(p)
                if p.matches(
                    &self.layout,
                    &self.domain,
                    self.nghost,
                    &coarse.layout,
                    ratio,
                ) =>
            {
                p
            }
            _ => CoarseFill::build(
                &self.layout,
                &self.domain,
                self.nghost,
                &coarse.layout,
                ratio,
            ),
        };
        self.par_for_each_mut(|i, _, fab| plan.apply(i, fab, &coarse.fabs));
        self.coarse_fill = Some(plan);
    }

    /// [`Self::exchange`] without the cached schedule: replans on every call
    /// and applies the ops one by one. Kept as the reference implementation
    /// (property tests compare the cached path against it) and as the
    /// baseline for the ghost-exchange benchmarks.
    pub fn exchange_uncached(&mut self) -> u64 {
        let plan = self.exchange_plan();
        let mut cross_rank_bytes = 0u64;
        // Region-sized staging buffer for periodic self-copies (ghost and
        // valid regions of one fab are disjoint, but borrowck can't see
        // that). Reused across ops; never clones the whole fab.
        let mut scratch: Vec<f64> = Vec::new();
        for op in plan {
            if op.src == op.dst {
                let n = op.region.num_cells() as usize * self.ncomp;
                scratch.resize(n.max(scratch.len()), 0.0);
                self.fabs[op.src].pack_region(&op.region, op.shift, &mut scratch[..n]);
                self.fabs[op.dst].unpack_region(&op.region, &scratch[..n]);
            } else {
                let (a, b) = split_two(&mut self.fabs, op.src, op.dst);
                b.copy_from_shifted(a, &op.region, op.shift);
            }
            if self.layout.rank(op.src) != self.layout.rank(op.dst) {
                cross_rank_bytes +=
                    op.region.num_cells() * self.ncomp as u64 * std::mem::size_of::<f64>() as u64;
            }
        }
        cross_rank_bytes
    }

    /// Copy valid-region data from another `LevelData` on a (possibly
    /// different) layout over the same domain index space.
    pub fn copy_from(&mut self, other: &LevelData) {
        assert_eq!(self.ncomp, other.ncomp);
        for i in 0..self.fabs.len() {
            let dst_valid = self.layout.ibox(i);
            for j in 0..other.fabs.len() {
                let src_valid = other.layout.ibox(j);
                let overlap = dst_valid.intersect(&src_valid);
                if !overlap.is_empty() {
                    self.fabs[i].copy_from(&other.fabs[j], &overlap);
                }
            }
        }
    }

    /// Max of a component over all valid regions.
    pub fn max(&self, comp: usize) -> f64 {
        (0..self.len())
            .map(|i| self.fabs[i].max_on(&self.layout.ibox(i), comp))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Min of a component over all valid regions.
    pub fn min(&self, comp: usize) -> f64 {
        (0..self.len())
            .map(|i| self.fabs[i].min_on(&self.layout.ibox(i), comp))
            .fold(f64::INFINITY, f64::min)
    }

    /// Sum of a component over all valid regions (a conserved total).
    pub fn sum(&self, comp: usize) -> f64 {
        (0..self.len())
            .map(|i| self.fabs[i].sum_on(&self.layout.ibox(i), comp))
            .sum()
    }
}

/// Split a mutable slice into two distinct element references.
fn split_two<T>(v: &mut [T], a: usize, b: usize) -> (&T, &mut T) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intvect::IntVect;
    use crate::layout::Grid;

    fn two_grid_level(periodic: bool) -> LevelData {
        // Domain [0,8)^3 split into x-halves.
        let dom_box = IBox::cube(8);
        let domain = if periodic {
            ProblemDomain::periodic(dom_box)
        } else {
            ProblemDomain::new(dom_box)
        };
        let layout = BoxLayout::new(
            vec![
                Grid {
                    bx: IBox::new(IntVect::ZERO, IntVect::new(3, 7, 7)),
                    rank: 0,
                },
                Grid {
                    bx: IBox::new(IntVect::new(4, 0, 0), IntVect::new(7, 7, 7)),
                    rank: 1,
                },
            ],
            2,
        );
        LevelData::new(layout, domain, 1, 1)
    }

    /// Fill each grid's valid region with a function of the global index.
    fn fill_coords(ld: &mut LevelData) {
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                fab.set(iv, 0, (iv[0] * 100 + iv[1] * 10 + iv[2]) as f64);
            }
        });
    }

    fn coord_value(iv: IntVect) -> f64 {
        (iv[0] * 100 + iv[1] * 10 + iv[2]) as f64
    }

    #[test]
    fn exchange_fills_interior_ghosts() {
        let mut ld = two_grid_level(false);
        fill_coords(&mut ld);
        let moved = ld.exchange();
        assert!(moved > 0);
        // Grid 0's ghost layer at x=4 should hold grid 1's values.
        let ghost = IBox::new(IntVect::new(4, 0, 0), IntVect::new(4, 7, 7));
        for iv in ghost.cells() {
            assert_eq!(ld.fab(0).get(iv, 0), coord_value(iv), "at {iv:?}");
        }
        // And vice versa at x=3 for grid 1.
        let ghost = IBox::new(IntVect::new(3, 0, 0), IntVect::new(3, 7, 7));
        for iv in ghost.cells() {
            assert_eq!(ld.fab(1).get(iv, 0), coord_value(iv), "at {iv:?}");
        }
    }

    #[test]
    fn nonperiodic_fabs_are_clipped_at_domain() {
        let ld = two_grid_level(false);
        // Grid 0's fab shouldn't extend below the domain.
        assert_eq!(ld.fab(0).ibox().lo(), IntVect::ZERO);
        // But extends one ghost into grid 1.
        assert_eq!(ld.fab(0).ibox().hi(), IntVect::new(4, 7, 7));
    }

    #[test]
    fn periodic_exchange_wraps() {
        let mut ld = two_grid_level(true);
        fill_coords(&mut ld);
        ld.exchange();
        // Grid 0's ghost at x=-1 should hold wrapped values from x=7 (grid 1).
        let ghost = IBox::new(IntVect::new(-1, 0, 0), IntVect::new(-1, 7, 7));
        for iv in ghost.cells() {
            let wrapped = IntVect::new(7, iv[1], iv[2]);
            assert_eq!(ld.fab(0).get(iv, 0), coord_value(wrapped), "at {iv:?}");
        }
        // y ghosts of grid 0 wrap within... grid 0 itself (self periodic copy).
        let ghost = IBox::new(IntVect::new(0, -1, 0), IntVect::new(3, -1, 7));
        for iv in ghost.cells() {
            let wrapped = IntVect::new(iv[0], 7, iv[2]);
            assert_eq!(ld.fab(0).get(iv, 0), coord_value(wrapped), "at {iv:?}");
        }
    }

    #[test]
    fn exchange_reports_cross_rank_traffic_only() {
        // Same layout but both grids on one rank => zero reported bytes.
        let dom_box = IBox::cube(8);
        let domain = ProblemDomain::new(dom_box);
        let layout = BoxLayout::new(
            vec![
                Grid {
                    bx: IBox::new(IntVect::ZERO, IntVect::new(3, 7, 7)),
                    rank: 0,
                },
                Grid {
                    bx: IBox::new(IntVect::new(4, 0, 0), IntVect::new(7, 7, 7)),
                    rank: 0,
                },
            ],
            1,
        );
        let mut ld = LevelData::new(layout, domain, 1, 1);
        fill_coords(&mut ld);
        assert_eq!(ld.exchange(), 0);
    }

    #[test]
    fn copy_between_layouts() {
        let dom_box = IBox::cube(8);
        let domain = ProblemDomain::new(dom_box);
        let mut a = LevelData::new(BoxLayout::decompose(&domain, 4, 1), domain, 1, 0);
        fill_coords(&mut a);
        let mut b = LevelData::new(BoxLayout::decompose(&domain, 8, 1), domain, 1, 0);
        b.copy_from(&a);
        for i in 0..b.len() {
            let vb = b.valid_box(i);
            for iv in vb.cells() {
                assert_eq!(b.fab(i).get(iv, 0), coord_value(iv));
            }
        }
    }

    #[test]
    fn reductions_over_valid_regions() {
        let mut ld = two_grid_level(false);
        ld.fill(2.0);
        assert_eq!(ld.sum(0), 2.0 * 8.0 * 8.0 * 8.0);
        assert_eq!(ld.max(0), 2.0);
        assert_eq!(ld.min(0), 2.0);
    }

    #[test]
    fn bytes_accounting_per_rank() {
        let ld = two_grid_level(false);
        let per = ld.bytes_per_rank();
        assert_eq!(per.len(), 2);
        assert_eq!(per.iter().sum::<u64>(), ld.bytes());
        // both fabs are 5x8x8 after clipping
        assert_eq!(per[0], per[1]);
    }
}
