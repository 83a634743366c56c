//! The AMR hierarchy: a stack of refined levels with regridding,
//! coarse→fine interpolation and fine→coarse averaging.
//!
//! Mirrors the parts of Chombo's `AMR`/`AMRLevel` machinery that the paper's
//! workflow exercises: dynamic refinement driven by tags, proper nesting,
//! and conservative data transfer between levels.

use crate::balance::{assign_ranks, Balancer};
use crate::boxes::IBox;
use crate::cluster::{cluster_tags, make_disjoint, ClusterParams};
use crate::coarse_fine::{average_from_fine, fill_from_coarse};
use crate::domain::ProblemDomain;
use crate::intvect::{IntVect, DIM};
use crate::layout::{BoxLayout, Grid};
use crate::level_data::LevelData;
use crate::tagging::IntVectSet;

/// Static configuration of an AMR hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyConfig {
    /// Maximum number of levels (≥ 1; level 0 is the base grid).
    pub max_levels: usize,
    /// Refinement ratio between consecutive levels.
    pub ref_ratio: i64,
    /// Grid-generation parameters.
    pub cluster: ClusterParams,
    /// Tags are grown by this many cells before clustering.
    pub tag_buffer: i64,
    /// Number of ranks the hierarchy is distributed over.
    pub nranks: usize,
    /// Rank-assignment strategy.
    pub balancer: Balancer,
    /// Components per cell.
    pub ncomp: usize,
    /// Ghost width of every level's data.
    pub nghost: i64,
    /// Max box side at level 0 decomposition.
    pub base_max_box: i64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            max_levels: 3,
            ref_ratio: 2,
            cluster: ClusterParams::default(),
            tag_buffer: 1,
            nranks: 1,
            balancer: Balancer::Knapsack,
            ncomp: 1,
            nghost: 1,
            base_max_box: 16,
        }
    }
}

/// A dynamic stack of refined grid levels carrying cell data.
#[derive(Debug)]
pub struct AmrHierarchy {
    config: HierarchyConfig,
    domains: Vec<ProblemDomain>,
    levels: Vec<LevelData>,
}

impl AmrHierarchy {
    /// Create a hierarchy with only the base level allocated.
    pub fn new(base_domain: ProblemDomain, config: HierarchyConfig) -> Self {
        assert!(config.max_levels >= 1);
        assert!(config.ref_ratio >= 2);
        let mut domains = vec![base_domain];
        for _ in 1..config.max_levels {
            domains.push(domains.last().expect("non-empty").refine(config.ref_ratio));
        }
        let base_boxes: Vec<IBox> = BoxLayout::decompose(&base_domain, config.base_max_box, 1)
            .grids()
            .iter()
            .map(|g| g.bx)
            .collect();
        let ranks = assign_ranks(&base_boxes, config.nranks, config.balancer);
        let layout = BoxLayout::new(
            base_boxes
                .into_iter()
                .zip(ranks)
                .map(|(bx, rank)| Grid { bx, rank })
                .collect(),
            config.nranks,
        );
        let base = LevelData::new(layout, base_domain, config.ncomp, config.nghost);
        AmrHierarchy {
            config,
            domains,
            levels: vec![base],
        }
    }

    /// Rebuild a hierarchy from existing level data (checkpoint restart):
    /// the base domain comes from `levels[0]`, finer domains are refined
    /// successively, and the config's `ncomp`/`nghost`/`max_levels` are
    /// forced consistent with the data.
    pub fn from_levels(mut config: HierarchyConfig, levels: Vec<LevelData>) -> Self {
        assert!(!levels.is_empty(), "need at least the base level");
        config.max_levels = config.max_levels.max(levels.len());
        config.ncomp = levels[0].ncomp();
        config.nghost = levels[0].nghost();
        let base_domain = *levels[0].domain();
        let mut domains = vec![base_domain];
        for _ in 1..config.max_levels {
            domains.push(domains.last().expect("non-empty").refine(config.ref_ratio));
        }
        for (l, ld) in levels.iter().enumerate() {
            assert_eq!(
                ld.domain().domain_box(),
                domains[l].domain_box(),
                "level {l} domain inconsistent with the refinement ratio"
            );
        }
        AmrHierarchy {
            config,
            domains,
            levels,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Number of currently allocated levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Refinement ratio between level `l` and `l+1`.
    pub fn ref_ratio(&self) -> i64 {
        self.config.ref_ratio
    }

    /// The problem domain of level `l`.
    pub fn domain(&self, l: usize) -> &ProblemDomain {
        &self.domains[l]
    }

    /// The data of level `l`.
    pub fn level(&self, l: usize) -> &LevelData {
        &self.levels[l]
    }

    /// Mutable data of level `l`.
    pub fn level_mut(&mut self, l: usize) -> &mut LevelData {
        &mut self.levels[l]
    }

    /// Total cells over all levels.
    pub fn total_cells(&self) -> u64 {
        self.levels.iter().map(|l| l.layout().total_cells()).sum()
    }

    /// Total payload bytes over all levels.
    pub fn total_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.bytes()).sum()
    }

    /// Payload bytes per rank, summed over levels.
    pub fn bytes_per_rank(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.config.nranks];
        for l in &self.levels {
            for (r, b) in l.bytes_per_rank().into_iter().enumerate() {
                v[r] += b;
            }
        }
        v
    }

    /// Regenerate levels 1..max from per-level tags (tags are in each
    /// *existing* level's own index space; `tags.len()` must equal
    /// `num_levels()`, tags on the finest allowed level are ignored).
    ///
    /// Data on re-gridded levels is interpolated from the coarser level and
    /// overwritten with old fine data where the old and new fine grids
    /// overlap (the standard Berger–Oliger regrid fill).
    pub fn regrid(&mut self, tags: &[IntVectSet]) {
        assert!(
            !tags.is_empty() && tags.len() <= self.levels.len(),
            "need 1..=num_levels tag sets, got {}",
            tags.len()
        );
        let max_new = self.config.max_levels;
        // Build new layouts top-down from level 1.
        let mut new_levels: Vec<Option<BoxLayout>> = vec![None; max_new];
        for l in 0..tags.len().min(max_new - 1) {
            let t = &tags[l];
            if t.is_empty() {
                break; // no finer levels beyond here
            }
            let buffered = t.grow(self.config.tag_buffer, &self.domains[l].domain_box());
            let coarse_boxes = cluster_tags(
                &buffered,
                &self.domains[l].domain_box(),
                &self.config.cluster,
            );
            // Proper nesting: fine grids must live inside the current level's
            // valid region (for l = 0 that's the whole domain).
            let nested = if l == 0 {
                coarse_boxes
            } else {
                // The cluster boxes and the parent level's grids are both in
                // level-l index space already.
                let parent_union: Vec<IBox> = match &new_levels[l] {
                    Some(layout) => layout.grids().iter().map(|g| g.bx).collect(),
                    None => self.levels[l]
                        .layout()
                        .grids()
                        .iter()
                        .map(|g| g.bx)
                        .collect(),
                };
                intersect_with_union(&coarse_boxes, &parent_union)
            };
            if nested.is_empty() {
                break;
            }
            let fine_boxes: Vec<IBox> = nested
                .iter()
                .map(|b| b.refine(self.config.ref_ratio))
                .collect();
            let ranks = assign_ranks(&fine_boxes, self.config.nranks, self.config.balancer);
            let layout = BoxLayout::new(
                fine_boxes
                    .into_iter()
                    .zip(ranks)
                    .map(|(bx, rank)| Grid { bx, rank })
                    .collect(),
                self.config.nranks,
            );
            new_levels[l + 1] = Some(layout);
        }

        // Allocate and fill new level data. Building fresh `LevelData`s is
        // also what invalidates each level's cached `ExchangeCopier`: the
        // cache lives inside the `LevelData` and dies with it. Level 0 is
        // moved, not rebuilt — its layout never changes across a regrid, so
        // its cached exchange schedule stays valid (and `exchange()`
        // revalidates against the layout on every call regardless).
        let mut rebuilt: Vec<LevelData> = Vec::with_capacity(max_new);
        rebuilt.push(std::mem::replace(
            &mut self.levels[0],
            LevelData::new(BoxLayout::default_empty(), self.domains[0], 1, 0),
        ));
        for (l, maybe_layout) in new_levels.into_iter().enumerate().skip(1) {
            let Some(layout) = maybe_layout else { break };
            let mut data = LevelData::new(
                layout,
                self.domains[l],
                self.config.ncomp,
                self.config.nghost,
            );
            // Fill by interpolation from the (already rebuilt) coarser level.
            interpolate_to_fine(&rebuilt[l - 1], &mut data, self.config.ref_ratio);
            // Overwrite with old data where available.
            if l < self.levels.len() {
                data.copy_from(&self.levels[l]);
            }
            rebuilt.push(data);
        }
        self.levels = rebuilt;
    }

    /// Conservatively average each fine level down onto its parent.
    pub fn average_down(&mut self) {
        for l in (1..self.levels.len()).rev() {
            let (coarse, fine) = split_pair(&mut self.levels, l - 1, l);
            average_to_coarse(fine, coarse, self.config.ref_ratio);
        }
    }

    /// Fill fine-level ghost cells: first from same-level neighbors, then
    /// remaining ghosts by interpolation from the coarser level.
    /// Returns cross-rank bytes moved by the same-level exchanges.
    pub fn fill_ghosts(&mut self) -> u64 {
        let mut moved = 0;
        for l in 0..self.levels.len() {
            moved += self.levels[l].exchange();
            if l > 0 {
                let (coarse, fine) = split_pair(&mut self.levels, l - 1, l);
                interpolate_ghosts_from_coarse(coarse, fine, self.config.ref_ratio);
            }
        }
        moved
    }

    /// The sum of `comp` over the composite grid: coarse cells covered by a
    /// finer level are excluded (their mass is counted on the fine level,
    /// scaled by cell volume).
    pub fn composite_sum(&self, comp: usize) -> f64 {
        let mut total = 0.0;
        let r = self.config.ref_ratio;
        for l in 0..self.levels.len() {
            // Cell volume relative to level 0.
            let vol = 1.0 / (r.pow(l as u32 * DIM as u32) as f64);
            let finer: Option<Vec<IBox>> = self
                .levels
                .get(l + 1)
                .map(|f| f.layout().grids().iter().map(|g| g.bx.coarsen(r)).collect());
            for i in 0..self.levels[l].len() {
                let valid = self.levels[l].valid_box(i);
                let uncovered: Vec<IBox> = match &finer {
                    None => vec![valid],
                    Some(cover) => {
                        let mut rem = vec![valid];
                        for c in cover {
                            let mut next = Vec::new();
                            for piece in rem {
                                next.extend(piece.subtract(c));
                            }
                            rem = next;
                        }
                        rem
                    }
                };
                for b in uncovered {
                    total += self.levels[l].fab(i).sum_on(&b, comp) * vol;
                }
            }
        }
        total
    }
}

// Internal helper so regrid can temporarily take level 0 out.
trait EmptyLayout {
    fn default_empty() -> BoxLayout;
}
impl EmptyLayout for BoxLayout {
    fn default_empty() -> BoxLayout {
        BoxLayout::new(Vec::new(), 1)
    }
}

/// Intersect each box with a union of boxes, producing disjoint pieces.
fn intersect_with_union(boxes: &[IBox], union: &[IBox]) -> Vec<IBox> {
    let mut out = Vec::new();
    for b in boxes {
        for u in union {
            let i = b.intersect(u);
            if !i.is_empty() {
                out.push(i);
            }
        }
    }
    make_disjoint(out)
}

fn split_pair<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert!(a < b);
    let (lo, hi) = v.split_at_mut(b);
    (&mut lo[a], &mut hi[0])
}

/// Piecewise-constant interpolation of coarse data onto the whole fine level
/// (valid regions), one fine grid per pool task.
pub fn interpolate_to_fine(coarse: &LevelData, fine: &mut LevelData, ratio: i64) {
    assert_eq!(coarse.ncomp(), fine.ncomp());
    fine.par_for_each_mut(|_, fvalid, ffab| {
        for ci in 0..coarse.len() {
            let under = coarse.valid_box(ci).refine(ratio).intersect(&fvalid);
            if !under.is_empty() {
                fill_from_coarse(ffab, &under, coarse.fab(ci), IntVect::ZERO, ratio);
            }
        }
    });
}

/// Fill fine ghost cells not covered by same-level data (including its
/// periodic images) with piecewise-constant coarse values — the
/// coarse–fine boundary interpolation. Periodic ghost cells read the
/// wrapped coarse cell. The regions are cached on the fine level (see
/// [`crate::coarse_fine`]); the fill runs one fine grid per pool task.
pub fn interpolate_ghosts_from_coarse(coarse: &LevelData, fine: &mut LevelData, ratio: i64) {
    fine.fill_ghosts_from_coarse(coarse, ratio);
}

/// Conservative averaging of fine data onto the coarse cells it covers,
/// one coarse grid per pool task.
pub fn average_to_coarse(fine: &LevelData, coarse: &mut LevelData, ratio: i64) {
    assert_eq!(coarse.ncomp(), fine.ncomp());
    let inv = 1.0 / (ratio.pow(DIM as u32) as f64);
    coarse.par_for_each_mut(|_, cvalid, cfab| {
        for fi in 0..fine.len() {
            let covered = fine.valid_box(fi).coarsen(ratio).intersect(&cvalid);
            if !covered.is_empty() {
                average_from_fine(cfab, &covered, fine.fab(fi), ratio, inv);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagging::IntVectSet;

    fn hier(max_levels: usize) -> AmrHierarchy {
        let dom = ProblemDomain::new(IBox::cube(16));
        AmrHierarchy::new(
            dom,
            HierarchyConfig {
                max_levels,
                ref_ratio: 2,
                base_max_box: 8,
                nghost: 1,
                ..Default::default()
            },
        )
    }

    fn tag_center(h: &AmrHierarchy, l: usize) -> IntVectSet {
        let mut t = IntVectSet::new();
        let db = h.domain(l).domain_box();
        let c = (db.lo() + db.hi()) * 1 / 2;
        t.insert_box(&IBox::single(IntVect::new(c[0], c[1], c[2])).grow(1));
        t
    }

    #[test]
    fn new_hierarchy_has_base_only() {
        let h = hier(3);
        assert_eq!(h.num_levels(), 1);
        assert_eq!(h.level(0).layout().total_cells(), 16 * 16 * 16);
    }

    #[test]
    fn regrid_creates_fine_level_covering_tags() {
        let mut h = hier(2);
        let tags = tag_center(&h, 0);
        h.regrid(std::slice::from_ref(&tags));
        assert_eq!(h.num_levels(), 2);
        // every tag, refined, is inside the fine level
        for iv in tags.iter() {
            let fine_box = IBox::single(*iv).refine(2);
            let covered = h
                .level(1)
                .layout()
                .grids()
                .iter()
                .any(|g| g.bx.contains_box(&fine_box));
            assert!(covered, "tag {iv:?} not covered by fine level");
        }
    }

    #[test]
    fn regrid_interpolates_coarse_data() {
        let mut h = hier(2);
        h.level_mut(0).fill(3.5);
        let tags = tag_center(&h, 0);
        h.regrid(&[tags]);
        // fine level should be constant 3.5 (piecewise-constant interp)
        for i in 0..h.level(1).len() {
            let vb = h.level(1).valid_box(i);
            for iv in vb.cells() {
                assert_eq!(h.level(1).fab(i).get(iv, 0), 3.5);
            }
        }
    }

    #[test]
    fn regrid_preserves_old_fine_data_on_overlap() {
        let mut h = hier(2);
        h.level_mut(0).fill(1.0);
        let tags = tag_center(&h, 0);
        h.regrid(std::slice::from_ref(&tags));
        // stamp the fine level
        h.level_mut(1).fill(9.0);
        // regrid to the same tags: fine data must survive
        h.regrid(&[tags]);
        assert_eq!(h.num_levels(), 2);
        for i in 0..h.level(1).len() {
            let vb = h.level(1).valid_box(i);
            for iv in vb.cells() {
                assert_eq!(
                    h.level(1).fab(i).get(iv, 0),
                    9.0,
                    "lost fine data at {iv:?}"
                );
            }
        }
    }

    #[test]
    fn regrid_empty_tags_drops_fine_levels() {
        let mut h = hier(2);
        h.regrid(&[tag_center(&h, 0)]);
        assert_eq!(h.num_levels(), 2);
        h.regrid(&[IntVectSet::new(), IntVectSet::new()]);
        assert_eq!(h.num_levels(), 1);
    }

    #[test]
    fn average_down_is_conservative() {
        let mut h = hier(2);
        h.level_mut(0).fill(1.0);
        h.regrid(&[tag_center(&h, 0)]);
        // Put a bump on the fine level.
        let fine = h.level_mut(1);
        let vb = fine.valid_box(0);
        let fab = fine.fab_mut(0);
        for iv in vb.cells() {
            fab.set(iv, 0, 2.0);
        }
        let before = h.composite_sum(0);
        h.average_down();
        let after = h.composite_sum(0);
        assert!(
            (before - after).abs() < 1e-9 * before.abs().max(1.0),
            "average_down changed the composite sum: {before} -> {after}"
        );
    }

    #[test]
    fn composite_sum_excludes_covered_cells() {
        let mut h = hier(2);
        h.level_mut(0).fill(1.0);
        // Without refinement: sum = #cells * 1.
        assert!((h.composite_sum(0) - 4096.0).abs() < 1e-9);
        h.regrid(&[tag_center(&h, 0)]);
        h.level_mut(1).fill(1.0);
        // Composite of a constant field is invariant to refinement:
        // fine cells carry 1/r^3 volume each.
        assert!((h.composite_sum(0) - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn fill_ghosts_interpolates_at_coarse_fine_boundary() {
        let mut h = hier(2);
        h.level_mut(0).fill(4.0);
        h.regrid(&[tag_center(&h, 0)]);
        h.level_mut(1).fill(4.0);
        h.fill_ghosts();
        // Every ghost cell of the fine level inside the domain should be 4.0.
        let fine = h.level(1);
        for i in 0..fine.len() {
            let fb = fine.fab(i);
            for iv in fb.ibox().cells() {
                assert_eq!(fb.get(iv, 0), 4.0, "ghost at {iv:?} not filled");
            }
        }
    }

    #[test]
    fn three_level_nesting() {
        let mut h = hier(3);
        h.level_mut(0).fill(1.0);
        let t0 = tag_center(&h, 0);
        h.regrid(std::slice::from_ref(&t0));
        let t1 = tag_center(&h, 1);
        h.regrid(&[t0, t1]);
        assert_eq!(h.num_levels(), 3);
        // level 2 boxes, coarsened, must be inside level 1's union.
        let l1: Vec<IBox> = h.level(1).layout().grids().iter().map(|g| g.bx).collect();
        for g in h.level(2).layout().grids() {
            let c = g.bx.coarsen(2);
            let mut rem = vec![c];
            for u in &l1 {
                let mut next = Vec::new();
                for piece in rem {
                    next.extend(piece.subtract(u));
                }
                rem = next;
            }
            assert!(rem.is_empty(), "level-2 box {:?} escapes level 1", g.bx);
        }
    }
}
