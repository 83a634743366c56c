//! Cell tagging: marking cells that need refinement.
//!
//! Taggers inspect a `LevelData` and produce an [`IntVectSet`] of cells whose
//! local solution structure (gradients, undivided differences) exceeds a
//! threshold — the input to the Berger–Rigoutsos clusterer.

use crate::boxes::IBox;
use crate::intvect::{IntVect, DIM};
use crate::level_data::LevelData;
use std::collections::BTreeSet;

/// A set of tagged cells.
///
/// Backed by a `BTreeSet` so iteration is lexicographic in the cell index
/// — the Berger–Rigoutsos clusterer and anything downstream of [`Self::iter`]
/// see the same order on every run, on every platform.
#[derive(Clone, Debug, Default)]
pub struct IntVectSet {
    cells: BTreeSet<IntVect>,
}

impl IntVectSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one cell.
    pub fn insert(&mut self, iv: IntVect) {
        self.cells.insert(iv);
    }

    /// Insert every cell of a box.
    pub fn insert_box(&mut self, b: &IBox) {
        for iv in b.cells() {
            self.cells.insert(iv);
        }
    }

    /// Membership test.
    pub fn contains(&self, iv: IntVect) -> bool {
        self.cells.contains(&iv)
    }

    /// Number of tagged cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no cells are tagged.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterate over tagged cells in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &IntVect> {
        self.cells.iter()
    }

    /// The smallest box containing every tagged cell.
    pub fn bounding_box(&self) -> IBox {
        let mut it = self.cells.iter();
        let Some(&first) = it.next() else {
            return IBox::EMPTY;
        };
        let (lo, hi) = it.fold((first, first), |(lo, hi), &iv| (lo.min(iv), hi.max(iv)));
        IBox::new(lo, hi)
    }

    /// Union in-place.
    pub fn union(&mut self, other: &IntVectSet) {
        self.cells.extend(other.cells.iter().copied());
    }

    /// Grow the set by `n` cells in every direction (tag buffering), clipped
    /// to `within`.
    ///
    /// Neighbouring tags grow into mostly the same cells, so the grown cells
    /// are marked in a byte map over the tags' grown bounding box — laid out
    /// like the set is ordered, z fastest — and the set is built once from
    /// the marks, already sorted.
    pub fn grow(&self, n: i64, within: &IBox) -> IntVectSet {
        let bounds = self.bounding_box().grow(n).intersect(within);
        if bounds.is_empty() {
            return IntVectSet::new();
        }
        let size = bounds.size();
        let at = |iv: IntVect| {
            let r = iv - bounds.lo();
            ((r[0] * size[1] + r[1]) * size[2] + r[2]) as usize
        };
        let mut marked = vec![false; bounds.num_cells() as usize];
        for &iv in &self.cells {
            let b = IBox::single(iv).grow(n).intersect(&bounds);
            if b.is_empty() {
                continue;
            }
            let nz = b.size()[2] as usize;
            for x in b.lo()[0]..=b.hi()[0] {
                for y in b.lo()[1]..=b.hi()[1] {
                    let o = at(IntVect::new(x, y, b.lo()[2]));
                    marked[o..o + nz].fill(true);
                }
            }
        }
        let mut rows = marked.chunks(size[2] as usize);
        let mut out = Vec::new();
        for x in bounds.lo()[0]..=bounds.hi()[0] {
            for y in bounds.lo()[1]..=bounds.hi()[1] {
                let row = rows.next().expect("one row per (x, y)");
                let zs = (bounds.lo()[2]..).zip(row).filter(|(_, &m)| m);
                out.extend(zs.map(|(z, _)| IntVect::new(x, y, z)));
            }
        }
        out.into_iter().collect()
    }

    /// Retain only cells inside `b`.
    pub fn clip(&self, b: &IBox) -> IntVectSet {
        IntVectSet {
            cells: self
                .cells
                .iter()
                .copied()
                .filter(|&iv| b.contains(iv))
                .collect(),
        }
    }

    /// Coarsen every tag by `ratio` (deduplicating).
    pub fn coarsen(&self, ratio: i64) -> IntVectSet {
        IntVectSet {
            cells: self.cells.iter().map(|iv| iv.coarsen(ratio)).collect(),
        }
    }

    /// Count of tags inside `b`.
    pub fn count_in(&self, b: &IBox) -> usize {
        if (b.num_cells() as usize) < self.cells.len() {
            b.cells().filter(|&iv| self.contains(iv)).count()
        } else {
            self.cells.iter().filter(|&&iv| b.contains(iv)).count()
        }
    }
}

impl FromIterator<IntVect> for IntVectSet {
    fn from_iter<T: IntoIterator<Item = IntVect>>(iter: T) -> Self {
        IntVectSet {
            cells: iter.into_iter().collect(),
        }
    }
}

/// Tag cells where the undivided gradient of component `comp` exceeds
/// `threshold`. Requires at least one ghost cell (exchange first).
///
/// The undivided gradient at cell `i` is
/// `max_d |u[i+e_d] - u[i-e_d]| / 2` — Chombo's standard refinement
/// criterion for its example applications. Grids are scanned one per pool
/// task, each in row walks over its flat payload.
pub fn tag_undivided_gradient(data: &LevelData, comp: usize, threshold: f64) -> IntVectSet {
    assert!(data.nghost() >= 1, "gradient tagging needs ghost cells");
    let dom_box = data.domain().domain_box();
    tag_per_grid(data, |i, tags| {
        // Cells outside the domain (periodic layouts never have any) are
        // not tagged.
        let valid = data.valid_box(i).intersect(&dom_box);
        let fab = data.fab(i);
        let avail = fab.ibox();
        let u = fab.comp_slice(comp);
        let size = avail.size();
        let stride = [1, size[0] as usize, (size[0] * size[1]) as usize];
        for_each_row(&valid, |row, nx| {
            let o0 = fab.cell_offset(row);
            for k in 0..nx {
                let (o, mut iv) = (o0 + k, row);
                iv[0] += k as i64;
                let mut g: f64 = 0.0;
                for d in 0..DIM {
                    // One-sided at physical boundaries where no ghost exists.
                    let up = if iv[d] < avail.hi()[d] {
                        u[o + stride[d]]
                    } else {
                        u[o]
                    };
                    let um = if iv[d] > avail.lo()[d] {
                        u[o - stride[d]]
                    } else {
                        u[o]
                    };
                    g = g.max((up - um).abs() * 0.5);
                }
                if g > threshold {
                    tags.push(iv);
                }
            }
        });
    })
}

/// Tag cells whose value of `comp` exceeds `threshold` (simple amplitude
/// tagger, used by blob-tracking advection problems).
pub fn tag_amplitude(data: &LevelData, comp: usize, threshold: f64) -> IntVectSet {
    tag_per_grid(data, |i, tags| {
        let fab = data.fab(i);
        let u = fab.comp_slice(comp);
        for_each_row(&data.valid_box(i), |row, nx| {
            let o0 = fab.cell_offset(row);
            for k in (0..nx).filter(|k| u[o0 + k] > threshold) {
                tags.push(row + IntVect::basis(0) * k as i64);
            }
        });
    })
}

/// Run `scan(grid, &mut tags)` for every grid of `data` on the thread pool
/// and gather the tags. The set is ordered by cell index, so which thread
/// scanned which grid cannot show in it.
fn tag_per_grid(data: &LevelData, scan: impl Fn(usize, &mut Vec<IntVect>) + Sync) -> IntVectSet {
    use rayon::prelude::*;
    let per_grid: Vec<Vec<IntVect>> = (0..data.len())
        .into_par_iter()
        .map(|i| {
            let mut tags = Vec::new();
            scan(i, &mut tags);
            tags
        })
        .collect();
    per_grid.into_iter().flatten().collect()
}

/// Call `f(first cell, cell count)` for every x-row of `b`, y fastest.
fn for_each_row(b: &IBox, mut f: impl FnMut(IntVect, usize)) {
    if b.is_empty() {
        return;
    }
    let nx = b.size()[0] as usize;
    for z in b.lo()[2]..=b.hi()[2] {
        for y in b.lo()[1]..=b.hi()[1] {
            f(IntVect::new(b.lo()[0], y, z), nx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::ProblemDomain;
    use crate::layout::BoxLayout;

    #[test]
    fn set_operations() {
        let mut s = IntVectSet::new();
        s.insert(IntVect::new(1, 1, 1));
        s.insert(IntVect::new(3, 3, 3));
        s.insert(IntVect::new(1, 1, 1)); // dup
        assert_eq!(s.len(), 2);
        assert!(s.contains(IntVect::new(3, 3, 3)));
        assert_eq!(
            s.bounding_box(),
            IBox::new(IntVect::splat(1), IntVect::splat(3))
        );
    }

    #[test]
    fn grow_clips() {
        let mut s = IntVectSet::new();
        s.insert(IntVect::ZERO);
        let within = IBox::cube(4);
        let g = s.grow(1, &within);
        // 2x2x2 corner (clipped from 3x3x3)
        assert_eq!(g.len(), 8);
    }

    #[test]
    fn grow_equals_the_union_of_grown_tags() {
        let within = IBox::new(IntVect::new(-3, 0, 2), IntVect::new(9, 7, 12));
        let mut state = 7u64;
        let mut draw = |n: i64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64 % n
        };
        for n in 0..3 {
            // Clustered and stray tags, some outside `within`.
            let tags: IntVectSet = (0..40)
                .map(|_| IntVect::new(draw(16) - 5, draw(6) + draw(6) - 2, draw(14)))
                .collect();
            let mut want = IntVectSet::new();
            for &iv in tags.iter() {
                want.insert_box(&IBox::single(iv).grow(n).intersect(&within));
            }
            let got = tags.grow(n, &within);
            assert!(got.iter().eq(want.iter()), "grow by {n}");
        }
        assert!(IntVectSet::new().grow(1, &within).is_empty());
    }

    #[test]
    fn coarsen_dedups() {
        let mut s = IntVectSet::new();
        s.insert(IntVect::new(0, 0, 0));
        s.insert(IntVect::new(1, 1, 1));
        let c = s.coarsen(2);
        assert_eq!(c.len(), 1);
        assert!(c.contains(IntVect::ZERO));
    }

    #[test]
    fn gradient_tagger_finds_jump() {
        let domain = ProblemDomain::new(IBox::cube(8));
        let layout = BoxLayout::decompose(&domain, 8, 1);
        let mut ld = LevelData::new(layout, domain, 1, 1);
        // Step function: u = 1 for x >= 4 else 0.
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                fab.set(iv, 0, if iv[0] >= 4 { 1.0 } else { 0.0 });
            }
        });
        ld.exchange();
        let tags = tag_undivided_gradient(&ld, 0, 0.25);
        // Cells adjacent to the jump (x=3 and x=4) tag: |1-0|/2 = 0.5 > 0.25.
        assert_eq!(tags.len(), 2 * 8 * 8);
        assert!(tags.contains(IntVect::new(3, 0, 0)));
        assert!(tags.contains(IntVect::new(4, 5, 5)));
        assert!(!tags.contains(IntVect::new(0, 0, 0)));
    }

    #[test]
    fn amplitude_tagger() {
        let domain = ProblemDomain::new(IBox::cube(4));
        let layout = BoxLayout::decompose(&domain, 4, 1);
        let mut ld = LevelData::new(layout, domain, 1, 0);
        ld.fab_mut(0).set(IntVect::new(2, 2, 2), 0, 5.0);
        let tags = tag_amplitude(&ld, 0, 1.0);
        assert_eq!(tags.len(), 1);
        assert!(tags.contains(IntVect::new(2, 2, 2)));
    }

    #[test]
    fn count_in_region() {
        let mut s = IntVectSet::new();
        s.insert_box(&IBox::cube(2));
        assert_eq!(s.count_in(&IBox::cube(4)), 8);
        assert_eq!(s.count_in(&IBox::single(IntVect::ZERO)), 1);
    }
}
