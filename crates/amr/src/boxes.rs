//! Box calculus: axis-aligned rectangular regions of index space.
//!
//! `IBox` is the workhorse of block-structured AMR (Chombo's `Box`): a
//! cell-centered region `[lo, hi]` with *inclusive* bounds. The empty box is
//! represented canonically with `lo = (0,0,0)`, `hi = (-1,-1,-1)`.

use crate::intvect::{IntVect, DIM};
use std::fmt;

/// A cell-centered rectangular region of index space with inclusive bounds.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IBox {
    lo: IntVect,
    hi: IntVect,
}

impl IBox {
    /// The canonical empty box.
    pub const EMPTY: IBox = IBox {
        lo: IntVect([0; DIM]),
        hi: IntVect([-1; DIM]),
    };

    /// Construct from inclusive corners. Returns the canonical empty box if
    /// any component of `lo` exceeds the matching component of `hi`.
    #[inline]
    pub fn new(lo: IntVect, hi: IntVect) -> Self {
        if lo.all_le(hi) {
            IBox { lo, hi }
        } else {
            IBox::EMPTY
        }
    }

    /// A box spanning `[0, size)` in each direction.
    #[inline]
    pub fn from_size(size: IntVect) -> Self {
        IBox::new(IntVect::ZERO, size - IntVect::UNIT)
    }

    /// A cube `[0, n)^3`.
    #[inline]
    pub fn cube(n: i64) -> Self {
        IBox::from_size(IntVect::splat(n))
    }

    /// A box containing the single cell `iv`.
    #[inline]
    pub fn single(iv: IntVect) -> Self {
        IBox { lo: iv, hi: iv }
    }

    /// Low (inclusive) corner.
    #[inline]
    pub fn lo(&self) -> IntVect {
        self.lo
    }

    /// High (inclusive) corner.
    #[inline]
    pub fn hi(&self) -> IntVect {
        self.hi
    }

    /// Number of cells along each direction (zero vector for the empty box).
    #[inline]
    pub fn size(&self) -> IntVect {
        if self.is_empty() {
            IntVect::ZERO
        } else {
            self.hi - self.lo + IntVect::UNIT
        }
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.size().product() as u64
        }
    }

    /// True if the box contains no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        !self.lo.all_le(self.hi)
    }

    /// True if cell `iv` lies inside the box.
    #[inline]
    pub fn contains(&self, iv: IntVect) -> bool {
        self.lo.all_le(iv) && iv.all_le(self.hi)
    }

    /// True if `other` is entirely inside `self`. The empty box is contained
    /// in every box.
    #[inline]
    pub fn contains_box(&self, other: &IBox) -> bool {
        other.is_empty() || (self.contains(other.lo) && self.contains(other.hi))
    }

    /// Intersection of two boxes (possibly empty).
    #[inline]
    pub fn intersect(&self, other: &IBox) -> IBox {
        if self.is_empty() || other.is_empty() {
            return IBox::EMPTY;
        }
        IBox::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// True if the two boxes share at least one cell.
    #[inline]
    pub fn intersects(&self, other: &IBox) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Grow (or shrink, for negative `n`) by `n` cells in every direction.
    #[inline]
    pub fn grow(&self, n: i64) -> IBox {
        if self.is_empty() {
            return IBox::EMPTY;
        }
        IBox::new(self.lo - IntVect::splat(n), self.hi + IntVect::splat(n))
    }

    /// Translate by `shift`.
    #[inline]
    pub fn shift(&self, shift: IntVect) -> IBox {
        if self.is_empty() {
            return IBox::EMPTY;
        }
        IBox {
            lo: self.lo + shift,
            hi: self.hi + shift,
        }
    }

    /// Refine by a positive ratio: each cell becomes `ratio^DIM` cells.
    #[inline]
    pub fn refine(&self, ratio: i64) -> IBox {
        if self.is_empty() {
            return IBox::EMPTY;
        }
        IBox {
            lo: self.lo.refine(ratio),
            hi: (self.hi + IntVect::UNIT).refine(ratio) - IntVect::UNIT,
        }
    }

    /// Coarsen by a positive ratio: the image is the smallest box containing
    /// the coarsened cells.
    #[inline]
    pub fn coarsen(&self, ratio: i64) -> IBox {
        if self.is_empty() {
            return IBox::EMPTY;
        }
        IBox {
            lo: self.lo.coarsen(ratio),
            hi: self.hi.coarsen(ratio),
        }
    }

    /// True if coarsening then refining by `ratio` reproduces the box, i.e.
    /// the box aligns with the coarser lattice.
    #[inline]
    pub fn is_aligned(&self, ratio: i64) -> bool {
        self.is_empty() || self.coarsen(ratio).refine(ratio) == *self
    }

    /// The smallest box containing both operands.
    #[inline]
    pub fn hull(&self, other: &IBox) -> IBox {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        IBox {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The length of the longest edge.
    #[inline]
    pub fn longest_side(&self) -> i64 {
        self.size().max_component()
    }

    /// The direction index of the longest edge (ties broken low).
    #[inline]
    pub fn longest_dir(&self) -> usize {
        let s = self.size();
        let mut best = 0;
        for d in 1..DIM {
            if s[d] > s[best] {
                best = d;
            }
        }
        best
    }

    /// Split the box into two at plane `at` along direction `d`:
    /// cells with index `< at` go left, the rest go right.
    pub fn split_at(&self, d: usize, at: i64) -> (IBox, IBox) {
        debug_assert!(at > self.lo[d] && at <= self.hi[d]);
        let mut left_hi = self.hi;
        left_hi[d] = at - 1;
        let mut right_lo = self.lo;
        right_lo[d] = at;
        (IBox::new(self.lo, left_hi), IBox::new(right_lo, self.hi))
    }

    /// Iterate over every cell in the box in Fortran (x-fastest) order.
    pub fn cells(&self) -> CellIter {
        CellIter {
            b: *self,
            cur: self.lo,
            done: self.is_empty(),
        }
    }

    /// The linear offset of cell `iv` in Fortran order within this box.
    #[inline]
    pub fn offset(&self, iv: IntVect) -> usize {
        debug_assert!(self.contains(iv), "cell {iv:?} outside box {self:?}");
        let s = self.size();
        let r = iv - self.lo;
        (r[0] + s[0] * (r[1] + s[1] * r[2])) as usize
    }

    /// Subtract `other` from `self`, producing up to 6 disjoint boxes whose
    /// union is `self \ other`.
    pub fn subtract(&self, other: &IBox) -> Vec<IBox> {
        let inter = self.intersect(other);
        if inter.is_empty() {
            return vec![*self];
        }
        if inter == *self {
            return Vec::new();
        }
        let mut pieces = Vec::new();
        let mut rest = *self;
        // Slab decomposition: peel off the part below/above the intersection
        // in each direction in turn.
        for d in 0..DIM {
            if rest.lo[d] < inter.lo[d] {
                let (below, keep) = rest.split_at(d, inter.lo[d]);
                pieces.push(below);
                rest = keep;
            }
            if rest.hi[d] > inter.hi[d] {
                let (keep, above) = rest.split_at(d, inter.hi[d] + 1);
                pieces.push(above);
                rest = keep;
            }
        }
        debug_assert_eq!(rest, inter);
        pieces
    }
}

impl fmt::Debug for IBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "[empty]")
        } else {
            write!(f, "[{:?}..{:?}]", self.lo, self.hi)
        }
    }
}

impl fmt::Display for IBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over cells of a box in Fortran (x-fastest) order.
pub struct CellIter {
    b: IBox,
    cur: IntVect,
    done: bool,
}

impl Iterator for CellIter {
    type Item = IntVect;

    fn next(&mut self) -> Option<IntVect> {
        if self.done {
            return None;
        }
        let out = self.cur;
        // advance
        let mut d = 0;
        loop {
            self.cur[d] += 1;
            if self.cur[d] <= self.b.hi()[d] {
                break;
            }
            self.cur[d] = self.b.lo()[d];
            d += 1;
            if d == DIM {
                self.done = true;
                break;
            }
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        // Remaining count in Fortran order.
        let s = self.b.size();
        let r = self.cur - self.b.lo();
        let consumed = (r[0] + s[0] * (r[1] + s[1] * r[2])) as usize;
        let total = self.b.num_cells() as usize;
        let rem = total - consumed;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CellIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_size() {
        let b = IBox::new(IntVect::new(0, 0, 0), IntVect::new(3, 1, 0));
        assert_eq!(b.size(), IntVect::new(4, 2, 1));
        assert_eq!(b.num_cells(), 8);
        assert!(!b.is_empty());
    }

    #[test]
    fn inverted_bounds_are_empty() {
        let b = IBox::new(IntVect::new(2, 0, 0), IntVect::new(1, 5, 5));
        assert!(b.is_empty());
        assert_eq!(b, IBox::EMPTY);
        assert_eq!(b.num_cells(), 0);
    }

    #[test]
    fn intersection() {
        let a = IBox::cube(8);
        let b = IBox::new(IntVect::splat(4), IntVect::splat(11));
        let i = a.intersect(&b);
        assert_eq!(i, IBox::new(IntVect::splat(4), IntVect::splat(7)));
        assert!(a.intersects(&b));
        let c = IBox::new(IntVect::splat(100), IntVect::splat(101));
        assert!(!a.intersects(&c));
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn grow_and_shrink() {
        let b = IBox::cube(4);
        assert_eq!(b.grow(2), IBox::new(IntVect::splat(-2), IntVect::splat(5)));
        assert_eq!(b.grow(2).grow(-2), b);
        // Shrinking past empty yields empty.
        assert!(IBox::cube(2).grow(-2).is_empty());
    }

    #[test]
    fn refine_coarsen_roundtrip() {
        let b = IBox::new(IntVect::new(-4, 0, 2), IntVect::new(3, 7, 5));
        let r = b.refine(2);
        assert_eq!(r.num_cells(), b.num_cells() * 8);
        assert_eq!(r.coarsen(2), b);
        assert!(r.is_aligned(2));
    }

    #[test]
    fn coarsen_covers() {
        // Coarsening always produces a box whose refinement covers the original.
        let b = IBox::new(IntVect::new(1, 3, 5), IntVect::new(6, 9, 11));
        let c = b.coarsen(4);
        assert!(c.refine(4).contains_box(&b));
    }

    #[test]
    fn split() {
        let b = IBox::cube(8);
        let (l, r) = b.split_at(0, 3);
        assert_eq!(l.num_cells() + r.num_cells(), b.num_cells());
        assert!(!l.intersects(&r));
        assert_eq!(l.hull(&r), b);
    }

    #[test]
    fn cell_iteration_order_and_offsets() {
        let b = IBox::new(IntVect::new(1, 2, 3), IntVect::new(2, 3, 4));
        let cells: Vec<_> = b.cells().collect();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0], IntVect::new(1, 2, 3));
        assert_eq!(cells[1], IntVect::new(2, 2, 3)); // x fastest
        assert_eq!(cells[2], IntVect::new(1, 3, 3));
        for (n, c) in cells.iter().enumerate() {
            assert_eq!(b.offset(*c), n);
        }
    }

    #[test]
    fn subtract_disjoint_union() {
        let a = IBox::cube(8);
        let b = IBox::new(IntVect::splat(2), IntVect::splat(5));
        let pieces = a.subtract(&b);
        let total: u64 = pieces.iter().map(|p| p.num_cells()).sum();
        assert_eq!(total, a.num_cells() - b.num_cells());
        for (i, p) in pieces.iter().enumerate() {
            assert!(!p.intersects(&b));
            for q in &pieces[i + 1..] {
                assert!(!p.intersects(q));
            }
        }
    }

    #[test]
    fn subtract_no_overlap_returns_self() {
        let a = IBox::cube(4);
        let b = IBox::new(IntVect::splat(10), IntVect::splat(12));
        assert_eq!(a.subtract(&b), vec![a]);
    }

    #[test]
    fn subtract_total_overlap_returns_empty() {
        let a = IBox::cube(4);
        assert!(a.subtract(&a.grow(1)).is_empty());
    }

    #[test]
    fn longest_side_and_dir() {
        let b = IBox::new(IntVect::ZERO, IntVect::new(3, 9, 5));
        assert_eq!(b.longest_side(), 10);
        assert_eq!(b.longest_dir(), 1);
    }

    #[test]
    fn exact_size_iterator() {
        let b = IBox::cube(3);
        let mut it = b.cells();
        assert_eq!(it.len(), 27);
        it.next();
        assert_eq!(it.len(), 26);
    }
}
