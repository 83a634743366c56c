//! `Fab`: multi-component cell-centered array data on a box (Chombo's
//! `FArrayBox`), with process-wide allocation accounting.
//!
//! The accounting feeds the Monitor (paper §3): the adaptation policies need
//! real, per-rank memory observations (Fig. 1), so every `Fab` registers its
//! heap footprint with a global counter on construction and deregisters on
//! drop.

use crate::boxes::IBox;
use crate::intvect::IntVect;
use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes of `Fab` payload currently allocated in this process.
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// High-water mark of [`allocated_bytes`] since the last
/// [`reset_peak_allocated`] call.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes of `Fab` payload currently live in this process.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Peak bytes of `Fab` payload observed since the last reset.
pub fn peak_allocated_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Reset the peak tracker to the current live allocation.
pub fn reset_peak_allocated() {
    PEAK_BYTES.store(ALLOCATED_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn track_alloc(bytes: u64) {
    let now = ALLOCATED_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

fn track_free(bytes: u64) {
    ALLOCATED_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

/// Multi-component `f64` data over the cells of a box, Fortran-ordered
/// (x fastest, component slowest).
#[derive(Debug)]
pub struct Fab {
    bx: IBox,
    ncomp: usize,
    data: Vec<f64>,
}

impl Fab {
    /// Allocate a fab over `bx` with `ncomp` components, zero-initialized.
    pub fn new(bx: IBox, ncomp: usize) -> Self {
        assert!(ncomp > 0, "Fab needs at least one component");
        let n = bx.num_cells() as usize * ncomp;
        track_alloc((n * std::mem::size_of::<f64>()) as u64);
        Fab {
            bx,
            ncomp,
            data: vec![0.0; n],
        }
    }

    /// Allocate with every entry set to `value`.
    pub fn filled(bx: IBox, ncomp: usize, value: f64) -> Self {
        let mut f = Fab::new(bx, ncomp);
        f.data.fill(value);
        f
    }

    /// The box this fab covers.
    #[inline]
    pub fn ibox(&self) -> IBox {
        self.bx
    }

    /// Number of components.
    #[inline]
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Heap footprint of the payload in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Linear index of `(iv, comp)`.
    #[inline]
    fn idx(&self, iv: IntVect, comp: usize) -> usize {
        debug_assert!(comp < self.ncomp);
        self.bx.offset(iv) + comp * self.bx.num_cells() as usize
    }

    /// Flat offset of cell `iv` within component 0's slab. Together with
    /// [`Fab::comp_stride`] this lets stencil loops address all components
    /// of a cell from one offset computation:
    /// `as_slice()[cell_offset(iv) + comp * comp_stride()]`.
    #[inline]
    pub fn cell_offset(&self, iv: IntVect) -> usize {
        self.bx.offset(iv)
    }

    /// Distance in the flat payload between the same cell in consecutive
    /// components.
    #[inline]
    pub fn comp_stride(&self) -> usize {
        self.bx.num_cells() as usize
    }

    /// Read one value.
    #[inline]
    pub fn get(&self, iv: IntVect, comp: usize) -> f64 {
        self.data[self.idx(iv, comp)]
    }

    /// Write one value.
    #[inline]
    pub fn set(&mut self, iv: IntVect, comp: usize, v: f64) {
        let i = self.idx(iv, comp);
        self.data[i] = v;
    }

    /// The raw slice for component `comp`, Fortran-ordered over the box.
    pub fn comp_slice(&self, comp: usize) -> &[f64] {
        let n = self.bx.num_cells() as usize;
        &self.data[comp * n..(comp + 1) * n]
    }

    /// Mutable slice for component `comp`.
    pub fn comp_slice_mut(&mut self, comp: usize) -> &mut [f64] {
        let n = self.bx.num_cells() as usize;
        &mut self.data[comp * n..(comp + 1) * n]
    }

    /// Entire payload.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Entire payload, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fill every component of every cell with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Copy values on `region ∩ self.box ∩ src.box` from `src` (same
    /// component count required), with `src` read at `iv + shift`.
    ///
    /// `shift` supports periodic wrapping: destination cell `iv` receives
    /// `src[iv + shift]`. Rows contiguous in x are moved with
    /// `copy_from_slice` rather than per-cell index arithmetic.
    pub fn copy_from_shifted(&mut self, src: &Fab, region: &IBox, shift: IntVect) {
        assert_eq!(self.ncomp, src.ncomp, "component count mismatch");
        let dst_region = region.intersect(&self.bx);
        let src_avail = src.bx.shift(-shift);
        let r = dst_region.intersect(&src_avail);
        if r.is_empty() {
            return;
        }
        let nx = r.size()[0] as usize;
        let dst_cells = self.bx.num_cells() as usize;
        let src_cells = src.bx.num_cells() as usize;
        for comp in 0..self.ncomp {
            for z in r.lo()[2]..=r.hi()[2] {
                for y in r.lo()[1]..=r.hi()[1] {
                    let row = IntVect::new(r.lo()[0], y, z);
                    let d0 = self.bx.offset(row) + comp * dst_cells;
                    let s0 = src.bx.offset(row + shift) + comp * src_cells;
                    self.data[d0..d0 + nx].copy_from_slice(&src.data[s0..s0 + nx]);
                }
            }
        }
    }

    /// Pack `self`'s values over `region` (read at `iv + shift`) into `out`,
    /// component-major and Fortran-ordered over the region's cells.
    ///
    /// The shifted region must lie inside this fab's box; `out` must hold
    /// exactly `region.num_cells() * ncomp` values. Paired with
    /// [`Fab::unpack_region`], this moves a copy-op's payload through a flat
    /// staging buffer instead of cloning whole fabs.
    pub fn pack_region(&self, region: &IBox, shift: IntVect, out: &mut [f64]) {
        let cells = region.num_cells() as usize;
        assert_eq!(out.len(), cells * self.ncomp, "pack buffer size mismatch");
        debug_assert!(
            self.bx.contains_box(&region.shift(shift)),
            "pack source {:?}+{shift:?} escapes fab box {:?}",
            region,
            self.bx
        );
        let nx = region.size()[0] as usize;
        let src_cells = self.bx.num_cells() as usize;
        let mut o = 0;
        for comp in 0..self.ncomp {
            for z in region.lo()[2]..=region.hi()[2] {
                for y in region.lo()[1]..=region.hi()[1] {
                    let row = IntVect::new(region.lo()[0], y, z) + shift;
                    let s0 = self.bx.offset(row) + comp * src_cells;
                    out[o..o + nx].copy_from_slice(&self.data[s0..s0 + nx]);
                    o += nx;
                }
            }
        }
    }

    /// Unpack values produced by [`Fab::pack_region`] into `region` of this
    /// fab. `region` must lie inside the fab's box.
    pub fn unpack_region(&mut self, region: &IBox, data: &[f64]) {
        let cells = region.num_cells() as usize;
        assert_eq!(data.len(), cells * self.ncomp, "pack buffer size mismatch");
        debug_assert!(
            self.bx.contains_box(region),
            "unpack target {:?} escapes fab box {:?}",
            region,
            self.bx
        );
        let nx = region.size()[0] as usize;
        let dst_cells = self.bx.num_cells() as usize;
        let mut o = 0;
        for comp in 0..self.ncomp {
            for z in region.lo()[2]..=region.hi()[2] {
                for y in region.lo()[1]..=region.hi()[1] {
                    let row = IntVect::new(region.lo()[0], y, z);
                    let d0 = self.bx.offset(row) + comp * dst_cells;
                    self.data[d0..d0 + nx].copy_from_slice(&data[o..o + nx]);
                    o += nx;
                }
            }
        }
    }

    /// Copy values on `region` from `src` with identical indexing.
    pub fn copy_from(&mut self, src: &Fab, region: &IBox) {
        self.copy_from_shifted(src, region, IntVect::ZERO);
    }

    /// Component-wise minimum over a region.
    pub fn min_on(&self, region: &IBox, comp: usize) -> f64 {
        let r = region.intersect(&self.bx);
        r.cells()
            .map(|iv| self.get(iv, comp))
            .fold(f64::INFINITY, f64::min)
    }

    /// Component-wise maximum over a region.
    pub fn max_on(&self, region: &IBox, comp: usize) -> f64 {
        let r = region.intersect(&self.bx);
        r.cells()
            .map(|iv| self.get(iv, comp))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Sum of a component over a region.
    pub fn sum_on(&self, region: &IBox, comp: usize) -> f64 {
        let r = region.intersect(&self.bx);
        r.cells().map(|iv| self.get(iv, comp)).sum()
    }

    /// L∞ norm over the whole fab, one component.
    pub fn norm_inf(&self, comp: usize) -> f64 {
        self.comp_slice(comp)
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
    }
}

impl Clone for Fab {
    fn clone(&self) -> Self {
        track_alloc(self.bytes());
        Fab {
            bx: self.bx,
            ncomp: self.ncomp,
            data: self.data.clone(),
        }
    }
}

impl Drop for Fab {
    fn drop(&mut self) {
        track_free(self.bytes());
    }
}

/// Convenience indexing: `fab[(iv, comp)]`.
impl Index<(IntVect, usize)> for Fab {
    type Output = f64;
    #[inline]
    fn index(&self, (iv, c): (IntVect, usize)) -> &f64 {
        &self.data[self.idx(iv, c)]
    }
}

impl IndexMut<(IntVect, usize)> for Fab {
    #[inline]
    fn index_mut(&mut self, (iv, c): (IntVect, usize)) -> &mut f64 {
        let i = self.idx(iv, c);
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized_and_indexable() {
        let b = IBox::cube(4);
        let mut f = Fab::new(b, 2);
        assert_eq!(f.get(IntVect::new(1, 2, 3), 0), 0.0);
        f.set(IntVect::new(1, 2, 3), 1, 7.5);
        assert_eq!(f[(IntVect::new(1, 2, 3), 1)], 7.5);
        f[(IntVect::new(0, 0, 0), 0)] = -1.0;
        assert_eq!(f.get(IntVect::new(0, 0, 0), 0), -1.0);
    }

    #[test]
    fn component_slices_are_disjoint() {
        let b = IBox::cube(2);
        let mut f = Fab::new(b, 3);
        f.comp_slice_mut(1).fill(4.0);
        assert!(f.comp_slice(0).iter().all(|&v| v == 0.0));
        assert!(f.comp_slice(1).iter().all(|&v| v == 4.0));
        assert!(f.comp_slice(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn copy_on_overlap_only() {
        let a_box = IBox::cube(4);
        let b_box = IBox::new(IntVect::splat(2), IntVect::splat(5));
        let src = Fab::filled(b_box, 1, 9.0);
        let mut dst = Fab::new(a_box, 1);
        dst.copy_from(&src, &a_box);
        for iv in a_box.cells() {
            let expect = if b_box.contains(iv) { 9.0 } else { 0.0 };
            assert_eq!(dst.get(iv, 0), expect);
        }
    }

    #[test]
    fn shifted_copy_wraps() {
        // src covers [0,3]^3, dst ghost cell at -1 should read src at 3 via shift +4.
        let src_box = IBox::cube(4);
        let mut src = Fab::new(src_box, 1);
        src.set(IntVect::new(3, 0, 0), 0, 5.0);
        let dst_box = IBox::new(IntVect::new(-1, 0, 0), IntVect::new(-1, 0, 0));
        let mut dst = Fab::new(dst_box, 1);
        dst.copy_from_shifted(&src, &dst_box, IntVect::new(4, 0, 0));
        assert_eq!(dst.get(IntVect::new(-1, 0, 0), 0), 5.0);
    }

    #[test]
    fn allocation_accounting() {
        let before = allocated_bytes();
        {
            let f = Fab::new(IBox::cube(8), 2);
            assert_eq!(allocated_bytes(), before + f.bytes());
            let g = f.clone();
            assert_eq!(allocated_bytes(), before + f.bytes() + g.bytes());
        }
        assert_eq!(allocated_bytes(), before);
    }

    #[test]
    fn pack_unpack_roundtrip_with_shift() {
        let src_box = IBox::cube(4);
        let mut src = Fab::new(src_box, 2);
        for c in 0..2 {
            for iv in src_box.cells() {
                src.set(
                    iv,
                    c,
                    (iv[0] * 100 + iv[1] * 10 + iv[2] + c as i64 * 10_000) as f64,
                );
            }
        }
        // Ghost slab left of the box, wrapped from the far side (shift +4).
        let region = IBox::new(IntVect::new(-1, 0, 0), IntVect::new(-1, 3, 3));
        let shift = IntVect::new(4, 0, 0);
        let mut buf = vec![0.0; region.num_cells() as usize * 2];
        src.pack_region(&region, shift, &mut buf);
        let dst_box = IBox::new(IntVect::new(-1, 0, 0), IntVect::new(3, 3, 3));
        let mut dst = Fab::new(dst_box, 2);
        dst.unpack_region(&region, &buf);
        let mut reference = Fab::new(dst_box, 2);
        reference.copy_from_shifted(&src, &region, shift);
        assert_eq!(dst.as_slice(), reference.as_slice());
        for c in 0..2 {
            for iv in region.cells() {
                assert_eq!(dst.get(iv, c), src.get(iv + shift, c));
            }
        }
    }

    #[test]
    fn peak_tracking() {
        reset_peak_allocated();
        let base = peak_allocated_bytes();
        let f = Fab::new(IBox::cube(16), 1);
        assert!(peak_allocated_bytes() >= base + f.bytes());
        drop(f);
        // peak survives the drop
        assert!(peak_allocated_bytes() >= base + 16 * 16 * 16 * 8);
    }

    #[test]
    fn reductions() {
        let b = IBox::cube(2);
        let mut f = Fab::new(b, 1);
        let vals = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0];
        for (iv, v) in b.cells().zip(vals) {
            f.set(iv, 0, v);
        }
        assert_eq!(f.min_on(&b, 0), -8.0);
        assert_eq!(f.max_on(&b, 0), 7.0);
        assert_eq!(f.sum_on(&b, 0), -4.0);
        assert_eq!(f.norm_inf(0), 8.0);
    }
}
