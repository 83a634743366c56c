//! The AMR Advection–Diffusion application: a conservative upwind transport
//! solver with explicit diffusion, the lighter of the paper's two workloads
//! (§5.1), used for the middleware-layer and cross-layer experiments
//! (Figs. 7, 8, 10, 11, Table 2).

use crate::level_solver::LevelSolver;
use crate::scratch;
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::{IntVect, DIM};
use xlayer_amr::level_data::LevelData;
use xlayer_amr::tagging::{tag_undivided_gradient, IntVectSet};

/// The advecting velocity field.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VelocityField {
    /// Uniform translation.
    Constant([f64; 3]),
    /// A solenoidal single-vortex field in the x–y plane about `center`
    /// (grid coordinates), scaled by `strength`. w = 0.
    Vortex {
        /// Center of rotation in cell coordinates.
        center: [f64; 2],
        /// Angular velocity scale.
        strength: f64,
    },
}

impl VelocityField {
    /// Velocity at the center of cell `iv` (cell coordinates; dx = 1 unit of
    /// index space scaled outside). No variant depends on `iv[2]`:
    /// [`Self::face_normal_table`] relies on that.
    pub fn at(&self, iv: IntVect) -> [f64; 3] {
        match *self {
            VelocityField::Constant(v) => v,
            VelocityField::Vortex { center, strength } => {
                let x = iv[0] as f64 + 0.5 - center[0];
                let y = iv[1] as f64 + 0.5 - center[1];
                [-strength * y, strength * x, 0.0]
            }
        }
    }

    /// The velocity normal to every `d`-face of `valid`, one value per
    /// (x, y) column of faces, x fastest: entry `(x - lo_x) + w * (y - lo_y)`
    /// with `w` the face box's x extent (one more than `valid`'s along `d`)
    /// is `0.5 * (at(iv - e_d)[d] + at(iv)[d])` — the same at every z, since
    /// `at` ignores it. A kernel looks a face's velocity up here instead of
    /// evaluating the field twice per face. `table` is the storage to
    /// reuse; its contents are replaced.
    pub fn face_normal_table(&self, d: usize, valid: &IBox, mut table: Vec<f64>) -> Vec<f64> {
        let e = IntVect::basis(d);
        let (lo, mut hi) = (valid.lo(), valid.hi());
        hi[d] += 1;
        table.clear();
        for y in lo[1]..=hi[1] {
            for x in lo[0]..=hi[0] {
                let iv = IntVect::new(x, y, lo[2]);
                table.push(0.5 * (self.at(iv - e)[d] + self.at(iv)[d]));
            }
        }
        table
    }

    /// An upper bound on |velocity| over box side `n` (for CFL).
    pub fn max_speed(&self, n: i64) -> f64 {
        match *self {
            VelocityField::Constant(v) => v.iter().map(|c| c.abs()).fold(0.0, f64::max),
            VelocityField::Vortex { strength, .. } => {
                // max radius ~ diagonal of the domain
                strength.abs() * (2.0f64).sqrt() * n as f64
            }
        }
    }
}

/// Conservative first-order upwind advection plus explicit centered
/// diffusion for one scalar component.
#[derive(Clone, Copy, Debug)]
pub struct AdvectDiffuseSolver {
    /// The advecting velocity field.
    pub velocity: VelocityField,
    /// Diffusion coefficient D (0 disables diffusion).
    pub diffusion: f64,
    /// Domain side length in cells, for the vortex CFL bound.
    pub domain_cells: i64,
}

/// A pooled buffer of `n` values, contents unspecified: every user below
/// writes an entry before it reads it.
fn take_row(n: usize) -> Vec<f64> {
    let mut buf = scratch::take_buffer();
    buf.resize(n, 0.0);
    buf
}

impl AdvectDiffuseSolver {
    /// A solver translating with velocity `v` and diffusivity `d`.
    pub fn new(velocity: VelocityField, diffusion: f64, domain_cells: i64) -> Self {
        AdvectDiffuseSolver {
            velocity,
            diffusion,
            domain_cells,
        }
    }

    /// The flux through one face with normal velocity `v` between the cell
    /// values `u_lo` and `u_hi`: upwind advective, plus the centered
    /// diffusive part on a `diffusive` face. Where a side is missing
    /// (physical boundary) the caller passes the other side's value twice
    /// and `diffusive == false` — zero gradient. The only definition: every
    /// face of the fused walk of `advance_level` comes through here.
    #[inline(always)]
    fn face_flux(&self, v: f64, u_lo: f64, u_hi: f64, diffusive: bool, dx: f64) -> f64 {
        let mut f = if v >= 0.0 { v * u_lo } else { v * u_hi };
        if diffusive {
            f -= self.diffusion * (u_hi - u_lo) / dx;
        }
        f
    }

    /// Fluxes through the row of x-faces starting at face `row` (face `i`
    /// lies between cells `row[0] + i - 1` and `row[0] + i`), one per entry
    /// of `out`, with normal velocities `v`. Availability along x flips
    /// only at the row ends: a face whose low or high cell lies outside
    /// `avail` sees the other side twice.
    fn x_face_row(
        &self,
        src: &[f64],
        avail: &IBox,
        row: IntVect,
        v: &[f64],
        dx: f64,
        out: &mut [f64],
    ) {
        let base = avail.offset(IntVect::new(avail.lo()[0], row[1], row[2]));
        let cells = &src[base..base + avail.size()[0] as usize];
        // Cell index (within `cells`) on the high side of face 0.
        let s = (row[0] - avail.lo()[0]) as usize;
        let n = out.len();
        let first = usize::from(s == 0);
        let last = n.min(cells.len() - s);
        if first == 1 {
            out[0] = self.face_flux(v[0], cells[0], cells[0], false, dx);
        }
        if first < last {
            let u_lo = &cells[s + first - 1..s + last - 1];
            let u_hi = &cells[s + first..s + last];
            let diffusive = self.diffusion > 0.0;
            for (((f, &v), &u_lo), &u_hi) in out[first..last]
                .iter_mut()
                .zip(&v[first..last])
                .zip(u_lo)
                .zip(u_hi)
            {
                *f = self.face_flux(v, u_lo, u_hi, diffusive, dx);
            }
        }
        for i in last..n {
            let u = cells[s + i - 1];
            out[i] = self.face_flux(v[i], u, u, false, dx);
        }
    }

    /// Fluxes through the row of `d`-faces (`d` = 1 or 2) starting at face
    /// `row`, whose `d` coordinate is the face index: face `i` lies between
    /// cells `row - e_d + i·e_x` and `row + i·e_x`. Availability along `d`
    /// is constant over the row; a missing side clamps to the other row.
    #[allow(clippy::too_many_arguments)]
    fn cross_face_row(
        &self,
        src: &[f64],
        avail: &IBox,
        d: usize,
        row: IntVect,
        v: &[f64],
        dx: f64,
        out: &mut [f64],
    ) {
        let e = IntVect::basis(d);
        let have_lo = row[d] > avail.lo()[d];
        let have_hi = row[d] <= avail.hi()[d];
        let ohi = avail.offset(if have_hi { row } else { row - e });
        let olo = if have_lo { avail.offset(row - e) } else { ohi };
        let n = out.len();
        let diffusive = self.diffusion > 0.0 && have_lo && have_hi;
        for (((f, &v), &u_lo), &u_hi) in out
            .iter_mut()
            .zip(&v[..n])
            .zip(&src[olo..olo + n])
            .zip(&src[ohi..ohi + n])
        {
            *f = self.face_flux(v, u_lo, u_hi, diffusive, dx);
        }
    }

    /// One grid's step with fluxes that never leave it: a single walk over
    /// the rows of `valid`, in place. Each face's flux is still evaluated
    /// exactly once, from the old state — row (y, z) is read for the last
    /// time (as the low side of its y+1 and z+1 faces) just before it is
    /// overwritten, and the rows behind the walk are reached only through
    /// the buffered fluxes: the x-faces of the current row, the y-faces
    /// below and above it (two rows, swapped), the z-faces below and above
    /// the current plane (two planes, swapped). No snapshot of the old
    /// state, no flux fab. Bit-identical to the per-face reference
    /// [`crate::reference::advect_advance_level`] (same expressions on the
    /// same flux values, summed in the same order); the level-step pins in
    /// `tests/sweep_equivalence.rs` hold it there.
    fn advance_grid(&self, valid: &IBox, fab: &mut Fab, dx: f64, dtdx: f64) {
        let avail = fab.ibox();
        let (lo, hi) = (valid.lo(), valid.hi());
        let (nx, ny) = (valid.size()[0] as usize, valid.size()[1] as usize);
        let [vx, vy, vz]: [Vec<f64>; DIM] = std::array::from_fn(|d| {
            self.velocity
                .face_normal_table(d, valid, scratch::take_buffer())
        });
        let mut fx = take_row(nx + 1);
        let (mut fy_lo, mut fy_hi) = (take_row(nx), take_row(nx));
        let (mut fz_lo, mut fz_hi) = (take_row(nx * ny), take_row(nx * ny));
        for z in lo[2]..=hi[2] {
            for (j, y) in (lo[1]..=hi[1]).enumerate() {
                let row = IntVect::new(lo[0], y, z);
                let in_plane = j * nx..(j + 1) * nx;
                let src = fab.as_slice();
                self.x_face_row(
                    src,
                    &avail,
                    row,
                    &vx[j * (nx + 1)..(j + 1) * (nx + 1)],
                    dx,
                    &mut fx,
                );
                if j == 0 {
                    self.cross_face_row(src, &avail, 1, row, &vy[..nx], dx, &mut fy_lo);
                } else {
                    std::mem::swap(&mut fy_lo, &mut fy_hi);
                }
                let above = row + IntVect::basis(1);
                let v = &vy[(j + 1) * nx..(j + 2) * nx];
                self.cross_face_row(src, &avail, 1, above, v, dx, &mut fy_hi);
                let v = &vz[in_plane.clone()];
                if z == lo[2] {
                    let out = &mut fz_lo[in_plane.clone()];
                    self.cross_face_row(src, &avail, 2, row, v, dx, out);
                }
                let above = row + IntVect::basis(2);
                let out = &mut fz_hi[in_plane.clone()];
                self.cross_face_row(src, &avail, 2, above, v, dx, out);

                let o = avail.offset(row);
                let (fx_lo, fx_hi) = (&fx[..nx], &fx[1..=nx]);
                let (fy_lo, fy_hi) = (&fy_lo[..nx], &fy_hi[..nx]);
                let (fz_lo, fz_hi) = (&fz_lo[in_plane.clone()], &fz_hi[in_plane]);
                for (i, u) in fab.as_mut_slice()[o..o + nx].iter_mut().enumerate() {
                    let mut du = 0.0;
                    du -= dtdx * (fx_hi[i] - fx_lo[i]);
                    du -= dtdx * (fy_hi[i] - fy_lo[i]);
                    du -= dtdx * (fz_hi[i] - fz_lo[i]);
                    *u += du;
                }
            }
            std::mem::swap(&mut fz_lo, &mut fz_hi);
        }
        for buf in [vx, vy, vz, fx, fy_lo, fy_hi, fz_lo, fz_hi] {
            scratch::recycle_buffer(buf);
        }
    }
}

impl LevelSolver for AdvectDiffuseSolver {
    fn ncomp(&self) -> usize {
        1
    }

    fn nghost(&self) -> i64 {
        1
    }

    fn max_wave_speed(&self, _data: &LevelData) -> f64 {
        self.velocity.max_speed(self.domain_cells).max(1e-30)
    }

    fn max_dt(&self, dx: f64) -> f64 {
        if self.diffusion > 0.0 {
            // Explicit 3-D diffusion stability: dt ≤ dx²/(6D), with margin.
            0.9 * dx * dx / (6.0 * self.diffusion)
        } else {
            f64::INFINITY
        }
    }

    fn advance_level(&self, data: &mut LevelData, dx: f64, dt: f64) {
        let dtdx = dt / dx;
        // Grids are independent given their ghost-filled old state. The row
        // and plane buffers come from the per-worker scratch pool: after
        // the first grid, a step allocates nothing.
        data.par_for_each_mut(|_, valid, fab| self.advance_grid(&valid, fab, dx, dtdx));
    }

    fn tag_cells(&self, data: &LevelData, threshold: f64) -> IntVectSet {
        tag_undivided_gradient(data, 0, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_amr::boxes::IBox;
    use xlayer_amr::domain::ProblemDomain;
    use xlayer_amr::layout::BoxLayout;

    fn level(n: i64, periodic: bool) -> LevelData {
        let b = IBox::cube(n);
        let domain = if periodic {
            ProblemDomain::periodic(b)
        } else {
            ProblemDomain::new(b)
        };
        let layout = BoxLayout::decompose(&domain, 8, 1);
        LevelData::new(layout, domain, 1, 1)
    }

    fn set_pulse(ld: &mut LevelData, at: IntVect) {
        ld.for_each_mut(|vb, fab| {
            if vb.contains(at) {
                fab.set(at, 0, 1.0);
            }
        });
    }

    #[test]
    fn advection_conserves_mass_periodic() {
        let mut ld = level(16, true);
        set_pulse(&mut ld, IntVect::splat(8));
        let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.5, -0.25]), 0.0, 16);
        let m0 = ld.sum(0);
        for _ in 0..20 {
            ld.exchange();
            solver.advance_level(&mut ld, 1.0, 0.5);
        }
        assert!((ld.sum(0) - m0).abs() < 1e-12 * m0.max(1.0));
    }

    #[test]
    fn advection_moves_pulse_downstream() {
        let mut ld = level(16, true);
        set_pulse(&mut ld, IntVect::splat(4));
        let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.0, 0.0]), 0.0, 16);
        // advance by total time 4 with dt=0.5 => pulse centroid moves +4 in x
        for _ in 0..8 {
            ld.exchange();
            solver.advance_level(&mut ld, 1.0, 0.5);
        }
        // centroid x
        let mut cx = 0.0;
        let mut m = 0.0;
        for i in 0..ld.len() {
            let vb = ld.valid_box(i);
            for iv in vb.cells() {
                let u = ld.fab(i).get(iv, 0);
                cx += u * (iv[0] as f64 + 0.5);
                m += u;
            }
        }
        cx /= m;
        assert!(
            (cx - 8.5).abs() < 0.5,
            "pulse centroid at {cx}, expected ≈ 8.5"
        );
    }

    #[test]
    fn diffusion_spreads_and_conserves() {
        let mut ld = level(16, true);
        set_pulse(&mut ld, IntVect::splat(8));
        let solver = AdvectDiffuseSolver::new(VelocityField::Constant([0.0; 3]), 0.5, 16);
        let m0 = ld.sum(0);
        let peak0 = ld.max(0);
        let dt = solver.max_dt(1.0);
        for _ in 0..10 {
            ld.exchange();
            solver.advance_level(&mut ld, 1.0, dt);
        }
        assert!((ld.sum(0) - m0).abs() < 1e-12 * m0.max(1.0));
        assert!(ld.max(0) < peak0, "diffusion must reduce the peak");
        assert!(ld.min(0) >= -1e-12, "diffusion must stay non-negative");
    }

    #[test]
    fn vortex_field_is_divergence_free_rotation() {
        let v = VelocityField::Vortex {
            center: [8.0, 8.0],
            strength: 0.1,
        };
        // At (8, 6) (i.e. below center): velocity points +x.
        let at = v.at(IntVect::new(8, 5, 0)); // cell center (8.5, 5.5)
        assert!(at[0] > 0.0 && at[2] == 0.0);
        // Opposite side: -x.
        let at2 = v.at(IntVect::new(8, 11, 0));
        assert!(at2[0] < 0.0);
    }

    #[test]
    fn max_dt_respects_diffusion_limit() {
        let s = AdvectDiffuseSolver::new(VelocityField::Constant([0.0; 3]), 2.0, 16);
        let dt = s.max_dt(0.1);
        assert!(dt <= 0.1 * 0.1 / (6.0 * 2.0));
        let s0 = AdvectDiffuseSolver::new(VelocityField::Constant([0.0; 3]), 0.0, 16);
        assert_eq!(s0.max_dt(0.1), f64::INFINITY);
    }

    #[test]
    fn tagging_finds_pulse_edges() {
        let mut ld = level(16, true);
        set_pulse(&mut ld, IntVect::splat(8));
        ld.exchange();
        let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.0, 0.0]), 0.0, 16);
        let tags = solver.tag_cells(&ld, 0.1);
        assert!(!tags.is_empty());
        // Tags cluster around the pulse.
        for iv in tags.iter() {
            assert!((*iv - IntVect::splat(8)).0.iter().all(|&c| c.abs() <= 2));
        }
    }
}
