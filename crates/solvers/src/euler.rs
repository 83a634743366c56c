//! Polytropic gas dynamics: an unsplit MUSCL–Hancock Godunov solver for the
//! 3-D Euler equations with an HLLC Riemann solver.
//!
//! This is the Rust analogue of Chombo's `AMRGodunov` Polytropic Gas example
//! — the memory- and compute-intensive workload of the paper's evaluation
//! (§5.2.1, Fig. 1, Fig. 5, Fig. 9).

use crate::level_solver::{LevelFluxes, LevelSolver};
use crate::scratch;
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::{IntVect, DIM};
use xlayer_amr::level_data::LevelData;
use xlayer_amr::tagging::{tag_undivided_gradient, IntVectSet};

/// Number of conserved components: density, 3 momenta, total energy.
pub const NCOMP: usize = 5;
/// Component index of density.
pub const RHO: usize = 0;
/// Component index of x-momentum.
pub const MX: usize = 1;
/// Component index of y-momentum.
pub const MY: usize = 2;
/// Component index of z-momentum.
pub const MZ: usize = 3;
/// Component index of total energy density.
pub const ENERGY: usize = 4;

/// Floor applied to density and pressure to keep states physical.
const SMALL: f64 = 1e-10;

/// Conserved state at one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Conserved {
    /// Mass density ρ.
    pub rho: f64,
    /// Momentum density (ρu, ρv, ρw).
    pub mom: [f64; 3],
    /// Total energy density E = ρe + ½ρ|u|².
    pub energy: f64,
}

/// Primitive state at one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Primitive {
    /// Mass density ρ.
    pub rho: f64,
    /// Velocity (u, v, w).
    pub vel: [f64; 3],
    /// Pressure p.
    pub p: f64,
}

impl Conserved {
    /// Convert to primitives for ratio of specific heats `gamma`.
    pub fn to_primitive(self, gamma: f64) -> Primitive {
        let rho = self.rho.max(SMALL);
        let vel = [self.mom[0] / rho, self.mom[1] / rho, self.mom[2] / rho];
        let ke = 0.5 * rho * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
        let p = ((gamma - 1.0) * (self.energy - ke)).max(SMALL);
        Primitive { rho, vel, p }
    }
}

impl Primitive {
    /// Convert to conserved variables.
    pub fn to_conserved(self, gamma: f64) -> Conserved {
        let mom = [
            self.rho * self.vel[0],
            self.rho * self.vel[1],
            self.rho * self.vel[2],
        ];
        let ke = 0.5
            * self.rho
            * (self.vel[0] * self.vel[0] + self.vel[1] * self.vel[1] + self.vel[2] * self.vel[2]);
        Conserved {
            rho: self.rho,
            mom,
            energy: self.p / (gamma - 1.0) + ke,
        }
    }

    /// Sound speed c = √(γp/ρ).
    pub fn sound_speed(self, gamma: f64) -> f64 {
        (gamma * self.p / self.rho.max(SMALL)).sqrt()
    }

    /// Physical flux along direction `d`.
    pub fn flux(self, d: usize, gamma: f64) -> [f64; NCOMP] {
        let un = self.vel[d];
        let cons = self.to_conserved(gamma);
        let mut f = [0.0; NCOMP];
        f[RHO] = cons.rho * un;
        f[MX] = cons.mom[0] * un;
        f[MY] = cons.mom[1] * un;
        f[MZ] = cons.mom[2] * un;
        f[MX + d] += self.p;
        f[ENERGY] = un * (cons.energy + self.p);
        f
    }

    pub(crate) fn as_array(self) -> [f64; NCOMP] {
        [self.rho, self.vel[0], self.vel[1], self.vel[2], self.p]
    }

    pub(crate) fn from_array(a: [f64; NCOMP]) -> Self {
        Primitive {
            rho: a[0].max(SMALL),
            vel: [a[1], a[2], a[3]],
            p: a[4].max(SMALL),
        }
    }
}

fn cons_as_array(c: Conserved) -> [f64; NCOMP] {
    [c.rho, c.mom[0], c.mom[1], c.mom[2], c.energy]
}

/// Read a 5-component state from strided slots of a flat payload. Every
/// writer of these slots — `to_primitive` for the pass-A primitive cache and
/// `predict_faces` for the wlo/whi face fabs — applies the `.max(SMALL)`
/// positivity floors before storing, so no clamping happens on the way out
/// (reloading is bit-identical to never storing).
#[inline(always)]
fn load_prim(s: &[f64], o: usize, st: usize) -> Primitive {
    Primitive {
        rho: s[o],
        vel: [s[o + st], s[o + 2 * st], s[o + 3 * st]],
        p: s[o + 4 * st],
    }
}

/// Write a 5-component state array into strided slots of a flat payload.
#[inline(always)]
fn store5(s: &mut [f64], o: usize, st: usize, v: [f64; NCOMP]) {
    s[o] = v[0];
    s[o + st] = v[1];
    s[o + 2 * st] = v[2];
    s[o + 3 * st] = v[3];
    s[o + 4 * st] = v[4];
}

/// HLLC approximate Riemann solver: the flux through a face with left state
/// `l` and right state `r`, normal direction `d`.
pub fn hllc_flux(l: Primitive, r: Primitive, d: usize, gamma: f64) -> [f64; NCOMP] {
    let cl = l.sound_speed(gamma);
    let cr = r.sound_speed(gamma);
    let ul = l.vel[d];
    let ur = r.vel[d];

    // Davis wave-speed estimates.
    let s_l = (ul - cl).min(ur - cr);
    let s_r = (ul + cl).max(ur + cr);

    if s_l >= 0.0 {
        return l.flux(d, gamma);
    }
    if s_r <= 0.0 {
        return r.flux(d, gamma);
    }

    // Contact wave speed.
    let rho_l = l.rho;
    let rho_r = r.rho;
    let s_star = (r.p - l.p + rho_l * ul * (s_l - ul) - rho_r * ur * (s_r - ur))
        / (rho_l * (s_l - ul) - rho_r * (s_r - ur));

    let star_state = |q: Primitive, s: f64| -> [f64; NCOMP] {
        let cons = q.to_conserved(gamma);
        let un = q.vel[d];
        let factor = q.rho * (s - un) / (s - s_star);
        let mut u_star = [0.0; NCOMP];
        u_star[RHO] = factor;
        let mut vel = q.vel;
        vel[d] = s_star;
        u_star[MX] = factor * vel[0];
        u_star[MY] = factor * vel[1];
        u_star[MZ] = factor * vel[2];
        u_star[ENERGY] =
            factor * (cons.energy / q.rho + (s_star - un) * (s_star + q.p / (q.rho * (s - un))));
        u_star
    };

    if s_star >= 0.0 {
        let f_l = l.flux(d, gamma);
        let u_l = cons_as_array(l.to_conserved(gamma));
        let u_star = star_state(l, s_l);
        std::array::from_fn(|c| f_l[c] + s_l * (u_star[c] - u_l[c]))
    } else {
        let f_r = r.flux(d, gamma);
        let u_r = cons_as_array(r.to_conserved(gamma));
        let u_star = star_state(r, s_r);
        std::array::from_fn(|c| f_r[c] + s_r * (u_star[c] - u_r[c]))
    }
}

/// minmod slope limiter.
pub(crate) fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// The polytropic-gas level solver.
#[derive(Clone, Copy, Debug)]
pub struct EulerSolver {
    /// Ratio of specific heats (1.4 for a diatomic ideal gas).
    pub gamma: f64,
    /// Component whose undivided gradient drives refinement tagging.
    pub tag_comp: usize,
}

impl Default for EulerSolver {
    fn default() -> Self {
        EulerSolver {
            gamma: 1.4,
            tag_comp: RHO,
        }
    }
}

impl EulerSolver {
    /// Read the conserved state at a cell. One flat offset computation
    /// serves all five components (they sit `comp_stride` apart).
    pub fn state(fab: &Fab, iv: IntVect) -> Conserved {
        let o = fab.cell_offset(iv);
        let s = fab.comp_stride();
        let d = fab.as_slice();
        Conserved {
            rho: d[o + RHO * s],
            mom: [d[o + MX * s], d[o + MY * s], d[o + MZ * s]],
            energy: d[o + ENERGY * s],
        }
    }

    /// Write a conserved state to a cell (flat-offset counterpart of
    /// [`Self::state`]).
    pub fn set_state(fab: &mut Fab, iv: IntVect, c: Conserved) {
        let o = fab.cell_offset(iv);
        let s = fab.comp_stride();
        let d = fab.as_mut_slice();
        d[o + RHO * s] = c.rho;
        d[o + MX * s] = c.mom[0];
        d[o + MY * s] = c.mom[1];
        d[o + MZ * s] = c.mom[2];
        d[o + ENERGY * s] = c.energy;
    }

    /// Both half-step face predictions of a cell at once: the `A(w)·slope`
    /// product of the reference's per-face predictor depends only on `w`
    /// and `slope`, so the sweep evaluates it once and forms the
    /// `side = ±0.5` states from it. Each component is the same expression
    /// the reference predictor evaluates (IEEE multiplication by −0.5 is
    /// the exact negation of multiplication by 0.5, and `a + (−b)` is
    /// `a − b`), and the rho/p components carry the same `.max(SMALL)`
    /// positivity floor `Primitive::from_array` applies, so the pair is
    /// bit-identical to two calls of the reference predictor.
    #[inline(always)]
    fn predict_faces(
        &self,
        w: Primitive,
        slope: &[f64; NCOMP],
        d: usize,
        dtdx: f64,
    ) -> ([f64; NCOMP], [f64; NCOMP]) {
        let rho = w.rho;
        let un = w.vel[d];
        let c2 = self.gamma * w.p / rho;
        let s = slope;
        let mut adw = [0.0; NCOMP];
        adw[0] = un * s[0] + rho * s[1 + d];
        for v in 0..3 {
            adw[1 + v] = un * s[1 + v];
        }
        adw[1 + d] += s[4] / rho;
        adw[4] = un * s[4] + rho * c2 * s[1 + d];
        let arr = w.as_array();
        let mut hi: [f64; NCOMP] =
            std::array::from_fn(|c| arr[c] + 0.5 * s[c] - 0.5 * dtdx * adw[c]);
        let mut lo: [f64; NCOMP] =
            std::array::from_fn(|c| arr[c] - 0.5 * s[c] - 0.5 * dtdx * adw[c]);
        // Positivity floors, matching Primitive::from_array: without these a
        // strong rarefaction can store rho or p ≤ 0 and hllc_flux would take
        // sqrt of a negative sound-speed argument.
        // xlint: floors-applied
        hi[0] = hi[0].max(SMALL);
        hi[4] = hi[4].max(SMALL);
        lo[0] = lo[0].max(SMALL);
        lo[4] = lo[4].max(SMALL);
        (hi, lo)
    }
}

impl LevelSolver for EulerSolver {
    fn ncomp(&self) -> usize {
        NCOMP
    }

    fn nghost(&self) -> i64 {
        2
    }

    fn max_wave_speed(&self, data: &LevelData) -> f64 {
        // Rayon reduction over grids; within a grid, contiguous row walks
        // over the flat payload (one offset per row, five strided reads per
        // cell). `f64::max` is commutative and associative for the non-NaN
        // speeds produced here, so the per-grid split cannot change the
        // result vs the serial reference.
        use rayon::prelude::*;
        let gamma = self.gamma;
        let per_grid: Vec<f64> = (0..data.len())
            .into_par_iter()
            .map(|i| {
                let vb = data.valid_box(i);
                let fab = data.fab(i);
                let st = fab.comp_stride();
                let payload = fab.as_slice();
                let nx = vb.size()[0] as usize;
                let mut s: f64 = 0.0;
                for z in vb.lo()[2]..=vb.hi()[2] {
                    for y in vb.lo()[1]..=vb.hi()[1] {
                        let o0 = fab.cell_offset(IntVect::new(vb.lo()[0], y, z));
                        for o in o0..o0 + nx {
                            let w = Conserved {
                                rho: payload[o],
                                mom: [payload[o + st], payload[o + 2 * st], payload[o + 3 * st]],
                                energy: payload[o + 4 * st],
                            }
                            .to_primitive(gamma);
                            let c = w.sound_speed(gamma);
                            for d in 0..DIM {
                                s = s.max(w.vel[d].abs() + c);
                            }
                        }
                    }
                }
                s
            })
            .collect();
        per_grid.into_iter().fold(0.0, f64::max)
    }

    fn advance_level(&self, data: &mut LevelData, dx: f64, dt: f64) {
        let dtdx = dt / dx;
        let gamma = self.gamma;
        // Grids are independent given their (ghost-filled) old state, so the
        // sweep parallelizes per grid. Each interior face is solved once.
        // The old-state snapshot and flux fabs come from the per-worker
        // scratch pool: after the first grid, a step allocates nothing.
        data.par_for_each_mut(|_, valid, fab| {
            let old = scratch::take_fab_clone(fab);
            let fluxes = self.grid_fluxes(&old, &valid, dtdx, gamma);
            Self::apply_fluxes(&valid, fab, &fluxes, dtdx, gamma);
            scratch::recycle_fab(old);
            for f in fluxes {
                scratch::recycle_fab(f);
            }
        });
    }

    fn advance_level_capture(&self, data: &mut LevelData, dx: f64, dt: f64) -> Option<LevelFluxes> {
        let dtdx = dt / dx;
        let gamma = self.gamma;
        // Same per-grid independence as `advance_level`; the indexed
        // parallel map collects each grid's flux fabs in grid order for the
        // refluxing caller. Flux fabs escape to the caller, so only the
        // old-state snapshot can come from the scratch pool here.
        Some(data.par_map_mut(|_, valid, fab| {
            let old = scratch::take_fab_clone(fab);
            let fluxes = self.grid_fluxes(&old, &valid, dtdx, gamma);
            Self::apply_fluxes(&valid, fab, &fluxes, dtdx, gamma);
            scratch::recycle_fab(old);
            fluxes
        }))
    }

    fn tag_cells(&self, data: &LevelData, threshold: f64) -> IntVectSet {
        tag_undivided_gradient(data, self.tag_comp, threshold)
    }
}

impl EulerSolver {
    /// Face fluxes for one grid, the flux-register convention: `flux[d]`
    /// at `iv` holds the HLLC flux through the face between `iv - e_d`
    /// and `iv`.
    ///
    /// Sweep-structured MUSCL–Hancock: conserved→primitive happens once
    /// per cell into a scratch fab, then per direction the limited slopes
    /// and both ±½-predicted face states are cached in one contiguous row
    /// walk, and the HLLC pass reads only cached states and writes flux
    /// rows contiguously. The per-cell reference
    /// ([`crate::reference::euler_grid_fluxes`]) re-derives primitives and
    /// slopes for every face touching a cell (~20+ redundant conversions per
    /// cell per step); this path is bit-identical to it — every cached value is
    /// the same expression the reference evaluates, just evaluated once —
    /// and property tests pin the equivalence.
    pub fn grid_fluxes(&self, old: &Fab, valid: &IBox, dtdx: f64, gamma: f64) -> [Fab; DIM] {
        let avail = old.ibox();
        // Pass A: conserved → primitive once per cell of the ghost-filled
        // box. One flat walk; all five components stream contiguously.
        let mut prim = scratch::take_fab(avail, NCOMP);
        let st = old.comp_stride();
        {
            let src = old.as_slice();
            let dst = prim.as_mut_slice();
            for o in 0..st {
                let w = Conserved {
                    rho: src[o],
                    mom: [src[o + st], src[o + 2 * st], src[o + 3 * st]],
                    energy: src[o + 4 * st],
                }
                .to_primitive(gamma)
                .as_array();
                store5(dst, o, st, w);
            }
        }
        let asize = avail.size();
        let fluxes = std::array::from_fn(|d| {
            // Cells whose predicted face states this direction's faces read:
            // the valid box grown by one in ±d, clipped to what exists.
            let sbox = valid.grow_dir(d, 1).intersect(&avail);
            let ss = sbox.num_cells() as usize;
            let mut wlo = scratch::take_fab(sbox, NCOMP); // state at the cell's −½ face
            let mut whi = scratch::take_fab(sbox, NCOMP); // state at the cell's +½ face
                                                          // Flat-offset step to the ±e_d neighbor inside the prim fab.
            let pstep = match d {
                0 => 1usize,
                1 => asize[0] as usize,
                _ => (asize[0] * asize[1]) as usize,
            };
            // Pass B: limited slopes + MUSCL–Hancock half-step predictor,
            // cached for both faces of every cell in contiguous row walks.
            {
                let p = prim.as_slice();
                let lo_s = wlo.as_mut_slice();
                let hi_s = whi.as_mut_slice();
                let nx = sbox.size()[0] as usize;
                for z in sbox.lo()[2]..=sbox.hi()[2] {
                    for y in sbox.lo()[1]..=sbox.hi()[1] {
                        let row = IntVect::new(sbox.lo()[0], y, z);
                        let op0 = avail.offset(row);
                        let os0 = sbox.offset(row);
                        // Neighbor availability along d is per-row constant
                        // except for d == 0, where it flips at the row ends.
                        let (row_has_m, row_has_p) =
                            (row[d] > avail.lo()[d], row[d] < avail.hi()[d]);
                        for i in 0..nx {
                            let op = op0 + i;
                            let (has_m, has_p) = if d == 0 {
                                let x = row[0] + i as i64;
                                (x > avail.lo()[0], x < avail.hi()[0])
                            } else {
                                (row_has_m, row_has_p)
                            };
                            let wc = [
                                p[op],
                                p[op + st],
                                p[op + 2 * st],
                                p[op + 3 * st],
                                p[op + 4 * st],
                            ];
                            let wp = if has_p {
                                let q = op + pstep;
                                [p[q], p[q + st], p[q + 2 * st], p[q + 3 * st], p[q + 4 * st]]
                            } else {
                                wc
                            };
                            let wm = if has_m {
                                let q = op - pstep;
                                [p[q], p[q + st], p[q + 2 * st], p[q + 3 * st], p[q + 4 * st]]
                            } else {
                                wc
                            };
                            let slope: [f64; NCOMP] =
                                std::array::from_fn(|c| minmod(wp[c] - wc[c], wc[c] - wm[c]));
                            let w = Primitive {
                                rho: wc[0],
                                vel: [wc[1], wc[2], wc[3]],
                                p: wc[4],
                            };
                            let os = os0 + i;
                            let (w_hi, w_lo) = self.predict_faces(w, &slope, d, dtdx);
                            store5(hi_s, os, ss, w_hi);
                            store5(lo_s, os, ss, w_lo);
                        }
                    }
                }
            }
            // Pass C: HLLC over faces, reading only the cached predicted
            // states and writing flux rows contiguously. At a physical
            // boundary the missing cell falls back to the interior one,
            // exactly as the reference's `face_flux` clamps.
            let mut hi = valid.hi();
            hi[d] += 1;
            let fbox = IBox::new(valid.lo(), hi);
            let mut flux = scratch::take_fab(fbox, NCOMP);
            let sf = flux.comp_stride();
            {
                let lo_s = wlo.as_slice();
                let hi_s = whi.as_slice();
                let out = flux.as_mut_slice();
                let nx = fbox.size()[0] as usize;
                for z in fbox.lo()[2]..=fbox.hi()[2] {
                    for y in fbox.lo()[1]..=fbox.hi()[1] {
                        let row = IntVect::new(fbox.lo()[0], y, z);
                        let of0 = fbox.offset(row);
                        if d == 0 {
                            let os0 = sbox.offset(IntVect::new(sbox.lo()[0], y, z));
                            for i in 0..nx {
                                let x = row[0] + i as i64;
                                let lx = if x > avail.lo()[0] { x - 1 } else { x };
                                let rx = if x <= avail.hi()[0] { x } else { x - 1 };
                                let wl = load_prim(hi_s, os0 + (lx - sbox.lo()[0]) as usize, ss);
                                let wr = load_prim(lo_s, os0 + (rx - sbox.lo()[0]) as usize, ss);
                                store5(out, of0 + i, sf, hllc_flux(wl, wr, d, gamma));
                            }
                        } else {
                            let fd = row[d];
                            let ld = if fd > avail.lo()[d] { fd - 1 } else { fd };
                            let rd = if fd <= avail.hi()[d] { fd } else { fd - 1 };
                            let mut lrow = row;
                            lrow[d] = ld;
                            let mut rrow = row;
                            rrow[d] = rd;
                            let ol0 = sbox.offset(lrow);
                            let or0 = sbox.offset(rrow);
                            for i in 0..nx {
                                let wl = load_prim(hi_s, ol0 + i, ss);
                                let wr = load_prim(lo_s, or0 + i, ss);
                                store5(out, of0 + i, sf, hllc_flux(wl, wr, d, gamma));
                            }
                        }
                    }
                }
            }
            scratch::recycle_fab(wlo);
            scratch::recycle_fab(whi);
            flux
        });
        scratch::recycle_fab(prim);
        fluxes
    }

    /// Conservative update from face fluxes, with positivity floors.
    pub(crate) fn apply_fluxes(
        valid: &IBox,
        fab: &mut Fab,
        fluxes: &[Fab; DIM],
        dtdx: f64,
        gamma: f64,
    ) {
        // Row walks: one offset per row for the state fab and each flux fab
        // (every Fab shares the x-fastest layout, so consecutive cells are
        // consecutive offsets). The per-cell arithmetic and its evaluation
        // order are unchanged from the per-cell form, so the update is
        // bit-identical to it.
        let lo = valid.lo();
        let hi = valid.hi();
        let nx = (hi[0] - lo[0] + 1) as usize;
        let s = fab.comp_stride();
        let sf: [usize; DIM] = std::array::from_fn(|d| fluxes[d].comp_stride());
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                let row = IntVect::new(lo[0], y, z);
                let ob = fab.cell_offset(row);
                let f0: [usize; DIM] = std::array::from_fn(|d| fluxes[d].cell_offset(row));
                let f1: [usize; DIM] =
                    std::array::from_fn(|d| fluxes[d].cell_offset(row + IntVect::basis(d)));
                let dst = fab.as_mut_slice();
                for i in 0..nx {
                    let mut du = [0.0; NCOMP];
                    for (d, flux) in fluxes.iter().enumerate() {
                        let fd = flux.as_slice();
                        let (o0, o1) = (f0[d] + i, f1[d] + i);
                        for (c, dv) in du.iter_mut().enumerate() {
                            *dv -= dtdx * (fd[o1 + c * sf[d]] - fd[o0 + c * sf[d]]);
                        }
                    }
                    let o = ob + i;
                    let u = Conserved {
                        rho: dst[o],
                        mom: [dst[o + s], dst[o + 2 * s], dst[o + 3 * s]],
                        energy: dst[o + 4 * s],
                    };
                    let mut new = cons_as_array(u);
                    for (c, dv) in du.iter().enumerate() {
                        new[c] += dv;
                    }
                    // positivity floors via primitive roundtrip
                    let cons = Conserved {
                        rho: new[RHO].max(SMALL),
                        mom: [new[MX], new[MY], new[MZ]],
                        energy: new[ENERGY],
                    };
                    let w = cons.to_primitive(gamma);
                    store5(dst, o, s, cons_as_array(w.to_conserved(gamma)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_amr::domain::ProblemDomain;
    use xlayer_amr::layout::BoxLayout;

    const GAMMA: f64 = 1.4;

    fn prim(rho: f64, u: f64, p: f64) -> Primitive {
        Primitive {
            rho,
            vel: [u, 0.0, 0.0],
            p,
        }
    }

    #[test]
    fn primitive_conserved_roundtrip() {
        let w = Primitive {
            rho: 1.3,
            vel: [0.4, -0.7, 2.1],
            p: 2.5,
        };
        let back = w.to_conserved(GAMMA).to_primitive(GAMMA);
        assert!((back.rho - w.rho).abs() < 1e-12);
        assert!((back.p - w.p).abs() < 1e-12);
        for d in 0..3 {
            assert!((back.vel[d] - w.vel[d]).abs() < 1e-12);
        }
    }

    #[test]
    fn hllc_consistency_with_uniform_state() {
        // F(w, w) must equal the physical flux of w.
        let w = prim(1.0, 0.5, 1.0);
        let f = hllc_flux(w, w, 0, GAMMA);
        let exact = w.flux(0, GAMMA);
        for c in 0..NCOMP {
            assert!((f[c] - exact[c]).abs() < 1e-12, "comp {c}");
        }
    }

    #[test]
    fn hllc_supersonic_upwinds() {
        // Flow at Mach 5 to the right: flux must be the left flux.
        let l = prim(1.0, 10.0, 1.0);
        let r = prim(0.1, 10.0, 0.1);
        let f = hllc_flux(l, r, 0, GAMMA);
        let exact = l.flux(0, GAMMA);
        for c in 0..NCOMP {
            assert!((f[c] - exact[c]).abs() < 1e-12);
        }
    }

    #[test]
    fn hllc_symmetric_states_zero_mass_flux() {
        // Mirror-symmetric states: no net mass flux through the face.
        let l = prim(1.0, 1.0, 1.0);
        let r = prim(1.0, -1.0, 1.0);
        let f = hllc_flux(l, r, 0, GAMMA);
        assert!(f[RHO].abs() < 1e-12, "mass flux {}", f[RHO]);
    }

    fn uniform_level(n: i64, w: Primitive) -> LevelData {
        let domain = ProblemDomain::periodic(IBox::cube(n));
        let layout = BoxLayout::decompose(&domain, n, 1);
        let mut ld = LevelData::new(layout, domain, NCOMP, 2);
        let c = w.to_conserved(GAMMA);
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                EulerSolver::set_state(fab, iv, c);
            }
        });
        ld
    }

    #[test]
    fn uniform_state_is_steady() {
        let solver = EulerSolver::default();
        let w = Primitive {
            rho: 1.0,
            vel: [0.3, -0.2, 0.1],
            p: 1.0,
        };
        let mut ld = uniform_level(8, w);
        ld.exchange();
        solver.advance_level(&mut ld, 0.1, 0.01);
        for i in 0..ld.len() {
            let vb = ld.valid_box(i);
            for iv in vb.cells() {
                let got = EulerSolver::state(ld.fab(i), iv).to_primitive(GAMMA);
                assert!((got.rho - 1.0).abs() < 1e-10, "rho drifted at {iv:?}");
                assert!((got.p - 1.0).abs() < 1e-9, "p drifted at {iv:?}");
            }
        }
    }

    #[test]
    fn sod_shock_tube_conserves_and_stays_positive() {
        // Sod problem along x on a periodic-free box; run a few steps.
        let n = 32;
        let domain = ProblemDomain::new(IBox::cube(n));
        let layout = BoxLayout::decompose(&domain, n, 1);
        let mut ld = LevelData::new(layout, domain, NCOMP, 2);
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                let w = if iv[0] < n / 2 {
                    prim(1.0, 0.0, 1.0)
                } else {
                    prim(0.125, 0.0, 0.1)
                };
                EulerSolver::set_state(fab, iv, w.to_conserved(GAMMA));
            }
        });
        let solver = EulerSolver::default();
        let dx = 1.0 / n as f64;
        let mass0: f64 = ld.sum(RHO);
        for _ in 0..10 {
            ld.exchange();
            let smax = solver.max_wave_speed(&ld);
            let dt = 0.4 * dx / smax;
            solver.advance_level(&mut ld, dx, dt);
        }
        // Positivity everywhere.
        for i in 0..ld.len() {
            let vb = ld.valid_box(i);
            for iv in vb.cells() {
                let w = EulerSolver::state(ld.fab(i), iv).to_primitive(GAMMA);
                assert!(w.rho > 0.0 && w.p > 0.0, "unphysical state at {iv:?}");
                // density stays within initial bounds (+small overshoot slack)
                assert!(w.rho < 1.05 && w.rho > 0.1, "rho {} out of range", w.rho);
            }
        }
        // Interior mass conservation: boundary is outflow-free for early
        // times since the wave hasn't reached it.
        let mass1: f64 = ld.sum(RHO);
        assert!(
            (mass1 - mass0).abs() < 1e-8 * mass0,
            "mass drifted {mass0} -> {mass1}"
        );
    }

    #[test]
    fn periodic_advected_pulse_conserves_exactly() {
        // A smooth density pulse advected in a periodic box: total mass,
        // momentum and energy conserved to machine precision.
        let n = 16;
        let domain = ProblemDomain::periodic(IBox::cube(n));
        let layout = BoxLayout::decompose(&domain, 8, 1);
        let mut ld = LevelData::new(layout, domain, NCOMP, 2);
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                let x = (iv[0] as f64 + 0.5) / n as f64;
                let rho = 1.0 + 0.2 * (2.0 * std::f64::consts::PI * x).sin();
                let w = Primitive {
                    rho,
                    vel: [1.0, 0.0, 0.0],
                    p: 1.0,
                };
                EulerSolver::set_state(fab, iv, w.to_conserved(GAMMA));
            }
        });
        let solver = EulerSolver::default();
        let dx = 1.0 / n as f64;
        let m0 = ld.sum(RHO);
        let e0 = ld.sum(ENERGY);
        for _ in 0..8 {
            ld.exchange();
            let dt = 0.4 * dx / solver.max_wave_speed(&ld);
            solver.advance_level(&mut ld, dx, dt);
        }
        assert!((ld.sum(RHO) - m0).abs() < 1e-10 * m0);
        assert!((ld.sum(ENERGY) - e0).abs() < 1e-10 * e0);
    }

    #[test]
    fn max_wave_speed_reflects_sound_speed() {
        let w = prim(1.0, 0.0, 1.0); // c = sqrt(1.4)
        let ld = uniform_level(4, w);
        let solver = EulerSolver::default();
        let s = solver.max_wave_speed(&ld);
        assert!((s - GAMMA.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn minmod_limits() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-3.0, -2.0), -2.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }
}
