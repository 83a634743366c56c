//! Retained per-cell reference kernels: what the sweep-structured and fused
//! kernels are tested and benchmarked against, out of the solvers' own API.
//!
//! Every function here walks its box through `IBox::cells()`, one face or
//! one cell at a time, with its own copy of the face arithmetic —
//! deliberately sharing no loop or cache with the kernel it checks. The
//! Euler references keep their own branchy scalar `hllc_flux`, `minmod` and
//! per-cell conservative update, so the pins compare two formulations of
//! the whole step, not the lane kernel with itself. Support code for
//! `tests/sweep_equivalence.rs`; nothing in the product calls it.

use crate::advect::AdvectDiffuseSolver;
use crate::euler::{Conserved, EulerSolver, Primitive, ENERGY, MX, MY, MZ, NCOMP, RHO, SMALL};
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::{IntVect, DIM};
use xlayer_amr::level_data::LevelData;

/// The per-face fluxes of one grid, `flux[d]` at `iv` through the face
/// between `iv - e_d` and `iv`: every face independently resolves its cells
/// through `Fab::get` and its velocity through two `VelocityField::at`
/// calls.
pub fn advect_grid_fluxes(
    solver: &AdvectDiffuseSolver,
    old: &Fab,
    valid: &IBox,
    dx: f64,
) -> [Fab; DIM] {
    let avail = old.ibox();
    std::array::from_fn(|d| {
        let e = IntVect::basis(d);
        let mut hi = valid.hi();
        hi[d] += 1;
        let fbox = IBox::new(valid.lo(), hi);
        let mut flux = Fab::new(fbox, 1);
        for iv in fbox.cells() {
            let lo_cell = iv - e;
            let have_lo = avail.contains(lo_cell);
            let have_hi = avail.contains(iv);
            let u_hi = if have_hi {
                old.get(iv, 0)
            } else {
                old.get(lo_cell, 0)
            };
            let u_lo = if have_lo { old.get(lo_cell, 0) } else { u_hi };
            let v = 0.5 * (solver.velocity.at(lo_cell)[d] + solver.velocity.at(iv)[d]);
            let mut f = if v >= 0.0 { v * u_lo } else { v * u_hi };
            // Diffusive flux only across interior faces (zero-gradient at
            // physical boundaries).
            if solver.diffusion > 0.0 && have_lo && have_hi {
                f -= solver.diffusion * (u_hi - u_lo) / dx;
            }
            flux.set(iv, 0, f);
        }
        flux
    })
}

/// Conservative per-cell update from face fluxes.
fn advect_apply_fluxes(valid: &IBox, fab: &mut Fab, fluxes: &[Fab; DIM], dtdx: f64) {
    for iv in valid.cells() {
        let mut du = 0.0;
        for (d, flux) in fluxes.iter().enumerate() {
            let e = IntVect::basis(d);
            du -= dtdx * (flux.get(iv + e, 0) - flux.get(iv, 0));
        }
        let u = fab.get(iv, 0);
        fab.set(iv, 0, u + du);
    }
}

/// `AdvectDiffuseSolver::advance_level` through the per-face reference: a
/// serial grid loop, each grid a snapshot of the old state, three flux
/// fabs, a per-cell update.
pub fn advect_advance_level(solver: &AdvectDiffuseSolver, data: &mut LevelData, dx: f64, dt: f64) {
    let dtdx = dt / dx;
    for i in 0..data.len() {
        let valid = data.valid_box(i);
        let old = data.fab(i).clone();
        let fluxes = advect_grid_fluxes(solver, &old, &valid, dx);
        advect_apply_fluxes(&valid, data.fab_mut(i), &fluxes, dtdx);
    }
}

/// The per-face fluxes of one grid, `flux[d]` at `iv` through the face
/// between `iv - e_d` and `iv`: every face independently re-derives both
/// cells' primitives and slopes via [`euler_face_flux`].
pub fn euler_grid_fluxes(solver: &EulerSolver, old: &Fab, valid: &IBox, dtdx: f64) -> [Fab; DIM] {
    let avail = old.ibox();
    std::array::from_fn(|d| {
        let e = IntVect::basis(d);
        let mut hi = valid.hi();
        hi[d] += 1;
        let fbox = IBox::new(valid.lo(), hi);
        let mut flux = Fab::new(fbox, NCOMP);
        let stride = flux.comp_stride();
        for iv in fbox.cells() {
            let f = euler_face_flux(solver, old, &avail, iv - e, iv, d, dtdx);
            let o = flux.cell_offset(iv);
            let out = flux.as_mut_slice();
            for (c, fv) in f.iter().enumerate() {
                out[o + c * stride] = *fv;
            }
        }
        flux
    })
}

/// Conservative per-cell update from face fluxes, with the positivity
/// floors through a primitive round trip.
fn euler_apply_fluxes(
    solver: &EulerSolver,
    valid: &IBox,
    fab: &mut Fab,
    fluxes: &[Fab; DIM],
    dtdx: f64,
) {
    let gamma = solver.gamma;
    for iv in valid.cells() {
        let mut du = [0.0; NCOMP];
        for (d, flux) in fluxes.iter().enumerate() {
            let e = IntVect::basis(d);
            for (c, dv) in du.iter_mut().enumerate() {
                *dv -= dtdx * (flux.get(iv + e, c) - flux.get(iv, c));
            }
        }
        let u = EulerSolver::state(fab, iv);
        let floored = Conserved {
            rho: (u.rho + du[RHO]).max(SMALL),
            mom: [u.mom[0] + du[MX], u.mom[1] + du[MY], u.mom[2] + du[MZ]],
            energy: u.energy + du[ENERGY],
        };
        EulerSolver::set_state(fab, iv, floored.to_primitive(gamma).to_conserved(gamma));
    }
}

/// `EulerSolver::advance_level` through [`euler_grid_fluxes`] (same
/// parallel per-grid structure, reference per-face math) — the baseline the
/// sweep is benchmarked against.
pub fn euler_advance_level(solver: &EulerSolver, data: &mut LevelData, dx: f64, dt: f64) {
    let dtdx = dt / dx;
    data.par_for_each_mut(|_, valid, fab| {
        let old = fab.clone();
        let fluxes = euler_grid_fluxes(solver, &old, &valid, dtdx);
        euler_apply_fluxes(solver, &valid, fab, &fluxes, dtdx);
    });
}

/// The serial per-cell reference for `EulerSolver::max_wave_speed`.
pub fn euler_max_wave_speed(solver: &EulerSolver, data: &LevelData) -> f64 {
    let mut s: f64 = 0.0;
    for i in 0..data.len() {
        let vb = data.valid_box(i);
        let fab = data.fab(i);
        for iv in vb.cells() {
            let w = EulerSolver::state(fab, iv).to_primitive(solver.gamma);
            let c = w.sound_speed(solver.gamma);
            for d in 0..DIM {
                s = s.max(w.vel[d].abs() + c);
            }
        }
    }
    s
}

/// MUSCL–Hancock + HLLC flux at the face between `left_cell` and
/// `right_cell` along `d`. Falls back to first order at physical
/// boundaries where a neighbor is unavailable.
fn euler_face_flux(
    solver: &EulerSolver,
    old: &Fab,
    avail: &IBox,
    left_cell: IntVect,
    right_cell: IntVect,
    d: usize,
    dtdx: f64,
) -> [f64; NCOMP] {
    let gamma = solver.gamma;
    // Outside the domain (non-periodic boundary): reflecting-free outflow
    // — use the interior cell's state on both sides.
    let (lc, rc) = (
        if avail.contains(left_cell) {
            left_cell
        } else {
            right_cell
        },
        if avail.contains(right_cell) {
            right_cell
        } else {
            left_cell
        },
    );
    let wl0 = EulerSolver::state(old, lc).to_primitive(gamma);
    let wr0 = EulerSolver::state(old, rc).to_primitive(gamma);
    let sl = euler_slopes(solver, old, lc, d);
    let sr = euler_slopes(solver, old, rc, d);
    let wl = euler_predict(solver, wl0, &sl, d, 0.5, dtdx);
    let wr = euler_predict(solver, wr0, &sr, d, -0.5, dtdx);
    hllc_flux(wl, wr, d, gamma)
}

fn cons_as_array(c: Conserved) -> [f64; NCOMP] {
    [c.rho, c.mom[0], c.mom[1], c.mom[2], c.energy]
}

/// HLLC approximate Riemann solver, one face at a time with branches: the
/// flux through a face with left state `l` and right state `r`, normal
/// direction `d`.
fn hllc_flux(l: Primitive, r: Primitive, d: usize, gamma: f64) -> [f64; NCOMP] {
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
        let mut vel = q.vel;
        vel[d] = s_star;
        [
            factor,
            factor * vel[0],
            factor * vel[1],
            factor * vel[2],
            factor * (cons.energy / q.rho + (s_star - un) * (s_star + q.p / (q.rho * (s - un)))),
        ]
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
fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// Limited primitive slope at `iv` along `d` (needs ±1 neighbors).
fn euler_slopes(solver: &EulerSolver, fab: &Fab, iv: IntVect, d: usize) -> [f64; NCOMP] {
    let e = IntVect::basis(d);
    let avail = fab.ibox();
    let prim = |iv| {
        EulerSolver::state(fab, iv)
            .to_primitive(solver.gamma)
            .as_array()
    };
    let wc = prim(iv);
    let wp = if avail.contains(iv + e) {
        prim(iv + e)
    } else {
        wc
    };
    let wm = if avail.contains(iv - e) {
        prim(iv - e)
    } else {
        wc
    };
    std::array::from_fn(|c| minmod(wp[c] - wc[c], wc[c] - wm[c]))
}

/// MUSCL–Hancock half-step predictor: advance the primitive state at a
/// cell face by dt/2 using the normal flux gradient.
fn euler_predict(
    solver: &EulerSolver,
    w: Primitive,
    slope: &[f64; NCOMP],
    d: usize,
    side: f64, // +0.5 for high face, -0.5 for low face
    dtdx: f64,
) -> Primitive {
    // Characteristic-free primitive predictor (Toro §14.4): w_face =
    // w + side*slope - dt/(2dx) * A(w)·slope, with A the primitive-form
    // Jacobian along d.
    let rho = w.rho;
    let un = w.vel[d];
    let c2 = solver.gamma * w.p / rho;
    let s = slope;
    // A(w)·slope for primitive Euler along direction d:
    let mut adw = [0.0; NCOMP];
    adw[0] = un * s[0] + rho * s[1 + d];
    for v in 0..3 {
        adw[1 + v] = un * s[1 + v];
    }
    adw[1 + d] += s[4] / rho;
    adw[4] = un * s[4] + rho * c2 * s[1 + d];

    let arr = w.as_array();
    // xlint: floors-applied -- Primitive::from_array clamps rho and p to SMALL
    Primitive::from_array(std::array::from_fn(|c| {
        arr[c] + side * s[c] - 0.5 * dtdx * adw[c]
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branchy solver and the lane kernel's one-lane entry agree bit
    /// for bit in each branch, and on NaN states, which fail every
    /// comparison and fall through to the right star-state flux in both.
    #[test]
    fn branchy_hllc_matches_the_lane_kernel() {
        let w = |rho: f64, u: f64, p: f64| Primitive {
            rho,
            vel: [u, 0.25, -0.5],
            p,
        };
        let cases = [
            (w(1.0, 10.0, 1.0), w(0.1, 10.0, 0.1)),
            (w(0.1, -10.0, 0.1), w(1.0, -10.0, 1.0)),
            (w(1.0, 0.5, 1.0), w(0.125, 0.0, 0.1)),
            (w(0.125, -0.5, 0.1), w(1.0, -0.2, 1.0)),
            (w(f64::NAN, 0.0, 1.0), w(1.0, 0.0, 1.0)),
            (w(1.0, 0.0, 1.0), w(1.0, f64::NAN, 1.0)),
        ];
        for (l, r) in cases {
            for d in 0..DIM {
                let (a, b) = (
                    hllc_flux(l, r, d, 1.4),
                    crate::euler::hllc_flux(l, r, d, 1.4),
                );
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "{l:?} | {r:?} dir {d}"
                );
            }
        }
    }
}
