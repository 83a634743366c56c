//! Retained per-cell reference kernels: what the sweep-structured and fused
//! kernels are tested and benchmarked against, out of the solvers' own API.
//!
//! Every function here resolves each cell through `Fab::get`/`set` and
//! `IBox::cells()`, one face or one cell at a time, with its own copy of the
//! arithmetic — deliberately sharing nothing with the kernel it checks.
//! Support code for `tests/sweep_equivalence.rs` and the kernel benches;
//! nothing in the product calls it.

use crate::advect::AdvectDiffuseSolver;
use crate::level_solver::LevelFluxes;
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::{IntVect, DIM};
use xlayer_amr::level_data::LevelData;

/// The per-face reference for [`AdvectDiffuseSolver::grid_fluxes`]: every
/// face independently resolves its cells through `Fab::get` and its
/// velocity through two `VelocityField::at` calls.
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
/// snapshot of the old state, three flux fabs, a per-cell update.
pub fn advect_advance_level(solver: &AdvectDiffuseSolver, data: &mut LevelData, dx: f64, dt: f64) {
    advect_advance_level_capture(solver, data, dx, dt);
}

/// `AdvectDiffuseSolver::advance_level_capture` as the seed shipped it: a
/// serial grid loop over the reference kernel, for the AMR refluxing golden
/// tests.
pub fn advect_advance_level_capture(
    solver: &AdvectDiffuseSolver,
    data: &mut LevelData,
    dx: f64,
    dt: f64,
) -> LevelFluxes {
    let dtdx = dt / dx;
    (0..data.len())
        .map(|i| {
            let valid = data.valid_box(i);
            let old = data.fab(i).clone();
            let fluxes = advect_grid_fluxes(solver, &old, &valid, dx);
            advect_apply_fluxes(&valid, data.fab_mut(i), &fluxes, dtdx);
            fluxes
        })
        .collect()
}
