//! The interface an application solver presents to the AMR driver.

use xlayer_amr::level_data::LevelData;
use xlayer_amr::tagging::IntVectSet;

/// A single-level explicit solver advanced by the AMR driver.
///
/// Implementations: [`crate::euler::EulerSolver`] (Polytropic Gas) and
/// [`crate::advect::AdvectDiffuseSolver`] (Advection–Diffusion) — the two
/// Chombo applications of the paper's evaluation.
pub trait LevelSolver {
    /// Number of solution components per cell.
    fn ncomp(&self) -> usize;

    /// Ghost cells the stencil requires (the driver allocates and fills them).
    fn nghost(&self) -> i64;

    /// Maximum signal speed over the level's valid cells, used for the CFL
    /// time-step limit `dt ≤ cfl · dx / max_speed`.
    fn max_wave_speed(&self, data: &LevelData) -> f64;

    /// Advance the level by `dt` with grid spacing `dx`. Ghost cells must be
    /// filled before the call; only valid cells need be updated.
    fn advance_level(&self, data: &mut LevelData, dx: f64, dt: f64);

    /// Mark cells needing refinement.
    fn tag_cells(&self, data: &LevelData, threshold: f64) -> IntVectSet;

    /// An optional extra time-step restriction independent of wave speeds
    /// (e.g. an explicit-diffusion limit). Return `f64::INFINITY` if none.
    fn max_dt(&self, _dx: f64) -> f64 {
        f64::INFINITY
    }
}
