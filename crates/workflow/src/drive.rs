//! Driving the modeled workflow with a *real* AMR simulation: every step's
//! data volume, cell count and memory imbalance comes from an actual
//! `xlayer-solvers` run, so the virtual experiments inherit the genuine
//! dynamics (erratic growth, imbalance — Fig. 1) of the workload.

use crate::modeled::{DrivePoint, WorkloadDriver};
use xlayer_solvers::{AmrSimulation, LevelSolver};

/// Adapts an [`AmrSimulation`] into a [`WorkloadDriver`].
pub struct AmrDriver<S: LevelSolver> {
    sim: AmrSimulation<S>,
}

impl<S: LevelSolver> AmrDriver<S> {
    /// Wrap a simulation (initial conditions and initial regrid should be
    /// done already).
    pub fn new(sim: AmrSimulation<S>) -> Self {
        AmrDriver { sim }
    }

    /// Access the underlying simulation.
    pub fn sim(&self) -> &AmrSimulation<S> {
        &self.sim
    }
}

impl<S: LevelSolver> WorkloadDriver for AmrDriver<S> {
    fn next_point(&mut self) -> DrivePoint {
        let stats = self.sim.advance();
        let profile = self.sim.memory_profile();
        // The refined region tracks the steep-gradient (surface) features,
        // so the finest level's footprint estimates the surface size. A
        // 2-D surface crosses ~n^(2/3) of an n-cell refined region; the /8
        // coefficient matches the measured crossing fraction of our blast
        // and blob workloads (tag-buffered shells a few cells thick).
        let h = &self.sim.hierarchy;
        let finest_cells = h.level(h.num_levels() - 1).layout().total_cells();
        let surface_cells = if h.num_levels() > 1 {
            finest_cells / 8
        } else {
            stats.cells_advanced / 12
        };
        DrivePoint {
            cells: stats.cells_advanced,
            bytes: stats.data_bytes,
            imbalance: profile.imbalance(),
            surface_cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_amr::hierarchy::HierarchyConfig;
    use xlayer_amr::{IBox, ProblemDomain};
    use xlayer_solvers::{AdvectDiffuseSolver, DriverConfig, ScalarProblem, VelocityField};

    #[test]
    fn real_simulation_produces_drive_points() {
        let n = 16;
        let domain = ProblemDomain::periodic(IBox::cube(n));
        let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.0, 0.0]), 0.0, n);
        let mut sim = AmrSimulation::new(
            domain,
            HierarchyConfig {
                max_levels: 2,
                base_max_box: 8,
                nranks: 4,
                ..Default::default()
            },
            solver,
            DriverConfig {
                tag_threshold: 0.02,
                ..Default::default()
            },
        );
        ScalarProblem::Gaussian {
            center: [8.0; 3],
            sigma: 2.0,
        }
        .init_hierarchy(&mut sim.hierarchy);
        sim.regrid_now();

        let mut driver = AmrDriver::new(sim);
        let p1 = driver.next_point();
        let p2 = driver.next_point();
        assert!(p1.cells > 0);
        assert!(p1.bytes > 0);
        assert!(p1.imbalance >= 1.0);
        assert!(p2.cells > 0);
        assert_eq!(driver.sim().step_count(), 2);
    }
}
