//! The AMR time-stepping driver: couples a [`LevelSolver`] to an
//! [`AmrHierarchy`], producing exactly the per-step observables the
//! adaptation runtime monitors (step wall time, data volume, memory).
//!
//! Time stepping is lock-step: every level advances with the global,
//! finest-limited dt, then the fine levels are averaged down onto the
//! coarse ones. Coarse–fine fluxes are not refluxed, so the composite sum
//! drifts at O(dt) per boundary crossing.

use crate::level_solver::LevelSolver;
use xlayer_amr::hierarchy::{AmrHierarchy, HierarchyConfig};
use xlayer_amr::memory::MemoryProfile;
use xlayer_amr::tagging::IntVectSet;
use xlayer_amr::ProblemDomain;

/// Observables produced by one simulation step — the Monitor's raw input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepStats {
    /// Step index (1-based after the first call).
    pub step: u64,
    /// Simulated time after the step.
    pub time: f64,
    /// Time step taken.
    pub dt: f64,
    /// Cells advanced: every level's cells, each level once per step.
    pub cells_advanced: u64,
    /// Bytes moved between ranks by ghost exchanges.
    pub exchange_bytes: u64,
    /// Total grid-data bytes after the step (the simulation output size
    /// `S_data` of the paper's Table 1 before any reduction).
    pub data_bytes: u64,
    /// Whether a regrid happened this step.
    pub regridded: bool,
    /// Number of levels after the step.
    pub levels: usize,
}

/// Configuration of the AMR run loop.
#[derive(Clone, Copy, Debug)]
pub struct DriverConfig {
    /// CFL number for the advective limit.
    pub cfl: f64,
    /// Regrid every this many steps (0 disables regridding).
    pub regrid_interval: u64,
    /// Tag threshold passed to the solver's tagger.
    pub tag_threshold: f64,
    /// Base-level grid spacing.
    pub base_dx: f64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            cfl: 0.4,
            regrid_interval: 4,
            tag_threshold: 0.05,
            base_dx: 1.0,
        }
    }
}

/// An AMR simulation: hierarchy + solver + run loop.
pub struct AmrSimulation<S: LevelSolver> {
    /// The grid hierarchy and its data.
    pub hierarchy: AmrHierarchy,
    solver: S,
    config: DriverConfig,
    step: u64,
    time: f64,
}

impl<S: LevelSolver> AmrSimulation<S> {
    /// Build a simulation; the hierarchy config's `ncomp`/`nghost` are forced
    /// to the solver's requirements.
    pub fn new(
        base_domain: ProblemDomain,
        mut hier_config: HierarchyConfig,
        solver: S,
        config: DriverConfig,
    ) -> Self {
        hier_config.ncomp = solver.ncomp();
        hier_config.nghost = solver.nghost();
        let hierarchy = AmrHierarchy::new(base_domain, hier_config);
        AmrSimulation {
            hierarchy,
            solver,
            config,
            step: 0,
            time: 0.0,
        }
    }

    /// Resume a simulation from restored state (checkpoint restart): the
    /// hierarchy as read back (e.g. from a plotfile), plus the step count
    /// and simulated time at which the checkpoint was taken.
    pub fn restore(
        hierarchy: AmrHierarchy,
        solver: S,
        config: DriverConfig,
        step: u64,
        time: f64,
    ) -> Self {
        assert_eq!(hierarchy.config().ncomp, solver.ncomp());
        AmrSimulation {
            hierarchy,
            solver,
            config,
            step,
            time,
        }
    }

    /// The solver.
    pub fn solver(&self) -> &S {
        &self.solver
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Simulated time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Cell spacing of level `level`: `base_dx / r^level`.
    pub fn dx(&self, level: usize) -> f64 {
        self.config.base_dx / self.hierarchy.ref_ratio().pow(level as u32) as f64
    }

    /// Tag-and-regrid immediately (also used to build the initial fine
    /// levels after setting initial conditions on the base level).
    pub fn regrid_now(&mut self) {
        self.hierarchy.fill_ghosts();
        self.tag_and_regrid();
    }

    /// Tag every level that can still be refined and regrid from the tags.
    /// Ghost cells must be filled. `AmrHierarchy::regrid` ignores tags on
    /// the finest allowed level, so that level is not scanned.
    fn tag_and_regrid(&mut self) {
        let h = &self.hierarchy;
        let refinable = h.num_levels().min(h.config().max_levels - 1);
        if refinable == 0 {
            return;
        }
        let tags: Vec<IntVectSet> = (0..refinable)
            .map(|l| self.solver.tag_cells(h.level(l), self.config.tag_threshold))
            .collect();
        self.hierarchy.regrid(&tags);
    }

    /// The stable time step at the current state.
    pub fn compute_dt(&self) -> f64 {
        let mut dt = f64::INFINITY;
        for l in 0..self.hierarchy.num_levels() {
            let dx = self.dx(l);
            let s = self.solver.max_wave_speed(self.hierarchy.level(l));
            if s > 0.0 {
                dt = dt.min(self.config.cfl * dx / s);
            }
            dt = dt.min(self.solver.max_dt(dx));
        }
        if dt.is_finite() {
            dt
        } else {
            self.config.base_dx * self.config.cfl
        }
    }

    /// Advance one step: fill ghosts, advance every level with the global
    /// (finest-limited) time step, average down, regrid on schedule.
    /// Returns the step's observables.
    pub fn advance(&mut self) -> StepStats {
        let dt = self.compute_dt();
        let mut exchange_bytes = self.hierarchy.fill_ghosts();
        let mut cells = 0;
        for l in 0..self.hierarchy.num_levels() {
            let dx = self.dx(l);
            cells += self.hierarchy.level(l).layout().total_cells();
            self.solver
                .advance_level(self.hierarchy.level_mut(l), dx, dt);
        }
        self.hierarchy.average_down();
        self.step += 1;
        self.time += dt;

        let mut regridded = false;
        if self.config.regrid_interval > 0 && self.step.is_multiple_of(self.config.regrid_interval)
        {
            exchange_bytes += self.hierarchy.fill_ghosts();
            self.tag_and_regrid();
            regridded = true;
        }

        StepStats {
            step: self.step,
            time: self.time,
            dt,
            cells_advanced: cells,
            exchange_bytes,
            data_bytes: self.hierarchy.total_bytes(),
            regridded,
            levels: self.hierarchy.num_levels(),
        }
    }

    /// Capture the per-rank memory profile (Fig. 1 observable).
    pub fn memory_profile(&self) -> MemoryProfile {
        MemoryProfile::capture(self.step, &self.hierarchy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advect::{AdvectDiffuseSolver, VelocityField};
    use crate::euler::{EulerSolver, RHO};
    use crate::problems::{GasProblem, ScalarProblem};
    use xlayer_amr::boxes::IBox;

    fn advect_sim(n: i64, max_levels: usize) -> AmrSimulation<AdvectDiffuseSolver> {
        let domain = ProblemDomain::periodic(IBox::cube(n));
        let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.0, 0.0]), 0.0, n);
        let mut sim = AmrSimulation::new(
            domain,
            HierarchyConfig {
                max_levels,
                base_max_box: 8,
                nranks: 2,
                ..Default::default()
            },
            solver,
            DriverConfig {
                tag_threshold: 0.02,
                ..Default::default()
            },
        );
        ScalarProblem::Gaussian {
            center: [n as f64 / 2.0; 3],
            sigma: 2.0,
        }
        .init_hierarchy(&mut sim.hierarchy);
        sim
    }

    #[test]
    fn single_level_run_progresses() {
        let mut sim = advect_sim(16, 1);
        let s1 = sim.advance();
        assert_eq!(s1.step, 1);
        assert!(s1.dt > 0.0);
        assert!(s1.time > 0.0);
        assert_eq!(s1.levels, 1);
        assert_eq!(s1.cells_advanced, 16 * 16 * 16);
    }

    #[test]
    fn initial_regrid_creates_refinement_around_blob() {
        let mut sim = advect_sim(16, 2);
        sim.regrid_now();
        assert_eq!(sim.hierarchy.num_levels(), 2);
        // Fine level cells sit near the blob center (16±few in fine coords).
        let fine = sim.hierarchy.level(1);
        let bb = fine.layout().bounding_box();
        assert!(bb.contains(xlayer_amr::IntVect::splat(16)));
    }

    #[test]
    fn refined_run_conserves_scalar() {
        let mut sim = advect_sim(16, 2);
        sim.regrid_now();
        // re-init after regrid so fine data is exact, then measure.
        ScalarProblem::Gaussian {
            center: [8.0; 3],
            sigma: 2.0,
        }
        .init_hierarchy(&mut sim.hierarchy);
        sim.hierarchy.average_down();
        let m0 = sim.hierarchy.composite_sum(0);
        for _ in 0..3 {
            sim.advance();
        }
        let m1 = sim.hierarchy.composite_sum(0);
        // Advection across the coarse-fine boundary without refluxing is
        // conservative to O(dt) at the boundary; verify drift is small.
        assert!(
            (m1 - m0).abs() < 0.02 * m0.abs().max(1e-30),
            "composite mass drifted {m0} -> {m1}"
        );
    }

    #[test]
    fn euler_blast_drives_memory_growth() {
        let domain = ProblemDomain::new(IBox::cube(16));
        let solver = EulerSolver::default();
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
                cfl: 0.3,
                regrid_interval: 2,
                tag_threshold: 0.05,
                base_dx: 1.0,
            },
        );
        GasProblem::Blast {
            center: [8.0; 3],
            radius: 3.0,
            p_in: 10.0,
            p_out: 0.1,
        }
        .init_hierarchy(&mut sim.hierarchy, 1.4);
        sim.regrid_now();
        GasProblem::Blast {
            center: [8.0; 3],
            radius: 3.0,
            p_in: 10.0,
            p_out: 0.1,
        }
        .init_hierarchy(&mut sim.hierarchy, 1.4);

        let mem0 = sim.memory_profile();
        let mut regridded_any = false;
        for _ in 0..4 {
            let s = sim.advance();
            regridded_any |= s.regridded;
            // density stays positive through the blast
            assert!(sim.hierarchy.level(0).min(RHO) > 0.0);
        }
        assert!(regridded_any);
        let mem1 = sim.memory_profile();
        // The expanding shock enlarges the refined region.
        assert!(
            mem1.total() >= mem0.total(),
            "memory shrank: {} -> {}",
            mem0.total(),
            mem1.total()
        );
        assert_eq!(mem1.bytes_per_rank.len(), 4);
    }

    #[test]
    fn step_stats_report_data_bytes() {
        let mut sim = advect_sim(16, 1);
        let s = sim.advance();
        assert_eq!(s.data_bytes, sim.hierarchy.total_bytes());
        assert!(s.data_bytes > 0);
    }
}
