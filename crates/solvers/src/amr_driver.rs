//! The AMR time-stepping driver: couples a [`LevelSolver`] to an
//! [`AmrHierarchy`], producing exactly the per-step observables the
//! adaptation runtime monitors (step wall time, data volume, memory).
//!
//! Two time-stepping modes are provided: lock-step (every level advances
//! with the global, finest-limited dt) and Berger–Oliger subcycling
//! (Chombo's mode: level `l` takes `r^l` sub-steps of `dt/r^l`, so fine
//! levels do proportionally more work — the paper's compute/data dynamics).

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
    /// Total composite-grid cells advanced.
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
    /// Berger–Oliger subcycling: level `l` takes `ref_ratio` sub-steps of
    /// `dt / ref_ratio^l` per coarse step. When false, every level advances
    /// with the global (finest-limited) time step.
    pub subcycle: bool,
    /// Conservative refluxing at coarse–fine boundaries (lock-step mode
    /// only): coarse cells bordering a fine level are corrected with the
    /// averaged fine fluxes, making the composite update exactly
    /// conservative.
    pub reflux: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            cfl: 0.4,
            regrid_interval: 4,
            tag_threshold: 0.05,
            base_dx: 1.0,
            subcycle: false,
            reflux: false,
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

    /// The stable *coarse-level* time step for subcycled stepping: each
    /// level `l` then takes sub-steps of `dt0 / r^l`, so the binding
    /// constraint is `min_l (cfl · dx_l / s_l) · r^l`.
    pub fn compute_dt_subcycled(&self) -> f64 {
        let r = self.hierarchy.ref_ratio();
        let mut dt = f64::INFINITY;
        for l in 0..self.hierarchy.num_levels() {
            let dx = self.dx(l);
            let s = self.solver.max_wave_speed(self.hierarchy.level(l));
            let scale = r.pow(l as u32) as f64;
            if s > 0.0 {
                dt = dt.min(self.config.cfl * dx / s * scale);
            }
            dt = dt.min(self.solver.max_dt(dx) * scale);
        }
        if dt.is_finite() {
            dt
        } else {
            self.config.base_dx * self.config.cfl
        }
    }

    /// Advance level `l` by `dt`, recursing into `r` sub-steps of the next
    /// finer level, then averaging it back down (Berger–Oliger).
    /// With refluxing enabled, time-weighted flux defects are accumulated
    /// per level pair (`D = Σ dt_f ⟨F_f⟩ − dt_c F_c`) and applied with
    /// scale `1/dx_c` after the fine sub-steps.
    /// Returns (cells advanced incl. sub-steps, cross-rank bytes moved).
    fn advance_level_recursive(
        &mut self,
        l: usize,
        dt: f64,
        parent_reg: Option<&mut xlayer_amr::FluxRegister>,
    ) -> (u64, u64) {
        let r = self.hierarchy.ref_ratio();
        let nlev = self.hierarchy.num_levels();
        let dx = self.dx(l);
        let mut moved = self.hierarchy.fill_level_ghosts(l);

        let need_fluxes = self.config.reflux && (parent_reg.is_some() || l + 1 < nlev);
        let fluxes = if need_fluxes {
            self.solver
                .advance_level_capture(self.hierarchy.level_mut(l), dx, dt)
        } else {
            self.solver
                .advance_level(self.hierarchy.level_mut(l), dx, dt);
            None
        };
        if let (Some(reg), Some(fluxes)) = (parent_reg, fluxes.as_ref()) {
            for grid_fluxes in fluxes {
                for (d, flux) in grid_fluxes.iter().enumerate() {
                    reg.increment_fine_scaled(flux, d, dt);
                }
            }
        }
        let mut cells = self.hierarchy.level(l).layout().total_cells();
        if l + 1 < nlev {
            let mut reg = if self.config.reflux {
                let mut reg = xlayer_amr::FluxRegister::new(
                    self.hierarchy.level(l + 1).layout(),
                    r,
                    self.solver.ncomp(),
                );
                if let Some(fluxes) = fluxes.as_ref() {
                    for grid_fluxes in fluxes {
                        for (d, flux) in grid_fluxes.iter().enumerate() {
                            reg.increment_coarse_scaled(flux, d, dt);
                        }
                    }
                }
                Some(reg)
            } else {
                None
            };
            for _ in 0..r {
                let (c, m) = self.advance_level_recursive(l + 1, dt / r as f64, reg.as_mut());
                cells += c;
                moved += m;
            }
            self.hierarchy.average_down_level(l);
            if let Some(reg) = reg {
                reg.reflux(self.hierarchy.level_mut(l), 1.0 / dx);
            }
        }
        (cells, moved)
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

    /// Advance one step: fill ghosts, advance every level (subcycled or
    /// lock-step), average down, regrid on schedule. Returns the step's
    /// observables.
    pub fn advance(&mut self) -> StepStats {
        let r = self.hierarchy.ref_ratio();
        let (dt, mut cells, mut exchange_bytes);
        if self.config.subcycle {
            dt = self.compute_dt_subcycled();
            let (c, m) = self.advance_level_recursive(0, dt, None);
            cells = c;
            exchange_bytes = m;
        } else if self.config.reflux && self.hierarchy.num_levels() > 1 {
            dt = self.compute_dt();
            exchange_bytes = self.hierarchy.fill_ghosts();
            cells = 0;
            // Advance every level capturing its face fluxes, accumulate the
            // coarse-fine flux defects, then correct the coarse cells.
            let nlev = self.hierarchy.num_levels();
            let mut registers: Vec<xlayer_amr::FluxRegister> = (0..nlev - 1)
                .map(|l| {
                    xlayer_amr::FluxRegister::new(
                        self.hierarchy.level(l + 1).layout(),
                        r,
                        self.solver.ncomp(),
                    )
                })
                .collect();
            for l in 0..nlev {
                let dx = self.dx(l);
                cells += self.hierarchy.level(l).layout().total_cells();
                let fluxes = self
                    .solver
                    .advance_level_capture(self.hierarchy.level_mut(l), dx, dt);
                if let Some(fluxes) = fluxes {
                    for grid_fluxes in &fluxes {
                        for (d, flux) in grid_fluxes.iter().enumerate() {
                            if l < nlev - 1 {
                                registers[l].increment_coarse(flux, d);
                            }
                            if l > 0 {
                                registers[l - 1].increment_fine(flux, d);
                            }
                        }
                    }
                }
            }
            self.hierarchy.average_down();
            for l in (0..nlev - 1).rev() {
                let dx = self.dx(l);
                registers[l].reflux(self.hierarchy.level_mut(l), dt / dx);
            }
        } else {
            dt = self.compute_dt();
            exchange_bytes = self.hierarchy.fill_ghosts();
            cells = 0;
            for l in 0..self.hierarchy.num_levels() {
                let dx = self.dx(l);
                cells += self.hierarchy.level(l).layout().total_cells();
                self.solver
                    .advance_level(self.hierarchy.level_mut(l), dx, dt);
            }
            self.hierarchy.average_down();
        }
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
    fn refluxing_makes_composite_advection_exactly_conservative() {
        // A blob advecting across the coarse-fine boundary: without
        // refluxing the composite mass drifts at O(dt) per boundary
        // crossing; with refluxing it is conserved to machine precision.
        let run = |reflux: bool| {
            let domain = ProblemDomain::periodic(IBox::cube(16));
            let solver =
                AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.0, 0.0]), 0.0, 16);
            let mut sim = AmrSimulation::new(
                domain,
                HierarchyConfig {
                    max_levels: 2,
                    base_max_box: 8,
                    ..Default::default()
                },
                solver,
                DriverConfig {
                    tag_threshold: 0.02,
                    regrid_interval: 0, // fixed grids isolate the flux error
                    subcycle: false,
                    reflux,
                    ..Default::default()
                },
            );
            ScalarProblem::Gaussian {
                center: [8.0; 3],
                sigma: 2.0,
            }
            .init_hierarchy(&mut sim.hierarchy);
            sim.regrid_now();
            ScalarProblem::Gaussian {
                center: [8.0; 3],
                sigma: 2.0,
            }
            .init_hierarchy(&mut sim.hierarchy);
            sim.hierarchy.average_down();
            let m0 = sim.hierarchy.composite_sum(0);
            for _ in 0..6 {
                sim.advance();
            }
            (sim.hierarchy.composite_sum(0) - m0).abs() / m0.abs().max(1e-300)
        };
        let drift_with = run(true);
        let drift_without = run(false);
        assert!(
            drift_with < 1e-12,
            "refluxed composite mass drifted by {drift_with:e}"
        );
        assert!(
            drift_with < drift_without / 100.0,
            "refluxing gained too little: {drift_with:e} vs {drift_without:e}"
        );
    }

    #[test]
    fn refluxing_conserves_euler_invariants() {
        // Mass and energy of the refined blast stay conserved while the
        // wave crosses the coarse-fine boundary (periodic domain).
        use crate::euler::{ENERGY, RHO};
        let domain = ProblemDomain::periodic(IBox::cube(16));
        let mut sim = AmrSimulation::new(
            domain,
            HierarchyConfig {
                max_levels: 2,
                base_max_box: 8,
                ..Default::default()
            },
            EulerSolver::default(),
            DriverConfig {
                cfl: 0.3,
                regrid_interval: 0,
                tag_threshold: 0.04,
                base_dx: 1.0,
                subcycle: false,
                reflux: true,
            },
        );
        let problem = GasProblem::Blast {
            center: [8.0; 3],
            radius: 3.0,
            p_in: 10.0,
            p_out: 0.1,
        };
        problem.init_hierarchy(&mut sim.hierarchy, 1.4);
        sim.regrid_now();
        problem.init_hierarchy(&mut sim.hierarchy, 1.4);
        sim.hierarchy.average_down();
        let m0 = sim.hierarchy.composite_sum(RHO);
        let e0 = sim.hierarchy.composite_sum(ENERGY);
        for _ in 0..4 {
            sim.advance();
        }
        let m1 = sim.hierarchy.composite_sum(RHO);
        let e1 = sim.hierarchy.composite_sum(ENERGY);
        assert!((m1 - m0).abs() < 1e-10 * m0, "mass drifted {m0} -> {m1}");
        assert!((e1 - e0).abs() < 1e-10 * e0, "energy drifted {e0} -> {e1}");
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
                subcycle: false,
                reflux: false,
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
    fn subcycled_run_is_stable_and_conservative() {
        let domain = ProblemDomain::periodic(IBox::cube(16));
        let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.0, 0.0]), 0.0, 16);
        let mut sim = AmrSimulation::new(
            domain,
            HierarchyConfig {
                max_levels: 2,
                base_max_box: 8,
                ..Default::default()
            },
            solver,
            DriverConfig {
                tag_threshold: 0.02,
                subcycle: true,
                regrid_interval: 0,
                ..Default::default()
            },
        );
        ScalarProblem::Gaussian {
            center: [8.0; 3],
            sigma: 2.0,
        }
        .init_hierarchy(&mut sim.hierarchy);
        sim.regrid_now();
        ScalarProblem::Gaussian {
            center: [8.0; 3],
            sigma: 2.0,
        }
        .init_hierarchy(&mut sim.hierarchy);
        sim.hierarchy.average_down();
        let m0 = sim.hierarchy.composite_sum(0);
        for _ in 0..3 {
            let stats = sim.advance();
            assert!(stats.dt > 0.0);
        }
        let m1 = sim.hierarchy.composite_sum(0);
        assert!(
            (m1 - m0).abs() < 0.03 * m0.abs().max(1e-30),
            "subcycled composite mass drifted {m0} -> {m1}"
        );
        // solution stays bounded
        assert!(sim.hierarchy.level(0).max(0) <= 1.5);
        assert!(sim.hierarchy.level(0).min(0) >= -0.2);
    }

    #[test]
    fn subcycled_refluxing_is_exactly_conservative() {
        // The full Berger–Oliger combination: subcycled time stepping with
        // time-weighted refluxing conserves the composite mass exactly.
        let run = |reflux: bool| {
            let domain = ProblemDomain::periodic(IBox::cube(16));
            let solver =
                AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.0, 0.0]), 0.0, 16);
            let mut sim = AmrSimulation::new(
                domain,
                HierarchyConfig {
                    max_levels: 2,
                    base_max_box: 8,
                    ..Default::default()
                },
                solver,
                DriverConfig {
                    tag_threshold: 0.02,
                    regrid_interval: 0,
                    subcycle: true,
                    reflux,
                    ..Default::default()
                },
            );
            ScalarProblem::Gaussian {
                center: [8.0; 3],
                sigma: 2.0,
            }
            .init_hierarchy(&mut sim.hierarchy);
            sim.regrid_now();
            ScalarProblem::Gaussian {
                center: [8.0; 3],
                sigma: 2.0,
            }
            .init_hierarchy(&mut sim.hierarchy);
            sim.hierarchy.average_down();
            let m0 = sim.hierarchy.composite_sum(0);
            for _ in 0..5 {
                sim.advance();
            }
            (sim.hierarchy.composite_sum(0) - m0).abs() / m0.abs().max(1e-300)
        };
        let with = run(true);
        let without = run(false);
        assert!(with < 1e-12, "subcycled refluxed drift {with:e}");
        assert!(
            with < without / 100.0,
            "gain too small: {with:e} vs {without:e}"
        );
    }

    #[test]
    fn subcycling_takes_larger_coarse_steps_and_counts_substeps() {
        let build = |subcycle: bool| {
            let domain = ProblemDomain::periodic(IBox::cube(16));
            let solver =
                AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.0, 0.0]), 0.0, 16);
            let mut sim = AmrSimulation::new(
                domain,
                HierarchyConfig {
                    max_levels: 2,
                    base_max_box: 8,
                    ..Default::default()
                },
                solver,
                DriverConfig {
                    tag_threshold: 0.02,
                    subcycle,
                    regrid_interval: 0,
                    ..Default::default()
                },
            );
            ScalarProblem::Gaussian {
                center: [8.0; 3],
                sigma: 2.0,
            }
            .init_hierarchy(&mut sim.hierarchy);
            sim.regrid_now();
            sim
        };
        let mut lock = build(false);
        let mut sub = build(true);
        let a = lock.advance();
        let b = sub.advance();
        // The coarse step is r× the lock-step dt (fine level binds both).
        assert!(
            b.dt > 1.5 * a.dt,
            "subcycled dt {} not larger than lock-step {}",
            b.dt,
            a.dt
        );
        // Subcycled work counts fine sub-steps: coarse + r × fine cells.
        let coarse = sub.hierarchy.level(0).layout().total_cells();
        let fine = sub.hierarchy.level(1).layout().total_cells();
        assert_eq!(b.cells_advanced, coarse + 2 * fine);
    }

    #[test]
    fn step_stats_report_data_bytes() {
        let mut sim = advect_sim(16, 1);
        let s = sim.advance();
        assert_eq!(s.data_bytes, sim.hierarchy.total_bytes());
        assert!(s.data_bytes > 0);
    }
}
