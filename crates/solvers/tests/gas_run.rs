//! The refined polytropic-gas blast, eight steps (two regrids), must leave
//! the same hierarchy — layouts and every fab byte, ghosts included —
//! whatever ran it: the step sequence the driver used before it stopped
//! filling ghosts twice and tagging the finest level, the main thread, a
//! pool task (every parallel call inline), or two threads contending for
//! the pool. So must the refined advected blob, whose kernel keeps its row
//! and plane buffers in the per-thread scratch pool.

use rayon::prelude::*;
use xlayer_amr::hierarchy::{AmrHierarchy, HierarchyConfig};
use xlayer_amr::{IBox, ProblemDomain};
use xlayer_solvers::{
    AdvectDiffuseSolver, AmrSimulation, DriverConfig, EulerSolver, GasProblem, LevelSolver,
    ScalarProblem, VelocityField,
};

const STEPS: usize = 8;
const TAG_THRESHOLD: f64 = 0.04;

fn blast() -> AmrSimulation<EulerSolver> {
    let n = 32;
    let mut sim = AmrSimulation::new(
        ProblemDomain::new(IBox::cube(n)),
        HierarchyConfig {
            max_levels: 2,
            base_max_box: n / 4,
            ..Default::default()
        },
        EulerSolver::default(),
        DriverConfig {
            cfl: 0.3,
            regrid_interval: 4,
            tag_threshold: TAG_THRESHOLD,
            ..Default::default()
        },
    );
    let problem = GasProblem::Blast {
        center: [n as f64 / 2.0; 3],
        radius: n as f64 / 8.0,
        p_in: 10.0,
        p_out: 0.1,
    };
    problem.init_hierarchy(&mut sim.hierarchy, 1.4);
    sim.regrid_now();
    problem.init_hierarchy(&mut sim.hierarchy, 1.4);
    sim
}

fn run() -> AmrHierarchy {
    let mut sim = blast();
    for _ in 0..STEPS {
        sim.advance();
    }
    sim.hierarchy
}

/// A Gaussian blob in a vortex with diffusion, refined, regridded twice.
fn run_advect() -> AmrHierarchy {
    let n = 32;
    let solver = AdvectDiffuseSolver::new(
        VelocityField::Vortex {
            center: [n as f64 / 2.0; 2],
            strength: 0.08,
        },
        0.01,
        n,
    );
    let mut sim = AmrSimulation::new(
        ProblemDomain::periodic(IBox::cube(n)),
        HierarchyConfig {
            max_levels: 2,
            base_max_box: n / 4,
            ..Default::default()
        },
        solver,
        DriverConfig {
            regrid_interval: 4,
            tag_threshold: 0.02,
            ..Default::default()
        },
    );
    let problem = ScalarProblem::Gaussian {
        center: [n as f64 / 2.0 + 3.0, n as f64 / 2.0 - 2.0, n as f64 / 2.0],
        sigma: n as f64 / 8.0,
    };
    problem.init_hierarchy(&mut sim.hierarchy);
    sim.regrid_now();
    problem.init_hierarchy(&mut sim.hierarchy);
    for _ in 0..STEPS {
        sim.advance();
    }
    sim.hierarchy
}

fn assert_same(a: &AmrHierarchy, b: &AmrHierarchy, what: &str) {
    assert_eq!(a.num_levels(), b.num_levels(), "{what}: level count");
    for l in 0..a.num_levels() {
        let (x, y) = (a.level(l), b.level(l));
        assert_eq!(
            x.layout().grids(),
            y.layout().grids(),
            "{what}: level {l} layout"
        );
        for i in 0..x.len() {
            let mut cells = x.fab(i).as_slice().iter().zip(y.fab(i).as_slice());
            assert!(
                cells.all(|(p, q)| p.to_bits() == q.to_bits()),
                "{what}: level {l} fab {i} differs"
            );
        }
    }
}

#[test]
fn regrid_step_equals_the_doubly_filled_fully_tagged_sequence() {
    // The lock-step step as it was: on a regrid step the ghosts were filled
    // twice in a row and every level, refinable or not, was tagged.
    let mut sim = blast();
    let solver = EulerSolver::default();
    for step in 1..=STEPS {
        let dt = sim.compute_dt();
        let h = &mut sim.hierarchy;
        h.fill_ghosts();
        for l in 0..h.num_levels() {
            let dx = 1.0 / h.ref_ratio().pow(l as u32) as f64;
            solver.advance_level(h.level_mut(l), dx, dt);
        }
        h.average_down();
        if step % 4 == 0 {
            h.fill_ghosts();
            h.fill_ghosts();
            let tags: Vec<_> = (0..h.num_levels())
                .map(|l| solver.tag_cells(h.level(l), TAG_THRESHOLD))
                .collect();
            h.regrid(&tags);
        }
    }
    let got = run();
    assert_eq!(got.num_levels(), 2, "the blast must stay refined");
    assert_same(&got, &sim.hierarchy, "driver vs. the old sequence");
}

#[test]
fn result_does_not_depend_on_the_schedule() {
    assert_schedule_independent(run);
}

#[test]
fn advect_result_does_not_depend_on_the_schedule() {
    assert_eq!(run_advect().num_levels(), 2, "the blob must stay refined");
    assert_schedule_independent(run_advect);
}

fn assert_schedule_independent(run: fn() -> AmrHierarchy) {
    let on_main = run();

    // From inside pool tasks: every parallel call below runs inline.
    let in_tasks: Vec<AmrHierarchy> = (0..2).into_par_iter().map(|_| run()).collect();
    for h in &in_tasks {
        assert_same(h, &on_main, "inside a task");
    }

    // Two threads at once: each call either gets the pool or finds it busy.
    let (a, b) = std::thread::scope(|s| {
        let (a, b) = (s.spawn(run), s.spawn(run));
        (a.join().expect("run a"), b.join().expect("run b"))
    });
    assert_same(&a, &on_main, "first of two threads");
    assert_same(&b, &on_main, "second of two threads");
}
