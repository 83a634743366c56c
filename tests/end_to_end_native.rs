//! Cross-crate integration: the full native workflow — real AMR solve,
//! real staging puts/gets, real marching cubes on worker threads,
//! middleware adaptation deciding placement.

use xlayer::adapt::{EngineConfig, Placement};
use xlayer::amr::hierarchy::HierarchyConfig;
use xlayer::amr::{IBox, ProblemDomain};
use xlayer::solvers::{
    AdvectDiffuseSolver, AmrSimulation, DriverConfig, EulerSolver, GasProblem, ScalarProblem,
    VelocityField,
};
use xlayer::workflow::{NativeConfig, NativeWorkflow};

fn blob_sim(n: i64, levels: usize) -> AmrSimulation<AdvectDiffuseSolver> {
    let domain = ProblemDomain::periodic(IBox::cube(n));
    let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.0, 0.0]), 0.0, n);
    let mut sim = AmrSimulation::new(
        domain,
        HierarchyConfig {
            max_levels: levels,
            base_max_box: 8,
            nranks: 2,
            ..Default::default()
        },
        solver,
        DriverConfig {
            tag_threshold: 0.02,
            regrid_interval: 3,
            ..Default::default()
        },
    );
    ScalarProblem::Gaussian {
        center: [n as f64 / 2.0; 3],
        sigma: 2.5,
    }
    .init_hierarchy(&mut sim.hierarchy);
    sim.regrid_now();
    sim
}

#[test]
fn advect_workflow_analyzes_every_step() {
    let mut wf = NativeWorkflow::new(
        blob_sim(16, 2),
        NativeConfig {
            iso_value: 0.4,
            workers: 2,
            ..Default::default()
        },
    );
    for _ in 0..6 {
        wf.step();
    }
    let (steps, outcomes, _) = wf.finish();
    assert_eq!(steps.len(), 6);
    assert_eq!(outcomes.len(), 6);
    let versions: Vec<u64> = outcomes.iter().map(|o| o.version).collect();
    assert_eq!(
        versions,
        vec![1, 2, 3, 4, 5, 6],
        "each step analyzed once, in order"
    );
    assert!(outcomes.iter().all(|o| o.triangles > 0));
}

#[test]
fn euler_blast_workflow_end_to_end() {
    let n = 16i64;
    let domain = ProblemDomain::new(IBox::cube(n));
    let mut sim = AmrSimulation::new(
        domain,
        HierarchyConfig {
            max_levels: 2,
            base_max_box: 8,
            nranks: 4,
            ..Default::default()
        },
        EulerSolver::default(),
        DriverConfig {
            cfl: 0.3,
            regrid_interval: 2,
            tag_threshold: 0.04,
            base_dx: 1.0,
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

    let mut wf = NativeWorkflow::new(
        sim,
        NativeConfig {
            // density isosurface inside the blast's range
            iso_value: 0.9,
            workers: 2,
            engine: EngineConfig::middleware_only(),
            ..Default::default()
        },
    );
    for _ in 0..5 {
        let log = wf.step();
        assert!(log.raw_bytes > 0);
    }
    let (steps, outcomes, moved) = wf.finish();
    assert_eq!(steps.len(), 5);
    assert_eq!(outcomes.len(), 5);
    // The shock front must cross the isovalue somewhere.
    assert!(outcomes.iter().any(|o| o.triangles > 0));
    // If anything ran in-transit, bytes crossed the staging space.
    let intransit = outcomes
        .iter()
        .filter(|o| o.placement == Placement::InTransit)
        .count();
    if intransit > 0 {
        assert!(moved > 0);
    }
}

#[test]
fn workflow_survives_regrids() {
    // Regrid every step: the staging objects' bounding boxes change shape
    // between versions and everything must still line up.
    let n = 16i64;
    let domain = ProblemDomain::periodic(IBox::cube(n));
    let solver = AdvectDiffuseSolver::new(VelocityField::Constant([2.0, 0.0, 0.0]), 0.0, n);
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
            regrid_interval: 1,
            ..Default::default()
        },
    );
    ScalarProblem::Ball {
        center: [8.0; 3],
        radius: 3.0,
    }
    .init_hierarchy(&mut sim.hierarchy);
    sim.regrid_now();

    let mut wf = NativeWorkflow::new(sim, NativeConfig::default());
    let mut levels_seen = std::collections::HashSet::new();
    for _ in 0..6 {
        wf.step();
        levels_seen.insert(wf.sim().hierarchy.num_levels());
    }
    let (_, outcomes, _) = wf.finish();
    assert_eq!(outcomes.len(), 6);
}
