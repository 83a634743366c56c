//! The paper's memory-intensive workload end-to-end: a 3-D Polytropic Gas
//! blast wave on a dynamically refining hierarchy, with in-situ marching
//! cubes and per-rank memory profiling (the Fig. 1 observables).
//!
//! ```sh
//! cargo run --release --example blast_wave_insitu
//! ```

use xlayer::amr::hierarchy::HierarchyConfig;
use xlayer::amr::memory::MemoryHistory;
use xlayer::amr::{IBox, ProblemDomain};
use xlayer::solvers::euler::RHO;
use xlayer::solvers::{AmrSimulation, DriverConfig, EulerSolver, GasProblem};
use xlayer::viz::{extract_level, merge_surfaces};

fn main() {
    let n = 20i64;
    let domain = ProblemDomain::new(IBox::cube(n));
    let mut sim = AmrSimulation::new(
        domain,
        HierarchyConfig {
            max_levels: 3,
            base_max_box: 8,
            nranks: 8,
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
        center: [n as f64 / 2.0; 3],
        radius: n as f64 / 6.0,
        p_in: 10.0,
        p_out: 0.1,
    };
    problem.init_hierarchy(&mut sim.hierarchy, 1.4);
    sim.regrid_now();
    problem.init_hierarchy(&mut sim.hierarchy, 1.4);

    let mut history = MemoryHistory::new();
    println!("step    dt      levels  cells    bytes     max-rank-MB  triangles");
    for _ in 0..12 {
        let stats = sim.advance();
        let profile = sim.memory_profile();
        history.record(profile.clone());

        // In-situ visualization: density isosurface at ρ = 0.8 over every
        // level (the refined levels resolve the shock front).
        sim.hierarchy.fill_ghosts();
        let mut tris = 0;
        for l in 0..sim.hierarchy.num_levels() {
            let dx = 1.0 / sim.hierarchy.ref_ratio().pow(l as u32) as f64;
            let surfaces = extract_level(sim.hierarchy.level(l), RHO, 0.8, dx);
            tris += merge_surfaces(&surfaces).num_triangles();
        }
        println!(
            "{:>4}  {:.4}  {:>6}  {:>7}  {:>8}  {:>11.2}  {:>9}",
            stats.step,
            stats.dt,
            stats.levels,
            stats.cells_advanced,
            stats.data_bytes,
            profile.max() as f64 / (1 << 20) as f64,
            tris
        );
    }

    let peaks = history.peak_per_rank();
    println!("\nper-rank peak memory (the Fig. 1 distribution):");
    for (r, p) in peaks.iter().enumerate() {
        println!("  rank {r}: {:.2} MB", *p as f64 / (1 << 20) as f64);
    }
    let spread = *peaks.iter().max().expect("ranks") as f64
        / (*peaks.iter().min().expect("ranks") as f64).max(1.0);
    println!("imbalance across ranks: {spread:.1}x — the reason static staging plans fail");
}
