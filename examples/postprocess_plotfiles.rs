//! The traditional post-processing pipeline, natively: run the blast wave,
//! dump a plotfile per step to disk, then read everything back and extract
//! isosurfaces "offline" — the I/O-bound workflow that in-situ/in-transit
//! processing replaces.
//!
//! ```sh
//! cargo run --release --example postprocess_plotfiles
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::time::Instant;
use xlayer::amr::hierarchy::HierarchyConfig;
use xlayer::amr::plotfile::{read_plotfile, write_plotfile};
use xlayer::amr::{IBox, ProblemDomain};
use xlayer::solvers::euler::RHO;
use xlayer::solvers::{AmrSimulation, DriverConfig, EulerSolver, GasProblem};
use xlayer::viz::extract_level;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("xlayer_plotfiles");
    std::fs::create_dir_all(&dir)?;

    // --- simulation phase: compute + blocking plotfile writes ---
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

    let t0 = Instant::now();
    let mut io_secs = 0.0;
    let mut files = Vec::new();
    let mut total_bytes = 0u64;
    for _ in 0..8 {
        let stats = sim.advance();
        let path = dir.join(format!("plt{:04}.xpf", stats.step));
        let ti = Instant::now();
        let mut w = BufWriter::new(File::create(&path)?);
        total_bytes += write_plotfile(&mut w, &sim.hierarchy, stats.step, sim.time())?;
        io_secs += ti.elapsed().as_secs_f64();
        files.push(path);
    }
    let sim_secs = t0.elapsed().as_secs_f64() - io_secs;
    println!(
        "simulation phase: {:.2}s compute + {:.2}s plotfile writes ({} files, {:.2} MB)",
        sim_secs,
        io_secs,
        files.len(),
        total_bytes as f64 / (1 << 20) as f64
    );

    // --- post-processing phase: read back + analyze ---
    let t1 = Instant::now();
    let mut total_tris = 0usize;
    for path in &files {
        let mut r = BufReader::new(File::open(path)?);
        let p = read_plotfile(&mut r)?;
        for (l, level) in p.levels.iter().enumerate() {
            let dx = 1.0 / p.ref_ratio.pow(l as u32) as f64;
            let surfaces = extract_level(level, RHO, 0.9, dx);
            total_tris += surfaces
                .iter()
                .map(|s| s.mesh.num_triangles())
                .sum::<usize>();
        }
    }
    println!(
        "post-processing phase: {:.2}s to re-read and extract {} isosurface triangles",
        t1.elapsed().as_secs_f64(),
        total_tris
    );
    println!("\nEvery byte crossed the filesystem twice — the cost the paper's");
    println!("simulation-time (in-situ/in-transit) pipeline avoids.");

    for f in files {
        let _ = std::fs::remove_file(f);
    }
    Ok(())
}
