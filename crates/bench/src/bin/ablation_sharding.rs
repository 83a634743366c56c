//! Ablation: staging-space sharding — deterministic bbox-hash (DHT-like,
//! reader can locate data without a directory) vs round-robin — comparing
//! shard balance and query fan-out on real AMR object streams.

use xlayer_amr::hierarchy::HierarchyConfig;
use xlayer_amr::{IBox, IntVect, ProblemDomain};
use xlayer_bench::print_table;
use xlayer_solvers::{AmrSimulation, DriverConfig, EulerSolver, GasProblem};
use xlayer_staging::{DataObject, DataSpace, Sharding};

fn main() {
    let n = 16i64;
    let nservers = 8;
    let domain = ProblemDomain::new(IBox::cube(n));
    let mut sim = AmrSimulation::new(
        domain,
        HierarchyConfig {
            max_levels: 2,
            base_max_box: 4,
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

    let mut rows = Vec::new();
    for sharding in [Sharding::BboxHash, Sharding::RoundRobin] {
        let space = DataSpace::new(nservers, 1 << 30, sharding);
        // Stream 6 steps of real per-grid objects.
        let mut objects = 0u64;
        for v in 1..=6u64 {
            sim.advance();
            for l in 0..sim.hierarchy.num_levels() {
                let level = sim.hierarchy.level(l);
                for i in 0..level.len() {
                    let obj =
                        DataObject::from_fab("rho", v, level.fab(i), 0, &level.valid_box(i), 0);
                    space.put(obj).expect("staging put");
                    objects += 1;
                }
            }
        }
        let used = space.used_per_server();
        let total: u64 = used.iter().sum();
        let mean = total as f64 / nservers as f64;
        let max = *used.iter().max().expect("servers") as f64;
        // Query fan-out: how many servers a subregion get must touch.
        let probe = IBox::new(IntVect::splat(4), IntVect::splat(11));
        let hit_servers = space
            .servers()
            .iter()
            .filter(|s| {
                (1..=6).any(|v| {
                    !s.get(
                        &xlayer_staging::ObjectKey::new("rho", v),
                        Some(&probe),
                        None,
                    )
                    .is_empty()
                })
            })
            .count();
        rows.push(vec![
            format!("{sharding:?}"),
            format!("{objects}"),
            format!("{:.3}", max / mean),
            format!("{hit_servers}/{nservers}"),
        ]);
    }
    print_table(
        "Ablation — staging sharding (8 servers, real blast object stream)",
        &["sharding", "objects", "shard imbalance", "query fan-out"],
        &rows,
    );
    println!("\nbbox-hash keeps location deterministic (no directory lookup) at a modest");
    println!("balance cost; round-robin balances bytes but every query touches all shards.");
}
