//! Ablation: load-balancing strategy for the dynamically refined grids —
//! knapsack (Chombo's default) vs Morton space-filling curve vs round-robin
//! — measured on the real layouts an evolving blast produces.
//!
//! The paper's Fig. 1 imbalance is what staging adaptations must absorb;
//! this quantifies how much of it the balancer itself can remove.

use xlayer_amr::balance::{assign_ranks, imbalance_of, Balancer};
use xlayer_amr::hierarchy::HierarchyConfig;
use xlayer_amr::{IBox, ProblemDomain};
use xlayer_bench::print_table;
use xlayer_solvers::{AmrSimulation, DriverConfig, EulerSolver, GasProblem};

fn main() {
    let n = 16i64;
    let nranks = 16;
    let domain = ProblemDomain::new(IBox::cube(n));
    let mut sim = AmrSimulation::new(
        domain,
        HierarchyConfig {
            max_levels: 3,
            base_max_box: 4,
            nranks,
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
    let mut sums = [0.0f64; 3];
    let mut count = 0;
    for step in 0..20u64 {
        let stats = sim.advance();
        if !stats.regridded && step != 0 {
            continue;
        }
        // Collect the fine level's boxes (the imbalanced ones).
        if sim.hierarchy.num_levels() < 2 {
            continue;
        }
        let boxes: Vec<IBox> = sim
            .hierarchy
            .level(sim.hierarchy.num_levels() - 1)
            .layout()
            .grids()
            .iter()
            .map(|g| g.bx)
            .collect();
        let mut row = vec![format!("{}", stats.step), format!("{}", boxes.len())];
        for (i, bal) in [
            Balancer::Knapsack,
            Balancer::MortonSfc,
            Balancer::RoundRobin,
        ]
        .iter()
        .enumerate()
        {
            let a = assign_ranks(&boxes, nranks, *bal);
            let imb = imbalance_of(&boxes, &a, nranks);
            sums[i] += imb;
            row.push(format!("{imb:.3}"));
        }
        count += 1;
        rows.push(row);
    }
    print_table(
        &format!("Ablation — balancer imbalance (max/mean cells) over {nranks} ranks, finest level at regrids"),
        &["step", "boxes", "knapsack", "morton-sfc", "round-robin"],
        &rows,
    );
    println!(
        "\nmean imbalance: knapsack {:.3}, morton {:.3}, round-robin {:.3}",
        sums[0] / count as f64,
        sums[1] / count as f64,
        sums[2] / count as f64
    );
    println!(
        "knapsack flattens compute load; morton preserves locality at a small imbalance cost."
    );
}
