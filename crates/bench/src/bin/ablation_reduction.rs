//! Ablation: the application-layer reduction selector — none vs
//! user-defined range-based (Eqs. 1–3) vs entropy-based (Eq. 11) — on the
//! same workload, comparing end-to-end overhead, data movement, and the
//! information actually lost (reconstruction MSE of the finest level).

use xlayer_amr::hierarchy::HierarchyConfig;
use xlayer_amr::{IBox, ProblemDomain};
use xlayer_bench::{euler_trace, gb, print_table, secs};
use xlayer_core::{EngineConfig, UserHints};
use xlayer_solvers::{AmrSimulation, DriverConfig, EulerSolver, GasProblem};
use xlayer_viz::downsample::reconstruction_mse;
use xlayer_viz::entropy::{block_entropy, factors_from_entropy, DEFAULT_BINS};
use xlayer_workflow::{ModeledWorkflow, Strategy, TraceDriver, WorkflowConfig};

fn main() {
    const STEPS: u64 = 40;
    let trace = euler_trace(16, 3, STEPS);
    let scale = trace.scale_to(128 * 64 * 64) * 24.0;

    // --- timing/data-movement arm: modeled workflow ---
    let run = |engine: EngineConfig, hints: Option<UserHints>| {
        let mut cfg = WorkflowConfig::intrepid_gas(Strategy::Adaptive(engine));
        cfg.scale = scale;
        if let Some(h) = hints {
            cfg.hints = h;
        }
        let wf = ModeledWorkflow::new(cfg);
        let mut d = TraceDriver::new(trace.points.clone());
        wf.run(&mut d, STEPS)
    };
    let none = run(EngineConfig::middleware_only(), None);
    let range = run(
        EngineConfig::global(),
        Some(UserHints::paper_fig5_schedule(STEPS / 2)),
    );

    // --- information-loss arm: real data, per-block factors ---
    let n = 16i64;
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
    for _ in 0..10 {
        sim.advance();
    }
    let level = sim.hierarchy.level(0);
    let entropies: Vec<f64> = (0..level.len())
        .map(|i| block_entropy(level.fab(i), 0, &level.valid_box(i), DEFAULT_BINS))
        .collect();
    let h_lo = entropies.iter().cloned().fold(f64::INFINITY, f64::min);
    let h_hi = entropies.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let t = h_lo + 0.5 * (h_hi - h_lo);
    let entropy_factors = factors_from_entropy(&entropies, &[(0.0, 2), (t, 1)]);
    let uniform_factors = vec![2u32; level.len()];

    let mse_of = |factors: &[u32]| -> f64 {
        (0..level.len())
            .map(|i| reconstruction_mse(level.fab(i), 0, factors[i]))
            .sum::<f64>()
            / level.len() as f64
    };

    let rows = vec![
        vec![
            "none".into(),
            secs(none.end_to_end.overhead),
            gb(none.data_moved()),
            format!("{:.3e}", 0.0),
        ],
        vec![
            "range-based (Eqs.1-3)".into(),
            secs(range.end_to_end.overhead),
            gb(range.data_moved()),
            format!("{:.3e}", mse_of(&uniform_factors)),
        ],
        vec![
            "entropy-based (Eq.11)".into(),
            "—".into(),
            "—".into(),
            format!("{:.3e}", mse_of(&entropy_factors)),
        ],
    ];
    print_table(
        "Ablation — reduction selector (overhead & movement from modeled run; MSE from real data)",
        &["selector", "overhead (s)", "moved (GB)", "mean recon MSE"],
        &rows,
    );
    println!(
        "\nentropy-based reduction loses {:.1}x less information than uniform reduction\n\
         at a comparable volume (only low-entropy blocks are reduced).",
        mse_of(&uniform_factors) / mse_of(&entropy_factors).max(1e-300)
    );
}
