//! # xlayer-bench — the experiment harness
//!
//! Shared machinery for the `figN_*` / `table2_*` experiment binaries that
//! regenerate every figure and table of the paper's evaluation (§5), plus
//! the Criterion micro-benchmarks of the substrate hot paths.
//!
//! Each experiment drives the *modeled-scale* workflow with a trace
//! recorded from a *real* small AMR run (see `xlayer-workflow::drive`), so
//! the dynamics — erratic growth, imbalance, regrid bursts — are genuine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use xlayer_amr::hierarchy::HierarchyConfig;
use xlayer_amr::{Fab, IBox, IntVect, ProblemDomain};
use xlayer_solvers::{
    AdvectDiffuseSolver, AmrSimulation, DriverConfig, EulerSolver, GasProblem, LevelSolver,
    ScalarProblem, VelocityField,
};
use xlayer_staging::DataObject;
use xlayer_workflow::{AmrDriver, DrivePoint, WorkloadDriver};

/// The bench names `bench_summary` writes into `BENCH_native_hotpath.json`
/// under `"benches"`. `bench_summary` asserts it produced exactly these
/// (in order) and `bench_schema_check` validates a summary file against
/// them, so a renamed or dropped kernel measurement fails loudly instead
/// of silently vanishing from the regression record. Kernels only: the
/// staged-byte path (pack, transport, wire, service, tier, overlap) is
/// `xmark`'s, whose per-layer metric names live in `BENCHMARK.json`.
pub const EXPECTED_BENCH_KEYS: &[&str] = &[
    "exchange_plan_32c_64box_periodic",
    "exchange_32c_64box_periodic_cached",
    "exchange_32c_64box_periodic_uncached",
    "euler_level_step_32c_64box_periodic",
    "advect_level_step_32c_64box_periodic",
    "advect_level_step_128c_64box_periodic",
    "euler_max_wave_speed_32c_64box_periodic",
    "downsample_flat_64c_x4",
    "downsample_reference_64c_x4",
    "mse_flat_64c_x4",
    "mse_reference_64c_x4",
    "entropy_flat_64c_256bins",
    "entropy_reference_64c_256bins",
    "level_entropy_scan_64c_flat",
    "level_entropy_scan_64c_reference",
    "mesh_concat_64parts",
    "mesh_append_64parts",
    "marching_cubes_advect34_flat",
    "marching_cubes_advect34_reference",
];

/// The derived ratios `bench_summary` writes under `"derived"`.
pub const EXPECTED_DERIVED_KEYS: &[&str] = &[
    "exchange_cached_speedup",
    "downsample_flat_speedup",
    "mse_flat_speedup",
    "entropy_flat_speedup",
    "level_entropy_scan_speedup",
    "mesh_concat_speedup",
    "marching_cubes_speedup",
];

/// One version of xmark's `advect_sharded_intransit` as its analysis
/// worker receives it: a Gaussian (σ = n/8) at the centre of a 128³ level,
/// staged as 64 objects of 34³ — a 32³ core plus the one-cell halo, as
/// `pack_level_objects` stages them. At iso 0.5 its surface crosses 8 of
/// the 64.
pub fn advect_version_objects() -> Vec<DataObject> {
    let (n, side) = (128i64, 32i64);
    let sigma = n as f64 / 8.0;
    let mut objects = Vec::new();
    for bz in 0..n / side {
        for by in 0..n / side {
            for bx in 0..n / side {
                let lo = IntVect::new(bx * side, by * side, bz * side);
                let core = IBox::new(lo, lo + IntVect::splat(side - 1));
                let halo = core.grow(1);
                let mut fab = Fab::new(halo, 1);
                for iv in halo.cells() {
                    let r2: f64 = (0..3)
                        .map(|d| (iv[d] as f64 + 0.5 - n as f64 / 2.0).powi(2))
                        .sum();
                    fab.set(iv, 0, (-r2 / (2.0 * sigma * sigma)).exp());
                }
                objects.push(DataObject::from_fab("field", 0, &fab, 0, &halo, 0).with_core(&core));
            }
        }
    }
    objects
}

/// The summary file `bench_summary` writes: `(name, value)` rows under
/// `"benches"` (ns/iter, one decimal) and `"derived"` (ratios, two).
pub fn render_summary(benches: &[(&str, f64)], derived: &[(&str, f64)]) -> String {
    let rows = |rows: &[(&str, f64)], decimals: usize| {
        let rows: Vec<String> = rows
            .iter()
            .map(|(name, v)| format!("    \"{name}\": {v:.decimals$}"))
            .collect();
        rows.join(",\n")
    };
    format!(
        "{{\n  \"unit\": \"ns_per_iter\",\n  \"benches\": {{\n{}\n  }},\n  \"derived\": {{\n{}\n  }}\n}}\n",
        rows(benches, 1),
        rows(derived, 2)
    )
}

/// Check `bench_summary` output text against the pinned schema: the unit
/// line, then exactly [`EXPECTED_BENCH_KEYS`] and [`EXPECTED_DERIVED_KEYS`]
/// — each once, each a finite positive number, and no key besides them (a
/// summary written to an older, wider schema is rejected, not read as a
/// superset). Returns one message per defect; empty means valid. The
/// workspace has no JSON dependency, so this is a deliberately simple scan
/// for quoted names followed by a colon.
pub fn check_summary(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    if !text.contains("\"unit\": \"ns_per_iter\"") {
        errors.push("missing or wrong \"unit\" (want ns_per_iter)".to_string());
    }
    // Every `"name":` in the file, with the text that follows it.
    let mut found: Vec<(&str, &str)> = Vec::new();
    let mut rest = text;
    while let Some((_, after_quote)) = rest.split_once('"') {
        let Some((name, after_name)) = after_quote.split_once('"') else {
            break;
        };
        rest = after_name;
        if let Some(value) = after_name.strip_prefix(':') {
            found.push((name, value.trim_start()));
        }
    }
    let expected = || EXPECTED_BENCH_KEYS.iter().chain(EXPECTED_DERIVED_KEYS);
    for key in expected() {
        let mut hits = found.iter().filter(|(name, _)| name == key);
        let Some((_, value)) = hits.next() else {
            errors.push(format!("missing key {key:?}"));
            continue;
        };
        if hits.next().is_some() {
            errors.push(format!("key {key:?} appears more than once"));
        }
        let end = value
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E')))
            .unwrap_or(value.len());
        match value[..end].parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => {}
            Ok(v) => errors.push(format!("key {key:?}: non-positive value {v}")),
            Err(e) => errors.push(format!("key {key:?}: unparsable value: {e}")),
        }
    }
    for (name, _) in &found {
        let structural = matches!(*name, "unit" | "benches" | "derived");
        if !structural && !expected().any(|k| k == name) {
            errors.push(format!("key {name:?} is not in the schema"));
        }
    }
    errors
}

/// A recorded workload trace plus the real run's base-grid size, used to
/// compute virtual-scale factors.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Per-step drive points from the real run.
    pub points: Vec<DrivePoint>,
    /// Cells of the real run's base grid.
    pub base_cells: u64,
}

impl Trace {
    /// Scale factor mapping this trace onto a virtual base domain of
    /// `virtual_cells` cells.
    pub fn scale_to(&self, virtual_cells: u64) -> f64 {
        virtual_cells as f64 / self.base_cells as f64
    }
}

/// Build the advection–diffusion workload of §5.2.2: a Gaussian blob in a
/// vortex with dynamic refinement, run for `steps` real steps on an
/// `n`³ base grid.
pub fn advect_trace(n: i64, max_levels: usize, steps: u64, seed_shift: i64) -> Trace {
    let domain = ProblemDomain::periodic(IBox::cube(n));
    let solver = AdvectDiffuseSolver::new(
        VelocityField::Vortex {
            center: [n as f64 / 2.0, n as f64 / 2.0],
            strength: 0.08,
        },
        0.01,
        n,
    );
    let mut sim = AmrSimulation::new(
        domain,
        HierarchyConfig {
            max_levels,
            base_max_box: 8,
            nranks: 16,
            ..Default::default()
        },
        solver,
        DriverConfig {
            tag_threshold: 0.02,
            regrid_interval: 4,
            ..Default::default()
        },
    );
    let c = n as f64 / 2.0;
    ScalarProblem::Gaussian {
        center: [c + seed_shift as f64, c, c],
        sigma: n as f64 / 8.0,
    }
    .init_hierarchy(&mut sim.hierarchy);
    sim.regrid_now();
    record(sim, steps, n)
}

/// Build the Polytropic Gas workload of §5.2.1/§5.2.3: a 3-D blast wave
/// with dynamic refinement (growing refined region ⇒ growing memory,
/// Fig. 1 / Fig. 9 dynamics).
pub fn euler_trace(n: i64, max_levels: usize, steps: u64) -> Trace {
    let domain = ProblemDomain::new(IBox::cube(n));
    let solver = EulerSolver::default();
    let mut sim = AmrSimulation::new(
        domain,
        HierarchyConfig {
            max_levels,
            base_max_box: 8,
            nranks: 16,
            ..Default::default()
        },
        solver,
        DriverConfig {
            cfl: 0.3,
            regrid_interval: 2,
            tag_threshold: 0.04,
            base_dx: 1.0,
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
    record(sim, steps, n)
}

fn record<S: LevelSolver>(sim: AmrSimulation<S>, steps: u64, n: i64) -> Trace {
    let mut driver = AmrDriver::new(sim);
    let points = (0..steps).map(|_| driver.next_point()).collect();
    Trace {
        points,
        base_cells: (n * n * n) as u64,
    }
}

/// The §5.2.2 scale sweep: (simulation cores, virtual domain cells).
/// Domains are 1024²×512, 1024³, 2048×1024², 2048²×1024.
pub const SCALE_SWEEP: [(usize, u64); 4] = [
    (2048, 1024 * 1024 * 512),
    (4096, 1024 * 1024 * 1024),
    (8192, 2048 * 1024 * 1024),
    (16384, 2048 * 2048 * 1024),
];

/// Run one modeled workflow over `trace` at virtual scale.
pub fn run_strategy(
    trace: &Trace,
    sim_cores: usize,
    virt_cells: u64,
    strategy: xlayer_workflow::Strategy,
    hints: Option<xlayer_core::UserHints>,
) -> xlayer_workflow::WorkflowReport {
    let mut cfg = xlayer_workflow::WorkflowConfig::titan_advect(sim_cores, strategy);
    cfg.scale = trace.scale_to(virt_cells);
    if let Some(h) = hints {
        cfg.hints = h;
    }
    let wf = xlayer_workflow::ModeledWorkflow::new(cfg);
    let mut driver = xlayer_workflow::TraceDriver::new(trace.points.clone());
    wf.run(&mut driver, trace.points.len() as u64)
}

/// Render an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}

/// Format bytes as GB with 2 decimals.
pub fn gb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1u64 << 30) as f64)
}

/// Format seconds with 1 decimal.
pub fn secs(t: f64) -> String {
    format!("{t:.1}")
}

/// Format a percentage with 2 decimals.
pub fn pct(f: f64) -> String {
    format!("{:.2}%", f * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advect_trace_is_dynamic() {
        let t = advect_trace(16, 2, 6, 0);
        assert_eq!(t.points.len(), 6);
        assert!(t.points.iter().all(|p| p.cells > 0 && p.bytes > 0));
        assert!(t.points.iter().all(|p| p.imbalance >= 1.0));
        assert!(t.scale_to(1 << 29) > 1.0);
    }

    #[test]
    fn euler_trace_grows() {
        let t = euler_trace(16, 2, 6);
        assert_eq!(t.points.len(), 6);
        let first = t.points.first().unwrap().bytes;
        let max = t.points.iter().map(|p| p.bytes).max().unwrap();
        assert!(max >= first);
    }

    #[test]
    fn the_advect_version_surface_misses_56_of_its_64_objects() {
        let objects = advect_version_objects();
        assert_eq!(objects.len(), 64);
        let empty: Vec<bool> = objects
            .iter()
            .map(|obj| {
                let d = &obj.desc;
                let mut mesh = xlayer_viz::TriMesh::new();
                xlayer_viz::extract_payload_into(
                    &obj.payload,
                    &d.bbox,
                    &d.core,
                    0.5,
                    1.0,
                    [0.0; 3],
                    &mut mesh,
                );
                mesh.is_empty()
            })
            .collect();
        assert_eq!(empty.iter().filter(|&&e| e).count(), 56);
        // The value-range predicate a filtered get applies keeps exactly
        // the 8 objects the surface crosses.
        for (obj, empty) in objects.iter().zip(empty) {
            assert_eq!(obj.desc.may_cross(Some(0.5)), !empty, "{:?}", obj.desc.core);
        }
    }

    /// What `bench_summary` would write for these keys, every value 1.5.
    fn summary_of(benches: &[&str], derived: &[&str]) -> String {
        fn rows<'a>(keys: &[&'a str]) -> Vec<(&'a str, f64)> {
            keys.iter().map(|k| (*k, 1.5)).collect()
        }
        render_summary(&rows(benches), &rows(derived))
    }

    #[test]
    fn schema_is_kernels_only() {
        assert_eq!(EXPECTED_BENCH_KEYS.len(), 19);
        assert_eq!(EXPECTED_DERIVED_KEYS.len(), 7);
        for key in EXPECTED_BENCH_KEYS.iter().chain(EXPECTED_DERIVED_KEYS) {
            for layer in ["net_", "staging_", "xbench_", "native_pipeline"] {
                assert!(!key.starts_with(layer), "{key} belongs to xmark");
            }
        }
    }

    #[test]
    fn check_summary_is_an_equality_check() {
        let good = summary_of(EXPECTED_BENCH_KEYS, EXPECTED_DERIVED_KEYS);
        assert_eq!(check_summary(&good), Vec::<String>::new());

        let missing = summary_of(&EXPECTED_BENCH_KEYS[1..], EXPECTED_DERIVED_KEYS);
        assert!(check_summary(&missing)
            .iter()
            .any(|e| e.contains("missing key") && e.contains(EXPECTED_BENCH_KEYS[0])));

        let zero = good.replacen("1.5", "0.0", 1);
        assert!(check_summary(&zero)
            .iter()
            .any(|e| e.contains("non-positive")));

        // A summary to the wider schema this file had before the
        // staged-byte keys moved to xmark: today's keys are all in it, and
        // it must still fail, once per key that no longer belongs.
        let mut benches = EXPECTED_BENCH_KEYS.to_vec();
        benches.extend(["net_put_throughput", "xbench_knee_offered_load"]);
        let mut derived = EXPECTED_DERIVED_KEYS.to_vec();
        derived.push("staging_tier_capacity_gain");
        let errors = check_summary(&summary_of(&benches, &derived));
        assert_eq!(errors.len(), 3, "{errors:#?}");
        assert!(errors.iter().all(|e| e.contains("not in the schema")));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(gb(1 << 30), "1.00");
        assert_eq!(secs(12.34), "12.3");
        assert_eq!(pct(0.8711), "87.11%");
    }
}
