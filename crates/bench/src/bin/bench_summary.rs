//! Machine-readable summary of the native kernel micro-benchmarks.
//!
//! Re-times the headline cases of `benches/ghost_exchange.rs`,
//! `benches/solver_kernels.rs`, `benches/entropy_downsample.rs` and
//! `benches/marching_cubes.rs` with a plain `std::time::Instant` harness
//! (Criterion is a dev-dependency, not available to binaries) and writes
//! `BENCH_native_hotpath.json` — one ns/iter figure per bench plus derived
//! speedups — so CI and later sessions can diff kernel performance
//! without parsing bench output. Only kernels are timed here: each pair
//! isolates one restructuring (cached exchange plan, flat viz kernels,
//! exact-capacity concat, classify-first marching cubes off the staged
//! bytes) against its retained reference. Everything
//! a staged byte passes through — pack, transport, wire, service, disk
//! tier, the coupled pipeline's overlap — is measured end to end and per
//! layer by `xmark` (`benchmark/`, `BENCHMARK.json`).
//! The key set is pinned by [`xlayer_bench::EXPECTED_BENCH_KEYS`] and
//! validated by the `bench_schema_check` binary.
//!
//! Usage: `cargo run --release -p xlayer-bench --bin bench_summary [out.json]`

use std::time::Instant;
use xlayer_amr::domain::ProblemDomain;
use xlayer_amr::layout::BoxLayout;
use xlayer_amr::level_data::LevelData;
use xlayer_amr::{Fab, IBox, IntVect};
use xlayer_bench::{
    advect_version_objects, render_summary, EXPECTED_BENCH_KEYS, EXPECTED_DERIVED_KEYS,
};
use xlayer_solvers::euler::{EulerSolver, Primitive};
use xlayer_solvers::{AdvectDiffuseSolver, LevelSolver, VelocityField};
use xlayer_viz::downsample::{downsample_region, reconstruction_mse};
use xlayer_viz::entropy::{block_entropy, level_entropies};
use xlayer_viz::{extract_payload_into, reference, TriMesh};

/// Best-batch ns/iter of `f`: one calibration call sizes batches to
/// ~25 ms, then the minimum over seven batches is reported. Timing noise
/// on a shared host is strictly additive (preemption, frequency dips), so
/// the minimum is the robust estimator of the true cost — medians still
/// wander by tens of percent between whole-summary runs here.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as f64;
    let iters = ((25e6 / once).ceil() as u64).clamp(1, 1_000_000);
    (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn level(n: i64, max_box: i64, periodic: bool, nghost: i64) -> LevelData {
    let b = IBox::cube(n);
    let domain = if periodic {
        ProblemDomain::periodic(b)
    } else {
        ProblemDomain::new(b)
    };
    let layout = BoxLayout::decompose(&domain, max_box, 4);
    let mut ld = LevelData::new(layout, domain, 1, nghost);
    ld.fill(1.0);
    ld
}

fn euler_level(n: i64, max_box: i64) -> (EulerSolver, LevelData) {
    let solver = EulerSolver::default();
    let domain = ProblemDomain::periodic(IBox::cube(n));
    let layout = BoxLayout::decompose(&domain, max_box, 4);
    let mut ld = LevelData::new(layout, domain, solver.ncomp(), solver.nghost());
    ld.for_each_mut(|vb, fab| {
        for iv in vb.cells() {
            let w = Primitive {
                rho: 1.0 + 0.1 * ((iv[0] + iv[1]) % 5) as f64,
                vel: [0.2, 0.0, 0.0],
                p: 1.0,
            };
            EulerSolver::set_state(fab, iv, w.to_conserved(1.4));
        }
    });
    (solver, ld)
}

fn noisy_fab(n: i64) -> Fab {
    let b = IBox::cube(n);
    let mut f = Fab::new(b, 1);
    let mut state: u64 = 42;
    for iv in b.cells() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        f.set(iv, 0, (state >> 33) as f64 / (1u64 << 31) as f64);
    }
    f
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_native_hotpath.json".to_string());

    let mut results: Vec<(&str, f64)> = Vec::new();
    let mut run = |name: &'static str, f: &mut dyn FnMut()| {
        let ns = time_ns(f);
        println!("{name:<44} {ns:>14.1} ns/iter");
        results.push((name, ns));
    };

    // Ghost exchange over a 64-grid periodic level (32³ in 8³ boxes): the
    // cached/uncached pair is the ExchangeCopier acceptance measurement.
    {
        let ld = level(32, 8, true, 2);
        run("exchange_plan_32c_64box_periodic", &mut || {
            let _ = ld.exchange_plan();
        });
    }
    {
        let mut ld = level(32, 8, true, 2);
        run("exchange_32c_64box_periodic_cached", &mut || {
            let _ = ld.exchange();
        });
    }
    {
        let mut ld = level(32, 8, true, 2);
        run("exchange_32c_64box_periodic_uncached", &mut || {
            let _ = ld.exchange_uncached();
        });
    }

    // Solver level steps (exchange + sweep) on the same 64-grid shape.
    {
        let (solver, mut ld) = euler_level(32, 8);
        run("euler_level_step_32c_64box_periodic", &mut || {
            ld.exchange();
            solver.advance_level(&mut ld, 1.0, 0.05);
        });
    }
    {
        let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.5, 0.0]), 0.01, 32);
        let domain = ProblemDomain::periodic(IBox::cube(32));
        let layout = BoxLayout::decompose(&domain, 8, 4);
        let mut ld = LevelData::new(layout, domain, 1, 1);
        ld.fill(1.0);
        run("advect_level_step_32c_64box_periodic", &mut || {
            ld.exchange();
            solver.advance_level(&mut ld, 1.0, 0.05);
        });
    }
    // xmark's `advect_sharded_intransit` level: 128³ in 32³ boxes, a vortex
    // with diffusion — grids large enough that the kernel, not the per-grid
    // set-up, is the step.
    {
        let vortex = VelocityField::Vortex {
            center: [64.0; 2],
            strength: 0.08,
        };
        let solver = AdvectDiffuseSolver::new(vortex, 0.01, 128);
        let mut ld = level(128, 32, true, 1);
        run("advect_level_step_128c_64box_periodic", &mut || {
            ld.exchange();
            solver.advance_level(&mut ld, 1.0, 0.05);
        });
    }

    // The CFL wave-speed reduction, parallel over grids.
    {
        let (solver, ld) = euler_level(32, 8);
        run("euler_max_wave_speed_32c_64box_periodic", &mut || {
            let _ = solver.max_wave_speed(&ld);
        });
    }

    // Flat viz kernels vs their per-cell references at 64³ — the
    // acceptance measurement for the allocation-free analysis data path.
    {
        let fab = noisy_fab(64);
        let region = IBox::cube(64);
        run("downsample_flat_64c_x4", &mut || {
            let _ = downsample_region(&fab, 0, &region, 4);
        });
        run("downsample_reference_64c_x4", &mut || {
            let _ = reference::downsample_region(&fab, 0, &region, 4);
        });
        run("mse_flat_64c_x4", &mut || {
            let _ = reconstruction_mse(&fab, 0, 4);
        });
        run("mse_reference_64c_x4", &mut || {
            let _ = reference::reconstruction_mse(&fab, 0, 4);
        });
        run("entropy_flat_64c_256bins", &mut || {
            let _ = block_entropy(&fab, 0, &region, 256);
        });
        run("entropy_reference_64c_256bins", &mut || {
            let _ = reference::block_entropy(&fab, 0, &region, 256);
        });
    }

    // The entropy-driven adaptation's real unit of work: scan every grid
    // of a 64³ level (64 grids of 16³). Flat+parallel scan with a reused
    // histogram vs the seed's serial per-cell loop.
    {
        let domain = ProblemDomain::new(IBox::cube(64));
        let layout = BoxLayout::decompose(&domain, 16, 4);
        let mut ld = LevelData::new(layout, domain, 1, 1);
        let mut state: u64 = 7;
        ld.for_each_mut(|vb, f| {
            for iv in vb.cells() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                f.set(iv, 0, (state >> 33) as f64 / (1u64 << 31) as f64);
            }
        });
        run("level_entropy_scan_64c_flat", &mut || {
            let _ = level_entropies(&ld, 0, 256);
        });
        run("level_entropy_scan_64c_reference", &mut || {
            let _: Vec<f64> = (0..ld.len())
                .map(|i| reference::block_entropy(ld.fab(i), 0, &ld.valid_box(i), 256))
                .collect();
        });
    }

    // Merging 64 per-grid surfaces: concat into buffers allocated once at
    // final size vs grow-and-append.
    {
        let fab = noisy_fab(32);
        let parts: Vec<TriMesh> = (0..4i64)
            .flat_map(|bz| (0..4i64).flat_map(move |by| (0..4i64).map(move |bx| (bx, by, bz))))
            .map(|(bx, by, bz)| {
                let lo = IntVect::new(bx * 8, by * 8, bz * 8);
                let region = IBox::new(lo, lo + IntVect::splat(7));
                xlayer_viz::extract_block(&fab, 0, &region, 0.5, 1.0, [0.0; 3])
            })
            .collect();
        let refs: Vec<&TriMesh> = parts.iter().collect();
        run("mesh_concat_64parts", &mut || {
            let _ = TriMesh::concat(&refs);
        });
        run("mesh_append_64parts", &mut || {
            let mut total = TriMesh::new();
            for p in &parts {
                total.append(p);
            }
        });
    }

    // One advect version as its analysis worker receives it (64 objects
    // of 34³, iso 0.5): classify-first straight off the payload bytes into
    // one mesh vs the path it replaced — `to_fab`, the per-cube reference
    // kernel and a concat of 64 meshes. ns per version.
    {
        let objects = advect_version_objects();
        run("marching_cubes_advect34_flat", &mut || {
            let mut mesh = TriMesh::new();
            for obj in &objects {
                let d = &obj.desc;
                extract_payload_into(
                    &obj.payload,
                    &d.bbox,
                    &d.core,
                    0.5,
                    1.0,
                    [0.0; 3],
                    &mut mesh,
                );
            }
        });
        run("marching_cubes_advect34_reference", &mut || {
            let parts: Vec<TriMesh> = objects
                .iter()
                .map(|obj| {
                    reference::extract_block(&obj.to_fab(), 0, &obj.desc.core, 0.5, 1.0, [0.0; 3])
                })
                .collect();
            let refs: Vec<&TriMesh> = parts.iter().collect();
            let _ = TriMesh::concat(&refs);
        });
    }

    let produced: Vec<&str> = results.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        produced, EXPECTED_BENCH_KEYS,
        "bench_summary and EXPECTED_BENCH_KEYS are out of sync"
    );

    let ns_of = |name: &str| -> f64 {
        results
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ns)| *ns)
            .unwrap_or(f64::NAN)
    };
    let derived: Vec<(&str, f64)> = vec![
        (
            "exchange_cached_speedup",
            ns_of("exchange_32c_64box_periodic_uncached")
                / ns_of("exchange_32c_64box_periodic_cached"),
        ),
        (
            "downsample_flat_speedup",
            ns_of("downsample_reference_64c_x4") / ns_of("downsample_flat_64c_x4"),
        ),
        (
            "mse_flat_speedup",
            ns_of("mse_reference_64c_x4") / ns_of("mse_flat_64c_x4"),
        ),
        (
            "entropy_flat_speedup",
            ns_of("entropy_reference_64c_256bins") / ns_of("entropy_flat_64c_256bins"),
        ),
        (
            "level_entropy_scan_speedup",
            ns_of("level_entropy_scan_64c_reference") / ns_of("level_entropy_scan_64c_flat"),
        ),
        (
            "mesh_concat_speedup",
            ns_of("mesh_append_64parts") / ns_of("mesh_concat_64parts"),
        ),
        (
            "marching_cubes_speedup",
            ns_of("marching_cubes_advect34_reference") / ns_of("marching_cubes_advect34_flat"),
        ),
    ];
    let derived_names: Vec<&str> = derived.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        derived_names, EXPECTED_DERIVED_KEYS,
        "bench_summary and EXPECTED_DERIVED_KEYS are out of sync"
    );
    println!();
    for (name, v) in &derived {
        println!("{name:<44} {v:>13.2}x");
    }

    let json = render_summary(&results, &derived);
    std::fs::write(&out_path, json).expect("write summary");
    println!("wrote {out_path}");
}
