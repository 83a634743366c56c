//! Solver kernels: one level step of the two workloads, plus the HLLC
//! Riemann solve itself — the numbers behind `KernelCosts`' relative
//! magnitudes (Euler ≫ advection per cell).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use xlayer_amr::domain::ProblemDomain;
use xlayer_amr::layout::BoxLayout;
use xlayer_amr::level_data::LevelData;
use xlayer_amr::IBox;
use xlayer_solvers::euler::{hllc_flux, EulerSolver, Primitive};
use xlayer_solvers::{AdvectDiffuseSolver, LevelSolver, VelocityField};

fn euler_level_32c_64box() -> (EulerSolver, LevelData) {
    let solver = EulerSolver::default();
    let domain = ProblemDomain::periodic(IBox::cube(32));
    let layout = BoxLayout::decompose(&domain, 8, 4);
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

fn bench_solvers(c: &mut Criterion) {
    let n = 24i64;

    c.bench_function("hllc_flux", |b| {
        let l = Primitive {
            rho: 1.0,
            vel: [0.4, -0.1, 0.2],
            p: 1.0,
        };
        let r = Primitive {
            rho: 0.5,
            vel: [-0.3, 0.2, 0.0],
            p: 0.4,
        };
        b.iter(|| hllc_flux(black_box(l), black_box(r), 0, 1.4))
    });

    c.bench_function("euler_level_step_24c", |b| {
        let solver = EulerSolver::default();
        let domain = ProblemDomain::periodic(IBox::cube(n));
        let layout = BoxLayout::decompose(&domain, n, 1);
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
        ld.exchange();
        b.iter(|| solver.advance_level(&mut ld, 1.0, 0.05))
    });

    c.bench_function("advect_level_step_24c", |b| {
        let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.5, 0.0]), 0.01, n);
        let domain = ProblemDomain::periodic(IBox::cube(n));
        let layout = BoxLayout::decompose(&domain, n, 1);
        let mut ld = LevelData::new(layout, domain, 1, 1);
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                fab.set(iv, 0, ((iv[0] * iv[1]) % 7) as f64);
            }
        });
        ld.exchange();
        b.iter(|| solver.advance_level(&mut ld, 1.0, 0.05))
    });

    // Multi-grid periodic cases: 32³ in 8³ boxes is a 64-grid level, the
    // shape where the cached exchange schedule and the per-worker scratch
    // pool both engage. One iteration is a full level step: ghost exchange
    // plus the sweep.
    c.bench_function("euler_level_step_32c_64box_periodic", |b| {
        let (solver, mut ld) = euler_level_32c_64box();
        b.iter(|| {
            ld.exchange();
            solver.advance_level(&mut ld, 1.0, 0.05)
        })
    });

    c.bench_function("euler_max_wave_speed_32c_64box_periodic", |b| {
        let (solver, ld) = euler_level_32c_64box();
        b.iter(|| solver.max_wave_speed(&ld))
    });

    c.bench_function("advect_level_step_32c_64box_periodic", |b| {
        let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.5, 0.0]), 0.01, 32);
        let domain = ProblemDomain::periodic(IBox::cube(32));
        let layout = BoxLayout::decompose(&domain, 8, 4);
        let mut ld = LevelData::new(layout, domain, 1, 1);
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                fab.set(iv, 0, ((iv[0] * iv[1]) % 7) as f64);
            }
        });
        b.iter(|| {
            ld.exchange();
            solver.advance_level(&mut ld, 1.0, 0.05)
        })
    });

    // xmark's `advect_sharded_intransit` level: 128³ in 32³ boxes, a vortex
    // with diffusion.
    c.bench_function("advect_level_step_128c_64box_periodic", |b| {
        let vortex = VelocityField::Vortex {
            center: [64.0; 2],
            strength: 0.08,
        };
        let solver = AdvectDiffuseSolver::new(vortex, 0.01, 128);
        let domain = ProblemDomain::periodic(IBox::cube(128));
        let layout = BoxLayout::decompose(&domain, 32, 4);
        let mut ld = LevelData::new(layout, domain, 1, 1);
        ld.fill(1.0);
        b.iter(|| {
            ld.exchange();
            solver.advance_level(&mut ld, 1.0, 0.05)
        })
    });

    c.bench_function("euler_max_wave_speed_24c", |b| {
        let solver = EulerSolver::default();
        let domain = ProblemDomain::periodic(IBox::cube(n));
        let layout = BoxLayout::decompose(&domain, n, 1);
        let mut ld = LevelData::new(layout, domain, solver.ncomp(), solver.nghost());
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                EulerSolver::set_state(
                    fab,
                    iv,
                    Primitive {
                        rho: 1.0,
                        vel: [0.1, 0.0, 0.0],
                        p: 1.0,
                    }
                    .to_conserved(1.4),
                );
            }
        });
        b.iter(|| solver.max_wave_speed(&ld))
    });
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
