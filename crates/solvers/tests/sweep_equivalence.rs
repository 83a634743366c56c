//! Equivalence pins for the solver hot path.
//!
//! The level steps walk each grid once, in place, caching primitives and
//! predicted face states instead of re-deriving them per face, and the
//! level step and wave-speed scan run grids in parallel. All of that is a
//! pure re-ordering of *where* the same floating-point expressions are
//! evaluated, so the results must be **bit-identical** to the retained
//! per-cell references — these tests compare `f64::to_bits`, not
//! approximate norms.

use proptest::prelude::*;
use xlayer_amr::boxes::IBox;
use xlayer_amr::domain::ProblemDomain;
use xlayer_amr::fab::Fab;
use xlayer_amr::hierarchy::HierarchyConfig;
use xlayer_amr::intvect::{IntVect, DIM};
use xlayer_amr::layout::BoxLayout;
use xlayer_amr::level_data::LevelData;
use xlayer_amr::tagging::IntVectSet;
use xlayer_solvers::advect::{AdvectDiffuseSolver, VelocityField};
use xlayer_solvers::amr_driver::{AmrSimulation, DriverConfig};
use xlayer_solvers::euler::{Conserved, EulerSolver, Primitive, NCOMP};
use xlayer_solvers::level_solver::LevelSolver;
use xlayer_solvers::problems::{GasProblem, ScalarProblem};
use xlayer_solvers::reference;

const GAMMA: f64 = 1.4;

/// Deterministic pseudo-random value in [0, 1) from cell indices.
fn hash01(iv: IntVect, salt: i64) -> f64 {
    let h = (iv[0]
        .wrapping_mul(73856093)
        .wrapping_add(iv[1].wrapping_mul(19349663))
        .wrapping_add(iv[2].wrapping_mul(83492791))
        .wrapping_add(salt.wrapping_mul(7919)))
    .rem_euclid(10_000);
    h as f64 / 10_000.0
}

/// A physically admissible (positive rho/p) pseudo-random gas state.
fn gas_state(iv: IntVect, salt: i64) -> Conserved {
    Primitive {
        rho: 0.2 + 1.8 * hash01(iv, salt),
        vel: [
            2.0 * hash01(iv, salt + 1) - 1.0,
            2.0 * hash01(iv, salt + 2) - 1.0,
            2.0 * hash01(iv, salt + 3) - 1.0,
        ],
        p: 0.2 + 1.8 * hash01(iv, salt + 4),
    }
    .to_conserved(GAMMA)
}

/// A near-vacuum gas state: rho and p log-uniform down to 1e-9 with large
/// velocities, so neighboring cells form strong rarefactions whose MUSCL
/// half-step prediction undershoots below the `SMALL` positivity floor.
fn near_vacuum_state(iv: IntVect, salt: i64) -> Conserved {
    Primitive {
        rho: 10f64.powf(-9.0 + 9.5 * hash01(iv, salt)),
        vel: [
            20.0 * hash01(iv, salt + 1) - 10.0,
            20.0 * hash01(iv, salt + 2) - 10.0,
            20.0 * hash01(iv, salt + 3) - 10.0,
        ],
        p: 10f64.powf(-9.0 + 9.5 * hash01(iv, salt + 4)),
    }
    .to_conserved(GAMMA)
}

/// Assert two fabs are bit-for-bit identical.
fn assert_fab_bits_eq(a: &Fab, b: &Fab, what: &str) {
    assert_eq!(a.ibox(), b.ibox(), "{what}: box mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: payload diverges at flat index {i} ({x} vs {y})"
        );
    }
}

/// Ghost-filled boxes around `valid` that exercise every boundary-clamp
/// combination: fully grown (all interior faces), clipped flush on the low
/// sides, clipped flush on the high sides.
fn avail_variants(valid: IBox, nghost: i64) -> [IBox; 3] {
    let grown = valid.grow(nghost);
    [
        grown,
        IBox::new(valid.lo(), grown.hi()),
        IBox::new(grown.lo(), valid.hi()),
    ]
}

/// A level of the one grid `valid` on the non-periodic domain `avail`, so
/// the grid's fab is exactly `avail` (one of [`avail_variants`]): ghosts on
/// a side `avail` clips are physical-boundary faces. `value` fills every
/// cell of the fab, ghosts included; with one grid and no periodic image
/// there is nothing to exchange.
fn one_grid_level(
    valid: IBox,
    avail: IBox,
    ncomp: usize,
    nghost: i64,
    value: impl Fn(&mut Fab, IntVect),
) -> LevelData {
    let layout = BoxLayout::from_boxes(vec![valid]);
    let mut ld = LevelData::new(layout, ProblemDomain::new(avail), ncomp, nghost);
    assert_eq!(ld.fab(0).ibox(), avail);
    ld.for_each_mut(|_, fab| {
        for iv in avail.cells() {
            value(fab, iv);
        }
    });
    ld
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Euler level step on one cubic grid lands on the bits of the
    /// step built on the per-face reference fluxes
    /// (`reference::euler_grid_fluxes`), including at clamped physical
    /// boundaries.
    #[test]
    fn euler_grid_fluxes_match_reference(
        salt in 0i64..1000,
        n in 4i64..10,
        lo in -5i64..5,
        dtdx in 0.01f64..0.4,
    ) {
        let solver = EulerSolver::default();
        let valid = IBox::new(IntVect::splat(lo), IntVect::splat(lo + n - 1));
        for avail in avail_variants(valid, 2) {
            let build = || {
                one_grid_level(valid, avail, NCOMP, 2, |fab, iv| {
                    EulerSolver::set_state(fab, iv, gas_state(iv, salt))
                })
            };
            let (mut walk, mut want) = (build(), build());
            solver.advance_level(&mut walk, 1.0, dtdx);
            reference::euler_advance_level(&solver, &mut want, 1.0, dtdx);
            assert_fab_bits_eq(walk.fab(0), want.fab(0), &format!("euler, fab {avail:?}"));
        }
    }

    /// Near-vacuum regime: rho/p down to 1e-9 with strong jumps and large
    /// dtdx drive the predictor below the positivity floors, so this pins
    /// that the walk clamps exactly like `Primitive::from_array` does in
    /// the reference — and that no NaN escapes `hllc_flux` into the
    /// updated state in either path.
    #[test]
    fn euler_grid_fluxes_match_reference_near_vacuum(
        salt in 0i64..1000,
        n in 4i64..10,
        lo in -5i64..5,
        dtdx in 0.2f64..1.5,
    ) {
        let solver = EulerSolver::default();
        let valid = IBox::new(IntVect::splat(lo), IntVect::splat(lo + n - 1));
        for avail in avail_variants(valid, 2) {
            let build = || {
                one_grid_level(valid, avail, NCOMP, 2, |fab, iv| {
                    EulerSolver::set_state(fab, iv, near_vacuum_state(iv, salt))
                })
            };
            let (mut walk, mut want) = (build(), build());
            solver.advance_level(&mut walk, 1.0, dtdx);
            reference::euler_advance_level(&solver, &mut want, 1.0, dtdx);
            for v in walk.fab(0).as_slice() {
                prop_assert!(v.is_finite(), "near-vacuum state not finite: {v}");
            }
            assert_fab_bits_eq(walk.fab(0), want.fab(0), &format!("near-vacuum, fab {avail:?}"));
        }
    }

    /// The advect level step on one cubic grid lands on the bits of the step
    /// built on the per-face reference fluxes
    /// (`reference::advect_grid_fluxes`), with and without diffusion, for
    /// both velocity-field shapes, including at clamped physical
    /// boundaries.
    #[test]
    fn advect_grid_fluxes_match_reference(
        salt in 0i64..1000,
        n in 4i64..10,
        lo in -5i64..5,
        diffuse in 0i64..2,
        vortex in 0i64..2,
    ) {
        let diffusion = if diffuse == 1 { 0.3 } else { 0.0 };
        let vortex = vortex == 1;
        let field = if vortex {
            VelocityField::Vortex { center: [lo as f64 + 2.0; 2], strength: 0.2 }
        } else {
            VelocityField::Constant([0.7, -0.4, 0.25])
        };
        let solver = AdvectDiffuseSolver::new(field, diffusion, 16);
        let valid = IBox::new(IntVect::splat(lo), IntVect::splat(lo + n - 1));
        for avail in avail_variants(valid, 1) {
            let build = || {
                one_grid_level(valid, avail, 1, 1, |fab, iv| {
                    fab.set(iv, 0, 2.0 * hash01(iv, salt) - 1.0)
                })
            };
            let (mut fused, mut want) = (build(), build());
            let (dx, dt) = (0.5, 0.1);
            solver.advance_level(&mut fused, dx, dt);
            reference::advect_advance_level(&solver, &mut want, dx, dt);
            assert_fab_bits_eq(fused.fab(0), want.fab(0), &format!("advect, fab {avail:?}"));
        }
    }

    /// A full multi-grid Euler level step through the walk lands on the same
    /// bits as the reference path, and so does the parallel wave-speed
    /// reduction.
    #[test]
    fn euler_level_paths_match_reference(salt in 0i64..1000, periodic in 0i64..2) {
        let periodic = periodic == 1;
        let n = 16;
        let b = IBox::cube(n);
        let domain = if periodic { ProblemDomain::periodic(b) } else { ProblemDomain::new(b) };
        let solver = EulerSolver::default();
        let build = || {
            let layout = BoxLayout::decompose(&domain, 8, 2);
            let mut ld = LevelData::new(layout, domain, NCOMP, 2);
            ld.for_each_mut(|vb, fab| {
                for iv in vb.cells() {
                    EulerSolver::set_state(fab, iv, gas_state(iv, salt));
                }
            });
            ld.exchange();
            ld
        };

        let reference_level = build();
        prop_assert_eq!(
            solver.max_wave_speed(&reference_level).to_bits(),
            reference::euler_max_wave_speed(&solver, &reference_level).to_bits()
        );

        let (dx, dt) = (1.0 / n as f64, 0.4 / n as f64);
        let mut walk_level = build();
        let mut reference_level = reference_level;
        solver.advance_level(&mut walk_level, dx, dt);
        reference::euler_advance_level(&solver, &mut reference_level, dx, dt);
        for i in 0..walk_level.len() {
            assert_fab_bits_eq(
                walk_level.fab(i),
                reference_level.fab(i),
                &format!("advance_level grid {i}"),
            );
        }
    }

    /// The parallel advect level step on a periodic, diffusive vortex level
    /// (16³ in grids of at most 8 cells a side, two ranks) lands on the bits
    /// of the retained serial reference.
    #[test]
    fn advect_vortex_level_step_matches_reference(salt in 0i64..1000) {
        let n = 16;
        let domain = ProblemDomain::periodic(IBox::cube(n));
        let solver = AdvectDiffuseSolver::new(
            VelocityField::Vortex { center: [n as f64 / 2.0; 2], strength: 0.05 },
            0.1,
            n,
        );
        let build = || {
            let layout = BoxLayout::decompose(&domain, 8, 2);
            let mut ld = LevelData::new(layout, domain, 1, 1);
            ld.for_each_mut(|vb, fab| {
                for iv in vb.cells() {
                    fab.set(iv, 0, hash01(iv, salt));
                }
            });
            ld.exchange();
            ld
        };
        let mut par = build();
        let mut ser = build();
        let dt = solver.max_dt(1.0).min(0.2);
        solver.advance_level(&mut par, 1.0, dt);
        reference::advect_advance_level(&solver, &mut ser, 1.0, dt);
        for i in 0..par.len() {
            assert_fab_bits_eq(par.fab(i), ser.fab(i), &format!("advect vortex grid {i}"));
        }
    }
}

/// A small domain at `lo` cut into two unequal non-cubic boxes and a
/// one-cell-thick slab along `thin`, each fab filled (ghosts included, then
/// exchanged) with pseudo-random values in [-1, 1).
fn advect_level(lo: i64, thin: usize, periodic: [bool; DIM], salt: i64) -> LevelData {
    let lo = IntVect::new(lo, lo - 2, lo + 3);
    let whole = IBox::new(lo, lo + IntVect::new(11, 6, 4));
    let (rest, slab) = whole.split_at(thin, whole.hi()[thin]);
    let cut = (thin + 1) % DIM;
    let (a, b) = rest.split_at(cut, rest.lo()[cut] + 3);
    assert_eq!(slab.size()[thin], 1);
    let domain = ProblemDomain::with_periodicity(whole, periodic);
    let mut ld = LevelData::new(BoxLayout::from_boxes(vec![a, b, slab]), domain, 1, 1);
    ld.for_each_mut(|_, fab| {
        for iv in fab.ibox().cells() {
            fab.set(iv, 0, 2.0 * hash01(iv, salt) - 1.0);
        }
    });
    ld.exchange();
    ld
}

/// The fused in-place `advance_level` lands on the reference's bits — every
/// fab entry, ghosts included — on periodic, clipped and mixed domains, for
/// uniform fields of mixed and of all-negative sign and vortices centred
/// inside (both signs in a row) and outside the domain, with and without
/// diffusion, over non-cubic boxes and a slab one cell thick along each
/// axis in turn, two steps in a row.
#[test]
fn advect_level_paths_match_reference() {
    let lo = -3;
    let fields = [
        VelocityField::Constant([0.7, -0.4, 0.25]),
        VelocityField::Constant([-0.6, -0.3, -0.9]),
        VelocityField::Vortex {
            center: [lo as f64 + 5.3, lo as f64 + 1.1],
            strength: 0.2,
        },
        VelocityField::Vortex {
            center: [lo as f64 - 40.0, lo as f64 + 60.0],
            strength: -0.01,
        },
    ];
    let periodicities = [[true; DIM], [false; DIM], [true, false, false]];
    let mut salt = 0;
    for field in fields {
        for diffusion in [0.0, 0.3] {
            for periodic in periodicities {
                for thin in 0..DIM {
                    salt += 1;
                    let what = format!("{field:?} D={diffusion} {periodic:?} thin={thin}");
                    let solver = AdvectDiffuseSolver::new(field, diffusion, 12);
                    let (dx, dt) = (0.5, 0.1);
                    let mut fused = advect_level(lo, thin, periodic, salt);
                    let mut want = advect_level(lo, thin, periodic, salt);
                    for step in 0..2 {
                        solver.advance_level(&mut fused, dx, dt);
                        reference::advect_advance_level(&solver, &mut want, dx, dt);
                        for i in 0..want.len() {
                            let at = format!("{what}: step {step} grid {i}");
                            assert_fab_bits_eq(fused.fab(i), want.fab(i), &at);
                        }
                        for ld in [&mut fused, &mut want] {
                            ld.exchange();
                        }
                    }
                }
            }
        }
    }
}

/// A small gas domain at `lo`, `w` cells wide along x, cut into two unequal
/// non-cubic boxes and a one-cell-thick slab along `thin`, each fab filled
/// (ghosts included, then exchanged) with normal or near-vacuum states.
fn gas_level(
    lo: i64,
    w: i64,
    thin: usize,
    periodic: [bool; DIM],
    salt: i64,
    vacuum: bool,
) -> LevelData {
    let lo = IntVect::new(lo, lo - 2, lo + 3);
    let whole = IBox::new(lo, lo + IntVect::new(w - 1, 6, 4));
    let (rest, slab) = whole.split_at(thin, whole.hi()[thin]);
    let cut = (thin + 1) % DIM;
    let (a, b) = rest.split_at(cut, rest.lo()[cut] + rest.size()[cut] / 2);
    assert_eq!(slab.size()[thin], 1);
    assert_eq!(a.num_cells() + b.num_cells(), rest.num_cells());
    assert!(!a.is_empty() && !b.is_empty());
    let domain = ProblemDomain::with_periodicity(whole, periodic);
    let layout = BoxLayout::from_boxes(vec![a, b, slab]);
    let mut ld = LevelData::new(layout, domain, NCOMP, 2);
    ld.for_each_mut(|_, fab| {
        for iv in fab.ibox().cells() {
            let u = if vacuum {
                near_vacuum_state(iv, salt)
            } else {
                gas_state(iv, salt)
            };
            EulerSolver::set_state(fab, iv, u);
        }
    });
    ld.exchange();
    ld
}

/// The fused in-place `advance_level` lands on the reference's bits — every
/// fab entry, ghosts included — on periodic, clipped and mixed domains, with
/// normal and near-vacuum states, over non-cubic boxes and a slab one cell
/// thick along each axis in turn, whose rows are 1 to 7 cells long (mostly
/// shorter than, or no multiple of, the kernel's four lanes), at two
/// origins, two steps in a row.
#[test]
fn euler_walk_matches_reference() {
    let solver = EulerSolver::default();
    let periodicities = [[true; DIM], [false; DIM], [true, false, false]];
    let mut salt = 0;
    for lo in [-3, 2] {
        for w in [2, 3, 6, 7] {
            for vacuum in [false, true] {
                for periodic in periodicities {
                    for thin in 0..DIM {
                        salt += 1;
                        let what =
                            format!("lo={lo} w={w} vacuum={vacuum} {periodic:?} thin={thin}");
                        let build = || gas_level(lo, w, thin, periodic, salt, vacuum);
                        let (dx, dt) = (0.5, if vacuum { 0.01 } else { 0.05 });
                        let (mut fused, mut want) = (build(), build());
                        for step in 0..2 {
                            solver.advance_level(&mut fused, dx, dt);
                            reference::euler_advance_level(&solver, &mut want, dx, dt);
                            for i in 0..want.len() {
                                let at = format!("{what}: step {step} grid {i}");
                                assert_fab_bits_eq(fused.fab(i), want.fab(i), &at);
                            }
                            for ld in [&mut fused, &mut want] {
                                ld.exchange();
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The hoisted (x, y) table of face-normal velocities holds, for every
/// face of the box at every z, exactly what the per-face expression gives.
#[test]
fn face_normal_velocity_table_equals_the_per_face_expression() {
    let valid = IBox::new(IntVect::new(-4, 3, -2), IntVect::new(6, 7, 1));
    let fields = [
        VelocityField::Constant([0.7, -0.4, 0.25]),
        VelocityField::Vortex {
            center: [1.25, 4.5],
            strength: 0.3,
        },
    ];
    for field in fields {
        for d in 0..DIM {
            let e = IntVect::basis(d);
            let mut hi = valid.hi();
            hi[d] += 1;
            let fbox = IBox::new(valid.lo(), hi);
            // Stale storage of another length: the contents are replaced.
            let table = field.face_normal_table(d, &valid, vec![f64::NAN; 7]);
            let w = fbox.size()[0];
            assert_eq!(table.len() as i64, w * fbox.size()[1]);
            for iv in fbox.cells() {
                let r = iv - fbox.lo();
                let want = 0.5 * (field.at(iv - e)[d] + field.at(iv)[d]);
                assert_eq!(
                    table[(r[0] + w * r[1]) as usize].to_bits(),
                    want.to_bits(),
                    "{field:?} dir {d} at {iv:?}"
                );
            }
        }
    }
}

/// Deterministic pin on the floor regime: constant tiny rho/p under a steep
/// expanding velocity ramp, where the half-step predictor provably drives
/// rho and p negative (p_face = p·(1 − 0.5·dtdx·γ·du) with 0.5·dtdx·γ·du ≈
/// 2.0), so the `.max(SMALL)` clamps must engage on every interior face.
/// Without the clamp the walk would feed p < 0 to `hllc_flux` and write NaN
/// into the level where the reference stays finite.
#[test]
fn euler_sweep_clamps_near_vacuum_prediction() {
    let solver = EulerSolver::default();
    let valid = IBox::new(IntVect::splat(0), IntVect::splat(5));
    let build = || {
        one_grid_level(valid, valid.grow(2), NCOMP, 2, |fab, iv| {
            let w = Primitive {
                rho: 1e-6,
                vel: [2.0 * iv[0] as f64, 0.0, 0.0],
                p: 1e-6,
            };
            EulerSolver::set_state(fab, iv, w.to_conserved(GAMMA));
        })
    };
    let (mut walk, mut want) = (build(), build());
    let dtdx = 1.4;
    solver.advance_level(&mut walk, 1.0, dtdx);
    reference::euler_advance_level(&solver, &mut want, 1.0, dtdx);
    for v in walk.fab(0).as_slice() {
        assert!(v.is_finite(), "clamped walk state not finite: {v}");
    }
    assert_fab_bits_eq(walk.fab(0), want.fab(0), "clamp pin");
}

/// A `LevelSolver` that routes every overridden path through the retained
/// references: serial wave-speed scan, per-face fluxes. Driving a full AMR
/// run with it reproduces the seed's behavior exactly.
struct ReferenceEuler(EulerSolver);

impl LevelSolver for ReferenceEuler {
    fn ncomp(&self) -> usize {
        self.0.ncomp()
    }
    fn nghost(&self) -> i64 {
        self.0.nghost()
    }
    fn max_wave_speed(&self, data: &LevelData) -> f64 {
        reference::euler_max_wave_speed(&self.0, data)
    }
    fn advance_level(&self, data: &mut LevelData, dx: f64, dt: f64) {
        reference::euler_advance_level(&self.0, data, dx, dt);
    }
    fn tag_cells(&self, data: &LevelData, threshold: f64) -> IntVectSet {
        self.0.tag_cells(data, threshold)
    }
}

struct ReferenceAdvect(AdvectDiffuseSolver);

impl LevelSolver for ReferenceAdvect {
    fn ncomp(&self) -> usize {
        self.0.ncomp()
    }
    fn nghost(&self) -> i64 {
        self.0.nghost()
    }
    fn max_wave_speed(&self, data: &LevelData) -> f64 {
        self.0.max_wave_speed(data)
    }
    fn max_dt(&self, dx: f64) -> f64 {
        self.0.max_dt(dx)
    }
    fn advance_level(&self, data: &mut LevelData, dx: f64, dt: f64) {
        reference::advect_advance_level(&self.0, data, dx, dt);
    }
    fn tag_cells(&self, data: &LevelData, threshold: f64) -> IntVectSet {
        self.0.tag_cells(data, threshold)
    }
}

fn assert_hierarchies_bits_eq<A: LevelSolver, B: LevelSolver>(
    a: &AmrSimulation<A>,
    b: &AmrSimulation<B>,
    what: &str,
) {
    assert_eq!(
        a.hierarchy.num_levels(),
        b.hierarchy.num_levels(),
        "{what}: level count mismatch"
    );
    for l in 0..a.hierarchy.num_levels() {
        let (la, lb) = (a.hierarchy.level(l), b.hierarchy.level(l));
        assert_eq!(la.len(), lb.len(), "{what}: level {l} grid count");
        for g in 0..la.len() {
            assert_fab_bits_eq(la.fab(g), lb.fab(g), &format!("{what}: level {l} grid {g}"));
        }
    }
}

/// Multi-level AMR golden test for the advect solver: a two-level
/// lock-step run on a periodic domain, regridding every 2 steps, driven by
/// the fused walk lands on exactly the bits of the same run driven by the
/// retained serial reference — every level and grid, averaged-down coarse
/// cells included.
#[test]
fn amr_advect_run_is_bit_identical_to_reference() {
    let problem = ScalarProblem::Gaussian {
        center: [8.0; 3],
        sigma: 2.0,
    };
    let hier = HierarchyConfig {
        max_levels: 2,
        base_max_box: 8,
        nranks: 2,
        ..Default::default()
    };
    let config = DriverConfig {
        regrid_interval: 2,
        tag_threshold: 0.02,
        ..Default::default()
    };
    let mk_solver = || AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.5, 0.0]), 0.02, 16);
    fn init<S: LevelSolver>(sim: &mut AmrSimulation<S>, problem: &ScalarProblem) {
        problem.init_hierarchy(&mut sim.hierarchy);
        sim.regrid_now();
        problem.init_hierarchy(&mut sim.hierarchy);
        sim.hierarchy.average_down();
    }

    let domain = ProblemDomain::periodic(IBox::cube(16));
    let mut sweep = AmrSimulation::new(domain, hier.clone(), mk_solver(), config);
    let mut reference = AmrSimulation::new(domain, hier, ReferenceAdvect(mk_solver()), config);
    init(&mut sweep, &problem);
    init(&mut reference, &problem);
    assert!(sweep.hierarchy.num_levels() > 1, "gaussian must refine");

    let mut regrids = 0;
    for step in 0..6 {
        let s = sweep.advance();
        let r = reference.advance();
        assert_eq!(s.dt.to_bits(), r.dt.to_bits(), "dt diverged at step {step}");
        assert_eq!(s.levels, 2, "the run must stay refined at step {step}");
        regrids += usize::from(s.regridded);
        assert_hierarchies_bits_eq(&sweep, &reference, &format!("after step {step}"));
    }
    assert_eq!(regrids, 3);
}

/// The path `gas_local_intransit` runs, pinned: a blast on a clipped
/// domain, up to 2 levels, regridding every 4 steps — its
/// density is uniform at first, so the fine level appears at the first
/// regrid and moves at the second. Ten steps driven by the fused walk land
/// on exactly the bits of the same run driven by the retained references,
/// every level and grid included.
#[test]
fn amr_regridding_euler_run_is_bit_identical_to_reference() {
    let problem = GasProblem::Blast {
        center: [7.5, 8.0, 8.5],
        radius: 2.5,
        p_in: 10.0,
        p_out: 0.1,
    };
    let hier = HierarchyConfig {
        max_levels: 2,
        base_max_box: 8,
        nranks: 2,
        ..Default::default()
    };
    let config = DriverConfig {
        cfl: 0.3,
        regrid_interval: 4,
        tag_threshold: 0.04,
        base_dx: 1.0 / 16.0,
    };
    fn init<S: LevelSolver>(sim: &mut AmrSimulation<S>, problem: &GasProblem) {
        problem.init_hierarchy(&mut sim.hierarchy, GAMMA);
        sim.regrid_now();
        problem.init_hierarchy(&mut sim.hierarchy, GAMMA);
    }

    let domain = ProblemDomain::new(IBox::cube(16));
    let mut walk = AmrSimulation::new(domain, hier.clone(), EulerSolver::default(), config);
    let mut reference =
        AmrSimulation::new(domain, hier, ReferenceEuler(EulerSolver::default()), config);
    init(&mut walk, &problem);
    init(&mut reference, &problem);

    let mut regrids = 0;
    for step in 0..10 {
        let s = walk.advance();
        let r = reference.advance();
        assert_eq!(s.dt.to_bits(), r.dt.to_bits(), "dt diverged at step {step}");
        assert_eq!(s.regridded, r.regridded, "regrid diverged at step {step}");
        regrids += usize::from(s.regridded);
        assert_hierarchies_bits_eq(&walk, &reference, &format!("after step {step}"));
    }
    assert!(
        regrids >= 2,
        "the run must regrid at least twice, did {regrids}"
    );
    assert!(walk.hierarchy.num_levels() > 1, "the blast must refine");
}
