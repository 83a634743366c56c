//! Everything a workload feeds the program is generated here from `--seed`:
//! the blast / blob centre of the two simulations and the payload of every
//! object the two staging workloads put. The program under test never sees
//! the seed, only these inputs.

use xlayer_amr::hierarchy::HierarchyConfig;
use xlayer_amr::{Fab, IBox, IntVect, ProblemDomain};
use xlayer_solvers::{
    AdvectDiffuseSolver, AmrSimulation, DriverConfig, EulerSolver, GasProblem, ScalarProblem,
    VelocityField,
};
use xlayer_staging::DataObject;

/// The workspace's LCG (same constants as `xbench::spec`).
#[derive(Clone, Copy)]
pub struct Lcg(u64);

impl Lcg {
    /// A stream for `(seed, stream id)`; ids are folded in with an odd
    /// multiplier so neighbouring ids land in unrelated parts of the
    /// sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut l = Lcg(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        l.next();
        l.next();
        l
    }

    /// The next draw, halves mixed (the low bits of a pure LCG are weak).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) ^ self.0
    }

    /// A draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed's blob centre in an `n`-cell periodic domain: the domain centre
/// shifted by up to ±2 cells per axis in steps of 1/8 cell. The level is
/// uniform, so the work stays the same while every cell value differs.
fn blob_centre(seed: u64, n: i64) -> [f64; 3] {
    let mut l = Lcg::new(seed, 1);
    [0; 3].map(|_| n as f64 / 2.0 + (l.next() % 33) as f64 / 8.0 - 2.0)
}

/// The seed's blast centre: the domain centre shifted by −1, 0 or +1 whole
/// base boxes (`n/4` cells) per axis. A shift by whole boxes translates the
/// refined grids with the blast, so every seed regrids into the same number
/// of cells and the step times of two seeds can be compared; a sub-box
/// shift changes the fine level by ~3 % and the median step by more.
fn blast_centre(seed: u64, n: i64) -> [f64; 3] {
    let mut l = Lcg::new(seed, 1);
    [0; 3].map(|_| (n / 2 + (l.next() % 3) as i64 * (n / 4) - n / 4) as f64)
}

/// Polytropic-gas blast wave (paper §5.2.1): `n`³ base grid in `n/4`-cell
/// boxes, two levels, regrid every 4 steps.
pub fn gas_sim(seed: u64, n: i64) -> AmrSimulation<EulerSolver> {
    let mut sim = AmrSimulation::new(
        ProblemDomain::new(IBox::cube(n)),
        HierarchyConfig {
            max_levels: 2,
            base_max_box: n / 4,
            ..Default::default()
        },
        EulerSolver::default(),
        DriverConfig {
            cfl: 0.3,
            regrid_interval: 4,
            tag_threshold: 0.04,
            ..Default::default()
        },
    );
    let problem = GasProblem::Blast {
        center: blast_centre(seed, n),
        radius: n as f64 / 8.0,
        p_in: 10.0,
        p_out: 0.1,
    };
    problem.init_hierarchy(&mut sim.hierarchy, 1.4);
    sim.regrid_now();
    // The fine level the regrid created is interpolated; sample it exactly.
    problem.init_hierarchy(&mut sim.hierarchy, 1.4);
    sim
}

/// Single-level advection–diffusion of a Gaussian blob in a vortex
/// (paper §5.2.2): `n`³ periodic grid in `n/4`-cell boxes.
pub fn advect_sim(seed: u64, n: i64) -> AmrSimulation<AdvectDiffuseSolver> {
    let solver = AdvectDiffuseSolver::new(
        VelocityField::Vortex {
            center: [n as f64 / 2.0, n as f64 / 2.0],
            strength: 0.08,
        },
        0.01,
        n,
    );
    let mut sim = AmrSimulation::new(
        ProblemDomain::periodic(IBox::cube(n)),
        HierarchyConfig {
            max_levels: 1,
            base_max_box: n / 4,
            ..Default::default()
        },
        solver,
        DriverConfig {
            regrid_interval: 0,
            ..Default::default()
        },
    );
    ScalarProblem::Gaussian {
        center: blob_centre(seed, n),
        sigma: n as f64 / 8.0,
    }
    .init_hierarchy(&mut sim.hierarchy);
    sim
}

/// A `side`³-cell object of `(name, version)` whose low corner sits at
/// `origin` and whose cells are draws of `Lcg::new(seed, stream)`.
/// Regenerating it with the same arguments gives the same bytes, which is
/// how a get is checked.
pub fn cube_object(
    seed: u64,
    stream: u64,
    name: &str,
    version: u64,
    origin: [i64; 3],
    side: i64,
) -> DataObject {
    let lo = IntVect::new(origin[0], origin[1], origin[2]);
    let bbox = IBox::new(lo, lo + IntVect::splat(side - 1));
    let mut fab = Fab::new(bbox, 1);
    let mut l = Lcg::new(seed, stream);
    for v in fab.as_mut_slice() {
        *v = l.unit();
    }
    DataObject::from_fab(name, version, &fab, 0, &bbox, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(blob_centre(7, 64), blob_centre(7, 64));
        assert_ne!(blob_centre(7, 64), blob_centre(8, 64));
        assert!(blast_centre(7, 64)
            .iter()
            .all(|c| [16.0, 32.0, 48.0].contains(c)));
        let a = cube_object(3, 5, "v", 1, [0, 8, 16], 4);
        let b = cube_object(3, 5, "v", 1, [0, 8, 16], 4);
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.desc.bytes, 4 * 4 * 4 * 8);
        assert_ne!(a.payload, cube_object(4, 5, "v", 1, [0, 8, 16], 4).payload);
    }
}
