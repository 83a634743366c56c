//! Polytropic gas dynamics: an unsplit MUSCL–Hancock Godunov solver for the
//! 3-D Euler equations with an HLLC Riemann solver.
//!
//! This is the Rust analogue of Chombo's `AMRGodunov` Polytropic Gas example
//! — the memory- and compute-intensive workload of the paper's evaluation
//! (§5.2.1, Fig. 1, Fig. 5, Fig. 9).
//!
//! A level step walks each grid once, in place ([`GridKernel::walk`]): the
//! grid's primitives are cached first, so every face reads only that cache
//! and the conserved state can be overwritten row by row behind the walk.
//! The arithmetic — slopes and half-step predictor, HLLC, conservative
//! update — is written once over [`LANES`]-wide lane groups of
//! component-major rows, each lane evaluating exactly the scalar expression
//! in the scalar order, so the compiler packs four cells into SSE2
//! registers and every output bit matches the per-face formulation in
//! [`crate::reference`].

use crate::level_solver::LevelSolver;
use crate::scratch;
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::{IntVect, DIM};
use xlayer_amr::level_data::LevelData;
use xlayer_amr::tagging::{tag_undivided_gradient, IntVectSet};

/// Number of conserved components: density, 3 momenta, total energy.
pub const NCOMP: usize = 5;
/// Component index of density.
pub const RHO: usize = 0;
/// Component index of x-momentum.
pub const MX: usize = 1;
/// Component index of y-momentum.
pub const MY: usize = 2;
/// Component index of z-momentum.
pub const MZ: usize = 3;
/// Component index of total energy density.
pub const ENERGY: usize = 4;

/// Floor applied to density and pressure to keep states physical.
pub(crate) const SMALL: f64 = 1e-10;

/// Cells (or faces) the kernel's element-wise arithmetic handles at once:
/// two SSE2 registers of `f64`.
const LANES: usize = 4;

/// Conserved state at one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Conserved {
    /// Mass density ρ.
    pub rho: f64,
    /// Momentum density (ρu, ρv, ρw).
    pub mom: [f64; 3],
    /// Total energy density E = ρe + ½ρ|u|².
    pub energy: f64,
}

/// Primitive state at one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Primitive {
    /// Mass density ρ.
    pub rho: f64,
    /// Velocity (u, v, w).
    pub vel: [f64; 3],
    /// Pressure p.
    pub p: f64,
}

impl Conserved {
    /// Convert to primitives for ratio of specific heats `gamma`.
    pub fn to_primitive(self, gamma: f64) -> Primitive {
        let rho = self.rho.max(SMALL);
        let vel = [self.mom[0] / rho, self.mom[1] / rho, self.mom[2] / rho];
        let ke = 0.5 * rho * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
        let p = ((gamma - 1.0) * (self.energy - ke)).max(SMALL);
        Primitive { rho, vel, p }
    }
}

impl Primitive {
    /// Convert to conserved variables.
    pub fn to_conserved(self, gamma: f64) -> Conserved {
        let mom = [
            self.rho * self.vel[0],
            self.rho * self.vel[1],
            self.rho * self.vel[2],
        ];
        let ke = 0.5
            * self.rho
            * (self.vel[0] * self.vel[0] + self.vel[1] * self.vel[1] + self.vel[2] * self.vel[2]);
        Conserved {
            rho: self.rho,
            mom,
            energy: self.p / (gamma - 1.0) + ke,
        }
    }

    /// Sound speed c = √(γp/ρ).
    pub fn sound_speed(self, gamma: f64) -> f64 {
        (gamma * self.p / self.rho.max(SMALL)).sqrt()
    }

    /// Physical flux along direction `d`.
    pub fn flux(self, d: usize, gamma: f64) -> [f64; NCOMP] {
        let un = self.vel[d];
        let cons = self.to_conserved(gamma);
        let mut f = [0.0; NCOMP];
        f[RHO] = cons.rho * un;
        f[MX] = cons.mom[0] * un;
        f[MY] = cons.mom[1] * un;
        f[MZ] = cons.mom[2] * un;
        f[MX + d] += self.p;
        f[ENERGY] = un * (cons.energy + self.p);
        f
    }

    pub(crate) fn as_array(self) -> [f64; NCOMP] {
        [self.rho, self.vel[0], self.vel[1], self.vel[2], self.p]
    }

    pub(crate) fn from_array(a: [f64; NCOMP]) -> Self {
        Primitive {
            rho: a[0].max(SMALL),
            vel: [a[1], a[2], a[3]],
            p: a[4].max(SMALL),
        }
    }
}

/// `L` values of one quantity, one per cell or face of a lane group. Every
/// operation applies the scalar IEEE operation lane by lane — a lane
/// computes exactly what the scalar expression computes, and Rust never
/// contracts a multiply and an add into an FMA — so with `L` = [`LANES`]
/// the compiler emits packed SSE2 arithmetic and with `L` = 1 the scalar
/// form, bit for bit the same.
#[derive(Clone, Copy, Debug)]
struct Lane<const L: usize>([f64; L]);

impl<const L: usize> Lane<L> {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        Lane([v; L])
    }

    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(o.0) {
            *a = f(*a, b);
        }
        Lane(r)
    }

    #[inline(always)]
    fn max(self, o: impl Into<Self>) -> Self {
        self.zip(o.into(), f64::max)
    }

    #[inline(always)]
    fn min(self, o: impl Into<Self>) -> Self {
        self.zip(o.into(), f64::min)
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        Lane(self.0.map(f64::sqrt))
    }
}

impl<const L: usize> From<f64> for Lane<L> {
    #[inline(always)]
    fn from(v: f64) -> Self {
        Lane::splat(v)
    }
}

/// Per lane, all ones where a condition holds and zeros where it does not:
/// the operand of a bitwise select, which the compiler keeps branch-free.
#[derive(Clone, Copy, Debug)]
struct Mask<const L: usize>([u64; L]);

impl<const L: usize> Mask<L> {
    /// Lane by lane, whether `f` holds for `a` and `b` (an ordered
    /// comparison with NaN never does).
    #[inline(always)]
    fn cmp(a: Lane<L>, b: Lane<L>, f: impl Fn(f64, f64) -> bool) -> Self {
        let mut m = [0; L];
        for ((m, a), b) in m.iter_mut().zip(a.0).zip(b.0) {
            *m = if f(a, b) { u64::MAX } else { 0 };
        }
        Mask(m)
    }

    /// Lane by lane, whether `f` holds for `v`.
    #[inline(always)]
    fn of(v: Lane<L>, f: impl Fn(f64) -> bool) -> Self {
        Mask::cmp(v, v, |v, _| f(v))
    }

    /// Lane by lane, `a` where the mask is set and `b` where it is not,
    /// bit for bit.
    #[inline(always)]
    fn select(self, a: Lane<L>, b: Lane<L>) -> Lane<L> {
        let mut r = b.0;
        for ((r, m), a) in r.iter_mut().zip(self.0).zip(a.0) {
            *r = f64::from_bits((a.to_bits() & m) | (r.to_bits() & !m));
        }
        Lane(r)
    }
}

/// Lane-by-lane `Lane ∘ Lane`, `Lane ∘ f64` and `f64 ∘ Lane`.
macro_rules! lane_op {
    ($trait:ident, $f:ident, $op:tt) => {
        impl<const L: usize> std::ops::$trait for Lane<L> {
            type Output = Self;
            #[inline(always)]
            fn $f(self, o: Self) -> Self {
                self.zip(o, |a, b| a $op b)
            }
        }
        impl<const L: usize> std::ops::$trait<f64> for Lane<L> {
            type Output = Self;
            #[inline(always)]
            fn $f(self, o: f64) -> Self {
                self.zip(Lane::splat(o), |a, b| a $op b)
            }
        }
        impl<const L: usize> std::ops::$trait<Lane<L>> for f64 {
            type Output = Lane<L>;
            #[inline(always)]
            fn $f(self, o: Lane<L>) -> Lane<L> {
                Lane::splat(self).zip(o, |a, b| a $op b)
            }
        }
    };
}
lane_op!(Add, add, +);
lane_op!(Sub, sub, -);
lane_op!(Mul, mul, *);
lane_op!(Div, div, /);

/// Five components (conserved, primitive or flux) of `L` cells or faces.
type State<const L: usize> = [Lane<L>; NCOMP];

/// A state built component by component: `[f(0), …, f(4)]`.
#[inline(always)]
fn per_comp<const L: usize>(f: impl Fn(usize) -> Lane<L>) -> State<L> {
    [f(0), f(1), f(2), f(3), f(4)]
}

/// Runs `$body` over `0..$n` in lane groups: with the `const` `$lanes`
/// equal to [`LANES`] at the first index `$i` of every full group, then
/// equal to 1 at each index after the last full group. One body serves
/// both, so a row's tail runs the very code its bulk runs.
macro_rules! lane_groups {
    ($n:expr, |$i:ident, $lanes:ident| $body:block) => {{
        let n: usize = $n;
        let full = n - n % LANES;
        for $i in (0..full).step_by(LANES) {
            const $lanes: usize = LANES;
            $body
        }
        for $i in full..n {
            const $lanes: usize = 1;
            $body
        }
    }};
}

/// Component-major rows in a flat buffer: entry `i` of component `c` at
/// `s[c * stride + i]`. A fab payload from a cell's offset on is one (with
/// `stride` its component stride), and so is every row and plane the walk
/// buffers.
#[derive(Clone, Copy)]
struct Rows<'a> {
    s: &'a [f64],
    stride: usize,
}

impl<'a> Rows<'a> {
    fn new(s: &'a [f64], stride: usize) -> Self {
        Rows { s, stride }
    }

    /// Entries `i..i + L` of all five components.
    #[inline(always)]
    fn load<const L: usize>(&self, i: usize) -> State<L> {
        per_comp(|c| {
            let o = c * self.stride + i;
            Lane(self.s[o..o + L].try_into().expect("a lane group"))
        })
    }
}

/// [`Rows`] to write.
struct RowsMut<'a> {
    s: &'a mut [f64],
    stride: usize,
}

impl<'a> RowsMut<'a> {
    fn new(s: &'a mut [f64], stride: usize) -> Self {
        RowsMut { s, stride }
    }

    /// The same rows, to read.
    fn rows(&self) -> Rows<'_> {
        Rows::new(self.s, self.stride)
    }

    /// The same rows, to write through a shorter borrow.
    fn reborrow(&mut self) -> RowsMut<'_> {
        RowsMut::new(self.s, self.stride)
    }

    #[inline(always)]
    fn store<const L: usize>(&mut self, i: usize, v: &State<L>) {
        for (c, v) in v.iter().enumerate() {
            let o = c * self.stride + i;
            self.s[o..o + L].copy_from_slice(&v.0);
        }
    }
}

/// The faces below and above a row of cells along one direction: entry `i`
/// of `lo` is the face between cells `i - e_d` and `i`, of `hi` the face
/// between `i` and `i + e_d`.
#[derive(Clone, Copy)]
struct FaceRows<'a> {
    lo: Rows<'a>,
    hi: Rows<'a>,
}

impl<'a> FaceRows<'a> {
    fn new(lo: &'a [f64], hi: &'a [f64], stride: usize) -> Self {
        FaceRows {
            lo: Rows::new(lo, stride),
            hi: Rows::new(hi, stride),
        }
    }
}

/// `buf` cut into consecutive slices of the given lengths.
fn carve<const N: usize>(mut buf: &mut [f64], lens: [usize; N]) -> [&mut [f64]; N] {
    lens.map(|n| {
        let (head, rest) = std::mem::take(&mut buf).split_at_mut(n);
        buf = rest;
        head
    })
}

/// The minmod slope limiter over `L` lanes: `a·b ≤ 0 ? 0 : |a| < |b| ? a : b`.
#[inline(always)]
fn minmod<const L: usize>(a: Lane<L>, b: Lane<L>) -> Lane<L> {
    let opposite = Mask::of(a * b, |p| p <= 0.0);
    let smaller = Mask::cmp(a, b, |a, b| a.abs() < b.abs());
    opposite.select(Lane::splat(0.0), smaller.select(a, b))
}

/// `Conserved::to_primitive` over `L` cells.
#[inline(always)]
fn primitive<const L: usize>(u: &State<L>, gamma: f64) -> State<L> {
    let rho = u[RHO].max(SMALL);
    let vel = [u[MX] / rho, u[MY] / rho, u[MZ] / rho];
    let ke = 0.5 * rho * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
    let p = ((gamma - 1.0) * (u[ENERGY] - ke)).max(SMALL);
    [rho, vel[0], vel[1], vel[2], p]
}

/// `Primitive::to_conserved` over `L` cells.
#[inline(always)]
fn conserved<const L: usize>(w: &State<L>, gamma: f64) -> State<L> {
    let [rho, u, v, w, p] = *w;
    let ke = 0.5 * rho * (u * u + v * v + w * w);
    [rho, rho * u, rho * v, rho * w, p / (gamma - 1.0) + ke]
}

/// `Primitive::flux` along `D` over `L` faces, from the primitive states
/// `w` and their conserved forms `u`.
#[inline(always)]
fn physical_flux<const L: usize, const D: usize>(w: &State<L>, u: &State<L>) -> State<L> {
    let un = w[1 + D];
    let mut f = [
        u[RHO] * un,
        u[MX] * un,
        u[MY] * un,
        u[MZ] * un,
        un * (u[ENERGY] + w[4]),
    ];
    f[MX + D] = f[MX + D] + w[4];
    f
}

/// HLLC's star-region flux `F + s·(U* − U)` on the side of the contact
/// (speed `s_star`) whose outer wave has speed `s`, from that side's
/// primitive states `q`, conserved states `u` and physical fluxes `f`.
#[inline(always)]
fn star_flux<const L: usize, const D: usize>(
    q: &State<L>,
    u: &State<L>,
    f: &State<L>,
    s: Lane<L>,
    s_star: Lane<L>,
) -> State<L> {
    let un = q[1 + D];
    let factor = q[0] * (s - un) / (s - s_star);
    let mut vel = [q[1], q[2], q[3]];
    vel[D] = s_star;
    let u_star = [
        factor,
        factor * vel[0],
        factor * vel[1],
        factor * vel[2],
        factor * (u[ENERGY] / q[0] + (s_star - un) * (s_star + q[4] / (q[0] * (s - un)))),
    ];
    per_comp(|c| f[c] + s * (u_star[c] - u[c]))
}

/// The HLLC flux through `L` faces along `D`, left states `l`, right
/// states `r`. Branch-free: every lane evaluates the left and right
/// physical fluxes and both star-state fluxes, then takes
/// `s_l >= 0 ? F_l : s_r <= 0 ? F_r : s_star >= 0 ? F*_l : F*_r` — what
/// the branches of the scalar solver return, NaN included (every
/// comparison with NaN fails, so it falls through to `F*_r`).
#[inline(always)]
fn hllc<const L: usize, const D: usize>(l: &State<L>, r: &State<L>, gamma: f64) -> State<L> {
    let cl = (gamma * l[4] / l[0].max(SMALL)).sqrt();
    let cr = (gamma * r[4] / r[0].max(SMALL)).sqrt();
    let (ul, ur) = (l[1 + D], r[1 + D]);

    // Davis wave-speed estimates.
    let s_l = (ul - cl).min(ur - cr);
    let s_r = (ul + cl).max(ur + cr);

    // Contact wave speed.
    let (rho_l, rho_r) = (l[0], r[0]);
    let s_star = (r[4] - l[4] + rho_l * ul * (s_l - ul) - rho_r * ur * (s_r - ur))
        / (rho_l * (s_l - ul) - rho_r * (s_r - ur));

    let (u_l, u_r) = (conserved(l, gamma), conserved(r, gamma));
    let (f_l, f_r) = (
        physical_flux::<L, D>(l, &u_l),
        physical_flux::<L, D>(r, &u_r),
    );
    // F* = F + s·(U* − U) on either side of the contact.
    let (fs_l, fs_r) = (
        star_flux::<L, D>(l, &u_l, &f_l, s_l, s_star),
        star_flux::<L, D>(r, &u_r, &f_r, s_r, s_star),
    );
    let upwind_l = Mask::of(s_l, |s| s >= 0.0);
    let upwind_r = Mask::of(s_r, |s| s <= 0.0);
    let star_l = Mask::of(s_star, |s| s >= 0.0);
    per_comp(|c| {
        upwind_l.select(
            f_l[c],
            upwind_r.select(f_r[c], star_l.select(fs_l[c], fs_r[c])),
        )
    })
}

/// MUSCL–Hancock over `L` cells along `D`: the minmod-limited slopes from
/// the cells' primitives `wc` and their neighbours' `wm`, `wp`, then both
/// half-step face states, `(lo, hi)` at the cell's −½ and +½ faces. The
/// `A(w)·slope` product depends only on the cell, so it is evaluated once
/// for both; each component is the expression the per-face reference
/// predictor evaluates (IEEE multiplication by −0.5 is the exact negation
/// of multiplication by 0.5, and `a + (−b)` is `a − b`).
#[inline(always)]
fn predict<const L: usize, const D: usize>(
    wm: &State<L>,
    wc: &State<L>,
    wp: &State<L>,
    gamma: f64,
    dtdx: f64,
) -> (State<L>, State<L>) {
    let s: State<L> = per_comp(|c| minmod(wp[c] - wc[c], wc[c] - wm[c]));
    let rho = wc[0];
    let un = wc[1 + D];
    let c2 = gamma * wc[4] / rho;
    // A(w)·slope for primitive Euler along D.
    let mut adw = [
        un * s[0] + rho * s[1 + D],
        un * s[1],
        un * s[2],
        un * s[3],
        un * s[4] + rho * c2 * s[1 + D],
    ];
    adw[1 + D] = adw[1 + D] + s[4] / rho;
    let mut hi: State<L> = per_comp(|c| wc[c] + 0.5 * s[c] - 0.5 * dtdx * adw[c]);
    let mut lo: State<L> = per_comp(|c| wc[c] - 0.5 * s[c] - 0.5 * dtdx * adw[c]);
    // Positivity floors, matching Primitive::from_array: without these a
    // strong rarefaction can store rho or p ≤ 0 and the Riemann solve would
    // take sqrt of a negative sound-speed argument.
    // xlint: floors-applied
    hi[0] = hi[0].max(SMALL);
    hi[4] = hi[4].max(SMALL);
    lo[0] = lo[0].max(SMALL);
    lo[4] = lo[4].max(SMALL);
    (lo, hi)
}

/// The conservative update of `L` cells: `u + du`, then the positivity
/// floors through a primitive round trip.
#[inline(always)]
fn update<const L: usize>(u: &State<L>, du: &State<L>, gamma: f64) -> State<L> {
    let new: State<L> = per_comp(|c| u[c] + du[c]);
    let floored = [new[RHO].max(SMALL), new[MX], new[MY], new[MZ], new[ENERGY]];
    conserved(&primitive(&floored, gamma), gamma)
}

/// HLLC approximate Riemann solver: the flux through a face with left state
/// `l` and right state `r`, normal direction `d` — the kernel's Riemann
/// solve at one lane.
pub fn hllc_flux(l: Primitive, r: Primitive, d: usize, gamma: f64) -> [f64; NCOMP] {
    let (l, r) = (
        l.as_array().map(|v| Lane([v])),
        r.as_array().map(|v| Lane([v])),
    );
    let f = match d {
        0 => hllc::<1, 0>(&l, &r, gamma),
        1 => hllc::<1, 1>(&l, &r, gamma),
        2 => hllc::<1, 2>(&l, &r, gamma),
        _ => panic!("hllc_flux: direction {d} out of range"),
    };
    f.map(|c| c.0[0])
}

/// The primitive cache of a fab: `Conserved::to_primitive` of every cell,
/// ghosts included, in a pooled buffer laid out like the fab's payload.
/// Stored primitives already carry their floors, so reading them back is
/// bit-identical to converting again.
fn primitives(fab: &Fab, gamma: f64) -> Vec<f64> {
    let st = fab.comp_stride();
    let src = Rows::new(fab.as_slice(), st);
    let mut prim = scratch::take_buffer();
    prim.resize(NCOMP * st, 0.0);
    let mut dst = RowsMut::new(&mut prim, st);
    lane_groups!(st, |o, L| {
        dst.store(o, &primitive(&src.load::<L>(o), gamma));
    });
    prim
}

/// The row kernels of one grid's step: its primitive cache over the
/// ghost-filled box `avail`, the ratio of specific heats, and dt/dx.
struct GridKernel<'a> {
    prim: Rows<'a>,
    avail: IBox,
    gamma: f64,
    dtdx: f64,
}

impl GridKernel<'_> {
    /// The cell `iv` moved to `v` along `d`, clamped into `avail`: a
    /// neighbour missing from `avail` (a physical boundary) is the cell
    /// itself.
    fn along(&self, iv: IntVect, d: usize, v: i64) -> IntVect {
        let mut r = iv;
        r[d] = v.clamp(self.avail.lo()[d], self.avail.hi()[d]);
        r
    }

    /// Half-step face states along `D` of the `n` cells from `iv` on,
    /// entry `i` into `lo` and `hi`. Each cell's −e_D and +e_D neighbours
    /// are those of `iv` shifted by `i`: along x the caller passes a
    /// stretch whose neighbours are all in `avail`, or one cell.
    fn half_step<const D: usize>(&self, iv: IntVect, n: usize, mut lo: RowsMut, mut hi: RowsMut) {
        let at = |v: IntVect| self.avail.offset(v);
        let (om, oc, op) = (
            at(self.along(iv, D, iv[D] - 1)),
            at(iv),
            at(self.along(iv, D, iv[D] + 1)),
        );
        let (gamma, dtdx) = (self.gamma, self.dtdx);
        lane_groups!(n, |i, L| {
            let (wm, wc, wp) = (
                self.prim.load::<L>(om + i),
                self.prim.load::<L>(oc + i),
                self.prim.load::<L>(op + i),
            );
            let (l, h) = predict::<L, D>(&wm, &wc, &wp, gamma, dtdx);
            lo.store(i, &l);
            hi.store(i, &h);
        });
    }

    /// HLLC fluxes along `D` through `n` faces, entry `i` of `out` from the
    /// left states `l` and right states `r` at entry `i`.
    fn riemann<const D: usize>(&self, l: Rows, r: Rows, n: usize, mut out: RowsMut) {
        lane_groups!(n, |i, L| {
            out.store(i, &hllc::<L, D>(&l.load(i), &r.load(i), self.gamma));
        });
    }

    /// The faces along `D` (y or z) of the `n`-cell row at `row`: the face
    /// states of the row above into `hi_next`, their −½ half into the
    /// scratch row `lo`, and the fluxes through the faces above — between
    /// `hi`, the row's own +½ states, and the row above — into `f_hi`. On
    /// the walk's first row along `D` (`first`), before that: the row's own
    /// states into `hi` and the fluxes through the faces below into `f_lo`.
    #[allow(clippy::too_many_arguments)]
    fn cross_faces<const D: usize>(
        &self,
        row: IntVect,
        first: bool,
        n: usize,
        lo: &mut [f64],
        mut hi: RowsMut,
        mut hi_next: RowsMut,
        mut f_lo: RowsMut,
        mut f_hi: RowsMut,
    ) {
        if first {
            let below = self.along(row, D, row[D] - 1);
            self.half_step::<D>(below, n, RowsMut::new(lo, n), hi_next.reborrow());
            self.half_step::<D>(row, n, RowsMut::new(lo, n), hi.reborrow());
            self.riemann::<D>(hi_next.rows(), Rows::new(lo, n), n, f_lo.reborrow());
        }
        let above = self.along(row, D, row[D] + 1);
        self.half_step::<D>(above, n, RowsMut::new(lo, n), hi_next.reborrow());
        self.riemann::<D>(hi.rows(), Rows::new(lo, n), n, f_hi.reborrow());
    }

    /// One walk over the rows of `valid`, handing `on_row` each row's
    /// first cell and the fluxes through its faces along x, y and z.
    ///
    /// Every face reads only the primitive cache, so `on_row` may
    /// overwrite the row's cells. Each face's flux is evaluated once: the
    /// walk buffers the x-faces of the current row, the y-faces below and
    /// above it (two rows, swapped as it moves up), the z-faces below and
    /// above the current plane (two planes, swapped per plane), and each
    /// cell's predicted ±½ states per direction, computed once and carried
    /// to the face that needs them — the row above for y, the plane above
    /// for z. A face on a physical boundary sees the interior cell's state
    /// on both sides, as in the reference's `face_flux`. One pooled buffer,
    /// carved into the rows and planes, holds all of it.
    fn walk(&self, valid: &IBox, mut on_row: impl FnMut(IntVect, &[FaceRows; DIM])) {
        let (lo, hi) = (valid.lo(), valid.hi());
        let (nx, ny) = (valid.size()[0] as usize, valid.size()[1] as usize);
        let plane = nx * ny;
        // The x-face states of a row: entry i is cell lo - 1 + i, clamped.
        // Entries a..b have both x-neighbours in `avail` and form one
        // contiguous stretch; the rest run one at a time.
        let nxe = nx + 2;
        let first = lo[0] - 1;
        let a = (self.avail.lo()[0] + 1 - first).clamp(0, nxe as i64) as usize;
        let b = (self.avail.hi()[0] - first).clamp(a as i64, nxe as i64) as usize;

        // Entries of the slices named below, in order: rows of x-face
        // states and fluxes, rows of y-face states and fluxes and the z
        // scratch row, planes of z-face states and fluxes.
        let lens: [usize; 13] = std::array::from_fn(|k| match k {
            0 | 1 => nxe,
            2 => nx + 1,
            3..=8 => nx,
            _ => plane,
        });
        let mut buf = scratch::take_buffer();
        buf.resize(NCOMP * lens.iter().sum::<usize>(), 0.0);
        let [xlo, xhi, fx, ylo, mut yhi, mut yhi_next, mut fy_lo, mut fy_hi, zlo, mut zhi, mut zhi_next, mut fz_lo, mut fz_hi] =
            carve(&mut buf, lens.map(|n| NCOMP * n));
        for (k, z) in (lo[2]..=hi[2]).enumerate() {
            for (j, y) in (lo[1]..=hi[1]).enumerate() {
                let row = IntVect::new(lo[0], y, z);
                let x_states = |i: usize, xlo: &mut [f64], xhi: &mut [f64], n: usize| {
                    let iv = self.along(row, 0, first + i as i64);
                    let (l, h) = (
                        RowsMut::new(&mut xlo[i..], nxe),
                        RowsMut::new(&mut xhi[i..], nxe),
                    );
                    self.half_step::<0>(iv, n, l, h);
                };
                for i in (0..a).chain(b..nxe) {
                    x_states(i, xlo, xhi, 1);
                }
                if a < b {
                    x_states(a, xlo, xhi, b - a);
                }
                let (l, r) = (Rows::new(xhi, nxe), Rows::new(&xlo[1..], nxe));
                self.riemann::<0>(l, r, nx + 1, RowsMut::new(fx, nx + 1));

                let [h, hn, fl, fh] =
                    [&mut yhi, &mut yhi_next, &mut fy_lo, &mut fy_hi].map(|s| RowsMut::new(s, nx));
                self.cross_faces::<1>(row, j == 0, nx, ylo, h, hn, fl, fh);
                let pj = j * nx;
                let [h, hn, fl, fh] = [&mut zhi, &mut zhi_next, &mut fz_lo, &mut fz_hi]
                    .map(|s| RowsMut::new(&mut s[pj..], plane));
                self.cross_faces::<2>(row, k == 0, nx, zlo, h, hn, fl, fh);

                on_row(
                    row,
                    &[
                        FaceRows::new(fx, &fx[1..], nx + 1),
                        FaceRows::new(fy_lo, fy_hi, nx),
                        FaceRows::new(&fz_lo[pj..], &fz_hi[pj..], plane),
                    ],
                );
                std::mem::swap(&mut yhi, &mut yhi_next);
                std::mem::swap(&mut fy_lo, &mut fy_hi);
            }
            std::mem::swap(&mut zhi, &mut zhi_next);
            std::mem::swap(&mut fz_lo, &mut fz_hi);
        }
        scratch::recycle_buffer(buf);
    }
}

/// The conservative update of a row of `n` cells from the fluxes through
/// their faces along each direction: `du = 0; du −= dtdx·(F_d⁺ − F_d⁻)`
/// for d = x, y, z, then `u + du` and the floors.
fn update_row(mut cells: RowsMut, n: usize, faces: &[FaceRows; DIM], dtdx: f64, gamma: f64) {
    lane_groups!(n, |i, L| {
        let mut du = [Lane::<L>::splat(0.0); NCOMP];
        for f in faces {
            let (lo, hi) = (f.lo.load::<L>(i), f.hi.load::<L>(i));
            for (c, du) in du.iter_mut().enumerate() {
                *du = *du - dtdx * (hi[c] - lo[c]);
            }
        }
        let u = cells.rows().load::<L>(i);
        cells.store(i, &update(&u, &du, gamma));
    });
}

/// The polytropic-gas level solver.
#[derive(Clone, Copy, Debug)]
pub struct EulerSolver {
    /// Ratio of specific heats (1.4 for a diatomic ideal gas).
    pub gamma: f64,
    /// Component whose undivided gradient drives refinement tagging.
    pub tag_comp: usize,
}

impl Default for EulerSolver {
    fn default() -> Self {
        EulerSolver {
            gamma: 1.4,
            tag_comp: RHO,
        }
    }
}

impl EulerSolver {
    /// Read the conserved state at a cell. One flat offset computation
    /// serves all five components (they sit `comp_stride` apart).
    pub fn state(fab: &Fab, iv: IntVect) -> Conserved {
        let o = fab.cell_offset(iv);
        let s = fab.comp_stride();
        let d = fab.as_slice();
        Conserved {
            rho: d[o + RHO * s],
            mom: [d[o + MX * s], d[o + MY * s], d[o + MZ * s]],
            energy: d[o + ENERGY * s],
        }
    }

    /// Write a conserved state to a cell (flat-offset counterpart of
    /// [`Self::state`]).
    pub fn set_state(fab: &mut Fab, iv: IntVect, c: Conserved) {
        let o = fab.cell_offset(iv);
        let s = fab.comp_stride();
        let d = fab.as_mut_slice();
        d[o + RHO * s] = c.rho;
        d[o + MX * s] = c.mom[0];
        d[o + MY * s] = c.mom[1];
        d[o + MZ * s] = c.mom[2];
        d[o + ENERGY * s] = c.energy;
    }

    /// One grid's step with fluxes that never leave it: the primitive
    /// cache, then the walk ([`GridKernel::walk`]) updating each row in
    /// place. No snapshot of the old state, no face or flux fab.
    fn advance_grid(&self, valid: &IBox, fab: &mut Fab, dtdx: f64) {
        let gamma = self.gamma;
        let (avail, st) = (fab.ibox(), fab.comp_stride());
        let nx = valid.size()[0] as usize;
        let prim = primitives(fab, gamma);
        let kernel = GridKernel {
            prim: Rows::new(&prim, st),
            avail,
            gamma,
            dtdx,
        };
        kernel.walk(valid, |row, faces| {
            let cells = &mut fab.as_mut_slice()[avail.offset(row)..];
            update_row(RowsMut::new(cells, st), nx, faces, dtdx, gamma);
        });
        scratch::recycle_buffer(prim);
    }
}

impl LevelSolver for EulerSolver {
    fn ncomp(&self) -> usize {
        NCOMP
    }

    fn nghost(&self) -> i64 {
        2
    }

    fn max_wave_speed(&self, data: &LevelData) -> f64 {
        // Rayon reduction over grids; within a grid, contiguous row walks
        // over the flat payload (one offset per row, five strided reads per
        // cell). `f64::max` is commutative and associative for the non-NaN
        // speeds produced here, so the per-grid split cannot change the
        // result vs the serial reference.
        use rayon::prelude::*;
        let gamma = self.gamma;
        let per_grid: Vec<f64> = (0..data.len())
            .into_par_iter()
            .map(|i| {
                let vb = data.valid_box(i);
                let fab = data.fab(i);
                let st = fab.comp_stride();
                let payload = fab.as_slice();
                let nx = vb.size()[0] as usize;
                let mut s: f64 = 0.0;
                for z in vb.lo()[2]..=vb.hi()[2] {
                    for y in vb.lo()[1]..=vb.hi()[1] {
                        let o0 = fab.cell_offset(IntVect::new(vb.lo()[0], y, z));
                        for o in o0..o0 + nx {
                            let w = Conserved {
                                rho: payload[o],
                                mom: [payload[o + st], payload[o + 2 * st], payload[o + 3 * st]],
                                energy: payload[o + 4 * st],
                            }
                            .to_primitive(gamma);
                            let c = w.sound_speed(gamma);
                            for d in 0..DIM {
                                s = s.max(w.vel[d].abs() + c);
                            }
                        }
                    }
                }
                s
            })
            .collect();
        per_grid.into_iter().fold(0.0, f64::max)
    }

    fn advance_level(&self, data: &mut LevelData, dx: f64, dt: f64) {
        let dtdx = dt / dx;
        // Grids are independent given their ghost-filled old state. The
        // primitive cache and the walk's rows and planes come from the
        // per-worker scratch pool: after the first grid, a step allocates
        // nothing.
        data.par_for_each_mut(|_, valid, fab| self.advance_grid(&valid, fab, dtdx));
    }

    fn tag_cells(&self, data: &LevelData, threshold: f64) -> IntVectSet {
        tag_undivided_gradient(data, self.tag_comp, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_amr::domain::ProblemDomain;
    use xlayer_amr::layout::BoxLayout;

    const GAMMA: f64 = 1.4;

    fn prim(rho: f64, u: f64, p: f64) -> Primitive {
        Primitive {
            rho,
            vel: [u, 0.0, 0.0],
            p,
        }
    }

    #[test]
    fn primitive_conserved_roundtrip() {
        let w = Primitive {
            rho: 1.3,
            vel: [0.4, -0.7, 2.1],
            p: 2.5,
        };
        let back = w.to_conserved(GAMMA).to_primitive(GAMMA);
        assert!((back.rho - w.rho).abs() < 1e-12);
        assert!((back.p - w.p).abs() < 1e-12);
        for d in 0..3 {
            assert!((back.vel[d] - w.vel[d]).abs() < 1e-12);
        }
    }

    #[test]
    fn hllc_consistency_with_uniform_state() {
        // F(w, w) must equal the physical flux of w.
        let w = prim(1.0, 0.5, 1.0);
        let f = hllc_flux(w, w, 0, GAMMA);
        let exact = w.flux(0, GAMMA);
        for c in 0..NCOMP {
            assert!((f[c] - exact[c]).abs() < 1e-12, "comp {c}");
        }
    }

    #[test]
    fn hllc_supersonic_upwinds() {
        // Flow at Mach 5 to the right: flux must be the left flux.
        let l = prim(1.0, 10.0, 1.0);
        let r = prim(0.1, 10.0, 0.1);
        let f = hllc_flux(l, r, 0, GAMMA);
        let exact = l.flux(0, GAMMA);
        for c in 0..NCOMP {
            assert!((f[c] - exact[c]).abs() < 1e-12);
        }
    }

    /// Four HLLC lanes return, lane by lane, the one-lane bits whatever
    /// their neighbours select: supersonic either way, subsonic on either
    /// side of the contact, and NaN states, in every lane position and
    /// direction.
    #[test]
    fn hllc_lanes_are_independent() {
        let along = |d: usize, rho: f64, u: f64, p: f64| {
            let mut vel = [0.1, -0.2, 0.3];
            vel[d] = u;
            Primitive { rho, vel, p }
        };
        let cases = |d| {
            [
                (along(d, 1.0, 10.0, 1.0), along(d, 0.1, 10.0, 0.1)),
                (along(d, 0.1, -10.0, 0.1), along(d, 1.0, -10.0, 1.0)),
                (along(d, 1.0, 0.5, 1.0), along(d, 0.125, 0.0, 0.1)),
                (along(d, 0.125, -0.5, 0.1), along(d, 1.0, -0.2, 1.0)),
                (along(d, f64::NAN, 0.0, 1.0), along(d, 1.0, 0.0, 1.0)),
            ]
        };
        for d in 0..DIM {
            let cases = cases(d);
            for shift in 0..cases.len() {
                let pick = |l: usize| cases[(shift + l) % cases.len()];
                let lanes = |side: fn((Primitive, Primitive)) -> Primitive| -> State<4> {
                    per_comp(|c| Lane(std::array::from_fn(|l| side(pick(l)).as_array()[c])))
                };
                let (l, r) = (lanes(|s| s.0), lanes(|s| s.1));
                let f = match d {
                    0 => hllc::<4, 0>(&l, &r, GAMMA),
                    1 => hllc::<4, 1>(&l, &r, GAMMA),
                    _ => hllc::<4, 2>(&l, &r, GAMMA),
                };
                for k in 0..4 {
                    let (lk, rk) = pick(k);
                    let one = hllc_flux(lk, rk, d, GAMMA);
                    for c in 0..NCOMP {
                        assert_eq!(
                            f[c].0[k].to_bits(),
                            one[c].to_bits(),
                            "dir {d} lane {k} comp {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hllc_symmetric_states_zero_mass_flux() {
        // Mirror-symmetric states: no net mass flux through the face.
        let l = prim(1.0, 1.0, 1.0);
        let r = prim(1.0, -1.0, 1.0);
        let f = hllc_flux(l, r, 0, GAMMA);
        assert!(f[RHO].abs() < 1e-12, "mass flux {}", f[RHO]);
    }

    fn uniform_level(n: i64, w: Primitive) -> LevelData {
        let domain = ProblemDomain::periodic(IBox::cube(n));
        let layout = BoxLayout::decompose(&domain, n, 1);
        let mut ld = LevelData::new(layout, domain, NCOMP, 2);
        let c = w.to_conserved(GAMMA);
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                EulerSolver::set_state(fab, iv, c);
            }
        });
        ld
    }

    #[test]
    fn uniform_state_is_steady() {
        let solver = EulerSolver::default();
        let w = Primitive {
            rho: 1.0,
            vel: [0.3, -0.2, 0.1],
            p: 1.0,
        };
        let mut ld = uniform_level(8, w);
        ld.exchange();
        solver.advance_level(&mut ld, 0.1, 0.01);
        for i in 0..ld.len() {
            let vb = ld.valid_box(i);
            for iv in vb.cells() {
                let got = EulerSolver::state(ld.fab(i), iv).to_primitive(GAMMA);
                assert!((got.rho - 1.0).abs() < 1e-10, "rho drifted at {iv:?}");
                assert!((got.p - 1.0).abs() < 1e-9, "p drifted at {iv:?}");
            }
        }
    }

    #[test]
    fn sod_shock_tube_conserves_and_stays_positive() {
        // Sod problem along x on a periodic-free box; run a few steps.
        let n = 32;
        let domain = ProblemDomain::new(IBox::cube(n));
        let layout = BoxLayout::decompose(&domain, n, 1);
        let mut ld = LevelData::new(layout, domain, NCOMP, 2);
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                let w = if iv[0] < n / 2 {
                    prim(1.0, 0.0, 1.0)
                } else {
                    prim(0.125, 0.0, 0.1)
                };
                EulerSolver::set_state(fab, iv, w.to_conserved(GAMMA));
            }
        });
        let solver = EulerSolver::default();
        let dx = 1.0 / n as f64;
        let mass0: f64 = ld.sum(RHO);
        for _ in 0..10 {
            ld.exchange();
            let smax = solver.max_wave_speed(&ld);
            let dt = 0.4 * dx / smax;
            solver.advance_level(&mut ld, dx, dt);
        }
        // Positivity everywhere.
        for i in 0..ld.len() {
            let vb = ld.valid_box(i);
            for iv in vb.cells() {
                let w = EulerSolver::state(ld.fab(i), iv).to_primitive(GAMMA);
                assert!(w.rho > 0.0 && w.p > 0.0, "unphysical state at {iv:?}");
                // density stays within initial bounds (+small overshoot slack)
                assert!(w.rho < 1.05 && w.rho > 0.1, "rho {} out of range", w.rho);
            }
        }
        // Interior mass conservation: boundary is outflow-free for early
        // times since the wave hasn't reached it.
        let mass1: f64 = ld.sum(RHO);
        assert!(
            (mass1 - mass0).abs() < 1e-8 * mass0,
            "mass drifted {mass0} -> {mass1}"
        );
    }

    #[test]
    fn periodic_advected_pulse_conserves_exactly() {
        // A smooth density pulse advected in a periodic box: total mass,
        // momentum and energy conserved to machine precision.
        let n = 16;
        let domain = ProblemDomain::periodic(IBox::cube(n));
        let layout = BoxLayout::decompose(&domain, 8, 1);
        let mut ld = LevelData::new(layout, domain, NCOMP, 2);
        ld.for_each_mut(|vb, fab| {
            for iv in vb.cells() {
                let x = (iv[0] as f64 + 0.5) / n as f64;
                let rho = 1.0 + 0.2 * (2.0 * std::f64::consts::PI * x).sin();
                let w = Primitive {
                    rho,
                    vel: [1.0, 0.0, 0.0],
                    p: 1.0,
                };
                EulerSolver::set_state(fab, iv, w.to_conserved(GAMMA));
            }
        });
        let solver = EulerSolver::default();
        let dx = 1.0 / n as f64;
        let m0 = ld.sum(RHO);
        let e0 = ld.sum(ENERGY);
        for _ in 0..8 {
            ld.exchange();
            let dt = 0.4 * dx / solver.max_wave_speed(&ld);
            solver.advance_level(&mut ld, dx, dt);
        }
        assert!((ld.sum(RHO) - m0).abs() < 1e-10 * m0);
        assert!((ld.sum(ENERGY) - e0).abs() < 1e-10 * e0);
    }

    #[test]
    fn max_wave_speed_reflects_sound_speed() {
        let w = prim(1.0, 0.0, 1.0); // c = sqrt(1.4)
        let ld = uniform_level(4, w);
        let solver = EulerSolver::default();
        let s = solver.max_wave_speed(&ld);
        assert!((s - GAMMA.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn minmod_limits() {
        let minmod = |a: f64, b: f64| minmod(Lane([a]), Lane([b])).0[0];
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-3.0, -2.0), -2.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }
}
