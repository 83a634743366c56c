//! # xlayer-solvers — the paper's AMR applications
//!
//! The two Chombo example applications used in the SC '13 evaluation,
//! implemented from scratch on `xlayer-amr`:
//!
//! * [`euler::EulerSolver`] — the *AMR Polytropic Gas* workload: an unsplit
//!   MUSCL–Hancock Godunov method with an HLLC Riemann solver for the 3-D
//!   Euler equations (memory- and compute-intensive; Figs. 1, 5, 9).
//! * [`advect::AdvectDiffuseSolver`] — the *AMR Advection–Diffusion*
//!   workload: conservative upwind transport plus explicit diffusion
//!   (Figs. 7, 8, 10, 11, Table 2).
//!
//! [`amr_driver::AmrSimulation`] runs either solver over a dynamic hierarchy
//! and emits the per-step observables ([`amr_driver::StepStats`]) consumed by
//! the adaptation runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advect;
pub mod amr_driver;
pub mod euler;
pub mod level_solver;
pub mod problems;
#[doc(hidden)]
pub mod reference;
pub mod riemann_exact;
pub mod scratch;

pub use advect::{AdvectDiffuseSolver, VelocityField};
pub use amr_driver::{AmrSimulation, DriverConfig, StepStats};
pub use euler::EulerSolver;
pub use level_solver::LevelSolver;
pub use problems::{GasProblem, ScalarProblem};
pub use riemann_exact::{ExactRiemann, State1d};
