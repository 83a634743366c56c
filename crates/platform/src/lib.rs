//! # xlayer-platform — the virtual HPC platform
//!
//! The machine substrate the paper ran on, as a model (DESIGN.md,
//! substitution table): Intrepid (IBM BG/P) and Titan (Cray XK7) hardware
//! parameters, virtual time and FIFO links for modeled-scale execution,
//! network transfer models with staging-ingress contention,
//! calibrated kernel cost estimators (Table 1's `T_sim` / `T_insitu` /
//! `T_intransit`), and the utilization/end-to-end metrics of Eq. 12,
//! Table 2 and Figs. 7–11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod des;
pub mod disk;
pub mod machine;
pub mod metrics;
pub mod network;
pub mod power;

pub use cost::{CostModel, KernelCosts, SolverKind};
pub use des::{FifoResource, SimTime};
pub use disk::DiskModel;
pub use machine::{MachineSpec, Partition};
pub use metrics::{EndToEnd, StagingStepRecord, StagingUtilization, UtilizationBuckets};
pub use network::{StagingIngress, TransferModel};
pub use power::{EnergyReport, PowerModel};
