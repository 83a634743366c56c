//! xbench: seeded, deterministic operation streams for the staging layer.
//!
//! A [`WorkloadSpec`] describes a put/get/drain mix over cube-shaped
//! objects; every `(agent, connection)` pair of it owns an independent LCG
//! stream of [`PlannedOp`]s, and [`WorkloadSpec::expected_totals`] replays
//! every stream without I/O, so a driver can assert the exact number of
//! operations and put bytes a staging service must have seen. xmark's
//! `stage_mixed_rw` workload (`benchmark/src/stage.rs`) takes its object
//! placements from these streams; `tests/replay.rs` drives a mixed spec
//! through a sharded cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod spec;

pub use spec::{PlannedOp, SpecTotals, WorkloadSpec};
