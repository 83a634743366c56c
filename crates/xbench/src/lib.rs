//! xbench: distributed load generation for the staging wire.
//!
//! The cross-layer adaptations in this workspace only matter under load,
//! and a single client process cannot drive a sharded, tiered staging
//! cluster to saturation. xbench splits the problem the way fleet-scale
//! measurement planes do:
//!
//! - [`agent`] — `xbench-agent`, a process that opens many concurrent
//!   connections (thread-per-connection, each over its own
//!   [`xlayer_net::ShardedClient`]) and
//!   replays an AMR-realistic workload mix: put/get/drain ratios and
//!   object-size distributions drawn from a seeded LCG, whole-object and
//!   chunked transfer paths, and tier pressure via oversized working
//!   sets.
//! - [`ctl`] — `xbench-ctl`, the controller: fans a declarative workload
//!   spec out to agents over a versioned length-prefixed control
//!   protocol, runs timed phases (warmup → measure → drain), merges
//!   per-agent results (log-bucket histograms fold with
//!   [`xlayer_net::Hist::merge`]), and steps offered load in a closed
//!   loop until goodput stops improving — the saturation curve.
//! - [`spec`] — the workload spec: a hand-rolled `key = value`
//!   TOML-subset parser (no new dependencies) plus the deterministic
//!   per-connection operation stream, so a controller can predict the
//!   exact bytes a seeded workload will deliver.
//! - [`proto`] — the control protocol frames, reusing the staging wire's
//!   framing conventions (magic, version, opcode, request id, length,
//!   `xlayer_staging::sum` checksum) with its own magic so the two wires
//!   can never be confused.
//!
//! Everything is `std::net` blocking sockets plus threads, like the
//! staging wire itself; the workspace stays free of async runtimes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod ctl;
pub mod proto;
pub mod spec;

pub use agent::AgentServer;
pub use ctl::{AgentConn, MergedReport, SweepOptions, SweepResult, SweepRow};
pub use proto::{AgentReport, CtlError, CtlRequest, CtlResponse, Phase, RunCmd};
pub use spec::{PlannedOp, SpecError, SpecTotals, WorkloadSpec};
