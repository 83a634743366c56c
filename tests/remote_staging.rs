//! End-to-end remote staging: the native workflow run once with the
//! in-process staging space and once through `StagingService` behind a
//! `ShardedClient` on a loopback socket (the same `AsyncStager` drives
//! both), asserting bit-identical analysis results and matching transport
//! accounting. This is the paper's
//! deployment claim in test form — moving the staging area onto dedicated
//! nodes must change *where* the data sits, never *what* the in-transit
//! analysis computes.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use xlayer::adapt::Placement;
use xlayer::amr::hierarchy::HierarchyConfig;
use xlayer::amr::{IBox, ProblemDomain};
use xlayer::net::cluster::StagingCluster;
use xlayer::net::service::{ServiceConfig, StagingService};
use xlayer::solvers::{
    AdvectDiffuseSolver, AmrSimulation, DriverConfig, ScalarProblem, VelocityField,
};
use xlayer::workflow::native::{AnalysisOutcome, NativeConfig, NativeWorkflow};
use xlayer::workflow::StepLog;

fn blob_sim(n: i64) -> AmrSimulation<AdvectDiffuseSolver> {
    let domain = ProblemDomain::periodic(IBox::cube(n));
    let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.0, 0.0]), 0.0, n);
    let mut sim = AmrSimulation::new(
        domain,
        HierarchyConfig {
            max_levels: 2,
            base_max_box: 8,
            ..Default::default()
        },
        solver,
        DriverConfig {
            tag_threshold: 0.02,
            regrid_interval: 3,
            ..Default::default()
        },
    );
    ScalarProblem::Gaussian {
        center: [n as f64 / 2.0; 3],
        sigma: 2.5,
    }
    .init_hierarchy(&mut sim.hierarchy);
    sim.regrid_now();
    sim
}

struct RunResult {
    steps: Vec<StepLog>,
    outcomes: Vec<AnalysisOutcome>,
    moved: u64,
    delivered: u64,
    rejected: u64,
    failed: u64,
}

fn run(remote: Option<String>, steps: usize) -> RunResult {
    let cfg = NativeConfig {
        iso_value: 0.4,
        placement_override: Some(Placement::InTransit),
        remote,
        ..Default::default()
    };
    let mut wf = NativeWorkflow::new(blob_sim(16), cfg);
    for _ in 0..steps {
        wf.step();
    }
    let stats = wf
        .transport_stats()
        .expect("transport active before finish");
    let (steps, outcomes, moved) = wf.finish();
    RunResult {
        steps,
        outcomes,
        moved,
        delivered: stats.delivered.load(Ordering::Relaxed),
        rejected: stats.rejected.load(Ordering::Relaxed),
        failed: stats.failed.load(Ordering::Relaxed),
    }
}

/// Per-version (triangles, mesh_bytes): totals are invariant under the
/// order in which a version's object parts were stored, which concurrent
/// puts do not preserve.
fn by_version(outcomes: &[AnalysisOutcome]) -> BTreeMap<u64, (usize, u64)> {
    outcomes
        .iter()
        .map(|o| (o.version, (o.triangles, o.mesh_bytes)))
        .collect()
}

#[test]
fn remote_workflow_is_bit_identical_to_local() {
    let service = StagingService::start(ServiceConfig {
        servers: 2,
        memory_per_server: 256 << 20,
        ..ServiceConfig::default()
    })
    .expect("bind loopback service");
    let addr = service.local_addr().to_string();

    const STEPS: usize = 3;
    let local = run(None, STEPS);
    let remote = run(Some(addr), STEPS);

    // Identical analysis results, version by version. Triangle counts and
    // mesh byte totals pin the marching-cubes output; payloads travel as
    // f64 bit patterns, so any wire-introduced perturbation would show.
    assert_eq!(local.outcomes.len(), STEPS);
    assert_eq!(remote.outcomes.len(), STEPS);
    let lv = by_version(&local.outcomes);
    let rv = by_version(&remote.outcomes);
    assert_eq!(lv, rv, "analysis results differ between local and remote");
    assert!(
        lv.values().all(|&(tris, _)| tris > 0),
        "degenerate surfaces"
    );

    // Identical movement and transport accounting: every staged object was
    // delivered on both paths, none rejected or failed.
    assert_eq!(local.moved, remote.moved);
    let per_step_local: Vec<u64> = local.steps.iter().map(|s| s.moved_bytes).collect();
    let per_step_remote: Vec<u64> = remote.steps.iter().map(|s| s.moved_bytes).collect();
    assert_eq!(per_step_local, per_step_remote);
    assert_eq!(
        (local.delivered, local.rejected, local.failed),
        (remote.delivered, remote.rejected, remote.failed),
        "transport accounting differs"
    );
    assert!(remote.delivered > 0, "nothing went over the wire");
    assert_eq!(remote.failed, 0);

    // The service actually carried the traffic: as many puts as objects
    // delivered, and the analysis workers' evictions emptied the space.
    let snap = service.stats().snapshot(service.space(), service.pool());
    assert_eq!(snap.puts, remote.delivered);
    assert_eq!(snap.rejected_oom, 0);
    assert_eq!(snap.used, 0, "remote space not drained after analysis");

    service.shutdown();
}

#[test]
fn sharded_remote_workflow_is_bit_identical_to_local() {
    // Three independent staging services presented as one sharded cluster:
    // the workflow's `remote:` backend takes the comma-separated shard
    // list, routes puts by object region, and scatter/gathers reads — and
    // none of that may change what the in-transit analysis computes.
    let cluster = StagingCluster::start(
        3,
        &ServiceConfig {
            servers: 1,
            memory_per_server: 256 << 20,
            ..ServiceConfig::default()
        },
    )
    .expect("start loopback cluster");

    const STEPS: usize = 3;
    let local = run(None, STEPS);
    let sharded = run(Some(cluster.addr_list()), STEPS);

    assert_eq!(local.outcomes.len(), STEPS);
    assert_eq!(sharded.outcomes.len(), STEPS);
    let lv = by_version(&local.outcomes);
    let sv = by_version(&sharded.outcomes);
    assert_eq!(lv, sv, "analysis results differ between local and sharded");
    assert!(
        lv.values().all(|&(tris, _)| tris > 0),
        "degenerate surfaces"
    );

    // Identical movement and transport accounting across the paths.
    assert_eq!(local.moved, sharded.moved);
    let per_step_local: Vec<u64> = local.steps.iter().map(|s| s.moved_bytes).collect();
    let per_step_sharded: Vec<u64> = sharded.steps.iter().map(|s| s.moved_bytes).collect();
    assert_eq!(per_step_local, per_step_sharded);
    assert_eq!(
        (local.delivered, local.rejected, local.failed),
        (sharded.delivered, sharded.rejected, sharded.failed),
        "transport accounting differs"
    );
    assert!(sharded.delivered > 0, "nothing went over the wire");
    assert_eq!(sharded.failed, 0);

    // Per-shard accounting sums to the cluster totals: every delivered
    // object was counted by exactly one shard, and the analysis workers'
    // evictions drained every shard.
    let snaps: Vec<_> = cluster.snapshots().into_iter().flatten().collect();
    assert_eq!(snaps.len(), 3);
    assert_eq!(snaps.iter().map(|s| s.puts).sum::<u64>(), sharded.delivered);
    assert_eq!(snaps.iter().map(|s| s.rejected_oom).sum::<u64>(), 0);
    assert_eq!(
        snaps.iter().map(|s| s.used).sum::<u64>(),
        0,
        "cluster not drained after analysis"
    );
    // The traffic really was spread: with region routing over many grids,
    // no single shard carried everything.
    assert!(
        snaps.iter().filter(|s| s.puts > 0).count() >= 2,
        "puts all landed on one shard: {:?}",
        snaps.iter().map(|s| s.puts).collect::<Vec<_>>()
    );

    cluster.shutdown();
}

#[test]
fn unresolvable_remote_degrades_to_local_staging() {
    // A remote address that cannot resolve must not kill the workflow —
    // construction falls back to the in-process space and the run
    // completes normally.
    let result = run(Some("@definitely-not-an-address@:0".to_string()), 2);
    assert_eq!(result.outcomes.len(), 2);
    assert!(result.outcomes.iter().all(|o| o.triangles > 0));
    assert_eq!(result.failed, 0);
}
