//! The two coupled-workflow workloads: a simulation steps, every step's
//! grids are staged, and in-transit workers extract the isosurface.
//!
//! * `gas_local_intransit` — the solver and the AMR machinery are the run;
//!   staging is the in-process space behind the asynchronous transport.
//! * `advect_sharded_intransit` — the solver is cheap and every staged byte
//!   crosses a loopback socket to a 2-shard cluster and back.
//!
//! Untraced, the run is `NativeWorkflow` itself, timed from outside. Traced,
//! the same step is re-enacted serially from the workflow's public pieces
//! with a span around each call.

use crate::inputs;
use crate::measure::{cpu_seconds, ms_since};
use crate::run::{Mode, Rep};
use crate::trace::Tracer;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use xlayer_amr::AmrHierarchy;
use xlayer_core::{
    AdaptationEngine, EngineConfig, Estimator, OperationalState, Placement, UserHints,
    UserPreferences,
};
use xlayer_net::{ClientConfig, ServiceConfig, ServiceSnapshot, ShardedClient, StagingCluster};
use xlayer_platform::{CostModel, MachineSpec};
use xlayer_solvers::{AmrSimulation, LevelSolver};
use xlayer_staging::{AsyncStager, DataObject, DataSpace, Sharding, StageTask};
use xlayer_viz::{extract_block, extract_level, merge_surfaces, TriMesh};
use xlayer_workflow::{pack_level_objects, NativeConfig, NativeWorkflow};

/// The staged variable's name (the workflow's own).
const FIELD: &str = "field";

/// Polytropic-gas blast wave on an `n`³ base grid, staged in process.
/// The isosurface is the energy shell of the blast.
pub fn gas_local(seed: u64, n: i64, steps: usize, mode: Mode<'_>) -> Rep {
    let cfg = NativeConfig {
        iso_value: 5.0,
        comp: xlayer_solvers::euler::ENERGY,
        placement_override: Some(Placement::InTransit),
        ..Default::default()
    };
    run(inputs::gas_sim(seed, n), cfg, None, steps, mode)
}

/// Advection–diffusion on one `n`³ level, staged through a 2-shard loopback
/// cluster started for this repetition alone.
pub fn advect_sharded(seed: u64, n: i64, steps: usize, mode: Mode<'_>) -> Rep {
    let sim = inputs::advect_sim(seed, n);
    let cluster = match StagingCluster::start(
        2,
        &ServiceConfig {
            servers: 1,
            memory_per_server: 256 << 20,
            ..Default::default()
        },
    ) {
        Ok(c) => c,
        Err(e) => return Rep::broken(format!("cannot start the loopback cluster: {e}")),
    };
    let cfg = NativeConfig {
        iso_value: 0.5,
        placement_override: Some(Placement::InTransit),
        remote: Some(cluster.addr_list()),
        ..Default::default()
    };
    let rep = run(sim, cfg, Some(&cluster), steps, mode);
    cluster.shutdown();
    rep
}

fn run<S: LevelSolver>(
    sim: AmrSimulation<S>,
    cfg: NativeConfig,
    cluster: Option<&StagingCluster>,
    steps: usize,
    mode: Mode<'_>,
) -> Rep {
    let mut rep = match mode {
        Mode::Timed => native(sim, &cfg, cluster, steps, false),
        Mode::Checked => native(sim, &cfg, cluster, steps, true),
        Mode::Traced(tr) => traced(sim, &cfg, cluster, steps, tr),
    };
    if let Some(cluster) = cluster {
        cluster_counters(cluster, &mut rep);
    }
    if rep.outputs.last() == Some(&0) {
        rep.errors
            .push("the last step's isosurface is empty".to_string());
    }
    rep
}

/// Triangles of the isosurface extracted in situ from the hierarchy — the
/// placement the engine would otherwise choose, and the reference every
/// in-transit outcome must equal.
fn insitu_triangles(h: &AmrHierarchy, cfg: &NativeConfig) -> u64 {
    (0..h.num_levels())
        .map(|l| {
            let surfaces = extract_level(h.level(l), cfg.comp, cfg.iso_value, level_dx(h, l));
            merge_surfaces(&surfaces).num_triangles() as u64
        })
        .sum()
}

/// Objects and bytes one step stages at full resolution: per grid, the
/// valid box grown by the one-cell halo the consumer's cubes need.
fn staged_geometry(h: &AmrHierarchy) -> (u64, u64) {
    let mut total = (0, 0);
    for l in 0..h.num_levels() {
        let level = h.level(l);
        for i in 0..level.len() {
            let halo = level.valid_box(i).grow(1).intersect(&level.fab(i).ibox());
            total = (total.0 + 1, total.1 + halo.num_cells() * 8);
        }
    }
    total
}

fn level_dx(h: &AmrHierarchy, l: usize) -> f64 {
    1.0 / h.ref_ratio().pow(l as u32) as f64
}

/// One repetition through `NativeWorkflow`, timed from outside. With
/// `check`, every step is also extracted in situ and compared (the set-up
/// passes do this; measured repetitions do not).
fn native<S: LevelSolver>(
    sim: AmrSimulation<S>,
    cfg: &NativeConfig,
    cluster: Option<&StagingCluster>,
    steps: usize,
    check: bool,
) -> Rep {
    let mut rep = Rep::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut wf = NativeWorkflow::new(sim, cfg.clone());
    rep.count("workflow.new_ms", ms_since(t0));
    if cluster.is_some() && wf.sharded_client().is_none() {
        rep.errors
            .push("the workflow fell back to in-process staging".to_string());
    }
    let mut reference = Vec::new();
    let (mut want_objects, mut want_bytes) = (0u64, 0u64);
    for _ in 0..steps {
        let t = Instant::now();
        let log = wf.step();
        rep.step_ms.push(ms_since(t));
        if check {
            let h = &wf.sim().hierarchy;
            reference.push(insitu_triangles(h, cfg));
            // What a step must stage, whatever the backend: every grid of
            // every level with its one-cell halo.
            let (objects, bytes) = staged_geometry(h);
            want_objects += objects;
            want_bytes += bytes;
            rep.failed += (log.moved_bytes != bytes) as u64;
        }
    }
    let transport = wf.transport_stats();
    if let Some(client) = wf.sharded_client() {
        rep.count("net.retries", client.client_stats_total().total() as f64);
    }
    let t_finish = Instant::now();
    let (logs, outcomes, moved) = wf.finish();
    rep.count("workflow.finish_ms", ms_since(t_finish));
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = cpu_seconds() - cpu0;
    rep.moved_bytes = moved;

    // One analysis outcome per step, nothing rejected or lost on the way.
    rep.outputs = (1..=steps as u64)
        .map(|v| {
            let mut of_step = outcomes.iter().filter(|o| o.version == v);
            match (of_step.next(), of_step.next()) {
                (Some(o), None) => o.triangles as u64,
                _ => {
                    rep.failed += 1;
                    u64::MAX
                }
            }
        })
        .collect();
    rep.attempted = steps as u64;
    if let Some(t) = transport {
        let (delivered, rejected, failed) = (
            t.delivered.load(Ordering::Relaxed),
            t.rejected.load(Ordering::Relaxed),
            t.failed.load(Ordering::Relaxed),
        );
        rep.attempted += delivered + rejected + failed;
        rep.failed += rejected + failed;
        rep.count("staging.rejected_puts", rejected as f64);
        if check && (delivered != want_objects || moved != want_bytes) {
            rep.errors.push(format!(
                "staged {delivered} objects / {moved} B, the hierarchy holds {want_objects} / {want_bytes} B"
            ));
        }
    } else {
        rep.errors.push("no staging transport ran".to_string());
    }
    if logs.iter().map(|l| l.moved_bytes).sum::<u64>() != moved {
        rep.errors
            .push("per-step staged bytes do not add up to the total".to_string());
    }
    if check {
        rep.failed += rep
            .outputs
            .iter()
            .zip(&reference)
            .filter(|(got, want)| got != want)
            .count() as u64;
    }
    rep
}

/// Where the traced re-enactment stages: what `NativeWorkflow::new` builds
/// for the same configuration.
enum Store {
    Local {
        space: Arc<DataSpace>,
        stager: AsyncStager,
    },
    Sharded(ShardedClient),
}

/// One repetition re-enacted serially: solve, ghost fill, adapt, pack, put,
/// get, unpack, extract, concat, evict — a span around each.
fn traced<S: LevelSolver>(
    mut sim: AmrSimulation<S>,
    cfg: &NativeConfig,
    cluster: Option<&StagingCluster>,
    steps: usize,
    tr: &mut Tracer,
) -> Rep {
    let mut rep = Rep::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let root = tr.begin("rep", 0);

    let id = tr.begin("workflow.new", 0);
    let store = match cluster {
        Some(c) => {
            match ShardedClient::connect(&c.addrs(), cfg.shard_span, ClientConfig::default()) {
                Ok(client) => Store::Sharded(client),
                Err(e) => return Rep::broken(format!("cannot reach the cluster: {e}")),
            }
        }
        None => {
            let space = Arc::new(DataSpace::new(
                cfg.staging_servers,
                cfg.staging_memory,
                Sharding::BboxHash,
            ));
            let stager = AsyncStager::new(Arc::clone(&space), cfg.staging_servers, 256);
            Store::Local { space, stager }
        }
    };
    let engine = AdaptationEngine::new(
        UserPreferences::default(),
        UserHints::default(),
        EngineConfig::middleware_only(),
        Estimator::new(CostModel::new(MachineSpec {
            name: "local".into(),
            cores_per_node: std::thread::available_parallelism().map_or(4, |n| n.get()),
            memory_per_node: 8 << 30,
            core_flops: 2.0e9,
            injection_bandwidth: 8.0e9,
            message_latency: 1e-6,
        })),
    );
    tr.end(id, 0, 0);

    let mut last_analysis_s = 0.0f64;
    for step in 1..=steps as u64 {
        let t_step = Instant::now();
        let step_span = tr.begin("step", step);

        let id = tr.begin("solvers.advance", step);
        let stats = sim.advance();
        tr.end(id, stats.data_bytes, stats.cells_advanced);
        if stats.regridded {
            tr.spans[id].name = "solvers.advance_regrid";
        }

        let id = tr.begin("amr.fill_ghosts", step);
        let exchanged = sim.hierarchy.fill_ghosts();
        tr.end(id, exchanged, stats.cells_advanced);

        let mem_available_intransit = match &store {
            Store::Local { space, .. } => space.capacity().saturating_sub(space.used()),
            // The workflow probes every eighth step; so does this.
            Store::Sharded(client) if step % 8 == 1 => {
                let id = tr.begin("net.stats_rtt", step);
                let free = client.total_headroom();
                tr.end(id, 0, client.num_shards() as u64);
                free
            }
            Store::Sharded(_) => u64::MAX / 2,
        };
        let state = OperationalState {
            step: stats.step,
            data_bytes: stats.data_bytes,
            cells: stats.cells_advanced,
            surface_cells: stats.cells_advanced / 12,
            last_sim_time: stats.dt.max(1e-9),
            last_analysis_time: (last_analysis_s > 0.0).then_some(last_analysis_s),
            sim_cores: 1,
            staging_cores: cfg.workers,
            staging_cores_max: cfg.workers,
            mem_available_insitu: u64::MAX / 2,
            mem_available_intransit,
            ..Default::default()
        };
        let id = tr.begin("core.adapt", step);
        std::hint::black_box(engine.adapt(&state));
        tr.end(id, 0, 0);

        let mut objects: Vec<DataObject> = Vec::new();
        for l in 0..sim.hierarchy.num_levels() {
            let dx = level_dx(&sim.hierarchy, l);
            let id = tr.begin("workflow.pack", step);
            let packed = pack_level_objects(sim.hierarchy.level(l), cfg.comp, FIELD, step, 1, dx);
            let bytes = packed.iter().map(|o| o.desc.bytes).sum();
            tr.end(id, bytes, packed.len() as u64);
            objects.extend(packed);
        }
        let staged_bytes: u64 = objects.iter().map(|o| o.desc.bytes).sum();
        let staged = objects.len() as u64;
        rep.moved_bytes += staged_bytes;
        rep.attempted += staged + 1;

        let t_analysis = Instant::now();
        let fetched: Vec<Arc<DataObject>> = match &store {
            Store::Local { space, stager } => {
                // Odd steps go through the transport, as the workflow's
                // do; even steps call the space directly, which is what a
                // transfer thread does per object.
                if step % 2 == 1 {
                    let id = tr.begin("staging.transport_enqueue", step);
                    let sent =
                        stager.put_batch(objects.into_iter().map(StageTask::Ready).collect());
                    tr.end(id, staged_bytes, staged);
                    if sent.is_err() {
                        rep.failed += staged;
                    }
                    let id = tr.begin("staging.transport_drain", step);
                    stager.stats().wait_processed(FIELD, step, staged);
                    tr.end(id, staged_bytes, staged);
                } else {
                    for obj in objects {
                        let bytes = obj.desc.bytes;
                        let id = tr.begin("staging.put", step);
                        let put = space.put(obj);
                        tr.end(id, bytes, 1);
                        rep.failed += put.is_err() as u64;
                    }
                }
                let id = tr.begin("staging.get", step);
                let got = space.get(FIELD, step, None);
                tr.end(id, got.iter().map(|o| o.desc.bytes).sum(), got.len() as u64);
                got
            }
            Store::Sharded(client) => {
                for obj in &objects {
                    let id = tr.begin("net.sharded_put", step);
                    let put = client.put(obj);
                    tr.end(id, obj.desc.bytes, 1);
                    rep.failed += put.is_err() as u64;
                }
                let id = tr.begin("net.sharded_get", step);
                let got = client.get(FIELD, step, None).unwrap_or_default();
                tr.end(id, got.iter().map(|o| o.desc.bytes).sum(), got.len() as u64);
                got.into_iter().map(Arc::new).collect()
            }
        };
        if fetched.len() as u64 != staged {
            rep.failed += 1;
        }

        let mut parts: Vec<TriMesh> = Vec::with_capacity(fetched.len());
        for obj in &fetched {
            let id = tr.begin("viz.unpack", step);
            let fab = obj.to_fab();
            tr.end(id, obj.desc.bytes, 1);
            let id = tr.begin("viz.extract", step);
            let mesh = extract_block(
                &fab,
                0,
                &obj.desc.core,
                cfg.iso_value,
                obj.desc.dx,
                [0.0; 3],
            );
            tr.end(id, mesh.bytes(), obj.desc.core.num_cells());
            parts.push(mesh);
        }
        let refs: Vec<&TriMesh> = parts.iter().collect();
        let id = tr.begin("viz.concat", step);
        let mesh = TriMesh::concat(&refs);
        tr.end(id, mesh.bytes(), mesh.num_triangles() as u64);

        match &store {
            Store::Local { space, .. } => {
                let id = tr.begin("staging.evict", step);
                let freed = space.evict_before(FIELD, step + 1);
                tr.end(id, freed, 1);
            }
            Store::Sharded(client) => {
                let id = tr.begin("net.sharded_evict", step);
                let freed = client.evict_before(FIELD, step + 1).unwrap_or(0);
                tr.end(id, freed, 1);
            }
        }
        last_analysis_s = t_analysis.elapsed().as_secs_f64();

        let id = tr.begin_ref("viz.extract_level", step);
        let reference = insitu_triangles(&sim.hierarchy, cfg);
        tr.end(id, 0, reference);
        let triangles = mesh.num_triangles() as u64;
        rep.failed += (triangles != reference) as u64;
        rep.outputs.push(triangles);

        tr.end(step_span, staged_bytes, staged);
        rep.step_ms.push(ms_since(t_step));
    }

    let id = tr.begin("workflow.finish", 0);
    match store {
        Store::Local { stager, .. } => match stager.drain() {
            Ok((_, rejected)) => {
                rep.count("staging.rejected_puts", rejected as f64);
                rep.failed += rejected;
            }
            Err(e) => rep.errors.push(format!("transport drain failed: {e}")),
        },
        Store::Sharded(client) => {
            rep.count("net.retries", client.client_stats_total().total() as f64);
        }
    }
    tr.end(id, 0, 0);
    tr.end(root, rep.moved_bytes, steps as u64);
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = cpu_seconds() - cpu0;
    rep
}

/// Fold the shards' own accounting into the repetition: what the services
/// received must be what the producer staged.
fn cluster_counters(cluster: &StagingCluster, rep: &mut Rep) {
    let mut all = ServiceSnapshot::default();
    for s in cluster.snapshots().into_iter().flatten() {
        all.puts += s.puts;
        all.bytes_in += s.bytes_in;
        all.bytes_out += s.bytes_out;
        all.pool_hits += s.pool_hits;
        all.pool_misses += s.pool_misses;
        all.chunksum_hits += s.chunksum_hits;
        all.chunksum_misses += s.chunksum_misses;
        all.wire_errors += s.wire_errors;
        all.busy_frames += s.busy_frames;
        all.rejected_oom += s.rejected_oom;
        all.used += s.used;
    }
    rep.net_counters(&all);
    // Every attempted operation but the per-step analyses was a put.
    let puts = rep.attempted - rep.outputs.len() as u64;
    if all.puts != puts {
        rep.errors.push(format!(
            "the shards counted {} puts, the producer made {puts}",
            all.puts
        ));
    }
    if all.used != 0 {
        rep.errors
            .push("the cluster still holds data after the run".to_string());
    }
}
