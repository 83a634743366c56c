//! The native workflow: everything runs for real, in-process — AMR solve,
//! marching cubes, staging puts/gets, asynchronous in-transit analysis on
//! worker threads. This is the execution mode behind the examples and the
//! end-to-end integration tests.
//!
//! ## The analysis data path
//!
//! In-transit steps pack one [`DataObject`] per grid per level — in
//! parallel across grids, reading straight from the level fab's component
//! (the application-layer reduction down-samples from the source fab with
//! no tight intermediate copy). Where the staged data lives — the
//! in-process [`DataSpace`], or a staging service / sharded cluster named
//! by [`NativeConfig::remote`] — is decided once, in
//! [`NativeWorkflow::new`]; from there on producers, the transport and
//! the analysis workers all talk to one `Arc<dyn Staging>`. Every step's
//! puts go through [`AsyncStager`]'s bounded queue, so serialization
//! and server ingest of step *i* overlap the solve of step *i+1* (what
//! that hides is `xmark`'s `workflow.producer_stall_ms_p50` and
//! `workflow.overlap_ratio`); an
//! analysis worker picking up step *i* first blocks on
//! [`TransportStats::wait_processed`] until all of that version's objects
//! have landed (per-version counts — later versions finishing early cannot
//! satisfy the wait). The worker's fetch carries the step's isovalue
//! ([`Staging::get`]'s `crossing`), so every staging layer — memory, disk
//! tier, service, shard — drops the objects whose value range the
//! isovalue is outside on their descriptors, and only the objects the
//! surface can cross are read, sent and extracted. `finish()` stays deterministic: it drains the
//! transport queue, then closes the job channel and joins the workers, so
//! every step's analysis outcome is present and sorted by version.
//!
//! ## How far the producer may lead
//!
//! The paper's resource-layer condition (Eqs. 9–10) is that step *i*'s
//! in-transit analysis is done before step *i + 1*'s data needs the
//! staging memory. Its native form is [`InFlight::admit`]: before it packs
//! version *v*, `step()` waits until at most `workers` versions are queued
//! or running, so never more than `workers + 1` are staged and unanalysed —
//! one per worker and one ready behind them. `finish()` waits for the last
//! analysis anyway, so a longer lead would buy no time to solution, only
//! resident copies of every version in it.

use crate::report::StepLog;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;
use xlayer_amr::level_data::LevelData;
use xlayer_core::{
    AdaptationEngine, Calibrator, EngineConfig, Estimator, OperationalState, Placement,
    PressureAction, UserHints, UserPreferences,
};
use xlayer_net::client::ClientConfig;
use xlayer_net::cluster::ShardedClient;
use xlayer_platform::{CostModel, MachineSpec};
use xlayer_solvers::{AmrSimulation, LevelSolver};
use xlayer_staging::{
    AsyncStager, BatchClosed, BufferPool, DataObject, DataSpace, Sharding, StageTask, Staging,
    TierConfig, TransportStats, Unanswered,
};
use xlayer_viz::{extract_level, extract_payload_into, merge_surfaces, TriMesh};

/// Configuration of a native run.
#[derive(Clone, Debug)]
pub struct NativeConfig {
    /// Isovalue the visualization service extracts.
    pub iso_value: f64,
    /// Which solution component to visualize.
    pub comp: usize,
    /// Staging servers (shards).
    pub staging_servers: usize,
    /// Memory cap per staging server, bytes.
    pub staging_memory: u64,
    /// In-transit analysis worker threads.
    pub workers: usize,
    /// Force every step's placement, bypassing the engine's decision.
    /// Used by tests and benches that need a deterministic placement.
    pub placement_override: Option<Placement>,
    /// Address of a remote staging service (e.g. `"127.0.0.1:7001"`), or a
    /// comma-separated shard list (e.g. `"127.0.0.1:7001,127.0.0.1:7002"`)
    /// naming a sharded staging cluster. When set, staging puts/gets go
    /// over the wire through a [`ShardedClient`] — puts to each object's
    /// home shard, reads to every shard; one address is a one-shard
    /// cluster — instead of an in-process
    /// [`DataSpace`]: the paper's dedicated-staging-nodes deployment. When
    /// the address (any shard of it) does not resolve at construction the
    /// workflow degrades to the in-process space rather than dying.
    pub remote: Option<String>,
    /// Placement-bucket side, in cells, for the sharded remote backend
    /// (see [`xlayer_staging::ShardMap`]). Every client of a cluster must
    /// use the same value.
    pub shard_span: i64,
    /// Directory for the local backend's disk spill tier. When set, puts
    /// beyond the staging memory cap demote cold versions to per-server
    /// object logs there while `disk_budget` has room for them, instead of
    /// being rejected, and hot gets promote them back — the working set
    /// can exceed `staging_memory` without dropping data. `None` (the default) keeps the memory-only
    /// behaviour. Ignored with `remote` set (the service attaches its own
    /// tier via its `--disk-dir`). The tier lives as long as the
    /// workflow's staging space, which unlinks its log segments when it
    /// goes; a directory where a segment is left (a live run's, or a
    /// crashed one's) makes [`NativeWorkflow::new`] panic.
    pub disk_dir: Option<std::path::PathBuf>,
    /// Cap on live spilled bytes per staging server (only meaningful with
    /// `disk_dir` set; unbounded by default).
    pub disk_budget: u64,
    /// Adaptation mechanisms enabled.
    pub engine: EngineConfig,
    /// User hints.
    pub hints: UserHints,
}

impl Default for NativeConfig {
    fn default() -> Self {
        NativeConfig {
            iso_value: 0.5,
            comp: 0,
            staging_servers: 2,
            staging_memory: 256 << 20,
            workers: 2,
            placement_override: None,
            remote: None,
            shard_span: xlayer_staging::shard::DEFAULT_SPAN,
            disk_dir: None,
            disk_budget: u64::MAX,
            engine: EngineConfig::middleware_only(),
            hints: UserHints::default(),
        }
    }
}

/// The outcome of one step's analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisOutcome {
    /// Simulation step (staging version) analyzed.
    pub version: u64,
    /// Where it ran.
    pub placement: Placement,
    /// Triangles extracted.
    pub triangles: usize,
    /// Wall seconds the analysis took.
    pub seconds: f64,
    /// Bytes of mesh produced.
    pub mesh_bytes: u64,
    /// Fetched objects that yielded no triangle: moved for nothing, as far
    /// as this isovalue goes (0 in situ, where nothing is fetched). In
    /// transit the fetch asks only for objects whose value range holds the
    /// isovalue, so what is left here is an object whose range holds it
    /// but none of whose core cubes straddles it — the crossing lies in
    /// the halo a neighbour anchors, or the values either side of it never
    /// share a cube.
    pub empty_objects: usize,
    /// Why staging could not answer this version's fetch or, that
    /// answered, its eviction; a cluster's error names the shard. A failed
    /// fetch means the version is lost: the analysis saw nothing and
    /// `triangles` is 0. `None` when staging answered both (always, in
    /// situ).
    pub staging_error: Option<Unanswered>,
}

/// The versions whose analysis is queued or running, shared by the producer
/// and the analysis workers. Workers can finish out of order, and
/// [`Staging::evict_before`] drops everything older than its argument, so a
/// worker done with version *v* may only evict below the oldest version
/// another worker has still to read — not below *v + 1*. The same set is
/// what bounds the producer's lead ([`InFlight::admit`]).
#[derive(Default)]
struct InFlight {
    state: Mutex<Versions>,
    /// Signalled whenever a version leaves `state`.
    released: Condvar,
}

#[derive(Default)]
struct Versions {
    live: BTreeSet<u64>,
    /// One past the newest version any worker has finished.
    finished_below: u64,
    /// The most versions ever live at once.
    peak: usize,
}

impl InFlight {
    /// Producer side, before `version` is packed: block until at most
    /// `workers` versions are queued or running, then count `version` among
    /// them — from before a worker can see its job, so no other worker
    /// evicts it in between.
    fn admit(&self, version: u64, workers: usize) {
        let mut state = self.state.lock();
        while state.live.len() > workers {
            self.released.wait(&mut state);
        }
        state.live.insert(version);
        state.peak = state.peak.max(state.live.len());
    }

    /// `version` is out of flight — analysed, or never handed to a worker:
    /// returns the oldest version still needed (the newest finished + 1
    /// when nothing is in flight) and wakes a waiting producer.
    fn finish(&self, version: u64) -> u64 {
        let mut state = self.state.lock();
        state.live.remove(&version);
        state.finished_below = state.finished_below.max(version + 1);
        self.released.notify_all();
        state.live.first().copied().unwrap_or(state.finished_below)
    }
}

/// A worker's hold on the version it is analysing. A worker that dies
/// mid-job unwinds through the drop, which takes the version out of flight:
/// its outcome is forfeit, but the producer is not left waiting for it.
struct Running<'a> {
    in_flight: &'a InFlight,
    version: u64,
}

impl Running<'_> {
    /// The analysis is over: [`InFlight::finish`], once.
    fn finish(self) -> u64 {
        let this = std::mem::ManuallyDrop::new(self);
        this.in_flight.finish(this.version)
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.in_flight.finish(self.version);
    }
}

struct Job {
    version: u64,
    iso: f64,
    /// Objects the producer enqueued for this version; the worker waits
    /// until the transport has processed that many before reading. Short
    /// of the step's object count only when the transport had shut down
    /// and the remainder was stored synchronously.
    expected: u64,
}

/// Pack one level's grids into staged objects, in parallel across grids.
///
/// Each object carries the level's physical spacing `dx` and, at
/// `factor == 1`, a one-cell halo around the valid region as payload with
/// the valid region as `core` — so a consumer extracting isosurfaces from
/// the object anchors exactly the cells the in-situ path anchors, with the
/// same ghost corners. At `factor > 1` the grid is down-sampled straight
/// from the level fab's `comp` (no tight single-component intermediate)
/// and the object covers the coarsened valid region at spacing
/// `dx * factor`.
pub fn pack_level_objects(
    level: &LevelData,
    comp: usize,
    name: &str,
    version: u64,
    factor: u32,
    dx: f64,
) -> Vec<DataObject> {
    use rayon::prelude::*;
    (0..level.len())
        .into_par_iter()
        .map(|i| {
            let valid = level.valid_box(i);
            let rank = level.layout().rank(i);
            if factor > 1 {
                let reduced = xlayer_viz::downsample_region(level.fab(i), comp, &valid, factor);
                DataObject::from_fab(name, version, &reduced, 0, &reduced.ibox(), rank)
                    .with_dx(dx * factor as f64)
            } else {
                let halo = valid.grow(1).intersect(&level.fab(i).ibox());
                DataObject::from_fab(name, version, level.fab(i), comp, &halo, rank)
                    .with_dx(dx)
                    .with_core(&valid)
            }
        })
        .collect()
}

/// `cfg.remote` as a cluster client — a single address is a one-shard
/// cluster. `None` when unset, empty, or any address fails to resolve: the
/// workflow then stages in process.
fn connect_remote(cfg: &NativeConfig) -> Option<ShardedClient> {
    let addrs: Vec<&str> = cfg
        .remote
        .as_deref()?
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .collect();
    ShardedClient::connect(&addrs, cfg.shard_span, ClientConfig::default()).ok()
}

/// The in-process staging space `cfg` describes: with a `disk_dir`, a
/// space whose servers spill to a tier there.
///
/// # Panics
///
/// With `disk_dir` set, when the tier refuses it — a directory where a
/// log segment is left ([`xlayer_staging::TierError::InUse`]), or one that
/// cannot be created — with the tier error's text.
fn local_space(cfg: &NativeConfig) -> DataSpace {
    let Some(dir) = &cfg.disk_dir else {
        return DataSpace::new(cfg.staging_servers, cfg.staging_memory, Sharding::BboxHash);
    };
    let tier = TierConfig::new(dir.clone()).with_budget(cfg.disk_budget);
    DataSpace::new_tiered(
        cfg.staging_servers,
        cfg.staging_memory,
        Sharding::BboxHash,
        &tier,
        Arc::new(BufferPool::new()),
    )
    // xlint: allow(P) -- `new` returns Self for the frozen benchmark; a tier that cannot start must stop the run, not turn it into a memory-only one
    .unwrap_or_else(|e| panic!("{e}"))
}

/// A fully-native coupled workflow: simulation + visualization + staging.
pub struct NativeWorkflow<S: LevelSolver> {
    sim: AmrSimulation<S>,
    cfg: NativeConfig,
    /// Where staged data lives. Everything below talks to this handle;
    /// `cluster` only keeps the concrete type reachable for the counters
    /// that exist on a cluster client alone.
    staging: Arc<dyn Staging>,
    /// The asynchronous put pipeline into `staging`.
    stager: AsyncStager,
    /// `staging` as the cluster client, when it is one (per-shard
    /// pressure and retry counters).
    cluster: Option<ShardedClient>,
    engine: AdaptationEngine,
    job_tx: Option<Sender<Job>>,
    in_flight: Arc<InFlight>,
    result_rx: Receiver<AnalysisOutcome>,
    workers: Vec<std::thread::JoinHandle<()>>,
    outcomes: Vec<AnalysisOutcome>,
    steps: Vec<StepLog>,
    moved_bytes: u64,
    pending_jobs: usize,
    last_intransit_secs: f64,
    calibrator: Calibrator,
    // BTreeMap: calibration replays (and debug dumps) walk predictions in
    // step order, independent of hasher state.
    predictions: BTreeMap<u64, f64>,
}

impl<S: LevelSolver> NativeWorkflow<S> {
    /// Build the workflow around an initialized simulation.
    ///
    /// # Panics
    ///
    /// Staging in process with `cfg.disk_dir` set, when the disk tier
    /// refuses that directory: a log segment is already there (another
    /// live run's, or a crashed one's), or it cannot be created.
    pub fn new(sim: AmrSimulation<S>, cfg: NativeConfig) -> Self {
        // With cfg.remote set the transfer threads speak the wire protocol
        // to the staging service or cluster; without it they stage in
        // process.
        match connect_remote(&cfg) {
            Some(client) => {
                let backend = Arc::clone(client.cluster());
                Self::over(sim, cfg, backend, Some(client))
            }
            None => {
                let space = Arc::new(local_space(&cfg));
                Self::over(sim, cfg, space, None)
            }
        }
    }

    /// The workflow staging into `backend`, which `cluster` is when it is
    /// the cluster client.
    fn over(
        sim: AmrSimulation<S>,
        cfg: NativeConfig,
        backend: Arc<impl Staging + 'static>,
        cluster: Option<ShardedClient>,
    ) -> Self {
        // The asynchronous transport into the staging side: puts from
        // step() are enqueued and ingested by transfer threads while the
        // next solve runs. Its 256-slot queue bounds how far the producer
        // runs ahead of the *transfer* threads, in objects; it says nothing
        // about the analysis side, whose job channel below is unbounded.
        // What bounds the lead over analysis — and with it the versions
        // resident in staging — is `InFlight::admit` in step().
        let threads = cfg.staging_servers.max(1);
        let stager = AsyncStager::new(Arc::clone(&backend), threads, 256);
        let staging: Arc<dyn Staging> = backend;
        let transport = stager.stats();
        // A rough local-machine model so the middleware policy has cost
        // estimates; decisions also use live measurements via the state.
        let machine = MachineSpec {
            name: "local".into(),
            cores_per_node: std::thread::available_parallelism().map_or(4, |n| n.get()),
            memory_per_node: 8 << 30,
            core_flops: 2.0e9,
            injection_bandwidth: 8.0e9,
            message_latency: 1e-6,
        };
        let engine = AdaptationEngine::new(
            UserPreferences::default(),
            cfg.hints.clone(),
            cfg.engine,
            Estimator::new(CostModel::new(machine)),
        );
        let (job_tx, job_rx) = unbounded::<Job>();
        let (result_tx, result_rx) = unbounded::<AnalysisOutcome>();
        let in_flight = Arc::new(InFlight::default());
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let job_rx = job_rx.clone();
                let in_flight = Arc::clone(&in_flight);
                let result_tx = result_tx.clone();
                let staging = Arc::clone(&staging);
                let transport = Arc::clone(&transport);
                std::thread::spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        let running = Running {
                            in_flight: &in_flight,
                            version: job.version,
                        };
                        // Rendezvous with the transport: all of this
                        // version's objects must have been ingested (or
                        // rejected) before the read. The wait is transfer
                        // time, not analysis time: the clock starts after.
                        transport.wait_processed("field", job.version, job.expected);
                        let t0 = Instant::now();
                        // A fetch that fails (a shard gone mid-run) loses
                        // the version: the outcome carries the typed error
                        // and zero triangles, and is still sent, so every
                        // step reports exactly once.
                        // The fetch asks only for the objects whose value
                        // range the isovalue lies in: every staging layer
                        // drops the rest on descriptors, and they could
                        // not have held a triangle.
                        // Every object's surface goes straight into the
                        // version's one mesh, read off the staged bytes
                        // (objects are single-component; the descriptor
                        // carries the level's dx and the anchor region),
                        // and each object is let go as soon as its surface
                        // is out, so a version under analysis holds what is
                        // left to extract, not a second whole copy.
                        let mut mesh = TriMesh::new();
                        let mut empty_objects = 0;
                        let (objects, lost) =
                            match staging.get("field", job.version, None, Some(job.iso)) {
                                Ok(objects) => (objects, None),
                                Err(e) => (Vec::new(), Some(e)),
                            };
                        for obj in objects {
                            let before = mesh.num_triangles();
                            extract_payload_into(
                                &obj.payload,
                                &obj.desc.bbox,
                                &obj.desc.core,
                                job.iso,
                                obj.desc.dx,
                                [0.0; 3],
                                &mut mesh,
                            );
                            empty_objects += usize::from(mesh.num_triangles() == before);
                        }
                        let evicted = staging.evict_before("field", running.finish());
                        let secs = t0.elapsed().as_secs_f64();
                        let _ = result_tx.send(AnalysisOutcome {
                            version: job.version,
                            placement: Placement::InTransit,
                            triangles: mesh.num_triangles(),
                            seconds: secs,
                            mesh_bytes: mesh.bytes(),
                            empty_objects,
                            staging_error: lost.or(evicted.err()),
                        });
                    }
                })
            })
            .collect();
        NativeWorkflow {
            sim,
            cfg,
            staging,
            stager,
            cluster,
            engine,
            job_tx: Some(job_tx),
            in_flight,
            result_rx,
            workers,
            outcomes: Vec::new(),
            steps: Vec::new(),
            moved_bytes: 0,
            pending_jobs: 0,
            last_intransit_secs: 0.0,
            calibrator: Calibrator::default(),
            predictions: BTreeMap::new(),
        }
    }

    /// The cluster client, when staging goes over the wire — to one
    /// service (a one-shard cluster) or to a shard list.
    pub fn sharded_client(&self) -> Option<&ShardedClient> {
        self.cluster.as_ref()
    }

    /// The asynchronous transport's statistics (delivered/rejected/failed
    /// accounting plus the per-version rendezvous), the same on every
    /// backend. Always `Some` on a live workflow.
    pub fn transport_stats(&self) -> Option<Arc<TransportStats>> {
        Some(self.stager.stats())
    }

    /// Synchronous put: the fallback for tasks the asynchronous transport
    /// handed back because it had shut down. Rejections (memory cap,
    /// unreachable service) drop the object — same policy on both sides of
    /// the wire.
    fn put_sync(&self, obj: DataObject) {
        let _ = self.staging.put(Arc::new(obj));
    }

    /// The underlying simulation.
    pub fn sim(&self) -> &AmrSimulation<S> {
        &self.sim
    }

    /// The most versions that were ever staged and not yet analysed at one
    /// time in this run: at most `workers + 1` (see the module docs).
    pub fn peak_versions_in_flight(&self) -> usize {
        self.in_flight.state.lock().peak
    }

    /// Record one worker result: close the autonomic loop by correcting
    /// the estimator with the observed in-transit analysis time.
    fn absorb_result(&mut self, r: AnalysisOutcome) {
        self.last_intransit_secs = r.seconds;
        self.pending_jobs = self.pending_jobs.saturating_sub(1);
        if let Some(predicted) = self.predictions.remove(&r.version) {
            self.calibrator
                .observe_intransit(self.engine.estimator_mut(), predicted, r.seconds);
        }
        self.outcomes.push(r);
    }

    fn drain_results(&mut self) {
        while let Ok(r) = self.result_rx.try_recv() {
            self.absorb_result(r);
        }
    }

    /// Block until every dispatched in-transit analysis has reported back,
    /// absorbing each result as it lands. The blocking `recv` parks on the
    /// result channel's condvar and is woken by worker sends — no polling
    /// sleeps, no timing assumptions.
    pub fn wait_for_analyses(&mut self) {
        while self.pending_jobs > 0 {
            match self.result_rx.recv() {
                Ok(r) => self.absorb_result(r),
                // Workers gone (channel closed): nothing more will arrive.
                Err(_) => break,
            }
        }
    }

    /// The current online calibration scales (in-situ, in-transit).
    pub fn calibration_scales(&self) -> (f64, f64) {
        let e = self.engine.estimator();
        (e.insitu_scale, e.intransit_scale)
    }

    /// Advance the simulation one step and run the coupled analysis.
    pub fn step(&mut self) -> StepLog {
        let stats = self.sim.advance();
        self.sim.hierarchy.fill_ghosts();
        self.drain_results();

        // Observe. Headroom is probed fresh every step — over the wire that
        // is one concurrent `Stats` round trip per shard — so the placement
        // and pressure policies never plan on a stale reading.
        let (mem_available_intransit, disk_available_intransit) = self.staging.headroom();
        let state = OperationalState {
            step: stats.step,
            now: 0.0,
            data_bytes: stats.data_bytes,
            cells: stats.cells_advanced,
            surface_cells: stats.cells_advanced / 12,
            last_sim_time: stats.dt.max(1e-9),
            last_analysis_time: (self.last_intransit_secs > 0.0)
                .then_some(self.last_intransit_secs),
            intransit_busy_until: self.pending_jobs as f64 * self.last_intransit_secs.max(1e-6),
            sim_cores: 1,
            staging_cores: self.cfg.workers,
            staging_cores_max: self.cfg.workers,
            mem_available_insitu: u64::MAX / 2,
            mem_available_intransit,
            disk_available_intransit,
        };
        let adaptations = self.engine.adapt(&state);
        let placement = self.cfg.placement_override.unwrap_or_else(|| {
            adaptations
                .placement
                .map(|p| p.placement)
                .unwrap_or(Placement::InTransit)
        });
        // The step's one pack factor: the application layer's times the
        // pressure verdict's downsample factor, composed as the engine
        // composed them when it sized the step. In native mode it is
        // applied as per-dimension strides to the staged grids (the
        // policies' volumetric arithmetic is then a conservative estimate
        // of the actual X³ reduction).
        let pressure_factor = match adaptations.pressure.map(|p| p.action) {
            Some(PressureAction::Downsample { factor }) => factor,
            _ => 1,
        };
        let factor = adaptations.app.map_or(1, |a| a.factor) * pressure_factor;

        let mut moved = 0;
        let mut analysis_secs = 0.0;
        let mut analysis_bytes = stats.data_bytes;
        match placement {
            Placement::InSitu => {
                let t0 = Instant::now();
                let mut total = TriMesh::new();
                for l in 0..self.sim.hierarchy.num_levels() {
                    let dx = self.sim.dx(l);
                    let surfaces = extract_level(
                        self.sim.hierarchy.level(l),
                        self.cfg.comp,
                        self.cfg.iso_value,
                        dx,
                    );
                    total.append(&merge_surfaces(&surfaces));
                }
                analysis_secs = t0.elapsed().as_secs_f64();
                let predicted = self.engine.estimator().t_insitu(
                    adaptations.analysis_cells,
                    adaptations.analysis_surface,
                    1,
                );
                self.calibrator.observe_insitu(
                    self.engine.estimator_mut(),
                    predicted,
                    analysis_secs,
                );
                self.outcomes.push(AnalysisOutcome {
                    version: stats.step,
                    placement: Placement::InSitu,
                    triangles: total.num_triangles(),
                    seconds: analysis_secs,
                    mesh_bytes: total.bytes(),
                    empty_objects: 0,
                    staging_error: None,
                });
            }
            Placement::InTransit | Placement::Hybrid => {
                // Eqs. 9–10: no new version is staged until all but
                // `workers` of the earlier ones have been analysed.
                self.in_flight.admit(stats.step, self.workers.len());
                // Stage every grid of every level as objects, then queue the
                // analysis job. (Native mode treats hybrid like in-transit:
                // the split is a modeled-scale mechanism.)
                let mut tasks: Vec<StageTask> = Vec::new();
                for l in 0..self.sim.hierarchy.num_levels() {
                    let dx = self.sim.dx(l);
                    let level = self.sim.hierarchy.level(l);
                    let objects =
                        pack_level_objects(level, self.cfg.comp, "field", stats.step, factor, dx);
                    for obj in objects {
                        moved += obj.desc.bytes;
                        tasks.push(StageTask::Ready(obj));
                    }
                }
                // One hand-off for the whole step. Only tasks the transport
                // accepted count toward the worker's rendezvous; a refused
                // remainder (transport shut down) is stored synchronously —
                // the step degrades, it does not die.
                let mut staged = tasks.len() as u64;
                if let Err(BatchClosed { enqueued, rest }) = self.stager.put_batch(tasks) {
                    staged = enqueued;
                    for task in rest {
                        self.put_sync(task.materialize());
                    }
                }
                self.moved_bytes += moved;
                analysis_bytes = moved;
                let predicted = self.engine.estimator().t_intransit(
                    adaptations.analysis_cells,
                    adaptations.analysis_surface,
                    self.cfg.workers,
                );
                // Book the job only if it actually reached a worker: a
                // closed channel (finished workflow, or every worker dead)
                // means the step's analysis is skipped, not a crash, and
                // pending_jobs / predictions stay consistent with what the
                // workers will report back.
                let sent = self
                    .job_tx
                    .as_ref()
                    .map(|tx| {
                        tx.send(Job {
                            version: stats.step,
                            iso: self.cfg.iso_value,
                            expected: staged,
                        })
                        .is_ok()
                    })
                    .unwrap_or(false);
                if sent {
                    self.pending_jobs += 1;
                    self.predictions.insert(stats.step, predicted);
                } else {
                    self.in_flight.finish(stats.step);
                }
            }
        }

        let log = StepLog {
            step: stats.step,
            t_sim: stats.dt,
            raw_bytes: stats.data_bytes,
            analysis_bytes,
            factor,
            placement,
            reason: adaptations.placement.map(|p| p.reason),
            staging_cores: self.cfg.workers,
            moved_bytes: moved,
            mem_available: state.mem_available_insitu,
            mem_used: stats.data_bytes,
            analyzed: true,
            analysis_secs,
        };
        self.steps.push(log);
        log
    }

    /// Stop the workers, wait for in-flight analyses, and return
    /// (per-step logs, analysis outcomes, total bytes staged).
    ///
    /// Deterministic drain order: first the transport queue is drained (so
    /// every staged object is in the space and every `wait_processed`
    /// rendezvous can complete), then the job channel closes and the
    /// workers run down the remaining analyses before joining.
    pub fn finish(mut self) -> (Vec<StepLog>, Vec<AnalysisOutcome>, u64) {
        // A DrainError only means a transfer thread panicked; the
        // surviving counts are already in the shared stats, so the
        // run-down continues either way.
        let _ = self.stager.drain();
        drop(self.job_tx.take());
        for w in self.workers.drain(..) {
            // A panicked analysis worker forfeits its outcomes; the other
            // workers' results (already in result_rx) still get collected.
            let _ = w.join();
        }
        while let Ok(r) = self.result_rx.try_recv() {
            self.outcomes.push(r);
        }
        self.outcomes.sort_by_key(|o| o.version);
        (self.steps, self.outcomes, self.moved_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_amr::hierarchy::HierarchyConfig;
    use xlayer_amr::{IBox, ProblemDomain};
    use xlayer_solvers::{AdvectDiffuseSolver, DriverConfig, ScalarProblem, VelocityField};
    use xlayer_staging::PutVerdict;

    #[test]
    fn a_worker_finishing_early_does_not_evict_what_another_still_reads() {
        let f = InFlight::default();
        f.state.lock().live.extend([1, 2, 4]);
        // Version 2 done while 1 is still being read: keep 1 and up.
        assert_eq!(f.finish(2), 1);
        // Now 1 is done: 2 may go too; 4 (3 ran in situ) is still queued.
        assert_eq!(f.finish(1), 4);
        assert_eq!(f.finish(4), 5);
        // Nothing queued behind an out-of-order pair: the bound is the
        // newest finished version's, not the last finisher's.
        f.state.lock().live.extend([6, 7]);
        assert_eq!(f.finish(7), 6);
        assert_eq!(f.finish(6), 8);
    }

    #[test]
    fn the_producer_leads_by_at_most_one_version_more_than_there_are_workers() {
        use std::sync::mpsc;
        use std::time::Duration;
        let workers = 2;
        let f = Arc::new(InFlight::default());
        let (admitted_tx, admitted) = mpsc::channel();
        let producer = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                for version in 1..=5 {
                    f.admit(version, workers);
                    admitted_tx.send(version).expect("the test is listening");
                }
            })
        };
        // One version per worker and one ready behind them go straight in.
        for version in 1..=3 {
            assert_eq!(admitted.recv(), Ok(version));
        }
        // The fourth waits however long nothing finishes. (Correct code
        // always passes this; the timeout only gives a producer that does
        // not wait the time to show it.)
        assert!(admitted.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(f.state.lock().live.len(), workers + 1);
        // A finish out of order brings the count to `workers`: 4 goes in,
        // and 5 waits for the next one.
        assert_eq!(f.finish(2), 1);
        assert_eq!(admitted.recv(), Ok(4));
        assert!(admitted.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(f.finish(1), 3);
        assert_eq!(admitted.recv(), Ok(5));
        producer.join().expect("producer");
        assert_eq!(f.state.lock().peak, workers + 1);
    }

    #[test]
    fn a_worker_that_dies_mid_job_still_releases_its_version() {
        let f = Arc::new(InFlight::default());
        f.admit(1, 1);
        f.admit(2, 1);
        let worker = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                let _running = Running {
                    in_flight: &f,
                    version: 1,
                };
                panic!("the analysis of version 1 dies");
            })
        };
        assert!(worker.join().is_err());
        // The unwinding worker let go of version 1, so with one worker and
        // one version left in flight the next admission does not wait.
        let live = |f: &InFlight| f.state.lock().live.iter().copied().collect::<Vec<_>>();
        assert_eq!(live(&f), [2]);
        f.admit(3, 1);
        assert_eq!(live(&f), [2, 3]);
        // The hold released normally reports what is still needed, once.
        let running = Running {
            in_flight: &f,
            version: 2,
        };
        assert_eq!(running.finish(), 3);
    }

    #[test]
    fn analysis_slower_than_the_solver_bounds_the_lead_and_loses_no_step() {
        // One worker extracting both levels against a solver stepping a
        // 16³ base grid: the producer would run the whole way ahead.
        let steps = 12;
        let cfg = NativeConfig {
            iso_value: 0.4,
            workers: 1,
            placement_override: Some(Placement::InTransit),
            ..Default::default()
        };
        let workers = cfg.workers;
        let mut wf = NativeWorkflow::new(blob_sim(16), cfg);
        for _ in 0..steps {
            wf.step();
            assert!(wf.peak_versions_in_flight() <= workers + 1);
        }
        let peak = wf.peak_versions_in_flight();
        let (_, outcomes, _) = wf.finish();
        assert!((1..=workers + 1).contains(&peak), "peak in flight {peak}");
        let analysed: Vec<u64> = outcomes.iter().map(|o| o.version).collect();
        assert_eq!(analysed, (1..=steps as u64).collect::<Vec<_>>());
    }

    fn blob_sim(n: i64) -> AmrSimulation<AdvectDiffuseSolver> {
        blob_sim_at(n, 1.0)
    }

    /// [`blob_sim`] at base-level spacing `base_dx`.
    fn blob_sim_at(n: i64, base_dx: f64) -> AmrSimulation<AdvectDiffuseSolver> {
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
                base_dx,
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

    /// A space that records the descriptor of every object put into it.
    struct Recording {
        space: DataSpace,
        puts: Mutex<Vec<xlayer_staging::ObjectDesc>>,
    }

    impl Staging for Recording {
        fn put(&self, obj: Arc<DataObject>) -> PutVerdict {
            self.puts.lock().push(obj.desc.clone());
            Staging::put(&self.space, obj)
        }

        fn get(
            &self,
            name: &str,
            version: u64,
            query: Option<&IBox>,
            crossing: Option<f64>,
        ) -> Result<Vec<Arc<DataObject>>, Unanswered> {
            Staging::get(&self.space, name, version, query, crossing)
        }

        fn evict_before(&self, name: &str, min_version: u64) -> Result<u64, Unanswered> {
            Staging::evict_before(&self.space, name, min_version)
        }

        fn headroom(&self) -> (u64, u64) {
            Staging::headroom(&self.space)
        }
    }

    #[test]
    fn staged_objects_carry_each_levels_physical_spacing() {
        let base_dx = 1.0 / 16.0;
        let recording = Arc::new(Recording {
            space: DataSpace::new(1, 1 << 30, Sharding::BboxHash),
            puts: Mutex::default(),
        });
        let cfg = NativeConfig {
            placement_override: Some(Placement::InTransit),
            ..Default::default()
        };
        let mut wf = NativeWorkflow::over(blob_sim_at(16, base_dx), cfg, recording.clone(), None);
        wf.step();
        let h = &wf.sim.hierarchy;
        assert!(h.num_levels() > 1, "the blob must refine");
        let spacing: Vec<f64> = (0..h.num_levels())
            .map(|l| base_dx / h.ref_ratio().pow(l as u32) as f64)
            .collect();
        let grids: Vec<usize> = (0..h.num_levels()).map(|l| h.level(l).len()).collect();
        wf.finish();
        let puts = recording.puts.lock();
        let staged: Vec<usize> = spacing
            .iter()
            .map(|dx| puts.iter().filter(|d| d.dx == *dx).count())
            .collect();
        assert_eq!(staged, grids, "objects staged per level at base_dx / r^l");
        assert_eq!(puts.len(), grids.iter().sum::<usize>());
    }

    #[test]
    fn empty_objects_counts_the_grids_the_surface_misses() {
        // One periodic 32³ level in 8³ grids stages 64 objects a version. A
        // Gaussian centred on the corner the middle eight grids share has
        // its iso-0.4 shell ~3.4 cells out, inside those eight: the other
        // 56 objects' value ranges lie below 0.4, so the filtered fetch
        // never brings them and nothing fetched is empty. Above the peak,
        // nothing is fetched at all.
        let run = |iso_value: f64| {
            let n = 32;
            let domain = ProblemDomain::periodic(IBox::cube(n));
            let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.0, 0.0]), 0.0, n);
            let mut sim = AmrSimulation::new(
                domain,
                HierarchyConfig {
                    max_levels: 1,
                    base_max_box: 8,
                    ..Default::default()
                },
                solver,
                DriverConfig {
                    regrid_interval: 0,
                    ..Default::default()
                },
            );
            ScalarProblem::Gaussian {
                center: [n as f64 / 2.0; 3],
                sigma: 2.5,
            }
            .init_hierarchy(&mut sim.hierarchy);
            let cfg = NativeConfig {
                iso_value,
                placement_override: Some(Placement::InTransit),
                ..Default::default()
            };
            let mut wf = NativeWorkflow::new(sim, cfg);
            for _ in 0..2 {
                wf.step();
            }
            let (_, outcomes, _) = wf.finish();
            outcomes
        };
        let crossed = run(0.4);
        assert_eq!(crossed.len(), 2);
        for o in &crossed {
            assert!(o.triangles > 0, "no surface at version {}", o.version);
            assert_eq!(o.empty_objects, 0, "version {}", o.version);
        }
        for o in run(2.0) {
            assert_eq!((o.triangles, o.empty_objects), (0, 0));
        }
    }

    #[test]
    fn end_to_end_native_run_extracts_surfaces() {
        let sim = blob_sim(16);
        let mut wf = NativeWorkflow::new(
            sim,
            NativeConfig {
                iso_value: 0.4,
                ..Default::default()
            },
        );
        for _ in 0..4 {
            wf.step();
        }
        let (steps, outcomes, moved) = wf.finish();
        assert_eq!(steps.len(), 4);
        assert_eq!(outcomes.len(), 4, "every step analyzed exactly once");
        // The Gaussian blob crosses iso=0.4 somewhere every step.
        for o in &outcomes {
            assert!(o.triangles > 0, "no surface at version {}", o.version);
        }
        // At least one step went through staging (the default engine places
        // in-transit when workers are idle).
        assert!(moved > 0 || steps.iter().any(|s| s.placement == Placement::InSitu));
    }

    #[test]
    fn staged_versions_are_evicted_after_analysis() {
        let cfg = NativeConfig::default();
        let space = Arc::new(local_space(&cfg));
        let mut wf = NativeWorkflow::over(blob_sim(16), cfg, Arc::clone(&space), None);
        for _ in 0..3 {
            wf.step();
        }
        let (_, outcomes, _) = wf.finish();
        // After finish, every analyzed version's objects were evicted.
        for o in outcomes {
            if o.placement == Placement::InTransit {
                assert!(
                    space.get("field", o.version, None).is_empty(),
                    "version {} not evicted",
                    o.version
                );
            }
        }
    }

    #[test]
    fn app_layer_reduction_shrinks_staged_objects() {
        use xlayer_core::FactorPhase;
        let run = |factors: Vec<u32>| {
            let sim = blob_sim(16);
            let hints = UserHints {
                factor_schedule: vec![FactorPhase {
                    from_step: 0,
                    factors,
                }],
                ..Default::default()
            };
            let cfg = NativeConfig {
                iso_value: 0.4,
                engine: EngineConfig {
                    enable_app: true,
                    enable_middleware: false,
                    enable_resource: false,
                    enable_hybrid: false,
                    enable_pressure: false,
                },
                hints,
                ..Default::default()
            };
            let mut wf = NativeWorkflow::new(sim, cfg);
            for _ in 0..3 {
                wf.step();
            }
            let (steps, outcomes, moved) = wf.finish();
            (steps, outcomes, moved)
        };
        let (full_steps, _, full_moved) = run(vec![1]);
        let (red_steps, red_outcomes, red_moved) = run(vec![2]);
        assert!(full_steps.iter().all(|s| s.factor == 1));
        assert!(red_steps.iter().all(|s| s.factor == 2));
        // A per-dimension stride of 2 shrinks every staged object by ~8x
        // (the full-resolution object additionally carries a 1-cell halo).
        assert!(
            red_moved * 6 < full_moved,
            "reduction ineffective: {red_moved} vs {full_moved}"
        );
        // The reduced data still produces a surface.
        assert!(red_outcomes.iter().any(|o| o.triangles > 0));
        // In-transit steps report the staged (reduced) bytes as the
        // analysis input, not the raw hierarchy size.
        for s in red_steps
            .iter()
            .filter(|s| s.placement != Placement::InSitu)
        {
            assert_eq!(s.analysis_bytes, s.moved_bytes);
            assert!(s.analysis_bytes < s.raw_bytes);
        }
    }

    /// A fresh per-test scratch directory under the system temp dir.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "xlayer-native-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Run `steps` forced-in-transit steps and report per-version
    /// (triangles, mesh_bytes), rejected-put count, and max staged bytes
    /// in any one step.
    fn tiered_run(
        steps: usize,
        staging_memory: u64,
        disk_dir: Option<std::path::PathBuf>,
        remote: Option<String>,
    ) -> (Vec<(u64, usize, u64)>, u64, u64) {
        let sim = blob_sim(16);
        let cfg = NativeConfig {
            iso_value: 0.4,
            staging_servers: 1,
            staging_memory,
            placement_override: Some(Placement::InTransit),
            disk_dir,
            remote,
            ..Default::default()
        };
        let mut wf = NativeWorkflow::new(sim, cfg);
        for _ in 0..steps {
            wf.step();
        }
        let transport = wf.transport_stats().expect("transport running");
        let (step_logs, outcomes, _) = wf.finish();
        let rejected = transport
            .rejected
            .load(std::sync::atomic::Ordering::Relaxed);
        let max_step_bytes = step_logs.iter().map(|s| s.moved_bytes).max().unwrap_or(0);
        let per_version = outcomes
            .iter()
            .map(|o| (o.version, o.triangles, o.mesh_bytes))
            .collect();
        (per_version, rejected, max_step_bytes)
    }

    #[test]
    fn tiered_backend_survives_4x_working_set_bit_identically() {
        // Reference: memory-only staging with room to spare.
        let (reference, ref_rejected, step_bytes) = tiered_run(4, 1 << 30, None, None);
        assert_eq!(ref_rejected, 0);
        assert!(step_bytes > 0);
        // Squeeze the cap to a quarter of one step's staged bytes: the
        // working set is now 4x staging memory, impossible without the
        // tier. With it, every put lands (spilled, not rejected) and the
        // analysis reads back bit-identical data.
        let dir = scratch_dir("4x");
        let (tiered, rejected, _) = tiered_run(4, (step_bytes / 4).max(1), Some(dir.clone()), None);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(rejected, 0, "tiered staging must not reject");
        assert_eq!(
            tiered, reference,
            "spilled+promoted analysis output must be bit-identical"
        );
    }

    #[test]
    fn remote_tiered_service_survives_4x_working_set() {
        use xlayer_net::service::{ServiceConfig, StagingService};
        let (reference, _, step_bytes) = tiered_run(4, 1 << 30, None, None);
        let dir = scratch_dir("remote-4x");
        let svc = StagingService::start(ServiceConfig {
            servers: 1,
            memory_per_server: (step_bytes / 4).max(1),
            disk_dir: Some(dir.clone()),
            ..Default::default()
        })
        .expect("tiered service starts");
        let addr = svc.local_addr().to_string();
        let (tiered, rejected, _) = tiered_run(4, 1 << 30, None, Some(addr));
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(rejected, 0, "tiered remote staging must not reject");
        assert_eq!(tiered, reference, "remote tier must be bit-identical");
    }

    #[test]
    #[should_panic(expected = "disk tier log is in use: segment file")]
    fn a_disk_dir_holding_a_segment_is_refused_at_new() {
        /// Removes the directory however the test ends.
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir = Cleanup(scratch_dir("inuse"));
        std::fs::create_dir_all(&dir.0).unwrap();
        std::fs::write(dir.0.join("server-0.log"), b"a crashed run's segment").unwrap();
        let cfg = NativeConfig {
            staging_servers: 1,
            disk_dir: Some(dir.0.clone()),
            ..Default::default()
        };
        NativeWorkflow::new(blob_sim(16), cfg);
    }

    #[test]
    fn a_downsample_verdict_packs_the_step_at_its_factor() {
        use std::sync::atomic::Ordering;
        use xlayer_net::service::{ServiceConfig, StagingService};
        // ~430 KB a step against 128 KiB of staging memory, with no disk
        // room for the overflow: the pressure policy answers
        // Downsample { factor: 4 }, the smallest hinted factor that fits,
        // and the producer packs the whole step at it — nothing is refused
        // and every version is analysed. Memory only and with a disk tier
        // too small for the overflow in process, and over a one-shard
        // service.
        let memory = 128 << 10;
        let run = |disk_dir: Option<std::path::PathBuf>, remote: Option<String>| {
            let cfg = NativeConfig {
                iso_value: 0.4,
                staging_servers: 1,
                staging_memory: memory,
                placement_override: Some(Placement::InTransit),
                disk_dir,
                disk_budget: 64 << 10,
                remote,
                engine: EngineConfig {
                    enable_pressure: true,
                    ..EngineConfig::middleware_only()
                },
                ..Default::default()
            };
            let mut wf = NativeWorkflow::new(blob_sim(16), cfg);
            for _ in 0..4 {
                wf.step();
            }
            let transport = wf.transport_stats().expect("transport running");
            let (steps, outcomes, _) = wf.finish();
            for log in &steps {
                assert_eq!(log.factor, 4, "step {}", log.step);
                assert!(
                    log.moved_bytes < log.raw_bytes / 8,
                    "step {}: {} of {} B staged",
                    log.step,
                    log.moved_bytes,
                    log.raw_bytes
                );
            }
            assert_eq!(transport.rejected.load(Ordering::Relaxed), 0);
            assert_eq!(transport.failed.load(Ordering::Relaxed), 0);
            assert_eq!(outcomes.len(), steps.len());
            for o in &outcomes {
                assert!(o.triangles > 0, "no surface at version {}", o.version);
                assert_eq!(o.staging_error, None, "version {}", o.version);
            }
        };

        run(None, None);

        let dir = scratch_dir("downsample");
        run(Some(dir.clone()), None);
        let _ = std::fs::remove_dir_all(&dir);

        let svc = StagingService::start(ServiceConfig {
            servers: 1,
            memory_per_server: memory,
            ..Default::default()
        })
        .expect("service starts");
        run(None, Some(svc.local_addr().to_string()));
        svc.shutdown();
    }

    #[test]
    fn the_same_config_is_refused_the_same_puts_in_process_and_remote() {
        use std::sync::atomic::Ordering;
        use xlayer_core::FactorPhase;
        use xlayer_net::service::{ServiceConfig, StagingService};
        // One ~430 KB step against 128 KiB of memory and a 64 KiB disk: no
        // hinted factor above 1, so the pressure verdict is Reject. Every
        // server applies its own rule, spill while the log has room, so an
        // in-process tiered space and a one-server tiered service deliver
        // and refuse the same puts.
        let (memory, disk) = (128 << 10, 64 << 10);
        let run = |disk_dir: Option<std::path::PathBuf>, remote: Option<String>| {
            let cfg = NativeConfig {
                iso_value: 0.4,
                staging_servers: 1,
                staging_memory: memory,
                workers: 1,
                placement_override: Some(Placement::InTransit),
                disk_dir,
                disk_budget: disk,
                remote,
                engine: EngineConfig {
                    enable_pressure: true,
                    ..EngineConfig::middleware_only()
                },
                hints: UserHints {
                    factor_schedule: vec![FactorPhase {
                        from_step: 0,
                        factors: vec![1],
                    }],
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut wf = NativeWorkflow::new(blob_sim(16), cfg);
            wf.step();
            let transport = wf.transport_stats().expect("transport running");
            wf.finish();
            (
                transport.delivered.load(Ordering::Relaxed),
                transport.rejected.load(Ordering::Relaxed),
            )
        };

        let dir = scratch_dir("same-refusals-local");
        let local = run(Some(dir.clone()), None);
        let _ = std::fs::remove_dir_all(&dir);

        let dir = scratch_dir("same-refusals-remote");
        let svc = StagingService::start(ServiceConfig {
            servers: 1,
            memory_per_server: memory,
            disk_dir: Some(dir.clone()),
            disk_budget: disk,
            ..Default::default()
        })
        .expect("tiered service starts");
        let remote = run(None, Some(svc.local_addr().to_string()));
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        assert!(local.1 > 0, "the step must overflow both tiers: {local:?}");
        assert_eq!(local, remote, "(delivered, rejected) in process vs remote");
    }

    #[test]
    fn a_shard_that_stops_mid_run_loses_the_next_version_typed() {
        use xlayer_net::cluster::StagingCluster;
        use xlayer_net::service::ServiceConfig;
        // Every read asks every shard, so with shard 1 gone the version
        // staged after it cannot be read whole: its outcome says so, naming
        // the shard, instead of reading as an empty surface.
        let mut cluster = StagingCluster::start(
            2,
            &ServiceConfig {
                addr: "127.0.0.1:0".into(),
                servers: 1,
                ..Default::default()
            },
        )
        .expect("cluster starts");
        let cfg = NativeConfig {
            iso_value: 0.4,
            placement_override: Some(Placement::InTransit),
            remote: Some(cluster.addrs().join(",")),
            ..Default::default()
        };
        let mut wf = NativeWorkflow::new(blob_sim(16), cfg);
        assert!(wf.sharded_client().is_some(), "staging is the cluster");
        wf.step();
        wf.wait_for_analyses();
        assert!(cluster.stop_shard(1), "shard 1 was running");
        wf.step();
        let (_, outcomes, _) = wf.finish();
        cluster.shutdown();
        let versions: Vec<u64> = outcomes.iter().map(|o| o.version).collect();
        assert_eq!(versions, [1, 2], "one outcome per step");
        assert_eq!(outcomes[0].staging_error, None);
        assert!(outcomes[0].triangles > 0);
        let lost = outcomes[1]
            .staging_error
            .as_ref()
            .expect("version 2 is reported lost");
        assert!(lost.0.contains("shard 1"), "{lost}");
        assert_eq!(outcomes[1].triangles, 0);
    }

    /// A tiered space that meets a disk fault at rest when `version` is
    /// read: first a put of another variable as large as memory pushes the
    /// version whole to the disk log, then one byte of the extent written
    /// last — that version's last object — is flipped, then the read runs.
    /// The version went to a fresh segment of its own, numbered past every
    /// other: the highest-numbered file of the log at `log`.
    struct CorruptsOnRead {
        space: DataSpace,
        log: std::path::PathBuf,
        version: u64,
    }

    impl CorruptsOnRead {
        /// The log's highest-numbered segment file: `<log>.<n>` is segment
        /// `n`, the log path itself segment 0.
        fn newest_segment(&self) -> std::path::PathBuf {
            let seq = |p: &std::path::PathBuf| p.extension()?.to_str()?.parse::<u64>().ok();
            std::fs::read_dir(self.log.parent().expect("a log directory"))
                .expect("spill dir")
                .map(|e| e.expect("spill dir entry").path())
                .max_by_key(|p| seq(p).unwrap_or(0))
                .expect("a spilled segment")
        }
    }

    impl Staging for CorruptsOnRead {
        fn put(&self, obj: Arc<DataObject>) -> PutVerdict {
            Staging::put(&self.space, obj)
        }

        fn get(
            &self,
            name: &str,
            version: u64,
            query: Option<&IBox>,
            crossing: Option<f64>,
        ) -> Result<Vec<Arc<DataObject>>, Unanswered> {
            if version == self.version {
                let b = IBox::cube(64);
                let fab = xlayer_amr::fab::Fab::filled(b, 1, 0.0);
                let ballast = DataObject::from_fab("ballast", 1, &fab, 0, &b, 0);
                assert_eq!(
                    Staging::put(&self.space, Arc::new(ballast)),
                    PutVerdict::Stored
                );
                let segment = self.newest_segment();
                let mut bytes = std::fs::read(&segment).expect("spill log");
                let n = bytes.len();
                bytes[n - 9] ^= 0xFF;
                std::fs::write(&segment, &bytes).expect("spill log");
            }
            Staging::get(&self.space, name, version, query, crossing)
        }

        fn evict_before(&self, name: &str, min_version: u64) -> Result<u64, Unanswered> {
            Staging::evict_before(&self.space, name, min_version)
        }

        fn headroom(&self) -> (u64, u64) {
            Staging::headroom(&self.space)
        }
    }

    #[test]
    fn an_unreadable_spilled_extent_loses_its_version_typed() {
        // Memory holds one version or the 64³ ballast, not both.
        let dir = scratch_dir("unreadable");
        let tier = TierConfig::new(dir.clone());
        let pool = Arc::new(BufferPool::new());
        let space = DataSpace::new_tiered(1, 64 * 64 * 64 * 8, Sharding::BboxHash, &tier, pool)
            .expect("tiered space");
        let backend = Arc::new(CorruptsOnRead {
            space,
            log: dir.join("server-0.log"),
            version: 2,
        });
        let cfg = NativeConfig {
            iso_value: 0.4,
            staging_servers: 1,
            placement_override: Some(Placement::InTransit),
            ..Default::default()
        };
        let mut wf = NativeWorkflow::over(blob_sim(16), cfg, backend, None);
        // One version in staging at a time, so the extent flipped is
        // version 2's.
        for _ in 0..3 {
            wf.step();
            wf.wait_for_analyses();
        }
        let (_, outcomes, _) = wf.finish();
        let _ = std::fs::remove_dir_all(&dir);
        let versions: Vec<u64> = outcomes.iter().map(|o| o.version).collect();
        assert_eq!(versions, [1, 2, 3], "one outcome per step");
        for o in [&outcomes[0], &outcomes[2]] {
            assert_eq!(o.staging_error, None, "version {}", o.version);
            assert!(o.triangles > 0, "version {}", o.version);
        }
        let lost = outcomes[1]
            .staging_error
            .as_ref()
            .expect("version 2 is reported lost");
        assert!(
            lost.0.contains("server 0") && lost.0.contains("field v2"),
            "{lost}"
        );
        assert_eq!(outcomes[1].triangles, 0);
    }

    #[test]
    fn online_calibration_updates_scales() {
        // The static local-machine model is far off for tiny test grids;
        // after a few analyzed steps the observed times must have pulled
        // the in-transit scale away from 1.0.
        let sim = blob_sim(16);
        let mut wf = NativeWorkflow::new(sim, NativeConfig::default());
        for _ in 0..5 {
            wf.step();
            // rendezvous with the workers so observations arrive
            wf.wait_for_analyses();
        }
        wf.step();
        let (_, intransit_scale) = wf.calibration_scales();
        let (_, outcomes, _) = wf.finish();
        if outcomes
            .iter()
            .filter(|o| o.placement == Placement::InTransit)
            .count()
            >= 2
        {
            assert!(
                (intransit_scale - 1.0).abs() > 1e-6,
                "calibration never updated (scale {intransit_scale})"
            );
        }
    }

    #[test]
    fn insitu_steps_record_analysis_time() {
        let sim = blob_sim(16);
        let cfg = NativeConfig {
            iso_value: 0.4,
            placement_override: Some(Placement::InSitu),
            ..Default::default()
        };
        let mut wf = NativeWorkflow::new(sim, cfg);
        for _ in 0..2 {
            wf.step();
        }
        let (steps, outcomes, moved) = wf.finish();
        assert_eq!(moved, 0);
        for s in &steps {
            assert_eq!(s.placement, Placement::InSitu);
            assert!(s.analysis_secs > 0.0, "in-situ analysis time not recorded");
            assert_eq!(s.analysis_bytes, s.raw_bytes);
        }
        assert!(outcomes.iter().all(|o| o.placement == Placement::InSitu));
    }

    #[test]
    fn insitu_and_intransit_meshes_are_identical() {
        // Run the same simulation with both forced placements: the surfaces
        // must agree in triangle count AND vertex coordinates (the staged
        // objects carry per-level dx and a ghost halo, so the workers see
        // exactly what the in-situ extraction sees).
        let run = |placement: Placement| {
            let sim = blob_sim(16);
            let cfg = NativeConfig {
                iso_value: 0.4,
                placement_override: Some(placement),
                ..Default::default()
            };
            let mut wf = NativeWorkflow::new(sim, cfg);
            for _ in 0..3 {
                wf.step();
            }
            let (_, outcomes, _) = wf.finish();
            outcomes
        };
        let a = run(Placement::InSitu);
        let b = run(Placement::InTransit);
        assert_eq!(a.len(), b.len());
        for (oa, ob) in a.iter().zip(&b) {
            assert_eq!(oa.version, ob.version);
            assert_eq!(
                oa.triangles, ob.triangles,
                "triangle count differs at version {}",
                oa.version
            );
        }
    }
}
