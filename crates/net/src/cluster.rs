//! A sharded staging cluster: N independent [`StagingService`] processes
//! presented as one staging space.
//!
//! DataSpaces partitions its staging index spatially across servers so
//! aggregate capacity and bandwidth scale with server count (Docan et
//! al.). This module is that architecture over the xlayer wire protocol:
//!
//! * [`StagingCluster`] — an in-process harness spawning N services, each
//!   with its own `DataSpace`, listener, and memory cap (paper Eq. 10 now
//!   sizes the cluster in *servers*, the deployable unit, instead of
//!   modeled cores);
//! * [`ShardedClient`] — a [`Cluster`] of pooled [`RemoteClient`]s, one
//!   per shard: every cluster rule (one home per object, every read asks
//!   every shard, one merge order, the lowest failing shard's error) is
//!   `xlayer_staging::cluster`'s, the code an in-process `DataSpace` runs.
//!   One address is a one-shard cluster.

use std::sync::Arc;

use xlayer_amr::boxes::IBox;
use xlayer_staging::{Cluster, DataObject, ObjectDesc, ObjectKey, Shard, ShardError};

use crate::client::{ClientConfig, RemoteClient, RemoteError};
use crate::service::{ServiceConfig, StagingService};
use crate::wire::ServiceSnapshot;

/// A remote operation failed on a specific shard (for a put: the object's
/// home, the only shard it was sent to).
pub type ShardedError = ShardError<RemoteError>;

/// A service is one shard of a networked cluster.
impl Shard for RemoteClient {
    type Error = RemoteError;

    fn put(&self, obj: Arc<DataObject>) -> Result<(), RemoteError> {
        RemoteClient::put(self, &obj).map(drop)
    }

    fn get_crossing(
        &self,
        key: &ObjectKey,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<Arc<DataObject>>, RemoteError> {
        let objs =
            RemoteClient::get_crossing(self, &key.name, key.version, query.copied(), crossing);
        Ok(objs?.into_iter().map(Arc::new).collect())
    }

    fn describe(&self, key: &ObjectKey) -> Result<Vec<ObjectDesc>, RemoteError> {
        RemoteClient::describe(self, &key.name, key.version)
    }

    fn evict_before(&self, name: &str, min_version: u64) -> Result<u64, RemoteError> {
        RemoteClient::evict_before(self, name, min_version)
    }

    fn headroom(&self) -> Result<(u64, u64), RemoteError> {
        let s = self.service_stats()?;
        Ok((s.capacity.saturating_sub(s.used), s.tier_disk_headroom))
    }

    fn refuses(err: &RemoteError) -> bool {
        matches!(err, RemoteError::OutOfMemory { .. })
    }
}

/// A client of a sharded staging cluster: a shared handle on a
/// [`Cluster`] of [`RemoteClient`]s, whose calls it derefs to. Cheap to
/// clone (clones share the per-shard connection pools); safe to use from
/// many threads.
#[derive(Clone)]
pub struct ShardedClient(Arc<Cluster<RemoteClient>>);

impl std::ops::Deref for ShardedClient {
    type Target = Cluster<RemoteClient>;

    fn deref(&self) -> &Cluster<RemoteClient> {
        &self.0
    }
}

impl ShardedClient {
    /// Build a client over one service address per shard, placing regions
    /// with `span`-cell buckets (see `ShardMap`). Shard order is
    /// placement: every client of the cluster must list the same
    /// addresses in the same order.
    pub fn connect(
        addrs: &[impl AsRef<str>],
        span: i64,
        cfg: ClientConfig,
    ) -> std::io::Result<Self> {
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "sharded client needs at least one shard address",
            ));
        }
        let shards = addrs
            .iter()
            .map(|a| RemoteClient::connect(a.as_ref(), cfg.clone()))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ShardedClient(Arc::new(Cluster::over(shards, span))))
    }

    /// The cluster as a shared [`xlayer_staging::Staging`] handle.
    pub fn cluster(&self) -> &Arc<Cluster<RemoteClient>> {
        &self.0
    }

    /// The per-shard client, if `shard` is in range.
    pub fn shard_client(&self, shard: usize) -> Option<&RemoteClient> {
        self.shards().get(shard)
    }

    /// [`Cluster::put`] of a borrowed object.
    pub fn put(&self, obj: &DataObject) -> Result<usize, ShardedError> {
        self.0.put(obj.clone())
    }

    /// [`Self::get_crossing`] of every object the query box intersects.
    pub fn get(
        &self,
        name: &str,
        version: u64,
        query: Option<IBox>,
    ) -> Result<Vec<DataObject>, ShardedError> {
        self.get_crossing(name, version, query, None)
    }

    /// [`Cluster::get_crossing`] as owned objects. Every shard filters on
    /// descriptors, so what it drops never crosses the wire.
    pub fn get_crossing(
        &self,
        name: &str,
        version: u64,
        query: Option<IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<DataObject>, ShardedError> {
        let objs = self
            .0
            .get_crossing(name, version, query.as_ref(), crossing)?;
        Ok(objs.into_iter().map(Arc::unwrap_or_clone).collect())
    }

    /// [`Cluster::evict`].
    pub fn evict_before(&self, name: &str, before_version: u64) -> Result<u64, ShardedError> {
        self.0.evict(name, before_version)
    }

    /// Per-shard service snapshots, in shard order — the cluster's Eq. 10
    /// accounting view. One `Stats` round trip per shard; a shard's
    /// failure stays in its own slot.
    pub fn shard_stats(&self) -> Vec<Result<ServiceSnapshot, ShardedError>> {
        self.each(RemoteClient::service_stats)
    }

    /// The memory half of the cluster's `Staging::headroom`.
    pub fn total_headroom(&self) -> u64 {
        xlayer_staging::Staging::headroom(self.0.as_ref()).0
    }

    /// Cluster-wide retry counters: every shard client's `ClientStats`
    /// summed field-wise.
    pub fn client_stats_total(&self) -> crate::client::ClientStats {
        let mut total = crate::client::ClientStats::default();
        self.shards()
            .iter()
            .for_each(|c| total.add(&c.client_stats()));
        total
    }

    /// Ask every shard to shut down. Visits all shards; reports the first
    /// failure (lowest shard id).
    pub fn shutdown_all(&self) -> Result<(), ShardedError> {
        self.each(RemoteClient::shutdown).into_iter().collect()
    }
}

/// An in-process staging cluster: N [`StagingService`] instances, each
/// with its own listener, `DataSpace`, and memory cap. The harness the
/// `staging_cluster` binary, benches, and tests run.
pub struct StagingCluster {
    services: Vec<Option<StagingService>>,
}

impl StagingCluster {
    /// Spawn `shards` services from `template`, each bound to an
    /// ephemeral port on the template address's interface. The template's
    /// `memory_per_server` (× its internal `servers`) is the *per-shard*
    /// cap, so cluster capacity is `shards ×` that — Eq. 10 sized in
    /// servers.
    pub fn start(shards: usize, template: &ServiceConfig) -> std::io::Result<Self> {
        let host = template
            .addr
            .rsplit_once(':')
            .map(|(h, _)| h)
            .unwrap_or("127.0.0.1");
        let addrs: Vec<String> = (0..shards.max(1)).map(|_| format!("{host}:0")).collect();
        Self::start_on(&addrs, template)
    }

    /// Spawn one service per address in `addrs` (shard order = address
    /// order). On any bind failure, already-started shards are shut down
    /// before the error returns.
    pub fn start_on(addrs: &[String], template: &ServiceConfig) -> std::io::Result<Self> {
        let mut services: Vec<Option<StagingService>> = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let mut cfg = template.clone();
            cfg.addr = addr.clone();
            match StagingService::start(cfg) {
                Ok(s) => services.push(Some(s)),
                Err(e) => {
                    for s in services.drain(..).flatten() {
                        s.shutdown();
                    }
                    return Err(e);
                }
            }
        }
        Ok(StagingCluster { services })
    }

    /// Number of shards (including any already stopped).
    pub fn num_shards(&self) -> usize {
        self.services.len()
    }

    /// The running service for `shard`, if any.
    pub fn service(&self, shard: usize) -> Option<&StagingService> {
        self.services.get(shard).and_then(|s| s.as_ref())
    }

    /// Bound addresses in shard order (a stopped shard keeps reporting
    /// the address it had, resolved at start).
    pub fn addrs(&self) -> Vec<String> {
        self.services
            .iter()
            .enumerate()
            .map(|(i, s)| match s {
                Some(svc) => svc.local_addr().to_string(),
                None => format!("shard-{i}-stopped"),
            })
            .collect()
    }

    /// The comma-separated shard list `workflow::native`'s `remote:`
    /// backend and `ShardedClient::connect` accept.
    pub fn addr_list(&self) -> String {
        self.addrs().join(",")
    }

    /// Per-shard accounting snapshots (None for stopped shards): the
    /// cluster-level `Stats` view the resource policy reads.
    pub fn snapshots(&self) -> Vec<Option<ServiceSnapshot>> {
        self.services
            .iter()
            .map(|s| {
                s.as_ref()
                    .map(|svc| svc.stats().snapshot(svc.space(), svc.pool()))
            })
            .collect()
    }

    /// Resident bytes per shard (0 for stopped shards).
    pub fn used_per_shard(&self) -> Vec<u64> {
        self.services
            .iter()
            .map(|s| s.as_ref().map(|svc| svc.space().used()).unwrap_or(0)) // Option: a stopped shard holds nothing
            .collect()
    }

    /// Stop one shard (for fault testing); returns true if it was
    /// running. The other shards keep serving.
    pub fn stop_shard(&mut self, shard: usize) -> bool {
        match self.services.get_mut(shard).and_then(Option::take) {
            Some(svc) => {
                svc.shutdown();
                true
            }
            None => false,
        }
    }

    /// Shut every shard down and wait for their threads.
    pub fn shutdown(mut self) {
        for s in self.services.drain(..).flatten() {
            s.shutdown();
        }
    }

    /// Block until every shard exits (e.g. via a client `Shutdown`).
    pub fn wait(mut self) {
        for s in self.services.drain(..).flatten() {
            s.wait();
        }
    }
}

impl Drop for StagingCluster {
    fn drop(&mut self) {
        for s in self.services.drain(..).flatten() {
            s.shutdown();
        }
    }
}
