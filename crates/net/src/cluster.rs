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
//! * [`ShardedClient`] — one pooled [`RemoteClient`] per shard, routing
//!   puts by the object's region through a [`ShardMap`]. Every read asks
//!   every shard, one after another in shard order, and merges the
//!   answers deterministically — the same read rule as an in-process
//!   `DataSpace`, so any client sees every stored object its query
//!   intersects, wherever it was placed and whoever staged it. It
//!   implements [`Staging`], so `AsyncStager` and `workflow::native`
//!   drive a cluster through the same handle as an in-process
//!   `DataSpace`. One address is a one-shard cluster: home is always
//!   shard 0, and a read is one call — there is no separate
//!   single-service path above [`RemoteClient`].
//!
//! One home per object: a put goes to the shard its box hashes to and
//! nowhere else. The home's answer is the put's answer — stored (in
//! memory or on that shard's disk tier), the typed `OutOfMemory` policy
//! signal, or a transport error — tagged with the home shard, so the
//! workflow can fall back per object instead of failing the step, and the
//! other shards' pooled connections are untouched. A read or an eviction
//! that a shard cannot answer fails, naming that shard, through the
//! [`Staging`] trait too: a dead shard never reads as an empty one.

use std::net::SocketAddr;
use std::sync::Arc;

use xlayer_amr::boxes::IBox;
use xlayer_staging::{DataObject, ObjectDesc, PutVerdict, ShardMap, Staging, Unanswered};

use crate::client::{ClientConfig, RemoteClient, RemoteError};
use crate::service::{ServiceConfig, StagingService};
use crate::wire::ServiceSnapshot;

/// A remote operation failed on a specific shard.
#[derive(Debug)]
pub struct ShardedError {
    /// The shard the failing operation was routed to (for a put: the
    /// object's home shard, the only one it was sent to).
    pub shard: usize,
    /// That shard's service address.
    pub addr: SocketAddr,
    /// The underlying failure.
    pub source: RemoteError,
}

impl std::fmt::Display for ShardedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} ({}): {}", self.shard, self.addr, self.source)
    }
}

impl std::error::Error for ShardedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

struct ShardedInner {
    shards: Vec<RemoteClient>,
    map: ShardMap,
}

/// A client of a sharded staging cluster. Cheap to clone (clones share
/// the per-shard connection pools); safe to use from many threads.
#[derive(Clone)]
pub struct ShardedClient {
    inner: Arc<ShardedInner>,
}

impl ShardedClient {
    /// Build a client over one service address per shard, placing regions
    /// with `span`-cell buckets (see [`ShardMap`]). Shard order is
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
        Ok(ShardedClient {
            inner: Arc::new(ShardedInner {
                map: ShardMap::new(shards.len(), span),
                shards,
            }),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The placement map (shared by construction with every other client
    /// of the same address list).
    pub fn map(&self) -> &ShardMap {
        &self.inner.map
    }

    /// The per-shard client, if `shard` is in range.
    pub fn shard_client(&self, shard: usize) -> Option<&RemoteClient> {
        self.inner.shards.get(shard)
    }

    fn err_on(&self, shard: usize, source: RemoteError) -> ShardedError {
        let addr = self
            .inner
            .shards
            .get(shard)
            .map(|c| c.addr())
            .unwrap_or_else(|| SocketAddr::from(([0, 0, 0, 0], 0)));
        ShardedError {
            shard,
            addr,
            source,
        }
    }

    /// Store one object on its home shard and return that shard. The
    /// home's refusal (`OutOfMemory`) or transport error
    /// is the put's error, tagged with the home: no sibling is tried, so a
    /// full or dead shard is visible, never silently remapped.
    pub fn put(&self, obj: &DataObject) -> Result<usize, ShardedError> {
        let home = self.inner.map.shard_of(&obj.desc.bbox);
        let Some(home_client) = self.inner.shards.get(home) else {
            return Err(self.err_on(
                home,
                RemoteError::Protocol(format!("placement chose shard {home} out of range")),
            ));
        };
        home_client
            .put(obj)
            .map(|_| home)
            .map_err(|e| self.err_on(home, e))
    }

    /// Fetch the objects under `(name, version)` intersecting `query`
    /// (all objects of the version if `None`) from every shard, merged
    /// into one list sorted by `(name, version, bbox.lo, bbox.hi,
    /// origin_rank)` — the same total order no matter how objects were
    /// distributed, so the sharded read path is bit-compatible with a
    /// single server's.
    ///
    /// The first failing shard (lowest shard id) surfaces as the typed
    /// error; healthy shards' pooled connections are unaffected.
    pub fn get(
        &self,
        name: &str,
        version: u64,
        query: Option<IBox>,
    ) -> Result<Vec<DataObject>, ShardedError> {
        self.get_crossing(name, version, query, None)
    }

    /// [`Self::get`] of only the objects an isosurface at `crossing` can
    /// cross (`ObjectDesc::may_cross`; all of them if `None`): every shard
    /// filters on descriptors, so what it drops never crosses the wire.
    pub fn get_crossing(
        &self,
        name: &str,
        version: u64,
        query: Option<IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<DataObject>, ShardedError> {
        let fetched = self.scatter(|c| c.get_crossing(name, version, query, crossing))?;
        let mut out: Vec<DataObject> = fetched.into_iter().flatten().collect();
        sort_objects(&mut out);
        Ok(out)
    }

    /// Fetch descriptors under `(name, version)` from every shard —
    /// metadata only, merged in the same deterministic order as
    /// [`Self::get`].
    pub fn describe(&self, name: &str, version: u64) -> Result<Vec<ObjectDesc>, ShardedError> {
        let fetched = self.scatter(|c| c.describe(name, version))?;
        let mut out: Vec<ObjectDesc> = fetched.into_iter().flatten().collect();
        sort_descs(&mut out);
        Ok(out)
    }

    /// Run `op` against every shard in shard order; results come back in
    /// that order, and the failure on the lowest shard id wins.
    fn scatter<T>(
        &self,
        op: impl Fn(&RemoteClient) -> Result<T, RemoteError>,
    ) -> Result<Vec<T>, ShardedError> {
        self.scatter_each(op).into_iter().collect()
    }

    /// [`Self::scatter`] with every shard's outcome kept in its own slot:
    /// every shard is asked whether or not an earlier one failed.
    fn scatter_each<T>(
        &self,
        op: impl Fn(&RemoteClient) -> Result<T, RemoteError>,
    ) -> Vec<Result<T, ShardedError>> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, client)| op(client).map_err(|e| self.err_on(i, e)))
            .collect()
    }

    /// Evict versions of `name` older than `before_version` on every
    /// shard; returns total bytes freed. Visits every shard even when one
    /// fails, then reports the failure on the lowest shard id.
    pub fn evict_before(&self, name: &str, before_version: u64) -> Result<u64, ShardedError> {
        let freed = self.scatter(|c| c.evict_before(name, before_version))?;
        Ok(freed.into_iter().sum())
    }

    /// Per-shard service snapshots, in shard order — the cluster's Eq. 10
    /// accounting view (per-shard `used`/`capacity`, op counters). One
    /// `Stats` round trip per shard; a shard's failure stays in its own
    /// slot.
    pub fn shard_stats(&self) -> Vec<Result<ServiceSnapshot, ShardedError>> {
        self.scatter_each(|c| c.service_stats())
    }

    /// Free bytes across reachable shards as `(memory, disk tier)`, both
    /// from the one `Stats` snapshot per shard — what the resource policy
    /// (Eq. 9–10) and the pressure policy size against. Unreachable shards
    /// count zero; the sums saturate (an unbounded disk budget reports
    /// `u64::MAX`).
    pub fn headroom(&self) -> (u64, u64) {
        self.shard_stats().into_iter().filter_map(|r| r.ok()).fold(
            (0u64, 0u64),
            |(mem, disk), s| {
                (
                    mem.saturating_add(s.capacity.saturating_sub(s.used)),
                    disk.saturating_add(s.tier_disk_headroom),
                )
            },
        )
    }

    /// The memory half of [`Self::headroom`].
    pub fn total_headroom(&self) -> u64 {
        self.headroom().0
    }

    /// Cluster-wide retry counters: every shard client's [`ClientStats`]
    /// summed field-wise.
    pub fn client_stats_total(&self) -> crate::client::ClientStats {
        let mut total = crate::client::ClientStats::default();
        for c in &self.inner.shards {
            total.add(&c.client_stats());
        }
        total
    }

    /// Ask every shard to shut down. Visits all shards; reports the first
    /// failure (lowest shard id).
    pub fn shutdown_all(&self) -> Result<(), ShardedError> {
        self.scatter(|c| c.shutdown()).map(drop)
    }
}

/// Sort objects into the cluster's canonical merge order.
fn sort_objects(objs: &mut [DataObject]) {
    objs.sort_by(|a, b| desc_order(&a.desc, &b.desc));
}

/// Sort descriptors into the cluster's canonical merge order.
fn sort_descs(descs: &mut [ObjectDesc]) {
    descs.sort_by(desc_order);
}

/// The canonical `(name, version, bbox.lo, bbox.hi, origin_rank)` order
/// gathered results are merged in. Total for distinct objects: two
/// objects of one `(name, version)` are distinct by region or producer.
fn desc_order(a: &ObjectDesc, b: &ObjectDesc) -> std::cmp::Ordering {
    (
        &a.key.name,
        a.key.version,
        a.bbox.lo(),
        a.bbox.hi(),
        a.origin_rank,
    )
        .cmp(&(
            &b.key.name,
            b.key.version,
            b.bbox.lo(),
            b.bbox.hi(),
            b.origin_rank,
        ))
}

impl Staging for ShardedClient {
    fn put(&self, obj: Arc<DataObject>) -> PutVerdict {
        match ShardedClient::put(self, &obj) {
            Ok(_) => PutVerdict::Stored,
            Err(e) => match e.source {
                RemoteError::OutOfMemory { .. } => PutVerdict::Rejected,
                _ => PutVerdict::Failed,
            },
        }
    }

    fn get(
        &self,
        name: &str,
        version: u64,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<Arc<DataObject>>, Unanswered> {
        ShardedClient::get_crossing(self, name, version, query.copied(), crossing)
            .map(|objs| objs.into_iter().map(Arc::new).collect())
            .map_err(|e| Unanswered(e.to_string()))
    }

    fn evict_before(&self, name: &str, min_version: u64) -> Result<u64, Unanswered> {
        ShardedClient::evict_before(self, name, min_version).map_err(|e| Unanswered(e.to_string()))
    }

    fn headroom(&self) -> (u64, u64) {
        ShardedClient::headroom(self)
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
            .map(|s| s.as_ref().map(|svc| svc.space().used()).unwrap_or(0))
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
