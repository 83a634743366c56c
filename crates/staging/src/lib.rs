//! # xlayer-staging — the DataSpaces-like staging substrate
//!
//! An in-memory, versioned, spatially-indexed object store with sharded
//! servers and asynchronous transport: the "interaction and coordination
//! framework" the paper's adaptation runtime is built on (§5.1,
//! DataSpaces [Docan et al., HPDC'10]).
//!
//! * [`backend`] — the one [`Staging`] put/get/evict/headroom interface
//!   the workflow drives,
//! * [`cluster`] — the one [`Staging`] implementation: a [`Cluster`] over
//!   any [`Shard`] owns placement, the ask-every-shard read, its canonical
//!   merge order, eviction and headroom; this crate's [`StagingServer`] and
//!   `xlayer-net`'s remote client are its two kinds of shard,
//! * [`object`] — `(variable, version, bbox)`-addressed data objects whose
//!   descriptors carry their value range, so every layer below can answer
//!   an isovalue-filtered get on metadata alone,
//! * [`codec`] — the one byte encoding of a descriptor and the
//!   little-endian cursors it is written with, shared by the wire
//!   (`xlayer-net`) and the spill log,
//! * [`server`] — staging servers with memory caps (paper Eq. 10),
//! * [`shard`] — deterministic box-hash placement of regions onto shards,
//! * [`space`] — [`DataSpace`], the in-process cluster of staging
//!   servers,
//! * [`tier`] / [`disklog`] — the disk spill tier: policy-driven demotion
//!   of cold versions to a checksummed on-disk object log, with
//!   promote-on-access back into memory,
//! * [`transport`] — asynchronous transfers with back-pressure into any
//!   [`Staging`] backend, and the per-version rendezvous
//!   ([`TransportStats::wait_processed`]) that hands a staged version to
//!   its consumer,
//! * [`sum`] / [`pool`] — the four-lane word-wide integrity sum and the
//!   size-classed buffer pool, shared with the wire layer (`xlayer-net`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cluster;
pub mod codec;
pub mod disklog;
pub mod index;
pub mod object;
pub mod pool;
pub mod server;
pub mod shard;
pub mod space;
pub mod sum;
pub mod tier;
pub mod transport;

pub use backend::{PutVerdict, Staging, Unanswered};
pub use cluster::{Cluster, Shard, ShardError};
pub use disklog::{DiskLog, TierError};
pub use index::BucketIndex;
pub use object::{DataObject, ObjectDesc, ObjectKey, EMPTY_RANGE};
pub use pool::{BufferPool, PooledBuf};
pub use server::{StagingError, StagingServer};
pub use shard::ShardMap;
pub use space::{DataSpace, Sharding};
pub use tier::{DiskTier, ObjectHints, TierConfig, TierSnapshot};
pub use transport::{AsyncStager, BatchClosed, DrainError, StageTask, TransportStats};
