//! The one staging interface.
//!
//! The paper's middleware sees a single DataSpaces put/get/evict surface
//! wherever the staging area physically sits. [`Staging`] is that surface:
//! the in-process [`DataSpace`] implements it here, the networked
//! `ShardedClient` (one shard or many) implements it in `xlayer-net`, and
//! everything above — the asynchronous transport, the native workflow's
//! producers and analysis workers — holds an `Arc<dyn Staging>` and never
//! asks which one it got.

use crate::object::DataObject;
use crate::server::StagingError;
use crate::space::DataSpace;
use std::sync::Arc;
use xlayer_amr::boxes::IBox;

/// How a backend answered one put. The three outcomes every backend can
/// produce, so accounting (delivered / rejected / failed) is written once
/// against this enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a put that was not `Stored` dropped the object"]
pub enum PutVerdict {
    /// The object is resident (in memory or on the disk tier).
    Stored,
    /// Staging memory — and the disk tier behind it, if any — is
    /// exhausted: the paper's memory-pressure policy signal (Eq. 10).
    Rejected,
    /// The backend could not be reached or answered unintelligibly after
    /// its own retries. Never produced by an in-process space.
    Failed,
}

/// A backend could not answer a read or an eviction. The text says where
/// it failed: a cluster's names the failing shard and its address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unanswered(pub String);

impl std::fmt::Display for Unanswered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "staging did not answer: {}", self.0)
    }
}

impl std::error::Error for Unanswered {}

/// A staging area addressed by `(variable, version, box)`.
///
/// Only the calls the workflow makes: anything backend-specific (tier
/// hints, per-shard pressure counters, retry counters) stays on the concrete
/// type.
pub trait Staging: Send + Sync {
    /// Store one object.
    fn put(&self, obj: Arc<DataObject>) -> PutVerdict;

    /// All objects under `(name, version)` intersecting `query` (every
    /// object of the version if `None`) that pass the `crossing` isovalue
    /// predicate ([`crate::ObjectDesc::may_cross`]; every object if
    /// `None`). Every layer evaluates both filters on descriptors, before
    /// a payload byte is read, framed or sent. Part order within a version
    /// is backend-defined. A backend that cannot reach part of the
    /// staging area (a dead shard) says so, rather than answering with
    /// what the rest holds.
    fn get(
        &self,
        name: &str,
        version: u64,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<Arc<DataObject>>, Unanswered>;

    /// Evict versions of `name` older than `min_version`; returns bytes
    /// freed, or the failure of a backend that could not evict everywhere.
    fn evict_before(&self, name: &str, min_version: u64) -> Result<u64, Unanswered>;

    /// Bytes the backend can still accept, as `(memory, disk tier)` — the
    /// engine's pressure inputs. A backend that cannot be asked reports
    /// zero, so the policy treats unreachable staging as full, never as
    /// infinite.
    fn headroom(&self) -> (u64, u64);
}

impl Staging for DataSpace {
    fn put(&self, obj: Arc<DataObject>) -> PutVerdict {
        match DataSpace::put(self, obj) {
            Ok(_) => PutVerdict::Stored,
            Err(StagingError::OutOfMemory { .. }) => PutVerdict::Rejected,
        }
    }

    fn get(
        &self,
        name: &str,
        version: u64,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<Arc<DataObject>>, Unanswered> {
        Ok(DataSpace::get_crossing(
            self, name, version, query, crossing,
        ))
    }

    fn evict_before(&self, name: &str, min_version: u64) -> Result<u64, Unanswered> {
        Ok(DataSpace::evict_before(self, name, min_version))
    }

    fn headroom(&self) -> (u64, u64) {
        (
            self.capacity().saturating_sub(self.used()),
            self.disk_headroom(),
        )
    }
}
