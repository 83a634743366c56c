//! One staging cluster over any kind of [`Shard`] — an in-process
//! [`StagingServer`](crate::StagingServer), or `xlayer-net`'s
//! `RemoteClient` — and the one [`Staging`] implementation. A put goes to
//! its home (the shard its box hashes to) and nowhere else; a read or an
//! eviction asks every shard in shard order on the calling thread, even
//! after one fails, and answers with the lowest failing shard's error or
//! with every part, in `desc_order`; headroom counts a shard that errs
//! as zero. [`DataSpace`](crate::DataSpace) is `Cluster<StagingServer>`
//! and `xlayer_net::ShardedClient` a `Cluster<RemoteClient>`, so both
//! follow these rules by construction.

use crate::backend::{PutVerdict, Staging, Unanswered};
use crate::object::{DataObject, ObjectDesc, ObjectKey};
use crate::shard::ShardMap;
use std::cmp::Ordering;
use std::sync::Arc;
use xlayer_amr::boxes::IBox;

/// One place staged objects live. Every call answers for this shard alone;
/// placement, merging and error choice are the [`Cluster`]'s.
pub trait Shard: Send + Sync {
    /// Why this shard could not answer.
    type Error: std::error::Error + Send + Sync + 'static;

    /// Store one object here.
    fn put(&self, obj: Arc<DataObject>) -> Result<(), Self::Error>;

    /// This shard's objects under `key` intersecting `query` (all if `None`)
    /// that pass `crossing` ([`ObjectDesc::may_cross`]): whole, or an error.
    fn get_crossing(
        &self,
        key: &ObjectKey,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<Arc<DataObject>>, Self::Error>;

    /// Descriptors of this shard's objects under `key`.
    fn describe(&self, key: &ObjectKey) -> Result<Vec<ObjectDesc>, Self::Error>;

    /// Drop this shard's versions of `name` older than `min_version`.
    fn evict_before(&self, name: &str, min_version: u64) -> Result<u64, Self::Error>;

    /// Bytes this shard can still accept, as `(memory, disk tier)`.
    fn headroom(&self) -> Result<(u64, u64), Self::Error>;

    /// Whether a put's `err` is the memory-pressure refusal (paper Eq. 10):
    /// a [`PutVerdict::Rejected`] put, where any other error is `Failed`.
    fn refuses(err: &Self::Error) -> bool;
}

/// A shard's failure, tagged with the shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardError<E> {
    /// The failing shard's index (for a put: the object's home).
    pub shard: usize,
    /// What the shard reported.
    pub source: E,
}

impl<E: std::fmt::Display> std::fmt::Display for ShardError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {}: {}", self.shard, self.source)
    }
}

impl<E: std::error::Error> std::error::Error for ShardError<E> {}

/// A staging area over a fixed list of shards, in placement order (see
/// the module docs for its rules).
#[derive(Debug)]
pub struct Cluster<S> {
    shards: Vec<S>,
    map: ShardMap,
}

impl<S: Shard> Cluster<S> {
    /// A cluster over `shards` (at least one), placing objects with
    /// `span`-cell buckets (see [`ShardMap`]).
    pub fn over(shards: Vec<S>, span: i64) -> Self {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        let map = ShardMap::new(shards.len(), span);
        Cluster { shards, map }
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The placement map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Store an object on its home shard, and only there; returns the home.
    /// Its refusal or failure is the put's error: no other shard is tried.
    pub fn put(&self, obj: impl Into<Arc<DataObject>>) -> Result<usize, ShardError<S::Error>> {
        let obj: Arc<DataObject> = obj.into();
        let shard = self.map.shard_of(&obj.desc.bbox);
        let stored = self.shards[shard].put(obj);
        stored
            .map(|()| shard)
            .map_err(|source| ShardError { shard, source })
    }

    /// Every object under `(name, version)` intersecting `query` that an
    /// isosurface at `crossing` can cross (`None`: no filter), in
    /// `desc_order`; each shard filters on descriptors.
    pub fn get_crossing(
        &self,
        name: &str,
        version: u64,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<Arc<DataObject>>, ShardError<S::Error>> {
        let key = ObjectKey::new(name, version);
        self.gather(|s| s.get_crossing(&key, query, crossing), |o| &o.desc)
    }

    /// Descriptors of every piece of `(name, version)`, in `desc_order`.
    pub fn describe(
        &self,
        name: &str,
        version: u64,
    ) -> Result<Vec<ObjectDesc>, ShardError<S::Error>> {
        let key = ObjectKey::new(name, version);
        self.gather(|s| s.describe(&key), |d| d)
    }

    /// Evict versions of `name` older than `min_version`; bytes freed.
    pub fn evict(&self, name: &str, min_version: u64) -> Result<u64, ShardError<S::Error>> {
        self.each(|s| s.evict_before(name, min_version))
            .into_iter()
            .sum()
    }

    /// Every shard's parts from `op`, merged in `desc_order`.
    fn gather<T>(
        &self,
        op: impl Fn(&S) -> Result<Vec<T>, S::Error>,
        desc: impl Fn(&T) -> &ObjectDesc,
    ) -> Result<Vec<T>, ShardError<S::Error>> {
        let answers: Result<Vec<Vec<T>>, _> = self.each(op).into_iter().collect();
        let mut out: Vec<T> = answers?.into_iter().flatten().collect();
        out.sort_by(|a, b| desc_order(desc(a), desc(b)));
        Ok(out)
    }

    /// `op` on every shard in shard order, on the calling thread, each one
    /// whether or not an earlier one failed; every answer in its own slot.
    pub fn each<T>(
        &self,
        op: impl Fn(&S) -> Result<T, S::Error>,
    ) -> Vec<Result<T, ShardError<S::Error>>> {
        let shards = self.shards.iter().enumerate();
        let answer = |(shard, s)| op(s).map_err(|source| ShardError { shard, source });
        shards.map(answer).collect()
    }
}

/// The canonical `(name, version, bbox.lo, bbox.hi, origin_rank)` order a
/// read's parts come back in (equal keys, as AMR levels' grids at one box
/// can have, keep their shard order).
fn desc_order(a: &ObjectDesc, b: &ObjectDesc) -> Ordering {
    let key = |d: &ObjectDesc| (d.key.version, d.bbox.lo(), d.bbox.hi(), d.origin_rank);
    a.key.name.cmp(&b.key.name).then(key(a).cmp(&key(b)))
}

impl<S: Shard> Staging for Cluster<S> {
    fn put(&self, obj: Arc<DataObject>) -> PutVerdict {
        match Cluster::put(self, obj) {
            Ok(_) => PutVerdict::Stored,
            Err(e) if S::refuses(&e.source) => PutVerdict::Rejected,
            Err(_) => PutVerdict::Failed,
        }
    }

    fn get(
        &self,
        name: &str,
        version: u64,
        query: Option<&IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<Arc<DataObject>>, Unanswered> {
        self.get_crossing(name, version, query, crossing)
            .map_err(|e| Unanswered(e.to_string()))
    }

    fn evict_before(&self, name: &str, min_version: u64) -> Result<u64, Unanswered> {
        self.evict(name, min_version)
            .map_err(|e| Unanswered(e.to_string()))
    }

    fn headroom(&self) -> (u64, u64) {
        // A shard that cannot be asked adds nothing: it counts as full, so
        // the policy never sizes against unreachable staging.
        self.shards
            .iter()
            .filter_map(|s| s.headroom().ok())
            .fold((0, 0), |(mem, disk), (m, d)| {
                (mem.saturating_add(m), disk.saturating_add(d))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use xlayer_amr::fab::Fab;
    use xlayer_amr::intvect::IntVect;

    /// A shard whose every answer is scripted: it holds what it is put,
    /// and when `down` it fails every call, recording each call it saw.
    #[derive(Default)]
    struct Scripted {
        down: bool,
        held: Mutex<Vec<Arc<DataObject>>>,
        calls: Mutex<Vec<&'static str>>,
    }

    #[derive(Debug)]
    struct Down;

    impl std::fmt::Display for Down {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "down")
        }
    }

    impl std::error::Error for Down {}

    impl Scripted {
        fn answer<T>(&self, call: &'static str, up: impl FnOnce() -> T) -> Result<T, Down> {
            self.calls.lock().push(call);
            if self.down {
                Err(Down)
            } else {
                Ok(up())
            }
        }
    }

    impl Shard for Scripted {
        type Error = Down;

        fn put(&self, obj: Arc<DataObject>) -> Result<(), Down> {
            self.answer("put", || self.held.lock().push(obj))
        }

        fn get_crossing(
            &self,
            key: &ObjectKey,
            _: Option<&IBox>,
            _: Option<f64>,
        ) -> Result<Vec<Arc<DataObject>>, Down> {
            self.answer("get", || {
                let held = self.held.lock();
                held.iter()
                    .filter(|o| o.desc.key == *key)
                    .cloned()
                    .collect()
            })
        }

        fn describe(&self, key: &ObjectKey) -> Result<Vec<ObjectDesc>, Down> {
            self.answer("describe", || {
                let held = self.held.lock();
                let mine = held.iter().filter(|o| o.desc.key == *key);
                mine.map(|o| o.desc.clone()).collect()
            })
        }

        fn evict_before(&self, name: &str, min_version: u64) -> Result<u64, Down> {
            self.answer("evict", || {
                let mut held = self.held.lock();
                let before: u64 = held.iter().map(|o| o.desc.bytes).sum();
                held.retain(|o| o.desc.key.name != name || o.desc.key.version >= min_version);
                before - held.iter().map(|o| o.desc.bytes).sum::<u64>()
            })
        }

        fn headroom(&self) -> Result<(u64, u64), Down> {
            self.answer("headroom", || (1000, 10))
        }

        fn refuses(_: &Down) -> bool {
            false
        }
    }

    fn obj(version: u64, lo: i64) -> DataObject {
        let b = IBox::cube(2).shift(IntVect::splat(lo));
        DataObject::from_fab("rho", version, &Fab::filled(b, 1, 1.0), 0, &b, 0)
    }

    fn cluster(n: usize) -> Cluster<Scripted> {
        Cluster::over((0..n).map(|_| Scripted::default()).collect(), 1)
    }

    fn calls(c: &Cluster<Scripted>) -> Vec<Vec<&'static str>> {
        c.shards().iter().map(|s| s.calls.lock().clone()).collect()
    }

    /// Boxes whose homes cover every shard of a `n`-shard cluster.
    fn spread(c: &Cluster<Scripted>) -> Vec<i64> {
        let mut los: Vec<i64> = Vec::new();
        for lo in (0..).map(|i| i * 4) {
            let home = c.map().shard_of(&obj(1, lo).desc.bbox);
            if los
                .iter()
                .all(|&l| c.map().shard_of(&obj(1, l).desc.bbox) != home)
            {
                los.push(lo);
            }
            if los.len() == c.num_shards() {
                return los;
            }
        }
        unreachable!()
    }

    #[test]
    fn a_put_reaches_its_home_alone() {
        let c = cluster(3);
        for lo in [0, 4, 8, 12, 16] {
            let o = obj(1, lo);
            let home = c.map().shard_of(&o.desc.bbox);
            let before = calls(&c);
            assert_eq!(c.put(o).unwrap(), home);
            for (i, (after, before)) in calls(&c).iter().zip(&before).enumerate() {
                let grew = after.len() - before.len();
                assert_eq!(grew, usize::from(i == home), "shard {i} for box at {lo}");
            }
        }
    }

    #[test]
    fn a_read_asks_every_shard_after_one_fails_and_answers_with_its_error() {
        let mut c = cluster(3);
        c.shards[1].down = true;
        c.shards[2].down = true;
        let err = c.get_crossing("rho", 1, None, None).unwrap_err();
        assert_eq!(err.shard, 1, "the lowest failing shard's error");
        assert_eq!(err.to_string(), "shard 1: down");
        assert_eq!(calls(&c), vec![vec!["get"]; 3], "every shard asked");
        let err = Staging::get(&c, "rho", 1, None, None).unwrap_err();
        assert_eq!(err.0, "shard 1: down");
        let err = c.describe("rho", 1).unwrap_err();
        assert_eq!(err.shard, 1);
    }

    #[test]
    fn eviction_visits_every_shard_and_sums() {
        let mut c = cluster(3);
        for lo in spread(&c) {
            c.put(obj(1, lo)).unwrap();
            c.put(obj(2, lo)).unwrap();
        }
        assert_eq!(c.evict("rho", 2).unwrap(), 3 * 64);
        assert_eq!(c.get_crossing("rho", 1, None, None).unwrap().len(), 0);
        assert_eq!(c.get_crossing("rho", 2, None, None).unwrap().len(), 3);

        c.shards[0].down = true;
        let err = Staging::evict_before(&c, "rho", 3).unwrap_err();
        assert_eq!(err.0, "shard 0: down");
        let evicts = |c: &Cluster<Scripted>| {
            calls(c)
                .iter()
                .map(|s| s.iter().filter(|&&k| k == "evict").count())
                .collect::<Vec<_>>()
        };
        assert_eq!(evicts(&c), vec![2, 2, 2], "a failing shard 0 stops none");
        assert!(c.shards[1].held.lock().is_empty() && c.shards[2].held.lock().is_empty());
    }

    #[test]
    fn a_read_comes_back_in_desc_order_whatever_the_shards_hold() {
        let c = cluster(3);
        let los = [28, 0, 12, 4, 20, 8, 16, 24];
        for lo in los {
            c.put(obj(1, lo)).unwrap();
        }
        let got = c.get_crossing("rho", 1, None, None).unwrap();
        let got: Vec<IntVect> = got.iter().map(|o| o.desc.bbox.lo()).collect();
        let mut want: Vec<IntVect> = los.iter().map(|&lo| IntVect::splat(lo)).collect();
        want.sort();
        assert_eq!(got, want);
        let descs = c.describe("rho", 1).unwrap();
        assert!(descs.windows(2).all(|w| desc_order(&w[0], &w[1]).is_lt()));
    }

    #[test]
    fn a_shard_that_errs_counts_zero_headroom() {
        let mut c = cluster(3);
        assert_eq!(Staging::headroom(&c), (3000, 30));
        c.shards[1].down = true;
        assert_eq!(Staging::headroom(&c), (2000, 20));
        assert_eq!(calls(&c), vec![vec!["headroom"; 2]; 3]);
    }
}
