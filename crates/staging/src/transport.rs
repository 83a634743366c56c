//! Asynchronous data transport into the staging space.
//!
//! The paper's middleware relies on DataSpaces' asynchronous transfers:
//! "the data will be asynchronously transferred to staging nodes
//! immediately, and get processed as soon as in-transit cores become
//! available" (§4.2). [`AsyncStager`] reproduces that behaviour with a
//! bounded queue drained by transfer threads — the only asynchronous put
//! pipeline in the workspace: it drives an `Arc<dyn Staging>`, so the same
//! threads, queue discipline and accounting serve the in-process space and
//! a staging cluster across a socket.
//!
//! Consumers that must observe a *specific* version's objects (an
//! in-transit analysis worker picking up step `i` while the producer is
//! already enqueueing step `i+1`) synchronise on
//! [`TransportStats::wait_processed`], the workspace's one way to hand a
//! staged version to its consumer: per-key processed counts, not a global
//! tally, because with multiple transfer threads later-version objects can
//! complete while an earlier one is still in flight.

use crate::backend::{PutVerdict, Staging};
use crate::object::{DataObject, ObjectKey};
use crossbeam::channel::{bounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The per-key rendezvous state behind [`TransportStats`]. The counts map
/// is transient bookkeeping: it exists to let consumers wait for in-flight
/// transfers, and is pruned wholesale when the transport closes — a
/// long-running workflow must not leak an entry per (key, version) forever.
#[derive(Debug, Default)]
struct ProcessedMap {
    counts: HashMap<ObjectKey, u64>,
    closed: bool,
}

/// Statistics of an async transport session.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Objects successfully staged.
    pub delivered: AtomicU64,
    /// Bytes successfully staged.
    pub bytes: AtomicU64,
    /// Puts the backend turned down on policy: staging memory (and its
    /// disk tier, if any) exhausted ([`PutVerdict::Rejected`]).
    pub rejected: AtomicU64,
    /// Objects lost to terminal transport failure ([`PutVerdict::Failed`]:
    /// e.g. a staging service unreachable after retries), so delivered +
    /// rejected + failed covers every enqueued object on every backend.
    pub failed: AtomicU64,
    /// Per-key processed counts (delivered + rejected + failed), for
    /// consumers that wait on a specific version's transfers.
    processed: Mutex<ProcessedMap>,
    cv: Condvar,
}

impl TransportStats {
    /// Record that `n` objects under `key` finished processing (stored,
    /// rejected, or failed) and wake any waiters, in one lock acquisition —
    /// a transfer thread counts a whole run's transfers with a single
    /// notify instead of one waiter wake-up per object.
    pub fn note_processed_n(&self, key: &ObjectKey, n: u64) {
        if n == 0 {
            return;
        }
        let mut map = self.processed.lock();
        if !map.closed {
            *map.counts.entry(key.clone()).or_insert(0) += n;
        }
        drop(map);
        self.cv.notify_all();
    }

    /// Objects processed so far under `key`. Returns 0 after the transport
    /// closed (the rendezvous map is pruned then).
    pub fn processed(&self, name: &str, version: u64) -> u64 {
        let key = ObjectKey::new(name, version);
        self.processed.lock().counts.get(&key).copied().unwrap_or(0)
    }

    /// Number of (key, version) entries currently held in the rendezvous
    /// map. Exposed so tests can assert the map is pruned on drain.
    pub fn tracked_keys(&self) -> usize {
        self.processed.lock().counts.len()
    }

    /// Block until at least `expected` objects under (`name`, `version`)
    /// have been processed — delivered, rejected *or* failed; a rejected
    /// put still counts as "the transfer finished", so waiters never
    /// deadlock on an out-of-memory staging space.
    ///
    /// Also returns once the transport closes: after close no further
    /// transfers can arrive, every in-flight one has finished, and the
    /// per-key counts have been pruned, so continuing to wait on a count
    /// could only deadlock.
    pub fn wait_processed(&self, name: &str, version: u64, expected: u64) {
        if expected == 0 {
            return;
        }
        let key = ObjectKey::new(name, version);
        // xlint: allow(L) -- the condvar wait releases this guard while blocked
        let mut map = self.processed.lock();
        while !map.closed && map.counts.get(&key).copied().unwrap_or(0) < expected {
            self.cv.wait(&mut map);
        }
    }

    /// Mark the transport closed and prune the rendezvous map. Called by
    /// the owning stager once its transfer workers have joined — every
    /// waiter is released (all transfers are finished by then) and the
    /// per-key entries, which would otherwise accumulate for the life of
    /// the workflow, are dropped.
    pub fn close(&self) {
        let mut map = self.processed.lock();
        map.closed = true;
        map.counts = HashMap::new();
        drop(map);
        self.cv.notify_all();
    }
}

/// One unit of work for the transfer threads: a packed object to store.
pub enum StageTask {
    /// A fully-packed object.
    Ready(DataObject),
}

impl StageTask {
    /// The object to store.
    pub fn materialize(self) -> DataObject {
        let StageTask::Ready(obj) = self;
        obj
    }
}

impl std::fmt::Debug for StageTask {
    // The key, not the payload: a refused batch's error prints its tasks.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let StageTask::Ready(obj) = self;
        f.debug_tuple("Ready").field(&obj.desc.key).finish()
    }
}

/// A batch put was refused because the transport is shut down. Carries
/// back every task that did *not* enter the queue (`rest`), plus how many
/// of the batch did (`enqueued`) — the caller stores the remainder
/// synchronously and counts only the enqueued ones toward the transport's
/// rendezvous.
#[derive(Debug)]
pub struct BatchClosed {
    /// Tasks from the front of the batch that the queue accepted before
    /// closing; they stay in flight and are counted by the transfer
    /// threads.
    pub enqueued: u64,
    /// The tasks handed back, in their original order.
    pub rest: Vec<StageTask>,
}

impl std::fmt::Display for BatchClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "async transport closed; {} of a batch enqueued, {} task(s) returned to caller",
            self.enqueued,
            self.rest.len()
        )
    }
}

impl std::error::Error for BatchClosed {}

/// A transfer worker panicked while the stager drained; the counts cover
/// only what the surviving workers processed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrainError {
    /// Workers that did not join cleanly.
    pub panicked: usize,
    /// Objects delivered by the workers that did.
    pub delivered: u64,
    /// Puts rejected by the backend.
    pub rejected: u64,
}

impl std::fmt::Display for DrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} transfer thread(s) panicked during drain ({} delivered, {} rejected)",
            self.panicked, self.delivered, self.rejected
        )
    }
}

impl std::error::Error for DrainError {}

/// Longest run a transfer thread drains before answering the rendezvous:
/// capped so a producer that outpaces the backend still sees back-pressure
/// from the bounded queue.
const MAX_RUN: usize = 64;

/// An asynchronous put pipeline: `put_batch` enqueues and returns
/// immediately; transfer threads drain the queue into the [`Staging`]
/// backend.
///
/// The queue carries [`StageTask`]s singly, so a step's batch fans out
/// across the transfer threads (over the wire: down that many connections
/// at once). Each thread greedy-drains whatever is already queued after
/// its blocking receive and answers the rendezvous once per key per run —
/// not one wake-up per object ping-ponging the stats lock between the
/// transfer thread and a waiting consumer.
pub struct AsyncStager {
    tx: Option<Sender<StageTask>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<TransportStats>,
}

impl AsyncStager {
    /// Start `nthreads` transfer threads over `backend` with a queue depth
    /// of `queue_depth` tasks. Generic only so that an `Arc::clone` of a
    /// concrete backend infers at the call site; the stager itself holds
    /// an `Arc<dyn Staging>`.
    pub fn new(backend: Arc<impl Staging + 'static>, nthreads: usize, queue_depth: usize) -> Self {
        assert!(nthreads > 0);
        let backend: Arc<dyn Staging> = backend;
        let (tx, rx) = bounded::<StageTask>(queue_depth.max(1));
        let stats = Arc::new(TransportStats::default());
        let workers = (0..nthreads)
            .map(|_| {
                let rx = rx.clone();
                let backend = Arc::clone(&backend);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    let mut run: Vec<StageTask> = Vec::new();
                    while let Ok(task) = rx.recv() {
                        run.push(task);
                        while run.len() < MAX_RUN {
                            match rx.try_recv() {
                                Ok(t) => run.push(t),
                                Err(_) => break,
                            }
                        }
                        // Per-key processed tally for this run; a run
                        // rarely spans more than one key, so a flat Vec
                        // beats a map.
                        let mut notes: Vec<(ObjectKey, u64)> = Vec::new();
                        for task in run.drain(..) {
                            let obj = task.materialize();
                            let bytes = obj.desc.bytes;
                            let key = obj.desc.key.clone();
                            match backend.put(Arc::new(obj)) {
                                PutVerdict::Stored => {
                                    stats.delivered.fetch_add(1, Ordering::Relaxed);
                                    stats.bytes.fetch_add(bytes, Ordering::Relaxed);
                                }
                                PutVerdict::Rejected => {
                                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                                }
                                PutVerdict::Failed => {
                                    stats.failed.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            match notes.iter_mut().find(|(k, _)| *k == key) {
                                Some((_, n)) => *n += 1,
                                None => notes.push((key, 1)),
                            }
                        }
                        for (key, n) in notes {
                            stats.note_processed_n(&key, n);
                        }
                    }
                })
            })
            .collect();
        AsyncStager {
            tx: Some(tx),
            workers,
            stats,
        }
    }

    /// Enqueue a batch of tasks in order. Blocks only when the queue is
    /// full (back-pressure), never on the actual transfer. On a closed
    /// transport (after shutdown, or if every transfer thread died) the
    /// unsent remainder comes back in the error so the caller can store it
    /// synchronously — no payload is lost to the error path; tasks already
    /// accepted stay in flight.
    pub fn put_batch(&self, tasks: Vec<StageTask>) -> Result<(), BatchClosed> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(BatchClosed {
                enqueued: 0,
                rest: tasks,
            });
        };
        let mut enqueued = 0u64;
        let mut it = tasks.into_iter();
        while let Some(task) = it.next() {
            match tx.send(task) {
                Ok(()) => enqueued += 1,
                Err(e) => {
                    let mut rest = vec![e.0];
                    rest.extend(it);
                    return Err(BatchClosed { enqueued, rest });
                }
            }
        }
        Ok(())
    }

    /// Shared statistics handle — clone to let a consumer thread call
    /// [`TransportStats::wait_processed`] independently of the stager.
    pub fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.stats)
    }

    /// Close the queue and wait until every enqueued object is delivered.
    /// Returns (delivered, rejected); a panicked transfer thread surfaces
    /// as a [`DrainError`] (still carrying the surviving counts) instead
    /// of re-panicking the caller.
    pub fn drain(mut self) -> Result<(u64, u64), DrainError> {
        drop(self.tx.take());
        let mut panicked = 0;
        for w in self.workers.drain(..) {
            if w.join().is_err() {
                panicked += 1;
            }
        }
        let delivered = self.stats.delivered.load(Ordering::Relaxed);
        let rejected = self.stats.rejected.load(Ordering::Relaxed);
        if panicked > 0 {
            return Err(DrainError {
                panicked,
                delivered,
                rejected,
            });
        }
        Ok((delivered, rejected))
    }
}

impl Drop for AsyncStager {
    // `drain(mut self)` ends here too, so close-and-prune runs on both the
    // explicit and the implicit shutdown path.
    fn drop(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Unanswered;
    use crate::space::{DataSpace, Sharding};
    use xlayer_amr::boxes::IBox;
    use xlayer_amr::fab::Fab;
    use xlayer_amr::intvect::IntVect;

    fn obj(version: u64, lo: i64) -> DataObject {
        let b = IBox::cube(4).shift(IntVect::splat(lo));
        let fab = Fab::filled(b, 1, 1.0);
        DataObject::from_fab("rho", version, &fab, 0, &b, 0)
    }

    /// Enqueue one object as a batch of one.
    fn put(stager: &AsyncStager, obj: DataObject) -> Result<(), BatchClosed> {
        stager.put_batch(vec![StageTask::Ready(obj)])
    }

    #[test]
    fn async_puts_all_arrive() {
        let space = Arc::new(DataSpace::new(4, 1 << 20, Sharding::BboxHash));
        let stager = AsyncStager::new(Arc::clone(&space), 2, 8);
        for v in 0..20 {
            put(&stager, obj(v, (v as i64 % 5) * 8)).unwrap();
        }
        let (delivered, rejected) = stager.drain().unwrap();
        assert_eq!(delivered, 20);
        assert_eq!(rejected, 0);
        for v in 0..20 {
            assert_eq!(space.get("rho", v, None).len(), 1, "version {v} missing");
        }
    }

    #[test]
    fn put_returns_before_delivery_completes() {
        // With a deep queue and 1 worker, puts must not block.
        let space = Arc::new(DataSpace::new(1, 1 << 30, Sharding::BboxHash));
        let stager = AsyncStager::new(Arc::clone(&space), 1, 64);
        let t0 = std::time::Instant::now();
        for v in 0..32 {
            put(&stager, obj(v, 0)).unwrap();
        }
        let enqueue_time = t0.elapsed();
        let (delivered, _) = stager.drain().unwrap();
        assert_eq!(delivered, 32);
        // Enqueueing 32 tiny objects should be far faster than any real
        // transfer would be; this is a smoke check that put() is async.
        assert!(enqueue_time.as_millis() < 1000);
    }

    #[test]
    fn oom_counted_not_fatal() {
        // Space fits exactly one 512 B object.
        let space = Arc::new(DataSpace::new(1, 600, Sharding::BboxHash));
        let stager = AsyncStager::new(Arc::clone(&space), 1, 4);
        put(&stager, obj(1, 0)).unwrap();
        put(&stager, obj(2, 0)).unwrap();
        let (delivered, rejected) = stager.drain().unwrap();
        assert_eq!(delivered, 1);
        assert_eq!(rejected, 1);
    }

    #[test]
    fn bytes_accounting() {
        let space = Arc::new(DataSpace::new(2, 1 << 20, Sharding::BboxHash));
        let stager = AsyncStager::new(Arc::clone(&space), 2, 4);
        put(&stager, obj(1, 0)).unwrap();
        put(&stager, obj(1, 8)).unwrap();
        let stats_bytes = {
            let s = stager;
            let (d, _) = s.drain().unwrap();
            assert_eq!(d, 2);
            space.used()
        };
        assert_eq!(stats_bytes, 2 * 512);
    }

    #[test]
    fn wait_processed_blocks_until_version_lands() {
        let space = Arc::new(DataSpace::new(2, 1 << 20, Sharding::BboxHash));
        let stager = AsyncStager::new(Arc::clone(&space), 2, 16);
        let stats = stager.stats();
        let consumer = {
            let space = Arc::clone(&space);
            std::thread::spawn(move || {
                stats.wait_processed("rho", 3, 4);
                // All four version-3 objects must be visible now.
                space.get("rho", 3, None).len()
            })
        };
        for i in 0..4 {
            put(&stager, obj(3, i * 8)).unwrap();
        }
        assert_eq!(consumer.join().unwrap(), 4);
        stager.drain().unwrap();
    }

    #[test]
    fn wait_processed_counts_rejected_puts() {
        // Space fits one object; the second put is rejected but must still
        // unblock the waiter.
        let space = Arc::new(DataSpace::new(1, 600, Sharding::BboxHash));
        let stager = AsyncStager::new(Arc::clone(&space), 1, 4);
        put(&stager, obj(5, 0)).unwrap();
        put(&stager, obj(5, 8)).unwrap();
        let stats = stager.stats();
        stats.wait_processed("rho", 5, 2);
        assert_eq!(stats.processed("rho", 5), 2);
        let (delivered, rejected) = stager.drain().unwrap();
        assert_eq!((delivered, rejected), (1, 1));
    }

    #[test]
    fn wait_processed_is_per_version_not_cumulative() {
        let space = Arc::new(DataSpace::new(2, 1 << 20, Sharding::BboxHash));
        let stager = AsyncStager::new(Arc::clone(&space), 2, 16);
        let stats = stager.stats();
        // Three objects at version 9 — waiting on version 9 must not be
        // satisfied by objects of other versions.
        put(&stager, obj(8, 0)).unwrap();
        put(&stager, obj(8, 8)).unwrap();
        put(&stager, obj(9, 0)).unwrap();
        stats.wait_processed("rho", 8, 2);
        stats.wait_processed("rho", 9, 1);
        assert_eq!(stats.processed("rho", 8), 2);
        assert_eq!(stats.processed("rho", 9), 1);
        assert_eq!(stats.processed("rho", 7), 0);
        let (delivered, _) = stager.drain().unwrap();
        assert_eq!(delivered, 3);
    }

    #[test]
    fn processed_map_is_pruned_on_drain() {
        // Regression: the per-(key, version) rendezvous map used to grow
        // without bound for the life of the workflow — one entry per put
        // key, never removed. Drain must prune it.
        let space = Arc::new(DataSpace::new(2, 1 << 20, Sharding::BboxHash));
        let stager = AsyncStager::new(Arc::clone(&space), 2, 16);
        let stats = stager.stats();
        for v in 0..50 {
            put(&stager, obj(v, 0)).unwrap();
        }
        stager.drain().unwrap();
        assert_eq!(stats.tracked_keys(), 0, "rendezvous map leaked entries");
        // Released waiters, not deadlock: waiting on a count that can no
        // longer arrive returns immediately once the transport is closed.
        stats.wait_processed("rho", 1000, 5);
        // Aggregate counters survive the prune.
        assert_eq!(stats.delivered.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn batch_put_delivers_every_task() {
        let space = Arc::new(DataSpace::new(2, 1 << 20, Sharding::BboxHash));
        let stager = AsyncStager::new(Arc::clone(&space), 2, 4);
        let stats = stager.stats();
        // One batch of three objects, larger than one transfer thread's
        // share of the queue.
        stager
            .put_batch(vec![
                StageTask::Ready(obj(1, 0)),
                StageTask::Ready(obj(1, 8)),
                StageTask::Ready(obj(1, 16)),
            ])
            .unwrap();
        stats.wait_processed("rho", 1, 3);
        assert_eq!(space.get("rho", 1, None).len(), 3);
        let (delivered, rejected) = stager.drain().unwrap();
        assert_eq!((delivered, rejected), (3, 0));
    }

    #[test]
    fn batch_put_after_drain_returns_every_task() {
        let space = Arc::new(DataSpace::new(1, 1 << 20, Sharding::BboxHash));
        let stager = AsyncStager::new(Arc::clone(&space), 1, 4);
        let stats = stager.stats();
        // Empty batches are a no-op even on a live transport.
        stager.put_batch(Vec::new()).unwrap();
        // Steal the sender to simulate a dead transport while keeping the
        // stager value alive.
        let dead = AsyncStager {
            tx: None,
            workers: Vec::new(),
            stats: Arc::clone(&stats),
        };
        let err = dead
            .put_batch(vec![
                StageTask::Ready(obj(2, 0)),
                StageTask::Ready(obj(2, 8)),
            ])
            .unwrap_err();
        assert_eq!(err.enqueued, 0);
        assert_eq!(err.rest.len(), 2);
        // Nothing was lost: the caller can store the objects directly.
        for task in err.rest {
            space.put(task.materialize()).unwrap();
        }
        assert_eq!(space.get("rho", 2, None).len(), 2);
        stager.drain().unwrap();
    }

    #[test]
    fn single_put_on_a_closed_transport_returns_the_object() {
        let dead = AsyncStager {
            tx: None,
            workers: Vec::new(),
            stats: Arc::new(TransportStats::default()),
        };
        let BatchClosed { enqueued, rest } = put(&dead, obj(3, 0)).unwrap_err();
        assert_eq!((enqueued, rest.len()), (0, 1));
        let back = rest.into_iter().next().unwrap().materialize();
        assert_eq!(back.desc.key, crate::object::ObjectKey::new("rho", 3));
    }

    /// A backend that answers puts with each verdict in turn and stores
    /// nothing.
    struct Scripted(AtomicU64);

    impl Staging for Scripted {
        fn put(&self, _obj: Arc<DataObject>) -> PutVerdict {
            match self.0.fetch_add(1, Ordering::Relaxed) % 3 {
                0 => PutVerdict::Stored,
                1 => PutVerdict::Rejected,
                _ => PutVerdict::Failed,
            }
        }
        fn get(
            &self,
            _: &str,
            _: u64,
            _: Option<&IBox>,
            _: Option<f64>,
        ) -> Result<Vec<Arc<DataObject>>, Unanswered> {
            Ok(Vec::new())
        }
        fn evict_before(&self, _: &str, _: u64) -> Result<u64, Unanswered> {
            Ok(0)
        }
        fn headroom(&self) -> (u64, u64) {
            (0, 0)
        }
    }

    #[test]
    fn every_verdict_is_counted_once_and_answers_the_rendezvous() {
        // One transfer thread, so the verdicts land in enqueue order:
        // version v gets verdict v % 3, twice over.
        let stager = AsyncStager::new(Arc::new(Scripted(AtomicU64::new(0))), 1, 4);
        let stats = stager.stats();
        let enqueued = 6u64;
        stager
            .put_batch((0..enqueued).map(|v| StageTask::Ready(obj(v, 0))).collect())
            .unwrap();
        // Stored, rejected and failed puts all finish the transfer: a
        // waiter on any version is released.
        for v in 0..enqueued {
            stats.wait_processed("rho", v, 1);
            assert_eq!(stats.processed("rho", v), 1, "version {v}");
        }
        let (delivered, rejected) = stager.drain().unwrap();
        let failed = stats.failed.load(Ordering::Relaxed);
        assert_eq!((delivered, rejected, failed), (2, 2, 2));
        assert_eq!(delivered + rejected + failed, enqueued);
        assert_eq!(stats.bytes.load(Ordering::Relaxed), 2 * 512);
    }

    #[test]
    fn drop_also_prunes_and_releases_waiters() {
        let space = Arc::new(DataSpace::new(1, 1 << 20, Sharding::BboxHash));
        let stager = AsyncStager::new(Arc::clone(&space), 1, 4);
        let stats = stager.stats();
        put(&stager, obj(0, 0)).unwrap();
        let waiter = {
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || stats.wait_processed("rho", 7, 1))
        };
        drop(stager);
        waiter.join().unwrap();
        assert_eq!(stats.tracked_keys(), 0);
    }
}
