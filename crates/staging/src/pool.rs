//! A size-classed pool of reusable byte buffers for the data hot paths.
//!
//! Every frame the networked service or client touches — and every extent
//! the disk tier reads back — needs a scratch `Vec<u8>`: an encoded body, a
//! received payload, a chunk in flight, a promoted extent. Allocating one
//! per operation puts the allocator on the steady-state put/get path; the
//! pool instead recycles buffers through power-of-two size classes so a
//! warmed-up connection performs **zero allocations per op**. That claim is
//! checkable: the pool counts hits, misses and outstanding buffers with
//! relaxed atomics, and the networked service surfaces the counters through
//! its `Stats` opcode (`pool_hits`/`pool_misses`/`pool_outstanding`).
//!
//! Lifecycle: [`BufferPool::acquire`] hands out a [`PooledBuf`] guard sized
//! (and zero-filled) to the requested length; dropping the guard returns
//! the buffer to its size class — including on every error path, which is
//! exactly why the return is in `Drop` and not an explicit call. A buffer
//! that left the pool for good ([`PooledBuf::into_vec`], say as a promoted
//! extent's payload) can come back through `BufferPool::recycle` once its
//! last holder lets go of it — the tiered staging server does that for the
//! objects it drops. Requests larger than the biggest class (8 MiB) fall
//! through to a plain allocation and are freed on drop — chunked streaming
//! keeps hot-path buffers at the chunk size, far below that ceiling.
//!
//! Retention is bounded per class, in bytes: a class parks up to
//! `CLASS_RETAIN_BYTES` (4 MiB) of buffers, and never fewer than
//! [`BufferPool::MAX_PER_CLASS`] (so classes from 512 KiB up keep exactly
//! that count). Below `BYTE_BOUNDED_FROM` (128 KiB) a class keeps just
//! `MAX_PER_CLASS`: buffers that small come back warm from the allocator's
//! own free lists, while a larger fresh buffer is a new mapping whose every
//! page faults on first touch. Overflow buffers are simply freed, so churn
//! from many concurrent connections cannot grow the pool without bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Smallest size class: 1 KiB.
const MIN_CLASS_BYTES: usize = 1 << 10;
/// Largest size class: 8 MiB; a larger request is a plain allocation freed
/// on drop. The staging client streams an object whose payload alone
/// reaches this size instead of framing it whole — the frame adds the
/// descriptor, so the receiver's buffer for it would not recycle.
pub const MAX_CLASS_BYTES: usize = 8 << 20;
/// Number of power-of-two classes between the bounds, inclusive.
const NUM_CLASSES: usize = 14; // 2^10 ..= 2^23
/// Bytes a class may keep parked (at least [`BufferPool::MAX_PER_CLASS`]
/// buffers of it): one 4 MiB promote of 256 KiB extents finds every buffer
/// warm.
const CLASS_RETAIN_BYTES: usize = 4 << 20;
/// Smallest class bounded by [`CLASS_RETAIN_BYTES`] rather than by count:
/// glibc's default mmap threshold, above which a freed buffer goes back to
/// the kernel and a fresh one faults in page by page.
const BYTE_BOUNDED_FROM: usize = 128 << 10;

/// A bounded, size-classed recycler of `Vec<u8>` buffers.
///
/// Cheap to share (`Arc` it); all methods take `&self`.
#[derive(Debug)]
pub struct BufferPool {
    classes: Vec<Mutex<Vec<Vec<u8>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    outstanding: AtomicU64,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// Buffers a class below 128 KiB retains, and the least
    /// any class retains; overflow is freed.
    pub const MAX_PER_CLASS: usize = 8;

    /// An empty pool (no buffers are pre-allocated; classes fill on first
    /// release).
    pub fn new() -> Self {
        BufferPool {
            classes: (0..NUM_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
        }
    }

    /// Index of the smallest class with capacity `>= len`, or `None` if
    /// `len` exceeds the largest class.
    fn class_for(len: usize) -> Option<usize> {
        if len > MAX_CLASS_BYTES {
            return None;
        }
        let want = len.max(MIN_CLASS_BYTES).next_power_of_two();
        // want is in [2^10, 2^23]; map to [0, NUM_CLASSES).
        Some(want.trailing_zeros() as usize - 10)
    }

    /// Capacity of class `idx`.
    fn class_bytes(idx: usize) -> usize {
        MIN_CLASS_BYTES << idx
    }

    /// Buffers class `idx` may keep parked.
    fn retain_limit(idx: usize) -> usize {
        let bytes = Self::class_bytes(idx);
        if bytes < BYTE_BOUNDED_FROM {
            Self::MAX_PER_CLASS
        } else {
            (CLASS_RETAIN_BYTES / bytes).max(Self::MAX_PER_CLASS)
        }
    }

    /// Take a buffer of exactly `len` zeroed bytes, recycled when possible.
    ///
    /// A recycled buffer counts as a hit; an allocation (empty class, or
    /// `len` above the largest class) counts as a miss. The returned guard
    /// gives the buffer back on drop.
    pub fn acquire(self: &Arc<Self>, len: usize) -> PooledBuf {
        let mut buf = match Self::class_for(len) {
            Some(idx) => match self.classes[idx].lock().pop() {
                Some(b) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    b
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    Vec::with_capacity(Self::class_bytes(idx))
                }
            },
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        buf.clear();
        buf.resize(len, 0);
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        PooledBuf {
            buf,
            pool: Arc::clone(self),
        }
    }

    /// Return a checked-out buffer (called from [`PooledBuf`]'s `Drop`).
    fn release(&self, buf: Vec<u8>) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        self.recycle(buf);
    }

    /// Park a buffer nobody else holds — one handed out by
    /// [`PooledBuf::into_vec`] and given back, or any `Vec` worth reusing.
    /// The buffer parks in the largest class whose floor its capacity
    /// satisfies — so a buffer that grew past its acquire class still
    /// recycles. Buffers below the smallest class or above the largest (so
    /// huge one-off payload scratch is never retained), and overflow beyond
    /// the class's retention bound, are freed.
    pub(crate) fn recycle(&self, buf: Vec<u8>) {
        let cap = buf.capacity();
        if !(MIN_CLASS_BYTES..=MAX_CLASS_BYTES).contains(&cap) {
            return;
        }
        let floor = (usize::BITS - 1 - cap.leading_zeros()) as usize;
        let idx = (floor - 10).min(NUM_CLASSES - 1);
        let mut class = self.classes[idx].lock();
        if class.len() < Self::retain_limit(idx) {
            class.push(buf);
        }
    }

    /// Buffers served from a size class without allocating.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Buffers that had to be allocated (cold class or oversized request).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Buffers currently checked out.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Buffers currently parked across all size classes (test/diagnostic).
    pub fn parked(&self) -> usize {
        self.classes.iter().map(|c| c.lock().len()).sum()
    }
}

/// A buffer checked out of a [`BufferPool`]; returns itself on drop (so
/// every error path gives the buffer back automatically).
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Arc<BufferPool>,
}

impl PooledBuf {
    /// Consume the guard WITHOUT returning the buffer to the pool — for
    /// the path where the bytes become a long-lived payload (whose last
    /// holder may hand it back through `BufferPool::recycle`). The
    /// outstanding count is still decremented.
    pub fn into_vec(mut self) -> Vec<u8> {
        let buf = std::mem::take(&mut self.buf);
        self.pool.outstanding.fetch_sub(1, Ordering::Relaxed);
        // Drop runs next with an empty Vec; release() skips zero-capacity
        // buffers because they match no class floor.
        buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 {
            // Either into_vec already accounted for this guard, or the
            // buffer never allocated; nothing to park.
            return;
        }
        self.pool.release(buf);
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping() {
        assert_eq!(BufferPool::class_for(0), Some(0));
        assert_eq!(BufferPool::class_for(1), Some(0));
        assert_eq!(BufferPool::class_for(1024), Some(0));
        assert_eq!(BufferPool::class_for(1025), Some(1));
        assert_eq!(BufferPool::class_for(1 << 20), Some(10));
        assert_eq!(BufferPool::class_for(8 << 20), Some(NUM_CLASSES - 1));
        assert_eq!(BufferPool::class_for((8 << 20) + 1), None);
    }

    #[test]
    fn acquire_reuses_released_buffers() {
        let pool = Arc::new(BufferPool::new());
        let first = pool.acquire(4096);
        assert_eq!(first.len(), 4096);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.outstanding(), 1);
        drop(first);
        assert_eq!(pool.outstanding(), 0);
        let second = pool.acquire(3000); // same 4 KiB class
        assert_eq!(second.len(), 3000);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn buffers_come_back_zeroed() {
        let pool = Arc::new(BufferPool::new());
        {
            let mut b = pool.acquire(64);
            b.iter_mut().for_each(|x| *x = 0xFF);
        }
        let b = pool.acquire(128);
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn classes_are_bounded() {
        let pool = Arc::new(BufferPool::new());
        let guards: Vec<_> = (0..3 * BufferPool::MAX_PER_CLASS)
            .map(|_| pool.acquire(2048))
            .collect();
        assert_eq!(pool.outstanding(), guards.len() as u64);
        drop(guards);
        assert_eq!(pool.outstanding(), 0);
        assert!(pool.parked() <= BufferPool::MAX_PER_CLASS);
    }

    #[test]
    fn retention_is_bounded_in_bytes() {
        let fill = |bytes: usize, n: usize| {
            let pool = BufferPool::new();
            for _ in 0..n {
                pool.recycle(Vec::with_capacity(bytes));
            }
            pool.parked()
        };
        let n = 64;
        // Below the byte-bounded floor: a count bound.
        assert_eq!(fill(BYTE_BOUNDED_FROM / 2, n), BufferPool::MAX_PER_CLASS);
        // One 4 MiB promote's worth of 256 KiB extents stays warm.
        assert_eq!(fill(256 << 10, n), CLASS_RETAIN_BYTES / (256 << 10));
        assert!(fill(256 << 10, n) > BufferPool::MAX_PER_CLASS);
        // Classes from 1 MiB up keep exactly what a count bound kept.
        for bytes in [1 << 20, 2 << 20, MAX_CLASS_BYTES] {
            assert_eq!(fill(bytes, n), BufferPool::MAX_PER_CLASS, "{bytes}");
        }
        // A recycled buffer serves the next acquire of its class.
        let pool = Arc::new(BufferPool::new());
        pool.recycle(Vec::with_capacity(256 << 10));
        assert_eq!(pool.acquire(200 << 10).len(), 200 << 10);
        assert_eq!((pool.hits(), pool.misses()), (1, 0));
    }

    #[test]
    fn oversized_requests_bypass_the_pool() {
        let pool = Arc::new(BufferPool::new());
        let big = pool.acquire(MAX_CLASS_BYTES + 1);
        assert_eq!(big.len(), MAX_CLASS_BYTES + 1);
        drop(big);
        assert_eq!(pool.parked(), 0);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn into_vec_detaches_without_parking() {
        let pool = Arc::new(BufferPool::new());
        let b = pool.acquire(512);
        let v = b.into_vec();
        assert_eq!(v.len(), 512);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn concurrent_churn_stays_bounded() {
        let pool = Arc::new(BufferPool::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..200usize {
                        let len = 1 + ((t * 977 + i * 131) % 60_000);
                        let b = pool.acquire(len);
                        assert_eq!(b.len(), len);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("churn thread");
        }
        assert_eq!(pool.outstanding(), 0);
        // Worst case: MAX_PER_CLASS parked in every touched class.
        assert!(pool.parked() <= NUM_CLASSES * BufferPool::MAX_PER_CLASS);
        assert_eq!(pool.hits() + pool.misses(), 8 * 200);
    }
}
