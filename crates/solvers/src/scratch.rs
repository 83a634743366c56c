//! Per-thread scratch buffers for the solver hot loops.
//!
//! A level step needs, per grid, a few working buffers: the Euler walk a
//! primitive cache of the ghost-filled box plus one buffer carved into its
//! face rows and planes, the fused advection walk eight row, plane and
//! table buffers. Allocating those fresh each time puts a `malloc`/`free`
//! cycle (megabytes, for the primitive cache) on the hottest path in the
//! code. This module keeps a small per-thread pool of `Vec<f64>` buffers:
//! [`take_buffer`] / [`recycle_buffer`] hand them out and take them back
//! without touching the allocator once the pool is warm.
//!
//! The pool is thread-local because `advance_level` runs grids in parallel
//! (`LevelData::par_for_each_mut`) on a persistent thread pool: each worker
//! — and the calling thread, which works alongside them — warms and reuses
//! its own buffers with no synchronization, for the life of the process.
//! What a thread keeps is therefore bounded in bytes as well as in count.
//! Numerics are unaffected: a recycled buffer's stale contents are
//! overwritten before they are read.

use std::cell::RefCell;

/// Buffers retained per thread. The Euler walk holds 2 at once (primitive
/// cache, carved rows and planes); the fused advection walk holds 8 row,
/// plane and table buffers. Keep headroom.
const MAX_POOLED: usize = 12;

/// Bytes of buffer capacity retained per thread. A 32³ Euler grid with 2
/// ghost cells and 5 components needs a 36³ × 5 × 8 B = 1.78 MiB primitive
/// cache and 0.17 MiB of rows and planes (4 planes of 32² faces or states
/// and 9 rows, 5 components each). A refined level's occasional giant grid
/// (52 × 68 × 36 cells) needs a 6.2 MiB cache and 0.55 MiB of planes, so
/// 16 MiB keeps even that warm beside the advection walk's buffers, while
/// bounding what an idle thread sits on for the rest of the run.
const MAX_POOLED_BYTES: usize = 16 << 20;

/// One thread's retained buffers and the bytes of capacity they hold.
struct Pool {
    buffers: Vec<Vec<f64>>,
    bytes: usize,
}

fn capacity_bytes(buf: &Vec<f64>) -> usize {
    buf.capacity() * std::mem::size_of::<f64>()
}

thread_local! {
    static POOL: RefCell<Pool> = const {
        RefCell::new(Pool {
            buffers: Vec::new(),
            bytes: 0,
        })
    };
}

/// Take a backing buffer from this thread's pool (empty on a cold pool).
pub fn take_buffer() -> Vec<f64> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let buf = p.buffers.pop().unwrap_or_default();
        p.bytes -= capacity_bytes(&buf);
        buf
    })
}

/// Return a backing buffer to this thread's pool for reuse; dropped
/// instead if the pool already holds its fill of buffers or bytes.
pub fn recycle_buffer(buf: Vec<f64>) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let bytes = capacity_bytes(&buf);
        if p.buffers.len() < MAX_POOLED && p.bytes + bytes <= MAX_POOLED_BYTES {
            p.bytes += bytes;
            p.buffers.push(buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_bounded() {
        for _ in 0..4 * MAX_POOLED {
            recycle_buffer(vec![0.0; 16]);
        }
        POOL.with(|p| assert!(p.borrow().buffers.len() <= MAX_POOLED));
    }

    #[test]
    fn pool_is_bounded_in_bytes() {
        // Run on a thread of its own: a fresh, private pool.
        std::thread::spawn(|| {
            let big = MAX_POOLED_BYTES / 8 / 3 + 1;
            for _ in 0..4 {
                recycle_buffer(vec![0.0; big]);
            }
            POOL.with(|p| {
                let p = p.borrow();
                assert_eq!(p.buffers.len(), 2, "a third would exceed the bound");
                assert_eq!(p.bytes, p.buffers.iter().map(capacity_bytes).sum::<usize>());
            });
            // A small buffer still fits beside them, and taking gives the
            // bytes back.
            recycle_buffer(vec![0.0; 16]);
            assert_eq!(take_buffer().capacity(), 16);
            assert!(take_buffer().capacity() >= big);
            assert!(take_buffer().capacity() >= big);
            POOL.with(|p| assert_eq!(p.borrow().bytes, 0));
        })
        .join()
        .expect("bounded");
    }
}
