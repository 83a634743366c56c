//! Per-thread scratch buffers for the solver hot loops.
//!
//! The Godunov sweep needs, per grid per step, a snapshot of the old state
//! plus `DIM` face-flux fabs and three caches; the fused upwind walk needs
//! eight row, plane and table buffers. Allocating those fresh each time
//! puts a multi-megabyte `malloc`/`free` cycle on the hottest path in the
//! code. This module keeps a small per-thread pool of `Vec<f64>` backing
//! buffers; [`xlayer_amr::Fab::with_storage`] / `clone_with_storage` /
//! `into_storage` move fabs in and out of the pool without touching the
//! allocator once the pool is warm.
//!
//! The pool is thread-local because `advance_level` runs grids in parallel
//! (`LevelData::par_for_each_mut`) on a persistent thread pool: each worker
//! — and the calling thread, which works alongside them — warms and reuses
//! its own buffers with no synchronization, for the life of the process.
//! What a thread keeps is therefore bounded in bytes as well as in count.
//! Numerics are unaffected — recycled fabs are zero-filled (or overwritten
//! by a full copy) exactly like freshly allocated ones.

use std::cell::RefCell;
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;

/// Buffers retained per thread. A sweep-structured level step holds, per
/// grid, 1 old-state snapshot + 1 primitive cache + 2 predicted-face caches
/// + up to `DIM` flux fabs in flight at once (7 total); keep headroom.
///
/// The fused advection walk holds 8 row, plane and table buffers.
const MAX_POOLED: usize = 12;

/// Bytes of buffer capacity retained per thread. The 7 buffers of a 32³
/// grid with 2 ghost cells and 5 components are 36³ × 5 × 8 B = 1.78 MiB
/// each, 12.5 MiB together: 16 MiB keeps that working set warm. A refined
/// level's occasional giant grid (52 × 68 × 36 cells: 4.9 MiB a buffer, 34
/// MiB for its 7) allocates what does not fit and gives it back when done,
/// instead of each thread sitting on up to 12 such buffers (58 MiB) for the
/// rest of the run. Measured on the gas workflow, 6 alternating runs
/// against a 40 MiB bound: peak RSS 151 against 159 MiB (lower in 5/6),
/// time to solution 1.53 against 1.51 s (unresolved); solver alone the
/// giant grid's page faults cost ~5 % of the refined level's advance.
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

/// A zero-initialized fab over `bx` backed by pooled storage. Pair with
/// [`recycle_fab`] when done.
pub fn take_fab(bx: IBox, ncomp: usize) -> Fab {
    Fab::with_storage(bx, ncomp, take_buffer())
}

/// A copy of `src` backed by pooled storage — the allocation-free stand-in
/// for `src.clone()` in the sweep hot path.
pub fn take_fab_clone(src: &Fab) -> Fab {
    src.clone_with_storage(take_buffer())
}

/// Retire a fab, returning its storage to this thread's pool.
pub fn recycle_fab(fab: Fab) {
    recycle_buffer(fab.into_storage());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_fabs_reuse_capacity() {
        let f = take_fab(IBox::cube(8), 2);
        assert!(f.as_slice().iter().all(|&v| v == 0.0));
        recycle_fab(f);
        // The next (smaller) request on this thread must reuse the big
        // buffer rather than allocating a fresh one.
        let g = take_fab(IBox::cube(4), 2);
        assert!(g.into_storage().capacity() >= 8 * 8 * 8 * 2);
    }

    #[test]
    fn scratch_clone_matches_clone() {
        let mut f = take_fab(IBox::cube(4), 3);
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
        let c = take_fab_clone(&f);
        assert_eq!(c.ibox(), f.ibox());
        assert_eq!(c.as_slice(), f.as_slice());
        recycle_fab(c);
        recycle_fab(f);
    }

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
