//! What one parallel call costs on the worker pool, seen through
//! `LevelData::par_for_each_mut` over a 64-grid level of 8³ boxes: an empty
//! kernel (the fork-join itself: install the job, wake the parked workers,
//! 64 index claims, wait for the stragglers) and a 4 KiB fill per grid (the
//! smallest real kernel — each fab is 512 `f64`s).

use criterion::{criterion_group, criterion_main, Criterion};
use xlayer_amr::domain::ProblemDomain;
use xlayer_amr::layout::BoxLayout;
use xlayer_amr::level_data::LevelData;
use xlayer_amr::IBox;

fn bench_pool(c: &mut Criterion) {
    let domain = ProblemDomain::new(IBox::cube(32));
    let mut ld = LevelData::new(BoxLayout::decompose(&domain, 8, 1), domain, 1, 0);
    assert_eq!((ld.len(), ld.fab(0).bytes()), (64, 4 << 10));

    c.bench_function("pool_fork_join_64_empty", |b| {
        b.iter(|| ld.par_for_each_mut(|_, _, _| {}))
    });

    c.bench_function("pool_fork_join_64x4KiB_fill", |b| {
        b.iter(|| ld.par_for_each_mut(|i, _, fab| fab.fill(i as f64)))
    });

    c.bench_function("serial_64x4KiB_fill", |b| {
        b.iter(|| {
            for i in 0..ld.len() {
                ld.fab_mut(i).fill(i as f64);
            }
        })
    });
}

criterion_group!(benches, bench_pool);
criterion_main!(benches);
