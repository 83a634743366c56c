//! The application-layer reduction operators: per-block entropy (Eq. 11)
//! and factor-X down-sampling (`f_data_reduce`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xlayer_amr::{Fab, IBox};
use xlayer_viz::downsample::{downsample_fab, downsample_region};
use xlayer_viz::entropy::{block_entropy, block_entropy_scratch};
use xlayer_viz::reference;

fn noisy_fab(n: i64) -> Fab {
    let b = IBox::cube(n);
    let mut f = Fab::new(b, 1);
    let mut state: u64 = 42;
    for iv in b.cells() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        f.set(iv, 0, (state >> 33) as f64 / (1u64 << 31) as f64);
    }
    f
}

fn bench_reduction(c: &mut Criterion) {
    let fab = noisy_fab(32);
    let region = IBox::cube(32);

    let mut group = c.benchmark_group("entropy");
    for bins in [64usize, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |b, &bins| {
            b.iter(|| block_entropy(&fab, 0, &region, bins))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("downsample_32c");
    for x in [2u32, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(x), &x, |b, &x| {
            b.iter(|| downsample_fab(&fab, 0, x))
        });
    }
    group.finish();

    // Flat strided-row kernels vs the per-cell references at 64³ — the
    // acceptance measurement for the allocation-free analysis data path.
    let fab = noisy_fab(64);
    let region = IBox::cube(64);

    let mut group = c.benchmark_group("downsample_64c_x4");
    group.bench_function("flat", |b| {
        b.iter(|| downsample_region(&fab, 0, &region, 4))
    });
    group.bench_function("reference", |b| {
        b.iter(|| reference::downsample_region(&fab, 0, &region, 4))
    });
    group.finish();

    let mut group = c.benchmark_group("entropy_64c_256bins");
    group.bench_function("flat", |b| b.iter(|| block_entropy(&fab, 0, &region, 256)));
    group.bench_function("flat_scratch", |b| {
        let mut hist = Vec::new();
        b.iter(|| block_entropy_scratch(&fab, 0, &region, 256, &mut hist))
    });
    group.bench_function("reference", |b| {
        b.iter(|| reference::block_entropy(&fab, 0, &region, 256))
    });
    group.finish();
}

criterion_group!(benches, bench_reduction);
criterion_main!(benches);
