//! The integrity sum (`xlayer_staging::sum`): the per-byte cost every
//! staged byte pays at each hop that frames, verifies or spills it.
//! Rates follow from the sizes in the names: a 256 KiB pass in 25 µs is
//! ~10 GiB/s.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use xlayer_staging::sum::{checksum, Sum};

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i as u8).wrapping_mul(31)).collect()
}

fn bench_sum(c: &mut Criterion) {
    for (name, n) in [
        ("sum_oneshot_4KiB", 4 << 10),
        ("sum_oneshot_256KiB", 256 << 10),
        ("sum_oneshot_8MiB", 8 << 20),
    ] {
        let data = payload(n);
        c.bench_function(name, |b| b.iter(|| checksum(black_box(&data))));
    }

    // The single-frame `Put` shape: a ~100-byte descriptor, then the
    // payload, summed as one stream without concatenating them.
    c.bench_function("sum_streaming_300KiB", |b| {
        let (desc, data) = (payload(107), payload(300 << 10));
        b.iter(|| {
            let mut sum = Sum::new();
            sum.update(black_box(&desc));
            sum.update(black_box(&data));
            sum.finish()
        })
    });
}

criterion_group!(benches, bench_sum);
criterion_main!(benches);
