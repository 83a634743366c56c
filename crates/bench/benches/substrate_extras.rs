//! Micro-benchmarks of the later substrate additions: descriptive
//! statistics, plotfile I/O and the staging bucket index.

use criterion::{criterion_group, criterion_main, Criterion};
use xlayer_amr::hierarchy::{AmrHierarchy, HierarchyConfig};
use xlayer_amr::plotfile::{read_plotfile, write_plotfile};
use xlayer_amr::tagging::IntVectSet;
use xlayer_amr::{Fab, IBox, IntVect, ProblemDomain};
use xlayer_viz::stats::BlockStats;

fn hierarchy_2level() -> AmrHierarchy {
    let dom = ProblemDomain::periodic(IBox::cube(16));
    let mut h = AmrHierarchy::new(
        dom,
        HierarchyConfig {
            max_levels: 2,
            base_max_box: 8,
            ..Default::default()
        },
    );
    h.level_mut(0).fill(1.0);
    let mut tags = IntVectSet::new();
    tags.insert_box(&IBox::new(IntVect::splat(6), IntVect::splat(9)));
    h.regrid(&[tags]);
    h
}

fn bench_extras(c: &mut Criterion) {
    c.bench_function("block_stats_32c", |b| {
        let fab = Fab::filled(IBox::cube(32), 1, 1.5);
        b.iter(|| BlockStats::compute(&fab, 0, &IBox::cube(32)))
    });

    c.bench_function("plotfile_write_2level", |b| {
        let h = hierarchy_2level();
        let mut buf = Vec::with_capacity(1 << 22);
        b.iter(|| {
            buf.clear();
            write_plotfile(&mut buf, &h, 1, 0.5).expect("write")
        })
    });

    c.bench_function("plotfile_read_2level", |b| {
        let h = hierarchy_2level();
        let mut buf = Vec::new();
        write_plotfile(&mut buf, &h, 1, 0.5).expect("write");
        b.iter(|| read_plotfile(&mut buf.as_slice()).expect("read"))
    });

    c.bench_function("bucket_index_query_256obj", |b| {
        let mut idx = xlayer_staging::BucketIndex::new(16);
        for i in 0..256i64 {
            idx.insert(IBox::cube(8).shift(IntVect::new((i % 16) * 8, (i / 16) * 8, 0)));
        }
        let probe = IBox::new(IntVect::new(40, 40, 0), IntVect::new(80, 80, 7));
        b.iter(|| idx.query(&probe))
    });
}

criterion_group!(benches, bench_extras);
criterion_main!(benches);
