//! The visualization service's extraction kernel: cost scales with rows
//! classified plus surface crossed (the `analysis_time_surface` model).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xlayer_amr::{Fab, IBox, IntVect};
use xlayer_bench::advect_version_objects;
use xlayer_viz::{extract_block, extract_payload_into, reference, TriMesh};

fn sphere_fab(n: i64) -> Fab {
    let b = IBox::cube(n);
    let mut f = Fab::new(b, 1);
    let c = n as f64 / 2.0;
    for iv in b.cells() {
        let r = ((iv[0] as f64 + 0.5 - c).powi(2)
            + (iv[1] as f64 + 0.5 - c).powi(2)
            + (iv[2] as f64 + 0.5 - c).powi(2))
        .sqrt();
        f.set(iv, 0, r);
    }
    f
}

fn bench_mc(c: &mut Criterion) {
    let mut group = c.benchmark_group("marching_cubes");
    for n in [16i64, 32] {
        let fab = sphere_fab(n);
        let region = IBox::cube(n);
        // Surface work: isovalue inside the volume.
        group.bench_with_input(BenchmarkId::new("sphere", n), &n, |b, &n| {
            b.iter(|| extract_block(&fab, 0, &region, n as f64 / 3.0, 1.0, [0.0; 3]))
        });
        // Scan-only: isovalue outside → every cube culled by the classify pass.
        group.bench_with_input(BenchmarkId::new("scan_only", n), &n, |b, &n| {
            b.iter(|| extract_block(&fab, 0, &region, 10.0 * n as f64, 1.0, [0.0; 3]))
        });
    }
    group.finish();

    c.bench_function("weld_sphere_32", |b| {
        let fab = sphere_fab(32);
        let mesh = extract_block(&fab, 0, &IBox::cube(32), 10.0, 1.0, [0.0; 3]);
        b.iter(|| mesh.welded(1e-9))
    });

    // Merging per-grid surfaces into one level mesh: concat into buffers
    // allocated once at final size vs the grow-and-append baseline.
    let fab = sphere_fab(32);
    let parts: Vec<TriMesh> = (0..4i64)
        .flat_map(|bz| (0..4i64).flat_map(move |by| (0..4i64).map(move |bx| (bx, by, bz))))
        .map(|(bx, by, bz)| {
            let lo = IntVect::new(bx * 8, by * 8, bz * 8);
            let region = IBox::new(lo, lo + IntVect::splat(7));
            extract_block(&fab, 0, &region, 10.0, 1.0, [0.0; 3])
        })
        .collect();
    let refs: Vec<&TriMesh> = parts.iter().collect();
    let mut group = c.benchmark_group("merge_64parts");
    group.bench_function("concat", |b| b.iter(|| TriMesh::concat(&refs)));
    group.bench_function("append", |b| {
        b.iter(|| {
            let mut total = TriMesh::new();
            for p in &parts {
                total.append(p);
            }
            total
        })
    });
    group.finish();

    // One advect version as the in-transit worker receives it: 64 staged
    // objects of 34³, extracted off their payload bytes into one mesh, vs
    // `to_fab` + the per-cube reference kernel + a concat of 64 meshes.
    let objects = advect_version_objects();
    let mut group = c.benchmark_group("advect34_version");
    group.bench_function("payload_into_one_mesh", |b| {
        b.iter(|| {
            let mut mesh = TriMesh::new();
            for obj in &objects {
                let d = &obj.desc;
                extract_payload_into(
                    &obj.payload,
                    &d.bbox,
                    &d.core,
                    0.5,
                    1.0,
                    [0.0; 3],
                    &mut mesh,
                );
            }
            mesh
        })
    });
    group.bench_function("to_fab_reference_concat", |b| {
        b.iter(|| {
            let parts: Vec<TriMesh> = objects
                .iter()
                .map(|obj| {
                    reference::extract_block(&obj.to_fab(), 0, &obj.desc.core, 0.5, 1.0, [0.0; 3])
                })
                .collect();
            let refs: Vec<&TriMesh> = parts.iter().collect();
            TriMesh::concat(&refs)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mc);
criterion_main!(benches);
