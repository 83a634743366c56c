//! Placement-independence of analysis geometry.
//!
//! The in-transit workers used to extract isosurfaces at `dx = 1.0`
//! regardless of AMR level, so moving analysis off-node silently rescaled
//! every fine-level vertex by `ref_ratio^l`. Staged objects now carry the
//! producer's physical spacing (`ObjectDesc::dx`) and region of interest
//! (`ObjectDesc::core`), so the staged path — pack, put, get, extract off
//! the payload bytes — must reproduce the in-situ mesh *exactly*: same
//! triangle count and bit-identical vertex coordinates, on every level.

use xlayer_amr::hierarchy::HierarchyConfig;
use xlayer_amr::{IBox, ProblemDomain};
use xlayer_solvers::{
    AdvectDiffuseSolver, AmrSimulation, DriverConfig, ScalarProblem, VelocityField,
};
use xlayer_staging::{DataSpace, Sharding};
use xlayer_viz::{extract_level, extract_payload_into, merge_surfaces, TriMesh};
use xlayer_workflow::pack_level_objects;

fn blob_sim(n: i64) -> AmrSimulation<AdvectDiffuseSolver> {
    let domain = ProblemDomain::periodic(IBox::cube(n));
    let solver = AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.5, 0.0]), 0.0, n);
    let mut sim = AmrSimulation::new(
        domain,
        HierarchyConfig {
            max_levels: 2,
            base_max_box: 8,
            ..Default::default()
        },
        solver,
        DriverConfig {
            tag_threshold: 0.02,
            regrid_interval: 3,
            ..Default::default()
        },
    );
    ScalarProblem::Gaussian {
        center: [n as f64 / 2.0; 3],
        sigma: 2.5,
    }
    .init_hierarchy(&mut sim.hierarchy);
    sim.regrid_now();
    sim
}

fn sorted_vertex_bits(mesh: &TriMesh) -> Vec<(u64, u64, u64)> {
    let mut v: Vec<(u64, u64, u64)> = mesh
        .vertices
        .iter()
        .map(|p| (p[0].to_bits(), p[1].to_bits(), p[2].to_bits()))
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn staged_extraction_is_bitwise_identical_to_insitu() {
    let mut sim = blob_sim(16);
    for _ in 0..3 {
        sim.advance();
    }
    sim.hierarchy.fill_ghosts();
    let iso = 0.4;
    assert!(sim.hierarchy.num_levels() > 1, "want a refined level");

    // In-situ: extract directly from the hierarchy at each level's spacing.
    let mut insitu = TriMesh::new();
    for l in 0..sim.hierarchy.num_levels() {
        let dx = 1.0 / sim.hierarchy.ref_ratio().pow(l as u32) as f64;
        let surfaces = extract_level(sim.hierarchy.level(l), 0, iso, dx);
        insitu.append(&merge_surfaces(&surfaces));
    }
    assert!(insitu.num_triangles() > 0, "blob must cross iso={iso}");

    // In-transit: round-trip every grid through the staging space, then
    // extract from the halo objects' payloads into one mesh using only the
    // metadata the object itself carries (core + dx) — exactly what the
    // workers do.
    let space = DataSpace::new(2, 256 << 20, Sharding::BboxHash);
    let version = 7;
    for l in 0..sim.hierarchy.num_levels() {
        let dx = 1.0 / sim.hierarchy.ref_ratio().pow(l as u32) as f64;
        for obj in pack_level_objects(sim.hierarchy.level(l), 0, "field", version, 1, dx) {
            space.put(obj).expect("staging put");
        }
    }
    let objects = space.get("field", version, None);
    // Fine-level objects must carry the fine spacing, not the 1.0 the old
    // worker job hard-coded.
    let fine_dx = 1.0 / sim.hierarchy.ref_ratio() as f64;
    assert!(
        objects.iter().any(|o| o.desc.dx == fine_dx),
        "no staged object carries the fine-level spacing"
    );
    let mut staged = TriMesh::new();
    for obj in &objects {
        extract_payload_into(
            &obj.payload,
            &obj.desc.bbox,
            &obj.desc.core,
            iso,
            obj.desc.dx,
            [0.0; 3],
            &mut staged,
        );
    }

    assert_eq!(staged.num_triangles(), insitu.num_triangles());
    // Object order out of the sharded space is arbitrary; compare the
    // vertex multisets bitwise.
    assert_eq!(
        sorted_vertex_bits(&staged),
        sorted_vertex_bits(&insitu),
        "staged mesh geometry differs from in-situ"
    );
}
