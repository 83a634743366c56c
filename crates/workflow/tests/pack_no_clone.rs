//! Regression test: the staging pack path must not allocate tight-fab
//! intermediates.
//!
//! The original in-transit branch copied each grid's valid region into a
//! tight single-component fab before down-sampling it, doubling the pack
//! path's transient fab footprint. `pack_level_objects` now reduces
//! straight from the level fab's component, so with `factor > 1` the only
//! fab storage allocated is exactly one *reduced* fab per grid, and with
//! `factor == 1` (halo staging) no fab storage is allocated at all.
//!
//! This lives in its own integration-test binary on purpose: the
//! allocation counters are process-global, and concurrently running tests
//! in the same binary would perturb the peak. The two tests here take
//! [`COUNTERS`] for the same reason — the harness runs them on parallel
//! threads, and one's level allocation lands inside the other's window.

use xlayer_amr::boxes::IBox;
use xlayer_amr::domain::ProblemDomain;
use xlayer_amr::fab;
use xlayer_amr::layout::BoxLayout;
use xlayer_amr::level_data::LevelData;
use xlayer_workflow::pack_level_objects;

/// Serializes the tests over the process-global fab allocation counters.
static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn multi_grid_level() -> LevelData {
    let domain = ProblemDomain::periodic(IBox::cube(32));
    let layout = BoxLayout::decompose(&domain, 16, 1);
    let mut ld = LevelData::new(layout, domain, 2, 1);
    ld.for_each_mut(|vb, f| {
        for c in 0..f.ncomp() {
            for iv in vb.cells() {
                f.set(iv, c, (iv[0] * 31 + iv[1] * 7 + iv[2]) as f64 + c as f64);
            }
        }
    });
    ld.exchange();
    ld
}

#[test]
fn reduction_pack_allocates_exactly_one_reduced_fab_per_grid() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let ld = multi_grid_level();
    assert!(ld.len() > 1, "want a multi-grid level");
    let factor = 2u32;
    // Upper bound on legitimate transient fab storage: every grid's reduced
    // fab alive concurrently (the parallel pack's worst case). The old
    // tight-fab path additionally held a full valid-region fab per grid,
    // which busts this bound even serially.
    let sum_reduced: u64 = (0..ld.len())
        .map(|i| ld.valid_box(i).coarsen(factor as i64).num_cells() * 8)
        .sum();
    let live = fab::allocated_bytes();
    fab::reset_peak_allocated();
    let objects = pack_level_objects(&ld, 1, "field", 3, factor, 1.0);
    let peak = fab::peak_allocated_bytes();
    assert_eq!(objects.len(), ld.len());
    assert!(
        peak - live <= sum_reduced,
        "pack allocated {} fab bytes over baseline; reduced fabs account for \
         at most {sum_reduced} (tight-fab intermediate resurrected?)",
        peak - live
    );
    // The packed objects hold payload bytes, not fab storage.
    assert_eq!(fab::allocated_bytes(), live);
    drop(objects);
}

#[test]
fn full_resolution_pack_allocates_no_fabs() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let ld = multi_grid_level();
    let live = fab::allocated_bytes();
    fab::reset_peak_allocated();
    let objects = pack_level_objects(&ld, 0, "field", 4, 1, 1.0);
    assert_eq!(
        fab::peak_allocated_bytes(),
        live,
        "halo pack copied through a fab intermediate"
    );
    assert_eq!(objects.len(), ld.len());
    // Halo payload: valid grown by one (all interior here, periodic 32³
    // split into 16³ grids with nghost = 1).
    for (i, obj) in objects.iter().enumerate() {
        assert_eq!(obj.desc.core, ld.valid_box(i));
        assert_eq!(obj.desc.bbox, ld.valid_box(i).grow(1));
    }
}
