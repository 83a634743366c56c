//! Property tests of the inter-level glue and the taggers: the per-grid
//! parallel, row-walking implementations must equal, bit for bit, the serial
//! per-cell loops they replaced (kept below as the oracles) on random
//! two-level layouts, periodic and not.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xlayer_amr::boxes::IBox;
use xlayer_amr::cluster::make_disjoint;
use xlayer_amr::domain::ProblemDomain;
use xlayer_amr::hierarchy::{
    average_to_coarse, interpolate_ghosts_from_coarse, interpolate_to_fine,
};
use xlayer_amr::intvect::{IntVect, DIM};
use xlayer_amr::layout::BoxLayout;
use xlayer_amr::level_data::LevelData;
use xlayer_amr::tagging::{tag_amplitude, tag_undivided_gradient, IntVectSet};

// ---- The serial loops the library ran before this was parallel. ----

fn interpolate_to_fine_serial(coarse: &LevelData, fine: &mut LevelData, ratio: i64) {
    let ncomp = fine.ncomp();
    for fi in 0..fine.len() {
        let fvalid = fine.valid_box(fi);
        let cregion = fvalid.coarsen(ratio);
        for ci in 0..coarse.len() {
            let cvalid = coarse.valid_box(ci).intersect(&cregion);
            if cvalid.is_empty() {
                continue;
            }
            for comp in 0..ncomp {
                for civ in cvalid.cells() {
                    let v = coarse.fab(ci).get(civ, comp);
                    let fbox = IBox::single(civ).refine(ratio).intersect(&fvalid);
                    for fiv in fbox.cells() {
                        fine.fab_mut(fi).set(fiv, comp, v);
                    }
                }
            }
        }
    }
}

fn interpolate_ghosts_serial(coarse: &LevelData, fine: &mut LevelData, ratio: i64) {
    let ncomp = fine.ncomp();
    let nghost = fine.nghost();
    if nghost == 0 {
        return;
    }
    let fdomain = *fine.domain();
    let same_level: Vec<IBox> = fine.layout().grids().iter().map(|g| g.bx).collect();
    for fi in 0..fine.len() {
        let valid = fine.valid_box(fi);
        let grown = fdomain.clip(&valid.grow(nghost));
        let mut ghost_regions = grown.subtract(&valid);
        for s in &same_level {
            let mut cover = vec![*s];
            for g in &ghost_regions {
                for shift in fdomain.periodic_shifts(s, g) {
                    cover.push(s.shift(shift));
                }
            }
            for c in cover {
                let mut next = Vec::new();
                for g in ghost_regions {
                    next.extend(g.subtract(&c));
                }
                ghost_regions = next;
            }
        }
        for region in ghost_regions {
            for fiv in region.cells() {
                let civ = fdomain.wrap(fiv).coarsen(ratio);
                for ci in 0..coarse.len() {
                    if coarse.valid_box(ci).contains(civ) {
                        for comp in 0..ncomp {
                            let v = coarse.fab(ci).get(civ, comp);
                            fine.fab_mut(fi).set(fiv, comp, v);
                        }
                        break;
                    }
                }
            }
        }
    }
}

fn average_to_coarse_serial(fine: &LevelData, coarse: &mut LevelData, ratio: i64) {
    let ncomp = fine.ncomp();
    let inv = 1.0 / (ratio.pow(DIM as u32) as f64);
    for ci in 0..coarse.len() {
        let cvalid = coarse.valid_box(ci);
        for fi in 0..fine.len() {
            let covered = fine.valid_box(fi).coarsen(ratio).intersect(&cvalid);
            if covered.is_empty() {
                continue;
            }
            for comp in 0..ncomp {
                for civ in covered.cells() {
                    let mut acc = 0.0;
                    for fiv in IBox::single(civ).refine(ratio).cells() {
                        acc += fine.fab(fi).get(fiv, comp);
                    }
                    coarse.fab_mut(ci).set(civ, comp, acc * inv);
                }
            }
        }
    }
}

fn tag_undivided_gradient_serial(data: &LevelData, comp: usize, threshold: f64) -> IntVectSet {
    let mut tags = IntVectSet::new();
    let dom_box = data.domain().domain_box();
    for i in 0..data.len() {
        let valid = data.valid_box(i);
        let fab = data.fab(i);
        let avail = fab.ibox();
        for iv in valid.cells() {
            let mut g: f64 = 0.0;
            for d in 0..DIM {
                let e = IntVect::basis(d);
                let (p, m) = (iv + e, iv - e);
                let up = if avail.contains(p) {
                    fab.get(p, comp)
                } else {
                    fab.get(iv, comp)
                };
                let um = if avail.contains(m) {
                    fab.get(m, comp)
                } else {
                    fab.get(iv, comp)
                };
                g = g.max((up - um).abs() * 0.5);
            }
            if g > threshold && dom_box.contains(iv) {
                tags.insert(iv);
            }
        }
    }
    tags
}

fn tag_amplitude_serial(data: &LevelData, comp: usize, threshold: f64) -> IntVectSet {
    let mut tags = IntVectSet::new();
    for i in 0..data.len() {
        for iv in data.valid_box(i).cells() {
            if data.fab(i).get(iv, comp) > threshold {
                tags.insert(iv);
            }
        }
    }
    tags
}

// ---- Random two-level configurations. ----

#[derive(Clone, Debug)]
struct Setup {
    coarse_domain: ProblemDomain,
    coarse_max_box: i64,
    alt_max_box: i64,
    /// Fine grids in coarse index space, possibly overlapping.
    patches: Vec<IBox>,
    ratio: i64,
    nghost: i64,
    ncomp: usize,
    seed: u64,
}

fn arb_setup() -> impl Strategy<Value = Setup> {
    let n = 6i64;
    let corner = || (0..n, 0..n, 0..n);
    (
        (0u8..2, 0u8..2, 0u8..2),
        (2i64..7, 2i64..7),
        proptest::collection::vec((corner(), (1i64..4, 1i64..4, 1i64..4)), 1..5),
        (1u8..3, 0i64..3, 1usize..4),
        0u64..u64::MAX,
    )
        .prop_map(
            move |((px, py, pz), (coarse_max_box, alt_max_box), boxes, dims, seed)| {
                let dom = IBox::cube(n);
                let patches = boxes
                    .into_iter()
                    .map(|((x, y, z), (sx, sy, sz))| {
                        let lo = IntVect::new(x, y, z);
                        IBox::new(lo, lo + IntVect::new(sx - 1, sy - 1, sz - 1)).intersect(&dom)
                    })
                    .collect();
                Setup {
                    coarse_domain: ProblemDomain::with_periodicity(
                        dom,
                        [px == 1, py == 1, pz == 1],
                    ),
                    coarse_max_box,
                    alt_max_box,
                    patches,
                    ratio: 2 * dims.0 as i64,
                    nghost: dims.1,
                    ncomp: dims.2,
                    seed,
                }
            },
        )
}

/// Every cell of every fab, ghosts included, gets its own pseudo-random
/// value, so a cell written where it should not be shows as well.
fn scramble(ld: &mut LevelData, seed: u64) {
    let mut state = seed | 1;
    for i in 0..ld.len() {
        for v in ld.fab_mut(i).as_mut_slice() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        }
    }
}

impl Setup {
    fn coarse(&self, max_box: i64, seed: u64) -> LevelData {
        let layout = BoxLayout::decompose(&self.coarse_domain, max_box, 2);
        let mut ld = LevelData::new(layout, self.coarse_domain, self.ncomp, self.nghost);
        scramble(&mut ld, seed);
        ld
    }

    fn fine(&self, seed: u64) -> LevelData {
        let boxes = make_disjoint(self.patches.clone())
            .into_iter()
            .map(|b| b.refine(self.ratio))
            .collect();
        let mut ld = LevelData::new(
            BoxLayout::from_boxes(boxes),
            self.coarse_domain.refine(self.ratio),
            self.ncomp,
            self.nghost,
        );
        scramble(&mut ld, seed);
        ld
    }
}

fn assert_same_bits(a: &LevelData, b: &LevelData, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        let (x, y) = (a.fab(i).as_slice(), b.fab(i).as_slice());
        prop_assert!(
            x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()),
            "{}: fab {} ({:?}) differs",
            what,
            i,
            a.fab(i).ibox()
        );
    }
    Ok(())
}

fn same_tags(a: &IntVectSet, b: &IntVectSet) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(p, q)| p == q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ghost_interpolation_equals_the_serial_loop(s in arb_setup()) {
        let coarse = s.coarse(s.coarse_max_box, s.seed);
        let (mut got, mut want) = (s.fine(!s.seed), s.fine(!s.seed));
        interpolate_ghosts_from_coarse(&coarse, &mut got, s.ratio);
        interpolate_ghosts_serial(&coarse, &mut want, s.ratio);
        assert_same_bits(&got, &want, "first fill")?;

        // The same fine level again, from the cached regions.
        scramble(&mut got, s.seed ^ 0x55);
        scramble(&mut want, s.seed ^ 0x55);
        interpolate_ghosts_from_coarse(&coarse, &mut got, s.ratio);
        interpolate_ghosts_serial(&coarse, &mut want, s.ratio);
        assert_same_bits(&got, &want, "cached fill")?;

        // A coarse level laid out differently must not reuse them.
        let other = s.coarse(s.alt_max_box, s.seed ^ 0xaa);
        interpolate_ghosts_from_coarse(&other, &mut got, s.ratio);
        interpolate_ghosts_serial(&other, &mut want, s.ratio);
        assert_same_bits(&got, &want, "fill from a relaid coarse level")?;
    }

    #[test]
    fn interpolation_to_fine_equals_the_serial_loop(s in arb_setup()) {
        let coarse = s.coarse(s.coarse_max_box, s.seed);
        let (mut got, mut want) = (s.fine(!s.seed), s.fine(!s.seed));
        interpolate_to_fine(&coarse, &mut got, s.ratio);
        interpolate_to_fine_serial(&coarse, &mut want, s.ratio);
        assert_same_bits(&got, &want, "interpolate_to_fine")?;
    }

    #[test]
    fn average_down_equals_the_serial_loop(s in arb_setup()) {
        let fine = s.fine(s.seed);
        let mut got = s.coarse(s.coarse_max_box, !s.seed);
        let mut want = s.coarse(s.coarse_max_box, !s.seed);
        average_to_coarse(&fine, &mut got, s.ratio);
        average_to_coarse_serial(&fine, &mut want, s.ratio);
        assert_same_bits(&got, &want, "average_to_coarse")?;
    }

    #[test]
    fn taggers_equal_the_serial_loops(s in arb_setup(), threshold in 0.0f64..1.0) {
        // Both levels: a full decomposition and a sparse set of patches.
        for data in [s.coarse(s.coarse_max_box, s.seed), s.fine(s.seed)] {
            for comp in 0..s.ncomp {
                prop_assert!(same_tags(
                    &tag_amplitude(&data, comp, threshold - 0.5),
                    &tag_amplitude_serial(&data, comp, threshold - 0.5),
                ));
                if s.nghost >= 1 {
                    prop_assert!(same_tags(
                        &tag_undivided_gradient(&data, comp, threshold),
                        &tag_undivided_gradient_serial(&data, comp, threshold),
                    ));
                }
            }
        }
    }
}
