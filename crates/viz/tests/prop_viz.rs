//! Property-based tests of the visualization service: watertightness and
//! area sanity of extracted surfaces, conservation of down-sampling, and
//! entropy bounds — over randomized fields.

use proptest::prelude::*;
use xlayer_amr::{Fab, IBox, IntVect};
use xlayer_viz::downsample::{downsample_fab, downsample_region, reconstruction_mse};
use xlayer_viz::entropy::block_entropy;
use xlayer_viz::reference;
use xlayer_viz::stats::BlockStats;
use xlayer_viz::{extract_block, extract_payload_into, TriMesh};

/// A smooth random field: sum of a few random Gaussians.
fn blob_fab(n: i64, blobs: &[(f64, f64, f64, f64)]) -> Fab {
    let b = IBox::cube(n);
    let mut f = Fab::new(b, 1);
    for iv in b.cells() {
        let (x, y, z) = (iv[0] as f64 + 0.5, iv[1] as f64 + 0.5, iv[2] as f64 + 0.5);
        let mut v = 0.0;
        for &(cx, cy, cz, s) in blobs {
            let r2 = (x - cx).powi(2) + (y - cy).powi(2) + (z - cz).powi(2);
            v += (-r2 / (2.0 * s * s)).exp();
        }
        f.set(iv, 0, v);
    }
    f
}

/// A fab over an arbitrary (possibly negative-offset) box, filled with a
/// deterministic pseudo-random field derived from cell indices.
fn hashed_fab(lo: (i64, i64, i64), size: (i64, i64, i64), ncomp: usize) -> Fab {
    let b = IBox::new(
        IntVect::new(lo.0, lo.1, lo.2),
        IntVect::new(lo.0 + size.0 - 1, lo.1 + size.1 - 1, lo.2 + size.2 - 1),
    );
    let mut f = Fab::new(b, ncomp);
    for c in 0..ncomp {
        for iv in b.cells() {
            let h = (iv[0]
                .wrapping_mul(73856093)
                .wrapping_add(iv[1].wrapping_mul(19349663))
                .wrapping_add(iv[2].wrapping_mul(83492791))
                .wrapping_add(c as i64 * 7919))
            .rem_euclid(10_000);
            f.set(iv, c, h as f64 * 0.001 - 5.0);
        }
    }
    f
}

type Triple = (i64, i64, i64);

/// Arbitrary box origins/extents including non-divisible sizes, plus a
/// query region that may stick out past the fab's box (clipping path).
fn arb_geometry() -> impl Strategy<Value = (Triple, Triple, Triple, Triple)> {
    (
        (-7i64..7, -7i64..7, -7i64..7),
        (1i64..12, 1i64..12, 1i64..12),
        (-9i64..9, -9i64..9, -9i64..9),
        (1i64..14, 1i64..14, 1i64..14),
    )
}

fn arb_blobs(n: i64) -> impl Strategy<Value = Vec<(f64, f64, f64, f64)>> {
    proptest::collection::vec(
        (
            2.0..(n as f64 - 2.0),
            2.0..(n as f64 - 2.0),
            2.0..(n as f64 - 2.0),
            1.0..3.0f64,
        ),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn extracted_surfaces_are_watertight(blobs in arb_blobs(12), iso in 0.2f64..0.8) {
        // Isosurfaces of a smooth field that vanishes at the boundary are
        // closed; the tetrahedral decomposition must produce zero boundary
        // edges whenever the surface doesn't touch the sampled hull.
        let fab = blob_fab(12, &blobs);
        let region = IBox::cube(12);
        let mesh = extract_block(&fab, 0, &region, iso, 1.0, [0.0; 3]);
        // Only check watertightness when the surface is interior: every
        // vertex strictly inside the sampled hull [0.5, 11.5].
        let interior = mesh
            .vertices
            .iter()
            .all(|v| v.iter().all(|&c| c > 0.51 && c < 11.49));
        if interior && !mesh.is_empty() {
            prop_assert_eq!(mesh.boundary_edge_count(1e-9), 0);
        }
    }

    #[test]
    fn vertices_lie_inside_the_region(blobs in arb_blobs(12), iso in 0.1f64..0.9) {
        let fab = blob_fab(12, &blobs);
        let region = IBox::cube(12);
        let mesh = extract_block(&fab, 0, &region, iso, 1.0, [0.0; 3]);
        for v in &mesh.vertices {
            for c in v {
                prop_assert!(*c >= 0.5 - 1e-9 && *c <= 11.5 + 1e-9);
            }
        }
    }

    #[test]
    fn higher_iso_of_single_blob_means_smaller_surface(
        cx in 5.0f64..7.0, s in 1.5f64..2.5,
    ) {
        let fab = blob_fab(12, &[(cx, 6.0, 6.0, s)]);
        let region = IBox::cube(12);
        let lo = extract_block(&fab, 0, &region, 0.3, 1.0, [0.0; 3]).area();
        let hi = extract_block(&fab, 0, &region, 0.7, 1.0, [0.0; 3]).area();
        // level sets of a Gaussian shrink with level
        if lo > 0.0 && hi > 0.0 {
            prop_assert!(hi < lo + 1e-9, "hi {} !< lo {}", hi, lo);
        }
    }

    #[test]
    fn downsample_conserves_weighted_mass(blobs in arb_blobs(16), x in 1u32..6) {
        // Block-averaging conserves mass exactly when each coarse value is
        // weighted by the number of fine cells it averaged (partial edge
        // blocks carry partial weight).
        let fab = blob_fab(16, &blobs);
        let ds = downsample_fab(&fab, 0, x);
        let src_total = fab.sum_on(&fab.ibox(), 0);
        let mut dst_total = 0.0;
        for civ in ds.ibox().cells() {
            let weight = IBox::single(civ)
                .refine(x as i64)
                .intersect(&fab.ibox())
                .num_cells() as f64;
            dst_total += ds.get(civ, 0) * weight;
        }
        prop_assert!(
            (src_total - dst_total).abs() <= 1e-9 * src_total.abs().max(1.0),
            "mass {} -> {} at x={}", src_total, dst_total, x
        );
    }

    #[test]
    fn reconstruction_mse_nonnegative_and_zero_at_identity(blobs in arb_blobs(12)) {
        let fab = blob_fab(12, &blobs);
        prop_assert_eq!(reconstruction_mse(&fab, 0, 1), 0.0);
        prop_assert!(reconstruction_mse(&fab, 0, 2) >= 0.0);
    }

    #[test]
    fn entropy_bounds(blobs in arb_blobs(12), bins in 2usize..512) {
        let fab = blob_fab(12, &blobs);
        let h = block_entropy(&fab, 0, &IBox::cube(12), bins);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (bins as f64).log2() + 1e-9);
        // also bounded by log2(#samples)
        prop_assert!(h <= (12.0f64 * 12.0 * 12.0).log2() + 1e-9);
    }

    #[test]
    fn entropy_invariant_to_affine_value_shift(blobs in arb_blobs(12), shift in -5.0f64..5.0, scale in 0.1f64..10.0) {
        let fab = blob_fab(12, &blobs);
        let mut shifted = Fab::new(fab.ibox(), 1);
        for iv in fab.ibox().cells() {
            shifted.set(iv, 0, fab.get(iv, 0) * scale + shift);
        }
        let h0 = block_entropy(&fab, 0, &IBox::cube(12), 128);
        let h1 = block_entropy(&shifted, 0, &IBox::cube(12), 128);
        // histogram over min..max is affine-invariant up to fp rounding
        prop_assert!((h0 - h1).abs() < 0.2, "{} vs {}", h0, h1);
    }

    #[test]
    fn flat_downsample_matches_reference_bitwise(
        geom in arb_geometry(), x in 1u32..6,
    ) {
        // The flat strided-row kernel accumulates each coarse cell in the
        // same order as the per-cell reference, so the floating-point sums
        // are bit-identical — including non-divisible extents, negative
        // origins, and regions clipped by fab.ibox().
        let (lo, size, rlo, rsize) = geom;
        let fab = hashed_fab(lo, size, 2);
        let region = IBox::new(
            IntVect::new(rlo.0, rlo.1, rlo.2),
            IntVect::new(rlo.0 + rsize.0 - 1, rlo.1 + rsize.1 - 1, rlo.2 + rsize.2 - 1),
        );
        let flat = downsample_region(&fab, 1, &region, x);
        let rf = reference::downsample_region(&fab, 1, &region, x);
        prop_assert_eq!(flat.ibox(), rf.ibox());
        let (a, b) = (flat.as_slice(), rf.as_slice());
        prop_assert_eq!(a.len(), b.len());
        for (va, vb) in a.iter().zip(b) {
            prop_assert_eq!(va.to_bits(), vb.to_bits(), "{} vs {}", va, vb);
        }
    }

    #[test]
    fn flat_mse_matches_reference_bitwise(
        lo in (-7i64..7, -7i64..7, -7i64..7),
        size in (2i64..12, 2i64..12, 2i64..12),
        x in 1u32..5,
    ) {
        let fab = hashed_fab(lo, size, 1);
        let flat = reconstruction_mse(&fab, 0, x);
        let rf = reference::reconstruction_mse(&fab, 0, x);
        prop_assert_eq!(flat.to_bits(), rf.to_bits(), "{} vs {}", flat, rf);
    }

    #[test]
    fn flat_entropy_matches_reference_bitwise(
        geom in arb_geometry(), bins in 2usize..256,
    ) {
        let (lo, size, rlo, rsize) = geom;
        let fab = hashed_fab(lo, size, 1);
        let region = IBox::new(
            IntVect::new(rlo.0, rlo.1, rlo.2),
            IntVect::new(rlo.0 + rsize.0 - 1, rlo.1 + rsize.1 - 1, rlo.2 + rsize.2 - 1),
        );
        let flat = block_entropy(&fab, 0, &region, bins);
        let rf = reference::block_entropy(&fab, 0, &region, bins);
        prop_assert_eq!(flat.to_bits(), rf.to_bits(), "{} vs {}", flat, rf);
    }

    #[test]
    fn flat_stats_match_reference_bitwise(geom in arb_geometry()) {
        let (lo, size, rlo, rsize) = geom;
        let fab = hashed_fab(lo, size, 2);
        let region = IBox::new(
            IntVect::new(rlo.0, rlo.1, rlo.2),
            IntVect::new(rlo.0 + rsize.0 - 1, rlo.1 + rsize.1 - 1, rlo.2 + rsize.2 - 1),
        );
        let flat = BlockStats::compute(&fab, 1, &region);
        let rf = reference::block_stats(&fab, 1, &region);
        prop_assert_eq!(flat.count, rf.count);
        prop_assert_eq!(flat.min.to_bits(), rf.min.to_bits());
        prop_assert_eq!(flat.max.to_bits(), rf.max.to_bits());
        prop_assert_eq!(flat.mean.to_bits(), rf.mean.to_bits());
        prop_assert_eq!(flat.variance.to_bits(), rf.variance.to_bits());
    }

    #[test]
    fn mesh_byte_accounting_matches_counts(blobs in arb_blobs(12), iso in 0.2f64..0.8) {
        let fab = blob_fab(12, &blobs);
        let mesh = extract_block(&fab, 0, &IBox::cube(12), iso, 1.0, [0.0; 3]);
        let expect = (mesh.num_vertices() * 24 + mesh.num_triangles() * 12) as u64;
        prop_assert_eq!(mesh.bytes(), expect);
    }
}

/// Row widths around the classify pass's 64-bit words: anything small, one
/// short of a word, exactly one, one over, and two words plus a carry.
fn arb_width() -> impl Strategy<Value = i64> {
    prop_oneof![1i64..12, Just(63i64), Just(64), Just(65), Just(130)]
}

/// One axis of the extraction region for a box starting at `lo` with
/// `size` cells: one cell thick, the whole box, the box grown past both
/// ends (clipped), or a shifted interior span.
fn region_axis(lo: i64, size: i64, mode: u8, shift: i64) -> (i64, i64) {
    match mode {
        0 => (lo + shift, lo + shift),
        1 => (lo, lo + size - 1),
        2 => (lo - 2, lo + size + 1),
        _ => (lo + shift, lo + size - 1 - shift.abs()),
    }
}

/// A two-component fab whose component 1 is either the hashed field
/// (values on a 0.001 grid, so isovalues hit samples exactly) or a Gaussian
/// blob, with every `1 / every`-th cell (0: none) replaced by NaN, +∞ or −∞.
fn special_fab(b: IBox, blob: bool, every: u64) -> Fab {
    let mut f = Fab::new(b, 2);
    let c = [0, 1, 2].map(|d| (b.lo()[d] + b.hi()[d]) as f64 / 2.0);
    let s = 0.25 * b.size()[0].max(b.size()[1]).max(b.size()[2]) as f64 + 0.5;
    for iv in b.cells() {
        let h = iv[0]
            .wrapping_mul(73856093)
            .wrapping_add(iv[1].wrapping_mul(19349663))
            .wrapping_add(iv[2].wrapping_mul(83492791))
            .rem_euclid(10_000) as u64;
        let v = if every > 0 && h % (3 * every) < 3 {
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(h % 3) as usize]
        } else if blob {
            let r2: f64 = (0..3).map(|d| (iv[d] as f64 - c[d]).powi(2)).sum();
            (-r2 / (2.0 * s * s)).exp()
        } else {
            h as f64 * 0.001 - 5.0
        };
        f.set(iv, 1, v);
    }
    f
}

/// Component `comp` of `fab` as a staged object's payload bytes.
fn payload_of(fab: &Fab, comp: usize) -> Vec<u8> {
    fab.comp_slice(comp)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

/// A mesh as bits: vertex coordinates by `to_bits`, then the triangles.
fn mesh_bits(m: &TriMesh) -> (Vec<[u64; 3]>, Vec<[u32; 3]>) {
    let v = m.vertices.iter().map(|p| p.map(f64::to_bits)).collect();
    (v, m.triangles.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn classify_first_marching_cubes_matches_reference_bitwise(
        lo in (-7i64..7, -7i64..7, -7i64..7),
        size in (arb_width(), 1i64..7, 1i64..7),
        clip in (0u8..4, 0u8..4, 0u8..4, -1i64..3),
        field in (0u8..2, 0u64..4),
        iso in (0u8..2, 0usize..1 << 20, -5.0f64..5.0),
        place in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0, 0.125f64..2.0),
    ) {
        // The classify-then-gather kernel, from a fab and from payload
        // bytes, against the per-cube walk it replaced: every vertex bit and
        // every triangle, in order — over negative box origins, clipped and
        // one-cell-thick regions, rows that straddle 64-bit words, samples
        // equal to the isovalue, and NaN / ±∞ corners.
        let b = IBox::new(
            IntVect::new(lo.0, lo.1, lo.2),
            IntVect::new(lo.0 + size.0 - 1, lo.1 + size.1 - 1, lo.2 + size.2 - 1),
        );
        let fab = special_fab(b, field.0 == 1, field.1);
        let axes = [
            region_axis(lo.0, size.0, clip.0, clip.3),
            region_axis(lo.1, size.1, clip.1, clip.3),
            region_axis(lo.2, size.2, clip.2, clip.3),
        ];
        let region = IBox::new(
            IntVect::new(axes[0].0, axes[1].0, axes[2].0),
            IntVect::new(axes[0].1, axes[1].1, axes[2].1),
        );
        // Half the cases take the isovalue from a sample (an exact tie, or
        // a special), half from a range that spans both fields.
        let samples = fab.comp_slice(1);
        let iso = if iso.0 == 0 {
            samples[iso.1 % samples.len()]
        } else if field.0 == 1 {
            (iso.2 + 5.0) / 10.0
        } else {
            iso.2
        };
        let (origin, dx) = ([place.0, place.1, place.2], place.3);

        let rf = reference::extract_block(&fab, 1, &region, iso, dx, origin);
        let flat = extract_block(&fab, 1, &region, iso, dx, origin);
        let mut staged = TriMesh::new();
        extract_payload_into(&payload_of(&fab, 1), &b, &region, iso, dx, origin, &mut staged);
        prop_assert_eq!(mesh_bits(&flat), mesh_bits(&rf), "extract_block, iso {}", iso);
        prop_assert_eq!(mesh_bits(&staged), mesh_bits(&rf), "extract_payload_into, iso {}", iso);
    }
}
