//! Isosurface extraction: marching cubes over cell-centered AMR data.
//!
//! This is the paper's visualization service (§5.1): per-cell, local
//! triangulation with ghost regions supplied by the AMR layer, so no
//! communication is needed during extraction.
//!
//! Each cube (the 8 cell centers of a 2×2×2 cell block) is triangulated by
//! decomposition into six tetrahedra sharing the cube's main diagonal.
//! The decomposition is face-consistent between neighboring cubes, so the
//! extracted surface is watertight — this resolves the ambiguous
//! configurations of the classic 256-case table variant.
//!
//! ## Classify, then gather
//!
//! The paper prices the service as cells scanned plus triangles emitted.
//! Nearly every cube of a level misses the surface, so the scan is
//! min–max culling (span-space, Livnat, Shen & Johnson 1996) done with
//! bits: one streaming pass per row of samples writes a `v >= iso` bit row
//! and a `v < iso` bit row (NaN sets neither, so a cube with a NaN corner
//! is judged on its other corners, as a per-corner `any` test would). A
//! cube anchored at `x` is active iff some corner of its four rows is
//! `>= iso` and some is `< iso`: over 64 anchors at once that is
//! `(o | o >> 1) & (l | l >> 1)` on the OR of the four rows' words, the
//! shift carrying bit 0 of the next word. Only the set bits of that word
//! gather their 8 corners and reach `march_tet`, in the same z → y → x
//! anchor order as a per-cube walk, so every vertex and triangle is
//! bit-identical to it (`reference::extract_block` is that walk, kept for
//! the tests). The cost is rows classified + active cubes marched.
//!
//! The kernel reads its samples either from a fab component
//! ([`extract_block`], [`extract_level`]) or from a staged object's
//! little-endian payload bytes ([`extract_payload_into`]) — one generic
//! kernel, monomorphised per source, so a consumer never decodes a payload
//! into a fab only to index it.

use crate::mesh::{Point, TriMesh};
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;
use xlayer_amr::level_data::LevelData;

/// Corner offsets of a cube, standard MC corner numbering.
pub(crate) const CORNERS: [[i64; 3]; 8] = [
    [0, 0, 0],
    [1, 0, 0],
    [1, 1, 0],
    [0, 1, 0],
    [0, 0, 1],
    [1, 0, 1],
    [1, 1, 1],
    [0, 1, 1],
];

/// Six tetrahedra sharing the 0–6 main diagonal. This split agrees with the
/// same split in every face-adjacent cube (the shared-face diagonals match),
/// which makes the global surface watertight.
pub(crate) const TETS: [[usize; 4]; 6] = [
    [0, 1, 2, 6],
    [0, 2, 3, 6],
    [0, 3, 7, 6],
    [0, 7, 4, 6],
    [0, 4, 5, 6],
    [0, 5, 1, 6],
];

/// One sample as the kernel reads it: an `f64` of a fab component, or the
/// eight little-endian bytes of one in a staged payload.
trait Sample: Copy {
    fn value(self) -> f64;
}

impl Sample for f64 {
    #[inline]
    fn value(self) -> f64 {
        self
    }
}

impl Sample for [u8; 8] {
    #[inline]
    fn value(self) -> f64 {
        f64::from_le_bytes(self)
    }
}

/// Extract the isosurface of component `comp` at isovalue `iso` from the
/// cubes anchored at the cells of `region`.
///
/// A cube anchored at cell `iv` spans the cell centers `iv .. iv+1`; it is
/// processed only if all 8 corners are available in `fab` (ghost cells
/// included). Vertices are emitted in physical coordinates
/// `origin + (cell + 0.5) * dx`.
pub fn extract_block(
    fab: &Fab,
    comp: usize,
    region: &IBox,
    iso: f64,
    dx: f64,
    origin: Point,
) -> TriMesh {
    let mut mesh = TriMesh::new();
    march_cubes(
        fab.comp_slice(comp),
        &fab.ibox(),
        region,
        iso,
        dx,
        origin,
        &mut mesh,
    );
    mesh
}

/// [`extract_block`] straight off a staged object's payload — `payload` is
/// little-endian `f64`s in Fortran order over `bbox` — appending to `mesh`.
///
/// Nothing is decoded beyond what the classify pass reads and the corners
/// of active cubes. Triangles index `mesh`'s running vertex count, so
/// extracting objects one after another into one mesh gives exactly
/// [`TriMesh::concat`] of their separate meshes.
///
/// # Panics
/// If `payload` is not 8 bytes per cell of `bbox`.
pub fn extract_payload_into(
    payload: &[u8],
    bbox: &IBox,
    region: &IBox,
    iso: f64,
    dx: f64,
    origin: Point,
    mesh: &mut TriMesh,
) {
    assert_eq!(
        payload.len() as u64,
        bbox.num_cells() * 8,
        "payload is not one f64 per cell of its bbox"
    );
    let (samples, _) = payload.as_chunks::<8>();
    march_cubes(samples, bbox, region, iso, dx, origin, mesh);
}

/// Set bit `j` of `ge` / `lt` for each sample `j` of `row` that is
/// `>= iso` / `< iso`; `ge` and `lt` have one word per 64 samples.
fn classify_row<E: Sample>(row: &[E], iso: f64, ge: &mut [u64], lt: &mut [u64]) {
    for ((g, l), word) in ge.iter_mut().zip(lt.iter_mut()).zip(row.chunks(64)) {
        let (mut gw, mut lw) = (0u64, 0u64);
        // Eight samples at a time with constant shifts, so the compares
        // pair up into vector compares and mask moves; then the tail.
        let (octets, tail) = word.as_chunks::<8>();
        for (j, oct) in octets.iter().enumerate() {
            let (mut gb, mut lb) = (0u64, 0u64);
            for (k, e) in oct.iter().enumerate() {
                let v = e.value();
                gb |= u64::from(v >= iso) << k;
                lb |= u64::from(v < iso) << k;
            }
            gw |= gb << (8 * j);
            lw |= lb << (8 * j);
        }
        for (k, e) in tail.iter().enumerate() {
            let v = e.value();
            gw |= u64::from(v >= iso) << (8 * octets.len() + k);
            lw |= u64::from(v < iso) << (8 * octets.len() + k);
        }
        *g = gw;
        *l = lw;
    }
}

/// The kernel behind [`extract_block`] and [`extract_payload_into`]:
/// `src` holds the samples of `avail`, and the cubes anchored in `region`
/// with all 8 corners in `avail` are marched into `mesh`.
fn march_cubes<E: Sample>(
    src: &[E],
    avail: &IBox,
    region: &IBox,
    iso: f64,
    dx: f64,
    origin: Point,
    mesh: &mut TriMesh,
) {
    // A cube anchored at iv needs corners iv..iv+1, so the anchor set is the
    // region clipped to avail shrunk by one on the high side.
    let anchors = region.intersect(&IBox::new(avail.lo(), avail.hi() - IntVect::UNIT));
    if anchors.is_empty() {
        return;
    }
    let sx = avail.size();
    // Flat offsets of the 8 cube corners relative to the anchor cell.
    let mut corner_off = [0usize; 8];
    for (k, c) in CORNERS.iter().enumerate() {
        corner_off[k] = (c[0] + sx[0] * (c[1] + sx[1] * c[2])) as usize;
    }
    let IntVect([x0, y0, z0]) = anchors.lo();
    let IntVect([_, y1, z1]) = anchors.hi();
    let nx = anchors.size()[0] as usize;
    let ny = anchors.size()[1] as usize;
    // A corner row holds nx + 1 samples: `words` bit words per half, the
    // `ge` half then the `lt` half. A plane holds the ny + 1 corner rows of
    // one z; two planes (z and z + 1) are live at a time.
    let words = (nx + 1).div_ceil(64);
    let row_len = 2 * words;
    let plane_len = (ny + 1) * row_len;
    let mut bits = vec![0u64; 2 * plane_len];
    let (mut lower, mut upper) = bits.split_at_mut(plane_len);
    let classify_plane = |z: i64, plane: &mut [u64]| {
        for (j, row) in plane.chunks_exact_mut(row_len).enumerate() {
            let start = avail.offset(IntVect::new(x0, y0 + j as i64, z));
            let (ge, lt) = row.split_at_mut(words);
            classify_row(&src[start..start + nx + 1], iso, ge, lt);
        }
    };
    classify_plane(z0, lower);
    for z in z0..=z1 {
        classify_plane(z + 1, upper);
        for y in y0..=y1 {
            let j = (y - y0) as usize;
            let rows = [
                &lower[j * row_len..(j + 1) * row_len],
                &lower[(j + 1) * row_len..(j + 2) * row_len],
                &upper[j * row_len..(j + 1) * row_len],
                &upper[(j + 1) * row_len..(j + 2) * row_len],
            ];
            // Word `w` of the OR of the four rows' `ge` (half 0) or `lt`
            // (half 1) bits; zero past the row's end.
            let any = |half: usize, w: usize| -> u64 {
                if w < words {
                    let i = half * words + w;
                    rows[0][i] | rows[1][i] | rows[2][i] | rows[3][i]
                } else {
                    0
                }
            };
            let s0 = avail.offset(IntVect::new(x0, y, z));
            for w in 0..nx.div_ceil(64) {
                // Anchor bit b covers corner bits b and b + 1.
                let pair = |half: usize| {
                    let v = any(half, w);
                    v | (v >> 1) | (any(half, w + 1) << 63)
                };
                let left = nx - 64 * w;
                let anchor_mask = if left >= 64 { !0 } else { (1u64 << left) - 1 };
                let mut active = pair(0) & pair(1) & anchor_mask;
                while active != 0 {
                    let i = 64 * w + active.trailing_zeros() as usize;
                    active &= active - 1;
                    let base = s0 + i;
                    let mut vals = [0.0f64; 8];
                    for (k, off) in corner_off.iter().enumerate() {
                        vals[k] = src[base + off].value();
                    }
                    let x = x0 + i as i64;
                    let mut pts = [[0.0f64; 3]; 8];
                    for (k, c) in CORNERS.iter().enumerate() {
                        pts[k] = [
                            origin[0] + ((x + c[0]) as f64 + 0.5) * dx,
                            origin[1] + ((y + c[1]) as f64 + 0.5) * dx,
                            origin[2] + ((z + c[2]) as f64 + 0.5) * dx,
                        ];
                    }
                    for tet in &TETS {
                        march_tet(
                            [pts[tet[0]], pts[tet[1]], pts[tet[2]], pts[tet[3]]],
                            [vals[tet[0]], vals[tet[1]], vals[tet[2]], vals[tet[3]]],
                            iso,
                            mesh,
                        );
                    }
                }
            }
        }
        std::mem::swap(&mut lower, &mut upper);
    }
}

/// Interpolate the iso crossing on the segment `a`–`b`.
fn lerp(pa: Point, pb: Point, va: f64, vb: f64, iso: f64) -> Point {
    let denom = vb - va;
    let t = if denom.abs() < 1e-300 {
        0.5
    } else {
        ((iso - va) / denom).clamp(0.0, 1.0)
    };
    [
        pa[0] + t * (pb[0] - pa[0]),
        pa[1] + t * (pb[1] - pa[1]),
        pa[2] + t * (pb[2] - pa[2]),
    ]
}

/// Triangulate the isosurface within one tetrahedron.
pub(crate) fn march_tet(p: [Point; 4], v: [f64; 4], iso: f64, mesh: &mut TriMesh) {
    let mut mask = 0usize;
    for (k, &vk) in v.iter().enumerate() {
        if vk >= iso {
            mask |= 1 << k;
        }
    }
    // For each case list the crossed edges (pairs of corner ids) forming a
    // triangle or a quad (as two triangles). Edge order keeps a consistent
    // winding with respect to the "inside" (v >= iso) region.
    let edge = |a: usize, b: usize| lerp(p[a], p[b], v[a], v[b], iso);
    match mask {
        0x0 | 0xF => {}
        // one corner inside
        0x1 => mesh.push_triangle(edge(0, 1), edge(0, 2), edge(0, 3)),
        0x2 => mesh.push_triangle(edge(1, 0), edge(1, 3), edge(1, 2)),
        0x4 => mesh.push_triangle(edge(2, 0), edge(2, 1), edge(2, 3)),
        0x8 => mesh.push_triangle(edge(3, 0), edge(3, 2), edge(3, 1)),
        // one corner outside
        0xE => mesh.push_triangle(edge(0, 1), edge(0, 3), edge(0, 2)),
        0xD => mesh.push_triangle(edge(1, 0), edge(1, 2), edge(1, 3)),
        0xB => mesh.push_triangle(edge(2, 0), edge(2, 3), edge(2, 1)),
        0x7 => mesh.push_triangle(edge(3, 0), edge(3, 1), edge(3, 2)),
        // two in / two out: quad
        0x3 => {
            // 0,1 inside; crossings on 0-2, 0-3, 1-3, 1-2
            let (a, b, c, d) = (edge(0, 2), edge(0, 3), edge(1, 3), edge(1, 2));
            mesh.push_triangle(a, b, c);
            mesh.push_triangle(a, c, d);
        }
        0xC => {
            let (a, b, c, d) = (edge(0, 2), edge(0, 3), edge(1, 3), edge(1, 2));
            mesh.push_triangle(a, c, b);
            mesh.push_triangle(a, d, c);
        }
        0x5 => {
            // 0,2 inside; crossings on 0-1, 0-3, 2-3, 2-1
            let (a, b, c, d) = (edge(0, 1), edge(0, 3), edge(2, 3), edge(2, 1));
            mesh.push_triangle(a, c, b);
            mesh.push_triangle(a, d, c);
        }
        0xA => {
            let (a, b, c, d) = (edge(0, 1), edge(0, 3), edge(2, 3), edge(2, 1));
            mesh.push_triangle(a, b, c);
            mesh.push_triangle(a, c, d);
        }
        0x9 => {
            // 0,3 inside; crossings on 0-1, 0-2, 3-2, 3-1
            let (a, b, c, d) = (edge(0, 1), edge(0, 2), edge(3, 2), edge(3, 1));
            mesh.push_triangle(a, b, c);
            mesh.push_triangle(a, c, d);
        }
        0x6 => {
            let (a, b, c, d) = (edge(0, 1), edge(0, 2), edge(3, 2), edge(3, 1));
            mesh.push_triangle(a, c, b);
            mesh.push_triangle(a, d, c);
        }
        _ => unreachable!("4-bit mask"),
    }
}

/// Extraction output for one grid of a level.
#[derive(Clone, Debug)]
pub struct GridSurface {
    /// Index of the grid in the level's layout.
    pub grid: usize,
    /// Owning rank.
    pub rank: usize,
    /// The extracted patch.
    pub mesh: TriMesh,
}

/// Extract the isosurface from every grid of a level.
///
/// Cube anchors are the grid's valid cells, so patches from different grids
/// never overlap; corners crossing a grid boundary come from ghost cells
/// (call `exchange()` / `fill_ghosts()` first). Needs `nghost ≥ 1`.
pub fn extract_level(data: &LevelData, comp: usize, iso: f64, dx: f64) -> Vec<GridSurface> {
    use rayon::prelude::*;
    assert!(data.nghost() >= 1, "marching cubes needs one ghost layer");
    // Extraction is communication-free (§5.1), so grids process in parallel.
    (0..data.len())
        .into_par_iter()
        .map(|i| {
            let region = data.valid_box(i);
            let mesh = extract_block(data.fab(i), comp, &region, iso, dx, [0.0; 3]);
            GridSurface {
                grid: i,
                rank: data.layout().rank(i),
                mesh,
            }
        })
        .collect()
}

/// Merge per-grid surfaces into one mesh (order-preserving, allocated once
/// at final size: [`TriMesh::concat`]).
pub fn merge_surfaces(surfaces: &[GridSurface]) -> TriMesh {
    let parts: Vec<&TriMesh> = surfaces.iter().map(|s| &s.mesh).collect();
    TriMesh::concat(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_amr::domain::ProblemDomain;
    use xlayer_amr::layout::BoxLayout;

    /// A level filled with `f(cell center in index coords)`.
    fn field_level(n: i64, max_box: i64, f: impl Fn(f64, f64, f64) -> f64) -> LevelData {
        let domain = ProblemDomain::new(IBox::cube(n));
        let layout = BoxLayout::decompose(&domain, max_box, 1);
        let mut ld = LevelData::new(layout, domain, 1, 1);
        ld.for_each_mut(|_, fab| {
            for iv in fab.ibox().cells() {
                fab.set(
                    iv,
                    0,
                    f(iv[0] as f64 + 0.5, iv[1] as f64 + 0.5, iv[2] as f64 + 0.5),
                );
            }
        });
        ld
    }

    #[test]
    fn plane_isosurface_has_exact_area() {
        // f = x, iso = 8.0 inside a 16^3 box: the surface is the plane x=8
        // spanning the cube interior sampled on cell centers:
        // y,z ∈ [0.5, 15.5] => area 15x15.
        let ld = field_level(16, 16, |x, _, _| x);
        let surfaces = extract_level(&ld, 0, 8.0, 1.0);
        let mesh = merge_surfaces(&surfaces);
        assert!(!mesh.is_empty());
        assert!(
            (mesh.area() - 225.0).abs() < 1e-9,
            "plane area {} != 225",
            mesh.area()
        );
        // All vertices on x = 8.
        for v in &mesh.vertices {
            assert!((v[0] - 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sphere_isosurface_area_and_watertightness() {
        let c = 8.0;
        let r = 5.0;
        let ld = field_level(16, 16, |x, y, z| {
            ((x - c).powi(2) + (y - c).powi(2) + (z - c).powi(2)).sqrt()
        });
        let surfaces = extract_level(&ld, 0, r, 1.0);
        let mesh = merge_surfaces(&surfaces);
        let expect = 4.0 * std::f64::consts::PI * r * r;
        let got = mesh.area();
        assert!(
            (got - expect).abs() / expect < 0.05,
            "sphere area {got} vs {expect}"
        );
        assert_eq!(
            mesh.boundary_edge_count(1e-9),
            0,
            "sphere surface is not watertight"
        );
    }

    #[test]
    fn multi_grid_extraction_matches_single_grid() {
        let c = 8.0;
        let r = 5.0;
        let f = move |x: f64, y: f64, z: f64| {
            ((x - c).powi(2) + (y - c).powi(2) + (z - c).powi(2)).sqrt()
        };
        let mut single = field_level(16, 16, f);
        let mut multi = field_level(16, 8, f);
        single.exchange();
        multi.exchange();
        let m1 = merge_surfaces(&extract_level(&single, 0, r, 1.0));
        let m2 = merge_surfaces(&extract_level(&multi, 0, r, 1.0));
        assert!((m1.area() - m2.area()).abs() < 1e-9);
        assert_eq!(m2.boundary_edge_count(1e-9), 0, "cross-grid seams leak");
    }

    #[test]
    fn no_crossing_no_triangles() {
        let ld = field_level(8, 8, |_, _, _| 1.0);
        let mesh = merge_surfaces(&extract_level(&ld, 0, 5.0, 1.0));
        assert!(mesh.is_empty());
    }

    #[test]
    fn triangle_count_scales_with_surface_area() {
        // Doubling the sphere radius roughly quadruples triangles.
        let c = 16.0;
        let field = move |x: f64, y: f64, z: f64| {
            ((x - c).powi(2) + (y - c).powi(2) + (z - c).powi(2)).sqrt()
        };
        let ld = field_level(32, 32, field);
        let small = merge_surfaces(&extract_level(&ld, 0, 5.0, 1.0)).num_triangles() as f64;
        let large = merge_surfaces(&extract_level(&ld, 0, 10.0, 1.0)).num_triangles() as f64;
        let ratio = large / small;
        assert!(
            (2.5..6.0).contains(&ratio),
            "triangle scaling ratio {ratio} not ~4"
        );
    }

    #[test]
    fn dx_scales_vertex_positions() {
        let ld = field_level(8, 8, |x, _, _| x);
        let m1 = merge_surfaces(&extract_level(&ld, 0, 4.0, 1.0));
        let m2 = merge_surfaces(&extract_level(&ld, 0, 4.0, 0.5));
        assert!((m2.area() - m1.area() / 4.0).abs() < 1e-9);
    }

    #[test]
    fn extracting_objects_into_one_mesh_equals_concat_of_their_meshes() {
        // What an in-transit worker does with a version's objects: each
        // grid's halo payload extracted into one running mesh must be
        // byte-identical to concatenating one mesh per object.
        let c = 8.0;
        let mut ld = field_level(16, 8, move |x, y, z| {
            ((x - c).powi(2) + (y - c).powi(2) + (z - c).powi(2)).sqrt()
        });
        ld.exchange();
        let mut running = TriMesh::new();
        let mut parts = Vec::new();
        for i in 0..ld.len() {
            let fab = ld.fab(i);
            let payload: Vec<u8> = fab
                .comp_slice(0)
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            let core = ld.valid_box(i);
            extract_payload_into(
                &payload,
                &fab.ibox(),
                &core,
                5.0,
                0.5,
                [1.0, -2.0, 0.25],
                &mut running,
            );
            parts.push(extract_block(fab, 0, &core, 5.0, 0.5, [1.0, -2.0, 0.25]));
        }
        let refs: Vec<&TriMesh> = parts.iter().collect();
        let concat = TriMesh::concat(&refs);
        assert!(parts.iter().filter(|m| !m.is_empty()).count() > 1);
        assert_eq!(running.triangles, concat.triangles);
        let bits = |m: &TriMesh| -> Vec<[u64; 3]> {
            m.vertices.iter().map(|p| p.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&running), bits(&concat));
    }

    #[test]
    fn rank_passthrough() {
        let ld = field_level(16, 8, |x, _, _| x);
        let surfaces = extract_level(&ld, 0, 8.0, 1.0);
        assert_eq!(surfaces.len(), ld.len());
        for s in &surfaces {
            assert_eq!(s.rank, ld.layout().rank(s.grid));
        }
    }
}
