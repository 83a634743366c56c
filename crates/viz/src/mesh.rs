//! Triangle meshes produced by isosurface extraction.

/// A point in physical space.
pub type Point = [f64; 3];

/// An indexed triangle mesh.
#[derive(Clone, Debug, Default)]
pub struct TriMesh {
    /// Vertex positions.
    pub vertices: Vec<Point>,
    /// Triangles as vertex-index triples (counter-clockwise seen from the
    /// positive side of the isosurface).
    pub triangles: Vec<[u32; 3]>,
}

impl TriMesh {
    /// An empty mesh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triangles.
    pub fn num_triangles(&self) -> usize {
        self.triangles.len()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// True if the mesh has no triangles.
    pub fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }

    /// Approximate in-memory size: the paper's in-transit memory constraint
    /// (Eq. 10) is expressed over data volumes, and analysis output counts.
    pub fn bytes(&self) -> u64 {
        (self.vertices.len() * std::mem::size_of::<Point>()
            + self.triangles.len() * std::mem::size_of::<[u32; 3]>()) as u64
    }

    /// Append a raw triangle (three new vertices, no welding).
    pub fn push_triangle(&mut self, a: Point, b: Point, c: Point) {
        let base = self.vertices.len() as u32;
        self.vertices.push(a);
        self.vertices.push(b);
        self.vertices.push(c);
        self.triangles.push([base, base + 1, base + 2]);
    }

    /// Merge another mesh into this one.
    pub fn append(&mut self, other: &TriMesh) {
        let base = self.vertices.len() as u32;
        self.vertices.extend_from_slice(&other.vertices);
        self.triangles.extend(
            other
                .triangles
                .iter()
                .map(|t| [t[0] + base, t[1] + base, t[2] + base]),
        );
    }

    /// Concatenate many meshes into one, in order.
    ///
    /// The output sizes are the sums of the input counts, so the result
    /// buffers are allocated once at final size — repeated
    /// [`TriMesh::append`] without the reallocation-and-copy chain. One
    /// thread does the copying: the merge is a single pass over memory, and
    /// splitting it over the pool (zero-fill the buffers, then remap each
    /// part into its slice in parallel) measured slower at every size from
    /// 0.6 MB (52–72 µs against 17–23) to 20 MB (1.9–2.5 ms against
    /// 1.7–2.1) on two hardware threads.
    pub fn concat(parts: &[&TriMesh]) -> TriMesh {
        let mut out = TriMesh {
            vertices: Vec::with_capacity(parts.iter().map(|m| m.vertices.len()).sum()),
            triangles: Vec::with_capacity(parts.iter().map(|m| m.triangles.len()).sum()),
        };
        for src in parts {
            out.append(src);
        }
        out
    }

    /// Total surface area.
    pub fn area(&self) -> f64 {
        self.triangles
            .iter()
            .map(|t| {
                let a = self.vertices[t[0] as usize];
                let b = self.vertices[t[1] as usize];
                let c = self.vertices[t[2] as usize];
                triangle_area(a, b, c)
            })
            .sum()
    }

    /// Axis-aligned bounding box of the vertices, or `None` if empty.
    pub fn bounds(&self) -> Option<(Point, Point)> {
        let mut it = self.vertices.iter();
        let first = *it.next()?;
        let mut lo = first;
        let mut hi = first;
        for v in it {
            for d in 0..3 {
                lo[d] = lo[d].min(v[d]);
                hi[d] = hi[d].max(v[d]);
            }
        }
        Some((lo, hi))
    }

    /// Weld vertices closer than `eps` (exact grid duplicates in practice),
    /// remapping triangles. Returns the welded mesh.
    pub fn welded(&self, eps: f64) -> TriMesh {
        let quant = |v: &Point| -> (i64, i64, i64) {
            (
                (v[0] / eps).round() as i64,
                (v[1] / eps).round() as i64,
                (v[2] / eps).round() as i64,
            )
        };
        // BTreeMap so the welded vertex numbering is a pure function of the
        // input (first-occurrence order), never of a hasher's bucket layout.
        let mut map = std::collections::BTreeMap::new();
        let mut vertices = Vec::new();
        let mut remap = Vec::with_capacity(self.vertices.len());
        for v in &self.vertices {
            let k = quant(v);
            let idx = *map.entry(k).or_insert_with(|| {
                vertices.push(*v);
                (vertices.len() - 1) as u32
            });
            remap.push(idx);
        }
        let triangles = self
            .triangles
            .iter()
            .map(|t| {
                [
                    remap[t[0] as usize],
                    remap[t[1] as usize],
                    remap[t[2] as usize],
                ]
            })
            .filter(|t| t[0] != t[1] && t[1] != t[2] && t[0] != t[2])
            .collect();
        TriMesh {
            vertices,
            triangles,
        }
    }

    /// Count boundary edges (edges used by exactly one triangle) after
    /// welding — 0 for a watertight surface.
    pub fn boundary_edge_count(&self, eps: f64) -> usize {
        let w = self.welded(eps);
        let mut edges = std::collections::BTreeMap::new();
        for t in &w.triangles {
            for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                let key = (a.min(b), a.max(b));
                *edges.entry(key).or_insert(0usize) += 1;
            }
        }
        edges.values().filter(|&&c| c == 1).count()
    }
}

/// Area of a single triangle.
pub fn triangle_area(a: Point, b: Point, c: Point) -> f64 {
    let u = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
    let v = [c[0] - a[0], c[1] - a[1], c[2] - a[2]];
    let cx = u[1] * v[2] - u[2] * v[1];
    let cy = u[2] * v[0] - u[0] * v[2];
    let cz = u[0] * v[1] - u[1] * v[0];
    0.5 * (cx * cx + cy * cy + cz * cz).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_area_unit() {
        let a = triangle_area([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]);
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn push_and_append() {
        let mut m = TriMesh::new();
        m.push_triangle([0.0; 3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]);
        let mut n = TriMesh::new();
        n.push_triangle([0.0; 3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]);
        m.append(&n);
        assert_eq!(m.num_triangles(), 2);
        assert_eq!(m.num_vertices(), 6);
        assert!(m.bytes() > 0);
    }

    #[test]
    fn concat_matches_serial_append() {
        let mut parts = Vec::new();
        for i in 0..17 {
            let mut m = TriMesh::new();
            for j in 0..=(i % 5) {
                let o = (i * 10 + j) as f64;
                m.push_triangle([o, 0.0, 0.0], [o + 1.0, 0.0, 0.0], [o, 1.0, 0.0]);
            }
            parts.push(m);
        }
        let mut serial = TriMesh::new();
        for p in &parts {
            serial.append(p);
        }
        let refs: Vec<&TriMesh> = parts.iter().collect();
        let got = TriMesh::concat(&refs);
        assert_eq!(got.vertices, serial.vertices);
        assert_eq!(got.triangles, serial.triangles);
        assert!(TriMesh::concat(&[]).is_empty());
    }

    #[test]
    fn weld_merges_shared_vertices() {
        let mut m = TriMesh::new();
        // Two triangles sharing an edge, pushed as soup (6 verts).
        m.push_triangle([0.0; 3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]);
        m.push_triangle([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]);
        let w = m.welded(1e-9);
        assert_eq!(w.num_vertices(), 4);
        assert_eq!(w.num_triangles(), 2);
        assert!((w.area() - m.area()).abs() < 1e-12);
    }

    #[test]
    fn boundary_edges_of_open_patch() {
        let mut m = TriMesh::new();
        m.push_triangle([0.0; 3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]);
        assert_eq!(m.boundary_edge_count(1e-9), 3);
    }

    #[test]
    fn bounds() {
        let mut m = TriMesh::new();
        m.push_triangle([0.0; 3], [2.0, 0.0, 0.0], [0.0, -1.0, 3.0]);
        let (lo, hi) = m.bounds().unwrap();
        assert_eq!(lo, [0.0, -1.0, 0.0]);
        assert_eq!(hi, [2.0, 0.0, 3.0]);
        assert!(TriMesh::new().bounds().is_none());
    }

    #[test]
    fn degenerate_triangles_removed_by_weld() {
        let mut m = TriMesh::new();
        m.push_triangle([0.0; 3], [0.0; 3], [0.0, 1.0, 0.0]);
        let w = m.welded(1e-9);
        assert_eq!(w.num_triangles(), 0);
    }
}
