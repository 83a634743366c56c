//! Staged data objects: the unit of the DataSpaces-style put/get API.
//!
//! An object is one variable's data over a bounding box at one version
//! (time step) — exactly DataSpaces' `(var, version, bbox)` addressing.

use bytes::Bytes;
use std::sync::{Arc, OnceLock};
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;

/// Addressing key of a staged object. Ordered by `(name, version)` — the
/// deterministic iteration order of the disk tier's extent index and the
/// tiebreak order of spill-victim selection.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectKey {
    /// Variable name (e.g. `"density"`).
    pub name: String,
    /// Version — the simulation time step that produced the data.
    pub version: u64,
}

impl ObjectKey {
    /// Construct a key.
    pub fn new(name: impl Into<String>, version: u64) -> Self {
        ObjectKey {
            name: name.into(),
            version,
        }
    }
}

/// Descriptor of a staged object (metadata only).
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectDesc {
    /// Addressing key.
    pub key: ObjectKey,
    /// Region of index space the object covers (payload extent).
    pub bbox: IBox,
    /// The producer's region of interest within `bbox` — e.g. the valid
    /// (non-ghost) cells when the payload carries a halo. Defaults to
    /// `bbox`. Consumers that anchor work on cells (isosurface extraction)
    /// should iterate `core`, using the rest of `bbox` as read-only halo.
    pub core: IBox,
    /// Physical grid spacing of the cells (index → physical coordinates).
    /// Defaults to 1.0; producers on refined AMR levels set the level's dx
    /// so consumers reconstruct geometry placement-independently.
    pub dx: f64,
    /// `[min, max]` over the payload's non-NaN values, halo included;
    /// [`EMPTY_RANGE`] when it has none. What a get's isovalue predicate
    /// ([`ObjectDesc::may_cross`]) is evaluated on, so a staging layer can
    /// drop an object the surface cannot cross before touching its bytes.
    pub range: [f64; 2],
    /// Payload size in bytes.
    pub bytes: u64,
    /// Rank that produced the object.
    pub origin_rank: usize,
}

/// The value range of a payload with no comparable value (empty, or all
/// NaN): `[+∞, −∞]`, which no isovalue can cross.
pub const EMPTY_RANGE: [f64; 2] = [f64::INFINITY, f64::NEG_INFINITY];

impl ObjectDesc {
    /// Whether the descriptor is internally consistent: the byte count
    /// matches the bbox's cell count (8 bytes per `f64` cell), the core
    /// region lies within the bbox, and the range is ordered (no NaN bound;
    /// `min > max` only as [`EMPTY_RANGE`] exactly). Wire decoders and the
    /// disk log's open scan call this before trusting a descriptor they did
    /// not build — the in-process constructors uphold it by construction.
    pub fn is_consistent(&self) -> bool {
        let [lo, hi] = self.range;
        self.bytes == self.bbox.num_cells() * 8
            && (self.core.is_empty() || self.bbox.contains_box(&self.core))
            && (lo <= hi || self.range == EMPTY_RANGE)
    }

    /// Whether the object passes a get's `crossing` predicate: always
    /// without one; with an isovalue, iff `min < iso <= max`. That is the
    /// necessary condition for marching cubes to find a cube with one
    /// corner `>= iso` and another `< iso` anywhere in the payload (NaN is
    /// neither), so an object it drops holds no piece of the surface. A NaN
    /// isovalue passes nothing.
    pub fn may_cross(&self, crossing: Option<f64>) -> bool {
        let [lo, hi] = self.range;
        crossing.is_none_or(|iso| lo < iso && iso <= hi)
    }
}

/// Four compare-select lanes of a running `[min, max]`. `v < lo` and
/// `v > hi` are false for NaN, so NaN never enters a lane, and the
/// select-not-`f64::min` form lets the loop vectorise.
#[derive(Clone, Copy)]
struct Lanes {
    lo: [f64; 4],
    hi: [f64; 4],
}

impl Lanes {
    fn new() -> Self {
        let [lo, hi] = EMPTY_RANGE;
        Lanes {
            lo: [lo; 4],
            hi: [hi; 4],
        }
    }

    fn absorb(&mut self, row: &[f64]) {
        let Lanes { mut lo, mut hi } = *self;
        let mut take = |k: usize, v: f64| {
            lo[k] = if v < lo[k] { v } else { lo[k] };
            hi[k] = if v > hi[k] { v } else { hi[k] };
        };
        let mut quads = row.chunks_exact(4);
        for quad in &mut quads {
            for (k, &v) in quad.iter().enumerate() {
                take(k, v);
            }
        }
        for (k, &v) in quads.remainder().iter().enumerate() {
            take(k, v);
        }
        *self = Lanes { lo, hi };
    }

    fn finish(self) -> [f64; 2] {
        let [mut lo, mut hi] = EMPTY_RANGE;
        for (&l, &h) in self.lo.iter().zip(&self.hi) {
            lo = if l < lo { l } else { lo };
            hi = if h > hi { h } else { hi };
        }
        [lo, hi]
    }
}

/// A staged object: descriptor plus payload.
///
/// The payload is reference-counted ([`Bytes`]), so copies between the
/// transport queue, the server store and readers share one allocation —
/// mirroring RDMA's zero-copy semantics.
#[derive(Clone, Debug)]
pub struct DataObject {
    /// Metadata.
    pub desc: ObjectDesc,
    /// Raw little-endian `f64` payload in Fortran order over `desc.bbox`.
    /// Immutable once the object is built: the per-chunk sums the object
    /// carries ([`DataObject::known_sums`]) vouch for exactly these bytes,
    /// so nothing may assign this field after construction.
    pub payload: Bytes,
    /// Set-once memo of the payload's per-chunk sums ([`crate::sum`]) and
    /// the chunk size they were taken at.
    sums: OnceLock<(usize, Arc<[u32]>)>,
}

impl DataObject {
    /// Package one component of a fab region into an object. The payload is
    /// copied row-wise from the fab's contiguous storage (x-fastest order),
    /// and each row's values fold into the descriptor's
    /// [`range`](ObjectDesc::range) while the row is in cache.
    pub fn from_fab(
        name: impl Into<String>,
        version: u64,
        fab: &Fab,
        comp: usize,
        region: &IBox,
        origin_rank: usize,
    ) -> Self {
        let r = region.intersect(&fab.ibox());
        let mut buf = Vec::with_capacity(r.num_cells() as usize * 8);
        let mut lanes = Lanes::new();
        if !r.is_empty() {
            let src_box = fab.ibox();
            let src = fab.comp_slice(comp);
            let IntVect([lx, ly, lz]) = r.lo();
            let IntVect([_, hy, hz]) = r.hi();
            let IntVect([sx, _, _]) = r.size();
            let nx = sx as usize;
            for z in lz..=hz {
                for y in ly..=hy {
                    let s0 = src_box.offset(IntVect::new(lx, y, z));
                    let row = &src[s0..s0 + nx];
                    lanes.absorb(row);
                    for &v in row {
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        let payload = Bytes::from(buf);
        DataObject {
            desc: ObjectDesc {
                key: ObjectKey::new(name, version),
                bbox: r,
                core: r,
                dx: 1.0,
                range: lanes.finish(),
                bytes: payload.len() as u64,
                origin_rank,
            },
            payload,
            sums: OnceLock::new(),
        }
    }

    /// Reassemble an object from an untrusted (descriptor, payload) pair,
    /// e.g. one decoded off the wire. Returns `None` unless the descriptor
    /// is self-consistent and the payload length matches it — accessors
    /// like [`DataObject::copy_into`] index the payload by geometry and
    /// rely on this invariant.
    pub fn from_wire(desc: ObjectDesc, payload: Bytes) -> Option<Self> {
        if !desc.is_consistent() || payload.len() as u64 != desc.bytes {
            return None;
        }
        Some(DataObject {
            desc,
            payload,
            sums: OnceLock::new(),
        })
    }

    /// The payload's per-chunk sums, if they are known at `chunk` bytes.
    pub fn known_sums(&self, chunk: usize) -> Option<&Arc<[u32]>> {
        self.sums
            .get()
            .and_then(|(at, sums)| (*at == chunk).then_some(sums))
    }

    /// Remember `sums` as this payload's per-chunk sums at `chunk` bytes.
    /// Only for a caller that has just hashed these exact bytes (or
    /// compared them against the sums, as the disk log's read does). The
    /// first writer wins; a vector of the wrong length is not kept. A wrong
    /// memo fails closed: the receiver of a stream, or the log's read,
    /// recomputes and rejects the bytes.
    pub fn learn_sums(&self, chunk: usize, sums: Arc<[u32]>) {
        if chunk > 0 && sums.len() == self.payload.len().div_ceil(chunk) {
            let _ = self.sums.set((chunk, sums));
        }
    }

    /// Set the physical grid spacing carried in the descriptor.
    pub fn with_dx(mut self, dx: f64) -> Self {
        self.desc.dx = dx;
        self
    }

    /// Set the core (region-of-interest) box carried in the descriptor.
    /// `core` is clipped to the payload's bbox.
    pub fn with_core(mut self, core: &IBox) -> Self {
        self.desc.core = core.intersect(&self.desc.bbox);
        self
    }

    /// Reconstruct the object's values as a fab over its bbox.
    pub fn to_fab(&self) -> Fab {
        let mut fab = Fab::new(self.desc.bbox, 1);
        // Payload and single-component fab share the same Fortran ordering
        // over bbox, so the unpack is one linear sweep.
        let dst = fab.as_mut_slice();
        for (d, chunk) in dst.iter_mut().zip(self.payload.chunks_exact(8)) {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            *d = f64::from_le_bytes(b);
        }
        fab
    }

    /// Copy the overlap of this object into `dst` (component 0), row-wise.
    pub fn copy_into(&self, dst: &mut Fab) {
        let overlap = self.desc.bbox.intersect(&dst.ibox());
        if overlap.is_empty() {
            return;
        }
        let src_box = self.desc.bbox;
        let dst_box = dst.ibox();
        let out = dst.as_mut_slice();
        let IntVect([lx, ly, lz]) = overlap.lo();
        let IntVect([_, hy, hz]) = overlap.hi();
        let IntVect([sx, _, _]) = overlap.size();
        let nx = sx as usize;
        for z in lz..=hz {
            for y in ly..=hy {
                let s0 = src_box.offset(IntVect::new(lx, y, z)) * 8;
                let d0 = dst_box.offset(IntVect::new(lx, y, z));
                for (i, chunk) in self.payload[s0..s0 + nx * 8].chunks_exact(8).enumerate() {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(chunk);
                    out[d0 + i] = f64::from_le_bytes(b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord_fab(n: i64) -> Fab {
        let b = IBox::cube(n);
        let mut f = Fab::new(b, 2);
        for iv in b.cells() {
            f.set(iv, 1, (iv[0] * 100 + iv[1] * 10 + iv[2]) as f64);
        }
        f
    }

    #[test]
    fn roundtrip_through_payload() {
        let f = coord_fab(4);
        let obj = DataObject::from_fab("rho", 7, &f, 1, &IBox::cube(4), 3);
        assert_eq!(obj.desc.key, ObjectKey::new("rho", 7));
        assert_eq!(obj.desc.bytes, 64 * 8);
        assert_eq!(obj.desc.origin_rank, 3);
        let back = obj.to_fab();
        for iv in IBox::cube(4).cells() {
            assert_eq!(back.get(iv, 0), f.get(iv, 1));
        }
    }

    #[test]
    fn region_clipping() {
        let f = coord_fab(4);
        let sub = IBox::new(IntVect::splat(1), IntVect::splat(10));
        let obj = DataObject::from_fab("rho", 0, &f, 1, &sub, 0);
        assert_eq!(
            obj.desc.bbox,
            IBox::new(IntVect::splat(1), IntVect::splat(3))
        );
        assert_eq!(obj.desc.bytes, 27 * 8);
    }

    #[test]
    fn subregion_payload_matches_source_cells() {
        // A clipped region exercises the strided (non-contiguous) rows.
        let f = coord_fab(4);
        let sub = IBox::new(IntVect::new(1, 0, 2), IntVect::new(2, 3, 3));
        let obj = DataObject::from_fab("rho", 0, &f, 1, &sub, 0);
        let back = obj.to_fab();
        for iv in sub.cells() {
            assert_eq!(back.get(iv, 0), f.get(iv, 1), "at {iv:?}");
        }
    }

    #[test]
    fn dx_and_core_builders() {
        let f = coord_fab(4);
        let halo = IBox::cube(4);
        let core = IBox::new(IntVect::splat(1), IntVect::splat(2));
        let obj = DataObject::from_fab("rho", 0, &f, 1, &halo, 0)
            .with_dx(0.25)
            .with_core(&core);
        assert_eq!(obj.desc.dx, 0.25);
        assert_eq!(obj.desc.core, core);
        assert_eq!(obj.desc.bbox, halo);
        // Defaults: dx = 1, core = bbox.
        let plain = DataObject::from_fab("rho", 0, &f, 1, &halo, 0);
        assert_eq!(plain.desc.dx, 1.0);
        assert_eq!(plain.desc.core, plain.desc.bbox);
    }

    #[test]
    fn copy_into_partial_overlap() {
        let f = coord_fab(4);
        let obj = DataObject::from_fab("rho", 0, &f, 1, &IBox::cube(4), 0);
        let mut dst = Fab::new(IBox::new(IntVect::splat(2), IntVect::splat(5)), 1);
        obj.copy_into(&mut dst);
        // Overlap [2,3]^3 copied, rest zero.
        assert_eq!(dst.get(IntVect::splat(3), 0), 333.0);
        assert_eq!(dst.get(IntVect::splat(5), 0), 0.0);
    }

    #[test]
    fn from_wire_validates_descriptor_against_payload() {
        let f = coord_fab(2);
        let obj = DataObject::from_fab("rho", 0, &f, 0, &IBox::cube(2), 0);
        assert!(obj.desc.is_consistent());
        // A faithful pair reassembles.
        assert!(DataObject::from_wire(obj.desc.clone(), obj.payload.clone()).is_some());
        // Byte count disagreeing with the bbox is rejected.
        let mut lying = obj.desc.clone();
        lying.bytes += 8;
        assert!(!lying.is_consistent());
        assert!(DataObject::from_wire(lying, obj.payload.clone()).is_none());
        // Core escaping the bbox is rejected.
        let mut escaped = obj.desc.clone();
        escaped.core = IBox::cube(4);
        assert!(DataObject::from_wire(escaped, obj.payload.clone()).is_none());
        // Payload shorter than the descriptor claims is rejected.
        let short = Bytes::from(obj.payload[..obj.payload.len() - 8].to_vec());
        assert!(DataObject::from_wire(obj.desc.clone(), short).is_none());
        // A range with a NaN bound, or inverted but not the empty sentinel,
        // is rejected; infinite bounds and the sentinel itself are not.
        let ranged = |range: [f64; 2]| ObjectDesc {
            range,
            ..obj.desc.clone()
        };
        for bad in [
            [f64::NAN, 1.0],
            [0.0, f64::NAN],
            [f64::NAN, f64::NAN],
            [2.0, 1.0],
            [f64::INFINITY, 0.0],
            [0.0, f64::NEG_INFINITY],
        ] {
            assert!(!ranged(bad).is_consistent(), "{bad:?}");
            assert!(DataObject::from_wire(ranged(bad), obj.payload.clone()).is_none());
        }
        for good in [
            EMPTY_RANGE,
            [f64::NEG_INFINITY, f64::INFINITY],
            [f64::INFINITY, f64::INFINITY],
            [-0.0, 0.0],
            [3.0, 3.0],
        ] {
            assert!(ranged(good).is_consistent(), "{good:?}");
        }
    }

    /// The range a plain scan finds: min and max over the non-NaN values,
    /// [`EMPTY_RANGE`] when there are none.
    fn naive_range(values: impl Iterator<Item = f64>) -> [f64; 2] {
        values
            .filter(|v| !v.is_nan())
            .fold(EMPTY_RANGE, |[lo, hi], v| [lo.min(v), hi.max(v)])
    }

    #[test]
    fn from_fab_range_equals_a_naive_scan() {
        let b = IBox::new(IntVect::new(-3, 0, 1), IntVect::new(6, 4, 5)); // rows of 10
        let mut s = 0x5eed_u64;
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        for round in 0..40 {
            let mut f = Fab::new(b, 2);
            for iv in b.cells() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let draw = (s >> 33) as usize;
                let v = match (round % 4, draw % 16) {
                    // All NaN: the empty range.
                    (0, _) if round < 8 => f64::NAN,
                    (_, k) if k < specials.len() => specials[k],
                    _ => (draw % 1000) as f64 / 37.0 - 13.0,
                };
                f.set(iv, 1, v);
            }
            // The whole fab, a clipped region (strided rows) and one cell.
            for region in [
                b,
                IBox::new(IntVect::new(-1, 1, 2), IntVect::new(9, 3, 9)),
                IBox::new(IntVect::new(2, 2, 2), IntVect::new(2, 2, 2)),
            ] {
                let obj = DataObject::from_fab("rho", 0, &f, 1, &region, 0);
                let want = naive_range(obj.desc.bbox.cells().map(|iv| f.get(iv, 1)));
                // `==`, not bits: which of -0.0 and 0.0 a lane keeps depends
                // on the order it saw them, and the predicate cannot tell.
                assert_eq!(obj.desc.range, want, "round {round}, {region:?}");
                assert!(obj.desc.is_consistent());
            }
        }
        // An empty region has the empty range.
        let outside = IBox::cube(2).shift(IntVect::splat(50));
        let none = DataObject::from_fab("rho", 0, &Fab::new(b, 1), 0, &outside, 0);
        assert_eq!((none.desc.bytes, none.desc.range), (0, EMPTY_RANGE));
    }

    #[test]
    fn may_cross_is_min_below_and_max_at_or_above() {
        let desc = |range: [f64; 2]| ObjectDesc {
            range,
            ..DataObject::from_fab("rho", 0, &coord_fab(1), 0, &IBox::cube(1), 0).desc
        };
        let d = desc([0.0, 1.0]);
        assert!(d.may_cross(None));
        assert!(d.may_cross(Some(0.5)));
        assert!(d.may_cross(Some(1.0)), "iso at the max: a corner is >= iso");
        assert!(
            !d.may_cross(Some(0.0)),
            "iso at the min: no corner is < iso"
        );
        assert!(!d.may_cross(Some(1.5)));
        assert!(!d.may_cross(Some(-0.5)));
        for iso in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!d.may_cross(Some(iso)), "{iso}");
        }
        // A constant object equal to iso has no corner below it.
        assert!(!desc([2.0, 2.0]).may_cross(Some(2.0)));
        // +∞ is reached only by a range that holds it.
        assert!(desc([0.0, f64::INFINITY]).may_cross(Some(f64::INFINITY)));
        // The empty range passes only the absent predicate.
        let empty = desc(EMPTY_RANGE);
        assert!(empty.may_cross(None));
        for iso in [0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(!empty.may_cross(Some(iso)), "{iso}");
        }
    }

    #[test]
    fn sums_are_learned_once_and_travel_with_the_object() {
        use crate::sum::chunk_sums;
        let f = coord_fab(4);
        let obj = DataObject::from_fab("rho", 0, &f, 0, &IBox::cube(4), 0); // 512 B
        assert!(obj.known_sums(200).is_none());
        let fresh = chunk_sums(&obj.payload, 200);
        assert_eq!(fresh.len(), 3);
        // A vector that cannot be this payload's sums at this size is not kept.
        obj.learn_sums(200, fresh[..2].into());
        assert!(obj.known_sums(200).is_none());
        obj.learn_sums(200, fresh.clone().into());
        assert_eq!(obj.known_sums(200).unwrap().as_ref(), &fresh[..]);
        // First writer wins, at the same size and at another.
        obj.learn_sums(200, vec![0; 3].into());
        obj.learn_sums(256, chunk_sums(&obj.payload, 256).into());
        assert_eq!(obj.known_sums(200).unwrap().as_ref(), &fresh[..]);
        // A reader at another chunk size finds nothing known.
        assert!(obj.known_sums(256).is_none());
        // The descriptor builders and `clone` keep the memo, and the range.
        let moved = obj.clone().with_dx(0.5).with_core(&IBox::cube(2));
        assert_eq!(moved.known_sums(200).unwrap().as_ref(), &fresh[..]);
        let ranged = DataObject::from_fab("rho", 0, &f, 1, &IBox::cube(4), 0);
        assert_eq!(ranged.desc.range, [0.0, 333.0]);
        let moved = ranged.clone().with_dx(0.5).with_core(&IBox::cube(2));
        assert_eq!(moved.desc.range, [0.0, 333.0]);
    }

    #[test]
    fn payload_is_shared_not_copied() {
        let f = coord_fab(4);
        let obj = DataObject::from_fab("rho", 0, &f, 0, &IBox::cube(4), 0);
        let clone = obj.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(obj.payload.as_ptr(), clone.payload.as_ptr());
    }
}
