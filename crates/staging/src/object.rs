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
    /// Payload size in bytes.
    pub bytes: u64,
    /// Rank that produced the object.
    pub origin_rank: usize,
}

impl ObjectDesc {
    /// Whether the descriptor is internally consistent: the byte count
    /// matches the bbox's cell count (8 bytes per `f64` cell) and the core
    /// region lies within the bbox. Wire decoders call this before trusting
    /// a descriptor that arrived from a peer — the in-process constructors
    /// uphold it by construction.
    pub fn is_consistent(&self) -> bool {
        self.bytes == self.bbox.num_cells() * 8
            && (self.core.is_empty() || self.bbox.contains_box(&self.core))
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
    /// copied row-wise from the fab's contiguous storage (x-fastest order).
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
                    for &v in &src[s0..s0 + nx] {
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
        // The descriptor builders and `clone` keep the memo.
        let moved = obj.clone().with_dx(0.5).with_core(&IBox::cube(2));
        assert_eq!(moved.known_sums(200).unwrap().as_ref(), &fresh[..]);
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
