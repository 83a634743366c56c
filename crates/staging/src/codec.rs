//! The one byte encoding of a staged object's descriptor — the paper's
//! `(variable, version, bbox)` address (§5.1) — and the little-endian
//! cursors it is written with. The staging wire (`xlayer-net`) and the
//! spill log ([`crate::disklog`]) both write an [`ObjectDesc`] with
//! [`Wr::desc`] and read it with [`Rd::desc`]: name (`u32` length +
//! UTF-8), version, bbox and core (lo then hi corner, three `i64` each),
//! dx, range min and max, bytes, origin_rank. A field is added there, once.
//!
//! Floats travel as `to_bits()`, so the round trip is bit-exact; an option
//! is a one-byte tag, then the value if the tag is non-zero. Decoding is
//! total over arbitrary bytes: every read is bounds-checked and fails as a
//! typed [`DecodeError`], never a panic, and a body must be consumed
//! exactly ([`Rd::done`]).

use crate::object::{ObjectDesc, ObjectKey};
use xlayer_amr::boxes::IBox;
use xlayer_amr::intvect::IntVect;

/// Why bytes did not decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the field being decoded.
    Truncated,
    /// Bytes remained after the body was fully decoded.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated mid-field"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the body"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only little-endian encoder over a byte vector. Floats travel as
/// `to_bits()`; byte strings as `u32` length + bytes.
#[derive(Default)]
pub struct Wr {
    /// The bytes written so far.
    pub buf: Vec<u8>,
}

/// One method per fixed-width integer, named after its type: the value
/// as its little-endian bytes. `#[inline]`, as every primitive here: the
/// cursors are called across crates and the workspace builds without LTO.
macro_rules! put_le {
    ($($t:ident),*) => {$(
        #[inline]
        pub fn $t(&mut self, v: $t) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    )*};
}

/// `put_le`'s reader: the next `size_of::<$t>()` bytes as a `$t`.
macro_rules! get_le {
    ($($t:ident),*) => {$(
        #[inline]
        pub fn $t(&mut self) -> Result<$t, DecodeError> {
            Ok($t::from_le_bytes(self.array()?))
        }
    )*};
}

#[allow(missing_docs)] // one obvious method per primitive
impl Wr {
    put_le!(u8, u16, u32, u64, i64);

    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    #[inline]
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// A cell index: three `i64`s.
    pub fn ivect(&mut self, v: IntVect) {
        let IntVect([x, y, z]) = v;
        self.i64(x);
        self.i64(y);
        self.i64(z);
    }

    /// A box: its two inclusive corners.
    pub fn ibox(&mut self, b: &IBox) {
        self.ivect(b.lo());
        self.ivect(b.hi());
    }

    /// A tagged optional box.
    pub fn opt_ibox(&mut self, b: Option<&IBox>) {
        match b {
            None => self.u8(0),
            Some(b) => {
                self.u8(1);
                self.ibox(b);
            }
        }
    }

    /// A tagged optional float.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.f64(v);
            }
        }
    }

    /// An object descriptor (layout in the module doc).
    pub fn desc(&mut self, d: &ObjectDesc) {
        self.string(&d.key.name);
        self.u64(d.key.version);
        self.ibox(&d.bbox);
        self.ibox(&d.core);
        self.f64(d.dx);
        let [lo, hi] = d.range;
        self.f64(lo);
        self.f64(hi);
        self.u64(d.bytes);
        self.u64(d.origin_rank as u64);
    }

    /// A `u32`-counted list of descriptors.
    pub fn descs(&mut self, descs: &[ObjectDesc]) {
        self.u32(descs.len() as u32);
        for d in descs {
            self.desc(d);
        }
    }
}

/// Cursor-style little-endian decoder over a byte slice; every read is
/// bounds-checked.
pub struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

#[allow(missing_docs)] // one obvious method per primitive
impl<'a> Rd<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The next `n` bytes, borrowed.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes, copied.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.take(N)?);
        Ok(b)
    }

    get_le!(u8, u16, u32, u64, i64);

    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32`-length-prefixed byte string, borrowed.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    #[inline]
    pub fn string(&mut self) -> Result<String, DecodeError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_string)
            .map_err(|_| DecodeError::BadUtf8)
    }

    /// The body must end exactly here.
    #[inline]
    pub fn done(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }

    /// A cell index: three `i64`s.
    pub fn ivect(&mut self) -> Result<IntVect, DecodeError> {
        Ok(IntVect::new(self.i64()?, self.i64()?, self.i64()?))
    }

    /// A box: its two inclusive corners.
    pub fn ibox(&mut self) -> Result<IBox, DecodeError> {
        let (lo, hi) = (self.ivect()?, self.ivect()?);
        Ok(IBox::new(lo, hi))
    }

    /// A tagged optional box.
    pub fn opt_ibox(&mut self) -> Result<Option<IBox>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.ibox()?)),
        }
    }

    /// A tagged optional float.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.f64()?)),
        }
    }

    /// An object descriptor (layout in the module doc). Its consistency is
    /// the caller's to check ([`ObjectDesc::is_consistent`]).
    pub fn desc(&mut self) -> Result<ObjectDesc, DecodeError> {
        let name = self.string()?;
        let version = self.u64()?;
        let bbox = self.ibox()?;
        let core = self.ibox()?;
        let dx = self.f64()?;
        let range = [self.f64()?, self.f64()?];
        let bytes = self.u64()?;
        let origin_rank = self.u64()? as usize;
        Ok(ObjectDesc {
            key: ObjectKey::new(name, version),
            bbox,
            core,
            dx,
            range,
            bytes,
            origin_rank,
        })
    }

    /// A `u32`-counted list of descriptors.
    pub fn descs(&mut self) -> Result<Vec<ObjectDesc>, DecodeError> {
        let n = self.u32()? as usize;
        // Each descriptor is far more than 8 bytes; cap the preallocation
        // by what the buffer could possibly hold.
        let mut descs = Vec::with_capacity(n.min(self.remaining() / 8 + 1));
        for _ in 0..n {
            descs.push(self.desc()?);
        }
        Ok(descs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::EMPTY_RANGE;

    fn encode(d: &ObjectDesc) -> Vec<u8> {
        let mut w = Wr::default();
        w.desc(d);
        w.buf
    }

    fn decode(bytes: &[u8]) -> Result<ObjectDesc, DecodeError> {
        let mut r = Rd::new(bytes);
        let d = r.desc()?;
        r.done()?;
        Ok(d)
    }

    /// Field-wise and bit-wise equality (`==` would not tell `-0.0` from
    /// `0.0`, and fails on a NaN `dx`).
    fn assert_same(a: &ObjectDesc, b: &ObjectDesc) {
        assert_eq!(a.key, b.key);
        assert_eq!((a.bbox, a.core), (b.bbox, b.core));
        assert_eq!(a.dx.to_bits(), b.dx.to_bits());
        assert_eq!(a.range.map(f64::to_bits), b.range.map(f64::to_bits));
        assert_eq!((a.bytes, a.origin_rank), (b.bytes, b.origin_rank));
    }

    #[test]
    fn golden_desc_bytes() {
        let desc = ObjectDesc {
            key: ObjectKey::new("ρ", 3),
            bbox: IBox::new(IntVect::new(-2, 0, 5), IntVect::new(-1, 0, 5)),
            core: IBox::new(IntVect::new(-1, 0, 5), IntVect::new(-1, 0, 5)),
            dx: 0.25,
            range: EMPTY_RANGE,
            bytes: 16,
            origin_rank: 7,
        };
        // A corner (x, 0, 5) for x = -1 or -2: three little-endian i64s.
        let corner = |x: u8| {
            [
                [x, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF],
                [0; 8],
                [5, 0, 0, 0, 0, 0, 0, 0],
            ]
            .concat()
        };
        let (minus_two, minus_one) = (corner(0xFE), corner(0xFF));
        let expect: Vec<u8> = [
            &[2, 0, 0, 0, 0xCF, 0x81][..],   // name: length 2, "ρ" in UTF-8
            &[3, 0, 0, 0, 0, 0, 0, 0],       // version 3
            &minus_two,                      // bbox lo (-2, 0, 5)
            &minus_one,                      // bbox hi (-1, 0, 5)
            &minus_one,                      // core lo (-1, 0, 5)
            &minus_one,                      // core hi (-1, 0, 5)
            &[0, 0, 0, 0, 0, 0, 0xD0, 0x3F], // dx 0.25
            &[0, 0, 0, 0, 0, 0, 0xF0, 0x7F], // range min +inf
            &[0, 0, 0, 0, 0, 0, 0xF0, 0xFF], // range max -inf
            &[16, 0, 0, 0, 0, 0, 0, 0],      // bytes 16
            &[7, 0, 0, 0, 0, 0, 0, 0],       // origin_rank 7
        ]
        .concat();
        assert_eq!(encode(&desc), expect);
        assert_same(&decode(&expect).unwrap(), &desc);
    }

    #[test]
    fn random_descs_roundtrip_and_every_prefix_is_truncated() {
        let mut state: u64 = 0x5eed_0031;
        let mut draw = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let bounds = [f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, -1.5e300, 2.5];
        let letters = ['a', 'Z', '_', 'é', 'ß', '✓', '𝔵'];
        let lengths = [0usize, 1, 7, 64, 5_000, 70_000];
        for round in 0..48 {
            let n = lengths[draw() as usize % lengths.len()];
            let name: String = (0..n)
                .map(|_| letters[draw() as usize % letters.len()])
                .collect();
            let lo = IntVect::new((draw() % 1000) as i64 - 500, -((draw() % 7) as i64), 3);
            let bbox = IBox::new(lo, lo + IntVect::new(2, 1, 0));
            let range = match draw() % 3 {
                0 => EMPTY_RANGE,
                _ => {
                    let a = bounds[draw() as usize % bounds.len()];
                    let b = bounds[draw() as usize % bounds.len()];
                    [a.min(b), a.max(b)]
                }
            };
            let desc = ObjectDesc {
                key: ObjectKey::new(name, draw()),
                bbox,
                core: bbox,
                dx: f64::from_bits(draw()),
                range,
                bytes: draw(),
                origin_rank: draw() as usize,
            };
            let bytes = encode(&desc);
            assert_same(&decode(&bytes).unwrap(), &desc);
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode(&bytes[..cut]).map(|_| ()),
                    Err(DecodeError::Truncated),
                    "round {round}: prefix {cut} of {}",
                    bytes.len()
                );
            }
            let mut long = bytes;
            long.push(0);
            assert_eq!(
                decode(&long).map(|_| ()),
                Err(DecodeError::TrailingBytes(1))
            );
        }
    }
}
