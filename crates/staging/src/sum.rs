//! The integrity sum — one function shared by the wire protocol
//! (`xlayer-net`), the chunk streams and the disk tier
//! ([`crate::disklog`]) — and the rule for a payload's *per-chunk* sums.
//!
//! **Definition.** With `BASIS = 0x811c_9dc5`, `PRIME = 0x0100_0193`, all
//! arithmetic wrapping `u32`, and `mix(s, v) = (s ^ v) * PRIME`:
//!
//! * four lanes start at `l[i] = BASIS ^ i`;
//! * every full 16-byte block feeds each lane one little-endian word:
//!   `l[i] = mix(l[i], le_u32(block[4i..4i + 4]))`;
//! * one serial chain then folds everything: `s = BASIS`, `s = mix(s,
//!   l[i])` for the four lanes in order, `s = mix(s, b)` for each of the
//!   fewer than 16 bytes after the last full block, `s = mix(s, len_lo32)`,
//!   `s = mix(s, len_hi32)`.
//!
//! **Guarantee.** `PRIME` is odd, so `mix` is a bijection of the state for
//! a fixed input and of the input for a fixed state. A change confined to
//! one aligned 32-bit word of a full block, or to one trailing byte,
//! therefore changes the state it enters, and every later step carries
//! that difference through: any single-bit or single-byte error changes
//! the sum with certainty — the guarantee FNV-1a-32 gives per byte. The
//! length fold separates a payload from its zero-extension with the same
//! certainty. Anything wider — permuted words or blocks (which the
//! distinct lane seeds and the ordered fold make visible at all), burst
//! errors — is caught as a 32-bit sum catches it, missing one in 2³². It
//! detects faults, not adversaries.
//!
//! **Why four lanes.** A byte-serial multiply chain is bounded by the
//! multiplier's latency per *byte* (~0.75 GiB/s here); four independent
//! word-wide chains are bounded by it per *16 bytes* (~10 GiB/s), in safe
//! portable Rust with no dispatch.
//!
//! A per-chunk sum is [`checksum`] of one `chunk`-sized slice of a payload
//! (the last slice may be short); [`chunk_sums`] is the whole vector. The
//! staging wire always chunks at [`CHUNK`]; the disk log chunks at its
//! configured size, which defaults to [`CHUNK`].
//!
//! The sums of one immutable payload are computed once and then ride in
//! the object: [`crate::DataObject`] holds a set-once memo of `(chunk size,
//! sums)`. Whoever hashes the payload first **learns** it — the chunk-stream
//! assembler as it verifies an inbound stream, a chunk-stream sender that
//! had to hash an unknown object on its way out, [`crate::DiskLog::append`],
//! and the log's verified read (promote / fetch), which attaches the
//! extent's stored sums once they have been recomputed and compared.
//! Whoever needs them later **asks the object** — a chunked send frames
//! known chunks without reading the data, a spill writes known sums
//! without hashing. Only code that has just hashed these exact bytes may
//! teach an object its sums; numbers a peer sent are never learned.

const BASIS: u32 = 0x811c_9dc5;
const PRIME: u32 = 0x0100_0193;
/// Bytes per block: one little-endian `u32` for each of the four lanes.
const BLOCK: usize = 16;

#[inline(always)]
fn mix(state: u32, v: u32) -> u32 {
    (state ^ v).wrapping_mul(PRIME)
}

/// Feed every block of `blocks` to the lanes `a`–`d`: the one loop every
/// summed byte goes through. The lanes come in as scalars and the function
/// is never inlined, so it is compiled once, on its own, as four
/// independent scalar multiply chains. Handed the lanes as an array in
/// memory (or inlined into a caller that keeps them there), the optimizer
/// instead fuses them into one emulated 4×`u32` SSE2 multiply — a single
/// dependency chain of over twice the latency, measured at half the rate.
#[inline(never)]
fn absorb(mut a: u32, mut b: u32, mut c: u32, mut d: u32, blocks: &[[u8; BLOCK]]) -> [u32; 4] {
    for &[a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3] in blocks {
        a = mix(a, u32::from_le_bytes([a0, a1, a2, a3]));
        b = mix(b, u32::from_le_bytes([b0, b1, b2, b3]));
        c = mix(c, u32::from_le_bytes([c0, c1, c2, c3]));
        d = mix(d, u32::from_le_bytes([d0, d1, d2, d3]));
    }
    [a, b, c, d]
}

/// The integrity sum of `data` (module docs give the definition).
pub fn checksum(data: &[u8]) -> u32 {
    let mut sum = Sum::new();
    sum.update(data);
    sum.finish()
}

/// The streaming form of [`checksum`], for bytes scattered across buffers:
/// however the input is split across [`Sum::update`] calls,
/// [`Sum::finish`] equals `checksum` of the concatenation. Carries the four
/// lanes, the length and at most 15 bytes short of a block.
#[derive(Debug)]
pub struct Sum {
    lanes: [u32; 4],
    /// Bytes seen since the last full block; the first `carried` are live.
    carry: [u8; BLOCK],
    carried: usize,
    len: u64,
}

impl Default for Sum {
    fn default() -> Self {
        Sum::new()
    }
}

impl Sum {
    /// The state of the empty input.
    pub fn new() -> Sum {
        Sum {
            lanes: [BASIS, BASIS ^ 1, BASIS ^ 2, BASIS ^ 3],
            carry: [0; BLOCK],
            carried: 0,
            len: 0,
        }
    }

    fn absorb(&mut self, blocks: &[[u8; BLOCK]]) {
        let [a, b, c, d] = self.lanes;
        self.lanes = absorb(a, b, c, d, blocks);
    }

    /// Continue the sum over `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.carried > 0 {
            // Top the carried bytes up to a block before touching `data`'s
            // own blocks, so block boundaries fall where they would in the
            // concatenation.
            let (head, rest) = data.split_at((BLOCK - self.carried).min(data.len()));
            self.carry[self.carried..self.carried + head.len()].copy_from_slice(head);
            self.carried += head.len();
            if self.carried < BLOCK {
                return;
            }
            self.absorb(&[self.carry]);
            self.carried = 0;
            data = rest;
        }
        let (blocks, tail) = data.as_chunks::<BLOCK>();
        self.absorb(blocks);
        self.carry[..tail.len()].copy_from_slice(tail);
        self.carried = tail.len();
    }

    /// The sum of everything fed so far.
    pub fn finish(&self) -> u32 {
        let folded = self.lanes.iter().fold(BASIS, |s, &lane| mix(s, lane));
        let tailed = self.carry[..self.carried]
            .iter()
            .fold(folded, |s, &byte| mix(s, byte as u32));
        mix(mix(tailed, self.len as u32), (self.len >> 32) as u32)
    }
}

/// The staging wire's chunk size (1 MiB), and the disk log's default: the
/// one size at which per-chunk sums learned at one hop are reusable at the
/// next.
pub const CHUNK: usize = 1 << 20;

/// Per-chunk sums of `payload` split at `chunk` bytes (the final
/// chunk may be short). An empty payload has no chunks.
pub fn chunk_sums(payload: &[u8], chunk: usize) -> Vec<u32> {
    payload.chunks(chunk.max(1)).map(checksum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic non-repeating test bytes.
    fn ramp(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    /// The module-doc definition, transcribed literally and sharing no code
    /// with the implementation.
    fn reference(data: &[u8]) -> u32 {
        let mut l = [0x811c_9dc5u32, 0x811c_9dc4, 0x811c_9dc7, 0x811c_9dc6];
        let full = data.len() / 16 * 16;
        for block in data[..full].chunks(16) {
            for i in 0..4 {
                let w = u32::from_le_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
                l[i] = (l[i] ^ w).wrapping_mul(0x0100_0193);
            }
        }
        let mut s = 0x811c_9dc5u32;
        let len = data.len() as u64;
        let tail = data[full..].iter().map(|&b| b as u32);
        for v in l
            .into_iter()
            .chain(tail)
            .chain([len as u32, (len >> 32) as u32])
        {
            s = (s ^ v).wrapping_mul(0x0100_0193);
        }
        s
    }

    #[test]
    fn known_vectors() {
        // Pinned literals: the function is a wire and disk format and must
        // not drift. Inputs are `ramp(n)`.
        let pins: [(usize, u32); 9] = [
            (0, 0x6580_9afd),
            (1, 0x2fc2_5ccf),
            (15, 0x97b4_5d00),
            (16, 0x9351_8281),
            (17, 0x0130_0183),
            (31, 0x90e6_ca04),
            (32, 0xd0b8_7bd9),
            (33, 0x5f37_c65b),
            (4096, 0x8996_cefd),
        ];
        for (n, want) in pins {
            let data = ramp(n);
            assert_eq!(checksum(&data), want, "checksum(ramp({n}))");
            assert_eq!(reference(&data), want, "reference(ramp({n}))");
        }
    }

    #[test]
    fn matches_the_definition_at_every_length() {
        let data = ramp(300);
        for n in 0..=data.len() {
            assert_eq!(checksum(&data[..n]), reference(&data[..n]), "length {n}");
        }
    }

    #[test]
    fn update_composes() {
        let data = ramp(100);
        let want = checksum(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            let mut s = Sum::new();
            s.update(a);
            s.update(b);
            assert_eq!(s.finish(), want, "split at {split}");
        }
        // Byte at a time: every update goes through the carry.
        let mut s = Sum::new();
        data.iter().for_each(|b| s.update(std::slice::from_ref(b)));
        assert_eq!(s.finish(), want);
        assert!(std::mem::size_of::<Sum>() < 64);
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        for n in 0..=96 {
            let data = ramp(n);
            let want = checksum(&data);
            for bit in 0..n * 8 {
                let mut bad = data.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&bad), want, "length {n}, bit {bit}");
            }
        }
    }

    #[test]
    fn chunk_sums_cover_payload() {
        let payload: Vec<u8> = (0..100u8).collect();
        let sums = chunk_sums(&payload, 32);
        assert_eq!(sums.len(), 4); // 32+32+32+4
        assert_eq!(sums[0], checksum(&payload[..32]));
        assert_eq!(sums[3], checksum(&payload[96..]));
        assert!(chunk_sums(&[], 32).is_empty());
    }
}
