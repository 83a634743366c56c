//! FNV-1a 32-bit checksums — the integrity primitive shared by the wire
//! protocol (`xlayer-net`) and the disk tier ([`crate::disklog`]) — and the
//! rule for a payload's *per-chunk* sums.
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

/// FNV-1a 32-bit offset basis.
pub const FNV_OFFSET: u32 = 0x811c_9dc5;

/// FNV-1a 32-bit checksum of `data`.
pub fn checksum(data: &[u8]) -> u32 {
    checksum_update(FNV_OFFSET, data)
}

/// Continue an FNV-1a-32 checksum from `state` (the empty-input state is
/// [`FNV_OFFSET`], i.e. `checksum(b"")`). Composition law:
/// `checksum_update(checksum(a), b) == checksum(a ++ b)`, which lets
/// callers checksum a prefix and a payload without concatenating them.
pub fn checksum_update(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state ^= b as u32;
        state = state.wrapping_mul(0x0100_0193);
    }
    state
}

/// The staging wire's chunk size (1 MiB), and the disk log's default: the
/// one size at which per-chunk sums learned at one hop are reusable at the
/// next.
pub const CHUNK: usize = 1 << 20;

/// Per-chunk FNV-1a-32 sums of `payload` split at `chunk` bytes (the final
/// chunk may be short). An empty payload has no chunks.
pub fn chunk_sums(payload: &[u8], chunk: usize) -> Vec<u32> {
    payload.chunks(chunk.max(1)).map(checksum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(checksum(b""), 0x811c9dc5);
        assert_eq!(checksum(b"a"), 0xe40c292c);
        assert_eq!(checksum(b"foobar"), 0xbf9cf968);
    }

    #[test]
    fn update_composes() {
        let data = b"the quick brown fox";
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(checksum_update(checksum(a), b), checksum(data));
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
