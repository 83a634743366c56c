//! Dependency-free fuzz tests for the disk log's read-time check.
//!
//! A log's index lives in memory, and every read re-verifies the payload
//! it reads through the segment's open file against the chunk sums kept
//! there. So a live log's segment file is treated as hostile: random
//! truncation and random bit flips of the file between `append` and
//! `read` must surface as typed [`TierError`]s or byte-identical data —
//! never a panic, never wrong bytes. A deterministic LCG drives the
//! mutations so any failure replays from its seed and round.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;
use xlayer_staging::disklog::SEGMENT_BYTES;
use xlayer_staging::{BufferPool, DataObject, DiskLog, ObjectKey, TierError};

/// A 64-bit linear congruential generator (Knuth's MMIX constants) —
/// deterministic, seedable, and free of any RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform-enough draw in `[0, bound)` for fuzz positioning.
    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            (self.next() >> 11) % bound
        }
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("xlayer-disklog-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn obj(name: &str, version: u64, lo: i64, n: i64) -> DataObject {
    let b = IBox::cube(n).shift(IntVect::splat(lo));
    let mut fab = Fab::new(b, 1);
    for iv in b.cells() {
        fab.set(
            iv,
            0,
            (iv[0] * 100 + iv[1] * 10 + iv[2] + version as i64) as f64,
        );
    }
    DataObject::from_fab(name, version, &fab, 0, &b, 3).with_dx(0.5)
}

/// The eight records of one key that [`append_rho`] writes: `rho` v1 at
/// eight distinct boxes of two sizes.
fn rho_records() -> Vec<DataObject> {
    (0..8i64).map(|k| obj("rho", 1, 8 * k, 4 - k % 2)).collect()
}

/// Append [`rho_records`]: a key's records share its segment, so they
/// land in one file for the fuzz to mangle.
fn append_rho(log: &mut DiskLog) {
    for o in rho_records() {
        log.append(&o).unwrap();
    }
}

/// A live one-segment log of eight records, and its file's path.
fn seeded_log(dir: &Path) -> (DiskLog, PathBuf) {
    let path = dir.join("fuzz.log");
    let mut log = DiskLog::open(&path, 1 << 22, 256, Arc::new(BufferPool::new())).unwrap();
    append_rho(&mut log);
    let files = std::fs::read_dir(dir).unwrap().count();
    assert_eq!(files, 1, "the eight records must share one segment");
    (log, path)
}

/// Overwrite the segment file at `path` in place with `bytes`: the same
/// file the live log reads through, cut or flipped.
fn mangle(path: &Path, bytes: &[u8], round: usize) {
    std::fs::write(path, bytes).unwrap_or_else(|e| panic!("round {round}: rewrite: {e}"));
}

/// Read every record of `want` back from the live log — all at once, and
/// each alone through its box. The contract under test: no panic, and
/// every answer is either the appended objects byte for byte or a typed
/// read error.
fn probe(log: &mut DiskLog, want: &[DataObject], round: usize) {
    let check = |got: Result<Vec<DataObject>, TierError>, want: &[DataObject]| match got {
        Ok(back) => {
            assert_eq!(back.len(), want.len(), "round {round}");
            for (b, w) in back.iter().zip(want) {
                assert_eq!(b.desc, w.desc, "round {round}");
                assert_eq!(b.payload, w.payload, "round {round}: wrong bytes served");
            }
        }
        Err(e @ (TierError::Corrupt { .. } | TierError::Io { op: "read", .. })) => {
            let _ = e.to_string();
        }
        Err(e) => panic!("round {round}: a read failed with {e:?}"),
    };
    let key = &want[0].desc.key;
    assert_eq!(log.extents_for(key).len(), want.len(), "round {round}");
    check(log.read(key, None), want);
    for w in want {
        check(log.read(key, Some(&w.desc.bbox)), std::slice::from_ref(w));
    }
}

#[test]
fn fuzz_truncation_never_panics() {
    let dir = tmpdir("trunc");
    let (mut log, path) = seeded_log(&dir);
    let want = rho_records();
    let whole = std::fs::read(&path).unwrap();
    let mut rng = Lcg(0x5eed_0001);
    for round in 0..64 {
        let cut = rng.below(whole.len() as u64 + 1) as usize;
        mangle(&path, &whole[..cut], round);
        probe(&mut log, &want, round);
    }
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_bit_flips_never_panic() {
    let dir = tmpdir("flip");
    let (mut log, path) = seeded_log(&dir);
    let want = rho_records();
    let whole = std::fs::read(&path).unwrap();
    let mut rng = Lcg(0x5eed_0002);
    for round in 0..64 {
        let mut mangled = whole.clone();
        // 1–8 single-bit flips anywhere in the file, headers included.
        let flips = 1 + rng.below(8) as usize;
        for _ in 0..flips {
            let at = rng.below(mangled.len() as u64) as usize;
            mangled[at] ^= 1 << rng.below(8);
        }
        mangle(&path, &mangled, round);
        probe(&mut log, &want, round);
    }
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_truncation_plus_flips_never_panic() {
    let dir = tmpdir("both");
    let (mut log, path) = seeded_log(&dir);
    let want = rho_records();
    let whole = std::fs::read(&path).unwrap();
    let mut rng = Lcg(0x5eed_0003);
    for round in 0..64 {
        let cut = rng.below(whole.len() as u64 + 1) as usize;
        let mut mangled = whole[..cut].to_vec();
        if !mangled.is_empty() {
            let at = rng.below(mangled.len() as u64) as usize;
            mangled[at] ^= 1 << rng.below(8);
        }
        mangle(&path, &mangled, round);
        probe(&mut log, &want, round);
    }
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An untouched live log must read back complete — the fuzz baseline, so
/// a read-path regression can't hide behind "errors are acceptable".
#[test]
fn untouched_live_log_reads_back_complete() {
    let dir = tmpdir("clean");
    let (mut log, _) = seeded_log(&dir);
    assert_eq!(log.keys(), vec![ObjectKey::new("rho", 1)]);
    let back = log.read(&ObjectKey::new("rho", 1), None).unwrap();
    assert_eq!(back.len(), 8);
    for (b, w) in back.iter().zip(rho_records()) {
        assert_eq!((&b.desc, &b.payload), (&w.desc, &w.payload));
    }
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live two-segment log: one record that fills segment 0 by itself
/// (128³ cells × 8 B is the segment size), then the same eight records of
/// one key as [`seeded_log`] in segment 1. Returns the log and segment
/// 1's path.
fn two_segment_log(dir: &Path) -> (DiskLog, PathBuf) {
    let path = dir.join("fuzz.log");
    let mut log = DiskLog::open(&path, u64::MAX, 256, Arc::new(BufferPool::new())).unwrap();
    let big = obj("big", 0, 0, 128);
    assert_eq!(big.desc.bytes, SEGMENT_BYTES);
    log.append(&big).unwrap();
    append_rho(&mut log);
    let files = std::fs::read_dir(dir).unwrap().count();
    assert_eq!(files, 2, "the small records must all be in segment 1");
    (log, dir.join("fuzz.log.1"))
}

#[test]
fn fuzz_second_segment_truncation_plus_flips_never_panic() {
    let dir = tmpdir("segments");
    let (mut log, second) = two_segment_log(&dir);
    let want = rho_records();
    let big = [obj("big", 0, 0, 128)];
    let whole = std::fs::read(&second).unwrap();
    let mut rng = Lcg(0x5eed_0004);
    for round in 0..32 {
        let cut = rng.below(whole.len() as u64 + 1) as usize;
        let mut mangled = whole[..cut].to_vec();
        if !mangled.is_empty() {
            let at = rng.below(mangled.len() as u64) as usize;
            mangled[at] ^= 1 << rng.below(8);
        }
        mangle(&second, &mangled, round);
        probe(&mut log, &want, round);
        // The segment nobody touched reads back whole every round.
        let back = log.read(&ObjectKey::new("big", 0), None).unwrap();
        assert_eq!(back[0].payload, big[0].payload, "round {round}");
    }
    // The untouched copy reads back complete, across both segments.
    std::fs::write(&second, &whole).unwrap();
    assert_eq!(log.keys().len(), 2);
    let back = log.read(&ObjectKey::new("rho", 1), None).unwrap();
    assert_eq!(back.len(), 8);
    assert_eq!(back[7].payload, obj("rho", 1, 56, 3).payload);
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}
