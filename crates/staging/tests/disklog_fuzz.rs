//! Dependency-free fuzz tests for the disk log's open-time scan.
//!
//! The log is the only durable artifact the staging tier owns, so the
//! scan that rebuilds its index after a crash must treat the file as
//! hostile: random truncation (torn tail writes) and random bit flips
//! (corruption at rest) must surface as recovery entries or typed
//! [`TierError`]s — never a panic, never an abort. A deterministic LCG
//! drives the mutations so any failure replays from the printed seed.

use std::path::PathBuf;
use std::sync::Arc;
use xlayer_amr::boxes::IBox;
use xlayer_amr::fab::Fab;
use xlayer_amr::intvect::IntVect;
use xlayer_staging::disklog::SEGMENT_BYTES;
use xlayer_staging::{BufferPool, DataObject, DiskLog, ObjectKey};

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

/// Build a log with a handful of records and return its file path.
fn seeded_log(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("fuzz.log");
    let mut log = DiskLog::open(&path, 1 << 22, 256, Arc::new(BufferPool::new())).unwrap();
    for v in 1..=4u64 {
        log.append(&obj("rho", v, 0, 4)).unwrap();
        log.append(&obj("vel", v, 8, 3)).unwrap();
    }
    drop(log);
    path
}

/// Reopen the (possibly mangled) log and exercise every read path. The
/// contract under test: no panic, and errors are typed. Any object the
/// scan did index must still read back or fail with a typed error.
fn reopen_and_probe(path: &std::path::Path) {
    let mut log = match DiskLog::open(path, 1 << 22, 256, Arc::new(BufferPool::new())) {
        Ok(log) => log,
        Err(e) => {
            // Typed failure is an acceptable outcome — render it to make
            // sure the Display path can't panic either.
            let _ = e.to_string();
            return;
        }
    };
    for e in log.recovery() {
        let _ = e.to_string();
    }
    for key in log.keys() {
        let _ = log.extents_for(&key);
        if let Err(e) = log.read(&key, None) {
            let _ = e.to_string();
        }
    }
    let _ = log.read(&ObjectKey::new("rho", 1), None);
}

#[test]
fn fuzz_truncation_never_panics() {
    let dir = tmpdir("trunc");
    let path = seeded_log(&dir);
    let whole = std::fs::read(&path).unwrap();
    let mut rng = Lcg(0x5eed_0001);
    for round in 0..64 {
        let cut = rng.below(whole.len() as u64 + 1) as usize;
        std::fs::write(&path, &whole[..cut])
            .unwrap_or_else(|e| panic!("round {round}: rewrite: {e}"));
        reopen_and_probe(&path);
    }
}

#[test]
fn fuzz_bit_flips_never_panic() {
    let dir = tmpdir("flip");
    let path = seeded_log(&dir);
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
        std::fs::write(&path, &mangled).unwrap_or_else(|e| panic!("round {round}: rewrite: {e}"));
        reopen_and_probe(&path);
    }
}

#[test]
fn fuzz_truncation_plus_flips_never_panic() {
    let dir = tmpdir("both");
    let path = seeded_log(&dir);
    let whole = std::fs::read(&path).unwrap();
    let mut rng = Lcg(0x5eed_0003);
    for round in 0..64 {
        let cut = rng.below(whole.len() as u64 + 1) as usize;
        let mut mangled = whole[..cut].to_vec();
        if !mangled.is_empty() {
            let at = rng.below(mangled.len() as u64) as usize;
            mangled[at] ^= 1 << rng.below(8);
        }
        std::fs::write(&path, &mangled).unwrap_or_else(|e| panic!("round {round}: rewrite: {e}"));
        reopen_and_probe(&path);
    }
}

/// An untouched log must reopen with a full index and no recovery
/// entries — the fuzz baseline, so a scan regression can't hide behind
/// "errors are acceptable".
#[test]
fn untouched_log_reopens_complete() {
    let dir = tmpdir("clean");
    let path = seeded_log(&dir);
    let mut log = DiskLog::open(&path, 1 << 22, 256, Arc::new(BufferPool::new())).unwrap();
    assert!(log.recovery().is_empty());
    assert_eq!(log.keys().len(), 8);
    let back = log.read(&ObjectKey::new("rho", 2), None).unwrap();
    assert_eq!(back.len(), 1);
}

/// A two-segment log: one record that fills segment 0 by itself (128³
/// cells × 8 B is the segment size), then the same small records as
/// [`seeded_log`] in segment 1. Returns both segment paths.
fn two_segment_log(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let path = dir.join("fuzz.log");
    let mut log = DiskLog::open(&path, u64::MAX, 256, Arc::new(BufferPool::new())).unwrap();
    let big = obj("big", 0, 0, 128);
    assert_eq!(big.desc.bytes, SEGMENT_BYTES);
    log.append(&big).unwrap();
    for v in 1..=4u64 {
        log.append(&obj("rho", v, 0, 4)).unwrap();
        log.append(&obj("vel", v, 8, 3)).unwrap();
    }
    drop(log);
    let second = dir.join("fuzz.log.1");
    assert!(second.exists(), "the small records must start segment 1");
    (path, second)
}

#[test]
fn fuzz_second_segment_truncation_plus_flips_never_panic() {
    let dir = tmpdir("segments");
    let (path, second) = two_segment_log(&dir);
    let whole = std::fs::read(&second).unwrap();
    let mut rng = Lcg(0x5eed_0004);
    for round in 0..32 {
        let cut = rng.below(whole.len() as u64 + 1) as usize;
        let mut mangled = whole[..cut].to_vec();
        if !mangled.is_empty() {
            let at = rng.below(mangled.len() as u64) as usize;
            mangled[at] ^= 1 << rng.below(8);
        }
        std::fs::write(&second, &mangled).unwrap_or_else(|e| panic!("round {round}: rewrite: {e}"));
        reopen_and_probe(&path);
    }
    // The untouched copy reopens complete, across both segments.
    std::fs::write(&second, &whole).unwrap();
    let mut log = DiskLog::open(&path, u64::MAX, 256, Arc::new(BufferPool::new())).unwrap();
    assert!(log.recovery().is_empty());
    assert_eq!(log.keys().len(), 9);
    let back = log.read(&ObjectKey::new("big", 0), None).unwrap();
    assert_eq!(back[0].payload, obj("big", 0, 0, 128).payload);
    let back = log.read(&ObjectKey::new("vel", 4), None).unwrap();
    assert_eq!(back[0].payload, obj("vel", 4, 8, 3).payload);
    let _ = std::fs::remove_dir_all(&dir);
}
