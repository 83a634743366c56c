//! Rule L fixture: disk-tier calls under the store guard. The tier's
//! methods are named like std ones (`take`, `clear`) or reach the log
//! through one (`spill` → `log.append`), so the std-name stoplist hid
//! each of them until calls through `tier` and `log` kept their edges.
//! The same names on any other receiver (`Vec::clear`, `Option::take`)
//! stay off the call graph.

use parking_lot::RwLock;
use std::io::{Read, Write};

pub struct DiskLog {
    file: std::fs::File,
}

impl DiskLog {
    fn append(&mut self, bytes: &[u8]) {
        let _ = self.file.write_all(bytes);
    }

    fn clear(&mut self) {
        let _ = std::fs::remove_file("segment.0");
    }
}

pub struct DiskTier {
    log: DiskLog,
}

impl DiskTier {
    fn spill(&mut self, bytes: &[u8]) {
        self.log.append(bytes);
    }

    fn take(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        let _ = self.log.file.read_to_end(&mut out);
        out
    }

    fn clear(&mut self) {
        self.log.clear();
    }
}

pub struct Store {
    tier: DiskTier,
    items: Vec<u8>,
    pending: Option<u8>,
}

pub struct Server {
    inner: RwLock<Store>,
}

impl Server {
    fn put(&self, bytes: &[u8]) {
        let mut s = self.inner.write();
        s.tier.spill(bytes);
    }

    fn promote(&self) -> Vec<u8> {
        let mut s = self.inner.write();
        s.tier.take()
    }

    fn clear(&self) {
        let mut s = self.inner.write();
        s.tier.clear();
    }

    fn stage(&self, byte: u8) {
        let mut s = self.inner.write();
        s.items.clear();
        s.items.append(&mut vec![byte]);
        let _ = s.pending.take();
    }
}
