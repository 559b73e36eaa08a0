//! A counting and timing [`StorageIo`]: forwards every operation to
//! [`RealIo`] and counts writes, bytes and fsyncs, timing each fsync.

use locater_store::{RealIo, StorageIo};
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Default)]
pub struct CountingIo {
    inner: RealIo,
    writes: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    fsync_ns: AtomicU64,
}

/// A point-in-time copy of the counters; subtract two to get a phase's share.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCounts {
    pub writes: u64,
    pub bytes: u64,
    pub fsyncs: u64,
    pub fsync_ns: u64,
}

impl IoCounts {
    pub fn since(self, earlier: IoCounts) -> IoCounts {
        IoCounts {
            writes: self.writes - earlier.writes,
            bytes: self.bytes - earlier.bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            fsync_ns: self.fsync_ns - earlier.fsync_ns,
        }
    }
}

impl CountingIo {
    pub fn counts(&self) -> IoCounts {
        IoCounts {
            writes: self.writes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            fsync_ns: self.fsync_ns.load(Ordering::Relaxed),
        }
    }

    fn timed_sync(&self, sync: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let started = Instant::now();
        let result = sync();
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.fsync_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

impl StorageIo for CountingIo {
    fn write_all(&self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.write_all(file, buf)
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        self.timed_sync(|| self.inner.sync_data(file))
    }

    fn sync_all(&self, file: &File) -> io::Result<()> {
        self.timed_sync(|| self.inner.sync_all(file))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        self.inner.set_len(file, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_writes_bytes_and_syncs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-countio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        let io = CountingIo::default();
        let before = io.counts();
        let mut file = File::create(&path).unwrap();
        io.write_all(&mut file, b"abcd").unwrap();
        io.write_all(&mut file, b"ef").unwrap();
        io.sync_data(&file).unwrap();
        io.sync_all(&file).unwrap();
        let delta = io.counts().since(before);
        assert_eq!((delta.writes, delta.bytes, delta.fsyncs), (2, 6, 2));
        assert_eq!(std::fs::read(&path).unwrap(), b"abcdef");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
