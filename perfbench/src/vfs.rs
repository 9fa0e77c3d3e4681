//! A counting, span-emitting [`Vfs`] decorator over [`StdVfs`].
//!
//! Passed to `SnapshotCatalog::open_in`, `IngestStore::create_in` and
//! `IngestStore::open_in`, so every durable byte the measured paths
//! read or write goes through it. Counters are always on (they are
//! exact for a given seed); spans are recorded only in the traced run.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xtwig_core::{AlignedBytes, StdVfs, Vfs, VfsFile, VfsMetadata};

use crate::trace;

/// Exact I/O counts since the VFS was created.
#[derive(Debug, Default)]
pub struct IoCounters {
    reads: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    fsyncs: AtomicU64,
    renames: AtomicU64,
}

/// A point-in-time copy of [`IoCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Whole-file reads.
    pub reads: u64,
    /// Bytes returned by those reads.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// File and directory fsyncs.
    pub fsyncs: u64,
    /// Renames.
    pub renames: u64,
}

impl IoSnapshot {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            fsyncs: self.fsyncs - earlier.fsyncs,
            renames: self.renames - earlier.renames,
        }
    }

    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &IoSnapshot) {
        self.reads += other.reads;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.fsyncs += other.fsyncs;
        self.renames += other.renames;
    }
}

fn bump(c: &AtomicU64, by: u64) {
    // Statistics only: no other data is published through these.
    c.fetch_add(by, Ordering::Relaxed);
}

/// The decorator.
#[derive(Debug, Default)]
pub struct CountingVfs {
    inner: StdVfs,
    counters: Arc<IoCounters>,
}

impl CountingVfs {
    /// Current counts.
    pub fn snapshot(&self) -> IoSnapshot {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoSnapshot {
            reads: get(&c.reads),
            bytes_read: get(&c.bytes_read),
            bytes_written: get(&c.bytes_written),
            fsyncs: get(&c.fsyncs),
            renames: get(&c.renames),
        }
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<IoCounters>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let _s = trace::span("io.write");
        bump(&self.counters.bytes_written, buf.len() as u64);
        self.inner.write_all(buf)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        let _s = trace::span("io.fsync");
        bump(&self.counters.fsyncs, 1);
        self.inner.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn size(&self) -> io::Result<u64> {
        self.inner.size()
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let _s = trace::span("io.read");
        let out = self.inner.read(path)?;
        bump(&self.counters.reads, 1);
        bump(&self.counters.bytes_read, out.len() as u64);
        Ok(out)
    }
    fn read_aligned(&self, path: &Path) -> io::Result<AlignedBytes> {
        let _s = trace::span("io.read");
        let out = self.inner.read_aligned(path)?;
        bump(&self.counters.reads, 1);
        bump(&self.counters.bytes_read, out.len() as u64);
        Ok(out)
    }
    fn metadata(&self, path: &Path) -> io::Result<VfsMetadata> {
        self.inner.metadata(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let _s = trace::span("io.create");
        let inner = self.inner.create(path)?;
        Ok(Box::new(CountingFile {
            inner,
            counters: Arc::clone(&self.counters),
        }))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(CountingFile {
            inner,
            counters: Arc::clone(&self.counters),
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let _s = trace::span("io.rename");
        bump(&self.counters.renames, 1);
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let _s = trace::span("io.remove");
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }
    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        let _s = trace::span("io.fsync");
        bump(&self.counters.fsyncs, 1);
        self.inner.fsync_dir(path)
    }
}

/// Bytes held by regular files under `dir`, recursively.
pub fn stored_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += stored_bytes(&entry.path())?;
        } else {
            total += meta.len();
        }
    }
    Ok(total)
}
