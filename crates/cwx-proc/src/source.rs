//! Backends that serve /proc-style files.
//!
//! The gatherers in [`crate::gather`] are generic over a [`ProcSource`],
//! which mirrors the POSIX surface the paper's agent uses: `open()` a
//! path, then positional `read()`s on the handle. The crucial semantic —
//! "each time a proc file is read, a handler is called by the kernel ...
//! the entire file is reconstructed whether a single character or a large
//! block is read" — is what both backends preserve: the real one because
//! the kernel behaves that way, the synthetic one by regenerating its
//! content on every `read_at` call.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

use crate::gather::{NodeFiles, NodeReader};

/// An open /proc-style file supporting positional reads.
pub trait ProcHandle {
    /// Read up to `buf.len()` bytes at byte `offset` into `buf`,
    /// returning the number of bytes read (0 at end of file).
    ///
    /// Every call may regenerate the underlying content, exactly like a
    /// kernel proc handler; callers that issue many small reads pay that
    /// regeneration cost repeatedly.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Read the whole file from offset 0 into `buf` (which is cleared),
    /// looping `read_at` until EOF. Returns total bytes.
    fn read_to_vec(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        buf.clear();
        let mut chunk = [0u8; 4096];
        let mut off = 0u64;
        loop {
            let n = self.read_at(off, &mut chunk)?;
            if n == 0 {
                break;
            }
            buf.extend_from_slice(&chunk[..n]);
            off += n as u64;
        }
        Ok(buf.len())
    }
}

/// A source of /proc-style files.
pub trait ProcSource {
    /// Handle type for open files.
    type Handle: ProcHandle;

    /// Open `path` (e.g. `"meminfo"`, `"net/dev"`, relative to the proc
    /// root).
    fn open(&self, path: &str) -> io::Result<Self::Handle>;

    /// Open what an agent reads this source through every tick.
    ///
    /// The default is the six keep-open gatherers over the files' text,
    /// the paper's fastest configuration and what a real `/proc` needs.
    /// A source that holds the values its files are rendered from may
    /// hand those over instead ([`crate::synthetic::SyntheticProc`]
    /// does), provided they equal what the gatherers parse, bit for bit.
    fn node_reader(&self) -> io::Result<NodeReader<Self>>
    where
        Self: Sized + Clone,
    {
        Ok(NodeReader::Files(Box::new(NodeFiles::open(self)?)))
    }
}

/// The real `/proc` of the machine we are running on.
///
/// Used by the benchmarks so the E1/E2 numbers are measured against an
/// actual kernel, like the paper's. The root is configurable for tests.
#[derive(Debug, Clone)]
pub struct RealProc {
    root: PathBuf,
}

impl RealProc {
    /// `/proc` itself.
    pub fn new() -> Self {
        RealProc {
            root: PathBuf::from("/proc"),
        }
    }

    /// A proc-like tree rooted elsewhere (used by tests with fixture
    /// files).
    pub fn with_root(root: impl Into<PathBuf>) -> Self {
        RealProc { root: root.into() }
    }

    /// The configured root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether this source can actually serve files (i.e. the root
    /// exists); lets benches skip gracefully off-Linux.
    pub fn available(&self) -> bool {
        self.root.join("meminfo").exists()
    }
}

impl Default for RealProc {
    fn default() -> Self {
        Self::new()
    }
}

/// An open real file.
#[derive(Debug)]
pub struct RealHandle {
    file: File,
}

impl ProcSource for RealProc {
    type Handle = RealHandle;

    fn open(&self, path: &str) -> io::Result<RealHandle> {
        Ok(RealHandle {
            file: File::open(self.root.join(path))?,
        })
    }
}

impl ProcHandle for RealHandle {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.read(buf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn fixture_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cwx-proc-src-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_source_reads_fixture() {
        let dir = fixture_dir();
        let mut f = std::fs::File::create(dir.join("meminfo")).unwrap();
        writeln!(f, "MemTotal: 1024 kB").unwrap();
        drop(f);

        let src = RealProc::with_root(&dir);
        assert!(src.available());
        let mut h = src.open("meminfo").unwrap();
        let mut buf = Vec::new();
        let n = h.read_to_vec(&mut buf).unwrap();
        assert_eq!(n, buf.len());
        assert!(String::from_utf8(buf)
            .unwrap()
            .starts_with("MemTotal: 1024 kB"));
    }

    #[test]
    fn positional_reads_are_independent() {
        let dir = fixture_dir();
        std::fs::write(dir.join("pos"), b"0123456789").unwrap();
        let src = RealProc::with_root(&dir);
        let mut h = src.open("pos").unwrap();
        let mut b = [0u8; 4];
        assert_eq!(h.read_at(3, &mut b).unwrap(), 4);
        assert_eq!(&b, b"3456");
        assert_eq!(h.read_at(0, &mut b).unwrap(), 4);
        assert_eq!(&b, b"0123");
        assert_eq!(h.read_at(10, &mut b).unwrap(), 0);
    }

    #[test]
    fn missing_file_errors() {
        let src = RealProc::with_root("/nonexistent-cwx");
        assert!(!src.available());
        assert!(src.open("meminfo").is_err());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn real_proc_meminfo_readable() {
        let src = RealProc::new();
        if !src.available() {
            return; // containerized environments may mask /proc
        }
        let mut h = src.open("meminfo").unwrap();
        let mut buf = Vec::new();
        h.read_to_vec(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("MemTotal:"), "unexpected meminfo: {text}");
    }
}
