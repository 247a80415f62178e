//! The four-step gathering optimization ladder (paper §5.3.1) plus the
//! keep-open typed gatherers for every file in the paper's cost table.
//!
//! | level | open per sample | read pattern | parser | buffer |
//! |---|---|---|---|---|
//! | [`GatherLevel::Naive`] | yes | byte-at-a-time | generic, allocating | fresh |
//! | [`GatherLevel::Buffered`] | yes | one bulk read | generic, allocating | fresh |
//! | [`GatherLevel::Apriori`] | yes | one bulk read | a-priori, zero-alloc | reused |
//! | [`GatherLevel::KeepOpen`] | no (rewind) | one bulk read | a-priori, zero-alloc | reused |
//!
//! Because each `read()` regenerates the whole proc file, the naive
//! byte-at-a-time reader is quadratic in file size — that is the paper's
//! 85 samples/s floor; each subsequent level removes one cost: the
//! repeated regeneration, then the allocations, then the `open()`.
//!
//! An agent reads its node through a [`NodeReader`]: these keep-open
//! gatherers ([`NodeFiles`]) unless the source can hand over the values
//! its files are rendered from (a simulated node, see
//! [`ProcSource::node_reader`]).

use std::io;

use crate::meminfo::{self, MemInfo};
use crate::source::{ProcHandle, ProcSource};
use crate::{diskstats, loadavg, netdev, stat, uptime};

/// The optimization level of a [`MemInfoGatherer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatherLevel {
    /// Open per sample, byte-at-a-time reads, allocating parser.
    Naive,
    /// Open per sample, one bulk read into a fresh buffer, allocating
    /// parser ("+4800%" in the paper).
    Buffered,
    /// Open per sample, bulk read into a reused buffer, zero-allocation
    /// a-priori parser ("+236%").
    Apriori,
    /// File stays open; rewind and re-read into the reused buffer
    /// ("+141%", 33 855 samples/s).
    KeepOpen,
}

impl GatherLevel {
    /// All levels, in ladder order.
    pub const ALL: [GatherLevel; 4] = [
        GatherLevel::Naive,
        GatherLevel::Buffered,
        GatherLevel::Apriori,
        GatherLevel::KeepOpen,
    ];

    /// Short label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            GatherLevel::Naive => "naive",
            GatherLevel::Buffered => "buffered",
            GatherLevel::Apriori => "apriori",
            GatherLevel::KeepOpen => "keep-open",
        }
    }
}

/// Read a whole file byte-at-a-time (the naive pattern: every byte read
/// regenerates the file in the handler).
fn read_byte_at_a_time<H: ProcHandle>(h: &mut H, out: &mut Vec<u8>) -> io::Result<()> {
    out.clear();
    let mut one = [0u8; 1];
    let mut off = 0u64;
    loop {
        let n = h.read_at(off, &mut one)?;
        if n == 0 {
            return Ok(());
        }
        out.push(one[0]);
        off += 1;
    }
}

/// Keep-open bulk reader: one open handle, a reused buffer, one (or a
/// few, for oversized files) positional reads per sample.
#[derive(Debug)]
pub struct KeepOpenFile<S: ProcSource> {
    handle: S::Handle,
    buf: Vec<u8>,
}

impl<S: ProcSource> KeepOpenFile<S> {
    /// Open `path` once.
    pub fn open(source: &S, path: &str) -> io::Result<Self> {
        Ok(KeepOpenFile {
            handle: source.open(path)?,
            // most proc files are a few hundred bytes; `read` doubles the
            // buffer the first time a file fills it
            buf: vec![0; 1024],
        })
    }

    /// Re-read the file from offset 0, returning the fresh contents.
    ///
    /// The buffer grows (once) if the file exceeds it and is then reused
    /// forever, so the steady state performs zero allocations.
    pub fn read(&mut self) -> io::Result<&[u8]> {
        let mut total = 0usize;
        loop {
            let n = self.handle.read_at(total as u64, &mut self.buf[total..])?;
            total += n;
            if n == 0 || total < self.buf.len() {
                break;
            }
            // buffer filled: file larger than expected, grow and continue
            let new_len = self.buf.len() * 2;
            self.buf.resize(new_len, 0);
        }
        Ok(&self.buf[..total])
    }
}

/// `/proc/meminfo` gatherer at a selectable optimization level — the
/// subject of experiment E1.
pub struct MemInfoGatherer<S: ProcSource> {
    source: S,
    level: GatherLevel,
    /// open handle (KeepOpen only)
    handle: Option<S::Handle>,
    /// reused buffer (Apriori/KeepOpen)
    buf: Vec<u8>,
    /// learned layout (Apriori/KeepOpen)
    layout: Option<meminfo::Layout>,
}

impl<S: ProcSource> MemInfoGatherer<S> {
    /// Create a gatherer. For the a-priori levels this performs one
    /// learning read to discover the file layout.
    pub fn new(source: S, level: GatherLevel) -> io::Result<Self> {
        let mut g = MemInfoGatherer {
            source,
            level,
            handle: None,
            buf: Vec::new(),
            layout: None,
        };
        match level {
            GatherLevel::Naive | GatherLevel::Buffered => {}
            GatherLevel::Apriori | GatherLevel::KeepOpen => {
                let mut h = g.source.open("meminfo")?;
                let mut buf = Vec::new();
                h.read_to_vec(&mut buf)?;
                g.layout = Some(meminfo::Layout::learn(&buf).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "cannot learn meminfo layout")
                })?);
                g.buf = vec![0; buf.len().next_power_of_two().max(4096)];
                if level == GatherLevel::KeepOpen {
                    g.handle = Some(h);
                }
            }
        }
        Ok(g)
    }

    /// The configured level.
    pub fn level(&self) -> GatherLevel {
        self.level
    }

    /// Take one sample.
    pub fn sample(&mut self) -> io::Result<MemInfo> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        match self.level {
            GatherLevel::Naive => {
                let mut h = self.source.open("meminfo")?;
                let mut bytes = Vec::new(); // fresh allocation, deliberately
                read_byte_at_a_time(&mut h, &mut bytes)?;
                let text = String::from_utf8(bytes).map_err(|_| bad("meminfo not utf8"))?;
                meminfo::parse_generic(&text).ok_or_else(|| bad("meminfo parse"))
            }
            GatherLevel::Buffered => {
                let mut h = self.source.open("meminfo")?;
                let mut bytes = Vec::new(); // "a separate buffer", fresh per sample
                h.read_to_vec(&mut bytes)?;
                let text = std::str::from_utf8(&bytes).map_err(|_| bad("meminfo not utf8"))?;
                meminfo::parse_generic(text).ok_or_else(|| bad("meminfo parse"))
            }
            GatherLevel::Apriori => {
                let mut h = self.source.open("meminfo")?;
                let n = read_bulk(&mut h, &mut self.buf)?;
                let layout = self
                    .layout
                    .as_ref()
                    .expect("layout learned at construction");
                meminfo::parse_apriori(&self.buf[..n], layout).ok_or_else(|| bad("meminfo parse"))
            }
            GatherLevel::KeepOpen => {
                let h = self.handle.as_mut().expect("handle kept open");
                let n = read_bulk(h, &mut self.buf)?;
                let layout = self
                    .layout
                    .as_ref()
                    .expect("layout learned at construction");
                meminfo::parse_apriori(&self.buf[..n], layout).ok_or_else(|| bad("meminfo parse"))
            }
        }
    }
}

/// Bulk-read into a reused, pre-sized buffer; grows only if the file
/// outgrows it. Returns bytes read.
fn read_bulk<H: ProcHandle>(h: &mut H, buf: &mut Vec<u8>) -> io::Result<usize> {
    if buf.is_empty() {
        buf.resize(4096, 0);
    }
    let mut total = 0usize;
    loop {
        let n = h.read_at(total as u64, &mut buf[total..])?;
        total += n;
        if n == 0 || total < buf.len() {
            return Ok(total);
        }
        let new_len = buf.len() * 2;
        buf.resize(new_len, 0);
    }
}

/// Keep-open `/proc/stat` gatherer (paper: 35 µs/call).
pub struct StatGatherer<S: ProcSource> {
    file: KeepOpenFile<S>,
}

impl<S: ProcSource> StatGatherer<S> {
    /// Open once.
    pub fn new(source: &S) -> io::Result<Self> {
        Ok(StatGatherer {
            file: KeepOpenFile::open(source, "stat")?,
        })
    }

    /// Take one sample.
    pub fn sample(&mut self) -> io::Result<stat::Stat> {
        let b = self.file.read()?;
        stat::parse_apriori(b)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "stat parse"))
    }
}

/// Keep-open `/proc/loadavg` gatherer (paper: 7.5 µs/call).
pub struct LoadAvgGatherer<S: ProcSource> {
    file: KeepOpenFile<S>,
}

impl<S: ProcSource> LoadAvgGatherer<S> {
    /// Open once.
    pub fn new(source: &S) -> io::Result<Self> {
        Ok(LoadAvgGatherer {
            file: KeepOpenFile::open(source, "loadavg")?,
        })
    }

    /// Take one sample.
    pub fn sample(&mut self) -> io::Result<loadavg::LoadAvg> {
        let b = self.file.read()?;
        loadavg::parse_apriori(b)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "loadavg parse"))
    }
}

/// Keep-open `/proc/uptime` gatherer (paper: 6.2 µs/call).
pub struct UptimeGatherer<S: ProcSource> {
    file: KeepOpenFile<S>,
}

impl<S: ProcSource> UptimeGatherer<S> {
    /// Open once.
    pub fn new(source: &S) -> io::Result<Self> {
        Ok(UptimeGatherer {
            file: KeepOpenFile::open(source, "uptime")?,
        })
    }

    /// Take one sample.
    pub fn sample(&mut self) -> io::Result<uptime::Uptime> {
        let b = self.file.read()?;
        uptime::parse_apriori(b)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "uptime parse"))
    }
}

/// Keep-open `/proc/net/dev` gatherer (paper: 21.6 µs per call per
/// device). The interface vector is reused across samples.
pub struct NetDevGatherer<S: ProcSource> {
    file: KeepOpenFile<S>,
    ifaces: Vec<netdev::IfStats>,
}

impl<S: ProcSource> NetDevGatherer<S> {
    /// Open once.
    pub fn new(source: &S) -> io::Result<Self> {
        Ok(NetDevGatherer {
            file: KeepOpenFile::open(source, "net/dev")?,
            ifaces: Vec::new(),
        })
    }

    /// Take one sample; the returned slice is valid until the next call.
    pub fn sample(&mut self) -> io::Result<&[netdev::IfStats]> {
        let b = self.file.read()?;
        netdev::parse_apriori(b, &mut self.ifaces)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "net/dev parse"))?;
        Ok(&self.ifaces)
    }
}

/// Keep-open `/proc/diskstats` gatherer (disk I/O monitoring, §5.1).
/// The device vector is reused across samples.
pub struct DiskStatsGatherer<S: ProcSource> {
    file: KeepOpenFile<S>,
    disks: Vec<diskstats::DiskStats>,
}

impl<S: ProcSource> DiskStatsGatherer<S> {
    /// Open once. Errors if the source has no `diskstats` file (the
    /// agent treats disk monitoring as optional).
    pub fn new(source: &S) -> io::Result<Self> {
        Ok(DiskStatsGatherer {
            file: KeepOpenFile::open(source, "diskstats")?,
            disks: Vec::new(),
        })
    }

    /// Take one sample; the returned slice is valid until the next call.
    pub fn sample(&mut self) -> io::Result<&[diskstats::DiskStats]> {
        let b = self.file.read()?;
        diskstats::parse_apriori(b, &mut self.disks)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "diskstats parse"))?;
        Ok(&self.disks)
    }
}

/// Everything one agent tick reads from a node: the six files, typed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeSample {
    /// `/proc/meminfo`.
    pub mem: MemInfo,
    /// `/proc/stat`.
    pub stat: stat::Stat,
    /// `/proc/loadavg`.
    pub load: loadavg::LoadAvg,
    /// `/proc/uptime`.
    pub uptime: uptime::Uptime,
    /// `/proc/net/dev`.
    pub net: Vec<netdev::IfStats>,
    /// `/proc/diskstats` (empty when the source has none).
    pub disks: Vec<diskstats::DiskStats>,
}

/// The keep-open gatherers an agent reads a text `/proc` through: one
/// per file, diskstats optional (not every source has it).
pub struct NodeFiles<S: ProcSource> {
    mem: MemInfoGatherer<S>,
    stat: StatGatherer<S>,
    load: LoadAvgGatherer<S>,
    up: UptimeGatherer<S>,
    netdev: NetDevGatherer<S>,
    disk: Option<DiskStatsGatherer<S>>,
}

impl<S: ProcSource> NodeFiles<S> {
    /// Open every file once.
    pub fn open(source: &S) -> io::Result<Self>
    where
        S: Clone,
    {
        Ok(NodeFiles {
            mem: MemInfoGatherer::new(source.clone(), GatherLevel::KeepOpen)?,
            stat: StatGatherer::new(source)?,
            load: LoadAvgGatherer::new(source)?,
            up: UptimeGatherer::new(source)?,
            netdev: NetDevGatherer::new(source)?,
            disk: DiskStatsGatherer::new(source).ok(),
        })
    }

    /// Sample every file into `out`, reusing its vectors.
    pub fn read(&mut self, out: &mut NodeSample) -> io::Result<()> {
        out.mem = self.mem.sample()?;
        out.stat = self.stat.sample()?;
        out.load = self.load.sample()?;
        out.uptime = self.up.sample()?;
        out.net.clear();
        out.net.extend_from_slice(self.netdev.sample()?);
        out.disks.clear();
        if let Some(g) = self.disk.as_mut() {
            out.disks.extend_from_slice(g.sample()?);
        }
        Ok(())
    }
}

/// Fills a [`NodeSample`] from a source's values: the
/// [`NodeReader::Values`] path.
pub type FillFn = Box<dyn FnMut(&mut NodeSample) -> io::Result<()> + Send>;

/// How an agent reads its node every tick: what
/// [`ProcSource::node_reader`] opens.
pub enum NodeReader<S: ProcSource> {
    /// The keep-open gatherers over the files' text.
    Files(Box<NodeFiles<S>>),
    /// A source that fills the sample from the values its files would be
    /// rendered from, equal to what the gatherers parse, bit for bit.
    Values(FillFn),
}

impl<S: ProcSource> NodeReader<S> {
    /// Read one tick into `out`, reusing its vectors. Returns the number
    /// of proc files read; a values source counts the six files it
    /// stands in for, so the count means the same on both paths.
    pub fn read(&mut self, out: &mut NodeSample) -> io::Result<u64> {
        match self {
            NodeReader::Files(files) => {
                files.read(out)?;
                Ok(5 + files.disk.is_some() as u64)
            }
            NodeReader::Values(fill) => {
                fill(out)?;
                Ok(6)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticProc;

    #[test]
    fn all_levels_agree_on_synthetic() {
        let proc_ = SyntheticProc::default();
        proc_.with_state(|s| {
            s.mem_free_kb = 777_000;
            s.cached_kb = 123_456;
        });
        let mut results = Vec::new();
        for level in GatherLevel::ALL {
            let mut g = MemInfoGatherer::new(proc_.clone(), level).unwrap();
            results.push(g.sample().unwrap());
        }
        for r in &results[1..] {
            assert_eq!(*r, results[0]);
        }
        assert_eq!(results[0].free_kb, 777_000);
    }

    #[test]
    fn naive_regenerates_per_byte() {
        let proc_ = SyntheticProc::default();
        let mut g = MemInfoGatherer::new(proc_.clone(), GatherLevel::Naive).unwrap();
        g.sample().unwrap();
        // One regeneration per byte read (plus the EOF probe).
        let size = proc_.with_state(|s| {
            let mut t = String::new();
            s.render_meminfo(&mut t);
            t.len() as u64
        });
        assert!(
            proc_.regenerations() >= size,
            "naive read should regenerate per byte: {} < {}",
            proc_.regenerations(),
            size
        );
    }

    #[test]
    fn keep_open_uses_single_read_per_sample() {
        let proc_ = SyntheticProc::default();
        let mut g = MemInfoGatherer::new(proc_.clone(), GatherLevel::KeepOpen).unwrap();
        let before = proc_.regenerations();
        for _ in 0..100 {
            g.sample().unwrap();
        }
        let per_sample = (proc_.regenerations() - before) as f64 / 100.0;
        assert!(
            per_sample <= 1.5,
            "keep-open should read once per sample, got {per_sample}"
        );
    }

    #[test]
    fn keep_open_tracks_state_changes() {
        let proc_ = SyntheticProc::default();
        let mut g = MemInfoGatherer::new(proc_.clone(), GatherLevel::KeepOpen).unwrap();
        let a = g.sample().unwrap();
        proc_.with_state(|s| s.mem_free_kb = a.free_kb - 1000);
        let b = g.sample().unwrap();
        assert_eq!(b.free_kb, a.free_kb - 1000);
    }

    #[test]
    fn typed_gatherers_sample_synthetic() {
        let proc_ = SyntheticProc::default();
        proc_.with_state(|s| {
            s.cpus = vec![[10, 0, 5, 85]];
            s.load_one = 1.25;
            s.uptime_secs = 3600.0;
            s.interfaces[1].rx_bytes = 42;
        });
        let mut sg = StatGatherer::new(&proc_).unwrap();
        let st = sg.sample().unwrap();
        assert_eq!(st.total.user, 10);
        assert_eq!(st.ncpu, 1);

        let mut lg = LoadAvgGatherer::new(&proc_).unwrap();
        assert!((lg.sample().unwrap().one - 1.25).abs() < 1e-9);

        let mut ug = UptimeGatherer::new(&proc_).unwrap();
        assert!((ug.sample().unwrap().uptime_secs - 3600.0).abs() < 1e-6);

        let mut ng = NetDevGatherer::new(&proc_).unwrap();
        let ifs = ng.sample().unwrap();
        assert_eq!(ifs.len(), 2);
        assert_eq!(ifs[1].rx_bytes, 42);
    }

    #[test]
    fn diskstats_gatherer_tracks_io() {
        let proc_ = SyntheticProc::default();
        let mut g = DiskStatsGatherer::new(&proc_).unwrap();
        let before = g.sample().unwrap()[0];
        proc_.with_state(|s| s.tick(10.0, 0.8));
        let after = g.sample().unwrap()[0];
        assert!(after.reads > before.reads, "busy node does I/O");
        assert!(after.sectors_written > before.sectors_written);
    }

    #[test]
    fn gatherer_construction_fails_on_missing_file() {
        let src = crate::source::RealProc::with_root("/nonexistent-cwx");
        assert!(MemInfoGatherer::new(src.clone(), GatherLevel::KeepOpen).is_err());
        assert!(StatGatherer::new(&src).is_err());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn ladder_works_on_real_proc() {
        let src = crate::source::RealProc::new();
        if !src.available() {
            return;
        }
        for level in GatherLevel::ALL {
            let mut g = MemInfoGatherer::new(src.clone(), level).unwrap();
            let m = g.sample().unwrap();
            assert!(m.total_kb > 0, "level {:?}", level);
        }
    }
}
