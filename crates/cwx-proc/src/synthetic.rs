//! An in-memory /proc that behaves like the kernel's.
//!
//! Each simulated node owns a [`SyntheticState`] describing its current
//! activity (memory occupancy, per-CPU jiffie counters, load averages,
//! uptime, NIC and disk counters). [`SyntheticProc`] serves the six proc
//! files the agent reads, **regenerating the full file text on every
//! `read_at` call** — the exact kernel-handler behaviour the paper calls
//! "a crucial point for efficiency". A regeneration counter lets tests
//! assert that naive byte-at-a-time readers pay the quadratic cost. That
//! text is what the gathering ladder (E1/E2) reads.
//!
//! A simulated node's agent skips the text: [`SyntheticProc`]'s
//! [`ProcSource::node_reader`] copies the state into the typed values
//! under one lock, equal bit for bit to what the keep-open gatherers
//! parse out of the rendered files, and builds no gatherers or read
//! buffers.

use std::io;
use std::sync::{Arc, Mutex};

use crate::diskstats::{DiskName, DiskStats};
use crate::gather::{NodeReader, NodeSample};
use crate::loadavg::LoadAvg;
use crate::meminfo::MemInfo;
use crate::netdev::{IfName, IfStats};
use crate::parse::next_f64;
use crate::source::{ProcHandle, ProcSource};
use crate::stat::{CpuTimes, Stat};
use crate::uptime::Uptime;

/// Per-disk counters for `/proc/diskstats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthDisk {
    /// Device name, e.g. `hda`.
    pub name: String,
    /// Major number.
    pub major: u32,
    /// Read operations completed.
    pub reads: u64,
    /// Sectors read.
    pub sectors_read: u64,
    /// Write operations completed.
    pub writes: u64,
    /// Sectors written.
    pub sectors_written: u64,
}

impl SynthDisk {
    /// A fresh disk with zeroed counters.
    pub fn new(name: impl Into<String>, major: u32) -> Self {
        SynthDisk {
            name: name.into(),
            major,
            reads: 0,
            sectors_read: 0,
            writes: 0,
            sectors_written: 0,
        }
    }
}

/// Per-interface counters for `/proc/net/dev`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthInterface {
    /// Interface name (e.g. `eth0`).
    pub name: String,
    /// Received bytes.
    pub rx_bytes: u64,
    /// Received packets.
    pub rx_packets: u64,
    /// Receive errors.
    pub rx_errs: u64,
    /// Dropped on receive.
    pub rx_drop: u64,
    /// Transmitted bytes.
    pub tx_bytes: u64,
    /// Transmitted packets.
    pub tx_packets: u64,
    /// Transmit errors.
    pub tx_errs: u64,
    /// Dropped on transmit.
    pub tx_drop: u64,
}

impl SynthInterface {
    /// A fresh interface with zeroed counters.
    pub fn new(name: impl Into<String>) -> Self {
        SynthInterface {
            name: name.into(),
            rx_bytes: 0,
            rx_packets: 0,
            rx_errs: 0,
            rx_drop: 0,
            tx_bytes: 0,
            tx_packets: 0,
            tx_errs: 0,
            tx_drop: 0,
        }
    }
}

/// The live state a synthetic node exposes through /proc.
///
/// The cluster hardware simulation (`cwx-hw`) mutates this as simulated
/// time advances; gatherers observe it through [`SyntheticProc`].
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticState {
    /// Total RAM in kB.
    pub mem_total_kb: u64,
    /// Free RAM in kB.
    pub mem_free_kb: u64,
    /// Buffer cache in kB.
    pub buffers_kb: u64,
    /// Page cache in kB.
    pub cached_kb: u64,
    /// Total swap in kB.
    pub swap_total_kb: u64,
    /// Free swap in kB.
    pub swap_free_kb: u64,
    /// Per-CPU jiffie counters `[user, nice, system, idle]`.
    pub cpus: Vec<[u64; 4]>,
    /// Context switches since boot.
    pub ctxt: u64,
    /// Forks since boot.
    pub processes: u64,
    /// Boot time (seconds since the epoch).
    pub btime: u64,
    /// Currently runnable tasks.
    pub procs_running: u64,
    /// Tasks blocked on I/O.
    pub procs_blocked: u64,
    /// 1-minute load average.
    pub load_one: f64,
    /// 5-minute load average.
    pub load_five: f64,
    /// 15-minute load average.
    pub load_fifteen: f64,
    /// Total scheduling entities, for the `running/total` field.
    pub tasks_total: u64,
    /// Most recently assigned pid.
    pub last_pid: u64,
    /// Seconds since boot.
    pub uptime_secs: f64,
    /// Aggregate idle seconds.
    pub idle_secs: f64,
    /// Network interfaces.
    pub interfaces: Vec<SynthInterface>,
    /// Block devices.
    pub disks: Vec<SynthDisk>,
}

impl Default for SyntheticState {
    fn default() -> Self {
        SyntheticState {
            // paper testbed: 1 GB Pentium III node
            mem_total_kb: 1_048_576,
            mem_free_kb: 900_000,
            buffers_kb: 20_000,
            cached_kb: 100_000,
            swap_total_kb: 2_097_152,
            swap_free_kb: 2_097_152,
            cpus: vec![[0, 0, 0, 0]],
            ctxt: 0,
            processes: 1,
            btime: 1_041_379_200, // 2003-01-01, era-appropriate
            procs_running: 1,
            procs_blocked: 0,
            load_one: 0.0,
            load_five: 0.0,
            load_fifteen: 0.0,
            tasks_total: 60,
            last_pid: 1,
            uptime_secs: 0.0,
            idle_secs: 0.0,
            interfaces: vec![SynthInterface::new("lo"), SynthInterface::new("eth0")],
            disks: vec![SynthDisk::new("hda", 3)],
        }
    }
}

impl SyntheticState {
    /// Render `/proc/meminfo`.
    pub fn render_meminfo(&self, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        let used = self.mem_total_kb.saturating_sub(self.mem_free_kb);
        let _ = writeln!(out, "MemTotal: {:>8} kB", self.mem_total_kb);
        let _ = writeln!(out, "MemFree: {:>9} kB", self.mem_free_kb);
        let _ = writeln!(out, "Buffers: {:>9} kB", self.buffers_kb);
        let _ = writeln!(out, "Cached: {:>10} kB", self.cached_kb);
        let _ = writeln!(out, "Active: {:>10} kB", used / 2);
        let _ = writeln!(out, "Inactive: {:>8} kB", used / 4);
        let _ = writeln!(out, "SwapTotal: {:>7} kB", self.swap_total_kb);
        let _ = writeln!(out, "SwapFree: {:>8} kB", self.swap_free_kb);
    }

    /// The aggregate `cpu` line of `/proc/stat`: each counter summed over
    /// all CPUs.
    fn cpu_total(&self) -> [u64; 4] {
        let mut total = [0u64; 4];
        for cpu in &self.cpus {
            for k in 0..4 {
                total[k] += cpu[k];
            }
        }
        total
    }

    /// Render `/proc/stat`.
    pub fn render_stat(&self, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        let total = self.cpu_total();
        let _ = writeln!(
            out,
            "cpu  {} {} {} {}",
            total[0], total[1], total[2], total[3]
        );
        for (i, cpu) in self.cpus.iter().enumerate() {
            let _ = writeln!(out, "cpu{} {} {} {} {}", i, cpu[0], cpu[1], cpu[2], cpu[3]);
        }
        let _ = writeln!(out, "ctxt {}", self.ctxt);
        let _ = writeln!(out, "btime {}", self.btime);
        let _ = writeln!(out, "processes {}", self.processes);
        let _ = writeln!(out, "procs_running {}", self.procs_running);
        let _ = writeln!(out, "procs_blocked {}", self.procs_blocked);
    }

    /// Render `/proc/loadavg`.
    pub fn render_loadavg(&self, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        let _ = writeln!(
            out,
            "{:.2} {:.2} {:.2} {}/{} {}",
            self.load_one,
            self.load_five,
            self.load_fifteen,
            self.procs_running,
            self.tasks_total,
            self.last_pid
        );
    }

    /// Render `/proc/uptime`.
    pub fn render_uptime(&self, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        let _ = writeln!(out, "{:.2} {:.2}", self.uptime_secs, self.idle_secs);
    }

    /// Render `/proc/net/dev`.
    pub fn render_netdev(&self, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        out.push_str(
            "Inter-|   Receive                                                |  Transmit\n",
        );
        out.push_str(" face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed\n");
        for ifc in &self.interfaces {
            let _ = writeln!(
                out,
                "{:>6}: {:>8} {:>7} {:>4} {:>4}    0     0          0         0 {:>8} {:>7} {:>4} {:>4}    0     0       0          0",
                ifc.name,
                ifc.rx_bytes,
                ifc.rx_packets,
                ifc.rx_errs,
                ifc.rx_drop,
                ifc.tx_bytes,
                ifc.tx_packets,
                ifc.tx_errs,
                ifc.tx_drop,
            );
        }
    }

    /// Render `/proc/diskstats`.
    pub fn render_diskstats(&self, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        for d in &self.disks {
            let _ = writeln!(
                out,
                "{:>4} {:>4} {} {} {} {} {}",
                d.major, 0, d.name, d.reads, d.sectors_read, d.writes, d.sectors_written
            );
        }
    }

    /// The six files' values as the keep-open gatherers parse them out
    /// of this state's rendered text, without rendering it. Counters are
    /// copied (the text path is exact for them), names truncate as the
    /// parsers truncate them, and the five fractional fields go through
    /// the text path's own `{:.2}` and scanner, so every bit matches.
    /// Fails where the text path fails: on a non-finite load or uptime.
    /// `files` counts the files served, in the gatherers' order, up to
    /// and including one that fails.
    fn serve(&self, out: &mut NodeSample, files: &mut u64) -> io::Result<()> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        out.mem = MemInfo {
            total_kb: self.mem_total_kb,
            free_kb: self.mem_free_kb,
            buffers_kb: self.buffers_kb,
            cached_kb: self.cached_kb,
            swap_total_kb: self.swap_total_kb,
            swap_free_kb: self.swap_free_kb,
        };
        let [user, nice, system, idle] = self.cpu_total();
        out.stat = Stat {
            total: CpuTimes {
                user,
                nice,
                system,
                idle,
            },
            ncpu: self.cpus.len(),
            ctxt: self.ctxt,
            btime: self.btime,
            processes: self.processes,
            procs_running: self.procs_running,
            procs_blocked: self.procs_blocked,
        };
        let load = |x| through_text(x).ok_or_else(|| bad("loadavg parse"));
        *files = 3;
        out.load = LoadAvg {
            one: load(self.load_one)?,
            five: load(self.load_five)?,
            fifteen: load(self.load_fifteen)?,
            running: self.procs_running,
            total: self.tasks_total,
            last_pid: self.last_pid,
        };
        let up = |x| through_text(x).ok_or_else(|| bad("uptime parse"));
        *files = 4;
        out.uptime = Uptime {
            uptime_secs: up(self.uptime_secs)?,
            idle_secs: up(self.idle_secs)?,
        };
        out.net.clear();
        out.net.extend(self.interfaces.iter().map(|i| IfStats {
            name: IfName::new(i.name.as_bytes()),
            rx_bytes: i.rx_bytes,
            rx_packets: i.rx_packets,
            rx_errs: i.rx_errs,
            rx_drop: i.rx_drop,
            tx_bytes: i.tx_bytes,
            tx_packets: i.tx_packets,
            tx_errs: i.tx_errs,
            tx_drop: i.tx_drop,
        }));
        out.disks.clear();
        out.disks.extend(self.disks.iter().map(|d| DiskStats {
            major: d.major,
            minor: 0,
            name: DiskName::new(d.name.as_bytes()),
            reads: d.reads,
            sectors_read: d.sectors_read,
            writes: d.writes,
            sectors_written: d.sectors_written,
        }));
        *files = 6;
        Ok(())
    }

    /// Advance activity counters by `dt_secs` of simulated time given a
    /// CPU utilisation in `[0,1]` spread across all CPUs (assumes 100 Hz
    /// jiffies, the 2.4-kernel tick).
    pub fn tick(&mut self, dt_secs: f64, cpu_util: f64) {
        let util = cpu_util.clamp(0.0, 1.0);
        let jiffies = (dt_secs * 100.0) as u64;
        for cpu in &mut self.cpus {
            let busy = (jiffies as f64 * util) as u64;
            cpu[0] += busy * 7 / 10; // user
            cpu[2] += busy - busy * 7 / 10; // system
            cpu[3] += jiffies - busy; // idle
        }
        self.uptime_secs += dt_secs;
        self.idle_secs += dt_secs * (1.0 - util) * self.cpus.len() as f64;
        self.ctxt += (dt_secs * (100.0 + 4000.0 * util)) as u64;
        // busy nodes do I/O roughly in proportion to their load
        for d in &mut self.disks {
            let ops = (dt_secs * (2.0 + 60.0 * util)) as u64;
            d.reads += ops * 2 / 3;
            d.writes += ops - ops * 2 / 3;
            d.sectors_read += ops * 2 / 3 * 16;
            d.sectors_written += (ops - ops * 2 / 3) * 16;
        }
    }
}

/// `x` as the loadavg and uptime files deliver it: printed `{:.2}`, as
/// they print it, and read back with the gatherers' own scanner, so the
/// bits are the text path's, `{:.2}`'s rounding included. `None` where
/// that scanner finds no number (a non-finite `x`).
fn through_text(x: f64) -> Option<f64> {
    use std::fmt::Write;
    /// `{:.2}` of any `f64` fits: a sign, 309 integer digits and ".00".
    struct Digits {
        buf: [u8; 320],
        len: usize,
    }
    impl Write for Digits {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            let end = self.len + s.len();
            let dst = self.buf.get_mut(self.len..end).ok_or(std::fmt::Error)?;
            dst.copy_from_slice(s.as_bytes());
            self.len = end;
            Ok(())
        }
    }
    let mut d = Digits {
        buf: [0; 320],
        len: 0,
    };
    write!(d, "{x:.2}").ok()?;
    next_f64(&d.buf[..d.len], &mut 0)
}

/// A proc source backed by a shared [`SyntheticState`].
///
/// Clones share the same state, so the simulator can hold one clone and
/// mutate it while gatherers hold another.
#[derive(Debug, Clone)]
pub struct SyntheticProc {
    state: Arc<Mutex<SyntheticState>>,
    regens: Arc<Mutex<u64>>,
}

impl SyntheticProc {
    /// Wrap a state.
    pub fn new(state: SyntheticState) -> Self {
        SyntheticProc {
            state: Arc::new(Mutex::new(state)),
            regens: Arc::new(Mutex::new(0)),
        }
    }

    /// Run `f` with exclusive access to the state (how the simulator
    /// injects activity).
    pub fn with_state<R>(&self, f: impl FnOnce(&mut SyntheticState) -> R) -> R {
        f(&mut self.state.lock().unwrap())
    }

    /// How many times a file handler regenerated content. A direct
    /// measure of the waste the paper's naive gatherer incurs. An agent's
    /// values reader counts what the keep-open gatherers would have.
    pub fn regenerations(&self) -> u64 {
        *self.regens.lock().unwrap()
    }
}

impl Default for SyntheticProc {
    fn default() -> Self {
        SyntheticProc::new(SyntheticState::default())
    }
}

/// Which file a synthetic handle serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    MemInfo,
    Stat,
    LoadAvg,
    Uptime,
    NetDev,
    DiskStats,
}

/// An open synthetic file.
#[derive(Debug)]
pub struct SyntheticHandle {
    proc_: SyntheticProc,
    kind: FileKind,
    scratch: String,
}

impl ProcSource for SyntheticProc {
    type Handle = SyntheticHandle;

    fn open(&self, path: &str) -> io::Result<SyntheticHandle> {
        let kind = match path {
            "meminfo" => FileKind::MemInfo,
            "stat" => FileKind::Stat,
            "loadavg" => FileKind::LoadAvg,
            "uptime" => FileKind::Uptime,
            "net/dev" => FileKind::NetDev,
            "diskstats" => FileKind::DiskStats,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no synthetic proc file: {other}"),
                ))
            }
        };
        Ok(SyntheticHandle {
            proc_: self.clone(),
            kind,
            scratch: String::new(),
        })
    }

    /// The state's values under one lock, without rendering any text.
    /// [`SyntheticProc::regenerations`] still counts what the keep-open
    /// gatherers regenerate (two for learning the `meminfo` layout, its
    /// content and the end-of-file probe, then one per file served), so
    /// the count a world snapshot records does not depend on the path.
    fn node_reader(&self) -> io::Result<NodeReader<Self>> {
        const POISONED: &str = "a thread panicked holding a synthetic node's lock";
        *self.regens.lock().expect(POISONED) += 2;
        let proc_ = self.clone();
        Ok(NodeReader::Values(Box::new(move |out| {
            let mut files = 0;
            let served = proc_.state.lock().expect(POISONED).serve(out, &mut files);
            *proc_.regens.lock().expect(POISONED) += files;
            served
        })))
    }
}

impl ProcHandle for SyntheticHandle {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        // Regenerate the whole file on every read — kernel semantics.
        {
            let state = self.proc_.state.lock().unwrap();
            match self.kind {
                FileKind::MemInfo => state.render_meminfo(&mut self.scratch),
                FileKind::Stat => state.render_stat(&mut self.scratch),
                FileKind::LoadAvg => state.render_loadavg(&mut self.scratch),
                FileKind::Uptime => state.render_uptime(&mut self.scratch),
                FileKind::NetDev => state.render_netdev(&mut self.scratch),
                FileKind::DiskStats => state.render_diskstats(&mut self.scratch),
            }
        }
        *self.proc_.regens.lock().unwrap() += 1;
        let bytes = self.scratch.as_bytes();
        let offset = offset as usize;
        if offset >= bytes.len() {
            return Ok(0);
        }
        let n = buf.len().min(bytes.len() - offset);
        buf[..n].copy_from_slice(&bytes[offset..offset + n]);
        Ok(n)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit field setup reads clearer in tests
mod tests {
    use super::*;

    #[test]
    fn meminfo_renders_expected_keys() {
        let mut s = String::new();
        SyntheticState::default().render_meminfo(&mut s);
        for key in [
            "MemTotal:",
            "MemFree:",
            "Buffers:",
            "Cached:",
            "SwapTotal:",
            "SwapFree:",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert!(s.ends_with('\n'));
    }

    #[test]
    fn stat_renders_cpu_lines_per_cpu() {
        let mut st = SyntheticState::default();
        st.cpus = vec![[1, 2, 3, 4], [5, 6, 7, 8]];
        let mut s = String::new();
        st.render_stat(&mut s);
        assert!(s.starts_with("cpu  6 8 10 12\n"));
        assert!(s.contains("cpu0 1 2 3 4\n"));
        assert!(s.contains("cpu1 5 6 7 8\n"));
        assert!(s.contains("procs_running 1"));
    }

    #[test]
    fn loadavg_format_matches_kernel() {
        let mut st = SyntheticState::default();
        st.load_one = 0.42;
        st.load_five = 0.30;
        st.load_fifteen = 0.1;
        st.procs_running = 2;
        st.tasks_total = 77;
        st.last_pid = 1234;
        let mut s = String::new();
        st.render_loadavg(&mut s);
        assert_eq!(s, "0.42 0.30 0.10 2/77 1234\n");
    }

    #[test]
    fn netdev_has_two_header_lines_then_interfaces() {
        let mut s = String::new();
        SyntheticState::default().render_netdev(&mut s);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].trim_start().starts_with("lo:"));
        assert!(lines[3].trim_start().starts_with("eth0:"));
    }

    #[test]
    fn every_read_regenerates() {
        let proc_ = SyntheticProc::default();
        let mut h = proc_.open("meminfo").unwrap();
        let mut b = [0u8; 1];
        for _ in 0..10 {
            h.read_at(0, &mut b).unwrap();
        }
        assert_eq!(proc_.regenerations(), 10);
    }

    #[test]
    fn reads_observe_state_mutations() {
        let proc_ = SyntheticProc::default();
        let mut h = proc_.open("uptime").unwrap();
        let mut buf = Vec::new();
        h.read_to_vec(&mut buf).unwrap();
        let before = String::from_utf8(buf.clone()).unwrap();
        proc_.with_state(|s| s.uptime_secs = 123.0);
        h.read_to_vec(&mut buf).unwrap();
        let after = String::from_utf8(buf).unwrap();
        assert_ne!(before, after);
        assert!(after.starts_with("123.00 "));
    }

    #[test]
    fn unknown_path_is_not_found() {
        let proc_ = SyntheticProc::default();
        let err = proc_.open("cpuinfo").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn tick_advances_jiffies_consistently() {
        let mut st = SyntheticState::default();
        st.cpus = vec![[0; 4]; 2];
        st.tick(10.0, 0.5);
        for cpu in &st.cpus {
            let total: u64 = cpu.iter().sum();
            assert_eq!(total, 1000); // 10s * 100Hz
            assert!(cpu[3] >= 400 && cpu[3] <= 600, "idle {:?}", cpu);
        }
        assert!((st.uptime_secs - 10.0).abs() < 1e-9);
        assert!(st.ctxt > 0);
    }

    #[test]
    fn clones_share_state() {
        let a = SyntheticProc::default();
        let b = a.clone();
        b.with_state(|s| s.mem_free_kb = 1);
        assert_eq!(a.with_state(|s| s.mem_free_kb), 1);
    }
}
