//! Reading a process's CPU time, resident set and context switches
//! from `/proc/<pid>` — the outside view of the server child (or of
//! the bench process itself for in-process workloads).

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (USER_HZ; 100 on
/// every Linux this runs on).
const USER_HZ: f64 = 100.0;

/// One reading of a process's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User-mode CPU seconds, all threads.
    pub utime_s: f64,
    /// Kernel-mode CPU seconds, all threads.
    pub stime_s: f64,
    /// Peak resident set (VmHWM), MiB.
    pub peak_rss_mib: f64,
    /// Voluntary + involuntary context switches, all threads.
    pub ctx_switches: u64,
}

impl ProcSample {
    /// `utime + stime`.
    pub fn cpu_s(&self) -> f64 {
        self.utime_s + self.stime_s
    }
}

fn status_field(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Sample `pid` (`None` = this process). Missing files read as zeros:
/// a child that already exited must not panic the parent.
pub fn sample(pid: Option<u32>) -> ProcSample {
    let root = match pid {
        Some(p) => format!("/proc/{p}"),
        None => "/proc/self".to_string(),
    };
    let mut out = ProcSample::default();
    if let Ok(stat) = fs::read_to_string(format!("{root}/stat")) {
        // comm may contain spaces; fields are counted after the ')'
        if let Some(rest) = stat.rsplit(')').next() {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
            out.utime_s = tick(11) / USER_HZ;
            out.stime_s = tick(12) / USER_HZ;
        }
    }
    if let Ok(status) = fs::read_to_string(format!("{root}/status")) {
        out.peak_rss_mib = status_field(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0;
    }
    // the status file counts only the thread-group leader's switches
    if let Ok(tasks) = fs::read_dir(format!("{root}/task")) {
        for t in tasks.flatten() {
            if let Ok(status) = fs::read_to_string(t.path().join("status")) {
                out.ctx_switches += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
                    + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
            }
        }
    }
    out
}

/// Bytes of every regular file under `dir` (the store's footprint).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_sample_reads_nonzero_rss_and_monotone_cpu() {
        let a = sample(None);
        assert!(a.peak_rss_mib > 0.0, "{a:?}");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = sample(None);
        assert!(b.cpu_s() >= a.cpu_s());
        assert!(b.ctx_switches >= a.ctx_switches);
        assert_eq!(sample(Some(u32::MAX)), ProcSample::default());
    }
}
