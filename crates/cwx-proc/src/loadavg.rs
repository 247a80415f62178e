//! `/proc/loadavg` — the cheapest file in the paper's table (7.5 µs/call).

use crate::parse::{next_f64, next_u64};

/// Parsed `/proc/loadavg`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadAvg {
    /// 1-minute load average.
    pub one: f64,
    /// 5-minute load average.
    pub five: f64,
    /// 15-minute load average.
    pub fifteen: f64,
    /// Currently runnable tasks.
    pub running: u64,
    /// Total scheduling entities.
    pub total: u64,
    /// Most recently created pid.
    pub last_pid: u64,
}

/// Allocating parser.
pub fn parse_generic(text: &str) -> Option<LoadAvg> {
    let mut parts = text.split_whitespace();
    let one = parts.next()?.parse().ok()?;
    let five = parts.next()?.parse().ok()?;
    let fifteen = parts.next()?.parse().ok()?;
    let rt = parts.next()?;
    let (running, total) = rt.split_once('/')?;
    let last_pid = parts.next()?.parse().ok()?;
    Some(LoadAvg {
        one,
        five,
        fifteen,
        running: running.parse().ok()?,
        total: total.parse().ok()?,
        last_pid,
    })
}

/// Zero-allocation parser: the format is one fixed line.
pub fn parse_apriori(b: &[u8]) -> Option<LoadAvg> {
    let mut pos = 0;
    Some(LoadAvg {
        one: next_f64(b, &mut pos)?,
        five: next_f64(b, &mut pos)?,
        fifteen: next_f64(b, &mut pos)?,
        running: next_u64(b, &mut pos)?,
        total: next_u64(b, &mut pos)?,
        last_pid: next_u64(b, &mut pos)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_parsers_agree_on_kernel_format() {
        let text = "0.42 1.05 2.33 3/128 4567\n";
        let g = parse_generic(text).unwrap();
        let a = parse_apriori(text.as_bytes()).unwrap();
        assert_eq!(g, a);
        assert!((g.one - 0.42).abs() < 1e-9);
        assert!((g.fifteen - 2.33).abs() < 1e-9);
        assert_eq!(g.running, 3);
        assert_eq!(g.total, 128);
        assert_eq!(g.last_pid, 4567);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_generic("hello world").is_none());
        assert!(parse_apriori(b"no digits here").is_none());
    }

    #[test]
    fn rejects_truncated() {
        assert!(parse_generic("0.1 0.2").is_none());
        assert!(parse_apriori(b"0.1 0.2").is_none());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn parses_real_loadavg() {
        let Ok(text) = std::fs::read("/proc/loadavg") else {
            return;
        };
        let a = parse_apriori(&text).expect("parse real loadavg");
        let g = parse_generic(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(
            (a.running, a.total, a.last_pid),
            (g.running, g.total, g.last_pid)
        );
        assert_eq!(
            (a.one.to_bits(), a.five.to_bits(), a.fifteen.to_bits()),
            (g.one.to_bits(), g.five.to_bits(), g.fifteen.to_bits())
        );
        assert!(a.total >= 1);
    }
}
