//! `cwxbench compare A.jsonl B.jsonl`: judge two sets of runs.
//!
//! Per (workload, metric) it prints both medians with their quartiles,
//! the relative change in the *worse* direction, and a verdict:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — a set's own run-to-run spread (IQR ÷ median) is
//!   wider than the bound, so "no change" cannot be told from "changed";
//! * `ok` — neither.
//!
//! Bounds of the gated metrics come from `BENCHMARK.json` when it can be
//! read (so the file stays the one place they are set), those of the
//! workload-specific end-to-end metrics from [`report::DETAIL`];
//! per-layer rows carry no bound and are shown for attribution only.
//! Counts (`unit == "count"`) are also compared run by run for the same
//! seed: a `[C]` row that differs between the sets is flagged.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::report::{self, Better, Bound};
use crate::stats;

/// One side's values of one (workload, metric): `(seed, value)`.
type Series = Vec<(u64, f64)>;

struct RunSet {
    /// `(workload, metric)` → values; metric units ride along.
    values: BTreeMap<(String, String), Series>,
    units: BTreeMap<String, String>,
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet {
        values: BTreeMap::new(),
        units: BTreeMap::new(),
    };
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |k: &str| {
            run.get(k)
                .ok_or_else(|| format!("{path}:{}: missing {k:?}", i + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or("?").to_string();
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        let mut push = |metric: &str, value: f64, unit: &str| {
            set.values
                .entry((workload.clone(), metric.to_string()))
                .or_default()
                .push((seed, value));
            set.units.insert(metric.to_string(), unit.to_string());
        };
        if let Some(share) = run.get("failed_share").and_then(Json::as_f64) {
            push("failed_share", share, "share");
        }
        for (name, m) in field("metrics")?.as_obj().unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                push(name, v, m.get("unit").and_then(Json::as_str).unwrap_or(""));
            }
        }
    }
    Ok(set)
}

/// Bounds by metric name: the built-in tables, overridden for gated
/// metrics by whatever `BENCHMARK.json` says.
fn bounds(bench_path: &str) -> BTreeMap<String, (Better, f64)> {
    let mut out: BTreeMap<String, (Better, f64)> = report::GATED
        .iter()
        .chain(report::DETAIL.iter())
        .map(|b: &Bound| (b.name.to_string(), (b.better, b.bound)))
        .collect();
    let gated = std::fs::read_to_string(bench_path)
        .ok()
        .and_then(|t| json::parse(&t).ok());
    for m in gated
        .as_ref()
        .and_then(|b| b.get("end_to_end"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        if let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("better").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) {
            let better = if better == "higher" {
                Better::Higher
            } else {
                Better::Lower
            };
            out.insert(name.to_string(), (better, bound));
        }
    }
    out
}

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, spreads narrower than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// Run-to-run spread wider than the bound.
    Unresolved,
    /// No bound is set for this metric.
    Unbounded,
}

/// Median, quartiles and relative spread of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let median = stats::median(&stats::sorted(values));
        match stats::quartiles(values) {
            Some((q1, _, q3)) => Side { median, q1, q3 },
            None => Side {
                median,
                q1: median,
                q3: median,
            },
        }
    }

    /// IQR ÷ |median| (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative
/// = better). A zero base with a non-zero B is infinitely worse.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

/// Judge one pair of sides against a bound.
pub fn judge(a: Side, b: Side, bound: Option<(Better, f64)>) -> (f64, Verdict) {
    let Some((better, bound)) = bound else {
        return (
            worsening(a.median, b.median, Better::Lower),
            Verdict::Unbounded,
        );
    };
    let worse = worsening(a.median, b.median, better);
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if a.spread().max(b.spread()) > bound && bound > 0.0 {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// `compare A B [--bench FILE]`; exit code 1 when anything regressed.
pub fn main(args: &[String]) -> Result<i32, String> {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: cwxbench compare A.jsonl B.jsonl [--bench BENCHMARK.json]".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(&bench);

    println!(
        "{:<12} {:<44} {:>3} {:>13} {:>7} {:>13} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "A median", "A iqr%", "B median", "B iqr%", "worse%", "bound%"
    );
    let (mut regressed, mut unresolved, mut count_diffs) = (0, 0, 0);
    for (key, av) in &a.values {
        let Some(bv) = b.values.get(key) else {
            continue;
        };
        let (workload, metric) = key;
        let vals = |s: &Series| s.iter().map(|p| p.1).collect::<Vec<_>>();
        let (sa, sb) = (Side::of(&vals(av)), Side::of(&vals(bv)));
        let bound = bounds.get(metric).copied();
        let (worse, verdict) = judge(sa, sb, bound);
        let mut label = match verdict {
            Verdict::Ok => "ok".to_string(),
            Verdict::Regressed => {
                regressed += 1;
                "regressed".to_string()
            }
            Verdict::Unresolved => {
                unresolved += 1;
                "unresolved".to_string()
            }
            Verdict::Unbounded => "-".to_string(),
        };
        // counts must repeat exactly for the same seed
        if a.units.get(metric).map(String::as_str) == Some("count") {
            let by_seed: BTreeMap<u64, f64> = bv.iter().copied().collect();
            let differs = av
                .iter()
                .any(|(seed, v)| by_seed.get(seed).is_some_and(|w| w != v));
            if differs {
                count_diffs += 1;
                label.push_str(" count-differs");
            } else {
                label.push_str(" count-same");
            }
        }
        println!(
            "{:<12} {:<44} {:>3} {:>13.5} {:>7.2} {:>13.5} {:>7.2} {:>8.2} {:>6}  {}",
            workload,
            metric,
            av.len().min(bv.len()),
            sa.median,
            sa.spread() * 100.0,
            sb.median,
            sb.spread() * 100.0,
            worse * 100.0,
            bound.map_or("-".to_string(), |(_, x)| format!("{:.0}", x * 100.0)),
            label
        );
    }
    println!("{regressed} regressed, {unresolved} unresolved, {count_diffs} count rows differ between the sets");
    Ok(if regressed > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side::of(values)
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = side(&[10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]);
        let slower = side(&[11.5, 11.6, 11.4, 11.5, 11.5, 11.55, 11.45, 11.5, 11.6, 11.4]);
        let noisy = side(&[10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 9.0, 11.0, 6.0, 15.0]);
        let lower = Some((Better::Lower, 0.10));
        assert_eq!(judge(steady, steady, lower).1, Verdict::Ok);
        let (worse, v) = judge(steady, slower, lower);
        assert!((worse - 0.15).abs() < 1e-9);
        assert_eq!(v, Verdict::Regressed);
        // faster is not a regression
        assert_eq!(judge(slower, steady, lower).1, Verdict::Ok);
        // the same move on a higher-is-better metric flips sign
        assert_eq!(
            judge(slower, steady, Some((Better::Higher, 0.10))).1,
            Verdict::Regressed
        );
        // spread wider than the bound: cannot call it unchanged
        assert_eq!(judge(noisy, noisy, lower).1, Verdict::Unresolved);
        assert_eq!(judge(steady, steady, None).1, Verdict::Unbounded);
        // "any increase" bound: zero stays ok, anything above regresses
        let zero = side(&[0.0, 0.0, 0.0]);
        let some = side(&[0.0, 0.001, 0.002]);
        assert_eq!(judge(zero, zero, Some((Better::Lower, 0.0))).1, Verdict::Ok);
        assert_eq!(
            judge(zero, some, Some((Better::Lower, 0.0))).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn reads_run_logs_and_benchmark_bounds() {
        let dir = report::work_dir().join("compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("a.jsonl");
        let mut o = crate::report::Outcome {
            attempted: 10,
            ..Default::default()
        };
        o.metrics
            .push(crate::report::Metric::gated("op_p50_ms", 2.5, "ms", 10));
        o.metrics.push(crate::report::Metric::layer(
            "bench.frames_sent",
            100.0,
            "count",
            1,
        ));
        std::fs::write(
            &log,
            format!(
                "{}\n{}\n",
                o.log_line("w", 1, 15, false),
                o.log_line("w", 2, 15, false)
            ),
        )
        .unwrap();
        let set = load(log.to_str().unwrap()).unwrap();
        assert_eq!(
            set.values[&("w".to_string(), "op_p50_ms".to_string())],
            vec![(1, 2.5), (2, 2.5)]
        );
        assert_eq!(set.units["bench.frames_sent"], "count");
        assert!(set
            .values
            .contains_key(&("w".to_string(), "failed_share".to_string())));

        let bench = dir.join("BENCHMARK.json");
        std::fs::write(
            &bench,
            r#"{"end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2}]}"#,
        )
        .unwrap();
        let b = bounds(bench.to_str().unwrap());
        assert_eq!(
            b["op_p50_ms"],
            (Better::Lower, 0.2),
            "BENCHMARK.json overrides the table"
        );
        assert_eq!(b["fresh_lag_p95_ms"], (Better::Lower, 0.20));
        assert_eq!(
            bounds("/nonexistent")["op_p50_ms"],
            (Better::Lower, 0.25),
            "falls back to the table"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
