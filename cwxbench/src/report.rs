//! What a run reports: metrics by name with unit and sample count,
//! output checks, the driver's result line, the `--out` run log, and
//! the catalogue of bounds `compare` judges against.

use std::path::PathBuf;

use crate::json::{obj, Json};

/// Where a metric belongs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end, in `BENCHMARK.json`'s `end_to_end`: every workload
    /// reports every one of these from its untraced run.
    Gated,
    /// End-to-end but specific to some workloads: printed, logged and
    /// judged by `compare`, not by the driver.
    Detail,
    /// A single layer's number, from the traced run.
    Layer,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a plain count or ratio).
    pub n: u64,
    /// Which table it belongs to.
    pub kind: Kind,
}

impl Metric {
    /// A gated end-to-end metric.
    pub fn gated(name: &str, value: f64, unit: &'static str, n: u64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            kind: Kind::Gated,
        }
    }

    /// A workload-specific end-to-end metric.
    pub fn detail(name: &str, value: f64, unit: &'static str, n: u64) -> Metric {
        Metric {
            kind: Kind::Detail,
            ..Metric::gated(name, value, unit, n)
        }
    }

    /// A per-layer metric.
    pub fn layer(name: impl Into<String>, value: f64, unit: &'static str, n: u64) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
            kind: Kind::Layer,
        }
    }
}

/// One output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Did it hold?
    pub ok: bool,
    /// The evidence, for the log.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (frames, probes, queries, checks …).
    pub attempted: u64,
    /// Operations that failed. Failed checks are included.
    pub failed: u64,
    /// Every metric measured.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Set when the instrument itself misbehaved (generator ran late):
    /// the run is reported as invalid, not as a result.
    pub invalid: Option<String>,
}

impl Outcome {
    /// Record a check; a failed check is a failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Did every output check pass?
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// A metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Fold another run's operations, checks and metrics into this one
    /// (the traced suite is several short runs reported as one).
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.checks.extend(other.checks);
        if self.invalid.is_none() {
            self.invalid = other.invalid;
        }
    }

    fn metrics_json(&self, keep: impl Fn(&Metric) -> bool, with_n: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .filter(|m| keep(m))
                .map(|m| {
                    let mut kv = vec![
                        ("value".to_string(), Json::Num(m.value)),
                        ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ];
                    if with_n {
                        kv.push(("n".to_string(), Json::Num(m.n as f64)));
                    }
                    (m.name.clone(), Json::Obj(kv))
                })
                .collect(),
        )
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`; gated metrics untraced, per-layer traced.
    pub fn result_line(&self, traced: bool) -> String {
        let want = if traced { Kind::Layer } else { Kind::Gated };
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(|m| m.kind == want, false)),
        ])
        .render()
    }

    /// One line of the `--out` run log: every metric with its sample
    /// count, plus the checks.
    pub fn log_line(&self, workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
        obj([
            ("schema", Json::Str("cwxbench-run-v1".into())),
            ("workload", Json::Str(workload.into())),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds as f64)),
            ("traced", Json::Bool(traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            ("metrics", self.metrics_json(|_| true, true)),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            obj([
                                ("name", Json::Str(c.name.clone())),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// The human table, on stderr (stdout's last line is the result).
    pub fn print_table(&self, title: &str) {
        eprintln!("== {title}");
        for (kind, label) in [
            (Kind::Gated, "end-to-end (gated)"),
            (Kind::Detail, "end-to-end (workload detail)"),
            (Kind::Layer, "per-layer"),
        ] {
            let rows: Vec<&Metric> = self.metrics.iter().filter(|m| m.kind == kind).collect();
            if rows.is_empty() {
                continue;
            }
            eprintln!("  -- {label}");
            for m in rows {
                eprintln!("  {:<44} {:>16.6} {:<8} n={}", m.name, m.value, m.unit, m.n);
            }
        }
        eprintln!(
            "  -- operations: attempted={} failed={} failed_share={:.6}",
            self.attempted,
            self.failed,
            self.failed_share()
        );
        for c in &self.checks {
            eprintln!(
                "  [{}] {} — {}",
                if c.ok { "ok" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        if let Some(why) = &self.invalid {
            eprintln!("  INVALID RUN: {why}");
        }
    }
}

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A bound `compare` judges a metric against: the share of the first
/// set's median by which the second may be worse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed relative worsening.
    pub bound: f64,
}

const fn lower(name: &'static str, bound: f64) -> Bound {
    Bound {
        name,
        better: Better::Lower,
        bound,
    }
}

/// The gated end-to-end metrics (mirrored in `BENCHMARK.json`; a test
/// keeps the two in step).
pub const GATED: [Bound; 4] = [
    lower("setup_s", 0.25),
    lower("cpu_us_per_kunit", 0.25),
    lower("op_p50_ms", 0.25),
    lower("bytes_per_kunit", 0.15),
];

/// Bounds of the workload-specific end-to-end metrics.
pub const DETAIL: [Bound; 15] = [
    lower("failed_share", 0.0),
    lower("peak_rss_mib", 0.10),
    lower("fresh_lag_p50_ms", 0.10),
    lower("fresh_lag_p95_ms", 0.20),
    lower("server_cpu_us_per_sample", 0.10),
    lower("disk_bytes_per_sample", 0.05),
    lower("dash_p50_ms", 0.10),
    lower("dash_p95_ms", 0.20),
    lower("query_scan10s_p50_ms", 0.10),
    lower("query_rawp99_p50_ms", 0.10),
    lower("query_tier5m_p50_ms", 0.10),
    lower("query_tier1h_p50_ms", 0.10),
    lower("query_recent5m_p50_ms", 0.10),
    Bound {
        name: "sim_node_s_per_wall_s",
        better: Better::Higher,
        bound: 0.10,
    },
    lower("sim_epoch_p50_ms", 0.10),
];

/// Scratch space for stores and the trace: inside the checkout the
/// benchmark was started from (the driver forbids writing elsewhere),
/// one directory per process, removed on exit.
pub fn work_dir() -> PathBuf {
    let root = std::env::var_os("CWXBENCH_TMP")
        .map(PathBuf::from)
        .or_else(|| {
            std::env::var_os("CARGO_TARGET_DIR").map(|t| PathBuf::from(t).join("cwxbench-tmp"))
        })
        .unwrap_or_else(|| PathBuf::from(".cwxbench-tmp"));
    root.join(format!("cwxbench-{}", std::process::id()))
}

/// Removes the process's [`work_dir`] when dropped.
pub struct WorkDirGuard;

impl Drop for WorkDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(work_dir());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 12,
            ..Default::default()
        };
        o.metrics.push(Metric::gated("op_p50_ms", 1.25, "ms", 12));
        o.metrics
            .push(Metric::detail("fresh_lag_p50_ms", 1.25, "ms", 12));
        o.metrics
            .push(Metric::layer("cwx-net.frame_ns_per_frame", 80.5, "ns", 3));
        o.check("store:read_back", true, "fine");
        for traced in [false, true] {
            let line = json::parse(&o.result_line(traced)).unwrap();
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(metrics.len(), 1);
            assert_eq!(
                metrics[0].0,
                if traced {
                    "cwx-net.frame_ns_per_frame"
                } else {
                    "op_p50_ms"
                }
            );
            let keys: Vec<&str> = metrics[0]
                .1
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        // a failed check is a failed operation and flips `correct`
        o.check("store:total_samples", false, "short");
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (14, 1));
    }

    /// `BENCHMARK.json` and the tables in the code must agree: names,
    /// units, directions and bounds of the gated metrics, every
    /// per-layer name, the four workloads, the run length.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |section: &str| -> Vec<String> {
            doc.get(section)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), crate::WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            GATED.iter().map(|b| b.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            crate::twin::LAYER_METRICS
                .iter()
                .map(|(n, _, _)| *n)
                .collect::<Vec<_>>()
        );
        for (m, b) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(GATED)
        {
            let better = if b.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                b.name
            );
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(b.bound),
                "{}",
                b.name
            );
            assert!(b.bound <= 0.25);
        }
        for (m, (name, unit, better)) in doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(crate::twin::LAYER_METRICS)
        {
            let better = if *better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better),
                "{name}"
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::Str("cwxbench".into())]
        );
        // naming rule of the contract
        for name in names("end_to_end")
            .iter()
            .chain(&names("per_layer"))
            .chain(&names("workloads"))
        {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }
}
