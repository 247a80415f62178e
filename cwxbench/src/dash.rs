//! `query_dash`: the read path alone. One closed-loop caller on
//! `QueryExecutor::execute` against a compacted, read-only disk store;
//! sockets, reactor and WAL do nothing.
//!
//! Five query classes interleave in seeded order. `scan10s` touches more
//! entries than the block cache holds, so whichever `tier5m` runs next
//! pays for the eviction — a cache-policy change shows as `tier5m`
//! moving while `tier1h` stays put.

use std::time::Instant;

use crate::gen::{self, History, Rng};
use crate::live::answer_matches;
use crate::procfs;
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::surface::{self, BenchStore, TIER_NAMES};
use crate::trace::Tracer;

/// Size of the stored history and the per-cycle mix.
#[derive(Debug, Clone, PartialEq)]
pub struct DashShape {
    /// Nodes in the store.
    pub fleet: u32,
    /// 30-second samples per node (480 = 4 h).
    pub steps: usize,
    /// Queries of each class per cycle, in [`gen::dash_classes`] order.
    pub cycle: [usize; 5],
}

/// 1000 nodes × 4 h @ 30 s of `cpu.util` = 480k samples: the 10 s tier
/// (one bucket per sample) is 1.8× the default 262 144-entry block
/// cache, the 5 min tier (48k buckets) fits in it. Populating with the
/// store's default flush/compaction thresholds is quadratic in the
/// history, which is what caps the size: set-up runs twice per run.
pub const QUERY_DASH: DashShape = DashShape {
    fleet: 1000,
    steps: 480,
    cycle: [1, 1, 25, 125, 125],
};

/// The stored monitor.
pub const MONITOR: &str = "cpu.util";
const STEP_SECS: u64 = 30;
/// Set-ups per untraced run; the median is reported.
pub const SETUP_REPS: usize = 2;

impl DashShape {
    /// Shrink fleet and history by `f` (smoke tests); at least 130 steps
    /// so the trailing-hour class still has an hour to look at.
    pub fn scaled(&self, f: f64) -> DashShape {
        if f >= 1.0 {
            return self.clone();
        }
        DashShape {
            fleet: ((self.fleet as f64 * f) as u32).max(8) / 2 * 2,
            steps: ((self.steps as f64 * f) as usize).max(130),
            cycle: self.cycle,
        }
    }
}

/// A populated, compacted store and the history it was built from.
pub struct DashSetup {
    /// The store.
    pub store: BenchStore,
    /// What the generator stored in it.
    pub history: History,
    /// Bytes the compacted store occupies on disk.
    pub store_bytes: u64,
}

/// Generate the history, store it, compact.
pub fn set_up(shape: &DashShape, seed: u64, dir: &std::path::Path) -> Result<DashSetup, String> {
    let _ = std::fs::remove_dir_all(dir);
    let history = History::generate(seed, shape.fleet, shape.steps, STEP_SECS);
    let store = BenchStore::open(dir, shape.fleet)?;
    store.populate(MONITOR, &history)?;
    Ok(DashSetup {
        store,
        history,
        store_bytes: procfs::dir_bytes(dir),
    })
}

/// Run the closed loop for `seconds` (whole cycles; at least one),
/// setting up `setup_reps` times.
pub fn run(
    shape: &DashShape,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let dir = crate::report::work_dir().join("query_dash");
    let mut setup_secs = Vec::new();
    let mut kept = None;
    for _ in 0..setup_reps.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(set_up(shape, seed, &dir)?);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let setup = kept.expect("set up at least once");
    let result = drive(shape, seed, seconds, tracer, &setup, &setup_secs);
    drop(setup);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn drive(
    shape: &DashShape,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    setup: &DashSetup,
    setup_secs: &[f64],
) -> Result<Outcome, String> {
    let DashSetup {
        store,
        history,
        store_bytes,
    } = setup;
    let mut out = Outcome::default();
    let classes = gen::dash_classes(MONITOR, history.span_secs(), shape.fleet);
    let exec = store.executor();

    out.check(
        "store:total_samples",
        store.total_samples() == history.samples(),
        format!(
            "store holds {}, generator stored {}",
            store.total_samples(),
            history.samples()
        ),
    );
    // each class checked once, untimed, against the generator's fold
    for q in &classes {
        let verdict = surface::execute(&exec, q)
            .and_then(|a| answer_matches(&a.points, &gen::reference(history, q), q.agg));
        out.check(
            &format!("reference:{}", q.class),
            verdict.is_ok(),
            verdict
                .err()
                .unwrap_or_else(|| "matches the generator's fold".into()),
        );
    }

    let mut rng = Rng::new(seed).fork(3);
    let mut lat_ms: [Vec<f64>; 5] = Default::default();
    let mut scanned = 0u64;
    let mut errors = 0u64;
    let mut seq = 0u64;
    let (cache0, _) = store.cache_counters();
    let proc0 = procfs::sample(None);
    let t_run = Instant::now();
    while t_run.elapsed().as_secs_f64() < seconds {
        for class in gen::dash_cycle(&mut rng, &shape.cycle) {
            let t0 = Instant::now();
            let answer = surface::execute(&exec, &classes[class]);
            let t1 = Instant::now();
            tracer.record("query.execute", seq, t0, t1);
            seq += 1;
            match answer {
                Ok(a) => {
                    scanned += a.scanned;
                    lat_ms[class].push((t1 - t0).as_secs_f64() * 1e3);
                }
                Err(_) => errors += 1,
            }
        }
    }
    let proc1 = procfs::sample(None);
    let (cache1, evictions) = store.cache_counters();
    let (_, exec_errors, shed) = surface::executor_counters(&exec);

    out.attempted += seq;
    out.failed += errors.max(exec_errors + shed);

    let cpu_s = proc1.cpu_s() - proc0.cpu_s();
    let setup = stats::median(&stats::sorted(setup_secs));
    let m = &mut out.metrics;
    m.push(Metric::gated(
        "setup_s",
        setup,
        "s",
        setup_secs.len() as u64,
    ));
    m.push(Metric::gated(
        "cpu_us_per_kunit",
        cpu_s * 1e9 / scanned.max(1) as f64,
        "us",
        scanned,
    ));
    m.push(Metric::gated(
        "bytes_per_kunit",
        *store_bytes as f64 * 1e3 / history.samples() as f64,
        "B",
        history.samples(),
    ));
    m.push(Metric::detail("peak_rss_mib", proc1.peak_rss_mib, "MiB", 1));
    for (q, lats) in classes.iter().zip(&lat_ms) {
        if lats.is_empty() {
            continue;
        }
        let sorted = stats::sorted(lats);
        let p50 = stats::median(&sorted);
        if q.class == "tier5m" {
            m.push(Metric::gated("op_p50_ms", p50, "ms", sorted.len() as u64));
        }
        m.push(Metric::detail(
            &format!("query_{}_p50_ms", q.class),
            p50,
            "ms",
            sorted.len() as u64,
        ));
    }
    for (i, tier) in TIER_NAMES.iter().enumerate() {
        let hits = cache1[i].0 - cache0[i].0;
        let misses = cache1[i].1 - cache0[i].1;
        m.push(Metric::layer(
            format!("cwx-store.cache_hit_share_{tier}@query_dash"),
            hits as f64 / (hits + misses).max(1) as f64,
            "share",
            hits + misses,
        ));
    }
    m.push(Metric::layer(
        "cwx-store.cache_evictions@query_dash",
        evictions as f64,
        "n",
        1,
    ));
    m.push(Metric::layer(
        "bench.queries_run@query_dash",
        seq as f64,
        "n",
        1,
    ));
    Ok(out)
}
