//! `cwx` — command-line frontend for the ClusterWorX reproduction.
//!
//! ```text
//! cwx run      MANIFEST.toml [--seed X] [--out DIR] [--coverage FILE]
//!              [--snapshot-at SECS]... [--snapshots DIR] [--resume-from FILE]
//! cwx bisect   MANIFEST.toml [--seed X] [--out DIR]
//! cwx simulate --nodes 32 --secs 600 [--seed 42] [--store DIR] [--fan-fail 4@300]...
//! cwx clone    --nodes 100 --image-mb 650 [--loss 0.005] [--unicast]
//! cwx lite     [--ticks 5]
//! cwx history  --store DIR [--node N --monitor KEY] [--res raw|10s|5m|1h] [--chart]
//! cwx history  --store DIR --monitor KEY --agg p99 --window 1h [--group-by rack]
//! cwx fed      serve [--listen ADDR --secs S] | join [--head ADDR --cluster C --nodes N]
//! cwx ingest   serve [--listen ADDR --secs S --lanes N --store DIR]
//! cwx ingest   drive [--addr ADDR --conns N --frames N --interval-ms MS --keys K]
//! cwx help
//! ```
//!
//! Scenarios — chaos campaigns and simulated federations alike — are
//! manifests run by `cwx run`; the shipped ones live in
//! `examples/scenarios/`.
//!
//! Exit codes are uniform across every subcommand: 0 success, 1 an
//! assertion or census check failed, 2 an invariant was violated,
//! 3 bad usage / bad manifest / operational error. Every subcommand
//! names the flags it reads: an unknown flag, or a value that does not
//! parse, is bad usage.

use clusterworx::world::schedule_fault;
use clusterworx::{dashboard, Cluster, ClusterConfig, LiteMonitor, WorkloadMix, World};
use cwx_clone::protocol::{run_clone, CloneConfig, RepairStrategy};
use cwx_hw::node::Fault;
use cwx_monitor::snapshot::Sensors;
use cwx_net::FAST_ETHERNET_BPS;
use cwx_util::time::{SimDuration, SimTime};

fn usage() -> ! {
    eprintln!(
        "usage:\n  cwx run MANIFEST.toml [--seed X] [--out DIR] [--coverage FILE] [--snapshot-at SECS]... [--snapshots DIR] [--resume-from FILE]\n  cwx bisect MANIFEST.toml [--seed X] [--out DIR]\n  cwx simulate --nodes N --secs S [--seed X] [--store DIR] [--fan-fail NODE@SECS]... [--dump-history FILE --dump-node N]\n  cwx clone --nodes N --image-mb M [--loss P] [--seed X] [--unicast]\n  cwx lite [--ticks N]\n  cwx history --store DIR [--node N --monitor KEY] [--from S] [--to S] [--res raw|10s|5m|1h] [--chart]\n  cwx history --store DIR --monitor KEY --agg rate|avg|min|max|sum|count|p50|p95|p99 --window 10s|5m|1h|SECS [--group-by all|rack|node] [--node N] [--from S] [--to S] [--max-scan N]\n  cwx fed serve [--listen ADDR] [--secs S] [--stale-after SECS]\n  cwx fed join [--head ADDR] [--cluster C] [--nodes N] [--secs S] [--interval-ms MS]\n  cwx ingest serve [--listen ADDR] [--secs S] [--lanes N] [--nodes-per-group N] [--retention N] [--store DIR]\n  cwx ingest drive [--addr ADDR] [--conns N] [--frames N] [--interval-ms MS] [--keys K] [--threads T]\n  cwx help\n\nscenarios (chaos campaigns, simulated federations) are manifests: see examples/scenarios/\n\nexit codes (uniform across subcommands):\n  0  success: every invariant held, every assertion passed\n  1  an assertion failed (manifest [assertions], federation census)\n  2  an invariant was violated\n  3  bad usage, bad manifest, or operational error"
    );
    std::process::exit(3);
}

/// Bad command-line input: name the offending flag and exit 3.
fn bad_flag(msg: &str) -> ! {
    eprintln!("{msg} (see `cwx help`)");
    std::process::exit(3);
}

/// Tiny flag parser: `--key value` pairs and bare `--switch`es, checked
/// against the keys the subcommand reads (`keys` is space-separated).
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String], keys: &str) -> Args {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(key) = a.strip_prefix("--") {
                if !keys.split(' ').any(|k| k == key) {
                    bad_flag(&format!("unknown flag --{key}"));
                }
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    pairs.push((key.to_string(), args[i + 1].clone()));
                    i += 2;
                } else {
                    flags.push(key.to_string());
                    i += 1;
                }
            } else {
                eprintln!("unexpected argument: {a}");
                usage();
            }
        }
        Args { pairs, flags }
    }

    /// Every value given for `--key`, in order.
    fn values(&self, key: &str) -> Vec<&str> {
        if self.flags.iter().any(|f| f == key) {
            bad_flag(&format!("--{key} wants a value"));
        }
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// The last value given for `--key`, parsed.
    fn opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        let v = *self.values(key).last()?;
        match v.parse() {
            Ok(x) => Some(x),
            Err(_) => bad_flag(&format!("--{key}: cannot parse {v:?}")),
        }
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    fn flag(&self, key: &str) -> bool {
        if self.pairs.iter().any(|(k, _)| k == key) {
            bad_flag(&format!("--{key} takes no value"));
        }
        self.flags.iter().any(|f| f == key)
    }
}

fn cmd_simulate(rest: &[String]) {
    let args = Args::parse(
        rest,
        "nodes secs seed store fan-fail dump-history dump-node",
    );
    let nodes: u32 = args.get("nodes", 16);
    let secs: u64 = args.get("secs", 600);
    let seed: u64 = args.get("seed", 42);
    let store_dir: Option<std::path::PathBuf> = args.opt("store");
    if let Some(dir) = &store_dir {
        println!("history persists to {} (reruns recover it)", dir.display());
    }
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: nodes,
        seed,
        workload: WorkloadMix::Mixed,
        store_dir,
        ..Default::default()
    });
    for spec in args.values("fan-fail") {
        let parsed = spec
            .split_once('@')
            .and_then(|(node, at)| Some((node.parse::<u32>().ok()?, at.parse::<u64>().ok()?)));
        let Some((node, at)) = parsed else {
            bad_flag(&format!("--fan-fail wants NODE@SECS, got {spec:?}"));
        };
        schedule_fault(
            &mut sim,
            SimTime::ZERO + SimDuration::from_secs(at),
            node,
            Fault::FanFailure,
        );
        println!("scheduled fan failure: node{node:03} at t={at}s");
    }
    sim.run_for(SimDuration::from_secs(secs));
    let w = sim.world();
    // persistently-backed history: trim WAL replay on the next open
    w.server.history().flush();
    println!("{}", dashboard::render(w, sim.now()));
    let st = w.server.stats();
    println!(
        "server: {} reports / {} values / {} B on the wire / {} decode errors",
        st.reports_rx, st.values_rx, st.bytes_rx, st.decode_errors
    );
    let action_log = w.action_log();
    if !action_log.is_empty() {
        println!("actions taken:");
        for a in &action_log {
            println!("  {}: node{:03} {:?}", a.time, a.node, a.action);
        }
    }
    for m in w.server.outbox() {
        println!("mail: {}", m.subject);
    }
    if let Some(path) = args.opt::<String>("dump-history") {
        let node: u32 = args.get("dump-node", 0);
        let csv = dashboard::export_node_csv(&**w.server.history(), node);
        match std::fs::write(&path, &csv) {
            Ok(()) => println!(
                "wrote {} bytes of node{node:03} history to {path}",
                csv.len()
            ),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

fn cmd_clone(rest: &[String]) {
    let args = Args::parse(rest, "nodes image-mb loss seed unicast");
    let nodes: u32 = args.get("nodes", 100);
    let image_mb: u64 = args.get("image-mb", 650);
    let loss: f64 = args.get("loss", 0.005);
    let seed: u64 = args.get("seed", 42);
    let strategy = if args.flag("unicast") {
        RepairStrategy::Unicast
    } else {
        RepairStrategy::MulticastRoundRobin
    };
    let cfg = CloneConfig {
        image_bytes: image_mb << 20,
        strategy,
        ..CloneConfig::default()
    };
    println!(
        "cloning {image_mb} MiB to {nodes} nodes ({}), {:.2}% chunk loss...",
        if args.flag("unicast") {
            "unicast baseline"
        } else {
            "reliable multicast"
        },
        loss * 100.0
    );
    let r = run_clone(seed, nodes, FAST_ETHERNET_BPS, loss, cfg);
    println!(
        "stream {:.1}s | all data {:.1}s | all nodes up {:.1} min | wire {:.2} GB | {} repairs | {} failed",
        r.stream_secs,
        r.data_complete_secs,
        r.makespan_secs / 60.0,
        r.wire_bytes as f64 / 1e9,
        r.repair_chunks,
        r.failed_nodes
    );
}

fn cmd_lite(rest: &[String]) {
    let args = Args::parse(rest, "ticks");
    let ticks: u64 = args.get("ticks", 5);
    let src = cwx_proc::source::RealProc::new();
    if !src.available() {
        eprintln!("no /proc on this host; `cwx lite` needs Linux");
        std::process::exit(3);
    }
    let mut lite = LiteMonitor::new(src, "localhost").expect("lite monitor");
    println!("ClusterWorX Lite on the local /proc ({ticks} ticks, 1 s apart):");
    let mut now = SimTime::ZERO;
    for i in 0..ticks {
        now += SimDuration::from_secs(1);
        std::thread::sleep(std::time::Duration::from_secs(1));
        let tick = lite
            .tick(
                now,
                Sensors {
                    fan_rpm: 6000.0,
                    power_watts: 120.0,
                    udp_echo_ok: true,
                    ..Default::default()
                },
            )
            .expect("tick");
        let latest = |key: &str| {
            lite.history()
                .latest(0, key)
                .map(|s| s.value)
                .unwrap_or(f64::NAN)
        };
        let (load, memfree) = (latest("load.one"), latest("mem.free"));
        println!(
            "  tick {i}: {} changed values | load {load:.2} | mem free {:.0} MB | {} events",
            tick.changed_values,
            memfree / 1024.0,
            tick.fired.len()
        );
    }
}

/// Parse a window spec: `10s`, `5m`, `1h`, or plain seconds.
fn parse_window(s: &str) -> Option<u64> {
    const SEC: u64 = 1_000_000_000;
    let (num, mult) = match s.as_bytes().last()? {
        b's' => (&s[..s.len() - 1], SEC),
        b'm' => (&s[..s.len() - 1], 60 * SEC),
        b'h' => (&s[..s.len() - 1], 3_600 * SEC),
        _ => (s, SEC),
    };
    let n: u64 = num.parse().ok()?;
    (n > 0).then_some(n * mult)
}

fn cmd_history(rest: &[String]) {
    use cwx_store::disk::{DiskStore, StoreConfig};
    use cwx_store::{Resolution, Store};

    let args = Args::parse(
        rest,
        "store node monitor from to res chart agg window group-by max-scan",
    );
    let Some(dir) = args.opt::<String>("store") else {
        eprintln!("`cwx history` needs --store DIR");
        usage();
    };
    // inspection must not create a store that isn't there
    if !std::path::Path::new(&dir).is_dir() {
        eprintln!("no store at {dir}");
        std::process::exit(3);
    }
    let store = match DiskStore::open(std::path::Path::new(&dir), StoreConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("could not open store at {dir}: {e}");
            std::process::exit(3);
        }
    };
    let rec = store.recovery();
    println!(
        "store {dir}: {} samples in {} segments | recovery: {} WAL records replayed, {} torn bytes truncated, {} segments quarantined",
        store.total_samples(),
        rec.segments_loaded,
        rec.wal_records,
        rec.wal_truncated_bytes,
        rec.segments_quarantined
    );

    let monitor: Option<String> = args.opt("monitor");
    let node_arg: Option<u32> = args.opt("node");
    let from = SimTime::ZERO + SimDuration::from_secs(args.get("from", 0u64));
    let to_arg = args
        .opt::<u64>("to")
        .map(|t| SimTime::ZERO + SimDuration::from_secs(t));
    // aggregation query path: `--agg p99 --window 1h [--group-by rack]`
    // runs through the admission-controlled query executor, answering
    // from the coarsest stored tier that satisfies the window
    if let Some(agg_s) = args.opt::<String>("agg") {
        use cwx_store::{AggFunc, QueryExecutor, QueryGroup, QueryLimits, QuerySpec};

        let Some(agg) = AggFunc::parse(&agg_s) else {
            eprintln!("--agg wants rate|avg|min|max|sum|count|p50|p95|p99, got {agg_s}");
            usage();
        };
        let Some(monitor) = monitor else {
            eprintln!("`cwx history --agg` needs --monitor KEY");
            usage();
        };
        let window_s: String = args.get("window", "10s".into());
        let Some(window_nanos) = parse_window(&window_s) else {
            eprintln!("--window wants 10s / 5m / 1h / SECS, got {window_s}");
            usage();
        };
        let to = to_arg.unwrap_or_else(|| {
            store
                .series()
                .iter()
                .filter(|(_, k)| *k == monitor)
                .filter_map(|(n, k)| store.latest(*n, k).map(|s| s.time))
                .max()
                .unwrap_or(SimTime::ZERO)
        });
        // group membership: the nodes that actually hold this monitor
        let mut nodes: Vec<u32> = store
            .series()
            .into_iter()
            .filter(|(_, k)| *k == monitor)
            .map(|(n, _)| n)
            .collect();
        if let Some(node) = node_arg {
            nodes.retain(|&n| n == node);
        }
        nodes.sort_unstable();
        nodes.dedup();
        let group_by: String = args.get("group-by", "all".into());
        let groups: Vec<QueryGroup> = match group_by.as_str() {
            "all" => vec![QueryGroup {
                key: "all".into(),
                nodes,
            }],
            // chassis topology: rack0 = nodes 0-9, rack1 = 10-19, ...
            "rack" => {
                let mut by_rack: std::collections::BTreeMap<usize, Vec<u32>> = Default::default();
                for n in nodes {
                    by_rack.entry(World::rack_of(n).0).or_default().push(n);
                }
                by_rack
                    .into_iter()
                    .map(|(r, nodes)| QueryGroup {
                        key: format!("rack{r}"),
                        nodes,
                    })
                    .collect()
            }
            "node" => nodes
                .into_iter()
                .map(|n| QueryGroup {
                    key: format!("node{n:03}"),
                    nodes: vec![n],
                })
                .collect(),
            other => {
                eprintln!("--group-by wants all, rack or node, got {other}");
                usage();
            }
        };
        let spec = QuerySpec {
            monitor,
            from,
            to,
            window_nanos,
            agg,
            groups,
            max_scan: args.get("max-scan", 0u64),
        };
        let exec = QueryExecutor::new(std::sync::Arc::new(store), QueryLimits::default());
        match exec.execute(spec) {
            Ok(r) => {
                eprintln!(
                    "served from {:?} tier | {} raw samples + {} buckets scanned | {} shards fell back",
                    r.stats.tier, r.stats.scanned_raw, r.stats.scanned_buckets, r.stats.fallback_shards
                );
                if r.stats.unreadable_blocks > 0 {
                    eprintln!(
                        "warning: {} block(s) could not be read back; the answer has gaps",
                        r.stats.unreadable_blocks
                    );
                }
                println!("group,window_start_secs,{},count", agg.name());
                for g in &r.groups {
                    for p in &g.points {
                        println!(
                            "{},{:.0},{},{}",
                            g.key,
                            p.start.as_secs_f64(),
                            p.value,
                            p.count
                        );
                    }
                }
            }
            Err(e) => {
                eprintln!("query failed: {e}");
                std::process::exit(3);
            }
        }
        return;
    }

    let (Some(monitor), Some(node)) = (monitor, node_arg) else {
        // no series selected: list what the store holds
        println!(
            "{:<8} {:<20} {:>9} {:>14}",
            "node", "monitor", "samples", "latest"
        );
        for (node, key) in store.series() {
            let n = store.range(node, &key, SimTime::ZERO, SimTime::MAX).len();
            let latest = store
                .latest(node, &key)
                .map(|s| format!("{:.3}", s.value))
                .unwrap_or_default();
            println!("node{node:03}  {key:<20} {n:>9} {latest:>14}");
        }
        return;
    };
    let to = to_arg.unwrap_or(SimTime::MAX);
    if args.flag("chart") {
        let to = if to == SimTime::MAX {
            store
                .latest(node, &monitor)
                .map(|s| s.time)
                .unwrap_or(SimTime::ZERO)
        } else {
            to
        };
        print!(
            "{}",
            dashboard::chart(&store, node, &monitor, from, to, 72, 12)
        );
        return;
    }
    match args.get::<String>("res", "raw".into()).as_str() {
        "raw" => {
            println!("time_secs,value");
            for s in store.range(node, &monitor, from, to) {
                println!("{:.3},{}", s.time.as_secs_f64(), s.value);
            }
        }
        tier @ ("10s" | "5m" | "1h") => {
            let res = match tier {
                "10s" => Resolution::TenSeconds,
                "5m" => Resolution::FiveMinutes,
                _ => Resolution::OneHour,
            };
            println!("bucket_start_secs,count,min,mean,max,last");
            for b in store.range_agg(node, &monitor, from, to, res) {
                println!(
                    "{:.0},{},{:.4},{:.4},{:.4},{:.4}",
                    b.start.as_secs_f64(),
                    b.count,
                    b.min,
                    b.mean,
                    b.max,
                    b.last
                );
            }
        }
        other => {
            eprintln!("--res wants raw, 10s, 5m or 1h, got {other}");
            usage();
        }
    }
}

/// Parse a manifest path plus the shared `--seed` override.
fn load_manifest(path: &str, args: &Args) -> cwx_scenario::Manifest {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("could not read {path}: {e}");
        std::process::exit(3);
    });
    let mut manifest = cwx_scenario::Manifest::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(3);
    });
    if let Some(seed) = args.opt("seed") {
        manifest.seed = seed;
    }
    manifest
}

/// `cwx run MANIFEST.toml`: the unified scenario runtime. Executes the
/// manifest headless, writes `result.json` and `junit.xml` into
/// `--out` (default `.`), optionally merges this run into a
/// `--coverage` scoreboard file, and exits with the outcome code.
/// `--snapshot-at SECS` (repeatable, on top of the manifest's
/// `[checkpoints]`) captures world snapshots into `--snapshots DIR`
/// (default `--out`); `--resume-from FILE` replays and byte-verifies a
/// previously captured snapshot before continuing the run.
fn cmd_run(rest: &[String]) {
    use cwx_scenario::{run_scenario_with, RunOptions, Scoreboard};
    use cwx_util::snapshot::SnapshotFile;

    let (path, flag_args) = match rest.split_first() {
        Some((first, more)) if !first.starts_with("--") => (first.as_str(), more),
        _ => {
            eprintln!("`cwx run` wants a manifest path");
            usage();
        }
    };
    let args = Args::parse(
        flag_args,
        "seed out coverage snapshot-at snapshots resume-from",
    );
    let manifest = load_manifest(path, &args);

    let mut opts = RunOptions::default();
    for v in args.values("snapshot-at") {
        match v.parse::<f64>() {
            Ok(t) => opts.snapshot_at.push(t),
            Err(_) => {
                eprintln!("--snapshot-at wants a time in simulated seconds, got {v:?}");
                std::process::exit(3);
            }
        }
    }
    if let Some(snap_path) = args.opt::<String>("resume-from") {
        let bytes = std::fs::read(&snap_path).unwrap_or_else(|e| {
            eprintln!("could not read {snap_path}: {e}");
            std::process::exit(3);
        });
        let file = SnapshotFile::decode(&bytes).unwrap_or_else(|e| {
            eprintln!("{snap_path}: {e}");
            std::process::exit(3);
        });
        opts.resume = Some(file);
    }

    println!("scenario `{}` from {path}", manifest.name());
    let r = run_scenario_with(&manifest, &opts).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(3);
    });
    for line in &r.summary {
        println!("{line}");
    }

    let out_dir = std::path::PathBuf::from(args.get::<String>("out", ".".into()));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("could not create {}: {e}", out_dir.display());
        std::process::exit(3);
    }
    for (name, content) in [("result.json", &r.result_json), ("junit.xml", &r.junit)] {
        let p = out_dir.join(name);
        match std::fs::write(&p, content) {
            Ok(()) => println!("wrote {}", p.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", p.display());
                std::process::exit(3);
            }
        }
    }
    if !r.snapshots.is_empty() {
        let snap_dir = std::path::PathBuf::from(
            args.get::<String>("snapshots", out_dir.display().to_string()),
        );
        if let Err(e) = std::fs::create_dir_all(&snap_dir) {
            eprintln!("could not create {}: {e}", snap_dir.display());
            std::process::exit(3);
        }
        for file in &r.snapshots {
            let t = file.t_nanos as f64 / 1e9;
            let p = snap_dir.join(format!("snapshot-t{t}.cwxsnap"));
            match std::fs::write(&p, file.encode()) {
                Ok(()) => println!(
                    "wrote {} ({} sections, world at t={t}s)",
                    p.display(),
                    file.sections.len()
                ),
                Err(e) => {
                    eprintln!("could not write {}: {e}", p.display());
                    std::process::exit(3);
                }
            }
        }
    }
    if let Some(cov_path) = args.opt::<String>("coverage") {
        // merge into an existing scoreboard so one file accumulates a
        // whole CI job's worth of runs
        let mut board = match std::fs::read_to_string(&cov_path) {
            Ok(t) => Scoreboard::from_json(&t).unwrap_or_else(|e| {
                eprintln!("{cov_path}: not a coverage scoreboard ({e}); refusing to overwrite");
                std::process::exit(3);
            }),
            Err(_) => Scoreboard::new(),
        };
        board.record(&r.coverage);
        match std::fs::write(&cov_path, board.to_json()) {
            Ok(()) => println!(
                "coverage -> {cov_path}: {} runs, {} cells covered, {} faults / {} states never exercised",
                board.runs(),
                board.cells(),
                board.uncovered_faults().len(),
                board.uncovered_states().len()
            ),
            Err(e) => {
                eprintln!("could not write {cov_path}: {e}");
                std::process::exit(3);
            }
        }
    }
    std::process::exit(r.outcome.exit_code());
}

/// `cwx bisect MANIFEST.toml`: binary-search a failing scenario's
/// fault schedule for the minimal chronological prefix that still
/// fails, print the culprit fault, and write `bisect.json` into
/// `--out` (default `.`). Exits 0 when the bisection completes, 3 when
/// there is nothing to bisect or a probe errors out.
fn cmd_bisect(rest: &[String]) {
    use cwx_scenario::bisect_scenario;

    let (path, flag_args) = match rest.split_first() {
        Some((first, more)) if !first.starts_with("--") => (first.as_str(), more),
        _ => {
            eprintln!("`cwx bisect` wants a manifest path");
            usage();
        }
    };
    let args = Args::parse(flag_args, "seed out");
    let manifest = load_manifest(path, &args);
    println!(
        "bisecting `{}` from {path} ({} faults)",
        manifest.name(),
        manifest.fault_count()
    );
    let r = bisect_scenario(&manifest).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(3);
    });
    for line in r.summary() {
        println!("{line}");
    }
    let out_dir = std::path::PathBuf::from(args.get::<String>("out", ".".into()));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("could not create {}: {e}", out_dir.display());
        std::process::exit(3);
    }
    let p = out_dir.join("bisect.json");
    match std::fs::write(&p, r.to_json(&manifest.fault_schedule())) {
        Ok(()) => println!("wrote {}", p.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", p.display());
            std::process::exit(3);
        }
    }
}

fn cmd_fed(rest: &[String]) {
    use clusterworx::{RealTimeConfig, RealTimeDeployment, RetryPolicy};
    use cwx_fed::HeadServer;

    let Some((sub, tail)) = rest.split_first() else {
        eprintln!("`cwx fed` wants serve or join");
        usage();
    };
    match sub.as_str() {
        // realtime head process: accept sub-servers over TCP
        "serve" => {
            let args = Args::parse(tail, "listen secs stale-after");
            let listen: String = args.get("listen", "127.0.0.1:7411".to_string());
            let secs: u64 = args.get("secs", 60);
            let stale: u64 = args.get("stale-after", 10);
            let head = HeadServer::start(
                &listen,
                SimDuration::from_secs(stale),
                RetryPolicy::default(),
            )
            .unwrap_or_else(|e| {
                eprintln!("could not bind {listen}: {e}");
                std::process::exit(3);
            });
            println!("federation head on {} for {}s", head.addr(), secs);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
            while std::time::Instant::now() < deadline {
                std::thread::sleep(
                    std::time::Duration::from_secs(5)
                        .min(deadline.saturating_duration_since(std::time::Instant::now())),
                );
                let now = head.now();
                let h = head.head();
                let guard = h.lock().unwrap();
                let fleet = guard.aggregate(now);
                println!(
                    "t={:>5.0}s  {} clusters ({} stale) | {} nodes | up {} | {} alarms",
                    now.as_secs_f64(),
                    fleet.clusters,
                    fleet.stale,
                    fleet.total_nodes,
                    fleet.counts.up,
                    guard.stats().alarms_rx
                );
            }
            let h = head.head();
            let hash = h.lock().unwrap().audit_hash();
            println!("final audit hash {hash:016x}");
            head.shutdown();
        }
        // realtime sub-server process: run a local deployment and
        // export it to a head
        "join" => {
            let args = Args::parse(tail, "head cluster nodes secs interval-ms");
            let head_addr: String = args.get("head", "127.0.0.1:7411".to_string());
            let cluster: u16 = args.get("cluster", 0);
            let nodes: u32 = args.get("nodes", 8);
            let secs: u64 = args.get("secs", 60);
            let interval_ms: u64 = args.get("interval-ms", 1000);
            println!("cluster {cluster}: {nodes} nodes joining head {head_addr} for {secs}s");
            let dep = RealTimeDeployment::start(RealTimeConfig {
                n_nodes: nodes,
                ..RealTimeConfig::default()
            });
            let stop = std::sync::atomic::AtomicBool::new(false);
            let stats = std::thread::scope(|s| {
                let stopper = s.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_secs(secs));
                    stop.store(true, std::sync::atomic::Ordering::Relaxed);
                });
                let r = cwx_fed::join_loop(
                    &dep,
                    cluster,
                    &head_addr,
                    std::time::Duration::from_millis(interval_ms),
                    &stop,
                );
                let _ = stopper.join();
                r
            })
            .unwrap_or_else(|e| {
                eprintln!("could not reach head at {head_addr}: {e}");
                std::process::exit(3);
            });
            let (sent, ingested) = dep.shutdown();
            println!(
                "done: {} exports | {} commands applied | {} reconnects | local stack {} sent / {} ingested",
                stats.exports, stats.commands, stats.reconnects, sent, ingested
            );
        }
        other => {
            eprintln!("unknown fed subcommand: {other}");
            usage();
        }
    }
}

fn cmd_ingest(rest: &[String]) {
    use clusterworx::actions::ControlPlane;
    use clusterworx::ingest::{drive, IngestConfig, IngestServer, LoadConfig};
    use clusterworx::server::Server;
    use cwx_store::disk::{DiskStore, StoreConfig};
    use cwx_store::mem::MemStore;
    use cwx_store::Store;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let Some((sub, tail)) = rest.split_first() else {
        eprintln!("`cwx ingest` wants serve or drive");
        usage();
    };
    match sub.as_str() {
        // realtime ingest front door: accept CWB1 agent streams
        "serve" => {
            let args = Args::parse(tail, "listen secs lanes nodes-per-group retention store");
            let listen: String = args.get("listen", "127.0.0.1:7420".to_string());
            let secs: u64 = args.get("secs", 60);
            let lanes: usize = args.get("lanes", 4);
            let nodes_per_group: u32 = args.get("nodes-per-group", 10);
            let retention: usize = args.get("retention", 64);
            let _ = cwx_net::reactor::raise_nofile_limit();
            let store = args.opt::<String>("store").map(|dir| {
                let cfg = StoreConfig {
                    n_shards: lanes,
                    nodes_per_group,
                    ..StoreConfig::default()
                };
                Arc::new(
                    DiskStore::open(std::path::Path::new(&dir), cfg).unwrap_or_else(|e| {
                        eprintln!("could not open store {dir}: {e}");
                        std::process::exit(3);
                    }),
                )
            });
            // with --store the disk store is the server's history;
            // without it, a live view of `retention` samples per series
            let history: Arc<dyn Store> = match &store {
                Some(s) => Arc::clone(s) as Arc<dyn Store>,
                None => Arc::new(MemStore::new(retention)),
            };
            let server = Arc::new(parking_lot::RwLock::new(Server::with_history(
                "ingest",
                SimDuration::from_secs(5),
                history,
                SimDuration::from_secs(3600),
            )));
            let control = Arc::new(parking_lot::Mutex::new(ControlPlane::new(4096)));
            let ingest = IngestServer::start(
                IngestConfig {
                    listen,
                    n_lanes: lanes,
                    nodes_per_group,
                    ..IngestConfig::default()
                },
                server,
                store,
                control,
                Instant::now(),
            )
            .unwrap_or_else(|e| {
                eprintln!("could not start ingest server: {e}");
                std::process::exit(3);
            });
            println!("ingest server on {} for {}s", ingest.addr(), secs);
            let deadline = Instant::now() + Duration::from_secs(secs);
            while Instant::now() < deadline {
                std::thread::sleep(
                    Duration::from_secs(5).min(deadline.saturating_duration_since(Instant::now())),
                );
                let s = ingest.stats();
                println!(
                    "conns {} (accepted {}, evicted {}) | frames {} | samples {} | bp {} | decode errs {}",
                    s.active,
                    s.accepted,
                    s.evicted,
                    s.frames,
                    s.samples,
                    s.backpressure_trips,
                    s.decode_errors
                );
            }
            let lat = ingest.latency();
            let total = ingest.shutdown();
            println!(
                "done: {} reports ingested | ingest latency p50 {:.0}us p99 {:.0}us max {:.0}us",
                total, lat.p50_us, lat.p99_us, lat.max_us
            );
        }
        // synthetic agent fleet: stream frames at a fixed cadence
        "drive" => {
            let args = Args::parse(tail, "addr conns frames interval-ms keys threads");
            let addr: String = args.get("addr", "127.0.0.1:7420".to_string());
            let conns: usize = args.get("conns", 100);
            let frames: u64 = args.get("frames", 10);
            let interval_ms: u64 = args.get("interval-ms", 1000);
            let keys: usize = args.get("keys", 8);
            let threads: usize = args.get("threads", 8);
            let _ = cwx_net::reactor::raise_nofile_limit();
            let stats = drive(LoadConfig {
                addr: addr.clone(),
                conns,
                frames_per_conn: frames,
                interval: Duration::from_millis(interval_ms),
                writer_threads: threads,
                keys,
            })
            .unwrap_or_else(|e| {
                eprintln!("could not reach ingest server at {addr}: {e}");
                std::process::exit(3);
            });
            println!(
                "done: {} connected | {} frames / {} samples sent | {} write errors",
                stats.connected, stats.frames_sent, stats.samples_sent, stats.write_errors
            );
        }
        other => {
            eprintln!("unknown ingest subcommand: {other}");
            usage();
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "run" => cmd_run(rest),
        "bisect" => cmd_bisect(rest),
        "simulate" => cmd_simulate(rest),
        "clone" => cmd_clone(rest),
        "lite" => cmd_lite(rest),
        "history" => cmd_history(rest),
        "fed" => cmd_fed(rest),
        "ingest" => cmd_ingest(rest),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown command: {other}");
            usage();
        }
    }
}
