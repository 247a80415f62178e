//! `cwx` — command-line frontend for the ClusterWorX reproduction.
//!
//! Every command is one row of [`COMMANDS`]: a name, the function that
//! runs it and one usage line. The usage line is the declaration: the
//! parser reads from it which `--flags` a command accepts, which take a
//! value (`--seed X`) and which are switches (`[--unicast]`), and its
//! positional argument (`MANIFEST.toml`). `cwx help` prints the table,
//! so the help, the bad-usage text and the checking cannot disagree.
//!
//! Scenarios — chaos campaigns and simulated federations alike — are
//! manifests run by `cwx run`; the shipped ones live in
//! `examples/scenarios/`.
//!
//! Exit codes are uniform across every command: 0 success, 1 an
//! assertion or census check failed, 2 an invariant was violated,
//! 3 bad usage / bad manifest / operational error. An unknown flag, or
//! a value that does not parse or is out of range, is bad usage: stderr
//! names the flag. `cwx help` (or `--help`, `-h`) prints the table to
//! stdout and exits 0; a bare `cwx` or an unknown command prints it to
//! stderr and exits 3.

use clusterworx::world::schedule_fault;
use clusterworx::{dashboard, Cluster, ClusterConfig, LiteMonitor, WorkloadMix, World};
use cwx_clone::protocol::{run_clone, CloneConfig, RepairStrategy};
use cwx_hw::node::Fault;
use cwx_monitor::snapshot::Sensors;
use cwx_net::FAST_ETHERNET_BPS;
use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::{AggFunc, QueryGroup, QuerySpec, Resolution, Store};
use cwx_util::time::{SimDuration, SimTime};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One command: `run` gets its command line checked against `usage`
/// and returns the exit code, or the message to print before exiting 3.
struct Command {
    name: &'static str,
    run: fn(&Args) -> Result<i32, String>,
    usage: &'static str,
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "run",          run: cmd_run,          usage: "MANIFEST.toml [--seed X] [--out DIR] [--coverage FILE] [--snapshot-at SECS]... [--snapshots DIR] [--resume-from FILE]" },
    Command { name: "bisect",       run: cmd_bisect,       usage: "MANIFEST.toml [--seed X] [--out DIR]" },
    Command { name: "simulate",     run: cmd_simulate,     usage: "[--nodes N] [--secs S] [--seed X] [--store DIR] [--fan-fail NODE@SECS]... [--dump-history FILE] [--dump-node N]" },
    Command { name: "clone",        run: cmd_clone,        usage: "[--nodes N] [--image-mb M] [--loss P] [--seed X] [--unicast]" },
    Command { name: "lite",         run: cmd_lite,         usage: "[--ticks N]" },
    Command { name: "history",      run: cmd_history,      usage: "--store DIR [--node N] [--monitor KEY] [--from S] [--to S] [--res raw|10s|5m|1h] [--chart] [--agg rate|avg|min|max|sum|count|p50|p95|p99] [--window 10s|5m|1h|SECS] [--group-by all|rack|node] [--max-scan N]" },
    Command { name: "fed serve",    run: cmd_fed_serve,    usage: "[--listen ADDR] [--secs S] [--stale-after SECS]" },
    Command { name: "fed join",     run: cmd_fed_join,     usage: "[--head ADDR] [--cluster C] [--nodes N] [--secs S] [--interval-ms MS]" },
    Command { name: "ingest serve", run: cmd_ingest_serve, usage: "[--listen ADDR] [--secs S] [--lanes N] [--nodes-per-group N] [--retention N] [--store DIR]" },
    Command { name: "ingest drive", run: cmd_ingest_drive, usage: "[--addr ADDR] [--conns N] [--frames N] [--interval-ms MS] [--keys K] [--threads T]" },
    Command { name: "help",         run: cmd_help,         usage: "" },
];

/// The whole table, for `cwx help` and for an unknown command.
fn usage() -> String {
    let mut text = String::from("usage:\n");
    for c in COMMANDS {
        text += format!("  cwx {} {}", c.name, c.usage).trim_end();
        text.push('\n');
    }
    text + "\nscenarios (chaos campaigns, simulated federations) are manifests: see examples/scenarios/\n\nexit codes (uniform across commands):\n  0  success: every invariant held, every assertion passed\n  1  an assertion failed (manifest [assertions], federation census)\n  2  an invariant was violated\n  3  bad usage, bad manifest, or operational error"
}

/// The command `argv` names, and the arguments after its name.
fn lookup(argv: &[String]) -> Option<(&'static Command, &[String])> {
    let words = argv.iter().map(|w| match w.as_str() {
        "--help" | "-h" => "help",
        w => w,
    });
    COMMANDS.iter().find_map(|c| {
        let n = c.name.split(' ').count();
        (argv.len() >= n && c.name.split(' ').eq(words.clone().take(n))).then(|| (c, &argv[n..]))
    })
}

/// One command line, checked against its command's usage line.
struct Args {
    cmd: &'static Command,
    /// Each flag the usage line declares, and whether it takes a value.
    flags: Vec<(&'static str, bool)>,
    positional: Option<String>,
    /// Each flag given, in order, with its value (`None` for a switch).
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    fn parse(cmd: &'static Command, argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            cmd,
            flags: Vec::new(),
            positional: None,
            given: Vec::new(),
        };
        let mut wants_positional = None;
        let mut words = cmd.usage.split_whitespace();
        while let Some(word) = words.next() {
            match word.trim_start_matches('[').strip_prefix("--") {
                Some(switch) if switch.ends_with(']') => {
                    args.flags.push((switch.trim_end_matches(']'), false))
                }
                Some(flag) => {
                    words.next(); // the value's placeholder
                    args.flags.push((flag, true));
                }
                None => wants_positional = Some(word),
            }
        }
        let mut argv = argv.iter().peekable();
        while let Some(arg) = argv.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let Some(&(flag, takes_value)) = args.flags.iter().find(|(f, _)| *f == key) else {
                    return Err(args.bad(format!("unknown flag --{key}")));
                };
                let value = argv.next_if(|v| takes_value && !v.starts_with("--"));
                if takes_value && value.is_none() {
                    return Err(args.bad(format!("--{key} wants a value")));
                }
                args.given.push((flag, value.cloned()));
            } else if wants_positional.is_some() && args.positional.is_none() {
                args.positional = Some(arg.clone());
            } else {
                return Err(args.bad(format!("unexpected argument: {arg}")));
            }
        }
        match (wants_positional, &args.positional) {
            (Some(name), None) => Err(args.bad(format!("`cwx {}` wants {name}", cmd.name))),
            _ => Ok(args),
        }
    }

    /// A bad-usage message, followed by the command's usage line.
    fn bad(&self, msg: String) -> String {
        format!("{msg}\nusage: cwx {} {}", self.cmd.name, self.cmd.usage)
    }

    /// Every value given for `--key`, in order.
    fn values<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> {
        debug_assert!(self.flags.contains(&(key, true)), "declare --{key} VALUE");
        self.given
            .iter()
            .filter(move |(k, _)| *k == key)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// The last value given for `--key`, parsed.
    fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| self.bad(format!("--{key}: cannot parse {v:?}")))
        };
        self.values(key).last().map(parse).transpose()
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    fn flag(&self, key: &str) -> bool {
        debug_assert!(self.flags.contains(&(key, false)), "declare [--{key}]");
        self.given.iter().any(|(k, _)| *k == key)
    }

    /// `--key SECS`, checked by [`Args::in_range`].
    fn secs(&self, key: &str) -> Result<Option<u64>, String> {
        let secs: Option<u64> = self.opt(key)?;
        secs.map(|s| self.in_range(key, s)).transpose()
    }

    /// The one check on seconds from the command line: a count whose
    /// nanoseconds do not fit a `u64` (about 584 years) is refused,
    /// naming the flag. `SimDuration::from_secs` cannot overflow on what
    /// it passes.
    fn in_range(&self, key: &str, secs: u64) -> Result<u64, String> {
        const MAX_SECS: u64 = u64::MAX / 1_000_000_000;
        if secs > MAX_SECS {
            return Err(self.bad(format!("--{key}: out of range (at most {MAX_SECS} s)")));
        }
        Ok(secs)
    }
}

fn cmd_help(_: &Args) -> Result<i32, String> {
    println!("{}", usage());
    Ok(0)
}

fn cmd_simulate(args: &Args) -> Result<i32, String> {
    let nodes: u32 = args.get("nodes", 16)?;
    let secs = args.secs("secs")?.unwrap_or(600);
    let seed: u64 = args.get("seed", 42)?;
    let store_dir: Option<PathBuf> = args.opt("store")?;
    let dump: Option<String> = args.opt("dump-history")?;
    let dump_node: u32 = args.get("dump-node", 0)?;
    let mut fan_fails = Vec::new();
    for spec in args.values("fan-fail") {
        let parsed = spec
            .split_once('@')
            .and_then(|(node, at)| Some((node.parse::<u32>().ok()?, at.parse::<u64>().ok()?)));
        let Some((node, at)) = parsed else {
            return Err(args.bad(format!("--fan-fail wants NODE@SECS, got {spec:?}")));
        };
        fan_fails.push((node, args.in_range("fan-fail", at)?));
    }
    // persistent history: a rerun over the same directory recovers it
    let store = match &store_dir {
        Some(dir) => {
            let store = DiskStore::open(dir, StoreConfig::default())
                .map_err(|e| format!("could not open store {}: {e}", dir.display()))?;
            println!("history persists to {} (reruns recover it)", dir.display());
            Some(Arc::new(store) as Arc<dyn Store>)
        }
        None => None,
    };
    let mut sim = Cluster::build(ClusterConfig {
        n_nodes: nodes,
        seed,
        workload: WorkloadMix::Mixed,
        store,
        ..Default::default()
    });
    for (node, at) in fan_fails {
        let t = SimTime::ZERO + SimDuration::from_secs(at);
        schedule_fault(&mut sim, t, node, Fault::FanFailure);
        println!("scheduled fan failure: node{node:03} at t={at}s");
    }
    sim.run_for(SimDuration::from_secs(secs));
    let w = sim.world();
    // persistently-backed history: trim WAL replay on the next open
    w.server.history().flush();
    println!("{}", dashboard::render(w, sim.now()));
    let st = w.server.stats();
    println!(
        "server: {} reports / {} values / {} B on the wire / {} decode errors / {} refused",
        st.reports_rx, st.values_rx, st.bytes_rx, st.decode_errors, st.refused
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
    if let Some(path) = dump {
        let csv = dashboard::export_node_csv(&**w.server.history(), dump_node);
        let failed = |e| format!("--dump-history: could not write {path}: {e}");
        std::fs::write(&path, &csv).map_err(failed)?;
        let len = csv.len();
        println!("wrote {len} bytes of node{dump_node:03} history to {path}");
    }
    Ok(0)
}

fn cmd_clone(args: &Args) -> Result<i32, String> {
    let nodes: u32 = args.get("nodes", 100)?;
    let image_mb: u64 = args.get("image-mb", 650)?;
    let loss: f64 = args.get("loss", 0.005)?;
    let seed: u64 = args.get("seed", 42)?;
    let unicast = args.flag("unicast");
    if nodes == 0 {
        return Err(args.bad("--nodes: a clone needs at least one node".into()));
    }
    if !(0.0..=1.0).contains(&loss) {
        return Err(args.bad(format!("--loss wants a share in [0, 1], got {loss}")));
    }
    let (strategy, label) = match unicast {
        true => (RepairStrategy::Unicast, "unicast baseline"),
        false => (RepairStrategy::MulticastRoundRobin, "reliable multicast"),
    };
    let cfg = CloneConfig {
        image_bytes: image_mb << 20,
        strategy,
        ..CloneConfig::default()
    };
    let loss_pct = loss * 100.0;
    println!("cloning {image_mb} MiB to {nodes} nodes ({label}), {loss_pct:.2}% chunk loss...");
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
    Ok(0)
}

fn cmd_lite(args: &Args) -> Result<i32, String> {
    let ticks: u64 = args.get("ticks", 5)?;
    let src = cwx_proc::source::RealProc::new();
    if !src.available() {
        return Err("no /proc on this host; `cwx lite` needs Linux".into());
    }
    let mut lite = LiteMonitor::new(src, "localhost")
        .map_err(|e| format!("could not start the lite monitor: {e}"))?;
    println!("ClusterWorX Lite on the local /proc ({ticks} ticks, 1 s apart):");
    let mut now = SimTime::ZERO;
    for i in 0..ticks {
        now += SimDuration::from_secs(1);
        std::thread::sleep(Duration::from_secs(1));
        let sensors = Sensors {
            fan_rpm: 6000.0,
            power_watts: 120.0,
            udp_echo_ok: true,
            ..Default::default()
        };
        let tick = lite
            .tick(now, sensors)
            .map_err(|e| format!("tick {i} failed: {e}"))?;
        let latest = |key: &str| lite.history().latest(0, key).map_or(f64::NAN, |s| s.value);
        let (load, memfree) = (latest("load.one"), latest("mem.free"));
        println!(
            "  tick {i}: {} changed values | load {load:.2} | mem free {:.0} MB | {} events",
            tick.changed_values,
            memfree / 1024.0,
            tick.fired.len()
        );
    }
    Ok(0)
}

/// `cwx history --agg`'s query, checked before the store is opened;
/// its `to` and `groups` are filled in from the store.
fn agg_query(args: &Args, agg: &str, from: SimTime) -> Result<(QuerySpec, String), String> {
    let Some(agg) = AggFunc::parse(agg) else {
        let funcs = "rate|avg|min|max|sum|count|p50|p95|p99";
        return Err(args.bad(format!("--agg wants {funcs}, got {agg}")));
    };
    let Some(monitor) = args.opt("monitor")? else {
        return Err(args.bad("`cwx history --agg` needs --monitor KEY".into()));
    };
    // `10s`, `5m`, `1h`, or plain seconds
    let window: String = args.get("window", "10s".into())?;
    let (num, unit) = [('s', 1), ('m', 60), ('h', 3_600)]
        .into_iter()
        .find_map(|(suffix, unit)| Some((window.strip_suffix(suffix)?, unit)))
        .unwrap_or((&window, 1));
    let Some(n) = num.parse::<u64>().ok().filter(|&n| n > 0) else {
        return Err(args.bad(format!("--window wants 10s / 5m / 1h / SECS, got {window}")));
    };
    let window_secs = args.in_range("window", n.saturating_mul(unit))?;
    let group_by: String = args.get("group-by", "all".into())?;
    if !["all", "rack", "node"].contains(&group_by.as_str()) {
        return Err(args.bad(format!(
            "--group-by wants all, rack or node, got {group_by}"
        )));
    }
    let spec = QuerySpec {
        monitor,
        from,
        to: SimTime::ZERO,
        window_nanos: SimDuration::from_secs(window_secs).as_nanos(),
        agg,
        groups: Vec::new(),
        max_scan: args.get("max-scan", 0)?,
    };
    Ok((spec, group_by))
}

fn cmd_history(args: &Args) -> Result<i32, String> {
    let Some(dir) = args.opt::<String>("store")? else {
        return Err(args.bad("`cwx history` needs --store DIR".into()));
    };
    let monitor: Option<String> = args.opt("monitor")?;
    let node_arg: Option<u32> = args.opt("node")?;
    let from = SimTime::ZERO + SimDuration::from_secs(args.secs("from")?.unwrap_or(0));
    let to_arg = args
        .secs("to")?
        .map(|t| SimTime::ZERO + SimDuration::from_secs(t));
    let res = match args.get::<String>("res", "raw".into())?.as_str() {
        "raw" => None,
        "10s" => Some(Resolution::TenSeconds),
        "5m" => Some(Resolution::FiveMinutes),
        "1h" => Some(Resolution::OneHour),
        other => return Err(args.bad(format!("--res wants raw, 10s, 5m or 1h, got {other}"))),
    };
    let query = args
        .opt::<String>("agg")?
        .map(|agg| agg_query(args, &agg, from))
        .transpose()?;
    // inspection must not create a store that isn't there
    if !Path::new(&dir).is_dir() {
        return Err(format!("no store at {dir}"));
    }
    let store = DiskStore::open(Path::new(&dir), StoreConfig::default())
        .map_err(|e| format!("could not open store at {dir}: {e}"))?;
    let rec = store.recovery();
    println!(
        "store {dir}: {} samples in {} segments | recovery: {} WAL records replayed, {} torn bytes truncated, {} segments quarantined",
        store.total_samples(),
        rec.segments_loaded,
        rec.wal_records,
        rec.wal_truncated_bytes,
        rec.segments_quarantined
    );

    // aggregation query path: `--agg p99 --window 1h [--group-by rack]`
    // runs through the admission-controlled query executor, answering
    // from the coarsest stored tier that satisfies the window
    if let Some((mut spec, group_by)) = query {
        use cwx_store::{QueryExecutor, QueryLimits};

        let holders = store
            .series()
            .into_iter()
            .filter(|(_, k)| *k == spec.monitor);
        // group membership: the nodes that actually hold this monitor
        let mut nodes: Vec<u32> = holders.map(|(n, _)| n).collect();
        spec.to = to_arg.unwrap_or_else(|| {
            let latest = nodes.iter().filter_map(|&n| store.latest(n, &spec.monitor));
            latest.map(|s| s.time).max().unwrap_or(SimTime::ZERO)
        });
        nodes.retain(|&n| node_arg.is_none_or(|node| n == node));
        nodes.sort_unstable();
        nodes.dedup();
        // chassis topology: rack0 = nodes 0-9, rack1 = 10-19, ...; the
        // nodes are sorted, so each rack or node group is a run of them
        let key_of = |n: u32| match group_by.as_str() {
            "rack" => format!("rack{}", World::rack_of(n).0),
            _ => format!("node{n:03}"),
        };
        spec.groups = match group_by.as_str() {
            "all" => vec![QueryGroup {
                key: "all".into(),
                nodes,
            }],
            _ => nodes
                .chunk_by(|a, b| key_of(*a) == key_of(*b))
                .map(|run| QueryGroup {
                    key: key_of(run[0]),
                    nodes: run.to_vec(),
                })
                .collect(),
        };
        let agg = spec.agg;
        // the executor caps a spec's budget, so --max-scan sets the cap
        let mut limits = QueryLimits::default();
        if spec.max_scan > 0 {
            limits.max_scanned_samples = spec.max_scan;
        }
        let exec = QueryExecutor::new(Arc::new(store), limits);
        let r = exec
            .execute(spec)
            .map_err(|e| format!("query failed: {e}"))?;
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
                let start = p.start.as_secs_f64();
                println!("{},{start:.0},{},{}", g.key, p.value, p.count);
            }
        }
        return Ok(0);
    }

    let (Some(monitor), Some(node)) = (monitor, node_arg) else {
        // no series selected: list what the store holds
        println!("node     monitor                samples         latest");
        for (node, key) in store.series() {
            let n = store.range(node, &key, SimTime::ZERO, SimTime::MAX).len();
            let latest = store
                .latest(node, &key)
                .map(|s| format!("{:.3}", s.value))
                .unwrap_or_default();
            println!("node{node:03}  {key:<20} {n:>9} {latest:>14}");
        }
        return Ok(0);
    };
    if args.flag("chart") {
        let latest = || {
            store
                .latest(node, &monitor)
                .map_or(SimTime::ZERO, |s| s.time)
        };
        let to = to_arg.unwrap_or_else(latest);
        let chart = dashboard::chart(&store, node, &monitor, from, to, 72, 12);
        print!("{chart}");
        return Ok(0);
    }
    let to = to_arg.unwrap_or(SimTime::MAX);
    let Some(res) = res else {
        println!("time_secs,value");
        for s in store.range(node, &monitor, from, to) {
            println!("{:.3},{}", s.time.as_secs_f64(), s.value);
        }
        return Ok(0);
    };
    println!("bucket_start_secs,count,min,mean,max,last");
    for b in store.range_agg(node, &monitor, from, to, res) {
        let start = b.start.as_secs_f64();
        let (count, min, mean, max, last) = (b.count, b.min, b.mean(), b.max, b.last);
        println!("{start:.0},{count},{min:.4},{mean:.4},{max:.4},{last:.4}");
    }
    Ok(0)
}

/// Write `bytes` to `path`, creating its directory, then print
/// `wrote PATH` and `detail`.
fn write_out(path: &Path, bytes: &[u8], detail: &str) -> Result<(), String> {
    let dir = path.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| format!("could not create {}: {e}", dir.display()))?;
    std::fs::write(path, bytes).map_err(|e| format!("could not write {}: {e}", path.display()))?;
    println!("wrote {}{detail}", path.display());
    Ok(())
}

/// The manifest named on the command line, with the `--seed` override.
fn load_manifest(args: &Args) -> Result<(String, cwx_scenario::Manifest), String> {
    let path = args.positional.clone().unwrap_or_default();
    let seed: Option<u64> = args.opt("seed")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("could not read {path}: {e}"))?;
    let mut manifest = cwx_scenario::Manifest::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    manifest.seed = seed.unwrap_or(manifest.seed);
    Ok((path, manifest))
}

/// `cwx run MANIFEST.toml`: the unified scenario runtime. Executes the
/// manifest headless, writes `result.json`, `junit.xml` and the world
/// snapshots asked for (`--snapshot-at` on top of the manifest's
/// `[checkpoints]`), merges the run into a `--coverage` scoreboard, and
/// exits with the outcome code. `--resume-from` replays and
/// byte-verifies a captured snapshot before continuing the run.
fn cmd_run(args: &Args) -> Result<i32, String> {
    use cwx_scenario::{run_scenario_with, RunOptions, Scoreboard};
    use cwx_util::snapshot::SnapshotFile;

    let mut opts = RunOptions::default();
    for v in args.values("snapshot-at") {
        let bad = |_| args.bad(format!("--snapshot-at wants simulated seconds, got {v:?}"));
        opts.snapshot_at.push(v.parse::<f64>().map_err(bad)?);
    }
    let out_dir: PathBuf = args.get("out", ".".into())?;
    let snap_dir: PathBuf = args.get("snapshots", out_dir.clone())?;
    let cov_path: Option<String> = args.opt("coverage")?;
    let resume_from: Option<String> = args.opt("resume-from")?;
    let (path, manifest) = load_manifest(args)?;
    if let Some(snap) = resume_from {
        let bytes = std::fs::read(&snap).map_err(|e| format!("could not read {snap}: {e}"))?;
        opts.resume = Some(SnapshotFile::decode(&bytes).map_err(|e| format!("{snap}: {e}"))?);
    }

    println!("scenario `{}` from {path}", manifest.name());
    let r = run_scenario_with(&manifest, &opts)?;
    for line in &r.summary {
        println!("{line}");
    }
    for (name, content) in [("result.json", &r.result_json), ("junit.xml", &r.junit)] {
        write_out(&out_dir.join(name), content.as_bytes(), "")?;
    }
    for file in &r.snapshots {
        let t = file.t_nanos as f64 / 1e9;
        let detail = format!(" ({} sections, world at t={t}s)", file.sections.len());
        let name = format!("snapshot-t{t}.cwxsnap");
        write_out(&snap_dir.join(name), &file.encode(), &detail)?;
    }
    if let Some(cov_path) = cov_path {
        // merge into an existing scoreboard so one file accumulates a
        // whole CI job's worth of runs
        let mut board = match std::fs::read_to_string(&cov_path) {
            Ok(t) => Scoreboard::from_json(&t).map_err(|e| {
                format!("{cov_path}: not a coverage scoreboard ({e}); refusing to overwrite")
            })?,
            Err(_) => Scoreboard::new(),
        };
        board.record(&r.coverage);
        std::fs::write(&cov_path, board.to_json())
            .map_err(|e| format!("could not write {cov_path}: {e}"))?;
        println!(
            "coverage -> {cov_path}: {} runs, {} cells covered, {} faults / {} states never exercised",
            board.runs(),
            board.cells(),
            board.uncovered_faults().len(),
            board.uncovered_states().len()
        );
    }
    Ok(r.outcome.exit_code())
}

/// `cwx bisect MANIFEST.toml`: binary-search a failing scenario's
/// fault schedule for the minimal chronological prefix that still
/// fails, print the culprit fault, and write `bisect.json` into
/// `--out` (default `.`). Exits 0 when the bisection completes, 3 when
/// there is nothing to bisect or a probe errors out.
fn cmd_bisect(args: &Args) -> Result<i32, String> {
    let out_dir: PathBuf = args.get("out", ".".into())?;
    let (path, manifest) = load_manifest(args)?;
    let (name, faults) = (manifest.name(), manifest.fault_count());
    println!("bisecting `{name}` from {path} ({faults} faults)");
    let r = cwx_scenario::bisect_scenario(&manifest)?;
    for line in r.summary() {
        println!("{line}");
    }
    let json = r.to_json(&manifest.fault_schedule());
    write_out(&out_dir.join("bisect.json"), json.as_bytes(), "")?;
    Ok(0)
}

/// Call `report` every 5 s of wall time until `secs` have passed.
fn report_every_5s_for(secs: u64, mut report: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        let left = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(Duration::from_secs(5).min(left));
        report();
    }
}

/// Realtime head process: accept sub-servers over TCP.
fn cmd_fed_serve(args: &Args) -> Result<i32, String> {
    let listen: String = args.get("listen", "127.0.0.1:7411".into())?;
    let secs = args.secs("secs")?.unwrap_or(60);
    let stale = SimDuration::from_secs(args.secs("stale-after")?.unwrap_or(10));
    let head = cwx_fed::HeadServer::start(&listen, stale, clusterworx::RetryPolicy::default())
        .map_err(|e| format!("could not bind {listen}: {e}"))?;
    println!("federation head on {} for {}s", head.addr(), secs);
    report_every_5s_for(secs, || {
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
    });
    let hash = head.head().lock().unwrap().audit_hash();
    println!("final audit hash {hash:016x}");
    head.shutdown();
    Ok(0)
}

/// Realtime sub-server process: run a local deployment and export it
/// to a head.
fn cmd_fed_join(args: &Args) -> Result<i32, String> {
    use clusterworx::{RealTimeConfig, RealTimeDeployment};

    let head_addr: String = args.get("head", "127.0.0.1:7411".into())?;
    let cluster: u16 = args.get("cluster", 0)?;
    let nodes: u32 = args.get("nodes", 8)?;
    let secs = args.secs("secs")?.unwrap_or(60);
    let interval = Duration::from_millis(args.get("interval-ms", 1000)?);
    println!("cluster {cluster}: {nodes} nodes joining head {head_addr} for {secs}s");
    let dep = RealTimeDeployment::start(RealTimeConfig {
        n_nodes: nodes,
        ..RealTimeConfig::default()
    });
    let stop = std::sync::atomic::AtomicBool::new(false);
    let stats = std::thread::scope(|s| {
        let stopper = s.spawn(|| {
            std::thread::sleep(Duration::from_secs(secs));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let r = cwx_fed::join_loop(&dep, cluster, &head_addr, interval, &stop);
        let _ = stopper.join();
        r
    })
    .map_err(|e| format!("could not reach head at {head_addr}: {e}"))?;
    let (sent, ingest) = dep.shutdown();
    println!(
        "done: {} exports | {} commands applied | {} reconnects | local stack {} sent / {} ingested",
        stats.exports, stats.commands, stats.reconnects, sent, ingest.reports
    );
    Ok(0)
}

/// Realtime ingest front door: accept CWB1 agent streams.
fn cmd_ingest_serve(args: &Args) -> Result<i32, String> {
    use clusterworx::actions::ControlPlane;
    use clusterworx::ingest::{IngestConfig, IngestServer};
    use clusterworx::server::Server;

    let listen: String = args.get("listen", "127.0.0.1:7420".into())?;
    let secs = args.secs("secs")?.unwrap_or(60);
    let lanes: usize = args.get("lanes", 4)?;
    let nodes_per_group: u32 = args.get("nodes-per-group", 10)?;
    let retention: usize = args.get("retention", 64)?;
    let store_dir: Option<String> = args.opt("store")?;
    let _ = cwx_net::reactor::raise_nofile_limit();
    let cfg = StoreConfig {
        n_shards: lanes,
        nodes_per_group,
        ..StoreConfig::default()
    };
    let open = |dir: String| {
        let store = DiskStore::open(Path::new(&dir), cfg);
        store
            .map(Arc::new)
            .map_err(|e| format!("could not open store {dir}: {e}"))
    };
    let store = store_dir.map(open).transpose()?;
    // with --store the disk store is the server's history; without it,
    // a live view of `retention` samples per series
    let history: Arc<dyn Store> = match &store {
        Some(s) => Arc::clone(s) as Arc<dyn Store>,
        None => Arc::new(cwx_store::mem::MemStore::new(retention)),
    };
    let server = Arc::new(parking_lot::RwLock::new(Server::with_history(
        "ingest",
        SimDuration::from_secs(5),
        history,
        SimDuration::from_secs(3600),
    )));
    let control = Arc::new(parking_lot::Mutex::new(ControlPlane::new(4096)));
    let cfg = IngestConfig {
        listen,
        n_lanes: lanes,
        nodes_per_group,
        ..IngestConfig::default()
    };
    let ingest = IngestServer::start(cfg, server, store, control, Instant::now())
        .map_err(|e| format!("could not start ingest server: {e}"))?;
    println!("ingest server on {} for {}s", ingest.addr(), secs);
    report_every_5s_for(secs, || {
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
    });
    let lat = ingest.latency();
    let s = ingest.stop();
    println!(
        "done: {} reports ingested | {} frames = {} queries + {} committed + {} stranded | \
         ingest latency p50 {:.0}us p99 {:.0}us max {:.0}us",
        s.reports, s.frames, s.queries, s.committed, s.stranded, lat.p50_us, lat.p99_us, lat.max_us
    );
    Ok(0)
}

/// Synthetic agent fleet: stream frames at a fixed cadence.
fn cmd_ingest_drive(args: &Args) -> Result<i32, String> {
    let addr: String = args.get("addr", "127.0.0.1:7420".into())?;
    let load = clusterworx::ingest::LoadConfig {
        addr: addr.clone(),
        conns: args.get("conns", 100)?,
        frames_per_conn: args.get("frames", 10)?,
        interval: Duration::from_millis(args.get("interval-ms", 1000)?),
        writer_threads: args.get("threads", 8)?,
        keys: args.get("keys", 8)?,
    };
    let _ = cwx_net::reactor::raise_nofile_limit();
    let stats = clusterworx::ingest::drive(load)
        .map_err(|e| format!("could not reach ingest server at {addr}: {e}"))?;
    println!(
        "done: {} connected | {} frames / {} samples sent | {} write errors",
        stats.connected, stats.frames_sent, stats.samples_sent, stats.write_errors
    );
    Ok(0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match lookup(&argv) {
        Some((cmd, rest)) => Args::parse(cmd, rest).and_then(|args| (cmd.run)(&args)),
        None if argv.is_empty() => Err(usage()),
        None => Err(format!("unknown command: {}\n{}", argv[0], usage())),
    };
    std::process::exit(result.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        3
    }));
}
