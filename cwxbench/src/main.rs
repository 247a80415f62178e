//! `cwxbench` — the gated benchmark of the sample's life, the query
//! path and the simulator. See `README.md` beside this package.
//!
//! ```text
//! cwxbench run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--scale F]
//! cwxbench trace [--seed N] [--seconds S] [--out FILE]      (= run --trace 1)
//! cwxbench compare A.jsonl B.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! `run` measures the program only from outside, through public
//! functions of the layer crates (all of them named in `surface`). The
//! last line of stdout is the result the driver reads; tables go to
//! stderr. Exit codes: 0 ok, 1 an output check failed, 2 invalid run or
//! usage error.

mod compare;
mod dash;
mod gen;
mod json;
mod live;
mod procfs;
mod report;
mod simfleet;
mod stats;
mod surface;
mod trace;
mod twin;

use std::io::Write;
use std::time::Instant;

use report::{Outcome, WorkDirGuard};
use trace::Tracer;

/// The workloads, in the order `run` without `--workload` runs them.
pub const WORKLOADS: [&str; 4] = ["ingest_live", "query_dash", "live_mixed", "sim_fleet"];

/// Default measured seconds per workload (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// The traced suite repeats each workload at this share of the length.
const TRACE_LENGTH_SHARE: f64 = 0.2;

/// Run one workload untraced; `scale` < 1 shrinks it (smoke tests).
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    match name {
        "ingest_live" => live::run(
            &live::INGEST_LIVE.scaled(scale),
            seed,
            seconds,
            live::SETUP_REPS,
            tracer,
        ),
        "live_mixed" => live::run(
            &live::LIVE_MIXED.scaled(scale),
            seed,
            seconds,
            live::SETUP_REPS,
            tracer,
        ),
        "query_dash" => dash::run(
            &dash::QUERY_DASH.scaled(scale),
            seed,
            seconds,
            dash::SETUP_REPS,
            tracer,
        ),
        "sim_fleet" => simfleet::run(&simfleet::SIM_FLEET.scaled(scale), seed, seconds, tracer),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    scale: f64,
}

fn parse_args(args: &[String], trace_default: bool) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: trace_default,
        out: None,
        scale: 1.0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(value()?.clone()),
            "--scale" => {
                a.scale = value()?.parse().map_err(|_| "--scale takes a number")?;
                if !(a.scale > 0.0 && a.scale <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; expected one of {WORKLOADS:?}"
            ));
        }
    }
    Ok(a)
}

fn append_log(path: &str, line: &str) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("{path}: {e}"))
}

/// `run` / `trace`. Returns the process exit code.
fn cmd_run(args: &[String], trace_default: bool) -> Result<i32, String> {
    let a = parse_args(args, trace_default)?;
    let _cleanup = WorkDirGuard;
    let mut code = 0;
    if a.trace {
        // the traced suite: every workload at a fifth of the length with
        // the benchmark's own spans on, plus the staged twin. No
        // end-to-end number is taken from it.
        let epoch = Instant::now();
        let mut tracer = Tracer::new(true, epoch);
        let outcome =
            twin::traced_suite(a.seed, a.seconds * TRACE_LENGTH_SHARE, a.scale, &mut tracer)?;
        let trace_path = match &a.out {
            Some(out) => format!("{out}.trace.json"),
            None => "cwxbench-trace.json".to_string(),
        };
        std::fs::write(&trace_path, tracer.to_json().render())
            .map_err(|e| format!("{trace_path}: {e}"))?;
        eprintln!("wrote {} spans to {trace_path}", tracer.spans().len());
        let label = a.workload.as_deref().unwrap_or("all");
        outcome.print_table(&format!(
            "traced suite (requested for {label}, seed {})",
            a.seed
        ));
        if let Some(out) = &a.out {
            append_log(
                out,
                &outcome.log_line(label, a.seed, a.seconds as u64, true),
            )?;
        }
        if outcome.invalid.is_some() {
            return Ok(2);
        }
        println!("{}", outcome.result_line(true));
        return Ok(if outcome.correct() { 0 } else { 1 });
    }
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    for name in names {
        let mut tracer = Tracer::new(false, Instant::now());
        let outcome = run_workload(name, a.seed, a.seconds, a.scale, &mut tracer)?;
        outcome.print_table(&format!("{name} (seed {}, {} s)", a.seed, a.seconds));
        if let Some(out) = &a.out {
            append_log(
                out,
                &outcome.log_line(name, a.seed, a.seconds as u64, false),
            )?;
        }
        if outcome.invalid.is_some() {
            code = code.max(2);
            continue;
        }
        println!("{}", outcome.result_line(false));
        if !outcome.correct() {
            code = code.max(1);
        }
    }
    Ok(code)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], false),
        Some("trace") => cmd_run(&args[1..], true),
        Some("compare") => compare::main(&args[1..]),
        Some("serve") => live::serve_main(&args[1..]).map(|()| 0),
        _ => Err("usage: cwxbench run|trace|compare … (see README.md)".to_string()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("cwxbench: {e}");
            std::process::exit(2);
        }
    }
}
