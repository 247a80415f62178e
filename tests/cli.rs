//! The `cwx` command line rejects input it cannot honour: a flag the
//! subcommand does not read, or a value that does not parse or is out
//! of range, is bad usage (exit 3, flag named on stderr) — never a run
//! with the flag silently dropped, defaulted or wrapped, and never a
//! panic. A write that fails is exit 3 as well.

use std::process::Command;

/// Run `cwx <command line>` from the repo root: `(exit code, stderr)`.
fn cwx(line: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cwx"))
        .args(line.split_whitespace())
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cwx runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().unwrap_or(-1), stderr)
}

#[test]
fn unknown_or_unparseable_flags_exit_3_naming_the_flag() {
    for (line, flag) in [
        // a typo'd seed must not rerun the manifest's own seed
        ("run examples/scenarios/smoke.toml --seeed 5", "--seeed"),
        // a mistyped count must not fall back to the default fleet
        ("simulate --nodes 1O0", "--nodes"),
        // an unknown front-end choice must not silently run the reactor
        (
            "ingest serve --listen 127.0.0.1:0 --secs 0 --mode thread",
            "--mode",
        ),
        // a duration whose nanoseconds overflow must not panic or wrap
        ("simulate --secs 99999999999", "--secs"),
        ("simulate --fan-fail 1@99999999999", "--fan-fail"),
        (
            concat!(
                "history --store ",
                env!("CARGO_TARGET_TMPDIR"),
                " --from 99999999999999999"
            ),
            "--from",
        ),
        (
            concat!(
                "history --store ",
                env!("CARGO_TARGET_TMPDIR"),
                " --to 99999999999999999"
            ),
            "--to",
        ),
        (
            concat!(
                "history --store ",
                env!("CARGO_TARGET_TMPDIR"),
                " --monitor temp.cpu --agg max --window 99999999999h"
            ),
            "--window",
        ),
        (
            "fed serve --listen 127.0.0.1:0 --secs 0 --stale-after 99999999999",
            "--stale-after",
        ),
        // an out-of-range value must not run
        ("clone --nodes 0", "--nodes"),
        ("clone --nodes 2 --image-mb 1 --loss 2", "--loss"),
        // a failed write must not exit 0 (Cargo.toml is a file)
        (
            "simulate --nodes 2 --secs 10 --dump-history Cargo.toml/f.csv",
            "--dump-history",
        ),
    ] {
        let (code, err) = cwx(line);
        assert_eq!(code, 3, "`cwx {line}` must be refused: {err}");
        assert!(err.contains(flag), "`cwx {line}` must name {flag}: {err}");
    }
}

/// A history store that cannot be opened is an operational error, the
/// same for every command that takes `--store DIR`: exit 3 with one line
/// on stderr, never a panic.
#[test]
fn an_unopenable_store_exits_3_with_one_line() {
    // Cargo.toml is a file, so no directory can be made under it
    for line in [
        "simulate --nodes 2 --secs 10 --store Cargo.toml/d",
        "ingest serve --listen 127.0.0.1:0 --secs 0 --store Cargo.toml/d",
    ] {
        let (code, err) = cwx(line);
        assert_eq!(code, 3, "`cwx {line}` must be refused: {err}");
        assert_eq!(err.lines().count(), 1, "`cwx {line}`: {err}");
        assert!(err.contains("Cargo.toml/d"), "`cwx {line}`: {err}");
    }
}

/// A store holding a segment of a format this release no longer reads
/// is refused, not repaired: exit 3, one line naming the file and the
/// way to convert it, and the file left as found.
#[test]
fn a_store_with_a_retired_segment_exits_3_naming_the_file() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cwx-retired-store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("shard-000")).unwrap();
    std::fs::write(dir.join("CONFIG"), "n_shards=1\nnodes_per_group=10\n").unwrap();
    let seg = dir.join("shard-000").join("seg-00000001-r0.seg");
    let bytes = b"CWXSEG3\n\x00\x00\x00\x00\x00\x00\x00\x00\x00";
    std::fs::write(&seg, bytes).unwrap();
    let line = format!("history --store {}", dir.display());
    let (code, err) = cwx(&line);
    assert_eq!(code, 3, "`cwx {line}` must be refused: {err}");
    assert_eq!(err.lines().count(), 1, "`cwx {line}`: {err}");
    for part in [&*seg.to_string_lossy(), "CWXSEG3", "compact_all"] {
        assert!(err.contains(part), "`cwx {line}` must name {part}: {err}");
    }
    assert_eq!(std::fs::read(&seg).unwrap(), bytes);
    assert!(!seg.with_extension("seg.corrupt").exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn removed_shims_are_usage_errors() {
    // scenarios are manifests: `cwx run examples/scenarios/<name>.toml`
    for line in ["chaos list", "fed sim"] {
        let (code, err) = cwx(line);
        assert_eq!(code, 3, "`cwx {line}`: {err}");
        assert!(err.contains("usage:"), "`cwx {line}` shows usage: {err}");
    }
}

#[test]
fn flags_a_subcommand_reads_still_work() {
    // asking for help is not bad usage either
    for line in ["clone --nodes 4 --image-mb 1 --unicast", "help"] {
        let (code, err) = cwx(line);
        assert_eq!(code, 0, "`cwx {line}`: {err}");
    }
}

/// Run `cwx <args>` in `dir`: `(exit code, stdout)`.
fn cwx_in(dir: &std::path::Path, args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cwx"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("cwx runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

/// `cwx history --chart` of node 0's `temp.cpu` after the simulation in
/// [`history_egress_is_pinned`], minus the store's recovery line.
const TEMP_CPU_CHART: &str = "\
node000 temp.cpu [0s..120s]
    54.46 |                 ***
          |              ***
          |           ***
          |         **
          |       **
          |      *
          |    **
          |   *
          |  *
          |
          | *
    26.20 |*
";

/// The history a simulation leaves behind, read back through both
/// egress paths: `--dump-history` writes the same CSV bytes with and
/// without a disk store, and `cwx history --chart` over that store
/// draws the same chart.
#[test]
fn history_egress_is_pinned() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-history-egress");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sim = "simulate --nodes 4 --secs 120 --seed 7 --dump-node 0";
    for (extra, csv) in [
        ("--store D --dump-history F", "F"),
        ("--dump-history M", "M"),
    ] {
        let args: Vec<&str> = sim
            .split_whitespace()
            .chain(extra.split_whitespace())
            .collect();
        let (code, out) = cwx_in(&dir, &args);
        assert_eq!(code, 0, "{out}");
        let bytes = std::fs::read(dir.join(csv)).unwrap();
        assert_eq!(bytes.len(), 10_346, "{extra}");
        assert_eq!(
            bytes.iter().filter(|&&b| b == b'\n').count(),
            399,
            "{extra}"
        );
        assert_eq!(
            cwx_util::hash::fnv1a(&bytes),
            0xebb1_20e4_5c74_676d,
            "{extra}"
        );
    }
    let (code, out) = cwx_in(
        &dir,
        &[
            "history",
            "--store",
            "D",
            "--node",
            "0",
            "--monitor",
            "temp.cpu",
            "--chart",
        ],
    );
    assert_eq!(code, 0, "{out}");
    let chart = out.split_once('\n').map_or("", |(_, rest)| rest);
    assert_eq!(chart, TEMP_CPU_CHART);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cwx history --group-by rack` over a 12-node simulation (two
/// chassis), minus the store's recovery line.
const TEMP_CPU_BY_RACK: &str = "\
group,window_start_secs,max,count
rack0,0,42.3,140
rack0,60,54.719761783666364,235
rack0,120,55.16021585136025,10
rack1,0,42.3,28
rack1,60,54.126589770867234,48
rack1,120,54.46561812125936,2
";

/// A windowed query grouped by chassis: rack membership follows the
/// ICE Box port count, and the simulated history it folds is pinned.
#[test]
fn rack_grouped_history_is_pinned() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-history-by-rack");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sim = "simulate --nodes 12 --secs 120 --seed 7 --store D";
    let (code, out) = cwx_in(&dir, &sim.split_whitespace().collect::<Vec<_>>());
    assert_eq!(code, 0, "{out}");
    let query = "history --store D --monitor temp.cpu --agg max --window 60 --group-by rack";
    let (code, out) = cwx_in(&dir, &query.split_whitespace().collect::<Vec<_>>());
    assert_eq!(code, 0, "{out}");
    let table = out.split_once('\n').map_or("", |(_, rest)| rest);
    assert_eq!(table, TEMP_CPU_BY_RACK);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that closes the pipe after one line (`cwx history | head
/// -n 1`) ends the run quietly: no panic, whatever is left unprinted.
/// The listing is over 64 KiB, more than a pipe buffers, so `cwx` is
/// still writing when the pipe closes.
#[test]
fn a_closed_stdout_is_not_a_panic() {
    use std::io::BufRead;
    use std::process::Stdio;

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-closed-stdout");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sim = "simulate --nodes 40 --secs 120 --seed 7 --store D";
    let (code, out) = cwx_in(&dir, &sim.split_whitespace().collect::<Vec<_>>());
    assert_eq!(code, 0, "{out}");
    let (code, listing) = cwx_in(&dir, &["history", "--store", "D"]);
    assert_eq!(code, 0);
    assert!(listing.len() > 64 << 10, "{} bytes", listing.len());

    let mut child = Command::new(env!("CARGO_BIN_EXE_cwx"))
        .args(["history", "--store", "D"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cwx runs");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("store D:"), "{first}");
    // the reader is dropped: the pipe is closed
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
