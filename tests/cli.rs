//! The `cwx` command line rejects input it cannot honour: a flag the
//! subcommand does not read, or a value that does not parse, is bad
//! usage (exit 3, flag named on stderr) — never a run with the flag
//! silently dropped or defaulted.

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
    ] {
        let (code, err) = cwx(line);
        assert_eq!(code, 3, "`cwx {line}` must be refused: {err}");
        assert!(err.contains(flag), "`cwx {line}` must name {flag}: {err}");
    }
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
    let (code, err) = cwx("clone --nodes 4 --image-mb 1 --unicast");
    assert_eq!(code, 0, "{err}");
}
