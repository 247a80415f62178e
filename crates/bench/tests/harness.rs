//! The experiment harness itself is a deliverable: make sure the
//! `experiments` binary runs, selects experiments, and refuses a flag
//! it does not know.

use std::process::Command;

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments binary");
    assert!(
        out.status.success(),
        "exit: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn quick_mode_renders_selected_experiments() {
    let text = run(&["--quick", "e10", "e12"]);
    assert!(text.contains("E10:"), "{text}");
    assert!(text.contains("peak inrush W, sequencing ON"));
    assert!(text.contains("E12:"));
    assert!(text.contains("EASY backfill"));
    // unselected experiments are skipped
    assert!(!text.contains("E1:"));
    assert!(!text.contains("E6:"));
}

#[test]
fn unknown_flags_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--markdown", "e10"])
        .output()
        .expect("run experiments binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --markdown"), "{err}");
}

#[test]
fn quick_e7_shows_the_ablation_ordering() {
    let text = run(&["--quick", "e7"]);
    let base = text
        .lines()
        .find(|l| l.contains("baseline"))
        .expect("baseline row");
    let product = text
        .lines()
        .find(|l| l.contains("(product)"))
        .expect("product row");
    let bytes = |line: &str| -> f64 {
        line.split_whitespace()
            .filter_map(|t| t.parse::<f64>().ok())
            .next()
            .expect("numeric column")
    };
    assert!(
        bytes(product) < bytes(base),
        "product config cheaper:\n{base}\n{product}"
    );
}
