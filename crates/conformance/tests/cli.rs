//! The binary's exit status is the gate: non-zero exactly when the scan
//! has a finding.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run_on_fixture(name: &str) -> Output {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures")).join(name);
    Command::new(env!("CARGO_BIN_EXE_conformance"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("conformance binary runs")
}

#[test]
fn violating_tree_exits_non_zero_and_prints_findings() {
    let out = run_on_fixture("violating");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "findings must fail the gate:\n{stdout}");
    assert!(stdout.contains("[no-wall-clock]"), "findings are printed:\n{stdout}");
    assert!(stdout.contains("[unused-pragma]"), "findings are printed:\n{stdout}");
}

#[test]
fn clean_tree_exits_zero() {
    let out = run_on_fixture("clean");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "a clean tree passes the gate:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(" 0 findings"), "{stdout}");
}
