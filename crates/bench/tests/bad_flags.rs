//! Bad command-line input to a bench bin is an `error:` line and exit
//! code 2, never a panic (exit 101).

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn the bench bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
}

#[test]
fn bad_number_exits_2() {
    assert_usage_error(env!("CARGO_BIN_EXE_table6"), &["--threads", "many"], "bad value");
}

#[test]
fn unknown_graph_exits_2() {
    assert_usage_error(env!("CARGO_BIN_EXE_bombard"), &["--graph", "nosuch"], "unknown graph");
}

#[test]
fn bombard_refuses_shared_flags_it_cannot_honor() {
    let bin = env!("CARGO_BIN_EXE_bombard");
    assert_usage_error(bin, &["--graph", "wikipedia"], "--graph is not supported");
    assert_usage_error(bin, &["--hybrid"], "--hybrid is not supported");
    assert_usage_error(bin, &["--chaos-seed", "3"], "--chaos-seed is not supported");
    assert_usage_error(bin, &["--watchdog-ms", "5"], "--watchdog-ms is not supported");
}
