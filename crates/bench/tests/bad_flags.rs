//! Bad command-line input to a bench bin is an `error:` line and exit
//! code 2, never a panic (exit 101).

use std::process::Command;

const PAPER: &str = env!("CARGO_BIN_EXE_paper");

fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn the bench bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
}

#[test]
fn bad_number_exits_2() {
    assert_usage_error(PAPER, &["table6", "--threads", "many"], "bad value");
}

#[test]
fn unknown_graph_exits_2() {
    assert_usage_error(env!("CARGO_BIN_EXE_bombard"), &["--graph", "nosuch"], "unknown graph");
}

/// `paper` without a mode, with one it does not know, or with a second
/// positional argument names its modes and exits 2.
#[test]
fn missing_or_unknown_mode_exits_2() {
    assert_usage_error(PAPER, &[], "missing mode");
    assert_usage_error(PAPER, &["table7"], "unknown mode \"table7\"");
    assert_usage_error(PAPER, &["table4", "fig2"], "unexpected argument \"fig2\"");
    assert_usage_error(
        PAPER,
        &["--threads", "2"],
        "table4 table5 table6 fig2 fig3 ablations levels",
    );
}

/// Each bin and `paper` mode refuses the optional shared flags it would
/// otherwise ignore (every one of these used to exit 0 without doing
/// what was asked). The tiny graph keeps one that wrongly accepted its
/// flag fast.
#[test]
fn bins_refuse_shared_flags_they_ignore() {
    let tiny = ["--divisor", "4096", "--threads", "2", "--sources", "1"];
    for (cmd, flag) in [
        (&[env!("CARGO_BIN_EXE_graph500")][..], &["--graph", "wikipedia"][..]),
        (&[PAPER, "ablations"], &["--graph", "cage15"]),
        (&[PAPER, "table5"], &["--hybrid"]),
        (&[PAPER, "fig2"], &["--json"]),
        (&[PAPER, "levels"], &["--json"]),
        (&[PAPER, "table4"], &["--chaos-seed", "3"]),
        (&[PAPER, "fig3"], &["--watchdog-ms", "5"]),
    ] {
        let args: Vec<&str> = cmd[1..].iter().chain(flag).chain(&tiny).copied().collect();
        assert_usage_error(cmd[0], &args, &format!("{} is not supported", flag[0]));
    }
}

#[test]
fn bombard_refuses_shared_flags_it_cannot_honor() {
    let bin = env!("CARGO_BIN_EXE_bombard");
    assert_usage_error(bin, &["--graph", "wikipedia"], "--graph is not supported");
    assert_usage_error(bin, &["--hybrid"], "--hybrid is not supported");
    assert_usage_error(bin, &["--chaos-seed", "3"], "--chaos-seed is not supported");
    assert_usage_error(bin, &["--watchdog-ms", "5"], "--watchdog-ms is not supported");
}
