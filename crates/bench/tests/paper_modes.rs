//! Every `paper` mode runs to completion on a tiny graph and prints its
//! table's title line, and `paper --help` names every mode.

use std::process::Command;

#[test]
fn every_mode_runs_and_prints_its_title() {
    for (mode, title) in [
        ("table4", "== Table IV:"),
        ("table5", "== Table V:"),
        ("table6", "== Table VI:"),
        ("fig2", "== Figure 2:"),
        ("fig3", "== Figure 3:"),
        ("ablations", "== Ablation 1:"),
        ("levels", "== Per-level profile:"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args([mode, "--divisor", "4096", "--threads", "2", "--sources", "1"])
            .output()
            .expect("spawn paper");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "paper {mode}: {stderr}");
        assert!(stdout.contains(title), "paper {mode} printed no {title:?} line:\n{stdout}");
    }
}

#[test]
fn help_lists_every_mode_with_the_flags_it_honors() {
    for args in [&["--help"][..], &["table6", "--help"], &["-h"]] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().expect("spawn paper");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "paper {args:?}");
        for line in [
            "table4     --graph",
            "table6     --graph --hybrid --json --chaos-seed --watchdog-ms",
            "fig3       --graph --json",
            "ablations  (none)",
            "levels     --graph",
        ] {
            assert!(stdout.contains(line), "paper {args:?} lacks {line:?}:\n{stdout}");
        }
    }
}
