//! Every `paper` mode runs to completion on a tiny graph and prints its
//! table's title line.

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
