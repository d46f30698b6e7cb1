//! `obfs-lint [--json] [REPO_ROOT]` — run the repo auditor and print
//! the deterministic report (human-readable by default, the schema-v1
//! JSON document with `--json`). The given root (default `.`) may be
//! any directory inside the workspace: the binary walks up to the
//! first ancestor holding `crates/` + `Cargo.toml`, so `cargo run -p
//! obfs-lint` agrees byte-for-byte whether launched from the repo root
//! or a crate subdirectory. Exit 0 when clean, 1 on findings, 2 on
//! I/O or usage errors.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut roots = Vec::new();
    for a in std::env::args().skip(1) {
        if a == "--json" {
            json = true;
        } else {
            roots.push(a);
        }
    }
    let start = match roots.as_slice() {
        [] => ".".to_string(),
        [r] => r.clone(),
        _ => {
            eprintln!("usage: obfs-lint [--json] [REPO_ROOT]");
            return ExitCode::from(2);
        }
    };
    let Some(root) = obfs_lint::find_repo_root(Path::new(&start)) else {
        eprintln!("obfs-lint: no workspace root (crates/ + Cargo.toml) at or above {start}");
        return ExitCode::from(2);
    };
    match obfs_lint::lint_repo(&root) {
        Ok(report) => {
            if json {
                println!("{}", report.render_json());
            } else {
                print!("{}", report.render());
            }
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("obfs-lint: {e}");
            ExitCode::from(2)
        }
    }
}
