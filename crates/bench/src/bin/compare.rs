//! `compare` — the bench regression gate.
//!
//! ```text
//! compare BASELINE.json CONTENDER.json [--rel-tol 0.10]
//!         [--counter-tol 0.25] [--scale-time 1.0] [--json]
//! ```
//!
//! Diffs two `BENCH_*.json` reports and exits **1** when the contender
//! regresses (mean time / TEPS beyond the tolerance, counter blow-ups,
//! or results missing vs. the baseline), **0** when clean, **2** on
//! usage or parse errors and on reports of different schema versions. `--scale-time 1.5` inflates the contender's
//! times synthetically — CI self-tests the gate with an identity
//! compare that must fail under it.

use obfs_bench::compare::{compare, CompareOpts};
use obfs_bench::Json;

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut opts = CompareOpts::default();
    let mut json_out = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut numflag = |name: &str| -> Result<f64, String> {
            it.next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .parse()
                .map_err(|_| format!("--{name}: not a number"))
        };
        match a.as_str() {
            "--rel-tol" => opts.rel_tol = numflag("rel-tol")?,
            "--counter-tol" => opts.counter_tol = numflag("counter-tol")?,
            "--scale-time" => opts.scale_time = numflag("scale-time")?,
            "--json" => json_out = true,
            p if !p.starts_with("--") => paths.push(p),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let [base_path, new_path] = paths[..] else {
        return Err("usage: compare BASELINE.json CONTENDER.json [flags]".into());
    };
    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let cmp = compare(&read(base_path)?, &read(new_path)?, &opts)?;
    if json_out {
        println!("{}", cmp.to_json().render());
    } else {
        print!("{}", cmp.render_table());
    }
    Ok(cmp.failed())
}

fn main() {
    match run() {
        Ok(false) => {}
        Ok(true) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
