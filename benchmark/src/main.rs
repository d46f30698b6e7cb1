//! The obfs benchmark: four workloads over the public library and engine
//! APIs, every answer checked against serial BFS, end-to-end metrics
//! from an untraced timed loop and per-layer metrics from a traced pass.
//!
//! ```text
//! obfs-benchmark [--seed S] [--seconds T] [--trace 0|1]
//!     every workload, each in a child process of its own, traced
//! obfs-benchmark --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//!     one workload; the last stdout line is the JSON result
//! ```
//!
//! See README.md next to this file for the workloads and metrics.

mod library;
mod metrics;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode};
use workload::{Config, Spec};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
    };
    let mut it = args.iter();
    let mut seen = Vec::new();
    while let Some(flag) = it.next() {
        if seen.contains(flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag.clone());
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                Spec::find(value).ok_or_else(|| bad("unknown workload"))?;
                a.workload = Some(value.clone());
            }
            "--seed" => {
                a.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .map_err(|_| bad("expected a number of seconds"))?;
                if !(0.0..=3600.0).contains(&a.seconds) {
                    return Err(bad("expected 0 to 3600 seconds"));
                }
            }
            "--trace" => {
                a.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Run one workload in this process and print its results.
fn run_one(spec: &Spec, cfg: &Config) -> ExitCode {
    let run = workload::run(spec, cfg);
    for l in report::lines(spec.name, &run.end_to_end)
        .into_iter()
        .chain(report::lines(spec.name, &run.raw))
    {
        println!("{l}");
    }
    println!("{} fail_frac {} ratio", spec.name, run.timed_fail_frac);
    println!("{} ops {} count", spec.name, run.tally.attempted);
    println!("{} failed {} count", spec.name, run.tally.failures());
    if let Some(layers) = &run.per_layer {
        for l in report::lines(spec.name, layers) {
            println!("{l}");
        }
    }
    match report::write_results(spec, cfg.seed, cfg.seconds, &run) {
        Ok(p) => eprintln!("results: {}", p.display()),
        Err(e) => eprintln!("warning: could not write results: {e}"),
    }
    if let Some(tr) = &run.tracer {
        let p = report::trace_path(spec.name, cfg.seed);
        match tr.write(&p) {
            Ok(()) => eprintln!("spans: {}", p.display()),
            Err(e) => eprintln!("warning: could not write spans: {e}"),
        }
    }
    let shown = run.per_layer.as_deref().unwrap_or(&run.end_to_end);
    println!("{}", report::result_line(&run, shown));
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {}: {:?}", spec.name, run.tally);
        ExitCode::from(1)
    }
}

/// Run every workload, one child process each, one after another.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = if a.trace.unwrap_or(true) { "1" } else { "0" };
    let mut ok = true;
    for spec in Spec::all() {
        let status = Command::new(&exe)
            .args(["--workload", spec.name, "--trace", trace])
            .args([
                "--seed",
                &a.seed.to_string(),
                "--seconds",
                &a.seconds.to_string(),
            ])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: workload {} exited with {s}", spec.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("error: cannot start workload {}: {e}", spec.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: obfs-benchmark [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match &a.workload {
        Some(name) => {
            let spec = Spec::find(name).expect("validated by parse");
            run_one(
                &spec,
                &Config {
                    seed: a.seed,
                    seconds: a.seconds,
                    trace: a.trace.unwrap_or(false),
                },
            )
        }
        None => run_all(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_single_workload_command_line() {
        let a = p("--workload serve-solo --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Some("serve-solo".into()),
                seed: 7,
                seconds: 10.0,
                trace: Some(true)
            }
        );
        assert_eq!(
            p("").unwrap(),
            Args {
                workload: None,
                seed: 1,
                seconds: 10.0,
                trace: None
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seed",
            "--trace 2",
            "--seconds -3",
            "--seconds 1e9",
            "--frobnicate 1",
            "--seed 1 --seed 2",
        ] {
            assert!(p(bad).is_err(), "{bad:?} accepted");
        }
    }
}
