//! Minimal command-line parsing shared by the bench binaries (the
//! workspace avoids external CLI crates; see DESIGN.md dependency
//! policy).

use obfs_graph::gen::suite::PaperGraph;

/// Common benchmark parameters.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Graph scale divisor: `n = paper_n / divisor`.
    pub divisor: u64,
    /// Worker threads for parallel algorithms.
    pub threads: usize,
    /// Random non-zero-degree sources per (algorithm, graph) cell.
    pub sources: usize,
    /// Master seed for graph generation and source sampling.
    pub seed: u64,
    /// Write the bin's `BENCH_<name>.json` report.
    pub json: bool,
    /// Restrict to a single paper graph if set.
    pub only_graph: Option<PaperGraph>,
    /// Install a store-buffer fault plan with this seed (only active in
    /// builds with the `chaos` feature; inert otherwise).
    pub chaos_seed: Option<u64>,
    /// Per-level watchdog deadline in milliseconds (degraded levels are
    /// reported in the recovery columns).
    pub watchdog_ms: Option<u64>,
    /// Also run direction-optimizing hybrid rows for the optimistic
    /// algorithms (α/β heuristic with the default constants).
    pub hybrid: bool,
    /// Positional arguments: graph files (only `graph500` takes them).
    pub files: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            divisor: 128,
            threads: 8,
            sources: 4,
            seed: 1,
            json: false,
            only_graph: None,
            chaos_seed: None,
            watchdog_ms: None,
            hybrid: false,
            files: Vec::new(),
        }
    }
}

/// Print `error: {msg}` and exit 2, the exit code every bench bin uses
/// for bad input.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

impl BenchArgs {
    /// Parse `std::env::args` for a bin that takes no positional
    /// arguments; bad input prints `error: …` and exits 2.
    pub fn parse() -> Self {
        let args = Self::parse_with_files();
        if let Some(f) = args.files.first() {
            fail(format!("unexpected argument {f:?} (try --help)"));
        }
        args
    }

    /// [`BenchArgs::parse`] for a bin whose positional arguments are
    /// graph files.
    pub fn parse_with_files() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| fail(e))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("flag {name} requires a value"));
            match flag.as_str() {
                "--divisor" => out.divisor = parse_num(&value("--divisor")?, "--divisor")?,
                "--threads" => out.threads = parse_num(&value("--threads")?, "--threads")?,
                "--sources" => out.sources = parse_num(&value("--sources")?, "--sources")?,
                "--seed" => out.seed = parse_num(&value("--seed")?, "--seed")?,
                "--graph" => {
                    let name = value("--graph")?;
                    out.only_graph = Some(
                        PaperGraph::from_name(&name)
                            .ok_or_else(|| format!("unknown graph name {name:?} for --graph"))?,
                    );
                }
                "--json" => out.json = true,
                "--hybrid" => out.hybrid = true,
                "--chaos-seed" => {
                    out.chaos_seed = Some(parse_num(&value("--chaos-seed")?, "--chaos-seed")?)
                }
                "--watchdog-ms" => {
                    out.watchdog_ms = Some(parse_num(&value("--watchdog-ms")?, "--watchdog-ms")?)
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --divisor <k> --threads <p> --sources <s> --seed <x> \
                         --graph <name> --json --hybrid --chaos-seed <x> --watchdog-ms <ms>"
                    );
                    std::process::exit(0);
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown flag {other:?} (try --help)"))
                }
                _ => out.files.push(flag),
            }
        }
        for (name, v) in [
            ("--divisor", out.divisor),
            ("--threads", out.threads as u64),
            ("--sources", out.sources as u64),
        ] {
            if v == 0 {
                return Err(format!("{name} must be >= 1"));
            }
        }
        Ok(out)
    }
}

/// Parse a flag's numeric value.
pub fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?} for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(v: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(strs(v))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.divisor, 128);
        assert!(!a.json);
        assert!(a.files.is_empty());
    }

    #[test]
    fn full_parse() {
        let a = parse(&[
            "--divisor", "64", "--threads", "12", "--sources", "10", "--seed", "7", "--json",
            "--graph", "wikipedia",
        ])
        .unwrap();
        assert_eq!(a.divisor, 64);
        assert_eq!(a.threads, 12);
        assert_eq!(a.sources, 10);
        assert_eq!(a.seed, 7);
        assert!(a.json);
        assert_eq!(a.only_graph, Some(PaperGraph::Wikipedia));
        assert_eq!(a.chaos_seed, None);
        assert_eq!(a.watchdog_ms, None);
    }

    #[test]
    fn chaos_and_watchdog_flags() {
        let a = parse(&["--chaos-seed", "9", "--watchdog-ms", "250"]).unwrap();
        assert_eq!(a.chaos_seed, Some(9));
        assert_eq!(a.watchdog_ms, Some(250));
    }

    #[test]
    fn hybrid_flag() {
        assert!(!parse(&[]).unwrap().hybrid);
        assert!(parse(&["--hybrid"]).unwrap().hybrid);
    }

    #[test]
    fn positional_arguments_are_files() {
        let a = parse(&["a.mtx", "--threads", "2", "b.mtx"]).unwrap();
        assert_eq!(a.files, strs(&["a.mtx", "b.mtx"]));
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&["--threads"]).unwrap_err().contains("requires a value"));
    }

    #[test]
    fn rejects_bad_number() {
        assert!(parse(&["--threads", "many"]).unwrap_err().contains("bad value"));
        assert!(parse(&["--sources", "0"]).unwrap_err().contains("must be >= 1"));
    }

    #[test]
    fn rejects_unknown_graph_name() {
        assert!(parse(&["--graph", "nosuch"]).unwrap_err().contains("unknown graph name"));
    }
}
