//! Workload definitions and what every workload run returns.

use crate::metrics::Metric;
use crate::stats::Tally;
use crate::trace::Tracer;
use obfs_graph::gen::{rmat, suite::PaperGraph, RmatParams};
use obfs_graph::CsrGraph;
use obfs_util::SplitMix64;
use std::time::Duration;

/// Worker threads of every pool and engine (the 2-core reference box).
pub const THREADS: usize = 2;

/// Graph inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphSpec {
    /// Graph500 RMAT at `scale` with `edge_factor` edges per vertex,
    /// generated from the run seed as Graph500 does.
    Rmat { scale: u32, edge_factor: usize },
    /// The high-diameter circuit stand-in at `n = 3.4M / divisor`. It
    /// stands in for one real matrix, so like the paper's input it is one
    /// fixed graph (generator seed `seed`); the run seed draws the keys.
    /// Its hybrid behaviour differs between generator seeds by more than
    /// any bound could absorb (58 to 87 direction switches per query).
    Freescale { divisor: u64, seed: u64 },
}

impl GraphSpec {
    /// Generate the graph for run seed `run_seed`.
    pub fn generate(&self, run_seed: u64) -> CsrGraph {
        match *self {
            GraphSpec::Rmat { scale, edge_factor } => rmat(
                scale,
                edge_factor,
                RmatParams::default(),
                derive(run_seed, stream::GRAPH),
            ),
            GraphSpec::Freescale { divisor, seed } => PaperGraph::Freescale.generate(divisor, seed),
        }
    }
}

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Sequential `BfsRunner::run_with_transpose` calls of `algo` with
    /// the default hybrid and compaction policies, cycling `keys` sources.
    Library { algo: obfs_core::Algorithm },
    /// A closed loop of `outstanding` queries against an `Engine`, sources
    /// uniform (or Zipf, s = 1) over a pool of `keys` sources.
    Serve {
        outstanding: usize,
        deadline: Option<Duration>,
        zipf: bool,
    },
}

/// One workload: its input, its load, and how long each phase runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Input graph.
    pub graph: GraphSpec,
    /// Load shape.
    pub drive: Drive,
    /// Library search keys, or the serve source pool size.
    pub keys: usize,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Warm-up calls (library) or queries (serve) inside each set-up.
    pub warmup: usize,
    /// The timed loop runs at least this many queries, so p95 has ten
    /// samples beyond it.
    pub min_samples: usize,
    /// The timed loop alternates serial reference runs with measured
    /// work. Library: one reference run on a key, then this many calls on
    /// the same key. Serve: bursts of this many reference runs between
    /// load windows.
    pub block: usize,
    /// Serve: length of one load window (drained before the next
    /// reference burst, so the reference runs on an idle machine).
    pub window: Duration,
    /// Queries the traced pass repeats from the start of the sequence.
    pub traced: usize,
}

impl Spec {
    /// The four workloads at full size.
    pub fn all() -> [Spec; 4] {
        use obfs_core::Algorithm::{Bfscl, Bfswsl};
        [
            Spec {
                name: "g500-rmat20",
                graph: GraphSpec::Rmat {
                    scale: 20,
                    edge_factor: 16,
                },
                drive: Drive::Library { algo: Bfscl },
                keys: 32,
                setup_reps: 3,
                warmup: 4,
                min_samples: 200,
                block: 7,
                window: Duration::ZERO,
                traced: 32,
            },
            Spec {
                name: "deep-sparse",
                graph: GraphSpec::Freescale {
                    divisor: 4,
                    seed: 1,
                },
                drive: Drive::Library { algo: Bfswsl },
                keys: 32,
                setup_reps: 3,
                warmup: 4,
                min_samples: 200,
                block: 7,
                window: Duration::ZERO,
                traced: 32,
            },
            Spec {
                name: "serve-solo",
                graph: GraphSpec::Rmat {
                    scale: 16,
                    edge_factor: 16,
                },
                drive: Drive::Serve {
                    outstanding: 8,
                    deadline: Some(Duration::from_secs(5)),
                    zipf: false,
                },
                keys: 256,
                setup_reps: 5,
                warmup: 64,
                min_samples: 200,
                block: 4,
                window: Duration::from_millis(500),
                traced: 1000,
            },
            Spec {
                name: "serve-batch",
                graph: GraphSpec::Rmat {
                    scale: 16,
                    edge_factor: 16,
                },
                drive: Drive::Serve {
                    outstanding: 128,
                    deadline: None,
                    zipf: true,
                },
                keys: 256,
                setup_reps: 5,
                warmup: 64,
                min_samples: 200,
                block: 4,
                window: Duration::from_millis(500),
                traced: 6400,
            },
        ]
    }

    /// The workload called `name`.
    pub fn find(name: &str) -> Option<Spec> {
        Spec::all().into_iter().find(|s| s.name == name)
    }

    /// The same workload on a graph small enough for a unit test.
    #[cfg(test)]
    pub fn tiny(&self) -> Spec {
        let graph = match self.graph {
            GraphSpec::Rmat { .. } => GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            GraphSpec::Freescale { seed, .. } => GraphSpec::Freescale {
                divisor: 4096,
                seed,
            },
        };
        let drive = match self.drive {
            Drive::Serve {
                outstanding,
                deadline,
                zipf,
            } => Drive::Serve {
                outstanding: outstanding.min(32),
                deadline,
                zipf,
            },
            d => d,
        };
        Spec {
            graph,
            drive,
            keys: self.keys.min(32),
            setup_reps: 3,
            warmup: self.warmup.min(8),
            window: self.window.min(Duration::from_millis(50)),
            traced: self.traced.min(64),
            ..self.clone()
        }
    }
}

/// Per-run settings from the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Seed every input derives from.
    pub seed: u64,
    /// Minimum length of the timed loop.
    pub seconds: f64,
    /// Run the traced pass after the timed loop.
    pub trace: bool,
}

/// Independent input streams derived from the run seed.
pub mod stream {
    /// Graph generator seed.
    pub const GRAPH: u64 = 1;
    /// Library search keys / serve source pool.
    pub const KEYS: u64 = 2;
    /// Serve query order.
    pub const ORDER: u64 = 3;
    /// Serve warm-up query order.
    pub const WARMUP: u64 = 4;
}

/// The seed of input stream `stream` for run seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::mix(seed ^ SplitMix64::mix(stream))
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Run {
    /// Accounting over every answered query (timed and traced).
    pub tally: Tally,
    /// `fail_frac` of the timed loop alone.
    pub timed_fail_frac: f64,
    /// The [`crate::metrics::END_TO_END`] sheet.
    pub end_to_end: Vec<Metric>,
    /// The [`crate::metrics::RAW`] sheet.
    pub raw: Vec<Metric>,
    /// The [`crate::metrics::PER_LAYER`] sheet (traced runs only).
    pub per_layer: Option<Vec<Metric>>,
    /// The traced pass's spans (traced runs only).
    pub tracer: Option<Tracer>,
}

impl Run {
    /// True when every answer matched the oracle and nothing failed.
    pub fn correct(&self) -> bool {
        self.tally.failures() == 0
    }
}

/// Run one workload.
pub fn run(spec: &Spec, cfg: &Config) -> Run {
    match spec.drive {
        Drive::Library { algo } => crate::library::run(spec, algo, cfg),
        Drive::Serve {
            outstanding,
            deadline,
            zipf,
        } => crate::serve::run(spec, outstanding, deadline, zipf, cfg),
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds to milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use obfs_util::Json;

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("named entry")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn declared_workloads_and_units_match_the_code() {
        let doc = declared();
        assert_eq!(
            names(&doc, "workloads"),
            Spec::all().map(|s| s.name.to_string())
        );
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = doc.get(key).and_then(Json::as_arr).unwrap();
            let pairs: Vec<(String, String)> = entries
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(pairs, want, "{key} in BENCHMARK.json differs from the code");
        }
    }

    #[test]
    fn inputs_derive_from_the_seed() {
        let g = GraphSpec::Rmat {
            scale: 8,
            edge_factor: 4,
        };
        assert_eq!(g.generate(7), g.generate(7));
        assert_ne!(g.generate(7), g.generate(8));
        let f = GraphSpec::Freescale {
            divisor: 4096,
            seed: 1,
        };
        assert_eq!(f.generate(7), f.generate(8), "one fixed stand-in graph");
        assert_ne!(derive(7, stream::GRAPH), derive(7, stream::KEYS));
        // Keys are drawn per run seed on either kind of graph.
        let keys =
            |s| obfs_graph::stats::sample_sources(&f.generate(s), 32, derive(s, stream::KEYS));
        assert_eq!(keys(7), keys(7));
        assert_ne!(keys(7), keys(8));
    }

    /// Each workload at tiny size emits exactly the metric names
    /// `BENCHMARK.json` declares, answers correctly, and (traced) keeps
    /// its span accounting.
    fn tiny_run(name: &str) -> Run {
        let spec = Spec::find(name).unwrap().tiny();
        let run = run(
            &spec,
            &Config {
                seed: 3,
                seconds: 0.0,
                trace: true,
            },
        );
        let doc = declared();
        let got: Vec<String> = run.end_to_end.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(got, names(&doc, "end_to_end"), "{name}: end-to-end names");
        let layers = run
            .per_layer
            .as_ref()
            .expect("traced run has per-layer metrics");
        let got: Vec<String> = layers.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(got, names(&doc, "per_layer"), "{name}: per-layer names");
        assert!(run.correct(), "{name}: {:?}", run.tally);
        assert!(run.tally.attempted >= spec.min_samples as u64);
        for m in &run.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{name}: {} = {}",
                m.name,
                m.value
            );
        }
        run
    }

    fn layer(run: &Run, name: &str) -> f64 {
        run.per_layer
            .as_ref()
            .unwrap()
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    }

    #[test]
    fn tiny_g500() {
        let r = tiny_run("g500-rmat20");
        assert!(layer(&r, "driver.levels") >= 1.0);
        assert_eq!(layer(&r, "batch.occupancy"), 0.0);
    }

    #[test]
    fn tiny_deep_sparse() {
        let r = tiny_run("deep-sparse");
        assert!(layer(&r, "driver.levels") > 10.0, "a high-diameter graph");
    }

    #[test]
    fn tiny_serve_solo() {
        let r = tiny_run("serve-solo");
        assert_eq!(
            layer(&r, "batch.occupancy"),
            0.0,
            "deadlined queries never coalesce"
        );
        assert_eq!(
            layer(&r, "trace.unaccounted_frac"),
            0.0,
            "wait + service == total"
        );
    }

    #[test]
    fn tiny_serve_batch() {
        let r = tiny_run("serve-batch");
        assert!(
            layer(&r, "batch.occupancy") >= 2.0,
            "deadline-free queries coalesce"
        );
        assert_eq!(
            layer(&r, "trace.unaccounted_frac"),
            0.0,
            "wait + service == total"
        );
    }
}
