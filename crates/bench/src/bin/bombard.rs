//! `bombard`: closed-loop stress driver for the resilient query engine.
//!
//! Where the other bench binaries time a single traversal at a time,
//! this one drives the `obfs-engine` admission/scheduling layer the way
//! a service would see it: bursts of concurrent queries against one
//! shared graph and one managed pool, with the admission gate shedding
//! whatever exceeds `--capacity`. It reports service-level numbers —
//! queries/sec and submit-to-response latency percentiles — alongside
//! the usual per-traversal metrics, and emits them as a `serve` block
//! in `BENCH_serve.json` so the `compare` gate can flag throughput or
//! tail-latency regressions (`serve_qps`, `serve_p99_ms`).
//!
//! The loop is *closed*: each burst is submitted, then fully drained
//! before the next begins. With `--burst` ≤ `--capacity` nothing is
//! shed and the run measures scheduling overhead; with `--burst` >
//! `--capacity` the overflow is shed at the door every round, which is
//! exactly the overload behavior CI smoke-tests.
//!
//! Every engine query is direction-optimizing, so the report records
//! `params.hybrid: true`. The shared `--graph`, `--hybrid`,
//! `--chaos-seed` and `--watchdog-ms` flags have no engine meaning here
//! and exit 2 rather than being ignored.
//!
//! `--batch` runs every contender twice over the same workload — once
//! with coalescing disabled (`max_batch = 1`, the baseline the solo
//! `serve_qps` gate watches) and once with the scheduler folding
//! queued compatible queries into shared multi-source traversals (up
//! to `--max-batch` sources per run). The second pass lands in the
//! `serve.batch` block (occupancy, batched qps, speedup)
//! gated by `serve_batch_qps`. Use `--burst`/`--capacity` well above
//! `--max-batch` so the queue actually fills: coalescing only sees
//! queries that are *waiting* while a traversal is in flight.

use obfs_bench::args::{fail, parse_num};
use obfs_bench::env::HostInfo;
use obfs_bench::json::Json;
use obfs_bench::table::Table;
use obfs_bench::{BenchArgs, BenchReport, Measurement, Reference};
use obfs_core::Algorithm;
use obfs_engine::{Engine, EngineConfig, Query, QueryStatus, SubmitError};
use obfs_graph::gen::{rmat, RmatParams};
use obfs_graph::stats::sample_sources;
use obfs_util::{LogHistogram, Xoshiro256StarStar};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine-specific knobs on top of the shared [`BenchArgs`].
struct BombardArgs {
    base: BenchArgs,
    /// Engine admission capacity (max in-flight).
    capacity: usize,
    /// Queries submitted per closed-loop round.
    burst: usize,
    /// Total submit attempts per contender.
    queries: usize,
    /// Default per-query deadline (0 = none).
    deadline_ms: u64,
    /// Batched mode: run each contender twice — coalescing disabled,
    /// then enabled — and report the batched throughput/occupancy next
    /// to the unbatched baseline (the `serve.batch` block).
    batch: bool,
    /// Coalescing width for the batched pass (clamped to [2, 64]).
    max_batch: usize,
    /// Serve the engine registry at this address and take the mid-run
    /// scrape over HTTP instead of in-process.
    metrics_addr: Option<String>,
}

fn parse_args() -> Result<BombardArgs, String> {
    let mut own = BombardArgs {
        base: BenchArgs::default(),
        capacity: 8,
        burst: 8,
        queries: 64,
        deadline_ms: 0,
        batch: false,
        max_batch: obfs_core::MAX_BATCH,
        metrics_addr: None,
    };
    let mut burst = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("flag {name} requires a value"));
        match flag.as_str() {
            "--capacity" => own.capacity = parse_num(&value("--capacity")?, "--capacity")?,
            "--burst" => burst = Some(parse_num(&value("--burst")?, "--burst")?),
            "--queries" => own.queries = parse_num(&value("--queries")?, "--queries")?,
            "--deadline-ms" => {
                own.deadline_ms = parse_num(&value("--deadline-ms")?, "--deadline-ms")?
            }
            "--batch" => own.batch = true,
            "--max-batch" => own.max_batch = parse_num(&value("--max-batch")?, "--max-batch")?,
            "--metrics-addr" => own.metrics_addr = Some(value("--metrics-addr")?),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --capacity <c> --burst <b> --queries <n> --deadline-ms <d> \
                     --batch --max-batch <k> --metrics-addr <host:port> \
                     plus the shared bench flags (--divisor --threads --sources --seed --json)"
                );
                std::process::exit(0);
            }
            other => {
                rest.push(other.to_string());
                // Keep `--flag value` pairs together for BenchArgs.
                if matches!(
                    other,
                    "--divisor"
                        | "--threads"
                        | "--sources"
                        | "--seed"
                        | "--graph"
                        | "--chaos-seed"
                        | "--watchdog-ms"
                ) {
                    rest.push(value(other)?);
                }
            }
        }
    }
    own.base = BenchArgs::parse_from(rest)?;
    if let Some(f) = own.base.files.first() {
        return Err(format!("unexpected argument {f:?} (try --help)"));
    }
    // Of the optional shared flags only `--json` applies (module docs).
    own.base.refuse_unhonored(&["--json"])?;
    // Every engine query is direction-optimizing; the report records it
    // as `params.hybrid`.
    own.base.hybrid = true;
    own.burst = burst.unwrap_or(own.capacity);
    for (name, v) in
        [("--capacity", own.capacity), ("--burst", own.burst), ("--queries", own.queries)]
    {
        if v == 0 {
            return Err(format!("{name} must be >= 1"));
        }
    }
    if own.batch {
        // Deadlined queries never coalesce (the engine keeps their
        // deadline contract by running them solo), so a batched pass
        // with a default deadline would silently measure nothing.
        if own.deadline_ms != 0 {
            return Err(
                "--batch is incompatible with --deadline-ms (deadlined queries never coalesce)"
                    .into(),
            );
        }
        own.max_batch = own.max_batch.clamp(2, obfs_core::MAX_BATCH);
    }
    Ok(own)
}

/// Everything one contender's closed loop produced.
struct LoopResult {
    admitted: u64,
    shed: u64,
    completed: u64,
    degraded: u64,
    cancelled: u64,
    deadline_exceeded: u64,
    failed: u64,
    retries: u64,
    /// Coalesced multi-source traversals (k >= 2) the engine ran.
    batched_runs: u64,
    /// Queries answered by those coalesced runs.
    coalesced: u64,
    /// Time spent submitting and draining bursts (result checks and
    /// the mid-run scrape happen between rounds, off this clock).
    elapsed: Duration,
    /// Submit-to-response latency, microseconds.
    lat_us: LogHistogram,
    /// Every completed query's traversal, checked against its source's
    /// serial reference.
    runs: Measurement,
    /// `serve.telemetry` block: the engine registry's final snapshot
    /// plus the mid-run scrape (see `json::validate_report`).
    telemetry: Json,
}

/// Terminal-status counter names in the engine registry.
const TERMINALS: [&str; 5] = [
    "obfs_engine_queries_completed_total",
    "obfs_engine_queries_degraded_total",
    "obfs_engine_queries_cancelled_total",
    "obfs_engine_queries_deadline_exceeded_total",
    "obfs_engine_queries_failed_total",
];

fn drive(
    algo: Algorithm,
    graph: &Arc<obfs_graph::CsrGraph>,
    graph_name: &str,
    references: &HashMap<u32, Reference>,
    sources: &[u32],
    args: &BombardArgs,
    max_batch: usize,
) -> LoopResult {
    let cfg = EngineConfig {
        threads: args.base.threads,
        capacity: args.capacity,
        default_deadline: (args.deadline_ms > 0).then(|| Duration::from_millis(args.deadline_ms)),
        max_batch,
        ..Default::default()
    };
    let engine = Engine::new(Arc::clone(graph), cfg);
    let metrics_server = args.metrics_addr.as_deref().map(|addr| {
        obfs_telemetry::MetricsServer::start(Arc::clone(engine.telemetry().registry()), addr)
            .unwrap_or_else(|e| fail(format!("--metrics-addr {addr}: {e}")))
    });
    // (mode, submitted, terminal, shed) captured mid-run: over HTTP when
    // a responder is up, in-process against the same registry otherwise.
    let mut scrape: Option<(&str, u64, u64, u64)> = None;
    let mut rng = Xoshiro256StarStar::new(args.base.seed ^ 0x00B0_BADD);
    let mut out = LoopResult {
        admitted: 0,
        shed: 0,
        completed: 0,
        degraded: 0,
        cancelled: 0,
        deadline_exceeded: 0,
        failed: 0,
        retries: 0,
        batched_runs: 0,
        coalesced: 0,
        elapsed: Duration::ZERO,
        lat_us: LogHistogram::new(),
        runs: Measurement::new(algo.to_string(), graph_name),
        telemetry: Json::Null,
    };
    let mut attempts = 0usize;
    while attempts < args.queries {
        let round = Instant::now();
        let mut done = Vec::new();
        let want = args.burst.min(args.queries - attempts);
        let mut handles = Vec::with_capacity(want);
        for _ in 0..want {
            let src = sources[(rng.next_u64() as usize) % sources.len()];
            match engine.submit(Query::new(algo, src)) {
                Ok(h) => {
                    handles.push((h, src));
                    out.admitted += 1;
                }
                Err(SubmitError::Overloaded) => out.shed += 1,
                Err(e) => panic!("engine rejected query: {e}"),
            }
            attempts += 1;
        }
        for (h, src) in handles {
            let resp = h.wait();
            out.lat_us.record(resp.total_ns / 1_000);
            match resp.status {
                QueryStatus::Complete | QueryStatus::Degraded => {
                    if matches!(resp.status, QueryStatus::Degraded) {
                        out.degraded += 1;
                    } else {
                        out.completed += 1;
                    }
                    done.push((resp.result.expect("complete query carries a result"), src));
                }
                QueryStatus::Cancelled => out.cancelled += 1,
                QueryStatus::DeadlineExceeded => out.deadline_exceeded += 1,
                QueryStatus::Failed(m) => {
                    eprintln!("query {} failed: {m}", resp.id);
                    out.failed += 1;
                }
            }
        }
        out.elapsed += round.elapsed();
        for (r, src) in &done {
            out.runs.record(r, &references[src]);
        }
        if scrape.is_none() && attempts * 2 >= args.queries {
            // Halfway scrape: a cut of monotone counters that the
            // schema validator later checks against the final snapshot
            // (scrape <= final, per counter).
            let taken = metrics_server.as_ref().map(|srv| {
                let text = obfs_telemetry::http::scrape(srv.addr(), "/metrics")
                    .expect("scrape GET /metrics");
                let parsed = obfs_telemetry::parse_exposition(&text)
                    .expect("our own responder emitted malformed exposition text");
                let c = |n: &str| {
                    obfs_telemetry::sample(&parsed, n)
                        .unwrap_or_else(|| panic!("{n} missing from /metrics"))
                        as u64
                };
                let terminal = TERMINALS.iter().map(|k| c(k)).sum::<u64>();
                (
                    "http",
                    c("obfs_engine_queries_submitted_total"),
                    terminal,
                    c("obfs_engine_queries_shed_total"),
                )
            });
            scrape = Some(match taken {
                Some(cut) => cut,
                None => {
                    let snap = engine.telemetry().registry().snapshot();
                    let c = |n: &str| snap.counter(n).unwrap_or(0);
                    let terminal = TERMINALS.iter().map(|k| c(k)).sum::<u64>();
                    (
                        "registry",
                        c("obfs_engine_queries_submitted_total"),
                        terminal,
                        c("obfs_engine_queries_shed_total"),
                    )
                }
            });
        }
    }
    let st = engine.stats();
    assert_eq!(st.submitted, out.admitted, "engine admission count disagrees");
    assert_eq!(st.shed, out.shed, "engine shed count disagrees");
    out.retries = st.retries;
    out.batched_runs = st.batched_runs;
    out.coalesced = st.queries_coalesced;
    // Registry latency percentiles must agree with the closed loop's
    // own histogram: both record the same per-query total_ns stream,
    // so they can differ by at most one log-histogram bucket.
    let snap = engine.telemetry().registry().snapshot();
    let (p50_us, p99_us) = match snap.get("obfs_engine_total_us") {
        Some(obfs_telemetry::registry::MetricValue::Summary { total, .. }) => {
            (total.percentile(0.50), total.percentile(0.99))
        }
        other => panic!("obfs_engine_total_us missing from the registry: {other:?}"),
    };
    for (mine, reg) in
        [(out.lat_us.percentile(0.50), p50_us), (out.lat_us.percentile(0.99), p99_us)]
    {
        let (a, b) = (mine as f64, reg as f64);
        assert!(
            (a - b).abs() <= a.max(b) / 8.0 + 1.0,
            "latency percentiles disagree beyond one bucket: bombard {mine}us vs \
             registry {reg}us"
        );
    }
    let int = |x: u64| Json::Num(x as f64);
    let (mode, s_sub, s_term, s_shed) =
        scrape.expect("at least one burst ran, so the halfway scrape fired");
    out.telemetry = Json::Obj(vec![
        (
            "final".into(),
            Json::Obj(vec![
                ("submitted".into(), int(st.submitted)),
                ("shed".into(), int(st.shed)),
                ("completed".into(), int(st.completed)),
                ("degraded".into(), int(st.degraded)),
                ("cancelled".into(), int(st.cancelled)),
                ("deadline_exceeded".into(), int(st.deadline_exceeded)),
                ("failed".into(), int(st.failed)),
                ("retries".into(), int(st.retries)),
                ("batched_runs".into(), int(st.batched_runs)),
                ("coalesced".into(), int(st.queries_coalesced)),
                ("p50_us".into(), int(p50_us)),
                ("p99_us".into(), int(p99_us)),
            ]),
        ),
        (
            "scrape".into(),
            Json::Obj(vec![
                ("mode".into(), Json::Str(mode.into())),
                ("submitted".into(), int(s_sub)),
                ("terminal".into(), int(s_term)),
                ("shed".into(), int(s_shed)),
            ]),
        ),
    ]);
    out
}

/// Drained-queries-per-second over one closed loop.
fn qps_of(r: &LoopResult) -> f64 {
    let done = r.completed + r.degraded + r.cancelled + r.deadline_exceeded + r.failed;
    if r.elapsed.as_secs_f64() > 0.0 {
        done as f64 / r.elapsed.as_secs_f64()
    } else {
        0.0
    }
}

/// `serve.batch` block: the coalescing-enabled pass over the
/// same workload, next to the unbatched baseline it is compared
/// against (see `json::validate_report` for the invariants).
fn batch_json(b: &LoopResult, unbatched_qps: f64, args: &BombardArgs) -> Json {
    let int = |x: u64| Json::Num(x as f64);
    let qps = qps_of(b);
    let occupancy =
        if b.batched_runs > 0 { b.coalesced as f64 / b.batched_runs as f64 } else { 0.0 };
    let speedup = if unbatched_qps > 0.0 { qps / unbatched_qps } else { 0.0 };
    let pct = |q: f64| Json::Num(b.lat_us.percentile(q) as f64 / 1e3);
    Json::Obj(vec![
        ("max_batch".into(), int(args.max_batch as u64)),
        ("runs".into(), int(b.batched_runs)),
        ("coalesced".into(), int(b.coalesced)),
        ("occupancy".into(), Json::Num(occupancy)),
        ("qps".into(), Json::Num(qps)),
        ("p50_ms".into(), pct(0.50)),
        ("p99_ms".into(), pct(0.99)),
        ("speedup".into(), Json::Num(speedup)),
    ])
}

/// `serve` block for one row (see `json::validate_report`).
fn serve_json(r: &LoopResult, batch: Option<Json>, args: &BombardArgs) -> Json {
    let int = |x: u64| Json::Num(x as f64);
    let qps = qps_of(r);
    let pct = |q: f64| Json::Num(r.lat_us.percentile(q) as f64 / 1e3);
    let mut members = vec![
        ("capacity".into(), int(args.capacity as u64)),
        ("burst".into(), int(args.burst as u64)),
        ("queries".into(), int(args.queries as u64)),
        ("submitted".into(), int(r.admitted)),
        ("shed".into(), int(r.shed)),
        ("completed".into(), int(r.completed)),
        ("degraded".into(), int(r.degraded)),
        ("cancelled".into(), int(r.cancelled)),
        ("deadline_exceeded".into(), int(r.deadline_exceeded)),
        ("failed".into(), int(r.failed)),
        ("retries".into(), int(r.retries)),
        ("qps".into(), Json::Num(qps)),
        ("p50_ms".into(), pct(0.50)),
        ("p90_ms".into(), pct(0.90)),
        ("p99_ms".into(), pct(0.99)),
    ];
    if let Some(batch) = batch {
        members.push(("batch".into(), batch));
    }
    members.push(("telemetry".into(), r.telemetry.clone()));
    Json::Obj(members)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(e));
    // Same scale mapping as the graph500 bin: --divisor shrinks the
    // graph; the default (128) gives a small dense RMAT that keeps the
    // committed BENCH_serve.json cheap to regenerate.
    let scale = match args.base.divisor {
        1 => 18u32,
        d => (18u32).saturating_sub(d.ilog2()).max(10),
    };
    println!("{}", HostInfo::detect().render(args.base.threads));
    println!(
        "== bombard: RMAT scale {scale}, {} queries/contender, burst {}, capacity {}, \
         p={} ==\n",
        args.queries, args.burst, args.capacity, args.base.threads
    );
    let graph = Arc::new(rmat(scale, 8, RmatParams::default(), args.base.seed));
    let graph_name = format!("rmat{scale}");
    println!("graph: n={} m={}\n", graph.num_vertices(), graph.num_edges());
    let sources = sample_sources(&graph, args.base.sources.max(4), args.base.seed ^ 0x5EED);
    let references: HashMap<u32, Reference> =
        sources.iter().map(|&src| (src, Reference::new(&graph, src))).collect();

    let contenders = [Algorithm::Bfscl, Algorithm::Bfswsl];
    let mut report = args.base.json.then(|| BenchReport::new("serve", &args.base));
    let mut cols = vec!["contender", "queries/s", "p50 ms", "p99 ms", "shed", "retries"];
    if args.batch {
        cols.extend(["batch q/s", "occupancy", "speedup"]);
    }
    let mut t = Table::new(&cols);
    for algo in contenders {
        // The baseline pass runs with coalescing disabled so its qps
        // keeps meaning "one traversal per query" even now that the
        // engine coalesces deadline-free queries by default.
        let r = drive(algo, &graph, &graph_name, &references, &sources, &args, 1);
        let unbatched_qps = qps_of(&r);
        // The batched pass replays the same closed loop with
        // coalescing on: queued compatible queries fold into shared
        // multi-source traversals (up to --max-batch sources each).
        let batch = args.batch.then(|| {
            let b = drive(algo, &graph, &graph_name, &references, &sources, &args, args.max_batch);
            batch_json(&b, unbatched_qps, &args)
        });
        let mut row = vec![
            algo.to_string(),
            format!("{unbatched_qps:.1}"),
            format!("{:.3}", r.lat_us.percentile(0.50) as f64 / 1e3),
            format!("{:.3}", r.lat_us.percentile(0.99) as f64 / 1e3),
            r.shed.to_string(),
            r.retries.to_string(),
        ];
        if let Some(b) = &batch {
            let f = |key: &str| b.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            row.extend([
                format!("{:.1}", f("qps")),
                format!("{:.1}", f("occupancy")),
                format!("{:.2}x", f("speedup")),
            ]);
        }
        t.row(row);
        let serve = serve_json(&r, batch, &args);
        if let Some(report) = &mut report {
            report.add_served(&r.runs, serve);
        }
    }
    println!("{}", t.render());
    if let Some(report) = report {
        report.finish();
    }
}
