//! Implementation of the `obfs` command-line tool (library-shaped so the
//! parsing and command logic are unit-testable).

#![warn(missing_docs)]

use obfs_core::{
    run_bfs, serial::serial_bfs, Algorithm, BfsOptions, CompactionPolicy, HybridPolicy, RunStats,
};
use obfs_graph::{gen, io, stats, CsrGraph};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// Top-level usage text.
pub fn usage() -> String {
    "usage: obfs <command> [flags]\n\
     commands:\n\
       gen        --model <rmat|er|ba|chung-lu|grid|torus|suite:NAME> --n <n> \
     [--edge-factor k] [--gamma g] [--seed s] --out FILE\n\
       stats      --in FILE\n\
       bfs        --in FILE --algo NAME [--src v | --sources a,b,c] [--threads p] \
     [--validate] [--parents] [--trace [OUT.json]] [--histograms] [--hybrid] \
     [--alpha a] [--beta b] [--compaction] [--compact-density d]   \
     (--sources runs one batched multi-source traversal)\n\
       engine     --in FILE [--algo NAME] [--threads p] [--capacity c] [--queries n] \
     [--burst b] [--deadline-ms d] [--seed s] [--metrics-addr HOST:PORT] \
     [--stats-interval SECS] [--metrics-out FILE.json]   (closed-loop resilient query engine; \
     --metrics-addr serves GET /metrics live)\n\
       analyze    TRACE.json [--json]   (post-mortem profile of a recorded trace)\n\
       model      [--schedules n] [--steps n]   (bounded model check of the racy protocol cores)\n\
       components --in FILE [--threads p] [--algo NAME]\n\
       bipartite  --in FILE [--threads p]\n\
       bc         --in FILE [--samples k] [--seed s] [--top t]\n\
       convert    --in FILE --out FILE\n\
     formats by extension: .mtx/.mm Matrix Market, .el/.txt edge list, \
     .bin/.csr binary CSR\n\
     algorithms: sbfs BFS_C BFS_CL BFS_DL BFS_W BFS_WL BFS_WS BFS_WSL BFS_ECL"
        .to_string()
}

/// Parse and execute; returns the report to print.
pub fn dispatch(args: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    if cmd == "analyze" {
        // Takes a positional trace path, so it parses its own args.
        return cmd_analyze(rest);
    }
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&flags),
        "stats" => cmd_stats(&flags),
        "bfs" => cmd_bfs(&flags),
        "engine" => cmd_engine(&flags),
        "model" => cmd_model(&flags),
        "components" => cmd_components(&flags),
        "bipartite" => cmd_bipartite(&flags),
        "bc" => cmd_bc(&flags),
        "convert" => cmd_convert(&flags),
        "help" | "--help" | "-h" => Ok(usage() + "\n"),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// `--flag value` pairs plus boolean `--flag` switches.
pub fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {a:?}"));
        };
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
            _ => "true".to_string(), // boolean switch
        };
        if out.insert(name.to_string(), value).is_some() {
            return Err(format!("duplicate flag --{name}"));
        }
    }
    Ok(out)
}

fn get<'a>(flags: &'a HashMap<String, String>, k: &str) -> Result<&'a str, String> {
    flags.get(k).map(|s| s.as_str()).ok_or_else(|| format!("missing required flag --{k}"))
}

fn get_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    k: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(k) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad value {s:?} for --{k}")),
    }
}

fn has(flags: &HashMap<String, String>, k: &str) -> bool {
    flags.contains_key(k)
}

/// Load a graph, picking the format from the file extension.
pub fn load_graph(path: &str) -> Result<CsrGraph, String> {
    let p = Path::new(path);
    let ext = p.extension().and_then(|e| e.to_str()).unwrap_or("");
    let file = std::fs::File::open(p).map_err(|e| format!("open {path}: {e}"))?;
    let mut reader = std::io::BufReader::new(file);
    match ext {
        "mtx" | "mm" => io::read_matrix_market(reader).map_err(|e| e.to_string()),
        "el" | "txt" => io::read_edge_list(reader, None).map_err(|e| e.to_string()),
        "bin" | "csr" => io::read_binary_csr(&mut reader).map_err(|e| e.to_string()),
        other => Err(format!("unknown graph extension {other:?} (want mtx/mm/el/txt/bin/csr)")),
    }
}

/// Save a graph, picking the format from the file extension.
pub fn save_graph(path: &str, g: &CsrGraph) -> Result<(), String> {
    let p = Path::new(path);
    let ext = p.extension().and_then(|e| e.to_str()).unwrap_or("");
    let file = std::fs::File::create(p).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    match ext {
        "mtx" | "mm" => io::write_matrix_market(&mut w, g).map_err(|e| e.to_string()),
        "el" | "txt" => io::write_edge_list(&mut w, g).map_err(|e| e.to_string()),
        "bin" | "csr" => io::write_binary_csr(&mut w, g).map_err(|e| e.to_string()),
        other => Err(format!("unknown graph extension {other:?}")),
    }
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<String, String> {
    let model = get(flags, "model")?;
    let out = get(flags, "out")?;
    let seed: u64 = get_num(flags, "seed", 1)?;
    let n: usize = get_num(flags, "n", 1 << 16)?;
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    let ef: usize = get_num(flags, "edge-factor", 16)?;
    let g = match model {
        "rmat" => {
            let scale = (usize::BITS - 1 - n.max(2).leading_zeros()).max(4);
            gen::rmat(scale, ef, gen::RmatParams::default(), seed)
        }
        "er" => gen::erdos_renyi(n, n * ef, seed),
        "ba" => gen::barabasi_albert(n, ef.clamp(1, n.saturating_sub(1).max(1)), seed),
        "chung-lu" => {
            let gamma: f64 = get_num(flags, "gamma", 2.3)?;
            gen::suite::scale_free_like(n, ef as f64, gamma, seed)
        }
        "grid" => {
            let side = (n as f64).sqrt().round().max(1.0) as usize;
            gen::grid2d(side, side)
        }
        "torus" => {
            let side = (n as f64).cbrt().round().max(2.0) as usize;
            gen::torus3d(side, side, side)
        }
        other => {
            if let Some(name) = other.strip_prefix("suite:") {
                let kind = gen::suite::PaperGraph::from_name(name)
                    .ok_or_else(|| format!("unknown suite graph {name:?}"))?;
                let divisor: u64 = get_num(flags, "divisor", 128)?;
                kind.generate(divisor, seed)
            } else {
                return Err(format!("unknown model {other:?}"));
            }
        }
    };
    save_graph(out, &g)?;
    Ok(format!(
        "wrote {out}: n={} m={} (model={model}, seed={seed})\n",
        g.num_vertices(),
        g.num_edges()
    ))
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<String, String> {
    let g = load_graph(get(flags, "in")?)?;
    let s = stats::summarize(&g);
    let mut out = String::new();
    let _ = writeln!(out, "vertices        : {}", s.n);
    let _ = writeln!(out, "edges           : {}", s.m);
    let _ = writeln!(out, "avg out-degree  : {:.2}", s.avg_degree);
    let _ = writeln!(out, "max out-degree  : {}", s.max_degree);
    let _ = writeln!(out, "bfs pseudo-diam : {}", s.pseudo_diameter);
    let _ = writeln!(out, "reached from v0 : {}", s.reached_from_0);
    let _ = writeln!(
        out,
        "power-law gamma : {}",
        s.power_law_gamma.map_or("n/a".to_string(), |x| format!("{x:.2}"))
    );
    Ok(out)
}

fn bfs_opts(flags: &HashMap<String, String>) -> Result<BfsOptions, String> {
    let threads: usize = get_num(flags, "threads", 4)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    // `--hybrid` enables the direction-optimizing driver; `--alpha` /
    // `--beta` tune Beamer's switch constants (defaults 14 / 24) and
    // imply `--hybrid`.
    let defaults = HybridPolicy::default();
    let alpha: u64 = get_num(flags, "alpha", defaults.alpha)?;
    let beta: u64 = get_num(flags, "beta", defaults.beta)?;
    if alpha == 0 || beta == 0 {
        return Err("--alpha and --beta must be at least 1".into());
    }
    let hybrid = (has(flags, "hybrid") || has(flags, "alpha") || has(flags, "beta"))
        .then(|| HybridPolicy::with_constants(alpha, beta));
    // `--compaction` enables prefix-sum frontier compaction for dense
    // top-down levels; `--compact-density d` tunes the density divisor
    // (compact when frontier >= n/d) and implies `--compaction`.
    let density: u64 = get_num(flags, "compact-density", CompactionPolicy::default().density_div)?;
    if density == 0 {
        return Err("--compact-density must be at least 1".into());
    }
    let compaction = (has(flags, "compaction") || has(flags, "compact-density"))
        .then_some(CompactionPolicy { density_div: density, force: None });
    Ok(BfsOptions {
        threads,
        record_parents: has(flags, "parents"),
        collect_level_stats: has(flags, "trace"),
        collect_histograms: has(flags, "histograms"),
        hybrid,
        compaction,
        ..BfsOptions::default()
    })
}

fn algo_flag(flags: &HashMap<String, String>, default: Algorithm) -> Result<Algorithm, String> {
    match flags.get("algo") {
        None => Ok(default),
        Some(s) => Algorithm::from_name(s).ok_or_else(|| format!("unknown algorithm {s:?}")),
    }
}

/// The file `--trace OUT.json` names; `--trace` alone names none.
fn trace_path(flags: &HashMap<String, String>) -> Option<&str> {
    flags.get("trace").map(String::as_str).filter(|v| *v != "true")
}

fn cmd_bfs(flags: &HashMap<String, String>) -> Result<String, String> {
    let g = load_graph(get(flags, "in")?)?;
    let algo = algo_flag(flags, Algorithm::Bfswsl)?;
    if has(flags, "sources") && has(flags, "src") {
        return Err("--src and --sources are mutually exclusive".into());
    }
    let mut opts = bfs_opts(flags)?;
    // `--trace` alone prints the per-level table; `--trace OUT.json`
    // additionally arms the flight recorder and writes a
    // chrome://tracing file.
    if trace_path(flags).is_some() {
        opts.flight_recorder = Some(obfs_core::flight::DEFAULT_FLIGHT_CAPACITY);
    }
    if let Some(list) = flags.get("sources") {
        return cmd_bfs_batch(&g, algo, list, &opts, flags);
    }
    let src: u32 = get_num(flags, "src", 0)?;
    if src as usize >= g.num_vertices() {
        return Err(format!("--src {src} out of range (n={})", g.num_vertices()));
    }
    let r = run_bfs(algo, &g, src, &opts);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{algo} from {src}: reached {} of {} vertices, depth {}, {:.3} ms ({} threads)",
        r.reached(),
        g.num_vertices(),
        r.depth(),
        r.stats.traversal_time.as_secs_f64() * 1e3,
        opts.threads
    );
    let t = &r.stats.totals;
    let _ = writeln!(
        out,
        "explored={} edges-scanned={} discovered={} duplicates={} segments={} steals={}/{}",
        t.vertices_explored,
        t.edges_scanned,
        t.vertices_discovered,
        t.duplicate_explorations,
        t.segments_fetched,
        t.steal.success,
        t.steal.attempts
    );
    report_run(&mut out, &r.stats, &opts, flags)?;
    if has(flags, "validate") {
        let ser = serial_bfs(&g, src);
        obfs_core::validate::check_levels(&r, &ser.levels).map_err(|e| e.to_string())?;
        if r.parents.is_some() {
            obfs_core::validate::check_self_consistent(&g, src, &r).map_err(|e| e.to_string())?;
        }
        let _ = writeln!(out, "validated against serial BFS: OK");
    }
    Ok(out)
}

/// The report lines a single-source and a batched `bfs` run share, read
/// off the run's stats: hybrid directions, compacted levels, the
/// per-level table (`--trace`), the latency histogram summary
/// (`--histograms`) and the chrome://tracing file (`--trace OUT.json`).
/// A batched run's levels are those of its union frontier.
fn report_run(
    out: &mut String,
    stats: &RunStats,
    opts: &BfsOptions,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    if opts.hybrid.is_some() {
        let dirs: Vec<&str> = stats.directions.iter().map(|d| d.label()).collect();
        let _ = writeln!(
            out,
            "hybrid directions: {} ({} switch(es))",
            dirs.join(","),
            stats.direction_switches
        );
    }
    if opts.compaction.is_some() {
        let _ = writeln!(out, "compacted levels: {}", stats.compacted_levels);
    }
    if has(flags, "trace") {
        let _ = writeln!(out, "level  dir  cmp  frontier  discovered   time(us)");
        for e in &stats.level_stats {
            let _ = writeln!(
                out,
                "{:>5}  {:>3}  {:>3}  {:>8}  {:>10}  {:>9.1}",
                e.level,
                e.direction.label(),
                if e.compacted { "y" } else { "-" },
                e.frontier,
                e.discovered,
                e.duration.as_secs_f64() * 1e6
            );
        }
    }
    if has(flags, "histograms") {
        match &stats.hists {
            Some(h) => {
                let m = h.merged();
                let _ = writeln!(
                    out,
                    "latency histograms (us; merged across {} workers)",
                    h.workers.len()
                );
                let _ = writeln!(
                    out,
                    "{:<18} {:>9} {:>8} {:>8} {:>8} {:>10}",
                    "metric", "count", "p50", "p90", "p99", "max"
                );
                for (name, hist) in [
                    ("segment-fetch", &m.segment_fetch_us),
                    ("steal-attempt", &m.steal_us),
                    ("retry-burst (n)", &m.fetch_retry_burst),
                    ("barrier-wait", &m.barrier_wait_us),
                ] {
                    let _ = writeln!(
                        out,
                        "{:<18} {:>9} {:>8} {:>8} {:>8} {:>10}",
                        name,
                        hist.count(),
                        hist.percentile(0.50),
                        hist.percentile(0.90),
                        hist.percentile(0.99),
                        hist.max()
                    );
                }
            }
            None => {
                let _ = writeln!(out, "no histograms collected (serial run)");
            }
        }
    }
    if let Some(path) = trace_path(flags) {
        match &stats.flight {
            Some(rec) => {
                let json = obfs_core::flight::to_chrome_trace(rec);
                std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
                let _ = writeln!(
                    out,
                    "wrote trace {path}: {} events ({} dropped) across {} workers",
                    rec.total_events(),
                    rec.dropped(),
                    rec.workers.len()
                );
            }
            None => {
                let _ = writeln!(out, "no trace written: serial BFS runs no workers to record");
            }
        }
    }
    Ok(())
}

/// `bfs --sources a,b,c`: one batched bit-parallel traversal answering
/// every listed source (up to 64; see `obfs_core::batch`), with the
/// same report and the same validation contract per query as a
/// single-source run.
fn cmd_bfs_batch(
    g: &CsrGraph,
    algo: Algorithm,
    list: &str,
    opts: &BfsOptions,
    flags: &HashMap<String, String>,
) -> Result<String, String> {
    let sources: Vec<u32> = list
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad source {s:?} in --sources")))
        .collect::<Result<_, _>>()?;
    if sources.is_empty() || sources.len() > obfs_core::MAX_BATCH {
        return Err(format!(
            "--sources takes 1..={} comma-separated vertices, got {}",
            obfs_core::MAX_BATCH,
            sources.len()
        ));
    }
    for &s in &sources {
        if s as usize >= g.num_vertices() {
            return Err(format!("source {s} out of range (n={})", g.num_vertices()));
        }
    }
    let b = obfs_core::run_batch(algo, g, &sources, opts);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{algo} batched x{}: {} union levels, {:.3} ms ({} threads)",
        sources.len(),
        b.stats.levels,
        b.stats.traversal_time.as_secs_f64() * 1e3,
        opts.threads
    );
    for q in &b.queries {
        let _ =
            writeln!(out, "  src {:>8}: reached {} of {}", q.source, q.reached(), g.num_vertices());
    }
    report_run(&mut out, &b.stats, opts, flags)?;
    if has(flags, "validate") {
        for q in &b.queries {
            let ser = serial_bfs(g, q.source);
            let r = q.as_bfs_result(&b.stats);
            obfs_core::validate::check_levels(&r, &ser.levels).map_err(|e| e.to_string())?;
            if r.parents.is_some() {
                obfs_core::validate::check_self_consistent(g, q.source, &r)
                    .map_err(|e| e.to_string())?;
            }
        }
        let _ = writeln!(out, "validated {} queries against serial BFS: OK", b.queries.len());
    }
    Ok(out)
}

/// `engine --in FILE ...`: drive a closed-loop batch of BFS queries
/// through the resilient multi-query engine (obfs-engine) and report
/// throughput, latency percentiles, and the shedding/retry counters.
/// Sources are drawn from a seeded PRNG so runs are reproducible;
/// queries are submitted in bursts of `--burst` so an undersized
/// `--capacity` demonstrably sheds the overflow instead of queueing it.
fn cmd_engine(flags: &HashMap<String, String>) -> Result<String, String> {
    use obfs_engine::{Engine, EngineConfig, Query, QueryStatus, SubmitError};
    let g = load_graph(get(flags, "in")?)?;
    let n = g.num_vertices() as u32;
    let algo = algo_flag(flags, Algorithm::Bfswsl)?;
    let threads: usize = get_num(flags, "threads", 4)?;
    let capacity: usize = get_num(flags, "capacity", 16)?;
    let queries: usize = get_num(flags, "queries", 32)?;
    let burst: usize = get_num(flags, "burst", capacity)?;
    let seed: u64 = get_num(flags, "seed", 1)?;
    let deadline_ms: u64 = get_num(flags, "deadline-ms", 0)?;
    let stats_interval: u64 = get_num(flags, "stats-interval", 0)?;
    if threads == 0 || capacity == 0 || queries == 0 || burst == 0 {
        return Err("--threads, --capacity, --queries and --burst must be at least 1".into());
    }
    let cfg = EngineConfig {
        threads,
        capacity,
        default_deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        ..Default::default()
    };
    let engine = Engine::new(std::sync::Arc::new(g), cfg);
    let metrics_server = match flags.get("metrics-addr") {
        Some(addr) => {
            let srv = obfs_telemetry::MetricsServer::start(
                std::sync::Arc::clone(engine.telemetry().registry()),
                addr,
            )
            .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
            eprintln!("metrics: serving GET /metrics and /metrics.json on http://{}", srv.addr());
            Some(srv)
        }
        None => None,
    };
    // Periodic stderr stats lines: a plain channel as the stop signal so
    // the reporter thread needs no atomics.
    let (stats_stop_tx, stats_stop_rx) = std::sync::mpsc::channel::<()>();
    let stats_thread = (stats_interval > 0).then(|| {
        let tele = std::sync::Arc::clone(engine.telemetry());
        std::thread::spawn(move || loop {
            use std::sync::mpsc::RecvTimeoutError;
            match stats_stop_rx.recv_timeout(std::time::Duration::from_secs(stats_interval)) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {
                    let st = tele.stats();
                    let snap = tele.registry().snapshot();
                    eprintln!(
                        "engine-stats: submitted={} completed={} degraded={} shed={} \
                         in-flight={} queue-depth={} retries={}",
                        st.submitted,
                        st.completed,
                        st.degraded,
                        st.shed,
                        snap.gauge("obfs_engine_in_flight").unwrap_or(0),
                        snap.gauge("obfs_engine_queue_depth").unwrap_or(0),
                        st.retries
                    );
                }
            }
        })
    });
    let mut rng = obfs_util::Xoshiro256StarStar::new(seed);
    let mut lat_us = obfs_util::LogHistogram::new();
    let mut shed = 0u64;
    let clock = engine.config().clock.clone();
    let t0 = clock.now_ns();
    let mut submitted = 0usize;
    while submitted < queries {
        let want = burst.min(queries - submitted);
        let mut handles = Vec::with_capacity(want);
        for _ in 0..want {
            let src = (rng.next_u64() % u64::from(n)) as u32;
            match engine.submit(Query::new(algo, src)) {
                Ok(h) => handles.push(h),
                Err(SubmitError::Overloaded) => shed += 1,
                Err(e) => return Err(format!("engine rejected query: {e}")),
            }
            submitted += 1;
        }
        for h in handles {
            let resp = h.wait();
            lat_us.record(resp.total_ns / 1_000);
            if let QueryStatus::Failed(m) = &resp.status {
                return Err(format!("query {} failed: {m}", resp.id));
            }
        }
    }
    let elapsed_s = (clock.now_ns() - t0) as f64 / 1e9;
    drop(stats_stop_tx);
    if let Some(t) = stats_thread {
        let _ = t.join();
    }
    if let Some(path) = flags.get("metrics-out") {
        let json = engine.telemetry().registry().to_json().render();
        std::fs::write(path, json + "\n").map_err(|e| format!("write {path}: {e}"))?;
    }
    drop(metrics_server); // joins the responder thread before reporting
    let st = engine.stats();
    let done = st.completed + st.degraded + st.cancelled + st.deadline_exceeded;
    let qps = if elapsed_s > 0.0 { done as f64 / elapsed_s } else { 0.0 };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "engine: {algo} x{queries} queries (burst {burst}, capacity {capacity}, {threads} threads)"
    );
    let _ = writeln!(
        out,
        "completed={} degraded={} cancelled={} deadline-exceeded={} shed={} retries={} \
         batched-runs={} coalesced={}",
        st.completed,
        st.degraded,
        st.cancelled,
        st.deadline_exceeded,
        shed,
        st.retries,
        st.batched_runs,
        st.queries_coalesced
    );
    let _ = writeln!(
        out,
        "throughput {qps:.1} queries/s; latency(us) p50={} p90={} p99={} max={}",
        lat_us.percentile(0.50),
        lat_us.percentile(0.90),
        lat_us.percentile(0.99),
        lat_us.max()
    );
    Ok(out)
}

fn cmd_components(flags: &HashMap<String, String>) -> Result<String, String> {
    let g = load_graph(get(flags, "in")?)?;
    let algo = algo_flag(flags, Algorithm::Bfscl)?;
    let opts = bfs_opts(flags)?;
    let c = obfs_apps::connected_components(&g, algo, &opts);
    let mut sizes = c.sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let shown = sizes.len().min(10);
    Ok(format!(
        "{} component(s); largest {}; top sizes {:?}{}\n",
        c.count,
        c.giant_size(),
        &sizes[..shown],
        if sizes.len() > shown { " ..." } else { "" }
    ))
}

fn cmd_bipartite(flags: &HashMap<String, String>) -> Result<String, String> {
    let g = load_graph(get(flags, "in")?)?;
    let opts = bfs_opts(flags)?;
    match obfs_apps::bipartition(&g, Algorithm::Bfscl, &opts) {
        obfs_apps::Bipartition::Bipartite { side } => {
            let zeros = side.iter().filter(|&&s| s == 0).count();
            Ok(format!("bipartite: sides {} / {}\n", zeros, side.len() - zeros))
        }
        obfs_apps::Bipartition::OddCycle { u, v } => {
            Ok(format!("NOT bipartite: odd cycle through edge ({u}, {v})\n"))
        }
    }
}

fn cmd_bc(flags: &HashMap<String, String>) -> Result<String, String> {
    let g = load_graph(get(flags, "in")?)?;
    let samples: usize = get_num(flags, "samples", 16)?;
    let seed: u64 = get_num(flags, "seed", 1)?;
    let top: usize = get_num(flags, "top", 10)?;
    let bc = obfs_apps::betweenness_centrality(&g, samples, seed);
    let mut ranked: Vec<(usize, f64)> = bc.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let mut out = format!("approximate betweenness centrality ({samples} pivots):\n");
    for (v, score) in ranked.into_iter().take(top) {
        let _ = writeln!(out, "  v{v:<8} {score:>14.1}  (degree {})", g.degree(v as u32));
    }
    Ok(out)
}

/// `analyze TRACE.json [--json]`: re-read an exported chrome-trace file
/// and print the deterministic post-mortem profile (human table by
/// default, machine JSON with `--json`). Works on any trace written by
/// `bfs --trace OUT.json` — same profile, byte-for-byte, on every
/// machine and every run.
fn cmd_analyze(rest: &[String]) -> Result<String, String> {
    let mut path: Option<&str> = None;
    let mut json = false;
    for a in rest {
        match a.as_str() {
            "--json" => json = true,
            other if !other.starts_with("--") && path.is_none() => path = Some(other),
            other => return Err(format!("analyze: unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or("analyze: missing trace file argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let rec = obfs_core::flight::parse_chrome_trace(&text)?;
    let profile = obfs_core::flight::analysis::Profile::from_recording(&rec);
    if json {
        Ok(profile.to_json().render() + "\n")
    } else {
        Ok(profile.render_table())
    }
}

fn cmd_model(flags: &HashMap<String, String>) -> Result<String, String> {
    use obfs_core::model::{check_all, Explorer, DEFAULT_BOUNDS};
    let bounds = Explorer {
        max_schedules: get_num(flags, "schedules", DEFAULT_BOUNDS.max_schedules)?,
        max_steps: get_num(flags, "steps", DEFAULT_BOUNDS.max_steps)?,
    };
    let report = check_all(bounds);
    let rendered = report.render();
    if report.passed() {
        Ok(rendered)
    } else {
        // Nonzero exit: a protocol invariant broke or a seeded bug
        // escaped detection. The full report is the error message.
        Err(format!("model check failed\n{rendered}"))
    }
}

fn cmd_convert(flags: &HashMap<String, String>) -> Result<String, String> {
    let g = load_graph(get(flags, "in")?)?;
    let out = get(flags, "out")?;
    save_graph(out, &g)?;
    Ok(format!("converted to {out}: n={} m={}\n", g.num_vertices(), g.num_edges()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("obfs-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn parse_flags_mixed() {
        let f = parse_flags(&strs(&["--n", "100", "--validate", "--algo", "BFS_CL"])).unwrap();
        assert_eq!(f["n"], "100");
        assert_eq!(f["validate"], "true");
        assert_eq!(f["algo"], "BFS_CL");
    }

    #[test]
    fn parse_flags_rejects_bad_shape() {
        assert!(parse_flags(&strs(&["n", "100"])).is_err());
        assert!(parse_flags(&strs(&["--n", "1", "--n", "2"])).is_err());
    }

    #[test]
    fn gen_stats_bfs_roundtrip() {
        let path = tmp("g.bin");
        let rep = dispatch(&strs(&[
            "gen",
            "--model",
            "er",
            "--n",
            "500",
            "--edge-factor",
            "6",
            "--out",
            &path,
        ]))
        .unwrap();
        assert!(rep.contains("n=500"));
        let rep = dispatch(&strs(&["stats", "--in", &path])).unwrap();
        assert!(rep.contains("vertices        : 500"));
        let rep = dispatch(&strs(&[
            "bfs",
            "--in",
            &path,
            "--algo",
            "BFS_WSL",
            "--threads",
            "3",
            "--validate",
            "--parents",
            "--trace",
        ]))
        .unwrap();
        assert!(rep.contains("validated against serial BFS: OK"), "{rep}");
        assert!(rep.contains("level  dir  cmp  frontier"), "trace table missing: {rep}");
    }

    #[test]
    fn bfs_sources_flag_runs_a_validated_batch() {
        let path = tmp("batch.bin");
        dispatch(&strs(&[
            "gen",
            "--model",
            "er",
            "--n",
            "600",
            "--edge-factor",
            "7",
            "--out",
            &path,
        ]))
        .unwrap();
        let rep = dispatch(&strs(&[
            "bfs",
            "--in",
            &path,
            "--algo",
            "BFS_WSL",
            "--threads",
            "3",
            "--sources",
            "0,17,99,300",
            "--parents",
            "--validate",
        ]))
        .unwrap();
        assert!(rep.contains("batched x4"), "{rep}");
        assert!(rep.contains("validated 4 queries against serial BFS: OK"), "{rep}");
        // Errors: mixed flags, bad list entries, out-of-range sources.
        assert!(
            dispatch(&strs(&["bfs", "--in", &path, "--src", "1", "--sources", "0,1",])).is_err()
        );
        assert!(dispatch(&strs(&["bfs", "--in", &path, "--sources", "0,zebra"])).is_err());
        assert!(dispatch(&strs(&["bfs", "--in", &path, "--sources", "999999"])).is_err());
    }

    /// A batched run honors the report flags of a single-source one:
    /// directions, the union-level table, histograms and the trace file.
    #[test]
    fn bfs_sources_flag_reports_trace_and_histograms() {
        let path = tmp("batchtrace.bin");
        dispatch(&strs(&[
            "gen",
            "--model",
            "er",
            "--n",
            "400",
            "--edge-factor",
            "20",
            "--out",
            &path,
        ]))
        .unwrap();
        let trace = tmp("batchtrace.json");
        let rep = dispatch(&strs(&[
            "bfs",
            "--in",
            &path,
            "--algo",
            "BFS_CL",
            "--threads",
            "2",
            "--sources",
            "0,17,99",
            "--hybrid",
            "--trace",
            &trace,
            "--histograms",
            "--validate",
        ]))
        .unwrap();
        assert!(rep.contains("validated 3 queries against serial BFS: OK"), "{rep}");
        assert!(rep.contains("hybrid directions:"), "{rep}");
        assert!(rep.contains("level  dir  cmp  frontier"), "level table missing: {rep}");
        assert!(rep.lines().any(|l| l.contains("  bu  ")), "no bottom-up union level: {rep}");
        assert!(rep.contains("latency histograms"), "{rep}");
        assert!(rep.contains("wrote trace"), "{rep}");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.starts_with("{\"displayTimeUnit\""), "not a chrome trace: {body:.40}");
    }

    #[test]
    fn hybrid_flags_validate_and_report_directions() {
        let path = tmp("hyb.bin");
        dispatch(&strs(&[
            "gen",
            "--model",
            "er",
            "--n",
            "400",
            "--edge-factor",
            "20",
            "--out",
            &path,
        ]))
        .unwrap();
        let rep = dispatch(&strs(&[
            "bfs",
            "--in",
            &path,
            "--algo",
            "BFS_CL",
            "--threads",
            "2",
            "--hybrid",
            "--validate",
            "--parents",
            "--trace",
        ]))
        .unwrap();
        assert!(rep.contains("validated against serial BFS: OK"), "{rep}");
        assert!(rep.contains("hybrid directions:"), "{rep}");
        // Dense ER at edge-factor 20 must flip bottom-up at least once.
        assert!(rep.contains("bu"), "no bottom-up level reported: {rep}");
        // --alpha alone implies --hybrid.
        let rep = dispatch(&strs(&[
            "bfs",
            "--in",
            &path,
            "--threads",
            "2",
            "--alpha",
            "1000000",
            "--validate",
        ]))
        .unwrap();
        assert!(rep.contains("hybrid directions:"), "{rep}");
        // Bad knobs are rejected.
        assert!(dispatch(&strs(&["bfs", "--in", &path, "--alpha", "0"])).is_err());
        assert!(dispatch(&strs(&["bfs", "--in", &path, "--beta", "nope"])).is_err());
    }

    #[test]
    fn compaction_flags_validate_and_mark_levels() {
        let path = tmp("cmp.bin");
        dispatch(&strs(&[
            "gen",
            "--model",
            "er",
            "--n",
            "600",
            "--edge-factor",
            "8",
            "--out",
            &path,
        ]))
        .unwrap();
        let rep = dispatch(&strs(&[
            "bfs",
            "--in",
            &path,
            "--algo",
            "BFS_CL",
            "--threads",
            "3",
            "--compaction",
            "--validate",
            "--parents",
            "--trace",
        ]))
        .unwrap();
        assert!(rep.contains("validated against serial BFS: OK"), "{rep}");
        // Dense ER levels must actually compact, and the trace table
        // must mark them in the cmp column.
        let compacted: u64 = rep
            .split("compacted levels: ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("compacted-levels counter in report");
        assert!(compacted > 0, "dense ER run should compact: {rep}");
        assert!(rep.lines().any(|l| l.contains("  y  ")), "no compacted row: {rep}");
        // --compact-density alone implies --compaction; an absurdly high
        // divisor compacts every non-empty level.
        let rep = dispatch(&strs(&[
            "bfs",
            "--in",
            &path,
            "--threads",
            "2",
            "--compact-density",
            "1000000",
            "--validate",
        ]))
        .unwrap();
        assert!(rep.contains("compacted levels: "), "{rep}");
        // Bad knobs are rejected.
        assert!(dispatch(&strs(&["bfs", "--in", &path, "--compact-density", "0"])).is_err());
        assert!(dispatch(&strs(&["bfs", "--in", &path, "--compact-density", "x"])).is_err());
    }

    #[test]
    fn bfs_trace_flag_with_path_writes_or_explains() {
        let path = tmp("tracegraph.bin");
        dispatch(&strs(&[
            "gen",
            "--model",
            "er",
            "--n",
            "300",
            "--edge-factor",
            "5",
            "--out",
            &path,
        ]))
        .unwrap();
        let trace = tmp("trace.json");
        let rep =
            dispatch(&strs(&["bfs", "--in", &path, "--threads", "2", "--trace", &trace])).unwrap();
        assert!(rep.contains("level  dir  cmp  frontier"), "{rep}");
        assert!(rep.contains("wrote trace"), "{rep}");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.starts_with("{\"displayTimeUnit\""), "not a chrome trace: {body:.40}");
        assert!(body.contains("\"traceEvents\""));
    }

    #[test]
    fn bfs_histograms_flag_prints_summary() {
        let path = tmp("hist.bin");
        dispatch(&strs(&[
            "gen",
            "--model",
            "er",
            "--n",
            "400",
            "--edge-factor",
            "8",
            "--out",
            &path,
        ]))
        .unwrap();
        let rep = dispatch(&strs(&[
            "bfs",
            "--in",
            &path,
            "--algo",
            "BFS_WSL",
            "--threads",
            "3",
            "--histograms",
            "--validate",
        ]))
        .unwrap();
        assert!(rep.contains("latency histograms"), "{rep}");
        assert!(rep.contains("segment-fetch"), "{rep}");
        assert!(rep.contains("barrier-wait"), "{rep}");
        assert!(rep.contains("validated against serial BFS: OK"), "{rep}");
        // Serial runs have no worker pool, hence no histograms.
        let rep =
            dispatch(&strs(&["bfs", "--in", &path, "--algo", "sbfs", "--histograms"])).unwrap();
        assert!(rep.contains("no histograms collected"), "{rep}");
    }

    #[test]
    fn analyze_profiles_a_trace_deterministically() {
        // Hand-write a recording, export it, analyze it both ways.
        use obfs_core::flight::{kind, to_chrome_trace, FlightEvent, FlightRecording, RingDump};
        let ev = |ts_us, kind, level, a, b| FlightEvent { ts_us, kind, level, a, b };
        let rec = FlightRecording {
            workers: vec![RingDump {
                events: vec![
                    ev(0, kind::WORKER_BEGIN, 0, 0, 0),
                    ev(5, kind::LEVEL_START, 0, 0, 0),
                    ev(20, kind::SEGMENT_FETCH, 0, 0, 8),
                    ev(30, kind::LEVEL_END, 0, 0, 0),
                    ev(31, kind::BARRIER_ENTER, 0, 0, 0),
                    ev(40, kind::BARRIER_EXIT, 0, 1, 0),
                    ev(41, kind::WORKER_END, 0, 0, 0),
                ],
                dropped: 2,
            }],
        };
        let trace = tmp("analyze.json");
        std::fs::write(&trace, to_chrome_trace(&rec)).unwrap();
        let table = dispatch(&strs(&["analyze", &trace])).unwrap();
        assert!(table.contains("per-worker utilization"), "{table}");
        assert!(table.contains("dropped: 2"), "{table}");
        let j1 = dispatch(&strs(&["analyze", &trace, "--json"])).unwrap();
        let j2 = dispatch(&strs(&["analyze", &trace, "--json"])).unwrap();
        assert_eq!(j1, j2, "profile must be byte-identical across runs");
        assert!(j1.contains("\"schema\":\"obfs-profile-v1\""), "{j1}");
        // Errors: missing file, missing arg, stray flag.
        assert!(dispatch(&strs(&["analyze"])).is_err());
        assert!(dispatch(&strs(&["analyze", "/nonexistent.json"])).is_err());
        assert!(dispatch(&strs(&["analyze", &trace, "--bogus"])).is_err());
    }

    #[test]
    fn components_and_bipartite_commands() {
        let path = tmp("grid.mtx");
        dispatch(&strs(&["gen", "--model", "grid", "--n", "100", "--out", &path])).unwrap();
        let rep = dispatch(&strs(&["components", "--in", &path])).unwrap();
        assert!(rep.contains("1 component(s)"), "{rep}");
        let rep = dispatch(&strs(&["bipartite", "--in", &path])).unwrap();
        assert!(rep.starts_with("bipartite"), "{rep}");
    }

    #[test]
    fn bc_command_ranks_hub_first() {
        let path = tmp("star.el");
        // A star via the suite path is overkill; write an edge list.
        let g = gen::star(50);
        save_graph(&path, &g).unwrap();
        let rep = dispatch(&strs(&["bc", "--in", &path, "--samples", "10", "--top", "1"])).unwrap();
        assert!(rep.contains("v0"), "hub must rank first: {rep}");
    }

    #[test]
    fn convert_between_formats() {
        let a = tmp("conv.el");
        let b = tmp("conv.mtx");
        dispatch(&strs(&["gen", "--model", "torus", "--n", "64", "--out", &a])).unwrap();
        let rep = dispatch(&strs(&["convert", "--in", &a, "--out", &b])).unwrap();
        assert!(rep.contains("converted"));
        let g1 = load_graph(&a).unwrap();
        let g2 = load_graph(&b).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn suite_model_and_errors() {
        let path = tmp("wiki.bin");
        let rep = dispatch(&strs(&[
            "gen",
            "--model",
            "suite:wikipedia",
            "--divisor",
            "512",
            "--out",
            &path,
        ]))
        .unwrap();
        assert!(rep.contains("wrote"));
        assert!(dispatch(&strs(&["gen", "--model", "bogus", "--out", &path])).is_err());
        assert!(dispatch(&strs(&["gen", "--model", "er", "--n", "0", "--out", &path])).is_err());
        assert!(dispatch(&strs(&["bfs", "--in", &path, "--threads", "0"])).is_err());
        assert!(dispatch(&strs(&["bogus-command"])).is_err());
        assert!(dispatch(&strs(&["bfs", "--in", &path, "--algo", "nope"])).is_err());
        assert!(dispatch(&strs(&["bfs", "--in", &path, "--src", "999999999"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn engine_command_runs_a_batch() {
        let path = tmp("engine.bin");
        dispatch(&strs(&[
            "gen",
            "--model",
            "er",
            "--n",
            "400",
            "--edge-factor",
            "6",
            "--out",
            &path,
        ]))
        .unwrap();
        let rep = dispatch(&strs(&[
            "engine",
            "--in",
            &path,
            "--algo",
            "BFS_CL",
            "--threads",
            "2",
            "--queries",
            "6",
            "--capacity",
            "4",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(rep.contains("engine: BFS_CL x6 queries"), "{rep}");
        assert!(rep.contains("completed=6"), "{rep}");
        assert!(rep.contains("shed=0"), "{rep}");
        assert!(rep.contains("throughput"), "{rep}");
        // Bad knobs are rejected.
        assert!(dispatch(&strs(&["engine", "--in", &path, "--capacity", "0"])).is_err());
        assert!(dispatch(&strs(&["engine", "--in", &path, "--queries", "0"])).is_err());
    }

    #[test]
    fn engine_command_sheds_bursts_beyond_capacity() {
        let path = tmp("engine-shed.bin");
        dispatch(&strs(&[
            "gen",
            "--model",
            "er",
            "--n",
            "300",
            "--edge-factor",
            "5",
            "--out",
            &path,
        ]))
        .unwrap();
        // Burst 8 into capacity 2: at least 6 of the first burst must be
        // shed at the door (the gate never queues beyond capacity).
        let rep = dispatch(&strs(&[
            "engine",
            "--in",
            &path,
            "--threads",
            "2",
            "--queries",
            "8",
            "--capacity",
            "2",
            "--burst",
            "8",
        ]))
        .unwrap();
        let shed: u64 = rep
            .split("shed=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("shed counter in report");
        assert!(shed >= 6, "capacity 2 must shed most of a burst of 8: {rep}");
    }

    #[test]
    fn help_prints_usage() {
        let rep = dispatch(&strs(&["help"])).unwrap();
        assert!(rep.contains("usage: obfs"));
    }
}
