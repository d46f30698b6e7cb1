//! Library workloads: sequential `BfsRunner::run_with_transpose` calls,
//! timed from outside around each call.

use crate::metrics::{Metric, Sheet, END_TO_END, PER_LAYER, RAW};
use crate::oracle::{digest, Oracle};
use crate::stats::{harmonic_rate, hist_tail, ratio, Samples, Tally};
use crate::trace::Tracer;
use crate::workload::{derive, ms, peak_rss_mb, stream, Config, Run, Spec, THREADS};
use obfs_core::{
    Algorithm, BfsOptions, BfsResult, BfsRunner, CompactionPolicy, Direction, HybridPolicy,
    KernelChoice, ScanBackend,
};
use obfs_graph::stats::sample_sources;
use obfs_graph::{CsrGraph, VertexId};
use obfs_util::{Json, LogHistogram};
use std::time::{Duration, Instant};

/// Everything one set-up builds.
struct Setup {
    graph: CsrGraph,
    transpose: CsrGraph,
    runner: BfsRunner,
    keys: Vec<VertexId>,
}

/// Durations of one set-up's phases.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    build: Duration,
    transpose: Duration,
    spawn: Duration,
    total: Duration,
}

fn options(traced: bool) -> BfsOptions {
    BfsOptions {
        threads: THREADS,
        hybrid: Some(HybridPolicy::default()),
        compaction: Some(CompactionPolicy::default()),
        // The default `KernelChoice::Auto` times both scan backends once
        // per process, and on a noisy host that choice flips from one
        // process to the next; Scalar makes deep-sparse's bottom-up levels
        // about 25% slower, so runs came out bimodal. Pinning the backend
        // Auto falls back to on a tie keeps runs comparable.
        kernel: KernelChoice::Forced(ScanBackend::Wordwise),
        collect_level_stats: traced,
        collect_histograms: traced,
        ..Default::default()
    }
}

/// Build the graph, its transpose and the pool, pick the keys, and warm
/// up; spans go to `tracer` when one is given.
fn set_up(
    spec: &Spec,
    algo: Algorithm,
    seed: u64,
    mut tracer: Option<(&mut Tracer, u64)>,
) -> (Setup, SetupTimes) {
    let t0 = Instant::now();
    let graph = spec.graph.generate(seed);
    let t1 = Instant::now();
    let transpose = graph.transpose();
    let t2 = Instant::now();
    let runner = BfsRunner::new(THREADS);
    let t3 = Instant::now();
    let keys = sample_sources(&graph, spec.keys, derive(seed, stream::KEYS));
    let opts = options(false);
    for i in 0..spec.warmup {
        std::hint::black_box(runner.run_with_transpose(
            algo,
            &graph,
            Some(&transpose),
            keys[i % keys.len()],
            &opts,
        ));
    }
    let t4 = Instant::now();
    if let Some((tr, parent)) = tracer.as_mut() {
        let s = tr.record(Some(*parent), "setup", t0, t4);
        tr.record(Some(s), "graph.build", t0, t1);
        tr.record(Some(s), "graph.transpose", t1, t2);
        tr.record(Some(s), "runtime.spawn", t2, t3);
        tr.record(Some(s), "warmup", t3, t4);
    }
    let times = SetupTimes {
        build: t1 - t0,
        transpose: t2 - t1,
        spawn: t3 - t2,
        total: t4 - t0,
    };
    (
        Setup {
            graph,
            transpose,
            runner,
            keys,
        },
        times,
    )
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Call {
    wall: Duration,
    traversal: Duration,
    input_edges: u64,
}

/// Run `algo` from `src` and check the answer; the wall time covers the
/// public call only.
fn call(
    s: &Setup,
    algo: Algorithm,
    src: VertexId,
    opts: &BfsOptions,
    oracle: &Oracle,
    tally: &mut Tally,
) -> (Call, BfsResult) {
    let t = Instant::now();
    let r = s
        .runner
        .run_with_transpose(algo, &s.graph, Some(&s.transpose), src, opts);
    let wall = t.elapsed();
    tally.attempted += 1;
    if !(r.stats.outcome.is_complete() && oracle.check(src, digest(&r.levels))) {
        tally.wrong += 1;
    }
    let c = Call {
        wall,
        traversal: r.stats.traversal_time,
        input_edges: oracle.expected(src).input_edges,
    };
    (c, r)
}

pub fn run(spec: &Spec, algo: Algorithm, cfg: &Config) -> Run {
    let mut tracer = cfg.trace.then(Tracer::new);
    let start = Instant::now();
    let root = tracer.as_mut().map_or(0, Tracer::reserve);

    // Set up `setup_reps` times, each from nothing (the previous set-up is
    // dropped first so peak RSS reflects one).
    let mut times = Vec::new();
    let mut setup = None;
    for _ in 0..spec.setup_reps {
        drop(setup.take());
        let (s, t) = set_up(spec, algo, cfg.seed, tracer.as_mut().map(|t| (t, root)));
        times.push(t);
        setup = Some(s);
    }
    let s = setup.expect("at least one set-up");

    // Timed loop, tracing off. Each block is one serial reference run on a
    // key, then `spec.block` calls on the same key: every call is compared
    // with a serial run made moments before on the same input, which
    // cancels the host's drift in speed.
    let opts = options(false);
    let mut oracle = Oracle::default();
    let mut tally = Tally::default();
    let (mut calls, mut vs_sbfs, mut speedups) = (Vec::new(), Vec::new(), Vec::new());
    let loop_start = Instant::now();
    for b in 0.. {
        // Stop only after whole cycles of keys, so every key weighs the same.
        let cycle_done = b % s.keys.len() == 0;
        if cycle_done
            && calls.len() >= spec.min_samples
            && loop_start.elapsed().as_secs_f64() >= cfg.seconds
        {
            break;
        }
        let src = s.keys[b % s.keys.len()];
        let reference = oracle.measure(&s.graph, src);
        let mut busy = 0.0;
        for _ in 0..spec.block {
            let (c, _) = call(&s, algo, src, &opts, &oracle, &mut tally);
            busy += c.wall.as_secs_f64();
            vs_sbfs.push(c.wall.as_secs_f64() / reference.secs);
            calls.push(c);
        }
        speedups.push(spec.block as f64 * reference.secs / busy);
    }
    if let Some(tr) = tracer.as_mut() {
        let id = tr.record(Some(root), "timed", loop_start, Instant::now());
        tr.annotate(id, vec![("calls".into(), Json::Num(calls.len() as f64))]);
    }
    let timed_fail_frac = tally.fail_frac();
    let rss = peak_rss_mb();
    // The traced pass may reach keys a short timed loop did not.
    oracle.cover(&s.graph, &s.keys);

    let mut e2e = Sheet::new(&END_TO_END);
    e2e.median("speedup_vs_sbfs", &Samples::new(speedups));
    let vs_sbfs = Samples::new(vs_sbfs);
    e2e.median("latency_p50_vs_sbfs", &vs_sbfs);
    e2e.percentile("latency_p95_vs_sbfs", &vs_sbfs, 0.95);
    e2e.median(
        "setup_s",
        &Samples::new(times.iter().map(|t| t.total.as_secs_f64()).collect()),
    );
    e2e.value("peak_rss_mb", rss);

    let walls = Samples::new(calls.iter().map(|c| ms(c.wall)).collect());
    let mut raw = Sheet::new(&RAW);
    let teps: Vec<(u64, f64)> = calls
        .iter()
        .map(|c| (c.input_edges, c.wall.as_secs_f64()))
        .collect();
    raw.over("teps", harmonic_rate(&teps), calls.len());
    let busy: f64 = calls.iter().map(|c| c.wall.as_secs_f64()).sum();
    raw.over("qps", ratio(calls.len() as f64, busy), calls.len());
    raw.median("latency_ms_p50", &walls);
    raw.percentile("latency_ms_p95", &walls, 0.95);

    let per_layer = tracer.as_mut().map(|tr| {
        let layers = traced_pass(
            spec, algo, &s, &oracle, &calls, &times, tr, root, &mut tally,
        );
        tr.record_as(root, None, "workload", start, Instant::now());
        tr.annotate(
            root,
            vec![
                ("workload".into(), Json::Str(spec.name.into())),
                ("seed".into(), Json::Num(cfg.seed as f64)),
            ],
        );
        layers
    });
    Run {
        tally,
        timed_fail_frac,
        end_to_end: e2e.finish(),
        raw: raw.finish(),
        per_layer,
        tracer,
    }
}

/// Per-level time of one traced call, split by how the level ran.
#[derive(Debug, Default, Clone, Copy)]
struct LevelSplit {
    topdown_ms: f64,
    bottomup_ms: f64,
    compact_ms: f64,
}

fn level_split(r: &BfsResult) -> LevelSplit {
    let mut s = LevelSplit::default();
    for l in &r.stats.level_stats {
        let t = ms(l.duration);
        match (l.direction, l.compacted) {
            (Direction::BottomUp, _) => s.bottomup_ms += t,
            (Direction::TopDown, true) => s.compact_ms += t,
            (Direction::TopDown, false) => s.topdown_ms += t,
        }
    }
    s
}

fn query_args(i: usize, src: VertexId, c: &Call, r: &BfsResult) -> Vec<(String, Json)> {
    let num = |x: f64| Json::Num(x);
    let levels = r
        .stats
        .level_stats
        .iter()
        .map(|l| {
            Json::Obj(vec![
                ("dir".into(), Json::Str(l.direction.label().into())),
                ("compacted".into(), Json::Bool(l.compacted)),
                ("ms".into(), num(ms(l.duration))),
                ("frontier".into(), num(l.frontier as f64)),
            ])
        })
        .collect();
    let t = &r.stats.totals;
    let counters = [
        ("edges_scanned", t.edges_scanned),
        ("vertices_explored", t.vertices_explored),
        ("duplicate_explorations", t.duplicate_explorations),
        ("segments_fetched", t.segments_fetched),
        ("fetch_retries", t.fetch_retries),
        ("stale_slot_aborts", t.stale_slot_aborts),
        ("steal_attempts", t.steal.attempts),
        ("steal_success", t.steal.success),
        ("direction_switches", u64::from(r.stats.direction_switches)),
        ("compacted_levels", u64::from(r.stats.compacted_levels)),
        ("input_edges", c.input_edges),
    ];
    vec![
        ("call".into(), num(i as f64)),
        ("source".into(), num(f64::from(src))),
        ("traversal_ms".into(), num(ms(c.traversal))),
        ("levels".into(), Json::Arr(levels)),
        (
            "counters".into(),
            Json::Obj(
                counters
                    .iter()
                    .map(|&(k, v)| (k.to_string(), num(v as f64)))
                    .collect(),
            ),
        ),
    ]
}

/// Repeat the first `spec.traced` calls with level stats and histograms
/// on, and derive the per-layer sheet.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    spec: &Spec,
    algo: Algorithm,
    s: &Setup,
    oracle: &Oracle,
    timed: &[Call],
    times: &[SetupTimes],
    tr: &mut Tracer,
    root: u64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let opts = options(true);
    let pass_start = Instant::now();
    let pass = tr.reserve();
    let (mut barrier, mut fetch, mut steal) = (
        LogHistogram::new(),
        LogHistogram::new(),
        LogHistogram::new(),
    );
    let mut barrier_sum_us = 0.0;
    let mut extract = Vec::new();
    let mut splits = Vec::new();
    let (mut walls, mut levels, mut switches, mut compacted) = (Vec::new(), 0u64, 0u64, 0u64);
    let mut t = obfs_core::ThreadStats::default();
    let mut input_edges = 0u64;
    for i in 0..spec.traced {
        let src = s.keys[i % s.keys.len()];
        let q0 = Instant::now();
        let (c, r) = call(s, algo, src, &opts, oracle, tally);
        let q = tr.record(Some(pass), "query", q0, q0 + c.wall);
        tr.annotate(q, query_args(i, src, &c, &r));
        walls.push(ms(c.wall));
        extract.push(ms(c.wall.saturating_sub(c.traversal)));
        splits.push(level_split(&r));
        levels += u64::from(r.stats.levels);
        switches += u64::from(r.stats.direction_switches);
        compacted += u64::from(r.stats.compacted_levels);
        t.merge(&r.stats.totals);
        input_edges += c.input_edges;
        if let Some(h) = &r.stats.hists {
            let m = h.merged();
            barrier_sum_us += m.barrier_wait_us.mean() * m.barrier_wait_us.count() as f64;
            barrier.merge(&m.barrier_wait_us);
            fetch.merge(&m.segment_fetch_us);
            steal.merge(&m.steal_us);
        }
    }
    tr.record_as(pass, Some(root), "traced", pass_start, Instant::now());

    let n = spec.traced;
    let per = |x: f64| x / n as f64;
    let extract = Samples::new(extract);
    let walls = Samples::new(walls);
    let mean_of = |f: fn(&LevelSplit) -> f64| per(splits.iter().map(f).sum());
    let (td, bu, cmp) = (
        mean_of(|s| s.topdown_ms),
        mean_of(|s| s.bottomup_ms),
        mean_of(|s| s.compact_ms),
    );
    // The timed loop ran whole cycles of keys, so its mean weighs every
    // key as the traced pass does.
    let timed_mean = Samples::new(timed.iter().map(|c| ms(c.wall)).collect()).mean();

    let mut l = Sheet::new(&PER_LAYER);
    let med = |f: fn(&SetupTimes) -> Duration| {
        Samples::new(times.iter().map(|t| f(t).as_secs_f64()).collect())
    };
    l.median("graph.build_s", &med(|t| t.build));
    l.median("graph.transpose_s", &med(|t| t.transpose));
    l.value(
        "graph.csr_mb",
        (s.graph.memory_bytes() + s.transpose.memory_bytes()) as f64 / (1 << 20) as f64,
    );
    l.median(
        "runtime.spawn_ms",
        &Samples::new(times.iter().map(|t| ms(t.spawn)).collect()),
    );
    l.median("driver.setup_extract_ms", &extract);
    l.over("driver.levels", per(levels as f64), n);
    l.over(
        "barrier.wait_ms",
        per(barrier_sum_us / THREADS as f64 / 1e3),
        n,
    );
    l.tail(
        "barrier.wait_us_p99",
        hist_tail(&barrier, 0.99),
        barrier.count() as usize,
    );
    l.over("topdown.ms", td, n);
    l.over(
        "work.scan_ratio",
        ratio(t.edges_scanned as f64, input_edges as f64),
        n,
    );
    l.over(
        "dup.ratio",
        ratio(t.duplicate_explorations as f64, t.vertices_explored as f64),
        n,
    );
    l.over("bottomup.ms", bu, n);
    l.over("hybrid.switches", per(switches as f64), n);
    l.over("compact.levels", per(compacted as f64), n);
    l.over("compact.ms", cmp, n);
    l.over("dispatch.segments", per(t.segments_fetched as f64), n);
    l.over(
        "dispatch.retry_ratio",
        ratio(t.fetch_retries as f64, t.segments_fetched as f64),
        n,
    );
    l.over(
        "dispatch.stale_ratio",
        ratio(t.stale_slot_aborts as f64, t.segments_fetched as f64),
        n,
    );
    l.tail(
        "dispatch.fetch_us_p99",
        hist_tail(&fetch, 0.99),
        fetch.count() as usize,
    );
    l.over("steal.attempts", per(t.steal.attempts as f64), n);
    l.over(
        "steal.success_ratio",
        ratio(t.steal.success as f64, t.steal.attempts as f64),
        n,
    );
    l.tail(
        "steal.us_p99",
        hist_tail(&steal, 0.99),
        steal.count() as usize,
    );
    // No serving layer on a library workload.
    for name in [
        "batch.occupancy",
        "serve.wait_ms_p50",
        "serve.wait_ms_p99",
        "serve.service_ms_p50",
        "serve.traversal_ms_p50",
        "serve.shed",
        "serve.retries",
    ] {
        l.over(name, 0.0, 0);
    }
    l.value("ref.serial_teps", oracle.serial_teps());
    l.over("trace.overhead_frac", walls.mean() / timed_mean - 1.0, n);
    // What the call's wall time holds beyond set-up/extract plus the
    // recorded levels: the traversal's own pre-level seeding.
    l.over(
        "trace.unaccounted_frac",
        1.0 - (extract.mean() + td + bu + cmp) / walls.mean(),
        n,
    );
    l.finish()
}
