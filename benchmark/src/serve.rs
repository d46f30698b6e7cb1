//! Serve workloads: one client thread keeps a fixed number of queries
//! outstanding against an `obfs_engine::Engine` (a closed loop).

use crate::metrics::{Metric, Sheet, END_TO_END, PER_LAYER, RAW};
use crate::oracle::{digest, Oracle, RefRun};
use crate::stats::{ratio, Samples, Tally};
use crate::trace::{serve_query_spans, Tracer};
use crate::workload::{derive, ms, peak_rss_mb, stream, Config, Run, Spec, THREADS};
use obfs_core::{Algorithm, ThreadStats};
use obfs_engine::{Engine, EngineConfig, EngineStats, Query, QueryResponse, QueryStatus};
use obfs_graph::stats::sample_sources;
use obfs_graph::{CsrGraph, VertexId};
use obfs_util::{Json, Xoshiro256StarStar};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine admission capacity; above every workload's outstanding count,
/// so a correct engine sheds nothing.
const CAPACITY: usize = 256;

/// Indices into the source pool: uniform, or Zipf with exponent 1 (rank
/// `k` drawn with weight `1/k`). The same seed gives the same sequence.
pub struct SourceSeq {
    rng: Xoshiro256StarStar,
    n: usize,
    cdf: Option<Vec<f64>>,
}

impl SourceSeq {
    /// A sequence over `n` pool slots.
    pub fn new(n: usize, zipf: bool, seed: u64) -> Self {
        let cdf = zipf.then(|| {
            let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
            let mut acc = 0.0;
            (1..=n)
                .map(|k| {
                    acc += 1.0 / k as f64 / h;
                    acc
                })
                .collect()
        });
        SourceSeq {
            rng: Xoshiro256StarStar::new(seed),
            n,
            cdf,
        }
    }

    /// The next pool slot.
    pub fn next_slot(&mut self) -> usize {
        match &self.cdf {
            None => self.rng.below_usize(self.n),
            Some(cdf) => {
                let u = self.rng.next_f64();
                cdf.partition_point(|&c| c <= u).min(self.n - 1)
            }
        }
    }
}

/// The load: which queries to send and how many at once.
struct Load<'a> {
    pool: &'a [VertexId],
    outstanding: usize,
    deadline: Option<Duration>,
    zipf: bool,
}

/// One answered query.
struct Done {
    idx: usize,
    src: VertexId,
    lane: u64,
    submitted: Instant,
    resp: QueryResponse,
}

struct Pending {
    idx: usize,
    src: VertexId,
    lane: u64,
    submitted: Instant,
    handle: obfs_engine::QueryHandle,
}

/// Keep `load.outstanding` queries in flight, drawing sources from `seq`
/// and numbering them from `first_idx`, until `stop(sent, elapsed)` says
/// to send no more; then drain. Responses are awaited in submit order.
/// Returns the loop's wall time, the submit-side tally (attempts and
/// sheds; `on_done` accounts for the answers) and the number sent.
fn closed_loop(
    engine: &Engine,
    load: &Load<'_>,
    seq: &mut SourceSeq,
    first_idx: usize,
    stop: impl Fn(usize, Duration) -> bool,
    mut on_done: impl FnMut(Done),
) -> (Duration, Tally, usize) {
    let mut tally = Tally::default();
    let mut window: VecDeque<Pending> = VecDeque::with_capacity(load.outstanding);
    let mut lanes: Vec<u64> = (0..load.outstanding as u64).rev().collect();
    let start = Instant::now();
    let mut sent = 0usize;
    loop {
        while window.len() < load.outstanding && !stop(sent, start.elapsed()) {
            let src = load.pool[seq.next_slot()];
            let mut q = Query::new(Algorithm::Bfscl, src);
            q.deadline = load.deadline;
            let submitted = Instant::now();
            tally.attempted += 1;
            match engine.submit(q) {
                Ok(handle) => {
                    let lane = lanes.pop().expect("a free lane per outstanding query");
                    window.push_back(Pending {
                        idx: first_idx + sent,
                        src,
                        lane,
                        submitted,
                        handle,
                    });
                }
                Err(_) => tally.shed += 1,
            }
            sent += 1;
        }
        let Some(p) = window.pop_front() else { break };
        let resp = p.handle.wait();
        lanes.push(p.lane);
        on_done(Done {
            idx: p.idx,
            src: p.src,
            lane: p.lane,
            submitted: p.submitted,
            resp,
        });
    }
    (start.elapsed(), tally, sent)
}

/// The digest of a response's answer, if it carries one.
fn answer_digest(resp: &QueryResponse) -> Option<u64> {
    resp.result.as_ref().map(|r| digest(&r.levels))
}

/// Count a response's outcome; true when it is a correct answer.
fn account(
    src: VertexId,
    status: &QueryStatus,
    answer: Option<u64>,
    oracle: &Oracle,
    tally: &mut Tally,
) -> bool {
    match status {
        QueryStatus::Complete if answer.is_some_and(|d| oracle.check(src, d)) => return true,
        QueryStatus::Complete | QueryStatus::Degraded => tally.wrong += 1,
        QueryStatus::Cancelled => tally.cancelled += 1,
        QueryStatus::DeadlineExceeded => tally.deadline_exceeded += 1,
        QueryStatus::Failed(_) => tally.failed += 1,
    }
    false
}

/// One timed-loop response, checked once the oracle covers the pool.
struct Answer {
    idx: usize,
    window: usize,
    src: VertexId,
    status: QueryStatus,
    digest: Option<u64>,
    total_ms: f64,
}

#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    build: Duration,
    spawn: Duration,
    total: Duration,
}

pub fn run(
    spec: &Spec,
    outstanding: usize,
    deadline: Option<Duration>,
    zipf: bool,
    cfg: &Config,
) -> Run {
    let mut tracer = cfg.trace.then(Tracer::new);
    let start = Instant::now();
    let root = tracer.as_mut().map_or(0, Tracer::reserve);

    // Set up `setup_reps` times from nothing.
    let mut times = Vec::new();
    let mut kept: Option<(Arc<CsrGraph>, Vec<VertexId>, Engine)> = None;
    for _ in 0..spec.setup_reps {
        drop(kept.take());
        let t0 = Instant::now();
        let graph = Arc::new(spec.graph.generate(cfg.seed));
        let t1 = Instant::now();
        let engine = Engine::new(
            Arc::clone(&graph),
            EngineConfig {
                threads: THREADS,
                capacity: CAPACITY,
                ..Default::default()
            },
        );
        let t2 = Instant::now();
        let pool = sample_sources(&graph, spec.keys, derive(cfg.seed, stream::KEYS));
        let load = Load {
            pool: &pool,
            outstanding,
            deadline,
            zipf,
        };
        let mut warm_seq = SourceSeq::new(pool.len(), zipf, derive(cfg.seed, stream::WARMUP));
        let warm = spec.warmup;
        closed_loop(
            &engine,
            &load,
            &mut warm_seq,
            0,
            |sent, _| sent >= warm,
            drop,
        );
        let t3 = Instant::now();
        times.push(SetupTimes {
            build: t1 - t0,
            spawn: t2 - t1,
            total: t3 - t0,
        });
        if let Some(tr) = tracer.as_mut() {
            let s = tr.record(Some(root), "setup", t0, t3);
            tr.record(Some(s), "graph.build", t0, t1);
            tr.record(Some(s), "runtime.spawn", t1, t2);
            tr.record(Some(s), "warmup", t2, t3);
        }
        kept = Some((graph, pool, engine));
    }
    let (graph, pool, engine) = kept.expect("at least one set-up");
    let load = Load {
        pool: &pool,
        outstanding,
        deadline,
        zipf,
    };

    // Timed loop, tracing off. Load windows alternate with bursts of
    // `spec.block` serial reference traversals, run on the idle engine's
    // graph after the window drains. Each window is compared with the
    // bursts on both sides of it, which cancels the host's drift in
    // speed. Answers are checked after the loop, once the oracle covers
    // the whole pool.
    let mut oracle = Oracle::default();
    let burst = |oracle: &mut Oracle, i: usize| -> Vec<RefRun> {
        (0..spec.block)
            .map(|j| oracle.measure(&graph, pool[(i * spec.block + j) % pool.len()]))
            .collect()
    };
    let mut seq = SourceSeq::new(pool.len(), zipf, derive(cfg.seed, stream::ORDER));
    let (mut answers, mut walls, mut tally, mut next_idx) =
        (Vec::new(), Vec::new(), Tally::default(), 0);
    let loop_start = Instant::now();
    let mut bursts = vec![burst(&mut oracle, 0)];
    while answers.len() < spec.min_samples || loop_start.elapsed().as_secs_f64() < cfg.seconds {
        let w = walls.len();
        let window = spec.window;
        let (wall, submits, sent) = closed_loop(
            &engine,
            &load,
            &mut seq,
            next_idx,
            |_, el| el >= window,
            |d| {
                let digest = answer_digest(&d.resp);
                let total_ms = d.resp.total_ns as f64 / 1e6;
                answers.push(Answer {
                    idx: d.idx,
                    window: w,
                    src: d.src,
                    status: d.resp.status,
                    digest,
                    total_ms,
                });
            },
        );
        tally.merge(&submits);
        next_idx += sent;
        walls.push(wall);
        bursts.push(burst(&mut oracle, walls.len()));
    }
    if let Some(tr) = tracer.as_mut() {
        let id = tr.record(Some(root), "timed", loop_start, Instant::now());
        tr.annotate(
            id,
            vec![("queries".into(), Json::Num(answers.len() as f64))],
        );
    }
    let rss = peak_rss_mb();
    oracle.cover(&graph, &pool);

    // Window `w`'s reference: the bursts before and after it.
    let refs = |w: usize| bursts[w].iter().chain(&bursts[w + 1]);
    let ref_secs: Vec<f64> = (0..walls.len())
        .map(|w| Samples::new(refs(w).map(|r| r.secs).collect()).median())
        .collect();
    let mut window_edges = vec![0u64; walls.len()];
    let (mut vs_sbfs, mut totals, mut prefix_total_ms, mut completed) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    for a in &answers {
        if account(a.src, &a.status, a.digest, &oracle, &mut tally) {
            window_edges[a.window] += oracle.expected(a.src).input_edges;
            completed += 1;
        }
        vs_sbfs.push(a.total_ms / 1e3 / ref_secs[a.window]);
        totals.push(a.total_ms);
        if a.idx < spec.traced {
            prefix_total_ms.push(a.total_ms);
        }
    }
    let timed_fail_frac = tally.fail_frac();
    let speedups: Vec<f64> = (0..walls.len())
        .map(|w| {
            let serial = refs(w).map(|r| r.input_edges as f64).sum::<f64>()
                / refs(w).map(|r| r.secs).sum::<f64>();
            window_edges[w] as f64 / walls[w].as_secs_f64() / serial
        })
        .collect();

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

    let busy: f64 = walls.iter().map(Duration::as_secs_f64).sum();
    let totals = Samples::new(totals);
    let mut raw = Sheet::new(&RAW);
    raw.over(
        "teps",
        window_edges.iter().sum::<u64>() as f64 / busy,
        completed,
    );
    raw.over("qps", completed as f64 / busy, completed);
    raw.median("latency_ms_p50", &totals);
    raw.percentile("latency_ms_p95", &totals, 0.95);

    let per_layer = tracer.as_mut().map(|tr| {
        let prefix = Samples::new(prefix_total_ms).mean();
        let layers = traced_pass(
            spec, &engine, &graph, &load, &oracle, cfg.seed, prefix, &times, tr, root, &mut tally,
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

/// A traversal's identity among responses: a batched run hands every
/// member a copy of the same `RunStats`.
type RunKey = (u128, u32, u64, u64);

/// Repeat the first `spec.traced` queries of the timed sequence, record
/// each one's span triple, and derive the per-layer sheet.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    spec: &Spec,
    engine: &Engine,
    graph: &CsrGraph,
    load: &Load<'_>,
    oracle: &Oracle,
    seed: u64,
    timed_prefix_mean_ms: f64,
    times: &[SetupTimes],
    tr: &mut Tracer,
    root: u64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let before: EngineStats = engine.stats();
    let pass_start = Instant::now();
    let pass = tr.reserve();
    let (mut wait, mut service, mut traversal, mut extract, mut total) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut levels, mut switches, mut compacted, mut input_edges) = (0u64, 0u64, 0u64, 0u64);
    let mut runs: BTreeMap<RunKey, ThreadStats> = BTreeMap::new();
    let (mut span_total, mut span_parts) = (0u64, 0u64);
    let n = spec.traced;
    let mut answers = Tally::default();
    let mut seq = SourceSeq::new(load.pool.len(), load.zipf, derive(seed, stream::ORDER));
    let (_, sent, _) = closed_loop(
        engine,
        load,
        &mut seq,
        0,
        |sent, _| sent >= n,
        |d| {
            let r = &d.resp;
            account(d.src, &r.status, answer_digest(r), oracle, &mut answers);
            let mut args = vec![
                ("source".to_string(), Json::Num(f64::from(d.src))),
                ("status".to_string(), Json::Str(format!("{:?}", r.status))),
                ("retries".to_string(), Json::Num(f64::from(r.retries))),
            ];
            total.push(r.total_ns as f64 / 1e6);
            wait.push(r.wait_ns as f64 / 1e6);
            let svc_ns = r.total_ns - r.wait_ns.min(r.total_ns);
            service.push(svc_ns as f64 / 1e6);
            if let Some(res) = &r.result {
                let st = &res.stats;
                let trav = ms(st.traversal_time);
                traversal.push(trav);
                extract.push(svc_ns as f64 / 1e6 - trav);
                levels += u64::from(st.levels);
                switches += u64::from(st.direction_switches);
                compacted += u64::from(st.compacted_levels);
                input_edges += oracle.expected(d.src).input_edges;
                let key = (
                    st.traversal_time.as_nanos(),
                    st.levels,
                    st.totals.edges_scanned,
                    st.totals.vertices_explored,
                );
                runs.entry(key).or_insert(st.totals);
                args.push(("traversal_ms".into(), Json::Num(trav)));
                args.push(("level_count".into(), Json::Num(f64::from(st.levels))));
                args.push((
                    "edges_scanned".into(),
                    Json::Num(st.totals.edges_scanned as f64),
                ));
            }
            let [q, w, s] = serve_query_spans(
                tr,
                pass,
                r.id,
                d.submitted,
                d.lane + 1,
                r.wait_ns,
                r.total_ns,
                args,
            );
            let dur = |id| {
                tr.spans()
                    .iter()
                    .rev()
                    .find(|x| x.id == id)
                    .map_or(0, |x| x.dur_ns)
            };
            span_total += dur(q);
            span_parts += dur(w) + dur(s);
        },
    );
    tally.merge(&sent);
    tally.merge(&answers);
    tr.record_as(pass, Some(root), "traced", pass_start, Instant::now());
    let after = engine.stats();

    let answered = traversal.len().max(1) as f64;
    let mut t = ThreadStats::default();
    for s in runs.values() {
        t.merge(s);
    }
    let per_run = |x: u64| ratio(x as f64, runs.len() as f64);
    let (wait, service, traversal, extract, total) = (
        Samples::new(wait),
        Samples::new(service),
        Samples::new(traversal),
        Samples::new(extract),
        Samples::new(total),
    );

    let mut l = Sheet::new(&PER_LAYER);
    l.median(
        "graph.build_s",
        &Samples::new(times.iter().map(|t| t.build.as_secs_f64()).collect()),
    );
    l.over("graph.transpose_s", 0.0, 0);
    l.value(
        "graph.csr_mb",
        graph.memory_bytes() as f64 / (1 << 20) as f64,
    );
    l.median(
        "runtime.spawn_ms",
        &Samples::new(times.iter().map(|t| ms(t.spawn)).collect()),
    );
    l.median("driver.setup_extract_ms", &extract);
    l.over("driver.levels", levels as f64 / answered, traversal.len());
    // The engine builds its own BfsOptions, so level stats and latency
    // histograms are not observable through it.
    for name in [
        "barrier.wait_ms",
        "barrier.wait_us_p99",
        "topdown.ms",
        "bottomup.ms",
        "compact.ms",
    ] {
        l.over(name, 0.0, 0);
    }
    l.over(
        "work.scan_ratio",
        ratio(t.edges_scanned as f64, input_edges as f64),
        runs.len(),
    );
    l.over(
        "dup.ratio",
        ratio(t.duplicate_explorations as f64, t.vertices_explored as f64),
        runs.len(),
    );
    l.over(
        "hybrid.switches",
        switches as f64 / answered,
        traversal.len(),
    );
    l.over(
        "compact.levels",
        compacted as f64 / answered,
        traversal.len(),
    );
    l.over("dispatch.segments", per_run(t.segments_fetched), runs.len());
    l.over(
        "dispatch.retry_ratio",
        ratio(t.fetch_retries as f64, t.segments_fetched as f64),
        runs.len(),
    );
    l.over(
        "dispatch.stale_ratio",
        ratio(t.stale_slot_aborts as f64, t.segments_fetched as f64),
        runs.len(),
    );
    l.over("dispatch.fetch_us_p99", 0.0, 0);
    l.over("steal.attempts", per_run(t.steal.attempts), runs.len());
    l.over(
        "steal.success_ratio",
        ratio(t.steal.success as f64, t.steal.attempts as f64),
        runs.len(),
    );
    l.over("steal.us_p99", 0.0, 0);
    let batched = after.batched_runs - before.batched_runs;
    l.over(
        "batch.occupancy",
        ratio(
            (after.queries_coalesced - before.queries_coalesced) as f64,
            batched as f64,
        ),
        batched as usize,
    );
    l.median("serve.wait_ms_p50", &wait);
    l.tail("serve.wait_ms_p99", wait.tail(0.99), wait.len());
    l.median("serve.service_ms_p50", &service);
    l.median("serve.traversal_ms_p50", &traversal);
    l.over("serve.shed", (after.shed - before.shed) as f64, n);
    l.over("serve.retries", (after.retries - before.retries) as f64, n);
    l.value("ref.serial_teps", oracle.serial_teps());
    l.over(
        "trace.overhead_frac",
        total.mean() / timed_prefix_mean_ms - 1.0,
        n,
    );
    l.over(
        "trace.unaccounted_frac",
        1.0 - ratio(span_parts as f64, span_total as f64),
        n,
    );
    l.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seq: &mut SourceSeq, k: usize) -> Vec<usize> {
        (0..k).map(|_| seq.next_slot()).collect()
    }

    #[test]
    fn source_sequences_are_fixed_per_seed() {
        for zipf in [false, true] {
            let a = take(
                &mut SourceSeq::new(256, zipf, derive(1, stream::ORDER)),
                2000,
            );
            let b = take(
                &mut SourceSeq::new(256, zipf, derive(1, stream::ORDER)),
                2000,
            );
            let c = take(
                &mut SourceSeq::new(256, zipf, derive(2, stream::ORDER)),
                2000,
            );
            assert_eq!(a, b, "zipf={zipf}: same seed, same sequence");
            assert_ne!(a, c, "zipf={zipf}: another seed, another sequence");
            assert!(a.iter().all(|&s| s < 256));
        }
    }

    #[test]
    fn zipf_ranks_fall_off_as_one_over_k() {
        let mut seq = SourceSeq::new(256, true, 9);
        let mut hits = [0u32; 256];
        for _ in 0..200_000 {
            hits[seq.next_slot()] += 1;
        }
        // P(rank 1) = 1/H(256) ~ 0.163; rank 2 half of that, rank 4 a quarter.
        let p1 = f64::from(hits[0]) / 200_000.0;
        assert!((p1 - 0.163).abs() < 0.01, "{p1}");
        for (k, want) in [(1usize, 0.5), (3, 0.25), (9, 0.1)] {
            let r = f64::from(hits[k]) / f64::from(hits[0]);
            assert!((r - want).abs() < 0.05, "rank {}: {r} vs {want}", k + 1);
        }
        let uniform = take(&mut SourceSeq::new(256, false, 9), 200_000);
        let top = uniform.iter().filter(|&&s| s == 0).count() as f64 / 200_000.0;
        assert!((top - 1.0 / 256.0).abs() < 0.002, "{top}");
    }
}
