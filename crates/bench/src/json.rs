//! Machine-readable benchmark reports (`BENCH_<name>.json`).
//!
//! The generic JSON value/parser/serializer lives in
//! [`obfs_util::json`] (shared with the trace profiler); this module
//! re-exports it and adds the report layer: [`BenchReport`], which
//! writes every bench bin's results in one shape, and
//! [`validate_report`], which holds the shared schema +
//! conservation-invariant checks so the emitting bins, the golden tests
//! and the CI smoke check agree on what a well-formed report is.

use crate::harness::Measurement;
use crate::BenchArgs;
use obfs_core::{LevelStats, StealCounters, ThreadStats};
use obfs_util::Summary;

pub use obfs_util::json::Json;

// ---------------------------------------------------------------------
// Report building
// ---------------------------------------------------------------------

/// The report schema version; [`validate_report`] accepts no other
/// (bump on any layout or meaning change). v6: every result has one
/// shape (see [`BenchReport::add`]) and `teps` is Graph500 TEPS in every
/// bin — reference component edges over traversal time, harmonic mean
/// over runs — with edges scanned reported separately as the work
/// counter `counters.edges_scanned`.
pub const SCHEMA_VERSION: u64 = 6;

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn int(x: u64) -> Json {
    Json::Num(x as f64)
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

/// `{count, mean, stddev, min, max}` for a time summary. A single
/// sample has no dispersion (`OnlineStats` reports NaN below two
/// samples); emit 0 so the field stays a number under the schema.
fn summary_json(x: &Summary) -> Json {
    let stddev = if x.stddev.is_nan() { 0.0 } else { x.stddev };
    Json::Obj(vec![
        ("count".into(), int(x.count)),
        ("mean".into(), num(x.mean)),
        ("stddev".into(), num(stddev)),
        ("min".into(), num(x.min)),
        ("max".into(), num(x.max)),
    ])
}

/// The Table VI outcome buckets.
fn steal_json(x: &StealCounters) -> Json {
    Json::Obj(vec![
        ("attempts".into(), int(x.attempts)),
        ("success".into(), int(x.success)),
        ("victim_locked".into(), int(x.victim_locked)),
        ("victim_idle".into(), int(x.victim_idle)),
        ("too_small".into(), int(x.too_small)),
        ("stale".into(), int(x.stale)),
        ("invalid".into(), int(x.invalid)),
    ])
}

/// Every [`ThreadStats`] counter, steal buckets nested.
fn thread_stats_json(x: &ThreadStats) -> Json {
    Json::Obj(vec![
        ("vertices_explored".into(), int(x.vertices_explored)),
        ("edges_scanned".into(), int(x.edges_scanned)),
        ("vertices_discovered".into(), int(x.vertices_discovered)),
        ("duplicate_explorations".into(), int(x.duplicate_explorations)),
        ("stale_slot_aborts".into(), int(x.stale_slot_aborts)),
        ("segments_fetched".into(), int(x.segments_fetched)),
        ("fetch_retries".into(), int(x.fetch_retries)),
        ("dedup_skips".into(), int(x.dedup_skips)),
        ("lock_acquisitions".into(), int(x.lock_acquisitions)),
        ("injected_faults".into(), int(x.injected_faults)),
        ("frontier_edges".into(), int(x.frontier_edges)),
        ("steal".into(), steal_json(&x.steal)),
    ])
}

/// One per-level series entry.
fn level_json(e: &LevelStats) -> Json {
    Json::Obj(vec![
        ("level".into(), int(u64::from(e.level))),
        ("frontier".into(), int(e.frontier as u64)),
        ("discovered".into(), int(e.discovered as u64)),
        ("time_us".into(), num(e.duration.as_secs_f64() * 1e6)),
        ("degraded".into(), Json::Bool(e.degraded)),
        ("direction".into(), s(e.direction.label())),
        ("compacted".into(), Json::Bool(e.compacted)),
        ("counters".into(), thread_stats_json(&e.counters)),
    ])
}

/// The `series` block from one dedicated collection run: per-level
/// deltas plus the same run's totals so the conservation invariant
/// (sum over levels == totals) is checkable file-internally.
fn series_json(levels: &[LevelStats], totals: &ThreadStats, degraded_levels: u32) -> Json {
    let compacted = levels.iter().filter(|e| e.compacted).count() as u64;
    Json::Obj(vec![
        ("degraded_levels".into(), int(u64::from(degraded_levels))),
        ("compacted_levels".into(), int(compacted)),
        ("totals".into(), thread_stats_json(totals)),
        ("levels".into(), Json::Arr(levels.iter().map(level_json).collect())),
    ])
}

/// Accumulates `results[]` entries and writes `BENCH_<name>.json`.
pub struct BenchReport {
    name: String,
    params: Json,
    results: Vec<Json>,
}

impl BenchReport {
    /// Start a report for bench binary `name` with the run's parameters.
    pub fn new(name: &str, args: &BenchArgs) -> Self {
        Self {
            name: name.to_string(),
            params: Json::Obj(vec![
                ("divisor".into(), int(args.divisor)),
                ("threads".into(), int(args.threads as u64)),
                ("sources".into(), int(args.sources as u64)),
                ("seed".into(), int(args.seed)),
                ("hybrid".into(), Json::Bool(args.hybrid)),
            ]),
            results: Vec::new(),
        }
    }

    /// Append one result: `contender`, `graph`, the per-run `time_ms`
    /// summary, Graph500 `teps`, `duplicate_overhead`, mean `levels`,
    /// summed `degraded_levels` and `compacted_levels`, the merged
    /// `counters` (steal buckets nested), and when present the per-level
    /// `series`.
    pub fn add(&mut self, m: &Measurement) {
        self.results.push(result_json(m, None));
    }

    /// [`BenchReport::add`] plus the engine `serve` block (`bombard`).
    pub fn add_served(&mut self, m: &Measurement, serve: Json) {
        self.results.push(result_json(m, Some(serve)));
    }

    /// Serialize the complete report document.
    pub fn render(&self) -> String {
        Json::Obj(vec![
            ("schema_version".into(), int(SCHEMA_VERSION)),
            ("bench".into(), s(&self.name)),
            ("params".into(), self.params.clone()),
            ("results".into(), Json::Arr(self.results.clone())),
        ])
        .render()
    }

    /// Check the serialized report against [`validate_report`], then
    /// write it to `BENCH_<name>.json` in the current directory and say
    /// so. A report that fails its own schema is a bug in the emitter
    /// and panics rather than landing on disk; a failed write is an
    /// `error:` with exit code 2.
    pub fn finish(self) {
        let text = self.render();
        if let Err(e) = Json::parse(&text).and_then(|doc| validate_report(&doc)) {
            panic!("emitted {} report fails its own schema validation: {e}", self.name);
        }
        let path = format!("BENCH_{}.json", self.name);
        match std::fs::write(&path, text + "\n") {
            Ok(()) => println!("wrote {path}"),
            Err(e) => crate::args::fail(format!("write {path}: {e}")),
        }
    }
}

fn result_json(m: &Measurement, serve: Option<Json>) -> Json {
    let mut members = vec![
        ("contender".into(), s(&m.contender)),
        ("graph".into(), s(&m.graph)),
        ("time_ms".into(), summary_json(&m.time_ms())),
        ("teps".into(), num(m.teps())),
        ("duplicate_overhead".into(), num(m.duplicate_overhead())),
        ("levels".into(), num(m.levels())),
        ("degraded_levels".into(), int(m.degraded_levels)),
        ("compacted_levels".into(), int(m.compacted_levels)),
        ("counters".into(), thread_stats_json(&m.totals)),
    ];
    if let Some(series) = &m.series {
        members.push((
            "series".into(),
            series_json(&series.levels, &series.totals, series.degraded_levels),
        ));
    }
    if let Some(serve) = serve {
        members.push(("serve".into(), serve));
    }
    Json::Obj(members)
}

// ---------------------------------------------------------------------
// Schema validation (shared by the golden tests and the CI smoke run)
// ---------------------------------------------------------------------

fn req<'a>(v: &'a Json, key: &str, at: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("{at}: missing key {key:?}"))
}

fn req_u64(v: &Json, key: &str, at: &str) -> Result<u64, String> {
    req(v, key, at)?.as_u64().ok_or_else(|| format!("{at}.{key}: not an integer"))
}

fn req_f64(v: &Json, key: &str, at: &str) -> Result<f64, String> {
    req(v, key, at)?.as_f64().ok_or_else(|| format!("{at}.{key}: not a number"))
}

fn req_bool(v: &Json, key: &str, at: &str) -> Result<bool, String> {
    req(v, key, at)?.as_bool().ok_or_else(|| format!("{at}.{key}: not a bool"))
}

fn req_str<'a>(v: &'a Json, key: &str, at: &str) -> Result<&'a str, String> {
    req(v, key, at)?.as_str().ok_or_else(|| format!("{at}.{key}: not a string"))
}

fn steal_of(v: &Json, at: &str) -> Result<StealCounters, String> {
    Ok(StealCounters {
        attempts: req_u64(v, "attempts", at)?,
        success: req_u64(v, "success", at)?,
        victim_locked: req_u64(v, "victim_locked", at)?,
        victim_idle: req_u64(v, "victim_idle", at)?,
        too_small: req_u64(v, "too_small", at)?,
        stale: req_u64(v, "stale", at)?,
        invalid: req_u64(v, "invalid", at)?,
    })
}

/// The scalar `ThreadStats` keys every counters object must carry.
const COUNTER_KEYS: &[&str] = &[
    "vertices_explored",
    "edges_scanned",
    "vertices_discovered",
    "duplicate_explorations",
    "stale_slot_aborts",
    "segments_fetched",
    "fetch_retries",
    "dedup_skips",
    "lock_acquisitions",
    "injected_faults",
    "frontier_edges",
];

const STEAL_KEYS: &[&str] =
    &["attempts", "success", "victim_locked", "victim_idle", "too_small", "stale", "invalid"];

/// A `counters` object's values, [`COUNTER_KEYS`] then the nested
/// [`STEAL_KEYS`], after checking the steal buckets sum to attempts.
fn counters_of(v: &Json, at: &str) -> Result<Vec<u64>, String> {
    let steal_at = format!("{at}.steal");
    let steal_json = req(v, "steal", at)?;
    let steal = steal_of(steal_json, &steal_at)?;
    if !steal.is_consistent() {
        return Err(format!("{steal_at}: buckets do not sum to attempts: {steal:?}"));
    }
    let mut out = Vec::with_capacity(COUNTER_KEYS.len() + STEAL_KEYS.len());
    for key in COUNTER_KEYS {
        out.push(req_u64(v, key, at)?);
    }
    for key in STEAL_KEYS {
        out.push(req_u64(steal_json, key, &steal_at)?);
    }
    Ok(out)
}

/// Validate a parsed `BENCH_*.json` document: required schema keys plus
/// the counter conservation invariants (steal buckets sum to attempts;
/// per-level series counters sum to the series totals; degraded and
/// compacted flags sum to their counts).
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let version = req_u64(doc, "schema_version", "report")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
        ));
    }
    req_str(doc, "bench", "report")?;
    let params = req(doc, "params", "report")?;
    for key in ["divisor", "threads", "sources", "seed"] {
        req_u64(params, key, "params")?;
    }
    req_bool(params, "hybrid", "params")?;
    let results = req(doc, "results", "report")?.as_arr().ok_or("report.results: not an array")?;
    if results.is_empty() {
        return Err("report.results: empty".into());
    }
    for (i, r) in results.iter().enumerate() {
        let at = format!("results[{i}]");
        req_str(r, "contender", &at)?;
        req_str(r, "graph", &at)?;
        let time = req(r, "time_ms", &at)?;
        let count = req_u64(time, "count", &format!("{at}.time_ms"))?;
        if count == 0 {
            return Err(format!("{at}.time_ms.count: zero samples"));
        }
        for key in ["mean", "stddev", "min", "max"] {
            req_f64(time, key, &format!("{at}.time_ms"))?;
        }
        for key in ["teps", "duplicate_overhead", "levels"] {
            req_f64(r, key, &at)?;
        }
        for key in ["degraded_levels", "compacted_levels"] {
            req_u64(r, key, &at)?;
        }
        counters_of(req(r, "counters", &at)?, &format!("{at}.counters"))?;
        if let Some(series) = r.get("series") {
            validate_series(series, &at)?;
        }
        if let Some(serve) = r.get("serve") {
            validate_serve(serve, &at)?;
        }
    }
    Ok(())
}

/// Validate a `serve` block (emitted by the `bombard` engine stress
/// driver): all counters present, plus the admission conservation
/// invariants — every attempted query is either admitted or shed, and
/// every admitted query ends in exactly one terminal status.
fn validate_serve(serve: &Json, at: &str) -> Result<(), String> {
    let at = format!("{at}.serve");
    for key in ["capacity", "burst", "retries"] {
        req_u64(serve, key, &at)?;
    }
    for key in ["qps", "p50_ms", "p90_ms", "p99_ms"] {
        req_f64(serve, key, &at)?;
    }
    let queries = req_u64(serve, "queries", &at)?;
    let submitted = req_u64(serve, "submitted", &at)?;
    let shed = req_u64(serve, "shed", &at)?;
    if submitted + shed != queries {
        return Err(format!(
            "{at}: submitted ({submitted}) + shed ({shed}) != queries ({queries})"
        ));
    }
    let mut done = 0u64;
    for key in ["completed", "degraded", "cancelled", "deadline_exceeded", "failed"] {
        done += req_u64(serve, key, &at)?;
    }
    if done != submitted {
        return Err(format!("{at}: terminal statuses sum to {done} but submitted = {submitted}"));
    }
    if let Some(batch) = serve.get("batch") {
        validate_serve_batch(batch, &at)?;
    }
    validate_serve_telemetry(req(serve, "telemetry", &at)?, &at, serve)
}

/// Validate the `serve.telemetry` block (bombard):
/// the engine registry's final snapshot must agree *exactly* with the
/// `serve` counters — the registry is the source of truth for
/// `EngineStats`, and bombard counts terminals itself, so any drift
/// between the three is a lost or double-counted query. The embedded
/// mid-run scrape is a cut of monotone counters, so every scraped
/// count must be ≤ its final value. The registry's latency percentiles
/// must agree with bombard's own histogram to within one log-histogram
/// bucket (they record the same `total_ns` stream).
fn validate_serve_telemetry(tele: &Json, at: &str, serve: &Json) -> Result<(), String> {
    let at = format!("{at}.telemetry");
    let fin = req(tele, "final", &at)?;
    let fat = format!("{at}.final");
    // Registry ≡ EngineStats ≡ bombard terminal counts, key by key.
    for key in [
        "submitted",
        "shed",
        "completed",
        "degraded",
        "cancelled",
        "deadline_exceeded",
        "failed",
        "retries",
    ] {
        let reg = req_u64(fin, key, &fat)?;
        let measured = req_u64(serve, key, &at)?;
        if reg != measured {
            return Err(format!(
                "{fat}.{key}: registry says {reg} but the serve block measured {measured}"
            ));
        }
    }
    for key in ["batched_runs", "coalesced"] {
        req_u64(fin, key, &fat)?;
    }
    // One-bucket percentile agreement (LogHistogram relative bucket
    // width is 1/8 at these magnitudes).
    for (us_key, ms_key) in [("p50_us", "p50_ms"), ("p99_us", "p99_ms")] {
        let us = req_u64(fin, us_key, &fat)? as f64;
        let ms = req_f64(serve, ms_key, &at)? * 1e3;
        if (us - ms).abs() > us.max(ms) / 8.0 + 1.0 {
            return Err(format!(
                "{fat}.{us_key}: registry percentile {us}us vs measured {ms}us \
                 disagree by more than one histogram bucket"
            ));
        }
    }
    let scrape = req(tele, "scrape", &at)?;
    let sat = format!("{at}.scrape");
    let mode = req_str(scrape, "mode", &sat)?;
    if mode != "http" && mode != "registry" {
        return Err(format!("{sat}.mode: {mode:?} is neither \"http\" nor \"registry\""));
    }
    let fin_submitted = req_u64(fin, "submitted", &fat)?;
    let mut fin_terminal = 0u64;
    for key in ["completed", "degraded", "cancelled", "deadline_exceeded", "failed"] {
        fin_terminal += req_u64(fin, key, &fat)?;
    }
    let checks = [
        ("submitted", fin_submitted),
        ("terminal", fin_terminal),
        ("shed", req_u64(fin, "shed", &fat)?),
    ];
    for (key, fin_v) in checks {
        let v = req_u64(scrape, key, &sat)?;
        if v > fin_v {
            return Err(format!(
                "{sat}.{key}: mid-run scrape saw {v} but the final count is {fin_v} \
                 (monotone counter went backwards)"
            ));
        }
    }
    Ok(())
}

/// Validate the optional `serve.batch` block (bombard
/// `--batch`): a second pass over the same workload with coalescing
/// enabled. Invariants: every coalesced run carries at least two
/// queries and at most `max_batch`, so when `runs > 0` the mean
/// occupancy must lie in `[2, max_batch]`; with no batched runs the
/// coalesced count must be zero.
fn validate_serve_batch(batch: &Json, at: &str) -> Result<(), String> {
    let at = format!("{at}.batch");
    let max_batch = req_u64(batch, "max_batch", &at)?;
    if max_batch < 2 {
        return Err(format!("{at}.max_batch: {max_batch} < 2"));
    }
    let runs = req_u64(batch, "runs", &at)?;
    let coalesced = req_u64(batch, "coalesced", &at)?;
    for key in ["qps", "p50_ms", "p99_ms", "occupancy", "speedup"] {
        req_f64(batch, key, &at)?;
    }
    let occupancy = req_f64(batch, "occupancy", &at)?;
    if runs == 0 {
        if coalesced != 0 {
            return Err(format!("{at}: coalesced {coalesced} queries across 0 runs"));
        }
    } else {
        if coalesced < 2 * runs || coalesced > max_batch * runs {
            return Err(format!(
                "{at}: coalesced ({coalesced}) outside [2, max_batch] x runs ({runs})"
            ));
        }
        let mean = coalesced as f64 / runs as f64;
        if (occupancy - mean).abs() > 1e-6 {
            return Err(format!("{at}: occupancy {occupancy} != coalesced/runs = {mean}"));
        }
    }
    Ok(())
}

fn validate_series(series: &Json, at: &str) -> Result<(), String> {
    let at = format!("{at}.series");
    let degraded_levels = req_u64(series, "degraded_levels", &at)?;
    let compacted_levels = req_u64(series, "compacted_levels", &at)?;
    let totals = counters_of(req(series, "totals", &at)?, &format!("{at}.totals"))?;
    let levels =
        req(series, "levels", &at)?.as_arr().ok_or_else(|| format!("{at}.levels: not an array"))?;
    let mut degraded_sum = 0u64;
    let mut compacted_sum = 0u64;
    let mut sums = vec![0u64; totals.len()];
    for (i, e) in levels.iter().enumerate() {
        let lat = format!("{at}.levels[{i}]");
        req_u64(e, "level", &lat)?;
        req_u64(e, "frontier", &lat)?;
        req_u64(e, "discovered", &lat)?;
        req_f64(e, "time_us", &lat)?;
        degraded_sum += u64::from(req_bool(e, "degraded", &lat)?);
        let direction = req_str(e, "direction", &lat)?;
        if direction != "td" && direction != "bu" {
            return Err(format!("{lat}.direction: {direction:?} is not \"td\"/\"bu\""));
        }
        // Compaction only replaces *top-down* queue dispatch, so a
        // compacted bottom-up level is a contradiction.
        let compacted = req_bool(e, "compacted", &lat)?;
        if compacted && direction != "td" {
            return Err(format!(
                "{lat}: compacted level with direction {direction:?} (must be \"td\")"
            ));
        }
        compacted_sum += u64::from(compacted);
        let counters = counters_of(req(e, "counters", &lat)?, &format!("{lat}.counters"))?;
        for (sum, x) in sums.iter_mut().zip(counters) {
            *sum += x;
        }
    }
    if degraded_sum != degraded_levels {
        return Err(format!(
            "{at}: degraded flags sum to {degraded_sum} but degraded_levels = {degraded_levels}"
        ));
    }
    if compacted_sum != compacted_levels {
        return Err(format!(
            "{at}: compacted flags sum to {compacted_sum} but compacted_levels = \
             {compacted_levels}"
        ));
    }
    let keys = COUNTER_KEYS.iter().map(|k| k.to_string());
    let keys = keys.chain(STEAL_KEYS.iter().map(|k| format!("steal.{k}")));
    for ((key, sum), total) in keys.zip(sums).zip(totals) {
        if sum != total {
            return Err(format!("{at}: sum of per-level {key} = {sum} but totals.{key} = {total}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replace `key`'s value in an object.
    fn set(obj: &mut Json, key: &str, v: Json) {
        let Json::Obj(members) = obj else { panic!("not an object") };
        members.iter_mut().find(|(k, _)| k == key).expect("key present").1 = v;
    }

    /// Append `key` to an object.
    fn push(obj: &mut Json, key: &str, v: Json) {
        let Json::Obj(members) = obj else { panic!("not an object") };
        members.push((key.into(), v));
    }

    /// Remove `key` from an object.
    fn remove(obj: &mut Json, key: &str) {
        let Json::Obj(members) = obj else { panic!("not an object") };
        members.retain(|(k, _)| k != key);
    }

    /// The first `results[]` entry of a report.
    fn first_result(doc: &mut Json) -> &mut Json {
        let Json::Obj(members) = doc else { panic!("not an object") };
        let (_, Json::Arr(results)) = members.iter_mut().find(|(k, _)| k == "results").unwrap()
        else {
            panic!("results is not an array")
        };
        &mut results[0]
    }

    /// A series whose `compacted_levels` counts the entries' flags.
    fn tiny_series(levels: Vec<Json>, totals: Json, degraded: u64) -> Json {
        let compacted =
            levels.iter().filter(|e| e.get("compacted") == Some(&Json::Bool(true))).count();
        Json::Obj(vec![
            ("degraded_levels".into(), int(degraded)),
            ("compacted_levels".into(), int(compacted as u64)),
            ("totals".into(), totals),
            ("levels".into(), Json::Arr(levels)),
        ])
    }

    fn level_entry(counters: &ThreadStats, degraded: bool) -> Json {
        Json::Obj(vec![
            ("level".into(), int(0)),
            ("frontier".into(), int(1)),
            ("discovered".into(), int(2)),
            ("time_us".into(), num(3.5)),
            ("degraded".into(), Json::Bool(degraded)),
            ("direction".into(), s("td")),
            ("compacted".into(), Json::Bool(false)),
            ("counters".into(), thread_stats_json(counters)),
        ])
    }

    fn report_with_series(series: Json) -> Json {
        let totals = ThreadStats {
            steal: StealCounters { attempts: 3, success: 1, victim_idle: 2, ..Default::default() },
            ..Default::default()
        };
        Json::Obj(vec![
            ("schema_version".into(), int(SCHEMA_VERSION)),
            ("bench".into(), s("test")),
            (
                "params".into(),
                Json::Obj(vec![
                    ("divisor".into(), int(128)),
                    ("threads".into(), int(4)),
                    ("sources".into(), int(2)),
                    ("seed".into(), int(1)),
                    ("hybrid".into(), Json::Bool(false)),
                ]),
            ),
            (
                "results".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("contender".into(), s("BFS_WSL")),
                    ("graph".into(), s("wikipedia")),
                    (
                        "time_ms".into(),
                        summary_json(&Summary {
                            count: 2,
                            mean: 1.0,
                            stddev: 0.1,
                            min: 0.9,
                            max: 1.1,
                        }),
                    ),
                    ("teps".into(), num(1e6)),
                    ("duplicate_overhead".into(), num(0.01)),
                    ("levels".into(), num(5.0)),
                    ("degraded_levels".into(), int(0)),
                    ("compacted_levels".into(), int(0)),
                    ("counters".into(), thread_stats_json(&totals)),
                    ("series".into(), series),
                ])]),
            ),
        ])
    }

    #[test]
    fn validate_accepts_conserving_report() {
        let a = ThreadStats { edges_scanned: 10, segments_fetched: 2, ..Default::default() };
        let b = ThreadStats { edges_scanned: 5, fetch_retries: 1, ..Default::default() };
        let mut totals = a;
        totals.merge(&b);
        let series = tiny_series(
            vec![level_entry(&a, false), level_entry(&b, true)],
            thread_stats_json(&totals),
            1,
        );
        validate_report(&report_with_series(series)).unwrap();
    }

    #[test]
    fn validate_rejects_broken_conservation() {
        let a = ThreadStats { edges_scanned: 10, ..Default::default() };
        let mut wrong = a;
        wrong.edges_scanned += 1; // totals disagree with the level sum
        let series = tiny_series(vec![level_entry(&a, false)], thread_stats_json(&wrong), 0);
        let err = validate_report(&report_with_series(series)).unwrap_err();
        assert!(err.contains("edges_scanned"), "{err}");
    }

    #[test]
    fn validate_rejects_degraded_mismatch_and_bad_steal() {
        let a = ThreadStats::default();
        let series = tiny_series(vec![level_entry(&a, true)], thread_stats_json(&a), 0);
        let err = validate_report(&report_with_series(series)).unwrap_err();
        assert!(err.contains("degraded"), "{err}");

        let mut bad = ThreadStats::default();
        bad.steal.attempts = 5; // no outcomes recorded
        let series = tiny_series(vec![level_entry(&bad, false)], thread_stats_json(&bad), 0);
        let err = validate_report(&report_with_series(series)).unwrap_err();
        assert!(err.contains("buckets"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_direction() {
        let a = ThreadStats::default();
        let mut entry = level_entry(&a, false);
        set(&mut entry, "direction", s("sideways"));
        let series = tiny_series(vec![entry], thread_stats_json(&a), 0);
        let err = validate_report(&report_with_series(series)).unwrap_err();
        assert!(err.contains("direction"), "{err}");
    }

    fn compacted(mut entry: Json) -> Json {
        set(&mut entry, "compacted", Json::Bool(true));
        entry
    }

    #[test]
    fn validate_accepts_compacted_top_down_levels() {
        let a = ThreadStats::default();
        let series = tiny_series(vec![compacted(level_entry(&a, false))], thread_stats_json(&a), 0);
        assert_eq!(series.get("compacted_levels"), Some(&int(1)));
        validate_report(&report_with_series(series)).unwrap();
    }

    #[test]
    fn validate_rejects_compacted_bottom_up_level() {
        let a = ThreadStats::default();
        let mut entry = level_entry(&a, false);
        set(&mut entry, "direction", s("bu"));
        let series = tiny_series(vec![compacted(entry)], thread_stats_json(&a), 0);
        let err = validate_report(&report_with_series(series)).unwrap_err();
        assert!(err.contains("compacted"), "{err}");
    }

    #[test]
    fn validate_rejects_compacted_count_mismatch() {
        let a = ThreadStats::default();
        let mut series =
            tiny_series(vec![compacted(level_entry(&a, false))], thread_stats_json(&a), 0);
        set(&mut series, "compacted_levels", int(3));
        let err = validate_report(&report_with_series(series)).unwrap_err();
        assert!(err.contains("compacted_levels"), "{err}");
    }

    /// A `serve` block, with a `telemetry` block that agrees with it
    /// when called as `serve_block(10, 8, 2, 8)`.
    fn serve_block(queries: u64, submitted: u64, shed: u64, completed: u64) -> Json {
        Json::Obj(vec![
            ("capacity".into(), int(2)),
            ("burst".into(), int(4)),
            ("queries".into(), int(queries)),
            ("submitted".into(), int(submitted)),
            ("shed".into(), int(shed)),
            ("completed".into(), int(completed)),
            ("degraded".into(), int(0)),
            ("cancelled".into(), int(0)),
            ("deadline_exceeded".into(), int(0)),
            ("failed".into(), int(0)),
            ("retries".into(), int(0)),
            ("qps".into(), num(123.4)),
            ("p50_ms".into(), num(1.0)),
            ("p90_ms".into(), num(2.0)),
            ("p99_ms".into(), num(3.0)),
            ("telemetry".into(), telemetry_block(|_, _| {})),
        ])
    }

    fn report_with_serve(serve: Json) -> Json {
        let mut doc =
            report_with_series(tiny_series(vec![], thread_stats_json(&ThreadStats::default()), 0));
        let r = first_result(&mut doc);
        remove(r, "series");
        push(r, "serve", serve);
        doc
    }

    #[test]
    fn validate_accepts_conserving_serve_block() {
        validate_report(&report_with_serve(serve_block(10, 8, 2, 8))).unwrap();
    }

    #[test]
    fn validate_rejects_serve_conservation_breaks() {
        // Admission leak: submitted + shed != queries.
        let err = validate_report(&report_with_serve(serve_block(10, 8, 1, 8))).unwrap_err();
        assert!(err.contains("shed"), "{err}");
        // Status leak: a submitted query with no terminal status.
        let err = validate_report(&report_with_serve(serve_block(10, 8, 2, 7))).unwrap_err();
        assert!(err.contains("terminal"), "{err}");
        // Missing percentile key.
        let mut serve = serve_block(10, 8, 2, 8);
        remove(&mut serve, "p99_ms");
        let err = validate_report(&report_with_serve(serve)).unwrap_err();
        assert!(err.contains("p99_ms"), "{err}");
        // Missing telemetry block.
        let mut serve = serve_block(10, 8, 2, 8);
        remove(&mut serve, "telemetry");
        let err = validate_report(&report_with_serve(serve)).unwrap_err();
        assert!(err.contains("telemetry"), "{err}");
    }

    fn batch_block(max_batch: u64, runs: u64, coalesced: u64, occupancy: f64) -> Json {
        Json::Obj(vec![
            ("max_batch".into(), int(max_batch)),
            ("runs".into(), int(runs)),
            ("coalesced".into(), int(coalesced)),
            ("occupancy".into(), num(occupancy)),
            ("qps".into(), num(500.0)),
            ("p50_ms".into(), num(0.5)),
            ("p99_ms".into(), num(1.5)),
            ("speedup".into(), num(4.2)),
        ])
    }

    fn serve_with_batch(batch: Json) -> Json {
        let mut serve = serve_block(10, 8, 2, 8);
        push(&mut serve, "batch", batch);
        serve
    }

    #[test]
    fn validate_accepts_conserving_batch_block() {
        // 3 coalesced runs carrying 160 queries: occupancy 53.33… of 64.
        let b = batch_block(64, 3, 160, 160.0 / 3.0);
        validate_report(&report_with_serve(serve_with_batch(b))).unwrap();
        // No batched runs at all is fine as long as coalesced is 0.
        let b = batch_block(64, 0, 0, 0.0);
        validate_report(&report_with_serve(serve_with_batch(b))).unwrap();
    }

    #[test]
    fn validate_rejects_batch_conservation_breaks() {
        // Occupancy above max_batch: 3 runs cannot carry 200 queries at
        // max_batch 64.
        let err = validate_report(&report_with_serve(serve_with_batch(batch_block(
            64,
            3,
            250,
            250.0 / 3.0,
        ))))
        .unwrap_err();
        assert!(err.contains("max_batch"), "{err}");
        // A "batched" run with a single member is not a batch.
        let err =
            validate_report(&report_with_serve(serve_with_batch(batch_block(64, 3, 5, 5.0 / 3.0))))
                .unwrap_err();
        assert!(err.contains("coalesced"), "{err}");
        // Recorded occupancy disagreeing with coalesced/runs.
        let err =
            validate_report(&report_with_serve(serve_with_batch(batch_block(64, 2, 128, 63.0))))
                .unwrap_err();
        assert!(err.contains("occupancy"), "{err}");
        // Coalesced queries with zero batched runs.
        let err = validate_report(&report_with_serve(serve_with_batch(batch_block(64, 0, 7, 0.0))))
            .unwrap_err();
        assert!(err.contains("0 runs"), "{err}");
    }

    /// A `serve.telemetry` block agreeing with `serve_block(10, 8, 2, 8)`
    /// unless a closure patches its `final` or `scrape` object.
    fn telemetry_block(patch: impl Fn(&mut Json, &mut Json)) -> Json {
        let mut fin = Json::Obj(vec![
            ("submitted".into(), int(8)),
            ("shed".into(), int(2)),
            ("completed".into(), int(8)),
            ("degraded".into(), int(0)),
            ("cancelled".into(), int(0)),
            ("deadline_exceeded".into(), int(0)),
            ("failed".into(), int(0)),
            ("retries".into(), int(0)),
            ("batched_runs".into(), int(0)),
            ("coalesced".into(), int(0)),
            ("p50_us".into(), int(1000)),
            ("p99_us".into(), int(3000)),
        ]);
        let mut scrape = Json::Obj(vec![
            ("mode".into(), s("registry")),
            ("submitted".into(), int(4)),
            ("terminal".into(), int(4)),
            ("shed".into(), int(1)),
        ]);
        patch(&mut fin, &mut scrape);
        Json::Obj(vec![("final".into(), fin), ("scrape".into(), scrape)])
    }

    fn serve_with_telemetry(tele: Json) -> Json {
        let mut serve = serve_block(10, 8, 2, 8);
        set(&mut serve, "telemetry", tele);
        serve
    }

    #[test]
    fn validate_accepts_conserving_telemetry_block() {
        let t = telemetry_block(|_, _| {});
        validate_report(&report_with_serve(serve_with_telemetry(t))).unwrap();
    }

    #[test]
    fn validate_rejects_telemetry_conservation_breaks() {
        // Registry disagreeing with the measured serve counters.
        let t = telemetry_block(|fin, _| set(fin, "completed", int(7)));
        let err = validate_report(&report_with_serve(serve_with_telemetry(t))).unwrap_err();
        assert!(err.contains("registry says 7"), "{err}");
        // A mid-run scrape exceeding the final count (counter went
        // backwards between scrape and quiescence).
        let t = telemetry_block(|_, scrape| set(scrape, "submitted", int(9)));
        let err = validate_report(&report_with_serve(serve_with_telemetry(t))).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
        // Registry percentile disagreeing with the measured histogram
        // by more than one log-histogram bucket (p50_ms is 1.0 in the
        // serve block, so 1000us ± 1/8 is the window).
        let t = telemetry_block(|fin, _| set(fin, "p50_us", int(2000)));
        let err = validate_report(&report_with_serve(serve_with_telemetry(t))).unwrap_err();
        assert!(err.contains("histogram bucket"), "{err}");
        // An unknown scrape mode.
        let t = telemetry_block(|_, scrape| set(scrape, "mode", s("carrier-pigeon")));
        let err = validate_report(&report_with_serve(serve_with_telemetry(t))).unwrap_err();
        assert!(err.contains("mode"), "{err}");
    }

    #[test]
    fn validate_rejects_missing_keys() {
        let doc = Json::parse(r#"{"schema_version":1,"bench":"x"}"#).unwrap();
        assert!(validate_report(&doc).is_err());
        let doc = Json::parse(r#"{"schema_version":99}"#).unwrap();
        assert!(validate_report(&doc).unwrap_err().contains("schema_version"));
        // An older schema is refused even when its keys happen to match.
        let mut doc = report_with_serve(serve_block(10, 8, 2, 8));
        set(&mut doc, "schema_version", int(SCHEMA_VERSION - 1));
        assert!(validate_report(&doc).unwrap_err().contains("schema_version"));
        // A result without the merged counters.
        let mut doc = report_with_serve(serve_block(10, 8, 2, 8));
        remove(first_result(&mut doc), "counters");
        assert!(validate_report(&doc).unwrap_err().contains("counters"));
    }
}
