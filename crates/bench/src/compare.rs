//! Regression gate: diff two `BENCH_*.json` reports of one schema
//! version.
//!
//! The bench binaries emit machine-readable reports with per-result
//! time summaries (mean/stddev over repeated sources) and counter
//! totals. Reports of different schema versions are refused rather than
//! diffed, since a version bump may redefine a metric (v6 redefined
//! `teps`). This module aligns two such reports by `(contender, graph)`
//! and flags *regressions*: mean-time growth, TEPS loss and serve
//! throughput or tail-latency shifts beyond one flat tolerance, and
//! counter blow-ups (fetch retries, stale aborts, steal failures)
//! beyond a coarser tolerance. An aggregate harmonic-TEPS
//! check catches the "every result 3% worse, none individually over
//! threshold" death-by-a-thousand-cuts case.
//!
//! The CLI wrapper (`obfs-bench` bin `compare`) exits nonzero when any
//! regression fires, which is what CI gates on. Its `--scale-time`
//! flag synthetically inflates the contender's times before comparing —
//! CI uses `compare X X --scale-time 1.5` as a self-test that the gate
//! actually trips.

use crate::json::Json;

/// Gate thresholds. All relative quantities are fractions (0.10 = 10%).
#[derive(Debug, Clone)]
pub struct CompareOpts {
    /// Relative headroom of every time, TEPS and serve gate. The
    /// recorded stddev never widens it: a gate widened by a noisy row's
    /// spread could not see a 1.5x slowdown once that spread reached a
    /// sixth of the mean.
    pub rel_tol: f64,
    /// Relative headroom for work counters (retries, aborts, steal
    /// failures) — wider than time, counters are inherently racier.
    pub counter_tol: f64,
    /// Absolute counter slack: deltas below this never fire (a handful
    /// of extra retries on a near-zero baseline is not a regression).
    pub counter_floor: f64,
    /// Self-test knob: multiply the contender report's mean times by
    /// this factor (and divide its TEPS) before comparing. 1.0 = off.
    pub scale_time: f64,
}

impl Default for CompareOpts {
    fn default() -> Self {
        Self { rel_tol: 0.10, counter_tol: 0.25, counter_floor: 64.0, scale_time: 1.0 }
    }
}

/// One compared metric of one `(contender, graph)` result pair.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Algorithm name.
    pub contender: String,
    /// Graph name (empty for report-wide aggregates).
    pub graph: String,
    /// Metric name (`time_ms`, `teps`, `harmonic_teps`, or a counter).
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Contender value (after `scale_time`, if set).
    pub new: f64,
    /// Signed relative change, `(new - base) / base` (0 if base is 0).
    pub change: f64,
    /// The gate width this delta was judged against (relative).
    pub allowed: f64,
    /// Whether this delta trips the gate.
    pub regression: bool,
}

/// Informational serve-telemetry shape of one matched result pair
/// (`serve.telemetry`). Never gated: shed rate and batch
/// occupancy describe the workload's interaction with the admission
/// gate and the coalescer, and legitimately move with capacity/burst
/// settings — the note exists so a shed-rate or occupancy shift is
/// *visible* next to a `serve_qps` regression it would explain.
#[derive(Debug, Clone)]
pub struct TelemetryNote {
    /// `contender/graph` pair key.
    pub key: String,
    /// Baseline `(shed_rate, occupancy)`; `None` if absent.
    pub base: Option<(f64, f64)>,
    /// Contender `(shed_rate, occupancy)`; `None` if absent.
    pub new: Option<(f64, f64)>,
}

/// The full diff of two reports.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Every compared metric, in report order.
    pub deltas: Vec<Delta>,
    /// `(contender, graph)` keys present in the baseline but missing
    /// from the contender report (treated as regressions: a silently
    /// vanished configuration must not pass the gate).
    pub missing: Vec<String>,
    /// Keys present only in the contender report (informational).
    pub added: Vec<String>,
    /// Serve-telemetry shape (shed rate, batch occupancy) of matched
    /// pairs that record a `serve.telemetry` block
    /// (informational, never a regression).
    pub telemetry: Vec<TelemetryNote>,
}

impl Comparison {
    /// Deltas that tripped the gate.
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regression).collect()
    }

    /// Whether the gate fails (any regression, or any missing result).
    pub fn failed(&self) -> bool {
        !self.missing.is_empty() || self.deltas.iter().any(|d| d.regression)
    }

    /// Deterministic JSON form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("failed".into(), Json::Bool(self.failed())),
            (
                "regressions".into(),
                Json::Num(self.deltas.iter().filter(|d| d.regression).count() as f64),
            ),
            (
                "missing".into(),
                Json::Arr(self.missing.iter().map(|m| Json::Str(m.clone())).collect()),
            ),
            ("added".into(), Json::Arr(self.added.iter().map(|m| Json::Str(m.clone())).collect())),
            (
                "telemetry".into(),
                Json::Arr(
                    self.telemetry
                        .iter()
                        .map(|t| {
                            let side = |s: &Option<(f64, f64)>| match s {
                                Some((shed, occ)) => Json::Obj(vec![
                                    ("shed_rate".into(), Json::Num(*shed)),
                                    ("occupancy".into(), Json::Num(*occ)),
                                ]),
                                None => Json::Null,
                            };
                            Json::Obj(vec![
                                ("key".into(), Json::Str(t.key.clone())),
                                ("base".into(), side(&t.base)),
                                ("new".into(), side(&t.new)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "deltas".into(),
                Json::Arr(
                    self.deltas
                        .iter()
                        .map(|d| {
                            Json::Obj(vec![
                                ("contender".into(), Json::Str(d.contender.clone())),
                                ("graph".into(), Json::Str(d.graph.clone())),
                                ("metric".into(), Json::Str(d.metric.clone())),
                                ("base".into(), Json::Num(d.base)),
                                ("new".into(), Json::Num(d.new)),
                                ("change".into(), Json::Num(d.change)),
                                ("allowed".into(), Json::Num(d.allowed)),
                                ("regression".into(), Json::Bool(d.regression)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable report: regressions first, then a summary line.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for m in &self.missing {
            writeln!(out, "MISSING  {m} (in baseline, absent from contender)").unwrap();
        }
        for m in &self.added {
            writeln!(out, "added    {m} (new in contender, not gated)").unwrap();
        }
        for t in &self.telemetry {
            let side = |s: &Option<(f64, f64)>| match s {
                Some((shed, occ)) => format!("shed {:.1}% occ {occ:.1}", shed * 100.0),
                None => "-".to_string(),
            };
            writeln!(
                out,
                "serve    {:<26} {} -> {}  (informational)",
                t.key,
                side(&t.base),
                side(&t.new)
            )
            .unwrap();
        }
        let regs = self.regressions();
        for d in &regs {
            writeln!(
                out,
                "REGRESSION  {:<10} {:<14} {:<16} {:>12.4} -> {:>12.4}  ({:+.1}%, allowed {:.1}%)",
                d.contender,
                d.graph,
                d.metric,
                d.base,
                d.new,
                d.change * 100.0,
                d.allowed * 100.0
            )
            .unwrap();
        }
        writeln!(
            out,
            "{}: {} metric(s) compared, {} regression(s), {} missing",
            if self.failed() { "FAIL" } else { "OK" },
            self.deltas.len(),
            regs.len(),
            self.missing.len()
        )
        .unwrap();
        out
    }
}

fn f(v: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for k in path {
        cur = cur.get(k)?;
    }
    cur.as_f64()
}

fn key_of(r: &Json) -> Option<String> {
    let c = r.get("contender").and_then(Json::as_str)?;
    let g = r.get("graph").and_then(Json::as_str)?;
    Some(format!("{c}/{g}"))
}

/// Harmonic-mean TEPS across a report's results (the graph500-style
/// aggregate: reciprocal of the mean reciprocal).
pub fn harmonic_teps(results: &[&Json]) -> f64 {
    let mut inv_sum = 0.0;
    let mut n = 0u64;
    for r in results {
        if let Some(t) = f(r, &["teps"]) {
            if t > 0.0 {
                inv_sum += 1.0 / t;
                n += 1;
            }
        }
    }
    if n == 0 || inv_sum == 0.0 {
        0.0
    } else {
        n as f64 / inv_sum
    }
}

/// Counters gated per result, as `(label, json path)` pairs. More work
/// per traversal is a protocol regression even when wall time hides it
/// (e.g. on an unloaded machine).
const GATED_COUNTERS: &[(&str, &[&str])] = &[
    ("fetch_retries", &["counters", "fetch_retries"]),
    ("stale_slot_aborts", &["counters", "stale_slot_aborts"]),
    ("segments_fetched", &["counters", "segments_fetched"]),
    ("steal_attempts", &["counters", "steal", "attempts"]),
];

/// Serve-layer gates of `bombard` reports: `(metric, path, higher is
/// better)`. Throughput regresses downward and tail latency upward; both
/// honor the `scale_time` self-test. `serve_batch_qps` (`--batch`) guards
/// the batching pipeline, so a coalescing or batch-kernel regression
/// shows even when solo qps holds.
const SERVE_GATES: &[(&str, &[&str], bool)] = &[
    ("serve_qps", &["serve", "qps"], true),
    ("serve_p99_ms", &["serve", "p99_ms"], false),
    ("serve_batch_qps", &["serve", "batch", "qps"], true),
];

/// Diff `base` against `new` (both parsed `BENCH_*.json` documents).
/// Results are aligned by `(contender, graph)`; see [`CompareOpts`] for
/// the gate widths. Errors on malformed documents and on differing
/// `schema_version`s — a regression is a *successful* comparison with
/// [`Comparison::failed`] set.
pub fn compare(base: &Json, new: &Json, opts: &CompareOpts) -> Result<Comparison, String> {
    let version = |doc: &Json, side: &str| {
        doc.get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{side}: missing schema_version"))
    };
    let (bv, nv) = (version(base, "baseline")?, version(new, "contender")?);
    if bv != nv {
        return Err(format!(
            "schema_version differs (baseline v{bv}, contender v{nv}); regrow the baseline \
             with this build instead of diffing across a metric redefinition"
        ));
    }
    let base_results =
        base.get("results").and_then(Json::as_arr).ok_or("baseline: missing results[]")?;
    let new_results =
        new.get("results").and_then(Json::as_arr).ok_or("contender: missing results[]")?;
    let mut cmp = Comparison::default();

    let mut new_by_key: Vec<(String, &Json)> = Vec::new();
    for r in new_results {
        new_by_key.push((key_of(r).ok_or("contender: result without contender/graph")?, r));
    }
    let mut matched: Vec<bool> = vec![false; new_by_key.len()];

    let mut base_matched: Vec<&Json> = Vec::new();
    let mut new_matched: Vec<&Json> = Vec::new();

    for b in base_results {
        let key = key_of(b).ok_or("baseline: result without contender/graph")?;
        let Some(pos) = new_by_key.iter().position(|(k, _)| *k == key) else {
            cmp.missing.push(key);
            continue;
        };
        matched[pos] = true;
        let n = new_by_key[pos].1;
        base_matched.push(b);
        new_matched.push(n);

        let contender = b.get("contender").and_then(Json::as_str).unwrap_or("").to_string();
        let graph = b.get("graph").and_then(Json::as_str).unwrap_or("").to_string();
        let bt = f(b, &["time_ms", "mean"]).ok_or_else(|| format!("{key}: no time_ms.mean"))?;
        let nt = f(n, &["time_ms", "mean"]).ok_or_else(|| format!("{key}: no time_ms.mean"))?
            * opts.scale_time;
        let change = if bt > 0.0 { (nt - bt) / bt } else { 0.0 };
        cmp.deltas.push(Delta {
            contender: contender.clone(),
            graph: graph.clone(),
            metric: "time_ms".into(),
            base: bt,
            new: nt,
            change,
            allowed: opts.rel_tol,
            regression: change > opts.rel_tol,
        });

        if let (Some(bteps), Some(nteps)) = (f(b, &["teps"]), f(n, &["teps"])) {
            let nteps = nteps / opts.scale_time;
            let change = if bteps > 0.0 { (nteps - bteps) / bteps } else { 0.0 };
            cmp.deltas.push(Delta {
                contender: contender.clone(),
                graph: graph.clone(),
                metric: "teps".into(),
                base: bteps,
                new: nteps,
                change,
                allowed: opts.rel_tol,
                regression: -change > opts.rel_tol, // TEPS regress downward
            });
        }

        // Serve-telemetry shape: recorded but never gated (see
        // [`TelemetryNote`]).
        let tele_shape = |r: &Json| -> Option<(f64, f64)> {
            let fin = r.get("serve")?.get("telemetry")?.get("final")?;
            let g = |k: &str| fin.get(k).and_then(Json::as_f64);
            let (sub, shed) = (g("submitted")?, g("shed")?);
            let rate = if sub + shed > 0.0 { shed / (sub + shed) } else { 0.0 };
            let (runs, coal) = (g("batched_runs")?, g("coalesced")?);
            let occ = if runs > 0.0 { coal / runs } else { 0.0 };
            Some((rate, occ))
        };
        let (bt2, nt2) = (tele_shape(b), tele_shape(n));
        if bt2.is_some() || nt2.is_some() {
            cmp.telemetry.push(TelemetryNote { key: key.clone(), base: bt2, new: nt2 });
        }

        for (label, path) in GATED_COUNTERS {
            let (Some(bc), Some(nc)) = (f(b, path), f(n, path)) else { continue };
            let slack = (opts.counter_tol * bc).max(opts.counter_floor);
            let change = if bc > 0.0 { (nc - bc) / bc } else { 0.0 };
            cmp.deltas.push(Delta {
                contender: contender.clone(),
                graph: graph.clone(),
                metric: (*label).into(),
                base: bc,
                new: nc,
                change,
                allowed: slack / bc.max(1.0),
                regression: nc > bc + slack,
            });
        }

        for (label, path, higher_is_better) in SERVE_GATES {
            let (Some(bv), Some(nv)) = (f(b, path), f(n, path)) else { continue };
            let nv = if *higher_is_better { nv / opts.scale_time } else { nv * opts.scale_time };
            let change = if bv > 0.0 { (nv - bv) / bv } else { 0.0 };
            cmp.deltas.push(Delta {
                contender: contender.clone(),
                graph: graph.clone(),
                metric: (*label).into(),
                base: bv,
                new: nv,
                change,
                allowed: opts.rel_tol,
                regression: if *higher_is_better { -change } else { change } > opts.rel_tol,
            });
        }
    }

    for (pos, (key, _)) in new_by_key.iter().enumerate() {
        if !matched[pos] {
            cmp.added.push(key.clone());
        }
    }

    // Aggregate harmonic TEPS over the matched pairs: catches uniform
    // small slowdowns that stay under every per-result gate.
    if !base_matched.is_empty() {
        let bh = harmonic_teps(&base_matched);
        let nh = harmonic_teps(&new_matched) / opts.scale_time;
        if bh > 0.0 && nh > 0.0 {
            let change = (nh - bh) / bh;
            cmp.deltas.push(Delta {
                contender: "*".into(),
                graph: "*".into(),
                metric: "harmonic_teps".into(),
                base: bh,
                new: nh,
                change,
                allowed: opts.rel_tol,
                regression: -change > opts.rel_tol,
            });
        }
    }

    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal two-result report; `scale` multiplies times (and
    /// divides TEPS), `retries` sets the fetch_retries counter.
    fn report(scale: f64, retries: u64, stddev: f64) -> Json {
        let result = |algo: &str, graph: &str, ms: f64| {
            Json::Obj(vec![
                ("contender".into(), Json::Str(algo.into())),
                ("graph".into(), Json::Str(graph.into())),
                (
                    "time_ms".into(),
                    Json::Obj(vec![
                        ("count".into(), Json::Num(5.0)),
                        ("mean".into(), Json::Num(ms * scale)),
                        ("stddev".into(), Json::Num(stddev)),
                        ("min".into(), Json::Num(ms * scale * 0.9)),
                        ("max".into(), Json::Num(ms * scale * 1.1)),
                    ]),
                ),
                ("teps".into(), Json::Num(1e6 / (ms * scale))),
                (
                    "counters".into(),
                    Json::Obj(vec![
                        ("segments_fetched".into(), Json::Num(1000.0)),
                        ("fetch_retries".into(), Json::Num(retries as f64)),
                        ("stale_slot_aborts".into(), Json::Num(10.0)),
                        ("dedup_skips".into(), Json::Num(0.0)),
                        (
                            "steal".into(),
                            Json::Obj(vec![
                                ("attempts".into(), Json::Num(500.0)),
                                ("success".into(), Json::Num(400.0)),
                            ]),
                        ),
                    ]),
                ),
            ])
        };
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(crate::json::SCHEMA_VERSION as f64)),
            ("bench".into(), Json::Str("test".into())),
            (
                "results".into(),
                Json::Arr(vec![result("BFS_WSL", "wikipedia", 4.0), result("BFS_CL", "grid", 9.0)]),
            ),
        ])
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(1.0, 100, 0.05);
        let c = compare(&r, &r, &CompareOpts::default()).unwrap();
        assert!(!c.failed(), "{}", c.render_table());
        assert!(c.missing.is_empty() && c.added.is_empty());
        // time + teps + 4 counters per pair, + harmonic aggregate.
        assert_eq!(c.deltas.len(), 2 * 6 + 1);
    }

    #[test]
    fn slowdown_beyond_tolerance_fails() {
        let base = report(1.0, 100, 0.05);
        let slow = report(1.6, 100, 0.05);
        let c = compare(&base, &slow, &CompareOpts::default()).unwrap();
        assert!(c.failed());
        let regs = c.regressions();
        assert!(regs.iter().any(|d| d.metric == "time_ms"), "{}", c.render_table());
        assert!(regs.iter().any(|d| d.metric == "teps"));
        assert!(regs.iter().any(|d| d.metric == "harmonic_teps"));
    }

    #[test]
    fn scale_time_self_test_trips_the_gate() {
        let r = report(1.0, 100, 0.05);
        let opts = CompareOpts { scale_time: 2.0, ..CompareOpts::default() };
        let c = compare(&r, &r, &opts).unwrap();
        assert!(c.failed(), "identity compare with 2x scale must fail");
        let c =
            compare(&r, &r, &CompareOpts { scale_time: 1.0, ..CompareOpts::default() }).unwrap();
        assert!(!c.failed());
    }

    /// Attach a `compacted_levels` count to every result.
    fn with_compacted_levels(mut doc: Json, compacted: u64) -> Json {
        if let Json::Obj(members) = &mut doc {
            for (k, v) in members.iter_mut() {
                if k == "results" {
                    if let Json::Arr(rs) = v {
                        for r in rs {
                            if let Json::Obj(m) = r {
                                m.push(("compacted_levels".into(), Json::Num(compacted as f64)));
                            }
                        }
                    }
                }
            }
        }
        doc
    }

    #[test]
    fn gate_trips_on_synthetic_regression_in_a_compacted_run() {
        // The CI must-trip self-test in miniature: a compacted-run
        // report (compacted_levels > 0) slowed 1.5x must fail.
        let base = with_compacted_levels(report(1.0, 100, 0.05), 3);
        let slow = with_compacted_levels(report(1.5, 100, 0.05), 3);
        let c = compare(&base, &slow, &CompareOpts::default()).unwrap();
        assert!(c.failed(), "{}", c.render_table());
        assert!(c.regressions().iter().any(|d| d.metric == "time_ms"));
        assert!(c.regressions().iter().any(|d| d.metric == "harmonic_teps"));
        // And through the scale_time knob, exactly as CI invokes it
        // (`compare X X --scale-time 1.5`).
        let opts = CompareOpts { scale_time: 1.5, ..CompareOpts::default() };
        let c = compare(&base, &base, &opts).unwrap();
        assert!(c.failed(), "identity compare with 1.5x scale must fail");
    }

    /// Attach a serve block (qps, p99) to every result of a report.
    fn with_serve(mut doc: Json, qps: f64, p99: f64) -> Json {
        let serve =
            Json::Obj(vec![("qps".into(), Json::Num(qps)), ("p99_ms".into(), Json::Num(p99))]);
        if let Json::Obj(members) = &mut doc {
            for (k, v) in members.iter_mut() {
                if k == "results" {
                    if let Json::Arr(rs) = v {
                        for r in rs {
                            if let Json::Obj(m) = r {
                                m.push(("serve".into(), serve.clone()));
                            }
                        }
                    }
                }
            }
        }
        doc
    }

    #[test]
    fn serve_metrics_gate_throughput_down_and_tail_up() {
        let base = with_serve(report(1.0, 100, 0.05), 200.0, 5.0);
        // Identical serve numbers pass and are compared.
        let c = compare(&base, &base, &CompareOpts::default()).unwrap();
        assert!(!c.failed(), "{}", c.render_table());
        assert!(c.deltas.iter().any(|d| d.metric == "serve_qps"));
        assert!(c.deltas.iter().any(|d| d.metric == "serve_p99_ms"));
        // Throughput collapse fails.
        let slow = with_serve(report(1.0, 100, 0.05), 120.0, 5.0);
        let c = compare(&base, &slow, &CompareOpts::default()).unwrap();
        assert!(c.regressions().iter().any(|d| d.metric == "serve_qps"), "{}", c.render_table());
        // Tail-latency blowup fails.
        let tail = with_serve(report(1.0, 100, 0.05), 200.0, 9.0);
        let c = compare(&base, &tail, &CompareOpts::default()).unwrap();
        assert!(c.regressions().iter().any(|d| d.metric == "serve_p99_ms"));
        // qps *gain* and p99 *drop* are improvements, not regressions.
        let better = with_serve(report(1.0, 100, 0.05), 400.0, 1.0);
        let c = compare(&base, &better, &CompareOpts::default()).unwrap();
        assert!(!c.failed(), "{}", c.render_table());
        // The scale-time self-test trips the serve gates too.
        let opts = CompareOpts { scale_time: 2.0, ..CompareOpts::default() };
        let c = compare(&base, &base, &opts).unwrap();
        assert!(c.regressions().iter().any(|d| d.metric == "serve_qps"));
        assert!(c.regressions().iter().any(|d| d.metric == "serve_p99_ms"));
    }

    /// Attach a `serve.batch` block (batched qps) to every
    /// result that already carries a serve block.
    fn with_batch(mut doc: Json, batch_qps: f64) -> Json {
        let batch = Json::Obj(vec![("qps".into(), Json::Num(batch_qps))]);
        if let Json::Obj(members) = &mut doc {
            for (k, v) in members.iter_mut() {
                if k == "results" {
                    if let Json::Arr(rs) = v {
                        for r in rs {
                            if let Some(Json::Obj(serve)) = r.get("serve").cloned().as_ref() {
                                let mut serve = serve.clone();
                                serve.push(("batch".into(), batch.clone()));
                                if let Json::Obj(m) = r {
                                    m.retain(|(k, _)| k != "serve");
                                    m.push(("serve".into(), Json::Obj(serve)));
                                }
                            }
                        }
                    }
                }
            }
        }
        doc
    }

    #[test]
    fn batched_serve_qps_gates_downward() {
        let base = with_batch(with_serve(report(1.0, 100, 0.05), 200.0, 5.0), 900.0);
        // Identity: compared, not flagged.
        let c = compare(&base, &base, &CompareOpts::default()).unwrap();
        assert!(!c.failed(), "{}", c.render_table());
        assert!(c.deltas.iter().any(|d| d.metric == "serve_batch_qps"));
        // Batched throughput collapse fails even with solo qps steady.
        let slow = with_batch(with_serve(report(1.0, 100, 0.05), 200.0, 5.0), 500.0);
        let c = compare(&base, &slow, &CompareOpts::default()).unwrap();
        assert!(
            c.regressions().iter().any(|d| d.metric == "serve_batch_qps"),
            "{}",
            c.render_table()
        );
        assert!(!c.regressions().iter().any(|d| d.metric == "serve_qps"));
        // A batched-throughput gain is an improvement, not a regression.
        let better = with_batch(with_serve(report(1.0, 100, 0.05), 200.0, 5.0), 2000.0);
        assert!(!compare(&base, &better, &CompareOpts::default()).unwrap().failed());
        // The scale-time self-test trips this gate too.
        let opts = CompareOpts { scale_time: 2.0, ..CompareOpts::default() };
        let c = compare(&base, &base, &opts).unwrap();
        assert!(c.regressions().iter().any(|d| d.metric == "serve_batch_qps"));
        // A baseline without the batch block simply skips the metric.
        let solo = with_serve(report(1.0, 100, 0.05), 200.0, 5.0);
        let c = compare(&solo, &base, &CompareOpts::default()).unwrap();
        assert!(!c.deltas.iter().any(|d| d.metric == "serve_batch_qps"));
    }

    /// The serve gates use the flat tolerance: a recorded traversal-time
    /// stddev of 40% of the mean (a few stalls over short traversals)
    /// must not hide a 1.5x throughput drop or tail-latency rise.
    #[test]
    fn serve_gates_ignore_the_traversal_time_spread() {
        // stddev 1.6 ms: 40% of the 4 ms row's mean, 18% of the 9 ms row's.
        let noisy = |qps, p99, batch_qps| {
            with_batch(with_serve(report(1.0, 100, 1.6), qps, p99), batch_qps)
        };
        let base = noisy(300.0, 6.0, 900.0);
        assert!(!compare(&base, &base, &CompareOpts::default()).unwrap().failed());
        let worse = noisy(200.0, 9.0, 600.0);
        let scaled = CompareOpts { scale_time: 1.5, ..CompareOpts::default() };
        for c in [
            compare(&base, &worse, &CompareOpts::default()).unwrap(),
            compare(&base, &base, &scaled).unwrap(),
        ] {
            for metric in ["serve_qps", "serve_p99_ms", "serve_batch_qps"] {
                let flagged = c.regressions().iter().filter(|d| d.metric == metric).count();
                assert_eq!(flagged, 2, "{metric} on both rows: {}", c.render_table());
            }
        }
    }

    /// Attach a `serve.telemetry` block to every result that
    /// already carries a serve block.
    fn with_telemetry(mut doc: Json, shed: u64, submitted: u64, runs: u64, coal: u64) -> Json {
        let int = |x: u64| Json::Num(x as f64);
        let tele = Json::Obj(vec![(
            "final".into(),
            Json::Obj(vec![
                ("submitted".into(), int(submitted)),
                ("shed".into(), int(shed)),
                ("batched_runs".into(), int(runs)),
                ("coalesced".into(), int(coal)),
            ]),
        )]);
        if let Json::Obj(members) = &mut doc {
            for (k, v) in members.iter_mut() {
                if k == "results" {
                    if let Json::Arr(rs) = v {
                        for r in rs {
                            if let Some(Json::Obj(serve)) = r.get("serve").cloned().as_ref() {
                                let mut serve = serve.clone();
                                serve.push(("telemetry".into(), tele.clone()));
                                if let Json::Obj(m) = r {
                                    m.retain(|(k, _)| k != "serve");
                                    m.push(("serve".into(), Json::Obj(serve)));
                                }
                            }
                        }
                    }
                }
            }
        }
        doc
    }

    #[test]
    fn serve_telemetry_shape_is_informational_never_gated() {
        // A big shed-rate and occupancy shift between reports is
        // surfaced but must not fail the gate on its own.
        let base = with_telemetry(with_serve(report(1.0, 100, 0.05), 200.0, 5.0), 0, 64, 2, 4);
        let shifted = with_telemetry(with_serve(report(1.0, 100, 0.05), 200.0, 5.0), 32, 32, 8, 64);
        let c = compare(&base, &shifted, &CompareOpts::default()).unwrap();
        assert!(!c.failed(), "{}", c.render_table());
        assert_eq!(c.telemetry.len(), 2);
        let t = &c.telemetry[0];
        let (bs, bo) = t.base.unwrap();
        let (ns, no) = t.new.unwrap();
        assert!((bs - 0.0).abs() < 1e-9 && (bo - 2.0).abs() < 1e-9);
        assert!((ns - 0.5).abs() < 1e-9 && (no - 8.0).abs() < 1e-9);
        assert!(c.render_table().contains("serve    "), "{}", c.render_table());
        assert!(c.to_json().render().contains("shed_rate"));
        // A baseline without the block still gets a note with its side
        // absent.
        let c = compare(
            &with_serve(report(1.0, 100, 0.05), 200.0, 5.0),
            &base,
            &CompareOpts::default(),
        )
        .unwrap();
        assert!(!c.failed());
        assert!(c.telemetry.iter().all(|t| t.base.is_none() && t.new.is_some()));
        assert!(c.render_table().contains("- -> shed"), "{}", c.render_table());
    }

    /// The time and TEPS gates use the flat tolerance too: a recorded
    /// stddev of 40% of the mean must not hide a 1.5x slowdown.
    #[test]
    fn noisy_rows_still_flag_a_slowdown() {
        // stddev 1.6 ms: 40% of the 4 ms row's mean, 18% of the 9 ms row's.
        let noisy = report(1.0, 100, 1.6);
        let opts = CompareOpts { scale_time: 1.5, ..CompareOpts::default() };
        let c = compare(&noisy, &noisy, &opts).unwrap();
        for metric in ["time_ms", "teps"] {
            let flagged = c.regressions().iter().filter(|d| d.metric == metric).count();
            assert_eq!(flagged, 2, "{metric} on both rows: {}", c.render_table());
        }
        assert!(
            c.regressions().iter().any(|d| d.metric == "harmonic_teps"),
            "{}",
            c.render_table()
        );
        // 12% slower is over the flat 10% whatever the recorded noise.
        let slower = report(1.12, 100, 1.6);
        let c = compare(&noisy, &slower, &CompareOpts::default()).unwrap();
        assert!(c.regressions().iter().any(|d| d.metric == "time_ms"), "{}", c.render_table());
    }

    #[test]
    fn counter_blowup_fails_small_jitter_passes() {
        let base = report(1.0, 1000, 0.05);
        // +30% retries: over counter_tol (25%).
        let c = compare(&base, &report(1.0, 1300, 0.05), &CompareOpts::default()).unwrap();
        assert!(c.regressions().iter().any(|d| d.metric == "fetch_retries"));
        // +5%: within tolerance.
        let c = compare(&base, &report(1.0, 1050, 0.05), &CompareOpts::default()).unwrap();
        assert!(!c.failed(), "{}", c.render_table());
        // Near-zero baseline: +40 retries is under the absolute floor.
        let tiny = report(1.0, 2, 0.05);
        let c = compare(&tiny, &report(1.0, 42, 0.05), &CompareOpts::default()).unwrap();
        assert!(!c.failed(), "{}", c.render_table());
    }

    #[test]
    fn missing_result_fails_added_result_does_not() {
        let base = report(1.0, 100, 0.05);
        let mut one = report(1.0, 100, 0.05);
        if let Json::Obj(members) = &mut one {
            for (k, v) in members.iter_mut() {
                if k == "results" {
                    if let Json::Arr(rs) = v {
                        rs.truncate(1);
                    }
                }
            }
        }
        let c = compare(&base, &one, &CompareOpts::default()).unwrap();
        assert!(c.failed());
        assert_eq!(c.missing, vec!["BFS_CL/grid".to_string()]);
        // The reverse direction only reports "added".
        let c = compare(&one, &base, &CompareOpts::default()).unwrap();
        assert!(!c.failed(), "{}", c.render_table());
        assert_eq!(c.added, vec!["BFS_CL/grid".to_string()]);
    }

    #[test]
    fn json_and_table_forms_agree_on_failure() {
        let base = report(1.0, 100, 0.05);
        let slow = report(2.0, 100, 0.05);
        let c = compare(&base, &slow, &CompareOpts::default()).unwrap();
        assert!(c.failed());
        let j = c.to_json();
        assert_eq!(j.get("failed").and_then(Json::as_bool), Some(true));
        assert!(c.render_table().contains("REGRESSION"));
        assert!(c.render_table().contains("FAIL"));
        // Deterministic rendering.
        assert_eq!(j.render(), c.to_json().render());
    }

    #[test]
    fn malformed_reports_error_out() {
        let good = report(1.0, 100, 0.05);
        assert!(compare(&Json::Obj(vec![]), &good, &CompareOpts::default()).is_err());
        assert!(compare(&good, &Json::Null, &CompareOpts::default()).is_err());
    }

    #[test]
    fn mixed_schema_versions_are_refused() {
        let new = report(1.0, 100, 0.05);
        let mut old = new.clone();
        if let Json::Obj(members) = &mut old {
            members[0].1 = Json::Num(crate::json::SCHEMA_VERSION as f64 - 1.0);
        }
        let err = compare(&old, &new, &CompareOpts::default()).unwrap_err();
        assert!(err.contains("schema_version differs"), "{err}");
        assert!(compare(&new, &old, &CompareOpts::default()).is_err());
        assert!(!compare(&old, &old, &CompareOpts::default()).unwrap().failed());
    }
}
