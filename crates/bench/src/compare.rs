//! Regression gate: diff two `BENCH_*.json` reports of one schema
//! version.
//!
//! The bench binaries emit machine-readable reports with per-result
//! time summaries (mean/stddev over repeated sources) and counter
//! totals. Reports of different schema versions are refused rather than
//! diffed, since a version bump may redefine a metric (v6 redefined
//! `teps`). This module aligns two such reports by `(contender, graph)`
//! and flags *regressions*: mean-time growth or TEPS loss beyond a
//! noise threshold derived from the **recorded stddev** (so noisy
//! configurations get proportionally wider gates and quiet ones stay
//! tight), and counter blow-ups (fetch retries, stale aborts, steal
//! failures) beyond a coarser tolerance. An aggregate harmonic-TEPS
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
    /// Minimum relative headroom on mean time / TEPS, even for noise-free
    /// baselines.
    pub rel_tol: f64,
    /// Noise multiplier: the gate widens to `sigma ×` the recorded
    /// relative stddev when that exceeds `rel_tol`.
    pub sigma: f64,
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
        Self { rel_tol: 0.10, sigma: 3.0, counter_tol: 0.25, counter_floor: 64.0, scale_time: 1.0 }
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

/// Informational kernel-backend identity of one matched result pair
/// (`kernel_backend`). Never gated: the dispatched kernels
/// are interchangeable by construction, and the probe legitimately
/// picks differently on different machines — the note exists so a
/// surprise backend flip is *visible* next to a time regression.
#[derive(Debug, Clone)]
pub struct BackendNote {
    /// `contender/graph` pair key.
    pub key: String,
    /// Baseline backend label (`"-"` if absent).
    pub base: String,
    /// Contender backend label (`"-"` if absent).
    pub new: String,
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
    /// Kernel-backend identities of matched pairs that record one
    /// (informational, never a regression).
    pub kernel_backends: Vec<BackendNote>,
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
            (
                "added".into(),
                Json::Arr(self.added.iter().map(|m| Json::Str(m.clone())).collect()),
            ),
            (
                "kernel_backends".into(),
                Json::Arr(
                    self.kernel_backends
                        .iter()
                        .map(|b| {
                            Json::Obj(vec![
                                ("key".into(), Json::Str(b.key.clone())),
                                ("base".into(), Json::Str(b.base.clone())),
                                ("new".into(), Json::Str(b.new.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
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
        for b in &self.kernel_backends {
            let flip = if b.base != b.new { "  (changed — informational)" } else { "" };
            writeln!(out, "backend  {:<26} {} -> {}{flip}", b.key, b.base, b.new).unwrap();
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

/// Relative noise of one result: recorded stddev / mean of its time
/// summary (0 when degenerate).
fn rel_noise(r: &Json) -> f64 {
    let mean = f(r, &["time_ms", "mean"]).unwrap_or(0.0);
    let sd = f(r, &["time_ms", "stddev"]).unwrap_or(0.0);
    if mean > 0.0 && sd.is_finite() {
        sd / mean
    } else {
        0.0
    }
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

/// Diff `base` against `new` (both parsed `BENCH_*.json` documents).
/// Results are aligned by `(contender, graph)`; see [`CompareOpts`] for
/// the gate maths. Errors on malformed documents and on differing
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
        // Gate width: the larger of the flat tolerance and sigma× the
        // noisier side's recorded relative stddev.
        let noise = rel_noise(b).max(rel_noise(n));
        let allowed = opts.rel_tol.max(opts.sigma * noise);

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
            allowed,
            regression: change > allowed,
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
                allowed,
                regression: -change > allowed, // TEPS regress downward
            });
        }

        // Kernel identity: recorded but never gated (see [`BackendNote`]).
        let bk = b.get("kernel_backend").and_then(Json::as_str);
        let nk = n.get("kernel_backend").and_then(Json::as_str);
        if bk.is_some() || nk.is_some() {
            cmp.kernel_backends.push(BackendNote {
                key: key.clone(),
                base: bk.unwrap_or("-").to_string(),
                new: nk.unwrap_or("-").to_string(),
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

        // Serve-layer metrics (`bombard` reports): query throughput
        // regresses downward, tail latency upward. Both honor the
        // `scale_time` self-test like the traversal metrics do.
        if let (Some(bq), Some(nq)) = (f(b, &["serve", "qps"]), f(n, &["serve", "qps"])) {
            let nq = nq / opts.scale_time;
            let change = if bq > 0.0 { (nq - bq) / bq } else { 0.0 };
            cmp.deltas.push(Delta {
                contender: contender.clone(),
                graph: graph.clone(),
                metric: "serve_qps".into(),
                base: bq,
                new: nq,
                change,
                allowed,
                regression: -change > allowed,
            });
        }
        if let (Some(bp), Some(np)) = (f(b, &["serve", "p99_ms"]), f(n, &["serve", "p99_ms"])) {
            let np = np * opts.scale_time;
            let change = if bp > 0.0 { (np - bp) / bp } else { 0.0 };
            cmp.deltas.push(Delta {
                contender: contender.clone(),
                graph: graph.clone(),
                metric: "serve_p99_ms".into(),
                base: bp,
                new: np,
                change,
                allowed,
                regression: change > allowed,
            });
        }
        // Batched-serving throughput (`serve.batch`, bombard `--batch`):
        // queries/sec over coalesced multi-source runs.
        // Regresses downward like the other throughput metrics and
        // honors the `scale_time` self-test. Guards the whole batching
        // pipeline — a coalescing policy or batch-kernel regression
        // shows up here even when solo-query qps is unchanged.
        if let (Some(bq), Some(nq)) =
            (f(b, &["serve", "batch", "qps"]), f(n, &["serve", "batch", "qps"]))
        {
            let nq = nq / opts.scale_time;
            let change = if bq > 0.0 { (nq - bq) / bq } else { 0.0 };
            cmp.deltas.push(Delta {
                contender: contender.clone(),
                graph: graph.clone(),
                metric: "serve_batch_qps".into(),
                base: bq,
                new: nq,
                change,
                allowed,
                regression: -change > allowed,
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
            let noise = base_matched
                .iter()
                .zip(&new_matched)
                .map(|(b, n)| rel_noise(b).max(rel_noise(n)))
                .fold(0.0f64, f64::max);
            // Means across results average noise down; still use the
            // max recorded noise to stay conservative, but at half the
            // per-result sigma.
            let allowed = opts.rel_tol.max(opts.sigma * 0.5 * noise);
            let change = (nh - bh) / bh;
            cmp.deltas.push(Delta {
                contender: "*".into(),
                graph: "*".into(),
                metric: "harmonic_teps".into(),
                base: bh,
                new: nh,
                change,
                allowed,
                regression: -change > allowed,
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
        let c = compare(&r, &r, &CompareOpts { scale_time: 1.0, ..CompareOpts::default() })
            .unwrap();
        assert!(!c.failed());
    }

    /// Attach compaction/kernel fields to every result.
    fn with_kernel(mut doc: Json, backend: &str, compacted: u64) -> Json {
        if let Json::Obj(members) = &mut doc {
            for (k, v) in members.iter_mut() {
                if k == "results" {
                    if let Json::Arr(rs) = v {
                        for r in rs {
                            if let Json::Obj(m) = r {
                                m.push((
                                    "kernel_backend".into(),
                                    Json::Str(backend.into()),
                                ));
                                m.push((
                                    "compacted_levels".into(),
                                    Json::Num(compacted as f64),
                                ));
                            }
                        }
                    }
                }
            }
        }
        doc
    }

    #[test]
    fn kernel_backend_is_informational_never_gated() {
        // A backend flip between reports (different machine, different
        // probe outcome) is surfaced but must not fail the gate.
        let base = with_kernel(report(1.0, 100, 0.05), "wordwise", 3);
        let flipped = with_kernel(report(1.0, 100, 0.05), "scalar", 3);
        let c = compare(&base, &flipped, &CompareOpts::default()).unwrap();
        assert!(!c.failed(), "{}", c.render_table());
        assert_eq!(c.kernel_backends.len(), 2);
        assert!(c.kernel_backends.iter().all(|b| b.base == "wordwise" && b.new == "scalar"));
        assert!(c.render_table().contains("changed — informational"));
        assert!(c.to_json().render().contains("kernel_backends"));
        // A baseline without the key (a serial row) still gets a note
        // (base "-").
        let c = compare(&report(1.0, 100, 0.05), &base, &CompareOpts::default()).unwrap();
        assert!(!c.failed());
        assert!(c.kernel_backends.iter().all(|b| b.base == "-" && b.new == "wordwise"));
    }

    #[test]
    fn gate_trips_on_synthetic_regression_in_a_compacted_run() {
        // The CI must-trip self-test in miniature: a compacted-run
        // report (compacted_levels > 0, kernel backend recorded) slowed
        // 1.5x must fail, proving the gate still has teeth on reports
        // carrying the informational fields.
        let base = with_kernel(report(1.0, 100, 0.05), "wordwise", 3);
        let slow = with_kernel(report(1.5, 100, 0.05), "wordwise", 3);
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
        let serve = Json::Obj(vec![
            ("qps".into(), Json::Num(qps)),
            ("p99_ms".into(), Json::Num(p99)),
        ]);
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
                            if let Some(Json::Obj(serve)) =
                                r.get("serve").cloned().as_ref()
                            {
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
        let shifted =
            with_telemetry(with_serve(report(1.0, 100, 0.05), 200.0, 5.0), 32, 32, 8, 64);
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
        let c = compare(&with_serve(report(1.0, 100, 0.05), 200.0, 5.0), &base, &CompareOpts::default())
            .unwrap();
        assert!(!c.failed());
        assert!(c.telemetry.iter().all(|t| t.base.is_none() && t.new.is_some()));
        assert!(c.render_table().contains("- -> shed"), "{}", c.render_table());
    }

    #[test]
    fn noisy_baseline_widens_the_gate() {
        // 12% slower: over the flat 10% tolerance...
        let base = report(1.0, 100, 0.05);
        let slower = report(1.12, 100, 0.05);
        assert!(compare(&base, &slower, &CompareOpts::default()).unwrap().failed());
        // ...but inside 3 sigma when the recorded stddev is large
        // (stddev 0.4 on a 4ms mean = 10% rel noise; gate = 30%).
        let noisy_base = report(1.0, 100, 0.4);
        let noisy_slower = report(1.12, 100, 0.4);
        let c = compare(&noisy_base, &noisy_slower, &CompareOpts::default()).unwrap();
        assert!(
            !c.deltas.iter().any(|d| d.metric == "time_ms" && d.regression),
            "{}",
            c.render_table()
        );
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
