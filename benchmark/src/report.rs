//! Console lines, the JSON result line, and the self-describing
//! results file.

use crate::metrics::Metric;
use crate::workload::{Run, Spec, THREADS};
use obfs_util::Json;
use std::path::{Path, PathBuf};

/// Where results and span files go, relative to the working directory.
pub const OUT_DIR: &str = "target/benchmark";

/// `workload metric value unit` for each metric.
pub fn lines(workload: &str, metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| format!("{workload} {} {} {}", m.name, m.value, m.unit))
        .collect()
}

/// The last stdout line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(run: &Run, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(run.correct())),
        ("attempted".into(), Json::Num(run.tally.attempted as f64)),
        ("failed".into(), Json::Num(run.tally.failures() as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

fn metric_json(m: &Metric) -> Json {
    let mut v = vec![
        ("value".into(), Json::Num(m.value)),
        ("unit".into(), Json::Str(m.unit.into())),
        ("samples".into(), Json::Num(m.samples as f64)),
        ("q1".into(), Json::Num(m.quartiles.0)),
        ("q3".into(), Json::Num(m.quartiles.1)),
    ];
    if let Some(p) = m.percentile {
        v.push(("percentile".into(), Json::Num(p)));
    }
    Json::Obj(v)
}

fn first_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
}

/// Host facts a result depends on.
pub fn host() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
    });
    let text = |v: Option<String>| Json::Str(v.unwrap_or_else(|| "unknown".into()));
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu_model".into(), text(cpu)),
        (
            "l3".into(),
            text(first_line("/sys/devices/system/cpu/cpu0/cache/index3/size")),
        ),
        (
            "kernel".into(),
            text(first_line("/proc/sys/kernel/osrelease")),
        ),
    ])
}

/// The checked-out commit, read from `.git` without running git
/// (`unknown` outside a git checkout).
pub fn commit() -> String {
    let resolve = || -> Option<String> {
        let head = first_line(".git/HEAD")?;
        let Some(r) = head.strip_prefix("ref: ") else {
            return Some(head);
        };
        first_line(&format!(".git/{r}")).or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find_map(|l| {
                    let (sha, name) = l.split_once(' ')?;
                    (name == r).then(|| sha.to_string())
                })
        })
    };
    resolve().unwrap_or_else(|| "unknown".into())
}

/// `target/benchmark/results.seed<S>.json`.
pub fn results_path(seed: u64) -> PathBuf {
    Path::new(OUT_DIR).join(format!("results.seed{seed}.json"))
}

/// `target/benchmark/<workload>.seed<S>.trace.json`.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{workload}.seed{seed}.trace.json"))
}

fn set(members: &mut Vec<(String, Json)>, key: &str, value: Json) {
    match members.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => members.push((key.to_string(), value)),
    }
}

/// Fold this run into the seed's results document: host facts, commit,
/// seed and threads at the top, then `workloads.<name>.<timed|traced>`.
/// Runs of other workloads already in `doc` are kept.
pub fn merge_results(doc: Option<Json>, spec: &Spec, seed: u64, seconds: f64, run: &Run) -> Json {
    let mut top = match doc {
        Some(Json::Obj(m)) => m,
        _ => Vec::new(),
    };
    set(&mut top, "schema", Json::Str("obfs-benchmark/1".into()));
    set(&mut top, "seed", Json::Num(seed as f64));
    set(&mut top, "threads", Json::Num(THREADS as f64));
    set(&mut top, "commit", Json::Str(commit()));
    set(&mut top, "host", host());
    let mut workloads = match top.iter().find(|(k, _)| k == "workloads") {
        Some((_, Json::Obj(m))) => m.clone(),
        _ => Vec::new(),
    };
    let metrics = |ms: &[Metric]| {
        Json::Obj(
            ms.iter()
                .map(|m| (m.name.to_string(), metric_json(m)))
                .collect(),
        )
    };
    let t = &run.tally;
    let entry = Json::Obj(vec![
        ("seconds".into(), Json::Num(seconds)),
        ("correct".into(), Json::Bool(run.correct())),
        ("attempted".into(), Json::Num(t.attempted as f64)),
        ("failed".into(), Json::Num(t.failures() as f64)),
        ("fail_frac".into(), Json::Num(run.timed_fail_frac)),
        (
            "failures".into(),
            Json::Obj(vec![
                ("shed".into(), Json::Num(t.shed as f64)),
                ("failed".into(), Json::Num(t.failed as f64)),
                ("cancelled".into(), Json::Num(t.cancelled as f64)),
                (
                    "deadline_exceeded".into(),
                    Json::Num(t.deadline_exceeded as f64),
                ),
                ("wrong".into(), Json::Num(t.wrong as f64)),
            ]),
        ),
        ("end_to_end".into(), metrics(&run.end_to_end)),
        ("raw".into(), metrics(&run.raw)),
        (
            "per_layer".into(),
            run.per_layer.as_deref().map_or(Json::Null, metrics),
        ),
    ]);
    let mut w = match workloads.iter().find(|(k, _)| k == spec.name) {
        Some((_, Json::Obj(m))) => m.clone(),
        _ => Vec::new(),
    };
    set(
        &mut w,
        if run.per_layer.is_some() {
            "traced"
        } else {
            "timed"
        },
        entry,
    );
    set(&mut workloads, spec.name, Json::Obj(w));
    set(&mut top, "workloads", Json::Obj(workloads));
    Json::Obj(top)
}

/// Read, merge and rewrite the results file (written whole to a
/// temporary name, then renamed, so a reader never sees half of it).
pub fn write_results(spec: &Spec, seed: u64, seconds: f64, run: &Run) -> std::io::Result<PathBuf> {
    let path = results_path(seed);
    std::fs::create_dir_all(OUT_DIR)?;
    let old = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| Json::parse(&s).ok());
    let doc = merge_results(old, spec, seed, seconds, run);
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, doc.render())?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Sheet, END_TO_END, RAW};
    use crate::stats::Tally;

    fn sheet(table: &'static [(&'static str, &'static str)], value: f64) -> Vec<Metric> {
        let mut s = Sheet::new(table);
        for (n, _) in table {
            s.value(n, value);
        }
        s.finish()
    }

    fn run(value: f64) -> Run {
        Run {
            tally: Tally {
                attempted: 10,
                wrong: 1,
                ..Default::default()
            },
            timed_fail_frac: 0.1,
            end_to_end: sheet(&END_TO_END, value),
            raw: sheet(&RAW, value),
            per_layer: None,
            tracer: None,
        }
    }

    #[test]
    fn result_line_has_exactly_its_four_keys() {
        let r = run(1.25);
        let doc = Json::parse(&result_line(&r, &r.end_to_end)).unwrap();
        let Json::Obj(m) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").unwrap().as_u64(), Some(1));
        let speedup = doc.get("metrics").unwrap().get("speedup_vs_sbfs").unwrap();
        assert_eq!(speedup.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(speedup.get("unit").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn results_merge_keeps_other_workloads() {
        let [g500, deep, ..] = Spec::all();
        let doc = merge_results(None, &g500, 4, 10.0, &run(1.0));
        let doc = merge_results(Some(doc), &deep, 4, 10.0, &run(2.0));
        let doc = merge_results(Some(doc), &g500, 4, 10.0, &run(3.0));
        let w = doc.get("workloads").unwrap();
        let value = |name: &str| {
            w.get(name)
                .unwrap()
                .get("timed")
                .unwrap()
                .get("raw")
                .unwrap()
                .get("qps")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(
            (value("g500-rmat20"), value("deep-sparse")),
            (Some(3.0), Some(2.0))
        );
        for key in ["nproc", "cpu_model", "l3", "kernel"] {
            assert!(doc.get("host").unwrap().get(key).is_some(), "host.{key}");
        }
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("threads").unwrap().as_u64(), Some(THREADS as u64));
        assert!(doc.get("commit").unwrap().as_str().is_some());
    }
}
