//! End-to-end lint runs against synthetic repo trees: the lint must
//! fail on a fixture with an uncommented `unsafe` block (and the other
//! rule violations), pass on the cleaned-up twin, and render
//! byte-identically across runs.

use std::fs;
use std::path::PathBuf;

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root = std::env::temp_dir().join(format!("obfs-lint-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        Self { root }
    }

    fn write(&self, rel: &str, content: &str) -> &Self {
        let p = self.root.join(rel);
        fs::create_dir_all(p.parent().unwrap()).unwrap();
        fs::write(p, content).unwrap();
        self
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const FLIGHT: &str = "pub mod kind {\n    pub const LEVEL_START: u16 = 1;\n    pub const FAULT: u16 = 2;\n    pub const FAULT_DELAY: u64 = 1;\n}\n";
const DESIGN: &str = "# design\n\n| kind | meaning | a | b |\n|---|---|---|---|\n| `LEVEL_START` | level began | — | — |\n| `FAULT` | fault injected | `FAULT_DELAY` | — |\n";
const SHIM_OK: &str = "pub fn on_or_off() {\n    #[cfg(feature = \"chaos\")]\n    inner();\n}\n";

/// The minimal skeleton every fixture needs: the shim files and the
/// taxonomy pair, all consistent.
fn skeleton(f: &Fixture) {
    f.write("crates/sync/src/flight.rs", FLIGHT)
        .write("crates/sync/src/chaos.rs", SHIM_OK)
        .write("DESIGN.md", DESIGN);
}

#[test]
fn uncommented_unsafe_fails_the_lint() {
    let f = Fixture::new("dirty");
    skeleton(&f);
    f.write("crates/app/src/lib.rs", "pub fn f(p: *mut u32) {\n    unsafe { *p = 1 };\n}\n");
    let report = obfs_lint::lint_repo(&f.root).unwrap();
    assert!(!report.passed());
    let rules: Vec<&str> = report.findings.iter().map(|x| x.rule).collect();
    assert!(rules.contains(&"safety-comment"), "missing SAFETY comment must be flagged: {rules:?}");
    assert!(rules.contains(&"unsafe-scope"), "unallowlisted unsafe outside sync must be flagged");
}

#[test]
fn commented_and_allowlisted_unsafe_passes() {
    let f = Fixture::new("clean");
    skeleton(&f);
    f.write(
        "crates/app/src/lib.rs",
        "pub fn f(p: *mut u32) {\n    // SAFETY: caller guarantees exclusivity.\n    unsafe { *p = 1 };\n}\n",
    );
    f.write(
        "scripts/lint.allow",
        "unsafe crates/app/src/lib.rs # raw pointer API, caller contract documented\n",
    );
    let report = obfs_lint::lint_repo(&f.root).unwrap();
    assert!(report.passed(), "unexpected findings: {:#?}", report.findings);
}

#[test]
fn stale_allowlist_entry_fails_the_lint() {
    let f = Fixture::new("stale");
    skeleton(&f);
    f.write("crates/app/src/lib.rs", "pub fn f() {}\n");
    f.write("scripts/lint.allow", "unsafe crates/app/src/lib.rs # no longer true\n");
    let report = obfs_lint::lint_repo(&f.root).unwrap();
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "allowlist-stale");
}

#[test]
fn one_sided_feature_gate_fails_shim_parity() {
    let f = Fixture::new("shim");
    skeleton(&f);
    f.write(
        "crates/sync/src/chaos.rs",
        "#[cfg(feature = \"chaos\")]\npub fn only_with_feature() {}\n",
    );
    let report = obfs_lint::lint_repo(&f.root).unwrap();
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "shim-parity");
}

#[test]
fn taxonomy_drift_is_flagged_both_ways() {
    let f = Fixture::new("taxonomy");
    skeleton(&f);
    // One kind the table misses, one table row with no const.
    f.write(
        "crates/sync/src/flight.rs",
        "pub mod kind {\n    pub const LEVEL_START: u16 = 1;\n    pub const FAULT: u16 = 2;\n    pub const NEW_KIND: u16 = 3;\n}\n",
    );
    let mut design = DESIGN.to_string();
    design.push_str("| `GHOST_KIND` | never implemented | — | — |\n");
    f.write("DESIGN.md", &design);
    let report = obfs_lint::lint_repo(&f.root).unwrap();
    let msgs: Vec<&str> = report.findings.iter().map(|x| x.message.as_str()).collect();
    assert_eq!(report.findings.len(), 2, "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("NEW_KIND")));
    assert!(msgs.iter().any(|m| m.contains("GHOST_KIND")));
}

#[test]
fn report_renders_byte_identically_across_runs() {
    let f = Fixture::new("deterministic");
    skeleton(&f);
    f.write(
        "crates/app/src/lib.rs",
        "pub fn f(p: *mut u32) {\n    unsafe { *p = 1 };\n}\npub fn g(p: *mut u32) {\n    unsafe { *p = 2 };\n}\n",
    );
    let a = obfs_lint::lint_repo(&f.root).unwrap();
    let b = obfs_lint::lint_repo(&f.root).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.render(), b.render());
    assert!(a.render().contains("lint: FAIL"));
}

// ---- region budgets ----

/// A hot-path region with an RMW must fail even when the committed
/// budget row matches exactly: zero locks/RMWs is unconditional.
#[test]
fn rmw_in_hot_path_region_fails_unconditionally() {
    let f = Fixture::new("hot-rmw");
    skeleton(&f);
    f.write(
        "crates/app/src/lib.rs",
        "// lint:region hot-path:claim\npub fn claim(c: &C) {\n    c.n.fetch_add(1, ORD);\n}\n// lint:endregion\n",
    );
    f.write(
        "lint/budget.txt",
        "crates/app/src/lib.rs hot-path:claim locks=0 rmws=1 relaxed=0 acquire=0 release=0 acqrel=0 seqcst=0\n",
    );
    let report = obfs_lint::lint_repo(&f.root).unwrap();
    let rules: Vec<&str> = report.findings.iter().map(|x| x.rule).collect();
    assert_eq!(rules, vec!["hot-path-atomics"], "{:#?}", report.findings);
}

#[test]
fn budget_growth_and_shrink_both_fail() {
    let f = Fixture::new("budget-drift");
    skeleton(&f);
    f.write(
        "crates/app/src/lib.rs",
        "// lint:region baseline:locked\npub fn g(l: &L) {\n    let _x = l.lock();\n}\n// lint:endregion\n",
    );
    // Grown: the row says zero locks, the code holds one.
    f.write(
        "lint/budget.txt",
        "crates/app/src/lib.rs baseline:locked locks=0 rmws=0 relaxed=0 acquire=0 release=0 acqrel=0 seqcst=0\n",
    );
    let grown = obfs_lint::lint_repo(&f.root).unwrap();
    assert_eq!(
        grown.findings.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec!["budget-exceeded"],
        "{:#?}",
        grown.findings
    );
    // Shrunk: the row still claims two locks — stale baseline.
    f.write(
        "lint/budget.txt",
        "crates/app/src/lib.rs baseline:locked locks=2 rmws=0 relaxed=0 acquire=0 release=0 acqrel=0 seqcst=0\n",
    );
    let shrunk = obfs_lint::lint_repo(&f.root).unwrap();
    assert_eq!(
        shrunk.findings.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec!["budget-stale"],
        "{:#?}",
        shrunk.findings
    );
    // Exact: passes, and the region shows up in the report.
    f.write(
        "lint/budget.txt",
        "crates/app/src/lib.rs baseline:locked locks=1 rmws=0 relaxed=0 acquire=0 release=0 acqrel=0 seqcst=0\n",
    );
    let exact = obfs_lint::lint_repo(&f.root).unwrap();
    assert!(exact.passed(), "{:#?}", exact.findings);
    assert_eq!(exact.regions.len(), 1);
}

#[test]
fn orphan_budget_row_and_missing_row_both_fail() {
    let f = Fixture::new("budget-rows");
    skeleton(&f);
    f.write(
        "crates/app/src/lib.rs",
        "// lint:region hot-path:x\npub fn x() {}\n// lint:endregion\n",
    );
    // No budget file at all: the region needs a row.
    let missing = obfs_lint::lint_repo(&f.root).unwrap();
    assert_eq!(missing.findings.iter().map(|x| x.rule).collect::<Vec<_>>(), vec!["budget-missing"]);
    assert!(
        missing.findings[0].message.contains("locks=0 rmws=0"),
        "budget-missing must suggest the paste-able row: {}",
        missing.findings[0].message
    );
    // A row for a region that no longer exists is stale.
    f.write(
        "lint/budget.txt",
        "crates/app/src/lib.rs hot-path:x locks=0 rmws=0 relaxed=0 acquire=0 release=0 acqrel=0 seqcst=0\ncrates/app/src/lib.rs hot-path:gone locks=0 rmws=0 relaxed=0 acquire=0 release=0 acqrel=0 seqcst=0\n",
    );
    let orphan = obfs_lint::lint_repo(&f.root).unwrap();
    assert_eq!(
        orphan.findings.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec!["budget-stale"],
        "{:#?}",
        orphan.findings
    );
}

#[test]
fn unclosed_region_fails() {
    let f = Fixture::new("unclosed");
    skeleton(&f);
    f.write("crates/app/src/lib.rs", "// lint:region hot-path:x\npub fn x() {}\n");
    let report = obfs_lint::lint_repo(&f.root).unwrap();
    let rules: Vec<&str> = report.findings.iter().map(|x| x.rule).collect();
    assert!(rules.contains(&"region-marker"), "{rules:?}");
}

// ---- ordering audit ----

#[test]
fn unjustified_seqcst_fails_justified_passes() {
    let f = Fixture::new("seqcst");
    skeleton(&f);
    // Inside crates/sync: exempt from atomics-scope, but SeqCst still
    // demands a written argument.
    f.write(
        "crates/sync/src/extra.rs",
        "pub fn f(a: &A) {\n    a.store(true, Ordering::SeqCst);\n}\n",
    );
    let bad = obfs_lint::lint_repo(&f.root).unwrap();
    assert_eq!(
        bad.findings.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec!["ordering-justify"],
        "{:#?}",
        bad.findings
    );
    f.write(
        "crates/sync/src/extra.rs",
        "pub fn f(a: &A) {\n    // ord: the test needs a total order across both flags\n    a.store(true, Ordering::SeqCst);\n}\n",
    );
    let good = obfs_lint::lint_repo(&f.root).unwrap();
    assert!(good.passed(), "{:#?}", good.findings);
}

// ---- racy pairing ----

#[test]
fn unrevalidated_claim_in_racy_region_fails_end_to_end() {
    let f = Fixture::new("racy-pair");
    skeleton(&f);
    f.write(
        "crates/app/src/lib.rs",
        "// lint:protocol racy\n// lint:region hot-path:claim\npub fn claim(s: &S, w: usize) {\n    s.levels.set(w, 1);\n}\n// lint:endregion\n",
    );
    f.write(
        "lint/budget.txt",
        "crates/app/src/lib.rs hot-path:claim locks=0 rmws=0 relaxed=0 acquire=0 release=0 acqrel=0 seqcst=0\n",
    );
    let bad = obfs_lint::lint_repo(&f.root).unwrap();
    assert_eq!(
        bad.findings.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec!["racy-pairing"],
        "{:#?}",
        bad.findings
    );
    // Restore the revalidation (the optimistic claim pattern): passes.
    f.write(
        "crates/app/src/lib.rs",
        "// lint:protocol racy\n// lint:region hot-path:claim\npub fn claim(s: &S, w: usize) {\n    if s.levels.get(w) == UNVISITED {\n        s.levels.set(w, 1);\n    }\n}\n// lint:endregion\n",
    );
    let good = obfs_lint::lint_repo(&f.root).unwrap();
    assert!(good.passed(), "{:#?}", good.findings);
}

// ---- allowlist occurrence counts ----

#[test]
fn allowlist_count_mismatch_fails_exact_count_passes() {
    let f = Fixture::new("count");
    skeleton(&f);
    f.write(
        "crates/app/src/lib.rs",
        "pub fn f(p: *mut u32) {\n    // SAFETY: caller contract.\n    unsafe { *p = 1 };\n    // SAFETY: caller contract.\n    unsafe { *p = 2 };\n}\n",
    );
    f.write("scripts/lint.allow", "unsafe crates/app/src/lib.rs [1] # stale count\n");
    let bad = obfs_lint::lint_repo(&f.root).unwrap();
    assert_eq!(
        bad.findings.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec!["allowlist-count"],
        "{:#?}",
        bad.findings
    );
    f.write("scripts/lint.allow", "unsafe crates/app/src/lib.rs [2] # raw pointer API\n");
    let good = obfs_lint::lint_repo(&f.root).unwrap();
    assert!(good.passed(), "{:#?}", good.findings);
}

// ---- JSON output ----

/// `--json` output must be machine-parseable and carry the schema the
/// CI contract names: version, pass, findings, regions.
#[test]
fn json_report_parses_and_matches_schema() {
    let f = Fixture::new("json");
    skeleton(&f);
    f.write(
        "crates/app/src/lib.rs",
        "// lint:region hot-path:x\npub fn f(p: *mut u32) {\n    unsafe { *p = 1 };\n}\n// lint:endregion\n",
    );
    let report = obfs_lint::lint_repo(&f.root).unwrap();
    let json = obfs_util::Json::parse(&report.render_json()).expect("valid JSON");
    assert_eq!(json.get("schema_version").and_then(obfs_util::Json::as_u64), Some(1));
    assert_eq!(json.get("pass").and_then(obfs_util::Json::as_bool), Some(false));
    assert!(json.get("files_scanned").and_then(obfs_util::Json::as_u64).unwrap() >= 1);
    let findings = json.get("findings").and_then(obfs_util::Json::as_arr).unwrap();
    assert!(!findings.is_empty());
    for x in findings {
        for key in ["path", "line", "rule", "message"] {
            assert!(x.get(key).is_some(), "finding missing `{key}`");
        }
    }
    let regions = json.get("regions").and_then(obfs_util::Json::as_arr).unwrap();
    assert_eq!(regions.len(), 1);
    let r = &regions[0];
    let keys = [
        "path", "id", "line", "locks", "rmws", "relaxed", "acquire", "release", "acqrel", "seqcst",
    ];
    for key in keys {
        assert!(r.get(key).is_some(), "region missing `{key}`");
    }
    assert_eq!(r.get("id").and_then(obfs_util::Json::as_str), Some("hot-path:x"));
}
