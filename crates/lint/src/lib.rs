//! `obfs-lint`: the repo's race-surface auditor (token-aware, no
//! parser crates, std-only, fully deterministic).
//!
//! All passes share one hand-rolled lexer ([`lex`]) so that `unsafe`
//! in a raw string, `Ordering::` in a doc comment, and keywords quoted
//! in messages never count as code — and so that the markers the
//! passes key on (`lint:region`, `lint:protocol`, `ord:`, `racy-ok:`)
//! are read from real comment tokens.
//!
//! The rules, all motivated by the paper's safety argument living in
//! *conventions* the compiler cannot check:
//!
//! * **safety-comment** — every `unsafe` keyword (block, fn, impl,
//!   trait) must carry a `SAFETY`/`# Safety` marker on the same line,
//!   the line directly above, or the contiguous comment/attr block
//!   directly above. An unargued ownership claim is a latent race.
//! * **unsafe-scope / atomics-scope / allowlist-count** — `unsafe`
//!   and atomic-`Ordering` uses outside `crates/sync` must be
//!   allowlisted (with a justification, and optionally an exact
//!   `[n]` occurrence count) in `scripts/lint.allow`. Stale entries
//!   are errors, so the list only shrinks truthfully.
//! * **hot-path budget** ([`regions`]) — marked regions are measured
//!   (locks, RMWs, ordering strengths) and diffed against the
//!   committed `lint/budget.txt`; hot-path regions must hold zero
//!   locks and zero RMWs, unconditionally.
//! * **ordering audit** ([`ordering`]) — `SeqCst` anywhere and
//!   `Acquire`/`Release`/`AcqRel` outside `crates/sync` need a
//!   `// ord:` justification; stale justifications are errors.
//! * **racy pairing** ([`pairing`]) — in `lint:protocol racy` files,
//!   every in-region claim needs a preceding revalidation or an
//!   explicit `// racy-ok:` waiver (DESIGN.md §11's rule).
//! * **shim-parity** — in the feature-shim module (`chaos`), a
//!   cfg-feature-gated top-level `pub fn` must exist under both
//!   polarities of the feature.
//! * **flight-taxonomy** — the event-kind constants in
//!   `obfs_sync::flight::kind` and the taxonomy table in DESIGN.md §8
//!   must list exactly the same kinds, in both directions.
//!
//! Output is byte-stable: files are walked in sorted order, findings
//! and regions are sorted, and nothing reads clocks, RNG, or
//! hash-iteration order.

pub mod lex;
pub mod ordering;
pub mod pairing;
pub mod regions;

use lex::{Tok, TokKind};
use regions::Region;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Repo-relative path of the allowlist.
pub const ALLOWLIST: &str = "scripts/lint.allow";

/// The feature-shim modules checked by the shim-parity rule.
pub const SHIM_FILES: [&str; 1] = ["crates/sync/src/chaos.rs"];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path (`/`-separated on every platform).
    pub path: String,
    /// 1-based line, 0 when the finding is file- or repo-level.
    pub line: usize,
    /// Rule identifier (`safety-comment`, `unsafe-scope`, …).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(path: &str, line: usize, rule: &'static str, message: String) -> Self {
        Self { path: path.to_string(), line, rule, message }
    }
}

/// One lexed source file, handed to every pass.
pub struct SourceFile {
    /// Normalized repo-relative path.
    pub rel: String,
    /// Raw source lines (for comment-block attachment checks).
    pub lines: Vec<String>,
    /// Token stream from [`lex::lex`].
    pub toks: Vec<Tok>,
}

/// Everything one lint run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Sorted findings (empty = clean).
    pub findings: Vec<Finding>,
    /// Rust files scanned.
    pub files_scanned: usize,
    /// Measured region budgets, sorted by (path, id).
    pub regions: Vec<Region>,
}

impl LintReport {
    /// True when the repo is clean.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    /// Deterministic human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== obfs-lint: race-surface audit ==");
        for f in &self.findings {
            if f.line == 0 {
                let _ = writeln!(s, "{}: [{}] {}", f.path, f.rule, f.message);
            } else {
                let _ = writeln!(s, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
            }
        }
        if !self.regions.is_empty() {
            let _ = writeln!(s, "-- region budgets ({}) --", regions::BUDGET);
            for r in &self.regions {
                let _ = writeln!(s, "{}", r.budget_line());
            }
        }
        let _ = writeln!(
            s,
            "lint: {} ({} files scanned, {} findings, {} regions)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.files_scanned,
            self.findings.len(),
            self.regions.len()
        );
        s
    }

    /// Machine-readable report (`--json`), hand-serialized so the
    /// analyzer stays std-only. Schema (version 1):
    ///
    /// ```json
    /// {"schema_version": 1, "pass": bool, "files_scanned": u64,
    ///  "findings": [{"path", "line", "rule", "message"}, …],
    ///  "regions": [{"path", "id", "line", "locks", "rmws",
    ///               "relaxed", "acquire", "release", "acqrel",
    ///               "seqcst"}, …]}
    /// ```
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema_version\":1,\"pass\":{},\"files_scanned\":{},\"findings\":[",
            self.passed(),
            self.files_scanned
        );
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                if i == 0 { "" } else { "," },
                esc(&f.path),
                f.line,
                esc(f.rule),
                esc(&f.message)
            );
        }
        let _ = write!(s, "],\"regions\":[");
        for (i, r) in self.regions.iter().enumerate() {
            let c = r.counts;
            let _ = write!(
                s,
                "{}{{\"path\":\"{}\",\"id\":\"{}\",\"line\":{},\"locks\":{},\"rmws\":{},\"relaxed\":{},\"acquire\":{},\"release\":{},\"acqrel\":{},\"seqcst\":{}}}",
                if i == 0 { "" } else { "," },
                esc(&r.path),
                esc(&r.id),
                r.line,
                c.locks,
                c.rmws,
                c.relaxed,
                c.acquire,
                c.release,
                c.acqrel,
                c.seqcst
            );
        }
        let _ = write!(s, "]}}");
        s
    }
}

/// Strip any leading `./` segments so paths compare equal no matter
/// how the root was spelled (`.`, `./`, absolute). Allowlist/budget
/// entries and computed rel-paths all pass through here — this is
/// what makes `cargo run -p obfs-lint` from a crate dir agree with a
/// CI run from the repo root.
pub fn normalize_path(p: &str) -> String {
    let mut s = p;
    while let Some(rest) = s.strip_prefix("./") {
        s = rest;
    }
    s.to_string()
}

/// Walk up from `start` to the workspace root: the first ancestor
/// holding both a `crates/` directory and a `Cargo.toml`. Lets the
/// binary run correctly from a crate subdirectory.
pub fn find_repo_root(start: &Path) -> Option<PathBuf> {
    let start = start.canonicalize().ok()?;
    let mut dir: Option<&Path> = Some(start.as_path());
    while let Some(p) = dir {
        if p.join("crates").is_dir() && p.join("Cargo.toml").is_file() {
            return Some(p.to_path_buf());
        }
        dir = p.parent();
    }
    None
}

/// Run every rule against the repo rooted at `root`.
pub fn lint_repo(root: &Path) -> Result<LintReport, String> {
    let mut files = rust_files(&root.join("crates"))?;
    // "Repo-wide" means the whole workspace: top-level integration
    // tests, examples and any root src/ are lexed too (they are held
    // to the same scope rules as any other non-sync code).
    for extra in ["src", "tests", "examples"] {
        let d = root.join(extra);
        if d.is_dir() {
            files.extend(rust_files(&d)?);
        }
    }
    files.sort();

    let mut findings = Vec::new();
    let allow = Allowlist::load(root, &mut findings)?;

    // Per-file occurrence counts, reused by the stale-entry check.
    let mut n_unsafe: BTreeMap<String, usize> = BTreeMap::new();
    let mut n_atomics: BTreeMap<String, usize> = BTreeMap::new();
    let mut all_regions: Vec<Region> = Vec::new();

    for path in &files {
        let rel = normalize_path(&rel_path(root, path));
        let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let file = SourceFile {
            rel: rel.clone(),
            lines: text.lines().map(str::to_string).collect(),
            toks: lex::lex(&text),
        };
        let in_sync = rel.starts_with("crates/sync/");

        check_safety_comments(&file, &allow, &mut findings);

        let unsafe_lines: Vec<usize> = file
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text == "unsafe")
            .map(|t| t.line)
            .collect();
        if !unsafe_lines.is_empty() {
            n_unsafe.insert(rel.clone(), unsafe_lines.len());
        }

        let occ = ordering::check_ordering(&file, in_sync, &mut findings);
        if !occ.is_empty() {
            n_atomics.insert(rel.clone(), occ.len());
        }

        if !in_sync {
            check_scope(
                &file,
                "unsafe-scope",
                "unsafe",
                "`unsafe`",
                unsafe_lines.first().copied(),
                unsafe_lines.len(),
                &allow,
                &mut findings,
            );
            check_scope(
                &file,
                "atomics-scope",
                "atomics",
                "atomic `Ordering::`",
                occ.first().map(|o| o.line),
                occ.len(),
                &allow,
                &mut findings,
            );
        }

        let file_regions = regions::extract_regions(&file, &mut findings);
        pairing::check_pairing(&file, &file_regions, &mut findings);
        all_regions.extend(file_regions);
    }

    allow.check_stale(&n_unsafe, &n_atomics, &mut findings);
    regions::check_budget(root, &all_regions, &mut findings);

    for shim in SHIM_FILES {
        let path = root.join(shim);
        let text =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        check_shim_parity(shim, &text, &mut findings);
    }

    check_flight_taxonomy(root, &mut findings)?;

    findings.sort();
    findings.dedup();
    all_regions.sort_by(|a, b| (&a.path, &a.id).cmp(&(&b.path, &b.id)));
    Ok(LintReport { findings, files_scanned: files.len(), regions: all_regions })
}

/// Scope + occurrence-count enforcement for one rule in one file.
#[allow(clippy::too_many_arguments)]
fn check_scope(
    file: &SourceFile,
    finding_rule: &'static str,
    allow_rule: &str,
    what: &str,
    first_line: Option<usize>,
    count: usize,
    allow: &Allowlist,
    findings: &mut Vec<Finding>,
) {
    let Some(line) = first_line else { return };
    match allow.permits(allow_rule, &file.rel) {
        None => findings.push(Finding::new(
            &file.rel,
            line,
            finding_rule,
            format!(
                "{what} outside crates/sync needs an `{allow_rule} {}` entry in {ALLOWLIST}",
                file.rel
            ),
        )),
        Some(Some(n)) if n != count => findings.push(Finding::new(
            &file.rel,
            line,
            "allowlist-count",
            format!(
                "file has {count} {what} occurrence(s) but the {ALLOWLIST} entry permits [{n}] — every new occurrence needs an explicit count bump"
            ),
        )),
        _ => {}
    }
}

/// All `.rs` files under `dir`, sorted, skipping `target` directories.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = fs::read_dir(&d).map_err(|e| format!("read_dir {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", d.display()))?;
            let p = entry.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn has_safety_marker(line: &str) -> bool {
    line.contains("SAFETY") || line.contains("# Safety")
}

/// Walk upward through the contiguous run of comment/attribute lines
/// directly above line index `i`, looking for a SAFETY marker. Blank
/// lines and code lines end the run: a marker must be *attached*, not
/// merely nearby (a nearby-window rule would let one comment bless
/// several unrelated blocks).
fn marker_in_comment_block_above(lines: &[String], i: usize) -> bool {
    for line in lines[..i].iter().rev() {
        let t = line.trim();
        if !(t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!")) {
            return false;
        }
        if has_safety_marker(line) {
            return true;
        }
    }
    false
}

fn check_safety_comments(file: &SourceFile, allow: &Allowlist, findings: &mut Vec<Finding>) {
    if allow.permits("safety", &file.rel).is_some() {
        return;
    }
    // `unsafe` ident tokens only: string/comment mentions never count.
    let unsafe_lines: BTreeSet<usize> = file
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text == "unsafe")
        .map(|t| t.line)
        .collect();
    for &l in &unsafe_lines {
        let i = l - 1; // 0-based index into lines
        let covered = file.lines.get(i).is_some_and(|s| has_safety_marker(s))
            || (i > 0 && has_safety_marker(&file.lines[i - 1]))
            || marker_in_comment_block_above(&file.lines, i);
        if !covered {
            findings.push(Finding::new(
                &file.rel,
                l,
                "safety-comment",
                "`unsafe` without an attached SAFETY comment (same line, line above, or the comment block directly above)".to_string(),
            ));
        }
    }
}

/// Parsed `scripts/lint.allow`: `rule path [n] # justification` lines.
struct Allowlist {
    /// (rule, path) -> (allowlist line number, optional exact count).
    entries: BTreeMap<(String, String), (usize, Option<usize>)>,
}

impl Allowlist {
    fn load(root: &Path, findings: &mut Vec<Finding>) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        let path = root.join(ALLOWLIST);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return Ok(Self { entries }), // absent = empty
        };
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (entry, justification) = match line.split_once('#') {
                Some((e, j)) => (e.trim(), j.trim()),
                None => (line, ""),
            };
            let parts: Vec<&str> = entry.split_whitespace().collect();
            let valid_rule = matches!(parts.first(), Some(&"unsafe" | &"atomics" | &"safety"));
            let count = match parts.get(2) {
                None => Ok(None),
                Some(c) => c
                    .strip_prefix('[')
                    .and_then(|c| c.strip_suffix(']'))
                    .and_then(|c| c.parse::<usize>().ok())
                    .map(Some)
                    .ok_or(()),
            };
            let shape_ok = valid_rule
                && parts.len() >= 2
                && parts.len() <= 3
                && count.is_ok()
                // A count constrains occurrences; `safety` only
                // exempts a file from the comment rule, so a count
                // there would be dead syntax.
                && !(parts[0] == "safety" && parts.len() == 3);
            if !shape_ok {
                findings.push(Finding::new(
                    ALLOWLIST,
                    i + 1,
                    "allowlist-syntax",
                    "expected `unsafe|atomics|safety <path> [n] # <justification>` (count only for unsafe/atomics)".to_string(),
                ));
                continue;
            }
            if justification.is_empty() {
                findings.push(Finding::new(
                    ALLOWLIST,
                    i + 1,
                    "allowlist-syntax",
                    "entry needs a `# <justification>`".to_string(),
                ));
                continue;
            }
            let key = (parts[0].to_string(), normalize_path(parts[1]));
            if entries.insert(key, (i + 1, count.unwrap())).is_some() {
                findings.push(Finding::new(
                    ALLOWLIST,
                    i + 1,
                    "allowlist-syntax",
                    "duplicate entry".to_string(),
                ));
            }
        }
        Ok(Self { entries })
    }

    /// `Some(count)` when the (rule, path) pair is allowlisted;
    /// the inner option is the `[n]` cap (None = any count ≥ 1).
    fn permits(&self, rule: &str, path: &str) -> Option<Option<usize>> {
        self.entries.get(&(rule.to_string(), path.to_string())).map(|(_, count)| *count)
    }

    /// An entry whose occurrence no longer exists must be removed: the
    /// allowlist documents the *current* escape hatches, nothing more.
    fn check_stale(
        &self,
        n_unsafe: &BTreeMap<String, usize>,
        n_atomics: &BTreeMap<String, usize>,
        findings: &mut Vec<Finding>,
    ) {
        for ((rule, path), (line, _)) in &self.entries {
            let live = match rule.as_str() {
                "atomics" => n_atomics.contains_key(path),
                // `unsafe` and `safety` both key on unsafe tokens.
                _ => n_unsafe.contains_key(path),
            };
            if !live {
                findings.push(Finding::new(
                    ALLOWLIST,
                    *line,
                    "allowlist-stale",
                    format!("stale entry: {path} has no `{rule}` occurrence any more"),
                ));
            }
        }
    }
}

/// Extract `feature = "<name>"` from a `#[cfg(...)]` line, plus its
/// polarity (`true` = feature on). Returns `None` for non-cfg lines.
fn cfg_feature(line: &str) -> Option<(String, bool)> {
    let t = line.trim();
    if !t.starts_with("#[cfg(") {
        return None;
    }
    let feat = t.split("feature = \"").nth(1)?;
    let name = feat.split('"').next()?.to_string();
    Some((name, !t.contains("not(feature")))
}

/// Name of a top-level `pub fn` declared on this line, if any.
fn pub_fn_name(line: &str) -> Option<String> {
    let t = line.trim_start();
    let rest = t
        .strip_prefix("pub fn ")
        .or_else(|| t.strip_prefix("pub(crate) fn "))
        .or_else(|| t.strip_prefix("pub(super) fn "))?;
    let name: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    (!name.is_empty()).then_some(name)
}

/// Shim-parity: a cfg-feature-gated `pub fn` must exist under both
/// polarities of that feature.
fn check_shim_parity(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    // (fn name, feature) -> (has-on, has-off, first line)
    let mut gated: BTreeMap<(String, String), (bool, bool, usize)> = BTreeMap::new();
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let Some((feature, on)) = cfg_feature(line) else { continue };
        // Scan past further attributes and doc lines to the gated item.
        for follow in &lines[i + 1..] {
            let t = follow.trim_start();
            if t.starts_with("#[") || t.starts_with("///") || t.starts_with("//") {
                continue;
            }
            if let Some(name) = pub_fn_name(follow) {
                let e = gated.entry((name, feature)).or_insert((false, false, i + 1));
                if on {
                    e.0 = true;
                } else {
                    e.1 = true;
                }
            }
            break;
        }
    }
    for ((name, feature), (has_on, has_off, line)) in gated {
        if has_on != has_off {
            let missing = if has_on { "not(feature)" } else { "feature" };
            findings.push(Finding::new(
                rel,
                line,
                "shim-parity",
                format!(
                    "`pub fn {name}` is gated on feature \"{feature}\" with no `#[cfg({missing} = ...)]` twin — the API must exist with the feature on AND off"
                ),
            ));
        }
    }
}

/// The flight-event kinds: `pub const NAME: u16` inside flight.rs.
fn flight_kinds(text: &str) -> BTreeSet<String> {
    let mut kinds = BTreeSet::new();
    for line in text.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("pub const ") {
            if let Some((name, tail)) = rest.split_once(':') {
                if tail.trim_start().starts_with("u16") {
                    kinds.insert(name.trim().to_string());
                }
            }
        }
    }
    kinds
}

/// Backticked ALL_CAPS tokens in the first column of the DESIGN.md
/// taxonomy table (the table whose header row starts `| kind |`).
fn design_kinds(text: &str) -> Option<(BTreeSet<String>, usize)> {
    let mut kinds = BTreeSet::new();
    let mut in_table = false;
    let mut table_line = 0;
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if !in_table {
            if t.starts_with("| kind |") {
                in_table = true;
                table_line = i + 1;
            }
            continue;
        }
        if !t.starts_with('|') {
            break; // table ended
        }
        let Some(first_cell) = t.trim_matches('|').split('|').next() else { continue };
        let mut rest = first_cell;
        while let Some(start) = rest.find('`') {
            let after = &rest[start + 1..];
            let Some(end) = after.find('`') else { break };
            let token = &after[..end];
            if !token.is_empty()
                && token.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
            {
                kinds.insert(token.to_string());
            }
            rest = &after[end + 1..];
        }
    }
    in_table.then_some((kinds, table_line))
}

fn check_flight_taxonomy(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    let flight_path = root.join("crates/sync/src/flight.rs");
    let flight = fs::read_to_string(&flight_path)
        .map_err(|e| format!("read {}: {e}", flight_path.display()))?;
    let design_path = root.join("DESIGN.md");
    let design = fs::read_to_string(&design_path)
        .map_err(|e| format!("read {}: {e}", design_path.display()))?;

    let consts = flight_kinds(&flight);
    let Some((documented, table_line)) = design_kinds(&design) else {
        findings.push(Finding::new(
            "DESIGN.md",
            0,
            "flight-taxonomy",
            "event taxonomy table (header `| kind |`) not found".to_string(),
        ));
        return Ok(());
    };
    for missing in consts.difference(&documented) {
        findings.push(Finding::new(
            "DESIGN.md",
            table_line,
            "flight-taxonomy",
            format!("flight kind `{missing}` is not documented in the taxonomy table"),
        ));
    }
    for ghost in documented.difference(&consts) {
        findings.push(Finding::new(
            "DESIGN.md",
            table_line,
            "flight-taxonomy",
            format!("taxonomy table documents `{ghost}` but obfs-sync::flight has no such kind"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile {
            rel: "crates/x/src/a.rs".to_string(),
            lines: src.lines().map(str::to_string).collect(),
            toks: lex::lex(src),
        }
    }

    #[test]
    fn tokens_not_text_decide_what_counts() {
        // Raw string + doc comment mentions of `unsafe`: no findings,
        // no occurrence count.
        let f = file("/// unsafe in docs\npub fn f() { let s = r#\"unsafe\"#; }\n");
        let n = f.toks.iter().filter(|t| t.kind == TokKind::Ident && t.text == "unsafe").count();
        assert_eq!(n, 0);
    }

    #[test]
    fn cfg_feature_parsing() {
        assert_eq!(cfg_feature("  #[cfg(feature = \"chaos\")]"), Some(("chaos".to_string(), true)));
        assert_eq!(
            cfg_feature("#[cfg(not(feature = \"chaos\"))]"),
            Some(("chaos".to_string(), false))
        );
        assert_eq!(cfg_feature("#[inline]"), None);
        assert_eq!(cfg_feature("#[cfg(test)]"), None);
    }

    #[test]
    fn shim_parity_flags_one_sided_gates() {
        let mut f = Vec::new();
        check_shim_parity("x.rs", "#[cfg(feature = \"t\")]\npub fn lonely() {}\n", &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "shim-parity");

        f.clear();
        check_shim_parity(
            "x.rs",
            "#[cfg(feature = \"t\")]\npub fn both() {}\n#[cfg(not(feature = \"t\"))]\npub fn both() {}\n",
            &mut f,
        );
        assert!(f.is_empty());

        // Statement-level cfg inside an ungated pub fn: fine.
        f.clear();
        check_shim_parity(
            "x.rs",
            "pub fn shim() {\n    #[cfg(feature = \"t\")]\n    inner();\n}\n",
            &mut f,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn taxonomy_sets_diff_both_directions() {
        let flight = "pub mod kind {\n    pub const A: u16 = 1;\n    pub const B: u16 = 2;\n    pub const SUB: u64 = 9;\n}\n";
        let design = "| kind | meaning | a | b |\n|---|---|---|---|\n| `A` | x | — | `SUB` |\n| `C` | y | — | — |\n";
        let consts = flight_kinds(flight);
        assert_eq!(consts.len(), 2, "u64 payload codes are not kinds");
        let (documented, _) = design_kinds(design).unwrap();
        assert!(documented.contains("A") && documented.contains("C"));
        assert!(!documented.contains("SUB"), "only the kind column counts");
    }

    #[test]
    fn safety_marker_must_be_attached() {
        let src = "\
// SAFETY: exclusive owner.
#[allow(clippy::x)]
unsafe { go() }

unsafe { go_again() }
";
        let allow = Allowlist { entries: BTreeMap::new() };
        let mut f = Vec::new();
        check_safety_comments(&file(src), &allow, &mut f);
        assert_eq!(f.len(), 1, "only the uncommented block is flagged: {f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn path_normalization() {
        assert_eq!(normalize_path("./crates/x/src/a.rs"), "crates/x/src/a.rs");
        assert_eq!(normalize_path("././a.rs"), "a.rs");
        assert_eq!(normalize_path("crates/x.rs"), "crates/x.rs");
    }
}
