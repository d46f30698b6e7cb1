//! Hot-path atomics/locks budget pass.
//!
//! Region markers delimit the code whose race surface the paper's
//! claim is *about* — the per-edge/per-vertex loops and dispatcher
//! fetch paths:
//!
//! ```text
//! // lint:region <class>:<name>
//! …code…
//! // lint:endregion
//! ```
//!
//! Classes in use: `hot-path` (the optimistic protocol cores — must
//! contain **zero** lock acquisitions and **zero** atomic RMWs,
//! unconditionally) and `baseline`/`control` (lock-based contenders
//! and control-plane code — budgeted, but allowed what their budget
//! says). Within each region the pass counts, lexically:
//!
//! * lock acquisitions — `lock(` / `try_lock(` calls;
//! * atomic RMWs — `fetch_*(`, `compare_exchange*(`, `swap(`;
//! * atomic loads/stores by `Ordering` strength — one count per
//!   `Ordering::<Strength>` path token.
//!
//! Counts are diffed against the committed baseline `lint/budget.txt`.
//! Both directions are errors: a count above the baseline is a
//! regression (`budget-exceeded`); a count below it is a stale
//! baseline (`budget-stale`) — the budget file, like the allowlist,
//! can only shrink truthfully via an explicit edit.
//!
//! Counting is lexical and per-file: a region does not follow calls.
//! That is deliberate — callees with their own atomics (e.g. the
//! watchdog poll) get their own region and budget row, and the racy
//! `RacyBuf` cells called from hot regions live in `crates/sync`
//! where the atomics-scope rule already fences them.

use crate::lex::{Tok, TokKind};
use crate::{Finding, SourceFile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Repo-relative path of the budget baseline.
pub const BUDGET: &str = "lint/budget.txt";

/// Region class whose lock/RMW counts must be zero unconditionally.
pub const HOT_CLASS: &str = "hot-path";

/// Atomic RMW method names (called with `(`) counted by the budget.
pub const RMW_METHODS: [&str; 13] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
    "swap",
];

/// Per-region lexical counts, in the canonical budget-file order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub locks: usize,
    pub rmws: usize,
    pub relaxed: usize,
    pub acquire: usize,
    pub release: usize,
    pub acqrel: usize,
    pub seqcst: usize,
}

impl Counts {
    /// The `locks=0 rmws=0 …` tail of a budget line.
    pub fn render(&self) -> String {
        format!(
            "locks={} rmws={} relaxed={} acquire={} release={} acqrel={} seqcst={}",
            self.locks,
            self.rmws,
            self.relaxed,
            self.acquire,
            self.release,
            self.acqrel,
            self.seqcst
        )
    }

    fn fields(&self) -> [(&'static str, usize); 7] {
        [
            ("locks", self.locks),
            ("rmws", self.rmws),
            ("relaxed", self.relaxed),
            ("acquire", self.acquire),
            ("release", self.release),
            ("acqrel", self.acqrel),
            ("seqcst", self.seqcst),
        ]
    }
}

/// One marked region with its measured counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Repo-relative path of the file holding the markers.
    pub path: String,
    /// `<class>:<name>` as written in the opening marker.
    pub id: String,
    /// 1-based line of the opening marker.
    pub line: usize,
    /// Measured counts between the markers.
    pub counts: Counts,
    /// Token range (open marker exclusive, close marker exclusive),
    /// consumed by the racy-pairing pass.
    pub(crate) tok_range: (usize, usize),
}

impl Region {
    /// The full budget-file line this region corresponds to.
    pub fn budget_line(&self) -> String {
        format!("{} {} {}", self.path, self.id, self.counts.render())
    }

    /// True when the zero-locks/zero-RMW rule applies.
    pub fn is_hot(&self) -> bool {
        self.id.starts_with(HOT_CLASS) && self.id[HOT_CLASS.len()..].starts_with(':')
    }
}

/// Marker text parsing: the word following `lint:region` in a comment
/// whose content *starts* with that marker (see
/// [`crate::lex::comment_content`] for why anchoring matters).
fn region_open_id(comment: &str) -> Option<&str> {
    let rest = crate::lex::comment_content(comment).strip_prefix("lint:region")?;
    rest.split_whitespace().next()
}

fn is_region_close(comment: &str) -> bool {
    crate::lex::comment_content(comment).starts_with("lint:endregion")
}

/// Valid region ids: `<class>:<name>`, lowercase kebab class, and a
/// name of identifier-ish chars.
fn valid_region_id(id: &str) -> bool {
    let Some((class, name)) = id.split_once(':') else { return false };
    !class.is_empty()
        && !name.is_empty()
        && class.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// Next non-comment token index in `[i, end)`.
fn next_code(toks: &[Tok], mut i: usize, end: usize) -> Option<usize> {
    while i < end {
        if !toks[i].is_comment() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Map an `Ordering::<X>` strength ident to its counter, if atomic.
/// (`cmp::Ordering::Less` etc. fall through: not an atomics use.)
pub(crate) fn strength_field(name: &str) -> Option<&'static str> {
    match name {
        "Relaxed" => Some("relaxed"),
        "Acquire" => Some("acquire"),
        "Release" => Some("release"),
        "AcqRel" => Some("acqrel"),
        "SeqCst" => Some("seqcst"),
        _ => None,
    }
}

/// If `toks[i]` starts an `Ordering :: <Strength>` path, return the
/// strength ident's token index.
pub(crate) fn ordering_path(toks: &[Tok], i: usize, end: usize) -> Option<usize> {
    if toks[i].kind != TokKind::Ident || toks[i].text != "Ordering" {
        return None;
    }
    let c1 = next_code(toks, i + 1, end)?;
    let c2 = next_code(toks, c1 + 1, end)?;
    let s = next_code(toks, c2 + 1, end)?;
    (toks[c1].text == ":" && toks[c2].text == ":" && toks[s].kind == TokKind::Ident).then_some(s)
}

/// Count locks/RMWs/ordering strengths over token range `[start, end)`.
fn count_range(toks: &[Tok], start: usize, end: usize) -> Counts {
    let mut c = Counts::default();
    let mut k = start;
    while let Some(i) = next_code(toks, k, end) {
        k = i + 1;
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let called = next_code(toks, i + 1, end)
            .is_some_and(|j| toks[j].kind == TokKind::Punct && toks[j].text == "(");
        match t.text.as_str() {
            "lock" | "try_lock" if called => c.locks += 1,
            m if called && RMW_METHODS.contains(&m) => c.rmws += 1,
            "Ordering" => {
                if let Some(s) = ordering_path(toks, i, end) {
                    match strength_field(&toks[s].text) {
                        Some("relaxed") => c.relaxed += 1,
                        Some("acquire") => c.acquire += 1,
                        Some("release") => c.release += 1,
                        Some("acqrel") => c.acqrel += 1,
                        Some("seqcst") => c.seqcst += 1,
                        _ => {}
                    }
                    k = s + 1; // don't re-scan the strength ident
                }
            }
            _ => {}
        }
    }
    c
}

/// Extract and measure every marked region in `file`, reporting
/// malformed/unbalanced markers as findings.
pub fn extract_regions(file: &SourceFile, findings: &mut Vec<Finding>) -> Vec<Region> {
    let toks = &file.toks;
    let mut open: Option<(String, usize, usize)> = None; // (id, line, tok idx)
    let mut out: Vec<Region> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        if is_region_close(&t.text) {
            match open.take() {
                Some((id, line, start)) => {
                    if out.iter().any(|r| r.id == id) {
                        findings.push(Finding::new(
                            &file.rel,
                            line,
                            "region-marker",
                            format!("duplicate region id `{id}` in this file"),
                        ));
                    }
                    out.push(Region {
                        path: file.rel.clone(),
                        id,
                        line,
                        counts: count_range(toks, start, i),
                        tok_range: (start, i),
                    });
                }
                None => findings.push(Finding::new(
                    &file.rel,
                    t.line,
                    "region-marker",
                    "`lint:endregion` with no open region".to_string(),
                )),
            }
            continue;
        }
        if let Some(id) = region_open_id(&t.text) {
            if !valid_region_id(id) {
                findings.push(Finding::new(
                    &file.rel,
                    t.line,
                    "region-marker",
                    format!("malformed region id `{id}` (expected `<class>:<name>`)"),
                ));
                continue;
            }
            if let Some((ref other, line, _)) = open {
                findings.push(Finding::new(
                    &file.rel,
                    t.line,
                    "region-marker",
                    format!("region `{id}` opened inside `{other}` (opened line {line}); regions do not nest"),
                ));
                continue;
            }
            open = Some((id.to_string(), t.line, i + 1));
        }
    }
    if let Some((id, line, _)) = open {
        findings.push(Finding::new(
            &file.rel,
            line,
            "region-marker",
            format!("region `{id}` is never closed (missing `lint:endregion`)"),
        ));
    }
    out
}

/// Parsed budget baseline row.
struct BudgetRow {
    line: usize,
    counts: Counts,
}

fn parse_budget(text: &str, findings: &mut Vec<Finding>) -> BTreeMap<(String, String), BudgetRow> {
    let mut rows = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let mut ok = parts.len() == 9 && valid_region_id(parts[1]);
        let mut counts = Counts::default();
        if ok {
            let keys = ["locks", "rmws", "relaxed", "acquire", "release", "acqrel", "seqcst"];
            let slots: [&mut usize; 7] = [
                &mut counts.locks,
                &mut counts.rmws,
                &mut counts.relaxed,
                &mut counts.acquire,
                &mut counts.release,
                &mut counts.acqrel,
                &mut counts.seqcst,
            ];
            for ((part, key), slot) in parts[2..].iter().zip(keys).zip(slots) {
                match part.strip_prefix(key).and_then(|r| r.strip_prefix('=')) {
                    Some(v) => match v.parse::<usize>() {
                        Ok(n) => *slot = n,
                        Err(_) => ok = false,
                    },
                    None => ok = false,
                }
            }
        }
        if !ok {
            findings.push(Finding::new(
                BUDGET,
                i + 1,
                "budget-syntax",
                "expected `<path> <class>:<name> locks=N rmws=N relaxed=N acquire=N release=N acqrel=N seqcst=N`"
                    .to_string(),
            ));
            continue;
        }
        let key = (crate::normalize_path(parts[0]), parts[1].to_string());
        if rows.insert(key, BudgetRow { line: i + 1, counts }).is_some() {
            findings.push(Finding::new(
                BUDGET,
                i + 1,
                "budget-syntax",
                "duplicate row".to_string(),
            ));
        }
    }
    rows
}

/// Diff measured regions against `lint/budget.txt` and enforce the
/// hot-path zero rule.
pub fn check_budget(root: &Path, regions: &[Region], findings: &mut Vec<Finding>) {
    let mut baseline = match fs::read_to_string(root.join(BUDGET)) {
        Ok(t) => parse_budget(&t, findings),
        Err(_) => BTreeMap::new(), // absent = empty baseline
    };

    for r in regions {
        if r.is_hot() && (r.counts.locks > 0 || r.counts.rmws > 0) {
            findings.push(Finding::new(
                &r.path,
                r.line,
                "hot-path-atomics",
                format!(
                    "hot-path region `{}` contains {} lock acquisition(s) and {} atomic RMW(s); the paper's claim requires zero of both",
                    r.id, r.counts.locks, r.counts.rmws
                ),
            ));
        }
        match baseline.remove(&(r.path.clone(), r.id.clone())) {
            None => findings.push(Finding::new(
                &r.path,
                r.line,
                "budget-missing",
                format!(
                    "region `{}` has no baseline row; add to {BUDGET}: `{}`",
                    r.id,
                    r.budget_line()
                ),
            )),
            Some(row) => {
                let mut msg = String::new();
                for ((field, actual), (_, budget)) in
                    r.counts.fields().iter().zip(row.counts.fields())
                {
                    if actual > &budget {
                        let _ = write!(
                            msg,
                            "{}{field} grew {budget} -> {actual}",
                            if msg.is_empty() { "" } else { ", " }
                        );
                    }
                }
                if !msg.is_empty() {
                    findings.push(Finding::new(
                        &r.path,
                        r.line,
                        "budget-exceeded",
                        format!(
                            "region `{}` exceeds its {BUDGET} baseline ({msg}); shrinking the race surface back or an explicit baseline edit is required",
                            r.id
                        ),
                    ));
                }
                let mut stale = String::new();
                for ((field, actual), (_, budget)) in
                    r.counts.fields().iter().zip(row.counts.fields())
                {
                    if actual < &budget {
                        let _ = write!(
                            stale,
                            "{}{field} is now {actual} (budget {budget})",
                            if stale.is_empty() { "" } else { ", " }
                        );
                    }
                }
                if !stale.is_empty() {
                    findings.push(Finding::new(
                        BUDGET,
                        row.line,
                        "budget-stale",
                        format!(
                            "region `{}` beat its budget ({stale}); tighten the baseline to match — like the allowlist, it only shrinks truthfully",
                            r.id
                        ),
                    ));
                }
            }
        }
    }
    for ((path, id), row) in baseline {
        findings.push(Finding::new(
            BUDGET,
            row.line,
            "budget-stale",
            format!("row for `{id}` in {path} matches no region marker"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn file(src: &str) -> SourceFile {
        SourceFile {
            rel: "crates/x/src/a.rs".to_string(),
            lines: src.lines().map(str::to_string).collect(),
            toks: lex(src),
        }
    }

    #[test]
    fn counts_locks_rmws_and_strengths() {
        let src = "\
// lint:region hot-path:demo
fn f(m: &std::sync::Mutex<u32>, a: &AtomicUsize) {
    let _g = m.lock();
    let _ = m.try_lock();
    a.fetch_add(1, Ordering::Relaxed);
    a.load(Ordering::Acquire);
    a.store(0, Ordering::SeqCst);
}
// lint:endregion
";
        let mut f = Vec::new();
        let rs = extract_regions(&file(src), &mut f);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(rs.len(), 1);
        let c = rs[0].counts;
        assert_eq!((c.locks, c.rmws), (2, 1));
        assert_eq!((c.relaxed, c.acquire, c.seqcst), (1, 1, 1));
        assert!(rs[0].is_hot());
    }

    #[test]
    fn strings_and_comments_do_not_count() {
        let src = "\
// lint:region hot-path:quiet
// a fetch_add(1) in a comment, Ordering::SeqCst too
fn f() { let s = \"lock() fetch_or(2) Ordering::Relaxed\"; }
// lint:endregion
";
        let mut f = Vec::new();
        let rs = extract_regions(&file(src), &mut f);
        assert_eq!(rs[0].counts, Counts::default());
    }

    #[test]
    fn cmp_ordering_is_not_atomics() {
        let src =
            "// lint:region control:c\nfn f() { let _ = Ordering::Less; }\n// lint:endregion\n";
        let mut f = Vec::new();
        let rs = extract_regions(&file(src), &mut f);
        assert_eq!(rs[0].counts, Counts::default());
    }

    #[test]
    fn unbalanced_markers_are_findings() {
        let mut f = Vec::new();
        extract_regions(&file("// lint:region hot-path:open\nfn f() {}\n"), &mut f);
        assert!(f.iter().any(|x| x.rule == "region-marker" && x.message.contains("never closed")));

        f.clear();
        extract_regions(&file("fn f() {}\n// lint:endregion\n"), &mut f);
        assert!(f.iter().any(|x| x.message.contains("no open region")));

        f.clear();
        extract_regions(
            &file("// lint:region hot-path:a\n// lint:region hot-path:b\n// lint:endregion\n"),
            &mut f,
        );
        assert!(f.iter().any(|x| x.message.contains("do not nest")));

        f.clear();
        extract_regions(&file("// lint:region nonsense\n// lint:endregion\n"), &mut f);
        assert!(f.iter().any(|x| x.message.contains("malformed region id")));
    }

    #[test]
    fn budget_rows_round_trip() {
        let mut f = Vec::new();
        let rows = parse_budget(
            "# comment\ncrates/x/src/a.rs hot-path:demo locks=0 rmws=0 relaxed=2 acquire=0 release=0 acqrel=0 seqcst=0\n",
            &mut f,
        );
        assert!(f.is_empty());
        let row = &rows[&("crates/x/src/a.rs".to_string(), "hot-path:demo".to_string())];
        assert_eq!(row.counts.relaxed, 2);

        f.clear();
        parse_budget("bad row\n", &mut f);
        assert_eq!(f[0].rule, "budget-syntax");
    }
}
