//! Ordering audit: memory-order choice as a checkable artifact.
//!
//! Every `Ordering::<Strength>` path token is classified (comments and
//! string literals never count — the lexer sees through them). Two
//! strengths demand a written argument:
//!
//! * `SeqCst` — anywhere. The repo's design never needs a total
//!   order; a `SeqCst` is either a leftover default or a claim strong
//!   enough to deserve a sentence.
//! * `Acquire` / `Release` / `AcqRel` — outside `crates/sync`. The
//!   sync crate *is* the memory model; release/acquire edges leaking
//!   into other crates are exactly the protocol surface the paper
//!   argues about.
//!
//! The argument is a `// ord:` comment on the same line or the line
//! directly above (a trailing `// ord:` on a multi-line call's first
//! line also covers the next line, matching how `compare_exchange`
//! success/failure orders wrap). Mirroring the allowlist semantics,
//! a justification with nothing left to justify is itself an error
//! (`ord-stale`): `Relaxed` needs no argument, and a deleted atomic
//! must take its comment with it.

use crate::regions::{ordering_path, strength_field};
use crate::{Finding, SourceFile};
use std::collections::BTreeSet;

/// One `Ordering::<atomic strength>` use.
pub(crate) struct Occurrence {
    pub line: usize,
    /// Canonical field name: `relaxed`/`acquire`/`release`/`acqrel`/`seqcst`.
    pub strength: &'static str,
    /// The ident as written (for messages).
    pub name: String,
}

/// All atomic-`Ordering` path occurrences in the file, in order.
pub(crate) fn occurrences(file: &SourceFile) -> Vec<Occurrence> {
    let toks = &file.toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if let Some(s) = ordering_path(toks, i, toks.len()) {
            if let Some(strength) = strength_field(&toks[s].text) {
                out.push(Occurrence { line: toks[s].line, strength, name: toks[s].text.clone() });
                i = s + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Does this comment *carry* the marker (as opposed to mentioning
/// it)? Anchored at the start of the comment content, so prose about
/// `ord:` markers — like this sentence — never counts.
fn has_marker(text: &str, marker: &str) -> bool {
    crate::lex::comment_content(text).starts_with(marker)
}

/// Lines whose comments carry the given marker.
pub(crate) fn marker_lines(file: &SourceFile, marker: &str) -> BTreeSet<usize> {
    file.toks
        .iter()
        .filter(|t| t.is_comment() && has_marker(&t.text, marker))
        .map(|t| t.line)
        .collect()
}

/// Run the audit; returns the occurrences (all strengths), which the
/// allowlist `[n]` accounting reuses.
pub(crate) fn check_ordering(
    file: &SourceFile,
    in_sync: bool,
    findings: &mut Vec<Finding>,
) -> Vec<Occurrence> {
    let occ = occurrences(file);
    let ord_lines = marker_lines(file, "ord:");

    let needs_justification = |o: &Occurrence| {
        o.strength == "seqcst"
            || (!in_sync && matches!(o.strength, "acquire" | "release" | "acqrel"))
    };

    for o in &occ {
        if needs_justification(o)
            && !ord_lines.contains(&o.line)
            && !ord_lines.contains(&(o.line - 1))
        {
            let scope = if o.strength == "seqcst" { "" } else { " outside crates/sync" };
            findings.push(Finding::new(
                &file.rel,
                o.line,
                "ordering-justify",
                format!(
                    "`Ordering::{}`{scope} requires a `// ord:` justification on the same line or the line above",
                    o.name
                ),
            ));
        }
    }

    // Stale markers: an `ord:` comment must sit next to *some*
    // non-Relaxed ordering (same line or the line below). Relaxed
    // needs no argument, so a marker kept alive only by a Relaxed —
    // or by nothing — is noise that would mask a future violation.
    let justified: BTreeSet<usize> =
        occ.iter().filter(|o| o.strength != "relaxed").map(|o| o.line).collect();
    for &l in &ord_lines {
        if !justified.contains(&l) && !justified.contains(&(l + 1)) {
            findings.push(Finding::new(
                &file.rel,
                l,
                "ord-stale",
                "`// ord:` marker with no adjacent non-Relaxed `Ordering::` use — remove it"
                    .to_string(),
            ));
        }
    }

    occ
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

    fn run(src: &str, in_sync: bool) -> Vec<Finding> {
        let mut f = Vec::new();
        check_ordering(&file(src), in_sync, &mut f);
        f
    }

    #[test]
    fn seqcst_needs_ord_everywhere() {
        let f = run("fn f(a: &AtomicBool) { a.store(true, Ordering::SeqCst); }", true);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ordering-justify");

        let ok = run(
            "fn f(a: &AtomicBool) { a.store(true, Ordering::SeqCst); // ord: total order needed\n}",
            true,
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn acquire_outside_sync_needs_ord_inside_does_not() {
        let src = "fn f(a: &AtomicBool) -> bool { a.load(Ordering::Acquire) }";
        assert_eq!(run(src, false).len(), 1);
        assert!(run(src, true).is_empty());
    }

    #[test]
    fn comment_above_covers_and_trailing_covers_next_line() {
        let above = "// ord: pairs with the release store\nlet x = a.load(Ordering::Acquire);";
        assert!(run(above, false).is_empty());
        let wrapped =
            "a.compare_exchange(0, 1, // ord: success publishes the slot\n    Ordering::AcqRel, Ordering::Acquire);";
        assert!(run(wrapped, false).is_empty());
    }

    #[test]
    fn stale_and_relaxed_markers_flagged() {
        let f = run("// ord: nothing here any more\nfn f() {}", false);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ord-stale");

        let f = run("// ord: relaxed needs no argument\nlet x = a.load(Ordering::Relaxed);", false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "ord-stale");
    }

    #[test]
    fn doc_comment_mentions_do_not_count() {
        let f = run("/// this API once used Ordering::SeqCst\nfn f() {}", false);
        assert!(f.is_empty());
    }

    #[test]
    fn marker_is_start_anchored() {
        assert!(has_marker("// ord: why", "ord:"));
        assert!(has_marker("/* ord: why */", "ord:"));
        assert!(!has_marker("// coord: meeting", "ord:"));
        assert!(!has_marker("// word: play", "ord:"));
        // Prose *about* the marker, and doc lines quoting a marker
        // comment verbatim, never carry it.
        assert!(!has_marker("/// justify with a `// ord:` comment", "ord:"));
        assert!(!has_marker("//! // ord: quoted example", "ord:"));
    }
}
