//! Racy-pairing check: DESIGN.md §11's "revalidate before every
//! claim" rule, machine-checked.
//!
//! A file opts in with a `// lint:protocol racy` comment — that marks
//! it as holding one of the deliberately-racy protocol cores whose
//! plain (`Relaxed`) loads can observe stale values. Within every
//! marked region of such a file, a *claim* — a `.store(…)` or
//! `.set(…)` call that publishes protocol state others will read —
//! must be either:
//!
//! * lexically preceded, inside the same region, by a revalidation:
//!   an `== UNVISITED` re-check against the authoritative per-vertex
//!   slot (the optimistic claim pattern), or a call to an identifier
//!   containing `revalidate`/`sanity` (the work-stealing snapshot
//!   checks); or
//! * waived with a `// racy-ok: <why>` comment on its own line or the
//!   line above — the single-writer kernels (bottom-up's static
//!   owner partition, compaction's disjoint slots) claim without
//!   revalidating because no other thread can race them, and the
//!   waiver records that argument next to the store.
//!
//! Why a *lexical* rule is sound here: each racy protocol core lives
//! in one file (state.rs discovery, worksteal.rs descriptors,
//! centralized.rs/ext.rs cursors), regions delimit single functions,
//! and the revalidation the paper's argument needs is always in the
//! same loop body as the claim it guards. The check can therefore
//! demand "revalidation textually before the claim, same region"
//! without inter-procedural analysis — deleting the revalidation (the
//! seeded-bug case the model checker also covers) breaks the pairing
//! and fails the lint.

use crate::lex::{Tok, TokKind};
use crate::ordering::marker_lines;
use crate::regions::Region;
use crate::{Finding, SourceFile};

/// Does this file declare the racy protocol? (Start-anchored like all
/// markers: the comment must *begin* with `lint:protocol`.)
pub fn is_racy_protocol(file: &SourceFile) -> bool {
    file.toks.iter().any(|t| {
        t.is_comment()
            && crate::lex::comment_content(&t.text)
                .strip_prefix("lint:protocol")
                .is_some_and(|rest| rest.split_whitespace().next() == Some("racy"))
    })
}

/// Claim method names: plain stores that publish protocol state.
const CLAIMS: [&str; 2] = ["store", "set"];

/// Token indices (into `toks`) of `.store(` / `.set(` claims in
/// `[start, end)`, comment-insensitive.
fn claims_in(toks: &[Tok], start: usize, end: usize) -> Vec<usize> {
    let code: Vec<usize> = (start..end).filter(|&i| !toks[i].is_comment()).collect();
    let mut out = Vec::new();
    for w in code.windows(3) {
        let (a, b, c) = (&toks[w[0]], &toks[w[1]], &toks[w[2]]);
        if a.kind == TokKind::Punct
            && a.text == "."
            && b.kind == TokKind::Ident
            && CLAIMS.contains(&b.text.as_str())
            && c.kind == TokKind::Punct
            && c.text == "("
        {
            out.push(w[1]);
        }
    }
    out
}

/// Is there a revalidation in `[start, upto)`? Either `== UNVISITED`
/// (in both orders) or an identifier containing `revalidate`/`sanity`.
fn revalidated_before(toks: &[Tok], start: usize, upto: usize) -> bool {
    let code: Vec<usize> = (start..upto).filter(|&i| !toks[i].is_comment()).collect();
    for (k, &i) in code.iter().enumerate() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && (t.text.contains("revalidate") || t.text.contains("sanity"))
        {
            return true;
        }
        if t.kind == TokKind::Punct && t.text == "=" {
            let eq2 = code.get(k + 1).is_some_and(|&j| toks[j].text == "=");
            if eq2 {
                let next_unvisited = code.get(k + 2).is_some_and(|&j| toks[j].text == "UNVISITED");
                let prev_unvisited = k > 0 && toks[code[k - 1]].text == "UNVISITED";
                if next_unvisited || prev_unvisited {
                    return true;
                }
            }
        }
    }
    false
}

/// Run the pairing check over every region of a racy-protocol file.
pub fn check_pairing(file: &SourceFile, regions: &[Region], findings: &mut Vec<Finding>) {
    if !is_racy_protocol(file) {
        return;
    }
    let waived = marker_lines(file, "racy-ok:");
    for r in regions {
        let (start, end) = r.tok_range;
        for claim in claims_in(&file.toks, start, end) {
            let line = file.toks[claim].line;
            if waived.contains(&line) || waived.contains(&(line - 1)) {
                continue;
            }
            if revalidated_before(&file.toks, start, claim) {
                continue;
            }
            findings.push(Finding::new(
                &file.rel,
                line,
                "racy-pairing",
                format!(
                    "claim `.{}(` in racy region `{}` has no preceding in-region revalidation (`== UNVISITED` / `revalidate`/`sanity`) and no `// racy-ok:` waiver",
                    file.toks[claim].text, r.id
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::regions::extract_regions;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile {
            rel: "crates/x/src/a.rs".to_string(),
            lines: src.lines().map(str::to_string).collect(),
            toks: lex(src),
        };
        let mut f = Vec::new();
        let regions = extract_regions(&file, &mut f);
        check_pairing(&file, &regions, &mut f);
        f
    }

    const CLAIM_OK: &str = "\
// lint:protocol racy
// lint:region hot-path:discover
fn try_discover(&self, w: u32) -> bool {
    if self.levels.get(w as usize) == UNVISITED {
        self.levels.set(w as usize, self.next_level);
        return true;
    }
    false
}
// lint:endregion
";

    #[test]
    fn revalidated_claim_passes() {
        assert!(run(CLAIM_OK).is_empty());
    }

    #[test]
    fn deleting_the_revalidation_fails() {
        let broken = CLAIM_OK.replace("if self.levels.get(w as usize) == UNVISITED {", "{");
        let f = run(&broken);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "racy-pairing");
    }

    #[test]
    fn racy_ok_waiver_passes_line_above_or_trailing() {
        let above = "\
// lint:protocol racy
// lint:region hot-path:owner
fn publish(&self) {
    // racy-ok: single-writer — own descriptor slot
    self.desc.f.store(self.seg.f);
}
// lint:endregion
";
        assert!(run(above).is_empty());
        let trailing = above.replace(
            "    // racy-ok: single-writer — own descriptor slot\n    self.desc.f.store(self.seg.f);",
            "    self.desc.f.store(self.seg.f); // racy-ok: single-writer",
        );
        assert!(run(&trailing).is_empty());
    }

    #[test]
    fn sanity_check_identifiers_count_as_revalidation() {
        let src = "\
// lint:protocol racy
// lint:region hot-path:steal
fn steal(&self) {
    if !self.snapshot_sanity_check(q, r) { return; }
    self.descs.set(q, mid, r);
}
// lint:endregion
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unmarked_files_and_unregioned_claims_are_exempt() {
        // No protocol marker: same code, no findings.
        let unmarked = CLAIM_OK.replace("// lint:protocol racy\n", "");
        let broken = unmarked.replace("if self.levels.get(w as usize) == UNVISITED {", "{");
        assert!(run(&broken).is_empty());
        // Marked file, but the claim sits outside any region.
        let outside = "// lint:protocol racy\nfn init(&self) { self.levels.set(0, 0); }\n";
        assert!(run(outside).is_empty());
    }

    #[test]
    fn unvisited_on_either_side_of_eq() {
        let src = "\
// lint:protocol racy
// lint:region hot-path:x
fn f(&self) {
    if UNVISITED == self.levels.get(0) {
        self.levels.set(0, 1);
    }
}
// lint:endregion
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn string_unvisited_does_not_revalidate() {
        let src = "\
// lint:protocol racy
// lint:region hot-path:x
fn f(&self) {
    let msg = \"== UNVISITED\";
    self.levels.set(0, 1);
}
// lint:endregion
";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
    }
}
