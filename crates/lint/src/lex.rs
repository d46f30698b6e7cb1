//! A small hand-rolled Rust lexer (std-only, no parser crates) shared
//! by every token-aware lint pass.
//!
//! Design goals, in order:
//!
//! 1. **Never miscount.** `unsafe` inside a raw string, `Ordering::`
//!    inside a doc comment or a `cfg` string, and keywords quoted in
//!    error messages must not look like code. That requires real
//!    tokenization: line/block/doc comments (nested), plain and raw
//!    strings (`r#"…"#`, byte variants), char literals vs lifetimes.
//! 2. **Keep comments as tokens.** The region markers
//!    (`lint:region`, `lint:endregion`, `lint:protocol`), `ord:`
//!    justifications and `racy-ok:` waivers all live in comments, so
//!    comments are first-class tokens, not discarded trivia.
//! 3. **Just enough for paths.** Passes match token *sequences* such
//!    as `Ordering` `:` `:` `SeqCst`; the lexer does not build trees,
//!    and single-char punctuation is sufficient (nested generics
//!    simply contribute `<`/`>` puncts that the sequence matchers
//!    skip past).
//!
//! The lexer is total: any byte sequence produces a token stream (an
//! unterminated literal just runs to end of file). Lint never wants to
//! hard-error on a source file the compiler would reject — the build
//! itself gates that.

/// Token classes. `Str` covers plain/raw/byte strings; `Char` covers
/// char and byte-char literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (includes raw identifiers, `r#match`).
    Ident,
    /// Numeric literal (`0xFF`, `1_000u64`; `1.5` lexes as two
    /// numbers around a `.` punct, which no pass cares about).
    Num,
    /// String literal of any flavour, quotes included in `text`.
    Str,
    /// Char / byte-char literal.
    Char,
    /// Lifetime (`'a`, `'static`) — kept distinct so a lifetime is
    /// never mistaken for an unterminated char literal.
    Lifetime,
    /// `// …` comment (plain, `///` doc, `//!` inner doc).
    LineComment,
    /// `/* … */` comment, nesting handled; may span lines.
    BlockComment,
    /// Any other single character.
    Punct,
}

/// One spanned token. `line` is 1-based and refers to the token's
/// *first* line (block comments and multi-line strings span more).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub line: usize,
    pub text: String,
}

impl Tok {
    /// True for the two comment kinds (marker carriers).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`. Deterministic, total, O(len).
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;

    // Collect chars `b[from..to]` into a string.
    let text = |from: usize, to: usize| b[from..to.min(b.len())].iter().collect::<String>();

    while i < b.len() {
        let c = b[i];
        let start = i;
        let start_line = line;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                out.push(Tok {
                    kind: TokKind::LineComment,
                    line: start_line,
                    text: text(start, i),
                });
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                i += 2;
                let mut depth = 1usize;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.push(Tok {
                    kind: TokKind::BlockComment,
                    line: start_line,
                    text: text(start, i),
                });
            }
            '"' => {
                i = consume_string(&b, i, &mut line);
                out.push(Tok { kind: TokKind::Str, line: start_line, text: text(start, i) });
            }
            '\'' => {
                // Char literal vs lifetime. `'\…'` and `'x'` are
                // chars; anything else (`'a`, `'static`, `'_`) is a
                // lifetime label with no closing quote.
                if b.get(i + 1) == Some(&'\\') {
                    i += 2; // opening quote + backslash
                    if i < b.len() {
                        i += 1; // the escaped char (covers \' and \\)
                    }
                    while i < b.len() && b[i] != '\'' {
                        // longer escapes: \u{1F600}, \x41
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1; // closing quote
                    out.push(Tok { kind: TokKind::Char, line: start_line, text: text(start, i) });
                } else if b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\'') {
                    i += 3;
                    out.push(Tok { kind: TokKind::Char, line: start_line, text: text(start, i) });
                } else {
                    i += 1;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    out.push(Tok {
                        kind: TokKind::Lifetime,
                        line: start_line,
                        text: text(start, i),
                    });
                }
            }
            'r' | 'b' if raw_or_byte_literal(&b, i).is_some() => {
                let (kind, body_start) = raw_or_byte_literal(&b, i).unwrap();
                match kind {
                    LitStart::RawStr { hashes } => {
                        i = consume_raw_string(&b, body_start, hashes, &mut line);
                        out.push(Tok {
                            kind: TokKind::Str,
                            line: start_line,
                            text: text(start, i),
                        });
                    }
                    LitStart::PlainStr => {
                        i = consume_string(&b, body_start - 1, &mut line);
                        out.push(Tok {
                            kind: TokKind::Str,
                            line: start_line,
                            text: text(start, i),
                        });
                    }
                    LitStart::ByteChar => {
                        // Delegate to the char arm's logic by lexing
                        // from the quote; simplest is to consume here.
                        i = body_start; // at the opening quote
                        i += 1;
                        if b.get(i) == Some(&'\\') {
                            i += 2;
                        }
                        while i < b.len() && b[i] != '\'' {
                            i += 1;
                        }
                        i += 1;
                        out.push(Tok {
                            kind: TokKind::Char,
                            line: start_line,
                            text: text(start, i),
                        });
                    }
                    LitStart::RawIdent => {
                        i = body_start;
                        while i < b.len() && is_ident_continue(b[i]) {
                            i += 1;
                        }
                        out.push(Tok {
                            kind: TokKind::Ident,
                            line: start_line,
                            text: text(start, i),
                        });
                    }
                }
            }
            c if is_ident_start(c) => {
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                out.push(Tok { kind: TokKind::Ident, line: start_line, text: text(start, i) });
            }
            c if c.is_ascii_digit() => {
                while i < b.len() && (is_ident_continue(b[i])) {
                    i += 1;
                }
                out.push(Tok { kind: TokKind::Num, line: start_line, text: text(start, i) });
            }
            _ => {
                i += 1;
                out.push(Tok { kind: TokKind::Punct, line: start_line, text: c.to_string() });
            }
        }
    }
    out
}

enum LitStart {
    /// `r"…"`, `r#"…"#`, `br"…"`: body starts at the opening quote's
    /// successor; `hashes` is the `#` count to match at the close.
    RawStr { hashes: usize },
    /// `b"…"`: lex like a plain string (index = char after quote).
    PlainStr,
    /// `b'…'`: byte char literal (index = the opening quote).
    ByteChar,
    /// `r#ident`: raw identifier (index = first ident char).
    RawIdent,
}

/// Decide whether the `r`/`b` at `i` opens a literal rather than a
/// plain identifier, and where its body starts.
fn raw_or_byte_literal(b: &[char], i: usize) -> Option<(LitStart, usize)> {
    match b[i] {
        'r' => {
            let mut j = i + 1;
            let mut hashes = 0;
            while b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            match b.get(j) {
                Some(&'"') => Some((LitStart::RawStr { hashes }, j + 1)),
                Some(&c) if hashes == 1 && is_ident_start(c) => Some((LitStart::RawIdent, j)),
                _ => None,
            }
        }
        'b' => match b.get(i + 1) {
            Some(&'"') => Some((LitStart::PlainStr, i + 2)),
            Some(&'\'') => Some((LitStart::ByteChar, i + 1)),
            Some(&'r') => {
                let mut j = i + 2;
                let mut hashes = 0;
                while b.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                (b.get(j) == Some(&'"')).then_some((LitStart::RawStr { hashes }, j + 1))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Consume a plain (escaped) string starting at the opening quote
/// `b[i] == '"'`; returns the index just past the closing quote.
fn consume_string(b: &[char], i: usize, line: &mut usize) -> usize {
    let mut i = i + 1;
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consume a raw string whose body starts at `i` (just past the
/// opening quote), closed by `"` followed by `hashes` `#`s.
fn consume_raw_string(b: &[char], i: usize, hashes: usize, line: &mut usize) -> usize {
    let mut i = i;
    while i < b.len() {
        if b[i] == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && b.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

/// The content of a comment token with its opener (`//`, `///`,
/// `//!`, `/*`, `/**`, `/*!`) and leading whitespace stripped.
///
/// Marker comments (`lint:region …`, `ord: …`, `racy-ok: …`) are
/// recognized only when the marker *starts* the comment content —
/// that anchoring is what lets documentation talk about the markers
/// (as this sentence just did) without carrying them. A doc line that
/// quotes a full marker comment verbatim (`//! // lint:region …`)
/// strips to content starting with `//`, which no marker matches.
pub fn comment_content(text: &str) -> &str {
    let rest = ["//!", "///", "/*!", "/**", "//", "/*"]
        .iter()
        .find_map(|p| text.strip_prefix(p))
        .unwrap_or(text);
    rest.trim_start()
}

/// Idents-and-puncts view: all non-comment tokens, preserving order.
/// Sequence matchers (paths, method calls) operate on this so an
/// interleaved comment can't break a match.
pub fn code_tokens(toks: &[Tok]) -> Vec<&Tok> {
    toks.iter().filter(|t| !t.is_comment()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn raw_string_contents_are_not_code() {
        let toks = lex(r##"let x = r#"unsafe { Ordering::SeqCst }"#;"##);
        assert!(toks.iter().all(|t| t.text != "unsafe"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn doc_comments_are_comment_tokens() {
        let toks = lex("/// uses Ordering::SeqCst internally\nfn f() {}");
        assert_eq!(toks[0].kind, TokKind::LineComment);
        assert!(toks[0].text.contains("SeqCst"));
        assert!(code_tokens(&toks).iter().all(|t| t.text != "Ordering"));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("let c: char = 'a'; fn f<'a>(x: &'a str) {} let s = 'static_err;");
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        let lifes: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].1, "'a'");
        // <'a>, &'a, and the (invalid-Rust but total-lexer) 'static_err
        assert_eq!(lifes.len(), 3);
    }

    #[test]
    fn escaped_char_literals() {
        let toks = kinds(r"let q = '\''; let n = '\n'; let u = '\u{1F600}';");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 3);
        // Nothing after the escapes leaked into a string/lifetime.
        assert!(toks.iter().all(|(k, _)| *k != TokKind::Str && *k != TokKind::Lifetime));
    }

    #[test]
    fn nested_block_comments_and_lines() {
        let toks = lex("/* outer /* inner */ still comment */ fn f() {}\nfn g() {}");
        assert_eq!(toks[0].kind, TokKind::BlockComment);
        assert!(toks[0].text.ends_with("still comment */"));
        let g = toks.iter().find(|t| t.text == "g").unwrap();
        assert_eq!(g.line, 2, "newline inside the first line counted once");
    }

    #[test]
    fn raw_idents_are_idents_not_strings() {
        let toks = kinds("let r#match = 1; let s = r\"raw\";");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "r#match"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Str && t == "r\"raw\""));
    }

    #[test]
    fn byte_literals() {
        let toks =
            kinds(r##"let a = b"bytes with unsafe"; let c = b'x'; let r = br#"more unsafe"#;"##);
        assert!(toks.iter().all(|(_, t)| t != "unsafe"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
    }

    #[test]
    fn multiline_string_advances_lines() {
        let toks = lex("let s = \"a\nb\";\nfn after() {}");
        let after = toks.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn line_numbers_are_one_based_and_stable() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<_> = toks.iter().map(|t| (t.text.clone(), t.line)).collect();
        assert_eq!(lines, vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 4)]);
    }
}
