//! Token goldens for `obfs_lint::lex`: the exact token sequences the
//! passes depend on, pinned so a lexer change that would silently shift
//! what "counts" (an `unsafe` inside a raw string, an `Ordering::` in a
//! doc comment) fails loudly here first.

use obfs_lint::lex::{comment_content, lex, TokKind};

/// Compact golden form: `kind@line:text` per token, newline-joined.
fn golden(src: &str) -> String {
    lex(src)
        .iter()
        .map(|t| format!("{:?}@{}:{}", t.kind, t.line, t.text.replace('\n', "\\n")))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn token_sequence_golden() {
    let src =
        "unsafe fn f<'a>(x: &'a u32) -> u32 {\n    // SAFETY: x is valid.\n    *x + 0xFF\n}\n";
    assert_eq!(
        golden(src),
        "Ident@1:unsafe\n\
         Ident@1:fn\n\
         Ident@1:f\n\
         Punct@1:<\n\
         Lifetime@1:'a\n\
         Punct@1:>\n\
         Punct@1:(\n\
         Ident@1:x\n\
         Punct@1::\n\
         Punct@1:&\n\
         Lifetime@1:'a\n\
         Ident@1:u32\n\
         Punct@1:)\n\
         Punct@1:-\n\
         Punct@1:>\n\
         Ident@1:u32\n\
         Punct@1:{\n\
         LineComment@2:// SAFETY: x is valid.\n\
         Punct@3:*\n\
         Ident@3:x\n\
         Punct@3:+\n\
         Num@3:0xFF\n\
         Punct@4:}"
    );
}

/// The load-bearing property: `unsafe` / `Ordering::SeqCst` inside any
/// string flavour lexes as one `Str` token, never as idents the passes
/// would count.
#[test]
fn strings_swallow_keywords() {
    for src in [
        "let s = \"unsafe { Ordering::SeqCst }\";",
        "let s = r\"unsafe fetch_add(1)\";",
        "let s = r#\"lock() \"quoted\" unsafe\"#;",
        "let s = b\"unsafe\";",
        "let s = br#\"Ordering::AcqRel\"#;",
    ] {
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.kind == TokKind::Str), "no Str token in {src:?}: {toks:?}");
        assert!(
            !toks.iter().any(|t| t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "unsafe" | "Ordering" | "SeqCst" | "fetch_add" | "lock"
                )),
            "string content leaked as idents in {src:?}: {toks:?}"
        );
    }
}

#[test]
fn comments_swallow_keywords_but_keep_their_text() {
    let src = "/// mentions unsafe and Ordering::SeqCst in prose\nfn f() {}\n/* block with fetch_add(1, Ordering::Relaxed) */\n";
    let toks = lex(src);
    assert!(!toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && matches!(t.text.as_str(), "unsafe" | "Ordering")));
    // The comment text itself is preserved for marker parsing.
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::LineComment && t.text.contains("Ordering::SeqCst")));
    assert!(toks.iter().any(|t| t.kind == TokKind::BlockComment && t.text.contains("fetch_add")));
}

#[test]
fn nested_block_comments_and_multiline_spans() {
    let toks = lex("/* outer /* inner */ still comment */ fn f() {}\n");
    assert_eq!(toks[0].kind, TokKind::BlockComment);
    assert!(toks[0].text.ends_with("still comment */"));
    assert_eq!(toks[1].text, "fn");

    // A block comment's line is its *first* line.
    let toks = lex("/* a\n   b\n*/ unsafe\n");
    assert_eq!(toks[0].line, 1);
    assert_eq!((toks[1].text.as_str(), toks[1].line), ("unsafe", 3));
}

#[test]
fn char_literals_and_lifetimes_are_distinguished() {
    let toks = lex("let c = 'x'; let l: &'static str = \"s\";");
    assert!(toks.iter().any(|t| t.kind == TokKind::Char && t.text == "'x'"));
    assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
}

#[test]
fn comment_content_strips_exactly_one_opener() {
    assert_eq!(comment_content("// ord: because"), "ord: because");
    assert_eq!(comment_content("//! lint:protocol racy"), "lint:protocol racy");
    assert_eq!(comment_content("/// doc"), "doc");
    assert_eq!(comment_content("/* racy-ok: x */"), "racy-ok: x */");
    // Prose that merely *mentions* a marker mid-line does not start
    // with it — the start-anchored grammar the passes rely on.
    assert!(!comment_content("// see the ord: convention").starts_with("ord:"));
}

/// End-to-end: a file whose only `unsafe` / atomics / marker words live
/// in strings and prose produces zero findings and zero regions.
#[test]
fn strings_and_prose_do_not_trip_any_pass() {
    let root = std::env::temp_dir().join(format!("obfs-lint-lexer-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/app/src")).unwrap();
    std::fs::create_dir_all(root.join("crates/sync/src")).unwrap();
    // The shim/taxonomy passes read these unconditionally.
    std::fs::write(
        root.join("crates/sync/src/flight.rs"),
        "pub mod kind {\n    pub const LEVEL_START: u16 = 1;\n}\n",
    )
    .unwrap();
    std::fs::write(root.join("crates/sync/src/chaos.rs"), "pub fn noop() {}\n").unwrap();
    std::fs::write(
        root.join("DESIGN.md"),
        "# design\n\n| kind | meaning | a | b |\n|---|---|---|---|\n| `LEVEL_START` | level began | — | — |\n",
    )
    .unwrap();
    std::fs::write(
        root.join("crates/app/src/lib.rs"),
        "//! Docs may say unsafe, Ordering::SeqCst, lock(), fetch_add.\n\
         //! Even `lint:region hot-path:fake` in prose is inert — wait,\n\
         //! that one IS start-anchored; keep it mid-line: see lint:region.\n\
         pub fn f() -> &'static str {\n\
             \"unsafe { x.fetch_add(1, Ordering::SeqCst) } // lint:region hot-path:str\"\n\
         }\n",
    )
    .unwrap();
    let report = obfs_lint::lint_repo(&root).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    assert!(report.passed(), "{:#?}", report.findings);
    assert!(report.regions.is_empty());
}
