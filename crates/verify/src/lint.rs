//! The engine behind `asr-lint`: a hand-rolled Rust lexer plus seven
//! repo-invariant rules that clippy cannot express.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `safety-comment` | every `unsafe` block / `unsafe impl` carries a `// SAFETY:` comment; every `unsafe fn` documents `# Safety` |
//! | `ordering-allowlist` | `Ordering::` tokens appear only in the allowlisted lock-free modules |
//! | `raw-ptr-allowlist` | raw-pointer types (`*const T` / `*mut T`) appear only in the allowlisted unsafe-audited modules |
//! | `no-panic-hot-path` | no `panic!` / `unwrap()` / `expect()` / `unreachable!` / `todo!` / `unimplemented!` in the hot-path modules (executor, session frame loop, search frame and token store, store load/validate) |
//! | `repr-c-assert` | every `#[repr(C)]` record in the graph store keeps its compile-time `size_of` / `align_of` asserts |
//! | `knob-census` | every public serving option — a by-value `pub fn` of an inherent `impl`, or a `pub` field, of `RuntimeConfig`, `SessionOptions`, `BatchScoringConfig` or `DecodeOptions` — is named as `` `Type::name` `` in ARCHITECTURE.md's "Knob census" section (its table), so no option lands without the workload that needs it |
//! | `stale-allowlist` | every path the rules above allowlist or target exists under the linted root, so a deleted module cannot leave its exemption behind |
//!
//! `#[cfg(test)] mod` bodies are excluded (tests may panic freely), and
//! an individual hot-path site can be waived with a justification
//! comment containing `LINT-ALLOW: panic` on or just above the line.
//!
//! The lexer understands line/block (nested) comments, string / raw
//! string / byte string / char literals, and lifetimes — enough to
//! never misread `"unsafe"` in a string or `'a` as a char literal.

use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number (0 when the finding is about a missing file).
    pub line: usize,
    /// Stable rule name (see the module table).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Files allowed to name `Ordering::*` — the lock-free executor, the
/// facade, the three runtime modules that own atomics (admission
/// counts, batch service counters, per-model session counters), and
/// the model checker itself.
const ORDERING_ALLOW: &[&str] = &[
    "crates/decoder/src/pool.rs",
    "crates/decoder/src/sync.rs",
    "crates/decoder/src/model_check.rs",
    "src/runtime/admission.rs",
    "src/runtime/batch.rs",
    "src/runtime/registry.rs",
    "crates/verify/src/model.rs",
    "crates/verify/src/shadow.rs",
];

/// Files allowed to name raw-pointer types — exactly the audited
/// unsafe modules (zero-copy store, the executor's erased job headers,
/// and the checker).
const RAW_PTR_ALLOW: &[&str] = &[
    "crates/decoder/src/pool.rs",
    "crates/decoder/src/model_check.rs",
    "crates/wfst/src/store.rs",
    "crates/verify/src/model.rs",
];

/// Hot-path / error-path modules where panicking calls are forbidden:
/// the executor, the streaming session frame loop, the search frame and
/// the token store it relaxes into (where its probe's calls run), and
/// the store's load/validate path (corrupt images must fail typed, never
/// panic).
const NO_PANIC: &[&str] = &[
    "crates/decoder/src/pool.rs",
    "crates/decoder/src/search.rs",
    "crates/decoder/src/stream.rs",
    "crates/decoder/src/token_table.rs",
    "crates/wfst/src/store.rs",
];

/// Files whose `#[repr(C)]` records must carry size/align asserts (the
/// byte-stable store image format).
const REPR_C_ASSERT: &[&str] = &["crates/wfst/src/store.rs"];

/// The serving option types: each by-value `pub fn` of an inherent
/// `impl` and each `pub` field of one is an option.
const KNOBS: &[&str] = &[
    "RuntimeConfig",
    "SessionOptions",
    "BatchScoringConfig",
    "DecodeOptions",
];

/// The document whose "Knob census" section names every option.
const KNOB_CENSUS: &str = "ARCHITECTURE.md";

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
    Lit,
}

#[derive(Debug)]
struct Token {
    line: usize,
    tok: Tok,
}

#[derive(Debug)]
struct Comment {
    line: usize,
    text: String,
}

#[derive(Debug, Default)]
struct Lexed {
    tokens: Vec<Token>,
    comments: Vec<Comment>,
}

/// Lexes just enough Rust: tokens with line numbers, comments kept
/// separately, literals opaque.
fn lex(source: &str) -> Lexed {
    let mut out = Lexed::default();
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: source[start..i].to_string(),
                });
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    text: source[start..i.min(bytes.len())].to_string(),
                });
            }
            '"' => {
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token {
                    line,
                    tok: Tok::Lit,
                });
            }
            'r' | 'b' if is_raw_string_start(bytes, i) => {
                // r"...", r#"..."#, br"...", b"..." — count hashes.
                let mut j = i;
                while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') {
                    j += 1;
                }
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                debug_assert_eq!(bytes.get(j), Some(&b'"'));
                j += 1;
                loop {
                    match bytes.get(j) {
                        None => break,
                        Some(&b'\n') => {
                            line += 1;
                            j += 1;
                        }
                        Some(&b'"') => {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while seen < hashes && bytes.get(k) == Some(&b'#') {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break;
                            }
                            j += 1;
                        }
                        Some(&b'\\') if hashes == 0 && bytes[i] == b'b' && bytes[i + 1] == b'"' => {
                            // plain byte string: honor escapes
                            j += 2;
                        }
                        Some(_) => j += 1,
                    }
                }
                i = j;
                out.tokens.push(Token {
                    line,
                    tok: Tok::Lit,
                });
            }
            '\'' => {
                // Char literal vs lifetime: a literal closes with a
                // quote after one (possibly escaped) character.
                if bytes.get(i + 1) == Some(&b'\\') {
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    out.tokens.push(Token {
                        line,
                        tok: Tok::Lit,
                    });
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    i += 3;
                    out.tokens.push(Token {
                        line,
                        tok: Tok::Lit,
                    });
                } else {
                    // Lifetime: consume the quote, the ident follows.
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.tokens.push(Token {
                    line,
                    tok: Tok::Ident(source[start..i].to_string()),
                });
            }
            c if c.is_ascii_digit() => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'.')
                {
                    // Numeric literal (float dots and suffixes eaten).
                    if bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                out.tokens.push(Token {
                    line,
                    tok: Tok::Lit,
                });
            }
            c if c.is_whitespace() => {
                i += 1;
            }
            other => {
                out.tokens.push(Token {
                    line,
                    tok: Tok::Punct(other),
                });
                i += 1;
            }
        }
    }
    out
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
        return bytes.get(j) == Some(&b'"');
    }
    // b"..." plain byte string
    bytes[i] == b'b' && bytes.get(i + 1) == Some(&b'"')
}

/// Marks token indices inside `#[cfg(test)] mod … { … }` bodies (and
/// `#[cfg(all(test, …))]` variants) so test code is exempt from rules.
fn test_mod_mask(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].tok == Tok::Punct('#')
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
            && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "cfg")
        {
            // Scan the attribute for a `test` ident up to the closing ']'.
            let mut j = i + 3;
            let mut saw_test = false;
            let mut depth = 0usize;
            while let Some(t) = toks.get(j) {
                match &t.tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') if depth == 0 => break,
                    Tok::Punct(']') => depth -= 1,
                    // `test` counts unless negated: `#[cfg(not(test))]`
                    // guards *non*-test code.
                    Tok::Ident(s) if s == "test" => {
                        let negated =
                            j >= 2 && matches!(&toks[j - 2].tok, Tok::Ident(p) if p == "not");
                        if !negated {
                            saw_test = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if saw_test {
                // Skip any further attributes, then expect `mod name {`.
                let mut k = j + 1;
                while matches!(toks.get(k).map(|t| &t.tok), Some(Tok::Punct('#'))) {
                    let mut depth = 0usize;
                    k += 1;
                    while let Some(t) = toks.get(k) {
                        match &t.tok {
                            Tok::Punct('[') => depth += 1,
                            Tok::Punct(']') => {
                                depth -= 1;
                                if depth == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                if matches!(toks.get(k).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "mod") {
                    // Find the opening brace and mark to its close.
                    while k < toks.len() && toks[k].tok != Tok::Punct('{') {
                        k += 1;
                    }
                    let mut depth = 0usize;
                    while let Some(t) = toks.get(k) {
                        match &t.tok {
                            Tok::Punct('{') => depth += 1,
                            Tok::Punct('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    mask[k] = true;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        mask[k] = true;
                        k += 1;
                    }
                    i = k;
                }
            }
        }
        i += 1;
    }
    mask
}

fn path_matches(file: &str, list: &[&str]) -> bool {
    list.iter().any(|p| file.ends_with(p))
}

fn comment_near(lexed: &Lexed, lo: usize, hi: usize, needles: &[&str]) -> bool {
    lexed
        .comments
        .iter()
        .any(|c| c.line >= lo && c.line <= hi && needles.iter().any(|n| c.text.contains(n)))
}

/// Lints one file's source; `file` is its repo-relative path.
pub fn lint_source(file: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let mask = test_mod_mask(&lexed);
    let toks = &lexed.tokens;
    let mut findings = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        match &t.tok {
            // --- rule: safety-comment -------------------------------
            Tok::Ident(s) if s == "unsafe" => {
                let next = toks.get(i + 1).map(|t| &t.tok);
                let is_fn_kw = matches!(next, Some(Tok::Ident(s)) if s == "fn");
                // `unsafe fn(...)` with no name is a fn-*pointer* type
                // (e.g. a trampoline field), not a declaration.
                let is_fn_decl =
                    is_fn_kw && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(_)));
                if is_fn_kw && !is_fn_decl {
                    continue;
                }
                let (lo, hi, needles): (usize, usize, &[&str]) = if is_fn_decl {
                    // Doc block may sit well above the signature.
                    (t.line.saturating_sub(40), t.line, &["# Safety", "SAFETY:"])
                } else {
                    (t.line.saturating_sub(5), t.line + 1, &["SAFETY:"])
                };
                if !comment_near(&lexed, lo, hi, needles) {
                    let what = match next {
                        Some(Tok::Ident(s)) if s == "fn" => {
                            "`unsafe fn` without a `# Safety` doc section"
                        }
                        Some(Tok::Ident(s)) if s == "impl" => {
                            "`unsafe impl` without a `// SAFETY:` comment"
                        }
                        _ => "`unsafe` block without a `// SAFETY:` comment",
                    };
                    findings.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "safety-comment",
                        message: what.to_string(),
                    });
                }
            }
            // --- rule: ordering-allowlist ---------------------------
            Tok::Ident(s)
                if s == "Ordering"
                    && !path_matches(file, ORDERING_ALLOW)
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                    && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':'))) =>
            {
                findings.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "ordering-allowlist",
                    message: "`Ordering::` outside the allowlisted lock-free modules".to_string(),
                });
            }
            // --- rule: raw-ptr-allowlist ----------------------------
            Tok::Punct('*') if !path_matches(file, RAW_PTR_ALLOW) => {
                if matches!(
                    toks.get(i + 1).map(|t| &t.tok),
                    Some(Tok::Ident(s)) if s == "const" || s == "mut"
                ) {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "raw-ptr-allowlist",
                        message: "raw-pointer type outside the allowlisted unsafe modules"
                            .to_string(),
                    });
                }
            }
            // --- rule: no-panic-hot-path ----------------------------
            Tok::Ident(s) if path_matches(file, NO_PANIC) => {
                let banged = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')));
                let called = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
                let hit = match s.as_str() {
                    "panic" | "unreachable" | "todo" | "unimplemented" => banged,
                    "unwrap" | "expect" => called,
                    _ => false,
                };
                if hit
                    && !comment_near(
                        &lexed,
                        t.line.saturating_sub(3),
                        t.line,
                        &["LINT-ALLOW: panic"],
                    )
                {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "no-panic-hot-path",
                        message: format!(
                            "`{s}` in a hot-path module (waive with `// LINT-ALLOW: panic — why`)"
                        ),
                    });
                }
            }
            _ => {}
        }
    }

    // --- rule: repr-c-assert -----------------------------------------
    if path_matches(file, REPR_C_ASSERT) {
        findings.extend(check_repr_c(file, &lexed, &mask));
    }
    findings
}

/// Every `#[repr(C…)]` record must be named in both a `size_of` and an
/// `align_of` compile-time assert somewhere in the same file.
fn check_repr_c(file: &str, lexed: &Lexed, mask: &[bool]) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut findings = Vec::new();
    let mut records: Vec<(usize, String)> = Vec::new();
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let is_repr = toks[i].tok == Tok::Punct('#')
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
            && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "repr")
            && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Punct('(')))
            && matches!(toks.get(i + 4).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "C");
        if !is_repr {
            continue;
        }
        // Find the record name after the attribute(s).
        let mut j = i + 5;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Ident(s) if s == "struct" || s == "union" || s == "enum" => {
                    if let Some(Tok::Ident(name)) = toks.get(j + 1).map(|t| &t.tok) {
                        records.push((toks[j].line, name.clone()));
                    }
                    break;
                }
                _ => j += 1,
            }
        }
    }
    for (line, name) in records {
        for probe in ["size_of", "align_of"] {
            let mentioned = toks.iter().enumerate().any(|(i, t)| {
                matches!(&t.tok, Tok::Ident(s) if s == probe)
                    && toks[i..toks.len().min(i + 8)]
                        .iter()
                        .any(|t| matches!(&t.tok, Tok::Ident(s) if *s == name))
            });
            if !mentioned {
                findings.push(Finding {
                    file: file.to_string(),
                    line,
                    rule: "repr-c-assert",
                    message: format!(
                        "`#[repr(C)]` record `{name}` has no compile-time `{probe}` assert"
                    ),
                });
            }
        }
    }
    findings
}

/// Lints one file's public options against `census`, the text of the
/// census section: each by-value `pub fn` of an inherent `impl`, and each
/// `pub` field, of an option type (`RuntimeConfig`, `SessionOptions`,
/// `BatchScoringConfig`, `DecodeOptions`) must be named there
/// as `` `Type::name` ``.
pub fn knob_census(file: &str, source: &str, census: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let mask = test_mod_mask(&lexed);
    let toks = &lexed.tokens;
    let ident = |i: usize| match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => s.as_str(),
        _ => "",
    };
    let punct = |i: usize, c: char| toks.get(i).is_some_and(|t| t.tok == Tok::Punct(c));
    let mut findings = Vec::new();
    // The option type whose body the scan is in (`impl` or `struct`),
    // and the brace depth of its members.
    let (mut owner, mut kind, mut body, mut depth) = ("", "", 0, 0);
    for i in (0..toks.len()).filter(|&i| !mask[i]) {
        depth += usize::from(punct(i, '{'));
        if punct(i, '}') {
            depth = depth.saturating_sub(1);
            if depth < body {
                owner = "";
            }
        }
        // `impl Default for RuntimeConfig` declares no option.
        if matches!(ident(i), "impl" | "struct")
            && KNOBS.contains(&ident(i + 1))
            && punct(i + 2, '{')
        {
            (owner, kind, body) = (ident(i + 1), ident(i), depth + 1);
        }
        if owner.is_empty() || depth != body || ident(i) != "pub" {
            continue;
        }
        // A field, or a method whose first parameter is `self` or `mut self`.
        let open = (i + 3..toks.len()).find(|&k| punct(k, '(')).unwrap_or(i);
        let name = match (kind, ident(i + 1), (ident(open + 1), ident(open + 2))) {
            ("struct", field, _) if punct(i + 2, ':') => field,
            ("impl", "fn", ("self", _) | ("mut", "self")) => ident(i + 2),
            _ => continue,
        };
        if !census.contains(&format!("`{owner}::{name}`")) {
            findings.push(Finding {
                file: file.to_string(),
                line: toks[i].line,
                rule: "knob-census",
                message: format!("public option `{owner}::{name}` is not in the knob census"),
            });
        }
    }
    findings
}

/// Source directories scanned relative to the repo root; vendored
/// shims, integration tests, benches and examples are exempt.
fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() && path.file_name().is_some_and(|n| n != "shims") {
                stack.push(path.join("src"));
            }
        }
    }
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// An allowlist (or rule-target) entry naming a file that is not under
/// `root` is an exemption nothing checks any more.
fn stale_allowlist(root: &Path) -> Vec<Finding> {
    let lists = [
        ("ORDERING_ALLOW", ORDERING_ALLOW),
        ("RAW_PTR_ALLOW", RAW_PTR_ALLOW),
        ("NO_PANIC", NO_PANIC),
        ("REPR_C_ASSERT", REPR_C_ASSERT),
        ("KNOB_CENSUS", &[KNOB_CENSUS]),
    ];
    let mut findings = Vec::new();
    for (list, paths) in lists {
        for path in paths.iter().filter(|p| !root.join(p).is_file()) {
            findings.push(Finding {
                file: (*path).to_string(),
                line: 0,
                rule: "stale-allowlist",
                message: format!("`{list}` names a file that does not exist"),
            });
        }
    }
    findings
}

/// Lints the whole repo rooted at `root`; returns every finding.
pub fn lint_repo(root: &Path) -> Vec<Finding> {
    let mut findings = stale_allowlist(root);
    let doc = std::fs::read_to_string(root.join(KNOB_CENSUS)).unwrap_or_default();
    let mut sections = doc.split("\n#");
    let census = sections.find(|s| s.lines().next().is_some_and(|h| h.contains("Knob census")));
    let census = census.unwrap_or_default();
    for path in collect_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(lint_source(&rel, &source));
        findings.extend(knob_census(&rel, &source, census));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(file: &str, src: &str) -> Vec<&'static str> {
        lint_source(file, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unsafe_block_requires_safety_comment() {
        let bad = "fn f(p: *const u8) { let _ = unsafe { *p }; }";
        assert_eq!(
            rules("crates/wfst/src/store.rs", bad),
            vec!["safety-comment"]
        );
        let good =
            "fn f(p: *const u8) {\n    // SAFETY: caller pins p.\n    let _ = unsafe { *p };\n}";
        assert!(rules("crates/wfst/src/store.rs", good).is_empty());
    }

    #[test]
    fn unsafe_fn_accepts_safety_doc_section() {
        let good = "/// Does things.\n///\n/// # Safety\n///\n/// Caller must pin `p`.\npub unsafe fn f(p: *const u8) {}";
        assert!(rules("crates/wfst/src/store.rs", good).is_empty());
        let bad = "pub unsafe fn f(p: *const u8) {}";
        assert_eq!(
            rules("crates/wfst/src/store.rs", bad),
            vec!["safety-comment"]
        );
    }

    #[test]
    fn unsafe_fn_pointer_types_are_not_declarations() {
        let src = "struct H { run: unsafe fn(*const u8, usize) }";
        assert!(rules("crates/wfst/src/store.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_ignored() {
        let src = "// unsafe unsafe unsafe\nfn f() { let _ = \"unsafe { }\"; }";
        assert!(rules("src/lib.rs", src).is_empty());
    }

    #[test]
    fn ordering_confined_to_allowlist() {
        let src = "use std::sync::atomic::Ordering;\nfn f() { let _ = Ordering::SeqCst; }";
        assert_eq!(
            rules("crates/acoustic/src/lib.rs", src),
            vec!["ordering-allowlist"]
        );
        assert!(rules("crates/decoder/src/pool.rs", src).is_empty());
    }

    #[test]
    fn raw_pointers_confined_to_allowlist() {
        let src = "fn f(x: *mut u8) {}";
        assert_eq!(
            rules("crates/acoustic/src/lib.rs", src),
            vec!["raw-ptr-allowlist"]
        );
        assert!(rules("crates/wfst/src/store.rs", src).is_empty());
        assert!(rules("crates/decoder/src/pool.rs", src).is_empty());
    }

    #[test]
    fn hot_path_panics_flagged_and_waivable() {
        let bad = "fn f(x: Option<u8>) { x.unwrap(); }";
        assert_eq!(
            rules("crates/decoder/src/stream.rs", bad),
            vec!["no-panic-hot-path"]
        );
        let waived =
            "fn f(x: Option<u8>) {\n    // LINT-ALLOW: panic — impossible by construction.\n    x.unwrap();\n}";
        assert!(rules("crates/decoder/src/stream.rs", waived).is_empty());
        // unwrap_or_else is not unwrap.
        let ok = "fn f(x: Result<u8, u8>) { x.unwrap_or_else(|e| e); }";
        assert!(rules("crates/decoder/src/stream.rs", ok).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); let _ = unsafe { std::mem::zeroed::<u8>() }; }\n}";
        assert!(rules("crates/decoder/src/pool.rs", src).is_empty());
    }

    #[test]
    fn repr_c_records_need_both_asserts() {
        let bad = "#[repr(C)]\nstruct Rec { a: u32 }";
        let got = rules("crates/wfst/src/store.rs", bad);
        assert_eq!(got, vec!["repr-c-assert", "repr-c-assert"]);
        let good = "#[repr(C)]\nstruct Rec { a: u32 }\nconst _: () = assert!(std::mem::size_of::<Rec>() == 4);\nconst _: () = assert!(std::mem::align_of::<Rec>() == 4);";
        assert!(rules("crates/wfst/src/store.rs", good).is_empty());
    }

    #[test]
    fn allowlist_entries_must_exist_under_the_root() {
        let root = std::env::temp_dir().join(format!("asr-lint-stale-{}", std::process::id()));
        let kept = "crates/decoder/src/stream.rs";
        std::fs::create_dir_all(root.join(kept).parent().unwrap()).unwrap();
        std::fs::write(root.join(kept), "").unwrap();
        let stale = lint_repo(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let listed =
            ORDERING_ALLOW.len() + RAW_PTR_ALLOW.len() + NO_PANIC.len() + REPR_C_ASSERT.len() + 1;
        assert_eq!(stale.len(), listed - 1, "every entry but the one present");
        assert!(stale
            .iter()
            .all(|f| f.rule == "stale-allowlist" && f.file != kept));
        // The repo's own lists name only files that exist.
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(stale_allowlist(&repo), Vec::new());
    }

    #[test]
    fn knob_census_flags_an_option_missing_from_the_table() {
        let src = "pub struct DecodeOptions {\n    pub beam: f32,\n    frames: usize,\n}\n\
                   impl SessionOptions {\n    pub fn new() -> Self { Self }\n    \
                   pub fn model(mut self, name: String) -> Self { self }\n    \
                   pub fn depth(&self) -> usize { 1 }\n    \
                   pub(crate) fn inner(self) -> Self { self }\n    \
                   pub fn unlisted(self) -> Self { self }\n}\n\
                   impl Default for RuntimeConfig {\n    fn default() -> Self { Self }\n}";
        let census = "| `DecodeOptions::beam` | 8 |\n| `SessionOptions::model` | default graph |";
        let got = knob_census("src/runtime/session.rs", src, census);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!((got[0].rule, got[0].line), ("knob-census", 10));
        assert!(got[0].message.contains("`SessionOptions::unlisted`"));
        // Once the census names it, the fixture is clean.
        let listed = format!("{census}\n| `SessionOptions::unlisted` | off |");
        assert!(knob_census("src/runtime/session.rs", src, &listed).is_empty());
        // The repo's own census names every option it declares.
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let unlisted = lint_repo(&repo)
            .into_iter()
            .filter(|f| f.rule == "knob-census");
        assert_eq!(unlisted.collect::<Vec<_>>(), Vec::new());
    }

    #[test]
    fn lifetimes_do_not_derail_the_lexer() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() { let _ = 'x'; let _ = '\\n'; }";
        assert!(rules("src/lib.rs", src).is_empty());
    }
}
