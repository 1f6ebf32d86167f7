//! The engine behind `asr-lint`: a hand-rolled Rust lexer plus nine
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
//! | `dangling-doc` | every `*.md` path a `//!` or `///` comment cites exists, beside the file or in a directory above it up to the linted root |
//! | `public-surface` | every `pub` `fn`, `struct`, `enum`, `trait`, `type`, `const` and `mod` of the six library crates is named by a non-test source outside its own file (a module: outside its crate) or exposed by a live item's signature, or has a `PUBLIC_SURFACE_ALLOW` entry with its reason; by name, so approximate (see [`public_surface`]) |
//! | `stale-allowlist` | every path the rules above allowlist or target exists under the linted root, so a deleted module cannot leave its exemption behind; every `PUBLIC_SURFACE_ALLOW` entry names a public item that is live only through it |
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

/// Files allowed to name `Ordering::*` — the executor, the
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

/// The library crates whose `pub` items must each name a caller.
const LIBRARIES: &[&str] = &[
    "src",
    "crates/wfst/src",
    "crates/decoder/src",
    "crates/acoustic/src",
    "crates/accel/src",
    "crates/platform/src",
];

/// Besides the libraries, the sources that count as callers: the figure
/// binaries, the examples and the benchmark crate.
const CALLERS: &[&str] = &[
    "crates/bench/src",
    "examples",
    "crates/accel/examples",
    "benchmark/src",
];

/// Public items that stay public with no caller outside tests:
/// `(file, item, why)`.
const PUBLIC_SURFACE_ALLOW: &[(&str, &str, &str)] = &[
    (
        "crates/decoder/src/reference.rs",
        "ReferenceDecoder",
        "the tests' oracle: the consumer matrix and the search's proptests compare against it",
    ),
    (
        "crates/decoder/src/search.rs",
        "decode_with",
        "the consumer matrix's reused-scratch consumer and the allocation-free decode pin",
    ),
    (
        "crates/decoder/src/probe.rs",
        "RecordingProbe",
        "the stage-split harness (`just stages`) and the simulator's counter pin read a search through it",
    ),
    (
        "crates/decoder/src/pool.rs",
        "checkouts",
        "the scratch-pool balance the concurrency and overload tests pin",
    ),
    (
        "crates/accel/src/sim.rs",
        "to_original",
        "the simulator's token-table pin maps a sorted layout's states back through it",
    ),
    (
        "crates/acoustic/src/dnn.rs",
        "Dense",
        "tests/relu_sparsity.rs rebuilds the MLP's layers to measure their zero share",
    ),
    (
        "crates/acoustic/src/dnn.rs",
        "forward",
        "tests/relu_sparsity.rs runs its rebuilt layers through it",
    ),
    (
        "crates/wfst/src/lib.rs",
        "builder",
        "the module path of `WfstBuilder`, with which tests and the consumer matrix's fixtures build graphs by hand",
    ),
    (
        "crates/wfst/src/sorted.rs",
        "map_state",
        "the renumbering's forward map, which the store's golden, mutant and property tests check an image keeps",
    ),
    (
        "crates/wfst/src/sorted.rs",
        "static_direct_fraction",
        "the paper's >95 % directly computable states, pinned by tests/paper_claims.rs",
    ),
    (
        "crates/wfst/src/store.rs",
        "to_bytes",
        "the image bytes the corrupt-image, golden and consumer-matrix tests build from a sorted graph",
    ),
    (
        "crates/wfst/src/store.rs",
        "from_bytes",
        "the entry point of the corrupt-image tests, which hand it bytes no file holds",
    ),
    (
        "crates/wfst/src/store.rs",
        "from_slice",
        "stages image bytes in a caller-owned buffer for the zero-copy pins",
    ),
    (
        "crates/wfst/src/store.rs",
        "from_image_bytes",
        "the zero-copy pins load from a caller-owned buffer through it, so the counted region holds no copy",
    ),
    (
        "crates/wfst/src/store.rs",
        "ref_count",
        "the zero-copy pins count the handles on one buffer with it",
    ),
    (
        "src/runtime/mod.rs",
        "demo_with",
        "the demo runtime under a config: how the pins and the kit build a runtime of each shape",
    ),
    (
        "src/runtime/session.rs",
        "open_session_with",
        "the infallible twin of `try_open_session_with`, which the pins open sessions by options with",
    ),
    (
        "src/runtime/session.rs",
        "flush_scoring",
        "the batch equivalence tests' sync point: a batched session's partials compare with an unbatched one's only after it",
    ),
];

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
    test_mods(lexed).0
}

/// [`test_mod_mask`], plus the names of the out-of-line test modules
/// (`#[cfg(test)] mod name;`), whose files are test code too.
fn test_mods(lexed: &Lexed) -> (Vec<bool>, Vec<String>) {
    let toks = &lexed.tokens;
    let mut mask = vec![false; toks.len()];
    let mut out_of_line = Vec::new();
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
                    if let (Some(Tok::Ident(name)), Some(Tok::Punct(';'))) = (
                        toks.get(k + 1).map(|t| &t.tok),
                        toks.get(k + 2).map(|t| &t.tok),
                    ) {
                        out_of_line.push(name.clone());
                        i = k + 3;
                        continue;
                    }
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
    (mask, out_of_line)
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

/// `dangling-doc`: every `*.md` path cited in a `//!` or `///` comment
/// of `file` (repo-relative) names a file under `root`, looked up beside
/// `file` and in each directory above it.
pub fn dangling_doc(file: &str, source: &str, root: &Path) -> Vec<Finding> {
    let dirs: Vec<&Path> = Path::new(file).ancestors().skip(1).collect();
    let docs = lex(source).comments.into_iter();
    let docs = docs.filter(|c| c.text.starts_with("///") || c.text.starts_with("//!"));
    let mut findings = Vec::new();
    for doc in docs {
        let words = doc
            .text
            .split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)));
        for cited in words.map(|w| w.trim_end_matches('.')) {
            let is_path = cited.len() > ".md".len() && cited.ends_with(".md");
            if is_path && !dirs.iter().any(|dir| root.join(dir).join(cited).is_file()) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: doc.line,
                    rule: "dangling-doc",
                    message: format!("`{cited}` is cited but does not exist"),
                });
            }
        }
    }
    findings
}

/// `public-surface`: every `pub` `fn`, `struct`, `enum`, `trait`,
/// `type`, `const` and `mod` of a library file in `sources` (repo-relative
/// path, text) is live, or has an `allow` entry `(file, item, why)`. An
/// item is live if a caller file other than its own names it (for a
/// module, a caller outside its crate), or if a live item exposes it (a
/// type in a live signature must stay public). Callers are the library
/// files, the figure binaries, the examples and the benchmark crate;
/// `#[cfg(test)]` modules, inline or out of line, and `pub use`
/// re-exports name nothing.
/// The check is by name, so it is approximate the way `knob-census` is: an
/// item shares its liveness with every identifier of the same spelling
/// (`new` is always live). An `allow` entry whose item is gone, or is live
/// without it, is a `stale-allowlist` finding. Returns the number of
/// public items with the findings.
pub fn public_surface(
    sources: &[(String, String)],
    allow: &[(&str, &str, &str)],
) -> (usize, Vec<Finding>) {
    let under = |file: &str, dirs: &[&str]| dirs.iter().any(|d| file.starts_with(&format!("{d}/")));
    let lexed: Vec<_> = sources.iter().map(|(_, s)| lex(s)).collect();
    let masks: Vec<_> = lexed.iter().map(test_mods).collect();
    // Out-of-line test modules: `mod tests;` in `a/mod.rs` is `a/tests.rs`.
    let mut test_files = Vec::new();
    for ((file, _), (_, mods)) in sources.iter().zip(&masks) {
        let path = Path::new(file);
        let dir = match path.file_name().and_then(|n| n.to_str()) {
            Some("lib.rs" | "mod.rs" | "main.rs") => path.parent().unwrap_or(path).to_path_buf(),
            _ => path.with_extension(""),
        };
        for name in mods {
            test_files.push(dir.join(format!("{name}.rs")));
            test_files.push(dir.join(name).join("mod.rs"));
        }
    }
    let mut items = Vec::new();
    let mut callers = Vec::new();
    for (((file, _), lexed), (mask, _)) in sources.iter().zip(&lexed).zip(&masks) {
        let library = under(file, LIBRARIES);
        if !(library || under(file, CALLERS)) || test_files.iter().any(|t| t == Path::new(file)) {
            continue;
        }
        let toks = &lexed.tokens;
        let ident = |i: usize| match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => s.as_str(),
            _ => "",
        };
        let mut names = std::collections::HashSet::new();
        let mut i = 0;
        while i < toks.len() {
            if mask[i] {
                i += 1;
                continue;
            }
            let public =
                ident(i) == "pub" && toks.get(i + 1).is_some_and(|t| t.tok != Tok::Punct('('));
            if public && ident(i + 1) == "use" {
                while toks.get(i).is_some_and(|t| t.tok != Tok::Punct(';')) {
                    i += 1;
                }
                continue;
            }
            if public && library {
                // Step over `const fn`, `unsafe`, `async` and `extern "C"`.
                let mut k = i + 1;
                while matches!(ident(k), "unsafe" | "async" | "extern")
                    || toks.get(k).is_some_and(|t| t.tok == Tok::Lit)
                    || (ident(k) == "const" && matches!(ident(k + 1), "fn" | "unsafe"))
                {
                    k += 1;
                }
                let kind = ident(k);
                let name = ident(k + 1);
                let declares = matches!(
                    kind,
                    "fn" | "struct" | "enum" | "trait" | "type" | "const" | "mod"
                );
                if declares && !name.is_empty() && name != "_" {
                    let exposes = exposed(&toks[k + 2..], kind);
                    items.push((file.as_str(), toks[i].line, kind, name.to_string(), exposes));
                }
            }
            if let Tok::Ident(s) = &toks[i].tok {
                names.insert(s.clone());
            }
            i += 1;
        }
        callers.push((file.as_str(), names));
    }
    // A private module is visible to its whole crate, so a module needs a
    // caller outside it.
    let crate_of = |file: &str| LIBRARIES.iter().find(|d| under(file, &[d])).copied();
    let called: Vec<bool> = items
        .iter()
        .map(|(file, _, kind, name, _)| {
            callers.iter().any(|(f, names)| {
                let outside = match *kind {
                    "mod" => crate_of(f) != crate_of(file),
                    _ => f != file,
                };
                outside && names.contains(name)
            })
        })
        .collect();
    let allowed: Vec<bool> = items
        .iter()
        .map(|(file, _, _, name, _)| allow.iter().any(|(f, n, _)| f == file && n == name))
        .collect();
    // Liveness spreads from the named items to what they expose.
    let live = |mut live: Vec<bool>| loop {
        let exposed: std::collections::HashSet<&String> = items
            .iter()
            .zip(&live)
            .filter(|(_, &l)| l)
            .flat_map(|(item, _)| &item.4)
            .collect();
        let mut grew = false;
        for (item, l) in items.iter().zip(live.iter_mut()) {
            if !*l && exposed.contains(&item.3) {
                (*l, grew) = (true, true);
            }
        }
        if !grew {
            return live;
        }
    };
    let live_unaided = live(called.clone());
    let live_allowed = live(called.iter().zip(&allowed).map(|(c, a)| c | a).collect());
    let mut findings = Vec::new();
    for (n, (file, line, kind, name, _)) in items.iter().enumerate() {
        let outside = if *kind == "mod" {
            "its crate"
        } else {
            "this file"
        };
        if allowed[n] && live_unaided[n] {
            findings.push(Finding {
                file: file.to_string(),
                line: *line,
                rule: "stale-allowlist",
                message: format!(
                    "`PUBLIC_SURFACE_ALLOW` exempts `{name}`, which is live without it"
                ),
            });
        } else if !live_allowed[n] {
            findings.push(Finding {
                file: file.to_string(),
                line: *line,
                rule: "public-surface",
                message: format!(
                    "public {kind} `{name}` is named by no non-test source outside {outside} \
                     and exposed by no live item (make it private, delete it, or allowlist it \
                     with a reason)"
                ),
            });
        }
    }
    for (file, name, _) in allow {
        if !items.iter().any(|(f, _, _, n, _)| f == file && n == name) {
            findings.push(Finding {
                file: file.to_string(),
                line: 0,
                rule: "stale-allowlist",
                message: format!(
                    "`PUBLIC_SURFACE_ALLOW` exempts `{name}`, which is not a public item here"
                ),
            });
        }
    }
    (items.len(), findings)
}

/// The identifiers a public item of `kind` exposes, read from `toks`, the
/// tokens after its name: a function's signature, a struct's `pub` fields,
/// all of an enum, trait, type alias or constant.
fn exposed(toks: &[Token], kind: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (mut depth, mut angle) = (0usize, 0usize);
    let mut public = kind != "struct";
    for t in toks {
        match &t.tok {
            Tok::Punct('{') if kind == "fn" || kind == "mod" => break,
            Tok::Punct(';') if depth == 0 => break,
            Tok::Punct('{' | '(' | '[') => depth += 1,
            Tok::Punct('}' | ')' | ']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 && kind != "fn" {
                    break;
                }
            }
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle = angle.saturating_sub(1),
            Tok::Punct(',') if kind == "struct" && depth == 1 && angle == 0 => public = false,
            Tok::Ident(s) if s == "pub" => public = true,
            Tok::Ident(s) if public => out.push(s.clone()),
            _ => {}
        }
    }
    out
}

/// Source directories scanned relative to the repo root: every crate's
/// `src/` but the vendored shims', and the [`CALLERS`]. Integration tests
/// are not scanned.
fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack: Vec<_> = CALLERS.iter().map(|dir| root.join(dir)).collect();
    stack.push(root.join("src"));
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
    files.dedup();
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

/// Lints the whole repo rooted at `root`; returns every finding and the
/// number of public library items.
pub fn lint_repo(root: &Path) -> (Vec<Finding>, usize) {
    let mut findings = stale_allowlist(root);
    let doc = std::fs::read_to_string(root.join(KNOB_CENSUS)).unwrap_or_default();
    let mut sections = doc.split("\n#");
    let census = sections.find(|s| s.lines().next().is_some_and(|h| h.contains("Knob census")));
    let census = census.unwrap_or_default();
    let mut sources = Vec::new();
    for path in collect_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        // Examples and the benchmark crate are read as callers only.
        if rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/")) {
            findings.extend(lint_source(&rel, &source));
            findings.extend(knob_census(&rel, &source, census));
            findings.extend(dangling_doc(&rel, &source, root));
        }
        sources.push((rel, source));
    }
    let (public_items, surface) = public_surface(&sources, PUBLIC_SURFACE_ALLOW);
    findings.extend(surface);
    (findings, public_items)
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
        let stale = lint_repo(&root).0;
        std::fs::remove_dir_all(&root).unwrap();
        let listed = ORDERING_ALLOW.len()
            + RAW_PTR_ALLOW.len()
            + NO_PANIC.len()
            + REPR_C_ASSERT.len()
            + 1
            + PUBLIC_SURFACE_ALLOW.len();
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
            .0
            .into_iter()
            .filter(|f| f.rule == "knob-census");
        assert_eq!(unlisted.collect::<Vec<_>>(), Vec::new());
    }

    #[test]
    fn dangling_doc_flags_a_cited_file_that_does_not_exist() {
        let src = "//! The design: ARCHITECTURE.md's \"Substitutions\".\n\
                   /// See DESIGN.md, substitution log.\n\
                   fn f() {}\n\
                   // A plain comment is not checked: GONE.md.";
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let got = dangling_doc("crates/verify/src/lint.rs", src, &repo);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!((got[0].rule, got[0].line), ("dangling-doc", 2));
        assert!(got[0].message.contains("`DESIGN.md`"));
        // The repo's own doc comments cite only files that exist.
        let dead = lint_repo(&repo)
            .0
            .into_iter()
            .filter(|f| f.rule == "dangling-doc");
        assert_eq!(dead.collect::<Vec<_>>(), Vec::new());
    }

    #[test]
    fn public_surface_flags_items_only_tests_name() {
        let lib = "pub mod graph;\npub use graph::dead;\n#[cfg(test)]\nmod checks;";
        let graph = "pub fn live() {}\npub fn dead() {}\npub fn tested() {}\n\
                     pub fn oracle() {}\npub struct Shown;\npub fn shows() -> Shown { Shown }\n\
                     #[cfg(test)]\nmod tests {\n    fn t() { super::oracle(); }\n}";
        let checks = "fn t() { crate::graph::tested(); crate::graph::dead(); }";
        let demo = "fn main() { asr_wfst::graph::live(); asr_wfst::graph::shows(); }";
        let sources: Vec<(String, String)> = [
            ("crates/wfst/src/lib.rs", lib),
            ("crates/wfst/src/graph.rs", graph),
            ("crates/wfst/src/checks.rs", checks),
            ("examples/demo.rs", demo),
        ]
        .iter()
        .map(|(f, s)| (f.to_string(), s.to_string()))
        .collect();
        let allow = [("crates/wfst/src/graph.rs", "oracle", "the tests' oracle")];
        let (items, got) = public_surface(&sources, &allow);
        // `graph`, `live`, `dead`, `tested`, `oracle`, `Shown`, `shows`:
        // `Shown` lives through the signature of `shows`, and neither a
        // re-export nor a test module (inline or out of line) is a caller.
        assert_eq!(items, 7);
        let flagged: Vec<_> = got.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            flagged,
            vec![("public-surface", 2), ("public-surface", 3)],
            "{got:?}"
        );
        assert!(got[0].message.contains("`dead`") && got[1].message.contains("`tested`"));
        // An entry for an item that is live anyway, or that is gone, is stale.
        let stale = [
            ("crates/wfst/src/graph.rs", "live", "x"),
            ("crates/wfst/src/graph.rs", "gone", "x"),
        ];
        let got = public_surface(&sources, &stale).1;
        let stale: Vec<_> = got.iter().filter(|f| f.rule == "stale-allowlist").collect();
        assert_eq!(stale.len(), 2, "{got:?}");
        assert!(stale[0].message.contains("`live`") && stale[1].message.contains("`gone`"));
        // The repo's own public items each have a caller or an entry.
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (findings, _) = lint_repo(&repo);
        let surface = findings.into_iter().filter(|f| f.rule == "public-surface");
        assert_eq!(surface.collect::<Vec<_>>(), Vec::new());
    }

    #[test]
    fn lifetimes_do_not_derail_the_lexer() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() { let _ = 'x'; let _ = '\\n'; }";
        assert!(rules("src/lib.rs", src).is_empty());
    }
}
