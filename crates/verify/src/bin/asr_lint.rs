//! `asr-lint` — the repo's custom static-analysis pass.
//!
//! Usage: `cargo run -p asr-verify --bin asr-lint [REPO_ROOT]`
//!
//! Scans every first-party `src/` tree (vendored shims, integration
//! tests, benches and examples exempt) and enforces the invariants in
//! [`asr_verify::lint`]: SAFETY comments on `unsafe`, `Ordering::` and
//! raw-pointer types confined to allowlisted modules, no panicking
//! calls in hot-path modules, size/align asserts on every `#[repr(C)]`
//! store record, every public serving option named in ARCHITECTURE.md's
//! "Knob census", every Markdown file a doc comment cites present, every
//! public library item named by a caller that is not a test, and no
//! allowlist entry for a file or item that is gone. Prints the number of
//! public library items; exits non-zero on any finding.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let (findings, public_items) = asr_verify::lint::lint_repo(&root);
    eprintln!("asr-lint: {public_items} public library items");
    if findings.is_empty() {
        eprintln!("asr-lint: clean");
        return ExitCode::SUCCESS;
    }
    for finding in &findings {
        eprintln!("{finding}");
    }
    eprintln!("asr-lint: {} finding(s)", findings.len());
    ExitCode::FAILURE
}
