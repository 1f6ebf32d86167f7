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
//! "Knob census", and no allowlist entry for a file that is gone. Exits
//! non-zero on any finding.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let findings = asr_verify::lint::lint_repo(&root);
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
