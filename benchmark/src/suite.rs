//! The whole suite: every workload, each run in a fresh child process so
//! its set-up time and peak memory are its own. Prints every metric by
//! name with its unit and writes the results file `--check` compares.

use crate::inputs::WORKLOADS;
use crate::json::{self, Value};
use crate::{proc, run, Args};
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// One child run, as recorded in the results file.
struct RunRecord {
    workload: &'static str,
    seed: u64,
    trace: bool,
    /// The child's result line, verbatim (it is a JSON object).
    result: String,
    correct: bool,
}

/// Output of `program args…`, trimmed; `"unknown"` when it cannot run
/// (the driver's checkouts are not git repositories).
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn run_child(
    workload: &'static str,
    seed: u64,
    trace: bool,
    args: &Args,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // stderr passes through: the child's progress and warnings are ours.
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Everything but the result line is the child's metric listing.
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or_default().to_owned();
    for line in lines {
        println!("{line}");
    }
    let doc = json::parse(&result).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); exit status {}",
            out.status
        )
    })?;
    let correct = doc.get("correct").and_then(Value::as_bool) == Some(true) && out.status.success();
    Ok(RunRecord {
        workload,
        seed,
        trace,
        result,
        correct,
    })
}

/// Runs every workload `--runs` times (seeds `seed`, `seed + 1`, …),
/// untraced and — with `--trace 1` — traced, and writes the results file.
pub fn run(args: &Args) -> Result<bool, String> {
    let nproc = proc::nproc();
    let mut records = Vec::new();
    for spec in &WORKLOADS {
        for i in 0..args.runs as u64 {
            let seed = args.seed.wrapping_add(i);
            records.push(run_child(spec.name, seed, false, args)?);
            if args.trace {
                records.push(run_child(spec.name, seed, true, args)?);
            }
        }
    }
    let all_correct = records.iter().all(|r| r.correct);

    let mut doc = String::new();
    let threads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("\"{}\": {}", w.name, w.lanes))
        .collect();
    let oversubscribed: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.lanes > nproc)
        .map(|w| format!("\"{}\"", w.name))
        .collect();
    let _ = write!(
        doc,
        "{{\n\"environment\": {{\"nproc\": {nproc}, \"threads\": {{{}}}, \"oversubscribed\": [{}], \
         \"commit\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"seed\": {}, \"runs\": {}, \
         \"seconds\": {}, \"smoke\": {}}},\n\"runs\": [",
        threads.join(", "),
        oversubscribed.join(", "),
        json::escape(&tool_output("git", &["rev-parse", "HEAD"])),
        json::escape(&tool_output("rustc", &["--version"])),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.seed,
        args.runs,
        args.seconds,
        args.smoke,
    );
    for (i, r) in records.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            doc,
            "{sep}{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {}}}",
            r.workload,
            r.seed,
            u8::from(r.trace),
            r.result
        );
    }
    doc.push_str("\n]\n}\n");

    let file = args
        .out
        .clone()
        .unwrap_or_else(|| run::out_dir().join("results.json"));
    if let Some(dir) = file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&file, doc).map_err(|e| format!("write {}: {e}", file.display()))?;
    eprintln!(
        "{} runs, all correct: {all_correct}; results -> {}",
        records.len(),
        file.display()
    );
    Ok(all_correct)
}
