//! The repository's one benchmark: samples in → words out through
//! `AsrRuntime`, five workloads, end-to-end metrics with tracing off and a
//! per-layer replay trace with it on. See `README.md` beside this crate
//! and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! asr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//!     object {"correct", "attempted", "failed", "metrics"}
//! asr-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>] [--runs <n>]
//!               [--smoke] [--out <file>]
//!     every workload, each run in a fresh child process; prints every
//!     metric and writes the results file
//! asr-benchmark --check <a> <b>
//!     compares two results files against the bounds of BENCHMARK.json
//! ```

mod check;
mod inputs;
mod json;
mod metrics;
mod proc;
mod replay;
mod run;
mod stats;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
    smoke: bool,
    out: Option<PathBuf>,
    check: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    let names: Vec<&str> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: asr-benchmark [--workload <{}>] [--seed <u64>] [--seconds <1..60>] \
         [--trace <0|1>] [--runs <n>] [--smoke] [--out <file>] | --check <a> <b>",
        names.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: 10,
        runs: 1,
        ..Args::default()
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".to_owned());
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--check" => {
                let a = PathBuf::from(value("two results files")?);
                let b = PathBuf::from(value("two results files")?);
                args.check = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// One run of one workload, in this process.
fn run_single(name: &str, args: &Args) -> Result<bool, String> {
    let spec =
        inputs::spec(name).ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?;
    let nproc = proc::nproc();
    if spec.lanes > nproc {
        eprintln!(
            "warning: {name} is oversubscribed: it uses {} threads on {nproc} processors",
            spec.lanes
        );
    }
    let budget = if args.smoke {
        run::Budget::smoke()
    } else {
        run::Budget::full(args.seconds)
    };
    let outcome = if args.trace {
        run::per_layer(spec, args.seed, budget)
    } else {
        run::end_to_end(spec, args.seed, budget)
    };
    for (def, value) in &outcome.values {
        println!("{name} {} {value} {}", def.name, def.unit);
    }
    println!(
        "{}",
        metrics::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.values
        )
    );
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.check {
        check::run(a, b)
    } else if let Some(name) = &args.workload {
        run_single(name, &args)
    } else {
        suite::run(&args)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
