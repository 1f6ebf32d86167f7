//! Shared experiment infrastructure for the per-figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index): it builds the standard workload,
//! runs the simulator and/or platform models, prints the paper's series,
//! and writes `target/experiments/<id>.json` with the raw numbers.
//!
//! All binaries accept the same flags:
//!
//! ```text
//! --states N    WFST size                  (default 1,000,000)
//! --frames N    frames of speech           (default 100 = 1 s)
//! --beam B      beam width                 (default 12)
//! --seed S      RNG seed                   (default 42)
//! --scale P     preset: small | default | large | kaldi
//! ```

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::energy::{EnergyBreakdown, EnergyModel};
use asr_accel::sim::{SimResult, Simulator};
use asr_acoustic::scores::AcousticTable;
use asr_platform::metrics::OperatingPoint;
use asr_platform::{CpuModel, GpuModel};
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::Wfst;
use serde::Serialize;
use std::path::PathBuf;

/// Experiment scale parsed from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Number of WFST states.
    pub states: usize,
    /// Frames of speech (100 per second).
    pub frames: usize,
    /// Beam width.
    pub beam: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            states: 1_000_000,
            frames: 100,
            beam: 12.0,
            seed: 42,
        }
    }
}

impl Scale {
    /// Parses the standard flags from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn from_args() -> Self {
        let mut scale = Scale::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |i: usize| -> &str {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("flag {flag} needs a value"))
            };
            match flag {
                "--states" => {
                    scale.states = value(i).parse().expect("--states: integer");
                    i += 2;
                }
                "--frames" => {
                    scale.frames = value(i).parse().expect("--frames: integer");
                    i += 2;
                }
                "--beam" => {
                    scale.beam = value(i).parse().expect("--beam: float");
                    i += 2;
                }
                "--seed" => {
                    scale.seed = value(i).parse().expect("--seed: integer");
                    i += 2;
                }
                "--scale" => {
                    match value(i) {
                        "small" => {
                            scale.states = 100_000;
                            scale.frames = 50;
                        }
                        "default" => {}
                        "large" => {
                            scale.states = 4_000_000;
                            scale.frames = 200;
                        }
                        "kaldi" => {
                            scale.states = 13_200_000;
                            scale.frames = 300;
                        }
                        other => panic!("unknown scale preset {other}"),
                    }
                    i += 2;
                }
                other => panic!("unknown flag {other}"),
            }
        }
        scale
    }

    /// Generates the standard synthetic workload for this scale.
    pub fn build(&self) -> (Wfst, AcousticTable) {
        let cfg = SynthConfig::with_states(self.states).with_seed(self.seed);
        let wfst = SynthWfst::generate(&cfg).expect("synthetic WFST generation");
        let scores = AcousticTable::random(
            self.frames,
            wfst.num_phones() as usize,
            (0.5, 4.0),
            self.seed ^ 0x5C0_4E5,
        );
        (wfst, scores)
    }

    /// Seconds of speech represented by this scale.
    pub fn speech_seconds(&self) -> f64 {
        self.frames as f64 * 0.01
    }
}

/// One simulated accelerator design point with its energy accounting.
#[derive(Debug, Clone)]
pub struct AccelRun {
    /// Which design point.
    pub design: DesignPoint,
    /// Raw simulation output.
    pub result: SimResult,
    /// Energy accounting.
    pub energy: EnergyBreakdown,
    /// Decode-time/energy operating point (per speech second).
    pub point: OperatingPoint,
}

/// Runs one accelerator design point on the workload.
pub fn run_design(design: DesignPoint, wfst: &Wfst, scores: &AcousticTable, beam: f32) -> AccelRun {
    let cfg = AcceleratorConfig::for_design(design).with_beam(beam);
    let sim = Simulator::new(cfg.clone());
    let result = sim.decode_wfst(wfst, scores).expect("simulation");
    let energy = EnergyModel::default().energy(&cfg, &result.stats);
    let speech_s = result.stats.frames as f64 * 0.01;
    let point = OperatingPoint {
        decode_s_per_speech_s: result.stats.seconds(cfg.frequency_hz) / speech_s.max(1e-9),
        energy_j_per_speech_s: energy.total_j() / speech_s.max(1e-9),
    };
    AccelRun {
        design,
        result,
        energy,
        point,
    }
}

/// The six configurations of Figures 9-14, in paper order: CPU, GPU, then
/// the four accelerator design points. Baseline platform times are scaled
/// to the workload the simulator actually ran (same arcs per frame), so
/// ratios are comparable; see DESIGN.md's calibration note.
pub fn standard_points(scale: &Scale) -> Vec<(String, OperatingPoint, Option<AccelRun>)> {
    let (wfst, scores) = scale.build();
    let mut out = Vec::new();
    // Run the base design first to learn the workload's arcs/frame.
    let base = run_design(DesignPoint::Base, &wfst, &scores, scale.beam);
    let arcs_per_frame = base.result.stats.arcs_per_frame();
    let cpu = CpuModel::default().viterbi_point(arcs_per_frame);
    let gpu = GpuModel::default().viterbi_point(arcs_per_frame);
    out.push(("CPU".to_owned(), cpu, None));
    out.push(("GPU".to_owned(), gpu, None));
    out.push((base.design.label().to_owned(), base.point, Some(base)));
    for design in [
        DesignPoint::StateOpt,
        DesignPoint::ArcPrefetch,
        DesignPoint::StateAndArc,
    ] {
        let run = run_design(design, &wfst, &scores, scale.beam);
        out.push((design.label().to_owned(), run.point, Some(run)));
    }
    out
}

/// Directory where experiment JSON lands (`target/experiments`).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Writes `value` as pretty JSON to `target/experiments/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize experiment");
    std::fs::write(&path, json).expect("write experiment json");
    println!("\n[wrote {}]", path.display());
}

/// Splits the top-level members of a pretty-printed JSON object file into
/// `"  \"key\": value"` chunks (no trailing commas).
///
/// The offline `serde_json` shim serializes but does not parse, so the
/// benchmark binaries that co-locate their numbers in one file splice
/// *textually*, relying on the pretty-printer's invariant that top-level
/// members are indented exactly two spaces while everything nested sits
/// deeper. Returns `None` when the file does not exist.
///
/// # Panics
///
/// Panics if the existing file is not a top-level JSON object, or holds
/// content that is not two-space pretty-printed members (say after a hand
/// edit or an external reformat) — failing loudly beats silently dropping
/// someone's benchmark numbers on the next splice.
fn read_members(file: &std::path::Path) -> Option<Vec<String>> {
    let existing = std::fs::read_to_string(file).ok()?;
    let trimmed = existing.trim_end();
    let inner = trimmed
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
        .unwrap_or_else(|| panic!("{} is not a JSON object", file.display()));
    // Member boundaries: a newline followed by a two-space-indented quote.
    let mut starts: Vec<usize> = inner
        .match_indices("\n  \"")
        .map(|(at, _)| at + 1)
        .collect();
    let first = starts.first().copied().unwrap_or(inner.len());
    assert!(
        inner[..first].trim().is_empty(),
        "{}: unrecognized JSON layout (expected two-space pretty-printed \
         members; refusing to splice and drop existing content)",
        file.display()
    );
    starts.push(inner.len());
    let members = starts
        .windows(2)
        .map(|w| {
            let chunk = inner[w[0]..w[1]].trim_end();
            chunk.strip_suffix(',').unwrap_or(chunk).to_owned()
        })
        .collect();
    Some(members)
}

/// Splices `"key": value` into the top-level JSON object in `file`:
/// replaces the member in place if one of the benchmark writers added it
/// before (other members are untouched, wherever they sit), appends it
/// otherwise, and creates the file as a fresh object when missing.
/// `value_json` is re-indented one level so the result stays readable.
///
/// This is how the benchmark binaries co-locate their numbers in
/// `BENCH_decode.json` (`bench_batch` → `"batch"`, `bench_frontend` →
/// `"frontend"`) without a JSON parser — the offline `serde_json` shim
/// only serializes.
///
/// # Panics
///
/// Panics if the existing file is not a top-level JSON object.
pub fn splice_json_section(file: &std::path::Path, key: &str, value_json: &str) {
    let mut members = read_members(file).unwrap_or_default();
    let prefix = format!("  \"{key}\":");
    let rendered = format!("  \"{key}\": {}", value_json.replace('\n', "\n  "));
    match members.iter_mut().find(|m| m.starts_with(&prefix)) {
        Some(member) => *member = rendered,
        None => members.push(rendered),
    }
    let merged = format!("{{\n{}\n}}\n", members.join(",\n"));
    std::fs::write(file, merged).expect("write spliced json");
}

/// Extracts the value of a top-level `key` previously added with
/// [`splice_json_section`], de-indented so it can be re-spliced verbatim.
/// `None` when the file or the section is absent.
///
/// Used by writers that regenerate a whole file (`bench_decode`) to
/// carry foreign sections (the `"batch"` and `"frontend"` numbers)
/// across the rewrite.
pub fn extract_json_section(file: &std::path::Path, key: &str) -> Option<String> {
    let members = read_members(file)?;
    let prefix = format!("  \"{key}\": ");
    let member = members.iter().find(|m| m.starts_with(&prefix))?;
    Some(member[prefix.len()..].replace("\n  ", "\n"))
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, title: &str, paper: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper: {paper}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_matches_documented_values() {
        let s = Scale::default();
        assert_eq!(s.states, 1_000_000);
        assert_eq!(s.frames, 100);
        assert_eq!(s.speech_seconds(), 1.0);
    }

    #[test]
    fn build_produces_consistent_workload() {
        let s = Scale {
            states: 5_000,
            frames: 10,
            beam: 8.0,
            seed: 1,
        };
        let (wfst, scores) = s.build();
        assert_eq!(wfst.num_states(), 5_000);
        assert_eq!(scores.num_frames(), 10);
        assert!(scores.num_phones() >= wfst.num_phones() as usize);
    }

    #[test]
    fn splice_json_section_appends_and_replaces() {
        let path = std::env::temp_dir().join(format!(
            "asr-bench-splice-{}-{}.json",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_file(&path);
        // Missing file: creates a fresh object.
        splice_json_section(&path, "serving", "{\n  \"a\": 1\n}");
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.contains("\"serving\""));
        assert!(first.trim_end().ends_with('}'));
        // Existing object: appended after prior members.
        std::fs::write(&path, "{\n  \"benchmark\": \"x\"\n}\n").unwrap();
        splice_json_section(&path, "serving", "{\n  \"a\": 1\n}");
        let second = std::fs::read_to_string(&path).unwrap();
        assert!(second.contains("\"benchmark\": \"x\","));
        assert!(second.contains("\"serving\""));
        // Re-splicing replaces rather than duplicates.
        splice_json_section(&path, "serving", "{\n  \"a\": 2\n}");
        let third = std::fs::read_to_string(&path).unwrap();
        assert_eq!(third.matches("\"serving\"").count(), 1);
        assert!(third.contains("\"a\": 2"));
        assert!(!third.contains("\"a\": 1"));
        // Re-splicing a file the helper itself created (key is the first
        // member, no leading comma) must also replace, not duplicate.
        let _ = std::fs::remove_file(&path);
        splice_json_section(&path, "serving", "{\n  \"a\": 3\n}");
        splice_json_section(&path, "serving", "{\n  \"a\": 4\n}");
        let fourth = std::fs::read_to_string(&path).unwrap();
        assert_eq!(fourth.matches("\"serving\"").count(), 1);
        assert!(fourth.contains("\"a\": 4"));
        assert!(!fourth.contains("\"a\": 3"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn splicing_one_section_preserves_the_others() {
        let path =
            std::env::temp_dir().join(format!("asr-bench-multisplice-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "{\n  \"benchmark\": \"x\"\n}\n").unwrap();
        splice_json_section(&path, "serving", "{\n  \"a\": 1\n}");
        splice_json_section(&path, "frontend", "{\n  \"b\": 2\n}");
        // Re-splicing the *earlier* section must not clobber the later one.
        splice_json_section(&path, "serving", "{\n  \"a\": 3\n}");
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.matches("\"serving\"").count(), 1);
        assert_eq!(content.matches("\"frontend\"").count(), 1);
        assert!(content.contains("\"a\": 3"));
        assert!(content.contains("\"b\": 2"));
        assert!(content.contains("\"benchmark\": \"x\""));
        // Both sections extract cleanly regardless of position.
        assert_eq!(
            extract_json_section(&path, "serving").as_deref(),
            Some("{\n  \"a\": 3\n}")
        );
        assert_eq!(
            extract_json_section(&path, "frontend").as_deref(),
            Some("{\n  \"b\": 2\n}")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "unrecognized JSON layout")]
    fn splice_refuses_compacted_files_rather_than_dropping_content() {
        let path =
            std::env::temp_dir().join(format!("asr-bench-compact-{}.json", std::process::id()));
        std::fs::write(&path, "{\"benchmark\":\"x\"}\n").unwrap();
        let result = std::panic::catch_unwind(|| {
            splice_json_section(&path, "serving", "{\n  \"a\": 1\n}");
        });
        let _ = std::fs::remove_file(&path);
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn extract_json_section_round_trips_through_splice() {
        let path =
            std::env::temp_dir().join(format!("asr-bench-extract-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "{\n  \"benchmark\": \"x\"\n}\n").unwrap();
        let value = "{\n  \"a\": 1,\n  \"nested\": {\n    \"b\": 2\n  }\n}";
        splice_json_section(&path, "serving", value);
        assert_eq!(
            extract_json_section(&path, "serving").as_deref(),
            Some(value),
            "extraction must undo the splice's re-indentation exactly"
        );
        assert!(extract_json_section(&path, "absent").is_none());
        let _ = std::fs::remove_file(&path);
        assert!(extract_json_section(&path, "serving").is_none());
    }

    #[test]
    fn run_design_produces_finite_point() {
        let s = Scale {
            states: 3_000,
            frames: 10,
            beam: 6.0,
            seed: 2,
        };
        let (wfst, scores) = s.build();
        let run = run_design(DesignPoint::StateAndArc, &wfst, &scores, s.beam);
        assert!(run.point.decode_s_per_speech_s > 0.0);
        assert!(run.point.energy_j_per_speech_s > 0.0);
        assert!(run.energy.total_j() > 0.0);
    }
}
