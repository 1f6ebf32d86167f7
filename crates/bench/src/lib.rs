//! Shared experiment infrastructure for the per-figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (ARCHITECTURE.md, "The figure binaries"): it builds the standard workload,
//! runs the simulator and/or platform models, and prints the paper's
//! series as a table on stdout, its only output.
//!
//! The exception is `bench_load`, the open-loop overload harness for the
//! runtime's admission control: it prints its report the same way but
//! takes its own flags.
//!
//! All the others accept the same flags:
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
/// ratios are comparable; see ARCHITECTURE.md, "Substitutions".
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
