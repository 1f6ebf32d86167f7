//! Voice-command scenario: the paper's motivating use case.
//!
//! A smart-home assistant decodes a battery of spoken commands; we measure
//! accuracy (WER), then compare what each platform would pay for a day of
//! such interactions — the energy argument at the heart of the paper's
//! introduction (cloud offload vs local CPU vs dedicated accelerator).
//!
//! ```text
//! cargo run --release --example voice_commands
//! ```

use asr_repro::accel::config::{AcceleratorConfig, DesignPoint};
use asr_repro::accel::energy::EnergyModel;
use asr_repro::on_accelerator;
use asr_repro::platform::{CpuModel, GpuModel};
use asr_repro::runtime::AsrRuntime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runtime = AsrRuntime::demo()?;
    let commands: Vec<Vec<&str>> = vec![
        vec!["call", "mom"],
        vec!["play", "music"],
        vec!["stop"],
        vec!["go", "home"],
        vec!["lights", "on"],
        vec!["lights", "off"],
        vec!["music", "off"],
        vec!["call", "home"],
    ];

    let cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc);
    let energy_model = EnergyModel::default();
    let mut total_wer = 0.0;
    let mut total_cycles = 0u64;
    let mut total_energy_j = 0.0;
    let mut total_arcs = 0u64;
    let mut total_frames = 0usize;

    println!(
        "{:<24} {:<24} {:>6} {:>10}",
        "spoken", "recognized", "WER", "cycles"
    );
    for cmd in &commands {
        let audio = runtime.render_words(cmd)?;
        let (transcript, result) = on_accelerator::recognize(&runtime, &audio, cfg.clone())?;
        let wer = runtime.wer(cmd, &transcript);
        total_wer += wer;
        total_cycles += result.stats.cycles;
        total_arcs += result.stats.arcs_processed + result.stats.eps_arcs_processed;
        total_frames += result.stats.frames;
        total_energy_j += energy_model.energy(&cfg, &result.stats).total_j();
        println!(
            "{:<24} {:<24} {:>5.0}% {:>10}",
            cmd.join(" "),
            transcript.words.join(" "),
            100.0 * wer,
            result.stats.cycles
        );
    }
    let n = commands.len() as f64;
    println!("\nmean WER: {:.1}%", 100.0 * total_wer / n);

    // The battery argument: energy for 500 such commands a day.
    let arcs_per_frame = total_arcs as f64 / total_frames as f64;
    let speech_s = total_frames as f64 * 0.01;
    let cpu = CpuModel::default().viterbi_point(arcs_per_frame);
    let gpu = GpuModel::default().viterbi_point(arcs_per_frame);
    let per_day = 500.0 / n; // scale the batch to 500 commands
    println!("\nprojected search energy for 500 commands/day:");
    println!(
        "  CPU (Kaldi-class software):   {:>9.2} J",
        cpu.energy_j_per_speech_s * speech_s * per_day
    );
    println!(
        "  GPU (CUDA decoder):           {:>9.2} J",
        gpu.energy_j_per_speech_s * speech_s * per_day
    );
    println!(
        "  accelerator (this work):      {:>9.4} J  ({} cycles total today)",
        total_energy_j * per_day,
        total_cycles
    );
    Ok(())
}
