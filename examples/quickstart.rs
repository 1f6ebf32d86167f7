//! Quickstart: recognize a spoken command with the full pipeline, on both
//! the software decoder and the simulated accelerator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use asr_repro::accel::config::{AcceleratorConfig, DesignPoint};
use asr_repro::on_accelerator;
use asr_repro::runtime::AsrRuntime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A twelve-word command vocabulary with a uniform grammar.
    let runtime = AsrRuntime::demo()?;
    println!(
        "decoding graph: {} states, {} arcs",
        runtime.graph().num_states(),
        runtime.graph().num_arcs()
    );

    // Synthesize the utterance "call mom" (16 kHz waveform).
    let audio = runtime.render_words(&["call", "mom"])?;
    println!(
        "utterance: {} samples ({} frames of 10 ms)",
        audio.samples.len(),
        audio.num_frames()
    );

    // Software decoder (the CPU path).
    let sw = runtime.recognize(&audio);
    println!("\nsoftware decoder:   {:?} (cost {:.2})", sw.words, sw.cost);

    // Cycle-accurate accelerator simulation (the paper's final design).
    let cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc);
    let (hw, result) = on_accelerator::recognize(&runtime, &audio, cfg)?;
    println!("accelerator:        {:?} (cost {:.2})", hw.words, hw.cost);
    println!(
        "hardware: {} cycles ({:.1} us at 600 MHz), {} arcs evaluated, {} bytes off-chip",
        result.stats.cycles,
        result.stats.cycles as f64 / 600.0,
        result.stats.arcs_processed + result.stats.eps_arcs_processed,
        result.stats.traffic.search_bytes(),
    );
    assert_eq!(sw.words, hw.words, "hardware must match software");
    println!("\nsoftware and hardware agree.");
    Ok(())
}
