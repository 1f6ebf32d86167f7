//! Figure 9: decoding time per second of speech for the six
//! configurations (CPU, GPU, ASIC, ASIC+State, ASIC+Arc, ASIC+State&Arc).
//!
//! Paper: every configuration is faster than real time; the accelerator
//! with both memory optimizations decodes 56x faster than real time.

use asr_bench::{banner, standard_points, Scale};

struct Row {
    config: String,
    decode_s_per_speech_s: f64,
    real_time_factor: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "fig09",
        "decoding time per second of speech",
        "all real-time; CPU ~0.30 s, GPU ~0.030 s, final ASIC ~0.018 s",
    );
    let points = standard_points(&scale);
    let rows: Vec<Row> = points
        .iter()
        .map(|(name, p, _)| Row {
            config: name.clone(),
            decode_s_per_speech_s: p.decode_s_per_speech_s,
            real_time_factor: p.real_time_factor(),
        })
        .collect();
    println!(
        "{:<16} {:>16} {:>16}",
        "config", "decode s/speech-s", "x real time"
    );
    for r in &rows {
        println!(
            "{:<16} {:>16.5} {:>15.1}x",
            r.config, r.decode_s_per_speech_s, r.real_time_factor
        );
    }
    let all_real_time = rows.iter().all(|r| r.decode_s_per_speech_s < 1.0);
    println!("\nchecks:");
    println!("  all configurations are real-time: {all_real_time}");
}
