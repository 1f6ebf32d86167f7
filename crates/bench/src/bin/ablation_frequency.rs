//! Frequency-scaling ablation (extension beyond the paper).
//!
//! The paper fixes 600 MHz from the SRAM critical path (Section V). This
//! study asks what a different clock would buy: cycles shift with the
//! memory latency (83 ns of DRAM is more cycles at a faster clock),
//! wall-clock time divides by frequency, and leakage energy follows time.
//! The result shows the knee the authors designed at — past the SRAM
//! limit, extra frequency mostly waits on DRAM.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::energy::EnergyModel;
use asr_accel::sim::Simulator;
use asr_bench::{banner, Scale};

struct Row {
    mhz: u64,
    mem_latency_cycles: u64,
    cycles: u64,
    decode_ms: f64,
    energy_mj: f64,
    power_mw: f64,
}

/// The DRAM's absolute latency, fixed by the memory parts (83 ns).
const DRAM_NS: f64 = 83.3;

fn main() {
    let scale = Scale::from_args();
    banner(
        "ablation_frequency",
        "clock frequency sweep of the final design",
        "extension: the paper fixes 600 MHz from the SRAM critical path",
    );
    let (wfst, scores) = scale.build();
    let model = EnergyModel::default();
    let mut rows = Vec::new();
    for mhz in [300u64, 450, 600, 800, 1000] {
        let mut cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(scale.beam);
        cfg.frequency_hz = mhz * 1_000_000;
        // The DRAM's nanoseconds are constant; its cycle count is not.
        cfg.mem_latency = ((DRAM_NS * mhz as f64) / 1000.0).round() as u64;
        let r = Simulator::new(cfg.clone())
            .decode_wfst(&wfst, &scores)
            .expect("sim");
        let energy = model.energy(&cfg, &r.stats);
        let seconds = r.stats.seconds(cfg.frequency_hz);
        rows.push(Row {
            mhz,
            mem_latency_cycles: cfg.mem_latency,
            cycles: r.stats.cycles,
            decode_ms: seconds * 1e3,
            energy_mj: energy.total_j() * 1e3,
            power_mw: energy.power_w(seconds) * 1e3,
        });
    }
    println!(
        "{:>6} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "MHz", "mem cyc", "cycles", "time", "energy", "power"
    );
    for r in &rows {
        println!(
            "{:>6} {:>10} {:>12} {:>8.2}ms {:>8.3}mJ {:>8.0}mW",
            r.mhz, r.mem_latency_cycles, r.cycles, r.decode_ms, r.energy_mj, r.power_mw
        );
    }
    // Diminishing returns: speedup from doubling 300 -> 600 vs 600 -> 1000+.
    let t = |mhz: u64| rows.iter().find(|r| r.mhz == mhz).unwrap().decode_ms;
    println!(
        "\nspeedup 300->600 MHz: {:.2}x; 600->1000 MHz (1.67x clock): {:.2}x",
        t(300) / t(600),
        t(600) / t(1000)
    );
}
