//! Table I: hardware parameters of the accelerator.

use asr_accel::config::AcceleratorConfig;
use asr_bench::banner;

fn main() {
    banner("table1", "accelerator hardware parameters", "Table I");
    let c = AcceleratorConfig::default();
    let rows: Vec<(&str, String)> = vec![
        ("Technology", "28 nm (energy/area model)".into()),
        ("Frequency", format!("{} MHz", c.frequency_hz / 1_000_000)),
        (
            "State Cache",
            format!(
                "{} KB, {}-way, {} bytes/line",
                c.state_cache.capacity / 1024,
                c.state_cache.ways,
                c.state_cache.line
            ),
        ),
        (
            "Arc Cache",
            format!(
                "{} MB, {}-way, {} bytes/line",
                c.arc_cache.capacity / (1024 * 1024),
                c.arc_cache.ways,
                c.arc_cache.line
            ),
        ),
        (
            "Token Cache",
            format!(
                "{} KB, {}-way, {} bytes/line",
                c.token_cache.capacity / 1024,
                c.token_cache.ways,
                c.token_cache.line
            ),
        ),
        (
            "Acoustic Likelihood Buffer",
            format!("{} KB", c.acoustic_buffer / 1024),
        ),
        (
            "Hash Table",
            format!(
                "{} KB, {}K entries",
                c.hash_bytes() / 1024,
                c.hash_entries / 1024
            ),
        ),
        (
            "Memory Controller",
            format!("{} in-flight requests", c.mem_inflight),
        ),
        ("Memory Latency", format!("{} cycles", c.mem_latency)),
        (
            "State Issuer",
            format!("{} in-flight states", c.state_inflight),
        ),
        ("Arc Issuer", format!("{} in-flight arcs", c.arc_inflight)),
        (
            "Token Issuer",
            format!("{} in-flight tokens", c.token_inflight),
        ),
        ("Acoustic Likelihood Issuer", "1 in-flight arc".into()),
        (
            "Likelihood Evaluation Unit",
            "4 fp adders, 2 fp comparators".into(),
        ),
        (
            "Prefetch FIFOs / Reorder Buffer",
            format!("{} entries each", c.prefetch_fifo),
        ),
        (
            "State Issuer comparators (N)",
            format!("{}", c.state_opt_threshold),
        ),
    ];
    for (k, v) in &rows {
        println!("{k:<34} {v}");
    }
}
