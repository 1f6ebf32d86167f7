//! Reproduction of the paper's qualitative claims at test scale.
//!
//! These assertions pin the *shape* of every headline result — orderings,
//! rough factors, crossovers — on a reduced workload so they run in CI.
//! The full-scale numbers are regenerated by the `asr-bench` figure
//! binaries (`crates/bench/src/bin/fig*.rs`), which print each table to
//! stdout.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::energy::{AreaModel, EnergyModel};
use asr_accel::sim::{SimResult, Simulator};
use asr_acoustic::scores::AcousticTable;
use asr_platform::calibration::REFERENCE_DNN_FLOPS_PER_FRAME;
use asr_platform::pipeline::PipelineModel;
use asr_platform::{CpuModel, GpuModel};
use asr_wfst::sorted::SortedWfst;
use asr_wfst::stats::DegreeCdf;
use asr_wfst::Wfst;

fn workload() -> (Wfst, AcousticTable) {
    let wfst = asr_testkit::graph(120_000, 42);
    let scores = asr_testkit::rows(&wfst, 40, 9);
    (wfst, scores)
}

fn run(design: DesignPoint, wfst: &Wfst, scores: &AcousticTable) -> SimResult {
    Simulator::new(AcceleratorConfig::for_design(design).with_beam(12.0))
        .decode_wfst(wfst, scores)
        .unwrap()
}

#[test]
fn figure10_design_point_ordering() {
    let (wfst, scores) = workload();
    let base = run(DesignPoint::Base, &wfst, &scores);
    let state = run(DesignPoint::StateOpt, &wfst, &scores);
    let arc = run(DesignPoint::ArcPrefetch, &wfst, &scores);
    let both = run(DesignPoint::StateAndArc, &wfst, &scores);
    // Paper: base <= +State << +Arc <= +State&Arc. The state optimization
    // targets bandwidth, not latency, so its time effect is within noise
    // (paper: 2%); allow a small slack band around the base.
    assert!(state.stats.cycles as f64 <= base.stats.cycles as f64 * 1.05);
    assert!(arc.stats.cycles < state.stats.cycles);
    assert!(both.stats.cycles as f64 <= arc.stats.cycles as f64 * 1.05);
    // +State alone is a small effect (paper: 2%); the prefetcher is the
    // big one (paper: 1.87x; we assert > 1.4x).
    let state_gain = base.stats.cycles as f64 / state.stats.cycles as f64;
    let arc_gain = base.stats.cycles as f64 / arc.stats.cycles as f64;
    assert!(state_gain < 1.25, "state-opt alone gained {state_gain:.2}x");
    assert!(arc_gain > 1.4, "prefetcher gained only {arc_gain:.2}x");
}

#[test]
fn figure13_traffic_reduction_near_twenty_percent() {
    let (wfst, scores) = workload();
    let base = run(DesignPoint::Base, &wfst, &scores);
    let opt = run(DesignPoint::StateOpt, &wfst, &scores);
    let base_total = base.stats.traffic.search_bytes() as f64;
    let opt_total = opt.stats.traffic.search_bytes() as f64;
    let reduction = 1.0 - opt_total / base_total;
    // Paper: ~20%. Accept a band.
    assert!(
        (0.10..0.35).contains(&reduction),
        "traffic reduction {reduction:.3} out of band"
    );
    // Most state fetches disappear.
    assert!(opt.stats.traffic.states < base.stats.traffic.states / 5);
}

#[test]
fn section4_arc_cache_is_the_dominant_bottleneck() {
    let (wfst, scores) = workload();
    let base = run(DesignPoint::Base, &wfst, &scores);
    let perfect = |f: fn(&mut AcceleratorConfig)| -> u64 {
        let mut cfg = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(12.0);
        f(&mut cfg);
        Simulator::new(cfg)
            .decode_wfst(&wfst, &scores)
            .unwrap()
            .stats
            .cycles
    };
    let p_arc = perfect(|c| c.perfect_arc_cache = true);
    let p_state = perfect(|c| c.perfect_state_cache = true);
    let p_token = perfect(|c| c.perfect_token_cache = true);
    let arc_speedup = base.stats.cycles as f64 / p_arc as f64;
    let state_speedup = base.stats.cycles as f64 / p_state as f64;
    let token_speedup = base.stats.cycles as f64 / p_token as f64;
    // Paper: 1.95x vs 1.09x vs 1.02x.
    assert!(
        arc_speedup > state_speedup,
        "{arc_speedup} vs {state_speedup}"
    );
    assert!(state_speedup >= token_speedup * 0.99);
    assert!(arc_speedup > 1.5);
    assert!(token_speedup < 1.1);
}

#[test]
fn section4_prefetcher_approaches_perfect_arc_cache() {
    let (wfst, scores) = workload();
    let pf = run(DesignPoint::ArcPrefetch, &wfst, &scores);
    let mut cfg = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(12.0);
    cfg.perfect_arc_cache = true;
    let perfect = Simulator::new(cfg).decode_wfst(&wfst, &scores).unwrap();
    let fraction = perfect.stats.cycles as f64 / pf.stats.cycles as f64;
    // Paper: 97% of a perfect cache.
    assert!(fraction > 0.90, "prefetcher at {fraction:.3} of perfect");
}

#[test]
fn figure7_dynamic_degree_distribution() {
    let (wfst, _) = workload();
    let cdf = DegreeCdf::from_static(&wfst);
    assert!(cdf.cumulative(15) > 0.90);
    assert!(
        cdf.cumulative(16) > 0.95,
        "paper: >95% of states direct at N=16"
    );
    assert!(cdf.max_degree() > 16, "heavy tail must exist");
    let sorted = SortedWfst::new(&wfst).unwrap();
    assert!(sorted.static_direct_fraction() > 0.95);
}

#[test]
fn figures_11_and_12_energy_orders_of_magnitude() {
    let (wfst, scores) = workload();
    let cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(12.0);
    let r = Simulator::new(cfg.clone())
        .decode_wfst(&wfst, &scores)
        .unwrap();
    let energy = EnergyModel::default().energy(&cfg, &r.stats);
    let speech_s = r.stats.frames as f64 * 0.01;
    let asic_j = energy.total_j() / speech_s;
    let arcs_per_frame = r.stats.arcs_per_frame();
    let gpu_j = GpuModel::default()
        .viterbi_point(arcs_per_frame)
        .energy_j_per_speech_s;
    let cpu_j = CpuModel::default()
        .viterbi_point(arcs_per_frame)
        .energy_j_per_speech_s;
    // Paper: 287x vs GPU, 1185x vs CPU. Assert two orders of magnitude.
    assert!(gpu_j / asic_j > 100.0, "only {:.0}x vs GPU", gpu_j / asic_j);
    assert!(cpu_j / asic_j > 300.0, "only {:.0}x vs CPU", cpu_j / asic_j);
    // Power stays sub-watt (paper: 389-462 mW).
    let power = energy.power_w(r.stats.seconds(cfg.frequency_hz));
    assert!(power < 1.5, "accelerator power {power:.2} W");
}

#[test]
fn figure1_shares_and_full_pipeline_speedup() {
    let cpu = CpuModel::default();
    let gpu = GpuModel::default();
    let apf = 25_000.0;
    let cpu_share = cpu.viterbi_s_per_speech_s(apf)
        / (cpu.viterbi_s_per_speech_s(apf) + cpu.dnn_s_per_speech_s(REFERENCE_DNN_FLOPS_PER_FRAME));
    let gpu_share = gpu.viterbi_s_per_speech_s(apf)
        / (gpu.viterbi_s_per_speech_s(apf) + gpu.dnn_s_per_speech_s(REFERENCE_DNN_FLOPS_PER_FRAME));
    assert!((cpu_share - 0.73).abs() < 0.02);
    assert!((gpu_share - 0.86).abs() < 0.02);
    // Full pipeline: GPU+accelerator vs GPU-only (paper: 1.87x).
    let cmp = PipelineModel::default().compare(apf, REFERENCE_DNN_FLOPS_PER_FRAME, 1.0 / 56.0);
    let speedup = cmp.speedup_over_gpu_only();
    assert!(
        (1.6..2.2).contains(&speedup),
        "pipeline speedup {speedup:.2}"
    );
}

#[test]
fn section6_area_additions_are_negligible() {
    let base = AreaModel.area(&AcceleratorConfig::for_design(DesignPoint::Base));
    let final_ = AreaModel.area(&AcceleratorConfig::for_design(DesignPoint::StateAndArc));
    assert!((base.total_mm2() - 24.06).abs() < 0.01);
    let growth = final_.total_mm2() / base.total_mm2() - 1.0;
    assert!(growth > 0.0 && growth < 0.001, "area growth {growth:.5}");
}

#[test]
fn real_time_performance_at_scale() {
    // Paper: 56x faster than real time on the final design. At our scale
    // the factor is larger (smaller model); assert comfortably real-time.
    let (wfst, scores) = workload();
    let cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(12.0);
    let freq = cfg.frequency_hz;
    let r = Simulator::new(cfg).decode_wfst(&wfst, &scores).unwrap();
    assert!(r.stats.real_time_factor(freq) > 10.0);
}

#[test]
fn section4_conventional_prefetchers_waste_bandwidth() {
    // Paper: "conventional hardware prefetchers are ineffective ...
    // produce slowdowns and increase energy due to useless prefetches."
    use asr_accel::config::HwPrefetcher;
    let (wfst, scores) = workload();
    let base = run(DesignPoint::Base, &wfst, &scores);
    let decoupled = run(DesignPoint::ArcPrefetch, &wfst, &scores);
    for pf in [HwPrefetcher::NextLine, HwPrefetcher::Stride] {
        let mut cfg = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(12.0);
        cfg.hw_prefetcher = pf;
        let r = Simulator::new(cfg).decode_wfst(&wfst, &scores).unwrap();
        // Same decode, more off-chip traffic.
        assert!(
            r.stats.traffic.arcs > base.stats.traffic.arcs,
            "{pf:?} must inflate arc traffic"
        );
        assert!(r.stats.arc_cache.prefetch_fills > 0);
        // Nowhere near the decoupled architecture's benefit.
        let speedup = base.stats.cycles as f64 / r.stats.cycles as f64;
        let decoupled_speedup = base.stats.cycles as f64 / decoupled.stats.cycles as f64;
        assert!(
            speedup < 0.6 * decoupled_speedup,
            "{pf:?} speedup {speedup:.2} too close to decoupled {decoupled_speedup:.2}"
        );
    }
}
