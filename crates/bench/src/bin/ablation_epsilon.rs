//! Extension study: what if the WFST were epsilon-free?
//!
//! The paper keeps Kaldi's epsilon arcs (11.5% of the graph) and the
//! accelerator handles them with in-frame closure passes. Removing
//! epsilons offline trades graph size for pipeline simplicity; this
//! experiment quantifies that trade-off on the simulator — an ablation
//! the paper mentions only implicitly (epsilon arcs exist to keep the
//! graph small).

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_bench::{banner, Scale};
use asr_wfst::rmeps::remove_epsilons;

struct Row {
    graph: String,
    arcs: usize,
    epsilon_fraction: f64,
    cycles: u64,
    eps_arcs_evaluated: u64,
    traffic_mb: f64,
}

fn main() {
    let mut scale = Scale::from_args();
    // Epsilon removal is O(closure x arcs); run at reduced size.
    if scale.states > 300_000 {
        scale.states = 300_000;
    }
    banner(
        "ablation_epsilon",
        "epsilon arcs vs offline epsilon removal",
        "extension: Kaldi keeps 11.5% epsilon arcs to bound graph size",
    );
    let (wfst, scores) = scale.build();
    let eps_free = remove_epsilons(&wfst).expect("epsilon removal");
    let mut rows = Vec::new();
    for (name, graph) in [("with epsilons", &wfst), ("epsilon-free", &eps_free)] {
        let cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(scale.beam);
        let r = Simulator::new(cfg)
            .decode_wfst(graph, &scores)
            .expect("sim");
        rows.push(Row {
            graph: name.to_owned(),
            arcs: graph.num_arcs(),
            epsilon_fraction: graph.epsilon_fraction(),
            cycles: r.stats.cycles,
            eps_arcs_evaluated: r.stats.eps_arcs_processed,
            traffic_mb: r.stats.traffic.search_bytes() as f64 / 1e6,
        });
    }
    println!(
        "{:<16} {:>10} {:>8} {:>12} {:>10} {:>10}",
        "graph", "arcs", "eps%", "cycles", "eps evals", "traffic"
    );
    for r in &rows {
        println!(
            "{:<16} {:>10} {:>7.1}% {:>12} {:>10} {:>8.1}MB",
            r.graph,
            r.arcs,
            100.0 * r.epsilon_fraction,
            r.cycles,
            r.eps_arcs_evaluated,
            r.traffic_mb
        );
    }
    let growth = rows[1].arcs as f64 / rows[0].arcs as f64;
    println!("\narc-count growth from removal: {growth:.2}x");
    println!(
        "epsilon evaluations eliminated: {}",
        rows[0].eps_arcs_evaluated
    );
}
