//! The paper's headline experiment in miniature: schedule one RK substep's
//! data-flow diagram onto the simulated Xeon + Xeon Phi node under the
//! kernel-level (Fig. 2) and pattern-driven (Fig. 4 (b)) policies, and print
//! the per-pattern placements, device utilization and speedups.
//!
//! ```text
//! cargo run --release --example hybrid_speedup -- [n_cells]
//! ```

use mpas_repro::hybrid::sched::{schedule_substep, Placement};
use mpas_repro::hybrid::Platform;
use mpas_repro::patterns::dataflow::{DataflowGraph, MeshCounts, RkPhase};
use mpas_repro::sched::{KernelLevel, PatternDriven, Serial};

fn main() {
    let n_cells: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(655_362);
    let mc = MeshCounts::icosahedral(n_cells);
    let platform = Platform::paper_node();
    let graph = DataflowGraph::for_substep(RkPhase::Intermediate);

    let serial = schedule_substep(&graph, &mc, &platform, Serial);
    let kernel = schedule_substep(&graph, &mc, &platform, KernelLevel);
    let pattern = schedule_substep(&graph, &mc, &platform, PatternDriven);

    println!("mesh: {n_cells} cells; one intermediate RK substep\n");
    println!("pattern-driven placements:");
    for ns in &pattern.nodes {
        let place = match ns.placement {
            Placement::Cpu => "CPU".to_string(),
            Placement::Acc => "MIC".to_string(),
            Placement::Split(f) => format!("split {:.0}% MIC", f * 100.0),
        };
        println!(
            "  {:3}  [{:9.3} ms .. {:9.3} ms]  {place}",
            ns.name,
            ns.start * 1e3,
            ns.finish * 1e3
        );
    }

    let report = |name: &str, s: &mpas_repro::hybrid::Schedule| {
        println!(
            "{name:15} makespan {:8.3} ms  speedup {:5.2}x  cpu busy {:6.3} ms  mic busy {:6.3} ms  imbalance {:3.0}%",
            s.makespan * 1e3,
            serial.makespan / s.makespan,
            s.cpu_busy * 1e3,
            s.acc_busy * 1e3,
            s.imbalance() * 100.0
        );
    };
    println!();
    report("serial", &serial);
    report("kernel-level", &kernel);
    report("pattern-driven", &pattern);
    println!(
        "\npattern-driven advantage over kernel-level: {:.0}%",
        (kernel.makespan / pattern.makespan - 1.0) * 100.0
    );
    println!("(paper: 38% at the 15-km mesh; 8.35x vs 6.05x overall)");
}
